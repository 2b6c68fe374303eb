"""Hypothesis strategies for graphs that more than one test module draws,
and the induced subgraph that test references build."""

import math
from itertools import combinations

from hypothesis import strategies as st

from chargraph.graphs import CharGraph, make_graph


def induced_subgraph(g, vs):
    """g restricted to the ascending vertex ids vs as a graph of its own: the
    vertices kept in g's order, the pmf renormalized."""
    idx = {v: i for i, v in enumerate(vs)}
    mass = math.fsum(g.pmf[v] for v in vs)
    return CharGraph(
        vertices=tuple(g.vertices[v] for v in vs),
        neighbors=tuple(frozenset(idx[u] for u in g.neighbors[v] if u in idx) for v in vs),
        pmf=tuple(g.pmf[v] / mass for v in vs),
    )


@st.composite
def complete_multipartite(draw):
    """A complete multipartite graph with 2-4 parts of 1-3 vertices each,
    shuffled labels and random masses, and its parts as label sets."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    labels = draw(st.permutations(range(sum(sizes))))
    parts, start = [], 0
    for size in sizes:
        parts.append(labels[start:start + size])
        start += size
    edges = [
        (a, b) for pa, pb in combinations(parts, 2) for a in pa for b in pb
    ]
    masses = draw(st.lists(st.floats(0.05, 1.0), min_size=len(labels), max_size=len(labels)))
    return make_graph(dict(zip(labels, masses)), edges), parts
