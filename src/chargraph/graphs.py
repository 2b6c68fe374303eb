"""Characteristic graphs: construction, unions, OR powers, MIS enumeration,
and deterministic colorings.

A vertex is a positive-probability local symbol; an edge joins two symbols
that some shared positive-probability completion forces the user to tell
apart. Entropy solvers over these graphs live in solvers.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, product as iter_product
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DeskScaleError, ValidationError
from .functions import DemandSpec, evaluate_demand
from .probability import SUPPORT_TOL, JointPmf
from .topology import Placement

MIS_GUARD = 64          # max |V| for maximal-independent-set enumeration (recursion depth)
MIS_CELL_GUARD = 10**6  # max |V| x MIS count: the cells of the solver's support mask
PAIR_GUARD = 10**6      # max vertex pairs |V|^(2n) of an OR power
EXACT_COLOR_GUARD = 12  # max |V| for exact minimum colorings / partitions

Label = Hashable


@dataclass(frozen=True)
class CharGraph:
    """Vertex-labelled graph with a PMF.  neighbors[i] holds the ids adjacent
    to i, the one stored adjacency; edges is its view as pairs (i, j), i < j."""

    vertices: tuple[Label, ...]
    neighbors: tuple[frozenset[int], ...]
    pmf: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n == 0:
            raise ValidationError("graph needs at least one vertex")
        if len(set(self.vertices)) != n:
            raise ValidationError("duplicate vertex labels")
        if len(self.pmf) != n:
            raise ValidationError("pmf length must match vertex count")
        if not all(m > 0.0 for m in self.pmf):
            raise ValidationError("every vertex must carry positive probability")
        if not abs(math.fsum(self.pmf) - 1.0) <= 1e-9:
            raise ValidationError("vertex pmf must sum to 1")
        if len(self.neighbors) != n:
            raise ValidationError("need one neighbour set per vertex")
        ids = frozenset(range(n))
        for i, s in enumerate(self.neighbors):
            if not s <= ids:
                raise ValidationError(f"neighbours {sorted(s - ids)} of vertex {i} are not vertex ids")
            if i in s:
                raise ValidationError(f"self-loop at vertex {self.vertices[i]!r}")
            if not all(i in self.neighbors[j] for j in s):
                raise ValidationError(f"vertex {i} has a neighbour that is not adjacent to it")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, s in enumerate(self.neighbors) for j in s if i < j)

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]


def make_graph(
    masses: Mapping[Label, float], edge_pairs: Iterable[tuple[Label, Label]]
) -> CharGraph:
    """Normalize masses (rejecting negative or non-finite ones, pruning
    sub-threshold vertices), sort labels, and join the given label pairs."""
    bad = [v for v, m in masses.items() if not 0.0 <= m < math.inf]
    if bad:
        raise ValidationError(f"vertex {bad[0]!r} has a negative or non-finite mass")
    kept = {v: m for v, m in masses.items() if m > SUPPORT_TOL}
    if not kept:
        raise ValidationError("no vertex has positive probability")
    vertices = tuple(sorted(kept, key=repr))
    total = math.fsum(kept.values())
    pmf = tuple(kept[v] / total for v in vertices)
    idx = {v: i for i, v in enumerate(vertices)}
    nbrs: list[set[int]] = [set() for _ in vertices]
    for a, b in edge_pairs:
        if a in idx and b in idx:  # else an endpoint was pruned
            nbrs[idx[a]].add(idx[b])
            nbrs[idx[b]].add(idx[a])
    return CharGraph(vertices=vertices, neighbors=tuple(map(frozenset, nbrs)), pmf=pmf)


def confusability_graph(
    points: Iterable[tuple[Label, Hashable, float, Hashable]],
) -> CharGraph:
    """Graph on the vertex labels of support points (vertex, completion key,
    mass, outputs): each vertex carries the total mass of its points, and
    two vertices are joined iff a point of each shares a completion key but
    not the outputs.  Outputs must be a function of (vertex, completion key):
    otherwise the vertex would be joined to itself, which make_graph rejects."""
    masses: dict[Label, float] = {}
    groups: dict[Hashable, list[tuple[Hashable, Label]]] = {}  # key -> (outputs, vertex)
    for v, key, m, out in points:
        masses[v] = masses.get(v, 0.0) + m
        groups.setdefault(key, []).append((out, v))
    edge_pairs = [
        (a, b)
        for group in groups.values()
        if len(group) > 1
        for (out_a, a), (out_b, b) in combinations(group, 2)
        if out_a != out_b
    ]
    return make_graph(masses, edge_pairs)


def induced_subgraph(g: CharGraph, vs: Sequence[int]) -> CharGraph:
    """g restricted to the ascending vertex ids vs, with the pmf renormalized
    and the vertices kept in g's order."""
    idx = {v: i for i, v in enumerate(vs)}
    mass = math.fsum(g.pmf[v] for v in vs)
    return CharGraph(
        vertices=tuple(g.vertices[v] for v in vs),
        neighbors=tuple(frozenset(idx[u] for u in g.neighbors[v] if u in idx) for v in vs),
        pmf=tuple(g.pmf[v] / mass for v in vs),
    )


def build_char_graph(
    d: DemandSpec,
    p: Placement,
    joint: JointPmf,
    i: int,
    demand_subset: Iterable[int] | None = None,
) -> CharGraph:
    """Characteristic graph of server i for the demanded functions in
    demand_subset (1-based ids; default all, which realizes the union graph).

    Vertices are the positive-probability local tuples W_{Z_i}; two are joined
    iff some completion of every other coordinate has positive probability
    with both and makes a selected demand differ.  A point local support
    gives a one-vertex graph.
    """
    if joint.arity != d.k or p.k != d.k:
        raise ValidationError("joint, placement, and demand disagree on K")
    sel = _demand_ids(d, demand_subset)
    zone = p.zone0(i)
    rest_coords = tuple(c for c in range(d.k) if c not in zone)

    def point(w: tuple[int, ...], m: float):
        full = evaluate_demand(d, w)
        return (
            tuple(w[c] for c in zone),
            tuple(w[c] for c in rest_coords),
            m,
            tuple(full[j - 1] for j in sel),
        )

    return confusability_graph(point(w, m) for w, m in joint.support())


def _demand_ids(d: DemandSpec, demand_subset: Iterable[int] | None) -> tuple[int, ...]:
    if demand_subset is None:
        return tuple(range(1, d.kc + 1))
    sel = tuple(sorted(set(int(j) for j in demand_subset)))
    if not sel or sel[0] < 1 or sel[-1] > d.kc:
        raise ValidationError(f"demand subset {sel} outside 1..{d.kc}")
    return sel


def union_graph(gs: Sequence[CharGraph]) -> CharGraph:
    """Edge-union of graphs sharing one vertex set and PMF."""
    if not gs:
        raise ValidationError("union of zero graphs")
    base = gs[0]
    for g in gs[1:]:
        if g.vertices != base.vertices:
            raise ValidationError("union requires identical vertex lists")
        if any(abs(a - b) > 1e-12 for a, b in zip(g.pmf, base.pmf)):
            raise ValidationError("union requires identical vertex PMFs")
    neighbors = tuple(frozenset().union(*s) for s in zip(*(g.neighbors for g in gs)))
    return CharGraph(vertices=base.vertices, neighbors=neighbors, pmf=base.pmf)


def or_power(g: CharGraph, n: int) -> CharGraph:
    """n-th OR power: vertices are n-tuples with the product PMF, adjacent iff
    SOME coordinate pair is an edge of g.  Two tuples are non-adjacent iff
    every coordinate pair is equal or non-adjacent, so with g's "equal or
    non-adjacent" matrix J - A, the adjacency of G^n is the complement of
    the n-fold Kronecker power of J - A (tuples in lexicographic order)."""
    if n < 1:
        raise ValidationError("power must be >= 1")
    if g.n ** (2 * n) > PAIR_GUARD:
        raise DeskScaleError(f"{g.n}^{2 * n} vertex pairs exceed the {PAIR_GUARD} guard")
    idx_tuples = list(iter_product(range(g.n), repeat=n))
    vertices = tuple(tuple(g.vertices[i] for i in t) for t in idx_tuples)
    pmf = tuple(math.prod(g.pmf[i] for i in t) for t in idx_tuples)
    agree = np.ones((g.n, g.n), dtype=bool)
    for i, s in enumerate(g.neighbors):
        agree[i, list(s)] = False
    adjacency = ~reduce(np.kron, [agree] * n)
    neighbors = tuple(frozenset(np.flatnonzero(row).tolist()) for row in adjacency)
    return CharGraph(vertices=vertices, neighbors=neighbors, pmf=pmf)


@dataclass(frozen=True)
class MisFamily:
    """All maximal independent sets, in ascending order."""

    sets: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.sets)


def enumerate_mis(g: CharGraph) -> MisFamily:
    """Maximal independent sets of g = maximal cliques of its complement,
    enumerated by pivoting branch-and-bound.  Stops with DeskScaleError once
    |V| x (sets found) passes MIS_CELL_GUARD."""
    if g.n > MIS_GUARD:
        raise DeskScaleError(f"|V| = {g.n} exceeds the MIS guard {MIS_GUARD}")
    all_v = frozenset(range(g.n))
    co_nbrs = tuple(all_v - g.neighbors[v] - {v} for v in range(g.n))

    found: list[tuple[int, ...]] = []

    def expand(clique: set[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            found.append(tuple(sorted(clique)))
            if g.n * len(found) > MIS_CELL_GUARD:
                raise DeskScaleError(
                    f"|V| x MIS count passes the {MIS_CELL_GUARD} cell guard"
                )
            return
        pivot = max(cand | excl, key=lambda u: len(cand & co_nbrs[u]))
        for v in sorted(cand - co_nbrs[pivot]):
            expand(clique | {v}, cand & co_nbrs[v], excl & co_nbrs[v])
            cand.remove(v)
            excl.add(v)

    expand(set(), set(all_v), set())
    return MisFamily(sets=tuple(sorted(found)))


def _degree_order(g: CharGraph) -> list[int]:
    """Vertex ids by decreasing degree, ties by id."""
    return sorted(range(g.n), key=lambda v: (-len(g.neighbors[v]), v))


def greedy_coloring(g: CharGraph) -> tuple[int, ...]:
    """Deterministic greedy coloring, the color of each vertex id: vertices
    by decreasing degree, ties by id; each gets the smallest color absent
    from its colored neighbors."""
    colors = [-1] * g.n  # -1: not colored yet
    for v in _degree_order(g):
        used = {colors[u] for u in g.neighbors[v]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return tuple(colors)


def exact_min_coloring(g: CharGraph) -> tuple[int, ...]:
    """Minimum-count coloring by branch and bound (saturation-guided), exact
    for |V| <= 12; starts from the greedy upper bound, and returns it at once
    when a clique grown greedily in the same vertex order is as large."""
    if g.n > EXACT_COLOR_GUARD:
        raise DeskScaleError(f"|V| = {g.n} exceeds the exact-coloring guard")
    best = greedy_coloring(g)
    best_k = max(best) + 1
    # a clique needs one color per vertex, so no coloring beats greedy's, and
    # the search below (which only keeps strictly fewer colors) would return it
    clique: list[int] = []
    for v in _degree_order(g):
        if g.neighbors[v].issuperset(clique):
            clique.append(v)
    if len(clique) == best_k:
        return best

    colors = [-1] * g.n  # -1: not colored yet

    def used_by_neighbors(v: int) -> set[int]:
        return {colors[u] for u in g.neighbors[v]} - {-1}

    def descend(used_k: int) -> None:
        nonlocal best, best_k
        if used_k >= best_k:
            return
        uncolored = [v for v in range(g.n) if colors[v] < 0]
        if not uncolored:
            best, best_k = tuple(colors), used_k
            return
        v = max(uncolored, key=lambda u: (len(used_by_neighbors(u)), len(g.neighbors[u]), -u))
        forbidden = used_by_neighbors(v)
        for c in range(min(used_k + 1, best_k)):
            if c in forbidden:
                continue
            colors[v] = c
            descend(max(used_k, c + 1))
            colors[v] = -1

    descend(0)
    return best


def validate_coloring(g: CharGraph, coloring: Sequence[int]) -> None:
    """coloring[v] is the color of vertex id v; adjacent ids must differ."""
    if len(coloring) != g.n:
        raise ValidationError("coloring must assign every vertex")
    for i, j in g.edges:
        if coloring[i] == coloring[j]:
            raise ValidationError(
                f"vertices {g.vertices[i]!r} and {g.vertices[j]!r} are adjacent "
                f"but share color {coloring[i]}"
            )


def graph_to_dot(g: CharGraph, name: str = "G") -> str:
    """DOT text: vertices labelled by their local tuples, one line per edge."""
    lines = [f"graph {name} {{"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{v}" p="{g.pmf[i]:.6g}"];')
    for i, j in sorted(g.edges):
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines)
