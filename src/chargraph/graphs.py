"""Characteristic graphs: construction, OR powers, the component split, MIS
enumeration, and deterministic colorings.

A vertex is a positive-probability local symbol; an edge joins two symbols
that some shared positive-probability completion forces the user to tell
apart. Each graph-layer decision has one place: support_items reads a
law's support and its demanded outputs, zone_split codes every graph's
coordinates, components is the one split (solver blocks, coloring
components), made once per graph, is_clique lets both price or color a
clique directly, is_complete_multipartite lets the solver price a graph
whose MISs partition it by its parts, and min_partition is the one exact
search over independent-set partitions (exact_min_coloring,
solvers.chromatic_entropy).
A block is named by ascending vertex ids of its one graph: is_clique,
enumerate_mis and the two colorings read the subgraph those ids induce,
in that subgraph's ids (position in the block), without building it. The
demand spec alone picks which demands a graph covers: build_char_graph
joins what any demanded function tells apart (the union graph).
enumerate_mis is bounded by its work, |V| x (|V| + search nodes), which
also bounds the solver's support mask, |V| x MIS count (MIS_CELL_GUARD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import product as iter_product
from typing import AbstractSet, Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DeskScaleError, ValidationError
from .functions import DemandSpec, evaluate_demand
from .probability import SUPPORT_TOL, JointPmf
from .topology import Placement

MIS_CELL_GUARD = 10**6  # max |V| x (|V| + search nodes) of an MIS enumeration
PAIR_GUARD = 10**6      # max vertex pairs |V|^(2n) of an OR power
EXACT_COLOR_GUARD = 12  # max |V| for exact colorings (per component) and partitions

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
        neighbors = self.neighbors
        for i, s in enumerate(neighbors):
            if not s <= ids:
                raise ValidationError(f"neighbours {sorted(s - ids)} of vertex {i} are not vertex ids")
            if i in s:
                raise ValidationError(f"self-loop at vertex {self.vertices[i]!r}")
            # a plain loop: a generator under all() costs a frame per entry,
            # and OR powers have 10^5 entries
            for j in s:
                if i not in neighbors[j]:
                    raise ValidationError(f"vertex {i} has a neighbour that is not adjacent to it")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, s in enumerate(self.neighbors) for j in s if i < j)

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        return _split(self, None)

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]


def make_graph(
    masses: Mapping[Label, float], edge_pairs: Iterable[tuple[Label, Label]]
) -> CharGraph:
    """Normalize masses (rejecting negative or non-finite ones, pruning
    sub-threshold vertices), order the vertices by the repr of their
    labels, the keys of masses, and join the given pairs of labels."""
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


def integer_codes(values: Iterable[Hashable]) -> tuple[list[int], list[Hashable]]:
    """The code of each value (0, 1, ... in order of first appearance) and
    the value of each code."""
    index: dict[Hashable, int] = {}
    codes = [index.setdefault(v, len(index)) for v in values]
    return codes, list(index)


def confusability_graph(
    vertex: Sequence[int],
    key: Sequence[int],
    mass: Sequence[float],
    out: Sequence[int],
    label: Callable[[int], Label],
) -> tuple[CharGraph, dict[int, int]]:
    """Graph on the vertex codes of support points, point k given by its
    vertex code vertex[k], completion-key code key[k], mass mass[k] and
    output code out[k]: each vertex carries the total mass of its points,
    and two vertices are joined iff a point of each shares a completion key
    but not the outputs.  label(code) is a vertex's label, built once per
    code; make_graph orders the vertices by the repr of their labels.
    Returns the graph and the vertex id of each code that make_graph keeps.
    Outputs must be a function of (vertex, completion key): otherwise the
    vertex would be joined to itself, which CharGraph rejects."""
    masses: dict[int, float] = {}
    groups: dict[int, list[tuple[int, int]]] = {}  # key -> (output, vertex) so far
    edge_pairs: set[tuple[int, int]] = set()
    for v, k, m, o in zip(vertex, key, mass, out):
        masses[v] = masses.get(v, 0.0) + m
        group = groups.setdefault(k, [])
        for out_u, u in group:
            if out_u != o:
                edge_pairs.add((u, v))
        group.append((o, v))
    labels = {v: label(v) for v in masses}
    code = {lab: v for v, lab in labels.items()}
    if len(code) != len(labels):
        raise ValidationError("duplicate vertex labels")
    g = make_graph(
        {labels[v]: m for v, m in masses.items()},
        [(labels[u], labels[v]) for u, v in edge_pairs],
    )
    return g, {code[lab]: i for i, lab in enumerate(g.vertices)}


def components(
    g: CharGraph, side: Sequence[Hashable] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Connected components of g, as ascending vertex ids, in the order of
    their smallest ids; g is split once, however often it is asked. With
    side symbols, the edges between vertices whose symbols differ are
    dropped first: the blocks of a conditional program. When every
    component meets one symbol, they are those blocks; a chain stage graph
    has no edge across transcript sections, so its sections split nothing
    and the chain prices it with one side symbol."""
    comps = g._components
    if side is None or all(side[v] == side[c[0]] for c in comps for v in c):
        return comps
    return _split(g, side)


def _split(g: CharGraph, side: Sequence[Hashable] | None) -> tuple[tuple[int, ...], ...]:
    comp_of = [-1] * g.n
    comps: list[tuple[int, ...]] = []
    for s in range(g.n):
        if comp_of[s] >= 0:
            continue
        comp_of[s] = len(comps)
        comp = [s]
        for v in comp:  # grows while it is walked
            for u in g.neighbors[v]:
                if comp_of[u] < 0 and (side is None or side[u] == side[v]):
                    comp_of[u] = len(comps)
                    comp.append(u)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def is_clique(g: CharGraph, vs: Sequence[int]) -> bool:
    """Whether the ids vs are pairwise adjacent; neighbours outside vs do not count."""
    for i in range(1, len(vs)):
        if not g.neighbors[vs[i]].issuperset(vs[:i]):  # joined to every earlier id
            return False
    return True


class ZoneSplit(NamedTuple):
    """A server's split of support points: each point's local code, each local
    code's tuple, and each point's code of the rest, which has n_rest codes."""

    local: list[int]
    labels: list[tuple[int, ...]]
    rest: list[int]
    n_rest: int


def zone_split(ws: Sequence[tuple[int, ...]], zone: Sequence[int]) -> ZoneSplit:
    """The split of the support points ws by the coordinates in zone."""
    rest_coords = tuple(c for c in range(len(ws[0])) if c not in zone)
    local, labels = integer_codes(tuple(w[c] for c in zone) for w in ws)
    rest, rest_values = integer_codes(tuple(w[c] for c in rest_coords) for w in ws)
    return ZoneSplit(local, labels, rest, len(rest_values))


def support_items(
    d: DemandSpec, p: Placement, joint: JointPmf
) -> list[tuple[tuple[int, ...], float, tuple[int, ...]]]:
    """Each support point of joint with its mass and its demanded outputs:
    the one place that checks that the joint, the placement and the demand
    agree on K."""
    if joint.arity != d.k or p.k != d.k:
        raise ValidationError("joint, placement, and demand disagree on K")
    items = [(w, m, evaluate_demand(d, w)) for w, m in joint.support()]
    if not items:
        raise ValidationError("joint has empty support")
    return items


def build_char_graph(d: DemandSpec, p: Placement, joint: JointPmf, i: int) -> CharGraph:
    """Characteristic graph of server i for every function d demands: the
    union over the demanded functions. A graph for some of them is built
    from a spec that holds only those.

    Vertices are the positive-probability local tuples W_{Z_i}; two are joined
    iff some completion of every other coordinate has positive probability
    with both and makes a demand differ.  A point local support gives a
    one-vertex graph.
    """
    items = support_items(d, p, joint)
    local, labels, rest, _ = zone_split([w for w, _, _ in items], p.zone0(i))
    outs, _ = integer_codes(dem for _, _, dem in items)
    return confusability_graph(local, rest, [m for _, m, _ in items], outs, labels.__getitem__)[0]


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
    vertices = tuple(iter_product(g.vertices, repeat=n))
    pmf = tuple(reduce(np.kron, [np.array(g.pmf)] * n).tolist())
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


def enumerate_mis(g: CharGraph, vs: Sequence[int] | None = None) -> MisFamily:
    """Maximal independent sets of g, or of its subgraph induced on the
    ascending vertex ids vs, in that subgraph's ids (position in vs): the
    maximal cliques of the complement, by pivoting branch-and-bound over
    bitmasks from a stack. DeskScaleError once |V| x (|V| + nodes visited)
    passes MIS_CELL_GUARD, checked before the |V|^2 mask bits and at each node."""
    ids = range(g.n) if vs is None else vs
    n = len(ids)
    if n * n > MIS_CELL_GUARD:
        raise DeskScaleError(f"|V|^2 = {n * n} passes the {MIS_CELL_GUARD} cell guard")
    pos = {v: i for i, v in enumerate(ids)}
    full = (1 << n) - 1
    co_nbrs = []  # bitmask of the non-neighbours of each vertex, itself excluded
    for i, v in enumerate(ids):
        nbrs = 1 << i
        for u in g.neighbors[v]:
            if u in pos:
                nbrs |= 1 << pos[u]
        co_nbrs.append(full & ~nbrs)

    found: list[tuple[int, ...]] = []
    stack = [(0, full, 0)]  # (clique, candidates, excluded) of each node to visit
    nodes = 0
    while stack:
        nodes += 1
        if n * (n + nodes) > MIS_CELL_GUARD:
            raise DeskScaleError(f"|V| x (|V| + nodes) passes the {MIS_CELL_GUARD} cell guard")
        clique, cand, excl = stack.pop()
        if not cand:  # maximal unless an excluded vertex could still join
            if not excl:
                found.append(tuple(_bits(clique)))
            continue
        pivot = max(_bits(cand | excl), key=lambda u: (cand & co_nbrs[u]).bit_count())
        for v in _bits(cand & ~co_nbrs[pivot]):
            bit = 1 << v
            stack.append((clique | bit, cand & co_nbrs[v], excl & co_nbrs[v]))
            cand &= ~bit
            excl |= bit
    return MisFamily(sets=tuple(sorted(found)))


def is_complete_multipartite(mis: MisFamily, n: int) -> bool:
    """Whether the MISs of an n-vertex graph partition it, i.e. the graph is
    complete multipartite with the MISs as its parts. Every vertex lies in
    some MIS, so this holds iff the set sizes add up to n."""
    return sum(map(len, mis.sets)) == n


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _block_neighbors(g: CharGraph, vs: Sequence[int] | None) -> Sequence[AbstractSet[int]]:
    """The neighbour sets of g's subgraph induced on the ascending vertex ids
    vs, in that subgraph's ids (position in vs); g's own when vs is None or
    holds every id."""
    if vs is None or len(vs) == g.n:
        return g.neighbors
    pos = {v: i for i, v in enumerate(vs)}
    return [{pos[u] for u in g.neighbors[v] if u in pos} for v in vs]


def _degree_order(nbrs: Sequence[AbstractSet[int]]) -> list[int]:
    """Vertex ids by decreasing degree, ties by id."""
    return sorted(range(len(nbrs)), key=lambda v: (-len(nbrs[v]), v))


def greedy_coloring(g: CharGraph, vs: Sequence[int] | None = None) -> tuple[int, ...]:
    """Deterministic greedy coloring of g, or of its subgraph induced on the
    ascending vertex ids vs, the color of each of that graph's ids (position
    in vs): vertices by decreasing degree, ties by id; each gets the
    smallest color absent from its colored neighbors."""
    nbrs = _block_neighbors(g, vs)
    colors = [-1] * len(nbrs)  # -1: not colored yet
    for v in _degree_order(nbrs):
        used = {colors[u] for u in nbrs[v]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return tuple(colors)


def min_partition(
    g: CharGraph, vs: Sequence[int], cost: Callable[[tuple[int, ...]], float]
) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """The least total cost(class) over the partitions of the ascending ids vs
    into independent sets, and one such partition (classes as ascending ids
    of g). Each level takes, in turn, every maximal independent set of the
    ids left as the next class, memoized on the ids left, so the search is
    exact for any cost under which some optimal partition can take an MIS
    of the ids left first; each caller proves that for its cost."""

    @cache
    def best(left: tuple[int, ...]) -> tuple[float, tuple[tuple[int, ...], ...]]:
        if not left:
            return 0, ()
        options = []
        for s in enumerate_mis(g, left).sets:
            cls = tuple(left[i] for i in s)
            total, classes = best(tuple(v for v in left if v not in cls))
            options.append((total + cost(cls), (cls,) + classes))
        return min(options, key=lambda option: option[0])  # the first of any tie

    return best(tuple(vs))


def exact_min_coloring(g: CharGraph, vs: Sequence[int] | None = None) -> tuple[int, ...]:
    """Minimum-count coloring of g, or of its subgraph induced on the
    ascending vertex ids vs (colors by position in vs), exact for
    |V| <= 12. Greedy's coloring when it is minimal: at once when a clique
    grown greedily in the same vertex order is as large, else when
    min_partition with cost 1 per class finds no fewer classes; otherwise
    min_partition's classes, colored 0, 1, ... by their smallest ids.
    Cost 1 is exact there: growing any class of a minimum coloring to a
    maximal independent set, by taking vertices from the other classes,
    never adds a class (Lawler 1976)."""
    nbrs = _block_neighbors(g, vs)
    n = len(nbrs)
    if n > EXACT_COLOR_GUARD:
        raise DeskScaleError(f"|V| = {n} exceeds the exact-coloring guard")
    greedy = greedy_coloring(g, vs)
    greedy_k = max(greedy) + 1
    # a clique needs one color per vertex, so no coloring beats greedy's
    clique: list[int] = []
    for v in _degree_order(nbrs):
        if nbrs[v].issuperset(clique):
            clique.append(v)
    if len(clique) == greedy_k:
        return greedy
    ids = range(n) if vs is None else vs
    count, classes = min_partition(g, ids, lambda cls: 1)
    if count == greedy_k:
        return greedy
    color = {v: c for c, cls in enumerate(sorted(classes)) for v in cls}
    return tuple(color[v] for v in ids)


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
