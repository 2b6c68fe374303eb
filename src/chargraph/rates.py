"""Achievable sum-rate bounds and gain ratios.

Covers the general codebook bound (theorem1_sum_rate), the uniform linear
piecewise bound (prop1_rate), the two-MIS skewed-Bernoulli bound
(prop2_rate), the multilinear closed form (prop3_rate), the ordered
conditional-chain evaluation (chain_rate), the Slepian-Wolf baseline, and
the eta_lin / eta_SW gain ratios, plus the closed-form scenario sweeps the
CLI exposes. Every symbol a server sends comes from min_coloring, which
colors one component of graphs.components at a time, in place by its
vertex ids; a chain stage graph has no edge across transcript sections,
so one coloring of it colors each section on its own. Each rate-layer
decision has one place: every best-of pick (theorem1's and prop2's
per-server candidate, the chain's ordering) goes through _earliest_least,
every support point and its demanded outputs come from
graphs.support_items, every uniform Slepian-Wolf split from _uniform,
and every gain from gain_ratio.

Each closed-form scenario (scenario1_rates, scenario2_table2_rates,
scenario2_diniz_rates, scenario3_rates, multilinear_rates) is one
function that takes a float or an array per law parameter, as the
probability model functions do. It checks the domain at every grid point
first, then prices the grid in one numpy pass as stages, (servers, rate)
pairs whose rate is a column over the grid, or a float for one law. The
CLI sums the stages into the R_graph, R_lin and R_SW columns and takes
both gains from gain_ratio.

chain_rate codes each server's zone split (graphs.zone_split) and the
demanded outputs as integers once; a stage groups the live points by
(section, local) and (section, rest) codes and builds its graph with
graphs.confusability_graph, which builds each vertex's label, (local
tuple, section code), once and returns the vertex id of each code. The
section lives only in the vertex and the completion key: a stage graph
has no edge across sections, so as a side symbol it would split nothing
(Orlitsky & Roche 2001), and a stage is priced on its graph alone. A
section whose points all demand one output is settled: its points leave
the chain, and each stage sees the mass they leave as one lone vertex
((), ()), which make_graph alone may prune. The ordering decodes iff no
live section is left after the last stage. A stage reads only its
server, the live points and their section codes; the next codes are
graphs.integer_codes of the live points' (section code, color) pairs,
once the settled sections leave, so _chain_walk builds each stage
(_Stage: graph, law, the (earlier code, color) of each new code, live
points and their codes) once per such state, and every ordering that
reaches the state shares it. Each ordering that decodes solves each of
its stages once, and the pick and the failures follow the supplied order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, compress, product as iter_product
from typing import Any, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DecodeError,
    DeskScaleError,
    MisStructureError,
    ValidationError,
)
from .functions import DemandSpec, decoding_map
from .graphs import (
    EXACT_COLOR_GUARD,
    CharGraph,
    ZoneSplit,
    build_char_graph,
    components,
    confusability_graph,
    enumerate_mis,
    exact_min_coloring,
    greedy_coloring,
    integer_codes,
    is_clique,
    make_graph,
    support_items,
    zone_split,
)
from .probability import (
    Grid,
    JointPmf,
    _floats,
    binary_entropy,
    check_all,
    crossover_feasible,
    diniz_entropy,
    diniz_parity,
    diniz_sum_entropy,
    parity_param,
    product_param,
)
from .solvers import conditional_graph_entropy, graph_entropy
from .topology import Placement, Topology, coverage_check, derived_params

COMBO_GUARD = 10**6  # max (subset, candidate-combination) decodability checks
TIE_RTOL = 1e-12  # values this close (relative) to the least tie in every best-of pick

EncodingMap = Mapping[tuple[int, ...], int]
# (servers, rate) pairs: each of that many servers pays that rate, a float
# for one law or an array with one entry per grid point
Stages = list[tuple[int, Grid]]


@dataclass(frozen=True)
class Codebook:
    """Per-server candidate encoding maps, keyed by 1-based server id."""

    candidates: Mapping[int, tuple[EncodingMap, ...]]

    def for_server(self, i: int) -> tuple[EncodingMap, ...]:
        if i not in self.candidates or not self.candidates[i]:
            raise ValidationError(f"codebook has no candidates for server {i}")
        return self.candidates[i]


@dataclass(frozen=True)
class RateReport:
    per_server_rates: tuple[float, ...]
    method: str
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(r < 0.0 for r in self.per_server_rates):
            raise ValidationError("negative per-server rate")

    @property
    def sum_rate(self) -> float:
        return math.fsum(self.per_server_rates)


def rate_report(rates: Iterable[float], method: str, **metadata: Any) -> RateReport:
    rates = tuple(max(float(r), 0.0) for r in rates)
    return RateReport(per_server_rates=rates, method=method, metadata=metadata)


def _report(stages: Stages, method: str, **metadata: Any) -> RateReport:
    """The rate report of one law's stages."""
    return rate_report((rate for n, rate in stages for _ in range(n)), method, **metadata)


def gain_ratio(baseline: Grid, graph: Grid) -> Grid:
    """baseline / graph elementwise, a plain rate ratio, a float for two
    floats; where the graph rate is 0 (both endpoints deterministic) the
    gain is infinite, also at 0/0."""
    graph = np.asarray(graph, dtype=float)
    out = np.full(np.broadcast(baseline, graph).shape, math.inf)
    return _floats(np.divide(baseline, graph, out=out, where=graph > 0.0))


# ---------------------------------------------------------------------------
# tie rule, colorings and codebook plumbing


def _earliest_least(values: Sequence[float]) -> int:
    """The index of the earliest value within TIE_RTOL (relative) of the
    least: values that tie in exact arithmetic differ in their last bits,
    so the earliest of them is picked, not the one that rounding favours."""
    least = min(values)
    return next(i for i, v in enumerate(values) if v <= least * (1.0 + TIE_RTOL))


def min_coloring(g: CharGraph) -> tuple[int, ...]:
    """The color of each vertex id, one component at a time: colors 0, 1, ...
    in id order on a clique (graphs.is_clique; a lone vertex included), the
    exact minimum on another component of at most EXACT_COLOR_GUARD
    vertices, degree-ordered greedy on a larger one; both color the
    component's ids in g, as the subgraph they induce. On a clique that is
    what greedy gives (every degree ties, so ids decide) and what the exact
    search keeps (greedy's clique proves it minimal). Greedy is local (a
    vertex's color depends only on its colored neighbours, and the degree
    order restricted to a component is the component's own), so a large
    component gets the colors whole-graph greedy gives it."""
    colors = [0] * g.n
    for comp in components(g):
        if is_clique(g, comp):
            for c, v in enumerate(comp):
                colors[v] = c
            continue
        color = exact_min_coloring if len(comp) <= EXACT_COLOR_GUARD else greedy_coloring
        for v, c in zip(comp, color(g, comp)):
            colors[v] = c
    return tuple(colors)


def coloring_map(g: CharGraph) -> dict[Any, int]:
    """The symbol each vertex label sends: a minimum-count coloring of g
    (a constant map when g has one vertex)."""
    return dict(zip(g.vertices, min_coloring(g)))


def _check_encoding_map(g: CharGraph, gmap: EncodingMap, server: int) -> None:
    """An encoding map must be total on the graph's vertices and must not
    merge a confusable pair."""
    for label in g.vertices:
        if label not in gmap:
            raise ValidationError(
                f"candidate for server {server} is not total: misses {label!r}"
            )
    for i, j in g.edges:
        if gmap[g.vertices[i]] == gmap[g.vertices[j]]:
            raise DecodeError(
                f"candidate for server {server} merges the confusable pair "
                f"{g.vertices[i]!r}, {g.vertices[j]!r}"
            )


def _pushforward(g: CharGraph, gmap: EncodingMap) -> CharGraph:
    """Graph induced on the image of an encoding map that passed
    _check_encoding_map: classes merge vertices, and edges follow their
    endpoints' classes."""
    colors: dict[Any, float] = {}
    for v, label in enumerate(g.vertices):
        colors[gmap[label]] = colors.get(gmap[label], 0.0) + g.pmf[v]
    edge_pairs = [(gmap[g.vertices[i]], gmap[g.vertices[j]]) for i, j in g.edges]
    return make_graph(colors, edge_pairs)


def _check_codebook_decodable(
    t: Topology,
    p: Placement,
    cb: Codebook,
    items: Sequence[tuple[tuple[int, ...], float, tuple[int, ...]]],
) -> None:
    """Every Nr-subset of servers, under every combination of candidate maps,
    must determine all demanded outputs on every positive-probability input."""
    zones = {i: p.zone0(i) for i in range(1, t.n + 1)}
    locals_ = {
        i: [tuple(w[c] for c in zones[i]) for w, _, _ in items]
        for i in range(1, t.n + 1)
    }
    total_checks = 0
    for subset in combinations(range(1, t.n + 1), t.nr):
        n_combos = math.prod(len(cb.for_server(i)) for i in subset)
        total_checks += n_combos
        if total_checks > COMBO_GUARD:
            raise DeskScaleError(
                f"codebook decodability sweep exceeds {COMBO_GUARD} combinations"
            )
        for combo in iter_product(*(cb.for_server(i) for i in subset)):
            decoding_map(
                (
                    (tuple(gmap[locals_[i][idx]] for i, gmap in zip(subset, combo)), dem)
                    for idx, (_, _, dem) in enumerate(items)
                ),
                lambda profile, a, b: DecodeError(
                    f"servers {subset} cannot decode: transmissions {profile} "
                    f"are consistent with demands {a} and {b}"
                ),
            )


def theorem1_sum_rate(
    t: Topology,
    p: Placement,
    d: DemandSpec,
    joint: JointPmf,
    cb: Codebook | None = None,
) -> RateReport:
    """Codebook bound: each of the first Nr servers contributes the smallest
    graph entropy over its candidate encodings, taken on the graph induced on
    the encoding's image; the codebook must be decodable from every Nr-subset.
    """
    if not coverage_check(p, t):
        raise ValidationError("placement fails Nr-subset coverage; no recovery")
    items = support_items(d, p, joint)
    graphs = {i: build_char_graph(d, p, joint, i) for i in range(1, t.n + 1)}
    if cb is None:
        cb = Codebook(candidates={i: (coloring_map(g),) for i, g in graphs.items()})
    for i, g in graphs.items():
        for gmap in cb.for_server(i):
            _check_encoding_map(g, gmap, i)
    _check_codebook_decodable(t, p, cb, items)

    rates: list[float] = []
    chosen: dict[int, int] = {}
    for i in range(1, t.nr + 1):
        values = [graph_entropy(_pushforward(graphs[i], gmap)).value for gmap in cb.for_server(i)]
        chosen[i] = _earliest_least(values)
        rates.append(values[chosen[i]])
    return rate_report(rates, "theorem1", servers=list(range(1, t.nr + 1)), chosen=chosen)


# ---------------------------------------------------------------------------
# closed-form bounds


def prop1_rate(t: Topology) -> RateReport:
    """Piecewise linear-demand cost in q-ary symbols of the Kc = t.kc demands
    for uniform i.i.d. subfunctions under the cyclic placement."""
    derived_params(t)  # enforces the cyclic-consistency of M
    kc, delta = t.kc, t.delta
    if kc < delta:
        total, case = kc * t.nr, "kc_below_delta"
    elif kc <= delta * t.nr:
        total, case = delta * t.nr, "delta_window"
    elif kc <= t.k:
        total, case = kc, "kc_above_window"
    else:
        total, case = t.k, "kc_above_k"
    per = total / t.nr
    return rate_report(
        [per] * t.nr, "prop1", units="q-ary symbols", case=case, total_symbols=total
    )


def prop2_rate(
    t: Topology,
    p: Placement,
    d: DemandSpec,
    joint: JointPmf,
    cb: Codebook | None = None,
) -> RateReport:
    """Two-MIS bound: sum over the first Nr servers of min_g h(P(Z_i = 1)),
    with P(Z_i=1) the mass of the candidate's level-1 class.

    The premise is validated, not assumed: each server's union graph must
    have at most two maximal independent sets, and each Boolean candidate
    must two-color it.
    """
    if d.q != 2 or any(s != 2 for s in joint.sizes):
        raise ValidationError("the two-MIS bound needs binary subfunctions")
    marginals = [joint.marginal([c]).prob((1,)) for c in range(joint.arity)]
    if max(marginals) - min(marginals) > 1e-9:
        raise ValidationError(
            "subfunctions must be identically distributed Bern(eps); "
            f"marginals span [{min(marginals)}, {max(marginals)}]"
        )
    rates: list[float] = []
    chosen: dict[int, int] = {}
    skews: list[float] = []
    for i in range(1, t.nr + 1):
        g = build_char_graph(d, p, joint, i)
        fam = enumerate_mis(g)
        if fam.count > 2:
            raise MisStructureError(
                f"server {i} union graph has {fam.count} maximal independent "
                f"sets; the two-MIS bound does not apply"
            )
        p1s = [_level_one_mass(g, gmap, i) for gmap in _boolean_candidates(g, fam, cb, i)]
        values = [binary_entropy(p1) for p1 in p1s]
        chosen[i] = _earliest_least(values)
        rates.append(values[chosen[i]])
        skews.append(p1s[chosen[i]])
    return rate_report(rates, "prop2", chosen=chosen, level_one_mass=skews)


def _boolean_candidates(
    g: CharGraph, fam, cb: Codebook | None, server: int
) -> tuple[EncodingMap, ...]:
    if cb is not None:
        cands = cb.for_server(server)
        for gmap in cands:
            values = set(gmap.values())
            if not values <= {0, 1}:
                raise ValidationError(
                    f"candidate for server {server} is not Boolean: values {values}"
                )
        return cands
    if fam.count == 1:
        return ({v: 0 for v in g.vertices},)
    out = []
    for s in fam.sets:
        chosen = set(s)
        out.append({g.vertices[v]: int(v in chosen) for v in range(g.n)})
    return tuple(out)


def _level_one_mass(g: CharGraph, gmap: EncodingMap, server: int) -> float:
    _check_encoding_map(g, gmap, server)
    return sum((g.pmf[v] for v, label in enumerate(g.vertices) if gmap[label] == 1), 0.0)


def prop3_rate(t: Topology, epsilon: float) -> RateReport:
    """Multilinear closed form for i.i.d. Bern(eps) under cyclic placement:
    stage l of the N* disjoint-storage servers costs eps_M^(l-1) h(eps_M)
    (earlier stages kill the product with probability 1 - eps_M^(l-1)), and
    a Delta_N > 0 tail adds eps_M^(N*) h(eps_xi)."""
    dp = derived_params(t)
    return _report(
        _prop3_stages(t, epsilon), "prop3", eps_m=product_param(t.m, epsilon),
        n_star=dp.n_star, delta_n=dp.delta_n, xi_n=dp.xi_n,
    )


def _prop3_stages(t: Topology, epsilon: Grid) -> Stages:
    eps_m = product_param(t.m, epsilon)  # checks eps first
    dp = derived_params(t)
    h_m = binary_entropy(eps_m)
    stages = [(1, eps_m ** (l - 1) * h_m) for l in range(1, dp.n_star + 1)]
    if dp.delta_n > 0:
        stages.append((1, eps_m**dp.n_star * binary_entropy(product_param(dp.xi_n, epsilon))))
    return stages


def slepian_wolf_rate(joint: JointPmf, t: Topology, p: Placement) -> RateReport:
    """Joint-entropy baseline H(W_1..W_K), split uniformly across the first
    Nr servers for reporting purposes."""
    if joint.arity != t.k or p.k != t.k:
        raise ValidationError("joint/placement do not match the topology")
    return _report(_uniform(joint.entropy(), t), "slepian_wolf", split="uniform")


def _uniform(h: Grid, t: Topology) -> Stages:
    """A Slepian-Wolf baseline: the entropy h split uniformly over the first
    Nr servers, for reporting."""
    return [(t.nr, h / t.nr)]


# ---------------------------------------------------------------------------
# ordered conditional chain


def chain_rate(
    t: Topology,
    p: Placement,
    d: DemandSpec,
    joint: JointPmf,
    ordering: Sequence[int] | Sequence[Sequence[int]],
) -> RateReport:
    """Ordered evaluation: the first server pays the graph entropy of its
    union graph; each later server pays the conditional graph entropy of its
    side-information-extended graph given all previous transmissions.

    A stage vertex is (local tuple, code of the earlier transcript), so
    every server hears the earlier transmissions and its color may depend
    on them: in Orlitsky & Roche's terms, side information at both ends.
    prop3_rate's stage cost eps_M^(l-1) h(eps_M) has the same shape.

    A transmission is the minimum coloring of the current graph, which has
    no edge across the sections of the previous transcript (the decoder
    already knows the transcript, so colors only need to separate within a
    section), so coloring it component by component colors each section. A
    section whose points all demand one output is settled: every later
    stage graph has only lone vertices there, which cost 0 and get color 0,
    so it sends nothing more and costs 0. Its points leave the chain, and
    each stage prices and colors all settled mass as one lone vertex, which
    changes neither the stage's value nor any other vertex's color (merging
    non-adjacent twins costs nothing; Korner, Simonyi & Tuza 1992). A
    settled section decodes to its one output, so the final transcripts
    determine every demanded output iff no live section is left after the
    last stage; otherwise the ordering is insufficient, and the first clash
    among the live points names it. When several orderings are
    supplied the best decodable one is reported, by the tie rule of every
    best-of pick: of orderings whose sum rates tie within TIE_RTOL, the
    earliest in the supplied order; when none decodes, their failures are
    joined in the supplied order.

    A stage's graph and coloring depend only on its server and on the
    live points with their section codes, not on the order in which the
    earlier servers spoke or on the transcripts' names: every component of
    a stage graph lies in one section, and inside a section the vertices
    order by their local tuples alone. So _chain_walk builds each stage
    once per such state, shared by every ordering that reaches it, and
    only an ordering that decodes solves its stages, each once.

    Every supplied ordering is tried. When Nr = N and rotation_invariant
    holds, an ordering and its rotations have equal sums, so a caller may
    supply only the orderings that start with server 1, one per orbit:
    each is the earliest of its orbit in the lexicographic order, so the
    tie rule picks the ordering it picks among all N! of them. When none
    decodes, the joined failures are then those of these orderings only.
    """
    orderings = _normalize_orderings(t, ordering)
    items = support_items(d, p, joint)
    masses = [m for _, m, _ in items]
    outs, values = integer_codes(dem for _, _, dem in items)
    # every ordering splits a point into a server's local tuple and the rest
    # the same way, so each server's split is coded once
    ws = [w for w, _, _ in items]
    servers = {s for order in orderings for s in order}
    splits = {server: zone_split(ws, p.zone0(server)) for server in servers}
    decodable: list[tuple[float, list[float], tuple[int, ...], bool]] = []
    failures: list[str] = []
    for order, path in zip(orderings, _chain_walk(masses, outs, splits, orderings)):
        if (error := _decode_error(order, path, outs, values)) is not None:
            failures.append(str(error))
            continue
        solved = [conditional_graph_entropy(stage.graph, stage.joint) for stage in path]
        rates = [res.value for res in solved]
        decodable.append((math.fsum(rates), rates, order, all(res.converged for res in solved)))
    if not decodable:
        raise DecodeError(
            "no supplied ordering decodes the demands: " + "; ".join(failures)
        )
    _, rates, order, converged = decodable[_earliest_least([e[0] for e in decodable])]
    return rate_report(
        rates, "chain", ordering=list(order), orderings_tried=len(orderings),
        converged=converged,
    )


def rotation_invariant(p: Placement, d: DemandSpec, joint: JointPmf) -> bool:
    """Whether rotating every server s -> s + 1 (mod N) together with its
    datasets, b + rN -> mod1(b + 1, N) + rN for b in 1..N, maps the
    placement, the law and the demand to themselves: the zone of each
    server onto the next server's, and each support point onto a support
    point with the same demanded outputs and a mass equal within TIE_RTOL
    (rotated i.i.d. masses differ in their last bits). The rotated chain
    of an ordering is then the chain of its rotation, so both have one sum.
    """
    n, k = p.n, p.k
    if k % n:
        return False  # the band map needs N | K
    sigma = [j - j % n + (j + 1) % n for j in range(k)]  # 0-based dataset map
    for s in range(1, n + 1):
        if sorted(sigma[j] for j in p.zone0(s)) != list(p.zone0(s % n + 1)):
            return False
    items = support_items(d, p, joint)
    law = {w: (m, dem) for w, m, dem in items}
    image = [0] * k
    for w, m, dem in items:
        for j, v in zip(sigma, w):
            image[j] = v
        m_image, dem_image = law.get(tuple(image), (0.0, None))
        if dem_image != dem or not math.isclose(m, m_image, rel_tol=TIE_RTOL):
            return False
    return True


def _normalize_orderings(
    t: Topology, ordering: Sequence[int] | Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    if not ordering:
        raise ValidationError("ordering must name at least one server")
    first = ordering[0]
    if isinstance(first, (list, tuple)):
        many = [tuple(int(s) for s in o) for o in ordering]
    else:
        many = [tuple(int(s) for s in ordering)]
    for o in many:
        if not o:
            raise ValidationError(f"ordering {o} names no server")
        if len(set(o)) != len(o):
            raise ValidationError(f"ordering {o} repeats a server")
        if any(not 1 <= s <= t.n for s in o):
            raise ValidationError(f"ordering {o} names servers outside 1..{t.n}")
    return many


def _stage_graph(
    split: ZoneSplit,
    live: Sequence[int],
    codes: Sequence[int],
    masses: Sequence[float],
    outs: Sequence[int],
) -> tuple[CharGraph, list[int]]:
    """A chain stage's graph and the vertex id of each live point, given
    the server's split and the live points (ids into the split, masses and
    output codes) with their section codes. The decoder knows the section,
    so it is part of both the vertex (local tuple, section code) and the
    completion (rest, section): only live points of one section are
    confusable. Once a point has left live, the mass the live points leave
    is settled: one more point with a completion of its own, so one lone
    vertex ((), ()), which make_graph alone may prune."""
    nl, labels, local, rest = len(split.labels), split.labels, split.local, split.rest
    vertex = [c * nl + local[k] for c, k in zip(codes, live)]
    key = [c * split.n_rest + rest[k] for c, k in zip(codes, live)]
    mass = list(map(masses.__getitem__, live))
    out = list(map(outs.__getitem__, live))
    if len(live) < len(masses):  # -1: apart from every live vertex and key
        vertex.append(-1)
        key.append(-1)
        mass.append(math.fsum(masses) - math.fsum(mass))
        out.append(0)
    g, id_of = confusability_graph(
        vertex, key, mass, out, lambda v: ((), ()) if v < 0 else (labels[v % nl], v // nl)
    )
    return g, [id_of[v] for v in vertex[: len(live)]]


def _settle(
    live: Sequence[int], sections: Sequence[Hashable], outs: Sequence[int]
) -> tuple[tuple[int, ...], tuple[Hashable, ...]]:
    """The points of live, and their section keys, left once each section
    whose points all demand one output is dropped."""
    pairs = set(zip(sections, map(outs.__getitem__, live)))  # (section, output) met
    one = dict(pairs)  # an output met by each section
    mixed = {c for c, o in pairs if one[c] != o}
    keep = [c in mixed for c in sections]
    return tuple(compress(live, keep)), tuple(compress(sections, keep))


class _Stage(NamedTuple):
    """A chain stage, built once per state it reads: its graph (whose
    settled vertex make_graph alone may prune) and its law, the graph's own
    pmf with one side symbol, then the state after it. A section is live
    until all of its points demand one output: live holds the points of
    the live sections (ids into the support) and codes their section
    codes, graphs.integer_codes of the live points' (earlier code, color)
    pairs, so numbered 0, 1, ... by first appearance; coded[c] is the pair
    of code c, from which _transcript rebuilds a section's transcript. The
    root, before any server speaks, has no graph."""

    graph: CharGraph | None
    joint: JointPmf | None
    live: tuple[int, ...]
    codes: tuple[int, ...]
    coded: list[tuple[int, int]]


def _next_stage(
    parent: _Stage, split: ZoneSplit, masses: Sequence[float], outs: Sequence[int]
) -> _Stage:
    """The stage in which the server of split speaks after parent. It reads
    only the server and parent's live points and section codes: a
    completion key is the section and the server's rest, and the settled
    mass is what the live points leave."""
    live, codes = parent.live, parent.codes
    g, ids = _stage_graph(split, live, codes, masses, outs)
    # no edge of g leaves a section, so the section the decoder already
    # knows splits nothing more: g alone prices the stage, and coloring it
    # one component at a time colors each section on its own
    joint = JointPmf((g.n, 1), {(i, 0): m for i, m in enumerate(g.pmf)})
    colors = min_coloring(g)
    live, pairs = _settle(live, tuple(zip(codes, map(colors.__getitem__, ids))), outs)
    # a live section's next code is its (section code, color) pair's, by
    # first appearance over the live points, so every parent that leaves
    # one partition of the live points leaves one state
    codes, coded = integer_codes(pairs)
    return _Stage(g, joint, live, tuple(codes), coded)


def _transcript(path: Sequence[_Stage], code: int) -> tuple[int, ...]:
    """The colors that led to section code at the end of path, whose first
    stage follows the root."""
    colors = []
    for stage in reversed(path):
        code, color = stage.coded[code]
        colors.append(color)
    return tuple(reversed(colors))


def _chain_walk(
    masses: Sequence[float],
    outs: Sequence[int],
    splits: Mapping[int, ZoneSplit],
    orderings: Sequence[tuple[int, ...]],
) -> Iterator[list[_Stage]]:
    """Each ordering's stages after the root, in the supplied order, given
    each support point's mass and output code. A stage reads only its
    server, the live points and their section codes, so built holds one
    stage per such key for the walk, and every ordering that reaches a key
    shares its stage. The walk solves nothing and checks no decoding. It
    yields each path once built: chain_rate prices it before the next is
    built (all paths first raised chain-sweeps' peak RSS by 0.3 MB)."""
    root = _Stage(None, None, *_settle(range(len(outs)), (0,) * len(outs), outs), [])
    built: dict[tuple[int, tuple[int, ...], tuple[int, ...]], _Stage] = {}
    for order in orderings:
        path = [root]
        for server in order:
            key = (server, path[-1].live, path[-1].codes)
            if key not in built:
                built[key] = _next_stage(path[-1], splits[server], masses, outs)
            path.append(built[key])
        yield path[1:]


def _decode_error(
    order: tuple[int, ...], path: Sequence[_Stage], outs: Sequence[int], values: Sequence[Any]
) -> DecodeError | None:
    """The DecodeError of order, whose stages are path, naming the first
    clash among its last live points, or None when it decodes: a settled
    section decodes to its one output, so the ordering decodes iff no live
    section is left after its last stage."""
    last = path[-1]
    try:
        decoding_map(
            ((c, outs[k]) for k, c in zip(last.live, last.codes)),
            lambda c, a, b: DecodeError(
                f"ordering {order} is insufficient: transcript {_transcript(path, c)} is "
                f"consistent with demands {values[a]} and {values[b]}"
            ),
        )
    except DecodeError as exc:
        return exc
    return None


# ---------------------------------------------------------------------------
# scenario closed forms


class ScenarioRates(NamedTuple):
    """A closed-form scenario's graph rate and its linear and Slepian-Wolf
    baselines, for one law or over a grid of laws, each as stages."""

    graph: Stages
    lin: Stages
    sw: Stages

    def sum_rates(self) -> tuple[Grid, Grid, Grid]:
        """R_graph, R_lin and R_SW, for the law or at every grid point."""
        return tuple(sum(n * rate for n, rate in stages) for stages in self)


def scenario1_rates(t: Topology, epsilon: Grid, rho: Grid) -> ScenarioRates:
    """Single linearly separable demand (sum of all K subfunctions) under the
    correlated mixture model, for (eps, rho) laws; closed forms for all three
    rates. The graph rate is a scheme in which each disjoint-storage stage
    pays its local parity's entropy h(e_M), with no conditioning on earlier
    stages: the chain's value for independent bits (rho = 0), and above it
    for rho > 0, where the chain's stages condition on the earlier
    transcripts. The linear baseline ships the same parity from each of the
    Nr servers; the Slepian-Wolf baseline is the K-bit mixture entropy."""
    if t.kc != 1:
        raise ValidationError("scenario takes a single demanded function")
    dp = derived_params(t)
    h_m = binary_entropy(diniz_parity(t.m, epsilon, rho))
    graph = [(dp.n_star, h_m)]
    if dp.delta_n > 0:
        graph.append((1, binary_entropy(diniz_parity(dp.xi_n, epsilon, rho))))
    return ScenarioRates(graph, [(t.nr, h_m)], _uniform(diniz_entropy(t.k, epsilon, rho), t))


def scenario2_table2_rates(epsilon: Grid, p: Grid) -> ScenarioRates:
    """Two demands (one subfunction and a two-subfunction sum) with the
    crossover-parameter pair model, for (eps, p) laws; the remaining
    subfunction is independent. Omitting p (via p = 1 - eps) makes the pair
    independent."""
    if not np.all((0.0 < epsilon) & (epsilon < 1.0)):
        raise ValidationError("epsilon must lie strictly inside (0,1)")
    check_all(
        crossover_feasible(epsilon, p),
        "p {} outside [0,1] or derived p' = eps*p/(1-eps) above 1",
        p,
    )
    h = binary_entropy
    h_e = h(epsilon)
    lin = [(1, h_e), (1, h(np.minimum(2.0 * epsilon * p, 1.0)))]
    cond = (1.0 - epsilon) * h(np.minimum(epsilon * p / (1.0 - epsilon), 1.0)) + epsilon * h(p)
    return ScenarioRates([(1, h_e), (1, cond)], lin, [(1, h_e), (1, h_e + cond)])


def scenario2_diniz_rates(epsilon: Grid, rho: Grid) -> ScenarioRates:
    """The same demands with the mixture pair model, for (eps, rho) laws;
    the linear baseline ships the integer sum of the pair, whose PMF is the
    K=2 mixture law."""
    h = binary_entropy
    h_e = h(epsilon)
    lin = [(1, h_e), (1, diniz_sum_entropy(2, epsilon, rho))]
    zeta1 = (1.0 - epsilon) * (1.0 - rho) + rho
    zeta2 = (1.0 - epsilon) * (1.0 - rho)
    cond = (1.0 - epsilon) * h(zeta1) + epsilon * h(zeta2)
    return ScenarioRates([(1, h_e), (1, cond)], lin, [(1, h_e), (1, h_e + cond)])


def scenario3_rates(t: Topology, epsilon: Grid) -> ScenarioRates:
    """Kc = t.kc parity-style demands, independent Bern(eps) subfunctions,
    K = N: linear cost Nr h(eps_M) against the graph cost Kc N* h(eps). That
    graph cost can fall below the information floor: at K = N = 3, Nr = 2,
    Kc = 1 and eps 0.1 it is 0.469 bit against H(f) = 0.802."""
    kc = t.kc
    if t.k != t.n:
        raise ValidationError("this comparison needs K = N (delta = 1)")
    if kc > t.nr:
        raise ValidationError(f"Kc={kc} outside 1..Nr={t.nr}")
    lin = [(t.nr, binary_entropy(parity_param(t.m, epsilon)))]  # checks eps first
    dp = derived_params(t)
    h = binary_entropy(epsilon)
    return ScenarioRates([(dp.n_star, kc * h)], lin, _uniform(t.k * h, t))


def multilinear_rates(t: Topology, epsilon: Grid) -> ScenarioRates:
    """Product demand under i.i.d. Bern(eps): prop3_rate's closed-form
    stages as the graph rate, the per-server product-parameter adaptation
    as the linear baseline, and the i.i.d. joint entropy as the
    Slepian-Wolf baseline."""
    if t.kc != 1:
        raise ValidationError("scenario takes a single demanded function")
    graph = _prop3_stages(t, epsilon)
    lin = [(t.nr, binary_entropy(product_param(t.m, epsilon)))]
    return ScenarioRates(graph, lin, _uniform(t.k * binary_entropy(epsilon), t))
