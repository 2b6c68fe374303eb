"""Achievable sum-rate bounds and gain ratios.

Covers the general codebook bound (theorem1_sum_rate), the uniform linear
piecewise bound (prop1_rate), the two-MIS skewed-Bernoulli bound
(prop2_rate), the multilinear closed form (prop3_rate), the ordered
conditional-chain evaluation (chain_rate), the Slepian-Wolf baseline, and
the eta_lin / eta_SW gain ratios, plus the closed-form scenario sweeps the
CLI exposes. Every symbol a server sends comes from min_coloring, which
colors one component of graphs.components at a time; a chain stage graph
has no edge across transcript sections, so one coloring of it colors each
section on its own. Each rate-layer decision has one place: every best-of
pick (theorem1's and prop2's per-server candidate, the chain's ordering)
goes through _earliest_least, every support point and its demanded
outputs come from graphs.support_items, and every uniform Slepian-Wolf
report from _uniform_split.

chain_rate codes each server's zone split (graphs.zone_split) and the
demanded outputs as integers once; a stage codes each point's transcript,
groups the points by (transcript, local) and (transcript, rest) codes and
builds its graph with graphs.confusability_graph; the vertex labels stay
(local tuple, transcript), built once per vertex. A transcript section
whose points all demand one output is settled: from then on its points
leave the chain, and each stage sees all settled mass as one lone vertex
((), ()). The ordering decodes iff no live section is left after the
last stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, compress, product as iter_product
from typing import Any, Iterable, Mapping, Sequence

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
    induced_subgraph,
    integer_codes,
    is_clique,
    make_graph,
    support_items,
    zone_split,
)
from .probability import (
    JointPmf,
    binary_entropy,
    crossover_feasible,
    diniz_entropy,
    diniz_joint,
    diniz_parity,
    parity_param,
    product_param,
)
from .solvers import conditional_graph_entropy, graph_entropy
from .topology import Placement, Topology, coverage_check, derived_params

COMBO_GUARD = 10**6  # max (subset, candidate-combination) decodability checks
TIE_RTOL = 1e-12  # values this close (relative) to the least tie in every best-of pick

EncodingMap = Mapping[tuple[int, ...], int]


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
    sum_rate: float
    method: str
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(r < 0.0 for r in self.per_server_rates):
            raise ValidationError("negative per-server rate")
        if abs(self.sum_rate - math.fsum(self.per_server_rates)) > 1e-9:
            raise ValidationError("sum_rate disagrees with per-server rates")


def rate_report(rates: Iterable[float], method: str, **metadata: Any) -> RateReport:
    rates = tuple(max(float(r), 0.0) for r in rates)
    return RateReport(
        per_server_rates=rates,
        sum_rate=math.fsum(rates),
        method=method,
        metadata=metadata,
    )


@dataclass(frozen=True)
class GainReport:
    eta_lin: float
    eta_sw: float
    graph: RateReport
    lin: RateReport
    sw: RateReport


def gains(graph_rr: RateReport, lin_rr: RateReport, sw_rr: RateReport) -> GainReport:
    """eta_lin and eta_SW as plain rate ratios; a zero graph rate (both
    endpoints deterministic) is reported as an infinite gain."""

    def ratio(num: float) -> float:
        return num / graph_rr.sum_rate if graph_rr.sum_rate > 0.0 else math.inf

    return GainReport(
        eta_lin=ratio(lin_rr.sum_rate),
        eta_sw=ratio(sw_rr.sum_rate),
        graph=graph_rr,
        lin=lin_rr,
        sw=sw_rr,
    )


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
    vertices, degree-ordered greedy on a larger one. On a clique that is what greedy gives (every
    degree ties, so ids decide) and what the exact search keeps (greedy's
    clique proves it minimal). Greedy is local (a vertex's color depends
    only on its colored neighbours, and the degree order restricted to a
    component is the component's own), so a large component gets the
    colors whole-graph greedy gives it."""
    colors = [0] * g.n
    for comp in components(g):
        if is_clique(g, comp):
            for c, v in enumerate(comp):
                colors[v] = c
            continue
        h = g if len(comp) == g.n else induced_subgraph(g, comp)  # connected: in place
        small = h.n <= EXACT_COLOR_GUARD
        for v, c in zip(comp, exact_min_coloring(h) if small else greedy_coloring(h)):
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
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon {epsilon} outside [0,1]")
    dp = derived_params(t)
    eps_m = product_param(t.m, epsilon)
    h_m = binary_entropy(eps_m)
    stages = [eps_m ** (l - 1) * h_m for l in range(1, dp.n_star + 1)]
    if dp.delta_n > 0:
        stages.append(eps_m**dp.n_star * binary_entropy(product_param(dp.xi_n, epsilon)))
    return rate_report(
        stages, "prop3", eps_m=eps_m, n_star=dp.n_star, delta_n=dp.delta_n, xi_n=dp.xi_n
    )


def slepian_wolf_rate(joint: JointPmf, t: Topology, p: Placement) -> RateReport:
    """Joint-entropy baseline H(W_1..W_K), split uniformly across the first
    Nr servers for reporting purposes."""
    if joint.arity != t.k or p.k != t.k:
        raise ValidationError("joint/placement do not match the topology")
    return _uniform_split(joint.entropy(), t)


def _uniform_split(h: float, t: Topology) -> RateReport:
    """A Slepian-Wolf baseline: the entropy h split uniformly over the first
    Nr servers, for reporting."""
    return rate_report([h / t.nr] * t.nr, "slepian_wolf", split="uniform")


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

    A stage vertex is (local tuple, earlier transcript), so every server
    hears the earlier transmissions and its color may depend on them: in
    Orlitsky & Roche's terms, side information at both ends. prop3_rate's
    stage cost eps_M^(l-1) h(eps_M) has the same shape.

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
    earliest.
    """
    orderings = _normalize_orderings(t, ordering)
    items = support_items(d, p, joint)
    masses = [m for _, m, _ in items]
    outs, _ = integer_codes(dem for _, _, dem in items)
    # every ordering splits a point into a server's local tuple and the rest
    # the same way, so each server's split is coded once
    ws = [w for w, _, _ in items]
    servers = {s for order in orderings for s in order}
    splits = {server: zone_split(ws, p.zone0(server)) for server in servers}
    decodable: list[tuple[float, list[float], tuple[int, ...], bool]] = []
    failures: list[str] = []
    for order in orderings:
        try:
            rates, converged = _chain_eval(items, masses, outs, splits, order)
        except DecodeError as exc:
            failures.append(str(exc))
            continue
        decodable.append((math.fsum(rates), rates, order, converged))
    if not decodable:
        raise DecodeError(
            "no supplied ordering decodes the demands: " + "; ".join(failures)
        )
    _, rates, order, converged = decodable[_earliest_least([e[0] for e in decodable])]
    return rate_report(
        rates, "chain", ordering=list(order), orderings_tried=len(orderings),
        converged=converged,
    )


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
        if not o or len(set(o)) != len(o):
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
    transcripts: Sequence[tuple[int, ...]],
    settled: float,
) -> tuple[CharGraph, list[int]]:
    """A chain stage's graph and the vertex id of each live point, then of
    the settled vertex if there is one, given the server's split, the live
    points (ids into the split, masses and output codes) with their
    transcript codes, the transcript of each code, and the settled mass.
    The decoder knows the transcript, so it is part of both the vertex
    (local tuple, transcript) and the completion (rest, transcript): only
    live points with equal transcripts are confusable. A positive settled
    mass enters as one point with a completion of its own, so it is one
    lone vertex, labelled ((), ())."""
    nl, labels, local, rest = len(split.labels), split.labels, split.local, split.rest
    vertex = [c * nl + local[k] for c, k in zip(codes, live)]
    key = [c * split.n_rest + rest[k] for c, k in zip(codes, live)]
    mass = list(map(masses.__getitem__, live))
    out = list(map(outs.__getitem__, live))
    if settled:  # -1: apart from every live vertex and key
        vertex.append(-1)
        key.append(-1)
        mass.append(settled)
        out.append(0)

    def label(v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return ((), ()) if v < 0 else (labels[v % nl], transcripts[v // nl])

    g = confusability_graph(vertex, key, mass, out, label)
    index = {lab: i for i, lab in enumerate(g.vertices)}
    ids = {v: index[label(v)] for v in set(vertex)}
    return g, [ids[v] for v in vertex]


def _settle(
    live: list[int], codes: list[int], masses: Sequence[float], outs: Sequence[int]
) -> float:
    """Drop from live, and from codes, the points of each transcript section
    whose points all demand one output; return the mass dropped."""
    pairs = set(zip(codes, map(outs.__getitem__, live)))  # (code, output) met
    one = dict(pairs)  # an output met by each code
    mixed = {c for c, o in pairs if one[c] != o}
    if len(mixed) == len(one):
        return 0.0
    keep = [c in mixed for c in codes]
    mass = math.fsum(masses[k] for k, kept in zip(live, keep) if not kept)
    live[:] = compress(live, keep)
    codes[:] = compress(codes, keep)
    return mass


def _chain_eval(
    items: Sequence[tuple[tuple[int, ...], float, tuple[int, ...]]],
    masses: Sequence[float],
    outs: Sequence[int],
    splits: Mapping[int, ZoneSplit],
    order: tuple[int, ...],
) -> tuple[list[float], bool]:
    # a transcript section is live until all of its points demand one
    # output: live holds the points of the live sections, codes their
    # transcript codes and transcripts[c] the transcript of code c; the
    # settled sections are only their summed mass
    live = list(range(len(items)))
    codes = [0] * len(items)
    transcripts: list[tuple[int, ...]] = [()]
    settled = _settle(live, codes, masses, outs)
    rates: list[float] = []
    converged = True
    for server in order:
        g, ids = _stage_graph(splits[server], live, codes, masses, outs, transcripts, settled)
        # the settled vertex's side symbol is one of its own
        side = codes + [len(transcripts)] * (len(ids) - len(live))
        joint2 = JointPmf(
            (g.n, len(transcripts) + 1),
            {(i, c): g.pmf[i] for i, c in dict(zip(ids, side)).items()},
        )
        res = conditional_graph_entropy(g, joint2)
        rates.append(res.value)
        converged = converged and res.converged

        # colors need only separate inside the transcript section the decoder
        # already knows; no edge of g leaves a section, so coloring g one
        # component at a time colors each section on its own
        colors = min_coloring(g)
        coded: dict[tuple[int, int], int] = {}  # (transcript code, color) -> next code
        codes = [coded.setdefault((c, colors[i]), len(coded)) for c, i in zip(codes, ids)]
        transcripts = [transcripts[c] + (color,) for c, color in coded]
        settled += _settle(live, codes, masses, outs)

    # a settled section decodes to its one output, so the ordering decodes
    # iff no live section is left
    decoding_map(
        ((c, items[k][2]) for k, c in zip(live, codes)),
        lambda c, a, b: DecodeError(
            f"ordering {order} is insufficient: transcript {transcripts[c]} is "
            f"consistent with demands {a} and {b}"
        ),
    )
    return rates, converged


# ---------------------------------------------------------------------------
# scenario closed forms


def scenario1_rates(t: Topology, epsilon: float, rho: float) -> GainReport:
    """Single linearly separable demand (sum of all K subfunctions) under the
    correlated mixture model; closed forms for all three rates. The graph
    rate is a scheme in which each disjoint-storage stage pays its local
    parity's entropy h(e_M), with no conditioning on earlier stages: the
    chain's value for independent bits (rho = 0), and above it for rho > 0,
    where the chain's stages condition on the earlier transcripts."""
    if t.kc != 1:
        raise ValidationError("scenario takes a single demanded function")
    dp = derived_params(t)
    e_m = diniz_parity(t.m, epsilon, rho)
    lin = rate_report([binary_entropy(e_m)] * t.nr, "prop2", model="mixture")
    stages = [binary_entropy(e_m)] * dp.n_star
    if dp.delta_n > 0:
        stages.append(binary_entropy(diniz_parity(dp.xi_n, epsilon, rho)))
    graph = rate_report(stages, "chain", model="mixture", n_star=dp.n_star, xi_n=dp.xi_n)
    return gains(graph, lin, _uniform_split(diniz_entropy(t.k, epsilon, rho), t))


def scenario2_table2_rates(epsilon: float, p: float) -> GainReport:
    """Two demands (one subfunction and a two-subfunction sum) with the
    crossover-parameter pair model; the remaining subfunction is independent.
    Omitting p (via p = 1 - eps) makes the pair independent."""
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon must lie strictly inside (0,1)")
    if not crossover_feasible(epsilon, p):
        raise ValidationError(f"p {p} outside [0,1] or derived p' = eps*p/(1-eps) above 1")
    p_prime = epsilon * p / (1.0 - epsilon)
    h = binary_entropy
    lin = rate_report([h(epsilon), h(min(2.0 * epsilon * p, 1.0))], "prop2")
    cond = (1.0 - epsilon) * h(min(p_prime, 1.0)) + epsilon * h(p)
    graph = rate_report([h(epsilon), cond], "chain")
    sw = rate_report([h(epsilon), h(epsilon) + cond], "slepian_wolf")
    return gains(graph, lin, sw)


def scenario2_diniz_rates(epsilon: float, rho: float) -> GainReport:
    """Same demands with the mixture pair model; the linear baseline ships
    the integer sum of the pair, whose PMF is the K=2 mixture law."""
    h = binary_entropy
    zeta1 = (1.0 - epsilon) * (1.0 - rho) + rho
    zeta2 = (1.0 - epsilon) * (1.0 - rho)
    lin = rate_report([h(epsilon), diniz_joint(2, epsilon, rho).entropy()], "prop2")
    cond = (1.0 - epsilon) * h(zeta1) + epsilon * h(zeta2)
    graph = rate_report([h(epsilon), cond], "chain")
    sw = rate_report([h(epsilon), h(epsilon) + cond], "slepian_wolf")
    return gains(graph, lin, sw)


def scenario3_rates(t: Topology, epsilon: float) -> GainReport:
    """Kc = t.kc parity-style demands, independent subfunctions, K = N: linear
    cost Nr h(eps_M) against the graph cost Kc N* h(eps). That graph cost
    can fall below the information floor: at K = N = 3, Nr = 2, Kc = 1 and
    eps 0.1 it is 0.469 bit against H(f) = 0.802."""
    kc = t.kc
    if t.k != t.n:
        raise ValidationError("this comparison needs K = N (delta = 1)")
    if kc > t.nr:
        raise ValidationError(f"Kc={kc} outside 1..Nr={t.nr}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon {epsilon} outside [0,1]")
    dp = derived_params(t)
    e_m = parity_param(t.m, epsilon)
    lin = rate_report([binary_entropy(e_m)] * t.nr, "prop2")
    graph = rate_report([kc * binary_entropy(epsilon)] * dp.n_star, "chain", kc=kc)
    return gains(graph, lin, _uniform_split(t.k * binary_entropy(epsilon), t))


def multilinear_rates(t: Topology, epsilon: float) -> GainReport:
    """Product demand under i.i.d. Bern(eps): closed-form graph rate, the
    per-server product-parameter adaptation as the linear baseline, and the
    i.i.d. joint entropy as the Slepian-Wolf baseline."""
    if t.kc != 1:
        raise ValidationError("scenario takes a single demanded function")
    graph = prop3_rate(t, epsilon)
    lin = rate_report(
        [binary_entropy(product_param(t.m, epsilon))] * t.nr, "prop2", model="product"
    )
    return gains(graph, lin, _uniform_split(t.k * binary_entropy(epsilon), t))
