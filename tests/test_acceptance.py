"""Acceptance checklist: one test and one printed PASS/FAIL line per criterion.

Run with `-s` to see every line, or execute the file directly:

    python3 -m pytest tests/test_acceptance.py -v -s
    python3 tests/test_acceptance.py

Each criterion states its own tolerance and (where applicable) wall-clock
budget.
"""

import math
import random
import time
from itertools import combinations

import numpy as np

from chargraph.functions import LinearlySeparable, MultiLinear
from chargraph.graphs import build_char_graph, enumerate_mis, make_graph
from chargraph.probability import (
    JointPmf,
    binary_entropy,
    iid_bernoulli_joint,
    parity_param,
)
from chargraph.rates import (
    chain_rate,
    prop1_rate,
    prop3_rate,
    scenario1_rates,
    scenario2_table2_rates,
)
from chargraph.simulator import build_decode_table, build_encoders, run_simulation
from chargraph.solvers import (
    chromatic_entropy,
    conditional_graph_entropy,
    graph_entropy,
)
from chargraph.topology import Topology, cyclic_placement

from test_rates import PROP1_CASES, eta_lin

TERNARY_CONDITIONAL = 0.5408520829727552  # (2/3) h(1/4)


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, flush=True)
    return line


def criterion_1() -> tuple[bool, str]:
    """Ternary worked example: H_G = 2/3 and the conditional variant
    (2/3) h(1/4), both within 1e-6, in under a second."""
    t0 = time.perf_counter()
    g = make_graph({1: 1 / 3, 2: 1 / 3, 3: 1 / 3}, [(1, 3)])
    plain = graph_entropy(g).value
    joint = JointPmf(
        (3, 3), {(x, y): 1 / 6 for x in range(3) for y in range(3) if x != y}
    )
    cond = conditional_graph_entropy(g, joint).value
    dt = time.perf_counter() - t0
    ok = (
        abs(plain - 2 / 3) <= 1e-6
        and abs(cond - TERNARY_CONDITIONAL) <= 1e-6
        and dt < 1.0
    )
    return ok, (
        f"H_G={plain:.6f} (target 2/3), conditional={cond:.6f} "
        f"(target {TERNARY_CONDITIONAL:.6f}), tol 1e-6, {dt:.2f}s < 1s"
    )


def criterion_2() -> tuple[bool, str]:
    """Linear-demand piecewise cost equals the independently tabulated
    symbol count on all 50 frozen instances (integer equality)."""
    bad = []
    for n, k, nr, kc, cost in PROP1_CASES:
        t = Topology(n=n, k=k, kc=kc, m=(k // n) * (n - nr + 1), nr=nr)
        rr = prop1_rate(t)
        if rr.metadata["total_symbols"] != cost or round(rr.sum_rate) != cost:
            bad.append((n, k, nr, kc))
    ok = not bad
    detail = f"{len(PROP1_CASES) - len(bad)}/{len(PROP1_CASES)} instances exact"
    if bad:
        detail += f", first mismatch at (N,K,Nr,Kc)={bad[0]}"
    return ok, detail


def criterion_3() -> tuple[bool, str]:
    """Pair-demand sweep: no gain at the independent midpoint (eta = 1
    exactly), gain in [1.40, 1.50] at eps = 1e-6, and a 101-point sweep in
    under a second."""
    t0 = time.perf_counter()
    mid = eta_lin(scenario2_table2_rates(0.5, 0.5))
    tiny = eta_lin(scenario2_table2_rates(1e-6, 1.0 - 1e-6))
    sweep = [
        eta_lin(scenario2_table2_rates(e, 1.0 - e))
        for e in np.linspace(0.005, 0.995, 101)
    ]
    dt = time.perf_counter() - t0
    ok = (
        abs(mid - 1.0) <= 1e-12
        and 1.40 <= tiny <= 1.50
        and len(sweep) == 101
        and dt < 1.0
    )
    return ok, (
        f"eta(0.5)={mid:.12f} (=1 to 1e-12), eta(1e-6)={tiny:.6f} in "
        f"[1.40,1.50], 101 points in {dt:.2f}s < 1s"
    )


def criterion_4() -> tuple[bool, str]:
    """Fully correlated sum demand on T(N=30, K=30, Nr=20, M=11): the linear
    baseline pays Nr = 20 stages against N* = 2 graph stages, so
    eta_lin = 10 within 1e-6."""
    t = Topology(n=30, k=30, kc=1, m=11, nr=20)
    etas = [eta_lin(scenario1_rates(t, e, 1.0)) for e in (0.1, 0.25, 0.4)]
    ok = all(abs(v - 10.0) <= 1e-6 for v in etas)
    return ok, f"eta_lin at rho=1: {[round(v, 9) for v in etas]}, target 10 +- 1e-6"


def criterion_5() -> tuple[bool, str]:
    """Product-demand closed form against the ordered conditional chain on
    six topologies (M <= 3) at eps in {0.1, 0.3, 0.5}, agreement within
    1e-5, all inside 30 seconds."""
    cases = [
        ((2, 2, 1), (1,)),
        ((3, 3, 2), (1, 2)),
        ((4, 4, 3), (1, 3)),
        ((5, 5, 4), (1, 3, 5)),
        ((6, 6, 4), (1, 4)),
        ((7, 7, 5), (1, 4, 7)),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for (n, k, nr), order in cases:
        t = Topology(n=n, k=k, kc=1, m=(k // n) * (n - nr + 1), nr=nr)
        p = cyclic_placement(t)
        d = MultiLinear(k=k)
        for eps in (0.1, 0.3, 0.5):
            closed = prop3_rate(t, eps).sum_rate
            chained = chain_rate(t, p, d, iid_bernoulli_joint(k, eps), order).sum_rate
            worst = max(worst, abs(closed - chained))
            checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 30.0
    return ok, (
        f"{checked} (topology, eps) pairs over {len(cases)} topologies, "
        f"max |closed - chain| = {worst:.2e} <= 1e-5, {dt:.1f}s < 30s"
    )


def criterion_6() -> tuple[bool, str]:
    """Zero decode errors on every recovery pair at blocklengths 1 and 2 for
    the pair-demand and three-server product instances, and Monte-Carlo
    empirical rates within 0.02 bits of the graph-entropy benchmarks at 1e5
    trials."""
    instances = []
    t_ii = Topology(n=3, k=3, kc=2, m=2, nr=2)
    instances.append(
        (
            t_ii,
            cyclic_placement(t_ii),
            LinearlySeparable(q=2, gamma=((0, 1, 0), (0, 1, 1))),
        )
    )
    t_ml = Topology(n=3, k=3, kc=1, m=2, nr=2)
    instances.append((t_ml, cyclic_placement(t_ml), MultiLinear(k=3)))

    total_errors = 0
    worst_gap = 0.0
    runs = 0
    for t, p, d in instances:
        joint = iid_bernoulli_joint(3, 0.5)
        h_g = [graph_entropy(build_char_graph(d, p, joint, i)).value for i in range(1, t.n + 1)]
        for n in (1, 2):
            encs = build_encoders(t, p, d, joint, n)
            for sub in combinations(range(1, t.n + 1), t.nr):
                tab = build_decode_table(encs, t, p, d, joint, sub)
                res = run_simulation(encs, tab, joint, n, 100_000, seed=2024)
                total_errors += res.errors
                for emp, h in zip(res.empirical_rate_bits_per_symbol, h_g):
                    worst_gap = max(worst_gap, abs(emp - h))
                runs += 1
    ok = total_errors == 0 and worst_gap <= 0.02
    return ok, (
        f"{runs} subset runs x 1e5 trials: {total_errors} decode errors, "
        f"max |empirical - theoretical| = {worst_gap:.4f} <= 0.02 bits"
    )


def _brute_force_mis(g) -> set:
    out = set()
    for r in range(1, g.n + 1):
        for s in combinations(range(g.n), r):
            ss = set(s)
            if any(g.adjacent(i, j) for i, j in combinations(s, 2)):
                continue
            if any(v not in ss and not (g.neighbors[v] & ss) for v in range(g.n)):
                continue
            out.add(s)
    return out


def criterion_7() -> tuple[bool, str]:
    """200 random graphs (fixed seed): solver value between 0 and the exact
    chromatic entropy, monotone under edge addition, never hurt by side
    information, maximal-independent-set enumeration equal to brute force,
    and all restarts within 1e-6 of each other; under 60 seconds."""
    rng = random.Random(20260822)
    t0 = time.perf_counter()
    failures = []
    for trial in range(200):
        nv = rng.randint(2, 8)
        p_edge = rng.uniform(0.15, 0.7)
        weights = [rng.uniform(0.05, 1.0) for _ in range(nv)]
        edges = [
            (i, j) for i, j in combinations(range(nv), 2) if rng.random() < p_edge
        ]
        g = make_graph(dict(enumerate(weights)), edges)

        res = graph_entropy(g)
        spread = max(res.restart_values) - min(res.restart_values)
        if spread >= 1e-6:
            failures.append(f"trial {trial}: restart spread {spread:.2e}")
        chrom = chromatic_entropy(g)
        if not (-1e-9 <= res.value <= chrom + 1e-6):
            failures.append(
                f"trial {trial}: H_G={res.value:.6f} outside [0, {chrom:.6f}]"
            )

        if set(enumerate_mis(g).sets) != _brute_force_mis(g):
            failures.append(f"trial {trial}: MIS mismatch")

        non_edges = [
            (i, j) for i, j in combinations(range(nv), 2) if not g.adjacent(i, j)
        ]
        if non_edges:
            i, j = rng.choice(non_edges)
            denser = make_graph(
                dict(enumerate(weights)),
                edges + [(i, j)],
            )
            if graph_entropy(denser).value < res.value - 1e-6:
                failures.append(f"trial {trial}: edge addition lowered the entropy")

        ny = rng.randint(1, 3)
        rows = []
        for _ in range(nv):
            w = [rng.uniform(0.05, 1.0) for _ in range(ny)]
            tot = math.fsum(w)
            rows.append([v / tot for v in w])
        joint = JointPmf(
            (g.n, ny),
            {
                (x, y): g.pmf[x] * rows[x][y]
                for x in range(g.n)
                for y in range(ny)
            },
        )
        if conditional_graph_entropy(g, joint).value > res.value + 1e-6:
            failures.append(f"trial {trial}: conditioning raised the entropy")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    detail = f"200 random graphs, {len(failures)} violations, {dt:.1f}s < 60s"
    if failures:
        detail += f"; first: {failures[0]}"
    return ok, detail


def criterion_8() -> tuple[bool, str]:
    """Small-eps law of the parity-skew entropy at eps = 1e-4, M in {2, 3, 4}:

        |h(eps_M) - (M h(eps) - M eps log2 M)| <= M^2 eps^2 (log2(1/eps) + 1)

    with eps_M = parity_param(M, eps) = (1 - (1 - 2 eps)^M) / 2.

    Expanding eps_M = M eps - M(M-1) eps^2 + O(eps^3) and
    h(p) = p log2(e/p) - p^2 / (2 ln 2) + O(p^3) gives
    h(eps_M) = M h(eps) - M eps log2 M + r with the second-order remainder
    r = -M(M-1) eps^2 (log2(1/(M eps)) + 1/(2 ln 2)) + O(eps^3 log(1/eps)).
    Since (M-1)/M < 1 and log2(1/(M eps)) + 0.73 < log2(1/eps) + 1, the
    tolerance bounds |r|; at 60 digits |r| stays below 0.71 of it for
    M <= 4 and 1e-12 <= eps <= 1e-3. The tolerance is at least 100 times
    smaller than the first-order term M eps log2 M, so the check rejects the
    bare law h(eps_M) = M h(eps).

    That bare law, h(eps_M) within 5% of M h(eps), cannot hold at
    eps = 1e-4: dividing by h(eps) ~ eps log2(e/eps) gives the ratio
    h(eps_M)/h(eps) ~ M (1 - log2 M / log2(e/eps)), a deficit of 6.8% to
    13.6% for M = 2..4 that closes only logarithmically as eps -> 0."""
    eps = 1e-4
    base = binary_entropy(eps)
    ok = True
    parts = []
    for m in (2, 3, 4):
        value = binary_entropy(parity_param(m, eps))
        dropped = m * eps * math.log2(m)
        residual = value - (m * base - dropped)
        tol = m * m * eps * eps * (math.log2(1 / eps) + 1)
        ok = ok and abs(residual) <= tol and 100 * tol <= dropped
        predicted = m * (1 - math.log2(m) / math.log2(math.e / eps))
        parts.append(
            f"M={m}: residual {residual:.2e} (tol {tol:.2e}), "
            f"ratio {value / base:.4f} ~ {predicted:.4f}"
        )
    return ok, (
        "h(eps_M) = M h(eps) - M eps log2 M + O(eps^2 log) at eps=1e-4: "
        + "; ".join(parts)
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def _run(num: int) -> None:
    ok, detail = CRITERIA[num - 1]()
    line = _report(num, ok, detail)
    assert ok, line


def test_criterion_1():
    _run(1)


def test_criterion_2():
    _run(2)


def test_criterion_3():
    _run(3)


def test_criterion_4():
    _run(4)


def test_criterion_5():
    _run(5)


def test_criterion_6():
    _run(6)


def test_criterion_7():
    _run(7)


def test_criterion_8():
    _run(8)


if __name__ == "__main__":
    import sys

    all_ok = True
    for num in range(1, len(CRITERIA) + 1):
        ok, detail = CRITERIA[num - 1]()
        _report(num, ok, detail)
        all_ok = all_ok and ok
    sys.exit(0 if all_ok else 1)
