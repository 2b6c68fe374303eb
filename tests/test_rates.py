"""Rate bounds, the ordered conditional chain, and scenario closed forms.

PROP1_CASES and the other frozen constants were produced by the standalone
arithmetic in tests/oracles/gen_frozen.py, which imports nothing from the
package.
"""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chargraph import rates, solvers

from chargraph.errors import DecodeError, DeskScaleError, MisStructureError, ValidationError
from chargraph.functions import (
    GeneralTable,
    LinearlySeparable,
    MultiLinear,
    demand_from_json,
    evaluate_demand,
)
from chargraph.graphs import (
    EXACT_COLOR_GUARD,
    build_char_graph,
    enumerate_mis,
    greedy_coloring,
    integer_codes,
    make_graph,
    support_items,
    validate_coloring,
    zone_split,
)
from chargraph.probability import (
    JointPmf,
    binary_entropy,
    crossover_joint,
    diniz_joint,
    iid_bernoulli_joint,
    parity_param,
    product_joint,
    product_param,
)
from chargraph.rates import (
    Codebook,
    RateReport,
    chain_rate,
    coloring_map,
    gain_ratio,
    min_coloring,
    multilinear_rates,
    prop1_rate,
    prop2_rate,
    prop3_rate,
    rate_report,
    scenario1_rates,
    scenario2_diniz_rates,
    scenario2_table2_rates,
    scenario3_rates,
    slepian_wolf_rate,
    theorem1_sum_rate,
)
from chargraph.solvers import conditional_graph_entropy
from chargraph.topology import Placement, Topology, cyclic_placement

# (N, K, Nr, Kc, total q-ary symbols) for the piecewise linear-demand cost
PROP1_CASES = [
    (2, 2, 1, 1, 1),
    (2, 2, 1, 2, 2),
    (2, 2, 1, 3, 2),
    (2, 2, 1, 4, 2),
    (2, 2, 2, 1, 2),
    (2, 2, 2, 2, 2),
    (2, 2, 2, 3, 2),
    (2, 2, 2, 4, 2),
    (2, 4, 1, 1, 1),
    (2, 4, 1, 2, 2),
    (2, 4, 1, 3, 3),
    (2, 4, 1, 4, 4),
    (2, 4, 1, 5, 4),
    (2, 4, 1, 6, 4),
    (2, 4, 2, 1, 2),
    (2, 4, 2, 2, 4),
    (2, 4, 2, 3, 4),
    (2, 4, 2, 4, 4),
    (2, 4, 2, 5, 4),
    (2, 4, 2, 6, 4),
    (2, 6, 1, 1, 1),
    (2, 6, 1, 2, 2),
    (2, 6, 1, 3, 3),
    (2, 6, 1, 4, 4),
    (2, 6, 1, 5, 5),
    (2, 6, 1, 6, 6),
    (2, 6, 1, 7, 6),
    (2, 6, 1, 8, 6),
    (2, 6, 2, 1, 2),
    (2, 6, 2, 2, 4),
    (2, 6, 2, 3, 6),
    (2, 6, 2, 4, 6),
    (2, 6, 2, 5, 6),
    (2, 6, 2, 6, 6),
    (2, 6, 2, 7, 6),
    (2, 6, 2, 8, 6),
    (3, 3, 1, 1, 1),
    (3, 3, 1, 2, 2),
    (3, 3, 1, 3, 3),
    (3, 3, 1, 4, 3),
    (3, 3, 1, 5, 3),
    (3, 3, 2, 1, 2),
    (3, 3, 2, 2, 2),
    (3, 3, 2, 3, 3),
    (3, 3, 2, 4, 3),
    (3, 3, 2, 5, 3),
    (3, 3, 3, 1, 3),
    (3, 3, 3, 2, 3),
    (3, 3, 3, 3, 3),
    (3, 3, 3, 4, 3),
]

PROP3_5_5_4_HALF = 1.076597655573916
ETA_LIN_TINY_EPS = 1.453213841424126


def topo(n, k, nr, kc=1):
    return Topology(n=n, k=k, kc=kc, m=(k // n) * (n - nr + 1), nr=nr)


def scenario_ii(eps=0.3):
    t = Topology(n=3, k=3, kc=2, m=2, nr=2)
    p = cyclic_placement(t)
    d = LinearlySeparable(q=2, gamma=((0, 1, 0), (0, 1, 1)))
    return t, p, d, iid_bernoulli_joint(3, eps)


def parity_instance(eps=0.3):
    t = Topology(n=3, k=3, kc=1, m=2, nr=2)
    p = cyclic_placement(t)
    d = LinearlySeparable(q=2, gamma=((1, 1, 1),))
    return t, p, d, iid_bernoulli_joint(3, eps)


class TestReports:
    def test_rate_report_clamps_dust(self):
        rr = rate_report([1.0, -1e-15], "chain")
        assert rr.per_server_rates == (1.0, 0.0)
        assert rr.sum_rate == 1.0

    def test_rate_report_validation(self):
        with pytest.raises(ValidationError, match="negative per-server rate"):
            RateReport(per_server_rates=(-0.5,), method="x")
        # the sum is the exact fsum of the rates, so it cannot disagree with them
        assert RateReport(per_server_rates=(0.1,) * 10, method="x").sum_rate == 1.0

    def test_gains_ratios(self):
        assert gain_ratio(3.0, 1.0) == pytest.approx(3.0)
        assert gain_ratio(4.5, 1.0) == pytest.approx(4.5)
        assert type(gain_ratio(3.0, 1.0)) is float
        grid = gain_ratio(np.array([3.0, 1.0]), np.array([1.0, 0.0]))
        assert isinstance(grid, np.ndarray)
        assert grid.tolist() == [3.0, math.inf]

    def test_gains_zero_graph_rate(self):
        assert math.isinf(gain_ratio(1.0, 0.0))
        assert math.isinf(gain_ratio(0.0, 0.0))

    def test_codebook_missing_server(self):
        cb = Codebook(candidates={1: ({(0,): 0},)})
        with pytest.raises(ValidationError):
            cb.for_server(2)


class TestProp1:
    @pytest.mark.parametrize("n,k,nr,kc,cost", PROP1_CASES)
    def test_frozen_grid(self, n, k, nr, kc, cost):
        rr = prop1_rate(topo(n, k, nr, kc=kc))
        assert rr.metadata["total_symbols"] == cost
        assert rr.sum_rate == pytest.approx(cost, abs=1e-12)

    def test_metadata(self):
        rr = prop1_rate(topo(2, 4, 2))
        assert rr.metadata["units"] == "q-ary symbols"
        assert rr.metadata["case"] == "kc_below_delta"
        assert len(rr.per_server_rates) == 2

    def test_rejects_bad_kc(self):
        with pytest.raises(ValidationError):
            prop1_rate(topo(2, 4, 2, kc=0))


class TestProp2:
    def test_parity_closed_form(self):
        # local parities are Bern(2 eps (1-eps)); both servers pay its entropy
        for eps in (0.1, 0.3, 0.5):
            t, p, d, joint = parity_instance(eps)
            rr = prop2_rate(t, p, d, joint)
            want = binary_entropy(2 * eps * (1 - eps))
            assert rr.per_server_rates == pytest.approx((want, want), abs=1e-12)

    def test_level_one_mass_metadata(self):
        # the two maximal-independent-set indicators tie in exact arithmetic
        # (h(p) = h(1 - p)) but may differ in their last bits, so the tie rule
        # picks the first candidate, whose level-one class (the even local
        # parities) holds vertex 0; N=K=n, Nr=2
        for n, eps, mass in ((3, 0.3, 0.58), (2, 0.2, 0.8)):
            t = topo(n, n, 2)
            d = LinearlySeparable(q=2, gamma=((1,) * n,))
            rr = prop2_rate(t, cyclic_placement(t), d, iid_bernoulli_joint(n, eps))
            assert rr.metadata["chosen"] == {1: 0, 2: 0}
            for got, rate in zip(rr.metadata["level_one_mass"], rr.per_server_rates):
                assert got == pytest.approx(mass, abs=1e-12)
                assert binary_entropy(got) == pytest.approx(rate, abs=1e-12)

    def test_rich_mis_structure_rejected(self):
        # the pair-demand middle server must separate everything: four
        # maximal independent sets, outside this bound's premise
        t, p, d, joint = scenario_ii()
        with pytest.raises(MisStructureError):
            prop2_rate(t, p, d, joint)

    def test_rejects_nonbinary(self):
        t = topo(2, 2, 2)
        p = cyclic_placement(t)
        d = LinearlySeparable(q=3, gamma=((1, 1),))
        from chargraph.probability import uniform_joint

        with pytest.raises(ValidationError):
            prop2_rate(t, p, d, uniform_joint(3, 2))

    def test_rejects_mismatched_marginals(self):
        t, p, d, _ = parity_instance()
        from chargraph.probability import product_joint

        joint = product_joint([(0.7, 0.3), (0.5, 0.5), (0.7, 0.3)])
        with pytest.raises(ValidationError):
            prop2_rate(t, p, d, joint)

    def test_explicit_candidates(self):
        t, p, d, joint = parity_instance(0.3)
        by_parity = {
            (a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)
        }
        cb = Codebook(candidates={1: (by_parity,), 2: (by_parity,)})
        rr = prop2_rate(t, p, d, joint, cb=cb)
        assert rr.sum_rate == pytest.approx(2 * binary_entropy(0.42), abs=1e-12)

    def test_non_boolean_candidate_rejected(self):
        t, p, d, joint = parity_instance()
        three_level = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 0}
        cb = Codebook(candidates={1: (three_level,), 2: (three_level,)})
        with pytest.raises(ValidationError):
            prop2_rate(t, p, d, joint, cb=cb)

    def test_merging_candidate_rejected(self):
        t, p, d, joint = parity_instance()
        by_first = {(a, b): a for a in (0, 1) for b in (0, 1)}
        cb = Codebook(
            candidates={1: (by_first,), 2: (by_first,)}
        )  # merges (0,0) with (0,1), a confusable pair
        with pytest.raises(DecodeError):
            prop2_rate(t, p, d, joint, cb=cb)


class TestProp3:
    def test_frozen_value(self):
        rr = prop3_rate(topo(5, 5, 4, kc=1), 0.5)
        assert rr.sum_rate == pytest.approx(PROP3_5_5_4_HALF, abs=1e-12)

    def test_stage_structure(self):
        t = topo(5, 5, 4, kc=1)  # M=2, N*=2, Delta_N=1
        rr = prop3_rate(t, 0.5)
        e_m = 0.25
        want = [
            binary_entropy(e_m),
            e_m * binary_entropy(e_m),
            e_m**2 * binary_entropy(0.5),
        ]
        assert list(rr.per_server_rates) == pytest.approx(want, abs=1e-12)
        assert rr.metadata["n_star"] == 2 and rr.metadata["delta_n"] == 1

    def test_no_tail_when_divisible(self):
        rr = prop3_rate(topo(4, 4, 3, kc=1), 0.3)  # M=2, N*=2, Delta_N=0
        assert len(rr.per_server_rates) == 2

    def test_deterministic_endpoints_cost_nothing(self):
        for eps in (0.0, 1.0):
            assert prop3_rate(topo(5, 5, 4, kc=1), eps).sum_rate == 0.0

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            prop3_rate(topo(5, 5, 4, kc=1), 1.5)


class TestTheorem1:
    def test_pair_demand_sum_rate(self):
        # first server resolves w2, second must resolve (w2, w3)
        for eps in (0.2, 0.5):
            t, p, d, joint = scenario_ii(eps)
            rr = theorem1_sum_rate(t, p, d, joint)
            assert rr.sum_rate == pytest.approx(3 * binary_entropy(eps), abs=1e-6)
            assert rr.per_server_rates == pytest.approx(
                (binary_entropy(eps), 2 * binary_entropy(eps)), abs=1e-6
            )

    def test_identity_codebook_matches_two_mis_bound(self):
        t, p, d, joint = parity_instance(0.3)
        ident = {(a, b): 2 * a + b for a in (0, 1) for b in (0, 1)}
        cb = Codebook(candidates={i: (ident,) for i in (1, 2, 3)})
        rr = theorem1_sum_rate(t, p, d, joint, cb=cb)
        assert rr.sum_rate == pytest.approx(
            prop2_rate(t, p, d, joint).sum_rate, abs=1e-6
        )

    def test_codebook_sweep_guard(self, monkeypatch):
        # three 2-subsets of servers make at least three checks
        monkeypatch.setattr(rates, "COMBO_GUARD", 2)
        t, p, d, joint = scenario_ii()
        with pytest.raises(DeskScaleError, match="codebook decodability sweep"):
            theorem1_sum_rate(t, p, d, joint)

    def test_merging_codebook_rejected(self):
        t, p, d, joint = scenario_ii()
        constant = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
        cb = Codebook(candidates={i: (constant,) for i in (1, 2, 3)})
        with pytest.raises(DecodeError):
            theorem1_sum_rate(t, p, d, joint, cb=cb)

    def test_non_total_candidate_rejected(self):
        t, p, d, joint = parity_instance()
        partial = {(0, 0): 0, (0, 1): 1, (1, 0): 1}  # misses (1, 1)
        cb = Codebook(candidates={i: (partial,) for i in (1, 2, 3)})
        for bound in (theorem1_sum_rate, prop2_rate):
            with pytest.raises(ValidationError, match="not total"):
                bound(t, p, d, joint, cb=cb)

    def test_undecodable_profile_rejected(self):
        # per-server parity colorings are proper but the pooled pair of
        # parities cannot tell the all-zeros block from the all-ones block
        t, p, d, joint = parity_instance()
        by_parity = {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}
        cb = Codebook(candidates={i: (by_parity,) for i in (1, 2, 3)})
        with pytest.raises(DecodeError):
            theorem1_sum_rate(t, p, d, joint, cb=cb)

    def test_coverage_failure_rejected(self):
        t = Topology(n=2, k=2, kc=1, m=1, nr=1)
        p = Placement(n=2, k=2, zones=((1,), (1,)))
        d = LinearlySeparable(q=2, gamma=((1, 1),))
        with pytest.raises(ValidationError):
            theorem1_sum_rate(t, p, d, iid_bernoulli_joint(2, 0.4))


class TestPointLocalSupport:
    """A server whose zone is constant has a one-point local support: its
    map is constant and every bound charges it nothing."""

    def test_constant_zone_costs_nothing(self):
        t, p, d, _ = parity_instance()
        joint = JointPmf((2, 2, 2), {(0, 0, 0): 0.7, (0, 0, 1): 0.3})  # W1, W2 fixed
        assert coloring_map(build_char_graph(d, p, joint, 1)) == {(0, 0): 0}
        for rr in (theorem1_sum_rate(t, p, d, joint), chain_rate(t, p, d, joint, [1, 2])):
            assert rr.per_server_rates[0] == 0.0
            assert rr.per_server_rates[1] == pytest.approx(binary_entropy(0.3), abs=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_deterministic_source_costs_nothing(self, eps):
        t, p, d, joint = parity_instance(eps)
        bit = int(eps)
        assert all(
            coloring_map(build_char_graph(d, p, joint, i)) == {(bit, bit): 0}
            for i in (1, 2, 3)
        )
        for rr in (
            theorem1_sum_rate(t, p, d, joint),
            prop2_rate(t, p, d, joint),
            chain_rate(t, p, d, joint, [1, 2]),
        ):
            assert rr.per_server_rates == (0.0, 0.0)


class TestMinColoring:
    def test_components_colored_apart(self):
        # three disjoint copies of the path 1-0-5-4-2-3: whole-graph greedy
        # needs 3 colors on each copy and the 18 vertices pass the exact
        # guard, but each 6-vertex component gets its exact 2-coloring
        path = [(1, 0), (0, 5), (5, 4), (4, 2), (2, 3)]
        g = make_graph(
            {(c, v): 1 / 18 for c in range(3) for v in range(6)},
            [((c, a), (c, b)) for c in range(3) for a, b in path],
        )
        assert g.n > EXACT_COLOR_GUARD
        assert len(set(greedy_coloring(g))) == 3
        coloring = min_coloring(g)
        validate_coloring(g, coloring)
        assert len(set(coloring)) == 2

    def test_lone_vertices_get_color_zero(self):
        g = make_graph({v: 0.25 for v in range(4)}, [(1, 2)])
        assert min_coloring(g) == (0, 0, 1, 0)


class TestChain:
    def test_pair_demand_both_orderings(self):
        for eps in (0.2, 0.5):
            t, p, d, joint = scenario_ii(eps)
            for order in [(1, 2), (2, 1)]:
                rr = chain_rate(t, p, d, joint, order)
                assert rr.sum_rate == pytest.approx(
                    2 * binary_entropy(eps), abs=1e-6
                )
                assert rr.metadata["ordering"] == list(order)

    def test_later_server_rides_side_information(self):
        t, p, d, joint = scenario_ii(0.3)
        rr = chain_rate(t, p, d, joint, (2, 1))
        # server 2 resolves both demands; server 1 then owes nothing
        assert rr.per_server_rates[1] == pytest.approx(0.0, abs=1e-6)

    def test_matches_multilinear_closed_form(self):
        t = topo(5, 5, 4, kc=1)
        p = cyclic_placement(t)
        d = MultiLinear(k=5)
        joint = iid_bernoulli_joint(5, 0.5)
        rr = chain_rate(t, p, d, joint, (1, 3, 5))
        assert rr.sum_rate == pytest.approx(PROP3_5_5_4_HALF, abs=1e-5)

    def test_insufficient_ordering_raises(self):
        t, p, d, joint = scenario_ii()
        with pytest.raises(DecodeError, match="insufficient"):
            chain_rate(t, p, d, joint, (1,))

    def test_best_of_many_orderings(self):
        t, p, d, joint = scenario_ii(0.3)
        rr = chain_rate(t, p, d, joint, [(1,), (1, 2)])
        assert rr.metadata["ordering"] == [1, 2]
        assert rr.metadata["orderings_tried"] == 2

    def test_complete_bipartite_128_vertex_graph_is_priced(self):
        # server 1 holds bits 1-7 of 8 and the parity of those 7 is
        # demanded: its graph is K_{64,64}, 128 vertices and two maximal
        # independent sets, one bit; server 2 then owes nothing
        t = Topology(n=2, k=8, kc=1, m=7, nr=2)
        p = Placement(2, 8, (tuple(range(1, 8)), (8,)))
        d = LinearlySeparable(q=2, gamma=((1,) * 7 + (0,),))
        joint = iid_bernoulli_joint(8, 0.5)
        assert chain_rate(t, p, d, joint, [(1, 2), (2, 1)]).sum_rate == 1.0
        assert prop2_rate(t, p, d, joint).per_server_rates == (1.0, 0.0)
        assert theorem1_sum_rate(t, p, d, joint).per_server_rates == (1.0, 0.0)

    def test_all_orderings_failing_raises(self):
        t, p, d, joint = scenario_ii()
        with pytest.raises(DecodeError, match="no supplied ordering"):
            chain_rate(t, p, d, joint, [(1,), (3,)])

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    @pytest.mark.parametrize("nr", [3, 4])
    def test_every_parity_ordering_decodes(self, eps, nr):
        # a stage's rate does not depend on which minimum coloring it sends,
        # but decodability does: greedy's pairing of colors across the
        # components of a section must let every ordering decode
        t = topo(5, 5, nr)
        p = cyclic_placement(t)
        d = LinearlySeparable(q=2, gamma=((1,) * 5,))
        joint = iid_bernoulli_joint(5, eps)
        orders = list(itertools.permutations(range(1, nr + 1)))
        assert len(orders) == math.factorial(nr)
        for order in orders:
            assert chain_rate(t, p, d, joint, order).metadata["ordering"] == list(order)

    def test_settled_mass_at_the_support_threshold(self):
        # after server 1 the section W1 = 0 settles; what the live points
        # leave of the total is at most SUPPORT_TOL, so make_graph prunes
        # the settled vertex, and the stage has no settled vertex
        t = Topology(n=2, k=2, kc=2, m=1, nr=2)
        p = Placement(n=2, k=2, zones=((1,), (2,)))
        d = LinearlySeparable(q=2, gamma=((1, 0), (0, 1)))
        tiny = 1.001e-15
        joint = JointPmf((2, 2), {(0, 0): tiny, (1, 0): 0.37, (1, 1): 0.63 - tiny})
        rr = chain_rate(t, p, d, joint, [1, 2])
        assert rr.sum_rate == pytest.approx(binary_entropy(0.37), abs=1e-12)

    def test_ordering_validation(self):
        t, p, d, joint = scenario_ii()
        with pytest.raises(ValidationError):
            chain_rate(t, p, d, joint, (1, 1))
        with pytest.raises(ValidationError):
            chain_rate(t, p, d, joint, (0, 2))
        with pytest.raises(ValidationError):
            chain_rate(t, p, d, joint, [])
        with pytest.raises(ValidationError, match=r"^ordering \(\) names no server$"):
            chain_rate(t, p, d, joint, [()])
        with pytest.raises(ValidationError, match=r"^ordering \(\) names no server$"):
            chain_rate(t, p, d, joint, [(1, 2), ()])


class TestSlepianWolf:
    def test_iid_joint_entropy(self):
        t, p, _, joint = parity_instance(0.3)
        rr = slepian_wolf_rate(joint, t, p)
        assert rr.sum_rate == pytest.approx(3 * binary_entropy(0.3), abs=1e-12)
        assert len(rr.per_server_rates) == t.nr

    def test_rejects_mismatched_arity(self):
        t, p, _, _ = parity_instance()
        with pytest.raises(ValidationError):
            slepian_wolf_rate(iid_bernoulli_joint(2, 0.3), t, p)


def eta_lin(r):
    """eta_lin of a closed-form scenario's rates: R_lin / R_graph."""
    graph, lin, _ = r.sum_rates()
    return gain_ratio(lin, graph)


class TestScenarioClosedForms:
    def test_sum_demand_full_correlation_gain(self):
        t = topo(30, 30, 20, kc=1)  # M = 11
        assert eta_lin(scenario1_rates(t, 0.37, 1.0)) == pytest.approx(10.0, abs=1e-9)

    def test_sum_demand_independent_matches_parity(self):
        t = topo(30, 30, 20, kc=1)
        _, first_lin = scenario1_rates(t, 0.3, 0.0).lin[0]
        want = binary_entropy(parity_param(11, 0.3))
        assert first_lin == pytest.approx(want, abs=1e-12)

    def test_pair_demand_independent_point_has_no_gain(self):
        assert eta_lin(scenario2_table2_rates(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_pair_demand_tiny_eps_gain(self):
        eps = 1e-6
        rep = scenario2_table2_rates(eps, 1.0 - eps)
        assert eta_lin(rep) == pytest.approx(ETA_LIN_TINY_EPS, abs=1e-9)

    def test_mixture_pair_full_correlation_gain(self):
        assert eta_lin(scenario2_diniz_rates(0.3, 1.0)) == pytest.approx(2.0, abs=1e-9)

    def test_parity_batch_values(self):
        t = topo(5, 5, 4, kc=2)  # K = N, M = 2, N* = 2
        graph, lin, sw = scenario3_rates(t, 0.3).sum_rates()
        assert lin == pytest.approx(4 * binary_entropy(parity_param(2, 0.3)), abs=1e-12)
        assert graph == pytest.approx(2 * 2 * binary_entropy(0.3), abs=1e-12)
        assert sw == pytest.approx(5 * binary_entropy(0.3), abs=1e-12)

    def test_parity_batch_validation(self):
        with pytest.raises(ValidationError):
            scenario3_rates(topo(2, 4, 2, kc=1), 0.3)  # K != N
        with pytest.raises(ValidationError):
            scenario3_rates(topo(5, 5, 4, kc=5), 0.3)  # Kc > Nr

    def test_multilinear_graph_is_closed_form(self):
        t = topo(5, 5, 4, kc=1)
        graph, lin, _ = multilinear_rates(t, 0.5).sum_rates()
        assert graph == pytest.approx(PROP3_5_5_4_HALF, abs=1e-12)
        assert lin == pytest.approx(4 * binary_entropy(product_param(2, 0.5)), abs=1e-12)

    @pytest.mark.parametrize("kc", [2, 3])
    def test_single_demand_scenarios_refuse_other_kc(self, kc):
        # the CLI no longer reads --kc for these, so the library's own check
        # is the one that keeps a Kc > 1 topology out
        t = topo(4, 8, 3, kc=kc)
        with pytest.raises(ValidationError, match="single demanded function"):
            scenario1_rates(t, 0.3, 0.5)
        with pytest.raises(ValidationError, match="single demanded function"):
            multilinear_rates(t, 0.3)


# each closed-form scenario as a function of its law parameters alone, with
# a law inside its domain and one outside it
CLOSED_FORMS = {
    "s1": (lambda e, r: scenario1_rates(topo(5, 5, 4), e, r), (0.3, 0.25), (1.5, 0.25)),
    "s2-table2": (scenario2_table2_rates, (0.3, 0.4), (0.3, 2.5)),
    "s2-diniz": (scenario2_diniz_rates, (0.3, 0.25), (0.3, 1.5)),
    "s3": (lambda e: scenario3_rates(topo(5, 5, 4, kc=2), e), (0.3,), (-0.1,)),
    "multilinear": (lambda e: multilinear_rates(topo(5, 5, 4), e), (0.3,), (1.5,)),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_takes_a_float_or_an_array(name):
    rates_of, law, bad = CLOSED_FORMS[name]
    one = rates_of(*law)
    grid = rates_of(*(np.array([x]) for x in law))
    # a float law is element 0 of the one-point grid, for each of R_graph,
    # R_lin and R_SW
    for got, want in zip(one.sum_rates(), grid.sum_rates()):
        assert got == want[0]
    # and each of its stages pays a float, not a 0-d array
    assert all(type(rate) is float for stages in one for _, rate in stages)
    with pytest.raises(ValidationError) as from_float:
        rates_of(*bad)
    with pytest.raises(ValidationError) as from_array:
        rates_of(*(np.array([x]) for x in bad))
    assert str(from_float.value) == str(from_array.value)


def _demand_entropy(d, joint):
    """H(f(W)): the entropy of the demanded outputs under the joint law."""
    masses = {}
    for w, m in joint.support():
        out = evaluate_demand(d, w)
        masses[out] = masses.get(out, 0.0) + m
    return -math.fsum(m * math.log2(m) for m in masses.values())


def _floor_cases():
    """(name, topology, placement, demand, joint, law is i.i.d.) over cyclic
    N=K=3 with Nr=2 and N=K=4 with Nr=2 and 3."""
    for n, nr in ((3, 2), (4, 2), (4, 3)):
        pad = (0,) * (n - 3)
        demands = (
            ("parity", LinearlySeparable(q=2, gamma=((1,) * n,))),
            ("and", MultiLinear(k=n)),
            ("pair", LinearlySeparable(q=2, gamma=((0, 1, 0) + pad, (0, 1, 1) + pad))),
        )
        rng = random.Random(f"floor/{n}")
        laws = [(f"iid{eps}", iid_bernoulli_joint(n, eps), True) for eps in (0.1, 0.4)]
        for seed in range(2):
            cube = itertools.product((0, 1), repeat=n)
            weights = {w: rng.uniform(0.05, 1.0) for w in cube}
            total = math.fsum(weights.values())
            joint = JointPmf((2,) * n, {w: v / total for w, v in weights.items()})
            laws.append((f"seeded{seed}", joint, False))
        for dname, d in demands:
            t = topo(n, n, nr, kc=d.kc)
            for lname, joint, iid in laws:
                name = f"N=K={n} Nr={nr} {dname} {lname}"
                yield name, t, cyclic_placement(t), d, joint, iid


def test_rates_respect_information_floor():
    """Every zero-error rate carries the demanded outputs, so none falls
    below H(f(W)) (within 1e-9): the chain over all orderings, theorem1
    wherever its default codebook decodes, and prop2 wherever its two-MIS
    premise holds."""
    checked = {"chain": 0, "theorem1": 0, "prop2": 0}
    for name, t, p, d, joint, iid in _floor_cases():
        floor = _demand_entropy(d, joint) - 1e-9
        orderings = [list(o) for o in itertools.permutations(range(1, t.nr + 1))]
        rates = {"chain": chain_rate(t, p, d, joint, orderings)}
        try:
            rates["theorem1"] = theorem1_sum_rate(t, p, d, joint)
        except DecodeError:
            pass  # the default codebook cannot decode (a parity, by design)
        if iid:
            try:
                rates["prop2"] = prop2_rate(t, p, d, joint)
            except MisStructureError:
                pass  # more than two maximal independent sets
        for bound, rr in rates.items():
            assert rr.sum_rate >= floor, (name, bound, rr.sum_rate, floor)
            checked[bound] += 1
    assert all(count > 0 for count in checked.values()), checked


# chain_rate over every ordering of the first Nr servers, from the
# whole-transcript oracle in tests/oracles/gen_frozen.py:
# (demand, N = K, Nr, eps) -> (R_graph, winning ordering)
FROZEN_CHAIN = {
    ("parity", 5, 4, 0.1): (1.8291496850458413, [1, 2, 4, 3]),
    ("parity", 5, 4, 0.3): (2.844198689297999, [1, 2, 4, 3]),
    ("and", 6, 5, 0.1): (0.08160914656845998, [1, 3, 2, 5, 4]),
    ("and", 6, 5, 0.3): (0.4792875061180914, [1, 3, 2, 5, 4]),
}


@pytest.mark.parametrize("case", sorted(FROZEN_CHAIN))
def test_chain_matches_frozen_values(case):
    name, n, nr, eps = case
    d = LinearlySeparable(q=2, gamma=((1,) * n,)) if name == "parity" else MultiLinear(k=n)
    t = topo(n, n, nr)
    orderings = list(itertools.permutations(range(1, nr + 1)))
    rr = chain_rate(t, cyclic_placement(t), d, iid_bernoulli_joint(n, eps), orderings)
    r_graph, ordering = FROZEN_CHAIN[case]
    assert rr.sum_rate == pytest.approx(r_graph, abs=1e-12)
    assert rr.metadata["ordering"] == ordering


def test_near_tied_orderings_go_to_the_earliest():
    # the servers of a parity are interchangeable, so orderings tie in exact
    # arithmetic, while their float sums may differ in the last bits
    t = topo(4, 4, 3)
    d = LinearlySeparable(q=2, gamma=((1,) * 4,))
    joint = iid_bernoulli_joint(4, 0.1)
    orderings = list(itertools.permutations(range(1, 4)))
    sums = [chain_rate(t, cyclic_placement(t), d, joint, o).sum_rate for o in orderings]
    least = min(sums)
    tied = [o for o, s in zip(orderings, sums) if s - least <= 1e-12 * least]
    assert len(tied) > 1
    rr = chain_rate(t, cyclic_placement(t), d, joint, orderings)
    assert rr.metadata["ordering"] == list(tied[0])


def _rotation_instance(kind, n, k, eps):
    """Parity or AND of K i.i.d. Bern(eps) bits on the cyclic placement at
    Nr = N, where rotating the servers with their datasets changes nothing."""
    t = topo(n, k, n)
    d = LinearlySeparable(q=2, gamma=((1,) * k,)) if kind == "parity" else MultiLinear(k=k)
    return t, cyclic_placement(t), d, iid_bernoulli_joint(k, eps)


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("kind, n, k", [
    (kind, n, k) for kind in ("parity", "and") for n, k in ((3, 3), (4, 4), (5, 5), (3, 6))
])
def test_one_ordering_per_rotation_orbit_picks_the_winner_of_all(kind, n, k, eps):
    # an ordering and its rotations have one sum, and the one that starts
    # with server 1 comes first, so the orbit representatives give the sum
    # and the ordering that all N! orderings give
    t, p, d, joint = _rotation_instance(kind, n, k, eps)
    assert rates.rotation_invariant(p, d, joint)
    every = list(itertools.permutations(range(1, n + 1)))
    full = chain_rate(t, p, d, joint, every)
    firsts = chain_rate(t, p, d, joint, [o for o in every if o[0] == 1])
    assert firsts.sum_rate == full.sum_rate
    assert firsts.metadata["ordering"] == full.metadata["ordering"]


def test_rotation_check_fails_on_each_broken_symmetry():
    _, p, d, joint = _rotation_instance("parity", 4, 4, 0.3)
    # a demand that rotation changes
    rng = random.Random(5)
    table = GeneralTable(q=2, k=4, tables=(tuple(rng.randint(0, 1) for _ in range(16)),))
    assert not rates.rotation_invariant(p, table, joint)
    assert not rates.rotation_invariant(p, LinearlySeparable(q=2, gamma=((1, 1, 0, 0),)), joint)
    # a placement that rotation does not map to itself
    skew = Placement(n=4, k=4, zones=((1, 2), (2, 3), (3, 4), (4,)))
    assert not rates.rotation_invariant(skew, d, joint)
    # a law whose bits are not identically distributed
    assert not rates.rotation_invariant(p, d, product_joint([(0.7, 0.3)] * 3 + [(0.6, 0.4)]))


def _walk_instance(rng, kind, sparse=False):
    """A seeded chain instance: N = K in 3..5, Nr in 2..4, a parity, AND or
    random GF(2) demand, and eps in (0, 1); sparse puts random masses on
    2 to 2/3 of the cube's points instead of the i.i.d. law, with Nr >= 3
    so that two prefixes can reach one state."""
    n = rng.randint(3, 5)
    nr = rng.randint(3 if sparse else 2, min(4, n))
    if kind == "parity":
        d = LinearlySeparable(q=2, gamma=((1,) * n,))
    elif kind == "and":
        d = MultiLinear(k=n)
    else:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        for row in rows:
            row[rng.randrange(n)] = 1  # no constant demand
        d = LinearlySeparable(q=2, gamma=tuple(map(tuple, rows)))
    t = topo(n, n, nr, kc=d.kc)
    joint = iid_bernoulli_joint(n, rng.uniform(0.02, 0.98))
    if sparse:
        cube = list(itertools.product((0, 1), repeat=n))
        support = rng.sample(cube, rng.randint(2, len(cube) * 2 // 3))
        masses = [rng.uniform(0.05, 1.0) for _ in support]
        joint = JointPmf((2,) * n, {w: m / math.fsum(masses) for w, m in zip(support, masses)})
    return t, cyclic_placement(t), d, joint


def _chain_inputs(p, d, joint, orders):
    """The masses, output codes and outputs of each code that chain_rate
    reads off the support, and the zone split of each server of orders."""
    items = support_items(d, p, joint)
    outs, values = integer_codes(dem for _, _, dem in items)
    ws = [w for w, _, _ in items]
    splits = {s: zone_split(ws, p.zone0(s)) for o in orders for s in o}
    return [m for _, m, _ in items], outs, values, splits


def _priced_walk(masses, outs, values, splits, orders):
    """rates._chain_walk on orders in one call: each ordering's path, its
    DecodeError from rates._decode_error (None when it decodes) and the
    solve of each of its stages, also for an ordering that does not
    decode."""
    paths = rates._chain_walk(masses, outs, splits, orders)
    return [(path, rates._decode_error(o, path, outs, values),
             [conditional_graph_entropy(stage.graph, stage.joint) for stage in path])
            for o, path in zip(orders, paths)]


def _stage_results(p, d, joint, orders):
    """The walk on orders in one call: each decoding ordering's stage rates
    and convergence, or its DecodeError's text."""
    return [([res.value for res in solved], all(res.converged for res in solved))
            if error is None else str(error)
            for _, error, solved in _priced_walk(*_chain_inputs(p, d, joint, orders), orders)]


def _state_transcripts(p, d, joint, orders):
    """Each stage key (server, live points, section codes) that the
    orderings reach, with the set of the live sections' transcripts along
    each prefix that reaches it; every stage is built afresh."""
    masses, outs, _, splits = _chain_inputs(p, d, joint, orders)
    root = rates._Stage(None, None, *rates._settle(range(len(outs)), (0,) * len(outs), outs), [])
    seen = {}
    for order in orders:
        path = [root]
        for server in order:
            key = (server, path[-1].live, path[-1].codes)
            names = tuple(rates._transcript(path[1:], c) for c in path[-1].codes)
            seen.setdefault(key, set()).add(names)
            path.append(rates._next_stage(path[-1], splits[server], masses, outs))
    return seen


def _one_by_one(t, p, d, joint, orders):
    """chain_rate on each ordering alone: its report, or its DecodeError."""
    out = []
    for o in orders:
        try:
            out.append(chain_rate(t, p, d, joint, [o]))
        except DecodeError as exc:
            out.append(exc)
    return out


def _assert_walk_matches_one_by_one(t, p, d, joint, orders):
    alone = _one_by_one(t, p, d, joint, orders)
    decodable = [rr for rr in alone if not isinstance(rr, DecodeError)]
    if not decodable:
        # the text joins every ordering's failure, in the supplied order
        prefix = "no supplied ordering decodes the demands: "
        with pytest.raises(DecodeError) as exc:
            chain_rate(t, p, d, joint, orders)
        assert str(exc.value) == prefix + "; ".join(str(e)[len(prefix):] for e in alone)
        return
    want = decodable[rates._earliest_least([rr.sum_rate for rr in decodable])]
    got = chain_rate(t, p, d, joint, orders)
    assert got.sum_rate == want.sum_rate
    assert got.per_server_rates == want.per_server_rates
    assert got.metadata["ordering"] == want.metadata["ordering"]
    assert got.metadata["converged"] == want.metadata["converged"]
    assert got.metadata["orderings_tried"] == len(orders)


def _check_walk(rng, t, p, d, joint):
    """All orderings of servers 1..Nr with a duplicate, a shorter ordering
    and a failing lone server, shuffled: the walk's stage results, pick and
    failures against the orderings one by one; then lone servers alone."""
    orders = list(itertools.permutations(range(1, t.nr + 1)))
    orders.append(rng.choice(orders))  # a duplicate
    orders.append(orders[0][: rng.randint(1, t.nr - 1)])  # a shorter ordering
    # a lone server that misses a bit of the demand does not decode
    lone = [(s,) for s in range(1, t.n + 1)]
    failing = [o for o, rr in zip(lone, _one_by_one(t, p, d, joint, lone))
               if isinstance(rr, DecodeError)]
    orders += failing[:1]
    rng.shuffle(orders)
    _assert_walk_matches_one_by_one(t, p, d, joint, orders)
    assert _stage_results(p, d, joint, orders) == [
        r for o in orders for r in _stage_results(p, d, joint, [o])
    ]
    if failing:
        # no ordering decodes: shuffled lone servers with a repeat
        failing.append(failing[0])
        rng.shuffle(failing)
        _assert_walk_matches_one_by_one(t, p, d, joint, failing)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["parity", "and", "gf2"])
def test_prefix_walk_matches_each_ordering_alone(kind, seed):
    # the walk builds each stage once per state (server, live points,
    # section codes) and shares it between the orderings that reach it;
    # every ordering's stage rates or DecodeError text, the pick and the
    # joined failures must be those of the orderings taken one by one
    rng = random.Random(f"{kind}-{seed}")
    _check_walk(rng, *_walk_instance(rng, kind))
    # a sparse random support, drawn until prefixes whose transcripts
    # differ reach one state
    for _ in range(50):
        t, p, d, joint = _walk_instance(rng, kind, sparse=True)
        orders = list(itertools.permutations(range(1, t.nr + 1)))
        if any(len(names) > 1 for names in _state_transcripts(p, d, joint, orders).values()):
            break
    else:
        pytest.fail("no sparse draw reaches one state through differing transcripts")
    _check_walk(rng, t, p, d, joint)


def _solves(p, d, joint, orders):
    """The graph and value of every stage of every ordering in the walk on
    orders, in order."""
    return [(stage.graph, res.value)
            for path, _, solved in _priced_walk(*_chain_inputs(p, d, joint, orders), orders)
            for stage, res in zip(path, solved)]


def test_prefix_walk_siblings_after_a_settling_stage():
    # AND settles every section where server 1's bits are not all ones, so
    # (1, 2, 3, 4) and (1, 3, 2, 4) share a stage that settles and split
    # right after it: each sibling must start from that stage's live points,
    # not from what the other sibling's stages left of them
    t = topo(5, 5, 4)
    p = cyclic_placement(t)
    d = MultiLinear(k=5)
    joint = iid_bernoulli_joint(5, 0.3)
    stage2 = _solves(p, d, joint, [(1, 2, 3, 4)])[1][0]
    assert ((), ()) in stage2.vertices  # stage 1 settled sections
    for orders in ([(1, 2, 3, 4), (1, 3, 2, 4)], [(1, 3, 2, 4), (1, 2, 3, 4), (1, 3), (1, 2, 4)]):
        _assert_walk_matches_one_by_one(t, p, d, joint, orders)
        # every stage of every ordering, not only the winner's, is walked
        # as if its ordering were alone
        alone = [v for o in orders for _, v in _solves(p, d, joint, [o])]
        assert [v for _, v in _solves(p, d, joint, orders)] == alone


def test_no_ordering_decodes_message_is_unchanged():
    # recorded from the chain that evaluated each ordering on its own
    t = topo(4, 4, 3)
    d = LinearlySeparable(q=2, gamma=((1,) * 4,))
    with pytest.raises(DecodeError) as exc:
        chain_rate(t, cyclic_placement(t), d, iid_bernoulli_joint(4, 0.3),
                   [(2, 3), (2,), (1, 2), (2, 3)])
    assert str(exc.value) == (
        "no supplied ordering decodes the demands: "
        "ordering (2, 3) is insufficient: transcript (0, 0) is consistent with demands (0,) and (1,); "
        "ordering (2,) is insufficient: transcript (0,) is consistent with demands (0,) and (1,); "
        "ordering (1, 2) is insufficient: transcript (0, 0) is consistent with demands (0,) and (1,); "
        "ordering (2, 3) is insufficient: transcript (0, 0) is consistent with demands (0,) and (1,)"
    )


def _clashing_parity():
    """ROADMAP item 2's law: parity of three bits, N = K = 3, Nr = 2, cyclic
    zones, uniform on {000, 001, 011, 100, 110}. Each server's minimum
    coloring is proper, yet servers 1 and 2 do not decode together."""
    t = topo(3, 3, 2)
    points = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    joint = JointPmf((2, 2, 2), {w: 1 / 5 for w in points})
    return t, cyclic_placement(t), LinearlySeparable(q=2, gamma=((1, 1, 1),)), joint


def test_an_ordering_that_does_not_decode_costs_no_solve(monkeypatch):
    # (1, 2) does not decode, so only the two stages of (3, 2) are solved
    t, p, d, joint = _clashing_parity()
    solves = []

    def counted_solve(g, joint2):
        solves.append(g.n)
        return conditional_graph_entropy(g, joint2)

    monkeypatch.setattr(rates, "conditional_graph_entropy", counted_solve)
    rr = chain_rate(t, p, d, joint, [(1, 2), (3, 2)])
    assert rr.metadata["ordering"] == [3, 2]
    assert rr.sum_rate == pytest.approx(1.5219280948873624, rel=0, abs=1e-12)
    assert len(solves) == 2


@pytest.mark.xfail(strict=True, raises=DecodeError,
                   reason="ROADMAP item 2: a stage's completion key holds coordinates "
                          "only earlier servers hold, so a minimum coloring can fail to decode")
def test_servers_that_hold_every_bit_decode():
    # servers 1 and 2 hold all three bits between them
    t, p, d, joint = _clashing_parity()
    chain_rate(t, p, d, joint, [(1, 2)])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: s3 reports 0.469 bits, below H(f)")
def test_scenario3_respects_the_information_floor():
    t = topo(3, 3, 2)
    r_graph, _, _ = scenario3_rates(t, 0.1).sum_rates()
    assert r_graph >= binary_entropy(parity_param(3, 0.1)) - 1e-9


def _mixture_joint(k, eps, rho):
    """The explicit K-bit mixture law: weight 1 - rho on i.i.d. Bern(eps),
    and rho on the all-zero and all-one tuples in the ratio (1 - eps) : eps."""
    mass = {}
    for w in itertools.product((0, 1), repeat=k):
        ones = sum(w)
        mass[w] = (1 - rho) * eps**ones * (1 - eps) ** (k - ones)
        if ones == 0:
            mass[w] += rho * (1 - eps)
        if ones == k:
            mass[w] += rho * eps
    return JointPmf((2,) * k, mass)


@pytest.mark.parametrize("n", [3, 4])
def test_scenario1_graph_rate_against_the_chain(n):
    # s1 charges each disjoint-storage stage its local parity's entropy with
    # no conditioning: the chain's value under independence, and above it
    # once the bits are correlated, since the chain's stages condition on
    # the earlier transcripts
    d = LinearlySeparable(q=2, gamma=((1,) * n,))
    for nr in range(2, n + 1):
        t = topo(n, n, nr)
        orderings = list(itertools.permutations(range(1, nr + 1)))
        for eps in (0.1, 0.3):
            for rho in (0.0, 0.25, 0.5):
                chain = chain_rate(t, cyclic_placement(t), d, _mixture_joint(n, eps, rho), orderings)
                s1, _, _ = scenario1_rates(t, eps, rho).sum_rates()
                if rho == 0.0:
                    assert s1 == pytest.approx(chain.sum_rate, abs=1e-12)
                else:
                    assert s1 >= chain.sum_rate


def _bern_entropy(eps):
    """h(eps) as the entropy of an explicit one-bit law."""
    return JointPmf((2,), {(0,): 1.0 - eps, (1,): eps}).entropy()


# a grid of 1-6 laws, the way the CLI passes one: an array per parameter
UNIT_GRID = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data(), UNIT_GRID)
def test_scenario1_grid_sw_is_the_mixture_entropy(k, data, points):
    # the grid's R_SW against the explicit K-bit mixture law, point by point
    t = topo(k, k, data.draw(st.integers(1, k)))
    eps, rho = np.array(points).T
    _, _, sw = scenario1_rates(t, eps, rho).sum_rates()
    for e, r, got in zip(eps.tolist(), rho.tolist(), sw.tolist()):
        assert got == pytest.approx(_mixture_joint(k, e, r).entropy(), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(UNIT_GRID)
def test_scenario2_diniz_grid_lin_is_the_pair_sum_entropy(points):
    eps, rho = np.array(points).T
    _, lin, _ = scenario2_diniz_rates(eps, rho).sum_rates()
    for e, r, got in zip(eps.tolist(), rho.tolist(), lin.tolist()):
        want = _bern_entropy(e) + diniz_joint(2, e, r).entropy()
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-3, 1.0 - 1e-3), st.floats(0.0, 1.0)), min_size=1, max_size=6))
def test_scenario2_table2_grid_against_the_crossover_law(points):
    # the pair (W1, W2) follows crossover_joint and W3 is an independent
    # Bern(eps): the graph rate is H(W1, W2) = h(eps) + H(W2 | W1), the
    # Slepian-Wolf rate adds H(W3), and the linear rate ships W3 and W1 + W2
    eps = np.array([e for e, _ in points])
    p = np.array([u * min(1.0, (1.0 - e) / e) for e, u in points])  # feasible p
    graph, lin, sw = scenario2_table2_rates(eps, p).sum_rates()
    for i, (e, q) in enumerate(zip(eps.tolist(), p.tolist())):
        joint = crossover_joint(e, q)
        odd = joint.prob((0, 1)) + joint.prob((1, 0))
        xor = JointPmf((2,), {(0,): 1.0 - odd, (1,): odd})
        assert graph[i] == pytest.approx(joint.entropy(), abs=1e-12)
        assert sw[i] == pytest.approx(_bern_entropy(e) + joint.entropy(), abs=1e-12)
        assert lin[i] == pytest.approx(_bern_entropy(e) + xor.entropy(), abs=1e-12)


# section codes a stage may meet; 10 and 2 sort one way as ints and the
# other way by repr, which orders the vertices
CODE_POOL = [0, 1, 2, 3, 10, 12, 21, 100]


def _stage_by_definition(points, codes, settled=0.0):
    """The stage graph from its definition: vertices (local tuple, section
    code) in repr order with their total masses, and two vertices adjacent
    when some pair of their points shares (rest, section) but not the
    outputs; a positive settled mass adds the lone vertex ((), ()). points
    holds (local, rest, mass, outputs)."""
    masses = {((), ()): settled} if settled else {}
    for (x, _, m, _), y in zip(points, codes):
        masses[(x, y)] = masses.get((x, y), 0.0) + m
    vertices = sorted(masses, key=repr)
    total = math.fsum(masses.values())
    idx = {v: i for i, v in enumerate(vertices)}
    nbrs = [set() for _ in vertices]
    for (xa, ra, _, oa), ya in zip(points, codes):
        for (xb, rb, _, ob), yb in zip(points, codes):
            if (ra, ya) == (rb, yb) and oa != ob:
                nbrs[idx[(xa, ya)]].add(idx[(xb, yb)])
    return tuple(vertices), tuple(map(frozenset, nbrs)), tuple(masses[v] / total for v in vertices)


def _check_stage_graph(ws, zone, rng):
    """Random masses, outputs and section codes on the support ws: the
    coded stage builder against the definition, with every point live and
    with a random part of them left out as settled mass."""
    masses = [rng.uniform(0.05, 1.0) for _ in ws]
    masses = [m / math.fsum(masses) for m in masses]
    outputs = [(rng.randrange(2), rng.randrange(2)) for _ in ws]
    codes = [rng.choice(CODE_POOL) for _ in ws]
    rest_coords = [c for c in range(len(ws[0])) if c not in zone]
    points = [
        (tuple(w[c] for c in zone), tuple(w[c] for c in rest_coords), m, o)
        for w, m, o in zip(ws, masses, outputs)
    ]
    outs, _ = integer_codes(outputs)
    split, live = zone_split(ws, zone), list(range(len(ws)))  # every point live
    g, ids = rates._stage_graph(split, live, codes, masses, outs)
    vertices, neighbors, pmf = _stage_by_definition(points, codes)
    assert g.vertices == vertices
    assert g.neighbors == neighbors
    assert g.pmf == pmf
    assert [g.vertices[i] for i in ids] == [(x, y) for (x, _, _, _), y in zip(points, codes)]
    # the points left out of live are settled: their mass is one lone
    # vertex ((), ()), which sorts first by repr, and the live points keep
    # the vertices, order and edges of their own definition
    live = sorted(rng.sample(live, rng.randint(0, len(ws) - 1)))
    settled = math.fsum(m for k, m in enumerate(masses) if k not in live)
    h, h_ids = rates._stage_graph(split, live, [codes[k] for k in live], masses, outs)
    vertices, neighbors, pmf = _stage_by_definition(
        [points[k] for k in live], [codes[k] for k in live], settled
    )
    assert h.vertices[0] == ((), ()) and h.vertices == vertices
    assert h.neighbors == neighbors and h.neighbors[0] == frozenset()
    assert h.pmf == pytest.approx(pmf, rel=1e-12) and h.pmf[0] == pytest.approx(settled)
    assert h_ids == [vertices.index((points[k][0], codes[k])) for k in live]
    return g


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5), st.data())
def test_stage_graph_matches_its_definition(k, data):
    cube = list(itertools.product((0, 1), repeat=k))
    ws = data.draw(st.lists(st.sampled_from(cube), min_size=1, max_size=len(cube), unique=True))
    zone = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k - 1, unique=True))
    _check_stage_graph(sorted(ws), sorted(zone), random.Random(data.draw(st.integers(0, 2**32))))


@pytest.mark.parametrize("server", [1, 4, 7])
def test_stage_graph_on_overlapping_zones(server):
    # the cyclic placement at N = K = 7, Nr = 6 (configs/parity7.json) puts
    # 2 of the 7 bits in each zone, and every zone shares a bit with the next
    t = topo(7, 7, 6)
    zone = cyclic_placement(t).zone0(server)
    assert len(zone) == 2
    ws = list(itertools.product((0, 1), repeat=7))
    g = _check_stage_graph(ws, zone, random.Random(server))
    # among the vertices of one local tuple, the two-digit code sorts
    # before 2 by repr, not after it as an int
    ys = [y for x, y in g.vertices if x == g.vertices[0][0]]
    assert ys.index(10) < ys.index(2)


# each point's demanded outputs; "random" draws an output code per point
MERGE_DEMANDS = {
    "parity": lambda w, rng: sum(w) % 2,
    "and": lambda w, rng: int(all(w)),
    "pair": lambda w, rng: (w[1], w[1] ^ w[2]),
    "random": lambda w, rng: rng.randrange(3),
}


def _stage_value(g, ids, side, n_codes):
    """A stage's conditional graph entropy given the transcript code of
    each entry of ids as a side symbol: the section-keyed reference that
    the chain, which prices a stage on its graph alone, is checked against."""
    joint = JointPmf((g.n, n_codes), {(i, c): g.pmf[i] for i, c in dict(zip(ids, side)).items()})
    return conditional_graph_entropy(g, joint).value


def _reference_chain(ws, zones, order, masses, outs):
    """The chain with no section settled: every point stays in every stage
    graph. Returns its stage values, the number of stages that meet a
    section whose points all demand one output, and the message of the
    ordering's DecodeError (None when the last transcripts decode)."""
    n = len(ws)
    codes, transcripts = [0] * n, [()]
    values, meets_settled = [], 0
    for server in order:
        sections = {}
        for c, o in zip(codes, outs):
            sections.setdefault(c, set()).add(o)
        meets_settled += any(len(s) == 1 for s in sections.values())
        split = zone_split(ws, zones[server])
        g, ids = rates._stage_graph(split, range(n), codes, masses, outs)
        values.append(_stage_value(g, ids, codes, len(transcripts)))
        colors = min_coloring(g)
        coded = {}
        codes = [coded.setdefault((c, colors[i]), len(coded)) for c, i in zip(codes, ids)]
        transcripts = [transcripts[c] + (color,) for c, color in coded]
    first = {}
    for c, o in zip(codes, outs):
        if first.setdefault(c, o) != o:
            return values, meets_settled, (
                f"ordering {order} is insufficient: transcript {transcripts[c]} "
                f"is consistent with demands {(first[c],)} and {(o,)}"
            )
    return values, meets_settled, None


def _check_merged_stages(ws, zones, order, demand, rng):
    """Run the chain's walk on the support ws with random masses against
    the reference chain that settles nothing: every stage value agrees
    within 1e-15, and the ordering decodes in both or fails in both with
    the same message. Returns the number of stages that meet a settled
    section."""
    masses = [rng.uniform(0.05, 1.0) for _ in ws]
    masses = [m / math.fsum(masses) for m in masses]
    outs, _ = integer_codes(MERGE_DEMANDS[demand](w, rng) for w in ws)
    order = tuple(order)
    expected, meets_settled, message = _reference_chain(ws, zones, order, masses, outs)
    demands = [(o,) for o in range(max(outs) + 1)]  # output code o demands (o,)
    splits = {s: zone_split(ws, zones[s]) for s in order}
    [(_, error, solved)] = _priced_walk(masses, outs, demands, splits, [order])
    assert (None if error is None else str(error)) == message
    values = [res.value for res in solved]
    assert len(values) == len(expected)
    assert all(abs(a - b) <= 1e-15 for a, b in zip(values, expected))
    return meets_settled


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 5), st.data())
def test_merged_settled_sections_are_exact(k, data):
    cube = list(itertools.product((0, 1), repeat=k))
    ws = data.draw(st.lists(st.sampled_from(cube), min_size=1, max_size=len(cube), unique=True))
    ws = sorted(ws)
    nr = data.draw(st.integers(1, k))
    zones = {s: cyclic_placement(topo(k, k, nr)).zone0(s) for s in range(1, k + 1)}
    order = data.draw(st.permutations(range(1, k + 1)))
    demand = data.draw(st.sampled_from(sorted(MERGE_DEMANDS)))
    _check_merged_stages(ws, zones, order, demand, random.Random(data.draw(st.integers(0, 2**32))))


@pytest.mark.parametrize("demand", sorted(MERGE_DEMANDS))
def test_merged_settled_sections_on_overlapping_zones(demand):
    # configs/parity7.json's placement: N = K = 7, Nr = 6, two bits a zone
    p = cyclic_placement(topo(7, 7, 6))
    zones = {s: p.zone0(s) for s in range(1, 8)}
    ws = list(itertools.product((0, 1), repeat=7))
    meets_settled = _check_merged_stages(ws, zones, (3, 1, 6, 2, 7, 4, 5), demand, random.Random(demand))
    # every section settles once six servers have spoken, so the seventh
    # stage at least meets settled sections
    assert meets_settled >= 1


def test_and5_sweep_makes_one_solve_per_stage(monkeypatch):
    # perfbench's and-5-4 item: AND at N = K = 5, Nr = 4, all 24 orderings,
    # eps 0.1 to 0.4 over 4 points
    with open(Path(__file__).resolve().parents[1] / "perfbench/inputs/and5.json") as fh:
        d = demand_from_json(json.load(fh), k=5)
    t = topo(5, 5, 4)
    p = cyclic_placement(t)
    orders = list(itertools.permutations(range(1, 5)))
    # every section settled: a stage graph is the settled vertex alone
    masses, outs, _, splits = _chain_inputs(p, d, iid_bernoulli_joint(5, 0.1), orders)
    paths = rates._chain_walk(masses, outs, splits, orders)
    assert any(stage.graph.vertices == (((), ()),) for path in paths for stage in path)
    # the counts the benchmark's tracer pins on this item
    solves, sets = [], []

    def counted_solve(g, joint):
        solves.append(g.n)
        return conditional_graph_entropy(g, joint)

    def counted_mis(g, vs=None):
        fam = enumerate_mis(g, vs)
        sets.append(fam.count)
        return fam

    monkeypatch.setattr(rates, "conditional_graph_entropy", counted_solve)
    monkeypatch.setattr(solvers, "enumerate_mis", counted_mis)
    for eps in (0.1, 0.2, 0.3, 0.4):
        chain_rate(t, p, d, iid_bernoulli_joint(5, eps), orders)
    assert len(solves) == 4 * 24 * 4
    assert sum(sets) > 0


@pytest.mark.parametrize("stem, n, nr, grid, builds", [
    ("and5", 5, 4, (0.1, 0.2, 0.3, 0.4), 30),
    ("and6", 6, 6, (0.1,), 6 * 2**5),
    ("and6", 6, 5, (0.1, 0.2, 0.3, 0.4), 68),
])
def test_chain_builds_each_state_once(monkeypatch, stem, n, nr, grid, builds):
    # a stage is built (and colored) once per state it reads: its server,
    # the live points and their section codes, numbered by first
    # appearance. For AND at these sizes the set of servers that have
    # spoken fixes the state, so there are at most Nr 2^(Nr - 1) states,
    # one per server and set of the others (32, 192 and 80 here); two sets
    # that leave one partition of the live points share a state, which
    # leaves 30 on and-5-4 and 68 on and-6-5. Every ordering here decodes,
    # so each solves each of its stages once
    with open(Path(__file__).resolve().parents[1] / f"perfbench/inputs/{stem}.json") as fh:
        d = demand_from_json(json.load(fh), k=n)
    t = topo(n, n, nr)
    p = cyclic_placement(t)
    solves = []

    def counted_solve(g, joint):
        solves.append(g.n)
        return conditional_graph_entropy(g, joint)

    monkeypatch.setattr(rates, "conditional_graph_entropy", counted_solve)
    orders = list(itertools.permutations(range(1, nr + 1)))
    for eps in grid:
        joint = iid_bernoulli_joint(n, eps)
        masses, outs, _, splits = _chain_inputs(p, d, joint, orders)
        paths = rates._chain_walk(masses, outs, splits, orders)
        assert len({id(stage) for path in paths for stage in path}) == builds
        solves.clear()
        rr = chain_rate(t, p, d, joint, orders)
        assert rr.metadata["orderings_tried"] == len(orders)
        assert len(solves) == nr * len(orders)


# the chain on a seeded family of sparse supports, from the whole-transcript
# oracle in tests/oracles/gen_frozen.py: (seed, N = K, Nr, demand, support as
# (w, weight, outputs) with mass weight / total weight, (ordering, stage
# costs, decodes) for each ordering of servers 1..Nr whose stages are all
# complete multipartite, the number of the other orderings). Some orderings
# here change their sum or decodability when parts are numbered in reverse
FROZEN_CHAIN_FAMILY = [
    (0, 4, 3, 'parity',
     [((0, 1, 0, 0), 9, (1,)), ((0, 1, 0, 1), 3, (0,)), ((0, 1, 1, 0), 5, (0,)),
      ((0, 1, 1, 1), 3, (1,)), ((1, 0, 0, 1), 2, (0,)), ((1, 1, 0, 0), 5, (0,)),
      ((1, 1, 1, 1), 9, (0,))],
     [([1, 2, 3], [0.9231168276654954, 0.5394169969192604, 0.5777632067996821], True),
      ([1, 3, 2], [0.9231168276654954, 0.6074629070136957, 0.0], True),
      ([2, 1, 3], [0.9444444444444444, 0.8837561418455567, 0.5777632067996821], True),
      ([2, 3, 1], [0.9444444444444444, 0.8515469775097206, 0.6360928031916231], True),
      ([3, 1, 2], [0.8524051786494785, 0.7191364931724462, 0.0], True),
      ([3, 2, 1], [0.8524051786494785, 0.0, 0.7191364931724462], True)],
     0),
    (1, 3, 2, 'pair', [((0, 1, 1), 7, (0, 1)), ((1, 1, 0), 4, (1, 0)), ((1, 1, 1), 2, (1, 0))],
     [([1, 2], [0.9957274520849255, 0.0], True), ([2, 1], [0.0, 0.9957274520849255], True)], 0),
    (2, 3, 2, 'parity',
     [((0, 1, 0), 1, (1,)), ((1, 0, 0), 3, (1,)), ((1, 0, 1), 7, (0,)), ((1, 1, 0), 7, (0,)),
      ((1, 1, 1), 9, (1,))],
     [([1, 2], [0.975119064940866, 0.9122999824045512], True),
      ([2, 1], [0.991076059838222, 0.1610561313183989], False)],
     0),
    (3, 3, 2, 'pair',
     [((0, 0, 0), 8, (0, 0)), ((0, 0, 1), 9, (0, 1)), ((0, 1, 0), 9, (1, 1)),
      ((0, 1, 1), 8, (1, 0)), ((1, 0, 0), 7, (0, 1)), ((1, 1, 0), 3, (1, 0))],
     [([1, 2], [1.7462473332037012, 0.7707974221943161], True),
      ([2, 1], [1.955971756006332, 0.5610729993916852], True)],
     0),
    (4, 3, 3, 'parity',
     [((0, 0, 0), 1, (0,)), ((0, 0, 1), 4, (1,)), ((1, 0, 0), 9, (1,)), ((1, 0, 1), 9, (0,)),
      ((1, 1, 0), 6, (0,)), ((1, 1, 1), 5, (1,))],
     [([1, 2, 3], [0.6024308020404451, 0.8167367949331676, 0.9571756706083334], True),
      ([1, 3, 2], [0.6024308020404451, 0.9583753379471227, 0.8155371275943782], True),
      ([2, 1, 3], [0.9081783472997051, 0.5109892496739078, 0.9571756706083334], True),
      ([2, 3, 1], [0.9081783472997051, 0.9897429420838235, 0.47842197819841764], True),
      ([3, 1, 2], [0.9975025463691152, 0.5633035936184525, 0.8155371275943782], True),
      ([3, 2, 1], [0.9975025463691152, 0.9004187430144133, 0.47842197819841764], True)],
     0),
    (5, 4, 4, 'pair',
     [((0, 0, 0, 0), 7, (0, 0)), ((0, 0, 0, 1), 9, (0, 0)), ((0, 0, 1, 0), 2, (1, 0)),
      ((0, 0, 1, 1), 4, (1, 0)), ((0, 1, 1, 1), 1, (0, 1)), ((1, 0, 0, 0), 4, (1, 0)),
      ((1, 0, 1, 0), 7, (0, 0)), ((1, 0, 1, 1), 5, (0, 0)), ((1, 1, 0, 0), 3, (0, 1)),
      ((1, 1, 0, 1), 7, (0, 1)), ((1, 1, 1, 1), 3, (1, 1))],
     [([1, 2, 3, 4], [0.9903748364485752, 0.667503113503003, 0.8021099708045545, 0.0], True),
      ([1, 2, 4, 3], [0.9903748364485752, 0.667503113503003, 0.0, 0.8021099708045545], True),
      ([1, 3, 2, 4], [0.9903748364485752, 0.949337722128335, 0.5202753621792224, 0.0], True),
      ([1, 3, 4, 2], [0.9903748364485752, 0.949337722128335, 0.0, 0.5202753621792224], True),
      ([1, 4, 2, 3], [0.9903748364485752, 0.0, 0.667503113503003, 0.8021099708045545], True),
      ([1, 4, 3, 2], [0.9903748364485752, 0.0, 0.949337722128335, 0.5202753621792224], True),
      ([2, 1, 3, 4], [0.840358671609117, 0.817519278342461, 0.8021099708045545, 0.0], True),
      ([2, 1, 4, 3], [0.840358671609117, 0.817519278342461, 0.0, 0.8021099708045545], True),
      ([2, 3, 1, 4], [0.840358671609117, 0.9616869528284657, 0.6579422963185497, 0.0], True),
      ([2, 3, 4, 1], [0.840358671609117, 0.9616869528284657, 0.0, 0.6579422963185497], True),
      ([2, 4, 1, 3], [0.840358671609117, 0.0, 0.817519278342461, 0.8021099708045545], True),
      ([2, 4, 3, 1], [0.840358671609117, 0.0, 0.9616869528284657, 0.6579422963185497], True),
      ([3, 1, 2, 4], [0.9828586897127056, 0.9568538688642045, 0.5202753621792224, 0.0], True),
      ([3, 1, 4, 2], [0.9828586897127056, 0.9568538688642045, 0.0, 0.5202753621792224], True),
      ([3, 2, 1, 4], [0.9828586897127056, 0.8191869347248769, 0.6579422963185497, 0.0], True),
      ([3, 2, 4, 1], [0.9828586897127056, 0.8191869347248769, 0.0, 0.6579422963185497], True),
      ([3, 4, 1, 2], [0.9828586897127056, 0.0, 0.9568538688642045, 0.5202753621792224], True),
      ([3, 4, 2, 1], [0.9828586897127056, 0.0, 0.8191869347248769, 0.6579422963185497], True),
      ([4, 1, 2, 3], [0.0, 0.9903748364485752, 0.667503113503003, 0.8021099708045545], True),
      ([4, 1, 3, 2], [0.0, 0.9903748364485752, 0.949337722128335, 0.5202753621792224], True),
      ([4, 2, 1, 3], [0.0, 0.840358671609117, 0.817519278342461, 0.8021099708045545], True),
      ([4, 2, 3, 1], [0.0, 0.840358671609117, 0.9616869528284657, 0.6579422963185497], True),
      ([4, 3, 1, 2], [0.0, 0.9828586897127056, 0.9568538688642045, 0.5202753621792224], True),
      ([4, 3, 2, 1], [0.0, 0.9828586897127056, 0.8191869347248769, 0.6579422963185497], True)],
     0),
    (6, 3, 3, 'pair', [((0, 0, 0), 6, (0, 0)), ((0, 0, 1), 6, (1, 0)), ((1, 0, 1), 1, (0, 1))],
     [([1, 2, 3], [0.3912435636292556, 0.0, 0.9230769230769231], True),
      ([1, 3, 2], [0.3912435636292556, 0.9230769230769231, 0.0], True),
      ([2, 1, 3], [0.0, 0.3912435636292556, 0.9230769230769231], True),
      ([2, 3, 1], [0.0, 0.9957274520849255, 0.31859303462125327], True),
      ([3, 1, 2], [0.9957274520849255, 0.31859303462125327, 0.0], True),
      ([3, 2, 1], [0.9957274520849255, 0.0, 0.31859303462125327], True)],
     0),
    (7, 4, 2, 'table', [((0, 0, 1, 0), 1, (0,)), ((1, 0, 0, 0), 1, (0,)), ((1, 1, 0, 1), 7, (1,))],
     [([1, 2], [0.0, 0.48316839395519673], True), ([2, 1], [0.48316839395519673, 0.0], True)], 0),
    (8, 3, 3, 'table',
     [((0, 0, 0), 9, (0,)), ((0, 1, 1), 7, (0,)), ((1, 0, 1), 8, (1,)), ((1, 1, 0), 8, (1,))],
     [([1, 2, 3], [0.0, 0.0, 0.0], False), ([1, 3, 2], [0.0, 0.0, 0.0], False),
      ([2, 1, 3], [0.0, 0.0, 0.0], False), ([2, 3, 1], [0.0, 0.0, 0.0], False),
      ([3, 1, 2], [0.0, 0.0, 0.0], False), ([3, 2, 1], [0.0, 0.0, 0.0], False)],
     0),
    (9, 4, 4, 'pair',
     [((0, 0, 0, 0), 2, (0, 0)), ((0, 0, 1, 0), 6, (0, 1)), ((0, 1, 0, 0), 9, (0, 0)),
      ((0, 1, 0, 1), 1, (0, 0)), ((1, 0, 0, 0), 7, (1, 1)), ((1, 0, 1, 0), 3, (1, 0)),
      ((1, 1, 0, 1), 8, (1, 1))],
     [([1, 2, 3, 4], [1.0, 0.0, 0.7841591278514217, 0.0], True),
      ([1, 2, 4, 3], [1.0, 0.0, 0.0, 0.7841591278514217], True),
      ([1, 3, 2, 4], [1.0, 0.7841591278514217, 0.0, 0.0], True),
      ([1, 3, 4, 2], [1.0, 0.7841591278514217, 0.0, 0.0], True),
      ([1, 4, 2, 3], [1.0, 0.0, 0.0, 0.7841591278514217], True),
      ([1, 4, 3, 2], [1.0, 0.0, 0.7841591278514217, 0.0], True),
      ([2, 1, 3, 4], [0.0, 1.0, 0.7841591278514217, 0.0], True),
      ([2, 1, 4, 3], [0.0, 1.0, 0.0, 0.7841591278514217], True),
      ([2, 3, 1, 4], [0.0, 0.8112781244591328, 0.972881003392289, 0.0], True),
      ([2, 3, 4, 1], [0.0, 0.8112781244591328, 0.0, 0.972881003392289], True),
      ([2, 4, 1, 3], [0.0, 0.0, 1.0, 0.7841591278514217], True),
      ([2, 4, 3, 1], [0.0, 0.0, 0.8112781244591328, 0.972881003392289], True),
      ([3, 1, 2, 4], [0.8112781244591328, 0.972881003392289, 0.0, 0.0], True),
      ([3, 1, 4, 2], [0.8112781244591328, 0.972881003392289, 0.0, 0.0], True),
      ([3, 2, 1, 4], [0.8112781244591328, 0.0, 0.972881003392289, 0.0], True),
      ([3, 2, 4, 1], [0.8112781244591328, 0.0, 0.0, 0.972881003392289], True),
      ([3, 4, 1, 2], [0.8112781244591328, 0.0, 0.972881003392289, 0.0], True),
      ([3, 4, 2, 1], [0.8112781244591328, 0.0, 0.0, 0.972881003392289], True),
      ([4, 1, 2, 3], [0.0, 1.0, 0.0, 0.7841591278514217], True),
      ([4, 1, 3, 2], [0.0, 1.0, 0.7841591278514217, 0.0], True),
      ([4, 2, 1, 3], [0.0, 0.0, 1.0, 0.7841591278514217], True),
      ([4, 2, 3, 1], [0.0, 0.0, 0.8112781244591328, 0.972881003392289], True),
      ([4, 3, 1, 2], [0.0, 0.8112781244591328, 0.972881003392289, 0.0], True),
      ([4, 3, 2, 1], [0.0, 0.8112781244591328, 0.0, 0.972881003392289], True)],
     0),
    (10, 3, 3, 'table', [((0, 1, 1), 3, (0,)), ((1, 1, 0), 9, (1,)), ((1, 1, 1), 6, (0,))],
     [([1, 2, 3], [0.0, 0.0, 1.0], True), ([1, 3, 2], [0.0, 1.0, 0.0], True),
      ([2, 1, 3], [0.0, 0.0, 1.0], True), ([2, 3, 1], [0.0, 1.0, 0.0], True),
      ([3, 1, 2], [1.0, 0.0, 0.0], True), ([3, 2, 1], [1.0, 0.0, 0.0], True)],
     0),
    (11, 4, 4, 'table',
     [((0, 0, 0, 1), 2, (0,)), ((0, 0, 1, 0), 7, (1,)), ((0, 0, 1, 1), 3, (0,)),
      ((0, 1, 1, 0), 9, (0,)), ((0, 1, 1, 1), 1, (0,)), ((1, 0, 0, 0), 4, (0,)),
      ((1, 0, 0, 1), 1, (1,)), ((1, 0, 1, 0), 6, (1,)), ((1, 1, 0, 0), 4, (0,)),
      ((1, 1, 1, 0), 5, (1,))],
     [([1, 2, 3, 4],
       [0.998363672593813, 0.5206824917260247, 0.47274973999419445, 0.3878035736379677], True),
      ([1, 2, 4, 3], [0.998363672593813, 0.5206824917260247, 0.41634200528888, 0.4442113083432822],
       True),
      ([1, 3, 2, 4],
       [0.998363672593813, 0.47274973999419445, 0.5206824917260247, 0.3878035736379677], True),
      ([1, 3, 4, 2],
       [0.998363672593813, 0.47274973999419445, 0.5506439433017716, 0.37664739363371325], True),
      ([1, 4, 2, 3],
       [0.998363672593813, 0.5791823749526839, 0.37664739363371325, 0.4442113083432822], True),
      ([1, 4, 3, 2],
       [0.998363672593813, 0.5791823749526839, 0.4442113083432822, 0.37664739363371325], True),
      ([2, 1, 3, 4],
       [0.9934472383802027, 0.9983486659338293, 0.4727146872569171, 0.3659063227202534], True),
      ([2, 1, 4, 3],
       [0.9934472383802027, 0.9983486659338293, 0.3950688556178685, 0.44355215435930206], True),
      ([2, 3, 1, 4],
       [0.9934472383802027, 0.8213739132430573, 0.4718162259710418, 0.3511675389628367], True),
      ([2, 3, 4, 1],
       [0.9934472383802027, 0.8213739132430573, 0.42942840748195454, 0.393555357451924], True),
      ([2, 4, 1, 3],
       [0.9934472383802027, 0.4534590877078235, 0.5443369362729479, 0.530972297713466], True),
      ([2, 4, 3, 1],
       [0.9934472383802027, 0.4534590877078235, 0.6544860901600456, 0.4208231438263682], True),
      ([3, 1, 2, 4],
       [0.8296071030882031, 0.8717190169348826, 0.47619047619047616, 0.3176722382211366], True),
      ([3, 1, 4, 2],
       [0.8296071030882031, 0.8717190169348826, 0.45161635501733466, 0.37664739363371325], True),
      ([3, 2, 1, 4],
       [0.8296071030882031, 0.7375411116158418, 0.5071157214963522, 0.373064789880551], True),
      ([3, 2, 4, 1],
       [0.8296071030882031, 0.7375411116158418, 0.48662515392497924, 0.393555357451924], True),
      ([3, 4, 1, 2],
       [0.8296071030882031, 0.6308805563434828, 0.6924548156087345, 0.37664739363371325], True),
      ([3, 4, 2, 1],
       [0.8296071030882031, 0.6308805563434828, 0.6422208884231664, 0.379021212465531], True),
      ([4, 1, 2, 3],
       [0.6500224216483541, 0.9275236258981426, 0.37664739363371325, 0.4442113083432822], True),
      ([4, 1, 3, 2],
       [0.6500224216483541, 0.9275236258981426, 0.4442113083432822, 0.37664739363371325], True),
      ([4, 2, 1, 3],
       [0.6500224216483541, 0.8328425539489627, 0.5271835583351498, 0.530972297713466], True),
      ([4, 2, 3, 1],
       [0.6500224216483541, 0.8328425539489627, 0.6461150733946842, 0.4120407826539316], True),
      ([4, 3, 1, 2],
       [0.6500224216483541, 0.6462605484442898, 0.7254743857971351, 0.37664739363371325], True),
      ([4, 3, 2, 1],
       [0.6500224216483541, 0.6462605484442898, 0.6422208884231664, 0.4120407826539316], True)],
     0),
    (12, 4, 3, 'pair',
     [((0, 0, 0, 0), 8, (0, 0)), ((0, 1, 0, 0), 4, (0, 1)), ((0, 1, 0, 1), 9, (1, 0)),
      ((0, 1, 1, 1), 1, (0, 0)), ((1, 1, 0, 0), 3, (1, 0))],
     [([1, 2, 3], [1.3615419333359275, 0.20789010291889048, 0.46305565291413553], True),
      ([1, 3, 2], [1.3615419333359275, 0.6709457558330261, 0.0], True),
      ([2, 1, 3], [0.9426831892554922, 0.4455758464800934, 0.46305565291413553], True),
      ([2, 3, 1], [0.9426831892554922, 0.6327676213046385, 0.27586387808959045], True),
      ([3, 1, 2], [1.1585488318903812, 0.8739388572785722, 0.0], True),
      ([3, 2, 1], [1.1585488318903812, 0.598074979188982, 0.27586387808959045], True)],
     0),
    (13, 4, 3, 'and',
     [((0, 0, 1, 0), 9, (0,)), ((0, 0, 1, 1), 4, (0,)), ((0, 1, 0, 0), 5, (0,)),
      ((1, 0, 1, 0), 1, (0,)), ((1, 0, 1, 1), 7, (0,)), ((1, 1, 0, 1), 3, (0,))],
     [([1, 2, 3], [0.0, 0.0, 0.0], True), ([1, 3, 2], [0.0, 0.0, 0.0], True),
      ([2, 1, 3], [0.0, 0.0, 0.0], True), ([2, 3, 1], [0.0, 0.0, 0.0], True),
      ([3, 1, 2], [0.0, 0.0, 0.0], True), ([3, 2, 1], [0.0, 0.0, 0.0], True)],
     0),
    (14, 3, 2, 'pair',
     [((0, 0, 0), 7, (0, 0)), ((0, 1, 0), 7, (0, 1)), ((0, 1, 1), 2, (0, 1)),
      ((1, 0, 0), 5, (1, 1)), ((1, 0, 1), 4, (1, 1))],
     [([1, 2], [1.5754508105601306, 0.0], True),
      ([2, 1], [0.8275916342687711, 0.6327676213046385], True)],
     0),
    (15, 3, 2, 'parity',
     [((0, 0, 0), 6, (0,)), ((0, 0, 1), 4, (1,)), ((0, 1, 1), 2, (0,)), ((1, 1, 0), 6, (0,))],
     [([1, 2], [0.433348281098903, 0.5394169969192604], True),
      ([2, 1], [0.612197222702993, 0.0], False)],
     0),
    (16, 4, 3, 'table',
     [((0, 0, 0, 0), 4, (0,)), ((0, 0, 1, 1), 5, (1,)), ((0, 1, 0, 0), 6, (0,)),
      ((0, 1, 1, 0), 5, (0,)), ((0, 1, 1, 1), 4, (1,)), ((1, 0, 1, 0), 1, (0,)),
      ((1, 1, 0, 1), 1, (1,))],
     [([1, 2, 3], [0.0, 0.0, 0.9064261435148966], True),
      ([1, 3, 2], [0.0, 0.9064261435148966, 0.0], True),
      ([2, 1, 3], [0.0, 0.0, 0.9064261435148966], True),
      ([2, 3, 1], [0.0, 0.9064261435148966, 0.0], True),
      ([3, 1, 2], [0.9064261435148966, 0.0, 0.0], True),
      ([3, 2, 1], [0.9064261435148966, 0.0, 0.0], True)],
     0),
    (17, 4, 3, 'pair',
     [((0, 1, 0, 0), 4, (0, 0)), ((0, 1, 0, 1), 7, (0, 1)), ((1, 0, 0, 0), 7, (0, 0)),
      ((1, 0, 1, 0), 5, (1, 0)), ((1, 0, 1, 1), 9, (1, 1)), ((1, 1, 0, 0), 6, (0, 0)),
      ((1, 1, 0, 1), 7, (0, 1))],
     [([1, 2, 3], [0.0, 0.8944518845341283, 0.9767611518515498], True),
      ([2, 1, 3], [0.8944518845341283, 0.0, 0.9767611518515498], True),
      ([2, 3, 1], [0.8944518845341283, 0.9767611518515498, 0.0], True)],
     3),
    (18, 3, 2, 'table',
     [((0, 0, 1), 8, (1,)), ((0, 1, 1), 4, (1,)), ((1, 0, 1), 2, (1,)), ((1, 1, 0), 9, (0,)),
      ((1, 1, 1), 4, (0,))],
     [([1, 2], [0.9990102708804811, 0.0], True),
      ([2, 1], [0.9509560484549725, 0.4955982209415396], True)],
     0),
    (19, 3, 2, 'and',
     [((0, 0, 1), 5, (0,)), ((0, 1, 0), 7, (0,)), ((1, 0, 0), 6, (0,)), ((1, 0, 1), 5, (0,)),
      ((1, 1, 0), 2, (0,)), ((1, 1, 1), 6, (1,))],
     [([1, 2], [0.7109387102357339, 0.469814803768388], True),
      ([2, 1], [0.708835673332196, 0.0], True)],
     0),
    (20, 3, 3, 'parity',
     [((0, 0, 0), 6, (0,)), ((0, 1, 0), 8, (1,)), ((0, 1, 1), 8, (0,)), ((1, 0, 1), 7, (0,)),
      ((1, 1, 0), 4, (0,))],
     [([1, 2, 3], [0.9182958340544893, 0.5635672910816245, 0.48484848484848486], True),
      ([1, 3, 2], [0.9182958340544893, 0.6304402030670936, 0.4179755728630158], True),
      ([2, 1, 3], [0.9672947789468944, 0.4375321787196136, 0.48484848484848486], True),
      ([2, 3, 1], [0.9672947789468944, 0.5884549057301023, 0.33392575783799616], True),
      ([3, 1, 2], [0.9940302114769565, 0.4168388217319746, 0.4179755728630158], True),
      ([3, 2, 1], [0.9940302114769565, 0.5008886367569942, 0.33392575783799616], True)],
     0),
    (21, 3, 3, 'table',
     [((0, 0, 1), 4, (0,)), ((0, 1, 1), 1, (1,)), ((1, 0, 1), 7, (0,)), ((1, 1, 0), 3, (0,)),
      ((1, 1, 1), 4, (0,))],
     [([1, 2, 3], [0.8314743880097293, 0.18998107760193744, 0.0], True),
      ([1, 3, 2], [0.8314743880097293, 0.0, 0.18998107760193744], True),
      ([2, 1, 3], [0.9819407868640976, 0.2288692392419353, 0.0], True),
      ([2, 3, 1], [0.9819407868640976, 0.0, 0.2288692392419353], True),
      ([3, 1, 2], [0.0, 0.8314743880097293, 0.18998107760193744], True),
      ([3, 2, 1], [0.0, 0.9819407868640976, 0.2288692392419353], True)],
     0),
    (22, 3, 2, 'parity',
     [((0, 0, 0), 6, (0,)), ((0, 1, 0), 3, (1,)), ((0, 1, 1), 9, (0,)), ((1, 0, 1), 7, (0,)),
      ((1, 1, 0), 1, (0,)), ((1, 1, 1), 1, (1,))],
     [], 2),
    (23, 4, 2, 'parity',
     [((0, 0, 0, 0), 2, (0,)), ((0, 0, 0, 1), 2, (1,)), ((0, 0, 1, 0), 8, (1,)),
      ((0, 0, 1, 1), 7, (0,)), ((0, 1, 0, 0), 1, (1,)), ((0, 1, 0, 1), 9, (0,)),
      ((0, 1, 1, 0), 7, (0,)), ((0, 1, 1, 1), 6, (1,)), ((1, 0, 0, 0), 1, (1,)),
      ((1, 0, 0, 1), 4, (0,)), ((1, 1, 0, 0), 1, (0,)), ((1, 1, 1, 0), 6, (1,))],
     [([1, 2], [0.9182958340544893, 0.9430904883383203], False),
      ([2, 1], [0.975119064940866, 0.583864749577086], True)],
     0),
    (24, 4, 4, 'and',
     [((0, 0, 0, 1), 3, (0,)), ((0, 0, 1, 0), 5, (0,)), ((0, 0, 1, 1), 1, (0,)),
      ((0, 1, 0, 1), 8, (0,)), ((1, 0, 1, 0), 8, (0,)), ((1, 1, 0, 0), 2, (0,))],
     [([1, 2, 3, 4], [0.0, 0.0, 0.0, 0.0], True), ([1, 2, 4, 3], [0.0, 0.0, 0.0, 0.0], True),
      ([1, 3, 2, 4], [0.0, 0.0, 0.0, 0.0], True), ([1, 3, 4, 2], [0.0, 0.0, 0.0, 0.0], True),
      ([1, 4, 2, 3], [0.0, 0.0, 0.0, 0.0], True), ([1, 4, 3, 2], [0.0, 0.0, 0.0, 0.0], True),
      ([2, 1, 3, 4], [0.0, 0.0, 0.0, 0.0], True), ([2, 1, 4, 3], [0.0, 0.0, 0.0, 0.0], True),
      ([2, 3, 1, 4], [0.0, 0.0, 0.0, 0.0], True), ([2, 3, 4, 1], [0.0, 0.0, 0.0, 0.0], True),
      ([2, 4, 1, 3], [0.0, 0.0, 0.0, 0.0], True), ([2, 4, 3, 1], [0.0, 0.0, 0.0, 0.0], True),
      ([3, 1, 2, 4], [0.0, 0.0, 0.0, 0.0], True), ([3, 1, 4, 2], [0.0, 0.0, 0.0, 0.0], True),
      ([3, 2, 1, 4], [0.0, 0.0, 0.0, 0.0], True), ([3, 2, 4, 1], [0.0, 0.0, 0.0, 0.0], True),
      ([3, 4, 1, 2], [0.0, 0.0, 0.0, 0.0], True), ([3, 4, 2, 1], [0.0, 0.0, 0.0, 0.0], True),
      ([4, 1, 2, 3], [0.0, 0.0, 0.0, 0.0], True), ([4, 1, 3, 2], [0.0, 0.0, 0.0, 0.0], True),
      ([4, 2, 1, 3], [0.0, 0.0, 0.0, 0.0], True), ([4, 2, 3, 1], [0.0, 0.0, 0.0, 0.0], True),
      ([4, 3, 1, 2], [0.0, 0.0, 0.0, 0.0], True), ([4, 3, 2, 1], [0.0, 0.0, 0.0, 0.0], True)],
     0),
    (25, 4, 2, 'and',
     [((0, 0, 0, 0), 2, (0,)), ((0, 1, 0, 0), 2, (0,)), ((1, 0, 1, 1), 4, (0,)),
      ((1, 1, 0, 0), 9, (0,)), ((1, 1, 0, 1), 6, (0,)), ((1, 1, 1, 0), 3, (0,)),
      ((1, 1, 1, 1), 9, (1,))],
     [([1, 2], [0.8528546530831751, 0.27815249981455986], True),
      ([2, 1], [0.7970451688154401, 0.0], False)],
     0),
    (26, 3, 2, 'table', [((0, 1, 0), 9, (0,)), ((0, 1, 1), 7, (0,)), ((1, 1, 0), 7, (0,))],
     [([1, 2], [0.0, 0.0], True), ([2, 1], [0.0, 0.0], True)], 0),
    (27, 4, 4, 'pair',
     [((0, 0, 0, 1), 7, (0, 0)), ((0, 1, 0, 0), 3, (1, 1)), ((0, 1, 0, 1), 4, (1, 1)),
      ((0, 1, 1, 0), 4, (0, 0)), ((1, 0, 0, 0), 8, (0, 1)), ((1, 1, 0, 0), 2, (1, 0)),
      ((1, 1, 1, 0), 2, (0, 1))],
     [([1, 2, 3, 4], [0.9709505944546687, 0.9457655925067334, 0.48007544502023475, 0.0], True),
      ([1, 2, 4, 3], [0.9709505944546687, 0.9457655925067334, 0.0, 0.48007544502023475], True),
      ([1, 3, 2, 4], [0.9709505944546687, 0.7185316725645137, 0.7073093649624541, 0.0], True),
      ([1, 3, 4, 2], [0.9709505944546687, 0.7185316725645137, 0.0, 0.7073093649624541], True),
      ([1, 4, 2, 3], [0.9709505944546687, 0.0, 0.9457655925067334, 0.48007544502023475], True),
      ([1, 4, 3, 2], [0.9709505944546687, 0.0, 0.7185316725645137, 0.7073093649624541], True),
      ([2, 1, 3, 4], [1.0, 0.4183203709705836, 0.48007544502023475, 0.0], False),
      ([2, 1, 4, 3], [1.0, 0.4183203709705836, 0.0, 0.48007544502023475], False),
      ([2, 3, 1, 4], [1.0, 0.48547529722733435, 0.4129205187634839, 0.0], False),
      ([2, 3, 4, 1], [1.0, 0.48547529722733435, 0.0, 0.4129205187634839], False),
      ([2, 4, 1, 3], [1.0, 0.0, 0.4183203709705836, 0.48007544502023475], False),
      ([2, 4, 3, 1], [1.0, 0.0, 0.48547529722733435, 0.4129205187634839], False),
      ([3, 1, 2, 4], [0.7219280948873623, 0.9675541721318203, 0.7073093649624541, 0.0], True),
      ([3, 1, 4, 2], [0.7219280948873623, 0.9675541721318203, 0.0, 0.7073093649624541], True),
      ([3, 2, 1, 4], [0.7219280948873623, 0.7635472023399721, 0.4129205187634839, 0.0], False),
      ([3, 2, 4, 1], [0.7219280948873623, 0.7635472023399721, 0.0, 0.4129205187634839], False),
      ([3, 4, 1, 2], [0.7219280948873623, 0.0, 0.9675541721318203, 0.7073093649624541], True),
      ([3, 4, 2, 1], [0.7219280948873623, 0.0, 0.7635472023399721, 0.4129205187634839], False),
      ([4, 1, 2, 3], [0.0, 0.9709505944546687, 0.9457655925067334, 0.48007544502023475], True),
      ([4, 1, 3, 2], [0.0, 0.9709505944546687, 0.7185316725645137, 0.7073093649624541], True),
      ([4, 2, 1, 3], [0.0, 1.0, 0.4183203709705836, 0.48007544502023475], False),
      ([4, 2, 3, 1], [0.0, 1.0, 0.48547529722733435, 0.4129205187634839], False),
      ([4, 3, 1, 2], [0.0, 0.7219280948873623, 0.9675541721318203, 0.7073093649624541], True),
      ([4, 3, 2, 1], [0.0, 0.7219280948873623, 0.7635472023399721, 0.4129205187634839], False)],
     0),
    (28, 3, 2, 'and',
     [((0, 1, 0), 3, (0,)), ((0, 1, 1), 7, (0,)), ((1, 0, 1), 3, (0,)), ((1, 1, 0), 3, (0,))],
     [([1, 2], [0.0, 0.0], True), ([2, 1], [0.0, 0.0], True)], 0),
    (29, 3, 3, 'pair', [((0, 1, 1), 2, (1, 0)), ((1, 0, 1), 8, (1, 0)), ((1, 1, 0), 4, (0, 0))],
     [([1, 2, 3], [0.0, 0.0, 0.0], False), ([1, 3, 2], [0.0, 0.0, 0.0], False),
      ([2, 1, 3], [0.0, 0.0, 0.0], False), ([2, 3, 1], [0.0, 0.0, 0.0], False),
      ([3, 1, 2], [0.0, 0.0, 0.0], False), ([3, 2, 1], [0.0, 0.0, 0.0], False)],
     0),
]


@pytest.mark.parametrize("case", FROZEN_CHAIN_FAMILY, ids=lambda case: f"seed{case[0]}")
def test_chain_matches_the_frozen_family(case):
    _, n, nr, _, points, expected, skipped = case
    assert len(expected) + skipped == math.factorial(nr)
    total = sum(weight for _, weight, _ in points)
    masses = [weight / total for _, weight, _ in points]
    outs, demands = integer_codes(out for _, _, out in points)
    ws = [w for w, _, _ in points]
    p = cyclic_placement(topo(n, n, nr))
    splits = {s: zone_split(ws, p.zone0(s)) for s in range(1, nr + 1)}
    orderings = [tuple(order) for order, _, _ in expected]
    for (order, costs, decodes), (_, error, solved) in zip(
        expected, _priced_walk(masses, outs, demands, splits, orderings)
    ):
        assert (error is None) == decodes, order
        assert [res.value for res in solved] == pytest.approx(costs, rel=0, abs=1e-12), order
