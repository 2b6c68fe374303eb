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

import pytest
from hypothesis import given, settings, strategies as st

from chargraph import rates, solvers

from chargraph.errors import DecodeError, MisStructureError, ValidationError
from chargraph.functions import LinearlySeparable, MultiLinear, demand_from_json, evaluate_demand
from chargraph.graphs import (
    EXACT_COLOR_GUARD,
    build_char_graph,
    enumerate_mis,
    greedy_coloring,
    integer_codes,
    make_graph,
    validate_coloring,
    zone_split,
)
from chargraph.probability import (
    JointPmf,
    binary_entropy,
    iid_bernoulli_joint,
    parity_param,
    product_param,
)
from chargraph.rates import (
    Codebook,
    RateReport,
    chain_rate,
    coloring_map,
    gains,
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
        with pytest.raises(ValidationError):
            RateReport(per_server_rates=(-0.5,), sum_rate=-0.5, method="x")
        with pytest.raises(ValidationError):
            RateReport(per_server_rates=(1.0, 1.0), sum_rate=1.0, method="x")

    def test_gains_ratios(self):
        g = rate_report([1.0], "chain")
        lin = rate_report([3.0], "prop2")
        sw = rate_report([4.5], "slepian_wolf")
        rep = gains(g, lin, sw)
        assert rep.eta_lin == pytest.approx(3.0)
        assert rep.eta_sw == pytest.approx(4.5)

    def test_gains_zero_graph_rate(self):
        g = rate_report([0.0], "chain")
        rep = gains(g, rate_report([1.0], "prop2"), rate_report([1.0], "slepian_wolf"))
        assert math.isinf(rep.eta_lin) and math.isinf(rep.eta_sw)

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

    def test_ordering_validation(self):
        t, p, d, joint = scenario_ii()
        with pytest.raises(ValidationError):
            chain_rate(t, p, d, joint, (1, 1))
        with pytest.raises(ValidationError):
            chain_rate(t, p, d, joint, (0, 2))
        with pytest.raises(ValidationError):
            chain_rate(t, p, d, joint, [])


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


class TestScenarioClosedForms:
    def test_sum_demand_full_correlation_gain(self):
        t = topo(30, 30, 20, kc=1)  # M = 11
        rep = scenario1_rates(t, 0.37, 1.0)
        assert rep.eta_lin == pytest.approx(10.0, abs=1e-9)

    def test_sum_demand_independent_matches_parity(self):
        t = topo(30, 30, 20, kc=1)
        rep = scenario1_rates(t, 0.3, 0.0)
        want = binary_entropy(parity_param(11, 0.3))
        assert rep.lin.per_server_rates[0] == pytest.approx(want, abs=1e-12)

    def test_pair_demand_independent_point_has_no_gain(self):
        rep = scenario2_table2_rates(0.5, 0.5)
        assert rep.eta_lin == pytest.approx(1.0, abs=1e-12)

    def test_pair_demand_tiny_eps_gain(self):
        eps = 1e-6
        rep = scenario2_table2_rates(eps, 1.0 - eps)
        assert rep.eta_lin == pytest.approx(ETA_LIN_TINY_EPS, abs=1e-9)

    def test_mixture_pair_full_correlation_gain(self):
        rep = scenario2_diniz_rates(0.3, 1.0)
        assert rep.eta_lin == pytest.approx(2.0, abs=1e-9)

    def test_parity_batch_values(self):
        t = topo(5, 5, 4, kc=2)  # K = N, M = 2, N* = 2
        rep = scenario3_rates(t, 0.3)
        assert rep.lin.sum_rate == pytest.approx(
            4 * binary_entropy(parity_param(2, 0.3)), abs=1e-12
        )
        assert rep.graph.sum_rate == pytest.approx(
            2 * 2 * binary_entropy(0.3), abs=1e-12
        )
        assert rep.sw.sum_rate == pytest.approx(5 * binary_entropy(0.3), abs=1e-12)

    def test_parity_batch_validation(self):
        with pytest.raises(ValidationError):
            scenario3_rates(topo(2, 4, 2, kc=1), 0.3)  # K != N
        with pytest.raises(ValidationError):
            scenario3_rates(topo(5, 5, 4, kc=5), 0.3)  # Kc > Nr

    def test_multilinear_graph_is_closed_form(self):
        t = topo(5, 5, 4, kc=1)
        rep = multilinear_rates(t, 0.5)
        assert rep.graph.sum_rate == pytest.approx(PROP3_5_5_4_HALF, abs=1e-12)
        assert rep.lin.sum_rate == pytest.approx(
            4 * binary_entropy(product_param(2, 0.5)), abs=1e-12
        )


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


# chain_rate over every ordering of the first Nr servers, recorded from the
# implementation that built each stage graph from tuple-keyed points:
# (demand, N = K, Nr, eps) -> (R_graph, winning ordering)
FROZEN_CHAIN = {
    ("parity", 5, 4, 0.1): (1.8291496850458409, [1, 2, 4, 3]),
    ("parity", 5, 4, 0.3): (2.8441986892979996, [1, 2, 4, 3]),
    ("and", 6, 5, 0.1): (0.08160914656845973, [1, 3, 2, 5, 4]),
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
                s1 = scenario1_rates(t, eps, rho).graph.sum_rate
                if rho == 0.0:
                    assert s1 == pytest.approx(chain.sum_rate, abs=1e-12)
                else:
                    assert s1 >= chain.sum_rate


# transcripts a stage may meet; (10,) and (2,) sort one way as tuples and
# the other way by repr, which orders the vertices
TRANSCRIPT_POOL = [(), (0,), (1,), (2,), (10,), (0, 12), (1, 3), (10, 2), (2, 10)]


def _stage_by_definition(points, transcripts):
    """The stage graph from its definition: vertices (local tuple,
    transcript) in repr order with their total masses, and two vertices
    adjacent when some pair of their points shares (rest, transcript) but
    not the outputs. points holds (local, rest, mass, outputs)."""
    masses = {}
    for (x, _, m, _), y in zip(points, transcripts):
        masses[(x, y)] = masses.get((x, y), 0.0) + m
    vertices = sorted(masses, key=repr)
    total = math.fsum(masses.values())
    idx = {v: i for i, v in enumerate(vertices)}
    nbrs = [set() for _ in vertices]
    for (xa, ra, _, oa), ya in zip(points, transcripts):
        for (xb, rb, _, ob), yb in zip(points, transcripts):
            if (ra, ya) == (rb, yb) and oa != ob:
                nbrs[idx[(xa, ya)]].add(idx[(xb, yb)])
    return tuple(vertices), tuple(map(frozenset, nbrs)), tuple(masses[v] / total for v in vertices)


def _check_stage_graph(ws, zone, rng):
    """Random masses, outputs and transcripts on the support ws: the coded
    stage builder against the definition."""
    masses = [rng.uniform(0.05, 1.0) for _ in ws]
    masses = [m / math.fsum(masses) for m in masses]
    outputs = [(rng.randrange(2), rng.randrange(2)) for _ in ws]
    transcripts = [rng.choice(TRANSCRIPT_POOL) for _ in ws]
    rest_coords = [c for c in range(len(ws[0])) if c not in zone]
    points = [
        (tuple(w[c] for c in zone), tuple(w[c] for c in rest_coords), m, o)
        for w, m, o in zip(ws, masses, outputs)
    ]
    codes, by_code = integer_codes(transcripts)
    outs, _ = integer_codes(outputs)
    split, live = zone_split(ws, zone), list(range(len(ws)))  # every point live
    g, ids = rates._stage_graph(split, live, codes, masses, outs, by_code, 0.0)
    vertices, neighbors, pmf = _stage_by_definition(points, transcripts)
    assert g.vertices == vertices
    assert g.neighbors == neighbors
    assert g.pmf == pmf
    assert [g.vertices[i] for i in ids] == [(x, y) for (x, _, _, _), y in zip(points, transcripts)]
    # settled mass adds one lone vertex ((), ()), which sorts first by repr,
    # and keeps every other vertex, its order and its edges
    h, h_ids = rates._stage_graph(split, live, codes, masses, outs, by_code, 0.5)
    assert h.vertices == (((), ()),) + vertices and h.pmf[0] == pytest.approx(1 / 3)
    assert h.neighbors == (frozenset(),) + tuple(frozenset(j + 1 for j in s) for s in neighbors)
    assert h_ids == [i + 1 for i in ids] + [0]
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
    # among the vertices of one local tuple, the two-digit transcript sorts
    # before (2,) by repr, not after it as a tuple
    ys = [y for x, y in g.vertices if x == g.vertices[0][0]]
    assert ys.index((10,)) < ys.index((2,))


# each point's demanded outputs; "random" draws an output code per point
MERGE_DEMANDS = {
    "parity": lambda w, rng: sum(w) % 2,
    "and": lambda w, rng: int(all(w)),
    "pair": lambda w, rng: (w[1], w[1] ^ w[2]),
    "random": lambda w, rng: rng.randrange(3),
}


def _stage_value(g, ids, side, n_codes):
    """A stage's conditional graph entropy given the transcript code of
    each entry of ids, as the chain prices it."""
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
        g, ids = rates._stage_graph(split, range(n), codes, masses, outs, transcripts, 0.0)
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
    """Run rates._chain_eval on the support ws with random masses against
    the reference chain that settles nothing: every stage value agrees
    within 1e-15, and the ordering decodes in both or fails in both with
    the same message. Returns the number of stages that meet a settled
    section."""
    masses = [rng.uniform(0.05, 1.0) for _ in ws]
    masses = [m / math.fsum(masses) for m in masses]
    outs, _ = integer_codes(MERGE_DEMANDS[demand](w, rng) for w in ws)
    order = tuple(order)
    expected, meets_settled, message = _reference_chain(ws, zones, order, masses, outs)
    items = [(w, m, (o,)) for w, m, o in zip(ws, masses, outs)]
    splits = {s: zone_split(ws, zones[s]) for s in order}
    values = []

    def recorded_solve(g, joint):
        res = conditional_graph_entropy(g, joint)
        values.append(res.value)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rates, "conditional_graph_entropy", recorded_solve)
        try:
            rates._chain_eval(items, masses, outs, splits, order)
        except DecodeError as exc:
            assert str(exc) == message
        else:
            assert message is None
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
    stages, settled_stages, sets = [], [], []

    def counted_solve(g, joint):
        stages.append(g.n)
        # every section settled: the stage graph is the settled vertex alone
        settled_stages.append(g.vertices == (((), ()),))
        return conditional_graph_entropy(g, joint)

    def counted_mis(g, vs=None):
        fam = enumerate_mis(g, vs)
        sets.append(fam.count)
        return fam

    monkeypatch.setattr(rates, "conditional_graph_entropy", counted_solve)
    monkeypatch.setattr(solvers, "enumerate_mis", counted_mis)
    orders = list(itertools.permutations(range(1, 5)))
    for eps in (0.1, 0.2, 0.3, 0.4):
        chain_rate(t, p, d, iid_bernoulli_joint(5, eps), orders)
    assert len(stages) == 4 * 24 * 4
    assert sum(sets) > 0
    assert any(settled_stages)
