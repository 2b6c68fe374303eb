"""Zero-error pipeline: block encoders, exhaustive decode tables, Monte-Carlo.

The decode-table sweep is the correctness proof; the Monte-Carlo run only
measures empirical rates. Fault-injection tests corrupt each stage on purpose
to confirm the failure is caught where it is supposed to be.
"""

import math
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chargraph import simulator
from chargraph.errors import DecodeError, DeskScaleError, ValidationError
from chargraph.functions import LinearlySeparable, MultiLinear, evaluate_demand
from chargraph.graphs import (
    PAIR_GUARD,
    build_char_graph,
    enumerate_mis,
    integer_codes,
    is_complete_multipartite,
    make_graph,
    or_power,
    validate_coloring,
)
from chargraph.probability import JointPmf, _plog2p_grid, binary_entropy, iid_bernoulli_joint
from chargraph.rates import coloring_map, min_coloring
from chargraph.simulator import (
    POWER_GUARD,
    DecodeTable,
    Encoder,
    _block_index,
    _colors,
    _outcomes,
    _power_coloring,
    _rates,
    build_decode_table,
    build_encoders,
    expected_rates,
    run_simulation,
)
from chargraph.solvers import graph_entropy
from chargraph.topology import Placement, Topology, cyclic_placement
from graph_strategies import complete_multipartite


def scenario_ii(eps=0.5):
    t = Topology(n=3, k=3, kc=2, m=2, nr=2)
    p = cyclic_placement(t)
    d = LinearlySeparable(q=2, gamma=((0, 1, 0), (0, 1, 1)))
    return t, p, d, iid_bernoulli_joint(3, eps)


def product_instance(eps=0.5):
    t = Topology(n=3, k=3, kc=1, m=2, nr=2)
    p = cyclic_placement(t)
    d = MultiLinear(k=3)
    return t, p, d, iid_bernoulli_joint(3, eps)


class TestBuildEncoders:
    def test_color_counts_single_letter(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        assert [e.num_colors for e in encs] == [2, 4, 2]

    def test_color_counts_blocklength_two(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 2)
        assert [e.num_colors for e in encs] == [4, 16, 4]

    def test_theoretical_rates(self):
        # at n = 1 each encoder sends at its graph's entropy H_G
        t, p, d, joint = scenario_ii(0.5)
        encs = build_encoders(t, p, d, joint, 1)
        h_g = [graph_entropy(build_char_graph(d, p, joint, e.server)).value for e in encs]
        assert h_g == pytest.approx([1.0, 2.0, 1.0], abs=1e-6)
        assert expected_rates(encs, joint, 1) == pytest.approx(h_g, abs=1e-6)

    def test_colors_are_canonical(self):
        t, p, d, joint = scenario_ii()
        a = build_encoders(t, p, d, joint, 1)
        b = build_encoders(t, p, d, joint, 1)
        assert [(e.labels, e.colors) for e in a] == [(e.labels, e.colors) for e in b]

    def test_colors_index_the_or_power(self):
        # colors[b] colors the OR-power vertex b, whose labels are the
        # length-1 graph's vertices; a vector of the wrong length is refused
        t, p, d, joint = scenario_ii()
        for e in build_encoders(t, p, d, joint, 2):
            g1 = build_char_graph(d, p, joint, e.server)
            assert e.labels == g1.vertices
            assert len(e.colors) == g1.n**2 == len(or_power(g1, 2).vertices)
            with pytest.raises(ValidationError, match="colors for"):
                Encoder(e.server, 2, e.zone, e.labels, e.colors[1:])

    def test_off_support_block_rejected(self):
        # encoders colored for a narrower law meet local labels they never saw
        t, p, d, joint = scenario_ii()
        narrow = JointPmf((2, 2, 2), {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
        encs = build_encoders(t, p, d, narrow, 2)
        with pytest.raises(ValidationError, match="server 1 encoder saw an off-support"):
            expected_rates(encs, joint, 2)

    def test_degenerate_source_transmits_constant(self):
        t, p, d, joint = scenario_ii()
        frozen = JointPmf((2, 2, 2), {(0, 0, 0): 1.0})
        encs = build_encoders(t, p, d, frozen, 1)
        assert all(e.num_colors == 1 for e in encs)
        assert all(
            graph_entropy(build_char_graph(d, p, frozen, i)).value == 0.0 for i in (1, 2, 3)
        )

    def test_rejects_bad_blocklength(self):
        t, p, d, joint = scenario_ii()
        with pytest.raises(ValidationError):
            build_encoders(t, p, d, joint, 0)

    def test_rejects_law_or_placement_of_another_topology(self):
        t, p, d, joint = scenario_ii()
        other = cyclic_placement(Topology(n=3, k=6, kc=2, m=4, nr=2))
        for args in ((p, d, iid_bernoulli_joint(2, 0.5)), (other, d, joint)):
            with pytest.raises(ValidationError, match="do not match the topology"):
                build_encoders(t, *args, 1)


def classes(cmap):
    """The color classes of a label -> color map, as sorted lists of labels."""
    out = {}
    for label, c in cmap.items():
        out.setdefault(c, set()).add(label)
    return sorted(map(sorted, out.values()))


class TestPartTupleColoring:
    """On a complete multipartite graph the encoder's colors are the part
    tuples of the OR power's vertices, computed without building it."""

    @settings(max_examples=40, deadline=None)
    @given(complete_multipartite(), st.integers(1, 3))
    def test_part_tuples_color_the_power_minimally(self, case, n):
        g1, parts = case
        k = len(parts)
        colors = _power_coloring(g1, n)
        assert len(set(colors)) == k**n  # one vertex per part gives a k^n clique
        if g1.n ** (2 * n) <= PAIR_GUARD:
            power = or_power(g1, n)
            validate_coloring(power, colors)
            want = min_coloring(power)
            assert classes(dict(enumerate(colors))) == classes(dict(enumerate(want)))
        # the i.i.d. part tuple has k^n values and n times the part entropy,
        # which is the graph entropy of a complete multipartite graph
        joint = JointPmf((g1.n,), {(v,): m for v, m in zip(g1.vertices, g1.pmf)})
        labels = tuple((v,) for v in g1.vertices)
        enc = Encoder(1, n, (0,), labels, colors)
        assert abs(expected_rates([enc], joint, n)[0] - graph_entropy(g1).value) <= 1e-12

    def test_large_complete_bipartite_gets_part_tuples(self):
        # K_{33,33} has 66 vertices and its square 66^4 vertex pairs, past
        # PAIR_GUARD, but its min_coloring names its parts, so its encoder
        # colors the 4,356 blocks by their part tuples and builds no power
        evens, odds = range(0, 66, 2), range(1, 66, 2)
        g1 = make_graph({v: 1.0 for v in range(66)}, product(evens, odds))
        assert g1.n ** 4 > PAIR_GUARD
        part = [label % 2 for label in g1.vertices]  # vertex 0 is label 0
        colors = _power_coloring(g1, 2)
        assert len(colors) == 4356 and len(set(colors)) == 4
        assert colors == tuple(2 * part[a] + part[b] for a, b in product(range(66), repeat=2))

    def test_complete_bipartite_128_vertex_encoders_decode(self):
        # server 1 holds bits 1-7 of 8 and the parity of those 7 is
        # demanded: its graph is K_{64,64}, 128 vertices, and its encoder
        # sends the parity and server 2 a constant
        t = Topology(n=2, k=8, kc=1, m=7, nr=2)
        p = Placement(2, 8, (tuple(range(1, 8)), (8,)))
        d = LinearlySeparable(q=2, gamma=((1,) * 7 + (0,),))
        joint = iid_bernoulli_joint(8, 0.5)
        g1 = build_char_graph(d, p, joint, 1)
        assert g1.n == 128
        encs = build_encoders(t, p, d, joint, 1)
        assert [e.num_colors for e in encs] == [2, 1]
        tab = build_decode_table(encs, t, p, d, joint, (1, 2))
        assert run_simulation(encs, tab, joint, 1, 10_000, seed=5).errors == 0
        assert expected_rates(encs, joint, 1) == [1.0, 0.0]

    def test_part_tuple_colors_are_guarded(self):
        # the pair instance's 4-vertex server graphs have 4^9 = 262,144
        # part tuples at n = 9, past the sweep guard: the encoder refuses
        # before it builds them, as the sweep over 8^9 blocks would
        t, p, d, joint = scenario_ii()
        assert 4**9 > POWER_GUARD
        with pytest.raises(DeskScaleError, match=r"4\^9 = 262144 part-tuple colors exceed"):
            build_encoders(t, p, d, joint, 9)

    def test_colors_must_name_power_vertices(self):
        # a color outside 0..|labels|^n - 1 is refused: decoding folds the
        # colors into integer codes bounded by that range
        labels = ((0,), (1,))
        with pytest.raises(ValidationError, match="colors must lie in 0..3"):
            Encoder(1, 2, (0,), labels, (0, 1, 1, 4))
        with pytest.raises(ValidationError, match="colors must lie"):
            Encoder(1, 1, (0,), labels, (-1, 0))


def star_instance():
    """AND of three bits, N = K = 3, Nr = 2, cyclic zones, uniform on the
    seven points other than (0, 1, 0). Server 3 stores (w1, w3): its graph
    is a 2-edge star plus an isolated vertex, which is not complete
    multipartite, so its encoder colors the built OR power."""
    t = Topology(n=3, k=3, kc=1, m=2, nr=2)
    points = [w for w in product((0, 1), repeat=3) if w != (0, 1, 0)]
    joint = JointPmf((2, 2, 2), {w: 1 / 7 for w in points})
    return t, cyclic_placement(t), MultiLinear(k=3), joint


class TestGeneralEncoderPath:
    """Encoders of graphs that are not complete multipartite."""

    def test_star_graph_colors_its_or_power(self):
        t, p, d, joint = star_instance()
        g3 = build_char_graph(d, p, joint, 3)
        assert g3.edges == frozenset({(1, 3), (2, 3)})
        assert not is_complete_multipartite(enumerate_mis(g3), g3.n)
        for n in (1, 2):
            encs = build_encoders(t, p, d, joint, n)
            for i, e in enumerate(encs, 1):
                validate_coloring(or_power(build_char_graph(d, p, joint, i), n), e.colors)
            assert encs[2].colors == min_coloring(or_power(g3, n))
            want = expected_rates(encs, joint, n)
            for sub in combinations((1, 2, 3), 2):
                tab = build_decode_table(encs, t, p, d, joint, sub)
                res = run_simulation(encs, tab, joint, n, 200_000, seed=11)
                assert res.errors == 0
                assert list(res.empirical_rate_bits_per_symbol) == pytest.approx(
                    want, abs=0.005
                )


class TestBuildDecodeTable:
    def test_all_pairs_decodable(self):
        t, p, d, joint = scenario_ii()
        for n in (1, 2):
            encs = build_encoders(t, p, d, joint, n)
            for sub in combinations((1, 2, 3), 2):
                tab = build_decode_table(encs, t, p, d, joint, sub)
                assert tab.subset == sub and tab.n == n

    def test_middle_server_decodes_alone(self):
        # server 2 stores both demanded coordinates, so its colors suffice
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        tab = build_decode_table(encs, t, p, d, joint, (2,))
        assert len(tab.table) == 4

    def test_uncovered_subset_rejected(self):
        # server 1 alone never learns w3, so f2 = w2 + w3 stays open
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        with pytest.raises(ValidationError, match="do not cover"):
            build_decode_table(encs, t, p, d, joint, (1,))

    def test_merged_pair_is_a_collision(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        locals2 = tuple(sorted({(w[1], w[2]) for w, _ in joint.support()}))
        mute = Encoder(
            server=2,
            n=1,
            zone=(1, 2),
            labels=locals2,
            colors=(0,) * len(locals2),
        )
        broken = [encs[0], mute, encs[2]]
        with pytest.raises(DecodeError, match="merged a confusable pair"):
            build_decode_table(broken, t, p, d, joint, (2,))

    def test_proper_colorings_can_fail_jointly(self):
        # parity of three bits, uniform on {000, 001, 011, 100, 110}: every
        # encoder is a proper minimum coloring of its own graph, yet no pair
        # of servers decodes, since the colorings fail jointly
        t = Topology(n=3, k=3, kc=1, m=2, nr=2)
        p = cyclic_placement(t)
        d = LinearlySeparable(q=2, gamma=((1, 1, 1),))
        points = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
        joint = JointPmf((2, 2, 2), {w: 1 / 5 for w in points})
        encs = build_encoders(t, p, d, joint, 1)
        for i, e in enumerate(encs, 1):
            g = build_char_graph(d, p, joint, i)
            validate_coloring(g, e.colors)
            assert e.colors == min_coloring(g)
        for sub in combinations((1, 2, 3), 2):
            with pytest.raises(DecodeError, match="fail jointly"):
                build_decode_table(encs, t, p, d, joint, sub)

    def test_block_sweep_guard(self, monkeypatch):
        # three i.i.d. bits have 8 support points, so one letter is 8 blocks
        monkeypatch.setattr(simulator, "POWER_GUARD", 7)
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        with pytest.raises(DeskScaleError, match="sweep guard"):
            build_decode_table(encs, t, p, d, joint, (1, 2))

    def test_encoders_must_share_blocklength(self):
        t, p, d, joint = scenario_ii()
        one, two = build_encoders(t, p, d, joint, 1), build_encoders(t, p, d, joint, 2)
        with pytest.raises(ValidationError, match="disagree on blocklength"):
            build_decode_table([one[0], two[1]], t, p, d, joint, (1, 2))

    def test_subset_validation(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        with pytest.raises(ValidationError):
            build_decode_table(encs, t, p, d, joint, (1, 1))
        with pytest.raises(ValidationError):
            build_decode_table(encs, t, p, d, joint, (0, 2))
        with pytest.raises(ValidationError):
            build_decode_table(encs[:1], t, p, d, joint, (1, 2))
        with pytest.raises(ValidationError, match="non-empty"):
            build_decode_table(encs, t, p, d, joint, ())


class TestRunSimulation:
    def test_zero_errors_all_pairs(self):
        t, p, d, joint = scenario_ii()
        for n in (1, 2):
            encs = build_encoders(t, p, d, joint, n)
            for sub in combinations((1, 2, 3), 2):
                tab = build_decode_table(encs, t, p, d, joint, sub)
                res = run_simulation(encs, tab, joint, n, 20000, seed=3)
                assert res.errors == 0

    def test_zero_errors_product_demand(self):
        t, p, d, joint = product_instance()
        for n in (1, 2):
            encs = build_encoders(t, p, d, joint, n)
            for sub in combinations((1, 2, 3), 2):
                tab = build_decode_table(encs, t, p, d, joint, sub)
                res = run_simulation(encs, tab, joint, n, 20000, seed=5)
                assert res.errors == 0

    def test_empirical_tracks_expected(self):
        t, p, d, joint = scenario_ii(0.5)
        for n in (1, 2):
            encs = build_encoders(t, p, d, joint, n)
            tab = build_decode_table(encs, t, p, d, joint, (1, 2))
            res = run_simulation(encs, tab, joint, n, 100_000, seed=9)
            want = expected_rates(encs, joint, n)
            assert list(res.empirical_rate_bits_per_symbol) == pytest.approx(
                want, abs=0.02
            )
            # uniform bits make the expected color entropies exact integers
            assert want == pytest.approx([1.0, 2.0, 1.0], abs=1e-12)

    def test_same_seed_reproduces(self):
        t, p, d, joint = product_instance(0.3)
        encs = build_encoders(t, p, d, joint, 1)
        tab = build_decode_table(encs, t, p, d, joint, (1, 3))
        a = run_simulation(encs, tab, joint, 1, 5000, seed=42)
        b = run_simulation(encs, tab, joint, 1, 5000, seed=42)
        assert a == b
        c = run_simulation(encs, tab, joint, 1, 5000, seed=43)
        assert c.empirical_rate_bits_per_symbol != a.empirical_rate_bits_per_symbol

    def test_corrupted_table_counts_errors(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        tab = build_decode_table(encs, t, p, d, joint, (1, 2))
        profile = next(iter(tab.table))
        wrong = {k: v for k, v in tab.table.items()}
        good = wrong[profile]
        wrong[profile] = tuple(
            tuple((x + 1) % 2 for x in seq) for seq in good
        )
        bad_tab = DecodeTable(subset=tab.subset, n=tab.n, table=wrong, truth=tab.truth)
        res = run_simulation(encs, bad_tab, joint, 1, 20000, seed=1)
        assert res.errors > 0

    def test_mismatched_joint_rejected(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        narrow = JointPmf((2, 2, 2), {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
        tab = build_decode_table(encs, t, p, d, narrow, (1, 2))
        with pytest.raises(ValidationError, match="different joint"):
            run_simulation(encs, tab, joint, 1, 100, seed=0)

    def test_argument_validation(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        tab = build_decode_table(encs, t, p, d, joint, (1, 2))
        with pytest.raises(ValidationError):
            run_simulation(encs, tab, joint, 1, 0, seed=0)
        with pytest.raises(ValidationError):
            run_simulation(encs, tab, joint, 1, 100, seed=-1)
        with pytest.raises(ValidationError):
            run_simulation(encs, tab, joint, 2, 100, seed=0)
        with pytest.raises(ValidationError, match=r"no encoder supplied for servers \[2\]"):
            run_simulation(encs[:1], tab, joint, 1, 100, seed=0)

    def test_result_counts_trials_errors_and_one_rate_per_encoder(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        tab = build_decode_table(encs, t, p, d, joint, (2, 3))
        res = run_simulation(encs, tab, joint, 1, 1000, seed=7)
        assert res.errors == 0 and res.trials == 1000
        assert len(res.empirical_rate_bits_per_symbol) == len(encs)


class TestExpectedRates:
    def test_skewed_source_entropy(self):
        t, p, d, joint = product_instance(0.5)
        encs = build_encoders(t, p, d, joint, 1)
        rates = expected_rates(encs, joint, 1)
        # each server transmits the indicator of its local product
        assert rates == pytest.approx([binary_entropy(0.25)] * 3, abs=1e-12)

    def test_rates_dominate_graph_entropy(self):
        # a proper coloring can never beat the graph-entropy benchmark
        for inst in (scenario_ii(0.3), product_instance(0.4)):
            t, p, d, joint = inst
            for n in (1, 2):
                encs = build_encoders(t, p, d, joint, n)
                for e, r in zip(encs, expected_rates(encs, joint, n)):
                    g1 = build_char_graph(d, p, joint, e.server)
                    assert r >= graph_entropy(g1).value - 1e-9

    def test_blocklength_must_match(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        with pytest.raises(ValidationError):
            expected_rates(encs, joint, 2)


def direct_coloring(g1, n):
    """The color of each OR-power vertex label by the encoder's rule, written
    per label: on a complete multipartite g1 the base-k number whose digits
    are the labels' parts, else min_coloring of the built power.  Either way
    its classes are those of the power's minimum coloring."""
    power = coloring_map(or_power(g1, n))
    mis = enumerate_mis(g1)
    if not is_complete_multipartite(mis, g1.n):
        return power
    part = {g1.vertices[v]: u for u, s in enumerate(mis.sets) for v in s}
    cmap = {
        labels: sum(part[lb] * mis.count ** (n - 1 - j) for j, lb in enumerate(labels))
        for labels in power
    }
    assert classes(cmap) == classes(power)
    return cmap


class TestGatherMatchesDirect:
    """The block-index gathers against a direct sweep that encodes, decodes
    and scores every block as a tuple of support symbols."""

    @pytest.mark.parametrize("instance", [scenario_ii, product_instance])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_direct_sweep(self, instance, n):
        t, p, d, joint = instance(0.3)
        encs = build_encoders(t, p, d, joint, n)
        support = joint.support()
        blocks = [tuple(w for w, _ in b) for b in product(support, repeat=n)]
        masses = np.array([math.prod(m for _, m in b) for b in product(support, repeat=n)])
        # each server's coloring keyed by OR-power vertex labels (n-tuples of
        # local tuples), by the encoder's rule, with the classes of the
        # minimum coloring of the built power
        maps = [direct_coloring(build_char_graph(d, p, joint, e.server), n) for e in encs]
        direct = np.array([
            [cmap[tuple(tuple(w[c] for c in e.zone) for w in ws)] for ws in blocks]
            for e, cmap in zip(encs, maps)
        ])
        assert np.array_equal(_colors(encs, [w for w, _ in support], n), direct)

        def rates(weights):
            out = []
            for row in direct:
                acc = {}
                for c, wt in zip(row.tolist(), weights):
                    acc[c] = acc.get(c, 0.0) + wt
                q = np.array([acc[c] for c in sorted(acc)])
                out.append(float(-(q * np.log2(q)).sum()) / n)
            return out

        assert expected_rates(encs, joint, n) == rates(masses)
        truth = [tuple(zip(*(evaluate_demand(d, w) for w in ws))) for ws in blocks]
        for sub in combinations((1, 2, 3), 2):
            want = {}
            for b, out in enumerate(truth):
                profile = tuple(int(direct[s - 1, b]) for s in sub)
                assert want.setdefault(profile, out) == out
            tab = build_decode_table(encs, t, p, d, joint, sub)
            assert tab.table == want and list(tab.table) == list(want)
            for seed in (0, 7):
                counts = np.random.default_rng(seed).multinomial(5000, masses / masses.sum())
                res = run_simulation(encs, tab, joint, n, 5000, seed=seed)
                assert res.errors == 0
                assert list(res.empirical_rate_bits_per_symbol) == rates(counts / 5000)

    def test_missing_label_is_off_support(self):
        t, p, d, joint = scenario_ii()
        enc = build_encoders(t, p, d, joint, 2)[1]
        dropped = enc.labels[2]
        labels = tuple(lb for lb in enc.labels if lb != dropped)
        holed = Encoder(enc.server, 2, enc.zone, labels, (0,) * len(labels) ** 2)
        with pytest.raises(ValidationError, match=re.escape(f"off-support local tuple {dropped!r}")):
            expected_rates([holed], joint, 2)


def outcomes_by_rows(profiles, demands, n):
    """_outcomes grouped by np.unique over the (servers + 1)-column rows of
    color profile and output index: the oracle for its integer codes."""
    dems, dem_ids = np.unique(np.array(demands), axis=0, return_inverse=True)
    truth = _block_index(dem_ids.reshape(-1), len(dems), n)
    stacked = np.column_stack([profiles.T, truth])
    rows, first, inverse = np.unique(stacked, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    digits = np.unravel_index(rows[order, -1], (len(dems),) * n)
    pairs = [
        (tuple(pr), tuple(zip(*(dems[i].tolist() for i in ds))))
        for pr, ds in zip(rows[order, :-1].tolist(), np.column_stack(digits).tolist())
    ]
    return pairs, np.argsort(order)[inverse.reshape(-1)]


@pytest.mark.parametrize("seed", range(16))
def test_outcomes_match_row_unique(seed):
    # 2-4 servers send at most 3 distinct color profiles, with colors from
    # 0 to 1e5 - 1, and the symbols have at most 2 distinct demands; then at
    # most 3 * 2^n < 4^n rows are distinct, so whole rows repeat
    rng = np.random.default_rng(seed)
    servers, symbols, n, kc, distinct = (
        int(v) for v in rng.integers((2, 4, 2, 1, 1), (5, 7, 4, 3, 4))
    )
    two = rng.integers(0, 3, size=(2, kc))
    demands = [tuple(two[i].tolist()) for i in rng.integers(0, 2, size=symbols)]
    colors = np.array([0, 99_999, *rng.choice(99_999, size=2)])
    base = colors[rng.integers(0, len(colors), size=(servers, distinct))]
    profiles = base[:, rng.integers(0, distinct, size=symbols**n)]
    pairs, pair_of = _outcomes(profiles, demands, n)
    want_pairs, want_of = outcomes_by_rows(profiles, demands, n)
    assert len(pairs) < symbols**n
    assert pairs == want_pairs and np.array_equal(pair_of, want_of)


def outcomes_by_row_fold(profiles, demands, n):
    """_outcomes with its code made dense by np.unique before every color
    row, one sort per row: the oracle for its mixed-radix fold, which sorts
    once."""
    dem_ids, dems = integer_codes(demands)
    truth = _block_index(np.array(dem_ids), len(dems), n)
    code = truth
    for col in profiles:
        code = np.unique(code, return_inverse=True)[1] * (int(col.max()) + 1) + col
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    reps = first[order]
    seq_of, truths = integer_codes(truth[reps].tolist())
    digits = np.unravel_index(truths, (len(dems),) * n)
    seqs = [tuple(zip(*(dems[i] for i in ds))) for ds in np.column_stack(digits).tolist()]
    pairs = [(tuple(pr), seqs[j]) for pr, j in zip(profiles[:, reps].T.tolist(), seq_of)]
    return pairs, np.argsort(order)[inverse]


def random_profiles(rng, rows, blocks, top):
    """(rows, blocks) colors, each row drawn from 0, the top of its own
    range (at most top) and a few colors between."""
    out = []
    for _ in range(rows):
        radix = int(rng.integers(1, top + 1))
        pool = np.unique([0, radix - 1, *rng.integers(0, radix, size=int(rng.integers(0, 4)))])
        out.append(pool[rng.integers(0, len(pool), size=blocks)])
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("seed", range(24))
def test_outcomes_match_row_fold(seed):
    # 1-3 servers with color ranges up to 1e5, and 1-3 distinct demand
    # tuples over the symbols
    rng = np.random.default_rng(seed)
    rows, symbols, n, kc = (int(v) for v in rng.integers((1, 2, 1, 1), (4, 7, 4, 3)))
    outs = rng.integers(0, 3, size=(int(rng.integers(1, 4)), kc))
    demands = [tuple(outs[i].tolist()) for i in rng.integers(0, len(outs), size=symbols)]
    profiles = random_profiles(rng, rows, symbols**n, 10**5)
    pairs, pair_of = _outcomes(profiles, demands, n)
    want_pairs, want_of = outcomes_by_row_fold(profiles, demands, n)
    assert pairs == want_pairs and np.array_equal(pair_of, want_of)


def test_outcomes_densify_past_the_code_range():
    # three rows of range 2^32 after 2^3 output indices: the second row
    # would take the code's range to 2^67 > CODE_RANGE, so the code is made
    # dense first; a fold that kept going would wrap modulo 2^64 and lose
    # the outputs and the first row
    rng = np.random.default_rng(5)
    symbols, n = 4, 3
    demands = [(s % 2,) for s in range(symbols)]
    pool = np.array([0, 1, 2**32 - 1])
    profiles = pool[rng.integers(0, len(pool), size=(3, symbols**n))]
    assert 2**n * 2**32 * 2**32 > simulator.CODE_RANGE
    pairs, pair_of = _outcomes(profiles, demands, n)
    want_pairs, want_of = outcomes_by_row_fold(profiles, demands, n)
    assert pairs == want_pairs and np.array_equal(pair_of, want_of)


def rates_by_unique(colors, weights, n):
    """_rates with each row's colors coded by np.unique: the oracle for its
    bincount over the colors themselves."""
    out = []
    for row in colors:
        _, color_ids = np.unique(row, return_inverse=True)
        q = np.bincount(color_ids, weights=weights)
        out.append(float(_plog2p_grid(q[q > 0]).sum()) / n)
    return out


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("trials", [None, 1000])
def test_rates_match_unique_oracle(seed, trials):
    # 4,096 blocks weighted by their masses, a fifth of them 0, or by
    # counts / trials as in run_simulation, where most blocks weigh 0;
    # color ids up to 99,999 leave most ids undrawn, color 99,999 sits on a
    # zero-weight block only, and the last row is a single color
    rng = np.random.default_rng(seed)
    blocks, n = 4096, int(rng.integers(1, 5))
    masses = rng.random(blocks)
    masses[rng.random(blocks) < 0.2] = 0.0
    masses /= masses.sum()
    weights = masses if trials is None else rng.multinomial(trials, masses) / trials
    rows = [rng.choice(99_999, size=k)[rng.integers(0, k, size=blocks)] for k in (2, 30, 3000)]
    for row in rows:
        row[np.flatnonzero(weights == 0.0)[:1]] = 99_999
    colors = np.array([*rows, np.full(blocks, 7)], dtype=np.int64)
    assert _rates(colors, weights, n) == rates_by_unique(colors, weights, n)


@pytest.mark.parametrize("instance,parts", [(scenario_ii, [2, 4, 2]), (product_instance, [2, 2, 2])])
@pytest.mark.parametrize("eps", [0.5, 0.3])
def test_blocklength_five(instance, parts, eps):
    # 8^5 = 32,768 blocks; the OR power of a server's 4-vertex graph would
    # have 4^10 vertex pairs, past its 1e6 guard, so only the part tuples
    # color it
    t, p, d, joint = instance(eps)
    encs = build_encoders(t, p, d, joint, 5)
    assert [e.num_colors for e in encs] == [k**5 for k in parts]
    h_g = [graph_entropy(build_char_graph(d, p, joint, e.server)).value for e in encs]
    assert expected_rates(encs, joint, 5) == pytest.approx(h_g, abs=1e-12)
    for sub in combinations((1, 2, 3), 2):
        tab = build_decode_table(encs, t, p, d, joint, sub)
        res = run_simulation(encs, tab, joint, 5, 100_000, seed=13)
        assert res.errors == 0


def test_and_four_servers_blocklength_four():
    # 16^4 = 65,536 blocks per sweep, one past the longest block-sim length
    t = Topology(n=4, k=4, kc=1, m=2, nr=3)
    p = cyclic_placement(t)
    d = MultiLinear(k=4)
    joint = iid_bernoulli_joint(4, 0.3)
    encs = build_encoders(t, p, d, joint, 4)
    want = expected_rates(encs, joint, 4)
    for sub in combinations((1, 2, 3, 4), 3):
        tab = build_decode_table(encs, t, p, d, joint, sub)
        res = run_simulation(encs, tab, joint, 4, 100_000, seed=11)
        assert res.errors == 0
        assert list(res.empirical_rate_bits_per_symbol) == pytest.approx(want, abs=0.01)
