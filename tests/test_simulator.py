"""Zero-error pipeline: block encoders, exhaustive decode tables, Monte-Carlo.

The decode-table sweep is the correctness proof; the Monte-Carlo run only
measures empirical rates. Fault-injection tests corrupt each stage on purpose
to confirm the failure is caught where it is supposed to be.
"""

from itertools import combinations

import pytest

from chargraph.errors import DecodeError, ValidationError
from chargraph.functions import LinearlySeparable, MultiLinear
from chargraph.probability import JointPmf, binary_entropy, iid_bernoulli_joint
from chargraph.simulator import (
    DecodeTable,
    Encoder,
    build_decode_table,
    build_encoders,
    expected_rates,
    run_simulation,
)
from chargraph.topology import Topology, cyclic_placement


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
        t, p, d, joint = scenario_ii(0.5)
        encs = build_encoders(t, p, d, joint, 1)
        assert [e.theoretical_rate for e in encs] == pytest.approx(
            [1.0, 2.0, 1.0], abs=1e-6
        )

    def test_colors_are_canonical(self):
        t, p, d, joint = scenario_ii()
        a = build_encoders(t, p, d, joint, 1)
        b = build_encoders(t, p, d, joint, 1)
        assert [e.coloring for e in a] == [e.coloring for e in b]

    def test_off_support_block_rejected(self):
        t, p, d, joint = scenario_ii()
        enc = build_encoders(t, p, d, joint, 1)[0]
        with pytest.raises(ValidationError):
            enc.encode(((7, 7, 7),))

    def test_degenerate_source_transmits_constant(self):
        t, p, d, joint = scenario_ii()
        frozen = JointPmf((2, 2, 2), {(0, 0, 0): 1.0})
        encs = build_encoders(t, p, d, frozen, 1)
        assert all(e.num_colors == 1 and e.theoretical_rate == 0.0 for e in encs)

    def test_rejects_bad_blocklength(self):
        t, p, d, joint = scenario_ii()
        with pytest.raises(ValidationError):
            build_encoders(t, p, d, joint, 0)


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
        locals2 = sorted({(w[1], w[2]) for w, _ in joint.support()})
        mute = Encoder(
            server=2,
            n=1,
            zone=(1, 2),
            coloring={(lb,): 0 for lb in locals2},
            num_colors=1,
            theoretical_rate=0.0,
        )
        broken = [encs[0], mute, encs[2]]
        with pytest.raises(DecodeError, match="merged a confusable pair"):
            build_decode_table(broken, t, p, d, joint, (2,))

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

    def test_result_json(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        tab = build_decode_table(encs, t, p, d, joint, (2, 3))
        obj = run_simulation(encs, tab, joint, 1, 1000, seed=7).to_json()
        assert set(obj) == {"trials", "errors", "empirical", "theoretical", "seed"}
        assert obj["errors"] == 0 and obj["trials"] == 1000


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
                    assert r >= e.theoretical_rate - 1e-9

    def test_blocklength_must_match(self):
        t, p, d, joint = scenario_ii()
        encs = build_encoders(t, p, d, joint, 1)
        with pytest.raises(ValidationError):
            expected_rates(encs, joint, 2)
