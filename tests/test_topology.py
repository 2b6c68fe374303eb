"""Topology layer: parameters, cyclic placement, coverage."""

import random
from itertools import combinations

import pytest

from chargraph import (
    Placement,
    Topology,
    ValidationError,
    coverage_check,
    cyclic_placement,
    derived_params,
    placement_from_json,
    placement_to_json,
)


class TestTopology:
    def test_delta(self):
        assert Topology(n=4, k=8, kc=1, m=4, nr=3).delta == 2

    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            Topology(n=3, k=4, kc=1, m=2, nr=2)

    def test_divisibility_checked_before_m(self):
        # K < N: the cyclic M is 0, and the error names N | K, not M
        with pytest.raises(ValidationError, match="N=4 must divide K=2"):
            Topology(n=4, k=2, kc=1, m=0, nr=2)

    def test_nr_bounds(self):
        with pytest.raises(ValidationError):
            Topology(n=3, k=3, kc=1, m=2, nr=4)

    def test_derived_params_worked_example(self):
        dp = derived_params(Topology(n=5, k=5, kc=1, m=2, nr=4))
        assert (dp.n_star, dp.delta_n, dp.xi_n) == (2, 1, 1)

    def test_derived_params_no_tail(self):
        dp = derived_params(Topology(n=4, k=4, kc=1, m=2, nr=3))
        assert (dp.n_star, dp.delta_n) == (2, 0)

    def test_derived_params_rejects_inconsistent_m(self):
        with pytest.raises(ValidationError):
            derived_params(Topology(n=5, k=5, kc=1, m=3, nr=4))


class TestCyclicPlacement:
    def test_three_server_windows(self):
        t = Topology(n=3, k=3, kc=2, m=2, nr=2)
        p = cyclic_placement(t)
        assert p.zones == ((1, 2), (2, 3), (1, 3))

    def test_replicated_windows(self):
        t = Topology(n=4, k=8, kc=1, m=4, nr=3)
        p = cyclic_placement(t)
        assert all(len(z) == 4 for z in p.zones)
        # with two replicas each server stores its window in both halves
        assert p.zones[0] == (1, 2, 5, 6)

    def test_each_dataset_replicated_m_n_over_k_times(self):
        t = Topology(n=5, k=5, kc=1, m=2, nr=4)
        p = cyclic_placement(t)
        for dataset in range(1, 6):
            holders = sum(dataset in z for z in p.zones)
            assert holders == t.m * t.n // t.k

    def test_rejects_inconsistent_m(self):
        # N=5, Nr=4 gives windows of 2 datasets, so M=3 has no cyclic placement
        with pytest.raises(ValidationError):
            cyclic_placement(Topology(n=5, k=5, kc=1, m=3, nr=4))

    def test_zone0_is_zero_based(self):
        t = Topology(n=3, k=3, kc=2, m=2, nr=2)
        p = cyclic_placement(t)
        assert p.zone0(1) == (0, 1)
        assert p.zone0(3) == (0, 2)

    @pytest.mark.parametrize("server", [0, 4])
    def test_zone0_rejects_unknown_server(self, server):
        p = cyclic_placement(Topology(n=3, k=3, kc=2, m=2, nr=2))
        with pytest.raises(ValidationError, match=rf"server {server} outside 1\.\.3"):
            p.zone0(server)

    @pytest.mark.parametrize(
        "zones, message",
        [
            (((1,),), "expected 2 zones, got 1"),
            (((1,), ()), "server 2 stores nothing"),
            (((2, 1), (2,)), "zone 1 must be sorted and duplicate-free"),
            (((1,), (2, 2)), "zone 2 must be sorted and duplicate-free"),
        ],
    )
    def test_placement_rejects_bad_zones(self, zones, message):
        with pytest.raises(ValidationError, match=message):
            Placement(n=2, k=2, zones=zones)


class TestCoverage:
    def test_cyclic_placement_covers(self):
        t = Topology(n=5, k=5, kc=1, m=2, nr=4)
        assert coverage_check(cyclic_placement(t), t) is True

    def test_missing_dataset_fails(self):
        t = Topology(n=2, k=2, kc=1, m=1, nr=2)
        p = Placement(n=2, k=2, zones=((1,), (1,)))  # dataset 2 never stored
        assert coverage_check(p, t) is False

    def test_single_server_subsets(self):
        t = Topology(n=2, k=2, kc=1, m=2, nr=1)
        full = Placement(n=2, k=2, zones=((1, 2), (1, 2)))
        assert coverage_check(full, t) is True
        partial = Placement(n=2, k=2, zones=((1, 2), (1,)))
        assert coverage_check(partial, t) is False

    def test_matches_brute_force_over_subsets(self):
        # the holder-count rule against the definition: the union of every
        # Nr-subset's zones, on random placements of up to 7 servers
        rng = random.Random(5)
        outcomes = set()
        for _ in range(500):
            n = rng.randint(1, 7)
            k = n * rng.randint(1, 2)
            nr = rng.randint(1, n)
            density = rng.uniform(0.3, 0.9)
            zones = []
            for _ in range(n):
                zone = [d for d in range(1, k + 1) if rng.random() < density]
                zones.append(tuple(zone or [rng.randint(1, k)]))
            p = Placement(n=n, k=k, zones=tuple(zones))
            want = all(
                set().union(*(zones[s] for s in subset)) == set(range(1, k + 1))
                for subset in combinations(range(n), nr)
            )
            assert coverage_check(p, Topology(n=n, k=k, kc=1, m=1, nr=nr)) is want
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_mismatched_shapes_rejected(self):
        t = Topology(n=3, k=3, kc=1, m=2, nr=2)
        p = Placement(n=2, k=3, zones=((1, 2), (2, 3)))
        with pytest.raises(ValidationError):
            coverage_check(p, t)


class TestPlacementJson:
    def test_roundtrip(self):
        t = Topology(n=3, k=3, kc=2, m=2, nr=2)
        p = cyclic_placement(t)
        assert placement_from_json(placement_to_json(p)) == p

    def test_json_shape(self):
        t = Topology(n=3, k=3, kc=2, m=2, nr=2)
        obj = placement_to_json(cyclic_placement(t))
        assert obj == {"N": 3, "K": 3, "Z": [[1, 2], [2, 3], [1, 3]]}

    def test_rejects_out_of_range_dataset(self):
        with pytest.raises(ValidationError):
            placement_from_json({"N": 2, "K": 2, "Z": [[1, 3], [2]]})

    def test_rejects_malformed_zones(self):
        for zones in (5, [["x"], [2]]):
            with pytest.raises(ValidationError):
                placement_from_json({"N": 2, "K": 2, "Z": zones})

    @pytest.mark.parametrize(
        "obj",
        [
            # int() would truncate each of these to the cyclic N=K=3 placement
            {"N": 3.9, "K": 3, "Z": [[1, 2], [2, 3], [1, 3]]},
            {"N": 3, "K": 3.0, "Z": [[1, 2], [2, 3], [1, 3]]},
            {"N": 3, "K": 3, "Z": [[1, 2], [2, 3], [3, 1.5]]},
            {"N": 3, "K": 3, "Z": [[1, 2], [2, 3], [True, 3]]},
            # and int(str()) and iteration would read these strings the same way
            {"N": "3", "K": 3, "Z": [[1, 2], [2, 3], [1, 3]]},
            {"N": 3, "K": 3, "Z": [[1, 2], [2, 3], ["1", "3"]]},
            {"N": 3, "K": 3, "Z": ["12", "23", "13"]},
            {"N": 3, "K": 3, "Z": "123"},
        ],
    )
    def test_rejects_non_integer_numbers(self, obj):
        with pytest.raises(ValidationError, match="N, K, Z"):
            placement_from_json(obj)
