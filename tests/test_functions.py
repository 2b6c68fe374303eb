"""Demand classes: evaluation and JSON schema."""

import pytest

from chargraph.errors import ValidationError
from chargraph.functions import (
    GeneralTable,
    LinearlySeparable,
    MultiLinear,
    decoding_map,
    demand_from_json,
    demand_to_json,
    evaluate_demand,
    is_prime,
)


class TestFieldHelpers:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13}
        for q in range(-1, 15):
            assert is_prime(q) == (q in primes)


class TestLinearlySeparable:
    def test_parity_evaluation(self):
        d = LinearlySeparable(q=2, gamma=((1, 1, 1),))
        assert d.k == 3 and d.kc == 1
        assert evaluate_demand(d, (1, 0, 1)) == (0,)
        assert evaluate_demand(d, (1, 1, 1)) == (1,)

    def test_two_demands_mod3(self):
        d = LinearlySeparable(q=3, gamma=((1, 2), (2, 1)))
        assert evaluate_demand(d, (2, 2)) == ((2 + 4) % 3, (4 + 2) % 3)

    def test_additivity_over_field(self):
        # linear maps respect coordinatewise mod-q addition
        d = LinearlySeparable(q=5, gamma=((1, 3, 2), (4, 0, 1)))
        a, b = (1, 2, 3), (4, 4, 0)
        s = tuple((x + y) % 5 for x, y in zip(a, b))
        fa, fb, fs = (evaluate_demand(d, w) for w in (a, b, s))
        assert fs == tuple((x + y) % 5 for x, y in zip(fa, fb))

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValidationError):
            LinearlySeparable(q=2, gamma=())
        with pytest.raises(ValidationError):
            LinearlySeparable(q=2, gamma=((1, 0), (1,)))
        with pytest.raises(ValidationError):
            LinearlySeparable(q=2, gamma=((0, 2),))


class TestMultiLinear:
    def test_is_product_of_coordinates(self):
        d = MultiLinear(k=3)
        assert d.kc == 1
        assert evaluate_demand(d, (1, 1, 1)) == (1,)
        assert evaluate_demand(d, (1, 0, 1)) == (0,)

    def test_product_mod_q(self):
        d = MultiLinear(k=2, q=5)
        assert evaluate_demand(d, (3, 4)) == (12 % 5,)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            MultiLinear(k=0)


class TestGeneralTable:
    def test_msb_first_indexing(self):
        # XOR truth table in w1-major order: 00,01,10,11
        d = GeneralTable(q=2, k=2, tables=((0, 1, 1, 0),))
        assert evaluate_demand(d, (0, 1)) == (1,)
        assert evaluate_demand(d, (1, 1)) == (0,)

    def test_multiple_tables(self):
        d = GeneralTable(q=2, k=2, tables=((0, 0, 0, 1), (0, 1, 1, 1)))
        assert d.kc == 2
        assert evaluate_demand(d, (1, 0)) == (0, 1)

    def test_rejects_wrong_size_or_values(self):
        with pytest.raises(ValidationError):
            GeneralTable(q=2, k=2, tables=((0, 1, 0),))
        with pytest.raises(ValidationError):
            GeneralTable(q=2, k=1, tables=((0, 2),))


class TestEvaluateDemand:
    def test_rejects_wrong_arity(self):
        d = MultiLinear(k=3)
        with pytest.raises(ValidationError):
            evaluate_demand(d, (1, 0))

    def test_rejects_out_of_field(self):
        d = LinearlySeparable(q=2, gamma=((1, 1),))
        with pytest.raises(ValidationError):
            evaluate_demand(d, (0, 2))


class TestDecodingMap:
    def test_returns_table_and_accepts_repeated_equal_pairs(self):
        pairs = [("a", (0,)), ("b", (1,)), ("a", (0,)), ("b", (1,))]
        assert decoding_map(pairs, ValueError) == {"a": (0,), "b": (1,)}

    def test_raises_clash_at_first_conflicting_key(self):
        seen = []

        def clash(key, a, b):
            seen.append((key, a, b))
            return ValueError(key)

        pairs = [("a", 0), ("b", 1), ("b", 2), ("a", 3)]
        with pytest.raises(ValueError, match="b"):
            decoding_map(pairs, clash)
        assert seen == [("b", 1, 2)]


class TestDemandJson:
    def test_linsep_roundtrip(self):
        d = LinearlySeparable(q=3, gamma=((1, 2, 0), (0, 1, 1)))
        assert demand_from_json(demand_to_json(d)) == d

    def test_multilinear_roundtrip_needs_k(self):
        d = MultiLinear(k=5)
        obj = demand_to_json(d)
        assert demand_from_json(obj, k=5) == d
        with pytest.raises(ValidationError):
            demand_from_json(obj)

    def test_table_roundtrip(self):
        d = GeneralTable(q=2, k=2, tables=((0, 1, 1, 0),))
        assert demand_from_json(demand_to_json(d), k=2) == d
        # arity recoverable from the table size alone
        assert demand_from_json(demand_to_json(d)) == d

    def test_arity_crosscheck(self):
        d = LinearlySeparable(q=2, gamma=((1, 1),))
        with pytest.raises(ValidationError):
            demand_from_json(demand_to_json(d), k=3)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            demand_from_json({"kind": "polynomial"})

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "linsep"},
            {"kind": "linsep", "q": 2, "gamma": "x"},
            {"kind": "linsep", "q": "two", "gamma": [[1, 1]]},
            {"kind": "table", "q": 2, "tables": 5},
            {"kind": "table", "q": 1, "tables": [[0]]},
            [{"kind": "linsep", "q": 2, "gamma": [[1, 1]]}],
            # int() would truncate these to q=2, gamma=((1, 1, 1),) and so on
            {"kind": "linsep", "q": 2.9, "gamma": [[1, 1, 1]]},
            {"kind": "linsep", "q": 2, "gamma": [[1, 1, 1.7]]},
            {"kind": "linsep", "q": 2, "gamma": [[1, True, 0]]},
            {"kind": "linsep", "q": 2.0, "gamma": [[1, 1, 0]]},
            {"kind": "table", "q": 2, "tables": [[0, 1, 1, 0.0]]},
        ],
    )
    def test_malformed_object_rejected(self, obj):
        with pytest.raises(ValidationError):
            demand_from_json(obj)

    @pytest.mark.parametrize("q", [2.5, True, 3.0])
    def test_multilinear_field_must_be_integer(self, q):
        with pytest.raises(ValidationError):
            demand_from_json({"kind": "multilinear", "q": q}, k=3)
