"""Probability layer: joint PMFs, entropy helpers, skew/correlation models."""

import math
import re

import pytest

from chargraph import (
    DeskScaleError,
    JointPmf,
    ModelIntegrityError,
    ValidationError,
    binary_entropy,
    crossover_joint,
    diniz_entropy,
    diniz_joint,
    diniz_pair_joint,
    diniz_parity,
    iid_bernoulli_joint,
    parity_param,
    product_joint,
    product_param,
    uniform_joint,
)
from chargraph import probability
from chargraph.probability import _joint_from_masses, diniz_sum_entropy

# frozen by tests/oracles/gen_frozen.py (brute 2^K enumeration of the
# mixture law, independent of the package's closed forms)
MIXTURE_ENTROPY = {
    (3, 0.3, 0.4): 2.360513808822913,
    (5, 0.2, 0.7): 2.068031661949320,
    (4, 0.5, 0.0): 4.000000000000000,
    (6, 0.1, 1.0): 0.468995593589281,
}
MIXTURE_PARITY = {
    (1, 0.3, 0.5): 0.300000000000000,
    (2, 0.3, 0.5): 0.210000000000000,
    (3, 0.2, 0.25): 0.344000000000000,
    (4, 0.4, 0.9): 0.049920000000000,
    (5, 0.2, 0.0): 0.461120000000000,
}


def from_masses(masses):
    """A one-coordinate law through the model check that builds every
    formula law."""
    return _joint_from_masses((len(masses),), {(x,): m for x, m in enumerate(masses)})


class TestPmf:
    """One-coordinate laws are arity-1 JointPmfs; the model check builds
    every formula law (mixture, pair and crossover models)."""

    def test_entropy_uniform(self):
        assert from_masses([0.25] * 4).entropy() == pytest.approx(2.0)

    def test_entropy_point_mass(self):
        j = from_masses([1.0, 0.0])
        assert j.entropy() == 0.0
        assert j.mass == {(0,): 1.0} and j.prob((1,)) == 0.0

    def test_from_masses_renormalizes_within_tolerance(self):
        j = from_masses([0.5, 0.5 + 1e-12])
        assert math.fsum(j.mass.values()) == pytest.approx(1.0, abs=1e-15)

    def test_from_masses_rejects_drift(self):
        for masses in [[0.5, 0.6], [float("nan"), 1.0]]:  # NaN fails every comparison
            with pytest.raises(ModelIntegrityError, match="model masses sum to"):
                from_masses(masses)

    def test_constructor_rejects_negative_mass(self):
        for mass in [(-0.1, 1.1), (float("nan"), 1.0)]:
            with pytest.raises(ValidationError):
                JointPmf((2,), {(x,): m for x, m in enumerate(mass)})
            with pytest.raises(ValidationError):
                product_joint([mass])

    def test_product_alphabet_guard(self, monkeypatch):
        monkeypatch.setattr(probability, "PRODUCT_GUARD", 3)
        assert len(product_joint([(0.5, 0.5)]).support()) == 2
        with pytest.raises(DeskScaleError, match="product alphabet"):
            product_joint([(0.5, 0.5)] * 2)  # 4 points

    def test_from_masses_rejects_negative_as_model_integrity(self):
        with pytest.raises(ModelIntegrityError, match="negative mass"):
            from_masses([-0.1, 1.1])

    def test_support_drops_dust(self):
        j = from_masses([1.0 - 1e-16, 1e-16])
        assert j.support() == (((0,), 1.0 - 1e-16),)


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_symmetry(self):
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            binary_entropy(1.5)


class TestJointPmf:
    def test_marginal_of_product_is_factor(self):
        j = iid_bernoulli_joint(3, 0.3)
        m = j.marginal([1])
        assert m.sizes == (2,) and m.prob((1,)) == pytest.approx(0.3)

    def test_entropy_additivity_for_product(self):
        j = iid_bernoulli_joint(4, 0.2)
        assert j.entropy() == pytest.approx(4 * binary_entropy(0.2))

    def test_uniform_joint(self):
        j = uniform_joint(3, 2)
        assert j.entropy() == pytest.approx(2 * math.log2(3))

    def test_product_joint_matches_iid(self):
        j = product_joint([(0.7, 0.3)] * 2)
        k = iid_bernoulli_joint(2, 0.3)
        for sym, mass in k.support():
            assert j.prob(sym) == pytest.approx(mass)

    def test_mass_must_normalize(self):
        with pytest.raises(ValidationError):
            JointPmf((2,), {(0,): 0.4, (1,): 0.4})

    def test_rejects_nan_mass(self):
        with pytest.raises(ValidationError):
            JointPmf((2,), {(0,): float("nan"), (1,): 1.0})

    @pytest.mark.parametrize(
        "sizes, mass, message",
        [
            ((), {(): 1.0}, "coordinate sizes must be positive"),
            ((2, 0), {(0, 0): 1.0}, "coordinate sizes must be positive"),
            ((2,), {(2,): 1.0}, r"symbol \(2,\) outside alphabet \(2,\)"),
            ((2,), {(0, 1): 1.0}, r"symbol \(0, 1\) outside alphabet \(2,\)"),
        ],
    )
    def test_rejects_bad_alphabet(self, sizes, mass, message):
        with pytest.raises(ValidationError, match=message):
            JointPmf(sizes, mass)

    @pytest.mark.parametrize("coords", [(), (3,), (-1,)])
    def test_marginal_rejects_bad_coordinates(self, coords):
        with pytest.raises(ValidationError, match=r"outside arity 3"):
            iid_bernoulli_joint(3, 0.3).marginal(coords)

    def test_iid_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError, match=r"epsilon 1\.5 outside \[0,1\]"):
            iid_bernoulli_joint(2, 1.5)


class TestSkewModels:
    def test_parity_param_closed_form(self):
        for l in range(1, 8):
            for eps in (0.0, 0.1, 0.5, 0.9):
                assert parity_param(l, eps) == pytest.approx(
                    (1 - (1 - 2 * eps) ** l) / 2, abs=1e-12
                )

    def test_parity_param_rejects_empty_window(self):
        with pytest.raises(ValidationError):
            parity_param(0, 0.3)

    def test_parity_param_frozen(self):
        assert parity_param(5, 0.2) == pytest.approx(0.46112, abs=1e-12)

    def test_product_param(self):
        assert product_param(3, 0.5) == pytest.approx(0.125)

    @pytest.mark.parametrize("model, args", [(product_param, (0.3,)), (diniz_parity, (0.3, 0.5))])
    def test_window_models_reject_empty_window(self, model, args):
        with pytest.raises(ValidationError, match="l must be >= 1"):
            model(0, *args)

    @pytest.mark.parametrize("model", [diniz_joint, diniz_entropy, diniz_sum_entropy])
    def test_mixture_models_reject_no_variables(self, model):
        with pytest.raises(ValidationError, match="K must be >= 1"):
            model(0, 0.3, 0.5)

    def test_mixture_parity_against_enumeration(self):
        for (l, eps, rho), expect in MIXTURE_PARITY.items():
            assert diniz_parity(l, eps, rho) == pytest.approx(expect, abs=1e-12)

    def test_mixture_entropy_against_enumeration(self):
        for (k, eps, rho), expect in MIXTURE_ENTROPY.items():
            assert diniz_entropy(k, eps, rho) == pytest.approx(expect, abs=1e-12)

    def test_mixture_sum_law_cells(self):
        # diniz_joint is the PMF of the window sum; cells computed by hand
        j = diniz_joint(3, 0.3, 0.4)
        assert j.sizes == (4,)
        assert math.fsum(j.mass.values()) == pytest.approx(1.0)
        assert j.prob((0,)) == pytest.approx(0.6 * 0.7**3 + 0.4 * 0.7, abs=1e-12)
        assert j.prob((1,)) == pytest.approx(3 * 0.6 * 0.3 * 0.49, abs=1e-12)
        assert j.prob((2,)) == pytest.approx(3 * 0.6 * 0.09 * 0.7, abs=1e-12)
        assert j.prob((3,)) == pytest.approx(0.6 * 0.027 + 0.4 * 0.3, abs=1e-12)

    def test_pair_joint_marginals_are_bernoulli(self):
        j = diniz_pair_joint(0.3, 0.6)
        assert j.marginal([0]).prob((1,)) == pytest.approx(0.3)
        assert j.marginal([1]).prob((1,)) == pytest.approx(0.3)

    def test_crossover_joint_frozen_cells(self):
        j = crossover_joint(0.2, 0.1)
        assert j.prob((0, 0)) == pytest.approx(0.78)
        assert j.prob((0, 1)) == pytest.approx(0.02)
        assert j.prob((1, 0)) == pytest.approx(0.02)
        assert j.prob((1, 1)) == pytest.approx(0.18)

    def test_crossover_marginals_are_bernoulli(self):
        j = crossover_joint(0.2, 0.1)
        assert j.marginal([0]).prob((1,)) == pytest.approx(0.2)
        assert j.marginal([1]).prob((1,)) == pytest.approx(0.2)

    def test_crossover_independence_at_complement(self):
        # p = 1 - eps makes the two coordinates independent: every cell is
        # the product of its Bern(0.3) marginals
        j = crossover_joint(0.3, 0.7)
        bern = (0.7, 0.3)
        for a in range(2):
            for b in range(2):
                assert j.prob((a, b)) == pytest.approx(bern[a] * bern[b], abs=1e-12)

    def test_pair_joint_at_rho_extremes(self):
        # rho = 0: two independent Bern(0.3) bits; rho = 1: two equal bits
        j = diniz_pair_joint(0.3, 0.0)
        assert j.prob((0, 0)) == pytest.approx(0.49, abs=1e-12)
        assert j.prob((0, 1)) == j.prob((1, 0)) == pytest.approx(0.21, abs=1e-12)
        assert j.prob((1, 1)) == pytest.approx(0.09, abs=1e-12)
        j = diniz_pair_joint(0.3, 1.0)
        assert j.mass == pytest.approx({(0, 0): 0.7, (1, 1): 0.3}, abs=1e-12)

    def test_crossover_joint_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            crossover_joint(1.2, 0.1)  # epsilon outside [0,1]
        with pytest.raises(ValidationError):
            crossover_joint(1.0, 0.1)  # the model needs epsilon < 1
        with pytest.raises(ValidationError):
            crossover_joint(0.2, 1.5)  # p outside [0,1]
        with pytest.raises(ValidationError):
            crossover_joint(0.8, 0.9)  # derived p' above 1

    def test_mixture_extremes(self):
        # rho = 1 collapses the sum law onto the two corner masses
        j = diniz_joint(4, 0.3, 1.0)
        assert j.prob((0,)) == pytest.approx(0.7)
        assert j.prob((4,)) == pytest.approx(0.3)
        assert set(j.mass) == {(0,), (4,)}

    # outside [0,1] the mixture formulas return numbers that are not laws:
    # diniz_entropy(3, 1.5, 0.0) would be -4.33 bits
    # each bad law, with the error that names its first offending parameter
    BAD_MIXTURE = [
        pytest.param(eps, rho, rf"{name} {re.escape(str(value))} outside \[0,1\]", id=f"{eps}-{rho}")
        for eps, rho, name, value in [
            (1.5, 0.0, "epsilon", 1.5),
            (0.2, 1.7, "rho", 1.7),
            (-0.1, 0.5, "epsilon", -0.1),
            (0.3, -0.2, "rho", -0.2),
            (float("nan"), 0.5, "epsilon", float("nan")),
        ]
    ]

    @pytest.mark.parametrize("eps, rho, message", BAD_MIXTURE)
    def test_mixture_joint_rejects_bad_params(self, eps, rho, message):
        with pytest.raises(ValidationError, match=message):
            diniz_joint(3, eps, rho)

    @pytest.mark.parametrize("eps, rho, message", BAD_MIXTURE)
    def test_mixture_entropy_rejects_bad_params(self, eps, rho, message):
        with pytest.raises(ValidationError, match=message):
            diniz_entropy(3, eps, rho)

    @pytest.mark.parametrize("eps, rho, message", BAD_MIXTURE)
    def test_mixture_parity_rejects_bad_params(self, eps, rho, message):
        with pytest.raises(ValidationError, match=message):
            diniz_parity(3, eps, rho)

    @pytest.mark.parametrize("eps, rho, message", BAD_MIXTURE)
    def test_pair_joint_rejects_bad_params(self, eps, rho, message):
        with pytest.raises(ValidationError, match=message):
            diniz_pair_joint(eps, rho)
