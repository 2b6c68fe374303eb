"""Finite-alphabet PMF algebra and the dataset-statistics models.

Everything is in bits (log base 2) with the convention 0*log2(0) = 0.
Rates counted in q-ary symbols elsewhere are converted as bits/log2(q).

The closed-form model functions (binary_entropy, parity_param,
product_param, diniz_parity, diniz_entropy, diniz_sum_entropy,
crossover_feasible) take a float or an array of laws: an array is checked
whole before any value is computed, the first offending value naming the
error, and priced elementwise in one numpy pass; a float gives a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Mapping, Sequence

import numpy as np

from .errors import DeskScaleError, ModelIntegrityError, ValidationError

CONSTRUCTION_TOL = 1e-12   # normalization tolerance at construction
MODEL_TOL = 1e-9           # tolerance for model formula outputs before renormalizing
SUPPORT_TOL = 1e-15        # masses below this are dropped during support extraction
PRODUCT_GUARD = 10**5      # max number of points in an explicit product joint


def _plog2p(p: float) -> float:
    return -p * math.log2(p) if p > 0.0 else 0.0


Grid = float | np.ndarray  # one law's parameter, or one per grid point


def _floats(x: np.ndarray) -> Grid:
    """A 0-d result as a Python float, so that a scalar caller gets a float."""
    return float(x) if np.ndim(x) == 0 else x


def check_all(ok: Grid, message: str, value: Grid) -> None:
    """Raise ValidationError(message with value's entry filled in) at the
    first grid point where ok fails."""
    ok = np.asarray(ok)
    if not ok.all():
        first = int(np.argmin(ok))  # the first False
        raise ValidationError(message.format(np.broadcast_to(value, ok.shape).flat[first].item()))


def _check_unit(x: Grid, message: str) -> None:
    check_all((0.0 <= x) & (x <= 1.0), message, x)


def _plog2p_grid(p: np.ndarray) -> np.ndarray:
    """-p log2 p elementwise, 0 where p is 0 (no log of 0 is taken)."""
    positive = p > 0.0
    return np.where(positive, -p * np.log2(np.where(positive, p, 1.0)), 0.0)


def binary_entropy(p: Grid) -> Grid:
    """h(p) in bits; defined on [0,1] with h(0)=h(1)=0."""
    _check_unit(p, "binary_entropy argument {} outside [0,1]")
    p = np.asarray(p, dtype=float)
    return _floats(_plog2p_grid(p) + _plog2p_grid(1.0 - p))


@dataclass(frozen=True)
class JointPmf:
    """Joint PMF over tuples; coordinate k ranges over {0..sizes[k]-1}."""

    sizes: tuple[int, ...]
    mass: Mapping[tuple[int, ...], float]

    def __post_init__(self) -> None:
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValidationError("coordinate sizes must be positive")
        for sym, m in self.mass.items():
            if len(sym) != len(self.sizes) or any(
                not 0 <= v < s for v, s in zip(sym, self.sizes)
            ):
                raise ValidationError(f"symbol {sym} outside alphabet {self.sizes}")
            if not m >= 0.0:
                raise ValidationError("negative or NaN probability mass")
        total = math.fsum(self.mass.values())
        if not abs(total - 1.0) <= CONSTRUCTION_TOL:
            raise ValidationError(f"masses sum to {total}, not 1")

    @property
    def arity(self) -> int:
        return len(self.sizes)

    def support(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """Sorted (symbol, mass) pairs above the support truncation
        threshold, materialized so callers can iterate repeatedly."""
        return tuple(
            (sym, self.mass[sym])
            for sym in sorted(self.mass)
            if self.mass[sym] > SUPPORT_TOL
        )

    def prob(self, sym: tuple[int, ...]) -> float:
        return self.mass.get(sym, 0.0)

    def marginal(self, coords: Sequence[int]) -> "JointPmf":
        coords = tuple(coords)
        if not coords or any(not 0 <= c < self.arity for c in coords):
            raise ValidationError(f"coordinates {coords} outside arity {self.arity}")
        out: dict[tuple[int, ...], float] = {}
        for sym, m in self.mass.items():
            key = tuple(sym[c] for c in coords)
            out[key] = out.get(key, 0.0) + m
        return JointPmf(tuple(self.sizes[c] for c in coords), out)

    def entropy(self) -> float:
        return math.fsum(_plog2p(m) for m in self.mass.values())


def product_joint(marginals: Sequence[Sequence[float]]) -> JointPmf:
    """Independent product of marginal mass vectors as an explicit joint
    (desk scale)."""
    total = 1
    for v in marginals:
        total *= len(v)
        if total > PRODUCT_GUARD:
            raise DeskScaleError(f"product alphabet exceeds {PRODUCT_GUARD} points")
    if not all(m >= 0.0 for v in marginals for m in v):
        raise ValidationError("negative or NaN probability mass")
    mass: dict[tuple[int, ...], float] = {}
    for sym in iter_product(*(range(len(v)) for v in marginals)):
        m = 1.0
        for x, v in zip(sym, marginals):
            m *= v[x]
        if m > 0.0:
            mass[sym] = m
    return JointPmf(tuple(len(v) for v in marginals), mass)


def _joint_from_masses(
    sizes: tuple[int, ...], cells: Mapping[tuple[int, ...], float]
) -> JointPmf:
    """A source law from a model formula's cell masses, checked at
    MODEL_TOL: drift or a negative mass beyond it is a model-integrity
    failure; drift within it is renormalized away."""
    total = math.fsum(cells.values())
    if not abs(total - 1.0) <= MODEL_TOL:
        raise ModelIntegrityError(f"model masses sum to {total}, off by {total - 1.0}")
    if any(m < -MODEL_TOL for m in cells.values()):
        raise ModelIntegrityError("model produced a negative mass")
    return JointPmf(sizes, {c: m / total for c, m in cells.items() if m > 0.0})


def _check_mixture(epsilon: Grid, rho: Grid) -> None:
    _check_unit(epsilon, "epsilon {} outside [0,1]")
    _check_unit(rho, "rho {} outside [0,1]")


def iid_bernoulli_joint(k: int, epsilon: float) -> JointPmf:
    """K i.i.d. Bern(epsilon) bits as an explicit joint PMF."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon {epsilon} outside [0,1]")
    return product_joint([(1.0 - epsilon, epsilon)] * k)


def uniform_joint(q: int, k: int) -> JointPmf:
    """K i.i.d. uniform q-ary coordinates."""
    return product_joint([[1.0 / q] * q] * k)


def parity_param(l: int, epsilon: Grid) -> Grid:
    """P(mod-2 sum of l i.i.d. Bern(eps) bits = 1), by the recursion
    eps_l = (1-eps_{l-1})*eps + eps_{l-1}*(1-eps), eps_1 = eps."""
    if l < 1:
        raise ValidationError("l must be >= 1")
    _check_unit(epsilon, "epsilon {} outside [0,1]")
    epsilon = np.asarray(epsilon, dtype=float)
    e = epsilon
    for _ in range(l - 1):
        e = (1.0 - e) * epsilon + e * (1.0 - epsilon)
    return _floats(e)


def product_param(l: int, epsilon: Grid) -> Grid:
    """P(product of l i.i.d. Bern(eps) bits = 1) = eps^l."""
    if l < 1:
        raise ValidationError("l must be >= 1")
    _check_unit(epsilon, "epsilon {} outside [0,1]")
    return _floats(np.asarray(epsilon, dtype=float) ** l)


def diniz_joint(k: int, epsilon: float, rho: float) -> JointPmf:
    """Law of the integer sum of K identically distributed correlated bits.

    Mixture form: weight (1-rho) on Binomial(K, eps) plus weight rho split
    (1-eps)/eps between the all-zero and all-one outcomes.
    """
    if k < 1:
        raise ValidationError("K must be >= 1")
    _check_mixture(epsilon, rho)
    cells = {}
    for y in range(k + 1):
        m = (1.0 - rho) * math.comb(k, y) * epsilon**y * (1.0 - epsilon) ** (k - y)
        if y in (0, k):
            m += rho * epsilon ** (y / k) * (1.0 - epsilon) ** ((k - y) / k)
        cells[(y,)] = m
    return _joint_from_masses((k + 1,), cells)


def diniz_parity(l: int, epsilon: Grid, rho: Grid) -> Grid:
    """Odd-sum mass of the l-variable correlated model (restriction is closed:
    any l of the K variables follow the same mixture with K replaced by l)."""
    _check_mixture(epsilon, rho)
    epsilon, rho = np.asarray(epsilon, dtype=float), np.asarray(rho, dtype=float)
    return _floats((1.0 - rho) * parity_param(l, epsilon) + (
        rho * epsilon if l % 2 == 1 else 0.0
    ))


def diniz_pair_joint(epsilon: float, rho: float) -> JointPmf:
    """Two correlated bits of the mixture model as an explicit 2x2 joint."""
    _check_mixture(epsilon, rho)
    e, r = epsilon, rho
    cells = {
        (0, 0): (1.0 - r) * (1.0 - e) ** 2 + r * (1.0 - e),
        (0, 1): (1.0 - r) * e * (1.0 - e),
        (1, 0): (1.0 - r) * e * (1.0 - e),
        (1, 1): (1.0 - r) * e**2 + r * e,
    }
    return _joint_from_masses((2, 2), cells)


def _weight_classes(k: int, epsilon: Grid, rho: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The mixture model's mass of one K-bit tuple of weight y, and the
    number of such tuples, for y = 0..K on axis 0; K and the law are
    checked first."""
    if k < 1:
        raise ValidationError("K must be >= 1")
    _check_mixture(epsilon, rho)
    e, r = np.asarray(epsilon, dtype=float), np.asarray(rho, dtype=float)
    y = np.arange(k + 1).reshape((-1,) + (1,) * np.broadcast(e, r).ndim)
    m = (1.0 - r) * e**y * (1.0 - e) ** (k - y)
    m[0] += r * (1.0 - e)
    m[k] += r * e
    return m, np.array([math.comb(k, j) for j in range(k + 1)], dtype=float).reshape(y.shape)


def diniz_entropy(k: int, epsilon: Grid, rho: Grid) -> Grid:
    """Joint entropy H(W_1..W_K) of K correlated bits under the mixture model.

    Computed over weight classes in O(K); never materializes 2^K outcomes.
    """
    m, count = _weight_classes(k, epsilon, rho)
    return _floats((count * _plog2p_grid(m)).sum(axis=0))


def diniz_sum_entropy(k: int, epsilon: Grid, rho: Grid) -> Grid:
    """Entropy of the integer sum of K correlated bits, the law diniz_joint
    builds, over the same weight classes."""
    m, count = _weight_classes(k, epsilon, rho)
    return _floats(_plog2p_grid(count * m).sum(axis=0))


def crossover_feasible(epsilon: Grid, p: Grid) -> bool | np.ndarray:
    """Whether p lies in the crossover pair law's domain at this eps: p in
    [0,1] and p' = eps*p/(1-eps) <= 1 (within CONSTRUCTION_TOL).  The bound is
    tested as eps*p <= (1-eps)(1+tol), so eps = 1 admits only p = 0; the
    caller checks eps itself."""
    return (0.0 <= p) & (p <= 1.0) & (epsilon * p <= (1.0 - epsilon) * (1.0 + CONSTRUCTION_TOL))


def crossover_joint(epsilon: float, p: float) -> JointPmf:
    """Four-cell joint of two bits with marginals Bern(eps) and crossover p:
    P(0,0)=(1-eps)(1-p'), P(1,0)=P(0,1)=eps*p, P(1,1)=eps(1-p), p'=eps*p/(1-eps)."""
    if not 0.0 <= epsilon < 1.0:
        raise ValidationError(f"crossover model needs epsilon in [0,1), got {epsilon}")
    if not crossover_feasible(epsilon, p):
        raise ValidationError(
            f"crossover p {p} outside [0,1] or derived p' = eps*p/(1-eps) above 1"
        )
    pp = epsilon * p / (1.0 - epsilon)
    cells = {
        (0, 0): (1.0 - epsilon) * (1.0 - pp),
        (0, 1): epsilon * p,
        (1, 0): epsilon * p,
        (1, 1): epsilon * (1.0 - p),
    }
    return _joint_from_masses((2, 2), cells)

