"""Demanded-function classes over F_q and their evaluation/restriction.

The primitive random objects are the subfunction values W_1..W_K themselves
(rates depend only on their statistics), each in F_q for a prime q. Three
structured demand classes plus a dense table class cover everything the rate
machinery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .errors import ValidationError
from .topology import Placement


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def _check_field(q: int) -> None:
    # prime q only: modular arithmetic is then a field, which covers every
    # worked example (q=2) without hauling in extension-field tables
    if not is_prime(q):
        raise ValidationError(f"q={q} must be prime")


def gf_rank(matrix: Sequence[Sequence[int]], q: int) -> int:
    """Rank of a matrix over GF(q), q prime, by Gaussian elimination."""
    _check_field(q)
    rows = [list(int(v) % q for v in r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank, col = 0, 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % q), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q) if q > 2 else rows[rank][col]
        rows[rank] = [(v * inv) % q for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


@dataclass(frozen=True)
class LinearlySeparable:
    """Demands f = Gamma @ w over F_q; gamma has shape Kc x K."""

    q: int
    gamma: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_field(self.q)
        if not self.gamma or not self.gamma[0]:
            raise ValidationError("gamma must be a nonempty Kc x K matrix")
        width = len(self.gamma[0])
        for row in self.gamma:
            if len(row) != width:
                raise ValidationError("gamma rows have unequal lengths")
            if any(not 0 <= v < self.q for v in row):
                raise ValidationError(f"gamma entries must lie in 0..{self.q - 1}")

    @property
    def k(self) -> int:
        return len(self.gamma[0])

    @property
    def kc(self) -> int:
        return len(self.gamma)

    @property
    def full_rank(self) -> bool:
        return gf_rank(self.gamma, self.q) == min(self.kc, self.k)

    def evaluate(self, w: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            sum(c * v for c, v in zip(row, w)) % self.q for row in self.gamma
        )


@dataclass(frozen=True)
class MultiLinear:
    """Single demand f = prod_k w_k in F_q (AND of the bits when q=2)."""

    k: int
    q: int = 2

    def __post_init__(self) -> None:
        _check_field(self.q)
        if self.k < 1:
            raise ValidationError("K must be >= 1")

    @property
    def kc(self) -> int:
        return 1

    def evaluate(self, w: tuple[int, ...]) -> tuple[int, ...]:
        out = 1
        for v in w:
            out = (out * v) % self.q
        return (out,)


@dataclass(frozen=True)
class GeneralTable:
    """Dense truth tables: tables[j][idx] = f_j(w) with idx the base-q value
    of w read most-significant-first. q=2 gives Boolean tables."""

    q: int
    k: int
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_field(self.q)
        if self.k < 1 or not self.tables:
            raise ValidationError("need K >= 1 and at least one table")
        size = self.q**self.k
        for j, tab in enumerate(self.tables):
            if len(tab) != size:
                raise ValidationError(
                    f"table {j} has {len(tab)} entries, domain needs {size}"
                )
            if any(not 0 <= v < self.q for v in tab):
                raise ValidationError(f"table {j} values must lie in 0..{self.q - 1}")

    @property
    def kc(self) -> int:
        return len(self.tables)

    def _index(self, w: tuple[int, ...]) -> int:
        idx = 0
        for v in w:
            idx = idx * self.q + v
        return idx

    def evaluate(self, w: tuple[int, ...]) -> tuple[int, ...]:
        idx = self._index(w)
        return tuple(tab[idx] for tab in self.tables)


DemandSpec = LinearlySeparable | MultiLinear | GeneralTable


def demand_arity(d: DemandSpec) -> int:
    return d.k


def evaluate_demand(d: DemandSpec, w: Sequence[int]) -> tuple[int, ...]:
    """Evaluate all Kc demanded functions on the K-tuple w."""
    w = tuple(int(v) for v in w)
    if len(w) != d.k:
        raise ValidationError(f"w has {len(w)} coordinates, demand expects {d.k}")
    if any(not 0 <= v < d.q for v in w):
        raise ValidationError(f"w entries must lie in 0..{d.q - 1}")
    return d.evaluate(w)


def restrict_to_server(
    d: DemandSpec, p: Placement, i: int
) -> Callable[[Sequence[int], Mapping[int, int]], tuple[int, ...]]:
    """Evaluator for server i's view: takes the local tuple (ordered along the
    sorted zone) plus an assignment of remaining 0-based coordinates, merges
    them, and evaluates the full demand.

    The completion may restate coordinates of the zone, but any overlap must
    agree with the local tuple.
    """
    if p.k != d.k:
        raise ValidationError(f"placement has K={p.k}, demand expects K={d.k}")
    zone = p.zone0(i)

    def view(local: Sequence[int], rest: Mapping[int, int]) -> tuple[int, ...]:
        if len(local) != len(zone):
            raise ValidationError(
                f"local tuple has {len(local)} coordinates, zone holds {len(zone)}"
            )
        merged: dict[int, int] = dict(zip(zone, (int(v) for v in local)))
        for k0, v in rest.items():
            k0, v = int(k0), int(v)
            if not 0 <= k0 < d.k:
                raise ValidationError(f"coordinate {k0} outside 0..{d.k - 1}")
            if k0 in merged and merged[k0] != v:
                raise ValidationError(
                    f"completion sets coordinate {k0} to {v}, local tuple says {merged[k0]}"
                )
            merged[k0] = v
        if len(merged) != d.k:
            missing = sorted(set(range(d.k)) - set(merged))
            raise ValidationError(f"coordinates {missing} left unassigned")
        return evaluate_demand(d, tuple(merged[c] for c in range(d.k)))

    return view


def demand_to_json(d: DemandSpec) -> dict[str, Any]:
    if isinstance(d, LinearlySeparable):
        return {"kind": "linsep", "q": d.q, "gamma": [list(r) for r in d.gamma]}
    if isinstance(d, MultiLinear):
        return {"kind": "multilinear"}
    return {"kind": "table", "q": d.q, "tables": [list(t) for t in d.tables]}


def demand_from_json(obj: Mapping[str, Any], k: int | None = None) -> DemandSpec:
    """Parse the demand schema; `k` supplies the arity where the schema omits
    it (multilinear) and cross-checks it elsewhere."""
    kind = obj.get("kind")
    if kind == "linsep":
        d: DemandSpec = LinearlySeparable(
            q=int(obj["q"]), gamma=tuple(tuple(int(v) for v in r) for r in obj["gamma"])
        )
    elif kind == "multilinear":
        if k is None:
            raise ValidationError("multilinear demand needs the dataset count K")
        d = MultiLinear(k=k, q=int(obj.get("q", 2)))
    elif kind == "table":
        q = int(obj["q"])
        tables = tuple(tuple(int(v) for v in t) for t in obj["tables"])
        size = len(tables[0]) if tables else 0
        arity = k if k is not None else round(math.log(size, q)) if size else 0
        d = GeneralTable(q=q, k=arity, tables=tables)
    else:
        raise ValidationError(f"unknown demand kind {kind!r}")
    if k is not None and d.k != k:
        raise ValidationError(f"demand arity {d.k} != expected K={k}")
    return d
