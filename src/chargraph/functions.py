"""Demanded-function classes over F_q, their evaluation, and their JSON schema.

The primitive random objects are the subfunction values W_1..W_K themselves
(rates depend only on their statistics), each in F_q for a prime q. Three
structured demand classes plus a dense table class cover everything the rate
machinery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from .errors import ValidationError


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


def evaluate_demand(d: DemandSpec, w: Sequence[int]) -> tuple[int, ...]:
    """Evaluate all Kc demanded functions on the K-tuple w."""
    w = tuple(int(v) for v in w)
    if len(w) != d.k:
        raise ValidationError(f"w has {len(w)} coordinates, demand expects {d.k}")
    if any(not 0 <= v < d.q for v in w):
        raise ValidationError(f"w entries must lie in 0..{d.q - 1}")
    return d.evaluate(w)


def decoding_map(
    pairs: Iterable[tuple[Hashable, Any]],
    clash: Callable[[Hashable, Any, Any], Exception],
) -> dict[Hashable, Any]:
    """The decodability rule of zero-error computing: map each key (what a
    decoder sees) to the demanded outputs it must decode to.  A key met with
    two different outputs cannot decode; the first such key raises
    clash(key, first outputs, second outputs)."""
    table: dict[Hashable, Any] = {}
    for key, out in pairs:
        seen = table.setdefault(key, out)
        if seen != out:
            raise clash(key, seen, out)
    return table


def json_int(value: Any) -> int:
    """An integer field of a JSON input, read from its text like the config
    grids: 2.9, 1.0 and true raise ValueError instead of truncating to 2, 1
    and 1."""
    return int(str(value))


def demand_to_json(d: DemandSpec) -> dict[str, Any]:
    if isinstance(d, LinearlySeparable):
        return {"kind": "linsep", "q": d.q, "gamma": [list(r) for r in d.gamma]}
    if isinstance(d, MultiLinear):
        return {"kind": "multilinear"}
    return {"kind": "table", "q": d.q, "tables": [list(t) for t in d.tables]}


def demand_from_json(obj: Mapping[str, Any], k: int | None = None) -> DemandSpec:
    """Parse the demand schema; `k` supplies the arity where the schema omits
    it (multilinear) and cross-checks it elsewhere."""
    if not isinstance(obj, Mapping):
        raise ValidationError("demand must be a JSON object")
    kind = obj.get("kind")
    try:
        if kind == "linsep":
            d: DemandSpec = LinearlySeparable(
                q=json_int(obj["q"]),
                gamma=tuple(tuple(json_int(v) for v in r) for r in obj["gamma"]),
            )
        elif kind == "multilinear":
            if k is None:
                raise ValidationError("multilinear demand needs the dataset count K")
            d = MultiLinear(k=k, q=json_int(obj.get("q", 2)))
        elif kind == "table":
            q = json_int(obj["q"])
            tables = tuple(tuple(json_int(v) for v in t) for t in obj["tables"])
            size = len(tables[0]) if tables else 0
            arity = k if k is not None else round(math.log(size, q)) if size else 0
            d = GeneralTable(q=q, k=arity, tables=tables)
        else:
            raise ValidationError(f"unknown demand kind {kind!r}")
    except ValidationError:  # a ValueError too; keep its own message
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed {kind} demand: {exc!r}") from exc
    if k is not None and d.k != k:
        raise ValidationError(f"demand arity {d.k} != expected K={k}")
    return d
