"""Server/dataset topology, cyclic storage placement, and recovery coverage."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import ValidationError
from .functions import json_int, json_list


def _mod1(b: int, a: int) -> int:
    """Residue of b mod a shifted into {1..a} (so mod1(a, a) == a)."""
    return (b - 1) % a + 1


@dataclass(frozen=True)
class Topology:
    """T(N, K, Kc, M, Nr): N servers, K datasets, Kc demanded functions,
    M datasets per server, any Nr servers sufficient for recovery."""

    n: int
    k: int
    kc: int
    m: int
    nr: int

    def __post_init__(self) -> None:
        # Nr before M: the cyclic M = (K/N)(N - Nr + 1) is below 1 when Nr > N
        if self.n >= 1 and not 1 <= self.nr <= self.n:
            raise ValidationError(f"Nr={self.nr} outside 1..{self.n}")
        if self.n < 1 or self.k < 1 or self.kc < 1 or self.m < 1:
            raise ValidationError("N, K, Kc, M must all be >= 1")
        if self.k % self.n != 0:
            raise ValidationError(f"N={self.n} must divide K={self.k}")

    @property
    def delta(self) -> int:
        return self.k // self.n


@dataclass(frozen=True)
class DerivedParams:
    """Quantities the cyclic placement determines from T (delta = K/N and
    M = delta * (N - Nr + 1) are T's own)."""

    n_star: int   # floor(N / (N - Nr + 1))
    delta_n: int  # N - n_star * (N - Nr + 1)
    xi_n: int     # delta * delta_n


def derived_params(t: Topology) -> DerivedParams:
    width = t.n - t.nr + 1
    if t.m != t.delta * width:
        raise ValidationError(
            f"M={t.m} inconsistent with cyclic placement: delta*(N-Nr+1)={t.delta * width}"
        )
    n_star = t.n // width
    delta_n = t.n - n_star * width
    return DerivedParams(n_star=n_star, delta_n=delta_n, xi_n=t.delta * delta_n)


@dataclass(frozen=True)
class Placement:
    """Storage zones: zones[i] lists the 1-based dataset indices on server i+1."""

    n: int
    k: int
    zones: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.zones) != self.n:
            raise ValidationError(f"expected {self.n} zones, got {len(self.zones)}")
        for i, z in enumerate(self.zones):
            if not z:
                raise ValidationError(f"server {i + 1} stores nothing")
            if list(z) != sorted(set(z)):
                raise ValidationError(f"zone {i + 1} must be sorted and duplicate-free")
            if z[0] < 1 or z[-1] > self.k:
                raise ValidationError(f"zone {i + 1} has indices outside 1..{self.k}")

    def zone0(self, server: int) -> tuple[int, ...]:
        """0-based dataset indices for 1-based server number."""
        if not 1 <= server <= self.n:
            raise ValidationError(f"server {server} outside 1..{self.n}")
        return tuple(d - 1 for d in self.zones[server - 1])


def cyclic_placement(t: Topology) -> Placement:
    """Consecutive-window placement: server i stores, for each replica band
    r < delta, the window {mod1(i + s, N) + r*N : s = 0..N-Nr}."""
    derived_params(t)  # rejects an M that no cyclic placement stores
    width = t.n - t.nr + 1
    zones = []
    for i in range(1, t.n + 1):
        zone = {
            _mod1(i + s, t.n) + r * t.n
            for s in range(width)
            for r in range(t.delta)
        }
        zones.append(tuple(sorted(zone)))
    return Placement(n=t.n, k=t.k, zones=tuple(zones))


def coverage_check(p: Placement, t: Topology) -> bool:
    """True iff every Nr-subset of servers jointly stores all K datasets.

    A dataset held by h servers is missed by some Nr-subset iff its N - h
    non-holders number at least Nr, so this holds iff every dataset has
    at least N - Nr + 1 holders.
    """
    if p.n != t.n or p.k != t.k:
        raise ValidationError(
            f"placement is for (N={p.n}, K={p.k}), topology says (N={t.n}, K={t.k})"
        )
    holders = Counter(d for z in p.zones for d in z)
    return all(holders[d] > p.n - t.nr for d in range(1, p.k + 1))


def placement_to_json(p: Placement) -> dict[str, Any]:
    return {"N": p.n, "K": p.k, "Z": [list(z) for z in p.zones]}


def placement_from_json(obj: Mapping[str, Any]) -> Placement:
    try:
        n, k = json_int(obj["N"]), json_int(obj["K"])
        zones = tuple(
            tuple(sorted(json_int(d) for d in json_list(z))) for z in json_list(obj["Z"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"placement object needs N, K, Z fields: {exc}") from exc
    return Placement(n=n, k=k, zones=zones)
