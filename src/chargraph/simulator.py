"""End-to-end zero-error achievability: block encoders from OR-power
colorings, exhaustive decode-table verification, and Monte-Carlo rate
measurement.

Correctness never rests on sampling: the decode table is built by an
exhaustive sweep over every positive-probability length-n input, and its
construction fails loudly on any collision.  Monte-Carlo only estimates the
empirical transmitted entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import DecodeError, DeskScaleError, ValidationError
from .functions import DemandSpec, decoding_map, evaluate_demand
from .graphs import POWER_GUARD, build_char_graph, or_power
from .probability import JointPmf
from .rates import coloring_map
from .solvers import graph_entropy
from .topology import Placement, Topology

Block = tuple[tuple[int, ...], ...]  # length-n sequence of joint K-tuples


@dataclass(frozen=True)
class Encoder:
    """One server's block encoder: a minimum-count coloring of the n-th
    OR power of its union characteristic graph."""

    server: int
    n: int
    zone: tuple[int, ...]  # 0-based stored coordinates
    coloring: Mapping[tuple, int]  # n-tuple of local tuples -> color id
    num_colors: int
    theoretical_rate: float  # graph entropy of the length-1 union graph

    def local_block(self, ws: Block) -> tuple:
        return tuple(tuple(w[c] for c in self.zone) for w in ws)

    def encode(self, ws: Block) -> int:
        block = self.local_block(ws)
        if block not in self.coloring:
            raise ValidationError(
                f"server {self.server} encoder saw an off-support block {block!r}"
            )
        return self.coloring[block]


@dataclass(frozen=True)
class DecodeTable:
    """Zero-error lookup for one recovery subset: color profile -> demanded
    length-n output sequences (one length-n tuple per demand).  `truth`
    keeps the directly evaluated demands for every swept input so a
    simulation can check decodes against ground truth."""

    subset: tuple[int, ...]
    n: int
    table: Mapping[tuple[int, ...], tuple[tuple[int, ...], ...]]
    truth: Mapping[Block, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class SimResult:
    trials: int
    errors: int
    empirical_rate_bits_per_symbol: tuple[float, ...]
    theoretical_rate: tuple[float, ...]
    seed: int

    def to_json(self) -> dict[str, Any]:
        return {
            "trials": self.trials,
            "errors": self.errors,
            "empirical": list(self.empirical_rate_bits_per_symbol),
            "theoretical": list(self.theoretical_rate),
            "seed": self.seed,
        }


def build_encoders(
    t: Topology,
    p: Placement,
    d: DemandSpec,
    joint: JointPmf,
    n: int,
) -> list[Encoder]:
    """One encoder per server: color the n-th OR power of the server's union
    characteristic graph (exact minimum when small, degree-ordered greedy
    otherwise).  A server whose local support is a single point has a
    one-vertex graph, so it transmits a constant."""
    if n < 1:
        raise ValidationError("blocklength n must be >= 1")
    if joint.arity != t.k or p.k != t.k or p.n != t.n:
        raise ValidationError("joint/placement do not match the topology")
    encoders: list[Encoder] = []
    for i in range(1, t.n + 1):
        g1 = build_char_graph(d, p, joint, i)
        coloring = coloring_map(or_power(g1, n))
        encoders.append(
            Encoder(
                server=i,
                n=n,
                zone=p.zone0(i),
                coloring=coloring,
                num_colors=len(set(coloring.values())),
                theoretical_rate=graph_entropy(g1).value,
            )
        )
    return encoders


def _blocks(
    support: Sequence[tuple[tuple[int, ...], float]], n: int
) -> list[tuple[Block, float]]:
    if len(support) ** n > POWER_GUARD:
        raise DeskScaleError(
            f"support^{n} = {len(support) ** n} exceeds the sweep guard {POWER_GUARD}"
        )
    out = []
    for combo in iter_product(support, repeat=n):
        ws = tuple(w for w, _ in combo)
        mass = math.prod(m for _, m in combo)
        out.append((ws, mass))
    return out


def _demand_sequence(d: DemandSpec, ws: Block) -> tuple[tuple[int, ...], ...]:
    per_symbol = [evaluate_demand(d, w) for w in ws]
    return tuple(zip(*per_symbol))


def build_decode_table(
    encoders: Sequence[Encoder],
    t: Topology,
    p: Placement,
    d: DemandSpec,
    joint: JointPmf,
    subset: Sequence[int],
) -> DecodeTable:
    """Exhaustively sweep every positive-probability length-n input and
    record color profile -> demands.  Two failure modes are distinguished:
    the subset's pooled local data may not determine the demands at all
    (coverage, a precondition violation), or the encoders may have merged a
    confusable pair (collision, the zero-error test itself)."""
    subset = tuple(int(s) for s in subset)
    if len(set(subset)) != len(subset) or any(not 1 <= s <= t.n for s in subset):
        raise ValidationError(f"subset {subset} is not a set of servers in 1..{t.n}")
    by_server = {e.server: e for e in encoders}
    missing = [s for s in subset if s not in by_server]
    if missing:
        raise ValidationError(f"no encoder supplied for servers {missing}")
    enc = [by_server[s] for s in subset]
    n = enc[0].n
    if any(e.n != n for e in enc):
        raise ValidationError("encoders disagree on blocklength")
    support = joint.support()

    # coverage: the pooled local symbols must determine the demands
    decoding_map(
        (
            (tuple(e.local_block((w,)) for e in enc), evaluate_demand(d, w))
            for w, _ in support
        ),
        lambda _, a, b: ValidationError(
            f"servers {subset} do not cover the demands: pooled data is "
            f"consistent with both {a} and {b}"
        ),
    )

    truth = {ws: _demand_sequence(d, ws) for ws, _ in _blocks(support, n)}
    table = decoding_map(
        ((tuple(e.encode(ws) for e in enc), dem_seq) for ws, dem_seq in truth.items()),
        lambda profile, a, b: DecodeError(
            f"collision at servers {subset}: color profile {profile} is "
            f"consistent with {a} and {b}; an encoder merged a confusable pair"
        ),
    )
    return DecodeTable(subset=subset, n=n, table=table, truth=truth)


def run_simulation(
    encoders: Sequence[Encoder],
    table: DecodeTable,
    joint: JointPmf,
    n: int,
    trials: int,
    seed: int,
) -> SimResult:
    """Monte-Carlo over i.i.d. length-n inputs: count decode mismatches
    against directly evaluated demands and measure each server's empirical
    transmitted entropy per source symbol.  Mismatches are counted, not
    thrown; a table built by build_decode_table yields zero."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in 64 bits")
    if n != table.n or any(e.n != n for e in encoders):
        raise ValidationError("blocklength disagrees between encoders and table")
    row_of = {e.server: row for row, e in enumerate(encoders)}
    missing = [s for s in table.subset if s not in row_of]
    if missing:
        raise ValidationError(f"no encoder supplied for servers {missing}")
    subset_rows = [row_of[s] for s in table.subset]

    support = joint.support()
    probs = np.array([m for _, m in support], dtype=float)
    probs = probs / probs.sum()

    # outcome of every possible length-n input, computed once; sampling then
    # only weights these outcomes
    blocks = _blocks(support, n)
    colors = np.zeros((len(encoders), len(blocks)), dtype=np.int64)
    correct = np.zeros(len(blocks), dtype=bool)
    for b_idx, (ws, _) in enumerate(blocks):
        for e_idx, e in enumerate(encoders):
            colors[e_idx, b_idx] = e.encode(ws)
        if ws not in table.truth:
            raise ValidationError(
                "decode table was built for a different joint law"
            )
        profile = tuple(colors[subset_rows, b_idx].tolist())
        correct[b_idx] = table.table.get(profile) == table.truth[ws]

    rng = np.random.default_rng(seed)
    draws = rng.choice(len(support), size=(trials, n), p=probs)
    radix = len(support) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    flat = draws @ radix
    counts = np.bincount(flat, minlength=len(blocks)).astype(np.int64)

    errors = int(counts[~correct].sum())
    empirical = []
    for e_idx in range(len(encoders)):
        hist = np.bincount(colors[e_idx], weights=counts)
        q = hist[hist > 0] / float(trials)
        empirical.append(float(-(q * np.log2(q)).sum()) / n)
    return SimResult(
        trials=trials,
        errors=errors,
        empirical_rate_bits_per_symbol=tuple(empirical),
        theoretical_rate=tuple(e.theoretical_rate for e in encoders),
        seed=seed,
    )


def expected_rates(encoders: Sequence[Encoder], joint: JointPmf, n: int) -> list[float]:
    """Exact per-symbol entropy of each encoder's transmitted color under
    the i.i.d. length-n law (the infinite-trial limit of the empirical
    rate)."""
    if any(e.n != n for e in encoders):
        raise ValidationError("encoders disagree on blocklength")
    blocks = _blocks(joint.support(), n)
    out = []
    for e in encoders:
        masses: dict[int, float] = {}
        for ws, m in blocks:
            c = e.encode(ws)
            masses[c] = masses.get(c, 0.0) + m
        out.append(-math.fsum(m * math.log2(m) for m in masses.values() if m > 0) / n)
    return out
