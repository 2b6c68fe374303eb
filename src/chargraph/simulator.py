"""End-to-end zero-error achievability: block encoders from OR-power
colorings, exhaustive decode-table verification, and Monte-Carlo rate
measurement.

Correctness never rests on sampling: the decode table is built by an
exhaustive sweep over every positive-probability length-n input, and its
construction fails loudly on any collision.  Monte-Carlo only estimates the
empirical transmitted entropy.  A length-n block is its index in support^n:
colors and demanded outputs are numpy gathers over it, not per-block loops.
The simulator works on the structure of its graphs: the OR power of a
complete multipartite graph is complete multipartite, with the tuples of
parts as its parts, so such an encoder reads the parts off the min_coloring
of its server graph, colors a block by the index of its labels' part tuple
and builds no OR power; decoding groups blocks with one sort of one
mixed-radix integer code per block, folded from its color profile and the
integer_codes of its outputs, and builds each distinct demanded sequence
once; and a rate is one bincount over the colors themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .errors import DecodeError, DeskScaleError, ValidationError
from .functions import DemandSpec, decoding_map
from .graphs import CharGraph, build_char_graph, integer_codes, or_power, support_items
from .probability import JointPmf, _plog2p_grid
from .rates import min_coloring
from .topology import Placement, Topology

POWER_GUARD = 10**5  # max support^n length-n blocks in one sweep
CODE_RANGE = 2**62  # max range of a block's int64 outcome code


@dataclass(frozen=True)
class Encoder:
    """One server's block encoder: a coloring of the n-th OR power of its
    union characteristic graph, minimum where _power_coloring says so.
    colors[b] is the color of OR-power vertex b: the n-tuple of labels
    whose ids l_0..l_{n-1} give b = sum_j l_j * len(labels)^(n-1-j), as in
    or_power's vertex order.  Colors lie in 0..len(labels)^n - 1, which
    bounds the integer codes that decoding folds them into."""

    server: int
    n: int
    zone: tuple[int, ...]  # 0-based stored coordinates
    labels: tuple[tuple[int, ...], ...]  # local tuples: the length-1 graph's vertices
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != len(self.labels) ** self.n:
            raise ValidationError(
                f"{len(self.colors)} colors for {len(self.labels)}^{self.n} blocks of labels"
            )
        if self.colors and not 0 <= min(self.colors) <= max(self.colors) < len(self.colors):
            raise ValidationError(f"colors must lie in 0..{len(self.colors) - 1}")

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))


@dataclass(frozen=True)
class DecodeTable:
    """Zero-error lookup for one recovery subset: color profile -> demanded
    length-n output sequences (one length-n tuple per demand).  `truth`
    keeps the directly evaluated demands of every support symbol the table
    was swept on, so a simulation can check decodes against ground truth."""

    subset: tuple[int, ...]
    n: int
    table: Mapping[tuple[int, ...], tuple[tuple[int, ...], ...]]
    truth: Mapping[tuple[int, ...], tuple[int, ...]]  # support symbol -> demands


@dataclass(frozen=True)
class SimResult:
    trials: int
    errors: int
    empirical_rate_bits_per_symbol: tuple[float, ...]


def build_encoders(
    t: Topology,
    p: Placement,
    d: DemandSpec,
    joint: JointPmf,
    n: int,
) -> list[Encoder]:
    """One encoder per server: _power_coloring of the n-th OR power of the
    server's union characteristic graph g1, not always a minimum one.  A
    server whose local support is a single point has a one-vertex graph,
    so it transmits a constant."""
    if n < 1:
        raise ValidationError("blocklength n must be >= 1")
    if joint.arity != t.k or p.k != t.k or p.n != t.n:
        raise ValidationError("joint/placement do not match the topology")
    encoders: list[Encoder] = []
    for i in range(1, t.n + 1):
        g1 = build_char_graph(d, p, joint, i)
        encoders.append(
            Encoder(
                server=i,
                n=n,
                zone=p.zone0(i),
                labels=g1.vertices,
                colors=_power_coloring(g1, n),
            )
        )
    return encoders


def _power_coloring(g: CharGraph, n: int) -> tuple[int, ...]:
    """A coloring of or_power(g, n), indexed by its vertex ids.  The
    classes of min_coloring(g) are independent sets, so they are g's parts
    exactly when every pair of vertices in different classes is an edge:
    when the degrees add up to |V|^2 minus the squared class sizes.  On a
    complete multipartite g they are (greedy gives each part one color, and
    a clique grown greedily takes one vertex per part, so the exact search
    keeps greedy's coloring).  Its OR power is then complete multipartite
    with the n-tuples of parts as its parts, its only minimum coloring, so
    vertex b gets the mixed-radix index of its labels' part ranks, parts
    ranked by their smallest vertex id (integer_codes of the colors), and
    no power is built; DeskScaleError if its |V|^n colors pass POWER_GUARD,
    as the sweep over support^n >= |V|^n blocks would.  Any other g gets
    min_coloring of the built power: exact on each component of at most
    EXACT_COLOR_GUARD vertices and degree-ordered greedy on a larger one,
    so not always minimum."""
    part, parts = integer_codes(min_coloring(g))
    if sum(map(len, g.neighbors)) != g.n**2 - int((np.bincount(part) ** 2).sum()):
        return min_coloring(or_power(g, n))
    if g.n**n > POWER_GUARD:
        raise DeskScaleError(
            f"{g.n}^{n} = {g.n**n} part-tuple colors exceed the sweep guard {POWER_GUARD}"
        )
    return tuple(_block_index(np.array(part), len(parts), n).tolist())


def _sweep(joint: JointPmf, n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The support symbols, and the i.i.d. mass of every length-n block (the
    n-fold Kronecker power of the symbol law)."""
    support = joint.support()
    if len(support) ** n > POWER_GUARD:
        raise DeskScaleError(
            f"support^{n} = {len(support) ** n} exceeds the sweep guard {POWER_GUARD}"
        )
    masses = reduce(np.kron, [np.array([m for _, m in support])] * n)
    return [w for w, _ in support], masses


def _block_index(ids: np.ndarray, base: int, n: int) -> np.ndarray:
    """For every block (s_0..s_{n-1}) of symbols, in lexicographic order, the
    mixed-radix index sum_j ids[s_j] * base^(n-1-j) of its symbols' ids."""
    index = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        index = (index[:, None] * base + ids).ravel()
    return index


def _colors(encoders: Sequence[Encoder], symbols: list, n: int) -> np.ndarray:
    """(encoders, blocks) matrix of the color each encoder sends for each
    block: one gather per encoder from its colors, at the OR-power vertex
    that the block's label ids index."""
    rows = []
    for e in encoders:
        label_id = {label: i for i, label in enumerate(e.labels)}
        ids = []
        for w in symbols:
            local = tuple(w[c] for c in e.zone)
            if local not in label_id:
                raise ValidationError(
                    f"server {e.server} encoder saw an off-support local tuple {local!r}"
                )
            ids.append(label_id[local])
        rows.append(np.array(e.colors)[_block_index(np.array(ids), len(e.labels), n)])
    return np.array(rows, dtype=np.int64)


def _outcomes(profiles: np.ndarray, demands: list, n: int) -> tuple[list, np.ndarray]:
    """The distinct (color profile, demanded sequences) pairs over all
    blocks in order of first appearance, and each block's pair.  profiles
    is (servers, blocks); demands[s] are support symbol s's outputs.
    Blocks are grouped by one integer code each, sorted once: the index of
    the block's demanded outputs by their integer_codes, then, one color
    row at a time, the code times the row's range plus the color, a
    mixed-radix number.  The code is made dense (below the block count)
    only where the next row would take its range past CODE_RANGE; a color
    is below its encoder's len(labels)^n <= POWER_GUARD, so a dense code
    times a row's range stays below POWER_GUARD^2 = 1e10.  Pairs sharing
    their demanded outputs share one tuple of them."""
    dem_ids, dems = integer_codes(demands)
    truth = _block_index(np.array(dem_ids), len(dems), n)
    code, span = truth, len(dems) ** n  # every code lies in 0..span - 1
    for col in profiles:
        radix = int(col.max()) + 1
        if span * radix > CODE_RANGE:
            uniq, code = np.unique(code, return_inverse=True)
            span = len(uniq)
        code = code * radix + col
        span *= radix
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    reps = first[order]  # each pair's first block
    seq_of, truths = integer_codes(truth[reps].tolist())
    digits = np.unravel_index(truths, (len(dems),) * n)
    seqs = [tuple(zip(*(dems[i] for i in ds))) for ds in np.column_stack(digits).tolist()]
    pairs = [(tuple(pr), seqs[j]) for pr, j in zip(profiles[:, reps].T.tolist(), seq_of)]
    return pairs, np.argsort(order)[inverse]


def _rates(colors: np.ndarray, weights: np.ndarray, n: int) -> list[float]:
    """Per-symbol entropy of each row's color when block b has weight
    weights[b] (the weights sum to 1): one bincount over the colors
    themselves, which an Encoder keeps in 0..len(colors) - 1."""
    out = []
    for row in colors:
        q = np.bincount(row, weights=weights)
        # colors no block drew are left out: zero terms would regroup numpy's
        # pairwise sum and move the last bit of an empirical rate
        out.append(float(_plog2p_grid(q[q > 0]).sum()) / n)
    return out


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
    (coverage, a precondition violation), or one color profile may meet
    two demands (collision, the zero-error test itself).  A collision has
    two causes: an encoder merged a confusable pair of its own graph, or
    every encoder colors its own graph properly and the colorings still
    fail jointly, which the coloring connectivity condition of Doshi, Shah,
    Medard and Effros (2010) rules out."""
    subset = tuple(int(s) for s in subset)
    if not 0 < len(set(subset)) == len(subset) or any(not 1 <= s <= t.n for s in subset):
        raise ValidationError(
            f"subset {subset} is not a non-empty set of servers in 1..{t.n}"
        )
    by_server = {e.server: e for e in encoders}
    missing = [s for s in subset if s not in by_server]
    if missing:
        raise ValidationError(f"no encoder supplied for servers {missing}")
    enc = [by_server[s] for s in subset]
    n = enc[0].n
    if any(e.n != n for e in enc):
        raise ValidationError("encoders disagree on blocklength")
    symbols, _ = _sweep(joint, n)
    demands = [dem for _, _, dem in support_items(d, p, joint)]

    # coverage: the pooled local symbols must determine the demands
    decoding_map(
        ((tuple(tuple(w[c] for c in e.zone) for e in enc), dem)
         for w, dem in zip(symbols, demands)),
        lambda _, a, b: ValidationError(
            f"servers {subset} do not cover the demands: pooled data is "
            f"consistent with both {a} and {b}"
        ),
    )

    pairs, _ = _outcomes(_colors(enc, symbols, n), demands, n)
    table = decoding_map(
        pairs,
        lambda profile, a, b: DecodeError(
            f"collision at servers {subset}: color profile {profile} is "
            f"consistent with {a} and {b}; an encoder merged a confusable pair, "
            "or the encoders' colorings, each proper on its own graph, fail jointly"
        ),
    )
    return DecodeTable(subset=subset, n=n, table=table, truth=dict(zip(symbols, demands)))


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

    # outcome of every possible length-n input, computed once; the block
    # counts of i.i.d. inputs are one multinomial draw on the block law
    symbols, masses = _sweep(joint, n)
    if any(w not in table.truth for w in symbols):
        raise ValidationError("decode table was built for a different joint law")
    colors = _colors(encoders, symbols, n)
    pairs, pair_of = _outcomes(colors[subset_rows], [table.truth[w] for w in symbols], n)
    correct = np.array([table.table.get(pr) == out for pr, out in pairs])[pair_of]
    counts = np.random.default_rng(seed).multinomial(trials, masses / masses.sum())
    errors = int(counts[~correct].sum())
    return SimResult(trials, errors, tuple(_rates(colors, counts / trials, n)))


def expected_rates(encoders: Sequence[Encoder], joint: JointPmf, n: int) -> list[float]:
    """Exact per-symbol entropy of each encoder's transmitted color under
    the i.i.d. length-n law (the infinite-trial limit of the empirical
    rate)."""
    if any(e.n != n for e in encoders):
        raise ValidationError("encoders disagree on blocklength")
    symbols, masses = _sweep(joint, n)
    return _rates(_colors(encoders, symbols, n), masses, n)
