"""Entropy minimizers over characteristic graphs.

conditional_graph_entropy minimizes I(X;U|Y) over conditionals P(U|x)
supported on the maximal independent sets containing x, under the Markov
constraint U - X - Y; graph_entropy is the same program with a constant Y
(Orlitsky & Roche 2001), where it reduces to minimizing I(X;U). Both hand
one block loop their blocks and mass columns by vertex id. When Y is a
function of X, as it always is for graph_entropy, the blocks are the
components of each section of Y (graphs.components) and the one column is
the pmf: a block meets one symbol, and each vertex's mass is its mass with
that symbol. Otherwise the whole vertex set is one block, with a column
per symbol of Y. A clique block (graphs.is_clique; a lone vertex costs 0)
is exact with its vertices as parts and enumerates nothing. Any other
block enumerates its MISs once, on its ids in the whole graph, and is
exact when they partition it (graphs.is_complete_multipartite); an
exact block is summed in closed form from its part masses. Only the other
blocks reach _solve, scaled by their mass: one alternating minimization
from several starts on the enumerated family. The acceptance checklist
checks their spread, which certifies nothing: the duality gap can exceed it.
Its first step evaluates the restarts' random starts; each later step
does only the work its iterate needs. A block with one mass column (every
graph_entropy block, and any block whose side symbol is a function of X)
iterates on the (MIS, restart) marginal Q alone, since from the second
step on P(u|x) = Q(u) / D(x) on the MISs u containing x, where D(x) sums
Q over them. Any other
block holds the restarts as one array P[u, r, x] (MIS, restart, vertex),
so that both products are single 2-D matrix products and the reductions
over u run along axis 0. Its update exp(L) needs no max shift and no -inf
barrier: L = log Q @ p(y|x)^T averages logs floored at log 1e-300, so it
lies in [log 1e-300, 0], where exp neither overflows nor underflows, and
a multiply by the mask zeroes the cells off each x's MISs. Both loops
take H(U|X) from the normalizer of the update instead of summing P log P.
The arrays are tiny, so a step's cost is its numpy calls: both loops run
CHUNK steps at a time, each step writing only its iterate's products
into the chunk's arrays, and the objective's logs and sums and the
stopping test run once per chunk over its steps. For the same reason
every operand of a step has the step's own shape, built once per solve
(the mask and p repeated over the restarts): numpy runs a same-shape
operation as one flat loop, while a broadcast one steps through the
broadcast axis at a cost above the arithmetic. The repeated mask is one
more array of the step tensor's size, so SOLVE_CELL_GUARD bounds it too.
Steps a chunk runs past the stop are dropped, so the iterates, step
counts and values are those of a one-step loop. A chunk is shortened so
that its arrays hold at most SOLVE_CELL_GUARD cells. A solve whose
largest tensor, restarts x MIS count x max(|V|, |Y|), would pass
SOLVE_CELL_GUARD is refused before it starts.
chromatic_entropy is graphs.min_partition, one recursion over the
maximal independent sets of the vertices left, memoized on them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import DeskScaleError, ValidationError
from .graphs import (
    EXACT_COLOR_GUARD,
    CharGraph,
    MisFamily,
    components,
    enumerate_mis,
    is_clique,
    is_complete_multipartite,
    min_partition,
)
from .probability import JointPmf, _plog2p, _plog2p_grid

TOL = 1e-9  # stop a restart when its objective improves by less than this
MAX_ITERS = 100_000
RESTARTS = 8  # the first restart starts uniform, the rest at random
SOLVE_CELL_GUARD = 10**6  # max restarts x MIS count x max(|V|, |Y|): a solver step's array
CHUNK = 32  # steps per chunk of the alternation loop, fewer past SOLVE_CELL_GUARD


@dataclass(frozen=True)
class GraphEntropyResult:
    value: float
    iterations: int
    converged: bool
    restart_values: tuple[float, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _mis_mask(mis: MisFamily, n: int) -> np.ndarray:
    """Support mask of P(U|x) on the MISs containing x, shape (n, m)."""
    mask = np.zeros((n, mis.count))
    for u, s in enumerate(mis.sets):
        mask[list(s), u] = 1.0
    return mask


def _partition_cost(part_masses: Sequence[float]) -> float:
    """P(y) H(U | Y = y) = sum_u m_u log2(P(y) / m_u) for the masses m_u of a
    block's parts jointly with one side symbol y: U is then the part of X,
    the only feasible point, where I(X;U|Y) = H(U|Y)."""
    total = math.fsum(part_masses)
    return math.fsum([m * math.log2(total / m) for m in part_masses if m > 0.0])


def _start(mask: np.ndarray) -> np.ndarray:
    """Stack of restart starts on the mask, shape (R, n, m); every allowed
    cell starts strictly positive (a zero cell would be stuck at zero)."""
    stack = np.empty((RESTARTS,) + mask.shape)
    stack[0] = mask
    np.random.default_rng(0).random(out=stack[1:])
    stack[1:] += 1e-3
    stack[1:] *= mask
    return np.divide(stack, stack.sum(axis=2, keepdims=True), out=stack)


def _chunk_length(step_cells: int) -> int:
    """Steps per chunk: CHUNK, or fewer when a chunk's arrays of step_cells
    cells per step would pass SOLVE_CELL_GUARD; at least 1."""
    return max(1, min(CHUNK, SOLVE_CELL_GUARD // step_cells))


def _column_steps(mask: np.ndarray, p_x: np.ndarray, Q: np.ndarray):
    """I(X;U) in nats at each step from the second, one (step, restart)
    array per chunk of steps, for a one-column block whose first step has
    the (MIS, restart) marginal Q. Each iterate from the second is
    P'(u|x) = mask(u, x) Q(u) / D(x) with D = mask @ Q, so Q alone carries
    it: Q' = Q F with F = mask^T @ (p / D). Then
    sum_x p(x) sum_u P' log P' = sum_u Q' log Q - p . log D, and with
    H(U) = -sum_u Q' log Q' this gives I(X;U) = -sum_u Q' log F - p . log D,
    as Q' / Q = F. D(x) >= p(x) > 0, since Q(u) >= p(x) P(u|x) for every u
    that contains x, so F > 0 too: no log of 0 arises. A step stores D, F
    and Q'; the logs and sums run once per chunk. p is divided in as a
    full (vertex, restart) array, not broadcast over the restarts, which
    on these small arrays costs more than the division."""
    n, m = mask.shape
    k = _chunk_length(RESTARTS * (n + 2 * m))
    mask_t = np.ascontiguousarray(mask.T)
    p_col = np.repeat(p_x[:, None], RESTARTS, axis=1)
    p_over_D = np.empty((n, RESTARTS))
    D = np.empty((k, n, RESTARTS))
    F, Qs = np.empty((k, m, RESTARTS)), np.empty((k, m, RESTARTS))
    Qs[-1] = Q
    steps = list(zip(D, F, Qs))
    while True:
        prev = Qs[-1]
        for D_i, F_i, Q_i in steps:
            np.matmul(mask, prev, out=D_i)
            np.divide(p_col, D_i, out=p_over_D)
            np.matmul(mask_t, p_over_D, out=F_i)
            prev = np.multiply(prev, F_i, out=Q_i)
        # Q' log F, in F's cells: the last Q' carries into the next chunk
        np.log(F, out=F)
        F *= Qs
        yield -(p_x @ np.log(D, out=D)) - F.sum(axis=1)


def _general_steps(mask: np.ndarray, W: np.ndarray, p_x: np.ndarray, logQ: np.ndarray):
    """I(X;U|Y) + H(Y) in nats at each step from the second, one (step,
    restart) array per chunk of steps, for the mass matrix W, from the log
    of the first step's (U, Y) joint, rows (u, r). The next iterate is
    P'(u|x) = mask(u, x) exp(L(u, x)) / s(x), with L = log Q @ p(y|x)^T
    and s the normalizing sum. L needs no shift: log Q is floored at
    log 1e-300 and at most 0, and each row of p(y|x) sums to 1, so L lies
    in [log 1e-300, 0] and exp(L) in [1e-300, 1], which neither overflows
    nor underflows; the mask zeroes the cells off the MISs of x. Since
    sum_x p(x) sum_u P' L = sum_{u,y} Q' log Q, the identity
    sum_x p(x) sum_u P' log P' = sum_{u,y} Q' log Q - p . log s holds
    exactly for the same log Q array, and -H(U|X) comes from the
    normalizer, not from P' log P' over the tensor. The floor also keeps
    x log x at 0 where Q underflows. A cell where Q is 0 because no x of u
    meets y weighs nothing: every x of u has p(y|x) = 0 in the update, and
    Q'(u, y) = 0 in the objective. A step stores s, Q' and log Q'; the
    objective's logs and sums run once per chunk. The mask enters as a
    full (MIS, restart, vertex) array, not broadcast over the restarts:
    on these small arrays the broadcast multiply takes about twice as
    long (3.9 against 1.7 us at 20 MISs x 8 restarts x 10 vertices). It
    is one more array of the step tensor's size, within SOLVE_CELL_GUARD.
    s is summed by np.add.reduce, which skips ndarray.sum's Python-level
    wrapper; the reduction is the same."""
    n, m = mask.shape
    ny = W.shape[1]
    rows = m * RESTARTS
    # s, Q' and log Q' per step, and the chunk's log-ratio array
    k = _chunk_length(RESTARTS * n + 3 * rows * ny)
    # p(y|x) as (y, x); every vertex mass is positive
    pyx_t = np.ascontiguousarray((W / p_x[:, None]).T)
    mask_u = np.repeat(mask.T[:, None, :], RESTARTS, axis=1)  # (m, R, n)
    ones_m, ones_y = np.ones(m), np.ones(ny)
    P = np.empty((m, RESTARTS, n))
    P_rows = P.reshape(rows, n)
    s, Q = np.empty((k, RESTARTS, n)), np.empty((k, rows, ny))
    logQs = np.empty((k + 1, rows, ny))  # row 0 carries the previous step's
    logQs[-1] = logQ
    steps = list(zip(logQs[:-1], s, Q, logQs[1:]))
    while True:
        logQs[0] = logQs[-1]
        for logQ_i, s_i, Q_i, logQ_next in steps:
            # geometric-mean update in log space; per-row constants (the p_y
            # normalization of Q) cancel in the normalization below
            np.matmul(logQ_i, pyx_t, out=P_rows)
            np.exp(P, out=P)
            P *= mask_u
            np.add.reduce(P, axis=0, out=s_i)
            P /= s_i
            np.matmul(P_rows, W, out=Q_i)
            np.log(np.maximum(Q_i, 1e-300, out=logQ_next), out=logQ_next)
        # H(U,Y) - H(U|X) = sum_{u,y} Q' log(Q / Q') - p . log s, summed
        # over u and y per restart and step by two matrix products
        Q *= logQs[:-1] - logQs[1:]
        cross = ones_m @ Q.reshape(k, m, RESTARTS * ny)
        yield cross.reshape(k, RESTARTS, ny) @ ones_y - np.log(s, out=s) @ p_x


def _solve(mis: MisFamily, W: np.ndarray) -> GraphEntropyResult:
    """Minimize I(X;U|Y) over P(U|x) supported on the MISs of mis, for the
    (x, y) mass matrix W, whose rows sum to the vertex pmf and whose columns
    all carry positive mass.

    Alternate: Q(u|y) <- sum_x p(x|y) P(u|x), then P(u|x) prop. to the
    geometric mean of Q(.|y) weighted by p(y|x), on the allowed cells.
    Monotone on a convex objective; the restarts' spread certifies nothing,
    as the duality gap can exceed it. Exact blocks are priced in closed form.
    Step 1 evaluates the random starts themselves; every later step takes
    H(U|X) from the normalizer of its update. With one column the geometric
    mean is Q(u) itself, and _column_steps iterates on the (MIS, restart)
    marginal Q alone; otherwise _general_steps holds P[u, r, x]. Both run
    in chunks of steps, and the stopping test reads a chunk at a time: the
    steps a chunk ran past the stop are dropped and not counted.
    """
    neg_h_y = -_plog2p_grid(W.sum(axis=0)).sum()
    mask = _mis_mask(mis, W.shape[0])
    n, m = mask.shape
    ny = W.shape[1]
    if RESTARTS * m * max(n, ny) > SOLVE_CELL_GUARD:
        raise DeskScaleError(
            f"restarts x MIS count x max(|V|, |Y|) = {RESTARTS * m * max(n, ny)} "
            f"passes the {SOLVE_CELL_GUARD} solve guard"
        )
    p_x = W.sum(axis=1)
    # P[u, r, x] = P_r(u|x): with the restarts stacked inside the MIS axis
    # both products are single 2-D GEMMs, and the sum over u runs along
    # axis 0, elementwise across rows
    P = np.ascontiguousarray(_start(mask).transpose(2, 0, 1))
    Q = P.reshape(m * RESTARTS, n) @ W  # joint of (U, Y), rows (u, r)
    logQ = np.log(np.maximum(Q, 1e-300))
    # I(X;U|Y) = H(U|Y) - H(U|X), and H(U|Y) = H(U,Y) - H(Y) since
    # sum_u Q(u,y) = p(y). The 1e-300 floors keep x log x at 0 on the cells
    # of Q that are 0 and on those of P outside the mask
    neg_h_u_given_x = (P * np.log(np.maximum(P, 1e-300))).sum(axis=0) @ p_x
    neg_h_uy = (Q * logQ).reshape(m, RESTARTS, ny).sum(axis=(0, 2))
    if ny == 1:
        later = _column_steps(mask, p_x, Q.reshape(m, RESTARTS))
    else:
        later = _general_steps(mask, W, p_x, logQ)
    inv_ln2 = 1.0 / math.log(2.0)
    objs = np.full(RESTARTS, np.inf)
    pending = np.ones(RESTARTS, dtype=bool)
    it = 0
    # each chunk's I(X;U|Y) + H(Y) in nats, one row per step
    for nats in itertools.chain([(neg_h_u_given_x - neg_h_uy)[None]], later):
        chunk = (nats * inv_ln2 + neg_h_y)[: MAX_ITERS - it]
        # a pending restart stops at its first step that improves by < TOL
        prev = np.concatenate([objs[None], chunk[:-1]])
        crossed = (prev - chunk < TOL) & pending
        hit = crossed.any(axis=0)
        if hit[pending].all():  # stop at the latest of their first crossings
            stop = int(crossed.argmax(axis=0)[pending].max())
            it += stop + 1
            objs = chunk[stop]
            pending[:] = False
            break
        pending &= ~hit
        it += len(chunk)
        objs = chunk[-1]
        if it == MAX_ITERS:
            break
    # the steps the loop ran, not the winning restart's: rounding may pick
    # any of several tied restarts as the winner
    best = int(np.argmin(objs))
    return GraphEntropyResult(
        value=max(float(objs[best]), 0.0),
        iterations=it,
        converged=not pending[best],
        restart_values=tuple(float(v) for v in objs),
    )


def _solve_blocks(
    g: CharGraph, blocks: Iterable[Sequence[int]], columns: Sequence[Sequence[float]]
) -> GraphEntropyResult:
    """sum_B P(B) H_{G[B]}(X|Y) over the blocks B (vertex ids), where each
    column gives every vertex's mass jointly with one symbol of Y: the
    program splits over the sections of a Y that is a function of X
    (Orlitsky & Roche 2001) and, since VP(G1 + G2) = VP(G1) x VP(G2), over
    the components of each. Exact blocks cost _partition_cost per column;
    the others iterate."""
    exact: list[float] = []
    solved: list[tuple[float, GraphEntropyResult]] = []
    for block in blocks:
        if is_clique(g, block):  # each vertex is a part
            parts = [[c[v] for v in block] for c in columns]
        else:
            mis = enumerate_mis(g, block)
            if not is_complete_multipartite(mis, len(block)):
                mass = math.fsum(c[v] for c in columns for v in block)
                W = np.array([[c[v] for c in columns] for v in block]) / mass
                solved.append((mass, _solve(mis, W)))
                continue
            parts = [[math.fsum(c[block[x]] for x in s) for s in mis.sets] for c in columns]
        exact.append(math.fsum(map(_partition_cost, parts)))
    exact_cost = math.fsum(exact)
    if not solved:
        return GraphEntropyResult(exact_cost, 0, True, (exact_cost,) * RESTARTS)
    return GraphEntropyResult(
        value=math.fsum([exact_cost] + [m * r.value for m, r in solved]),
        iterations=max(r.iterations for _, r in solved),
        converged=all(r.converged for _, r in solved),
        # restart k sums exact_cost and the k-th value of every solved block
        restart_values=tuple(map(math.fsum, zip(
            [exact_cost] * RESTARTS, *([m * v for v in r.restart_values] for m, r in solved)
        ))),
    )


def graph_entropy(g: CharGraph) -> GraphEntropyResult:
    """Minimize I(X;U) over P(U|x) with support on MISs containing x: the
    conditional program with a constant side symbol, the one-column mass
    matrix pmf[:, None], solved block by block over the components of g.
    The geometric mean over that one column is Q(u) itself, so each step
    sets P(u|x) prop. to Q(u) on the allowed cells, and every iterative
    block runs on the (MIS, restart) marginal Q alone (_column_steps).
    """
    return _solve_blocks(g, components(g), [g.pmf])


def conditional_graph_entropy(g: CharGraph, joint: JointPmf) -> GraphEntropyResult:
    """Minimize I(X;U|Y) over P(U|x); the Markov chain U - X - Y holds by
    construction since the conditional never depends on y. Y is a function
    of X when each row of the mass matrix has one positive cell."""
    if joint.arity != 2:
        raise ValidationError("conditional entropy needs an arity-2 joint (X, Y)")
    if joint.sizes[0] != g.n:
        raise ValidationError(f"joint X-alphabet {joint.sizes[0]} != vertex count {g.n}")
    rows: list[dict[int, float]] = [{} for _ in range(g.n)]  # the positive cells of each x
    for (x, y), mass in joint.mass.items():
        if mass > 0.0:  # masses are >= 0
            rows[x][y] = mass
    if any(abs(math.fsum(r.values()) - p) > 1e-9 * p for r, p in zip(rows, g.pmf)):
        raise ValidationError("joint's X-marginal does not match the vertex PMF")
    if all(len(r) == 1 for r in rows):
        return _solve_blocks(g, components(g, [next(iter(r)) for r in rows]), [g.pmf])
    ys = sorted({y for r in rows for y in r})  # the symbols with positive mass
    return _solve_blocks(g, [range(g.n)], [[r.get(y, 0.0) for r in rows] for y in ys])


def chromatic_entropy(g: CharGraph) -> float:
    """Exact minimum, over valid colorings, of the entropy of the color of a
    pmf-distributed vertex: graphs.min_partition with cost -m log2 m for a
    class of mass m (color classes and independent-set partitions induce
    the same entropies). That is exact: in an optimal partition, moving a
    vertex from a lighter class into the heaviest never raises
    -sum m log2 m, and the heaviest stays the heaviest, so growing it to a
    maximal independent set keeps the partition optimal.
    """
    if g.n > EXACT_COLOR_GUARD:
        raise DeskScaleError(
            f"|V| = {g.n} exceeds the exact chromatic-entropy guard {EXACT_COLOR_GUARD}"
        )

    def cost(cls: tuple[int, ...]) -> float:
        return _plog2p(math.fsum(g.pmf[v] for v in cls))

    return min_partition(g, range(g.n), cost)[0]
