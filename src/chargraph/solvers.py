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
exact when they partition it, i.e. when it is complete multipartite; an
exact block is summed in closed form from its part masses. Only the other
blocks reach _solve, scaled by their mass: one alternating minimization
with multi-restart certification on the enumerated family.
Each step of it holds the restarts as one array P[u, r, x] (MIS, restart,
vertex), so that both products are single 2-D matrix products and the
reductions over u run along axis 0; the iterates and values are those of
the per-restart einsum loop this layout replaced, up to rounding. A step
whose largest tensor, restarts x MIS count x max(|V|, |Y|), would pass
SOLVE_CELL_GUARD is refused before it starts.
chromatic_entropy is an exact branch-and-bound over independent-set
partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import DeskScaleError, ValidationError
from .graphs import (
    EXACT_COLOR_GUARD,
    SOLVE_CELL_GUARD,
    CharGraph,
    MisFamily,
    components,
    enumerate_mis,
    greedy_coloring,
    is_clique,
)
from .probability import JointPmf

_NEG_BIG = -1e18  # stand-in for log(0) that survives multiplication by weights

TOL = 1e-9  # stop a restart when its objective improves by less than this
MAX_ITERS = 100_000
RESTARTS = 8  # the first restart starts uniform, the rest at random



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


def _partitions(mis: MisFamily, n: int) -> bool:
    """Whether the MISs partition the n vertices, i.e. the graph is complete
    multipartite with the MISs as its parts. Every vertex lies in some MIS,
    so this holds iff the set sizes add up to n."""
    return sum(map(len, mis.sets)) == n


def _partition_cost(part_masses: Sequence[float]) -> float:
    """P(y) H(U | Y = y) = sum_u m_u log2(P(y) / m_u) for the masses m_u of a
    block's parts jointly with one side symbol y: U is then the part of X,
    the only feasible point, where I(X;U|Y) = H(U|Y)."""
    total = math.fsum(part_masses)
    return math.fsum([m * math.log2(total / m) for m in part_masses if m > 0.0])


def _start(mask: np.ndarray) -> np.ndarray:
    """Stack of restart starts on the mask, shape (R, n, m); every allowed
    cell starts strictly positive (a zero cell would be stuck at zero)."""
    rng = np.random.default_rng(0)
    stack = [mask / mask.sum(axis=1, keepdims=True)]
    for _ in range(RESTARTS - 1):
        raw = mask * (rng.random(mask.shape) + 1e-3)
        stack.append(raw / raw.sum(axis=1, keepdims=True))
    return np.stack(stack)


def _xlog2x(a: np.ndarray) -> np.ndarray:
    return a * np.log2(np.where(a > 0, a, 1.0))


def _solve(mis: MisFamily, W: np.ndarray) -> GraphEntropyResult:
    """Minimize I(X;U|Y) over P(U|x) supported on the MISs of mis, for the
    (x, y) mass matrix W, whose rows sum to the vertex pmf and whose columns
    all carry positive mass.

    Alternate: Q(u|y) <- sum_x p(x|y) P(u|x), then P(u|x) prop. to the
    geometric mean of Q(.|y) weighted by p(y|x), on the allowed cells.
    Monotone on a convex objective, so restarts certify the minimum rather
    than hunt for it. Exact blocks are priced in closed form instead.
    """
    neg_h_y = _xlog2x(W.sum(axis=0)).sum()
    mask = _mis_mask(mis, W.shape[0])
    n, m = mask.shape
    ny = W.shape[1]
    if RESTARTS * m * max(n, ny) > SOLVE_CELL_GUARD:
        raise DeskScaleError(
            f"restarts x MIS count x max(|V|, |Y|) = {RESTARTS * m * max(n, ny)} "
            f"passes the {SOLVE_CELL_GUARD} solve guard"
        )
    p_x = W.sum(axis=1)
    pyx_t = (W / p_x[:, None]).T  # p(y|x) as (y, x); every vertex mass is positive
    # P[u, r, x] = P_r(u|x): with the restarts stacked inside the MIS axis
    # both products are single 2-D GEMMs, and the max and the sum over u run
    # along axis 0, elementwise across rows
    P = np.ascontiguousarray(_start(mask).transpose(2, 0, 1))
    barrier = np.where(mask.T > 0, 0.0, -np.inf)[:, None, :]  # (m, 1, n)
    inv_ln2 = 1.0 / math.log(2.0)
    objs = np.full(RESTARTS, np.inf)
    pending = np.ones(RESTARTS, dtype=bool)
    for it in range(1, MAX_ITERS + 1):
        Q = P.reshape(m * RESTARTS, n) @ W  # joint of (U, Y), rows (u, r)
        logQ = np.log(np.maximum(Q, 1e-300))
        if not Q.all():  # no x in u meets y, or P underflowed on all that do
            logQ[Q == 0] = _NEG_BIG
        # I(X;U|Y) = H(U|Y) - H(U|X), and H(U|Y) = H(U,Y) - H(Y) since
        # sum_u Q(u,y) = p(y); both sums are in nats. An allowed cell of P
        # may underflow to 0, and the 1e-300 floor keeps x log x at 0 there
        neg_h_u_given_x = (P * np.log(np.maximum(P, 1e-300))).sum(axis=0) @ p_x
        neg_h_uy = (Q * logQ).reshape(m, RESTARTS, ny).sum(axis=(0, 2))
        new_objs = neg_h_u_given_x * inv_ln2 - (neg_h_uy * inv_ln2 - neg_h_y)
        newly = pending & (objs - new_objs < TOL)
        objs = new_objs
        if newly.any():
            pending &= ~newly
            if not pending.any():
                break
        # geometric-mean update in log space; per-row constants (the p_y
        # normalization of Q) cancel in the normalization below
        L = (logQ @ pyx_t).reshape(m, RESTARTS, n)
        L += barrier
        L -= L.max(axis=0)  # max sits on an allowed cell, so finite
        P = np.exp(L, out=L)
        P /= P.sum(axis=0)
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
            if not _partitions(mis, len(block)):
                mass = math.fsum(c[v] for c in columns for v in block)
                W = np.array([[c[v] for c in columns] for v in block]) / mass
                solved.append((mass, _solve(mis, W)))
                continue
            parts = [[math.fsum(c[block[x]] for x in s) for s in mis.sets] for c in columns]
        exact.append(math.fsum(map(_partition_cost, parts)))
    exact_cost = math.fsum(exact)
    return GraphEntropyResult(
        value=math.fsum([exact_cost] + [m * r.value for m, r in solved]),
        iterations=max((r.iterations for _, r in solved), default=0),
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
    sets P(u|x) prop. to Q(u) on the allowed cells.
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
    if max(abs(math.fsum(r.values()) - p) for r, p in zip(rows, g.pmf)) > 1e-9:
        raise ValidationError("joint's X-marginal does not match the vertex PMF")
    if all(len(r) == 1 for r in rows):
        return _solve_blocks(g, components(g, [next(iter(r)) for r in rows]), [g.pmf])
    ys = sorted({y for r in rows for y in r})  # the symbols with positive mass
    return _solve_blocks(g, [range(g.n)], [[r.get(y, 0.0) for r in rows] for y in ys])


def chromatic_entropy(g: CharGraph) -> float:
    """Exact minimum, over valid colorings, of the entropy of the color of a
    pmf-distributed vertex; branch and bound over independent-set partitions
    (color classes and independent-set partitions induce the same entropies).
    """
    if g.n > EXACT_COLOR_GUARD:
        raise DeskScaleError(
            f"|V| = {g.n} exceeds the exact chromatic-entropy guard {EXACT_COLOR_GUARD}"
        )
    p = g.pmf

    best = _partition_entropy(np.bincount(greedy_coloring(g), weights=p).tolist())

    classes: list[set[int]] = []
    masses: list[float] = []

    def lower_bound(remaining: float) -> float:
        # later vertices can never merge existing classes, and entropy is
        # concave in how the remaining mass is spread, so dumping it all on
        # a single existing class bounds every completion from below
        return min(
            _partition_entropy(
                m + (remaining if i == j else 0.0) for j, m in enumerate(masses)
            )
            for i in range(len(masses))
        )

    def descend(v: int, remaining: float) -> None:
        nonlocal best
        if v == g.n:
            best = min(best, _partition_entropy(masses))
            return
        if masses and lower_bound(remaining) >= best - 1e-15:
            return
        for i, cls in enumerate(classes):
            if g.neighbors[v] & cls:
                continue
            cls.add(v)
            masses[i] += p[v]
            descend(v + 1, remaining - p[v])
            masses[i] -= p[v]
            cls.remove(v)
        classes.append({v})
        masses.append(p[v])
        descend(v + 1, remaining - p[v])
        classes.pop()
        masses.pop()

    descend(0, 1.0)
    return best


def _partition_entropy(masses) -> float:
    return -math.fsum(m * math.log2(m) for m in masses if m > 0)
