"""Entropy solvers: alternating minimization and the exact chromatic bound.

Frozen constants come from tests/oracles/gen_frozen.py (independent
enumeration over partitions / closed forms, no package code).
"""

import importlib.util
import json
import math
import random
import sys
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chargraph import graphs, solvers
from chargraph.errors import DeskScaleError, ValidationError
from chargraph.functions import GeneralTable, evaluate_demand
from chargraph.graphs import (
    MIS_CELL_GUARD,
    build_char_graph,
    enumerate_mis,
    is_complete_multipartite,
    make_graph,
    or_power,
)
from chargraph.probability import JointPmf, binary_entropy
from chargraph.solvers import (
    SOLVE_CELL_GUARD,
    chromatic_entropy,
    conditional_graph_entropy,
    graph_entropy,
)
from chargraph.topology import Topology, cyclic_placement
from graph_strategies import complete_multipartite, induced_subgraph

CHROMATIC_TERNARY_UNIFORM = 0.918295834054490
CHROMATIC_TERNARY_SKEWED = 0.721928094887362
CHROMATIC_C5 = 1.360964047443681

TERNARY_CONDITIONAL = 0.5408520829727552  # (2/3) * h(1/4)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def ternary_graph(masses=(1 / 3, 1 / 3, 1 / 3)):
    return make_graph(dict(zip((1, 2, 3), masses)), [(1, 3)])


def distinct_pair_joint():
    """(X, Y) uniform over the six ordered distinct pairs of a ternary
    alphabet; the X-section must separate the outer symbols."""
    mass = {
        (x, y): 1 / 6 for x in range(3) for y in range(3) if x != y
    }
    return JointPmf((3, 3), mass)


class TestGraphEntropy:
    def test_ternary_example(self):
        res = graph_entropy(ternary_graph())
        assert res.converged
        assert res.value == pytest.approx(2 / 3, abs=1e-6)

    def test_ternary_restart_agreement(self):
        res = graph_entropy(ternary_graph())
        spread = max(res.restart_values) - min(res.restart_values)
        assert spread < 1e-6

    def test_matches_direct_alternation(self):
        # graph_entropy runs the conditional loop with a constant side symbol,
        # one connected component at a time; the reference is the direct
        # update P(u|x) prop. to Q(u) from each component's own starts under
        # the same stopping rule, summed with the component masses as weights
        def xlog2x(a):
            return a * np.log2(np.where(a > 0, a, 1.0))

        def components(n, edges):
            root = list(range(n))

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for i, j in edges:
                root[find(i)] = find(j)
            groups = {}
            for v in range(n):
                groups.setdefault(find(v), []).append(v)
            return list(groups.values())

        # the reported steps are the most any iterative component ran;
        # complete multipartite components (cliques and lone vertices among
        # them) are summed in closed form and run none
        rng = random.Random(7)
        split_and_iterated = 0
        for i in range(20):
            # ten random graphs, then ten disjoint unions of two 3-5-vertex
            # random graphs, whose parts may each iterate
            if i < 10:
                n = rng.randint(2, 7)
                edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            else:
                n, edges = 0, []
                for size in (rng.randint(3, 5), rng.randint(3, 5)):
                    part = combinations(range(n, n + size), 2)
                    edges += [e for e in part if rng.random() < 0.6]
                    n += size
            g = make_graph({v: rng.uniform(0.05, 1.0) for v in range(n)}, edges)
            want = np.zeros(solvers.RESTARTS)
            want_steps = []
            blocks = components(g.n, g.edges)
            for block in blocks:
                sub = induced_subgraph(g, block)
                p = np.asarray(sub.pmf)
                mis = enumerate_mis(sub)
                mask = solvers._mis_mask(mis, sub.n)
                P = solvers._start(mask)
                objs = np.full(solvers.RESTARTS, np.inf)
                done = np.zeros(solvers.RESTARTS, dtype=bool)
                steps = 0
                while not done.all():
                    steps += 1
                    Q = np.einsum("x,rxu->ru", p, P)
                    new_objs = np.einsum("x,rxu->r", p, xlog2x(P)) - xlog2x(Q).sum(axis=1)
                    done |= objs - new_objs < solvers.TOL
                    objs = new_objs
                    P = mask[None, :, :] * Q[:, None, :]
                    P /= P.sum(axis=2, keepdims=True)
                want += sum(g.pmf[v] for v in block) * objs
                if not is_complete_multipartite(mis, sub.n):
                    want_steps.append(steps)
            got = graph_entropy(g)
            assert got.restart_values == pytest.approx(tuple(want), abs=1e-12)
            assert got.iterations == max(want_steps, default=0)
            split_and_iterated += len(blocks) > 1 and bool(want_steps)
        assert split_and_iterated >= 5

    def test_edgeless_graph_is_free(self):
        g = make_graph({v: 0.25 for v in range(4)}, [])
        assert graph_entropy(g).value == pytest.approx(0.0, abs=1e-9)

    def test_complete_graph_pays_full_entropy(self):
        g = make_graph(
            {0: 0.5, 1: 0.25, 2: 0.25}, [(0, 1), (0, 2), (1, 2)]
        )
        assert graph_entropy(g).value == pytest.approx(1.5, abs=1e-6)

    def test_uniform_clique_is_log_size(self):
        g = make_graph(
            {v: 0.25 for v in range(4)},
            [(i, j) for i in range(4) for j in range(i + 1, 4)],
        )
        assert graph_entropy(g).value == pytest.approx(2.0, abs=1e-6)

    def test_result_json(self):
        obj = graph_entropy(ternary_graph()).to_json()
        assert set(obj) == {"value", "converged", "iterations"}
        assert obj["converged"] is True


class TestComponentAdditivity:
    def test_union_is_mass_weighted_sum_over_components(self):
        # VP(G1 + G2) = VP(G1) x VP(G2), so on a disjoint union
        # H_G(P) = sum_C P(C) H_{G[C]}(P|C) over the connected components C
        rng = random.Random(20240611)
        for _ in range(20):
            masses, edges, components = {}, [], []
            offset = 0
            for _ in range(rng.choice((2, 3))):
                size = rng.randint(1, 4)
                part = {offset + v: rng.uniform(0.05, 1.0) for v in range(size)}
                # a random spanning tree keeps the part connected
                part_edges = {(offset + rng.randrange(v), offset + v) for v in range(1, size)}
                part_edges |= {
                    (offset + i, offset + j)
                    for i, j in combinations(range(size), 2)
                    if rng.random() < 0.4
                }
                masses.update(part)
                edges += part_edges
                components.append((part, part_edges))
                offset += size
            total = sum(masses.values())
            want = sum(
                sum(part.values()) / total * graph_entropy(make_graph(part, part_edges)).value
                for part, part_edges in components
            )
            got = graph_entropy(make_graph(masses, edges)).value
            assert got == pytest.approx(want, abs=1e-6)


class TestExactBlocks:
    def test_product_laws_give_forced_graphs(self):
        # under a full-support product law every completion meets every local
        # tuple, so x ~ x' exactly when x -> f(x, .) differs: the graph is
        # complete multipartite, its MISs are the classes of that map, and
        # H_G is the entropy of the class, reached with no iteration
        rng = random.Random(20240707)
        checked = 0
        for _ in range(12):
            q, n = rng.choice(((2, 3), (2, 4), (3, 3)))
            nr = rng.randint(2, n - 1)
            t = Topology(n=n, k=n, kc=rng.randint(1, 2), m=n - nr + 1, nr=nr)
            p = cyclic_placement(t)
            tables = tuple(
                tuple(rng.randrange(q) for _ in range(q**n)) for _ in range(t.kc)
            )
            d = GeneralTable(q=q, k=n, tables=tables)
            marginals = []
            for _ in range(n):
                raw = [rng.uniform(0.05, 1.0) for _ in range(q)]
                marginals.append([v / sum(raw) for v in raw])
            cube = list(product(range(q), repeat=n))
            joint = JointPmf(
                (q,) * n, {w: math.prod(marginals[c][w[c]] for c in range(n)) for w in cube}
            )
            for i in range(1, n + 1):
                zone = p.zone0(i)
                classes = {}
                for x in product(range(q), repeat=len(zone)):
                    signature = tuple(
                        evaluate_demand(d, w)
                        for w in cube
                        if tuple(w[c] for c in zone) == x
                    )
                    mass = math.prod(marginals[c][v] for c, v in zip(zone, x))
                    classes[signature] = classes.get(signature, 0.0) + mass
                want = -math.fsum(m * math.log2(m) for m in classes.values())
                res = graph_entropy(build_char_graph(d, p, joint, i))
                assert res.iterations == 0 and res.converged
                assert res.value == pytest.approx(want, abs=1e-12)
                checked += 1
        assert checked > 12

    def test_sections_match_whole_graph(self):
        # with Y a function of X the program splits over the sections of Y
        # and their components; edges between sections are ignored there,
        # and the whole-graph program reaches the same optimum
        rng = random.Random(20240708)
        worst = 0.0
        for _ in range(150):
            n = rng.randint(2, 8)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = make_graph({v: rng.uniform(0.05, 1.0) for v in range(n)}, edges)
            side = [rng.randrange(2) for _ in range(n)]
            W = np.zeros((n, 2))
            W[np.arange(n), side] = g.pmf
            joint = JointPmf((n, 2), {(x, side[x]): g.pmf[x] for x in range(n)})
            got = conditional_graph_entropy(g, joint).value
            whole = solvers._solve(enumerate_mis(g), W[:, W.sum(axis=0) > 0]).value
            worst = max(worst, abs(got - whole))
        assert worst < 1e-6


def counting_mis(monkeypatch):
    """Count the solver's calls of enumerate_mis."""
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_mis(*args)

    monkeypatch.setattr(solvers, "enumerate_mis", counted)
    return calls


class TestPartitionBlocks:
    @settings(max_examples=60, deadline=None)
    @given(complete_multipartite(), st.integers(1, 3), st.data())
    def test_closed_form_matches_iteration(self, case, ny, data):
        # the MISs of a complete multipartite graph are its parts: the
        # closed form reports no iteration and agrees with the loop, for a
        # constant side symbol and for a general side law alike
        g, parts = case
        mis = enumerate_mis(g)
        assert is_complete_multipartite(mis, g.n)
        exact = graph_entropy(g)
        looped = solvers._solve(mis, np.asarray(g.pmf)[:, None])
        assert exact.iterations == 0 and looped.iterations > 0
        assert abs(exact.value - looped.value) <= 1e-9
        index = {label: v for v, label in enumerate(g.vertices)}
        part_mass = [math.fsum(g.pmf[index[label]] for label in part) for part in parts]
        assert exact.value == pytest.approx(-math.fsum(m * math.log2(m) for m in part_mass), abs=1e-12)

        rows = np.array(
            [data.draw(st.lists(st.floats(0.05, 1.0), min_size=ny, max_size=ny)) for _ in range(g.n)]
        )
        W = np.asarray(g.pmf)[:, None] * rows / rows.sum(axis=1, keepdims=True)
        joint = JointPmf((g.n, ny), {(x, y): W[x, y] for x in range(g.n) for y in range(ny)})
        exact = conditional_graph_entropy(g, joint)
        looped = solvers._solve(mis, W)
        assert exact.iterations == 0 and looped.iterations > 0
        assert abs(exact.value - looped.value) <= 1e-9

    def test_other_blocks_iterate_and_enumerate_once(self, monkeypatch):
        # the path 0-1-2-3 puts vertex 0 in two MISs, {0, 2} and {0, 3}
        p4 = make_graph({0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}, [(0, 1), (1, 2), (2, 3)])
        assert not is_complete_multipartite(enumerate_mis(p4), p4.n)
        calls = counting_mis(monkeypatch)
        assert graph_entropy(p4).iterations > 0
        assert len(calls) == 1
        joint = JointPmf((4, 2), {(x, y): p4.pmf[x] / 2 for x in range(4) for y in range(2)})
        assert conditional_graph_entropy(p4, joint).iterations > 0
        assert len(calls) == 2
        # the path 0-1-2 inside section 0, with the cross-section edges 0-3
        # and 2-4: every vertex of the block has degree 2 = |B| - 1, yet it
        # is the star with parts {1} and {0, 2}, so it enumerates once and
        # is exact; the lone vertices 3 and 4 of section 1 enumerate nothing
        star = make_graph(
            {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.15, 4: 0.25}, [(0, 1), (1, 2), (0, 3), (2, 4)]
        )
        side = (0, 0, 0, 1, 1)
        joint = JointPmf((5, 2), {(x, side[x]): star.pmf[x] for x in range(5)})
        res = conditional_graph_entropy(star, joint)
        assert res.iterations == 0 and len(calls) == 3
        parts = (star.pmf[1], star.pmf[0] + star.pmf[2])
        want = math.fsum(m * math.log2(sum(parts) / m) for m in parts)
        assert res.value == pytest.approx(want, abs=1e-15)

    def test_lone_vertices_cost_nothing_and_enumerate_nothing(self, monkeypatch):
        # two sections of Y, one vertex each once the cross edge is dropped
        g = make_graph({0: 0.5, 1: 0.5}, [(0, 1)])
        calls = counting_mis(monkeypatch)
        res = conditional_graph_entropy(g, JointPmf((2, 2), {(0, 0): 0.5, (1, 1): 0.5}))
        assert res.value == 0.0 and res.iterations == 0 and calls == []
        # a lone vertex is the one-vertex clique; an edge and a triangle are
        # cliques too, priced from their vertex masses with no enumeration
        for masses in ((0.25, 0.75), (0.5, 0.3, 0.2)):
            clique = make_graph(dict(enumerate(masses)), combinations(range(len(masses)), 2))
            res = graph_entropy(clique)
            want = -math.fsum(m * math.log2(m) for m in masses)
            assert res.value == pytest.approx(want, abs=1e-15) and res.iterations == 0
        assert calls == []


class TestConditionalGraphEntropy:
    def test_distinct_pair_example(self):
        res = conditional_graph_entropy(ternary_graph(), distinct_pair_joint())
        assert res.converged
        assert res.value == pytest.approx(TERNARY_CONDITIONAL, abs=1e-6)

    def test_side_information_helps(self):
        plain = graph_entropy(ternary_graph()).value
        cond = conditional_graph_entropy(
            ternary_graph(), distinct_pair_joint()
        ).value
        assert cond <= plain + 1e-9

    def test_independent_side_information_is_useless(self):
        mass = {(x, y): (1 / 3) * 0.5 for x in range(3) for y in range(2)}
        joint = JointPmf((3, 2), mass)
        res = conditional_graph_entropy(ternary_graph(), joint)
        assert res.value == pytest.approx(2 / 3, abs=1e-6)

    def test_revealing_side_information_is_free(self):
        # Y = X almost surely: nothing left to transmit
        mass = {(x, x): 1 / 3 for x in range(3)}
        joint = JointPmf((3, 3), mass)
        res = conditional_graph_entropy(ternary_graph(), joint)
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_rejects_bad_joint(self):
        g = ternary_graph()
        with pytest.raises(ValidationError):
            conditional_graph_entropy(g, JointPmf((3,), {(0,): 0.4, (1,): 0.6}))
        with pytest.raises(ValidationError):
            conditional_graph_entropy(
                g, JointPmf((2, 2), {(0, 0): 0.5, (1, 1): 0.5})
            )
        skew = JointPmf(
            (3, 2), {(0, 0): 0.5, (1, 0): 0.25, (2, 1): 0.25}
        )  # X-marginal (0.5, 0.25, 0.25) != uniform vertex pmf
        with pytest.raises(ValidationError):
            conditional_graph_entropy(g, skew)


def einsum_solve(g, W, max_iters=None):
    """The alternation loop as it was written before the 2-D GEMM layout,
    one einsum per product over a (restart, vertex, MIS) stack, one step at
    a time, for at most max_iters steps (default solvers.MAX_ITERS);
    returns (restart values, steps run, whether the best restart
    converged)."""

    def xlog2x(a):
        return a * np.log2(np.where(a > 0, a, 1.0))

    neg_h_y = xlog2x(W.sum(axis=0)).sum()
    mask = solvers._mis_mask(enumerate_mis(g), g.n)
    p_x = W.sum(axis=1)
    pyx = W / p_x[:, None]
    P = solvers._start(mask)
    allowed = mask > 0
    objs = np.full(solvers.RESTARTS, np.inf)
    conv_iter = np.full(solvers.RESTARTS, -1, dtype=int)
    for it in range(1, (max_iters or solvers.MAX_ITERS) + 1):
        Quy = np.einsum("rxu,xy->ruy", P, W)
        neg_h_u_given_x = np.einsum("x,rxu->r", p_x, xlog2x(P))
        neg_h_u_given_y = xlog2x(Quy).sum(axis=(1, 2)) - neg_h_y
        new_objs = neg_h_u_given_x - neg_h_u_given_y
        newly = (objs - new_objs < solvers.TOL) & (conv_iter < 0)
        conv_iter[newly] = it
        objs = new_objs
        if np.all(conv_iter >= 0):
            break
        logQ = np.where(Quy > 0, np.log(np.maximum(Quy, 1e-300)), -1e18)
        L = np.einsum("xy,ruy->rxu", pyx, logQ)
        L = np.where(allowed[None, :, :], L, -np.inf)
        L -= L.max(axis=2, keepdims=True)
        P = np.exp(L)
        P /= P.sum(axis=2, keepdims=True)
    best = int(np.argmin(objs))
    return objs, it, bool(conv_iter[best] >= 0)


class TestIterativeKernel:
    def test_matches_einsum_loop_with_side_columns(self):
        # the conditional program on whole graphs with 1-3 side columns, which
        # the block-by-block paths never reach: the same iterates as the
        # einsum loop, up to rounding. Every other law has zero cells, as in
        # configs/ternary_conditional.json, so that in many of them some MIS
        # u meets no x of some symbol y: Q(u, y) = 0, and the floored
        # log Q there sits in the array that both the update and the
        # H(U|X) taken from its normalizer read, weighted by zeros
        rng = random.Random(20261018)
        checked = zero_joint_cells = 0
        while checked < 80:
            n = rng.randint(2, 8)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = make_graph({v: rng.uniform(0.05, 1.0) for v in range(n)}, edges)
            mis = enumerate_mis(g)
            if is_complete_multipartite(mis, g.n):
                continue  # complete multipartite: closed form, no loop
            sparse = checked % 2 == 1
            ny = 2 + checked % 4 // 2 if sparse else 1 + checked % 3
            rows = np.array([
                [0.0 if sparse and rng.random() < 0.4 else rng.uniform(0.05, 1.0) for _ in range(ny)]
                for _ in range(n)
            ])
            if not (rows.any(axis=1).all() and rows.any(axis=0).all()):
                continue  # every vertex and every side symbol carries mass
            W = np.asarray(g.pmf)[:, None] * rows / rows.sum(axis=1, keepdims=True)
            zero_joint_cells += any(
                not W[list(u), y].any() for u in mis.sets for y in range(ny)
            )
            got = solvers._solve(mis, W)
            objs, iterations, converged = einsum_solve(g, W)
            assert got.iterations == iterations and got.converged == converged
            assert got.restart_values == pytest.approx(tuple(objs), abs=1e-12)
            assert got.value == pytest.approx(max(objs.min(), 0.0), abs=1e-12)
            checked += 1
        assert zero_joint_cells >= 10

    def test_matches_einsum_loop_on_disjoint_unions_with_side_columns(self):
        # with a general Y the whole graph is one block, so a disjoint union
        # of connected parts is solved whole: its MIS family is the product
        # of the parts' (up to 16 sets here). Every other law has zero cells
        rng = random.Random(20261020)
        checked = most_sets = 0
        while checked < 12:
            n, edges = 0, []
            for size in [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]:
                # a random spanning tree and some chords: a connected part
                edges += [(n + v, n + rng.randrange(v)) for v in range(1, size)]
                edges += [(n + a, n + b) for a, b in combinations(range(size), 2) if rng.random() < 0.3]
                n += size
            g = make_graph({v: rng.uniform(0.05, 1.0) for v in range(n)}, edges)
            mis = enumerate_mis(g)
            sparse = checked % 2 == 1
            ny = rng.randint(2, 3)
            rows = np.array([
                [0.0 if sparse and rng.random() < 0.4 else rng.uniform(0.05, 1.0) for _ in range(ny)]
                for _ in range(n)
            ])
            if not (rows.any(axis=1).all() and rows.any(axis=0).all()):
                continue  # every vertex and every side symbol carries mass
            W = np.asarray(g.pmf)[:, None] * rows / rows.sum(axis=1, keepdims=True)
            got = solvers._solve(mis, W)
            objs, iterations, converged = einsum_solve(g, W)
            assert got.iterations == iterations and got.converged == converged
            assert got.restart_values == pytest.approx(tuple(objs), abs=1e-12)
            checked += 1
            most_sets = max(most_sets, mis.count)
        assert most_sets >= 12

    @pytest.mark.parametrize("columns", [1, 2])
    def test_chunk_edges_match_einsum_loop(self, columns, monkeypatch):
        # after step 1 the loop runs CHUNK steps at a time and reads the
        # stopping rule per chunk. Capped by MAX_ITERS on either side of a
        # chunk's edges, and stopping on its own on the first or the last
        # step of a chunk, it reports what the one-step einsum loop does.
        # One column is graph_entropy's path, two side columns the general one
        p4 = make_graph({0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}, [(0, 1), (1, 2), (2, 3)])
        split = np.array([[0.3, 0.7], [0.6, 0.4], [0.2, 0.8], [0.5, 0.5]])[:, :columns]
        W = np.asarray(p4.pmf)[:, None] * split / split.sum(axis=1, keepdims=True)
        mis = enumerate_mis(p4)

        def solve():
            return graph_entropy(p4) if columns == 1 else solvers._solve(mis, W)

        def check(max_iters=None):
            got = solve()
            objs, iterations, converged = einsum_solve(p4, W, max_iters)
            assert got.iterations == iterations and got.converged == converged
            assert got.restart_values == pytest.approx(tuple(objs), abs=1e-12)
            return got.iterations

        natural = check()
        chunk = solvers.CHUNK
        assert natural > chunk + 2
        for cap in (1, 2, chunk - 1, chunk, chunk + 1, chunk + 2):
            monkeypatch.setattr(solvers, "MAX_ITERS", cap)
            assert check(cap) == cap
        monkeypatch.undo()
        # chunks [1], [2, natural - 1], [natural, ...]; then [1], [2, natural]
        for length in (natural - 2, natural - 1):
            monkeypatch.setattr(solvers, "CHUNK", length)
            assert check() == natural

    def test_chunks_stay_within_the_solve_guard(self, monkeypatch):
        # 7 disjoint triangles and a vertex adjacent to all of them, with two
        # side columns: 3^7 + 1 MISs, a step tensor of 8 x 2,188 x 22 cells,
        # just inside the guard. A chunk stores about 105,000 cells per step,
        # so it runs 9 steps, not CHUNK = 32 (whose arrays took a 36 MB
        # peak); the peak is the chunk's arrays, at most SOLVE_CELL_GUARD
        # cells, and a few step tensors (the restarts' start stack)
        edges = [(3 * t + a, 3 * t + b) for t in range(7) for a, b in ((0, 1), (0, 2), (1, 2))]
        g = make_graph({v: 1 / 22 for v in range(22)}, edges + [(21, v) for v in range(21)])
        mis = enumerate_mis(g)
        tensor = solvers.RESTARTS * mis.count * g.n
        assert mis.count == 3**7 + 1 and tensor <= SOLVE_CELL_GUARD
        W = np.asarray(g.pmf)[:, None] * np.array([[0.25, 0.75], [0.75, 0.25]])[np.arange(22) % 2]
        monkeypatch.setattr(solvers, "MAX_ITERS", 3)
        tracemalloc.start()
        try:
            res = solvers._solve(mis, W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations == 3
        assert peak <= 8 * (SOLVE_CELL_GUARD + 4 * tensor)

    def test_solve_guard_refuses_before_the_first_step(self, monkeypatch):
        # 8 disjoint triangles and a vertex adjacent to all of them: connected,
        # 3^8 + 1 maximal independent sets, within the MIS cell guard but a
        # step tensor of 8 x 6,562 x 25 cells
        edges = [(3 * t + a, 3 * t + b) for t in range(8) for a, b in ((0, 1), (0, 2), (1, 2))]
        g = make_graph({v: 1 / 25 for v in range(25)}, edges + [(24, v) for v in range(24)])
        m = enumerate_mis(g).count
        assert m == 3**8 + 1 and g.n * m <= MIS_CELL_GUARD
        assert solvers.RESTARTS * m * g.n > SOLVE_CELL_GUARD

        def no_start(mask):
            raise AssertionError("the guard must refuse before the restarts start")

        monkeypatch.setattr(solvers, "_start", no_start)
        with pytest.raises(DeskScaleError, match="solve guard"):
            graph_entropy(g)

    def test_entropy_graphs_match_benchmark_references(self):
        # the benchmark's 112 entropy-graphs instances, drawn by its own
        # generators, against its frozen references
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up
        try:
            spec.loader.exec_module(workloads)
        finally:
            del sys.modules[spec.name]
        refs = json.loads((PERFBENCH / "refs" / "entropy-graphs.json").read_text())
        instances = workloads.connected_graphs() + workloads.union_graphs()
        assert sorted(item_id for item_id, _, _ in instances) == sorted(refs)
        assert len(instances) == 112
        for item_id, g, joint in instances:
            ref = refs[item_id]
            assert graph_entropy(g).value == pytest.approx(ref["H"], abs=1e-6), item_id
            got = conditional_graph_entropy(g, joint).value
            assert got == pytest.approx(ref["H_cond"], abs=1e-6), item_id
            assert chromatic_entropy(g) == pytest.approx(ref["chromatic"], abs=1e-6), item_id


class TestChromaticEntropy:
    def test_ternary_uniform(self):
        assert chromatic_entropy(ternary_graph()) == pytest.approx(
            CHROMATIC_TERNARY_UNIFORM, abs=1e-12
        )

    def test_ternary_skewed(self):
        g = ternary_graph(masses=(0.5, 0.3, 0.2))
        assert chromatic_entropy(g) == pytest.approx(
            CHROMATIC_TERNARY_SKEWED, abs=1e-12
        )

    def test_five_cycle(self):
        c5 = make_graph(
            {v: m for v, m in enumerate((0.1, 0.15, 0.2, 0.25, 0.3))},
            [(v, (v + 1) % 5) for v in range(5)],
        )
        assert chromatic_entropy(c5) == pytest.approx(CHROMATIC_C5, abs=1e-12)

    def test_upper_bounds_graph_entropy(self):
        for g in [
            ternary_graph(),
            ternary_graph(masses=(0.5, 0.3, 0.2)),
            or_power(ternary_graph(), 2),
        ]:
            assert graph_entropy(g).value <= chromatic_entropy(g) + 1e-9

    def test_edgeless_graph_is_free(self):
        g = make_graph({v: 0.25 for v in range(4)}, [])
        assert chromatic_entropy(g) == pytest.approx(0.0, abs=1e-12)

    def test_complete_graph_pays_full_entropy(self):
        g = make_graph({0: 0.75, 1: 0.25}, [(0, 1)])
        assert chromatic_entropy(g) == pytest.approx(binary_entropy(0.25))

    def test_guard_size_graphs_enumerate_each_remainder_once(self, monkeypatch):
        # 12 vertices, uniform masses: 3K4 is colored by 4 classes of one
        # vertex per K4, and the complement of C12 by 6 cycle edges
        n = 12
        ring = {frozenset((v, (v + 1) % n)) for v in range(n)}
        three_k4 = make_graph(
            {v: 1.0 for v in range(n)},
            [(a, b) for a, b in combinations(range(n), 2) if a // 4 == b // 4],
        )
        co_ring = make_graph(
            {v: 1.0 for v in range(n)},
            [e for e in combinations(range(n), 2) if frozenset(e) not in ring],
        )
        seen = []

        def counting(g, vs=None):
            seen.append(tuple(vs))
            return enumerate_mis(g, vs)

        monkeypatch.setattr(graphs, "enumerate_mis", counting)
        for g, want in ((three_k4, 2.0), (co_ring, math.log2(6))):
            seen.clear()
            assert chromatic_entropy(g) == pytest.approx(want, abs=1e-12)
            assert seen and len(seen) == len(set(seen))  # one enumeration per remainder

    def test_guard(self):
        big = make_graph({v: 1.0 / 13 for v in range(13)}, [])
        with pytest.raises(DeskScaleError):
            chromatic_entropy(big)
