"""Characteristic graph construction, OR powers, MIS enumeration, colorings.

Frozen constants were computed by the standalone enumerators in
tests/oracles/gen_frozen.py, which share no code with the package.
"""

import math
import random
import sys
from itertools import combinations

import pytest

from chargraph import graphs
from chargraph.errors import DeskScaleError, ValidationError
from chargraph.functions import LinearlySeparable
from chargraph.graphs import (
    MIS_CELL_GUARD,
    CharGraph,
    build_char_graph,
    confusability_graph,
    enumerate_mis,
    exact_min_coloring,
    greedy_coloring,
    make_graph,
    or_power,
    support_items,
    validate_coloring,
)
from chargraph.probability import JointPmf, iid_bernoulli_joint
from chargraph.solvers import graph_entropy
from chargraph.topology import Topology, cyclic_placement

TERNARY_SQUARE_EDGE_COUNT = 16
TERNARY_SQUARE_MIN_COLORS = 4


def ternary_graph() -> CharGraph:
    """Uniform ternary source where only the outer pair must be told apart."""
    return make_graph({1: 1 / 3, 2: 1 / 3, 3: 1 / 3}, [(1, 3)])


def scenario_ii():
    t = Topology(n=3, k=3, kc=2, m=2, nr=2)
    p = cyclic_placement(t)
    d = LinearlySeparable(q=2, gamma=((0, 1, 0), (0, 1, 1)))
    joint = iid_bernoulli_joint(3, 0.3)
    return t, p, d, joint


def disjoint_triangles(count: int) -> CharGraph:
    nv = 3 * count
    return make_graph(
        {v: 1.0 / nv for v in range(nv)},
        [(3 * t + a, 3 * t + b) for t in range(count) for a, b in ((0, 1), (0, 2), (1, 2))],
    )


def label_edges(g: CharGraph) -> set[frozenset]:
    return {frozenset((g.vertices[i], g.vertices[j])) for i, j in g.edges}


class TestCharGraph:
    def test_validation(self):
        none = (frozenset(), frozenset())
        with pytest.raises(ValidationError, match="at least one vertex"):
            CharGraph(vertices=(), neighbors=(), pmf=())
        with pytest.raises(ValidationError, match="sum to 1"):
            CharGraph(vertices=(1, 2), neighbors=none, pmf=(0.5, 0.6))
        with pytest.raises(ValidationError, match="duplicate"):
            CharGraph(vertices=(1, 1), neighbors=none, pmf=(0.5, 0.5))
        with pytest.raises(ValidationError, match="pmf length"):
            CharGraph(vertices=(1, 2), neighbors=none, pmf=(1.0,))
        with pytest.raises(ValidationError, match="positive"):
            CharGraph(vertices=(1, 2), neighbors=none, pmf=(1.0, 0.0))
        with pytest.raises(ValidationError, match="positive"):
            CharGraph(vertices=(1, 2), neighbors=none, pmf=(float("nan"), 1.0))
        with pytest.raises(ValidationError, match="one neighbour set per vertex"):
            CharGraph(vertices=(1, 2), neighbors=(frozenset(),), pmf=(0.5, 0.5))
        with pytest.raises(ValidationError, match="not vertex ids"):
            CharGraph(vertices=(1, 2), neighbors=(frozenset({2}), frozenset()), pmf=(0.5, 0.5))
        with pytest.raises(ValidationError, match="self-loop"):
            CharGraph(vertices=(1, 2), neighbors=(frozenset({0}), frozenset()), pmf=(0.5, 0.5))
        with pytest.raises(ValidationError, match="not adjacent"):
            CharGraph(vertices=(1, 2), neighbors=(frozenset({1}), frozenset()), pmf=(0.5, 0.5))

    def test_symmetry_checks_every_entry(self):
        # C8^2's sets with one back-entry dropped: the last vertex lists j,
        # but j no longer lists it, so only the last vertex's check can fail
        c8 = make_graph({i: 1 / 8 for i in range(8)}, [(i, (i + 1) % 8) for i in range(8)])
        g = or_power(c8, 2)
        last = g.n - 1
        j = max(g.neighbors[last])
        neighbors = list(g.neighbors)
        neighbors[j] = neighbors[j] - {last}
        with pytest.raises(ValidationError, match=f"vertex {last} has a neighbour that is not adjacent"):
            CharGraph(vertices=g.vertices, neighbors=tuple(neighbors), pmf=g.pmf)
        assert or_power(c8, 3).n == 512

    def test_neighbors_and_adjacency(self):
        g = ternary_graph()
        assert g.neighbors == (frozenset({2}), frozenset(), frozenset({0}))
        assert g.adjacent(0, 2) and g.adjacent(2, 0)
        assert not g.adjacent(0, 1)


class TestMakeGraph:
    def test_prunes_zero_mass_vertices_and_their_edges(self):
        g = make_graph({"a": 0.5, "b": 0.5, "c": 0.0}, [("a", "c"), ("a", "b")])
        assert g.vertices == ("a", "b")
        assert label_edges(g) == {frozenset(("a", "b"))}

    def test_renormalizes(self):
        g = make_graph({"a": 2.0, "b": 6.0}, [])
        assert g.pmf == pytest.approx((0.25, 0.75))

    def test_rejects_self_loop_and_empty(self):
        with pytest.raises(ValidationError):
            make_graph({"a": 1.0, "b": 1.0}, [("a", "a")])
        with pytest.raises(ValidationError):
            make_graph({"a": 0.0}, [])

    @pytest.mark.parametrize("bad", [-0.2, float("nan"), float("inf"), -1e-18])
    def test_rejects_negative_and_non_finite_mass(self, bad):
        # pruning these would silently drop the vertex and its edges
        with pytest.raises(ValidationError, match="'b'"):
            make_graph({"a": 0.5, "b": bad, "c": 0.5}, [("a", "b"), ("b", "c")])


class TestBuildCharGraph:
    """The three-server pair-of-demands worked example: server views of
    f1 = w2 and f2 = w2 + w3 under the consecutive-window placement."""

    def test_server1_distinguishes_second_bit(self):
        _, p, d, joint = scenario_ii()
        g = build_char_graph(d, p, joint, 1)
        assert set(g.vertices) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        want = {
            frozenset((a, b))
            for a, b in combinations(g.vertices, 2)
            if a[1] != b[1]
        }
        assert label_edges(g) == want

    def test_server2_is_complete(self):
        _, p, d, joint = scenario_ii()
        g = build_char_graph(d, p, joint, 2)
        assert len(g.edges) == 6  # K4

    def test_server3_distinguishes_third_bit(self):
        _, p, d, joint = scenario_ii()
        g = build_char_graph(d, p, joint, 3)
        want = {
            frozenset((a, b))
            for a, b in combinations(g.vertices, 2)
            if a[1] != b[1]  # local coordinate order is (w1, w3)
        }
        assert label_edges(g) == want

    def test_demand_subset_selects_functions(self):
        # a graph for some of the demands is built from a spec holding those
        _, p, d, joint = scenario_ii()
        # server 3 never needs to separate anything for f1 = w2 alone
        g1 = build_char_graph(LinearlySeparable(q=2, gamma=d.gamma[:1]), p, joint, 3)
        assert g1.edges == frozenset()
        # f2 alone already forces the full server-3 edge set
        g2 = build_char_graph(LinearlySeparable(q=2, gamma=d.gamma[1:]), p, joint, 3)
        assert g2.edges == build_char_graph(d, p, joint, 3).edges

    def test_union_of_single_demand_graphs_is_default(self):
        _, p, d, joint = scenario_ii()
        for server in (1, 2, 3):
            singles = [
                build_char_graph(LinearlySeparable(q=2, gamma=(row,)), p, joint, server)
                for row in d.gamma
            ]
            full = build_char_graph(d, p, joint, server)
            assert all(h.vertices == full.vertices and h.pmf == full.pmf for h in singles)
            assert frozenset().union(*(h.edges for h in singles)) == full.edges

    def test_vertex_masses_are_local_marginals(self):
        _, p, d, joint = scenario_ii()
        g = build_char_graph(d, p, joint, 1)
        for v, m in zip(g.vertices, g.pmf):
            assert m == pytest.approx(joint.marginal((0, 1)).prob(v))

    def test_point_local_support_is_one_vertex(self):
        t = Topology(n=2, k=2, kc=1, m=1, nr=2)
        p = cyclic_placement(t)
        d = LinearlySeparable(q=2, gamma=((1, 1),))
        joint = JointPmf((2, 2), {(0, 0): 0.5, (0, 1): 0.5})
        g = build_char_graph(d, p, joint, 1)  # coordinate 0 is constant
        assert g.vertices == ((0,),) and g.edges == frozenset()
        assert g.pmf == (1.0,)
        assert graph_entropy(g).value == 0.0

    def test_support_items_rejects_k_mismatch(self):
        _, p, d, _ = scenario_ii()
        with pytest.raises(ValidationError, match="disagree on K"):
            support_items(d, p, iid_bernoulli_joint(2, 0.5))


class TestConfusabilityGraph:
    def test_masses_add_and_edges_need_shared_completion(self):
        # support points by codes: vertex, completion key, mass, outputs
        g, ids = confusability_graph(
            [0, 0, 1, 2, 3],
            [0, 1, 0, 1, 2],  # b shares completion 0 with a, c completion 1
            [0.25, 0.25, 0.25, 0.125, 0.125],
            [0, 1, 1, 1, 0],  # a and b differ there, a and c agree; d is alone
            "abcd".__getitem__,
        )
        assert g.vertices == ("a", "b", "c", "d")
        assert g.pmf == (0.5, 0.25, 0.125, 0.125)
        assert g.edges == frozenset({(0, 1)})
        assert ids == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_vertices_follow_label_repr_not_code(self):
        labels = {0: "d", 1: "c", 2: "b", 3: "a"}
        g, ids = confusability_graph(
            [0, 1, 2, 3], [0, 0, 1, 1], [0.25] * 4, [0, 1, 0, 0], labels.get
        )
        assert g.vertices == ("a", "b", "c", "d")
        assert g.edges == frozenset({(2, 3)})  # codes 0 and 1 are d and c
        assert ids == {0: 3, 1: 2, 2: 1, 3: 0}

    def test_a_pruned_code_has_no_vertex_id(self):
        g, ids = confusability_graph([0, 1], [0, 1], [0.5, 1e-16], [0, 0], "ab".__getitem__)
        assert g.vertices == ("a",) and ids == {0: 0}

    def test_outputs_must_follow_vertex_and_completion(self):
        with pytest.raises(ValidationError):
            confusability_graph([0, 0], [0, 0], [0.5, 0.5], [0, 1], "a".__getitem__)


class TestOrPower:
    def test_square_of_ternary_example(self):
        sq = or_power(ternary_graph(), 2)
        assert sq.n == 9
        assert len(sq.edges) == TERNARY_SQUARE_EDGE_COUNT
        assert all(m == pytest.approx(1 / 9) for m in sq.pmf)

    def test_square_adjacency_rule(self):
        g = ternary_graph()
        sq = or_power(g, 2)
        for a, b in combinations(range(sq.n), 2):
            va, vb = sq.vertices[a], sq.vertices[b]
            want = any(
                g.adjacent(g.vertices.index(x), g.vertices.index(y))
                for x, y in zip(va, vb)
                if x != y
            )
            assert sq.adjacent(a, b) == want

    def test_power_pmf_is_product(self):
        g = make_graph({0: 0.25, 1: 0.75}, [(0, 1)])
        sq = or_power(g, 3)
        idx = sq.vertices.index((1, 0, 1))
        assert sq.pmf[idx] == pytest.approx(0.75 * 0.25 * 0.75)

    def test_first_power_is_identity(self):
        g = ternary_graph()
        p1 = or_power(g, 1)
        assert len(p1.edges) == len(g.edges) and p1.n == g.n

    def test_guard(self):
        g = ternary_graph()
        with pytest.raises(DeskScaleError):
            or_power(g, 11)  # 3^11 vertices
        with pytest.raises(ValidationError):
            or_power(g, 0)

    def test_guard_counts_vertex_pairs(self, monkeypatch):
        # C8^4 has only 4,096 vertices but 16.7 M vertex pairs
        c8 = make_graph({i: 1 / 8 for i in range(8)}, [(i, (i + 1) % 8) for i in range(8)])
        assert len(or_power(c8, 3).edges) == 75_776  # 512^2 pairs fit the guard

        def no_tuples(*args, **kwargs):
            raise AssertionError("the guard must refuse before any tuple is built")

        monkeypatch.setattr(graphs, "iter_product", no_tuples)
        with pytest.raises(DeskScaleError, match="pairs"):
            or_power(c8, 4)


def brute_force_mis(g: CharGraph) -> set[tuple[int, ...]]:
    out = set()
    verts = range(g.n)
    for r in range(1, g.n + 1):
        for s in combinations(verts, r):
            ss = set(s)
            if any(g.adjacent(i, j) for i, j in combinations(s, 2)):
                continue
            if any(
                v not in ss and not (g.neighbors[v] & ss) for v in verts
            ):
                continue  # extendable, hence not maximal
            out.add(s)
    return out


class TestEnumerateMis:
    def test_ternary_example(self):
        fam = enumerate_mis(ternary_graph())
        assert fam.sets == ((0, 1), (1, 2))

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            nv = rng.randint(2, 8)
            edges = [
                (i, j)
                for i, j in combinations(range(nv), 2)
                if rng.random() < 0.45
            ]
            g = make_graph({v: 1.0 / nv for v in range(nv)}, edges)
            fam = enumerate_mis(g)
            assert set(fam.sets) == brute_force_mis(g)

    def test_guard_refuses_before_any_search_node(self, monkeypatch):
        # 1,001^2 bits of non-neighbour masks already pass the cell guard;
        # every search node calls _bits
        def no_node(mask):
            raise AssertionError("the guard must refuse before the search starts")

        monkeypatch.setattr(graphs, "_bits", no_node)
        big = make_graph({v: 1.0 / 1001 for v in range(1001)}, [])
        with pytest.raises(DeskScaleError, match="cell guard"):
            enumerate_mis(big)

    def test_deep_search_needs_no_recursion(self):
        # an edgeless graph's one set is found 300 nodes deep, past a
        # recursion limit of 200 frames
        g = make_graph({v: 1.0 / 300 for v in range(300)}, [])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            fam = enumerate_mis(g)
        finally:
            sys.setrecursionlimit(limit)
        assert fam.sets == (tuple(range(300)),)

    def test_cell_guard_stops_the_enumeration(self, monkeypatch):
        # 20 disjoint triangles: 60 vertices, 3^20 maximal independent sets;
        # the guard stops the search within 1e6 // 60 - 60 nodes, and the
        # search makes at most two _bits calls per node
        bits = graphs._bits
        calls = 0

        def counted(mask):
            nonlocal calls
            calls += 1
            return bits(mask)

        monkeypatch.setattr(graphs, "_bits", counted)
        with pytest.raises(DeskScaleError, match="cell guard"):
            enumerate_mis(disjoint_triangles(20))
        assert calls <= 4 * (MIS_CELL_GUARD // 60 + 1)
        # the plain entropy still solves it block by block, in closed form
        res = graph_entropy(disjoint_triangles(20))
        assert res.value == pytest.approx(math.log2(3), abs=1e-12)
        assert res.iterations == 0


class TestColorings:
    def test_greedy_is_proper(self):
        g = or_power(ternary_graph(), 2)
        validate_coloring(g, greedy_coloring(g))

    def test_exact_on_ternary_example(self):
        col = exact_min_coloring(ternary_graph())
        validate_coloring(ternary_graph(), col)
        assert col == (0, 0, 1)  # the edge joins vertices 0 and 2

    def test_exact_on_square(self):
        sq = or_power(ternary_graph(), 2)
        col = exact_min_coloring(sq)
        validate_coloring(sq, col)
        assert len(set(col)) == TERNARY_SQUARE_MIN_COLORS

    def test_exact_on_complete_graph(self):
        k4 = make_graph(
            {v: 0.25 for v in range(4)}, list(combinations(range(4), 2))
        )
        assert sorted(exact_min_coloring(k4)) == [0, 1, 2, 3]

    def test_exact_on_five_cycle(self):
        c5 = make_graph(
            {v: 0.2 for v in range(5)}, [(v, (v + 1) % 5) for v in range(5)]
        )
        col = exact_min_coloring(c5)
        validate_coloring(c5, col)
        assert len(set(col)) == 3  # odd cycle is not bipartite

    def test_exact_beats_greedy_on_a_path(self):
        # on the path 1-0-5-4-2-3 greedy colors 0, 2 and 4 before 5, which
        # then needs a third color; the largest clique is an edge, so the
        # branch and bound runs and finds the 2-coloring
        g = make_graph(
            {v: 1 / 6 for v in range(6)}, [(1, 0), (0, 5), (5, 4), (4, 2), (2, 3)]
        )
        assert greedy_coloring(g) == (0, 1, 0, 1, 1, 2)
        assert exact_min_coloring(g) == (0, 1, 1, 0, 0, 1)

    def test_exact_never_beats_greedy_backwards(self):
        rng = random.Random(3)
        for _ in range(10):
            nv = rng.randint(3, 9)
            edges = [
                (i, j)
                for i, j in combinations(range(nv), 2)
                if rng.random() < 0.5
            ]
            g = make_graph({v: 1.0 / nv for v in range(nv)}, edges)
            exact_k = len(set(exact_min_coloring(g)))
            greedy_k = len(set(greedy_coloring(g)))
            assert exact_k <= greedy_k
            validate_coloring(g, exact_min_coloring(g))

    def test_exact_guard(self):
        big = make_graph({v: 1.0 / 13 for v in range(13)}, [])
        with pytest.raises(DeskScaleError):
            exact_min_coloring(big)

    def test_validate_coloring_rejects(self):
        g = ternary_graph()
        with pytest.raises(ValidationError):
            validate_coloring(g, (0, 1, 0))  # edge (0,2) merged
        with pytest.raises(ValidationError, match="every vertex"):
            validate_coloring(g, (0, 1))  # vertex 2 unassigned
        with pytest.raises(ValidationError, match="every vertex"):
            validate_coloring(g, (0, 1, 1, 0))  # a color for a vertex g lacks
