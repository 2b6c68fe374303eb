"""Property-based invariants across the probability and graph layers."""

import math
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chargraph.graphs import (
    EXACT_COLOR_GUARD,
    build_char_graph,
    components,
    exact_min_coloring,
    greedy_coloring,
    make_graph,
    or_power,
)
from chargraph.probability import (
    JointPmf,
    binary_entropy,
    diniz_joint,
    iid_bernoulli_joint,
    parity_param,
    product_param,
    _joint_from_masses,
)
from chargraph.functions import GeneralTable, LinearlySeparable, demand_from_json, demand_to_json
from chargraph.rates import min_coloring
from chargraph.solvers import (
    chromatic_entropy,
    conditional_graph_entropy,
    graph_entropy,
)
from chargraph.topology import Topology, coverage_check, cyclic_placement
from graph_strategies import induced_subgraph


@st.composite
def char_graphs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    weights = draw(
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)
    )
    edges = [
        pair
        for pair in combinations(range(n), 2)
        if draw(st.booleans())
    ]
    return make_graph(dict(enumerate(weights)), edges)


@st.composite
def relabelled_paths(draw, max_n=8):
    """A path on 6 to max_n vertices with shuffled ids: on about a third of
    them greedy's degree order needs a third color, so the search must run."""
    order = draw(st.permutations(range(draw(st.integers(6, max_n)))))
    return make_graph({v: 1.0 for v in order}, list(zip(order, order[1:])))


@st.composite
def multipartite_unions(draw, max_n=12):
    """A disjoint union of complete multipartite graphs on at most max_n
    vertices, with shuffled vertex labels, and its components' part counts."""
    parts = []  # (component, part size)
    n = 0
    for comp in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(1, 4))):
            size = draw(st.integers(1, 3))
            if n + size > max_n:
                break
            parts.append((comp, size))
            n += size
    if not parts:
        parts, n = [(0, 1)], 1
    labels = draw(st.permutations(range(n)))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    owner = []  # (component, part) of each label
    for part, (comp, size) in enumerate(parts):
        owner += [(comp, part)] * size
    edges = [
        (labels[a], labels[b])
        for a, b in combinations(range(n), 2)
        if owner[a][0] == owner[b][0] and owner[a][1] != owner[b][1]
    ]
    part_counts = [sum(c == comp for c, _ in parts) for comp in {c for c, _ in parts}]
    return make_graph(dict(zip(labels, weights)), edges), max(part_counts)


@st.composite
def disjoint_unions(draw):
    """A disjoint union of 2-3 random graphs of 2-6 vertices each, with
    shuffled vertex labels, so that the components' vertex ids interleave."""
    parts = [draw(char_graphs(max_n=6)) for _ in range(draw(st.integers(2, 3)))]
    n = sum(h.n for h in parts)
    labels = iter(draw(st.permutations(range(n))))
    masses, edges = {}, []
    for h in parts:
        ids = [next(labels) for _ in range(h.n)]
        masses.update(zip(ids, h.pmf))
        edges += [(ids[i], ids[j]) for i, j in h.edges]
    return make_graph(masses, edges)


class TestProbabilityProperties:
    @given(st.floats(0.0, 1.0))
    def test_binary_entropy_symmetric_and_bounded(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p))

    @given(st.integers(1, 12), st.floats(0.0, 1.0))
    def test_parity_param_closed_form(self, l, eps):
        want = (1.0 - (1.0 - 2.0 * eps) ** l) / 2.0
        assert parity_param(l, eps) == pytest.approx(want, abs=1e-9)

    @given(st.integers(1, 12), st.floats(0.0, 1.0))
    def test_product_param_closed_form(self, l, eps):
        assert product_param(l, eps) == pytest.approx(eps**l, abs=1e-9)

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
    def test_from_masses_accepts_in_tolerance_drift(self, raw):
        total = math.fsum(raw)
        normalized = [v / total for v in raw]
        j = _joint_from_masses((len(raw),), {(x,): m for x, m in enumerate(normalized)})
        assert math.fsum(j.mass.values()) == pytest.approx(1.0, abs=1e-9)
        assert j.entropy() >= -1e-12

    @given(st.integers(1, 6), st.floats(0.01, 0.99))
    def test_iid_joint_entropy_is_additive(self, k, eps):
        joint = iid_bernoulli_joint(k, eps)
        assert joint.entropy() == pytest.approx(k * binary_entropy(eps), abs=1e-9)

    @given(st.integers(1, 6), st.floats(0.01, 0.99))
    def test_mixture_sum_law_at_rho_zero_is_binomial(self, k, eps):
        j = diniz_joint(k, eps, 0.0)
        assert math.fsum(j.mass.values()) == pytest.approx(1.0, abs=1e-9)
        for s in range(k + 1):
            want = math.comb(k, s) * eps**s * (1 - eps) ** (k - s)
            assert j.prob((s,)) == pytest.approx(want, abs=1e-12)

    @given(
        st.integers(2, 5),
        st.floats(0.01, 0.99),
        st.floats(0.0, 1.0),
    )
    def test_mixture_sum_law_normalized(self, k, eps, rho):
        j = diniz_joint(k, eps, rho)
        assert math.fsum(j.mass.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(m > 0.0 for m in j.mass.values())


class TestGraphProperties:
    @settings(max_examples=40, deadline=None)
    @given(char_graphs())
    def test_entropy_sandwich(self, g):
        lower = graph_entropy(g).value
        upper = chromatic_entropy(g)
        assert -1e-9 <= lower <= upper + 1e-6
        assert upper <= math.log2(g.n) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(char_graphs(max_n=6), st.data())
    def test_edge_monotonicity(self, g, data):
        non_edges = [
            (i, j)
            for i, j in combinations(range(g.n), 2)
            if not g.adjacent(i, j)
        ]
        if not non_edges:
            return
        extra = data.draw(st.sampled_from(non_edges))
        denser = make_graph(
            {v: m for v, m in zip(g.vertices, g.pmf)},
            [(g.vertices[i], g.vertices[j]) for i, j in g.edges]
            + [(g.vertices[extra[0]], g.vertices[extra[1]])],
        )
        assert (
            graph_entropy(g).value <= graph_entropy(denser).value + 1e-6
        )

    @settings(max_examples=30, deadline=None)
    @given(char_graphs(max_n=6), st.data())
    def test_conditioning_never_hurts(self, g, data):
        ny = data.draw(st.integers(1, 3))
        rows = []
        for _ in range(g.n):
            w = data.draw(
                st.lists(st.floats(0.05, 1.0), min_size=ny, max_size=ny)
            )
            tot = math.fsum(w)
            rows.append([v / tot for v in w])
        mass = {
            (x, y): g.pmf[x] * rows[x][y]
            for x in range(g.n)
            for y in range(ny)
        }
        joint = JointPmf((g.n, ny), mass)
        cond = conditional_graph_entropy(g, joint).value
        assert cond <= graph_entropy(g).value + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(char_graphs(max_n=5), st.integers(1, 3))
    def test_or_power_matches_its_definition(self, g, n):
        # tuples are adjacent iff some differing coordinate pair is an edge
        # of g, and the pmf is the product of the coordinates' masses: the
        # Kronecker power multiplies left to right as math.prod does, so the
        # masses are exactly the per-tuple products
        power = or_power(g, n)
        pos = {v: i for i, v in enumerate(g.vertices)}
        coords = [tuple(pos[x] for x in v) for v in power.vertices]
        assert sorted(coords) == coords == list(product(range(g.n), repeat=n))
        for a, b in combinations(range(power.n), 2):
            want = any(g.adjacent(x, y) for x, y in zip(coords[a], coords[b]) if x != y)
            assert power.adjacent(a, b) == want
        assert power.pmf == tuple(math.prod(g.pmf[x] for x in t) for t in coords)

    @settings(max_examples=30, deadline=None)
    @given(char_graphs(max_n=5), st.data())
    def test_every_builder_keeps_one_symmetric_adjacency(self, g, data):
        # the neighbour sets are the stored adjacency; edges is their view
        # (the test-built subgraph is checked too: references color it)
        vs = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
        sub = induced_subgraph(g, vs)
        for h in (g, sub, or_power(g, 2)):
            assert all(i in h.neighbors[j] for i in range(h.n) for j in h.neighbors[i])
            assert h.edges == {(i, j) for i in range(h.n) for j in h.neighbors[i] if i < j}
        assert all(
            sub.adjacent(a, b) == g.adjacent(vs[a], vs[b])
            for a, b in combinations(range(sub.n), 2)
        )

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_graph_of_all_demands_is_union_of_one_demand_graphs(self, data):
        # a server's graph joins what any demanded function tells apart: the
        # edge union of the graphs built from one-table specs, on the same
        # vertices and masses
        tables = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=8, max_size=8).map(tuple),
            min_size=2, max_size=3,
        ))
        masses = data.draw(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
        total = sum(masses)
        assume(total > 0.1)
        joint = JointPmf(
            (2, 2, 2), {w: m / total for w, m in zip(product((0, 1), repeat=3), masses)}
        )
        p = cyclic_placement(Topology(n=3, k=3, kc=len(tables), m=2, nr=2))
        for server in (1, 2, 3):
            full = build_char_graph(GeneralTable(q=2, k=3, tables=tuple(tables)), p, joint, server)
            singles = [
                build_char_graph(GeneralTable(q=2, k=3, tables=(tab,)), p, joint, server)
                for tab in tables
            ]
            assert all(h.vertices == full.vertices and h.pmf == full.pmf for h in singles)
            assert frozenset().union(*(h.edges for h in singles)) == full.edges

    @settings(max_examples=25, deadline=None)
    @given(char_graphs(max_n=5))
    def test_or_square_pmf_is_product(self, g):
        sq = or_power(g, 2)
        for idx, (a, b) in enumerate(sq.vertices):
            want = g.pmf[g.vertices.index(a)] * g.pmf[g.vertices.index(b)]
            assert sq.pmf[idx] == pytest.approx(want, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(char_graphs(max_n=5))
    def test_or_square_entropy_is_double(self, g):
        # graph entropy is additive over independent OR powers
        single = graph_entropy(g).value
        double = graph_entropy(or_power(g, 2)).value
        assert double == pytest.approx(2 * single, abs=2e-5)


class TestColoringProperties:
    @settings(max_examples=200, deadline=None)
    @given(multipartite_unions())
    def test_greedy_is_minimal_on_complete_multipartite_unions(self, case):
        # greedy gives each part one color and the parts of a component
        # distinct ones, and a component holds a clique with one vertex per
        # part: so greedy is already minimal, and exact_min_coloring returns it
        g, most_parts = case
        greedy = greedy_coloring(g)
        assert exact_min_coloring(g) == greedy
        assert len(set(greedy)) == most_parts

    @settings(max_examples=200, deadline=None)
    @given(char_graphs(max_n=14), st.data())
    def test_colorings_of_ids_are_colorings_of_their_subgraph(self, g, data):
        # any ascending ids, not only a component: the colorings read the
        # subgraph they induce, in its ids, exactly as if it were built
        vs = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
        sub = induced_subgraph(g, vs)
        assert greedy_coloring(g, vs) == greedy_coloring(sub)
        if len(vs) <= EXACT_COLOR_GUARD:
            assert exact_min_coloring(g, vs) == exact_min_coloring(sub)

    @settings(max_examples=100, deadline=None)
    @given(disjoint_unions())
    def test_min_coloring_splits_over_components(self, g):
        # each component is colored as the graph it induces, whatever the
        # other components are, so the union needs as many colors as its
        # most demanding component
        coloring = min_coloring(g)
        counts = []
        for comp in components(g):
            alone = min_coloring(induced_subgraph(g, comp))
            assert tuple(coloring[v] for v in comp) == alone
            counts.append(len(set(alone)))
        assert len(set(coloring)) == max(counts)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(char_graphs(max_n=8), relabelled_paths()))
    # the triangle 2-3-4 with the path 0-1-3: greedy's 3 colors are minimal,
    # but the clique grown in degree order (3, 1) misses the triangle, so the
    # search runs, and its own classes would color the graph differently
    @example(make_graph({v: 0.2 for v in range(5)}, [(0, 1), (1, 3), (2, 3), (2, 4), (3, 4)]))
    def test_exact_matches_brute_force_minimum(self, g):
        def partitions(prefix):  # restricted growth strings: each partition once
            if len(prefix) == g.n:
                yield prefix
                return
            for c in range(max(prefix, default=-1) + 2):
                yield from partitions(prefix + [c])

        def entropy(p):  # of the class of a pmf-distributed vertex
            masses = [math.fsum(m for m, c in zip(g.pmf, p) if c == k) for k in set(p)]
            return -math.fsum(m * math.log2(m) for m in masses)

        proper = [p for p in partitions([]) if all(p[i] != p[j] for i, j in g.edges)]
        fewest = min(max(p) + 1 for p in proper)
        coloring = exact_min_coloring(g)
        assert all(coloring[i] != coloring[j] for i, j in g.edges)
        assert len(set(coloring)) == fewest
        # the chain's transcripts rely on greedy's coloring being kept
        # whenever it is minimal, whether or not a clique proves it
        greedy = greedy_coloring(g)
        if max(greedy) + 1 == fewest:
            assert coloring == greedy
        assert chromatic_entropy(g) == pytest.approx(min(map(entropy, proper)), abs=1e-12)


class TestStructureProperties:
    @given(st.integers(1, 5), st.integers(1, 2), st.data())
    def test_cyclic_placement_always_covers(self, n, delta, data):
        nr = data.draw(st.integers(1, n))
        t = Topology(
            n=n, k=delta * n, kc=1, m=delta * (n - nr + 1), nr=nr
        )
        p = cyclic_placement(t)
        assert coverage_check(p, t) is True
        replicas = t.m * t.n // t.k
        for dataset in range(1, t.k + 1):
            assert sum(dataset in z for z in p.zones) == replicas

    @given(st.data())
    def test_linear_demand_json_roundtrip(self, data):
        q = data.draw(st.sampled_from([2, 3, 5]))
        kc = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 4))
        gamma = tuple(
            tuple(
                data.draw(st.integers(0, q - 1)) for _ in range(k)
            )
            for _ in range(kc)
        )
        d = LinearlySeparable(q=q, gamma=gamma)
        assert demand_from_json(demand_to_json(d), k=k) == d
