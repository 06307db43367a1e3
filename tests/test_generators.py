import math

import pytest

from demkit import BadParameterError, bridges, em_set, em_set_naive, is_connected, is_tree, p_set
from demkit import generators as gen


class TestBasicFamilies:
    def test_path(self):
        g = gen.path(5).graph
        assert g.n == 5 and g.m == 4 and is_tree(g)
        assert gen.path(1).graph.n == 1

    def test_cycle(self):
        g = gen.cycle(6).graph
        assert g.m == 6 and all(g.degree(v) == 2 for v in range(6))

    def test_complete(self):
        assert gen.complete(4).graph.m == 6

    def test_star(self):
        inst = gen.star(6)
        assert inst.graph.n == 7 and inst.graph.degree(inst.role("center")) == 6

    def test_complete_bipartite(self):
        g = gen.complete_bipartite(2, 3).graph
        assert g.n == 5 and g.m == 6

    def test_grid(self):
        inst = gen.grid(2, 2)
        assert inst.graph.m == 4  # the 4-cycle
        g44 = gen.grid(4, 4).graph
        assert g44.n == 16 and g44.m == 24

    def test_hypercube(self):
        g = gen.hypercube(3).graph
        assert g.n == 8 and g.m == 12
        assert all(g.degree(v) == 3 for v in range(8))

    def test_petersen(self):
        g = gen.petersen().graph
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_bad_parameters(self):
        with pytest.raises(BadParameterError):
            gen.cycle(2)
        with pytest.raises(BadParameterError):
            gen.grid(1, 3)
        with pytest.raises(BadParameterError):
            gen.hypercube(0)
        with pytest.raises(BadParameterError):
            gen.star(0)


class TestDoubleStar:
    def test_shape(self):
        inst = gen.double_star(2, 2)
        g = inst.graph
        assert g.n == 6 and g.m == 5
        assert bridges(g) == set(g.edges())

    def test_degenerate_is_k2(self):
        g = gen.double_star(0, 0).graph
        assert g.n == 2 and g.m == 1

    def test_cut_edge_pair_count(self):
        for a, b in ((0, 0), (2, 1), (3, 3), (5, 2)):
            inst = gen.double_star(a, b)
            size = p_set(inst.graph, range(inst.graph.n), (0, 1)).size
            assert size == 2 * (a + 1) * (b + 1)

    def test_order_enforced(self):
        with pytest.raises(BadParameterError):
            gen.double_star(1, 2)


class TestJoin:
    def test_join_complete_with_one(self):
        joined = gen.join_with_empty(gen.complete(3).graph, 1)
        g = joined.graph
        assert g.n == 4 and g.m == 6  # K_4

    def test_apices_designated(self):
        inst = gen.join_with_empty(gen.cycle(4).graph, 2)
        assert inst.role("apex1") == 4 and inst.role("apex2") == 5
        for w in (4, 5):
            assert inst.graph.degree(w) == 4

    def test_join_graphs(self):
        g = gen.join(gen.path(2).graph, gen.path(3).graph)
        assert g.n == 5 and g.m == 1 + 2 + 6


class TestEmKConstruction:
    def test_monitored_count_both_paths(self):
        for n, k in ((2, 1), (4, 3), (6, 5), (8, 3), (10, 2), (12, 6)):
            inst = gen.em_k_construction(n, k)
            v = inst.role("v")
            assert em_set(inst.graph, v).size == k
            assert em_set_naive(inst.graph, v).size == k

    def test_unsatisfiable_rejected(self):
        with pytest.raises(BadParameterError):
            gen.em_k_construction(5, 1)
        with pytest.raises(BadParameterError):
            gen.em_k_construction(4, 4)

    def test_connected(self):
        assert is_connected(gen.em_k_construction(9, 4).graph)


class TestDFamilies:
    def test_d2_minimum_is_path(self):
        g = gen.d2_graph(3).graph
        assert g.n == 3 and g.m == 2

    def test_d1_has_chord(self):
        inst = gen.d1_graph(4)
        assert inst.graph.has_edge(inst.role("u1"), inst.role("u2"))

    def test_em_two_for_all_sizes(self):
        for n in range(3, 9):
            inst = gen.d2_graph(n)
            assert em_set(inst.graph, inst.role("v")).size == 2
        for n in range(4, 9):
            inst = gen.d1_graph(n)
            assert em_set(inst.graph, inst.role("v")).size == 2

    def test_custom_inner_block(self):
        inst = gen.d2_graph(6, d_edges=[(0, 1), (1, 2)])
        assert em_set(inst.graph, inst.role("v")).size == 2

    def test_size_guards(self):
        with pytest.raises(BadParameterError):
            gen.d1_graph(3)
        with pytest.raises(BadParameterError):
            gen.d2_graph(2)


class TestADFamily:
    def test_minimal_instance(self):
        inst = gen.a_d_graph(3, [2, 1], seed=0)
        assert inst.graph.n == 6
        assert em_set(inst.graph, inst.role("v")).size == 2

    def test_various_shapes(self):
        for d, sizes in ((3, [2, 2]), (4, [2, 2, 2]), (4, [3, 2, 1]), (5, [2, 3, 2, 2])):
            for seed in (0, 1, 5):
                inst = gen.a_d_graph(d, sizes, seed=seed)
                assert em_set(inst.graph, inst.role("v")).size == 2
                assert em_set_naive(inst.graph, inst.role("v")).size == 2

    def test_intra_level_edges_allowed(self):
        inst = gen.a_d_graph(4, [3, 3, 2], seed=3, intra_edge_prob=0.7)
        assert em_set(inst.graph, inst.role("v")).size == 2

    def test_eccentricity_matches_depth(self):
        from demkit import bfs_distances

        inst = gen.a_d_graph(5, [2, 2, 2, 1], seed=9)
        assert bfs_distances(inst.graph, inst.role("v")).eccentricity() == 5

    def test_layers_by_construction(self):
        # Level i lies at distance i from v, and each vertex of level 2 or
        # deeper has at least two neighbours one level up, with or without
        # intra-level edges.
        from demkit import bfs_distances

        shapes = [(3, [2, 1], 0), (5, [2, 2, 2, 1], 9), (4, [3, 3, 2], 3), (4, [2, 3, 2], 42)]
        shapes += [
            (d, sizes, seed)
            for d, sizes in ((3, [2, 2]), (4, [2, 2, 2]), (4, [3, 2, 1]), (5, [2, 3, 2, 2]))
            for seed in (0, 1, 5)
        ]
        for d, sizes, seed in shapes:
            level = [0, 1, 1] + [i + 2 for i, s in enumerate(sizes) for _ in range(s)]
            for prob in (0.0, 0.7):
                inst = gen.a_d_graph(d, sizes, seed=seed, intra_edge_prob=prob)
                g = inst.graph
                assert bfs_distances(g, inst.role("v")).dist == tuple(level)
                for y in range(3, g.n):
                    parents = [w for w in g.neighbors(y) if level[w] == level[y] - 1]
                    assert len(parents) >= 2, (d, sizes, seed, prob, y)

    def test_parameter_guards(self):
        with pytest.raises(BadParameterError):
            gen.a_d_graph(3, [1, 1], seed=0)
        with pytest.raises(BadParameterError):
            gen.a_d_graph(2, [2], seed=0)
        with pytest.raises(BadParameterError):
            gen.a_d_graph(3, [2], seed=0)

    def test_deterministic_under_seed(self):
        a = gen.a_d_graph(4, [2, 3, 2], seed=42).graph
        b = gen.a_d_graph(4, [2, 3, 2], seed=42).graph
        assert a == b


class TestRandomGenerators:
    def test_extremes(self):
        assert gen.random_connected(1, 0.5, seed=0).n == 1
        g = gen.random_connected(8, 1.0, seed=0)
        assert g.m == 28  # complete

    def test_deterministic(self):
        a = gen.random_connected(9, 0.4, seed=123)
        b = gen.random_connected(9, 0.4, seed=123)
        assert a == b

    def test_connected(self):
        for seed in range(20):
            assert is_connected(gen.random_connected(7, 0.3, seed=seed))

    def test_random_tree(self):
        for n in (1, 2, 3, 8, 25):
            t = gen.random_tree(n, seed=5)
            assert is_tree(t)
        assert gen.random_tree(10, seed=7) == gen.random_tree(10, seed=7)

    def test_few_edges_bound_is_an_upper_bound(self):
        # Against the exact tail P(Binomial(N, p) >= n - 1), N = n(n-1)/2.
        for n, p in ((2, 1e-13), (10, 0.01), (30, 0.01), (30, 0.02), (60, 0.005), (13, 0.4)):
            big_n, a = n * (n - 1) // 2, n - 1
            tail = sum(
                math.exp(
                    math.lgamma(big_n + 1) - math.lgamma(k + 1) - math.lgamma(big_n - k + 1)
                    + k * math.log(p) + (big_n - k) * math.log1p(-p)
                )
                for k in range(a, big_n + 1)
            )
            assert tail <= math.exp(gen._few_edges_log_bound(n, p)) * (1 + 1e-9), (n, p)

    def test_bad_probability(self):
        with pytest.raises(BadParameterError):
            gen.random_connected(5, 0.0, seed=1)


@pytest.mark.parametrize(
    "make, args",
    [
        (gen.path, (0,)),
        (gen.complete, (0,)),
        (gen.complete_bipartite, (0, 1)),
        (gen.join_with_empty, (gen.cycle(4).graph, 0)),
        (gen.d1_graph, (6, [(0, 5)])),
        (gen.a_d_graph, (3, [2, 0])),
        (gen.random_connected, (0, 0.5, 0)),
        (gen.random_tree, (0, 0)),
        # More vertex pairs than the generators' size cap and the cap on
        # pair draws.
        (gen.random_connected, (6165, 0.5, 0)),
    ],
    ids=["path", "complete", "complete_bipartite", "join_with_empty", "d1_inner_edge", "a_d_level",
         "random_connected", "random_tree", "random_connected_pairs"],
)
def test_bad_parameters_rejected(make, args):
    with pytest.raises(BadParameterError):
        make(*args)


@pytest.mark.parametrize(
    "make, args",
    [
        (gen.path, (1_000_001,)),
        (gen.cycle, (1_000_001,)),
        (gen.complete, (1415,)),
        (gen.star, (1_000_000,)),
        (gen.complete_bipartite, (1000, 1001)),
        (gen.grid, (1000, 1000)),
        (gen.hypercube, (20,)),
        (gen.hypercube, (10**20,)),
        (gen.double_star, (999_999, 0)),
        (gen.join, (gen.Graph(1000), gen.Graph(1001))),
        (gen.join_with_empty, (gen.cycle(4).graph, 250_000)),
        (gen.em_k_construction, (1_000_000, 2)),
        (gen.d1_graph, (500_002,)),
        (gen.a_d_graph, (3, [1000, 1000])),
        (gen.random_connected, (1415, 0.5, 0)),
        (gen.random_tree, (1_000_001, 0)),
    ],
    ids=["path", "cycle", "complete", "star", "complete_bipartite", "grid", "hypercube",
         "hypercube_huge", "double_star", "join", "join_with_empty", "em_k", "d1", "a_d",
         "random_connected", "random_tree"],
)
def test_size_cap_rejected(make, args):
    # Past 1,000,000 vertices or edges, checked from the parameters before
    # any list is built, so each of these fails at once.  Each is just past
    # the cap, so a missing check builds a graph instead of exhausting
    # memory; hypercube:10^20 fails at once either way.
    with pytest.raises(BadParameterError, match="too large"):
        make(*args)


def test_size_cap_boundary():
    # The cap admits 1,000,000 vertices and 1,000,000 edges, and no more.
    gen._check_size("cycle", 1_000_000, 1_000_000)
    for n, m in ((1_000_001, 0), (0, 1_000_001)):
        with pytest.raises(BadParameterError):
            gen._check_size("cycle", n, m)
