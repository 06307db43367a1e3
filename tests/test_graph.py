import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import (
    UNREACHABLE,
    BadParameterError,
    DisconnectedError,
    EdgeNotPresentError,
    OutOfRangeError,
    SelfLoopError,
    base_graph,
    bfs_distances,
    bridges,
    build_graph,
    degree_extremes,
    distance_after_deletion,
    is_complete,
    is_connected,
    is_tree,
)
from demkit import generators as gen
from demkit import graph as graph_mod
from demkit.graph import component_sizes

from oracles import count_components, naive_bridges, relaxation_distances


def connected_graph_strategy(min_n=2, max_n=9):
    return st.builds(
        lambda n, p, seed: gen.random_connected(n, p, seed),
        st.integers(min_n, max_n),
        st.floats(0.2, 0.9),
        st.integers(0, 10_000),
    )


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.m == 1 and g.n == 2

    def test_k4_degrees(self):
        g = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert g.m == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            build_graph(3, [(0, 3)])
        with pytest.raises(OutOfRangeError):
            build_graph(3, [(0, 1)]).has_edge(0, 3)

    def test_negative_order_rejected(self):
        with pytest.raises(BadParameterError):
            build_graph(-1, [])

    def test_duplicates_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_adjacency_symmetric_and_sorted(self):
        g = build_graph(4, [(2, 0), (3, 1), (2, 3)])
        for u in range(4):
            assert list(g.neighbors(u)) == sorted(g.neighbors(u))
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_handshake(self):
        g = gen.petersen().graph
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


class TestBfs:
    def test_path_distances(self):
        g = gen.path(4).graph
        assert list(bfs_distances(g, 0).dist) == [0, 1, 2, 3]

    def test_complete_distances(self):
        g = gen.complete(4).graph
        assert list(bfs_distances(g, 2).dist) == [1, 1, 0, 1]

    def test_cycle6_against_relaxation(self):
        g = gen.cycle(6).graph
        layers = bfs_distances(g, 0)
        assert list(layers.dist) == [0, 1, 2, 3, 2, 1]
        assert list(layers.dist) == relaxation_distances(g, 0)

    def test_unreachable_sentinel(self):
        g = build_graph(3, [(0, 1)])
        d = bfs_distances(g, 0)
        assert d[2] is UNREACHABLE
        with pytest.raises(TypeError):
            _ = d[2] + 1

    def test_layers(self):
        g = gen.cycle(6).graph
        layers = bfs_distances(g, 0)
        assert layers.layer(1) == {1, 5}
        assert layers.eccentricity() == 3

    @settings(max_examples=40, deadline=None)
    @given(connected_graph_strategy())
    def test_matches_relaxation_oracle(self, g):
        for src in range(0, g.n, max(1, g.n // 3)):
            assert list(bfs_distances(g, src).dist) == relaxation_distances(g, src)

    @settings(max_examples=40, deadline=None)
    @given(connected_graph_strategy())
    def test_edge_endpoints_within_one_level(self, g):
        d = bfs_distances(g, 0)
        for u, v in g.edges():
            assert abs(d[u] - d[v]) <= 1


class TestDistanceAfterDeletion:
    def test_only_edge(self):
        g = gen.complete(2).graph
        assert distance_after_deletion(g, (0, 1), 0, 1) is UNREACHABLE

    def test_cycle_detour(self):
        g = gen.cycle(4).graph
        assert distance_after_deletion(g, (0, 1), 0, 1) == 3

    def test_petersen_any_edge(self):
        # girth 5: removing an edge leaves its endpoints on a 5-cycle detour
        g = gen.petersen().graph
        for e in g.edges():
            got = distance_after_deletion(g, e, e[0], e[1])
            oracle = relaxation_distances(g, e[0], skip=e)[e[1]]
            assert got == oracle == 4

    def test_missing_edge(self):
        g = gen.cycle(4).graph
        with pytest.raises(EdgeNotPresentError):
            distance_after_deletion(g, (0, 2), 0, 2)

    def test_vertex_out_of_range(self):
        g = gen.cycle(4).graph
        with pytest.raises(OutOfRangeError):
            distance_after_deletion(g, (0, 1), 0, 4)


class TestBridges:
    def test_tree_all_edges(self):
        g = gen.random_tree(12, seed=7)
        assert bridges(g) == set(g.edges())

    def test_cycle_none(self):
        assert bridges(gen.cycle(5).graph) == set()

    def test_double_star_all(self):
        g = gen.double_star(2, 2).graph
        assert bridges(g) == set(g.edges())
        assert len(bridges(g)) == 5

    @settings(max_examples=60, deadline=None)
    @given(connected_graph_strategy(min_n=2, max_n=10))
    def test_matches_deletion_oracle(self, g):
        assert bridges(g) == naive_bridges(g)

    def test_disconnected_supported(self):
        g = build_graph(5, [(0, 1), (2, 3), (3, 4)])
        assert bridges(g) == {(0, 1), (2, 3), (3, 4)}


class TestBaseGraph:
    def test_pendant_stripped(self):
        cyc = gen.cycle(4).graph
        g = build_graph(5, list(cyc.edges()) + [(0, 4)])
        res = base_graph(g)
        assert res.graph == cyc
        assert not res.was_tree
        assert res.old_to_new[4] is None

    def test_k4_untouched(self):
        g = gen.complete(4).graph
        res = base_graph(g)
        assert res.graph == g and not res.was_tree

    def test_tree_collapses_to_marker(self):
        res = base_graph(gen.path(5).graph)
        assert res.was_tree
        assert res.graph.n == 1 and res.graph.m == 0

    def test_idempotent(self):
        for _, g in [("p", gen.path(6).graph), ("c", gen.cycle(5).graph)]:
            with_pendant = build_graph(
                g.n + 2, list(g.edges()) + [(0, g.n), (g.n, g.n + 1)]
            )
            once = base_graph(with_pendant)
            twice = base_graph(once.graph)
            assert once.graph == twice.graph

    @settings(max_examples=40, deadline=None)
    @given(connected_graph_strategy(min_n=3, max_n=10))
    def test_core_min_degree_and_cycles(self, g):
        res = base_graph(g)
        if is_tree(g):
            assert res.was_tree and res.graph.n == 1
        else:
            gb = res.graph
            assert min(gb.degree(v) for v in range(gb.n)) >= 2
            assert gb.m - gb.n >= 0

    def test_empty_graph_rejected(self):
        with pytest.raises(BadParameterError):
            base_graph(build_graph(0, []))

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedError) as exc:
            base_graph(g)
        assert "2 components" in str(exc.value)

    @pytest.mark.parametrize(
        "n, edges, sizes",
        [
            # A tree peels to one vertex, K2 to one, an isolated vertex
            # stays: each leaves the remainder disconnected, and the message
            # still counts the components of the input.
            (9, [(0, 1), (1, 2), (1, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 5)], "[5, 4]"),
            (5, [(0, 1), (1, 2), (2, 0), (3, 4)], "[3, 2]"),
            (6, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 5)], "[5, 1]"),
        ],
    )
    def test_disconnected_after_peeling(self, n, edges, sizes):
        with pytest.raises(DisconnectedError) as exc:
            base_graph(build_graph(n, edges))
        assert str(exc.value) == (
            f"base-graph reduction requires a connected graph; found 2 components of sizes {sizes}"
        )

    def test_mapping_roundtrip(self):
        cyc = gen.cycle(5).graph
        g = build_graph(7, list(cyc.edges()) + [(2, 5), (5, 6)])
        res = base_graph(g)
        for old, new in enumerate(res.old_to_new):
            if new is not None:
                assert res.new_to_old[new] == old


class TestPredicates:
    def test_star_is_tree(self):
        assert is_tree(gen.star(5).graph)

    def test_k6(self):
        g = gen.complete(6).graph
        assert is_complete(g)
        assert degree_extremes(g) == (5, 5)
        assert degree_extremes(build_graph(0, [])) == (0, 0)

    def test_c4_neither(self):
        g = gen.cycle(4).graph
        assert not is_tree(g) and not is_complete(g)

    def test_connectivity(self):
        assert is_connected(gen.petersen().graph)
        assert not is_connected(build_graph(3, [(0, 1)]))

    def test_components_oracle_agreement(self):
        g = build_graph(6, [(0, 1), (2, 3), (3, 4)])
        assert count_components(g) == 3

    def test_disconnected_error_lists_component_sizes(self):
        # Components met in the order 1, 2, 3 are reported largest first.
        g = build_graph(6, [(1, 2), (3, 4), (4, 5)])
        with pytest.raises(DisconnectedError) as exc:
            base_graph(g)
        assert "found 3 components of sizes [3, 2, 1]" in str(exc.value)

    def test_disconnected_error_lists_ten_largest_sizes(self):
        g = build_graph(14, [(0, 1), (1, 2), (3, 4)])
        with pytest.raises(DisconnectedError) as exc:
            base_graph(g)
        assert "found 11 components of sizes [3, 2, 1, 1, 1, 1, 1, 1, 1, 1, ...]" in str(exc.value)
        with pytest.raises(DisconnectedError) as exc:
            base_graph(graph_mod.Graph(10**5))
        assert len(str(exc.value)) < 300

    def test_component_sizes_is_one_sweep(self, monkeypatch):
        # Every vertex is a source of one sweep, so the hint stays linear
        # in n + m however many components there are.
        calls = []
        real = graph_mod._sweep
        monkeypatch.setattr(graph_mod, "_sweep", lambda g, *s: calls.append(s) or real(g, *s))
        assert component_sizes(build_graph(500, [(0, 1), (1, 2)])) == [3] + [1] * 497
        assert len(calls) == 1
