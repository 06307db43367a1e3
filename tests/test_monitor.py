import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import (
    DisconnectedError,
    NotZeroError,
    bridges,
    build_graph,
    em_set,
    em_set_naive,
    is_connected,
    is_monitoring_set,
    is_tree,
    p_set,
    p_set_size_zero_reason,
)
from demkit import generators as gen
from demkit import monitor
from demkit.graph import _bfs, base_graph, bfs_distances, canonical_edge, degree_extremes
from demkit.monitor import _em_holders

from conftest import family_graphs, random_connected_graphs
from oracles import (
    certificate_naive,
    cycle_exclusion_applies,
    em_holders_reference,
    em_incident_only_condition,
    enumerate_shortest_paths,
    has_two_nearly_disjoint_shortest_paths,
    is_forest,
    p_set_reference,
)


def connected_graph_strategy(min_n=2, max_n=9):
    return st.builds(
        lambda n, p, seed: gen.random_connected(n, p, seed),
        st.integers(min_n, max_n),
        st.floats(0.2, 0.9),
        st.integers(0, 10_000),
    )


class TestEmSet:
    def test_tree_monitors_everything(self):
        t = gen.random_tree(9, seed=2)
        for v in range(t.n):
            assert em_set(t, v).edges == set(t.edges())

    def test_complete_graph_incident_only(self):
        g = gen.complete(6).graph
        for v in range(6):
            assert em_set(g, v).edges == {canonical_edge(v, w) for w in range(6) if w != v}

    def test_c4_example(self):
        assert em_set(gen.cycle(4).graph, 0).edges == {(0, 1), (0, 3)}
        assert em_set_naive(gen.cycle(4).graph, 0).edges == {(0, 1), (0, 3)}

    def test_k2_naive(self):
        assert em_set_naive(gen.complete(2).graph, 0).edges == {(0, 1)}

    def test_p3_naive_all_bridges(self):
        g = gen.path(3).graph
        assert em_set_naive(g, 0).edges == set(g.edges())

    def test_petersen_cross_validation(self):
        g = gen.petersen().graph
        for x in range(g.n):
            assert em_set(g, x).edges == em_set_naive(g, x).edges

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedError):
            em_set(g, 0)

    @settings(max_examples=60, deadline=None)
    @given(connected_graph_strategy())
    def test_oracle_equivalence(self, g):
        for x in range(g.n):
            assert em_set(g, x).edges == em_set_naive(g, x).edges

    @settings(max_examples=30, deadline=None)
    @given(connected_graph_strategy(min_n=2, max_n=8), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        for x in range(g.n):
            image = {canonical_edge(perm[a], perm[b]) for a, b in em_set(g, x).edges}
            assert em_set(relabeled, perm[x]).edges == image


def holder_em_sets(g):
    """EM(x) for every x, read off _em_holders."""
    edges = list(g.edges())
    holders = _em_holders(g)
    assert len(holders) == len(edges)
    return [{e for e, h in zip(edges, holders) if h >> x & 1} for x in range(g.n)]


def holder_corpus():
    graphs = random_connected_graphs(150, 2, 45, seed=303, p_lo=0.05, p_hi=0.8)
    graphs += [gen.complete(n).graph for n in (2, 3, 7, 16)]
    graphs += [gen.hypercube(d).graph for d in range(1, 7)]
    graphs += [gen.petersen().graph]
    graphs += [gen.cycle(n).graph for n in (3, 4, 5, 17, 64, 255, 400)]
    graphs += [gen.grid(p, q).graph for p, q in ((2, 2), (2, 9), (5, 5), (4, 11), (12, 12))]
    graphs += [gen.random_tree(n, seed=n) for n in (2, 9, 40)]
    return graphs


def grid_with_chord(p, q, r, c):
    """The p x q grid plus the diagonal from (r, c) to (r + 1, c + 1)."""
    g = gen.grid(p, q).graph
    return build_graph(g.n, list(g.edges()) + [(r * q + c, (r + 1) * q + c + 1)])


def tree_with_chords(n, chords, seed):
    """random_tree(n, seed) plus `chords` random extra edges."""
    rng = random.Random(seed)
    edges = list(gen.random_tree(n, seed).edges())
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(chords)]
    return build_graph(n, edges)


class TestEmHolders:
    def test_matches_em_set(self):
        for g in holder_corpus():
            assert holder_em_sets(g) == [em_set(g, x).edges for x in range(g.n)], g

    def test_matches_reference(self):
        for g in holder_corpus() + [build_graph(1, [])]:
            assert _em_holders(g) == em_holders_reference(g), g

    @pytest.mark.parametrize("n", [101, 401])
    def test_odd_cycle_matches_reference(self, n):
        # Not bipartite: both ends of the antipodal edge lie at the same
        # distance, and the levels wrap mod 3 many times.
        g = gen.cycle(n).graph
        assert _em_holders(g) == em_holders_reference(g)

    @pytest.mark.parametrize("p", [20, 35])
    def test_grid_matches_reference(self, p):
        g = gen.grid(p, p).graph
        assert _em_holders(g) == em_holders_reference(g)

    def test_grid_with_chord_matches_reference(self):
        g = grid_with_chord(12, 12, 3, 4)
        assert _em_holders(g) == em_holders_reference(g)

    def test_tree_with_chords_matches_reference(self):
        g = tree_with_chords(300, 20, seed=300)
        assert base_graph(g).graph.n > 40
        assert _em_holders(g) == em_holders_reference(g)

    @pytest.mark.parametrize(
        "n,p,seed", [(60, 0.05, 2), (80, 0.04, 0), (100, 0.035, 1), (120, 0.03, 5), (150, 0.025, 0)]
    )
    def test_sparse_random_matches_reference(self, n, p, seed):
        g = gen.random_connected(n, p, seed)
        assert max(bfs_distances(g, x).eccentricity() for x in range(g.n)) >= 7
        assert _em_holders(g) == em_holders_reference(g)

    @settings(max_examples=80, deadline=None)
    @given(connected_graph_strategy(min_n=1, max_n=30))
    def test_matches_reference_property(self, g):
        assert _em_holders(g) == em_holders_reference(g)

    @settings(max_examples=80, deadline=None)
    @given(connected_graph_strategy(min_n=2, max_n=30))
    def test_matches_em_set_property(self, g):
        assert holder_em_sets(g) == [em_set(g, x).edges for x in range(g.n)]

    @settings(max_examples=40, deadline=None)
    @given(connected_graph_strategy(min_n=2, max_n=12))
    def test_matches_naive(self, g):
        assert holder_em_sets(g) == [em_set_naive(g, x).edges for x in range(g.n)]

    def test_single_vertex(self):
        assert _em_holders(build_graph(1, [])) == []

    @pytest.mark.parametrize(
        "n,edges",
        [
            (2, []),
            (4, [(0, 1), (2, 3)]),
            (5, [(0, 1), (1, 2), (2, 0), (3, 4)]),
            (6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        ],
    )
    def test_disconnected_rejected(self, n, edges):
        with pytest.raises(DisconnectedError):
            _em_holders(build_graph(n, edges))

    def test_disconnected_far_levels_rejected(self):
        # A 10-cycle and a 6-path: each has diameter 5, so every vertex
        # still meets new sources for several levels before the scan
        # finds the other component missing.
        edges = [(i, (i + 1) % 10) for i in range(10)]
        edges += [(10 + i, 11 + i) for i in range(5)]
        g = build_graph(16, edges)
        with pytest.raises(DisconnectedError):
            em_holders_reference(g)
        with pytest.raises(DisconnectedError):
            _em_holders(g)


def compacted(holders, sources):
    """Vertex-indexed holder masks cut down to `sources`: bit i for sources[i]."""
    return [sum(1 << i for i, x in enumerate(sources) if h >> x & 1) for h in holders]


def source_corpus():
    graphs = [
        g
        for i, p in enumerate((0.1, 0.2, 0.4, 0.6))
        for g in random_connected_graphs(40, 2, 30, seed=505 + i, p_lo=p, p_hi=p)
    ]
    graphs += [gen.grid(p, q).graph for p, q in ((2, 2), (3, 7), (6, 6), (9, 9))]
    graphs += [gen.cycle(n).graph for n in (3, 4, 9, 16, 31, 40)]
    graphs += [gen.hypercube(d).graph for d in range(1, 6)]
    return graphs


class TestEmHolderSources:
    """_em_holders over a list of sources, bit i standing for sources[i]."""

    def test_subsets_match_reference(self):
        rng = random.Random(23)
        for g in source_corpus():
            want = em_holders_reference(g)
            subsets = [list(range(g.n)), [rng.randrange(g.n)]]
            # rng.sample keeps its draw order, so bits need not follow ids.
            subsets += [rng.sample(range(g.n), rng.randint(1, g.n)) for _ in range(4)]
            for sources in subsets:
                assert _em_holders(g, sources) == compacted(want, sources), (g, sources)

    @settings(max_examples=60, deadline=None)
    @given(connected_graph_strategy(min_n=1, max_n=30), st.data())
    def test_subsets_match_reference_property(self, g, data):
        sources = data.draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n))
        assert _em_holders(g, sources) == compacted(em_holders_reference(g), sources)

    def test_no_sources(self):
        g = gen.petersen().graph
        assert _em_holders(g, []) == [0] * g.m
        assert _em_holders(build_graph(0, []), []) == []

    @pytest.mark.parametrize("g,sources", [
        (gen.path(2000).graph, [0]),
        (gen.cycle(2000).graph, [0, 1000]),
        (gen.grid(40, 40).graph, [0, 1599]),
    ])
    def test_far_vertices_are_not_rescanned(self, g, sources):
        # A vertex that meets no new source waits for a neighbour that
        # does, so a few sources cost a few adjacency reads per vertex, not
        # one per vertex and level (2,000,000 on the path).
        reads = []

        class Counted(tuple):
            def __getitem__(self, v):
                reads.append(v)
                return tuple.__getitem__(self, v)

        want = _em_holders(g, sources)
        g._adj = Counted(g._adj)
        assert _em_holders(g, sources) == want
        assert len(reads) <= 10 * len(sources) * g.n

    def test_disconnected_rejected_for_any_sources(self):
        # A 10-cycle and a 6-path: a source on the cycle reaches every
        # cycle vertex over five levels before the scan finds that no
        # vertex of the path ever meets it.
        edges = [(i, (i + 1) % 10) for i in range(10)]
        edges += [(10 + i, 11 + i) for i in range(5)]
        g = build_graph(17, edges)  # vertex 16 is isolated
        for sources in ([], [0], [12], [16], [0, 12], [16, 3], list(range(17))):
            with pytest.raises(DisconnectedError, match="^EM sets requires a connected graph"):
                _em_holders(g, sources)
        with pytest.raises(DisconnectedError, match="^why requires a connected graph"):
            _em_holders(g, [5], "why")


class TestEmSetInvariants:
    @pytest.mark.parametrize("name,g", family_graphs(max_n=12))
    def test_family_invariants(self, name, g):
        br = bridges(g)
        dmin, _ = degree_extremes(g)
        for x in range(g.n):
            ems = em_set(g, x).edges
            assert is_forest(g.n, ems), name
            assert {canonical_edge(x, w) for w in g.neighbors(x)} <= ems, name
            assert br <= ems, name
            assert dmin <= len(ems) <= g.n - 1, name

    def test_incident_only_equivalence_small(self):
        for g in random_connected_graphs(40, 2, 7, seed=99):
            for x in range(g.n):
                incident_only = em_set(g, x).edges == {
                    canonical_edge(x, w) for w in g.neighbors(x)
                }
                assert incident_only == em_incident_only_condition(g, x)

    def test_two_path_helper(self):
        g = gen.cycle(4).graph
        assert has_two_nearly_disjoint_shortest_paths(g, 0, 2)
        p = gen.path(4).graph
        assert not has_two_nearly_disjoint_shortest_paths(p, 0, 3)

    def test_shortest_path_enumeration(self):
        g = gen.cycle(4).graph
        paths = enumerate_shortest_paths(g, 0, 2)
        assert sorted(paths) == [(0, 1, 2), (0, 3, 2)]

    def test_cycle_exclusion_soundness(self):
        for g in random_connected_graphs(25, 4, 7, seed=55, require=lambda h: not is_tree(h)):
            for x in range(g.n):
                ems = em_set(g, x).edges
                for e in g.edges():
                    if cycle_exclusion_applies(g, x, e):
                        assert e not in ems


class TestMonitoringSet:
    def test_single_vertex_on_tree(self):
        t = gen.random_tree(10, seed=4)
        cert = is_monitoring_set(t, [3])
        assert cert.is_monitoring and not cert.uncovered

    def test_k4_pair_leaves_far_edge(self):
        cert = is_monitoring_set(gen.complete(4).graph, [0, 1])
        assert cert.uncovered == {(2, 3)}

    def test_c4_opposite_pair(self):
        cert = is_monitoring_set(gen.cycle(4).graph, [0, 2])
        assert cert.is_monitoring

    def test_disconnected_rejected_for_any_monitors(self):
        # Triangle plus an isolated vertex, and two disjoint edges.
        for g in (build_graph(4, [(0, 1), (1, 2), (0, 2)]), build_graph(4, [(0, 1), (2, 3)])):
            for monitors in ([], [0], [3], [0, 3], list(range(4))):
                with pytest.raises(
                    DisconnectedError,
                    match="^monitoring-set verification requires a connected graph; found 2 ",
                ):
                    is_monitoring_set(g, monitors)

    def test_witnesses_definitional(self):
        g = gen.petersen().graph
        cert = is_monitoring_set(g, [0, 5, 7])
        for e, (x, y) in cert.witnesses.items():
            before = _bfs(g, x)
            after = _bfs(g, x, skip=e)
            assert before[y] != after[y]

    def test_matches_naive_certificate(self):
        graphs = [
            g
            for i, p in enumerate((0.1, 0.2, 0.4, 0.6))
            for g in random_connected_graphs(100, 2, 30, seed=101 + i, p_lo=p, p_hi=p)
        ]
        graphs += [gen.complete(n).graph for n in range(2, 13)]
        graphs += [gen.grid(p, q).graph for p, q in ((2, 2), (2, 5), (3, 3), (3, 6), (4, 4), (5, 6))]
        graphs += [gen.hypercube(d).graph for d in range(1, 6)]
        graphs += [gen.random_tree(n, seed=n) for n in range(2, 30, 2)]
        assert len(graphs) >= 400
        rng = random.Random(5)
        for g in graphs:
            for density in rng.sample((0.1, 0.3, 0.6), 2):
                monitors = [v for v in range(g.n) if rng.random() < density]
                cert = is_monitoring_set(g, monitors)
                naive = certificate_naive(g, monitors)
                assert cert.witnesses == naive.witnesses, (g, monitors)
                assert cert.uncovered == naive.uncovered, (g, monitors)

    @given(connected_graph_strategy(max_n=14), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_certificate_property(self, g, data):
        monitors = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
        cert = is_monitoring_set(g, monitors)
        naive = certificate_naive(g, monitors)
        assert cert.witnesses == naive.witnesses
        assert cert.uncovered == naive.uncovered

    def lazy_cases(self):
        yield gen.petersen().graph, [0, 5, 7]
        yield gen.hypercube(4).graph, []
        yield gen.grid(6, 6).graph, [0, 35]
        for g in random_connected_graphs(6, 10, 25, seed=77, p_lo=0.15, p_hi=0.4):
            yield g, range(0, g.n, 3)

    @staticmethod
    def count_sweeps(monkeypatch) -> list:
        sweeps = []
        real = monitor._sweep
        monkeypatch.setattr(monitor, "_sweep", lambda g, *s: sweeps.append(s) or real(g, *s))
        return sweeps

    def test_is_monitoring_runs_no_sweep(self, monkeypatch):
        sweeps = self.count_sweeps(monkeypatch)
        g = gen.grid(20, 20).graph
        assert is_monitoring_set(g, range(g.n)).is_monitoring
        assert not is_monitoring_set(g, [0, 399]).is_monitoring
        for g, monitors in self.lazy_cases():
            cert = is_monitoring_set(g, monitors)
            naive = certificate_naive(g, monitors)
            assert cert.is_monitoring == naive.is_monitoring
            assert cert.uncovered == naive.uncovered
        assert sweeps == []

    def test_witnesses_sweep_each_witness_monitor_once(self, monkeypatch):
        sweeps = self.count_sweeps(monkeypatch)
        for g, monitors in self.lazy_cases():
            naive = certificate_naive(g, monitors)
            cert = is_monitoring_set(g, monitors)
            sweeps.clear()
            assert list(cert.witnesses.items()) == list(naive.witnesses.items())
            assert cert.witnesses is cert.witnesses
            assert sweeps == sorted({(x,) for x, _ in naive.witnesses.values()})
        # grid20x20: every vertex a monitor, 39 distinct smallest holders.
        g = gen.grid(20, 20).graph
        for monitors, witnessed, witness_monitors in ((range(400), 760, 39), ([0, 399], 76, 2)):
            cert = is_monitoring_set(g, monitors)
            sweeps.clear()
            assert len(cert.witnesses) == witnessed
            assert len(cert.uncovered) == 760 - witnessed
            assert len(sweeps) == witness_monitors

    def test_certificate_values(self):
        g = gen.complete(4).graph
        cert = is_monitoring_set(g, [0, 1])
        # The same monitors, listed in another order with a repeat, on an
        # equal graph: another certificate, equal by value.
        built = is_monitoring_set(gen.complete(4).graph, [1, 0, 1])
        assert built is not cert
        assert built == cert and cert == built
        assert not built.is_monitoring and built.to_json() == cert.to_json()
        assert repr(built) == repr(cert)
        empty = is_monitoring_set(g, [])
        assert (empty.witnesses, empty.uncovered) == ({}, frozenset(g.edges()))
        assert cert != empty
        assert cert != is_monitoring_set(g, [0, 2])
        for name in ("witnesses", "uncovered", "is_monitoring"):
            with pytest.raises(AttributeError):
                setattr(cert, name, None)

    def test_certificate_json_shape(self):
        cert = is_monitoring_set(gen.complete(3).graph, [0])
        js = cert.to_json()
        assert set(js) == {"witnesses", "uncovered"}

    def test_em_and_pair_set_json_keep_ids(self):
        # With the default label the serializers speak vertex ids, sorted.
        g = gen.cycle(5).graph
        assert em_set(g, 3).to_json() == {
            "monitor": 3,
            "edges": [[0, 4], [1, 2], [2, 3], [3, 4]],
            "size": 4,
        }
        assert p_set(g, [4, 1], (2, 1)).to_json() == {
            "monitors": [1, 4],
            "edge": [1, 2],
            "pairs": [[1, 2], [1, 3]],
            "size": 2,
        }


def any_graph(n, p, seed):
    """A G(n, p) sample, connected or not."""
    rng = random.Random(seed)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def assert_p_set_parity(g, monitors):
    for e in g.edges():
        assert p_set(g, monitors, e) == p_set_reference(g, monitors, e), (g, monitors, e)


class TestPSetParity:
    @pytest.mark.parametrize("name,g", family_graphs(max_n=16))
    def test_every_family(self, name, g):
        rng = random.Random(g.n * 7 + g.m)
        assert_p_set_parity(g, range(g.n))
        assert_p_set_parity(g, [v for v in range(g.n) if rng.random() < 0.4])

    @pytest.mark.parametrize("n", [2, 3, 8, 25])
    def test_trees_every_edge_a_bridge(self, n):
        t = gen.random_tree(n, seed=n)
        assert bridges(t) == set(t.edges())
        assert_p_set_parity(t, range(n))
        assert_p_set_parity(t, [n - 1])

    def test_grid_with_chord(self):
        g = grid_with_chord(6, 7, 2, 3)
        assert_p_set_parity(g, range(g.n))

    def test_disconnected_random(self):
        seen_disconnected = 0
        for seed in range(60):
            g = any_graph(4 + seed % 20, 0.12, seed)
            seen_disconnected += not is_connected(g)
            rng = random.Random(seed)
            assert_p_set_parity(g, range(g.n))
            assert_p_set_parity(g, [v for v in range(g.n) if rng.random() < 0.5])
        assert seen_disconnected >= 40

    def test_monitor_lists(self):
        g = gen.grid(4, 5).graph
        for monitors in ([], [7, 7, 7], [19, 0, 3, 0, 12], range(19, -1, -1)):
            assert_p_set_parity(g, monitors)

    def test_bad_input_raises_like_reference(self):
        g = gen.path(4).graph
        for monitors, e in (([0], (0, 2)), ([4], (0, 1)), ([-1], (1, 2))):
            with pytest.raises(Exception) as want:
                p_set_reference(g, monitors, e)
            with pytest.raises(want.type):
                p_set(g, monitors, e)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_reference_property(self, data):
        n = data.draw(st.integers(2, 20))
        g = any_graph(n, data.draw(st.floats(0.05, 0.9)), data.draw(st.integers(0, 10_000)))
        if not g.m:
            return
        e = data.draw(st.sampled_from(sorted(g.edges())))
        monitors = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        if data.draw(st.booleans()):
            e = e[::-1]
        assert p_set(g, monitors, e) == p_set_reference(g, monitors, e)

    def test_traversals_bounded_by_holders(self, monkeypatch):
        # Four BFS from the endpoints, then one bit-parallel sweep for all
        # the monitors that hold the edge, which calls no traversal: a
        # count, so it does not depend on machine speed.
        g = gen.grid(20, 20).graph
        e = (90, 91)
        want = p_set_reference(g, range(g.n), e)
        holders = {x for x, _ in want.pairs}
        assert len(holders) == 20
        calls = []

        def counted(name):
            real = getattr(monitor, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("_bfs", "_sweep", "_dominators"):
            monkeypatch.setattr(monitor, name, counted(name))
        assert p_set(g, range(g.n), e) == want
        assert len(calls) <= 4 + len(holders) == 24
        assert calls == ["_bfs"] * 4


class TestZeroReason:
    def test_empty_monitors(self):
        r = p_set_size_zero_reason(gen.complete(3).graph, [], (1, 2))
        assert r.empty_monitor_set and r.labels() == {"i"}

    def test_triangle_equidistant(self):
        r = p_set_size_zero_reason(gen.complete(3).graph, [0], (1, 2))
        assert r.per_vertex == {0: "equidistant"}

    def test_c4_detour_case(self):
        r = p_set_size_zero_reason(gen.cycle(4).graph, [0], (1, 2))
        assert r.per_vertex == {0: "detour_preserves_distance"}

    def test_not_zero_rejected(self):
        with pytest.raises(NotZeroError):
            p_set_size_zero_reason(gen.complete(2).graph, [0], (0, 1))

    def test_classification_total_on_corpus(self):
        for g in random_connected_graphs(30, 3, 7, seed=77):
            rng = random.Random(g.n * 17 + g.m)
            for e in g.edges():
                monitors = [v for v in range(g.n) if rng.random() < 0.4]
                if p_set(g, monitors, e).size == 0:
                    r = p_set_size_zero_reason(g, monitors, e)
                    assert r.empty_monitor_set or set(r.per_vertex) == set(monitors)

    def test_tags_match_per_monitor_bfs(self):
        checked = 0
        for seed in range(40):
            g = any_graph(3 + seed % 12, 0.3, seed)
            rng = random.Random(seed)
            for u, v in g.edges():
                monitors = [x for x in range(g.n) if x not in (u, v) and rng.random() < 0.5]
                if not monitors or p_set(g, monitors, (u, v)).size:
                    continue
                tags = p_set_size_zero_reason(g, monitors, (u, v)).per_vertex
                for x in monitors:
                    d = _bfs(g, x)
                    assert tags[x] == ("equidistant" if d[u] == d[v] else "detour_preserves_distance")
                checked += 1
        assert checked >= 50

    def test_two_bfs_after_p_set(self, monkeypatch):
        # p_set's four endpoint BFS, then d(u, .) and d(v, .) for the tags;
        # no monitor of an empty P(M, e) holds e, so none is swept.
        g = gen.cycle(4).graph
        calls = []
        real = monitor._bfs
        monkeypatch.setattr(
            monitor, "_bfs", lambda g, s, **kw: calls.append((s, "skip" in kw)) or real(g, s, **kw)
        )
        r = p_set_size_zero_reason(g, [0, 3], (1, 2))
        assert r.per_vertex == {0: "detour_preserves_distance", 3: "detour_preserves_distance"}
        assert calls == [(1, False), (2, False), (1, True), (2, True), (1, False), (2, False)]
