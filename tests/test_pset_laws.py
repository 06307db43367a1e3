"""Laws of the pair sets P(M, e): monotonicity, disjointness, fiber
distinctness, global and cut-edge bounds, the holder law, the
complete-graph fibers, and symmetry, restriction and relabelling on graphs
too large for the reference."""

import random

import pytest

from demkit import bridges, build_graph, dem_greedy, p_set
from demkit import generators as gen
from demkit.graph import _bfs

from conftest import random_connected_graphs
from oracles import p_set_reference


def _component_sizes_after(g, e):
    dist = _bfs(g, e[0], skip=e)
    side = sum(1 for d in dist if d >= 0)
    return side, g.n - side


class TestExamples:
    def test_k2_full(self):
        g = gen.complete(2).graph
        ps = p_set(g, [0, 1], (0, 1))
        assert ps.pairs == {(0, 1), (1, 0)}
        assert ps.size == g.n * (g.n - 1)

    def test_join_interior_edge_invisible(self):
        apex = gen.complete(3).graph
        inner = gen.cycle(4).graph
        joined = gen.join(apex, inner)
        inner_edge = (3, 4)
        assert joined.has_edge(*inner_edge)
        assert p_set(joined, [0, 1, 2], inner_edge).size == 0

    def test_double_star_center_edge(self):
        inst = gen.double_star(3, 2)
        ps = p_set(inst.graph, range(inst.graph.n), (0, 1))
        assert ps.size == 2 * 4 * 3

    def test_balanced_double_star_hits_upper_bound(self):
        inst = gen.double_star(3, 3)
        n = inst.graph.n
        ps = p_set(inst.graph, range(n), (0, 1))
        assert ps.size == 2 * (n // 2) * ((n + 1) // 2)


class TestLaws:
    def _corpus(self):
        return random_connected_graphs(40, 2, 8, seed=13)

    def test_monotonicity(self):
        for g in self._corpus():
            rng = random.Random(g.n * 31 + g.m)
            e = min(g.edges())
            m2 = [v for v in range(g.n) if rng.random() < 0.6]
            m1 = [v for v in m2 if rng.random() < 0.5]
            assert p_set(g, m1, e).pairs <= p_set(g, m2, e).pairs

    def test_disjointness_biconditional(self):
        for g in self._corpus():
            rng = random.Random(g.n * 13 + 7 * g.m)
            e = min(g.edges())
            m1 = {v for v in range(g.n) if rng.random() < 0.5}
            m2 = {v for v in range(g.n) if rng.random() < 0.5}
            p1, p2 = p_set(g, m1, e).pairs, p_set(g, m2, e).pairs
            if m1.isdisjoint(m2):
                assert not (p1 & p2)
            if p_set(g, m1 & m2, e).pairs:
                assert (not (m1 & m2)) == (not (p1 & p2))

    def test_fiber_distinctness_for_monitoring_sets(self):
        for g in self._corpus():
            if g.n < 3 or g.m < 2:
                continue
            monitors = dem_greedy(g).monitor_set
            fibers = {}
            for e in g.edges():
                pairs = frozenset(p_set(g, monitors, e).pairs)
                assert pairs not in fibers.values()
                fibers[e] = pairs

    def test_global_bounds_and_monitor_membership(self):
        for g in self._corpus():
            rng = random.Random(g.m)
            e = min(g.edges())
            monitors = [v for v in range(g.n) if rng.random() < 0.7]
            ps = p_set(g, monitors, e)
            assert 0 <= ps.size <= g.n * (g.n - 1)
            assert all(x in ps.monitors for x, _ in ps.pairs)

    def test_cut_edge_bounds(self):
        seen_cut_edge = False
        for g in self._corpus():
            for e in bridges(g):
                seen_cut_edge = True
                size = p_set(g, range(g.n), e).size
                n = g.n
                assert 2 * (n - 1) <= size <= 2 * (n // 2) * ((n + 1) // 2)
                n1, n2 = _component_sizes_after(g, e)
                assert size == 2 * n1 * n2
                assert (size == 2 * (n // 2) * ((n + 1) // 2)) == (abs(n1 - n2) <= 1)
        assert seen_cut_edge

    def test_holder_law(self):
        # Deleting e = (u, v) changes at most one of d(x, u) and d(x, v),
        # never the nearer one: p_set reads the far end off this.  The
        # disjoint unions of corpus neighbours are disconnected.
        graphs = self._corpus()
        graphs += [
            build_graph(a.n + b.n, [*a.edges(), *((p + a.n, q + a.n) for p, q in b.edges())])
            for a, b in zip(graphs[::2], graphs[1::2])
        ]
        seen = {"u": 0, "v": 0, "none": 0, "unreached": 0}
        for g in graphs:
            for e in g.edges():
                u, v = e
                du, dv = _bfs(g, u), _bfs(g, v)
                du_after, dv_after = _bfs(g, u, skip=e), _bfs(g, v, skip=e)
                for x in range(g.n):
                    u_moved, v_moved = du_after[x] != du[x], dv_after[x] != dv[x]
                    assert not (u_moved and v_moved), (g, e, x)
                    if u_moved:
                        assert du[x] > dv[x], (g, e, x)
                    if v_moved:
                        assert dv[x] > du[x], (g, e, x)
                    seen["u" if u_moved else "v" if v_moved else "none"] += 1
                    seen["unreached"] += du[x] < 0
        assert all(seen.values()), seen

    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_graph_fibers(self, n):
        g = gen.complete(n).graph
        rng = random.Random(n)
        for _ in range(6):
            monitors = {v for v in range(n) if rng.random() < 0.5}
            for e in g.edges():
                expected = len({e[0], e[1]} & monitors)
                assert p_set(g, monitors, e).size == expected


def _assert_large_laws(g, edges, seed):
    # P(V, e) is symmetric, P(M, e) = P(V, e) & (M x V), and relabelling
    # the graph relabels P(M, e): laws that hold at any size, so they
    # check p_set where two BFS per monitor would take too long.  Returns
    # the sizes of the P(V, e).
    sizes = []
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    moved = build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
    for u, v in edges:
        every = p_set(g, range(g.n), (u, v)).pairs
        sizes.append(len(every))
        assert every == {(y, x) for x, y in every}, (g, (u, v))
        monitors = rng.sample(range(g.n), g.n // 2)
        chosen = set(monitors)
        some = p_set(g, monitors, (u, v)).pairs
        assert some == {(x, y) for x, y in every if x in chosen}, (g, (u, v))
        mapped = p_set(moved, [perm[x] for x in monitors], (perm[u], perm[v])).pairs
        assert mapped == {(perm[x], perm[y]) for x, y in some}, (g, (u, v))
    return sizes


class TestLargeLaws:
    @pytest.mark.parametrize("n", [100, 250, 400])
    def test_random_graphs(self, n):
        g = gen.random_connected(n, 8 / n, seed=n)
        rng = random.Random(n)
        _assert_large_laws(g, rng.sample(sorted(g.edges()), 3), seed=n)

    def test_random_tree(self):
        t = gen.random_tree(1000, 3)
        rng = random.Random(3)
        edges = [(0, t.neighbors(0)[0]), *rng.sample(sorted(t.edges()), 2)]
        for e, size in zip(edges, _assert_large_laws(t, edges, seed=3)):
            n1, n2 = _component_sizes_after(t, e)
            assert size == 2 * n1 * n2

    def test_tree_plus_chords(self):
        rng = random.Random(5)
        t = gen.random_tree(400, 5)
        chords = [tuple(rng.sample(range(t.n), 2)) for _ in range(20)]
        g = build_graph(t.n, [*t.edges(), *chords])
        _assert_large_laws(g, rng.sample(sorted(g.edges()), 4), seed=5)

    def test_long_pendant_path(self):
        # A bridge from core vertex 0 to an 80-vertex path: every holder's
        # changed targets run along the path, up to 80 levels past its far
        # end, so the sweep must not stop at the far ends.  The same holds
        # for the core edges at 0 and its neighbours whose far side
        # carries the path.
        core = gen.random_connected(40, 0.1, seed=9)
        tail = 80
        g = build_graph(
            core.n + tail,
            [*core.edges(), (0, core.n), *((core.n + i, core.n + i + 1) for i in range(tail - 1))],
        )
        near = {0, *core.neighbors(0)}
        edges = [(0, core.n), (core.n + tail // 2, core.n + tail // 2 + 1)]
        edges += [e for e in core.edges() if near & set(e)]
        every = range(g.n)
        for e in edges:
            assert p_set(g, every, e) == p_set_reference(g, every, e), e
        n1, n2 = _component_sizes_after(g, edges[0])
        assert _assert_large_laws(g, edges[:2], seed=9)[0] == 2 * n1 * n2
