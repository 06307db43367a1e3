import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import (
    BadParameterError,
    DisconnectedError,
    IsTreeError,
    OutOfRangeError,
    TooLargeError,
    base_graph,
    bounds_report,
    build_graph,
    dem2_pair_check,
    dem3_triple_check,
    dem_exact,
    dem_is_2,
    em_cardinality_checks,
    em_set,
    is_tree,
    layer_profile,
    verify_em2_family_member,
)
from demkit import generators as gen
from demkit import graph as graph_mod
from demkit import monitor as monitor_mod
from demkit import structural as structural_mod
from demkit.structural import (
    DEM3_RULE_NAMES,
    clique_number,
    dem2_first_pass,
    independence_number,
    minimum_vertex_cover_size,
    unique_parent_condition,
)

from conftest import random_connected_graphs
from oracles import clique_number_reference, vertex_cover_reference


class TestLayerProfile:
    def test_c4_antipodal_cells(self):
        prof = layer_profile(gen.cycle(4).graph, (0, 2))
        assert prof.cells[(0, 2)] == {0}
        assert prof.cells[(1, 1)] == {1, 3}
        assert prof.cells[(2, 0)] == {2}

    def test_k4_cells(self):
        prof = layer_profile(gen.complete(4).graph, (0, 1))
        assert prof.cells[(0, 1)] == {0}
        assert prof.cells[(1, 0)] == {1}
        assert prof.cells[(1, 1)] == {2, 3}

    def test_hypercube_diagonal(self):
        g = gen.hypercube(3).graph
        prof = layer_profile(g, (0, 7))
        for v in range(8):
            weight = bin(v).count("1")
            assert prof.cell_of[v] == (weight, 3 - weight)

    def test_cells_partition(self):
        for g in random_connected_graphs(20, 3, 8, seed=2):
            prof = layer_profile(g, (0, g.n - 1))
            covered = set()
            for cell in prof.cells.values():
                assert not (covered & cell)
                covered |= cell
            assert covered == set(range(g.n))

    def test_adjacent_cells_differ_by_at_most_one(self):
        for g in random_connected_graphs(20, 4, 8, seed=4):
            sources = (0, 1, g.n - 1) if g.n >= 3 else (0, 1)
            prof = layer_profile(g, sources)
            for u, v in g.edges():
                assert all(
                    abs(a - b) <= 1 for a, b in zip(prof.cell_of[u], prof.cell_of[v])
                )

    def test_bad_sources(self):
        g = gen.cycle(4).graph
        with pytest.raises(BadParameterError):
            layer_profile(g, (0, 0))
        with pytest.raises(BadParameterError):
            layer_profile(g, (0,))


# A triangle plus a disjoint edge: every cell check needs one BFS row per
# source and must reject the graph before any rule runs.
DISCONNECTED = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
LAYER_MESSAGE = "layer profile requires a connected graph; found 2 components of sizes [3, 2]"
CELL_CHECKS = {
    "layer_profile": lambda g, x: layer_profile(g, (0, x)),
    "dem2_pair_check": lambda g, x: dem2_pair_check(g, 0, x),
    "dem3_triple_check": lambda g, x: dem3_triple_check(g, 0, 1, x),
}


class TestDistanceRows:
    @pytest.mark.parametrize("check", list(CELL_CHECKS))
    def test_disconnected(self, check):
        with pytest.raises(DisconnectedError) as exc:
            CELL_CHECKS[check](DISCONNECTED, 3)
        assert str(exc.value) == LAYER_MESSAGE

    def test_first_pass_disconnected(self):
        with pytest.raises(DisconnectedError) as exc:
            dem2_first_pass(DISCONNECTED)
        assert str(exc.value) == LAYER_MESSAGE

    @pytest.mark.parametrize("check", list(CELL_CHECKS))
    def test_repeated_vertex(self, check):
        with pytest.raises(BadParameterError, match="distinct"):
            CELL_CHECKS[check](gen.cycle(5).graph, 0)

    @pytest.mark.parametrize("check", list(CELL_CHECKS))
    def test_out_of_range(self, check):
        # The range check comes first, also on a disconnected graph.
        for g in (gen.cycle(5).graph, DISCONNECTED):
            with pytest.raises(OutOfRangeError, match="vertex 5 outside 0..4"):
                CELL_CHECKS[check](g, 5)

    def test_first_pass_one_row_per_vertex(self, monkeypatch):
        g = gen.petersen().graph
        sweeps = []
        for module in (graph_mod, monitor_mod, structural_mod):
            real = module._sweep
            monkeypatch.setattr(
                module, "_sweep", lambda h, *s, real=real: sweeps.append(s) or real(h, *s)
            )
        dem2_first_pass(g)
        assert all(len(s) == 1 for s in sweeps)
        assert len(sweeps) <= g.n


class TestDemIs2:
    def test_c6_adjacent_pair_fails_distance2_passes(self):
        gb = gen.cycle(6).graph
        adjacent = dem2_pair_check(gb, 0, 1)
        assert not adjacent.all_pass and not adjacent.direct_check
        apart = dem2_pair_check(gb, 0, 2)
        assert apart.all_pass and apart.direct_check

    def test_k4_every_pair_fails_independence(self):
        gb = gen.complete(4).graph
        rep = dem2_pair_check(gb, 0, 1)
        assert not rep.all_pass
        failing = {c.name for c in rep.conditions if not c.passed}
        assert "independent_cells" in failing

    def test_grid33_has_no_pair(self):
        # dem of the 3x3 grid is 3; no pair can pass, corners included.
        g = gen.grid(3, 3).graph
        assert dem_exact(g).value == 3
        assert dem_is_2(g) is None
        corner_rep = dem2_pair_check(g, 0, 8)
        assert not corner_rep.all_pass and not corner_rep.direct_check

    def test_c5_found(self):
        assert dem_is_2(gen.cycle(5).graph) is not None

    def test_k5_none(self):
        assert dem_is_2(gen.complete(5).graph) is None

    def test_k33_none(self):
        assert dem_is_2(gen.complete_bipartite(3, 3).graph) is None

    def test_tree_rejected(self):
        with pytest.raises(IsTreeError):
            dem_is_2(gen.star(4).graph)

    def test_pair_reported_in_original_ids(self):
        cyc = gen.cycle(6).graph
        g = build_graph(8, list(cyc.edges()) + [(0, 6), (6, 7)])
        pair = dem_is_2(g)
        assert pair is not None
        assert all(v <= 5 for v in pair)  # core vertices only

    def test_equivalence_with_solver(self, nontree_n8_corpus):
        sample = nontree_n8_corpus[:120]
        for g in sample:
            found = dem_is_2(g)
            assert (found is not None) == (dem_exact(g).value == 2)

    def test_per_pair_agreement(self):
        for g in random_connected_graphs(50, 3, 8, seed=91, require=lambda h: not is_tree(h)):
            gb = base_graph(g).graph
            for u, v in combinations(range(gb.n), 2):
                assert not dem2_pair_check(gb, u, v).discrepancy


class TestDem3:
    def test_rule_names_stable(self):
        assert len(DEM3_RULE_NAMES) == 15
        assert DEM3_RULE_NAMES[0] == "independent_cells"

    def test_k4_triple(self):
        rep = dem3_triple_check(gen.complete(4).graph, 0, 1, 2)
        assert rep.direct_check
        assert not rep.discrepancy

    def test_c6_triple_direct(self):
        rep = dem3_triple_check(gen.cycle(6).graph, 0, 1, 2)
        assert rep.direct_check

    def test_k33_side_triple_direct(self):
        rep = dem3_triple_check(gen.complete_bipartite(3, 3).graph, 0, 1, 2)
        assert rep.direct_check

    def test_rules_never_reject_true_monitoring_triples(self):
        # Empirically the transcribed rules are one-sided: every monitoring
        # triple passes them (the converse does not hold and is only audited).
        for g in random_connected_graphs(30, 4, 7, seed=17, require=lambda h: not is_tree(h)):
            gb = base_graph(g).graph
            if gb.n < 3:
                continue
            for t in combinations(range(gb.n), 3):
                rep = dem3_triple_check(gb, *t)
                if rep.direct_check:
                    assert rep.all_pass, (sorted(gb.edges()), t)

    def test_report_json(self):
        rep = dem3_triple_check(gen.complete(4).graph, 0, 1, 2)
        js = rep.to_json()
        assert set(js) == {"tuple", "conditions", "direct_check", "discrepancy"}
        assert len(js["conditions"]) == 15


def test_rule_reports_golden():
    # SHA-256 over the JSON of every pair and every triple report on 80
    # seeded base graphs: pins each rule's pass/fail and witness.
    digest = hashlib.sha256()
    failed = set()
    count = 0
    for seed in (10, 2024):
        graphs = random_connected_graphs(
            40, 5, 10, seed=seed, p_lo=0.2, p_hi=0.6, require=lambda h: not is_tree(h)
        )
        for g in graphs:
            gb = base_graph(g).graph
            reports = [dem2_pair_check(gb, u, v) for u, v in combinations(range(gb.n), 2)]
            reports += [dem3_triple_check(gb, *t) for t in combinations(range(gb.n), 3)]
            for rep in reports:
                digest.update((json.dumps(rep.to_json(), sort_keys=True) + "\n").encode())
                failed |= {c.name for c in rep.conditions if not c.passed}
                count += 1
    assert count == 4965
    assert len(failed) == 18  # every rule of both lists fails somewhere
    assert digest.hexdigest() == (
        "0fafaae8ea051e400cf1d7ebb11819bf885cf0c13ea6e6603be144e088ab56f4"
    )


class TestBounds:
    def test_k6(self):
        rep = bounds_report(gen.complete(6).graph)
        assert rep.density_lb == 3
        assert rep.clique_lb == 3
        assert rep.vertex_cover_ub == 5
        assert rep.gallai_ub == 5

    def test_tree(self):
        rep = bounds_report(gen.random_tree(10, seed=0))
        assert rep.density_lb == 1
        assert rep.feedback_ub is None

    def test_petersen(self):
        rep = bounds_report(gen.petersen().graph)
        assert rep.density_lb == 2
        assert rep.regular_lb == 2
        assert rep.clique_lb == 1
        assert rep.vertex_cover_ub == 6

    def test_gallai_identity(self):
        for g in random_connected_graphs(30, 2, 9, seed=14):
            assert minimum_vertex_cover_size(g) + independence_number(g) == g.n

    def test_clique_numbers(self):
        assert clique_number(gen.complete(7).graph) == 7
        assert clique_number(gen.cycle(5).graph) == 2
        assert clique_number(gen.complete_bipartite(3, 3).graph) == 2

    def test_vertex_cover_known_values(self):
        assert minimum_vertex_cover_size(gen.complete(6).graph) == 5
        assert minimum_vertex_cover_size(gen.cycle(6).graph) == 3
        assert minimum_vertex_cover_size(gen.star(7).graph) == 1
        assert minimum_vertex_cover_size(gen.petersen().graph) == 6

    def test_guards(self):
        big = build_graph(70, [(i, i + 1) for i in range(69)])
        with pytest.raises(TooLargeError):
            clique_number(big)
        with pytest.raises(TooLargeError):
            minimum_vertex_cover_size(build_graph(45, [(i, i + 1) for i in range(44)]))
        rep = bounds_report(big)
        assert rep.clique_lb is None and rep.vertex_cover_ub is None

    def test_sandwich_against_exact(self):
        for g in random_connected_graphs(30, 2, 9, seed=21):
            rep = bounds_report(g)
            val = dem_exact(g).value
            assert max(rep.density_lb, rep.clique_lb) <= val <= rep.vertex_cover_ub
            assert rep.vertex_cover_ub == rep.gallai_ub
            if rep.feedback_ub is not None:
                assert val <= rep.feedback_ub
            if rep.regular_lb is not None:
                assert rep.regular_lb <= val <= g.n - 1


def _family_sweep(limit: int):
    """Every generator family at every size up to `limit` vertices (some
    parameters strided), plus hypercubes, Petersen and layered graphs."""
    for n in range(1, limit + 1):
        yield gen.path(n).graph
        yield gen.complete(n).graph
        if n >= 2:
            yield gen.star(n - 1).graph
        if n >= 3:
            yield gen.cycle(n).graph
            yield gen.d2_graph(n).graph
        if n >= 5:
            yield gen.d1_graph(n, d_edges=[(0, 1)]).graph
        for k in range(2, n, 5):
            yield gen.em_k_construction(n, k).graph
        for b in range(0, n // 2, 4):
            yield gen.double_star(n - 2 - b, b).graph
        for a in range(1, n // 2 + 1, 3):
            yield gen.complete_bipartite(a, n - a).graph
        if n >= 3:
            for m in (1, 2, 5):
                if n + m <= limit:
                    yield gen.join_with_empty(gen.cycle(n).graph, m).graph
    for p in range(2, limit // 2 + 1):
        for q in range(p, limit // p + 1):
            yield gen.grid(p, q).graph
    d = 1
    while 2**d <= limit:
        yield gen.hypercube(d).graph
        d += 1
    yield gen.petersen().graph
    for seed, sizes in enumerate(((2, 1), (3, 3, 2), (4, 5, 4, 3), (6, 6, 6, 6, 6, 5))):
        inst = gen.a_d_graph(len(sizes) + 1, sizes, seed=seed, intra_edge_prob=0.3)
        if inst.graph.n <= limit:
            yield inst.graph


def _cocktail_party(k: int):
    """K_{2 x k}: 2k vertices, all edges but the k disjoint pairs (i, i + k)."""
    n = 2 * k
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u + k])


def _complement(g):
    return build_graph(
        g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    )


def _random_graph(n: int, p: float, rng):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _assert_matches_references(g):
    if g.n <= structural_mod.CLIQUE_GUARD:
        assert clique_number(g) == clique_number_reference(g), g
    if g.n <= structural_mod.VERTEX_COVER_GUARD:
        beta = vertex_cover_reference(g)
        assert minimum_vertex_cover_size(g) == beta, g
        assert independence_number(g) == g.n - beta, g


class TestIndependenceSearch:
    """clique_number, minimum_vertex_cover_size and independence_number
    share one search; each must agree with the routine it replaced."""

    def test_families_up_to_each_guard(self):
        for g in _family_sweep(structural_mod.CLIQUE_GUARD):
            _assert_matches_references(g)

    def test_cocktail_party_graphs(self):
        for k in range(1, 13):
            g = _cocktail_party(k)
            assert clique_number(g) == k
            _assert_matches_references(g)

    def test_complements_of_sparse_graphs(self):
        for n in range(1, 31):
            sparse = [gen.random_tree(n, seed=n)]
            sparse.append(gen.cycle(n).graph if n >= 3 else gen.path(n).graph)
            if n >= 2:
                sparse.append(gen.random_connected(n, 0.15, n))
            for g in sparse:
                _assert_matches_references(_complement(g))

    def test_random_graphs(self):
        rng = random.Random(12)
        for _ in range(320):
            n = rng.randint(0, 40)
            p = rng.choice([0.0, rng.random() * 0.2, rng.random()])
            _assert_matches_references(_random_graph(n, p, rng))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    def test_matches_references_property(self, n, p, rng):
        _assert_matches_references(_random_graph(n, p, rng))

    # Known values on inputs where Bron-Kerbosch took seconds to minutes.
    def test_cocktail_party_32(self):
        assert clique_number(_cocktail_party(32)) == 32

    def test_complement_of_c64(self):
        assert clique_number(_complement(gen.cycle(64).graph)) == 32

    def test_bounds_of_cocktail_party_20(self):
        rep = bounds_report(_cocktail_party(20))
        assert rep.clique_lb == 10
        assert rep.vertex_cover_ub == 38


class TestEmCardinality:
    def test_k2(self):
        rep = em_cardinality_checks(gen.complete(2).graph, 0)
        assert rep.size == 1 and rep.is_k2
        assert rep.size1_iff_k2 and rep.full_iff_unique_parent

    def test_path_end(self):
        g = gen.path(6).graph
        rep = em_cardinality_checks(g, 0)
        assert rep.size == 5 == g.n - 1
        assert rep.unique_parent and rep.full_iff_unique_parent

    def test_c4(self):
        rep = em_cardinality_checks(gen.cycle(4).graph, 0)
        assert rep.size == 2
        assert not rep.unique_parent
        assert rep.full_iff_unique_parent

    def test_unique_parent_equivalence_random(self):
        for g in random_connected_graphs(60, 2, 9, seed=33):
            for v in range(g.n):
                assert unique_parent_condition(g, v) == (em_set(g, v).size == g.n - 1)

    def test_size_one_only_on_k2(self):
        for g in random_connected_graphs(40, 3, 9, seed=44):
            for v in range(g.n):
                assert em_set(g, v).size >= 2


class TestEm2Families:
    def test_d2(self):
        inst = gen.d2_graph(7)
        assert verify_em2_family_member(inst.graph, inst.role("v"))

    def test_d1_with_inner_edges(self):
        inst = gen.d1_graph(5, d_edges=[(0, 1)])
        assert verify_em2_family_member(inst.graph, inst.role("v"))

    def test_a3(self):
        inst = gen.a_d_graph(3, [2, 1], seed=11)
        assert verify_em2_family_member(inst.graph, inst.role("v"))

    def test_c5_not_two(self):
        # odd cycles have spanning-tree EM sets, size n-1
        assert em_set(gen.cycle(5).graph, 0).size == 4
        assert not verify_em2_family_member(gen.cycle(5).graph, 0)
