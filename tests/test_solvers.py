import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demkit
from demkit import (
    BadParameterError,
    DemResult,
    DisconnectedError,
    base_graph,
    build_graph,
    dem_exact,
    dem_greedy,
    is_monitoring_set,
    verify_dem_result,
)
from demkit import generators as gen
from demkit import solvers
from demkit.monitor import _em_holders
from demkit.solvers import (
    _cover_instance,
    _cover_search,
    _greedy_cover,
    _improve_cover,
    _merge,
    _transpose,
)

from conftest import attach_pendant_trees, random_connected_graphs
from oracles import (
    brute_minimum_monitoring,
    cover_search_reference,
    greedy_cover_reference,
    harmonic,
    improve_cover_reference,
    merge_reference,
    milp_dem,
    transpose_reference,
)


class TestDemExact:
    def test_tree_is_one(self):
        res = dem_exact(gen.random_tree(12, seed=9))
        assert res.value == 1 and res.exact
        assert res.certificate.is_monitoring

    def test_complete_graphs(self):
        for n in range(2, 8):
            assert dem_exact(gen.complete(n).graph).value == n - 1

    def test_k23(self):
        assert dem_exact(gen.complete_bipartite(2, 3).graph).value == 2

    def test_certificate_always_complete(self):
        for g in random_connected_graphs(25, 2, 9, seed=5):
            res = dem_exact(g)
            assert not res.certificate.uncovered
            assert res.value == len(res.monitor_set)

    def test_matches_bruteforce(self):
        for g in random_connected_graphs(40, 2, 7, seed=3):
            res = dem_exact(g)
            opt, _ = brute_minimum_monitoring(g)
            assert res.value == opt

    def test_lexicographically_smallest_over_core(self):
        # Monitors are drawn from the 2-core, so lex-minimality is asserted
        # against subsets of surviving vertices (the value is still global).
        from itertools import combinations

        from demkit import em_set_naive

        for g in random_connected_graphs(25, 3, 7, seed=19):
            res = dem_exact(g)
            opt, _ = brute_minimum_monitoring(g)
            assert res.value == opt
            if res.value == 1:
                continue
            survivors = [
                v for v, new in enumerate(base_graph(g).old_to_new) if new is not None
            ]
            masks = {v: em_set_naive(g, v).edges for v in survivors}
            all_edges = set(g.edges())
            lex_first = next(
                sub
                for sub in combinations(survivors, opt)
                if set().union(*(masks[x] for x in sub)) == all_edges
            )
            assert res.monitor_set == lex_first

    def test_deterministic(self):
        g = gen.random_connected(9, 0.4, seed=77)
        first = dem_exact(g)
        second = dem_exact(g)
        assert first.monitor_set == second.monitor_set
        assert first.stats["nodes"] == second.stats["nodes"]

    def test_budget_exhaustion_flags_inexact(self):
        # K_8 needs real branching (the root bound proves 4, greedy finds 7),
        # so a one-node budget must abort and flag the incumbent inexact.
        g = gen.complete(8).graph
        res = dem_exact(g, budget=1)
        assert not res.exact
        assert res.stats.get("budget_exhausted")
        assert res.certificate.is_monitoring  # incumbent still valid

    def test_budget_zero_returns_incumbent(self):
        res = dem_exact(gen.complete(6).graph, budget=0)
        assert res.value == 5 and not res.exact
        assert res.stats["nodes"] == 0

    def test_budget_cut_cover_is_improved(self):
        # The greedy cover of this core has 12 sets and the search finds no
        # better one in 100 nodes; local search swaps three sets for two.
        g = gen.random_connected(40, 0.15, seed=1)
        res = dem_exact(g, budget=100)
        assert not res.exact and res.value == 11
        assert res.certificate.is_monitoring

    def test_mid_size_core_parity(self):
        # A sparse mid-size core: without the packing bound, include-first
        # order needs millions of nodes here.
        res = dem_exact(gen.random_connected(40, 0.15, seed=1))
        assert res.exact and res.value == 10
        assert res.monitor_set == (0, 2, 4, 12, 13, 18, 22, 24, 25, 37)
        assert res.stats["nodes"] < 100_000

    def test_negative_budget_rejected(self):
        with pytest.raises(BadParameterError):
            dem_exact(gen.cycle(5).graph, budget=-1)

    def test_core_over_1000_vertices(self):
        # The search keeps its own stack, so a 1024-vertex core does not
        # hit the interpreter's recursion limit.
        res = dem_exact(gen.grid(32, 32).graph)
        assert res.value == 32 and res.exact
        assert res.certificate.is_monitoring

    def test_disconnected_rejected(self):
        # The second graph has n - 1 edges but is no tree.
        for g in (build_graph(4, [(0, 1), (2, 3)]), build_graph(4, [(0, 1), (1, 2), (0, 2)])):
            with pytest.raises(DisconnectedError):
                dem_exact(g)

    def test_single_vertex_rejected(self):
        with pytest.raises(BadParameterError):
            dem_exact(build_graph(1, []))

    def test_value_range(self):
        for g in random_connected_graphs(25, 2, 10, seed=8):
            res = dem_exact(g)
            assert 1 <= res.value <= g.n - 1


class TestRelabelling:
    """dem(G) does not depend on how G's vertices are numbered, while the
    search's path does: an oracle past brute force's n <= 12 that needs no
    second solver."""

    @pytest.mark.parametrize(
        "n, p, seed", [(20, 0.2, 1), (24, 0.2, 3), (26, 0.2, 4), (28, 0.15, 5), (30, 0.2, 3),
                       (30, 0.3, 9)]
    )
    def test_value_and_exactness_survive(self, n, p, seed):
        g = gen.random_connected(n, p, seed)
        want = dem_exact(g)
        assert want.exact
        for k in range(3):
            perm = list(range(n))
            random.Random(k).shuffle(perm)
            res = dem_exact(build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()]))
            assert (res.value, res.exact) == (want.value, True), k
            back = {perm[v]: v for v in range(n)}
            monitors = sorted(back[v] for v in res.monitor_set)
            assert len(monitors) == want.value and is_monitoring_set(g, monitors).is_monitoring


class TestSearchGolden:
    # Recorded before the EM sets were built from all sources at once and
    # before the packing bound read a precomputed table: neither may change
    # the search's node sequence, so node counts and covers must not move.
    CASES = {
        "rand40": (lambda: gen.random_connected(40, 0.15, 1), None, 6327,
                   (0, 2, 4, 12, 13, 18, 22, 24, 25, 37), True),
        "rand17": (lambda: gen.random_connected(17, 0.7, 5), None, 93,
                   (1, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14, 15, 16), True),
        "grid6x7": (lambda: gen.grid(6, 7).graph, None, 85, (0, 1, 9, 17, 25, 33, 41), True),
        "grid10x10": (lambda: gen.grid(10, 10).graph, None, 201,
                      (0, 11, 22, 33, 44, 55, 66, 77, 88, 99), True),
        "K9": (lambda: gen.complete(9).graph, None, 17, tuple(range(8)), True),
        "petersen": (lambda: gen.petersen().graph, None, 49, (0, 1, 2), True),
        "rand50_budget": (lambda: gen.random_connected(50, 0.12, 4), 200_000, 181_657,
                          (1, 4, 6, 15, 19, 32, 34, 36, 38, 43), True),
        "rand60_capped": (lambda: gen.random_connected(60, 0.1, 1), 200_000, 200_000,
                          (1, 2, 3, 12, 13, 15, 23, 29, 31, 32, 35, 39, 41, 57), False),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_nodes_and_cover(self, name):
        make, budget, nodes, monitor_set, exact = self.CASES[name]
        g = make()
        res = dem_exact(g) if budget is None else dem_exact(g, budget=budget)
        assert res.stats["nodes"] == nodes
        assert res.monitor_set == monitor_set
        assert res.exact is exact


class TestBudgetCutGolden:
    # Recorded while the local search still ran on merged edge classes; it
    # now runs on one element per edge.  182 of the 200 runs are cut by the
    # budget and so end in the local search.  Values, sets, node counts and
    # flags must not move.
    def test_values_sets_and_nodes(self):
        rows = json.loads((Path(__file__).parent / "dem_budget_golden.json").read_text())
        graphs = random_connected_graphs(40, 30, 70, seed=131, p_lo=0.05, p_hi=0.2)
        assert len(rows) == 5 * len(graphs)
        for row in rows:
            g = graphs[row["graph"]]
            assert (g.n, g.m) == (row["n"], row["m"])
            res = dem_exact(g, budget=row["budget"])
            got = (res.value, list(res.monitor_set), res.stats["nodes"], res.exact)
            assert got == (row["value"], row["monitor_set"], row["nodes"], row["exact"]), row


class TestCoverSearchParity:
    # The search loop must visit the reference's nodes in the reference's
    # order: same covers, same node count, same budget cut points.
    BUDGETS = (0, 1, 2, 3, 7, 50, 400, 5000)
    FAMILIES = {
        "random": lambda: random_connected_graphs(40, 8, 40, seed=71, p_lo=0.1, p_hi=0.7),
        "complete": lambda: [gen.complete(k).graph for k in range(3, 13)],
        "grid": lambda: [gen.grid(a, b).graph for a in range(2, 7) for b in range(a, 7)],
        "cycle": lambda: [gen.cycle(k).graph for k in range(3, 13)],
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cores(self, family):
        cases = 0
        for g in self.FAMILIES[family]():
            base = base_graph(g)
            if base.was_tree:
                continue
            holders = _em_holders(base.graph)
            classes, buckets = _merge(holders)
            sets = _transpose(classes, base.graph.n)
            incumbent = _greedy_cover(sets, (1 << len(classes)) - 1, buckets)
            for budget in self.BUDGETS:
                expected = cover_search_reference(holders, incumbent, budget)
                assert _cover_search(sets, incumbent, budget) == expected, (g.n, budget)
                cases += 1
        assert cases >= 8 * len(self.BUDGETS)

    @pytest.mark.parametrize("budget", (2_000, 20_000))
    def test_deep_covers(self, budget):
        # A 55-vertex core on which the search improves on greedy four
        # times within 2,000 nodes and six within 20,000: the cover is
        # read back from a long chain of chosen sets, and limit drops
        # again and again.
        g = gen.random_connected(55, 0.2, 9)
        holders, buckets, sets, full = _cover_instance(base_graph(g).graph)
        incumbent = _greedy_cover(sets, full, buckets)
        got = _cover_search(sets, incumbent, budget)
        assert got == cover_search_reference(holders, incumbent, budget)
        assert len(got[0]) - 1 >= 4 and not got[2]

    @pytest.mark.parametrize("budget", (25_588, 25_589, 25_590, 56_519, 56_520, 56_521))
    def test_budget_ends_at_a_cover(self, budget):
        # On this 60-vertex core the search finds its first two covers at
        # nodes 25,589 and 56,520.  Each budget stops one node before a
        # cover, at the cover, or at the cover's exclude sibling, which is
        # taken in place and pruned.
        g = gen.random_connected(60, 0.1, 1)
        holders, buckets, sets, full = _cover_instance(base_graph(g).graph)
        incumbent = _greedy_cover(sets, full, buckets)
        got = _cover_search(sets, incumbent, budget)
        assert got == cover_search_reference(holders, incumbent, budget)
        assert len(got[0]) == 1 + (budget >= 25_589) + (budget >= 56_520)

    # Small cores whose whole search takes 7 to 287 nodes; the random ones
    # improve on greedy once or twice.
    SMALL = {
        "K7": lambda: gen.complete(7).graph,
        "K9": lambda: gen.complete(9).graph,
        "grid4x5": lambda: gen.grid(4, 5).graph,
        "grid6x7": lambda: gen.grid(6, 7).graph,
        "C12": lambda: gen.cycle(12).graph,
        "petersen": lambda: gen.petersen().graph,
        "rand15": lambda: gen.random_connected(15, 0.3, 2),
        "rand17": lambda: gen.random_connected(17, 0.7, 5),
        "rand20": lambda: gen.random_connected(20, 0.25, 3),
        "rand22": lambda: gen.random_connected(22, 0.3, 4),
    }

    @pytest.mark.parametrize("name", SMALL)
    def test_every_budget(self, name):
        # A budget can run out at any node: a popped one, an include child,
        # or an exclude child taken in place after its sibling was pruned.
        holders, buckets, sets, full = _cover_instance(base_graph(self.SMALL[name]()).graph)
        incumbent = _greedy_cover(sets, full, buckets)
        nodes = _cover_search(sets, incumbent, 10**6)[1]
        for budget in range(nodes + 2):
            expected = cover_search_reference(holders, incumbent, budget)
            assert _cover_search(sets, incumbent, budget) == expected, budget

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, (1 << 10) - 1), min_size=1, max_size=40),
        st.integers(0, 10),
        st.sampled_from(BUDGETS),
    )
    def test_random_holder_lists(self, holders, size, budget):
        # The incumbent need not be a cover: only its size bounds the search.
        incumbent = list(range(size))
        expected = cover_search_reference(holders, incumbent, budget)
        sets = _transpose(_merge(holders)[0], max(map(int.bit_length, holders)))
        assert _cover_search(sets, incumbent, budget) == expected


    # Cores whose EM sets are nearly full: long cycles, and cycle-like
    # 2-cores of trees plus chords as in the benchmark's large_core corpus.
    # There the classes are transposed through their complements and most
    # rows of the packing table are shared.
    DENSE = {
        "C50": lambda: gen.cycle(50).graph,
        "C200": lambda: gen.cycle(200).graph,
        "C400": lambda: gen.cycle(400).graph,
        "tree320": lambda: _tree_with_core(320, 11),
        "tree540": lambda: _tree_with_core(540, 12),
        "tree790": lambda: _tree_with_core(790, 13),
    }

    @pytest.mark.parametrize("name", DENSE)
    def test_dense_cores(self, name):
        core = base_graph(self.DENSE[name]()).graph
        holders, buckets, sets, full = _cover_instance(core)
        classes = _merge(holders)[0]
        assert 2 * sum(map(int.bit_count, classes)) > core.n * len(classes)
        assert sets == transpose_reference(classes, core.n)
        incumbent = _greedy_cover(sets, full, buckets)
        for budget in self.BUDGETS:
            expected = cover_search_reference(holders, incumbent, budget)
            assert _cover_search(sets, incumbent, budget) == expected, budget

    @pytest.mark.parametrize("offset", (-1, 0, 1))
    def test_transpose_at_half_density(self, offset):
        # The loop walks the zero bits once more than half of the bits are
        # set: one bit below, at and above half of n * len(holders).
        rng = random.Random(offset)
        for n, count in ((1, 2), (2, 3), (6, 5), (8, 10), (13, 9), (64, 31)):
            for _ in range(20):
                ones = n * count // 2 + offset
                if not 0 <= ones <= n * count:
                    continue
                bits = rng.sample(range(n * count), ones)
                holders = [0] * count
                for b in bits:
                    holders[b // n] |= 1 << (b % n)
                assert _transpose(holders, n) == transpose_reference(holders, n), (n, holders)


class TestMilpOracle:
    # Past n = 12 brute force cannot check the value; a MILP can.
    def test_oracle_matches_bruteforce(self):
        pytest.importorskip("scipy")
        for g in random_connected_graphs(15, 3, 8, seed=29):
            assert milp_dem(g) == brute_minimum_monitoring(g)[0]

    def test_value_against_optimum(self):
        pytest.importorskip("scipy")
        graphs = random_connected_graphs(12, 20, 40, seed=53, p_lo=0.08, p_hi=0.25)
        flags = set()
        for g in graphs:
            res = dem_exact(g, budget=3000)
            opt = milp_dem(g)
            assert res.value == opt if res.exact else res.value >= opt, (g.n, g.m)
            flags.add(res.exact)
        assert flags == {True, False}

    # The budget-capped graphs of the seed-0 benchmark corpus, n = 50-70,
    # each solved by the MILP in under 2 s.
    CAPPED = {
        "capped50": (50, 0.12, 1465606945, 13),
        "capped60": (60, 0.10, 212175698, 12),
        "capped70": (70, 0.08, 1677978321, 10),
    }

    @pytest.mark.parametrize("name", CAPPED)
    def test_capped_past_fifty(self, name):
        pytest.importorskip("scipy")
        n, p, seed, optimum = self.CAPPED[name]
        g = gen.random_connected(n, p, seed)
        assert milp_dem(g) == optimum
        res = dem_exact(g, budget=200_000)
        assert res.value == optimum if res.exact else res.value >= optimum


class TestImproveCover:
    @pytest.mark.parametrize(
        "masks, cover, improved",
        [
            ([0b000011, 0b001100, 0b110000, 0b000111, 0b111000], [0, 1, 2], [3, 4]),
            ([0b0011, 0b1100, 0b1111], [0, 1], [2]),
            ([0b0011, 0b1100, 0b0110], [0, 1, 2], [0, 1]),
            ([0b0011, 0b1100, 0b0110], [0, 1], [0, 1]),
        ],
        ids=["three_for_two", "two_for_one", "redundant_dropped", "local_optimum_kept"],
    )
    def test_moves(self, masks, cover, improved):
        full = (1 << max(m.bit_length() for m in masks)) - 1
        holders = _transpose(masks, full.bit_length())
        assert sorted(_improve_cover(holders, [cover])) == improved

    def test_first_smallest_of_several(self):
        # Sets {0,1}, {2,3}, {1,2}, {0,3}: every cover polishes to two sets.
        holders = _transpose([0b0011, 0b1100, 0b0110, 0b1001], 4)
        assert _improve_cover(holders, [[0, 1, 2], [2, 3]]) == [0, 1]
        assert _improve_cover(holders, [[2, 3], [0, 1, 2]]) == [2, 3]

    # The local search must make the reference's moves in the reference's
    # order, so the lists agree element for element.
    @pytest.mark.parametrize("budget", (0, 50, 5000))
    def test_budget_cut_covers_match_reference(self, budget, local_search_corpus):
        cases = 0
        for g in local_search_corpus:
            holders, buckets, masks, full = _cover_instance(base_graph(g).graph)
            covers, _, exact = _cover_search(masks, _greedy_cover(masks, full, buckets), budget)
            if exact:
                continue
            assert _improve_cover(holders, covers) == improve_cover_reference(holders, covers), g.n
            cases += 1
        assert cases >= 10

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, (1 << 10) - 1), min_size=1, max_size=40),
        st.lists(st.lists(st.integers(0, 9), unique=True), min_size=1, max_size=4),
    )
    def test_random_holder_lists(self, holders, drafts):
        # Each draft becomes a cover: an element it misses adds its lowest
        # holder.
        n = max(map(int.bit_length, holders))
        covers = []
        for draft in drafts:
            cover = [v for v in draft if v < n]
            chosen = sum(1 << v for v in cover)
            for h in holders:
                if not h & chosen:
                    low = h & -h
                    cover.append(low.bit_length() - 1)
                    chosen |= low
            covers.append(cover)
        assert _improve_cover(holders, covers) == improve_cover_reference(holders, covers)



def _tree_plus_chords(n: int, chords: int, seed: int):
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    while chords:
        u, v = rng.sample(range(n), 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
            chords -= 1
    return build_graph(n, edges)


class TestMergedClasses:
    # Greedy on merged classes, counted through the buckets, must pick what
    # it picks on one element per edge.
    FAMILIES = {
        "grid": lambda: [gen.grid(a, b).graph for a in range(2, 12) for b in range(a, 12)],
        "hypercube": lambda: [gen.hypercube(d).graph for d in range(2, 10)],
        "random": lambda: random_connected_graphs(40, 5, 44, seed=83, p_lo=0.1, p_hi=0.7),
        "tree_chords": lambda: [
            _tree_plus_chords(10 + 10 * i, 1 + i % 7, seed=i) for i in range(15)
        ],
    }

    @staticmethod
    def _cores(family):
        for g in TestMergedClasses.FAMILIES[family]():
            base = base_graph(g)
            if not base.was_tree:
                yield base.graph

    def test_merge(self):
        # Most holders first, ties by the larger mask first: the fewest
        # holders get the highest bits.
        holders = [5, 3, 5, 6, 3, 5]
        classes, buckets = _merge(holders)
        assert classes == [6, 5, 3]
        assert buckets == [(1, 0b001), (2, 0b100), (3, 0b010)]
        assert _merge([1, 7, 4, 3, 7]) == ([7, 3, 4, 1], [(1, 0b1110), (2, 0b0001)])
        assert _merge([4, 1, 2]) == ([4, 2, 1], [(1, 0b111)])

    def test_merge_on_search_corpus(self):
        # The 169 cores of the benchmark's seed-0 search corpus, drawn as
        # perfbench/corpus.py draws them: the two stable sorts give the
        # order of the one sort on (holder count, mask).
        rng = random.Random("perfbench:search:0")
        graphs = [gen.random_connected(17, 0.7, rng.randrange(2**31)) for _ in range(160)]
        graphs += [gen.complete(k).graph for k in range(12, 17)]
        graphs += [
            gen.random_connected(n, p, rng.randrange(2**31))
            for n, p in ((50, 0.12), (60, 0.10), (70, 0.08), (80, 0.08))
        ]
        for g in graphs:
            holders = _em_holders(base_graph(g).graph)
            assert _merge(holders) == merge_reference(holders)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, (1 << 12) - 1), min_size=1, max_size=60))
    def test_merge_random_holders(self, holders):
        assert _merge(holders) == merge_reference(holders)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_greedy_same_picks(self, family):
        merged = 0
        for core in self._cores(family):
            holders = _em_holders(core)
            raw = _transpose(holders, core.n)
            expected = greedy_cover_reference(raw, (1 << len(holders)) - 1)
            _, buckets, masks, full = _cover_instance(core)
            assert _greedy_cover(masks, full, buckets) == expected, (core.n, core.m)
            merged += full.bit_length() < len(holders)
        # No two edges of a hypercube have the same monitors.
        assert merged > 0 or family == "hypercube"

    @staticmethod
    @st.composite
    def _holders_with_duplicates(draw):
        pool = draw(st.lists(st.integers(1, (1 << 8) - 1), min_size=1, max_size=10))
        # More elements than distinct masks: some mask repeats.
        return draw(st.lists(st.sampled_from(pool), min_size=len(pool) + 1, max_size=40))

    @settings(max_examples=300, deadline=None)
    @given(_holders_with_duplicates())
    def test_greedy_same_picks_random_holders(self, holders):
        n = max(map(int.bit_length, holders))
        expected = greedy_cover_reference(_transpose(holders, n), (1 << len(holders)) - 1)
        classes, buckets = _merge(holders)
        assert len(classes) < len(holders)
        masks = _transpose(classes, n)
        assert _greedy_cover(masks, full=(1 << len(classes)) - 1, buckets=buckets) == expected


class TestBaseGraphIdentity:
    def test_pendants_do_not_change_value(self):
        for i in range(25):
            core = gen.random_connected(3 + i % 6, 0.5, seed=900 + i)
            if core.m == core.n - 1:
                continue
            g = attach_pendant_trees(core, extra=1 + i % 5, seed=i)
            full = dem_exact(g)
            reduced = dem_exact(base_graph(g).graph)
            assert full.value == reduced.value
            assert full.certificate.is_monitoring


class TestBaseGraphUnstripped:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen.complete(5).graph,
            lambda: gen.cycle(7).graph,
            lambda: gen.grid(4, 4).graph,
            lambda: gen.petersen().graph,
        ],
        ids=["K5", "C7", "grid4x4", "petersen"],
    )
    def test_input_returned(self, make):
        g = make()
        base = base_graph(g)
        assert base.graph is g
        assert base.old_to_new == tuple(range(g.n))
        assert base.new_to_old == tuple(range(g.n))
        assert base.was_tree is False


class TestDemGreedy:
    def test_star_single(self):
        assert dem_greedy(gen.star(6).graph).value == 1

    def test_k5_needs_four(self):
        res = dem_greedy(gen.complete(5).graph)
        assert res.value == 4
        assert res.value == dem_exact(gen.complete(5).graph).value

    def test_grid_4x4_matches_exact(self):
        g = gen.grid(4, 4).graph
        exact = dem_exact(g).value
        greedy = dem_greedy(g).value
        assert exact <= greedy <= harmonic(g.m) * exact

    def test_guarantee_on_random(self):
        for g in random_connected_graphs(30, 2, 10, seed=6):
            ex = dem_exact(g).value
            gr = dem_greedy(g).value
            assert ex <= gr <= harmonic(g.m) * ex

    def test_greedy_not_exact_flag(self):
        res = dem_greedy(gen.cycle(6).graph)
        assert res.method == "greedy" and not res.exact


class TestVerifyDemResult:
    def test_accepts_good_result(self):
        g = gen.random_tree(8, seed=1)
        assert verify_dem_result(g, dem_exact(g))

    def test_rejects_wrong_value_claim(self):
        g = gen.complete(4).graph
        res = dem_exact(g)
        res.value = 2
        res.monitor_set = (0, 1)
        assert not verify_dem_result(g, res)

    def test_rejects_non_minimal_exact_claim(self):
        g = gen.cycle(6).graph
        res = dem_exact(g)
        res.value = 3
        res.monitor_set = (0, 2, 4)
        assert not verify_dem_result(g, res)
        # A claim of exact=True is rechecked whatever method it names.
        assert not verify_dem_result(g, replace(res, method="greedy"))

    def test_certificate_built_on_the_given_graph(self):
        # g2 is g1 plus the edge 24, and both have the exact set (2, 3), so
        # g1's result is a valid answer on g2 too; its own certificate
        # lists g1's edges, not g2's.
        edges = [(0, 1), (1, 2), (2, 3), (2, 5), (3, 4), (3, 5)]
        g1, g2 = build_graph(6, edges), build_graph(6, edges + [(2, 4)])
        r1, r2 = dem_exact(g1), dem_exact(g2)
        assert (r1.monitor_set, r1.exact) == (r2.monitor_set, r2.exact) == ((2, 3), True)
        assert verify_dem_result(g2, r1)
        assert verify_dem_result(g2, r2)
        assert verify_dem_result(g1, r2)

    @pytest.mark.parametrize("lie", ["drop", "false_witness"])
    def test_rejects_a_lying_certificate(self, monkeypatch, lie):
        # {0, 1} misses C6's far edge (3, 4).  The certificate either drops
        # that edge altogether or gives it the witness (0, 3), whose
        # distance 3 stays 3 in G - (3, 4).
        g = gen.cycle(6).graph
        witnesses = dict(is_monitoring_set(g, [0, 1]).witnesses)
        assert (3, 4) not in witnesses
        if lie == "false_witness":
            witnesses[(3, 4)] = (0, 3)
        fake = SimpleNamespace(witnesses=witnesses, uncovered=frozenset(), is_monitoring=True)
        monkeypatch.setattr(solvers, "is_monitoring_set", lambda g, ms: fake)
        assert not verify_dem_result(g, DemResult(2, (0, 1), "greedy", False, g))

    def test_rejects_exact_claim_larger_than_the_core(self):
        # A C5 core with three pendant vertices: dem is 2, and all 8
        # vertices, claimed exact, are more monitors than the core has
        # vertices, so the core itself is the smaller set.
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7)])
        res = dem_exact(g)
        assert (res.value, res.exact) == (2, True)
        assert verify_dem_result(g, res)
        assert not verify_dem_result(g, replace(res, value=8, monitor_set=tuple(range(8))))

    def test_grid30_in_seconds(self):
        # Coverage costs one BFS per edge, not one per edge and monitor:
        # grid30x30 has 1,740 edges and 30 monitors.
        src = str(Path(demkit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "from demkit import dem_exact, verify_dem_result, generators as gen\n"
            "g = gen.grid(30, 30).graph\n"
            "assert verify_dem_result(g, dem_exact(g))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=5,
        )
        assert proc.returncode == 0, proc.stderr

    def test_c6_candidate_decided_by_oracle(self):
        g = gen.cycle(6).graph
        cert = is_monitoring_set(g, [0, 1])
        assert cert.uncovered == {(3, 4)}  # adjacent pair misses the far edge
        cert2 = is_monitoring_set(g, [0, 2])
        assert cert2.is_monitoring
        cert3 = is_monitoring_set(g, [0, 3])
        assert cert3.is_monitoring

    def test_accepts_greedy(self):
        g = gen.petersen().graph
        assert verify_dem_result(g, dem_greedy(g))

    def test_json_shape(self):
        res = dem_exact(gen.cycle(5).graph)
        js = res.to_json()
        assert set(js) == {"value", "monitor_set", "exact", "method", "stats"}
        assert "millis" in res.stats
        assert "millis" not in js["stats"]


class TestLazyCertificate:
    def test_solvers_build_no_certificate(self, certificate_calls):
        for g in (gen.grid(4, 4).graph, gen.petersen().graph, gen.random_tree(9, seed=2)):
            dem_exact(g)
            dem_greedy(g)
        dem_exact(gen.complete(8).graph, budget=1)
        assert certificate_calls == []

    def test_certificate_built_once_on_first_access(self, certificate_calls):
        g = gen.grid(4, 4).graph
        res = dem_exact(g)
        cert = res.certificate
        assert certificate_calls == [res.monitor_set]
        assert res.certificate is cert
        assert len(certificate_calls) == 1
        assert cert == is_monitoring_set(g, res.monitor_set)

    def test_graph_stays_out_of_repr(self):
        g = gen.cycle(5).graph
        res = dem_exact(g)
        assert "graph" not in repr(res)
        assert res.graph is g

    def test_exact_rejects_a_non_cover(self, monkeypatch):
        # A search that returns the greedy incumbent minus its last set
        # returns no cover: the greedy set added last covered something new.
        monkeypatch.setattr(
            solvers, "_cover_search", lambda sets, inc, budget: ([tuple(inc[:-1])], 0, True)
        )
        with pytest.raises(AssertionError, match="uncovered"):
            dem_exact(gen.grid(4, 4).graph)

    def test_greedy_rejects_a_non_cover(self, monkeypatch):
        real = solvers._greedy_cover
        monkeypatch.setattr(solvers, "_greedy_cover", lambda *a: real(*a)[:-1])
        with pytest.raises(AssertionError, match="uncovered"):
            dem_greedy(gen.petersen().graph)


def _tree_with_core(n: int, seed: int):
    """random_tree(n, seed) plus chords whose 2-core spans 6-8% of n, the
    shape of the benchmark's large_core trees: a chord that would grow the
    core past 8% is redrawn."""
    rng = random.Random(seed)
    edges = list(gen.random_tree(n, seed).edges())
    lo, hi = int(0.06 * n), int(0.08 * n)
    core = 0
    while core < lo:
        u, v = rng.sample(range(n), 2)
        g = build_graph(n, edges + [(u, v)])
        if g.m == len(edges):
            continue
        grown = base_graph(g).graph.n
        if grown <= hi:
            edges.append((u, v))
            core = grown
    return build_graph(n, edges)
