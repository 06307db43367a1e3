"""Every connected graph on 2 to 7 vertices, checked against the oracles.

census7.json holds the 995 connected graphs of the graph atlas (Read and
Wilson, *An Atlas of Graphs*) on 2..7 vertices, as `[n, edges]` rows in
atlas order.  It was written once from networkx.graph_atlas_g(); the test
reads only the file, so it needs no networkx.
"""

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from demkit import (
    build_graph,
    dem_exact,
    dem_greedy,
    em_set,
    em_set_naive,
    p_set,
    verify_dem_result,
)
from demkit.graph import _bfs, base_graph
from demkit.monitor import _em_holders
from demkit.solvers import _cover_instance, _greedy_cover, _transpose
from demkit.structural import bounds_report, dem2_pair_check

from oracles import (
    brute_minimum_monitoring,
    greedy_cover_reference,
    harmonic,
    p_set_by_dominators,
    p_set_reference,
    relaxation_distances,
)

# OEIS A001349: connected graphs on n unlabelled vertices.
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@lru_cache(maxsize=None)
def census() -> tuple:
    rows = json.loads((Path(__file__).parent / "census7.json").read_text())
    return tuple(build_graph(n, map(tuple, edges)) for n, edges in rows)


def test_counts_per_order():
    assert Counter(g.n for g in census()) == CONNECTED_COUNTS
    assert len(set(census())) == len(census())


def test_dem_against_brute_force():
    values = Counter()
    for g in census():
        masks = [em_set_naive(g, x).edges for x in range(g.n)]
        res = dem_exact(g)
        assert res.exact and res.value == brute_minimum_monitoring(g, masks)[0], g
        assert verify_dem_result(g, res), g
        values[res.value] += 1
    assert values == {1: 24, 2: 215, 3: 392, 4: 303, 5: 60, 6: 1}


def test_verify_rejects_one_monitor_more():
    # On every non-tree core, dem_exact's result passes verify_dem_result,
    # and the same set plus one more core vertex, claimed exact, does not:
    # the subsets one smaller than the claim include the optimum.
    for g in census():
        base = base_graph(g)
        if base.was_tree:
            continue
        res = dem_exact(g)
        assert verify_dem_result(g, res), g
        extra = next(v for v in base.new_to_old if v not in res.monitor_set)
        more = tuple(sorted(res.monitor_set + (extra,)))
        assert not verify_dem_result(g, replace(res, value=res.value + 1, monitor_set=more)), g


def test_em_sets_three_ways():
    for g in census():
        edges = list(g.edges())
        holders = _em_holders(g)
        for x in range(g.n):
            naive = em_set_naive(g, x).edges
            assert em_set(g, x).edges == naive, (g, x)
            assert {e for e, h in zip(edges, holders) if h >> x & 1} == naive, (g, x)
        sizes = {x: em_set(g, x).size for x in range(g.n)}
        assert bounds_report(g).em_per_vertex == sizes, g


def test_greedy_picks_and_guarantee():
    # On every non-tree core, greedy on merged classes picks what the
    # per-edge reference picks; on every graph, greedy stays within the
    # harmonic factor of its largest EM set (the set-cover guarantee).
    cores = 0
    for g in census():
        base = base_graph(g)
        if not base.was_tree:
            core = base.graph
            holders = _em_holders(core)
            expected = greedy_cover_reference(_transpose(holders, core.n), (1 << len(holders)) - 1)
            _, buckets, masks, full = _cover_instance(core)
            assert _greedy_cover(masks, full, buckets) == expected, g
            cores += 1
        largest = max(em_set(g, x).size for x in range(g.n))
        assert dem_greedy(g).value <= harmonic(largest) * dem_exact(g).value, g
    assert cores == 971


def test_distances_after_each_deletion():
    pairs = 0
    for g in census():
        for e in g.edges():
            for x in range(g.n):
                want = [-1 if d is None else d for d in relaxation_distances(g, x, skip=e)]
                assert _bfs(g, x, skip=e) == want, (g, e, x)
                pairs += 1
    assert pairs == 73_337


def test_pair_reports_golden():
    # Every pair of every census base graph: the two-monitor rules agree
    # with the direct check, and the SHA-256 over the reports' JSON pins
    # each rule's pass/fail and witness.
    digest = hashlib.sha256()
    count = 0
    for g in census():
        gb = base_graph(g).graph
        for u, v in combinations(range(gb.n), 2):
            rep = dem2_pair_check(gb, u, v)
            assert not rep.discrepancy, (sorted(gb.edges()), u, v)
            digest.update((json.dumps(rep.to_json(), sort_keys=True) + "\n").encode())
            count += 1
    assert count == 16_137
    assert digest.hexdigest() == (
        "6e309f111c8600a9968ce432c4b726a1249b1f9c6b4ce228015d0d7fadcd4daf"
    )


def test_pair_sets_golden():
    # P(V, e) and P(M, e), M a seeded half of the vertices, for every edge
    # of every census graph: each equals the definition's two BFS per
    # monitor, P(V, e) also the far end's dominator subtree per holder, and
    # the pair count and a SHA-256 over the sorted pairs pin them all.
    rng = random.Random(2022)
    digest = hashlib.sha256()
    count = 0
    for g in census():
        every = range(g.n)
        half = rng.sample(every, g.n // 2)
        for e in g.edges():
            ps = p_set(g, every, e)
            assert ps == p_set_reference(g, every, e) == p_set_by_dominators(g, every, e), (g, e)
            some = p_set(g, half, e)
            assert some == p_set_reference(g, half, e), (g, e, half)
            for pairs in (ps.pairs, some.pairs):
                digest.update((json.dumps(sorted(pairs)) + "\n").encode())
                count += len(pairs)
    assert count == 61_206
    assert digest.hexdigest() == (
        "3b37c200a0221428cb57e644041c8c3d437ecc9f0a5c930ed3cb8b7ae958bc73"
    )
