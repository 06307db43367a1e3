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
from demkit.graph import _bfs, _bits, base_graph, is_complete
from demkit.monitor import _em_holders
from demkit.solvers import _cover_instance, _greedy_cover, _transpose
from demkit.structural import (
    bounds_report,
    dem2_pair_check,
    dem3_first_pass,
    dem3_triple_check,
    unique_parent_condition,
)

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
    # Also dem = n - 1 exactly on the complete graphs K2..K7.
    values = Counter()
    complete = 0
    for g in census():
        masks = [em_set_naive(g, x).edges for x in range(g.n)]
        res = dem_exact(g)
        assert res.exact and res.value == brute_minimum_monitoring(g, masks)[0], g
        assert verify_dem_result(g, res), g
        values[res.value] += 1
        assert (res.value == g.n - 1) == is_complete(g), g
        complete += is_complete(g)
    assert values == {1: 24, 2: 215, 3: 392, 4: 303, 5: 60, 6: 1}
    assert complete == 6


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


def test_greedy_is_the_search_incumbent():
    # dem_greedy is the cover dem_exact's search starts from: on every
    # non-tree graph, the greedy cover of the 2-core lifted back to g's
    # ids, so it never picks a pendant vertex and never beats the optimum.
    cores = 0
    for g in census():
        base = base_graph(g)
        if base.was_tree:
            continue
        _, buckets, masks, full = _cover_instance(base.graph)
        lifted = tuple(sorted(base.new_to_old[v] for v in _greedy_cover(masks, full, buckets)))
        res = dem_greedy(g)
        assert res.monitor_set == lifted, g
        assert res.value >= dem_exact(g).value, g
        cores += 1
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


def test_triple_search_against_definition():
    # char --target 3's search on every non-tree census base graph: the
    # first triple, in combinations order, whose EM sets by definition
    # cover every edge, reported by dem3_triple_check; None exactly when
    # dem > 3.  A faster search must keep both.
    graphs = found = 0
    for g in census():
        base = base_graph(g)
        if base.was_tree:
            continue
        gb = base.graph
        ems = [em_set_naive(gb, x).edges for x in range(gb.n)]
        edges = set(gb.edges())
        first = next(
            (t for t in combinations(range(gb.n), 3) if ems[t[0]] | ems[t[1]] | ems[t[2]] == edges),
            None,
        )
        report = dem3_first_pass(gb)
        assert report == (None if first is None else dem3_triple_check(gb, *first)), g
        assert (first is None) == (dem_exact(g).value > 3), g
        graphs += 1
        found += first is not None
    assert (graphs, found) == (971, 607)


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


def test_em_cardinality_converses():
    # Every (G, v) of the census, against the |EM(v)| characterizations
    # read in the converse direction.  |EM(v)| = n - 1 exactly when no
    # vertex has two parents in v's BFS (the unique-parent condition).
    # The 114 pairs with |EM(v)| = 2 split by v's eccentricity and by
    # whether v's two neighbours u1, u2 are adjacent (v monitors each of
    # its own edges, so it has at most two).  K3 and P3's centre give
    # eccentricity 1, P3's ends the two of degree 1; d1_graph yields
    # eccentricity 2 with u1u2 an edge, d2_graph 2 without, a_d_graph 3 and
    # more without (its intra-level edges start at level 2).  No generator
    # yields the 20 pairs of eccentricity 3 with u1u2 an edge, such as v = 1
    # below: a_d_graph(3, [2, 1]) plus the edge u1u2, which changes no
    # level and no parent.  Whether the family list misses them in
    # transcription or the theorem does is undetermined: the source here
    # is the abstract alone.
    split = Counter()
    unmatched = []
    for g in census():
        for v in range(g.n):
            size = em_set(g, v).size
            assert (size == g.n - 1) == unique_parent_condition(g, v), (g, v)
            if size != 2:
                continue
            nbrs = g.neighbors(v)
            ecc = max(_bfs(g, v))
            shape = "degree 1" if len(nbrs) == 1 else "adjacent" if g.has_edge(*nbrs) else "apart"
            split[ecc, shape] += 1
            if (ecc, shape) == (3, "adjacent"):
                unmatched.append((sorted(g.edges()), v))
    assert split == {
        (1, "adjacent"): 3, (1, "apart"): 1,
        (2, "adjacent"): 33, (2, "apart"): 35, (2, "degree 1"): 2,
        (3, "adjacent"): 20, (3, "apart"): 20,
    }
    smallest = [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)]
    assert (smallest, 1) in unmatched


def test_gap_rule():
    # monitor._edge_rows' gap rule, from the two rows computed here.  For
    # every edge e = (u, v) and vertex x, with du, dv the distances from u
    # and v in G - e (n + 1 for unreachable) and gap = dv[x] - du[x]: x
    # monitors e (its bit in e's _em_holders mask) exactly when |gap| >= 2,
    # and gap = 0 exactly when d_G(x, u) = d_G(x, v).
    counts = Counter()
    for g in census():
        dist = [_bfs(g, x) for x in range(g.n)]
        for e, mask in zip(g.edges(), _em_holders(g)):
            u, v = e
            du, dv = ([g.n + 1 if d < 0 else d for d in _bfs(g, s, skip=e)] for s in e)
            for x in range(g.n):
                gap = abs(dv[x] - du[x])
                assert (gap >= 2) == bool(mask >> x & 1), (g, e, x)
                assert (gap == 0) == (dist[x][u] == dist[x][v]), (g, e, x)
                counts[min(gap, 2)] += 1
    assert counts == {2: 31_133, 1: 20_456, 0: 21_748}


def test_pair_set_monitors_are_holders():
    # The monitors that appear in P(V, e) are exactly e's _em_holders mask:
    # p_set's gap rule against the bit-parallel residue pass.
    for g in census():
        for e, mask in zip(g.edges(), _em_holders(g)):
            assert {x for x, _ in p_set(g, range(g.n), e).pairs} == set(_bits(mask)), (g, e)


def test_monitoring_set_locates_edges():
    """A monitoring set M locates a failing edge, not only detects it:
    P(M, e) != P(M, e') for distinct edges e, e'.  Checked for dem_exact's
    M on every census graph.

    Proof.  Let x in M monitor e = (u, v), with v the far end, so u is v's
    only parent in x's BFS and (x, v) is in P(M, e).  Suppose P(M, e') =
    P(M, e) for an edge e' = (a, b), b the end farther from x.  Then e' lies
    on every shortest x-v path.  If b = v, then a is a parent of v, so a = u
    and e' = e.  Otherwise d(x, b) < d(x, v).  A shortest x-b path that
    avoided e' would, followed by the part after b of a shortest x-v path
    through e', be a shortest x-v path that avoids e'.  So every shortest
    x-b path uses e', and (x, b) is in P(M, e') = P(M, e).  But a shortest
    path that uses e reaches v, so deleting e changes no distance from x
    shorter than d(x, v), d(x, b) among them: a contradiction.
    """
    edges = 0
    for g in census():
        monitors = dem_exact(g).monitor_set
        fibers = {p_set(g, monitors, e).pairs for e in g.edges()}
        assert len(fibers) == g.m, g
        edges += g.m
    assert edges == 10_664
