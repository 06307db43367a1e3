"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All corpora are seeded, so every run checks the same instances.
"""

import json
import random
import time
from itertools import combinations
from pathlib import Path

from demkit import (
    base_graph,
    bounds_report,
    bridges,
    dem2_pair_check,
    dem3_triple_check,
    dem_exact,
    dem_greedy,
    em_set,
    em_set_naive,
    is_monitoring_set,
    is_tree,
    p_set,
)
from demkit import generators as gen
from demkit.graph import canonical_edge, degree_extremes

from conftest import attach_pendant_trees, random_connected_graphs
from oracles import harmonic, is_forest

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "test-artifacts"


def _report(k, message):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def test_criterion_01_trees_have_value_one():
    rng = random.Random(101)
    start = time.perf_counter()
    for i in range(100):
        n = rng.randint(2, 50)
        t = gen.random_tree(n, seed=10_000 + i)
        res = dem_exact(t)
        assert res.value == 1 and res.exact
        assert res.certificate.is_monitoring
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"tree batch took {elapsed:.2f}s"
    _report(1, f"100 random trees (n<=50) all have value 1 in {elapsed * 1000:.0f} ms")


def test_criterion_02_complete_graphs():
    for n in range(2, 9):
        assert dem_exact(gen.complete(n).graph).value == n - 1
    _report(2, "complete graphs n=2..8 give n-1")


# Past brute force's reach, K_{m,n} for m <= n keeps the value m.
LARGE_BIPARTITE = ((1, 40), (7, 9), (8, 8), (10, 12), (12, 20), (15, 16), (20, 25))


def test_criterion_03_complete_bipartite():
    pairs = [(m, n) for m in range(1, 7) for n in range(m, 7)] + list(LARGE_BIPARTITE)
    for m, n in pairs:
        res = dem_exact(gen.complete_bipartite(m, n).graph)
        assert (res.value, res.exact) == (m, True), (m, n, res.value)
    _report(3, "complete bipartite K_{m,n} gives m for 1<=m<=n<=6 and 7 pairs up to K_{20,25}")


def test_criterion_04_oracle_equivalence(small_random_corpus, family_corpus):
    start = time.perf_counter()
    mismatches = 0
    graphs = list(small_random_corpus) + [g for _, g in family_corpus]
    for g in graphs:
        for x in range(g.n):
            if em_set(g, x).edges != em_set_naive(g, x).edges:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    _report(4, f"em_set == em_set_naive on {len(graphs)} graphs in {elapsed:.1f} s")


def test_criterion_05_em_invariants(small_random_corpus, family_corpus):
    graphs = list(small_random_corpus) + [g for _, g in family_corpus]
    violations = 0
    for g in graphs:
        br = bridges(g)
        dmin, _ = degree_extremes(g)
        for x in range(g.n):
            ems = em_set(g, x).edges
            incident = {canonical_edge(x, w) for w in g.neighbors(x)}
            if not is_forest(g.n, ems):
                violations += 1
            if not incident <= ems:
                violations += 1
            if not br <= ems:
                violations += 1
            if not (dmin <= len(ems) <= g.n - 1):
                violations += 1
    assert violations == 0
    _report(5, f"forest/incident/bridge/size EM invariants hold on {len(graphs)} graphs")


def test_criterion_06_pair_set_laws(small_random_corpus):
    violations = 0
    for idx, g in enumerate(small_random_corpus):
        rng = random.Random(600 + idx)
        e = min(g.edges())
        # monotonicity
        m2 = [v for v in range(g.n) if rng.random() < 0.6]
        m1 = [v for v in m2 if rng.random() < 0.5]
        if not p_set(g, m1, e).pairs <= p_set(g, m2, e).pairs:
            violations += 1
        # disjointness biconditional
        ma = {v for v in range(g.n) if rng.random() < 0.5}
        mb = {v for v in range(g.n) if rng.random() < 0.5}
        pa, pb = p_set(g, ma, e).pairs, p_set(g, mb, e).pairs
        if ma.isdisjoint(mb) and (pa & pb):
            violations += 1
        if p_set(g, ma & mb, e).pairs and ((not (ma & mb)) != (not (pa & pb))):
            violations += 1
        # global bounds
        if not (0 <= len(pa) <= g.n * (g.n - 1)):
            violations += 1
        # cut-edge bounds with M = V
        for cut in bridges(g):
            size = p_set(g, range(g.n), cut).size
            if not (2 * (g.n - 1) <= size <= 2 * (g.n // 2) * ((g.n + 1) // 2)):
                violations += 1
        # fiber distinctness for an actual monitoring set
        if g.m >= 2:
            monitors = dem_greedy(g).monitor_set
            fibers = [frozenset(p_set(g, monitors, edge).pairs) for edge in g.edges()]
            if len(set(fibers)) != len(fibers):
                violations += 1
    # balanced and unbalanced double stars hit the cut-edge formula exactly
    for a, b in ((1, 1), (2, 2), (3, 3), (3, 2), (5, 1), (7, 7)):
        inst = gen.double_star(a, b)
        n = inst.graph.n
        size = p_set(inst.graph, range(n), (0, 1)).size
        if size != 2 * (a + 1) * (b + 1):
            violations += 1
        # upper equality exactly when the two sides differ by at most one
        if (abs(a - b) <= 1) != (size == 2 * (n // 2) * ((n + 1) // 2)):
            violations += 1
    # complete-graph fibers count the monitored endpoints
    for n in range(2, 8):
        g = gen.complete(n).graph
        rng = random.Random(n)
        for _ in range(4):
            monitors = {v for v in range(n) if rng.random() < 0.5}
            for e in g.edges():
                if p_set(g, monitors, e).size != len(set(e) & monitors):
                    violations += 1
    assert violations == 0
    _report(6, "pair-set laws hold across the corpus, double stars, and cliques")


def test_criterion_07_exactness_oracle(exactness_corpus):
    start = time.perf_counter()
    for g in exactness_corpus:
        claimed = dem_exact(g).value
        optimum = next(
            k
            for k in range(1, g.n + 1)
            for subset in combinations(range(g.n), k)
            if is_monitoring_set(g, subset).is_monitoring
        )
        assert claimed == optimum
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, f"dem_exact matches subset enumeration on 200 graphs in {elapsed:.1f} s")


def test_criterion_08_greedy_guarantee(solver_corpus):
    for g in solver_corpus:
        exact = dem_exact(g).value
        greedy = dem_greedy(g).value
        assert exact <= greedy <= harmonic(g.m) * exact
    _report(8, f"greedy within the harmonic factor on {len(solver_corpus)} instances")


def test_criterion_09_base_graph_identity():
    rng = random.Random(909)
    count = 0
    while count < 100:
        core = gen.random_connected(rng.randint(3, 8), rng.uniform(0.3, 0.8), seed=5000 + count)
        if is_tree(core):
            continue
        g = attach_pendant_trees(core, extra=rng.randint(1, 6), seed=700 + count)
        reduced = base_graph(g)
        assert not reduced.was_tree
        # The pendant trees hang off vertices numbered after the core's, so
        # peeling them leaves the core's own 2-core, with the same ids.
        core_base = base_graph(core)
        assert (reduced.new_to_old, reduced.graph) == (core_base.new_to_old, core_base.graph)
        assert dem_exact(g).value == dem_exact(reduced.graph).value
        count += 1
    _report(9, "dem is invariant under pendant-tree attachment on 100 graphs")


def test_criterion_10_bound_sandwich(solver_corpus):
    for g in solver_corpus:
        rep = bounds_report(g)
        val = dem_exact(g).value
        lower = max(rep.density_lb, rep.clique_lb)
        assert lower <= val <= rep.vertex_cover_ub <= rep.gallai_ub
    _report(10, f"lower/upper bound chain holds on {len(solver_corpus)} instances")


def test_criterion_11_join_bound():
    from demkit.structural import minimum_vertex_cover_size

    rng = random.Random(1111)
    for i in range(50):
        g = gen.random_connected(rng.randint(2, 7), rng.uniform(0.3, 0.9), seed=8800 + i)
        m = rng.choice((1, 2, 3))
        beta = minimum_vertex_cover_size(g)
        joined = gen.join_with_empty(g, m).graph
        val = dem_exact(joined).value
        assert beta <= val <= beta + m, (sorted(g.edges()), m, beta, val)
    for n in range(1, 7):
        joined = gen.join_with_empty(gen.complete(n).graph, 1).graph
        assert dem_exact(joined).value == n
    _report(11, "join bound holds on 50 random bases and apexed cliques")


def test_criterion_12_dem2_equivalence(nontree_n8_corpus):
    mismatches = 0
    for g in nontree_n8_corpus:
        value = dem_exact(g).value
        gb = base_graph(g).graph
        found = any(
            dem2_pair_check(gb, u, v).all_pass for u, v in combinations(range(gb.n), 2)
        )
        if found != (value == 2):
            mismatches += 1
    assert mismatches == 0
    _report(12, "two-monitor characterization matches the solver on 300 graphs")


def test_criterion_13_dem3_audit(nontree_n8_corpus):
    ARTIFACT_DIR.mkdir(exist_ok=True)
    audit = []
    for idx, g in enumerate(nontree_n8_corpus):
        res = dem_exact(g)
        if res.value != 3:
            continue
        reduced = base_graph(g)
        back = {old: new for new, old in enumerate(reduced.new_to_old)}
        triple = tuple(back[v] for v in res.monitor_set)
        gb = reduced.graph
        report = dem3_triple_check(gb, *triple)
        assert report.direct_check, "solver's optimal triple must pass the direct check"
        # agreement tally over every triple of the core, not just the optimum
        tally = {"both_pass": 0, "both_fail": 0, "rules_only": 0, "direct_only": 0}
        for t in combinations(range(gb.n), 3):
            rep = dem3_triple_check(gb, *t)
            if rep.all_pass and rep.direct_check:
                tally["both_pass"] += 1
            elif rep.all_pass:
                tally["rules_only"] += 1
            elif rep.direct_check:
                tally["direct_only"] += 1
            else:
                tally["both_fail"] += 1
        audit.append(
            {
                "graph_index": idx,
                "n": g.n,
                "edges": [list(e) for e in g.edges()],
                "optimal_triple": list(triple),
                "optimal_structural_pass": report.all_pass,
                "optimal_direct_check": report.direct_check,
                "optimal_discrepancy": report.discrepancy,
                "optimal_failed_rules": [c.name for c in report.conditions if not c.passed],
                "all_triples": tally,
            }
        )
    path = ARTIFACT_DIR / "dem3_audit.json"
    total_disagree = sum(
        row["all_triples"]["rules_only"] + row["all_triples"]["direct_only"] for row in audit
    )
    summary = {
        "instances": len(audit),
        "optimal_triple_discrepancies": sum(1 for r in audit if r["optimal_discrepancy"]),
        "all_triple_disagreements": total_disagree,
        "rows": audit,
    }
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    assert path.exists() and len(audit) > 0
    _report(
        13,
        f"audited {len(audit)} dem=3 instances "
        f"({total_disagree} rule-vs-direct disagreements over all triples) -> {path.name}",
    )


def test_criterion_14_em_cardinality_theorems():
    from demkit.structural import unique_parent_condition

    # every achievable |EM(v)| = k at order n <= 12
    for n in range(2, 13):
        for k in range(1, n):
            if n - k - 1 > 0 and k < 2:
                continue
            inst = gen.em_k_construction(n, k)
            v = inst.role("v")
            assert em_set(inst.graph, v).size == k
            assert em_set_naive(inst.graph, v).size == k
    # the two-edge families
    for n in range(3, 11):
        inst = gen.d2_graph(n)
        assert em_set(inst.graph, inst.role("v")).size == 2
    for n in range(4, 11):
        inst = gen.d1_graph(n)
        assert em_set(inst.graph, inst.role("v")).size == 2
    for d, sizes, seed in ((3, (2, 1), 0), (3, (3, 2), 1), (4, (2, 2, 1), 2), (5, (2, 2, 2, 2), 3)):
        inst = gen.a_d_graph(d, sizes, seed=seed)
        assert em_set(inst.graph, inst.role("v")).size == 2
        assert em_set_naive(inst.graph, inst.role("v")).size == 2
    # unique-parent condition is exactly the spanning case
    for g in random_connected_graphs(100, 2, 9, seed=1414):
        for v in range(g.n):
            assert unique_parent_condition(g, v) == (em_set(g, v).size == g.n - 1)
    # only the single edge achieves |EM(v)| = 1
    assert em_set(gen.complete(2).graph, 0).size == 1
    for g in random_connected_graphs(60, 3, 9, seed=1415):
        for v in range(g.n):
            assert em_set(g, v).size >= 2
    _report(14, "EM cardinality constructions and characterizations all hold")


# Desk-scale values fixed by subset enumeration, then frozen.  The monitor
# sets are the lexicographically smallest optima and must reproduce exactly.
GOLDEN_CYCLES = {
    4: (0, 2), 5: (0, 1), 6: (0, 2), 7: (0, 1), 8: (0, 2),
    9: (0, 1), 10: (0, 2), 11: (0, 1), 12: (0, 2),
}
GOLDEN_GRIDS = {
    (2, 2): (2, (0, 3)),
    (2, 3): (3, (0, 1, 5)),
    (2, 4): (4, (0, 1, 2, 7)),
    (3, 3): (3, (0, 4, 8)),
    (3, 4): (4, (0, 1, 6, 11)),
    (4, 4): (4, (0, 5, 10, 15)),
}
GOLDEN_Q3 = (4, (0, 3, 5, 6))
# Closed forms past brute force's n <= 12, value and exactness only:
# dem(Q_d) = 2^(d-1), dem(grid a x b) = max(a, b), dem(C_n) = 2 (C4 to
# C12 are in GOLDEN_CYCLES).
CLOSED_FORMS = (
    [(f"Q{d}", gen.hypercube, (d,), 2 ** (d - 1)) for d in range(2, 10)]
    + [
        (f"grid{a}x{b}", gen.grid, (a, b), max(a, b))
        for a, b in ((2, 30), (3, 29), (5, 7), (7, 19), (10, 10), (12, 25), (15, 30), (20, 20),
                     (30, 30))
    ]
    + [(f"C{n}", gen.cycle, (n,), 2) for n in (3, 50, 501)]
)


def _assert_frozen(g, value, monitors):
    res = dem_exact(g)
    assert (res.value, res.monitor_set) == (value, monitors)
    assert res.exact
    # re-establish optimality independently: no smaller subset monitors
    masks = [em_set_naive(g, x).edges for x in range(g.n)]
    all_edges = set(g.edges())
    for k in range(1, value):
        for subset in combinations(range(g.n), k):
            assert set().union(*(masks[x] for x in subset)) != all_edges
    covered = set()
    for x in monitors:
        covered |= masks[x]
    assert covered == all_edges


def test_criterion_15_frozen_goldens():
    for n, monitors in GOLDEN_CYCLES.items():
        _assert_frozen(gen.cycle(n).graph, 2, monitors)
    for (p, q), (value, monitors) in GOLDEN_GRIDS.items():
        _assert_frozen(gen.grid(p, q).graph, value, monitors)
    _assert_frozen(gen.hypercube(3).graph, *GOLDEN_Q3)
    for name, make, args, value in CLOSED_FORMS:
        res = dem_exact(make(*args).graph)
        assert (res.value, res.exact) == (value, True), name
    _report(
        15,
        f"cycle, grid, and cube goldens reproduce bit-exactly; {len(CLOSED_FORMS)} closed forms"
        " up to Q9, grid30x30 and C501 hold",
    )
