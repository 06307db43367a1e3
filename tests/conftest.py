"""Shared deterministic corpora for the suite.

Everything is seeded: every run sees the same graphs, so golden values in
the tests stay stable.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from demkit import Graph, build_graph, is_tree, solvers
from demkit import generators as gen


def random_connected_graphs(count, n_lo, n_hi, seed, p_lo=0.25, p_hi=0.8, require=None):
    """Deterministic sample of connected graphs, optionally filtered."""
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(p_lo, p_hi)
        g = gen.random_connected(n, p, seed * 1_000_003 + attempt)
        if require is not None and not require(g):
            continue
        out.append(g)
    return out


def attach_pendant_trees(core: Graph, extra: int, seed: int) -> Graph:
    """Grow `extra` pendant vertices off a core, each hanging from any
    earlier vertex, so whole trees dangle from the core."""
    rng = random.Random(seed)
    edges = list(core.edges())
    n = core.n
    for _ in range(extra):
        parent = rng.randrange(n)
        edges.append((parent, n))
        n += 1
    return build_graph(n, edges)


@lru_cache(maxsize=None)
def named_families(max_n: int = 16):
    """Every generator family at a spread of sizes, capped at max_n vertices."""
    instances = []
    instances += [(f"path{n}", gen.path(n)) for n in (2, 5, 9, 16)]
    instances += [(f"cycle{n}", gen.cycle(n)) for n in (3, 4, 5, 6, 9, 12)]
    instances += [(f"complete{n}", gen.complete(n)) for n in range(2, 9)]
    instances += [(f"star{k}", gen.star(k)) for k in (1, 3, 6, 15)]
    instances += [
        (f"kbip{a}x{b}", gen.complete_bipartite(a, b))
        for a, b in ((1, 1), (1, 4), (2, 3), (3, 3), (2, 6), (4, 4))
    ]
    instances += [
        (f"grid{p}x{q}", gen.grid(p, q))
        for p, q in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))
    ]
    instances += [(f"hypercube{d}", gen.hypercube(d)) for d in (1, 2, 3, 4)]
    instances += [
        (f"doublestar{a}x{b}", gen.double_star(a, b))
        for a, b in ((0, 0), (2, 2), (3, 2), (3, 3), (7, 7))
    ]
    instances += [(f"d1_{n}", gen.d1_graph(n)) for n in (4, 5, 6, 8)]
    instances.append(("d1_6_inner", gen.d1_graph(6, d_edges=[(0, 1), (1, 2)])))
    instances += [(f"d2_{n}", gen.d2_graph(n)) for n in (3, 5, 7, 10)]
    instances += [
        (f"a_d_{d}_{'_'.join(map(str, sizes))}", gen.a_d_graph(d, sizes, seed=s))
        for d, sizes, s in (
            (3, (2, 1), 0),
            (3, (2, 2), 1),
            (4, (2, 2, 2), 2),
            (4, (3, 2, 1), 3),
            (5, (2, 2, 2, 1), 4),
        )
    ]
    instances += [
        (f"em_k_{n}_{k}", gen.em_k_construction(n, k))
        for n, k in ((2, 1), (4, 3), (6, 5), (8, 3), (12, 6), (16, 4))
    ]
    instances.append(("petersen", gen.petersen()))
    instances.append(("joinK3+2", gen.join_with_empty(gen.complete(3).graph, 2)))
    instances.append(("joinC5+1", gen.join_with_empty(gen.cycle(5).graph, 1)))
    return tuple((name, inst) for name, inst in instances if inst.graph.n <= max_n)


def family_graphs(max_n: int = 16):
    return [(name, inst.graph) for name, inst in named_families(max_n)]


@pytest.fixture(scope="session")
def small_random_corpus():
    """300 random connected graphs with n <= 10 (oracle-equivalence corpus)."""
    return random_connected_graphs(300, 2, 10, seed=11)


@pytest.fixture(scope="session")
def nontree_n8_corpus():
    """300 random connected non-tree graphs with n <= 8."""
    return random_connected_graphs(300, 3, 8, seed=23, require=lambda g: not is_tree(g))


@pytest.fixture(scope="session")
def exactness_corpus():
    """200 random connected graphs with n <= 8 for the solver oracle."""
    return random_connected_graphs(200, 2, 8, seed=37)


@pytest.fixture(scope="session")
def solver_corpus():
    """Random graphs up to n = 12 plus all named families of that size."""
    graphs = random_connected_graphs(60, 2, 12, seed=41)
    graphs += [g for _, g in family_graphs(max_n=12)]
    return graphs


@pytest.fixture(scope="session")
def local_search_corpus():
    """The graphs with at most 250 edges among 48 random connected graphs
    with n = 30-70: small budgets cut the search on most of them, and the
    local search's reference scans their covers in well under a second."""
    graphs = random_connected_graphs(48, 30, 70, seed=131, p_lo=0.05, p_hi=0.3)
    return [g for g in graphs if g.m <= 250]


@pytest.fixture(scope="session")
def family_corpus():
    return family_graphs(max_n=16)


@pytest.fixture
def certificate_calls(monkeypatch):
    """The monitor sets of each is_monitoring_set call made through
    demkit.solvers, which builds DemResult.certificate."""
    calls = []
    real = solvers.is_monitoring_set
    monkeypatch.setattr(solvers, "is_monitoring_set", lambda g, ms: calls.append(ms) or real(g, ms))
    return calls
