"""Independent brute-force oracles the fast paths are validated against.

Nothing here may call the implementation under test for its answer: the
point is a second, slower route to the same quantity.  Distances come from
repeated edge relaxation rather than BFS, connectivity from union-find,
monitored-set minima from subset enumeration over naively recomputed EM
sets, certificate witnesses from a BFS on G-e for every monitor and edge.
"""

from __future__ import annotations

from itertools import combinations

from demkit import em_set_naive, is_monitoring_set
from demkit.graph import Graph, _bfs, canonical_edge
from demkit.monitor import MonitoringCertificate


def relaxation_distances(g: Graph, source: int, skip=None):
    """Single-source distances by repeated edge relaxation; None = no path."""
    inf = float("inf")
    dist = [inf] * g.n
    dist[source] = 0
    edges = [e for e in g.edges() if e != skip]
    for _ in range(max(1, g.n)):
        changed = False
        for u, v in edges:
            if dist[u] + 1 < dist[v]:
                dist[v] = dist[u] + 1
                changed = True
            if dist[v] + 1 < dist[u]:
                dist[u] = dist[v] + 1
                changed = True
        if not changed:
            break
    return [None if d == inf else int(d) for d in dist]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def count_components(g: Graph, skip=None) -> int:
    uf = _UnionFind(g.n)
    comps = g.n
    for e in g.edges():
        if e == skip:
            continue
        if uf.union(*e):
            comps -= 1
    return comps


def naive_bridges(g: Graph) -> set:
    """Bridges by definition: deleting the edge increases the component count."""
    base = count_components(g)
    return {e for e in g.edges() if count_components(g, skip=e) > base}


def is_forest(n: int, edges) -> bool:
    uf = _UnionFind(n)
    return all(uf.union(u, v) for u, v in edges)


def harmonic(m: int) -> float:
    return sum(1.0 / i for i in range(1, m + 1))


def naive_em_masks(g: Graph):
    """Per-vertex EM sets recomputed from the definition, as edge frozensets."""
    return [em_set_naive(g, x).edges for x in range(g.n)]


def brute_minimum_monitoring(g: Graph, masks=None):
    """(minimum size, lexicographically first optimal set) by subset search."""
    masks = naive_em_masks(g) if masks is None else masks
    all_edges = set(g.edges())
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            covered = set()
            for x in subset:
                covered |= masks[x]
            if covered == all_edges:
                return k, subset
    raise AssertionError("vertex set itself must monitor a connected graph")


def brute_minimum_via_certificates(g: Graph):
    """Minimum monitoring-set size with is_monitoring_set as the only checker."""
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            if is_monitoring_set(g, subset).is_monitoring:
                return k, subset
    raise AssertionError("vertex set itself must monitor a connected graph")


def certificate_naive(g: Graph, monitors) -> MonitoringCertificate:
    """is_monitoring_set by definition: a BFS on G-e per monitor and edge.

    Each edge is witnessed by the smallest monitor whose distances change
    when the edge is deleted, paired with the smallest vertex whose
    distance changes.
    """
    witnesses = {}
    for x in sorted(set(monitors)):
        before = _bfs(g, x)
        for e in g.edges():
            if e in witnesses:
                continue
            after = _bfs(g, x, skip=e)
            if after != before:
                witnesses[e] = (x, next(y for y in range(g.n) if after[y] != before[y]))
    uncovered = frozenset(e for e in g.edges() if e not in witnesses)
    return MonitoringCertificate(witnesses=witnesses, uncovered=uncovered)


def enumerate_simple_cycles(g: Graph, cap: int = 20_000):
    """All simple cycles as vertex tuples, smallest vertex first."""
    cycles = []
    for root in range(g.n):
        stack = [(root, [root], {root})]
        while stack:
            u, path, seen = stack.pop()
            for w in g.neighbors(u):
                if w == root and len(path) >= 3:
                    # Each cycle appears twice (both directions); keep one.
                    if path[1] < path[-1]:
                        cycles.append(tuple(path))
                        if len(cycles) > cap:
                            raise AssertionError("cycle cap exceeded")
                elif w > root and w not in seen:
                    stack.append((w, path + [w], seen | {w}))
    return cycles


def cycle_exclusion_applies(g: Graph, x: int, e, dist_from=None) -> bool:
    """Detect the cycle pattern that forces an edge out of EM(x).

    The edge must be a cycle edge whose endpoints sit at the cycle radius
    from some cycle vertex x' (both at radius for an odd cycle, radius and
    radius-1 for an even one), and distances from x must compose through
    x' for every cycle vertex.  The composition requirement is what makes
    the exclusion sound; it implies that every shortest path from x to x'
    meets the cycle only at x'.
    """
    u, v = canonical_edge(*e)
    dist = dist_from if dist_from is not None else {}

    def d(a, b):
        if a not in dist:
            dist[a] = relaxation_distances(g, a)
        return dist[a][b]

    for cyc in enumerate_simple_cycles(g):
        verts = set(cyc)
        if u not in verts or v not in verts:
            continue
        edge_of_cycle = any(
            canonical_edge(cyc[i], cyc[(i + 1) % len(cyc)]) == (u, v)
            for i in range(len(cyc))
        )
        if not edge_of_cycle:
            continue
        length = len(cyc)
        for xp in cyc:
            du, dv = d(xp, u), d(xp, v)
            if length % 2 == 1:
                k = (length - 1) // 2
                ok = du == k and dv == k
            else:
                k = length // 2
                ok = {du, dv} == {k - 1, k}
            if not ok:
                continue
            base = d(x, xp)
            if all(d(x, w) == base + d(xp, w) for w in verts):
                return True
    return False
