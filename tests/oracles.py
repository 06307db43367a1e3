"""Independent brute-force oracles the fast paths are validated against.

Nothing here may call the implementation under test for its answer: the
point is a second, slower route to the same quantity.  Distances come from
repeated edge relaxation rather than BFS, connectivity from union-find,
monitored-set minima from subset enumeration over naively recomputed EM
sets, certificate witnesses from a BFS on G-e for every monitor and edge.
The set-cover search, its local search, the greedy cover, the class
merge and transpose, the all-sources EM holders, the pair sets P(M, e),
the clique number, the vertex cover number and the edge-list loader are
checked against frozen copies of their earlier routines, and
the search's value against a MILP solved by scipy.  The shortest-path enumerators check the
paper's incident-only condition on EM sets.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import NamedTuple

from demkit import (
    BadParameterError,
    DemkitError,
    EdgeNotPresentError,
    FormatError,
    OutOfRangeError,
    SelfLoopError,
    em_set_naive,
)
from demkit.graph import Graph, _bfs, _check_vertex, canonical_edge, require_connected
from demkit.io import LoadedGraph, _parse_roles
from demkit.monitor import PairSet, _dominators


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


class NaiveCertificate(NamedTuple):
    """The witnesses and uncovered edges of certificate_naive."""

    witnesses: dict
    uncovered: frozenset

    @property
    def is_monitoring(self) -> bool:
        return not self.uncovered


def certificate_naive(g: Graph, monitors) -> NaiveCertificate:
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
    return NaiveCertificate(witnesses=witnesses, uncovered=uncovered)


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


def _bits(x: int):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def greedy_cover_reference(masks: list, full: int) -> list:
    """``solvers._greedy_cover`` as it was before elements were merged.

    Elements are single edges, each counting once.  Repeatedly take the set
    covering the most uncovered elements (ties to the lowest index).
    """
    covered = 0
    chosen = []
    while covered != full:
        best_v, best_gain = -1, 0
        for v, m in enumerate(masks):
            gain = (m & ~covered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_v < 0:
            raise AssertionError("uncoverable element in set-cover instance")
        chosen.append(best_v)
        covered |= masks[best_v]
    return chosen


def merge_reference(holders: list) -> tuple:
    """``solvers._merge`` as first written: one sort on a Python key.

    Classes are the distinct holder masks, most holders first and ties by
    the larger mask first; buckets pair each multiplicity with the mask of
    its classes.  The fast routine must return the same pair.
    """
    count = Counter(holders)
    classes = sorted(count, key=lambda h: (h.bit_count(), h), reverse=True)
    buckets: dict = {}
    for c, h in enumerate(classes):
        w = count[h]
        buckets[w] = buckets.get(w, 0) | 1 << c
    return classes, sorted(buckets.items())


def transpose_reference(holders: list, n: int) -> list:
    """``solvers._transpose`` as first written: one step per set bit,
    whatever the density."""
    masks = [0] * n
    for e, h in enumerate(holders):
        bit = 1 << e
        while h:
            low = h & -h
            masks[low.bit_length() - 1] |= bit
            h ^= low
    return masks


def cover_search_reference(holders: list, incumbent: list, budget: int) -> tuple:
    """The branch and bound of ``solvers._cover_search`` as first written.

    Same contract and the same node sequence, in the plainest form: elements
    numbered fewest holders first and packed lowest bit first, both children
    pushed, and every test run at every node.  The fast loop must return the
    same (covers, nodes, exact) on every input.
    """
    n = max(map(int.bit_length, holders), default=0)
    classes = sorted(set(holders), key=lambda h: (h.bit_count(), h))
    sets = [0] * n
    for e, h in enumerate(classes):
        for v in _bits(h):
            sets[v] |= 1 << e
    full = (1 << len(classes)) - 1
    # keep[idx][e]: the elements that share no set of index >= idx with e.
    # Only elements with such a set are read: the suffix_or test prunes a
    # node before its packing loop sees an element no set from idx on covers.
    keep = [None] * n
    row = [full] * len(classes)
    for idx in range(n - 1, -1, -1):
        rest = full & ~sets[idx]
        for e in _bits(sets[idx]):
            row[e] &= rest
        keep[idx] = row[:]
    suffix_or = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | sets[i]
    max_pop = max((m.bit_count() for m in sets), default=1) or 1
    covers = [tuple(incumbent)]
    limit = len(incumbent)
    nodes = 0
    stack = [(0, 0, ())]
    while stack:
        if nodes == budget:
            return covers, nodes, False
        idx, covered, chosen = stack.pop()
        nodes += 1
        if covered == full:
            covers.append(chosen)
            limit = len(chosen) - 1
            continue
        if covered | suffix_or[idx] != full:
            continue
        uncovered = full & ~covered
        room = limit - len(chosen)
        if uncovered.bit_count() > room * max_pop:
            continue
        packed = 0
        k = keep[idx]
        while uncovered and packed <= room:
            packed += 1
            uncovered &= k[(uncovered & -uncovered).bit_length() - 1]
        if packed > room:
            continue
        stack.append((idx + 1, covered, chosen))
        stack.append((idx + 1, covered | sets[idx], chosen + (idx,)))
    return covers, nodes, True


def improve_cover_reference(holders: list, covers: list) -> list:
    """``solvers._improve_cover`` as first written: each group's uncovered
    elements are rebuilt from the rest of the cover.

    Local search: in each cover, replace any r <= 3 sets by r - 1 sets
    (dropping redundant ones when r = 1) until no such move exists; return
    the first smallest result.  holders[e] is the bitmask of the sets that
    hold element e; a move draws its new sets from the holders of the lowest
    uncovered element.  The fast routine must return the same list, order
    included, on every list of covers.
    """
    masks = [0] * max(map(int.bit_length, holders))
    for e, h in enumerate(holders):
        for v in _bits(h):
            masks[v] |= 1 << e
    full = (1 << len(holders)) - 1
    max_pop = max(m.bit_count() for m in masks)
    sets_of = [list(_bits(h)) for h in holders]

    def sets_with_lowest(elems: int) -> list:
        return sets_of[(elems & -elems).bit_length() - 1]

    def polish(cover) -> list:
        cover = list(cover)
        r = 1
        while r <= min(3, len(cover)):
            for group in combinations(cover, r):
                rest = 0
                for v in cover:
                    if v not in group:
                        rest |= masks[v]
                need = full & ~rest
                if need.bit_count() > (r - 1) * max_pop:
                    continue
                swap = () if not need else None
                if need:
                    for v in sets_with_lowest(need):
                        left = need & ~masks[v]
                        if not left:
                            swap = (v,)
                            break
                        if r == 3 and left.bit_count() <= max_pop:
                            w = next((w for w in sets_with_lowest(left) if not left & ~masks[w]), None)
                            if w is not None:
                                swap = (v, w)
                                break
                if swap is not None:
                    cover = [v for v in cover if v not in group] + list(swap)
                    r = 1
                    break
            else:
                r += 1
        return cover

    return min(map(polish, covers), key=len)


def clique_number_reference(g: Graph) -> int:
    """``structural.clique_number`` as first written: pivoting Bron-Kerbosch.

    The pivot is the vertex of P | X with the most neighbours in P.  No size
    guard; exponential on dense graphs such as the cocktail-party graphs.
    """
    if g.n == 0:
        return 0
    adj = [0] * g.n
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0

    def expand(r_size: int, p: int, x: int):
        nonlocal best
        if p == 0 and x == 0:
            best = max(best, r_size)
            return
        if r_size + p.bit_count() <= best:
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best_cover = -1
        pool = pivot_pool
        while pool:
            low = pool & -pool
            cand = low.bit_length() - 1
            cover = (p & adj[cand]).bit_count()
            if cover > best_cover:
                best_cover = cover
                pivot = cand
            pool ^= low
        ext = p & ~adj[pivot]
        while ext:
            low = ext & -ext
            v = low.bit_length() - 1
            expand(r_size + 1, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
            ext ^= low

    expand(0, (1 << g.n) - 1, 0)
    return best


def vertex_cover_reference(g: Graph) -> int:
    """``structural.minimum_vertex_cover_size`` as first written: branching
    on a vertex of highest degree over frozensets of edges, pruned by a
    greedy matching.  No size guard."""
    edges = frozenset(g.edges())

    def matching_lb(es) -> int:
        used: set = set()
        count = 0
        for u, v in sorted(es):
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                count += 1
        return count

    best = g.n

    def rec(es: frozenset, size: int):
        nonlocal best
        if not es:
            best = min(best, size)
            return
        if size + matching_lb(es) >= best:
            return
        deg: dict = {}
        for u, v in es:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        v = max(sorted(deg), key=lambda w: deg[w])
        rec(frozenset(e for e in es if v not in e), size + 1)
        nbrs = {b if a == v else a for a, b in es if v in (a, b)}
        rec(
            frozenset(e for e in es if not (e[0] in nbrs or e[1] in nbrs)),
            size + len(nbrs),
        )

    rec(edges, 0)
    return best


def em_holders_reference(g: Graph) -> list:
    """``monitor._em_holders`` as first written: attribution level by level.

    A multi-source BFS with one bit per source.  At level k, front[v] holds
    the sources at distance exactly k from v and unseen[v] those farther
    away.  A source new to v at level k + 1 lies in the front of one or of
    several neighbours of v; where it is one neighbour w, that neighbour is
    v's only parent, and the source monitors the edge (v, w).  A vertex
    that meets no new source while some are unseen means the graph is
    disconnected.  The fast routine must return the same list on every
    input and raise on the same ones.
    """
    n = g.n
    adj = g._adj
    # nbrs[v]: (w, index of the edge (v, w) in g.edges()) per neighbour w.
    nbrs: list = [[] for _ in range(n)]
    m = 0
    for u in range(n):
        for v in adj[u]:
            if v > u:
                nbrs[u].append((v, m))
                nbrs[v].append((u, m))
                m += 1
    holders = [0] * m
    front = [1 << v for v in range(n)]
    full = (1 << n) - 1
    unseen = [full ^ f for f in front]
    active = list(range(n))
    while active:
        nxt = [0] * n
        still = []
        for v in active:
            once = twice = 0
            for w in adj[v]:
                f = front[w]
                twice |= once & f
                once |= f
            new = once & unseen[v]
            if not new:
                require_connected(g, "EM sets")
            nxt[v] = new
            uniq = new & ~twice
            if uniq:
                for w, e in nbrs[v]:
                    h = front[w] & uniq
                    if h:
                        holders[e] |= h
            rest = unseen[v] ^ new
            unseen[v] = rest
            if rest:
                still.append(v)
        front = nxt
        active = still
    return holders


def p_set_reference(g: Graph, monitors, e: tuple) -> PairSet:
    """``monitor.p_set`` as first written: two BFS per monitor, on G and G-e.

    P(M, e) straight from its definition.  The fast routine must return the
    same pair set on every input and raise on the same ones.
    """
    u, v = e
    if not g.has_edge(u, v):
        raise EdgeNotPresentError(f"edge ({u}, {v}) not in graph")
    ms = set(monitors)
    for x in ms:
        _check_vertex(g, x)
    edge = canonical_edge(u, v)
    pairs = set()
    for x in sorted(ms):
        before = _bfs(g, x)
        after = _bfs(g, x, skip=edge)
        for y in range(g.n):
            if before[y] != after[y]:
                pairs.add((x, y))
    return PairSet(monitors=frozenset(ms), edge=edge, pairs=frozenset(pairs))


def p_set_by_dominators(g: Graph, monitors, e: tuple) -> PairSet:
    """``monitor.p_set`` as second written: one dominator tree per holder.

    A monitor x holds e = (u, v) when deleting e changes d(x, far end).  x's
    changed targets are then the far end's subtree in the dominator tree of
    x's shortest-path DAG, ``monitor._dominators(g, x)``: the law
    ``monitor._witness_pairs`` reads verify's witnesses off.  Equal to
    ``p_set_reference`` on every input exactly when that law holds.
    """
    u, v = e
    if not g.has_edge(u, v):
        raise EdgeNotPresentError(f"edge ({u}, {v}) not in graph")
    ms = set(monitors)
    for x in ms:
        _check_vertex(g, x)
    u, v = edge = canonical_edge(u, v)
    du, dv = _bfs(g, u), _bfs(g, v)
    du_after, dv_after = _bfs(g, u, skip=edge), _bfs(g, v, skip=edge)
    pairs = set()
    for x in ms:
        far = v if dv_after[x] != dv[x] else u if du_after[x] != du[x] else -1
        if far < 0:
            continue
        order, _, idom = _dominators(g, x)
        inside = {far}
        for y in order[order.index(far) + 1 :]:
            if idom[y] in inside:
                inside.add(y)
        pairs.update((x, y) for y in inside)
    return PairSet(monitors=frozenset(ms), edge=edge, pairs=frozenset(pairs))


_PATH_CAP = 100_000  # most shortest paths enumerate_shortest_paths returns


class PathOverflowError(DemkitError, ValueError):
    """Shortest-path enumeration exceeded _PATH_CAP."""


def enumerate_shortest_paths(g: Graph, x: int, y: int) -> list:
    """All shortest x-y paths as vertex tuples; PathOverflowError beyond _PATH_CAP.

    Backtracks from y through BFS predecessors.
    """
    _check_vertex(g, x)
    _check_vertex(g, y)
    dist = _bfs(g, x)
    if dist[y] < 0:
        return []
    paths: list = []
    stack: list = [(y, (y,))]
    while stack:
        u, suffix = stack.pop()
        if u == x:
            paths.append(suffix)
            if len(paths) > _PATH_CAP:
                raise PathOverflowError(f"more than {_PATH_CAP} shortest paths between {x} and {y}")
            continue
        for w in g._adj[u]:
            if dist[w] == dist[u] - 1:
                stack.append((w, (w,) + suffix))
    return paths


def _path_edges(path) -> frozenset:
    return frozenset(canonical_edge(path[i], path[i + 1]) for i in range(len(path) - 1))


def has_two_nearly_disjoint_shortest_paths(g: Graph, x: int, y: int) -> bool:
    """True when two shortest x-y paths share at most their initial edge at x.

    A shared edge away from x would stay vulnerable: deleting it changes
    d(x, y) even though two paths existed.  Sharing the first edge is
    harmless because edges at x are always monitored by x anyway.
    """
    paths = enumerate_shortest_paths(g, x, y)
    edge_sets = [_path_edges(p) for p in paths]
    for i in range(len(edge_sets)):
        for j in range(i + 1, len(edge_sets)):
            shared = edge_sets[i] & edge_sets[j]
            if all(x in e for e in shared):
                return True
    return False


def em_incident_only_condition(g: Graph, x: int) -> bool:
    """The route-redundancy condition equivalent to EM(x) = edges at x.

    Holds when every vertex outside the closed neighborhood of x is reached
    by two shortest paths that share no edge beyond possibly the one at x.
    """
    _check_vertex(g, x)
    require_connected(g, "incident-only condition")
    closed = set(g.neighbors(x)) | {x}
    for y in range(g.n):
        if y in closed:
            continue
        if not has_two_nearly_disjoint_shortest_paths(g, x, y):
            return False
    return True


def milp_dem(g: Graph) -> int:
    """dem(g) as a 0/1 program solved by scipy's HiGHS ``milp``.

    One variable per vertex, one covering row per edge: the minimum number
    of vertices whose EM sets cover every edge.  The cover runs over the
    whole graph, pendant trees included, so it does not rely on the core
    reduction.  EM sets come from the distance layers of one BFS per vertex:
    uv is in EM(x) iff u is the only neighbour of v one step closer to x.
    scipy is imported here, so only callers that run it need it.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    row = {e: i for i, e in enumerate(g.edges())}
    a = np.zeros((len(row), g.n))
    for x in range(g.n):
        dist = _bfs(g, x)
        for v in range(g.n):
            closer = [u for u in g.neighbors(v) if dist[u] == dist[v] - 1]
            if len(closer) == 1:
                a[row[canonical_edge(closer[0], v)], x] = 1
    res = milp(
        c=np.ones(g.n),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(g.n),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise AssertionError(f"milp failed: {res.message}")
    return round(res.fun)


def graph_reference(n: int, edges) -> Graph:
    """``Graph(n, edges)`` as first written: canonical_edge per edge and a
    sorted copy of every adjacency list.  Endpoints are range-checked, then
    tested for a self-loop, edge by edge, so the first bad edge decides the
    error."""
    if n < 0:
        raise BadParameterError("vertex count must be nonnegative")
    seen: set = set()
    adj: list = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise OutOfRangeError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        e = canonical_edge(u, v)
        if e in seen:
            continue
        seen.add(e)
        adj[u].append(v)
        adj[v].append(u)
    g = Graph.__new__(Graph)
    g.n = n
    g._adj = tuple(tuple(sorted(a)) for a in adj)
    g._m = len(seen)
    return g


def _map_labels_reference(n: int, raw_edges):
    """``io._map_labels`` as first written: token by token."""
    canonical = True
    for a, b in raw_edges:
        for tok in (a, b):
            try:
                v = int(tok)
            except ValueError:
                canonical = False
                break
            if not (0 <= v < n) or str(v) != tok:
                canonical = False
                break
        if not canonical:
            break
    if canonical:
        return None, [(int(a), int(b)) for a, b in raw_edges]
    table: dict = {}
    for a, b in raw_edges:
        for tok in (a, b):
            if tok not in table:
                if len(table) == n:
                    raise FormatError(f"more than {n} distinct labels in edge list")
                table[tok] = len(table)
    labels = [None] * n
    for tok, idx in table.items():
        labels[idx] = tok
    for idx in range(n):
        if labels[idx] is None:
            labels[idx] = f"_isolated{idx}"
    return labels, [(table[a], table[b]) for a, b in raw_edges]


def parse_edgelist_reference(text: str) -> LoadedGraph:
    """``io.parse_edgelist`` as first written, with the bodies of
    ``io._map_labels`` and ``Graph.__init__`` of that time (above).  The
    role comments go through the same ``io._parse_roles``.  The fast loader
    must return an equal LoadedGraph, or raise the same error with the same
    message, on every text.
    """
    comments = []
    data_lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        else:
            data_lines.append(line)
    if not data_lines:
        raise FormatError("missing 'n m' header line")
    head = data_lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {data_lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"header must be two integers, got {data_lines[0]!r}")
    if n < 0 or m < 0:
        raise FormatError("header counts must be nonnegative")
    if len(data_lines) - 1 != m:
        raise FormatError(f"header declares {m} edges but {len(data_lines) - 1} lines follow")
    raw_edges = []
    for line in data_lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must be 'u v', got {line!r}")
        raw_edges.append((parts[0], parts[1]))
    labels, id_edges = _map_labels_reference(n, raw_edges)
    loaded = LoadedGraph(graph=graph_reference(n, id_edges), labels=labels)
    loaded.roles = _parse_roles(comments, loaded)
    return loaded
