"""Per-vertex EM sets, per-edge pair sets, and monitoring-set verification.

An edge e is *monitored* by a vertex x when deleting e changes the distance
from x to some vertex.  EM(x) collects the edges x monitors; P(M, e)
collects the ordered (monitor, target) pairs whose distance changes when e
is deleted.  Both come with a fast path and a definitional oracle so each
can cross-check the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotZeroError
from .graph import (_MANY, Graph, _bfs, _bits, _check_vertex, _graph_edge, _sweep, canonical_edge,
                    require_connected)


@dataclass(frozen=True)
class EmSet:
    """Edges whose failure the single vertex `monitor` can detect."""

    monitor: int
    edges: frozenset

    @property
    def size(self) -> int:
        return len(self.edges)

    def to_json(self, label=lambda v: v) -> dict:
        return {
            "monitor": label(self.monitor),
            "edges": [[label(u), label(v)] for u, v in sorted(self.edges)],
            "size": self.size,
        }


@dataclass(frozen=True)
class PairSet:
    """Ordered (monitor, target) pairs that witness the failure of one edge."""

    monitors: frozenset
    edge: tuple
    pairs: frozenset

    @property
    def size(self) -> int:
        return len(self.pairs)

    def to_json(self, label=lambda v: v) -> dict:
        return {
            "monitors": [label(v) for v in sorted(self.monitors)],
            "edge": [label(v) for v in self.edge],
            "pairs": [[label(x), label(y)] for x, y in sorted(self.pairs)],
            "size": self.size,
        }


class MonitoringCertificate:
    """Per-edge witnesses proving coverage, plus the edges left uncovered.

    witnesses maps each covered edge e to a pair (x, y): x is a monitor
    with e in EM(x), and y a vertex whose distance from x changes in G-e.
    Certificates compare by these two values.  is_monitoring_set builds
    one from holders = _em_holders(g, sources), the holder masks of its
    monitors `sources`.  They alone answer is_monitoring; the uncovered
    edges and the witnesses are read off them on first access, the
    witnesses with one BFS sweep per witness monitor.
    """

    __slots__ = ("_g", "_sources", "_holders", "_uncovered", "_witnesses")

    def __init__(self, g: Graph, sources: list, holders: list):
        self._g = g
        self._sources = sources
        self._holders = holders
        self._uncovered = self._witnesses = None

    @property
    def is_monitoring(self) -> bool:
        return all(self._holders)

    @property
    def uncovered(self) -> frozenset:
        if self._uncovered is None:
            self._uncovered = frozenset(
                e for e, h in zip(self._g.edges(), self._holders) if not h
            )
        return self._uncovered

    @property
    def witnesses(self) -> dict:
        if self._witnesses is None:
            self._witnesses = _witness_pairs(self._g, self._sources, self._holders)
        return self._witnesses

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonitoringCertificate):
            return NotImplemented
        return self.witnesses == other.witnesses and self.uncovered == other.uncovered

    def __repr__(self) -> str:
        return f"MonitoringCertificate(witnesses={self.witnesses!r}, uncovered={self.uncovered!r})"

    def to_json(self, label=lambda v: v) -> dict:
        return {
            "witnesses": {
                f"{label(u)} {label(v)}": [label(a) for a in self.witnesses[(u, v)]]
                for (u, v) in sorted(self.witnesses)
            },
            "uncovered": [[label(u), label(v)] for u, v in sorted(self.uncovered)],
        }


def em_set(g: Graph, x: int) -> EmSet:
    """EM(x) in O(n + m) from the parents of one BFS sweep.

    x monitors an edge exactly when it joins some v to v's only neighbour
    one level closer to x: deleting it lengthens every shortest x-v path,
    while any other edge leaves a shortest path to every vertex.  Edges
    inside a level are never monitored by x.
    """
    _check_vertex(g, x)
    order, _, parent = _sweep(g, x)
    if len(order) < g.n:
        require_connected(g, "em_set")
    edges = frozenset(canonical_edge(v, parent[v]) for v in order if parent[v] >= 0)
    return EmSet(monitor=x, edges=edges)


def _em_holders(g: Graph, sources=None, what: str = "EM sets") -> list:
    """For the i-th edge of g.edges(), the bitmask of the sources x with it
    in EM(x).

    Bit i stands for sources[i], by default every vertex in id order.
    em_set's unique-parent rule for every source at once, in two passes.
    A disconnected graph raises DisconnectedError, naming `what`.

    Pass 1 is a multi-source BFS, level by level.  At level k, front[v]
    holds the sources at distance exactly k from a scanned v and unseen[v]
    those farther away; the sources new to v at level k go into r0[v] or r1[v]
    when k mod 3 is 0 or 1, and r2[v] is what those two leave.  A vertex
    with no unseen source left drops out of the scan.  One that meets no
    new source at a level is parked: it can meet one at the next level
    only through a neighbour that met one at this level, and that
    neighbour wakes it.  In a connected graph a vertex u at distance k
    from a source x meets x at level k, as its neighbour one step closer
    to x met x at level k - 1 and so kept u in the scan or woke it.  With
    every vertex a source no vertex is ever parked (on a shortest path to
    an unseen source, the next vertex is a new source); with a few, a far
    vertex is not rescanned at every level.  A scan that ends with a
    vertex still parked means the graph is disconnected.

    Pass 2 reads the holders off the residues.  Seen from any source, the
    two ends of an edge lie at most one level apart, so distances mod 3
    tell which end is closer: closer(v, w) = (r0[w] & r1[v]) |
    (r1[w] & r2[v]) | (r2[w] & r0[v]) holds the sources x with
    d(x, w) = d(x, v) - 1, for which w is a parent of v.  uniq[v] holds
    the sources for which v has exactly one parent, and x monitors the
    edge (v, w) exactly when x is in closer(v, w) & uniq[v] or in
    closer(w, v) & uniq[w].  Each vertex keeps ui = ri & uniq, so that
    closer(v, w) & uniq[v] = (r0[w] & u1[v]) | (r1[w] & u2[v]) |
    (r2[w] & u0[v]).
    """
    n = g.n
    adj = g._adj
    if sources is None:
        sources = range(n)
    if not sources:
        require_connected(g, what)
    full = (1 << len(sources)) - 1
    front = [0] * n
    for i, x in enumerate(sources):
        front[x] = 1 << i
    unseen = [full ^ f for f in front]
    r0 = front[:]
    r1 = [0] * n
    residue = (r0, r1, None)
    active = [v for v in range(n) if unseen[v]]
    parked = [False] * n
    asleep = 0
    level = 0
    # The rows swap; a level rewrites only its scanned vertices' entries.
    # An older entry front[w] holds sources w met two or more levels back,
    # which every neighbour has met too, so `& unseen[v]` drops them.
    nxt = [0] * n
    while active:
        level += 1
        r = residue[level % 3]
        still = []
        for v in active:
            once = 0
            for w in adj[v]:
                once |= front[w]
            new = once & unseen[v]
            nxt[v] = new
            if new:
                if r is not None:
                    r[v] |= new
                rest = unseen[v] ^ new
                unseen[v] = rest
                if rest:
                    still.append(v)
            else:
                parked[v] = True
                asleep += 1
        if asleep:
            for v in active:
                if nxt[v]:
                    for w in adj[v]:
                        if parked[w]:
                            parked[w] = False
                            asleep -= 1
                            still.append(w)
        front, nxt = nxt, front
        active = still
    if asleep:
        require_connected(g, what)
    front = nxt = unseen = None
    r2 = [full ^ a ^ b for a, b in zip(r0, r1)]
    # kept[v]: (r0, r1, r2, u0, u1, u2) of v.
    kept = []
    for v in range(n):
        a0, a1, a2 = r0[v], r1[v], r2[v]
        once = twice = 0
        for w in adj[v]:
            c = (r0[w] & a1) | (r1[w] & a2) | (r2[w] & a0)
            twice |= once & c
            once |= c
        uniq = once & ~twice
        kept.append((a0, a1, a2, a0 & uniq, a1 & uniq, a2 & uniq))
    holders = []
    for v in range(n):
        a0, a1, a2, u0, u1, u2 = kept[v]
        for w in adj[v]:
            if w > v:
                b0, b1, b2, t0, t1, t2 = kept[w]
                holders.append(
                    (b0 & u1) | (b1 & u2) | (b2 & u0) | (a0 & t1) | (a1 & t2) | (a2 & t0)
                )
    return holders


def em_set_naive(g: Graph, x: int) -> EmSet:
    """EM(x) straight from the definition: delete each edge and re-run BFS.

    O(m (n + m)); kept as the oracle the fast path is validated against.
    """
    _check_vertex(g, x)
    require_connected(g, "em_set_naive")
    base = _bfs(g, x)
    edges = set()
    for e in g.edges():
        after = _bfs(g, x, skip=e)
        if after != base:
            edges.add(e)
    return EmSet(monitor=x, edges=frozenset(edges))


def _edge_rows(g: Graph, monitors, e: tuple) -> tuple:
    """(M, e, du, dv, holders) for P(M, e): the monitors as a set, e as
    (min, max), the distance rows from u and from v in G-e, n + 1 for
    unreachable, and the monitors that hold e by the gap rule, in id order.

    The gap rule.  A shortest x-u path that uses e = (u, v) ends with e, so
    d_G(x, u) = min(du[x], dv[x] + 1), and likewise for v: the two rows in
    G-e decide G's distances too.  Write gap = dv[x] - du[x].  At |gap| >= 2
    x holds e: deleting e lengthens x's distance to the far end, v when gap
    > 0 and u when gap < 0, which lies min(du[x], dv[x]) + 1 away in G.  At
    gap 0, x is as far from both ends ("equidistant"); at gap +-1, the far
    end keeps its distance through a detour ("detour_preserves_distance").
    Then x keeps its distance to both ends, and so to every vertex: a
    shortest path through e reaches the far end first, and another shortest
    path to the far end replaces that prefix.  n + 1 keeps the rule whole:
    a vertex that reaches one end only in G-e has |gap| >= 2, and one that
    reaches neither has gap 0.
    """
    edge = _graph_edge(g, e)
    ms = set(monitors)
    for x in ms:
        _check_vertex(g, x)
    far = g.n + 1
    du, dv = ([far if d < 0 else d for d in _bfs(g, s, skip=edge)] for s in edge)
    holders = [x for x in sorted(ms) if abs(dv[x] - du[x]) >= 2]
    return ms, edge, du, dv, holders


def p_set(g: Graph, monitors, e: tuple) -> PairSet:
    """P(M, e): ordered pairs (x, y), x in M, with d_G(x,y) != d_{G-e}(x,y).

    A target that deletion disconnects from its monitor counts as changed
    (finite -> unreachable is a distance change).

    Only a monitor that holds e contributes, and _edge_rows' two BFS on G-e
    give, by the gap rule, every holder, its far end and its distance to it.

    Then one level-synchronous BFS from the holders H, bit i for the i-th
    holder, pushes two masks per vertex along g's neighbour lists.  At
    level k, front[y] holds the holders at distance exactly k from y, and
    ok[y] those of them with a shortest path to y that avoids e: the OR of
    the ok masks of y's neighbours one level closer, e left out.  d(x, y)
    changes in G-e exactly when no shortest x-y path avoids e, so
    front[y] & ~ok[y] are y's changed pairs.  Over e, a holder's bit
    reaches an endpoint at its own level only when that endpoint is the
    holder's far end, so leaving e out is clearing, at u and at v, the ok
    bits of the holders whose far end it is.  A changed target needs
    every parent changed, so a holder past its far end that gains no pair
    at a level gains none later: its bit leaves the sweep, which ends when
    no bit is left.  The cost is O(L * m) operations on |H|-bit masks, L
    the levels swept.
    """
    ms, edge, du, dv, holders = _edge_rows(g, monitors, e)
    u, v = edge
    h = len(holders)
    unseen = [(1 << h) - 1] * g.n
    # state: (y, front | ok << h) for the vertices y the last level reached.
    # due[k]: the holders whose far end lies k steps away; far_u and far_v
    # those whose far end is u or v.
    state = []
    due: dict = {}
    far_u = far_v = 0
    for i, x in enumerate(holders):
        bit = 1 << i
        unseen[x] ^= bit
        state.append((x, bit | bit << h))
        if du[x] < dv[x]:
            far_v |= bit
        else:
            far_u |= bit
        k = min(du[x], dv[x]) + 1
        due[k] = due.get(k, 0) | bit
    keep_u, keep_v = ~(far_u << h), ~(far_v << h)
    # acc[y] gathers the states pushed to y at a level; waiting holds the
    # holders whose far end lies past it, live those still swept.
    adj = g._adj
    acc = [0] * g.n
    waiting = live = (1 << h) - 1
    changed = []
    level = 0
    while state:
        level += 1
        touched = []
        for w, s in state:
            for y in adj[w]:
                a = acc[y]
                if not a:
                    touched.append(y)
                acc[y] = a | s
        acc[u] &= keep_u
        acc[v] &= keep_v
        state = []
        hit = 0
        for y in touched:
            a = acc[y]
            acc[y] = 0
            new = a & unseen[y] & live
            if new:
                unseen[y] ^= new
                ok = (a >> h) & new
                if new != ok:
                    hit |= new ^ ok
                    changed.append((y, new ^ ok))
                state.append((y, new | ok << h))
        waiting &= ~due.get(level, 0)
        if hit | waiting != live:
            live = hit | waiting
            state = [(y, s) for y, s in state if s & live]
    pairs = frozenset((holders[i], y) for y, bad in changed for i in _bits(bad))
    return PairSet(monitors=frozenset(ms), edge=edge, pairs=pairs)


def _dominators(g: Graph, x: int) -> tuple:
    """(order, parent, idom) of the shortest-path DAG rooted at x: the visit
    order and unique parents of _sweep(g, x), and the immediate dominators.

    Built in BFS order: a vertex with one parent hangs below it; one with
    several hangs below their nearest common dominator, found by walking up
    from the farther of two candidates (a dominator is strictly closer to
    the source, so the farther one, or either on a tie, cannot be it).  The
    source and unreached vertices keep -1.
    """
    order, dist, parent = _sweep(g, x)
    adj = g._adj
    idom = parent[:]
    for v in order[1:]:
        if idom[v] != _MANY:
            continue
        dv1 = dist[v] - 1
        a = -1
        for w in adj[v]:
            if dist[w] != dv1:
                continue
            if a < 0:
                a = w
                continue
            while a != w:
                if dist[a] >= dist[w]:
                    a = idom[a]
                else:
                    w = idom[w]
        idom[v] = a
    return order, parent, idom


def is_monitoring_set(g: Graph, monitors) -> MonitoringCertificate:
    """Check whether the union of EM(x) over x in M covers every edge.

    One bit-parallel pass, _em_holders over the sorted monitors, gives
    each edge the mask of the monitors whose EM set holds it; M monitors g
    when no mask is zero, and that answer costs no further traversal.

    Every covered edge e = (p, v) gets a witness pair (x, y), built on
    the first read of the certificate's witnesses: x is the smallest
    monitor whose EM set holds e, the lowest bit of e's mask, and y is the
    smallest vertex whose distance from x changes in G-e.  One BFS sweep
    per distinct witness monitor suffices.  Since p is v's only parent in
    the shortest-path DAG rooted at x, the vertices that lose distance in
    G-e are exactly v's subtree in that DAG's dominator tree, so y is the
    lowest id in the subtree.  verify_dem_result re-checks each witness
    definitionally (BFS on G-e).

    The pass keeps one |M|-bit row per vertex before it can tell that g
    is disconnected, so with more than 64 monitors one BFS checks that
    first.
    """
    ms = sorted(set(monitors))
    for x in ms:
        _check_vertex(g, x)
    what = "monitoring-set verification"
    if len(ms) > 64:
        require_connected(g, what)
    holders = _em_holders(g, ms, what)
    return MonitoringCertificate(g, ms, holders)


def _witness_pairs(g: Graph, sources: list, holders: list) -> dict:
    """is_monitoring_set's witness pairs, grouped by monitor in id order."""
    by_bit: dict = {}
    for e, h in zip(g.edges(), holders):
        if h:
            by_bit.setdefault((h & -h).bit_length() - 1, []).append(e)
    witnesses = {}
    for i in sorted(by_bit):
        x = sources[i]
        order, parent, idom = _dominators(g, x)
        low = list(range(g.n))
        for v in reversed(order[1:]):
            d = idom[v]
            if low[v] < low[d]:
                low[d] = low[v]
        for a, b in by_bit[i]:
            witnesses[(a, b)] = (x, low[b if parent[b] == a else a])
    return witnesses


@dataclass(frozen=True)
class PairSetZeroReason:
    """Why P(M, e) came out empty, classified per monitor vertex.

    empty_monitor_set covers the M = {} case.  Otherwise each monitor is
    tagged "equidistant" (same distance to both endpoints) or
    "detour_preserves_distance" (the far endpoint keeps its distance after
    the deletion).  The source material joins these cases with a single
    "one of the following" but argues them per vertex, so per-vertex status
    is what gets reported.
    """

    empty_monitor_set: bool
    per_vertex: dict

    def labels(self) -> frozenset:
        """Roman-numeral shorthand: 'i' for empty M, 'ii'/'iii' per vertex tag."""
        if self.empty_monitor_set:
            return frozenset({"i"})
        return frozenset(_ZERO_LABELS[tag] for tag in self.per_vertex.values())


_ZERO_LABELS = {"equidistant": "ii", "detour_preserves_distance": "iii"}


def p_set_size_zero_reason(g: Graph, monitors, e: tuple) -> PairSetZeroReason:
    """Classify an empty P(M, e) by _edge_rows' gap rule; raises
    NotZeroError when it is not empty."""
    ms, edge, du, dv, holders = _edge_rows(g, monitors, e)
    if holders:
        raise NotZeroError(
            f"P(M, e) has {p_set(g, ms, edge).size} pairs; zero classification does not apply"
        )
    per_vertex = {
        x: "equidistant" if du[x] == dv[x] else "detour_preserves_distance" for x in sorted(ms)
    }
    return PairSetZeroReason(empty_monitor_set=not ms, per_vertex=per_vertex)
