"""Undirected simple graphs: BFS distances, bridges, and 2-core reduction.

Vertices are dense integers 0..n-1.  A Graph is immutable after construction
and safe to share between threads; every function in this module is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import (
    BadParameterError,
    DisconnectedError,
    EdgeNotPresentError,
    OutOfRangeError,
    SelfLoopError,
)


class _UnreachableType:
    """Sentinel distance for "no path".

    Deliberately not a number: adding or comparing it arithmetically raises,
    so a missing reachability check fails loudly instead of producing a
    silently wrong distance.
    """

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNREACHABLE"


UNREACHABLE = _UnreachableType()


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Order an edge's endpoints as (min, max)."""
    return (u, v) if u < v else (v, u)


def _bits(x: int):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _outside(what: str, n: int) -> str:
    """The message for `what`, a vertex or an edge's endpoint, not in 0..n-1."""
    return f"{what} outside 0..{n - 1}" if n else f"{what}: the graph has no vertices"


def _check_vertex(g: "Graph", x: int) -> None:
    if not (0 <= x < g.n):
        raise OutOfRangeError(_outside(f"vertex {x}", g.n))


def _endpoint_outside(u: int, v: int, n: int) -> OutOfRangeError:
    """The error for an edge (u, v) with an endpoint not in 0..n-1."""
    return OutOfRangeError(_outside(f"edge ({u}, {v}) has an endpoint", n))


# The most vertices, and the most edges, of a graph that demkit builds.
# The generators check their counts from their parameters, and the
# edge-list reader from its header, before they build any list, so a huge
# spec or header fails at once instead of exhausting memory.  The largest
# graph that the tests and the benchmark corpus generate is cycle:200000.
_SIZE_CAP = 1_000_000


def _check_size(kind: str, n: int, m: int) -> None:
    """Reject a graph of the given kind (a generator family, or an edge
    list) with more than _SIZE_CAP vertices or edges; m may be an upper
    bound on the edge count."""
    if n > _SIZE_CAP or m > _SIZE_CAP:
        raise BadParameterError(
            f"{kind} graph too large: demkit builds at most {_SIZE_CAP:,} vertices"
            f" and {_SIZE_CAP:,} edges"
        )


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Construction validates endpoints, rejects self-loops and collapses
    duplicate edge pairs.  Adjacency lists are kept sorted.
    """

    __slots__ = ("n", "_adj", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise BadParameterError("vertex count must be nonnegative")
        self.n = n
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise _endpoint_outside(u, v, n)
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e not in seen:
                seen.add(e)
                adj[u].append(v)
                adj[v].append(u)
        for a in adj:
            a.sort()
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._m = len(seen)

    @classmethod
    def _from_adj(cls, adj: tuple, m: int) -> "Graph":
        """The graph whose sorted adjacency tuples are adj, with m edges,
        taken as they are: the caller vouches for them."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g._adj = adj
        g._m = m
        return g

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def neighbors(self, v: int) -> tuple[int, ...]:
        _check_vertex(self, v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n) or not (0 <= v < self.n):
            raise _endpoint_outside(u, v, self.n)
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as a (min, max) pair, in lexicographic order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a canonical Graph; duplicate input pairs collapse to one edge."""
    return Graph(n, edges)


_MANY = -2  # parent marker: the vertex has several neighbours one level closer


def _sweep(
    g: Graph, *sources: int, skip: Optional[tuple[int, int]] = None
) -> tuple[list, list, list]:
    """BFS from each source in turn: (visit order, distances, unique
    shortest-path parents).

    The package's one BFS loop.  With skip=(u, v) it runs on G-e: the edge
    is dropped from its two endpoints' neighbour lists before the loop,
    and every other vertex keeps g's own neighbour tuple.  With one source x,
    parent[v] is v's only neighbour one level closer to x, _MANY when there
    are several, and -1 for x itself and for unreached vertices (distance
    -1).  All of v's parents are dequeued while v waits in the queue, so the
    BFS loop sees each of them and no second adjacency scan is needed.  A
    later source not reached by an earlier one starts a new component at
    distance 0, so one call with every vertex as a source visits each
    component once.
    """
    n = g.n
    dist = [-1] * n
    parent = [-1] * n
    order: list = []
    adj = g._adj
    if skip is not None:
        a, b = skip
        adj = list(adj)
        adj[a] = [w for w in adj[a] if w != b]
        adj[b] = [w for w in adj[b] if w != a]
    for x in sources:
        if dist[x] >= 0:
            continue
        dist[x] = 0
        component = [x]
        for u in component:
            du1 = dist[u] + 1
            for w in adj[u]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = du1
                    parent[w] = u
                    component.append(w)
                elif dw == du1:
                    parent[w] = _MANY
        order += component
    return order, dist, parent


def _bfs(g: Graph, source: int, skip: Optional[tuple[int, int]] = None) -> list[int]:
    """Hop distances from source as plain ints; -1 marks unreachable.

    Internal fast path.  Callers must treat -1 as "no path" and never do
    arithmetic with it; the public wrappers convert -1 to UNREACHABLE.
    Pass skip=(u, v) to run on G-e without materialising the deletion.
    """
    return _sweep(g, source, skip=skip)[1]


@dataclass(frozen=True)
class DistanceLayers:
    """Per-source BFS hop distances; entries are ints or UNREACHABLE."""

    source: int
    dist: tuple

    def __getitem__(self, v: int):
        return self.dist[v]

    def layer(self, i: int) -> frozenset:
        """N_i: the set of vertices at distance exactly i from the source."""
        return frozenset(v for v, d in enumerate(self.dist) if d == i)

    def eccentricity(self) -> int:
        finite = [d for d in self.dist if d is not UNREACHABLE]
        return max(finite)


def bfs_distances(g: Graph, x: int) -> DistanceLayers:
    """Exact hop distances from x; UNREACHABLE for other components."""
    _check_vertex(g, x)
    raw = _bfs(g, x)
    return DistanceLayers(source=x, dist=tuple(d if d >= 0 else UNREACHABLE for d in raw))


def _graph_edge(g: Graph, e: tuple[int, int]) -> tuple[int, int]:
    """e as g's edge (min, max); EdgeNotPresentError when g lacks it."""
    u, v = e
    if not g.has_edge(u, v):
        raise EdgeNotPresentError(f"edge ({u}, {v}) not in graph")
    return canonical_edge(u, v)


def distance_after_deletion(g: Graph, e: tuple[int, int], x: int, y: int):
    """d_{G-e}(x, y); UNREACHABLE if deleting e disconnects x from y."""
    edge = _graph_edge(g, e)
    _check_vertex(g, x)
    _check_vertex(g, y)
    d = _bfs(g, x, skip=edge)[y]
    return d if d >= 0 else UNREACHABLE


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(_sweep(g, 0)[0]) == g.n


def component_sizes(g: Graph) -> list[int]:
    """Sizes of connected components, largest first (used in error hints)."""
    order, dist, _ = _sweep(g, *range(g.n))
    starts = [i for i, v in enumerate(order) if dist[v] == 0] + [g.n]
    return sorted((b - a for a, b in zip(starts, starts[1:])), reverse=True)


def require_connected(g: Graph, what: str = "operation") -> None:
    """Raise DisconnectedError with a per-component hint when g is disconnected.

    The hint lists the 10 largest component sizes, then "..." if there are
    more, so the message stays short however many components there are.
    """
    if not is_connected(g):
        sizes = component_sizes(g)
        shown = ", ".join(map(str, sizes[:10])) + (", ..." if len(sizes) > 10 else "")
        raise DisconnectedError(
            f"{what} requires a connected graph; found {len(sizes)} components of sizes [{shown}]"
        )


def _check_dem_defined(g: Graph) -> None:
    """BadParameterError for a graph with fewer than two vertices, which has
    no edge to monitor: the solvers, the bounds and the characterizations
    all reject it with this one message."""
    if g.n < 2:
        raise BadParameterError("dem is defined for graphs with at least one edge")


def degree_extremes(g: Graph) -> tuple[int, int]:
    """(min degree, max degree); (0, 0) for graphs without vertices."""
    if g.n == 0:
        return (0, 0)
    degs = [len(a) for a in g._adj]
    return (min(degs), max(degs))


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def bridges(g: Graph) -> set:
    """All cut edges, found by one iterative lowpoint traversal.

    A bridge is an edge whose deletion increases the number of connected
    components; the test suite cross-checks this against per-edge deletion.
    """
    n = g.n
    pre = [-1] * n
    low = [0] * n
    out: set[tuple[int, int]] = set()
    timer = 0
    for root in range(n):
        if pre[root] >= 0:
            continue
        pre[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            u, parent, i = stack.pop()
            adj = g._adj[u]
            if i < len(adj):
                stack.append((u, parent, i + 1))
                w = adj[i]
                if w == parent:
                    continue
                if pre[w] < 0:
                    pre[w] = low[w] = timer
                    timer += 1
                    stack.append((w, u, 0))
                else:
                    if pre[w] < low[u]:
                        low[u] = pre[w]
            else:
                if parent >= 0:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] > pre[parent]:
                        out.add(canonical_edge(parent, u))
    return out


@dataclass(frozen=True)
class BaseGraphResult:
    """The 2-core of a graph plus the vertex mapping into it.

    old_to_new[v] is v's core id (None when v was stripped); new_to_old
    lists the surviving vertices in order, so it maps core ids back.  For a
    tree the 2-core would be empty; instead a single surviving vertex
    is kept as a degenerate marker and was_tree is set, so downstream code
    never has to handle an empty graph.
    """

    graph: Graph
    old_to_new: tuple
    new_to_old: tuple
    was_tree: bool


def base_graph(g: Graph) -> BaseGraphResult:
    """Iteratively strip degree-1 vertices down to the 2-core.

    Idempotent; preserves every cycle of g.  When no vertex is stripped, the
    result holds g itself (a Graph is immutable, so sharing it is safe) and
    the identity mapping.  Raises DisconnectedError for disconnected input:
    stripping a leaf keeps its component and leaves one vertex of a tree,
    so g is connected exactly when what is left is, and one BFS over the
    remainder decides it.
    """
    if g.n == 0:
        raise BadParameterError("base graph of an empty graph is undefined")
    deg = [len(a) for a in g._adj]
    removed = [False] * g.n
    peel = [v for v in range(g.n) if deg[v] == 1]
    for u in peel:
        if removed[u] or deg[u] != 1:
            continue
        removed[u] = True
        deg[u] = 0
        for w in g._adj[u]:
            if not removed[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    peel.append(w)
    survivors = tuple(v for v in range(g.n) if not removed[v])
    if len(survivors) == g.n:
        core, old_to_new = g, survivors
    else:
        index: list = [None] * g.n
        for new, old in enumerate(survivors):
            index[old] = new
        # The relabelling keeps the order of the survivors, so their
        # neighbour tuples, filtered and relabelled, stay sorted.
        adj = tuple(tuple([index[w] for w in g._adj[v] if not removed[w]]) for v in survivors)
        core, old_to_new = Graph._from_adj(adj, sum(map(len, adj)) // 2), tuple(index)
    if not is_connected(core):
        require_connected(g, "base-graph reduction")
    return BaseGraphResult(
        graph=core,
        old_to_new=old_to_new,
        new_to_old=survivors,
        was_tree=g.m == g.n - 1,  # connected, so n - 1 edges make a tree
    )
