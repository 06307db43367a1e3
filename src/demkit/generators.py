"""Constructors for the graph families used as fixtures and CLI instances.

Every constructor returns a FamilyInstance carrying the graph, the family
name and parameters, and the designated vertices the structural results
talk about.  All constructors are deterministic under (parameters, seed).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from itertools import combinations

from .errors import BadParameterError
from .graph import Graph, is_connected


@dataclass(frozen=True)
class FamilyInstance:
    """A generated graph plus the role -> vertex map its family designates."""

    graph: Graph
    family: str
    params: dict = field(default_factory=dict)
    designated: dict = field(default_factory=dict)

    def role(self, name: str) -> int:
        return self.designated[name]


def path(n: int) -> FamilyInstance:
    """Path on n vertices, 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise BadParameterError("path needs n >= 1")
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    return FamilyInstance(g, "path", {"n": n})


def cycle(n: int) -> FamilyInstance:
    if n < 3:
        raise BadParameterError("cycle needs n >= 3")
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    return FamilyInstance(g, "cycle", {"n": n})


def complete(n: int) -> FamilyInstance:
    if n < 1:
        raise BadParameterError("complete graph needs n >= 1")
    g = Graph(n, combinations(range(n), 2))
    return FamilyInstance(g, "complete", {"n": n})


def star(leaves: int) -> FamilyInstance:
    """Star with a designated center (vertex 0) and `leaves` leaves."""
    if leaves < 1:
        raise BadParameterError("star needs at least one leaf")
    g = Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    return FamilyInstance(g, "star", {"leaves": leaves}, {"center": 0})


def complete_bipartite(a: int, b: int) -> FamilyInstance:
    """K_{a,b}; the first side is vertices 0..a-1, the second a..a+b-1."""
    if a < 1 or b < 1:
        raise BadParameterError("complete bipartite needs both sides nonempty")
    g = Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    return FamilyInstance(g, "complete_bipartite", {"a": a, "b": b})


def grid(p: int, q: int) -> FamilyInstance:
    """p x q grid; vertex (r, c) has id r*q + c."""
    if p < 2 or q < 2:
        raise BadParameterError("grid needs p, q >= 2")
    edges = []
    for r in range(p):
        for c in range(q):
            if c + 1 < q:
                edges.append((r * q + c, r * q + c + 1))
            if r + 1 < p:
                edges.append((r * q + c, (r + 1) * q + c))
    return FamilyInstance(Graph(p * q, edges), "grid", {"p": p, "q": q})


def hypercube(d: int) -> FamilyInstance:
    """d-dimensional hypercube; vertices are bitstrings, edges flip one bit."""
    if d < 1:
        raise BadParameterError("hypercube needs d >= 1")
    n = 1 << d
    edges = [(v, v | (1 << b)) for v in range(n) for b in range(d) if not v & (1 << b)]
    return FamilyInstance(Graph(n, edges), "hypercube", {"d": d})


def petersen() -> FamilyInstance:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return FamilyInstance(Graph(10, edges), "petersen", {})


def double_star(a: int, b: int) -> FamilyInstance:
    """Two stars with a >= b leaves joined by an edge between their centers.

    center1 is vertex 0 (the a-leaf side), center2 is vertex 1; the joining
    edge (0, 1) is the unique cut edge separating the two sides.
    """
    if not (a >= b >= 0):
        raise BadParameterError("double star needs a >= b >= 0")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    g = Graph(a + b + 2, edges)
    return FamilyInstance(g, "double_star", {"a": a, "b": b}, {"center1": 0, "center2": 1})


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus all edges between the two sides."""
    edges = list(g.edges())
    off = g.n
    edges += [(u + off, v + off) for u, v in h.edges()]
    edges += [(u, off + w) for u in range(g.n) for w in range(h.n)]
    return Graph(g.n + h.n, edges)


def join_with_empty(g: Graph, m: int) -> FamilyInstance:
    """g joined with m isolated apex vertices, each adjacent to all of g."""
    if m < 1:
        raise BadParameterError("join_with_empty needs m >= 1")
    joined = join(g, Graph(m))
    designated = {f"apex{i + 1}": g.n + i for i in range(m)}
    return FamilyInstance(joined, "join_with_empty", {"n": g.n, "m": m}, designated)


def em_k_construction(n: int, k: int) -> FamilyInstance:
    """A graph of order n whose designated vertex v monitors exactly k edges.

    Core block: k vertices 0..k-1, apex v = k joined to all of them.  Any
    remaining vertices each get two edges into the core block, so none of
    their edges is monitored by v.  Deterministic: the first two core
    vertices are always the attachment points.
    """
    if not (1 <= k <= n - 1):
        raise BadParameterError("need 1 <= k <= n - 1")
    rest = n - k - 1
    if rest > 0 and k < 2:
        raise BadParameterError(
            "outer vertices need two distinct attachment points, so k >= 2 when n > k + 1"
        )
    v = k
    edges = [(i, v) for i in range(k)]
    for t in range(rest):
        outer = k + 1 + t
        edges += [(outer, 0), (outer, 1)]
    g = Graph(n, edges)
    return FamilyInstance(g, "em_k", {"n": n, "k": k}, {"v": v})


def _d_family(n: int, d_edges, with_center_edge: bool, name: str) -> FamilyInstance:
    v, u1, u2 = 0, 1, 2
    edges = [(v, u1), (v, u2)]
    if with_center_edge:
        edges.append((u1, u2))
    for i in range(n - 3):
        w = 3 + i
        edges += [(u1, w), (u2, w)]
    if d_edges:
        for a, b in d_edges:
            if not (0 <= a < n - 3) or not (0 <= b < n - 3):
                raise BadParameterError("inner-block edge endpoint out of range")
            edges.append((3 + a, 3 + b))
    g = Graph(n, edges)
    return FamilyInstance(
        g, name, {"n": n, "d_edges": tuple(d_edges or ())}, {"v": v, "u1": u1, "u2": u2}
    )


def d1_graph(n: int, d_edges=None) -> FamilyInstance:
    """Diamond family with the u1-u2 chord: v sees only its two edges.

    The inner block (vertices 3..n-1) defaults to edgeless and every inner
    vertex is adjacent to both u1 and u2.
    """
    if n < 4:
        raise BadParameterError("d1 family needs n >= 4")
    return _d_family(n, d_edges, with_center_edge=True, name="d1")


def d2_graph(n: int, d_edges=None) -> FamilyInstance:
    """Diamond family without the chord; n = 3 degenerates to a path."""
    if n < 3:
        raise BadParameterError("d2 family needs n >= 3")
    return _d_family(n, d_edges, with_center_edge=False, name="d2")


def a_d_graph(d: int, sizes, seed: int = 0, intra_edge_prob: float = 0.0) -> FamilyInstance:
    """Layered family of eccentricity d in which v monitors exactly 2 edges.

    Level 1 is the fixed pair {u1, u2}; level i has sizes[i-2] vertices and
    each of them gets at least two seeded-random edges into level i-1.
    Intra-level edges, added with probability intra_edge_prob, never
    change the layer structure: every vertex lies at distance i from v,
    and every vertex of level 2 or deeper has at least two parents.
    """
    sizes = list(sizes)
    if d < 3:
        raise BadParameterError("layered family needs d >= 3")
    if len(sizes) != d - 1:
        raise BadParameterError(f"need sizes for levels 2..{d} ({d - 1} values)")
    for idx, s in enumerate(sizes):
        level = idx + 2
        if level < d and s < 2:
            raise BadParameterError(f"level {level} needs at least 2 vertices")
        if level == d and s < 1:
            raise BadParameterError("last level needs at least 1 vertex")
    rng = random.Random(seed)
    levels = [[0], [1, 2]]
    nxt = 3
    for s in sizes:
        levels.append(list(range(nxt, nxt + s)))
        nxt += s
    n = nxt
    edges = [(0, 1), (0, 2)]
    for li in range(2, d + 1):
        below = levels[li - 1]
        for y in levels[li]:
            k = rng.randint(2, len(below))
            edges += [(y, p) for p in sorted(rng.sample(below, k))]
        if intra_edge_prob > 0:
            for a, b in combinations(levels[li], 2):
                if rng.random() < intra_edge_prob:
                    edges.append((a, b))
    return FamilyInstance(
        Graph(n, edges),
        "a_d",
        {"d": d, "sizes": tuple(sizes), "seed": seed, "intra_edge_prob": intra_edge_prob},
        {"v": 0, "u1": 1, "u2": 2},
    )


def random_connected(n: int, edge_prob: float, seed: int) -> Graph:
    """G(n, p) conditioned on connectivity by rejection; seed-deterministic.

    A p at which one sample almost surely has fewer than the n - 1 edges
    a connected graph needs is rejected before any sampling.
    """
    if n < 1:
        raise BadParameterError("need n >= 1")
    if not (0 < edge_prob <= 1):
        raise BadParameterError("edge probability must be in (0, 1]")
    hopeless = f"could not sample a connected graph with n={n}, p={edge_prob}"
    if _few_edges_log_bound(n, edge_prob) < _HOPELESS_LOG:
        raise BadParameterError(hopeless)
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    for _ in range(100_000):
        edges = [e for e in pairs if rng.random() < edge_prob]
        if len(edges) < n - 1:
            continue  # too few edges to connect n vertices
        g = Graph(n, edges)
        if is_connected(g):
            return g
    raise BadParameterError(hopeless)


_HOPELESS_LOG = math.log(1e-12)


def _few_edges_log_bound(n: int, p: float) -> float:
    """Log of a Chernoff upper bound on P(G(n, p) has at least n - 1 edges).

    The edge count is Binomial(N, p) with N = n(n-1)/2 and mean mu = Np;
    for a = n - 1 > mu, P(X >= a) <= exp(a - mu - a ln(a / mu)).  0 (a
    bound of 1) when a <= mu.  Below 1e-12, even the 100,000 tries of
    random_connected all fall short with probability above 1 - 1e-7.
    """
    a = n - 1
    mu = n * (n - 1) / 2 * p
    if a <= mu:
        return 0.0
    return a - mu - a * math.log(a / mu)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labelled tree (Pruefer decoding); seed-deterministic."""
    if n < 1:
        raise BadParameterError("need n >= 1")
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)
