"""Structural characterizations and numeric bounds for monitoring numbers.

The two- and three-monitor characterizations work on the distance-cell
partition: each vertex is binned by its distance vector to the candidate
monitors, and a list of named local rules forbids the patterns that would
leave some edge unwatched.  Every rule of both lists is a table of cell
offsets run by one pattern matcher (`_Rule`).  Each report lists every
rule's pass/fail with its witness and also carries the direct ground-truth
check, because parts of the three-monitor condition list are suspected to
contain transcription errors; disagreement is reported as data, never
papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil
from typing import Optional

from .errors import (
    BadParameterError,
    IsTreeError,
    TooLargeError,
)
from .graph import (
    _MANY,
    Graph,
    _bits,
    _check_vertex,
    _sweep,
    base_graph,
    degree_extremes,
    require_connected,
)
from .monitor import _em_holders, em_set, em_set_naive, is_monitoring_set


@dataclass(frozen=True)
class LayerProfile:
    """Distance-cell partition for 2 or 3 sources.

    cell_of[v] is v's distance vector; cells maps each occupied vector to
    its vertex set.  Adjacent vertices differ by at most 1 per coordinate.
    """

    sources: tuple
    cell_of: tuple
    cells: dict


def _rows(g: Graph, sources) -> list:
    """The BFS distance row of each source, one sweep per source.

    Raises OutOfRangeError for a source outside g and DisconnectedError
    when g is disconnected.
    """
    for s in sources:
        _check_vertex(g, s)
    rows = [_sweep(g, s)[1] for s in sources]
    if rows and -1 in rows[0]:
        require_connected(g, "layer profile")
    return rows


def layer_profile(g: Graph, sources) -> LayerProfile:
    """Bin every vertex by its distance vector to the given 2 or 3 sources."""
    srcs = tuple(sources)
    if len(srcs) not in (2, 3):
        raise BadParameterError("layer profile needs exactly 2 or 3 sources")
    if len(set(srcs)) != len(srcs):
        raise BadParameterError("layer profile sources must be distinct")
    cell_of = tuple(zip(*_rows(g, srcs)))
    cells: dict = {}
    for v, key in enumerate(cell_of):
        cells.setdefault(key, set()).add(v)
    return LayerProfile(
        sources=srcs,
        cell_of=cell_of,
        cells={k: frozenset(vs) for k, vs in cells.items()},
    )


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class ConditionReport:
    """Per-rule pass/fail for a candidate monitor tuple, plus ground truth."""

    vertices: tuple
    conditions: tuple
    direct_check: bool

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def discrepancy(self) -> bool:
        return self.all_pass != self.direct_check

    def to_json(self, label=lambda v: v) -> dict:
        conds = []
        for c in self.conditions:
            item = {"name": c.name, "pass": c.passed}
            if c.witness is not None:
                item["witness"] = [label(w) for w in c.witness]
            conds.append(item)
        return {
            "tuple": [label(v) for v in self.vertices],
            "conditions": conds,
            "direct_check": self.direct_check,
            "discrepancy": self.discrepancy,
        }


# ---------------------------------------------------------------------------
# The rule matcher.  A rule fails at the first vertex x (in ascending order)
# where one of its alternatives (in table order) matches.  An alternative is
# a sequence of steps; each step picks a neighbour of x or of y, the first
# vertex picked after x, whose cell is one of its offsets from x's cell or
# from y's cell, and which differs from every vertex picked so far.
# x must first have a neighbour at one of the first step's `need` offsets.
# Candidates are tried in adjacency order (ascending id) with backtracking,
# and the first full match, put in the rule's witness order, is the witness.
# ---------------------------------------------------------------------------

X, Y = 0, 1
_RADIX = 16


def _encode(vec) -> int:
    """A distance vector (or an offset) as one int.

    The code is linear, so the difference of two cells' codes is the code
    of their difference.  A step only compares vertices at most two edges
    apart, so every coordinate of such a difference, and of every table
    offset, lies in -2..2; within that range equal codes mean equal vectors.
    """
    code = 0
    for d in vec:
        code = code * _RADIX + d
    return code


def _step(of: int, from_x=(), from_y=(), need=None) -> tuple:
    """A step: a neighbour of vertex `of` (X or Y) at one of the offsets;
    `need` (read on a first step only) defaults to from_x."""
    fx, fy = frozenset(map(_encode, from_x)), frozenset(map(_encode, from_y))
    return (of, fx, fy, fx if need is None else frozenset(map(_encode, need)))


def _two(offsets, need=None) -> tuple:
    """An alternative: two neighbours of x at the offsets."""
    return (_step(X, offsets, need=need), _step(X, offsets))


@dataclass(frozen=True)
class _Rule:
    name: str
    alternatives: tuple
    order: tuple  # witness = the picked vertices in this order

    def __call__(self, adj, code: list, diffs: list) -> ConditionResult:
        for x in range(len(adj)):
            for steps in self.alternatives:
                if steps[0][3].isdisjoint(diffs[x]):
                    continue
                picked = _extend(adj, code, (x,), steps)
                if picked is not None:
                    return ConditionResult(self.name, False, tuple(picked[i] for i in self.order))
        return ConditionResult(self.name, True)


def _extend(adj, code, picked: tuple, steps: tuple) -> Optional[tuple]:
    """The first completion of `picked` by `steps`, depth first, or None."""
    if not steps:
        return picked
    of, from_x, from_y, _ = steps[0]
    cx = code[picked[X]]
    cy = code[picked[Y]] if from_y else 0
    for w in adj[picked[of]]:
        cw = code[w]
        if (cw - cx in from_x or (from_y and cw - cy in from_y)) and w not in picked:
            found = _extend(adj, code, picked + (w,), steps[1:])
            if found is not None:
                return found
    return None


def _evaluate(g: Graph, rows: list, rules: tuple) -> tuple:
    """Each rule's ConditionResult on the cell partition of the sources
    whose distance rows are given.

    A rule reads the adjacency, each vertex's cell code and, in diffs[x],
    the code differences from x to its neighbours.
    """
    code = [0] * g.n
    for row in rows:
        code = [c * _RADIX + d for c, d in zip(code, row)]
    adj = g._adj
    diffs = [{code[w] - cx for w in adj[x]} for x, cx in enumerate(code)]
    return tuple(rule(adj, code, diffs) for rule in rules)


def _report(g: Graph, sources: tuple, conditions: tuple) -> ConditionReport:
    direct = is_monitoring_set(g, list(sources)).is_monitoring
    return ConditionReport(vertices=sources, conditions=conditions, direct_check=direct)


# The zero offset has code 0 in any dimension, so this rule serves both lists.
_INDEPENDENT = _Rule("independent_cells", ((_step(X, [(0, 0)]),),), (0, 1))


# ---------------------------------------------------------------------------
# Two-monitor rules.  Coordinates are (distance to u, distance to v).
#
# An edge is watched by a monitor exactly when its endpoint farther from
# that monitor has the other endpoint as its *only* neighbor on the level
# in between.  The four rules below forbid precisely the local patterns in
# which some edge loses that property for both monitors at once; together
# they are equivalent to {u, v} monitoring every edge.
# ---------------------------------------------------------------------------


_PAIR_RULES = (
    _INDEPENDENT,
    # Two neighbours one step closer to both monitors are fatal, and so are
    # two one step closer to one monitor once x has a neighbour one step
    # closer to it and level with the other; the witness is the first two.
    _Rule(
        "unique_parent_constraints",
        (
            _two([(-1, -1)]),
            _two([(-1, d) for d in (-1, 0, 1)], need=[(-1, 0)]),
            _two([(d, -1) for d in (-1, 0, 1)], need=[(0, -1)]),
        ),
        (0, 1, 2),
    ),
    # A skew edge x-y descends toward one monitor and ascends toward the
    # other; the path z-x-y-z' gives it a second parent on both sides.  The
    # offsets relative to y cover both monitor orientations at once.
    _Rule(
        "forbidden_detour_path",
        (
            (
                _step(X, [(-1, 1), (1, -1)]),
                _step(Y, [(0, 0)], [(-1, -1)]),
                _step(X, [(-1, -1)], [(0, 0)]),
            ),
        ),
        (3, 0, 1, 2),
    ),
    # Neighbors in all three marked cells around one vertex.
    _Rule(
        "three_cell_limit",
        ((_step(X, [(-1, -1)]), _step(X, [(-1, 1)]), _step(X, [(1, -1)])),),
        (0, 1, 2, 3),
    ),
)


def dem2_pair_check(g_b: Graph, u: int, v: int) -> ConditionReport:
    """Evaluate the two-monitor cell conditions for (u, v) on a base graph.

    direct_check carries the ground truth (does {u, v} actually monitor
    every edge); the conditions are expected to agree and the test suite
    treats any disagreement as a bug.
    """
    if u == v:
        raise BadParameterError("pair check needs two distinct vertices")
    return _report(g_b, (u, v), _evaluate(g_b, _rows(g_b, (u, v)), _PAIR_RULES))


def dem2_first_pass(g_b: Graph) -> Optional[ConditionReport]:
    """Report of the first pair of a base graph, in combinations order, that
    passes all two-monitor conditions, or None."""
    rows = _rows(g_b, range(g_b.n))
    for u, v in combinations(range(g_b.n), 2):
        conditions = _evaluate(g_b, (rows[u], rows[v]), _PAIR_RULES)
        if all(c.passed for c in conditions):
            return _report(g_b, (u, v), conditions)
    return None


def dem_is_2(g: Graph) -> Optional[tuple]:
    """Search the base graph for a pair passing all two-monitor conditions.

    Returns the pair lifted back to g's vertex ids, or None.  Raises
    IsTreeError for trees (single-monitor regime).
    """
    base = base_graph(g)
    if base.was_tree:
        raise IsTreeError("graph is a tree; the single-monitor characterization applies")
    report = dem2_first_pass(base.graph)
    if report is None:
        return None
    u, v = report.vertices
    return (base.new_to_old[u], base.new_to_old[v])


# ---------------------------------------------------------------------------
# Three-monitor rules.  Coordinates are distance vectors to (u, v, w).
# The offsets below transcribe the source condition list verbatim, including
# its duplicated entries and asymmetries; empirical agreement with
# direct_check is reported, not assumed.
# ---------------------------------------------------------------------------


_BOX_DOWN = tuple(
    (di, dj, dk) for di in (-1, 0) for dj in (-1, 0) for dk in (-1, 0) if (di, dj, dk) != (0, 0, 0)
)


def _pair_exclusion(name: str, trigger, excluded) -> _Rule:
    """A neighbour y in the trigger cell excludes any other neighbour in
    the excluded cells."""
    return _Rule(name, ((_step(X, [trigger]), _step(X, excluded)),), (0, 1, 2))


def _path(name: str, y, far, near_x) -> _Rule:
    """Forbidden 4-path z-x-y-z': y at `y`, z' a neighbour of y at `far`,
    z a neighbour of x at `near_x` (all offsets from x's cell)."""
    return _Rule(name, ((_step(X, [y]), _step(Y, far), _step(X, near_x)),), (3, 0, 1, 2))


def _p4plus(name: str, y, pendant, leaf_a, leaf_b) -> _Rule:
    """Forbidden path x-y-z with two more leaves a, b on x."""
    return _Rule(
        name,
        ((_step(X, [y]), _step(Y, pendant), _step(X, leaf_a), _step(X, leaf_b)),),
        (0, 1, 3, 4, 2),
    )


_TRIPLE_RULES = (
    _INDEPENDENT,
    # At most one neighbor per non-increasing cell around each vertex.
    _Rule(
        "unique_parent_per_cell",
        tuple(_two([off]) for off in _BOX_DOWN),
        (0, 1, 2),
    ),
    _pair_exclusion(
        "pair_exclusion_a",
        (0, -1, 0),
        [(di, -1, dk) for di in (-1, 0, 1) for dk in (-1, 0, 1)],
    ),
    _pair_exclusion(
        "pair_exclusion_b",
        (-1, -1, -1),
        [(di, dj, dk) for di in (-1, 0) for dj in (-1, 0) for dk in (-1, 0)],
    ),
    _pair_exclusion("pair_exclusion_c", (-1, 1, -1), [(-1, 0, -1), (-1, 0, 0), (0, 0, -1)]),
    _pair_exclusion(
        "pair_exclusion_d",
        (0, -1, -1),
        [(-1, -1, -1), (0, -1, -1), (0, 0, -1), (0, -1, 0), (1, -1, -1)],
    ),
    _pair_exclusion("pair_exclusion_e", (0, -1, 1), [(0, -1, 0)]),
    _path(
        "forbidden_path_a",
        (-1, 1, 1),
        [(-2, 0, 0), (0, 0, 0)],
        [(-1, dj, dk) for dj in (-1, 1) for dk in (-1, 1)],
    ),
    _path(
        "forbidden_path_b",
        (-1, 1, 1),
        [(di, 0, dk) for di in (-2, 0) for dk in (-2, 0)],
        [(-1, -1, -1), (-1, 1, -1)],
    ),
    _path(
        "forbidden_path_c",
        (0, -1, 1),
        [(-1, -2, 0), (-1, -1, 0), (-1, 0, 0), (0, -2, 0),
         (0, 0, 0), (1, -2, 0), (1, -1, 0), (1, 0, 0)],
        [(-1, -1, -1), (-1, -1, 0), (-1, -1, 1), (0, -1, -1),
         (0, -1, 1), (1, -1, -1), (1, -1, 0), (1, -1, 1)],
    ),
    # Neighbors in all three of the marked down/up families.
    _Rule(
        "three_family_limit",
        (
            (
                _step(X, [(-1, -1, -1)]),
                _step(X, [(1, -1, -1)]),
                _step(X, [(-1, 1, dk) for dk in (-1, 0, 1)]),
            ),
        ),
        (0, 1, 2, 3),
    ),
    # Forbidden 4-star centred on a vertex with a triple-down neighbor.
    _Rule(
        "forbidden_star4",
        (
            (
                _step(X, [(-1, -1, -1)]),
                _step(X, [(-1, -1, 1), (-1, 0, 1), (-1, 1, -1), (-1, 1, 0), (-1, 1, 1)]),
                _step(X, [(-1, -1, 1), (0, -1, 1), (1, -1, -1), (1, -1, 0), (1, -1, 1)]),
                _step(X, [(-1, 1, -1), (0, 1, -1), (1, -1, -1), (1, 0, -1), (1, 1, -1)]),
            ),
        ),
        (0, 1, 2, 3, 4),
    ),
    _p4plus(
        "forbidden_p4plus_a",
        (-1, 1, -1),
        [(-2, 0, -2), (-2, 0, -1), (-2, 0, 0), (-1, 0, -2),
         (-1, 0, 0), (0, 0, -2), (0, 0, -1), (0, 0, 0)],
        [(-1, -1, -1), (-1, -1, 0), (-1, -1, 1), (-1, 0, 1),
         (-1, 1, -1), (-1, 1, 0), (-1, 1, 1)],
        [(-1, -1, -1), (-1, 1, -1), (0, -1, -1), (0, 1, -1),
         (1, -1, -1), (1, 0, -1), (1, 1, -1)],
    ),
    _p4plus(
        "forbidden_p4plus_b",
        (1, -1, -1),
        [(0, -2, -2), (0, -2, -1), (0, -2, 0), (0, -1, -2),
         (0, -1, 0), (0, 0, -2), (0, 0, -1)],
        [(-1, -1, -1), (-1, -1, 0), (-1, -1, 1), (0, -1, -1),
         (0, -1, 0), (1, -1, 1), (1, -1, -1), (1, -1, 0)],
        [(-1, -1, -1), (-1, 0, -1), (-2, 1, -1), (0, -1, -1),
         (0, 0, -1), (0, 1, -1), (1, -1, -1), (1, 0, -1), (1, 1, -1)],
    ),
    # Forbidden 3-star around a double-down neighbor.
    _Rule(
        "forbidden_star3",
        (
            (
                _step(X, [(0, -1, -1)]),
                _step(X, [(-1, -1, 0), (-1, -1, 1), (0, -1, 1), (1, -1, 0), (1, -1, 1)]),
                _step(X, [(-1, 0, -1), (-1, 1, -1), (0, 1, -1), (1, 0, -1), (1, 1, -1)]),
            ),
        ),
        (0, 1, 2, 3),
    ),
)

DEM3_RULE_NAMES = tuple(rule.name for rule in _TRIPLE_RULES)


def dem3_triple_check(g_b: Graph, u: int, v: int, w: int) -> ConditionReport:
    """Evaluate the three-monitor cell rules for (u, v, w) on a base graph.

    The rules transcribe a condition list with suspected typos, so the
    report always carries the ground-truth direct check and a discrepancy
    flag instead of asserting agreement.
    """
    if len({u, v, w}) != 3:
        raise BadParameterError("triple check needs three distinct vertices")
    return _report(g_b, (u, v, w), _evaluate(g_b, _rows(g_b, (u, v, w)), _TRIPLE_RULES))


def dem3_first_pass(g_b: Graph) -> Optional[ConditionReport]:
    """dem3_triple_check of the first triple of a base graph, in combinations
    order, that monitors every edge, or None.

    Ground truth drives the search; the rule report is data.
    """
    for triple in combinations(range(g_b.n), 3):
        if is_monitoring_set(g_b, triple).is_monitoring:
            return dem3_triple_check(g_b, *triple)
    return None


# ---------------------------------------------------------------------------
# Numeric bounds.
# ---------------------------------------------------------------------------

CLIQUE_GUARD = 64
VERTEX_COVER_GUARD = 40


def _independence(adj: list) -> int:
    """Size of a largest independent set of the graph where adj[v] is the
    neighbour mask of vertex v, by branch and bound over masks of live
    vertices.

    A live vertex with at most one live neighbour lies in a largest
    independent set of the live graph, so it is taken without branching.
    Otherwise the search takes, then drops, a vertex of highest live degree,
    and prunes a node once taking every live vertex could not beat the best
    set found.  Each call removes a vertex, so recursion is at most n deep.
    """
    best = 0

    def grow(live: int, size: int) -> None:
        nonlocal best
        while True:
            top = pivot = -1
            for v in _bits(live):
                d = (adj[v] & live).bit_count()
                if d <= 1:
                    break
                if d > top:
                    top, pivot = d, v
            else:
                break
            live &= ~(adj[v] | 1 << v)
            size += 1
        if size + live.bit_count() <= best:
            return
        if not live:
            best = size
            return
        grow(live & ~(adj[pivot] | 1 << pivot), size + 1)
        grow(live & ~(1 << pivot), size)

    grow((1 << len(adj)) - 1, 0)
    return best


def _adjacency(g: Graph) -> list:
    return [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]


def clique_number(g: Graph) -> int:
    """Size of a largest clique: the independence number of the complement,
    by the search behind `independence_number`.  Guarded to n <= CLIQUE_GUARD."""
    if g.n > CLIQUE_GUARD:
        raise TooLargeError(f"clique search guarded to n <= {CLIQUE_GUARD}")
    full = (1 << g.n) - 1
    return _independence([full ^ m ^ (1 << v) for v, m in enumerate(_adjacency(g))])


def independence_number(g: Graph) -> int:
    """Size of a largest independent set, by branch and bound on g's
    adjacency masks.  Guarded to n <= VERTEX_COVER_GUARD."""
    if g.n > VERTEX_COVER_GUARD:
        raise TooLargeError(f"independent set search guarded to n <= {VERTEX_COVER_GUARD}")
    return _independence(_adjacency(g))


def minimum_vertex_cover_size(g: Graph) -> int:
    """Vertex cover number beta = n - alpha: a set is a vertex cover exactly
    when its complement is independent.  Guarded to n <= VERTEX_COVER_GUARD."""
    return g.n - independence_number(g)


@dataclass(frozen=True)
class BoundsReport:
    """The bound chain around dem; fields are None when a guard tripped
    or the bound does not apply (feedback bound on trees)."""

    n: int
    m: int
    density_lb: int
    clique_lb: Optional[int]
    vertex_cover_ub: Optional[int]
    feedback_ub: Optional[int]
    regular_lb: Optional[int]
    em_per_vertex: dict

    @property
    def gallai_ub(self) -> Optional[int]:
        """n minus the independence number: the cover number, by Gallai's
        identity, so vertex_cover_ub itself."""
        return self.vertex_cover_ub

    def to_json(self, label=lambda v: v) -> dict:
        out = {
            "n": self.n,
            "m": self.m,
            "density_lb": self.density_lb,
            "em_per_vertex": {str(label(v)): s for v, s in sorted(self.em_per_vertex.items())},
        }
        for key in ("clique_lb", "vertex_cover_ub", "gallai_ub", "feedback_ub", "regular_lb"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


def bounds_report(g: Graph) -> BoundsReport:
    """Assemble every implemented dem bound for a connected graph."""
    if g.n < 2:
        raise BadParameterError("bounds need a graph with at least one edge")
    require_connected(g, "bounds report")
    n, m = g.n, g.m
    density_lb = ceil(m / (n - 1))
    try:
        clique_lb = ceil(clique_number(g) / 2)
    except TooLargeError:
        clique_lb = None
    try:
        beta = minimum_vertex_cover_size(g)
    except TooLargeError:
        beta = None
    feedback = m - n + 1
    feedback_ub = 2 * feedback if feedback > 0 else None
    dmin, dmax = degree_extremes(g)
    regular_lb = ceil(dmin * n / (2 * n - 2)) if dmin == dmax else None
    # |EM(x)| is the number of edges whose holder mask has x's bit.
    em_per_vertex = dict.fromkeys(range(n), 0)
    for h in _em_holders(g):
        for x in _bits(h):
            em_per_vertex[x] += 1
    return BoundsReport(
        n=n,
        m=m,
        density_lb=density_lb,
        clique_lb=clique_lb,
        vertex_cover_ub=beta,
        feedback_ub=feedback_ub,
        regular_lb=regular_lb,
        em_per_vertex=em_per_vertex,
    )


# ---------------------------------------------------------------------------
# EM cardinality checks.
# ---------------------------------------------------------------------------


def unique_parent_condition(g: Graph, v: int) -> bool:
    """True when no vertex has two neighbors strictly closer to v."""
    return _MANY not in _sweep(g, v)[2]


@dataclass(frozen=True)
class EmCardinalityReport:
    vertex: int
    order: int
    size: int
    is_k2: bool
    unique_parent: bool

    @property
    def size1_iff_k2(self) -> bool:
        return (self.size == 1) == self.is_k2

    @property
    def full_iff_unique_parent(self) -> bool:
        return (self.size == self.order - 1) == self.unique_parent


def em_cardinality_checks(g: Graph, v: int) -> EmCardinalityReport:
    """|EM(v)| together with both cardinality characterizations.

    size == 1 should coincide with the graph being a single edge, and
    size == n-1 with the unique-parent condition; the derived properties
    report whether each biconditional holds on this instance.
    """
    require_connected(g, "EM cardinality checks")
    size = em_set(g, v).size
    return EmCardinalityReport(
        vertex=v,
        order=g.n,
        size=size,
        is_k2=(g.n == 2 and g.m == 1),
        unique_parent=unique_parent_condition(g, v),
    )


def verify_em2_family_member(g: Graph, v: int) -> bool:
    """Confirm |EM(v)| == 2 via both the fast path and the naive oracle.

    This is a family verifier for generated instances, not an isomorphism
    recognizer: any graph/vertex pair with a two-edge EM set passes.
    """
    fast = em_set(g, v)
    naive = em_set_naive(g, v)
    return fast.edges == naive.edges and fast.size == 2
