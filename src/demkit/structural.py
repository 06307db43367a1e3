"""Structural characterizations and numeric bounds for monitoring numbers.

The two- and three-monitor characterizations work on the distance-cell
partition: each vertex is binned by its distance vector to the candidate
monitors, and a list of named local rules forbids the patterns that would
leave some edge unwatched.  Every rule is independently toggleable and each
report also carries the direct ground-truth check, because parts of the
three-monitor condition list are suspected to contain transcription errors;
disagreement is reported as data, never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil
from typing import Optional

from .errors import (
    BadParameterError,
    IsTreeError,
    OutOfRangeError,
    TooLargeError,
)
from .graph import (
    Graph,
    _bfs,
    base_graph,
    degree_extremes,
    is_tree,
    require_connected,
)
from .monitor import em_set, em_set_naive, is_monitoring_set


@dataclass(frozen=True)
class LayerProfile:
    """Distance-cell partition for 2 or 3 sources.

    cell_of[v] is v's distance vector; cells maps each occupied vector to
    its vertex set.  Adjacent vertices differ by at most 1 per coordinate.
    """

    sources: tuple
    cell_of: tuple
    cells: dict

    def cell(self, key: tuple) -> frozenset:
        return self.cells.get(key, frozenset())


def layer_profile(g: Graph, sources) -> LayerProfile:
    """Bin every vertex by its distance vector to the given 2 or 3 sources."""
    srcs = tuple(sources)
    if len(srcs) not in (2, 3):
        raise BadParameterError("layer profile needs exactly 2 or 3 sources")
    if len(set(srcs)) != len(srcs):
        raise BadParameterError("layer profile sources must be distinct")
    for s in srcs:
        if not (0 <= s < g.n):
            raise OutOfRangeError(f"vertex {s} outside 0..{g.n - 1}")
    require_connected(g, "layer profile")
    dists = [_bfs(g, s) for s in srcs]
    cell_of = tuple(tuple(d[v] for d in dists) for v in range(g.n))
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

    def to_json(self) -> dict:
        conds = []
        for c in self.conditions:
            item = {"name": c.name, "pass": c.passed}
            if c.witness is not None:
                item["witness"] = _jsonable(c.witness)
            conds.append(item)
        return {
            "tuple": list(self.vertices),
            "conditions": conds,
            "direct_check": self.direct_check,
            "discrepancy": self.discrepancy,
        }


def _jsonable(obj):
    if isinstance(obj, (tuple, list, set, frozenset)):
        return [_jsonable(x) for x in obj]
    return obj


def _shift(coord: tuple, offset: tuple) -> tuple:
    return tuple(c + o for c, o in zip(coord, offset))


# ---------------------------------------------------------------------------
# Two-monitor rules.  Coordinates are (distance to u, distance to v).
#
# An edge is watched by a monitor exactly when its endpoint farther from
# that monitor has the other endpoint as its *only* neighbor on the level
# in between.  The four rules below forbid precisely the local patterns in
# which some edge loses that property for both monitors at once; together
# they are equivalent to {u, v} monitoring every edge.
# ---------------------------------------------------------------------------


def _pairs_rule_independent(g: Graph, prof: LayerProfile) -> ConditionResult:
    """No edge may join two vertices with the same distance vector."""
    for x, y in g.edges():
        if prof.cell_of[x] == prof.cell_of[y]:
            return ConditionResult("independent_cells", False, (x, y))
    return ConditionResult("independent_cells", True)


def _pairs_rule_unique_parent(g: Graph, prof: LayerProfile) -> ConditionResult:
    """Neighbor-uniqueness around each vertex.

    Two neighbors one step closer to both monitors are always fatal; a
    neighbor one step closer to a single monitor (level with the other)
    must be the unique neighbor on that monitor's closer level.
    """
    for x in range(g.n):
        i, j = prof.cell_of[x]
        up_u = [w for w in g.neighbors(x) if prof.cell_of[w][0] == i - 1]
        up_v = [w for w in g.neighbors(x) if prof.cell_of[w][1] == j - 1]
        diag = [w for w in up_u if prof.cell_of[w][1] == j - 1]
        if len(diag) > 1:
            return ConditionResult("unique_parent_constraints", False, (x, diag[0], diag[1]))
        if len(up_u) > 1 and any(prof.cell_of[w] == (i - 1, j) for w in up_u):
            return ConditionResult("unique_parent_constraints", False, (x, up_u[0], up_u[1]))
        if len(up_v) > 1 and any(prof.cell_of[w] == (i, j - 1) for w in up_v):
            return ConditionResult("unique_parent_constraints", False, (x, up_v[0], up_v[1]))
    return ConditionResult("unique_parent_constraints", True)


def _pairs_rule_detour_path(g: Graph, prof: LayerProfile) -> ConditionResult:
    """No 4-vertex path that hands both endpoints of a skew edge a detour.

    A skew edge descends toward one monitor while ascending toward the
    other, so it needs a unique parent on one of the two sides; the path
    z-x-y-z' exhibits a second parent on each side at once.  Checked in
    both monitor orientations.
    """
    for x in range(g.n):
        i, j = prof.cell_of[x]
        for y in g.neighbors(x):
            ci, cj = prof.cell_of[y]
            if (ci, cj) == (i - 1, j + 1):
                z_cells = {(i - 1, j - 1), (i - 1, j + 1)}
                zp_cells = {(i - 2, j), (i, j)}
            elif (ci, cj) == (i + 1, j - 1):
                z_cells = {(i - 1, j - 1), (i + 1, j - 1)}
                zp_cells = {(i, j - 2), (i, j)}
            else:
                continue
            zs = [z for z in g.neighbors(x) if z != y and prof.cell_of[z] in z_cells]
            if not zs:
                continue
            for zp in g.neighbors(y):
                if zp == x or prof.cell_of[zp] not in zp_cells:
                    continue
                for z in zs:
                    if zp != z:
                        return ConditionResult("forbidden_detour_path", False, (z, x, y, zp))
    return ConditionResult("forbidden_detour_path", True)


def _pairs_rule_three_cells(g: Graph, prof: LayerProfile) -> ConditionResult:
    """Neighbors in all three marked cells around one vertex are forbidden."""
    for x in range(g.n):
        i, j = prof.cell_of[x]
        fams = (
            prof.cell((i - 1, j - 1)),
            prof.cell((i - 1, j + 1)),
            prof.cell((i + 1, j - 1)),
        )
        hits = []
        for fam in fams:
            hit = next((w for w in g.neighbors(x) if w in fam), None)
            if hit is None:
                break
            hits.append(hit)
        if len(hits) == 3:
            return ConditionResult("three_cell_limit", False, (x,) + tuple(hits))
    return ConditionResult("three_cell_limit", True)


_PAIR_RULES = (
    _pairs_rule_independent,
    _pairs_rule_unique_parent,
    _pairs_rule_detour_path,
    _pairs_rule_three_cells,
)


def dem2_pair_check(g_b: Graph, u: int, v: int) -> ConditionReport:
    """Evaluate the two-monitor cell conditions for (u, v) on a base graph.

    direct_check carries the ground truth (does {u, v} actually monitor
    every edge); the conditions are expected to agree and the test suite
    treats any disagreement as a bug.
    """
    if u == v:
        raise BadParameterError("pair check needs two distinct vertices")
    prof = layer_profile(g_b, (u, v))
    conditions = tuple(rule(g_b, prof) for rule in _PAIR_RULES)
    direct = is_monitoring_set(g_b, [u, v]).is_monitoring
    return ConditionReport(vertices=(u, v), conditions=conditions, direct_check=direct)


def dem2_first_pass(g_b: Graph) -> Optional[ConditionReport]:
    """Report of the first pair of a base graph, in combinations order, that
    passes all two-monitor conditions, or None."""
    for u, v in combinations(range(g_b.n), 2):
        report = dem2_pair_check(g_b, u, v)
        if report.all_pass:
            return report
    return None


def dem_is_2(g: Graph) -> Optional[tuple]:
    """Search the base graph for a pair passing all two-monitor conditions.

    Returns the pair lifted back to g's vertex ids, or None.  Raises
    IsTreeError for trees (single-monitor regime).
    """
    require_connected(g, "dem_is_2")
    if is_tree(g):
        raise IsTreeError("graph is a tree; the single-monitor characterization applies")
    base = base_graph(g)
    report = dem2_first_pass(base.graph)
    if report is None:
        return None
    u, v = report.vertices
    return (base.new_to_old[u], base.new_to_old[v])


# ---------------------------------------------------------------------------
# Three-monitor rules.  Coordinates are distance vectors to (u, v, w).
# The offsets below transcribe the source condition list verbatim, including
# its duplicated entries (collapsed by set construction) and asymmetries;
# empirical agreement with direct_check is reported, not assumed.  The
# independent-cells rule holds for any number of monitors, so the pair
# rule serves both lists.
# ---------------------------------------------------------------------------


_BOX_DOWN = tuple(
    (di, dj, dk) for di in (-1, 0) for dj in (-1, 0) for dk in (-1, 0) if (di, dj, dk) != (0, 0, 0)
)


def _t3_rule_unique_parent(g: Graph, prof: LayerProfile) -> ConditionResult:
    """At most one neighbor per non-increasing cell around each vertex."""
    for x in range(g.n):
        c = prof.cell_of[x]
        for off in _BOX_DOWN:
            cell = prof.cell(_shift(c, off))
            hits = [w for w in g.neighbors(x) if w in cell]
            if len(hits) > 1:
                return ConditionResult("unique_parent_per_cell", False, (x, hits[0], hits[1]))
    return ConditionResult("unique_parent_per_cell", True)


# (trigger offset, excluded offsets) tables for the pairwise-neighbor rules.
_PAIR_EXCLUSIONS = {
    "pair_exclusion_a": (
        (0, -1, 0),
        tuple((di, -1, dk) for di in (-1, 0, 1) for dk in (-1, 0, 1)),
    ),
    "pair_exclusion_b": (
        (-1, -1, -1),
        tuple((di, dj, dk) for di in (-1, 0) for dj in (-1, 0) for dk in (-1, 0)),
    ),
    "pair_exclusion_c": (
        (-1, 1, -1),
        ((-1, 0, -1), (-1, 0, 0), (0, 0, -1)),
    ),
    "pair_exclusion_d": (
        (0, -1, -1),
        ((-1, -1, -1), (0, -1, -1), (0, 0, -1), (0, -1, 0), (1, -1, -1)),
    ),
    "pair_exclusion_e": (
        (0, -1, 1),
        ((0, -1, 0),),
    ),
}


def _make_pair_exclusion_rule(name: str):
    trigger_off, excluded_offs = _PAIR_EXCLUSIONS[name]

    def rule(g: Graph, prof: LayerProfile) -> ConditionResult:
        for x in range(g.n):
            c = prof.cell_of[x]
            trigger = prof.cell(_shift(c, trigger_off))
            ys = [w for w in g.neighbors(x) if w in trigger]
            if not ys:
                continue
            excluded = set()
            for off in excluded_offs:
                excluded |= prof.cell(_shift(c, off))
            for y in ys:
                for yp in g.neighbors(x):
                    if yp != y and yp in excluded:
                        return ConditionResult(name, False, (x, y, yp))
        return ConditionResult(name, True)

    rule.__name__ = f"_t3_{name}"
    return rule


def _t3_rule_path_a(g: Graph, prof: LayerProfile) -> ConditionResult:
    """Forbidden 4-path, variant with the far vertex one step up on two axes."""
    for x in range(g.n):
        i, j, k = prof.cell_of[x]
        for y in g.neighbors(x):
            if prof.cell_of[y] != (i - 1, j + 1, k + 1):
                continue
            z1s = [
                z
                for z in g.neighbors(x)
                if z != y
                and prof.cell_of[z][0] == i - 1
                and prof.cell_of[z][1] in (j - 1, j + 1)
                and prof.cell_of[z][2] in (k - 1, k + 1)
            ]
            if not z1s:
                continue
            for z2 in g.neighbors(y):
                if z2 == x:
                    continue
                ci, cj, ck = prof.cell_of[z2]
                if cj == j and ck == k and ci in (i - 2, i):
                    for z1 in z1s:
                        if z2 != z1:
                            return ConditionResult("forbidden_path_a", False, (z1, x, y, z2))
    return ConditionResult("forbidden_path_a", True)


def _t3_rule_path_b(g: Graph, prof: LayerProfile) -> ConditionResult:
    """Forbidden 4-path, variant pinning the third coordinate."""
    for x in range(g.n):
        i, j, k = prof.cell_of[x]
        for y in g.neighbors(x):
            if prof.cell_of[y] != (i - 1, j + 1, k + 1):
                continue
            z1s = [
                z
                for z in g.neighbors(x)
                if z != y
                and prof.cell_of[z][0] == i - 1
                and prof.cell_of[z][1] in (j - 1, j + 1)
                and prof.cell_of[z][2] == k - 1
            ]
            if not z1s:
                continue
            for z2 in g.neighbors(y):
                if z2 == x:
                    continue
                ci, cj, ck = prof.cell_of[z2]
                if cj == j and ck in (k - 2, k) and ci in (i - 2, i):
                    for z1 in z1s:
                        if z2 != z1:
                            return ConditionResult("forbidden_path_b", False, (z1, x, y, z2))
    return ConditionResult("forbidden_path_b", True)


_PATH_C_Z2 = (
    (-1, -1, -1), (-1, -1, 0), (-1, -1, 1),
    (0, -1, -1), (0, -1, 1),
    (1, -1, -1), (1, -1, 0), (1, -1, 1),
)
_PATH_C_Z3 = (
    (-1, -2, 0), (-1, -1, 0), (-1, 0, 0),
    (0, -2, 0), (0, 0, 0),
    (1, -2, 0), (1, -1, 0), (1, 0, 0),
)


def _t3_rule_path_c(g: Graph, prof: LayerProfile) -> ConditionResult:
    """Forbidden 4-path, variant around a sideways-and-up neighbor."""
    for x in range(g.n):
        c = prof.cell_of[x]
        i, j, k = c
        for y in g.neighbors(x):
            if prof.cell_of[y] != (i, j - 1, k + 1):
                continue
            z2cells = {_shift(c, off) for off in _PATH_C_Z2}
            z3cells = {_shift(c, off) for off in _PATH_C_Z3}
            z2s = [z for z in g.neighbors(x) if z != y and prof.cell_of[z] in z2cells]
            if not z2s:
                continue
            for z3 in g.neighbors(y):
                if z3 == x or prof.cell_of[z3] not in z3cells:
                    continue
                for z2 in z2s:
                    if z3 != z2:
                        return ConditionResult("forbidden_path_c", False, (z2, x, y, z3))
    return ConditionResult("forbidden_path_c", True)


def _t3_rule_three_families(g: Graph, prof: LayerProfile) -> ConditionResult:
    """Neighbors in all three of the marked down/up families are forbidden."""
    for x in range(g.n):
        c = prof.cell_of[x]
        fam_a = prof.cell(_shift(c, (-1, -1, -1)))
        fam_b = prof.cell(_shift(c, (1, -1, -1)))
        fam_c = frozenset().union(
            *(prof.cell(_shift(c, (-1, 1, dk))) for dk in (-1, 0, 1))
        )
        ha = next((w for w in g.neighbors(x) if w in fam_a), None)
        if ha is None:
            continue
        hb = next((w for w in g.neighbors(x) if w in fam_b), None)
        if hb is None:
            continue
        hc = next((w for w in g.neighbors(x) if w in fam_c), None)
        if hc is not None:
            return ConditionResult("three_family_limit", False, (x, ha, hb, hc))
    return ConditionResult("three_family_limit", True)


_STAR4_Z1 = ((-1, -1, 1), (-1, 0, 1), (-1, 1, -1), (-1, 1, 0), (-1, 1, 1))
_STAR4_Z2 = ((-1, -1, 1), (0, -1, 1), (1, -1, -1), (1, -1, 0), (1, -1, 1))
_STAR4_Z3 = ((-1, 1, -1), (0, 1, -1), (1, -1, -1), (1, 0, -1), (1, 1, -1))


def _t3_rule_star4(g: Graph, prof: LayerProfile) -> ConditionResult:
    """Forbidden 4-star centred on a vertex with a triple-down neighbor."""
    for x in range(g.n):
        c = prof.cell_of[x]
        down = prof.cell(_shift(c, (-1, -1, -1)))
        nbrs = g.neighbors(x)
        ys = [w for w in nbrs if w in down]
        if not ys:
            continue
        c1 = {_shift(c, o) for o in _STAR4_Z1}
        c2 = {_shift(c, o) for o in _STAR4_Z2}
        c3 = {_shift(c, o) for o in _STAR4_Z3}
        for y in ys:
            z1s = [w for w in nbrs if w != y and prof.cell_of[w] in c1]
            z2s = [w for w in nbrs if w != y and prof.cell_of[w] in c2]
            z3s = [w for w in nbrs if w != y and prof.cell_of[w] in c3]
            for z1 in z1s:
                for z2 in z2s:
                    if z2 == z1:
                        continue
                    for z3 in z3s:
                        if z3 not in (z1, z2):
                            return ConditionResult("forbidden_star4", False, (x, y, z1, z2, z3))
    return ConditionResult("forbidden_star4", True)


_P4P_A_Y = (-1, 1, -1)
_P4P_A_Z1 = (
    (-1, -1, -1), (-1, -1, 0), (-1, -1, 1), (-1, 0, 1),
    (-1, 1, -1), (-1, 1, 0), (-1, 1, 1),
)
_P4P_A_Z2 = (
    (-2, 0, -2), (-2, 0, -1), (-2, 0, 0), (-1, 0, -2),
    (-1, 0, 0), (0, 0, -2), (0, 0, -1), (0, 0, 0),
)
_P4P_A_Z3 = (
    (-1, -1, -1), (-1, 1, -1), (0, -1, -1), (0, 1, -1),
    (1, -1, -1), (1, 0, -1), (1, 1, -1),
)

_P4P_B_Y = (1, -1, -1)
_P4P_B_Z1 = (
    (0, -2, -2), (0, -2, -1), (0, -2, 0), (0, -1, -2),
    (0, -1, 0), (0, 0, -2), (0, 0, -1),
)
_P4P_B_Z2 = (
    (-1, -1, -1), (-1, -1, 0), (-1, -1, 1), (0, -1, -1),
    (0, -1, 0), (1, -1, 1), (1, -1, -1), (1, -1, 0),
)
_P4P_B_Z3 = (
    (-1, -1, -1), (-1, 0, -1), (-2, 1, -1), (0, -1, -1),
    (0, 0, -1), (0, 1, -1), (1, -1, -1), (1, 0, -1), (1, 1, -1),
)


def _make_p4plus_rule(name: str, y_off, x_leaf_offs, y_leaf_offs):
    def rule(g: Graph, prof: LayerProfile) -> ConditionResult:
        for x in range(g.n):
            c = prof.cell_of[x]
            ycell = prof.cell(_shift(c, y_off))
            nbrs = g.neighbors(x)
            ys = [w for w in nbrs if w in ycell]
            if not ys:
                continue
            xcells = [{_shift(c, o) for o in offs} for offs in x_leaf_offs]
            ycells = {_shift(c, o) for o in y_leaf_offs}
            for y in ys:
                la = [w for w in nbrs if w != y and prof.cell_of[w] in xcells[0]]
                lb = [w for w in nbrs if w != y and prof.cell_of[w] in xcells[1]]
                if not la or not lb:
                    continue
                for z_pend in g.neighbors(y):
                    if z_pend == x or prof.cell_of[z_pend] not in ycells:
                        continue
                    for a in la:
                        if a == z_pend:
                            continue
                        for b in lb:
                            if b not in (a, z_pend):
                                return ConditionResult(name, False, (x, y, a, b, z_pend))
        return ConditionResult(name, True)

    rule.__name__ = f"_t3_{name}"
    return rule


_STAR3_Y = (0, -1, -1)
_STAR3_A = ((-1, -1, 0), (-1, -1, 1), (0, -1, 1), (1, -1, 0), (1, -1, 1))
_STAR3_B = ((-1, 0, -1), (-1, 1, -1), (0, 1, -1), (1, 0, -1), (1, 1, -1))


def _t3_rule_star3(g: Graph, prof: LayerProfile) -> ConditionResult:
    """Forbidden 3-star around a double-down neighbor."""
    for x in range(g.n):
        c = prof.cell_of[x]
        ycell = prof.cell(_shift(c, _STAR3_Y))
        nbrs = g.neighbors(x)
        ys = [w for w in nbrs if w in ycell]
        if not ys:
            continue
        ca = {_shift(c, o) for o in _STAR3_A}
        cb = {_shift(c, o) for o in _STAR3_B}
        for y in ys:
            las = [w for w in nbrs if w != y and prof.cell_of[w] in ca]
            lbs = [w for w in nbrs if w != y and prof.cell_of[w] in cb]
            for a in las:
                for b in lbs:
                    if b != a:
                        return ConditionResult("forbidden_star3", False, (x, y, a, b))
    return ConditionResult("forbidden_star3", True)


_TRIPLE_RULES = (
    ("independent_cells", _pairs_rule_independent),
    ("unique_parent_per_cell", _t3_rule_unique_parent),
    ("pair_exclusion_a", _make_pair_exclusion_rule("pair_exclusion_a")),
    ("pair_exclusion_b", _make_pair_exclusion_rule("pair_exclusion_b")),
    ("pair_exclusion_c", _make_pair_exclusion_rule("pair_exclusion_c")),
    ("pair_exclusion_d", _make_pair_exclusion_rule("pair_exclusion_d")),
    ("pair_exclusion_e", _make_pair_exclusion_rule("pair_exclusion_e")),
    ("forbidden_path_a", _t3_rule_path_a),
    ("forbidden_path_b", _t3_rule_path_b),
    ("forbidden_path_c", _t3_rule_path_c),
    ("three_family_limit", _t3_rule_three_families),
    ("forbidden_star4", _t3_rule_star4),
    (
        "forbidden_p4plus_a",
        _make_p4plus_rule("forbidden_p4plus_a", _P4P_A_Y, (_P4P_A_Z1, _P4P_A_Z3), _P4P_A_Z2),
    ),
    (
        "forbidden_p4plus_b",
        _make_p4plus_rule("forbidden_p4plus_b", _P4P_B_Y, (_P4P_B_Z2, _P4P_B_Z3), _P4P_B_Z1),
    ),
    ("forbidden_star3", _t3_rule_star3),
)

DEM3_RULE_NAMES = tuple(name for name, _ in _TRIPLE_RULES)


def dem3_triple_check(g_b: Graph, u: int, v: int, w: int, rules=None) -> ConditionReport:
    """Evaluate the three-monitor cell rules for (u, v, w) on a base graph.

    The named rules transcribe a condition list with suspected typos, so the
    report always carries the ground-truth direct check and a discrepancy
    flag instead of asserting agreement.  `rules` selects a subset by name.
    """
    if len({u, v, w}) != 3:
        raise BadParameterError("triple check needs three distinct vertices")
    enabled = set(DEM3_RULE_NAMES if rules is None else rules)
    unknown = enabled - set(DEM3_RULE_NAMES)
    if unknown:
        raise BadParameterError(f"unknown rule names: {sorted(unknown)}")
    prof = layer_profile(g_b, (u, v, w))
    conditions = tuple(rule(g_b, prof) for name, rule in _TRIPLE_RULES if name in enabled)
    direct = is_monitoring_set(g_b, [u, v, w]).is_monitoring
    return ConditionReport(vertices=(u, v, w), conditions=conditions, direct_check=direct)


# ---------------------------------------------------------------------------
# Numeric bounds.
# ---------------------------------------------------------------------------

CLIQUE_GUARD = 64
VERTEX_COVER_GUARD = 40


def clique_number(g: Graph) -> int:
    """Size of a largest clique, by pivoting Bron-Kerbosch (guarded to n<=64)."""
    if g.n > CLIQUE_GUARD:
        raise TooLargeError(f"clique enumeration guarded to n <= {CLIQUE_GUARD}")
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


def minimum_vertex_cover_size(g: Graph) -> int:
    """Exact vertex cover number via degree branching (guarded to n<=40)."""
    if g.n > VERTEX_COVER_GUARD:
        raise TooLargeError(f"vertex cover solver guarded to n <= {VERTEX_COVER_GUARD}")
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


def independence_number(g: Graph) -> int:
    return g.n - minimum_vertex_cover_size(g)


@dataclass(frozen=True)
class BoundsReport:
    """The bound chain around dem; fields are None when a guard tripped
    or the bound does not apply (feedback bound on trees)."""

    n: int
    m: int
    density_lb: int
    clique_lb: Optional[int]
    vertex_cover_ub: Optional[int]
    gallai_ub: Optional[int]
    feedback_ub: Optional[int]
    regular_lb: Optional[int]
    em_per_vertex: dict

    def lower(self) -> int:
        return max(self.density_lb, self.clique_lb or 0, self.regular_lb or 0)

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "m": self.m,
            "density_lb": self.density_lb,
            "em_per_vertex": {str(v): s for v, s in sorted(self.em_per_vertex.items())},
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
    # n minus the independence number; numerically equal to the cover number
    # by complementarity, kept as its own field for the report consumers.
    gallai_ub = beta
    feedback = m - n + 1
    feedback_ub = 2 * feedback if feedback > 0 else None
    dmin, dmax = degree_extremes(g)
    regular_lb = ceil(dmin * n / (2 * n - 2)) if dmin == dmax else None
    em_per_vertex = {x: em_set(g, x).size for x in range(n)}
    return BoundsReport(
        n=n,
        m=m,
        density_lb=density_lb,
        clique_lb=clique_lb,
        vertex_cover_ub=beta,
        gallai_ub=gallai_ub,
        feedback_ub=feedback_ub,
        regular_lb=regular_lb,
        em_per_vertex=em_per_vertex,
    )


# ---------------------------------------------------------------------------
# EM cardinality checks.
# ---------------------------------------------------------------------------


def unique_parent_condition(g: Graph, v: int) -> bool:
    """True when no vertex has two neighbors strictly closer to v."""
    dist = _bfs(g, v)
    for w in range(g.n):
        dw = dist[w]
        if dw <= 0:
            continue
        closer = sum(1 for z in g.neighbors(w) if dist[z] == dw - 1)
        if closer >= 2:
            return False
    return True


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
