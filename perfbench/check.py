"""Output checker: every CLI answer is recomputed independently of demkit.

The checker runs after the timed region.  It keeps its own edge-list
parser, BFS, EM rule and 2-core reduction, so a defect shared by the
program and its checker would have to be made twice.  Where
``scipy.optimize.milp`` imports, it is the optimum oracle: a minimum set
cover over the 2-core's EM sets (the minimum is unchanged by pendant trees),
solved exactly for answers that claim to be exact and as an LP relaxation
(a lower bound) for the others.  Without scipy, the optimum is found by
brute force on cores of at most 12 vertices and left unchecked above that.

At the default seed, every answer that has a reference in
``refs/<workload>.json`` (recorded at the commit that introduced the
benchmark) must still be given and match its SHA-256.  Query answers are
pinned byte for byte.  A ``dem`` answer is pinned by its exit code, n, m,
value and exact flag only: the node count and which optimal set is returned
may change with the search, and the set is checked above.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from itertools import combinations
from math import ceil

DEFAULT_SEED = 0
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")



class OwnGraph:
    """The checker's own graph: adjacency sets plus the sorted edge list."""

    def __init__(self, n: int, edges):
        self.n = n
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.edges = sorted({(min(u, v), max(u, v)) for u, v in edges})

    @classmethod
    def load(cls, path: str) -> "OwnGraph":
        with open(path, encoding="utf-8") as fp:
            rows = [ln.split() for ln in fp if ln.strip() and not ln.lstrip().startswith("#")]
        n, m = int(rows[0][0]), int(rows[0][1])
        edges = [(int(a), int(b)) for a, b in rows[1:]]
        if len(edges) != m:
            raise ValueError(f"{path}: header says {m} edges, found {len(edges)}")
        return cls(n, edges)

    def bfs(self, s: int, skip=None) -> list:
        dist = [-1] * self.n
        dist[s] = 0
        q = deque([s])
        a, b = skip if skip is not None else (-1, -1)
        while q:
            u = q.popleft()
            for w in self.adj[u]:
                if dist[w] < 0 and not ((u == a and w == b) or (u == b and w == a)):
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist

    def em(self, x: int) -> set:
        """EM(x) by the unique-parent rule: edge (u, p) with p one level below
        u is monitored by x exactly when p is u's only neighbour on that level."""
        dist = self.bfs(x)
        out = set()
        for u in range(self.n):
            if dist[u] > 0:
                below = [w for w in self.adj[u] if dist[w] == dist[u] - 1]
                if len(below) == 1:
                    out.add((min(u, below[0]), max(u, below[0])))
        return out

    def two_core(self) -> "OwnGraph":
        deg = [len(a) for a in self.adj]
        gone = [False] * self.n
        q = deque(v for v in range(self.n) if deg[v] <= 1)
        while q:
            u = q.popleft()
            if gone[u]:
                continue
            gone[u] = True
            for w in self.adj[u]:
                if not gone[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        q.append(w)
        keep = [v for v in range(self.n) if not gone[v]]
        index = {v: i for i, v in enumerate(keep)}
        core = OwnGraph(len(keep), [(index[u], index[v]) for u, v in self.edges if u in index and v in index])
        return core


def _masks(core: OwnGraph) -> list:
    bit = {e: i for i, e in enumerate(core.edges)}
    return [sum(1 << bit[e] for e in core.em(x)) for x in range(core.n)]


def optimum_bounds(g: OwnGraph, exact: bool) -> tuple:
    """(lower bound, optimum or None) for the minimum monitoring-set size.

    The integer program is solved only for answers that claim to be exact;
    for the others the rounded-up LP relaxation is the lower bound they must
    respect.  Without scipy, cores of at most 12 vertices are brute-forced.
    """
    core = g.two_core()
    if core.n == 0:
        return 1, 1  # a tree: any single vertex monitors every edge
    try:  # imported here, after the timed region, so it adds nothing to peak_rss_mb
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import coo_array
    except ImportError:
        opt = _brute_optimum(core, core.n) if core.n <= 12 else None
        return (opt or 1), opt
    rows, cols = [], []
    bit = {e: i for i, e in enumerate(core.edges)}
    for x in range(core.n):
        for e in core.em(x):
            rows.append(bit[e])
            cols.append(x)
    a = coo_array((np.ones(len(rows)), (rows, cols)), shape=(len(core.edges), core.n))
    res = milp(
        c=np.ones(core.n),
        constraints=LinearConstraint(a.tocsr(), lb=1, ub=np.inf),
        integrality=np.ones(core.n) if exact else np.zeros(core.n),
        bounds=Bounds(0, 1),
        options={"time_limit": 30},
    )
    if res.status != 0:
        return 1, None
    lower = ceil(res.fun - 1e-6)
    return lower, (lower if exact else None)


def _brute_optimum(core: OwnGraph, limit: int):
    masks = _masks(core)
    full = (1 << len(core.edges)) - 1
    for k in range(1, limit + 1):
        for subset in combinations(masks, k):
            acc = 0
            for m in subset:
                acc |= m
            if acc == full:
                return k
    return None


def covers(g: OwnGraph, monitors) -> set:
    """The edges of g that no monitor watches."""
    left = set(g.edges)
    for x in monitors:
        left -= g.em(x)
    return left


# ---------------------------------------------------------------------------
# Per-command checks.  Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------


def check_dem(g: OwnGraph, out: dict, exit_code: int, bounds: tuple, certificate=None) -> list:
    """Check a ``dem`` report against ``bounds`` = (lower bound, optimum or
    None).  ``certificate`` is demkit's own ``is_monitoring_set`` recomputed
    on the reported set (or None)."""
    bad = []
    if (out.get("n"), out.get("m")) != (g.n, len(g.edges)):
        bad.append("n/m differ from the input")
    res = out["results"]["exact"]
    ms = res["monitor_set"]
    if res["value"] != len(ms) or len(set(ms)) != len(ms):
        bad.append("value does not match the monitor set")
    if any(not (isinstance(x, int) and 0 <= x < g.n) for x in ms):
        return bad + ["monitor outside the vertex range"]
    left = covers(g, ms)
    if left:
        bad.append(f"{len(left)} edge(s) not monitored, e.g. {sorted(left)[0]}")
    if certificate is not None and certificate.uncovered:
        bad.append("demkit's certificate lists uncovered edges")
    exhausted = bool(res["stats"].get("budget_exhausted"))
    if res["exact"] == exhausted or (exit_code == 4) != exhausted:
        bad.append("exact flag, budget flag and exit code disagree")
    lower, opt = bounds
    if res["value"] < lower:
        bad.append(f"value {res['value']} below the lower bound {lower}")
    if res["exact"] and opt is not None and res["value"] != opt:
        bad.append(f"exact value {res['value']} but the optimum is {opt}")
    return bad


def check_verify(g: OwnGraph, out: dict, requested) -> list:
    bad = []
    if out["monitors"] != sorted(set(requested)):
        bad.append("monitor list differs from the request")
    base = {x: g.bfs(x) for x in out["monitors"]}
    seen = set()
    for key, (x, y) in out["certificate"]["witnesses"].items():
        u, v = map(int, key.split())
        seen.add((u, v))
        if x not in base or g.bfs(x, skip=(u, v))[y] == base[x][y]:
            bad.append(f"witness ({x}, {y}) does not see edge {u}-{v} fail")
    uncovered = {tuple(e) for e in out["certificate"]["uncovered"]}
    if uncovered != covers(g, out["monitors"]):
        bad.append("uncovered edges differ from the EM union")
    if seen | uncovered != set(g.edges) or seen & uncovered:
        bad.append("witnessed and uncovered edges do not partition the edge set")
    if out["is_monitoring"] != (not uncovered):
        bad.append("is_monitoring disagrees with the uncovered list")
    return bad


def check_em(g: OwnGraph, out: dict, x: int) -> list:
    edges = {tuple(e) for e in out["edges"]}
    if out["monitor"] != x or edges != g.em(x) or out["size"] != len(edges):
        return [f"EM({x}) differs from the recomputed set"]
    return []


def check_pset(g: OwnGraph, out: dict, edge) -> list:
    want = set()
    for x in range(g.n):
        before, after = g.bfs(x), g.bfs(x, skip=edge)
        want |= {(x, y) for y in range(g.n) if before[y] != after[y]}
    pairs = {tuple(p) for p in out["pairs"]}
    if pairs != want or out["size"] != len(want):
        return [f"P(V, {edge}) differs from the recomputed pairs"]
    return []


def check_bounds(g: OwnGraph, out: dict, bounds: tuple) -> list:
    bad = []
    n, m = g.n, len(g.edges)
    if out["density_lb"] != ceil(m / (n - 1)):
        bad.append("density bound is not ceil(m / (n - 1))")
    sizes = {str(x): len(g.em(x)) for x in range(n)}
    if out["em_per_vertex"] != sizes:
        bad.append("em_per_vertex differs from the recomputed EM sizes")
    _, opt = bounds
    if opt is not None:
        lower = max(out.get(k) or 0 for k in ("density_lb", "clique_lb", "regular_lb"))
        if lower > opt:
            bad.append(f"lower bound {lower} exceeds the optimum {opt}")
        if out.get("vertex_cover_ub") is not None and out["vertex_cover_ub"] < opt:
            bad.append(f"vertex-cover bound is below the optimum {opt}")
    return bad


def check_char(g: OwnGraph, out: dict, target: int) -> list:
    core = g.two_core()
    found = _brute_optimum(core, target) is not None
    bad = []
    if out["found"] != found:
        bad.append(f"found={out['found']} but dem <= {target} is {found}")
    if out["found"]:
        rep = out["report"]
        if len(rep["tuple"]) != target or covers(g, rep["tuple"]):
            bad.append("reported tuple does not monitor the graph")
        all_pass = all(c["pass"] for c in rep["conditions"])
        if not rep["direct_check"] or rep["discrepancy"] != (all_pass != rep["direct_check"]):
            bad.append("direct_check or discrepancy flag is wrong")
        if target == 2 and not all_pass:
            bad.append("reported pair fails a two-monitor condition")
    return bad


# ---------------------------------------------------------------------------
# Byte-for-byte references at the default seed.
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned(call, exit_code, stdout: str) -> str:
    """The part of an answer that its reference pins (see the module doc)."""
    if call.kind != "dem":
        return stdout
    out = json.loads(stdout)
    res = out["results"]["exact"]
    keep = {"exit": exit_code, "n": out["n"], "m": out["m"], "value": res["value"], "exact": res["exact"]}
    return json.dumps(keep, sort_keys=True)


def ref_path(workload: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}.json")


def load_refs(workload: str) -> dict:
    with open(ref_path(workload), encoding="utf-8") as fp:
        return json.load(fp)["answer_sha256"]


def referable(call, exit_code, stdout: str) -> bool:
    """Whether an answer is pinned by a reference: every successful answer
    except a dem result that is not proven exact."""
    if exit_code != 0 or call.kind == "malformed":
        return False
    if call.kind == "dem":
        return json.loads(stdout)["results"]["exact"]["exact"]
    return True


def write_refs(workload: str, seed: int, answers: dict) -> None:
    """Record the reference digests; ``answers`` maps call id to its digest."""
    os.makedirs(REFS_DIR, exist_ok=True)
    with open(ref_path(workload), "w", encoding="utf-8") as fp:
        json.dump({"seed": seed, "answer_sha256": answers}, fp, indent=1, sort_keys=True)
        fp.write("\n")


# ---------------------------------------------------------------------------
# The whole run.
# ---------------------------------------------------------------------------


def _flag(call, name: str) -> str:
    return call.argv[call.argv.index(name) + 1]


def _check_one(demkit, call, outcome, graph, oracle) -> list:
    if call.kind == "malformed":
        return [] if outcome.stdout == "" else ["an invalid invocation printed a report"]
    out = json.loads(outcome.stdout)
    g = graph(call.path)
    if call.kind == "dem":
        ms = out["results"]["exact"]["monitor_set"]
        cert = None
        if all(isinstance(x, int) and 0 <= x < g.n for x in ms):
            cert = demkit.is_monitoring_set(demkit.io.load_edgelist(call.path).graph, ms)
        return check_dem(g, out, outcome.code, oracle(call.path, out["results"]["exact"]["exact"]), cert)
    if call.kind == "verify":
        text = _flag(call, "--monitors")
        requested = range(g.n) if text == "all" else [int(t) for t in text.split(",")]
        return check_verify(g, out, requested)
    if call.kind == "em":
        return check_em(g, out, int(_flag(call, "--vertex")))
    if call.kind == "pset":
        u, v = map(int, _flag(call, "--edge").split(","))
        return check_pset(g, out, (u, v))
    if call.kind == "bounds":
        return check_bounds(g, out, oracle(call.path, True))
    if call.kind in ("char2", "char3"):
        return check_char(g, out, int(_flag(call, "--target")))
    raise ValueError(f"no check for call kind {call.kind!r}")


def check_answers(demkit, calls, outcomes, refs) -> list:
    """Problems with the answers of one pass; empty when all are correct.

    A call that raised or exited with an unexpected code is a failed call,
    counted by the caller, and has no answer to check.
    """
    graphs: dict = {}
    optima: dict = {}

    def graph(path):
        if path not in graphs:
            graphs[path] = OwnGraph.load(path)
        return graphs[path]

    def oracle(path, exact):
        if (path, exact) not in optima:
            optima[path, exact] = optimum_bounds(graph(path), exact)
        return optima[path, exact]

    problems = []
    for call, o in zip(calls, outcomes):
        ref = refs.get(call.id) if refs is not None else None
        if o.failed(call):
            if ref is not None:
                problems.append(f"{call.id}: the reference answer is no longer given")
            continue
        try:
            bad = _check_one(demkit, call, o, graph, oracle)
            if ref is not None and not referable(call, o.code, o.stdout):
                bad.append("the reference answer is no longer given")
            elif ref is not None and digest(pinned(call, o.code, o.stdout)) != ref:
                bad.append("answer differs from the reference")
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            bad = [f"unreadable report ({type(exc).__name__}: {exc})"]
        problems += [f"{call.id}: {b}" for b in bad]
    return problems
