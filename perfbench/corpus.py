"""Seeded corpora for the three workloads.

Each builder turns a seed into a list of ``Call`` objects (the argv handed to
``demkit.cli.main`` plus the exit codes a correct demkit returns for it) and
the text of the edge-list files they name, so demkit sees only files (or, for
the malformed-invocation calls, a bad ``--gen`` spec or flag).  The builders
use demkit's own generators and edge-list formatter: that work is part of the
set-up time that ``setup_s`` measures.  ``write_files`` then writes the files
outside that time, because file-creation latency is the file system's and
swings by several times from one second to the next on a shared host.  Only
the capped search calls may exit 4 (budget exhausted); every other ``dem``
call must finish exact.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("search", "large_core", "queries")

OK = frozenset({0})
OK_OR_BUDGET = frozenset({0, 4})
PARSE_ERROR = frozenset({2})
DISCONNECTED = frozenset({3})


@dataclass
class Call:
    """One CLI invocation of the corpus."""

    id: str
    argv: list
    expect: frozenset
    kind: str  # dem, verify, em, pset, bounds, char2, char3, malformed
    path: Optional[str] = None


class _Writer:
    """Formats the files of one directory; ``files`` maps path to text."""

    def __init__(self, demkit, directory: str):
        self.io = demkit.io
        self.gen = demkit.generators
        self.dir = directory
        self.files: dict = {}

    def add(self, name: str, g, comment: str) -> str:
        return self.add_text(name, self.io.format_edgelist(g, header_comments=[comment]))

    def add_text(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name + ".el")
        self.files[path] = text
        return path


def write_files(files: dict) -> None:
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# search: many small random cores, where branch and bound dominates.
# ---------------------------------------------------------------------------

# One core size and a high density: the node count of a random core is
# heavy-tailed, far less so on dense graphs (standard deviation of its
# logarithm 0.39 here, 1.15 at n = 26, p = 0.2), so 160 cores keep the
# per-seed total and the latency tail steady while search stays over 90%
# of dem time.
SEARCH_N, SEARCH_P = 17, 0.7
SEARCH_RANDOM = 160
SEARCH_CLIQUES = (12, 13, 14, 15, 16)
SEARCH_CAPPED = ((50, 0.12), (60, 0.10), (70, 0.08), (80, 0.08))
CAP_BUDGET = 200_000


def search(demkit, directory: str, seed: int, tiny: bool = False) -> tuple:
    rng = _rng("search", seed)
    w = _Writer(demkit, directory)
    calls = []
    n_random = 6 if tiny else SEARCH_RANDOM
    for i in range(n_random):
        n = 12 if tiny else SEARCH_N
        p = SEARCH_P
        gseed = rng.randrange(2**31)
        g = w.gen.random_connected(n, p, gseed)
        path = w.add(f"rand{i:03d}", g, f"random:{n},{p} seed={gseed}")
        calls.append(Call(f"rand{i:03d}", ["dem", path], OK, "dem", path))
    for k in SEARCH_CLIQUES[:1] if tiny else SEARCH_CLIQUES:
        path = w.add(f"K{k}", w.gen.complete(k).graph, f"complete:{k}")
        calls.append(Call(f"K{k}", ["dem", path], OK, "dem", path))
    capped = SEARCH_CAPPED[:1] if tiny else SEARCH_CAPPED
    budget = 2_000 if tiny else CAP_BUDGET
    for n, p in capped:
        gseed = rng.randrange(2**31)
        g = w.gen.random_connected(n, p, gseed)
        path = w.add(f"capped{n}", g, f"random:{n},{p} seed={gseed}")
        calls.append(Call(f"capped{n}", ["dem", path, "--budget", str(budget)], OK_OR_BUDGET, "dem", path))
    return calls, w.files


# ---------------------------------------------------------------------------
# large_core: big sparse cores, where BFS, EM masks and the certificate
# dominate and the search costs about one node per core vertex.
# ---------------------------------------------------------------------------

# Grid sizes are spread out so that the slow tail, where the latency
# percentiles sit, has no large gap between two instances.
GRIDS = (15, 20, 25, 30, 35)
# Evenly spaced tree sizes, so that latency percentiles do not sit in a gap
# between two size classes.
TREE_SIZES = tuple(300 + round(500 * i / 23) for i in range(24))


def tree_specs(seed: int, tiny: bool = False) -> list:
    """(n, tree seed) of every tree of the large_core corpus."""
    rng = _rng("large_core", seed)
    return [(n, rng.randrange(2**31)) for n in ((60,) if tiny else TREE_SIZES)]


_CHORDS: dict = {}


def chords(demkit, n: int, tree_seed: int, core_frac=(0.06, 0.08)) -> list:
    """Chords for ``random_tree(n, tree_seed)`` whose 2-core spans 6-8% of n.

    The 2-core of a tree plus chords is the subtree spanning the chord
    endpoints.  Chords are added one at a time; a chord that would push that
    subtree past the upper fraction is redrawn.  The result is memoised:
    ``prepare`` computes it before the timed set-up, so that ``setup_s``
    holds demkit's work and not this rejection sampling.
    """
    key = (n, tree_seed)
    if key in _CHORDS:
        return _CHORDS[key]
    rng = random.Random(f"perfbench:chords:{n}:{tree_seed}")
    tree = demkit.generators.random_tree(n, tree_seed)
    adj = [[] for _ in range(n)]
    for u, v in tree.edges():
        adj[u].append(v)
        adj[v].append(u)
    parent, depth, order = [-1] * n, [0] * n, [0]
    seen = [False] * n
    seen[0] = True
    for u in order:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w], depth[w] = u, depth[u] + 1
                order.append(w)

    def path(a, b):
        out = {a, b}
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a = parent[a]
            out.add(a)
        return out

    core: set = set()
    added = []
    lo, hi = int(core_frac[0] * n), int(core_frac[1] * n)
    while len(core) < lo:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or b in adj[a] or (min(a, b), max(a, b)) in added:
            continue
        anchor = added[0][0] if added else a
        grown = core | path(a, b) | path(anchor, a)
        if len(grown) > hi:
            continue
        core = grown
        added.append((min(a, b), max(a, b)))
    _CHORDS[key] = added
    return added


def prepare(demkit, workload: str, seed: int, tiny: bool = False) -> None:
    """Work of the benchmark's own that the builders need, done once before
    the timed set-up: the chords of the large_core trees."""
    if workload == "large_core":
        for n, tree_seed in tree_specs(seed, tiny):
            chords(demkit, n, tree_seed)


def large_core(demkit, directory: str, seed: int, tiny: bool = False) -> tuple:
    w = _Writer(demkit, directory)
    calls = []
    for k in (5, 6) if tiny else GRIDS:
        path = w.add(f"grid{k}x{k}", w.gen.grid(k, k).graph, f"grid:{k},{k}")
        calls.append(Call(f"grid{k}x{k}", ["dem", path], OK, "dem", path))
    for n, tree_seed in tree_specs(seed, tiny):
        added = chords(demkit, n, tree_seed)
        g = demkit.Graph(n, list(w.gen.random_tree(n, tree_seed).edges()) + added)
        path = w.add(f"tree{n}", g, f"tree:{n} seed={tree_seed} chords={len(added)}")
        calls.append(Call(f"tree{n}", ["dem", path], OK, "dem", path))
    return calls, w.files


# ---------------------------------------------------------------------------
# queries: the non-dem subcommands on mid-size graphs, plus malformed input.
# ---------------------------------------------------------------------------

QUERY_RANDOM = 10  # random mid-size graphs, n = 40, 42, ..., 58
SMALL_RANDOM = 40  # random graphs for bounds and char
SMALL_N, SMALL_P = 13, 0.4


def _malformed(w: _Writer, rng: random.Random, graph_path: str) -> list:
    """Invocations whose correct answer is exit 2 (3 for the disconnected one)."""
    k = rng.randrange(3, 9)
    files = {
        "bad_header": w.add_text("bad_header", f"{k} x\n0 1\n"),
        "short_edges": w.add_text("short_edges", f"{k} 3\n0 1\n1 2\n"),
        "self_loop": w.add_text("self_loop", f"{k} 2\n0 1\n2 2\n"),
        "three_tokens": w.add_text("three_tokens", f"{k} 1\n0 1 2\n"),
        "empty": w.add_text("empty", "# nothing here\n"),
        "disconnected": w.add_text("disconnected", f"{k + 1} 2\n0 1\n2 3\n"),
    }
    calls = [
        Call(f"bad:{name}", ["verify", path, "--monitors", "all"],
             DISCONNECTED if name == "disconnected" else PARSE_ERROR, "malformed", path)
        for name, path in files.items()
    ]
    calls += [
        Call("bad:gen_random_p", ["dem", "--gen", f"random:{k + 5},abc"], PARSE_ERROR, "malformed"),
        Call("bad:gen_ad", ["em", "--gen", f"ad:x,{k}", "--vertex", "0"], PARSE_ERROR, "malformed"),
        Call("bad:gen_grid_arity", ["bounds", "--gen", f"grid:{k}"], PARSE_ERROR, "malformed"),
        Call("bad:budget_negative", ["dem", graph_path, "--budget", "-5"], PARSE_ERROR, "malformed"),
        Call("bad:budget_text", ["dem", graph_path, "--budget", "many"], PARSE_ERROR, "malformed"),
    ]
    return calls


def queries(demkit, directory: str, seed: int, tiny: bool = False) -> tuple:
    rng = _rng("queries", seed)
    w = _Writer(demkit, directory)
    mid = [("grid10x10", w.gen.grid(10, 10).graph)]
    if not tiny:
        mid.append(("grid20x20", w.gen.grid(20, 20).graph))
    # Sizes follow a fixed schedule and the seed draws the edges, so the slow
    # tail of the latency distribution has the same shape for every seed.
    for i in range(1 if tiny else QUERY_RANDOM):
        n = 40 + 2 * i
        mid.append((f"mid{n}", w.gen.random_connected(n, 0.08, rng.randrange(2**31))))
    # One size and a density at which the base graph is nearly the whole
    # graph: char --target 2|3 then scans every pair or triple, so its cost
    # varies little from graph to graph and the latency tail, where these
    # calls sit, keeps its place from seed to seed.
    small = []
    while len(small) < (2 if tiny else SMALL_RANDOM):
        g = w.gen.random_connected(SMALL_N, SMALL_P, rng.randrange(2**31))
        if g.m > g.n - 1:  # char --target 2|3 rejects trees
            small.append((f"small{len(small)}", g))
    if not tiny:
        k = rng.randrange(8, 13)
        small += [(f"cycle{k}", w.gen.cycle(k).graph), ("petersen", w.gen.petersen().graph)]
    calls = []
    for name, g in mid:
        path = w.add(name, g, name)
        calls.append(Call(f"{name}:verify_all", ["verify", path, "--monitors", "all"], OK, "verify", path))
        some = sorted(rng.sample(range(g.n), max(2, g.n // 8)))
        calls.append(
            Call(f"{name}:verify_some", ["verify", path, "--monitors", ",".join(map(str, some))],
                 OK, "verify", path)
        )
        for x in rng.sample(range(g.n), 3):
            calls.append(Call(f"{name}:em{x}", ["em", path, "--vertex", str(x)], OK, "em", path))
        for u, v in rng.sample(list(g.edges()), 2):
            calls.append(
                Call(f"{name}:pset{u}_{v}", ["pset", path, "--monitors", "all", "--edge", f"{u},{v}"],
                     OK, "pset", path)
            )
    for name, g in small:
        path = w.add(name, g, name)
        calls.append(Call(f"{name}:bounds", ["bounds", path], OK, "bounds", path))
        calls.append(Call(f"{name}:char2", ["char", path, "--target", "2"], OK, "char2", path))
        calls.append(Call(f"{name}:char3", ["char", path, "--target", "3"], OK, "char3", path))
    calls += _malformed(w, rng, w.add("budget_target", mid[0][1], "budget target"))
    return calls, w.files


BUILDERS = {"search": search, "large_core": large_core, "queries": queries}
