"""The command line as a child process: one row per check.

Each row runs `python -m demkit ARGV` in a fresh directory, with the demkit
this process imported first on PYTHONPATH: tier-1 runs the rows on src/,
and CI, after `pip install .` and without src/ on the path, on the installed
package.  Exit 0 or 4 must leave stderr empty; exit 2 or 3 must write one
short `error: ` line.  A JSON report must be byte for byte what
json.dumps(indent=2, sort_keys=True) writes for it.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import pytest

import demkit

_PATH = [str(Path(demkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _PATH))}


class Row(NamedTuple):
    """got(report) must equal want; the report is stdout as JSON, or as text
    when argv sets --format.  stderr must contain err.  argv runs among
    `files`, after setup, which must exit 0; mib caps the child's address
    space."""

    name: str
    argv: str
    code: int = 0
    got: Optional[Callable] = None
    want: Any = None
    files: dict = {}
    setup: Optional[str] = None
    mib: Optional[int] = None
    timeout: float = 120
    err: str = ""


def _value(r):
    return r["results"]["exact"]["value"]


def _cut(r):
    e = r["results"]["exact"]
    return e["value"], e["exact"], e["stats"]["nodes"], e["monitor_set"]


def _verify(r):
    c = r["certificate"]
    return r["is_monitoring"], len(c["witnesses"]), len(c["uncovered"])


def _upc(r):
    c = {c["name"]: c for c in r["report"]["conditions"]}["unique_parent_constraints"]
    return c["pass"], c["witness"]


_R60 = "dem --gen random:60,0.1 --seed 1 --budget"
_COVER = [1, 2, 3, 12, 13, 15, 23, 29, 31, 32, 35, 39, 41, 57]
_TWO_PARTS = (
    "error: base-graph reduction requires a connected graph; found 2 components of sizes [2, 2]\n"
)
_NO_EDGE = "error: dem is defined for graphs with at least one edge\n"

ROWS = [
    # The one call CI also makes through the console script.
    Row("dem_grid4x4", "dem --gen grid:4,4", 0, _value, 4),
    # EM sets read off distances mod 3: an odd cycle has edges whose
    # ends lie at the same distance, at every residue; a grid wraps
    # the residues many times.
    Row("dem_cycle101", "dem --gen cycle:101", 0, _value, 2),
    # A long cycle: its EM sets are nearly full, so the classes are
    # transposed through their complements and the search's packing
    # table shares its rows.
    Row("dem_cycle1500", "dem --gen cycle:1500", 0, _value, 2),
    Row("dem_grid20x20", "dem --gen grid:20,20", 0, _value, 20),
    # Q12 has 4,096 sets and 2,048 picks, with ties between equal gains at
    # every pick: greedy must re-read a gain only when its set reaches the
    # head of the heap, not rescan every set per pick.
    Row("dem_greedy_q12", "dem --gen hypercube:12 --method greedy", 0,
        lambda r: r["results"]["greedy"]["value"], 2048, timeout=5),
    # A run cut by the budget exits 4 with its covers polished by the
    # local search on the same edge classes as the search.
    Row("dem_complete8_budget1", "dem --gen complete:8 --budget 1", 4, _cut,
        (7, False, 1, [0, 1, 2, 3, 4, 5, 6])),
    Row("dem_random50_budget2000", "dem --gen random:50,0.12 --seed 4 --budget 2000", 4, _cut,
        (11, False, 2000, [1, 3, 4, 11, 17, 28, 30, 37, 42, 45, 46])),
    # 200,000 nodes deep: the search reads each cover back from its
    # chain of chosen sets, and the local search polishes them.
    Row("dem_random60_budget200000", f"{_R60} 200000", 4, _cut, (14, False, 200000, _COVER)),
    # A budget that runs out at an include child, partway through the
    # search's in-place scan of exclude children.
    Row("dem_random60_budget123457", f"{_R60} 123457", 4, _cut, (14, False, 123457, _COVER)),
    # The search's first cover is its node 25,589: a budget one node
    # short keeps only greedy's cover, one that ends at it keeps both.
    Row("dem_random60_budget25588", f"{_R60} 25588", 4, _cut,
        (15, False, 25588, [2, 3, 7, 8, 13, 14, 21, 22, 24, 35, 41, 42, 52, 53, 59])),
    Row("dem_random60_budget25589", f"{_R60} 25589", 4, _cut, (14, False, 25589, _COVER)),
    # P(M, e) from two endpoint BFS in G - e plus one bit-parallel sweep
    # from the 20 monitors that hold the edge; the centre edge of a double
    # star is a bridge.
    Row("pset_grid20x20", "pset --gen grid:20,20 --monitors all --edge 90,91", 0,
        lambda r: r["size"], 198),
    Row("pset_doublestar", "pset --gen doublestar:3,3 --monitors all --edge centers", 0,
        lambda r: r["size"], 32),
    # The same edge, named by the file's `# center1=` and `# center2=`
    # comments rather than by the generator.
    Row("pset_doublestar_file", "pset ds.el --monitors all --edge centers", 0,
        lambda r: r["size"], 32, setup="gen doublestar:3,3 --output ds.el"),
    # pset needs no connected graph: on a disconnected input it gives the
    # pairs of the edge's own component and exits 0, not 3.
    Row("pset_disconnected", "pset two.el --monitors all --edge 0,1", 0,
        lambda r: r["pairs"], [[0, 1], [1, 0]], files={"two.el": b"4 2\n0 1\n2 3\n"}),
    # Both methods reduce to the 2-core first, so a disconnected input
    # fails in the same reduction, with the same error line.
    Row("dem_disconnected_exact", "dem two.el", 3, files={"two.el": b"4 2\n0 1\n2 3\n"},
        err=_TWO_PARTS),
    Row("dem_disconnected_greedy", "dem two.el --method greedy", 3,
        files={"two.el": b"4 2\n0 1\n2 3\n"}, err=_TWO_PARTS),
    # A graph with no edge is rejected before the budget is read, and
    # bounds rejects it in dem's words.
    Row("dem_one_vertex_bad_budget", "dem one.el --budget -5", 2, files={"one.el": b"1 0\n"},
        err=_NO_EDGE),
    Row("bounds_one_vertex", "bounds one.el", 2, files={"one.el": b"1 0\n"}, err=_NO_EDGE),
    # A vertex named on a graph with no vertices is a parameter error.
    Row("em_no_vertices", "em empty.el --vertex 0", 2, files={"empty.el": b"0 0\n"}),
    Row("pset_no_vertices", "pset empty.el --monitors all --edge 0,1", 2,
        files={"empty.el": b"0 0\n"}),
    # An input too large for 1 GiB of address space exits 2, not with
    # a MemoryError traceback: a 200,000-vertex cycle outgrows it in the
    # EM pass.
    Row("dem_cycle200000_1gib", "dem --gen cycle:200000", 2, mib=1024),
    # Greedy runs on the 2-core, as the search does: a tree is answered
    # by vertex 0 alone, with no EM pass over its 200,000 vertices.
    Row("dem_greedy_tree200000_1gib", "dem --gen tree:200000 --method greedy", 0,
        lambda r: r["results"]["greedy"]["monitor_set"], [0], mib=1024),
    # 2^30 vertices are past the generators' cap of 1,000,000 vertices
    # and edges: the exit is 2 before any list is built, even under 512 MiB.
    Row("dem_hypercube30_512mib", "dem --gen hypercube:30", 2, mib=512),
    # The cap holds for every command that generates: a 20-digit path
    # exits 2 at once, where it used to build until the process was killed.
    Row("dem_path_huge_512mib", "dem --gen path:99999999999999999999", 2, mib=512, timeout=10),
    Row("bounds_path_huge_512mib", "bounds --gen path:99999999999999999999", 2, mib=512,
        timeout=10),
    Row("char3_path_huge_512mib", "char --gen path:99999999999999999999 --target 3", 2, mib=512,
        timeout=10),
    Row("gen_path_huge_512mib", "gen path:99999999999999999999", 2, mib=512, timeout=10),
    # Ten bytes declare a million isolated vertices: the reply is one
    # short line naming the component count, not a million sizes.
    Row("dem_million_isolated", "dem big.el", 3, files={"big.el": b"1000000 0\n"}, mib=512),
    # An edge list's header is held to the same cap before any list is
    # built: a 20-digit n is one error line, not an OverflowError
    # traceback from the label table, nor a MemoryError after the
    # adjacency lists fill the address space.
    Row("dem_huge_header_labels", "dem huge.el", 2,
        files={"huge.el": b"99999999999999999999 1\na b\n"}),
    Row("em_huge_header_labels", "em huge.el --vertex a", 2,
        files={"huge.el": b"99999999999999999999 1\na b\n"}),
    Row("pset_huge_header_512mib", "pset huge.el --monitors all --edge 0,1", 2,
        files={"huge.el": b"99999999999999999999 0\n"}, mib=512, timeout=10,
        err="edge-list graph too large: demkit builds at most 1,000,000 vertices"),
    # With every vertex a monitor, verify finds the input disconnected
    # before it builds a 200,000-bit monitor row per vertex: the exit is
    # 3 under 1 GiB, as it is for two monitors.
    Row("verify_isolated_all_1gib", "verify big.el --monitors all", 3,
        files={"big.el": b"200000 0\n"}, mib=1024),
    # Bytes that are not UTF-8 are a format error, not a traceback.
    Row("dem_not_utf8", "dem bad.el", 2, files={"bad.el": b"\xff\xfe3 2\n0 1\n1 2\n"}),
    # Rejection sampling draws at most 19,000,000 vertex pairs: at n = 400
    # that is 238 samples, none of them connected, and the exit is 2.
    Row("em_random400_hopeless", "em --gen random:400,0.00875 --vertex 0", 2, timeout=20),
    # dot draws a labelled file's own names, through the same label
    # callable as the JSON reports.
    Row("em_labelled_dot", "em c4.el --vertex a --format dot", 0,
        lambda out: '"a" -- "b"' in out, True, files={"c4.el": b"4 4\na b\nb c\nc d\nd a\n"}),
    # The cell rules and the certificate through the installed BFS.
    Row("char_petersen_2", "char --gen petersen --target 2"),
    # char needs an edge at every target, as dem does: one vertex
    # exits 2.  A comma list skips empty items, for --tuple too.
    Row("char_one_vertex", "char --gen path:1 --target 1", 2),
    # --target 1 reads no tuple, so a tuple given with it is an error,
    # not ignored.
    Row("char_target1_tuple", "char --gen path:4 --target 1 --tuple zz", 2, timeout=10),
    Row("char_trailing_comma", "char --gen petersen --target 2 --tuple 0,1,"),
    # unique_parent_constraints as a rule table: on d1:5 the pair 0,1
    # fails it with two neighbours one step closer to 0, one of them
    # level with 1 (on grid:3,3 the same pair fails the diagonal case).
    Row("char_upc_d1", "char --gen d1:5 --target 2 --tuple 0,1", 0, _upc, (False, [3, 1, 2])),
    Row("char_upc_grid", "char --gen grid:3,3 --target 2 --tuple 0,1", 0, _upc, (False, [5, 2, 4])),
    Row("verify_grid3x3_all", "verify --gen grid:3,3 --monitors all", 0, _verify, (True, 12, 0)),
    # verify runs one bit-parallel pass over the monitors, then one
    # sweep per witness monitor: grid20x20's 760 edges have 39.
    Row("verify_grid20x20_all", "verify --gen grid:20,20 --monitors all", 0, _verify,
        (True, 760, 0)),
    # An uncovered edge is an answer, not an error: the exit is 0.
    Row("verify_grid20x20_corners", "verify --gen grid:20,20 --monitors 0,399", 0, _verify,
        (False, 76, 684)),
    # Two monitors on a 200,000-vertex cycle: the EM pass's 100,000
    # levels reuse two rows, so a level costs what its few scanned
    # vertices cost and this ends in seconds.  Only the edge opposite
    # the monitors is uncovered.
    Row("verify_cycle200000_two", "verify --gen cycle:200000 --monitors 0,1", 0,
        lambda r: (_verify(r), r["certificate"]["uncovered"]),
        ((False, 199_999, 1), [[100_000, 100_001]]), timeout=30),
    # char --target 3 asks only is_monitoring of each triple.
    Row("char_petersen_3", "char --gen petersen --target 3", 0, lambda r: r["found"], True),
    # dem never builds a certificate: a valid answer leaves no edge
    # uncovered, so dot draws no edge dashed.
    Row("dem_grid5x5_dot", "dem --gen grid:5,5 --format dot", 0,
        lambda out: "style=dashed" in out, False),
    # One independent-set search gives the clique and vertex cover
    # numbers: K6's complement is edgeless, Petersen is sparse.
    Row("bounds_complete6", "bounds --gen complete:6", 0,
        lambda r: (r["clique_lb"], r["vertex_cover_ub"]), (3, 5)),
    Row("bounds_petersen", "bounds --gen petersen", 0,
        lambda r: (r["clique_lb"], r["vertex_cover_ub"]), (1, 6)),
]


def _demkit(argv, cwd, mib=None, timeout=120):
    """Run demkit once and hold it to the stderr rule of its exit code."""
    if mib and sys.platform != "linux":
        pytest.skip("RLIMIT_AS is enforced on Linux")

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

    proc = subprocess.run([sys.executable, "-m", "demkit", *argv.split()], cwd=cwd, env=_ENV,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=limit if mib else None)
    err = proc.stderr
    if proc.returncode in (0, 4):
        assert err == "", (argv, err)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, (argv, err)
    return proc


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_row(row, tmp_path):
    for name, data in row.files.items():
        (tmp_path / name).write_bytes(data)
    if row.setup:
        assert _demkit(row.setup, tmp_path).returncode == 0, row.setup
    proc = _demkit(row.argv, tmp_path, row.mib, row.timeout)
    assert proc.returncode == row.code, (row.argv, proc.stderr)
    assert row.err in proc.stderr, (row.argv, proc.stderr)
    out = proc.stdout
    if out and "--format" not in row.argv:
        out = json.loads(out)
        # demkit writes JSON with its own writer; the bytes are the stdlib's.
        assert proc.stdout == json.dumps(out, indent=2, sort_keys=True) + "\n", row.argv
    if row.got:
        assert row.got(out) == row.want, row.argv


def test_ci_calls_demkit_once():
    # CI calls the console script once, then reruns the rows above; a
    # check anywhere else in the workflow is one tier-1 never runs.
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    lines = [line.strip() for line in workflow.read_text().splitlines()]
    calls = [line for line in lines if line[:1] != "#" and re.search(r"(?<![\w.])demkit\s", line)]
    assert calls == ["out=$(demkit dem --gen grid:4,4)"], calls
