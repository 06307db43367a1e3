"""Batch command-line front end with deterministic, machine-readable output.

Subcommands: dem, em, pset, verify, bounds, char, gen.  Output formats are
json (default), csv, dot, and text; identical inputs, flags, and seeds
produce byte-identical output (solver wall-time is therefore omitted from
reports).  Exit codes: 0 ok, 2 parse/parameter error, an input too large
for memory or output that stdout cannot encode, 3 disconnected input to a
command that needs a connected graph (dem, em, verify, bounds, char), 4
solver budget exhausted (partial output is still emitted).  pset works on
a disconnected graph: it gives the pairs of its edge's own component.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _io
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import generators, structural
from .errors import BadParameterError, DemkitError, DisconnectedError, FormatError
from .graph import _check_dem_defined, base_graph
from .io import LoadedGraph, format_edgelist, load_edgelist, to_dot
from .monitor import em_set, is_monitoring_set, p_set
from .solvers import DEFAULT_BUDGET, dem_exact, dem_greedy

FORMATS = ("json", "csv", "dot", "text")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demkit", description="distance-edge monitoring computations"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run):
        p.set_defaults(run=run)
        p.add_argument("input", nargs="?", help="edge-list file")
        p.add_argument("--gen", help="generator spec, e.g. complete:7 or grid:4,4")
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--output", help="write to file instead of stdout")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dem", help="minimum monitoring set")
    add_common(p, cmd_dem)
    p.add_argument("--method", choices=("exact", "greedy", "both"), default="exact")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("em", help="edges monitored by one vertex")
    add_common(p, cmd_em)
    p.add_argument("--vertex", required=True)

    p = sub.add_parser("pset", help="distance-change pairs for one edge")
    add_common(p, cmd_pset)
    p.add_argument("--monitors", required=True, help="comma list or 'all'")
    p.add_argument("--edge", required=True, help="'u,v' or 'centers'")

    p = sub.add_parser("verify", help="certificate for a candidate monitor set")
    add_common(p, cmd_verify)
    p.add_argument("--monitors", required=True, help="comma list or 'all'")

    p = sub.add_parser("bounds", help="bound chain report")
    add_common(p, cmd_bounds)

    p = sub.add_parser("char", help="structural characterization checks")
    add_common(p, cmd_char)
    p.add_argument("--target", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--tuple", dest="tuple_", help="check this tuple instead of searching")

    p = sub.add_parser("gen", help="emit a generated family as an edge list")
    p.set_defaults(run=cmd_gen)
    p.add_argument("family", help="generator spec, e.g. doublestar:3,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write to file instead of stdout")
    return parser


def _ints(args: list) -> list:
    return [int(a) for a in args]


def _random_instance(n: int, p: float, seed: int) -> generators.FamilyInstance:
    g = generators.random_connected(n, p, seed)
    return generators.FamilyInstance(g, "random", {"n": n, "p": p, "seed": seed})


def _tree_instance(n: int, seed: int) -> generators.FamilyInstance:
    return generators.FamilyInstance(generators.random_tree(n, seed), "tree", {"n": n, "seed": seed})


def _instance_from_genspec(spec: str, seed: int) -> generators.FamilyInstance:
    name, _, rest = spec.partition(":")
    args = [a for a in rest.split(",") if a]
    # family -> (constructor, parameter names, argument parser); the names
    # before a "..." are the fewest parameters a family takes.
    families = {
        "path": (generators.path, "n", _ints),
        "cycle": (generators.cycle, "n", _ints),
        "complete": (generators.complete, "n", _ints),
        "star": (generators.star, "leaves", _ints),
        "complete_bipartite": (generators.complete_bipartite, "a,b", _ints),
        "grid": (generators.grid, "p,q", _ints),
        "hypercube": (generators.hypercube, "d", _ints),
        "doublestar": (generators.double_star, "a,b", _ints),
        "emk": (generators.em_k_construction, "n,k", _ints),
        "d1": (generators.d1_graph, "n", _ints),
        "d2": (generators.d2_graph, "n", _ints),
        "ad": (lambda d, *sizes: generators.a_d_graph(d, list(sizes), seed=seed), "d,s2,...,sd", _ints),
        "petersen": (generators.petersen, "", _ints),
        "random": (lambda n, p: _random_instance(n, p, seed), "n,p", lambda a: [int(a[0]), float(a[1])]),
        "tree": (lambda n: _tree_instance(n, seed), "n", _ints),
    }

    def usage(problem: str) -> BadParameterError:
        specs = (f"{f}:{p}" if p else f for f, (_, p, _) in families.items())
        return BadParameterError(f"{problem}; usage: {' '.join(specs)}")

    if name not in families:
        raise usage(f"unknown family {name!r}")
    make, params, parse = families[name]
    names = params.split(",") if params else []
    if len(args) < names.index("...") if "..." in names else len(args) != len(names):
        raise usage(f"wrong number of parameters for {name}")
    try:
        values = parse(args)
    except ValueError:
        raise usage(f"cannot parse parameters {rest!r} for {name}")
    return make(*values)


def _load(args) -> LoadedGraph:
    if bool(args.input) == bool(args.gen):
        raise BadParameterError("exactly one input source: a file argument or --gen")
    if args.gen:
        inst = _instance_from_genspec(args.gen, args.seed)
        return LoadedGraph(graph=inst.graph, labels=None, roles=dict(inst.designated))
    try:
        return load_edgelist(args.input)
    except OSError as exc:
        raise FormatError(f"cannot read {args.input}: {exc}")


def _vertices(loaded: LoadedGraph, text: str) -> list:
    """The vertices a comma list names; empty items are skipped."""
    return [loaded.resolve(tok.strip()) for tok in text.split(",") if tok.strip()]


def _parse_monitors(loaded: LoadedGraph, text: str) -> list:
    if text.strip() == "all":
        return list(range(loaded.graph.n))
    return _vertices(loaded, text)


def _parse_edge(loaded: LoadedGraph, text: str) -> tuple:
    if text.strip() == "centers":
        roles = loaded.roles
        if "center1" not in roles or "center2" not in roles:
            raise BadParameterError("--edge centers needs center1/center2 roles on the input")
        return (roles["center1"], roles["center2"])
    parts = _vertices(loaded, text)
    if len(parts) != 2:
        raise BadParameterError("--edge expects 'u,v' or 'centers'")
    return tuple(parts)


# ---------------------------------------------------------------------------
# Output formatting.
# ---------------------------------------------------------------------------


def _flatten(payload, prefix="", rows=None):
    rows = rows if rows is not None else []
    if isinstance(payload, dict):
        for key in sorted(payload):
            _flatten(payload[key], f"{prefix}{key}.", rows)
    elif isinstance(payload, list):
        flat = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        rows.append((prefix.rstrip("."), flat))
    else:
        rows.append((prefix.rstrip("."), payload))
    return rows


def _to_csv(payload: dict) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(payload):
        writer.writerow([key, value])
    return buf.getvalue()


def _to_text(payload: dict) -> str:
    lines = [f"{key}: {value}" for key, value in _flatten(payload)]
    return "\n".join(lines) + "\n"


_INTS, _STRS = frozenset({int}), frozenset({str})


def _to_json(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    With indent set, the stdlib encodes item by item in pure Python: its C
    encoder serves only indent=None.  Here each list of ints or of strings,
    the bulk of every report, is one str.join over a C-level map; dicts and
    other lists recurse, and bools, None and floats go to json.dumps.
    newline is the line break and indent that precede value's closing
    bracket.  Dict keys must be strings.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == _INTS:
            items = map(int.__repr__, value)
        elif kinds == _STRS:
            items = map(_quote, value)
        else:
            items = [_to_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{_quote(key)}: {_to_json(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is str:
        return _quote(value)
    return json.dumps(value)


def _emit(args, loaded: LoadedGraph, body: dict, **dot_hints) -> None:
    """Write {"command": ..., **body} in --format; dot draws the input graph."""
    payload = {"command": args.command, **body}
    if args.format == "json":
        text = _to_json(payload) + "\n"
    elif args.format == "csv":
        text = _to_csv(payload)
    elif args.format == "text":
        text = _to_text(payload)
    else:
        text = to_dot(loaded.graph, label=loaded.label, **dot_hints)
    _write(args.output, text)


def _write(output, text: str) -> None:
    """Write to the --output path if given, else to stdout."""
    if not output:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            # The text is encoded whole before any of it is written, so
            # stdout stays empty.
            raise BadParameterError(
                f"stdout's encoding {exc.encoding} cannot write {exc.object[exc.start]!r};"
                " use --output or --format json"
            )
        return
    try:
        with open(output, "w", encoding="utf-8") as fp:
            fp.write(text)
    except OSError as exc:
        raise BadParameterError(f"cannot write {output}: {exc}")


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each result's to_json, given the input's
# labels, is the report body.
# ---------------------------------------------------------------------------


def cmd_dem(args) -> int:
    loaded = _load(args)
    g = loaded.graph
    methods = ("exact", "greedy") if args.method == "both" else (args.method,)
    runs = {}
    for m in methods:
        runs[m] = dem_exact(g, budget=args.budget) if m == "exact" else dem_greedy(g)
    results = {m: res.to_json(label=loaded.label) for m, res in runs.items()}
    # Every answer monitors every edge (solvers check the core's cover, and
    # any vertex monitors a bridge), so dot draws no edge dashed.
    body = {"n": g.n, "m": g.m, "results": results}
    _emit(args, loaded, body, monitors=runs[methods[-1]].monitor_set)
    return 4 if any(r.stats.get("budget_exhausted") for r in runs.values()) else 0


def cmd_em(args) -> int:
    loaded = _load(args)
    g = loaded.graph
    x = loaded.resolve(args.vertex)
    ems = em_set(g, x)
    body = {"n": g.n, "m": g.m, **ems.to_json(loaded.label)}
    _emit(args, loaded, body, monitors=[x], highlight_edges=ems.edges)
    return 0


def cmd_pset(args) -> int:
    loaded = _load(args)
    g = loaded.graph
    ps = p_set(g, _parse_monitors(loaded, args.monitors), _parse_edge(loaded, args.edge))
    body = {"n": g.n, "m": g.m, **ps.to_json(loaded.label)}
    _emit(args, loaded, body, monitors=ps.monitors, highlight_edges=[ps.edge])
    return 0


def cmd_verify(args) -> int:
    loaded = _load(args)
    g = loaded.graph
    monitors = _parse_monitors(loaded, args.monitors)
    cert = is_monitoring_set(g, monitors)
    body = {
        "n": g.n,
        "m": g.m,
        "monitors": [loaded.label(v) for v in sorted(set(monitors))],
        "certificate": cert.to_json(loaded.label),
        "is_monitoring": cert.is_monitoring,
    }
    _emit(args, loaded, body, monitors=monitors, uncovered_edges=cert.uncovered)
    return 0


def cmd_bounds(args) -> int:
    loaded = _load(args)
    _emit(args, loaded, structural.bounds_report(loaded.graph).to_json(loaded.label))
    return 0


# --target -> (the check of a given tuple, the search for the first tuple).
_CHAR_CHECKS = {
    2: (structural.dem2_pair_check, structural.dem2_first_pass),
    3: (structural.dem3_triple_check, structural.dem3_first_pass),
}


def cmd_char(args) -> int:
    if args.tuple_ and args.target == 1:
        raise BadParameterError("--tuple applies to --target 2 or 3")
    loaded = _load(args)
    out = {"target": args.target}
    # Every target needs a connected graph with an edge, as dem does:
    # base_graph raises DisconnectedError (exit 3) on a disconnected one.
    _check_dem_defined(loaded.graph)
    base = base_graph(loaded.graph)
    if args.target == 1:
        _emit(args, loaded, out | {"is_tree": base.was_tree, "dem_is_1": base.was_tree})
        return 0
    structural._check_not_tree(base)
    gb, lift, back = base.graph, base.new_to_old, base.old_to_new
    check, first_pass = _CHAR_CHECKS[args.target]
    if args.tuple_:
        verts = _vertices(loaded, args.tuple_)
        if len(verts) != args.target:
            raise BadParameterError(f"--tuple needs {args.target} vertices")
        missing = [loaded.label(v) for v in verts if back[v] is None]
        if missing:
            raise BadParameterError(f"vertices {missing} are not in the base graph")
        report = check(gb, *[back[v] for v in verts])
    else:
        report = first_pass(gb)
    out["found"] = report is not None
    if args.target == 3:
        out["discrepancy"] = report is not None and report.discrepancy
    if report is not None:
        out["report"] = report.to_json(lambda v: loaded.label(lift[v]))
    _emit(args, loaded, out)
    return 0


def cmd_gen(args) -> int:
    inst = _instance_from_genspec(args.family, args.seed)
    params = ",".join(f"{k}={v}" for k, v in sorted(inst.params.items()))
    comments = [f"family={inst.family}"]
    if params:
        comments.append(f"params={params}")
    comments.append(f"seed={args.seed}")
    text = format_edgelist(inst.graph, header_comments=comments, roles=inst.designated)
    _write(args.output, text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except DisconnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DemkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large for the available memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
