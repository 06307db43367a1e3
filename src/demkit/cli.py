"""Batch command-line front end with deterministic, machine-readable output.

Subcommands: dem, em, pset, verify, bounds, char, gen.  Output formats are
json (default), csv, dot, and text; identical inputs, flags, and seeds
produce byte-identical output (solver wall-time is therefore omitted from
reports).  Exit codes: 0 ok, 2 parse/parameter error, 3 disconnected input,
4 solver budget exhausted (partial output is still emitted).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _io
import json
import sys
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from . import generators
from .errors import (
    BadParameterError,
    DemkitError,
    DisconnectedError,
    FormatError,
    IsTreeError,
)
from .graph import base_graph, is_tree
from .io import LoadedGraph, format_edgelist, load_edgelist, to_dot
from .monitor import em_set, is_monitoring_set, p_set
from .solvers import DEFAULT_BUDGET, dem_exact, dem_greedy
from .structural import bounds_report, dem2_first_pass, dem2_pair_check, dem3_triple_check

FORMATS = ("json", "csv", "dot", "text")


@dataclass
class RunConfig:
    """One resolved invocation: exactly one input source plus shared flags."""

    command: str
    input_path: Optional[str]
    gen_spec: Optional[str]
    fmt: str
    output: Optional[str]
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    options: dict = field(default_factory=dict)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demkit", description="distance-edge monitoring computations"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", help="edge-list file")
            p.add_argument("--gen", help="generator spec, e.g. complete:7 or grid:4,4")
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--output", help="write to file instead of stdout")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dem", help="minimum monitoring set")
    add_common(p)
    p.add_argument("--method", choices=("exact", "greedy", "both"), default="exact")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("em", help="edges monitored by one vertex")
    add_common(p)
    p.add_argument("--vertex", required=True)

    p = sub.add_parser("pset", help="distance-change pairs for one edge")
    add_common(p)
    p.add_argument("--monitors", required=True, help="comma list or 'all'")
    p.add_argument("--edge", required=True, help="'u,v' or 'centers'")

    p = sub.add_parser("verify", help="certificate for a candidate monitor set")
    add_common(p)
    p.add_argument("--monitors", required=True, help="comma list or 'all'")

    p = sub.add_parser("bounds", help="bound chain report")
    add_common(p)

    p = sub.add_parser("char", help="structural characterization checks")
    add_common(p)
    p.add_argument("--target", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--tuple", dest="tuple_", help="check this tuple instead of searching")

    p = sub.add_parser("gen", help="emit a generated family as an edge list")
    p.add_argument("family", help="generator spec, e.g. doublestar:3,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write to file instead of stdout")
    return parser


_GEN_USAGE = (
    "path:n cycle:n complete:n star:leaves complete_bipartite:a,b grid:p,q "
    "hypercube:d doublestar:a,b emk:n,k d1:n d2:n ad:d,s2,...,sd petersen "
    "random:n,p tree:n"
)


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
    # family -> (constructor, arity, argument parser); arity None means d
    # followed by at least one level size.
    families = {
        "path": (generators.path, 1, _ints),
        "cycle": (generators.cycle, 1, _ints),
        "complete": (generators.complete, 1, _ints),
        "star": (generators.star, 1, _ints),
        "complete_bipartite": (generators.complete_bipartite, 2, _ints),
        "grid": (generators.grid, 2, _ints),
        "hypercube": (generators.hypercube, 1, _ints),
        "doublestar": (generators.double_star, 2, _ints),
        "emk": (generators.em_k_construction, 2, _ints),
        "d1": (generators.d1_graph, 1, _ints),
        "d2": (generators.d2_graph, 1, _ints),
        "ad": (lambda d, *sizes: generators.a_d_graph(d, list(sizes), seed=seed), None, _ints),
        "petersen": (generators.petersen, 0, _ints),
        "random": (lambda n, p: _random_instance(n, p, seed), 2, lambda a: [int(a[0]), float(a[1])]),
        "tree": (lambda n: _tree_instance(n, seed), 1, _ints),
    }
    if name not in families:
        raise BadParameterError(f"unknown family {name!r}; usage: {_GEN_USAGE}")
    make, arity, parse = families[name]
    if len(args) < 2 if arity is None else len(args) != arity:
        raise BadParameterError(f"wrong number of parameters for {name}; usage: {_GEN_USAGE}")
    try:
        values = parse(args)
    except ValueError:
        raise BadParameterError(f"cannot parse parameters {rest!r} for {name}; usage: {_GEN_USAGE}")
    return make(*values)


def _load(cfg: RunConfig) -> LoadedGraph:
    if bool(cfg.input_path) == bool(cfg.gen_spec):
        raise BadParameterError("exactly one input source: a file argument or --gen")
    if cfg.gen_spec:
        inst = _instance_from_genspec(cfg.gen_spec, cfg.seed)
        return LoadedGraph(graph=inst.graph, labels=None, roles=dict(inst.designated))
    try:
        return load_edgelist(cfg.input_path)
    except OSError as exc:
        raise FormatError(f"cannot read {cfg.input_path}: {exc}")


def _parse_monitors(loaded: LoadedGraph, text: str) -> list:
    if text.strip() == "all":
        return list(range(loaded.graph.n))
    return [loaded.resolve(tok.strip()) for tok in text.split(",") if tok.strip()]


def _parse_edge(loaded: LoadedGraph, text: str) -> tuple:
    if text.strip() == "centers":
        roles = loaded.roles
        if "center1" not in roles or "center2" not in roles:
            raise BadParameterError("--edge centers needs center1/center2 roles on the input")
        return (roles["center1"], roles["center2"])
    parts = [tok.strip() for tok in text.split(",") if tok.strip()]
    if len(parts) != 2:
        raise BadParameterError("--edge expects 'u,v' or 'centers'")
    return (loaded.resolve(parts[0]), loaded.resolve(parts[1]))


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


def _emit(cfg: RunConfig, payload: dict, loaded: Optional[LoadedGraph] = None, dot_hints=None):
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif cfg.fmt == "csv":
        text = _to_csv(payload)
    elif cfg.fmt == "text":
        text = _to_text(payload)
    elif cfg.fmt == "dot":
        if loaded is None:
            raise BadParameterError("dot output needs a graph-producing command")
        hints = dot_hints or {}
        text = to_dot(loaded.graph, labels=loaded.labels, **hints)
    else:
        raise BadParameterError(f"unknown format {cfg.fmt}")
    _write(cfg, text)


def _write(cfg: RunConfig, text: str) -> None:
    """Write to --output if given, else to stdout."""
    if not cfg.output:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.output, "w", encoding="utf-8") as fp:
            fp.write(text)
    except OSError as exc:
        raise BadParameterError(f"cannot write {cfg.output}: {exc}")


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------


def cmd_dem(cfg: RunConfig) -> int:
    loaded = _load(cfg)
    label = loaded.label
    methods = ("exact", "greedy") if cfg.options["method"] == "both" else (cfg.options["method"],)
    results = {}
    budget_hit = False
    monitors: list = []
    uncovered: list = []
    for method in methods:
        if method == "exact":
            res = dem_exact(loaded.graph, budget=cfg.budget)
        else:
            res = dem_greedy(loaded.graph)
        budget_hit = budget_hit or bool(res.stats.get("budget_exhausted"))
        payload = res.to_json(include_timing=False)
        payload["monitor_set"] = [label(v) for v in res.monitor_set]
        results[method] = payload
        monitors = list(res.monitor_set)
        uncovered = list(res.certificate.uncovered)
    out = {
        "command": "dem",
        "n": loaded.graph.n,
        "m": loaded.graph.m,
        "results": results,
    }
    _emit(cfg, out, loaded, {"monitors": monitors, "uncovered_edges": uncovered})
    return 4 if budget_hit else 0


def cmd_em(cfg: RunConfig) -> int:
    loaded = _load(cfg)
    x = loaded.resolve(cfg.options["vertex"])
    ems = em_set(loaded.graph, x)
    label = loaded.label
    out = {
        "command": "em",
        "n": loaded.graph.n,
        "m": loaded.graph.m,
        "monitor": label(x),
        "edges": [[label(u), label(v)] for u, v in sorted(ems.edges)],
        "size": ems.size,
    }
    _emit(cfg, out, loaded, {"monitors": [x], "highlight_edges": sorted(ems.edges)})
    return 0


def cmd_pset(cfg: RunConfig) -> int:
    loaded = _load(cfg)
    monitors = _parse_monitors(loaded, cfg.options["monitors"])
    edge = _parse_edge(loaded, cfg.options["edge"])
    ps = p_set(loaded.graph, monitors, edge)
    label = loaded.label
    out = {
        "command": "pset",
        "n": loaded.graph.n,
        "m": loaded.graph.m,
        "monitors": [label(v) for v in sorted(ps.monitors)],
        "edge": [label(ps.edge[0]), label(ps.edge[1])],
        "pairs": [[label(x), label(y)] for x, y in sorted(ps.pairs)],
        "size": ps.size,
    }
    _emit(cfg, out, loaded, {"monitors": sorted(ps.monitors), "highlight_edges": [ps.edge]})
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    loaded = _load(cfg)
    monitors = _parse_monitors(loaded, cfg.options["monitors"])
    cert = is_monitoring_set(loaded.graph, monitors)
    label = loaded.label
    out = {
        "command": "verify",
        "n": loaded.graph.n,
        "m": loaded.graph.m,
        "monitors": [label(v) for v in sorted(set(monitors))],
        "certificate": {
            "witnesses": {
                f"{label(u)} {label(v)}": [label(a) for a in cert.witnesses[(u, v)]]
                for (u, v) in sorted(cert.witnesses)
            },
            "uncovered": [[label(u), label(v)] for u, v in sorted(cert.uncovered)],
        },
        "is_monitoring": cert.is_monitoring,
    }
    _emit(
        cfg,
        out,
        loaded,
        {"monitors": monitors, "uncovered_edges": sorted(cert.uncovered)},
    )
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    loaded = _load(cfg)
    rep = bounds_report(loaded.graph)
    label = loaded.label
    out = {"command": "bounds"}
    rep_json = rep.to_json()
    rep_json["em_per_vertex"] = {
        str(label(v)): s for v, s in sorted(rep.em_per_vertex.items())
    }
    out.update(rep_json)
    _emit(cfg, out, loaded)
    return 0


def _labelled_report(report, lift, label) -> dict:
    """Serialize a ConditionReport with base-graph ids mapped to input labels."""
    out = report.to_json()
    out["tuple"] = [label(lift[v]) for v in report.vertices]
    for cond in out["conditions"]:
        if "witness" in cond:
            cond["witness"] = [label(lift[w]) for w in cond["witness"]]
    return out


def cmd_char(cfg: RunConfig) -> int:
    loaded = _load(cfg)
    g = loaded.graph
    label = loaded.label
    target = cfg.options["target"]
    out = {"command": "char", "target": target}
    if target == 1:
        tree = is_tree(g)
        out |= {"is_tree": tree, "dem_is_1": tree}
        _emit(cfg, out, loaded)
        return 0
    if is_tree(g):
        raise IsTreeError("tree input: the single-monitor characterization applies")
    base = base_graph(g)
    gb, lift = base.graph, base.new_to_old
    back = {old: new for new, old in enumerate(lift)}

    def to_base(tokens, count):
        verts = [loaded.resolve(t.strip()) for t in tokens.split(",")]
        if len(verts) != count:
            raise BadParameterError(f"--tuple needs {count} vertices")
        missing = [v for v in verts if v not in back]
        if missing:
            raise BadParameterError(f"vertices {missing} are not in the base graph")
        return [back[v] for v in verts]

    if target == 2:
        report = None
        if cfg.options.get("tuple"):
            u, v = to_base(cfg.options["tuple"], 2)
            report = dem2_pair_check(gb, u, v)
        else:
            report = dem2_first_pass(gb)
        out["found"] = report is not None
        if report is not None:
            out["report"] = _labelled_report(report, lift, label)
        _emit(cfg, out, loaded)
        return 0
    # target == 3: ground truth drives the search; the rule report is data.
    report = None
    if cfg.options.get("tuple"):
        u, v, w = to_base(cfg.options["tuple"], 3)
        report = dem3_triple_check(gb, u, v, w)
    else:
        for u, v, w in combinations(range(gb.n), 3):
            if is_monitoring_set(gb, [u, v, w]).is_monitoring:
                report = dem3_triple_check(gb, u, v, w)
                break
    out["found"] = report is not None
    out["discrepancy"] = report.discrepancy if report is not None else False
    if report is not None:
        out["report"] = _labelled_report(report, lift, label)
    _emit(cfg, out, loaded)
    return 0


def cmd_gen(cfg: RunConfig) -> int:
    inst = _instance_from_genspec(cfg.options["family"], cfg.seed)
    params = ",".join(f"{k}={v}" for k, v in sorted(inst.params.items()))
    comments = [f"family={inst.family}"]
    if params:
        comments.append(f"params={params}")
    comments.append(f"seed={cfg.seed}")
    text = format_edgelist(inst.graph, header_comments=comments, roles=inst.designated)
    _write(cfg, text)
    return 0


_DISPATCH = {
    "dem": cmd_dem,
    "em": cmd_em,
    "pset": cmd_pset,
    "verify": cmd_verify,
    "bounds": cmd_bounds,
    "char": cmd_char,
    "gen": cmd_gen,
}


def _config_from_args(args) -> RunConfig:
    options = {}
    for key in ("method", "vertex", "monitors", "edge", "target", "family"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    if hasattr(args, "tuple_"):
        options["tuple"] = args.tuple_
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        gen_spec=getattr(args, "gen", None),
        fmt=getattr(args, "format", "json"),
        output=getattr(args, "output", None),
        budget=getattr(args, "budget", DEFAULT_BUDGET),
        seed=getattr(args, "seed", 0),
        options=options,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    try:
        return _DISPATCH[cfg.command](cfg)
    except DisconnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DemkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
