"""Traced run: spans around demkit's public layer calls, and per-layer metrics.

For each corpus call the traced pass times the CLI call, then makes the same
instance's public layer calls one at a time (``io``, ``graph``, ``monitor``,
``solvers``, ``structural``).  Spans are recorded from this file, around the
calls; nothing inside demkit is instrumented.  Every layer span names the CLI
span of its instance as the span that caused it.

Layer calls that run inside another one (the 2-core, the EM sweep and the
certificate inside ``dem_exact``) are timed as separate calls, so self times
are remainders: ``solvers.search_s`` and ``cli.overhead_s`` are derived by
subtraction, not measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from time import perf_counter_ns
from typing import Optional

# Layer spans that lie on the CLI path of each kind of call; the rest of the
# CLI span is argument parsing, output formatting and dispatch.
CLI_PATH = {
    "dem": ("io.load_edgelist", "solvers.dem_exact"),
    "verify": ("io.load_edgelist", "monitor.is_monitoring_set"),
    "em": ("io.load_edgelist", "monitor.em_set"),
    "pset": ("io.load_edgelist", "monitor.p_set"),
    "bounds": ("io.load_edgelist", "structural.bounds_report"),
    "char2": ("io.load_edgelist", "structural.dem_is_2"),
    "char3": (
        "io.load_edgelist",
        "graph.base_graph",
        "monitor.is_monitoring_set",
        "structural.dem3_triple_check",
    ),
    "malformed": ("io.load_edgelist",),
}


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    instance: str
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Recorder:
    """Keeps spans in memory; the caller writes them out when the run ends."""

    def __init__(self):
        self.spans: list = []

    def open(self, name: str, parent: Optional[int], instance: str) -> Span:
        span = Span(len(self.spans), name, perf_counter_ns(), 0, parent, instance)
        self.spans.append(span)
        return span

    def close(self, span: Span, error: Optional[str] = None) -> None:
        span.end_ns = perf_counter_ns()
        span.error = error

    def call(self, name: str, parent: Span, fn):
        """Run ``fn`` inside a child span of ``parent``; None if it raised."""
        span = self.open(name, parent.id, parent.instance)
        try:
            result = fn()
        except Exception as exc:  # a layer call that raises is recorded, not fatal
            self.close(span, type(exc).__name__)
            return None
        self.close(span)
        return result


def trace_layers(demkit, workload: str, call, rec: Recorder, cli_span: Span, counts: dict) -> None:
    """Make the layer calls behind one CLI call, each in its own span."""
    if call.path is None:
        return
    loaded = rec.call("io.load_edgelist", cli_span, lambda: demkit.io.load_edgelist(call.path))
    if loaded is None:
        return
    g = loaded.graph
    span = lambda name, fn: rec.call(name, cli_span, fn)  # noqa: E731
    kind = call.kind
    if kind == "dem":
        base = span("graph.base_graph", lambda: demkit.base_graph(g))
        if base is None:
            return
        gb = base.graph
        counts["graph.core_n"] += gb.n
        counts["graph.core_m"] += gb.m
        span("graph.bfs_sweep", lambda: [demkit.bfs_distances(gb, x) for x in range(gb.n)])
        ems = span("monitor.em_sweep", lambda: [demkit.em_set(gb, x) for x in range(gb.n)])
        if ems is None:
            return
        counts["monitor.em_edges"] += sum(e.size for e in ems)
        argv = call.argv
        budget = int(argv[argv.index("--budget") + 1]) if "--budget" in argv else demkit.solvers.DEFAULT_BUDGET
        res = span("solvers.dem_exact", lambda: demkit.dem_exact(g, budget=budget))
        if res is None:
            return
        counts["solvers.budget_hits"] += int(bool(res.stats.get("budget_exhausted")))
        cert = span("monitor.is_monitoring_set", lambda: demkit.is_monitoring_set(g, res.monitor_set))
        if cert is None:
            return
        counts["monitor.certificate_bfs"] += len(res.monitor_set) + len(cert.witnesses)
        if workload == "search":
            greedy = span("solvers.dem_greedy", lambda: demkit.dem_greedy(g))
            if greedy is not None and res.exact:
                counts["solvers.greedy_gap"] += greedy.value - res.value
            span("solvers.verify_dem_result", lambda: demkit.verify_dem_result(g, res))
    elif kind == "verify":
        text = call.argv[call.argv.index("--monitors") + 1]
        monitors = list(range(g.n)) if text == "all" else [int(t) for t in text.split(",")]
        cert = span("monitor.is_monitoring_set", lambda: demkit.is_monitoring_set(g, monitors))
        if cert is not None:
            counts["monitor.certificate_bfs"] += len(set(monitors)) + len(cert.witnesses)
    elif kind == "em":
        x = int(call.argv[call.argv.index("--vertex") + 1])
        ems = span("monitor.em_set", lambda: demkit.em_set(g, x))
        if ems is not None:
            counts["monitor.em_edges"] += ems.size
    elif kind == "pset":
        u, v = map(int, call.argv[call.argv.index("--edge") + 1].split(","))
        span("monitor.p_set", lambda: demkit.p_set(g, range(g.n), (u, v)))
    elif kind == "bounds":
        span("structural.bounds_report", lambda: demkit.bounds_report(g))
    elif kind == "char2":
        span("structural.dem_is_2", lambda: demkit.dem_is_2(g))
    elif kind == "char3":
        base = span("graph.base_graph", lambda: demkit.base_graph(g))
        if base is None:
            return
        gb = base.graph
        counts["graph.core_n"] += gb.n
        counts["graph.core_m"] += gb.m

        def first_triple():
            for t in combinations(range(gb.n), 3):
                cert = demkit.is_monitoring_set(gb, t)
                counts["monitor.certificate_bfs"] += len(t) + len(cert.witnesses)
                if cert.is_monitoring:
                    return t
            return None

        triple = span("monitor.is_monitoring_set", first_triple)
        if triple is not None:
            span("structural.dem3_triple_check", lambda: demkit.dem3_triple_check(gb, *triple))


def _sum(spans, *names) -> float:
    return sum(s.seconds for s in spans if s.name in names)


def per_layer(calls, spans: list, counts: dict) -> dict:
    """Per-layer totals over one traced pass, in seconds or counts."""
    kind_of = {c.id: c.kind for c in calls}
    layer = [s for s in spans if s.parent is not None]
    cli = [s for s in spans if s.parent is None]
    dem_spans = [s for s in layer if kind_of[s.instance] == "dem"]
    out = {
        "io.load_s": _sum(layer, "io.load_edgelist"),
        "graph.base_graph_s": _sum(layer, "graph.base_graph"),
        "graph.core_n": counts["graph.core_n"],
        "graph.core_m": counts["graph.core_m"],
        "graph.bfs_sweep_s": _sum(layer, "graph.bfs_sweep"),
        "monitor.em_sweep_s": _sum(layer, "monitor.em_sweep", "monitor.em_set"),
        "monitor.em_edges": counts["monitor.em_edges"],
        "monitor.pset_s": _sum(layer, "monitor.p_set"),
        "monitor.certificate_s": _sum(layer, "monitor.is_monitoring_set"),
        "monitor.certificate_bfs": counts["monitor.certificate_bfs"],
        "solvers.dem_exact_s": _sum(layer, "solvers.dem_exact"),
        "solvers.budget_hits": counts["solvers.budget_hits"],
        "solvers.search_s": _sum(dem_spans, "solvers.dem_exact")
        - _sum(dem_spans, "graph.base_graph", "monitor.em_sweep", "monitor.is_monitoring_set"),
        "solvers.greedy_s": _sum(layer, "solvers.dem_greedy"),
        "solvers.greedy_gap": counts["solvers.greedy_gap"],
        "solvers.verify_s": _sum(layer, "solvers.verify_dem_result"),
        "structural.bounds_s": _sum(layer, "structural.bounds_report"),
        "structural.char2_s": _sum(layer, "structural.dem_is_2"),
        "structural.char3_s": _sum(layer, "structural.dem3_triple_check"),
    }
    on_path = {s.id: s for s in layer if s.name in CLI_PATH[kind_of[s.instance]]}
    by_instance: dict = {}
    for s in on_path.values():
        by_instance[s.instance] = by_instance.get(s.instance, 0.0) + s.seconds
    out["cli.overhead_s"] = sum(s.seconds - by_instance.get(s.instance, 0.0) for s in cli)
    return out


def by_instance(spans: list) -> dict:
    """Seconds per span name for each instance (the CLI span is ``cli.main``)."""
    rows: dict = {}
    for s in spans:
        row = rows.setdefault(s.instance, {})
        row[s.name] = row.get(s.name, 0.0) + s.seconds
    return rows


def new_counts() -> dict:
    keys = (
        "graph.core_n",
        "graph.core_m",
        "monitor.em_edges",
        "monitor.certificate_bfs",
        "solvers.budget_hits",
        "solvers.greedy_gap",
    )
    return dict.fromkeys(keys, 0)
