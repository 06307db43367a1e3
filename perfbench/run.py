#!/usr/bin/env python3
"""demkit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload search --seed 3 --seconds 30 --trace 0

Builds the seeded corpus of the workload (edge-list files under
``perfbench/.work``), then calls ``demkit.cli.main`` in-process on every
corpus entry, one call after another (one thread, closed loop), in passes
until ``--seconds`` is used.  End-to-end times are reported at a reference
host speed (``speed.py``).  Every answer is checked afterwards by
``check.py``.  With ``--trace 1`` one untraced pass is followed by traced
passes that also time demkit's public layer calls (``layers.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it are for people.  The
exit code is 0 when every answer is correct, 1 when one is not, and 2 when
demkit cannot be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Optional

import check
import corpus
import layers
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, ".work")
SETUP_EVERY = 3.0  # seconds of untraced calls between two further set-ups
TAIL = 10  # samples that must lie beyond a reported percentile

END_TO_END_UNITS = {
    "corpus_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
COUNT_METRICS = (
    "graph.core_n",
    "graph.core_m",
    "monitor.em_edges",
    "monitor.certificate_bfs",
    "solvers.budget_hits",
    "solvers.greedy_gap",
    "bb_nodes",
)
RATIO_METRICS = ("exact_frac", "failed_frac")


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in COUNT_METRICS:
        return "count"
    if name in RATIO_METRICS:
        return "ratio"
    return "s"


@dataclass
class Outcome:
    seconds: float
    code: Optional[int]
    stdout: str
    error: Optional[str] = None

    def failed(self, call) -> bool:
        return self.error is not None or self.code not in call.expect


def demkit_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "demkit" or k.startswith("demkit.")}


def import_demkit():
    """Import a fresh copy of demkit from this checkout's ``src``."""
    for name in demkit_modules():
        del sys.modules[name]
    demkit = importlib.import_module("demkit")
    importlib.import_module("demkit.cli")
    where = os.path.dirname(os.path.abspath(demkit.__file__))
    if where != os.path.join(SRC, "demkit"):
        raise ImportError(f"demkit was imported from {where}, not from {SRC}")
    return demkit


def run_dir(workload: str, seed: int) -> str:
    """Where this run's set-ups write their corpora; removed when it ends."""
    return os.path.join(WORK, f"{workload}-seed{seed}-pid{os.getpid()}")


def set_up_once(workload: str, seed: int, tiny: bool, rep: int, meter):
    """One timed set-up: import demkit afresh and build the corpus; then,
    untimed, write its files into a new directory.  Returns demkit, the
    calls and (seconds, host-speed factor measured just before)."""
    directory = os.path.join(run_dir(workload, seed), str(rep))
    meter.refresh()
    scale = meter.scale()
    t0 = time.perf_counter()
    demkit = import_demkit()
    calls, files = corpus.BUILDERS[workload](demkit, directory, seed, tiny)
    seconds = time.perf_counter() - t0
    corpus.write_files(files)
    return demkit, calls, (seconds, scale)


class SetUps:
    """The run's timed set-ups, each as (seconds, host-speed factor).  The
    first builds the corpus that is measured, after the benchmark's own
    preparation (``corpus.prepare``, untimed).  ``again()`` makes one more
    once SETUP_EVERY seconds have passed since the last, so that ``setup_s``
    samples the host over the whole run, as the passes do.  The measured
    demkit is put back into ``sys.modules`` afterwards.  The files stay until
    the run ends: deleting them now would, on a file system mounted with
    ``discard``, trim their blocks while later set-ups write."""

    def __init__(self, workload: str, seed: int, tiny: bool, meter):
        self.args = (workload, seed, tiny)
        self.meter = meter
        self.times: list = []
        self.last = time.perf_counter()

    def _once(self):
        workload, seed, tiny = self.args
        demkit, calls, timed = set_up_once(workload, seed, tiny, len(self.times), self.meter)
        self.times.append(timed)
        self.last = time.perf_counter()
        return demkit, calls

    def first(self):
        workload, seed, tiny = self.args
        corpus.prepare(import_demkit(), workload, seed, tiny)
        return self._once()

    def again(self) -> float:
        """One more set-up if it is due.  Returns the seconds spent, which
        the caller leaves out of its pass."""
        now = time.perf_counter()
        if now - self.last < SETUP_EVERY:
            return 0.0
        measured = demkit_modules()
        self._once()
        for name in demkit_modules():
            del sys.modules[name]
        sys.modules.update(measured)
        gc.collect()  # the replaced demkit is not collected inside a timed call
        self.last = time.perf_counter()
        return self.last - now


def invoke(main, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a bad flag this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a call that raises is a failed call; the run goes on
        return Outcome(time.perf_counter() - t0, None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(time.perf_counter() - t0, code, out.getvalue())


def plain_pass(demkit, calls, setups, meter):
    """One untraced pass.  Between two calls the host's speed is read when it
    is due (``speed.Meter``) and a further set-up made when it is due
    (``SetUps``); neither is part of the pass time.  A call's speed factor
    is the mean of the readings before and after it.  Returns the pass time,
    the outcomes and the factors."""
    gc.collect()  # garbage of the set-up and earlier passes is not collected inside a pass
    gc.freeze()  # nor are the benchmark's own objects scanned by demkit's collections
    outcomes, readings, paused = [], [], 0.0
    t0 = time.perf_counter()
    for c in calls:
        paused += meter.tick()
        readings.append(meter.scale())
        outcomes.append(invoke(demkit.cli.main, c.argv))
        paused += setups.again()
    wall = time.perf_counter() - t0 - paused
    meter.tick(force=True)
    readings.append(meter.scale())
    return wall, outcomes, [(a + b) / 2 for a, b in zip(readings, readings[1:])]


def traced_pass(demkit, workload: str, calls):
    """CLI calls in spans, each followed by its layer calls.  Returns the
    summed CLI-call time (span bookkeeping included), the outcomes, the spans
    and the counters."""
    rec = layers.Recorder()
    counts = layers.new_counts()
    gc.collect()
    gc.freeze()
    cli_seconds = 0.0
    outcomes = []
    for call in calls:
        t0 = time.perf_counter()
        span = rec.open("cli.main", None, call.id)
        outcome = invoke(demkit.cli.main, call.argv)
        rec.close(span, outcome.error and outcome.error.split(":")[0])
        cli_seconds += time.perf_counter() - t0
        outcomes.append(outcome)
        layers.trace_layers(demkit, workload, call, rec, span, counts)
    return cli_seconds, outcomes, rec.spans, counts


def tail_percentile(samples, pct: int = 90):
    """The pct-th percentile (nearest rank), lowered until TAIL samples lie
    beyond it.  Returns (value, percentile used, samples beyond)."""
    xs = sorted(samples)
    n = len(xs)
    while pct > 50 and n - math.ceil(pct / 100 * n) < TAIL:
        pct -= 1
    k = max(1, math.ceil(pct / 100 * n))
    return xs[k - 1], pct, n - k


def dem_figures(calls, outcomes) -> dict:
    """bb_nodes and exact_frac over the ``dem`` calls of one pass."""
    nodes, dem_calls, exact = 0, 0, 0
    for call, o in zip(calls, outcomes):
        res = None
        if call.argv[0] == "dem" and o.error is None and o.code in (0, 4) and o.stdout:
            res = json.loads(o.stdout)["results"]["exact"]
            nodes += res["stats"]["nodes"]
        if call.kind == "dem":
            dem_calls += 1
            exact += bool(res and res["exact"])
    return {
        "bb_nodes": nodes,
        "exact_frac": exact / dem_calls if dem_calls else 0.0,
        "dem_calls": dem_calls,
    }


def measure(demkit, workload: str, calls, seconds: float, trace: bool, setups, meter) -> dict:
    """Passes while another one fits into ``seconds``; ``setups`` and
    ``meter`` are handed to the untraced passes."""
    start = time.perf_counter()
    plain = [plain_pass(demkit, calls, setups, meter)]
    traced = []
    while True:
        runs = traced if trace else plain
        elapsed = time.perf_counter() - start
        if (trace and not traced) or elapsed + statistics.mean(r[0] for r in runs) <= seconds:
            runs.append(traced_pass(demkit, workload, calls) if trace else plain_pass(demkit, calls, setups, meter))
        else:
            break
    return {
        "plain": plain,
        "traced": traced,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def consistency(calls, runs) -> list:
    """Every pass must give the first pass's exit codes and stdout."""
    first = runs[0]
    problems = []
    for later in runs[1:]:
        for call, a, b in zip(calls, first, later):
            if (a.code, a.error is None, a.stdout) != (b.code, b.error is None, b.stdout):
                problems.append(f"{call.id}: answer differs between passes")
    return problems


def end_to_end(m: dict, setup_times) -> tuple:
    """End-to-end times at the reference speed (``speed.py``): each call's
    time is multiplied by the mean of the host-speed factors read just before
    and just after it, each set-up's by the factor read just before it.  Latency percentiles take one sample per corpus call, the
    median of its scaled timings over the passes, so they do not move with
    the number of passes.  ``corpus_s`` is the median over passes of a
    pass's summed scaled call times, failed calls included."""
    scaled = [[o.seconds * k for o, k in zip(outs, scales)] for _, outs, scales in m["plain"]]
    latencies = [statistics.median(t) * 1000.0 for t in zip(*scaled)]
    raw = [statistics.median(o.seconds for o in t) * 1000.0 for t in zip(*[p[1] for p in m["plain"]])]
    p90, pct, beyond = tail_percentile(latencies)
    metrics = {
        "corpus_s": statistics.median(sum(p) for p in scaled),
        "call_ms_p50": statistics.median(latencies),
        "call_ms_p90": p90,
        "peak_rss_mb": m["peak_rss_mb"],
        "setup_s": statistics.median(t * k for t, k in setup_times),
    }
    passes = len(scaled)
    notes = {
        "corpus_s": f"median of {passes} pass(es); raw {statistics.median(p[0] for p in m['plain']):.4g} s",
        "call_ms_p50": f"{len(latencies)} samples (calls), median of {passes} each; raw {statistics.median(raw):.4g} ms",
        "call_ms_p90": f"p{pct}, {beyond} samples beyond; raw {tail_percentile(raw, pct)[0]:.4g} ms",
        "setup_s": f"median of {len(setup_times)} set-ups; raw {statistics.median(t for t, _ in setup_times):.4g} s",
    }
    return metrics, notes, {"percentile": pct, "samples": len(latencies), "beyond": beyond}


def per_layer(calls, m: dict) -> dict:
    rows = [layers.per_layer(calls, spans, counts) for _, _, spans, counts in m["traced"]]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    traced_cli = statistics.median(cli for cli, _, _, _ in m["traced"])
    out["trace.corpus_s"] = traced_cli
    out["trace.overhead_s"] = traced_cli - statistics.median(p[0] for p in m["plain"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few small instances (smoke test)")
    ap.add_argument("--write-refs", action="store_true",
                    help="record the answers of this run as the references")
    args = ap.parse_args(argv)
    trace = bool(args.trace)

    os.environ.pop("DEMKIT_THREADS", None)  # a leftover setting must not change results
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    meter = speed.Meter()
    setups = SetUps(args.workload, args.seed, args.tiny, meter)
    try:
        try:
            demkit, calls = setups.first()
        except ImportError as exc:
            print(f"perfbench: cannot import demkit from {SRC}: {exc}", file=sys.stderr)
            return 2
        m = measure(demkit, args.workload, calls, args.seconds, trace, setups, meter)
        first = m["plain"][0][1]
        problems = consistency(calls, [p[1] for p in m["plain"]] + [t[1] for t in m["traced"]])
        use_refs = args.seed == check.DEFAULT_SEED and not args.tiny and not args.write_refs
        refs = check.load_refs(args.workload) if use_refs else None
        problems += check.check_answers(demkit, calls, first, refs)
        if args.write_refs:
            check.write_refs(args.workload, args.seed, {
                c.id: check.digest(check.pinned(c, o.code, o.stdout))
                for c, o in zip(calls, first)
                if not o.failed(c) and check.referable(c, o.code, o.stdout)
            })
    finally:
        shutil.rmtree(run_dir(args.workload, args.seed), ignore_errors=True)

    all_runs = [(c, o) for p in m["plain"] for c, o in zip(calls, p[1])]
    all_runs += [(c, o) for t in m["traced"] for c, o in zip(calls, t[1])]
    attempted = len(all_runs)
    failed = sum(o.failed(c) for c, o in all_runs)
    failures = sorted({f"{c.id}: {o.error or f'exit {o.code}'}" for c, o in all_runs if o.failed(c)})

    e2e, notes, tail = end_to_end(m, setups.times)
    figures = dem_figures(calls, first)
    plain_calls = len(calls) * len(m["plain"])
    plain_failed = sum(o.failed(c) for p in m["plain"] for c, o in zip(calls, p[1]))
    extra = {
        "bb_nodes": figures["bb_nodes"],
        "exact_frac": figures["exact_frac"],
        "failed_frac": plain_failed / plain_calls,
    }
    notes["exact_frac"] = f"base {figures['dem_calls']} dem calls"
    notes["failed_frac"] = f"base {plain_calls} calls"
    reported = dict(per_layer(calls, m), **extra) if trace else e2e
    table = dict(e2e, **extra)
    if trace:
        table.update(reported)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "passes": len(m["plain"]) + len(m["traced"]),
        "calls_per_pass": len(calls),
        "measured_s": m["measured_s"],
        "pass_s": [p[0] for p in m["plain"]] + [t[0] for t in m["traced"]],
        "setup_s_each": setups.times,
        "speed_ref_ms": speed.REF_MS,
        "speed_kernel_ms": meter.samples,
        "tail": tail,
        "dem_calls": figures["dem_calls"],
    }
    print(" ".join(f"{k}={info[k]}" for k in ("workload", "seed", "trace", "nproc", "python", "passes", "calls_per_pass")))
    for name, value in table.items():
        print(f"  {name:26s} {value:>14.6g} {unit_of(name):6s} {notes.get(name, '')}")
    print(f"  failed calls: {len(failures)} distinct")
    for line in failures:
        print(f"    {line}")
    for line in problems:
        print(f"  WRONG {line}")

    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fp:
        instances = layers.by_instance(m["traced"][-1][2]) if trace else {}
        json.dump(dict(info, metrics=table, notes=notes, failures=failures, problems=problems,
                       instances=instances), fp, indent=1)
    if trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fp:
            json.dump([[vars(s) for s in t[2]] for t in m["traced"]], fp)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in reported.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
