"""Smoke test of the benchmark on a tiny corpus.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    SPEC = json.load(_fp)


def _run(workload: str, trace: int, cwd: str = ROOT):
    argv = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(argv + ["--tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines[:-1])


def test_checker_rejects_a_dropped_monitor(tmp_path):
    demkit = run.import_demkit()
    calls, files = corpus.search(demkit, str(tmp_path), 7, tiny=True)
    corpus.write_files(files)
    call = next(c for c in calls if c.id.startswith("rand"))
    outcome = run.invoke(demkit.cli.main, call.argv)
    assert outcome.code == 0
    assert check.check_answers(demkit, [call], [outcome], None) == []

    report = json.loads(outcome.stdout)
    report["results"]["exact"]["monitor_set"].pop()
    report["results"]["exact"]["value"] -= 1
    corrupted = run.Outcome(outcome.seconds, 0, json.dumps(report))
    problems = check.check_answers(demkit, [call], [corrupted], None)
    assert any("not monitored" in p for p in problems), problems


def test_checker_rejects_a_changed_reference(tmp_path):
    demkit = run.import_demkit()
    calls, files = corpus.search(demkit, str(tmp_path), 7, tiny=True)
    corpus.write_files(files)
    call = next(c for c in calls if c.id.startswith("K"))
    outcome = run.invoke(demkit.cli.main, call.argv)
    refs = {call.id: check.digest(check.pinned(call, outcome.code, outcome.stdout))}
    assert check.check_answers(demkit, [call], [outcome], refs) == []

    report = json.loads(outcome.stdout)
    report["results"]["exact"]["stats"]["nodes"] += 1  # a faster search still matches
    searched = run.Outcome(outcome.seconds, 0, json.dumps(report))
    assert check.check_answers(demkit, [call], [searched], refs) == []

    refs[call.id] = check.digest("another answer")
    assert check.check_answers(demkit, [call], [outcome], refs) == [f"{call.id}: answer differs from the reference"]
    gave_up = run.Outcome(outcome.seconds, 4, outcome.stdout)
    assert check.check_answers(demkit, [call], [gave_up], refs) == [
        f"{call.id}: the reference answer is no longer given"
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns(".work"))
    proc = _run("search", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_scaled_to_the_reference_speed():
    outs = [run.Outcome(0.010, 0, ""), run.Outcome(0.030, 0, "")]
    m = {"plain": [(0.04, outs, [2.0, 0.5]), (0.04, outs, [2.0, 0.5])], "peak_rss_mb": 1.0}
    metrics, _, _ = run.end_to_end(m, [(0.2, 0.5), (0.1, 2.0), (0.3, 1.0)])
    assert metrics["corpus_s"] == pytest.approx(0.010 * 2.0 + 0.030 * 0.5)
    assert metrics["call_ms_p50"] == pytest.approx(17.5)
    assert metrics["setup_s"] == pytest.approx(0.2)
    meter = run.speed.Meter()
    meter.refresh()
    assert len(meter.samples) == run.speed.RECENT and meter.scale() > 0
