#!/usr/bin/env python3
"""Run every workload, untraced and traced, and write one results file.

    python3 perfbench/baseline.py --label <commit> --out perfbench/results/BENCH_<name>.json

Each run is its own process, started without DEMKIT_THREADS in its
environment, so peak memory is per workload and a leftover setting cannot
change results.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import check  # noqa: E402
import corpus  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit id")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    env = {k: v for k, v in os.environ.items() if k != "DEMKIT_THREADS"}
    runs = {}
    ok = True
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            ok = ok and proc.returncode == 0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            details = os.path.join(HERE, ".work", f"{workload}-seed{args.seed}-trace{trace}.json")
            with open(details, encoding="utf-8") as fp:
                runs[f"{workload}/trace{trace}"] = {"result": result, "details": json.load(fp)}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump({"label": args.label, "seed": args.seed, "seconds": args.seconds, "runs": runs},
                  fp, indent=1, sort_keys=True)
        fp.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
