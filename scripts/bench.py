#!/usr/bin/env python3
"""Run the perfbench benchmark on several seeds and write BENCH_<label>.json.

    python3 scripts/bench.py --workload oracles --runs 5 --seed 101 --label oracles

Each run is one ``perfbench/run.py --workload W --seed S`` process, on seeds
S, S+1, ...  The file, written at the repository root, holds every metric's
unit, median, quartiles and per-run values, the operations attempted and
failed, the core count, the Python and numpy versions and the commit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("distinguish", "refine", "oracles"))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--label", help="file label (default: the workload)")
    args = parser.parse_args()

    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)

    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {"unit": first["unit"], "median": statistics.median(values),
                         "q1": q1, "q3": q3, "runs": values}
    record = {
        "workload": args.workload, "seeds": [args.seed, args.seed + args.runs - 1],
        "correct": all(r["correct"] for r in runs),
        "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
        "metrics": metrics,
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "commit": git("rev-parse", "HEAD").stdout.strip(),
        "uncommitted_changes": git("diff", "--quiet", "HEAD").returncode != 0,
    }
    out = ROOT / f"BENCH_{args.label or args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
