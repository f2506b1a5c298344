"""Benchmark of the cfigraphs engines.

Run from the repository root:

    python3 perfbench/run.py --workload distinguish --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload refine --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --compare --workload oracles --runs 5 --seconds 30

The timed mode (``--trace 0``) prints the end-to-end metrics; the traced mode
(``--trace 1``) prints the per-layer metrics and writes every span to
``perfbench/out/``.  ``--compare`` runs two sets of timed runs and prints,
for each metric, the gap between the set medians next to its bound in
``BENCHMARK.json``.  The last line of a timed or traced run is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # fresh processes whose set-up times give the median
DEADLINE_S = 170  # a run must end within 180 s

PINNED_ENV = {
    # one BLAS/OpenMP thread: numpy's import otherwise starts one pool thread
    # per core, and its start-up time depends on what else the machine runs
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


def call(cmd: list[str], env: dict, deadline: float) -> dict:
    """Run a child to completion and parse the JSON on its last stdout line."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd[1:3])} printed nothing")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    src = Path.cwd() / "src"
    if not (src / "cfigraphs" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cfigraphs package under {src}; run from the repository root")
    env = worker_env(src)
    # untimed import: byte-compiles the package and brings its files and
    # numpy's into the page cache before any set-up is timed
    subprocess.run([sys.executable, "-c", "import numpy, cfigraphs"], env=env, check=True,
                   timeout=60)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
              "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(call(worker + ["--setup-only"], env, deadline)["setup_s"])
    result = call(worker, env, deadline)
    metrics = result["metrics"]
    if not trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    for line in result["wrong"]:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    print(f"perfbench: {workload} seed {seed}: {result['passes']} passes of "
          f"{result['ops_per_pass']} operations", file=sys.stderr)
    return {"correct": not result["wrong"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(workload: str, runs: int, seconds: float, seed: int) -> int:
    """Two sets of timed runs on the same seeds, alternating between the sets."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    sets: tuple[list[dict], list[dict]] = ([], [])
    for i in range(runs):
        for side in (0, 1):
            res = run_once(workload, seed + i, seconds, 0)
            sets[side].append(res)
            print(f"set {'AB'[side]} seed {seed + i}: " + json.dumps(res), file=sys.stderr)
    print(f"{workload}: {runs} runs per set, {seconds} s each")
    print(f"{'metric':18s} {'median A':>12s} {'median B':>12s} {'B worse by':>10s} "
          f"{'bound':>6s} {'spread A':>9s} {'spread B':>9s}")
    ok = True
    for name, spec in specs.items():
        a = [r["metrics"][name]["value"] for r in sets[0]]
        b = [r["metrics"][name]["value"] for r in sets[1]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        within = worse <= spec["bound"] and (name == "setup_s" or max(sa, sb) <= spec["bound"])
        ok = ok and within
        print(f"{name:18s} {ma:12.5g} {mb:12.5g} {worse:+10.3f} {spec['bound']:6.2f} "
              f"{sa:9.3f} {sb:9.3f}{'' if within else '  OUT OF BOUND'}")
    shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
    print(f"failed share: set A {sorted(shares[0])}, set B {sorted(shares[1])}")
    print(f"correct: {all(r['correct'] for s in sets for r in s)}")
    return 0 if ok and shares[0] == shares[1] and len(shares[0]) == 1 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("distinguish", "refine", "oracles"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", action="store_true",
                        help="run two sets of timed runs and compare their medians")
    parser.add_argument("--runs", type=int, default=5, help="runs per set with --compare")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(args.workload, args.runs, args.seconds, args.seed)
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
