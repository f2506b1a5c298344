"""One benchmark process: import the package, build a workload's inputs, then
run whole passes of its operations as a closed loop with one operation in
flight, checking every output.  The last line on stdout is a JSON object.

``run.py`` starts this file with one BLAS/OpenMP thread, a fixed
PYTHONHASHSEED and the repository's ``src`` on PYTHONPATH; it is not meant to
be started by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing

# a pass needs this many operations beyond its tail percentile
TAIL_BEYOND = 10
MIN_OPS = 40


def tail(times: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    return sorted(times)[len(times) - TAIL_BEYOND - 1]


class Pass:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.failed = 0
        self.wrong: list[str] = []


def run_op(op, out: Pass, tracer: tracing.Tracer | None = None) -> None:
    """Time one operation, then count it as failed or check its output."""
    if tracer is not None:
        root = tracer.open("bench.op")
    error = result = None
    t = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an engine fault is counted, not fatal
        error = exc
    out.times.append(time.perf_counter() - t)
    if tracer is not None:
        tracer.close(root)
    captured = tracer.captured if tracer is not None else {}
    if op.expect is not None:
        if not isinstance(error, op.expect):
            out.failed += 1
    elif error is not None:
        out.failed += 1
        print(f"perfbench: {op.name} raised {error!r}", file=sys.stderr)
    else:
        try:
            op.check(result, captured)
        except checks.CheckFailure as exc:
            out.wrong.append(f"{op.name}: {exc}")
    captured.clear()


def run_pass(ops, tracer: tracing.Tracer | None = None,
             pass_no: int = 0) -> tuple[Pass, Pass | None]:
    """One pass over every operation.  With a tracer, each operation runs
    untraced and then traced, so that the two timings are taken back to back."""
    plain = Pass()
    traced = Pass() if tracer is not None else None
    for i, op in enumerate(ops):
        run_op(op, plain)
        if tracer is not None:
            tracer.install()
            tracer.op = (pass_no, i)
            try:
                run_op(op, traced, tracer)
            finally:
                tracer.uninstall()
    return plain, traced


def schedule(seconds: float, step) -> list:
    """Run ``step`` again and again until ``seconds`` have passed; the last
    step may end after that, so every step is whole."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        gc.collect()
        results.append(step(len(results)))
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    t0 = time.perf_counter()
    import cfigraphs  # noqa: F401  (part of the timed set-up)
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    import workloads
    ops = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if len(ops) < MIN_OPS:
        raise SystemExit(f"a pass has {len(ops)} operations, fewer than {MIN_OPS}")

    if tracer is None:
        passes = [p for p, _ in schedule(args.seconds, lambda k: run_pass(ops))]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(sum(p.times) for p in passes), "s"),
            "latency_p50_ms": (1e3 * statistics.median(
                statistics.median(p.times) for p in passes), "ms"),
            "latency_tail_ms": (1e3 * statistics.median(tail(p.times) for p in passes), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer.uninstall()
        setup_spans = len(tracer.spans)
        # an untimed pass first, so that neither side of a pair pays for
        # caches the inputs fill on first use
        start = time.perf_counter()
        warm, _ = run_pass(ops)
        pairs = schedule(args.seconds - (time.perf_counter() - start),
                         lambda k: run_pass(ops, tracer, k))
        passes = [warm] + [p for two in pairs for p in two]
        metrics = trace_metrics(args, tracer, setup_spans, pairs)

    result = {
        "attempted": len(ops) * len(passes),
        "failed": sum(p.failed for p in passes),
        "wrong": [w for p in passes for w in p.wrong],
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def trace_metrics(args, tracer: tracing.Tracer, setup_spans: int, pairs) -> dict:
    spans = tracer.spans
    by_op: dict[int, list[int]] = {}
    for i, s in enumerate(spans[setup_spans:], start=setup_spans):
        by_op.setdefault(s[tracing.OP][0], []).append(i)
    traced_ids = [by_op.get(k, []) for k in range(len(pairs))]
    values = tracing.layer_metrics(spans, list(range(setup_spans)), traced_ids)
    plain = [sum(p.times) for p, _ in pairs]
    traced = [sum(t.times) for _, t in pairs]
    overhead = statistics.median(t - p for p, t in zip(plain, traced))
    self_times = [tracing.layer_self_times(spans, ids) for ids in traced_ids]
    self_sums = [sum(d.values()) for d in self_times]
    summary = {
        "workload": args.workload, "seed": args.seed,
        "untraced_pass_s": plain, "traced_pass_s": traced, "overhead_s": overhead,
        "layer_self_s": self_times, "layer_self_sum_s": self_sums,
        "metrics": values,
    }
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    tracing.write_spans(path, spans, summary)
    print(f"perfbench: {len(spans)} spans in {path}; first traced pass: layer self times "
          f"add up to {self_sums[0]:.4f} s, traced {traced[0]:.4f} s, untraced "
          f"{plain[0]:.4f} s; overhead {overhead:+.4f} s (median over {len(pairs)} passes)",
          file=sys.stderr)
    metrics = {name: (values[name], unit) for name, (unit, _) in tracing.LAYER_METRICS.items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
