#!/usr/bin/env python3
"""Time the polynomial-time twist detector across the named bases, under
random relabelings, phase by phase, and print verdict agreement with the
construction.

    python3 scripts/time_distinguisher.py                        # every base but grid100 and grid250
    python3 scripts/time_distinguisher.py --base grid100 --repeats 3
    python3 scripts/time_distinguisher.py --base grid250 --repeats 1

Each line gives the median over the repeats of the seconds spent in
``relabel`` (before the call), then inside the ``distinguish`` call: building
the adjacency sets (its first step, as after ``read_graph``), the short-cycle
classes step, the rest of ``decompose`` and ``orientation_parity``; then the
whole call's seconds, the number of bidirectional BFS runs of the classes step
and the process's peak RSS so far.  Bases of maximum degree <= 2 spend nothing
in the three middle phases.
"""

import argparse
import random
import resource
import statistics
import time
from collections import Counter

from cfigraphs import base_graph as bg
from cfigraphs import cfi, distinguisher

BASES = {
    "P3": bg.path(3),
    "C5": bg.cycle(5),
    "K4": bg.complete(4),
    "K33": bg.complete_bipartite(3, 3),
    "grid23": bg.grid(2, 3),
    "petersen": bg.petersen(),
    "K6": bg.complete(6),
    "K8": bg.complete(8),
    "grid30": bg.grid(30, 30),
    # long chains of degree-2 gadgets, grown one at a time by the frontier walk
    "C4000+chord": bg.BaseGraph.from_edges(4000, list(bg.cycle(4000).edges) + [(0, 2000)]),
    # the 10^5-vertex target: 157,608 vertices, about 3 s a run
    "grid100": bg.grid(100, 100),
    # just under the input cap: 994,008 vertices
    "grid250": bg.grid(250, 250),
}
PHASES = ("adjacency", "short_cycle_classes", "decompose", "orientation_parity")
LARGE = ("grid100", "grid250")


def _timed(name, fn, spent: Counter):
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[name] += time.perf_counter() - t0
    return wrapper


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--base", nargs="+", choices=BASES, default=[b for b in BASES if b not in LARGE])
    args = parser.parse_args()
    rng = random.Random(args.seed)

    spent = Counter()
    for name in PHASES[1:]:
        setattr(distinguisher, name, _timed(name, getattr(distinguisher, name), spent))
    # distinguish's first step, max_degree, builds the adjacency sets
    bg.BaseGraph.max_degree = _timed("adjacency", bg.BaseGraph.max_degree, spent)
    meet = distinguisher._meet

    def counted_meet(*args):
        spent["bfs"] += 1
        return meet(*args)
    distinguisher._meet = counted_meet

    for name in args.base:
        for twisted in (False, True):
            c = cfi.build_tilde(BASES[name]) if twisted else cfi.build_cfi(BASES[name])
            runs = []
            ok = True
            for _ in range(args.repeats):
                perm = list(range(c.n))
                rng.shuffle(perm)
                spent.clear()
                t0 = time.perf_counter()
                g = c.graph.relabel(perm)
                spent["relabel"] = time.perf_counter() - t0
                t0 = time.perf_counter()
                verdict = distinguisher.distinguish(g)
                spent["total"] = time.perf_counter() - t0
                spent["decompose"] -= spent["short_cycle_classes"]  # the rest of decompose
                runs.append(dict(spent))
                ok = ok and (verdict.twisted == twisted)
            med = {k: statistics.median(r.get(k, 0) for r in runs) for k in ("relabel", "total", "bfs", *PHASES)}
            label = "twisted " if twisted else "original"
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"{name:11s} {label} n={c.n:6d}  ok={ok}  relabel={med['relabel']:.3f}  "
                  f"total={med['total']:7.3f} s  adjacency={med['adjacency']:.3f}  "
                  f"classes={med['short_cycle_classes']:.3f}  decompose_rest={med['decompose']:.3f}  "
                  f"parity={med['orientation_parity']:.3f}  bfs_runs={med['bfs']:.0f}  peak_rss={peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
