#!/usr/bin/env python3
"""Time the polynomial-time twist detector across the named bases, under
random relabelings, phase by phase, and print verdict agreement with the
construction.

    python3 scripts/time_distinguisher.py                        # every base but grid100
    python3 scripts/time_distinguisher.py --base grid100 --repeats 3

Each line gives the median over the repeats of the seconds spent building
the adjacency sets, in the short-cycle classes step, in the rest of
``decompose`` and in ``orientation_parity``, the whole call's seconds
(adjacency included) and the number of bidirectional BFS runs of the classes
step.  Bases of maximum degree <= 2 spend nothing in the three phases.
"""

import argparse
import random
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
    # the 10^5-vertex target: 157,608 vertices, about 6 s a run
    "grid100": bg.grid(100, 100),
}
PHASES = ("adjacency", "short_cycle_classes", "decompose", "orientation_parity")


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
    parser.add_argument("--base", nargs="+", choices=BASES, default=[b for b in BASES if b != "grid100"])
    args = parser.parse_args()
    rng = random.Random(args.seed)

    spent = Counter()
    for name in PHASES[1:]:
        setattr(distinguisher, name, _timed(name, getattr(distinguisher, name), spent))
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
                g = c.graph.relabel(perm)
                spent.clear()
                t0 = time.perf_counter()
                g.adjacency
                spent["adjacency"] = time.perf_counter() - t0
                verdict = distinguisher.distinguish(g)
                spent["total"] = time.perf_counter() - t0
                spent["decompose"] -= spent["short_cycle_classes"]  # the rest of decompose
                runs.append(dict(spent))
                ok = ok and (verdict.twisted == twisted)
            med = {k: statistics.median(r.get(k, 0) for r in runs) for k in ("total", "bfs", *PHASES)}
            label = "twisted " if twisted else "original"
            print(f"{name:11s} {label} n={c.n:6d}  ok={ok}  total={med['total']:7.3f} s  "
                  f"adjacency={med['adjacency']:.3f}  classes={med['short_cycle_classes']:.3f}  "
                  f"decompose_rest={med['decompose']:.3f}  parity={med['orientation_parity']:.3f}  "
                  f"bfs_runs={med['bfs']:.0f}")


if __name__ == "__main__":
    main()
