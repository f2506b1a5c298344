#!/usr/bin/env python3
"""Time the polynomial-time twist detector across the named bases, under
random relabelings, and print verdict agreement with the construction."""

import argparse
import random
import time

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
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    for name, base in BASES.items():
        for twisted in (False, True):
            c = cfi.build_tilde(base) if twisted else cfi.build_cfi(base)
            times = []
            ok = True
            for _ in range(args.repeats):
                perm = list(range(c.n))
                rng.shuffle(perm)
                g = c.graph.relabel(perm)
                t0 = time.perf_counter()
                verdict = distinguisher.distinguish(g)
                times.append(time.perf_counter() - t0)
                ok = ok and (verdict.twisted == twisted)
            label = "twisted " if twisted else "original"
            print(f"{name:11s} {label} n={c.n:5d}  ok={ok}  "
                  f"avg={1e3 * sum(times) / len(times):7.2f} ms  "
                  f"max={1e3 * max(times):7.2f} ms")


if __name__ == "__main__":
    main()
