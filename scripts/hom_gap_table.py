#!/usr/bin/env python3
"""Print the homomorphism-count gap between the original and twisted CFI
graphs, with the pattern being the 2-subdivision of the base."""

import time

from cfigraphs import base_graph as bg
from cfigraphs import homcount

BASES = {
    "P1": bg.path(1),
    "P2": bg.path(2),
    "P3": bg.path(3),
    "C3": bg.cycle(3),
    "C4": bg.cycle(4),
}


def main() -> None:
    print(f"{'base':>5} {'|V(G2)|':>8} {'hom->Y':>8} {'hom->Ytilde':>12} {'gap':>6}")
    for name, base in BASES.items():
        sub = homcount.subdivide2(base)
        t0 = time.perf_counter()
        a, b = homcount.hom_gap(base)
        seconds = time.perf_counter() - t0
        print(f"{name:>5} {sub.graph.n:>8} {a:>8} {b:>12} {a - b:>6}  ({seconds:.2f}s)")


if __name__ == "__main__":
    main()
