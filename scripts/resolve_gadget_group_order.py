#!/usr/bin/env python3
"""Brute-force the automorphism groups of the small gadgets and compare the
two candidate closed forms for the uncolored group order.

The twin-preserving decomposition (flip x link-row permutation, both unique)
predicts d! * 2^(d-1) automorphisms away from the exceptional degrees; the
alternative 2^d * 2^(d-1) reading is refuted by the counts below.
"""

import math
import time

from cfigraphs import gadget, iso


def main() -> None:
    print(f"{'d':>2} {'colored':>8} {'2^(d-1)':>8} {'uncolored':>10} "
          f"{'d!*2^(d-1)':>11} {'2^d*2^(d-1)':>12} {'twin-pres.':>10}")
    for d in range(1, 6):
        gad = gadget.build_gadget(d)
        t0 = time.perf_counter()
        colored = len(iso.automorphisms(gad.graph, gad.colors()))
        full = iso.automorphisms(gad.graph)
        twins = sum(1 for a in full if gadget.classify_map(gad, a).twin_preserving)
        forms = (math.factorial(d) * 2 ** (d - 1), 2 ** d * 2 ** (d - 1))
        print(f"{d:>2} {colored:>8} {2 ** (d - 1):>8} {len(full):>10} "
              f"{forms[0]:>11} {forms[1]:>12} {twins:>10}  ({time.perf_counter() - t0:.2f}s)")
    print()
    print("decomposition-route counts (valid off degrees 1, 2, 4):")
    for d in (3, 5, 6):
        n = len(gadget.automorphisms_by_decomposition(d))
        print(f"  d={d}: {n} = d! * 2^(d-1) = {math.factorial(d) * 2 ** (d - 1)}")


if __name__ == "__main__":
    main()
