"""Inputs and operations of the three workloads.

``build(workload, seed)`` generates every input from the seed and returns the
list of operations one pass runs.  An operation calls the package through
module attributes only (``dist.distinguish``, never a name imported from it),
so that spans installed by ``tracing`` see every call.  Each operation carries
a check from ``checks`` that compares its output with how the input was built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from cfigraphs import base_graph as bg
from cfigraphs import cfi, fo_eval, gadget, homcount, iso, treewidth
from cfigraphs import distinguisher as dist
from cfigraphs import equivalence as eqv
from cfigraphs.errors import StructureError

import checks


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # check(result, captured) raises checks.CheckFailure on a wrong output;
    # ``captured`` holds results the tracer intercepted inside the call
    check: Optional[Callable[[object, dict], None]]
    # the operation is right only when it raises this (known-fault inputs)
    expect: Optional[type] = None


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


def random_cubic(n: int, rng: random.Random) -> bg.BaseGraph:
    """A uniformly paired, simple and connected 3-regular graph on n vertices."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                break
            edges.add((min(u, v), max(u, v)))
        else:
            g = bg.BaseGraph.from_edges(n, edges)
            if bg.is_connected(g):
                return g


def _perm(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _scramble(c: cfi.CfiGraph, rng: random.Random) -> list[int]:
    """A random even flip in every gadget, then a random relabelling; entry x is
    the input vertex that construction vertex x becomes."""
    flip = cfi.gadget_flip_map(c, cfi.random_even_flips(c, rng))
    perm = _perm(c.n, rng)
    return [perm[flip[x]] for x in range(c.n)]


def _carry(values, sigma: list[int]):
    """Per-vertex values (colours) re-indexed through the relabelling sigma."""
    if values is None:
        return None
    out = [0] * len(sigma)
    for x, y in enumerate(sigma):
        out[y] = values[x]
    return out


def _relabelled(g: bg.BaseGraph, colors, rng: random.Random):
    """A random relabelling of g, with its colours carried along."""
    sigma = _perm(g.n, rng)
    return g.relabel(sigma), _carry(colors, sigma)


def _variant(c: cfi.CfiGraph) -> str:
    return ("X" if c.colored else "Y") + ("tilde" if len(c.twist) % 2 else "")


# -- distinguish -----------------------------------------------------------------

# (label, base, relabelled copies of the original, of the twisted graph).
# The largest inputs come first in a pass: when K6's 367,680 short cycles
# were enumerated after grid 15x15's, the worker's peak RSS depended on how
# much memory the earlier operations had left behind (89 or 107 MB by seed).
def _distinguish_bases(seed: int):
    return [
        ("K6", bg.complete(6), 0, 1),
        ("grid15x15", bg.grid(15, 15), 1, 0),
        ("cubic500", random_cubic(500, _rng(seed, "cubic500")), 1, 1),
        ("grid8x8", bg.grid(8, 8), 1, 1),
        ("cubic100", random_cubic(100, _rng(seed, "cubic100")), 6, 6),
        ("K5", bg.complete(5), 6, 6),
        ("petersen", bg.petersen(), 2, 2),
        ("C7", bg.cycle(7), 1, 1),
        ("P5", bg.path(5), 1, 1),
    ]


def _distinguish_check(c: cfi.CfiGraph, sigma: list[int]):
    def check(verdict, captured):
        checks.check_verdict(verdict.twisted, len(c.twist))
        checks.check_recovered_base(verdict.base.n, verdict.base.edges, c.base.n, c.base.edges)
        dec = captured.get("distinguisher.decompose")
        if dec is not None:
            owner = [x.u for x in c.vertices]
            checks.check_gadgets([gd.vertices for gd in dec.gadgets], dec.base.edges,
                                 owner, sigma, c.base.n, c.base.edges)
    return check


def _read_and_distinguish(data: bytes):
    return dist.distinguish(bg.read_graph(data)[0])


def build_distinguish(seed: int) -> list[Op]:
    rng = _rng(seed, "distinguish")
    ops = []
    for label, base, originals, twisted in _distinguish_bases(seed):
        for c, copies in ((cfi.build_cfi(base), originals), (cfi.build_tilde(base), twisted)):
            for i in range(copies):
                sigma = _scramble(c, rng)
                data = bg.write_graph(c.graph.relabel(sigma))
                ops.append(Op(f"distinguish/{label}/{_variant(c)}/{i}",
                              lambda data=data: _read_and_distinguish(data),
                              _distinguish_check(c, sigma)))

    table_bases = [("K4", bg.complete(4)), ("K33", bg.complete_bipartite(3, 3)),
                   ("petersen", bg.petersen()), ("K5", bg.complete(5)),
                   ("cubic100", random_cubic(100, _rng(seed, "cubic100")))]
    for label, base in table_bases:
        colors = cfi.build_cfi(base, True).colors
        for c in (cfi.build_cfi(base), cfi.build_tilde(base)):
            sigma = _scramble(c, rng)
            g = c.graph.relabel(sigma)

            def check(table, captured, colors=colors, sigma=sigma):
                checks.check_same_color(table.same_color, colors, sigma)
            ops.append(Op(f"predicate_table/{label}/{_variant(c)}",
                          lambda g=g: fo_eval.build_predicate_table(g), check))

    # Disconnected inputs outside the promise: the right answer is StructureError.
    k4 = bg.complete(4)
    y, yt = cfi.build_cfi(k4).graph, cfi.build_tilde(k4).graph
    for label, (a, b) in (("Y(K4)+Ytilde(K4)", (y, yt)), ("Ytilde(K4)+Ytilde(K4)", (yt, yt))):
        data = bg.write_graph(bg.disjoint_union(a, b))
        ops.append(Op(f"distinguish/{label}", lambda data=data: _read_and_distinguish(data),
                      None, expect=StructureError))
    return ops


# -- refine ----------------------------------------------------------------------

_PAIR_BASES = (
    ("P3", "P", (3,)), ("C5", "C", (5,)), ("K4", "K", (4,)),
    ("K33", "Kab", (3, 3)), ("grid2x3", "grid", (2, 3)),
)
# (base label, colored) pairs small enough for the 4-variable tuple kernel
# and for the 3-variable fixpoint within a pass of a few seconds
_WL3_PAIRS = (("P3", False), ("P3", True), ("C5", True), ("K4", True))
_LK3_PAIRS = (("P3", False), ("P3", True))


class _Pair:
    """A CFI graph against a relabelled copy of another (or the same) graph."""

    def __init__(self, first: cfi.CfiGraph, second: cfi.CfiGraph, rng: random.Random):
        self.g1, self.c1 = first.graph, first.colors
        self.g2, self.c2 = _relabelled(second.graph, second.colors, rng)

    def wl(self, dim: int):
        return eqv.wl_equivalent_report(self.g1, self.g2, dim, self.c1, self.c2)

    def lk(self, k: int):
        return eqv.lk_equivalent_report(self.g1, self.g2, k, self.c1, self.c2)


def _ck_check(tw: int, k: int):
    return lambda report, captured: checks.check_counting_verdict(report.equivalent, tw, k)


def _control_check(result, captured) -> None:
    checks.check_control(getattr(result, "equivalent", result))


def build_refine(seed: int) -> list[Op]:
    rng = _rng(seed, "refine")
    ops = []
    pairs = {}
    originals = {}

    def cfi_pair(label: str, base: bg.BaseGraph, colored: bool) -> _Pair:
        originals[label, colored] = cfi.build_cfi(base, colored)
        return _Pair(originals[label, colored], cfi.build_tilde(base, colored), rng)

    for label, family, params in _PAIR_BASES:
        base = bg.build_family(family, params)
        tw = checks.known_treewidth(family, params)
        for colored in (False, True):
            pair = cfi_pair(label, base, colored)
            pairs[label, colored] = pair, tw
            name = f"{label}/{'X' if colored else 'Y'}"
            for k in (2, 3):
                ops.append(Op(f"wl/{name}/k={k}", lambda p=pair, d=k - 1: p.wl(d),
                              _ck_check(tw, k)))

            def lk2_check(report, captured, tw=tw, path=family == "P" and not colored):
                checks.check_lk_verdict(report.equivalent, tw, 2, path)
            ops.append(Op(f"lk/{name}/k=2", lambda p=pair: p.lk(2), lk2_check))
    for label, colored in _WL3_PAIRS:
        pair, tw = pairs[label, colored]
        ops.append(Op(f"wl/{label}/{'X' if colored else 'Y'}/k=4", lambda p=pair: p.wl(3),
                      _ck_check(tw, 4)))
    for label, colored in _LK3_PAIRS:
        pair, tw = pairs[label, colored]

        def lk3_check(report, captured, tw=tw):
            checks.check_lk_verdict(report.equivalent, tw, 3, False)
        ops.append(Op(f"lk/{label}/{'X' if colored else 'Y'}/k=3", lambda p=pair: p.lk(3),
                      lk3_check))

    # colour refinement at thousands of vertices
    grid = bg.grid(15, 15)
    cubic = random_cubic(500, _rng(seed, "cubic500"))
    for label, base, tw in (("grid15x15", grid, checks.known_treewidth("grid", (15, 15))),
                            ("cubic500", cubic, checks.known_treewidth("rr3"))):
        for colored in (False, True):
            pair = cfi_pair(label, base, colored)
            ops.append(Op(f"wl/{label}/{'X' if colored else 'Y'}/k=2", lambda p=pair: p.wl(1),
                          _ck_check(tw, 2)))

    # isomorphic controls: a graph against a relabelled copy of itself
    for label, colored, name, run in (
        ("grid15x15", False, "k=2", lambda p: p.wl(1)),
        ("cubic500", True, "k=2", lambda p: p.wl(1)),
        ("K4", False, "k=3", lambda p: p.wl(2)),
        ("P3", False, "k=4", lambda p: p.wl(3)),
        ("C5", True, "lk k=2", lambda p: p.lk(2)),
    ):
        c = originals[label, colored]
        ops.append(Op(f"control/{label}/{'X' if colored else 'Y'}/{name}",
                      lambda p=_Pair(c, c, rng), run=run: run(p), _control_check))
    return ops


# -- oracles ---------------------------------------------------------------------


def _fiber_totals(base: bg.BaseGraph) -> tuple[int, int]:
    """Sum over the subdivision's endomorphisms of the GF(2) fiber sizes."""
    sub = homcount.subdivide2(base)
    totals = [0, 0]
    for endo in homcount.enumerate_homomorphisms(sub.graph, sub.graph):
        for i in (0, 1):
            totals[i] += homcount.gf2_count(homcount.build_system(endo, i, base)).count
    return totals[0], totals[1]


def _walk_expectation(base: bg.BaseGraph, family: str, length: int) -> tuple[int, int]:
    """hom(2-subdivision, Y) and hom(2-subdivision, Ytilde) for a path or cycle
    base: walk counts 1^T A^(3L) 1, or closed-walk counts tr(A^(3L))."""
    count = checks.walk_count if family == "P" else checks.closed_walk_count
    return tuple(count(c.n, c.graph.edges, 3 * length)
                 for c in (cfi.build_cfi(base), cfi.build_tilde(base)))


def build_oracles(seed: int) -> list[Op]:
    rng = _rng(seed, "oracles")
    ops = []

    # the bijective pebble game
    for label, family, params in (("P2", "P", (2,)), ("P3", "P", (3,)), ("C3", "C", (3,))):
        base = bg.build_family(family, params)
        tw = checks.known_treewidth(family, params)
        for colored in (True, False):
            y, yt = cfi.build_cfi(base, colored), cfi.build_tilde(base, colored)
            g2, c2 = _relabelled(yt.graph, yt.colors, rng)
            for k in (2, 3):
                ops.append(Op(f"game/{label}/{'X' if colored else 'Y'}/k={k}",
                              lambda y=y, g2=g2, c2=c2, k=k: eqv.ck_equivalent_game(
                                  y.graph, g2, k, y.colors, c2),
                              lambda eq, cap, tw=tw, k=k:
                                  checks.check_counting_verdict(eq, tw, k)))
    y = cfi.build_cfi(bg.path(2))
    g2, _ = _relabelled(y.graph, None, rng)
    ops.append(Op("game/control/P2/Y/k=3",
                  lambda g1=y.graph, g2=g2: eqv.ck_equivalent_game(g1, g2, 3), _control_check))

    # automorphism groups
    def aut_op(name, g, colors, order=None, divisor=None):
        g, colors = _relabelled(g, colors, rng)

        def check(perms, captured):
            checks.check_automorphisms(perms, g.n, g.edges, colors, order, divisor)
        ops.append(Op(name, lambda: iso.automorphisms(g, colors), check))
    for d in range(1, 6):
        gad = gadget.build_gadget(d)
        aut_op(f"automorphisms/gadget{d}/colored", gad.graph, gad.colors(),
               order=checks.gadget_group_order(d, True))
        uncolored_order = checks.gadget_group_order(d, False)
        aut_op(f"automorphisms/gadget{d}/uncolored", gad.graph, None, order=uncolored_order,
               divisor=None if uncolored_order else checks.twin_preserving_order(d))
    c4 = bg.cycle(4)
    aut_op("automorphisms/CFI(C4)/Y", cfi.build_cfi(c4).graph, None,
           order=checks.cycle_union_aut_order([12, 12]))
    x = cfi.build_cfi(c4, True)
    aut_op("automorphisms/CFI(C4)/X", x.graph, x.colors,
           order=checks.colored_cfi_aut_order(c4.n, len(c4.edges)))

    # exhaustive isomorphism: never between Y and Ytilde, always for a planted relabelling
    for label, base in (("P3", bg.path(3)), ("C4", c4), ("K4", bg.complete(4))):
        g1 = cfi.build_cfi(base).graph
        g2, _ = _relabelled(cfi.build_tilde(base).graph, None, rng)
        ops.append(Op(f"find_isomorphism/{label}/Y-Ytilde",
                      lambda g1=g1, g2=g2: iso.find_isomorphism(g1, g2),
                      lambda perm, cap: checks.check_non_isomorphic(perm)))
    planted = [("Y(K4)", cfi.build_cfi(bg.complete(4)).graph, None),
               ("X(C4)", x.graph, x.colors),
               ("gadget5", gadget.build_gadget(5).graph, None),
               ("petersen", bg.petersen(), None)]
    for label, g1, c1 in planted:
        g2, c2 = _relabelled(g1, c1, rng)

        def check(perm, captured, g1=g1, g2=g2, c1=c1, c2=c2):
            checks.check_isomorphism(perm, g1.n, g1.edges, g2.edges, c1, c2)
        ops.append(Op(f"find_isomorphism/{label}/planted",
                      lambda g1=g1, g2=g2, c1=c1, c2=c2: iso.find_isomorphism(g1, g2, c1, c2),
                      check))

    # treewidth and the cops-and-robber game on relabelled family bases
    for label, family, params in (("P3", "P", (3,)), ("C5", "C", (5,)), ("K4", "K", (4,)),
                                  ("K5", "K", (5,)), ("K33", "Kab", (3, 3)),
                                  ("grid2x3", "grid", (2, 3)), ("grid3x4", "grid", (3, 4)),
                                  ("petersen", "petersen", ())):
        g, _ = _relabelled(bg.build_family(family, params), None, rng)
        tw = checks.known_treewidth(family, params)

        def tw_check(result, captured, g=g, tw=tw):
            width, td = result
            checks.check_treewidth(width, td.bags, td.tree_edges, g.n, g.edges, tw)
        ops.append(Op(f"treewidth_exact/{label}", lambda g=g: treewidth.treewidth_exact(g),
                      tw_check))
        for cops in (tw, tw + 1):
            ops.append(Op(f"robber_wins/{label}/{cops}",
                          lambda g=g, cops=cops: treewidth.robber_wins(g, cops),
                          lambda wins, cap, cops=cops, tw=tw:
                              checks.check_robber(wins, cops, tw)))

    # homomorphism counts from the 2-subdivision, and their GF(2) fibers
    gaps: dict[str, tuple[int, int]] = {}
    hom_bases = [("P1", "P", (1,)), ("P2", "P", (2,)), ("P3", "P", (3,)),
                 ("C3", "C", (3,)), ("C4", "C", (4,)), ("K13", "Kab", (1, 3))]
    bases = {}

    def expected_counts(label: str) -> tuple[int, int]:
        base, family, params = bases[label]
        if family in ("P", "C"):
            return _walk_expectation(base, family, params[0])
        # no closed form: the fibers must add up to what hom_gap reported
        # earlier in the same pass
        return gaps.get(label, ())

    for label, family, params in hom_bases:
        base, _ = _relabelled(bg.build_family(family, params), None, rng)
        bases[label] = base, family, params

        def gap_check(gap, captured, label=label, family=family):
            if family in ("P", "C"):
                checks.check_counts(gap, expected_counts(label), f"hom_gap {label}")
            else:
                checks.check_strict_gap(gap)
                gaps[label] = tuple(gap)
        ops.append(Op(f"hom_gap/{label}", lambda base=base: homcount.hom_gap(base), gap_check))
    for label in ("P2", "C3", "K13"):
        def fiber_check(totals, captured, label=label):
            checks.check_counts(totals, expected_counts(label), f"fiber totals {label}")
        ops.append(Op(f"gf2_fibers/{label}", lambda base=bases[label][0]: _fiber_totals(base),
                      fiber_check))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    return {"distinguish": build_distinguish, "refine": build_refine,
            "oracles": build_oracles}[workload](seed)
