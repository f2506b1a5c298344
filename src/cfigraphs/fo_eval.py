"""Semantic evaluation of the first-order predicates that recover the hidden
coloring of an uncolored CFI graph whose base has minimum degree 3.

The predicates are evaluated as graph algorithms whose structure mirrors the
defining formulas:

  gadget(x,y)   := x = y, or x and y lie on a common cycle of length <= 8
  link(x)       := exists y: not gadget(x,y) and E(x,y)
  middle(x)     := not link(x)
  twin(x,y)     := link(x) and link(y) and gadget(x,y)
                   and forall z: (gadget(z,x) and middle(z))
                                 -> (E(x,z) <-> not E(y,z))
  same-color(x,y) := x = y, or twin(x,y),
                     or (gadget(x,y) and middle(x) and middle(y))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .base_graph import BaseGraph
from .cfi import CfiVertex, Link, build_cfi, build_tilde
from .distinguisher import short_cycle_pair_rows


@dataclass(frozen=True)
class PredicateTable:
    """Boolean tables for the color-recovery predicates; rows are bitmasks."""

    n: int
    gadget: tuple[int, ...]
    link: tuple[bool, ...]
    twin: tuple[int, ...]
    same_color: tuple[int, ...]

    def gadget_pred(self, x: int, y: int) -> bool:
        return bool((self.gadget[x] >> y) & 1)

    def link_pred(self, x: int) -> bool:
        return self.link[x]

    def middle_pred(self, x: int) -> bool:
        return not self.link[x]

    def twin_pred(self, x: int, y: int) -> bool:
        return bool((self.twin[x] >> y) & 1)

    def same_color_pred(self, x: int, y: int) -> bool:
        return bool((self.same_color[x] >> y) & 1)


def build_predicate_table(g: BaseGraph) -> PredicateTable:
    n = g.n
    adj = g.adjacency_bits
    gadget = list(short_cycle_pair_rows(g))
    for x in range(n):
        gadget[x] |= 1 << x  # x = y disjunct

    # link(x): exists y with not gadget(x,y) and Exy
    link = tuple(bool(adj[x] & ~gadget[x]) for x in range(n))
    middle_mask = sum(1 << x for x in range(n) if not link[x])

    twin = [0] * n
    for x in range(n):
        if not link[x]:
            continue
        zs = gadget[x] & middle_mask & ~(1 << x)  # gadget(z,x) and middle(z)
        for y in range(n):
            if y == x or not link[y]:
                continue
            if not (gadget[x] >> y) & 1:
                continue
            # forall z in zs: Exz <-> not Eyz
            if (adj[x] ^ adj[y]) & zs == zs:
                twin[x] |= 1 << y

    same = [0] * n
    for x in range(n):
        row = twin[x] | (1 << x)
        if not link[x]:
            row |= gadget[x] & middle_mask
        same[x] = row
    return PredicateTable(n, tuple(gadget), link, tuple(twin), tuple(same))


def check_same_color(base: BaseGraph) -> bool:
    """Whether the recovered same-color relation matches the real coloring on
    both the original and the twisted CFI graph of the base.

    Only defined when every base vertex has degree at least 3; below that the
    short-cycle reading of gadget membership breaks down.
    """
    if base.min_degree() < 3:
        raise ValueError("same-color recovery needs minimum base degree 3")
    for build in (build_cfi, build_tilde):
        uncolored = build(base, False)
        colored = build(base, True)
        table = build_predicate_table(uncolored.graph)
        colors = colored.colors
        for x in range(uncolored.n):
            for y in range(uncolored.n):
                if table.same_color_pred(x, y) != (colors[x] == colors[y]):
                    return False
    return True


def same_color_class_count(base: BaseGraph) -> tuple[int, int]:
    """(number of recovered same-color classes, expected count): one class per
    gadget's middle set plus one per twin pair."""
    if base.min_degree() < 3:
        raise ValueError("same-color recovery needs minimum base degree 3")
    g = build_cfi(base, False).graph
    table = build_predicate_table(g)
    classes = {table.same_color[x] for x in range(g.n)}
    expected = base.n + sum(base.degree(u) for u in range(base.n))
    return len(classes), expected


def predicate_agreement(vertices: Sequence[CfiVertex], table: PredicateTable) -> dict:
    """Agreement counts of each predicate table against the construction's
    vertex metadata, given in vertex order."""
    n = len(vertices)
    truth_link = [isinstance(x, Link) for x in vertices]
    truth_gadget = [x.u for x in vertices]
    counts = {}
    agree = sum(truth_link[x] == table.link_pred(x) for x in range(n))
    counts["link"] = {"agree": agree, "total": n}
    counts["middle"] = {"agree": agree, "total": n}
    g_agree = t_agree = s_agree = 0
    for x in range(n):
        vx = vertices[x]
        for y in range(n):
            vy = vertices[y]
            same_gadget = truth_gadget[x] == truth_gadget[y]
            g_agree += table.gadget_pred(x, y) == same_gadget
            is_twin = (
                isinstance(vx, Link) and isinstance(vy, Link)
                and vx.u == vy.u and vx.v == vy.v and vx.side != vy.side
            )
            t_agree += table.twin_pred(x, y) == is_twin
            same_color = x == y or is_twin or (
                same_gadget and not truth_link[x] and not truth_link[y])
            s_agree += table.same_color_pred(x, y) == same_color
    counts["gadget"] = {"agree": g_agree, "total": n * n}
    counts["twin"] = {"agree": t_agree, "total": n * n}
    counts["same_color"] = {"agree": s_agree, "total": n * n}
    return counts
