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

gadget(x,y) keeps its pairwise reading: the table enumerates the short
cycles themselves, not the connected components of the short-cycle subgraph
that the distinguisher takes as gadgets.  Every edge of a short cycle passes
``short_cycle_edges``, so enumerating on that subgraph finds the same cycles
without walking across the edges between gadgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base_graph import BaseGraph
from .cfi import CfiVertex, Link, build_cfi, build_tilde
from .distinguisher import short_cycle_edges, short_cycle_pair_rows
from .errors import SizeGuardError

# walks of length <= 7 on the short-cycle subgraph plus the n^2 bits of the
# rows; CFI(K6) needs 7.3e7 (about 1 s), K14 9.5e8 (21 s), CFI(K7) 2.7e9 (97 s)
TABLE_GUARD = 300_000_000


@dataclass(frozen=True)
class PredicateTable:
    """Boolean tables for the color-recovery predicates; rows are bitmasks."""

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


def _walk_count(n: int, edges: Sequence[tuple[int, int]]) -> float:
    """The walks of length 1..7 along the edges from every vertex: a bound on
    the trails ``short_cycles`` extends."""
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = np.r_[ends[:, 0], ends[:, 1]], np.r_[ends[:, 1], ends[:, 0]]
    walks, total = np.ones(n), 0.0
    for _ in range(7):
        walks = np.bincount(dst, weights=walks[src], minlength=n)
        total += walks.sum()
    return total


def build_predicate_table(g: BaseGraph) -> PredicateTable:
    n = g.n
    cycle_edges = tuple(short_cycle_edges(g))
    cost = _walk_count(n, cycle_edges) + n * n
    if cost > TABLE_GUARD:
        raise SizeGuardError(f"predicate table guarded at {TABLE_GUARD:.0e} walks plus row bits; this input has {cost:.1e}")
    adj = g.adjacency_bits
    gadget = short_cycle_pair_rows(BaseGraph(n, cycle_edges))
    for x in range(n):
        gadget[x] |= 1 << x  # x = y disjunct

    # link(x): exists y with not gadget(x,y) and Exy
    link = tuple(bool(adj[x] & ~gadget[x]) for x in range(n))
    middle_mask = sum(1 << x for x in range(n) if not link[x])
    link_mask = ((1 << n) - 1) & ~middle_mask

    twin = [0] * n
    for x in range(n):
        if not link[x]:
            continue
        zs = gadget[x] & middle_mask & ~(1 << x)  # gadget(z,x) and middle(z)
        ys = gadget[x] & link_mask & ~(1 << x)  # y != x, link(y) and gadget(x,y)
        while ys:
            bit = ys & -ys
            ys ^= bit
            # forall z in zs: Exz <-> not Eyz
            if (adj[x] ^ adj[bit.bit_length() - 1]) & zs == zs:
                twin[x] |= bit

    same = [0] * n
    for x in range(n):
        row = twin[x] | (1 << x)
        if not link[x]:
            row |= gadget[x] & middle_mask
        same[x] = row
    return PredicateTable(tuple(gadget), link, tuple(twin), tuple(same))


def check_same_color(base: BaseGraph) -> bool:
    """Whether the recovered same-color relation matches the real coloring on
    both the original and the twisted CFI graph of the base.

    Only defined when every base vertex has degree at least 3; below that the
    short-cycle reading of gadget membership breaks down.
    """
    if base.min_degree() < 3:
        raise ValueError("same-color recovery needs minimum base degree 3")
    for build in (build_cfi, build_tilde):
        c = build(base, True)  # the table reads only the graph, which the colours leave unchanged
        table = build_predicate_table(c.graph)
        class_of: dict[int, int] = {}
        for x, color in enumerate(c.colors):
            class_of[color] = class_of.get(color, 0) | 1 << x
        if any(table.same_color[x] != class_of[color] for x, color in enumerate(c.colors)):
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
    vertex metadata, given in vertex order.  Each pairwise count compares the
    table's row of x with the true row of x: n minus the bits where they differ."""
    n = len(vertices)
    truth_link = [isinstance(x, Link) for x in vertices]
    gadget_of: dict[int, int] = {}   # base vertex -> its vertices
    links_of: dict[tuple, int] = {}  # (u, v, side) -> its links
    for x, vx in enumerate(vertices):
        gadget_of[vx.u] = gadget_of.get(vx.u, 0) | 1 << x
        if truth_link[x]:
            key = (vx.u, vx.v, vx.side)
            links_of[key] = links_of.get(key, 0) | 1 << x
    middle_mask = sum(1 << x for x in range(n) if not truth_link[x])
    g_diff = t_diff = s_diff = 0
    for x, vx in enumerate(vertices):
        gadget = gadget_of[vx.u]
        if truth_link[x]:
            twin = links_of.get((vx.u, vx.v, "b" if vx.side == "a" else "a"), 0)
            same_color = 1 << x | twin
        else:
            twin = 0
            same_color = 1 << x | gadget & middle_mask
        g_diff += (table.gadget[x] ^ gadget).bit_count()
        t_diff += (table.twin[x] ^ twin).bit_count()
        s_diff += (table.same_color[x] ^ same_color).bit_count()
    agree = sum(truth_link[x] == table.link_pred(x) for x in range(n))
    return {
        "link": {"agree": agree, "total": n},
        "middle": {"agree": agree, "total": n},
        "gadget": {"agree": n * n - g_diff, "total": n * n},
        "twin": {"agree": n * n - t_diff, "total": n * n},
        "same_color": {"agree": n * n - s_diff, "total": n * n},
    }
