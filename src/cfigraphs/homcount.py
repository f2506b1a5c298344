"""Homomorphism counts into CFI graphs via the 2-subdivision of the base.

The 2-subdivision replaces each base edge uv by the path u, w(u,v), w(v,u), v.
Projecting a CFI graph onto it (links to their w vertex, middles to their
base vertex) splits Hom(subdivision, CFI graph) into fibers over the
endomorphisms of the subdivision, and each fiber is the solution set of a
linear system over GF(2).  The twisted companion flips one right-hand side,
which kills the identity fiber and yields a strict homomorphism-count gap.

Both routes run on integer bitmasks: the backtracking search intersects
adjacency rows of the target, and GF(2) elimination XORs equation rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .base_graph import BaseGraph, Edge
from .cfi import CfiGraph, Link, build_cfi, build_tilde
from .errors import SizeGuardError

HOM_PATTERN_GUARD = 14


@dataclass(frozen=True)
class Subdivision2:
    base: BaseGraph
    graph: BaseGraph
    w_index: dict  # (u, v) -> subdivision vertex carrying the u-side of edge uv

    @cached_property
    def w_rank(self) -> tuple[int, ...]:
        """The rank of v among u's sorted neighbors, indexed by w(u,v) - base.n."""
        rank = [0] * (self.graph.n - self.base.n)
        for (u, v), idx in self.w_index.items():
            rank[idx - self.base.n] = self.base.sorted_adjacency[u].index(v)
        return tuple(rank)


@lru_cache(maxsize=8)
def subdivide2(g: BaseGraph) -> Subdivision2:
    """Replace every edge uv by the length-3 path u, w(u,v), w(v,u), v.

    Cached per base: callers share the result and must not mutate it."""
    w_index = {}
    edges = []
    nxt = g.n
    for u, v in g.edges:
        w_index[(u, v)] = nxt
        w_index[(v, u)] = nxt + 1
        edges.extend([(u, nxt), (nxt, nxt + 1), (nxt + 1, v)])
        nxt += 2
    return Subdivision2(g, BaseGraph.from_edges(nxt, edges), w_index)


def is_homomorphism(f: BaseGraph, h: BaseGraph, mapping: Sequence[int]) -> bool:
    return all(h.has_edge(mapping[u], mapping[v]) for u, v in f.edges)


def _hom_search(f: BaseGraph, h: BaseGraph, domains: Optional[Sequence[int]],
                count_only: bool):
    """Backtracking over f's vertices in a connectivity-first order.

    ``domains``, if given, holds a bitmask of allowed images per vertex of f.
    A vertex's candidates are its domain ANDed with the adjacency bitmasks of
    the images of its already placed neighbours, tried in ascending order."""
    if f.n > HOM_PATTERN_GUARD:
        raise SizeGuardError(f"pattern graphs guarded at {HOM_PATTERN_GUARD} vertices")
    order = []
    placed = [False] * f.n
    for start in range(f.n):
        if placed[start]:
            continue
        placed[start] = True
        comp = [start]
        order.append(start)
        i = 0
        while i < len(comp):
            for w in f.sorted_adjacency[comp[i]]:
                if not placed[w]:
                    placed[w] = True
                    comp.append(w)
                    order.append(w)
            i += 1

    adj_h = h.adjacency_bits
    full = (1 << h.n) - 1
    dom = [full] * f.n if domains is None else domains
    position = {v: idx for idx, v in enumerate(order)}
    anchors = [[u for u in f.sorted_adjacency[v] if position[u] < idx]
               for idx, v in enumerate(order)]
    last = f.n - 1
    image = [-1] * f.n
    results: list[tuple[int, ...]] = []
    count = 0

    def extend(idx: int):
        nonlocal count
        v = order[idx]
        cands = dom[v]
        for u in anchors[idx]:
            cands &= adj_h[image[u]]
        if idx == last and count_only:
            count += cands.bit_count()
            return
        while cands:
            low = cands & -cands
            cands ^= low
            image[v] = low.bit_length() - 1
            if idx == last:
                count += 1
                results.append(tuple(image))
            else:
                extend(idx + 1)
        image[v] = -1

    extend(0)
    return count if count_only else results


def hom_count(f: BaseGraph, h: BaseGraph) -> int:
    """Exact |Hom(f, h)| by backtracking."""
    return _hom_search(f, h, None, True)


def enumerate_homomorphisms(f: BaseGraph, h: BaseGraph) -> list[tuple[int, ...]]:
    """Every homomorphism f -> h as an image tuple.  The order is that of the
    backtracking: f's vertices are placed in a connectivity-first order (BFS
    from the lowest unplaced vertex, neighbours ascending) and each takes its
    candidate images in ascending order."""
    return _hom_search(f, h, None, False)


def projection(c: CfiGraph) -> tuple[list[int], Subdivision2]:
    """The homomorphism from a CFI graph onto the base's 2-subdivision:
    a(u,v), b(u,v) -> w(u,v) and every middle of u -> u."""
    sub = subdivide2(c.base)
    p = []
    for x in c.vertices:
        if isinstance(x, Link):
            p.append(sub.w_index[(x.u, x.v)])
        else:
            p.append(x.u)
    if not is_homomorphism(c.graph, sub.graph, p):
        raise AssertionError("projection is not a homomorphism")
    return p, sub


# -- GF(2) systems --------------------------------------------------------------


@dataclass(frozen=True)
class Gf2System:
    """A linear system over GF(2) as bitmask rows: bit j of a row is variable
    j, bit ``nvars`` the row's right-hand side."""

    nvars: int
    rows: tuple[int, ...]

    def __post_init__(self):
        var_bits = (1 << self.nvars) - 1
        used = 0
        for row in self.rows:
            if row >> (self.nvars + 1):
                raise ValueError(f"row sets a bit above nvars = {self.nvars}")
            used |= row
        if used & var_bits != var_bits:
            raise ValueError("every variable must occur in at least one row")


@dataclass(frozen=True)
class Gf2Count:
    count: int
    free_exponent: Optional[int]  # None when inconsistent; else count == 2**free_exponent


def gf2_count(system: Gf2System) -> Gf2Count:
    """Number of solutions: 0 if inconsistent, else 2^(nvars - rank).

    Each row is reduced against pivot rows keyed by their lowest set bit; a
    row that reduces to its right-hand side alone is 0 = 1."""
    var_bits = (1 << system.nvars) - 1
    pivots: dict[int, int] = {}
    for row in system.rows:
        while row & var_bits:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
        else:
            if row:
                return Gf2Count(0, None)
    free = system.nvars - len(pivots)
    return Gf2Count(1 << free, free)


def build_system(g_endo: Sequence[int], i: int, base: BaseGraph,
                 twisted_edge: Optional[Edge] = None) -> Gf2System:
    """The linear system whose solutions are the fiber of g_endo under the
    projection, for the original (i=0) or once-twisted (i=1) CFI graph.

    Variables are numbered in order of alpha over the subdivision vertices:
    an alpha mapped onto a base vertex gets one per neighbor of its image, in
    ascending order (middle membership), and an alpha mapped onto a w vertex
    gets one (the link side).  The rows are the gadget parities, a middle-link
    row x[alpha,u] + x[beta] for each edge alpha-beta mapped onto u-w(u,v),
    and a cross-link row x[alpha] + x[beta] for each edge mapped onto
    w(u,v)-w(v,u), whose right-hand side is 1 only on the twisted edge of i=1.
    """
    if i not in (0, 1):
        raise ValueError("i selects the original (0) or twisted (1) graph")
    sub = subdivide2(base)
    if len(g_endo) != sub.graph.n or not is_homomorphism(sub.graph, sub.graph, g_endo):
        raise ValueError("g_endo is not an endomorphism of the subdivision")
    if twisted_edge is None:
        twisted_edge = base.edges[0]
    twisted_edge = (min(twisted_edge), max(twisted_edge))
    if not base.has_edge(*twisted_edge):
        raise ValueError(f"twisted edge {twisted_edge} is not an edge of the base")
    twisted = base.edges.index(twisted_edge) if i else -1
    n, w_rank = base.n, sub.w_rank

    first = []  # each alpha's first variable
    rows = []
    nvars = 0
    for img in g_endo:
        first.append(nvars)
        if img < n:
            d = len(base.sorted_adjacency[img])
            rows.append(((1 << d) - 1) << nvars)  # gadget parity
            nvars += d
        else:
            nvars += 1
    rhs = 1 << nvars
    # the subdivision has no base-base edge, so at most one end maps onto a base vertex
    for a, b in sub.graph.edges:
        img_a, img_b = g_endo[a], g_endo[b]
        if img_a < n:
            rows.append(1 << (first[a] + w_rank[img_b - n]) | 1 << first[b])
        elif img_b < n:
            rows.append(1 << (first[b] + w_rank[img_a - n]) | 1 << first[a])
        else:  # w(u,v) and w(v,u) sit at n + 2k and n + 2k + 1 for base.edges[k]
            row = 1 << first[a] | 1 << first[b]
            rows.append(row | rhs if (img_a - n) >> 1 == twisted else row)
    return Gf2System(nvars, tuple(rows))


@lru_cache(maxsize=8)
def _fiber_setup(base: BaseGraph, i: int) -> tuple[BaseGraph, BaseGraph, tuple[int, ...]]:
    """The subdivision, the CFI graph (twisted when i == 1) and the fiber of
    every subdivision vertex under the projection, as a vertex bitmask of the
    CFI graph; built once per (base, i)."""
    c = build_tilde(base) if i == 1 else build_cfi(base)
    p, sub = projection(c)
    fiber_of = [0] * sub.graph.n
    for idx, target in enumerate(p):
        fiber_of[target] |= 1 << idx
    return sub.graph, c.graph, tuple(fiber_of)


def hom_fiber_count(g_endo: Sequence[int], i: int, base: BaseGraph) -> int:
    """Brute-force size of the fiber over g_endo: homomorphisms from the
    subdivision into the (possibly twisted) CFI graph that project back onto
    g_endo.  Independent of the linear-system route."""
    sub, graph, fiber_of = _fiber_setup(base, i)
    domains = [fiber_of[g_endo[alpha]] for alpha in range(sub.n)]
    return _hom_search(sub, graph, domains, True)


def hom_gap(base: BaseGraph) -> tuple[int, int]:
    """(hom(subdivision, original), hom(subdivision, twisted)); strictly ordered."""
    sub = subdivide2(base)
    if sub.graph.n > HOM_PATTERN_GUARD:  # before the CFI graphs, which grow exponentially in the degree
        raise SizeGuardError(f"pattern graphs guarded at {HOM_PATTERN_GUARD} vertices")
    y, yt = build_cfi(base), build_tilde(base)
    return (hom_count(sub.graph, y.graph), hom_count(sub.graph, yt.graph))
