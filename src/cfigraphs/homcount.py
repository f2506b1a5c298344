"""Homomorphism counts into CFI graphs via the 2-subdivision of the base.

The 2-subdivision replaces each base edge uv by the path u, w(u,v), w(v,u), v.
Projecting a CFI graph onto it (links to their w vertex, middles to their
base vertex) splits Hom(subdivision, CFI graph) into fibers over the
endomorphisms of the subdivision, and each fiber is the solution set of a
linear system over GF(2).  The twisted companion flips one right-hand side,
which kills the identity fiber and yields a strict homomorphism-count gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .base_graph import BaseGraph, Edge
from .cfi import CfiGraph, Link, build_cfi, twist
from .errors import SizeGuardError

HOM_PATTERN_GUARD = 14


@dataclass(frozen=True)
class Subdivision2:
    base: BaseGraph
    graph: BaseGraph
    w_index: dict  # (u, v) -> subdivision vertex carrying the u-side of edge uv

    def w_name(self, vertex: int) -> Optional[tuple[int, int]]:
        """Inverse of w_index for subdivision vertices; None on original vertices."""
        return self.w_of.get(vertex)

    @cached_property
    def w_of(self) -> dict:
        return {idx: pair for pair, idx in self.w_index.items()}


def subdivide2(g: BaseGraph) -> Subdivision2:
    """Replace every edge uv by the length-3 path u, w(u,v), w(v,u), v."""
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


def _hom_search(f: BaseGraph, h: BaseGraph, domains: Optional[list[set[int]]],
                count_only: bool, guard: int):
    """Backtracking over f's vertices in a connectivity-first order."""
    if f.n > guard:
        raise SizeGuardError(f"pattern graphs guarded at {guard} vertices")
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
            for w in sorted(f.adjacency[comp[i]]):
                if not placed[w]:
                    placed[w] = True
                    comp.append(w)
                    order.append(w)
            i += 1

    image = [-1] * f.n
    results: list[tuple[int, ...]] = []
    count = 0

    def candidates(v: int):
        anchored = [image[u] for u in f.adjacency[v] if image[u] >= 0]
        if not anchored:
            cands = range(h.n)
        else:
            cands = set(h.adjacency[anchored[0]])
            for img in anchored[1:]:
                cands &= h.adjacency[img]
        if domains is not None:
            cands = [c for c in cands if c in domains[v]]
        return cands

    def extend(idx: int):
        nonlocal count
        if idx == f.n:
            count += 1
            if not count_only:
                results.append(tuple(image))
            return
        v = order[idx]
        for c in candidates(v):
            image[v] = c
            extend(idx + 1)
        image[v] = -1

    extend(0)
    return count if count_only else results


def hom_count(f: BaseGraph, h: BaseGraph, guard: int = HOM_PATTERN_GUARD) -> int:
    """Exact |Hom(f, h)| by backtracking."""
    return _hom_search(f, h, None, True, guard)


def enumerate_homomorphisms(f: BaseGraph, h: BaseGraph,
                            guard: int = HOM_PATTERN_GUARD) -> list[tuple[int, ...]]:
    return _hom_search(f, h, None, False, guard)


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
class Gf2Equation:
    variables: tuple[str, ...]
    rhs: int
    family: str  # "gadget-parity" | "middle-link" | "cross-link"


@dataclass(frozen=True)
class Gf2System:
    variables: tuple[str, ...]
    equations: tuple[Gf2Equation, ...]

    def __post_init__(self):
        used = {v for eq in self.equations for v in eq.variables}
        if used != set(self.variables):
            raise ValueError("every variable must occur in at least one equation")
        if any(eq.rhs not in (0, 1) for eq in self.equations):
            raise ValueError("right-hand sides live in GF(2)")


@dataclass(frozen=True)
class Gf2Count:
    count: int
    free_exponent: Optional[int]  # None when inconsistent; else count == 2**free_exponent


def gf2_count(system: Gf2System) -> Gf2Count:
    """Number of solutions: 0 if inconsistent, else 2^(#variables - rank)."""
    var_pos = {v: i for i, v in enumerate(system.variables)}
    nvars = len(system.variables)
    rows = []
    for eq in system.equations:
        row = eq.rhs << nvars
        for v in eq.variables:
            row ^= 1 << var_pos[v]
        rows.append(row)
    rank = 0
    for col in range(nvars):
        pivot = next((i for i in range(rank, len(rows)) if (rows[i] >> col) & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> col) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    if any(row == 1 << nvars for row in rows):
        return Gf2Count(0, None)
    return Gf2Count(1 << (nvars - rank), nvars - rank)


def build_system(g_endo: Sequence[int], i: int, base: BaseGraph,
                 twisted_edge: Optional[Edge] = None) -> Gf2System:
    """The linear system whose solutions are the fiber of g_endo under the
    projection, for the original (i=0) or once-twisted (i=1) CFI graph.

    Variables: x[alpha,u] for subdivision vertices alpha mapped onto a base
    vertex (one per neighbor u, recording middle membership), and x[alpha]
    for alpha mapped onto a w vertex (recording the link side).
    """
    if i not in (0, 1):
        raise ValueError("i selects the original (0) or twisted (1) graph")
    sub = subdivide2(base)
    if len(g_endo) != sub.graph.n or not is_homomorphism(sub.graph, sub.graph, g_endo):
        raise ValueError("g_endo is not an endomorphism of the subdivision")
    if twisted_edge is None:
        twisted_edge = base.edges[0]
    twisted_edge = (min(twisted_edge), max(twisted_edge))
    w_of = sub.w_of

    variables: list[str] = []
    for alpha in range(sub.graph.n):
        img = g_endo[alpha]
        if img < base.n:
            variables.extend(f"x[{alpha},{u}]" for u in base.sorted_adjacency[img])
        else:
            variables.append(f"x[{alpha}]")

    equations: list[Gf2Equation] = []
    for alpha in range(sub.graph.n):
        img = g_endo[alpha]
        if img < base.n:
            vs = tuple(f"x[{alpha},{u}]" for u in base.sorted_adjacency[img])
            equations.append(Gf2Equation(vs, 0, "gadget-parity"))
    for a, b in sub.graph.edges:
        for alpha, beta in ((a, b), (b, a)):
            img_a, img_b = g_endo[alpha], g_endo[beta]
            if img_a < base.n and img_b >= base.n:
                src, u = w_of[img_b]
                # a homomorphism forces src == img_a here
                equations.append(
                    Gf2Equation((f"x[{alpha},{u}]", f"x[{beta}]"), 0, "middle-link"))
        img_a, img_b = g_endo[a], g_endo[b]
        if img_a >= base.n and img_b >= base.n:
            (u1, v1), (u2, v2) = w_of[img_a], w_of[img_b]
            edge = (min(u1, v1), max(u1, v1))
            rhs = 1 if (i == 1 and edge == twisted_edge) else 0
            equations.append(
                Gf2Equation((f"x[{a}]", f"x[{b}]"), rhs, "cross-link"))
    return Gf2System(tuple(variables), tuple(equations))


def hom_fiber_count(g_endo: Sequence[int], i: int, base: BaseGraph,
                    guard: int = HOM_PATTERN_GUARD) -> int:
    """Brute-force size of the fiber over g_endo: homomorphisms from the
    subdivision into the (possibly twisted) CFI graph that project back onto
    g_endo.  Independent of the linear-system route."""
    c = build_cfi(base)
    if i == 1:
        c = twist(c, base.edges[0])
    p, sub = projection(c)
    fiber_of = [set() for _ in range(sub.graph.n)]
    for idx, target in enumerate(p):
        fiber_of[target].add(idx)
    domains = [fiber_of[g_endo[alpha]] for alpha in range(sub.graph.n)]
    return sum(1 for _ in _hom_search(sub.graph, c.graph, domains, False, guard))


def hom_gap(base: BaseGraph, guard: int = HOM_PATTERN_GUARD) -> tuple[int, int]:
    """(hom(subdivision, original), hom(subdivision, twisted)); strictly ordered."""
    sub = subdivide2(base)
    y0 = build_cfi(base)
    y1 = twist(y0, base.edges[0])
    return (hom_count(sub.graph, y0.graph, guard), hom_count(sub.graph, y1.graph, guard))
