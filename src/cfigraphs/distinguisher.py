"""Polynomial-time twist detection on unlabeled, uncolored CFI graphs.

Given a graph promised to be (isomorphic to) the CFI graph of some connected
base or its once-twisted companion, decide which, and recover the base.

The route for inputs of maximum degree >= 3:
  1. Vertices lying on a cycle of length <= 8 are exactly the vertices of
     gadgets over base vertices of degree >= 3, and two such vertices share a
     short cycle iff they share a gadget.  Union-find over short cycles
     therefore recovers those gadgets.
  2. Inside each recovered gadget, link vertices are the ones with an edge
     leaving the gadget, and twin pairs are found by complementary adjacency
     to the middle set.
  3. Gadgets of degree-1 and degree-2 base vertices are grown outward from
     known link pairs: the two external endpoints of a known pair form the
     next pair, their fresh neighbors are the next middle set, and the middle
     count (1 or 2) reveals the base degree.
  4. Picking the first vertex of each twin pair (in input order) as the "a"
     side gives a tentative orientation; a parity count against one middle
     vertex per gadget corrects each gadget to an even flip set, and then the
     parity of crossed pairs across base edges decides original vs twisted.

Inputs of maximum degree <= 2 are settled directly from the component shapes
of the path/cycle catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_graph import BaseGraph, classify_linear, cycle, is_connected, path
from .errors import StructureError


def short_cycles(g: BaseGraph, max_len: int = 8) -> list[tuple[int, ...]]:
    """All simple cycles of length <= max_len, each reported once.

    Canonical form: starts at its least vertex, and the second vertex is
    smaller than the last.
    """
    adj = g.sorted_adjacency
    cycles = []
    on_path = [False] * g.n
    # not named `path`, the imported base graph family: CPython 3.11 compiles
    # method calls on a name imported at module level as slow attribute loads
    trail: list[int] = []

    def extend(s: int, v: int) -> None:
        if len(trail) >= 3 and g.has_edge(v, s) and trail[1] < trail[-1]:
            cycles.append(tuple(trail))
        if len(trail) == max_len:
            return
        for w in adj[v]:
            if w > s and not on_path[w]:
                trail.append(w)
                on_path[w] = True
                extend(s, w)
                on_path[w] = False
                trail.pop()

    for s in range(g.n):
        trail = [s]
        on_path[s] = True
        extend(s, s)
        on_path[s] = False
    return cycles


def short_cycle_pair_rows(g: BaseGraph, max_len: int = 8) -> list[int]:
    """Bitmask rows: bit y of row x set iff x and y lie on a common short cycle."""
    rows = [0] * g.n
    for cyc in short_cycles(g, max_len):
        mask = 0
        for v in cyc:
            mask |= 1 << v
        for v in cyc:
            rows[v] |= mask
    return rows


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


@dataclass
class RecoveredGadget:
    vertices: frozenset[int]
    degree: int
    pairs: tuple[tuple[int, int], ...]  # twin pairs, each sorted
    middles: frozenset[int]


@dataclass
class GadgetDecomposition:
    gadgets: list[RecoveredGadget]
    assignment: dict[int, int]          # vertex -> gadget id
    base: BaseGraph                     # recovered base on gadget ids
    pair_to_gadget: dict[tuple[int, int], int]  # twin pair -> opposite gadget id


def _gadget_size_to_degree(size: int) -> int:
    d = 3
    while 2 * d + (1 << (d - 1)) < size:
        d += 1
    if 2 * d + (1 << (d - 1)) != size:
        raise StructureError(f"no gadget of a degree >= 3 base vertex has {size} vertices")
    return d


def _twin_pairs_by_complement(g: BaseGraph, links: list[int], middles: frozenset[int]) -> list[tuple[int, int]]:
    mid_mask = 0
    for m in middles:
        mid_mask |= 1 << m
    profile = {x: g.adjacency_bits[x] & mid_mask for x in links}
    pairs = []
    used = set()
    for x in links:
        if x in used:
            continue
        partners = [y for y in links if y != x and profile[y] == mid_mask & ~profile[x]]
        if len(partners) != 1:
            raise StructureError(f"link vertex {x} has {len(partners)} complementary partners, expected 1")
        y = partners[0]
        used.update((x, y))
        pairs.append((min(x, y), max(x, y)))
    return sorted(pairs)


def decompose(g: BaseGraph) -> GadgetDecomposition:
    """Recover the gadget structure of a CFI graph with some base degree >= 3."""
    cycles = short_cycles(g)
    uf = _UnionFind(g.n)
    cyclic = set()
    for cyc in cycles:
        cyclic.update(cyc)
        for v in cyc[1:]:
            uf.union(cyc[0], v)
    if not cyclic:
        raise StructureError("no short cycles found; no gadget of base degree >= 3 present")

    classes: dict[int, set[int]] = {}
    for v in cyclic:
        classes.setdefault(uf.find(v), set()).add(v)

    gadgets: list[RecoveredGadget] = []
    assignment: dict[int, int] = {}

    def add_gadget(vertices: frozenset[int], degree: int, pairs, middles) -> int:
        gid = len(gadgets)
        gadgets.append(RecoveredGadget(vertices, degree, tuple(sorted(pairs)), frozenset(middles)))
        for v in vertices:
            if v in assignment:
                raise StructureError(f"vertex {v} assigned to two gadgets")
            assignment[v] = gid
        return gid

    # degree >= 3 gadgets straight from the short-cycle classes
    for root in sorted(classes):
        verts = frozenset(classes[root])
        d = _gadget_size_to_degree(len(verts))
        links = sorted(v for v in verts if any(w not in verts for w in g.adjacency[v]))
        middles = verts - set(links)
        if len(links) != 2 * d or len(middles) != (1 << (d - 1)):
            raise StructureError(
                f"gadget candidate has {len(links)} link and {len(middles)} middle vertices, "
                f"inconsistent with degree {d}")
        for x in links:
            if sum(1 for w in g.adjacency[x] if w not in verts) != 1:
                raise StructureError(f"link vertex {x} does not have exactly one external edge")
        for m in middles:
            if not set(g.adjacency[m]) <= verts:
                raise StructureError(f"middle vertex {m} has an external edge")
        pairs = _twin_pairs_by_complement(g, links, frozenset(middles))
        add_gadget(verts, d, pairs, middles)

    # grow degree <= 2 gadgets outward from known link pairs
    frontier = [pair for gad in gadgets for pair in gad.pairs]
    while frontier:
        x1, x2 = frontier.pop()
        ext = []
        for x in (x1, x2):
            outside = [w for w in g.adjacency[x] if w not in gadgets[assignment[x]].vertices]
            if len(outside) != 1:
                raise StructureError(f"link vertex {x} does not have exactly one external edge")
            ext.append(outside[0])
        y1, y2 = ext
        if y1 in assignment or y2 in assignment:
            if y1 not in assignment or y2 not in assignment or assignment[y1] != assignment[y2]:
                raise StructureError("cross edges of a link pair do not meet a single gadget")
            opp = gadgets[assignment[y1]]
            if (min(y1, y2), max(y1, y2)) not in opp.pairs:
                raise StructureError("cross edges do not land on a twin pair")
            continue
        if y1 == y2:
            raise StructureError("link pair collapses onto one external vertex")
        assigned = set(assignment)
        new_pair = (min(y1, y2), max(y1, y2))
        middles = (set(g.adjacency[y1]) | set(g.adjacency[y2])) - assigned - {y1, y2}
        if len(middles) == 1:
            verts = frozenset({y1, y2} | middles)
            degs = sorted(g.degree(y) for y in (y1, y2))
            if degs != [1, 2]:
                raise StructureError("degree-1 gadget link pair has unexpected degrees")
            add_gadget(verts, 1, [new_pair], middles)
        elif len(middles) == 2:
            other = set()
            for m in middles:
                other.update(w for w in g.adjacency[m] if w not in (y1, y2))
            if other & assigned or len(other) != 2:
                raise StructureError("degree-2 gadget does not close on a second link pair")
            o1, o2 = sorted(other)
            verts = frozenset({y1, y2, o1, o2} | middles)
            second = (o1, o2)
            add_gadget(verts, 2, [new_pair, second], middles)
            frontier.append(second)
        else:
            raise StructureError(f"frontier gadget has {len(middles)} middle vertices, expected 1 or 2")

    if len(assignment) != g.n:
        missing = sorted(set(range(g.n)) - set(assignment))
        raise StructureError(f"{len(missing)} vertices outside every gadget, e.g. {missing[:5]}")

    # base graph on gadget ids, plus the pair -> opposite gadget table
    base_edges = set()
    pair_to_gadget: dict[tuple[int, int], int] = {}
    for gid, gad in enumerate(gadgets):
        for pair in gad.pairs:
            ext_g = set()
            for x in pair:
                for w in g.adjacency[x]:
                    if w not in gad.vertices:
                        ext_g.add(assignment[w])
            if len(ext_g) != 1:
                raise StructureError("twin pair touches several gadgets")
            opp = ext_g.pop()
            if opp == gid:
                raise StructureError("twin pair loops back to its own gadget")
            pair_to_gadget[pair] = opp
            base_edges.add((min(gid, opp), max(gid, opp)))
    for gid, gad in enumerate(gadgets):
        if len(gad.pairs) != gad.degree:
            raise StructureError("pair count disagrees with gadget degree")
    base = BaseGraph.from_edges(len(gadgets), base_edges)
    if not is_connected(base):
        raise StructureError("recovered base graph is not connected")
    for gid, gad in enumerate(gadgets):
        if base.degree(gid) != gad.degree:
            raise StructureError("recovered base degree disagrees with gadget degree")
    return GadgetDecomposition(gadgets, assignment, base, pair_to_gadget)


def orientation_parity(g: BaseGraph, dec: GadgetDecomposition) -> str:
    """Parity of crossed link pairs after normalizing each gadget.

    Representatives start as the first vertex of each twin pair in input
    order (for degree-1 gadgets, the vertex of degree 1).  The membership
    count of the representatives in one middle vertex has the parity of the
    tentative flip set, so an odd gadget is corrected by switching the
    representative of the pair whose representative comes last.
    """
    rep: dict[tuple[int, int], int] = {}
    for gad in dec.gadgets:
        if gad.degree == 1:
            (pair,) = gad.pairs
            deg1 = [x for x in pair if g.degree(x) == 1]
            if len(deg1) != 1:
                raise StructureError("degree-1 gadget pair lacks a degree-1 vertex")
            rep[pair] = deg1[0]
            continue
        choice = {pair: pair[0] for pair in gad.pairs}
        m0 = min(gad.middles)
        hits = sum(1 for pair in gad.pairs if g.has_edge(choice[pair], m0))
        if hits % 2 == 1:
            last = max(gad.pairs, key=lambda pair: choice[pair])
            choice[last] = last[1] if choice[last] == last[0] else last[0]
        rep.update(choice)

    crossed = 0
    seen = set()
    for pair, opp_gid in dec.pair_to_gadget.items():
        gid = dec.assignment[pair[0]]
        if (opp_gid, gid) in seen:
            continue
        seen.add((gid, opp_gid))
        opp_pair = next(
            p for p in dec.gadgets[opp_gid].pairs if dec.pair_to_gadget[p] == gid
        )
        if not g.has_edge(rep[pair], rep[opp_pair]):
            crossed += 1
    return "even" if crossed % 2 == 0 else "odd"


@dataclass(frozen=True)
class Verdict:
    twisted: bool
    base: BaseGraph

    @property
    def label(self) -> str:
        return "twisted" if self.twisted else "original"


def _distinguish_linear(g: BaseGraph) -> Verdict:
    shapes = classify_linear(g)
    kinds = [s.kind for s in shapes]
    if kinds == ["path", "path"]:
        a, b = shapes[0].length, shapes[1].length
        if b == a + 2 and a % 3 == 1:
            return Verdict(False, path((a - 1) // 3 + 1))
        if a == b and a % 3 == 2:
            return Verdict(True, path((a - 2) // 3 + 1))
    elif kinds == ["cycle", "cycle"]:
        a, b = shapes[0].length, shapes[1].length
        if a == b and a % 3 == 0 and a // 3 >= 3:
            return Verdict(False, cycle(a // 3))
    elif kinds == ["cycle"]:
        a = shapes[0].length
        if a % 6 == 0 and a // 6 >= 3:
            return Verdict(True, cycle(a // 6))
    raise StructureError(f"component shapes {shapes} match no CFI graph of base degree <= 2")


def distinguish(g: BaseGraph) -> Verdict:
    """Decide whether g is the original or the twisted CFI graph, and of what base."""
    if g.max_degree() <= 2:
        return _distinguish_linear(g)
    dec = decompose(g)
    parity = orientation_parity(g, dec)
    return Verdict(parity == "odd", dec.base)


def recover_base(g: BaseGraph) -> BaseGraph:
    """The base graph, up to isomorphism, of a CFI graph or its twisted companion."""
    return distinguish(g).base
