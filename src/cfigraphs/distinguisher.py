"""Polynomial-time twist detection on unlabeled, uncolored CFI graphs.

Given a graph promised to be (isomorphic to) the CFI graph of some connected
base or its once-twisted companion, decide which, and recover the base.

The route for inputs of maximum degree >= 3:
  1. Two vertices share a cycle of length <= 8 iff they share a gadget over a
     base vertex of degree >= 3.  An edge uv lies on such a cycle iff
     dist(u, v) <= 7 in g - uv (a shortest such path is simple and closes with
     uv into a cycle), which a bidirectional BFS decides without enumerating
     cycles, whose number grows exponentially with the gadget degree.  The
     classes grow by union-find over the edges.  When uv's BFS meets at radius
     sum d, every vertex on a shortest u-v path of g - uv (found by stepping
     back level by level from the meeting set) closes with uv into a cycle of
     length d + 1 <= 8 and joins u's class.  No BFS runs for an edge inside one
     class or leaving a closed one, whose size is 2d + 2^(d-1) and largest
     degree 2^(d-2) + 1 for one d in 3..MAX_GADGET_DEGREE; an edge between two
     classes of several vertices waits for a second pass, by which one may
     have closed.  A miss at an end of degree <= 2 closes it and its chain of
     degree-2 vertices as singletons: every cycle through the chain uses the
     missed edge.  In a CFI graph a closed class of several vertices is a whole
     gadget, so the skipped edges are cross edges: a class lies inside one
     gadget, of degree d' say, and holds a link (every gadget edge joins a
     link to a middle), whose degree 2^(d'-2) + 1 is the gadget's largest and
     differs for every d'; so d' = d and the size forces the whole gadget
     (size alone would not: 16 vertices can hold 10).  On other graphs each
     class lies inside one component of the short-cycle subgraph, and step 4's
     certificate settles the rest.
  2. Inside each recovered gadget, link vertices are the ones with an edge
     leaving the gadget, and twin pairs are found by complementary adjacency
     to the middle set, which is not empty.  Every link needs exactly one
     partner; then partnership is symmetric, so each pair is read once, from
     its smaller end.
  3. Gadgets of degree-1 and degree-2 base vertices are grown outward from
     known link pairs: the two external endpoints of a known pair form the
     next pair, their fresh neighbors are the next middle set, and one middle
     makes a degree-1 gadget, more a degree-2 one closing on a second pair.
     The same walk over the pairs names the gadget across each pair's base
     edge: the one its external endpoints land in, or the one they grow.
  4. The first vertex of each twin pair is the tentative "a" side; where one
     middle touches an odd number of a gadget's representatives, one pair's
     representative switches, so every gadget's flip set is even.  The base
     edges whose representatives are not adjacent form a twist set T, and the
     representatives, twins and middles map onto the CFI graph of the
     recovered base with twist set T.  The verdict is |T| mod 2, returned
     only once that map is checked to be an isomorphism: the sorted int64
     keys min * n + max of the mapped edges must equal those of the named
     graph (``BaseGraph.is_isomorphism``).

Inputs of maximum degree <= 2 are settled directly from the component shapes
of the path/cycle catalogue.

Only step 4's certificate makes a verdict sound: off CFI graphs, steps 1-3
(``decompose``) raise StructureError or return a decomposition it rejects, and
check only what keeps them and the certificate from failing in another way.

``distinguish`` runs with the cyclic garbage collector paused (``gc_paused``),
as ``read_graph`` does: the sets and tuples it builds form no reference
cycles and live until it returns, so a collector pass would only scan them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cfi
from .base_graph import BaseGraph, classify_linear, cycle, gc_paused, is_connected, path
from .errors import StructureError
from .gadget import MAX_GADGET_DEGREE, gadget_order


def short_cycles(g: BaseGraph, max_len: int = 8) -> list[tuple[int, ...]]:
    """All simple cycles of length <= max_len, each reported once.

    Canonical form: starts at its least vertex, and the second vertex is
    smaller than the last.
    """
    adj, nbrs = g.sorted_adjacency, g.adjacency
    cycles = []
    on_path = [False] * g.n
    # not named `path`, the imported base graph family: CPython 3.11 compiles
    # method calls on a name imported at module level as slow attribute loads
    trail: list[int] = []

    def extend(s: int, v: int) -> None:
        if len(trail) >= 3 and trail[1] < trail[-1] and v in nbrs[s]:
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


def _meet(adj, u: int, v: int, reach: int):
    """Bidirectional BFS from u and v in g - uv to radii summing to at most
    reach, expanding the smaller frontier: each side's levels and the set
    where they met (in the last level of both sides), or None."""
    if reach < 2:
        return None
    side_a, side_b = [{u}, adj[u] - {v}], [{v}, adj[v] - {u}]
    seen_a, seen_b = side_a[1] | {u}, side_b[1] | {v}
    met = side_a[1] & side_b[1]
    radii = 2
    while not met and radii < reach and side_a[-1] and side_b[-1]:
        if len(side_a[-1]) > len(side_b[-1]):  # the sides are symmetric
            side_a, side_b, seen_a, seen_b = side_b, side_a, seen_b, seen_a
        front = set().union(*map(adj.__getitem__, side_a[-1]))
        front -= seen_a
        met = front & side_b[-1]
        side_a.append(front)
        seen_a |= front
        radii += 1
    return (side_a, side_b, met) if met else None


def short_cycle_edges(g: BaseGraph, max_len: int = 8) -> list[tuple[int, int]]:
    """The edges uv, in edge order, with dist(u, v) <= max_len - 1 in g - uv:
    exactly the edges of the cycles of length <= max_len."""
    return [(u, v) for u, v in g.edges if _meet(g.adjacency, u, v, max_len - 1)]


_GADGET_DEGREE_BY_SIZE = {gadget_order(d): d for d in range(3, MAX_GADGET_DEGREE + 1)}


def short_cycle_classes(g: BaseGraph, max_len: int = 8) -> list[frozenset[int]]:
    """Disjoint classes of vertices joined along cycles of length <= max_len,
    sorted by least vertex, each inside one component of the ``short_cycle_edges``
    subgraph; on a CFI graph with max_len 8, its gadgets of degree >= 3 (step 1)."""
    adj, parent = g.adjacency, list(range(g.n))
    top, closed = [len(a) for a in adj], [False] * g.n  # per root
    members: dict[int, list[int]] = {}  # per root of a class of several vertices

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    edges, deferred = g.edges, []
    for first in (True, False):
        for u, v in edges:
            root, other = u, v  # find(u), find(v), inlined: most edges stop at the next test
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            while parent[other] != other:
                parent[other] = other = parent[parent[other]]
            if root == other or closed[root] or closed[other]:
                continue
            if first and root in members and other in members:  # either class may close first
                deferred.append((u, v))
            elif meeting := _meet(adj, u, v, max_len - 1):
                *sides, met = meeting
                joined = set(met)
                for levels in sides:  # step back from the meeting set to u and to v
                    kept = met
                    for level in reversed(levels[:-1]):
                        kept = level & set().union(*map(adj.__getitem__, kept))
                        joined |= kept
                joining = members.setdefault(root, [root])  # v's class joins, so it grows
                for x in joined:
                    if (rx := find(x)) != root:
                        parent[rx] = root
                        joining += members.pop(rx, (rx,))
                        if top[rx] > top[root]:
                            top[root] = top[rx]
                d = _GADGET_DEGREE_BY_SIZE.get(len(joining))
                closed[root] = d is not None and top[root] == (1 << (d - 2)) + 1
            else:
                chain = [x for x in (u, v) if len(adj[x]) <= 2]
                while chain:
                    closed[x := chain.pop()] = True
                    chain += [y for y in adj[x] if len(adj[y]) == 2 and not closed[y]]
        edges = deferred
    return sorted(map(frozenset, members.values()), key=min)


@dataclass
class RecoveredGadget:
    vertices: frozenset[int]
    pairs: tuple[tuple[int, int], ...]  # twin pairs, each sorted
    middles: frozenset[int]


@dataclass
class GadgetDecomposition:
    gadgets: list[RecoveredGadget]
    base: BaseGraph                     # recovered base on gadget ids
    pair_to_gadget: dict[tuple[int, int], int]  # twin pair -> opposite gadget id


def _twin_pairs_by_complement(g: BaseGraph, links: list[int], middles: frozenset[int]) -> list[tuple[int, int]]:
    """The pairs of links, in order, whose neighbours among the nonempty
    middle set are complementary; ``links`` is sorted."""
    adj, by_profile = g.adjacency, {}
    for x in links:
        by_profile.setdefault(adj[x] & middles, []).append(x)
    pairs = []
    for x in links:
        # x's own profile is never its complement, as middles is nonempty
        partners = by_profile.get(middles - adj[x], ())
        if len(partners) != 1:
            raise StructureError(f"link vertex {x} has {len(partners)} complementary partners, expected 1")
        # partnership is symmetric once every link has one partner
        if x < partners[0]:
            pairs.append((x, partners[0]))
    return pairs


def decompose(g: BaseGraph) -> GadgetDecomposition:
    """Recover the gadget structure of a CFI graph with some base degree >= 3.

    Off CFI graphs it raises StructureError or returns a decomposition that
    ``orientation_parity``'s certificate rejects.
    """
    adj = g.adjacency
    gadgets: list[RecoveredGadget] = []
    assignment: dict[int, int] = {}  # vertex -> gadget id, the last one to claim it
    pair_to_gadget: dict[tuple[int, int], int] = {}

    def add_gadget(vertices: frozenset[int], pairs, middles) -> int:
        gadgets.append(RecoveredGadget(vertices, tuple(sorted(pairs)), frozenset(middles)))
        assignment.update(dict.fromkeys(vertices, len(gadgets) - 1))
        return len(gadgets) - 1

    # degree >= 3 gadgets straight from the short-cycle classes
    for verts in short_cycle_classes(g):
        links = sorted(v for v in verts if not adj[v] <= verts)
        if len(links) != 2 * _GADGET_DEGREE_BY_SIZE.get(len(verts), -1):
            raise StructureError(f"no gadget of base degree 3..{MAX_GADGET_DEGREE} has {len(verts)} "
                                 f"vertices, {len(links)} of them links")
        middles = verts - set(links)
        add_gadget(verts, _twin_pairs_by_complement(g, links, frozenset(middles)), middles)

    # grow degree <= 2 gadgets outward from known link pairs, naming the
    # gadget across each pair's base edge on the way
    frontier = [pair for gad in gadgets for pair in gad.pairs]
    while frontier:
        pair = frontier.pop()
        gid = assignment[pair[0]]
        own = gadgets[gid].vertices
        ext = [w for x in pair for w in adj[x] if w not in own]
        if len(ext) != 2 or ext[0] == ext[1]:
            raise StructureError(f"link pair {pair} does not leave its gadget along two edges to two vertices")
        y1, y2 = ext = tuple(sorted(ext))
        if y1 in assignment or y2 in assignment:
            # a landing pair whose own cross edges were walked already led them back here
            if (y2 not in assignment or ext not in gadgets[assignment[y2]].pairs
                    or pair_to_gadget.get(ext, gid) != gid):
                raise StructureError("cross edges of a link pair do not land on a twin pair leading back")
            pair_to_gadget[pair] = assignment[y2]
            continue
        middles = {w for w in adj[y1] | adj[y2] if w not in assignment} - {y1, y2}
        pair_to_gadget[ext] = gid
        if len(middles) == 1:
            pair_to_gadget[pair] = add_gadget(frozenset(ext) | middles, [ext], middles)
        else:
            other = set().union(*[adj[m] for m in middles]) - middles - {y1, y2}
            if len(other) != 2:
                raise StructureError("degree-2 gadget does not close on a second link pair")
            second = tuple(sorted(other))
            pair_to_gadget[pair] = add_gadget(frozenset(ext + second) | middles, [ext, second], middles)
            frontier.append(second)

    # a gadget claiming an assigned vertex took it over, so the gadgets
    # partition the vertices iff all are assigned and the sizes sum to n
    claimed = sum(len(gad.vertices) for gad in gadgets)
    if len(assignment) != g.n or claimed != g.n:
        raise StructureError(f"the recovered gadgets claim {claimed} vertices and cover {len(assignment)} of {g.n}")

    base_edges = ((assignment[x], opp) for (x, _), opp in pair_to_gadget.items())
    base = BaseGraph.from_edges(len(gadgets), base_edges)
    if not is_connected(base):
        raise StructureError("recovered base graph is not connected")
    return GadgetDecomposition(gadgets, base, pair_to_gadget)


def orientation_parity(g: BaseGraph, dec: GadgetDecomposition) -> str:
    """Twist parity of g, certified by an isomorphism onto the CFI graph of
    dec.base with that parity.

    The first vertex of each twin pair represents a(u,v) and the other
    b(u,v).  The number of representatives adjacent to one middle has the
    parity of the gadget's tentative flip set, so an odd gadget switches its
    first pair's representative.  T is the set of base edges whose
    representatives are not adjacent.  Representatives and twins map onto
    a(u,v) and b(u,v) of ``cfi._build(dec.base, False, T)``, and each middle
    onto the middle whose mask is the set of pairs whose representative it
    touches; a map that is not an isomorphism raises StructureError.
    """
    adj = g.adjacency
    oriented: dict[tuple[int, int], tuple[int, int]] = {}  # (u, v) -> (a(u,v), b(u,v))
    for u, gad in enumerate(dec.gadgets):
        near = adj[min(gad.middles)]
        odd = sum(x in near for x, _ in gad.pairs) % 2
        for k, pair in enumerate(gad.pairs):
            oriented[u, dec.pair_to_gadget[pair]] = pair[::-1] if odd and k == 0 else pair
    twist = frozenset((u, v) for u, v in dec.base.edges if oriented[v, u][0] not in adj[oriented[u, v][0]])

    h = cfi._build(dec.base, False, twist)
    phi = [-1] * g.n
    for u, nbrs in enumerate(dec.base.sorted_adjacency):
        off, d = h.offsets[u], len(nbrs)
        for i, v in enumerate(nbrs):  # a(u,v) and b(u,v) of h, as in cfi's layout
            a, b = oriented[u, v]
            phi[a], phi[b] = off + i, off + d + i
        for m in dec.gadgets[u].middles:
            # the a(u,v) among m's neighbours are the representatives it touches
            mask = sum(1 << (phi[x] - off) for x in adj[m] if off <= phi[x] < off + d)
            phi[m] = off + 2 * d + (mask >> 1)
    if not g.is_isomorphism(h.graph, phi):
        raise StructureError("the input is not isomorphic to the CFI graph of its recovered base")
    return "even" if len(twist) % 2 == 0 else "odd"


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


@gc_paused
def distinguish(g: BaseGraph) -> Verdict:
    """Decide whether g is the original or the twisted CFI graph, and of what base."""
    if g.max_degree() <= 2:
        return _distinguish_linear(g)
    dec = decompose(g)
    parity = orientation_parity(g, dec)
    return Verdict(parity == "odd", dec.base)
