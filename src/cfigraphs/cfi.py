"""CFI graphs over a base graph: one gadget per base vertex, link pairs wired
along base edges, with an optional per-edge twist.

Layout.  The gadget over a base vertex u of degree d is the block
``gadget.build_gadget(d)`` placed at offset ``offsets[u]``, the prefix sum of
the block sizes 2d + 2^(d-1) of the base vertices before u.  Inside the block,
a neighbor v of u has rank i in the ascending neighbor list of u; a(u,v) sits
at offset + i and its twin b(u,v) at offset + d + i.  The middle vertex whose
members are the neighbors at the set bits of an even mask sits at
offset + 2d + (mask >> 1), and it is adjacent to a(u,v) for its members and
to b(u,v) otherwise.

For an untwisted base edge uv the cross edges are a(u,v)-a(v,u) and
b(u,v)-b(v,u); twisting uv swaps them for the crossed pair a(u,v)-b(v,u) and
b(u,v)-a(v,u).  The twist set records the edges twisted an odd number of
times; only the parity of its size matters up to isomorphism.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .base_graph import BaseGraph, Edge, is_connected
from .gadget import Gadget, build_gadget, flip_perm, lift_permutation


@dataclass(frozen=True, order=True)
class Link:
    u: int
    v: int
    side: str  # "a" | "b"

    def name(self) -> str:
        return f"{self.side}({self.u},{self.v})"


@dataclass(frozen=True, order=True)
class Middle:
    u: int
    members: tuple[int, ...]  # sorted neighbors of u, even count

    def name(self) -> str:
        return f"m({self.u};{','.join(map(str, self.members))})"


CfiVertex = Union[Link, Middle]


@dataclass(frozen=True)
class Color:
    """Pair color: c1 identifies the twin pair (absent on middles), c2 the gadget."""

    c1: Optional[tuple[int, int]]
    c2: int


@dataclass(frozen=True)
class CfiGraph:
    base: BaseGraph
    colored: bool
    twist: frozenset[Edge]
    blocks: tuple[Gadget, ...] = field(compare=False, repr=False)  # one per base vertex
    offsets: tuple[int, ...] = field(compare=False, repr=False)    # block starts, then n
    edges: tuple[Edge, ...] = field(compare=False, repr=False)
    colors: Optional[tuple[int, ...]] = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.offsets[-1]

    @cached_property
    def graph(self) -> BaseGraph:
        return BaseGraph(self.n, self.edges)

    @cached_property
    def vertices(self) -> tuple[CfiVertex, ...]:
        out: list[CfiVertex] = []
        for u, nbrs in enumerate(self.base.sorted_adjacency):
            out += [Link(u, v, "a") for v in nbrs]
            out += [Link(u, v, "b") for v in nbrs]
            out += [Middle(u, tuple(v for i, v in enumerate(nbrs) if (mask >> i) & 1))
                    for mask in self.blocks[u].middles]
        return tuple(out)

    def names(self) -> list[str]:
        return [x.name() for x in self.vertices]

    def gadget_vertices(self, u: int) -> range:
        return range(self.offsets[u], self.offsets[u + 1])

    def link_index(self, u: int, v: int, side: str) -> int:
        nbrs = self.base.sorted_adjacency[u]
        return self.offsets[u] + nbrs.index(v) + ("a", "b").index(side) * len(nbrs)

    def middle_index(self, u: int, members: Iterable[int]) -> int:
        return self.offsets[u] + self.blocks[u].middle_vertex(self._mask(u, members))

    def _mask(self, u: int, members: Iterable[int]) -> int:
        nbrs = self.base.sorted_adjacency[u]
        return sum(1 << nbrs.index(v) for v in set(members))


def _build(base: BaseGraph, colored: bool, twist: frozenset[Edge]) -> CfiGraph:
    nbrs = base.sorted_adjacency
    # largest degree first, so build_gadget's degree cap fires before any block exists
    by_degree = {d: build_gadget(d) for d in sorted({len(a) for a in nbrs}, reverse=True)}
    blocks = tuple(by_degree[len(a)] for a in nbrs)
    offsets = [0]
    for block in blocks:
        offsets.append(offsets[-1] + block.graph.n)

    edges: list[Edge] = []
    for off, block in zip(offsets, blocks):
        edges += [(off + x, off + y) for x, y in block.graph.edges]
    for u, v in base.edges:
        au = offsets[u] + nbrs[u].index(v)
        av = offsets[v] + nbrs[v].index(u)
        bu, bv = au + len(nbrs[u]), av + len(nbrs[v])
        edges += [(au, bv), (bu, av)] if (u, v) in twist else [(au, av), (bu, bv)]

    colors = None
    if colored:
        # color (l, i) with l the 1-based gadget id and i in 1..dmax+1, folded to
        # (l-1)*(dmax+1)+i; i == dmax+1 marks middles, otherwise the neighbor rank
        dmax = max(by_degree)
        within = {d: [i + 1 if i < d else dmax + 1 for i in block.colors()]
                  for d, block in by_degree.items()}
        colors = tuple(u * (dmax + 1) + i for u, block in enumerate(blocks) for i in within[block.d])
    return CfiGraph(base, colored, twist, blocks, tuple(offsets), tuple(sorted(edges)), colors)


def build_cfi(base: BaseGraph, colored: bool = False) -> CfiGraph:
    """The untwisted CFI graph over a connected base with at least two vertices."""
    if base.n < 2:
        raise ValueError("base graph needs at least two vertices")
    if not is_connected(base):
        raise ValueError("base graph must be connected")
    return _build(base, colored, frozenset())


def twist(c: CfiGraph, e: tuple[int, int]) -> CfiGraph:
    """Swap the cross-edge pattern at one base edge; involutive per edge."""
    e = (min(e), max(e))
    if e not in c.base.edge_set:
        raise ValueError(f"{e} is not a base edge")
    return _build(c.base, c.colored, c.twist ^ {e})


def apply_twist_sequence(c: CfiGraph, seq: Sequence[tuple[int, int]]) -> CfiGraph:
    for e in seq:
        c = twist(c, e)
    return c


def build_tilde(base: BaseGraph, colored: bool = False) -> CfiGraph:
    """The once-twisted companion; the twisted edge is the lexicographically least."""
    c = build_cfi(base, colored)
    return twist(c, base.edges[0])


def twist_parity(c: CfiGraph) -> str:
    return "even" if len(c.twist) % 2 == 0 else "odd"


def color_of(c: CfiGraph, x: int) -> Color:
    if not c.colored:
        raise ValueError("graph is uncolored")
    if not 0 <= x < c.n:
        raise ValueError(f"vertex {x} out of range")
    u = bisect_right(c.offsets, x) - 1
    i, d = x - c.offsets[u], c.blocks[u].d
    return Color((u, i % d + 1), u) if i < 2 * d else Color(None, u)


def expected_vertex_count(base: BaseGraph) -> int:
    return sum(2 * base.degree(u) + (1 << (base.degree(u) - 1)) for u in range(base.n))


def as_base_graph(c: CfiGraph) -> tuple[BaseGraph, Optional[list[int]], list[str]]:
    """Plain-graph export: (graph, colors or None, vertex names)."""
    return c.graph, (list(c.colors) if c.colors is not None else None), c.names()


def path_encode(c: CfiGraph) -> BaseGraph:
    """Replace colors by pendant paths: a vertex of color value L grows a path of
    length L attached at the vertex; the output graph is uncolored."""
    if not c.colored or c.colors is None:
        raise ValueError("path encoding needs a colored graph")
    edges = list(c.edges)
    nxt = c.n
    for x in range(c.n):
        anchor = x
        for _ in range(c.colors[x]):
            edges.append((anchor, nxt))
            anchor = nxt
            nxt += 1
    return BaseGraph.from_edges(nxt, edges)


def gadget_flip_map(c: CfiGraph, flips: dict[int, frozenset[int]]) -> tuple[int, ...]:
    """Vertex bijection applying, inside each gadget u, the flip over the given
    even neighbor subset: a(u,v) <-> b(u,v) for v in the subset, middles by
    symmetric difference."""
    out = list(range(c.n))
    for u, subset in flips.items():
        if len(subset) % 2 != 0:
            raise ValueError(f"flip at {u} has odd size")
        if not subset <= c.base.adjacency[u]:
            raise ValueError(f"flip at {u} is not a neighbor subset")
        off = c.offsets[u]
        out[off:c.offsets[u + 1]] = [off + x for x in flip_perm(c.blocks[u], c._mask(u, subset))]
    return tuple(out)


def lift_base_automorphism(c: CfiGraph, sigma: Sequence[int]) -> tuple[int, ...]:
    """The canonical lift of a base automorphism: a(u,v) -> a(su,sv), likewise b,
    and middles by renaming members."""
    if c.base.relabel(sigma).edges != c.base.edges:
        raise ValueError("sigma is not an automorphism of the base graph")
    nbrs = c.base.sorted_adjacency
    out: list[int] = []
    for u, block in enumerate(c.blocks):
        su = sigma[u]
        pi = tuple(nbrs[su].index(sigma[v]) for v in nbrs[u])
        out += [c.offsets[su] + x for x in lift_permutation(block, pi)]
    return tuple(out)


def random_even_flips(c: CfiGraph, rng: random.Random) -> dict[int, frozenset[int]]:
    """One random even neighbor subset per gadget."""
    flips = {}
    for u in range(c.base.n):
        nbrs = c.base.sorted_adjacency[u]
        subset = [v for v in nbrs if rng.random() < 0.5]
        if len(subset) % 2 != 0:
            subset.pop(rng.randrange(len(subset)))
        flips[u] = frozenset(subset)
    return flips
