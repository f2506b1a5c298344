"""CFI graphs over a base graph: one gadget per base vertex, link pairs wired
along base edges, with an optional per-edge twist.

Layout.  The gadget over a base vertex u of degree d is the block
``gadget.build_gadget(d)`` placed at offset ``offsets[u]``, the prefix sum of
the block sizes ``gadget_order(d)`` = 2d + 2^(d-1) of the base vertices before
u.  Inside the block, a neighbor v of u has rank i in the ascending neighbor
list of u; a(u,v) sits at offset + i and its twin b(u,v) at offset + d + i.
The middle vertex whose members are the neighbors at the set bits of an even
mask sits at offset + 2d + (mask >> 1), and it is adjacent to a(u,v) for its
members and to b(u,v) otherwise.

For an untwisted base edge uv the cross edges are a(u,v)-a(v,u) and
b(u,v)-b(v,u); twisting uv swaps them for the crossed pair a(u,v)-b(v,u) and
b(u,v)-a(v,u).  The twist set records the edges twisted an odd number of
times; only the parity of its size matters up to isomorphism.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .base_graph import MAX_INPUT_VERTICES, BaseGraph, Edge, is_connected
from .errors import GraphFormatError, SizeGuardError
from .gadget import Gadget, build_gadget, flip_perm, gadget_order, lift_permutation


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

_LINK_NAME = re.compile(r"^([ab])\((\d+),(\d+)\)$")
_MIDDLE_NAME = re.compile(r"^m\((\d+);([\d,]*)\)$")


def parse_names(names: Sequence[str]) -> list[CfiVertex]:
    """The vertices named by ``Link.name`` and ``Middle.name``, in order."""
    parsed: list[CfiVertex] = []
    for s in names:
        m = _LINK_NAME.match(s)
        if m:
            parsed.append(Link(int(m.group(2)), int(m.group(3)), m.group(1)))
            continue
        m = _MIDDLE_NAME.match(s)
        if m:
            parsed.append(Middle(int(m.group(1)), tuple(int(t) for t in m.group(2).split(",") if t)))
            continue
        raise GraphFormatError(f"unrecognized vertex name {s!r}")
    return parsed


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
    # no larger graph could be read back by read_graph
    size = expected_vertex_count(base)
    if size > MAX_INPUT_VERTICES:
        raise SizeGuardError(f"CFI graph would have {size} vertices, over the cap of {MAX_INPUT_VERTICES}")
    nbrs = base.sorted_adjacency
    by_degree = {d: build_gadget(d) for d in {len(a) for a in nbrs}}
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


def _checked(base: BaseGraph) -> BaseGraph:
    if base.n < 2:
        raise ValueError("base graph needs at least two vertices")
    if not is_connected(base):
        raise ValueError("base graph must be connected")
    return base


def build_cfi(base: BaseGraph, colored: bool = False) -> CfiGraph:
    """The untwisted CFI graph over a connected base with at least two vertices."""
    return _build(_checked(base), colored, frozenset())


def twist(c: CfiGraph, e: tuple[int, int]) -> CfiGraph:
    """Swap the cross-edge pattern at one base edge; involutive per edge."""
    e = (min(e), max(e))
    if not c.base.has_edge(*e):
        raise ValueError(f"{e} is not a base edge")
    return _build(c.base, c.colored, c.twist ^ {e})


def apply_twist_sequence(c: CfiGraph, seq: Sequence[tuple[int, int]]) -> CfiGraph:
    for e in seq:
        c = twist(c, e)
    return c


def build_tilde(base: BaseGraph, colored: bool = False) -> CfiGraph:
    """The once-twisted companion; the twisted edge is the lexicographically least."""
    return _build(_checked(base), colored, frozenset(base.edges[:1]))


def expected_vertex_count(base: BaseGraph) -> int:
    return sum(gadget_order(base.degree(u)) for u in range(base.n))


def as_base_graph(c: CfiGraph) -> tuple[BaseGraph, Optional[list[int]], list[str]]:
    """Plain-graph export: (graph, colors or None, vertex names)."""
    return c.graph, (list(c.colors) if c.colors is not None else None), c.names()


def path_encode(c: CfiGraph) -> BaseGraph:
    """Replace colors by pendant paths: a vertex of color value L grows a path of
    length L attached at the vertex; the output graph is uncolored."""
    if not c.colored or c.colors is None:
        raise ValueError("path encoding needs a colored graph")
    size = c.n + sum(c.colors)
    if size > MAX_INPUT_VERTICES:
        raise SizeGuardError(f"path encoding would have {size} vertices, over the cap of {MAX_INPUT_VERTICES}")
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
        if not 0 <= u < c.base.n:
            raise ValueError(f"flip at {u}, which is not a base vertex")
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
    if not c.base.is_isomorphism(c.base, sigma):
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
