"""Degree-d gadgets: 2d link vertices in twin pairs plus one middle vertex per
even subset of the first link row, and the automorphisms that act on them.

Vertex indexing inside a gadget of degree d:
  a_i -> i            for i in 0..d-1   (first link row)
  b_i -> d + i        (twin of a_i)
  middle(mask) -> 2d + (mask >> 1)      (rank among even masks, ascending)

A middle vertex is adjacent to a_i when bit i of its mask is set, and to b_i
otherwise.  Automorphisms fixing every twin pair setwise are exactly the
"flips" f_mask indexed by even masks: f_mask swaps a_i with b_i for i in mask
and acts on middles by symmetric difference with mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .base_graph import BaseGraph

MAX_GADGET_DEGREE = 20  # 2^(d-1) middle vertices; memory cap

VertexPerm = tuple[int, ...]


@lru_cache(maxsize=None)
def even_masks(d: int) -> tuple[int, ...]:
    """All d-bit masks of even popcount, ascending."""
    return tuple(m for m in range(1 << d) if bin(m).count("1") % 2 == 0)


@dataclass(frozen=True)
class Gadget:
    """The gadget of degree d together with its plain-graph form."""

    d: int
    middles: tuple[int, ...]   # even masks, ascending; vertex 2d+rank
    graph: BaseGraph

    @property
    def link_count(self) -> int:
        return 2 * self.d

    def middle_vertex(self, mask: int) -> int:
        # the even masks ascending take one of each pair {2k, 2k+1}, so rank = mask >> 1
        if not 0 <= mask < 1 << self.d or bin(mask).count("1") % 2 != 0:
            raise ValueError(f"{mask} is not an even {self.d}-bit mask")
        return 2 * self.d + (mask >> 1)

    def mask_of(self, vertex: int) -> int:
        if vertex < 2 * self.d:
            raise ValueError(f"vertex {vertex} is a link vertex")
        return self.middles[vertex - 2 * self.d]

    def colors(self) -> list[int]:
        """Coloring of the colored variant: twin pairs share a color, middles share one."""
        return list(range(self.d)) * 2 + [self.d] * len(self.middles)


def build_gadget(d: int) -> Gadget:
    if d < 1:
        raise ValueError("gadget degree must be at least 1")
    if d > MAX_GADGET_DEGREE:
        raise ValueError(f"gadget degree capped at {MAX_GADGET_DEGREE}")
    middles = even_masks(d)
    edges = []
    for rank, mask in enumerate(middles):
        mv = 2 * d + rank
        for i in range(d):
            edges.append((i if (mask >> i) & 1 else d + i, mv))
    return Gadget(d, middles, BaseGraph.from_edges(2 * d + len(middles), edges))


def twin(d: int, x: int) -> int:
    """The partner link vertex; an involution on link vertices."""
    if x < d:
        return x + d
    if x < 2 * d:
        return x - d
    raise ValueError(f"vertex {x} is a middle vertex")


def apply_flip(gadget: Gadget, mask: int, x: int) -> int:
    """Image of vertex x under the flip automorphism of the given even mask."""
    d = gadget.d
    if bin(mask).count("1") % 2 != 0:
        raise ValueError("flip masks must have even popcount")
    if x < d:
        return x + d if (mask >> x) & 1 else x
    if x < 2 * d:
        i = x - d
        return i if (mask >> i) & 1 else x
    return gadget.middle_vertex(gadget.mask_of(x) ^ mask)


def flip_perm(gadget: Gadget, mask: int) -> VertexPerm:
    return tuple(apply_flip(gadget, mask, x) for x in range(gadget.graph.n))


def flip_between_middles(m1: int, m2: int) -> int:
    """Mask of the unique color-preserving automorphism sending middle m1 to m2."""
    return m1 ^ m2


def lift_permutation(gadget: Gadget, pi: tuple[int, ...]) -> VertexPerm:
    """Twin-preserving automorphism extending a permutation of the first link row:
    a_i -> a_pi(i), b_i -> b_pi(i), middles by relabeling their mask bits."""
    d = gadget.d
    if sorted(pi) != list(range(d)):
        raise ValueError("pi is not a permutation of 0..d-1")
    out = list(range(gadget.graph.n))
    for i in range(d):
        out[i] = pi[i]
        out[d + i] = d + pi[i]
    for rank, mask in enumerate(gadget.middles):
        image = 0
        for i in range(d):
            if (mask >> i) & 1:
                image |= 1 << pi[i]
        out[2 * d + rank] = gadget.middle_vertex(image)
    return tuple(out)


def compose(outer: VertexPerm, inner: VertexPerm) -> VertexPerm:
    """outer after inner."""
    return tuple(outer[x] for x in inner)


def invert(perm: VertexPerm) -> VertexPerm:
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[y] = x
    return tuple(out)


def is_automorphism(g: BaseGraph, perm: VertexPerm) -> bool:
    if sorted(perm) != list(range(g.n)):
        return False
    return all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)


def colored_automorphisms(d: int) -> dict[int, VertexPerm]:
    """All automorphisms of the colored gadget, keyed by their even flip mask."""
    gad = build_gadget(d)
    return {mask: flip_perm(gad, mask) for mask in gad.middles}


@dataclass(frozen=True)
class MapClass:
    twin_preserving: bool
    link_preserving: bool

    @property
    def label(self) -> str:
        if self.twin_preserving:
            return "twin_preserving"
        if self.link_preserving:
            return "link_preserving"
        return "neither"


def classify_map(gadget: Gadget, perm: VertexPerm) -> MapClass:
    """Classify a verified automorphism: does it fix the link set, and does it
    map every twin pair onto a twin pair coherently?"""
    d = gadget.d
    if not is_automorphism(gadget.graph, perm):
        raise ValueError("map is not an automorphism of the gadget")
    link_preserving = all(perm[x] < 2 * d for x in range(2 * d))
    twin_preserving = link_preserving and all(
        perm[twin(d, x)] == twin(d, perm[x]) for x in range(2 * d)
    )
    return MapClass(twin_preserving, link_preserving)


def decompose_twin_preserving(gadget: Gadget, perm: VertexPerm) -> tuple[int, tuple[int, ...]]:
    """Write a twin-preserving automorphism uniquely as flip(mask) after lift(pi).

    Returns (mask, pi); recomposition reproduces the input exactly.
    """
    d = gadget.d
    if not classify_map(gadget, perm).twin_preserving:
        raise ValueError("map is not twin-preserving")
    pi = tuple(perm[i] % d for i in range(d))
    mask = 0
    for i in range(d):
        if perm[i] >= d:
            mask |= 1 << pi[i]
    if bin(mask).count("1") % 2 != 0:
        raise ValueError("decomposition produced an odd mask; map was not an automorphism")
    recomposed = compose(flip_perm(gadget, mask), lift_permutation(gadget, pi))
    if recomposed != perm:
        raise AssertionError("twin-preserving decomposition failed to recompose")
    return mask, pi


def automorphisms_by_decomposition(d: int) -> list[VertexPerm]:
    """Every flip-after-lift automorphism; the full group when d is not 1, 2, or 4."""
    if d in (1, 2, 4):
        raise ValueError(f"decomposition does not exhaust the group at d={d}")
    gad = build_gadget(d)
    out = []
    for mask in gad.middles:
        f = flip_perm(gad, mask)
        for pi in permutations(range(d)):
            out.append(compose(f, lift_permutation(gad, pi)))
    if len(set(out)) != len(out):
        raise AssertionError("flip/lift pairs produced duplicate automorphisms")
    return out


def sample_nontwin_automorphism(d: int) -> VertexPerm:
    """A known automorphism that is not twin-preserving; exists only for d in {1,2,4}."""
    gad = build_gadget(d)
    if d == 1:
        # fixes a_0, swaps b_0 with the lone middle vertex
        perm: VertexPerm = (0, 2, 1)
    elif d == 2:
        # a_0->b_0, b_0->a_1, a_1->b_1, b_1->a_0; swaps the two middles
        perm = (2, 3, 1, 0, 5, 4)
    elif d == 4:
        # exchanges the link side with the middle side wholesale
        pairs = {
            0: gad.middle_vertex(0b0110),
            1: gad.middle_vertex(0b0101),
            2: gad.middle_vertex(0b0011),
            3: gad.middle_vertex(0b0000),
            4: gad.middle_vertex(0b1001),
            5: gad.middle_vertex(0b1010),
            6: gad.middle_vertex(0b1100),
            7: gad.middle_vertex(0b1111),
        }
        out = [0] * gad.graph.n
        for x, y in pairs.items():
            out[x] = y
            out[y] = x
        perm = tuple(out)
    else:
        raise ValueError(f"every automorphism is twin-preserving at d={d}")
    if not is_automorphism(gad.graph, perm):
        raise AssertionError("stored counterexample map is not an automorphism")
    return perm
