"""Ground-truth isomorphism and automorphism search, exhaustive with pruning.

This is the desk-scale oracle: it either returns a verified map or certifies
absence by exhausting the pruned search space.  Candidate pruning uses the
signature (color, degree, sorted neighbor (degree, color) multiset); the
search extends the most constrained vertex first (fewest candidates, then
most mapped neighbours, then lowest index).  Candidate sets are integer
bitmasks over the second graph's vertices, narrowed after each choice v -> w
by w's adjacency row or its complement.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from .base_graph import BaseGraph
from .cfi import CfiGraph, gadget_flip_map, lift_base_automorphism
from .errors import SizeGuardError

ISO_SIZE_GUARD = 44


def _signatures(g: BaseGraph, colors: Optional[Sequence[int]]) -> list[tuple]:
    col = colors if colors is not None else [0] * g.n
    sigs = []
    for v in range(g.n):
        nbr = tuple(sorted((g.degree(u), col[u]) for u in g.adjacency[v]))
        sigs.append((col[v], g.degree(v), nbr))
    return sigs


def _search(
    g1: BaseGraph,
    g2: BaseGraph,
    colors1: Optional[Sequence[int]],
    colors2: Optional[Sequence[int]],
    find_all: bool,
) -> list[tuple[int, ...]]:
    n = g1.n
    if n != g2.n or len(g1.edges) != len(g2.edges):
        return []
    sig1 = _signatures(g1, colors1)
    sig2 = _signatures(g2, colors2)
    if Counter(sig1) != Counter(sig2):
        return []

    adj1 = g1.adjacency_bits
    adj2 = g2.adjacency_bits
    nbrs1 = g1.sorted_adjacency
    full = (1 << n) - 1
    sig_mask: dict[tuple, int] = {}
    for w, s in enumerate(sig2):
        sig_mask[s] = sig_mask.get(s, 0) | (1 << w)

    cand = [sig_mask[s] for s in sig1]
    mapped_nbrs = [0] * n  # neighbours of each vertex mapped so far
    mapping = [-1] * n
    found: list[tuple[int, ...]] = []

    def pick(free: list[int]) -> int:
        # most constrained first: key (candidates, -mapped neighbours, v)
        best, best_nc, best_nb = -1, n + 1, -1
        for v in free:
            nc = cand[v].bit_count()
            if nc < best_nc or (nc == best_nc and mapped_nbrs[v] > best_nb):
                best, best_nc, best_nb = v, nc, mapped_nbrs[v]
        return best

    def extend(free: list[int]) -> bool:
        if not free:
            found.append(tuple(mapping))
            return not find_all
        v = pick(free)
        rest = [u for u in free if u != v]
        adj_v = adj1[v]
        for u in nbrs1[v]:
            mapped_nbrs[u] += 1
        choices = cand[v]
        while choices:
            low = choices & -choices
            choices ^= low
            w = low.bit_length() - 1
            # images of v's neighbours must be w's neighbours, and of the
            # other vertices its non-neighbours; no vertex but v maps to w
            inside = adj2[w]
            outside = full & ~inside & ~low
            saved = cand[:]
            mapping[v] = w
            ok = True
            for u in rest:
                c = cand[u] & (inside if (adj_v >> u) & 1 else outside)
                if not c:
                    ok = False
                    break
                cand[u] = c
            if ok and extend(rest):
                return True
            cand[:] = saved
        mapping[v] = -1
        for u in nbrs1[v]:
            mapped_nbrs[u] -= 1
        return False

    extend(list(range(n)))
    return found


def _verify(g1, g2, colors1, colors2, perm) -> None:
    if not g1.is_isomorphism(g2, perm):
        raise AssertionError("search returned a non-isomorphism")
    if colors1 is not None or colors2 is not None:
        c1 = colors1 if colors1 is not None else [0] * g1.n
        c2 = colors2 if colors2 is not None else [0] * g2.n
        if any(c1[v] != c2[perm[v]] for v in range(g1.n)):
            raise AssertionError("search returned a color-breaking map")


def find_isomorphism(
    g1: BaseGraph,
    g2: BaseGraph,
    colors1: Optional[Sequence[int]] = None,
    colors2: Optional[Sequence[int]] = None,
) -> Optional[tuple[int, ...]]:
    """A verified isomorphism g1 -> g2, or None after exhausting the search."""
    if max(g1.n, g2.n) > ISO_SIZE_GUARD:
        raise SizeGuardError(f"isomorphism search guarded at {ISO_SIZE_GUARD} vertices")
    res = _search(g1, g2, colors1, colors2, find_all=False)
    if not res:
        return None
    _verify(g1, g2, colors1, colors2, res[0])
    return res[0]


def automorphisms(g: BaseGraph, colors: Optional[Sequence[int]] = None) -> list[tuple[int, ...]]:
    """All automorphisms, exhaustively enumerated."""
    if g.n > ISO_SIZE_GUARD:
        raise SizeGuardError(f"automorphism search guarded at {ISO_SIZE_GUARD} vertices")
    return _search(g, g, colors, colors, find_all=True)


# -- structure of CFI maps ----------------------------------------------------


def is_gadget_preserving(perm: Sequence[int], c1: CfiGraph, c2: CfiGraph) -> Optional[list[int]]:
    """If the map sends every gadget vertex set onto a gadget vertex set, return
    the induced base map as a list; otherwise None."""
    if c1.base != c2.base:
        raise ValueError("maps between CFI graphs over different bases are not supported")
    sets2 = {frozenset(c2.gadget_vertices(u)): u for u in range(c2.base.n)}
    sigma = []
    for u in range(c1.base.n):
        image = frozenset(perm[i] for i in c1.gadget_vertices(u))
        if image not in sets2:
            return None
        sigma.append(sets2[image])
    return sigma


def induced_base_map(perm: Sequence[int], c1: CfiGraph, c2: CfiGraph) -> list[int]:
    """The base automorphism induced by a gadget-preserving map; checks that each
    link pair lands setwise on the matching link pair of the image gadget."""
    sigma = is_gadget_preserving(perm, c1, c2)
    if sigma is None:
        raise ValueError("map is not gadget-preserving")
    base = c1.base
    if not base.is_isomorphism(base, sigma):
        raise AssertionError("induced base map is not a base automorphism")
    for u, v in base.edges:
        for (s, t) in ((u, v), (v, u)):
            got = {perm[c1.link_index(s, t, "a")], perm[c1.link_index(s, t, "b")]}
            want = {c2.link_index(sigma[s], sigma[t], "a"), c2.link_index(sigma[s], sigma[t], "b")}
            if got != want:
                raise AssertionError("link pair does not map onto a link pair")
    return sigma


def decompose_cfi_aut(
    perm: Sequence[int], c: CfiGraph
) -> tuple[list[int], dict[int, frozenset[int]]]:
    """Write a gadget-preserving automorphism uniquely as (per-gadget flips)
    composed after the lift of a base automorphism; recomposition is verified."""
    sigma = induced_base_map(perm, c, c)
    tau = lift_base_automorphism(c, sigma)
    inv_tau = [0] * c.n
    for x, y in enumerate(tau):
        inv_tau[y] = x
    f = [perm[inv_tau[x]] for x in range(c.n)]

    flips: dict[int, frozenset[int]] = {}
    for u in range(c.base.n):
        flipped = set()
        for v in c.base.adjacency[u]:
            ia, ib = c.link_index(u, v, "a"), c.link_index(u, v, "b")
            if f[ia] == ib:
                flipped.add(v)
            elif f[ia] != ia:
                raise ValueError("map does not restrict to a pair-preserving gadget map")
        if len(flipped) % 2 != 0:
            raise ValueError("per-gadget flip set has odd size; not an automorphism")
        flips[u] = frozenset(flipped)

    recomposed = tuple(gadget_flip_map(c, flips)[tau[x]] for x in range(c.n))
    if recomposed != tuple(perm):
        raise AssertionError("flip/lift decomposition failed to recompose")
    return sigma, flips
