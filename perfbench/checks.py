"""Independent checks of the engines' outputs.

Nothing here calls into ``cfigraphs``.  Every expected value comes either from
how the input was built (twist parity, the relabelling, the construction's
colours and gadget owners) or from a rule stated by the theory with the
treewidth of each family known in closed form.  Exhaustive oracles and the
polynomial engines are never used to check one another here.

Each check raises :class:`CheckFailure` on a wrong answer and returns None
otherwise.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterable, Optional, Sequence

Edge = tuple[int, int]


class CheckFailure(AssertionError):
    """An engine returned an output that contradicts the independent expectation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _edge_set(edges: Iterable[Sequence[int]]) -> set[Edge]:
    return {(min(u, v), max(u, v)) for u, v in edges}


def _degrees(n: int, edges: Iterable[Sequence[int]]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


# -- treewidth of the families, in closed form ---------------------------------


def known_treewidth(family: str, params: Sequence[int] = ()) -> int:
    """Treewidth of a named family: paths 1, cycles 2, K_n n-1, K_{3,3} 3,
    grid a x b min(a, b), Petersen 4, and the star K_{1,b} 1.

    ``rr3`` (a random 3-regular graph) returns 3, which is only a lower bound
    (treewidth is at least the minimum degree); callers may use it only for
    k <= 3, where the rule "tw >= k" already holds.
    """
    if family == "P":
        return 1
    if family == "C":
        return 2
    if family == "K":
        return params[0] - 1
    if family == "Kab":
        a, b = params
        if min(a, b) == 1:
            return 1
        if (a, b) == (3, 3):
            return 3
    if family == "grid":
        return min(params)
    if family == "petersen":
        return 4
    if family == "rr3":
        return 3
    raise ValueError(f"no closed-form treewidth for {family} {tuple(params)}")


def check_counting_verdict(equivalent: bool, tw: int, k: int) -> None:
    """C^k equivalence of a CFI pair holds exactly when tw(base) >= k."""
    _require(equivalent == (tw >= k),
             f"C^{k} verdict {equivalent} but tw(base)={tw} gives {tw >= k}")


def check_lk_verdict(equivalent: bool, tw: int, k: int, uncolored_path: bool) -> None:
    """L^k is implied by C^k, so tw >= k forces equivalence; on uncolored
    path pairs L^2 holds although C^2 fails."""
    if tw >= k:
        _require(equivalent, f"L^{k} fails although tw(base)={tw} >= {k} gives C^{k}")
    if uncolored_path and k == 2:
        _require(equivalent, "L^2 fails on an uncolored path pair")


def check_control(equivalent: bool) -> None:
    _require(equivalent, "a graph is reported inequivalent to a relabelled copy of itself")


# -- distinguisher -------------------------------------------------------------


def check_verdict(twisted: bool, twist_count: int) -> None:
    """The verdict must equal the parity of the twist set the input was built with."""
    _require(twisted == (twist_count % 2 == 1),
             f"verdict twisted={twisted} but the input carries {twist_count} twists")


def check_recovered_base(rec_n: int, rec_edges: Sequence[Edge],
                         true_n: int, true_edges: Sequence[Edge]) -> None:
    """Recovered base: same vertex count, edge count and degree multiset."""
    _require(rec_n == true_n, f"recovered base has {rec_n} vertices, expected {true_n}")
    _require(len(rec_edges) == len(true_edges),
             f"recovered base has {len(rec_edges)} edges, expected {len(true_edges)}")
    _require(Counter(_degrees(rec_n, rec_edges)) == Counter(_degrees(true_n, true_edges)),
             "recovered base has another degree multiset")


def check_gadgets(gadget_sets: Sequence[Iterable[int]], rec_edges: Sequence[Edge],
                  owner: Sequence[int], sigma: Sequence[int],
                  true_n: int, true_edges: Sequence[Edge]) -> None:
    """Every recovered gadget is exactly one constructed gadget under the known
    relabelling, and the induced map on gadget ids is a base isomorphism.

    ``owner[x]`` is the base vertex whose gadget holds construction vertex x;
    ``sigma[x]`` is the input vertex that x was relabelled to.
    """
    inv = [0] * len(sigma)
    for x, y in enumerate(sigma):
        inv[y] = x
    blocks: dict[int, set[int]] = {}
    for x, u in enumerate(owner):
        blocks.setdefault(u, set()).add(sigma[x])
    to_base = []
    for gid, verts in enumerate(gadget_sets):
        verts = set(verts)
        us = {owner[inv[v]] for v in verts}
        _require(len(us) == 1, f"recovered gadget {gid} spans base vertices {sorted(us)[:4]}")
        u = us.pop()
        _require(verts == blocks[u], f"recovered gadget {gid} is not all of gadget {u}")
        to_base.append(u)
    _require(len(to_base) == true_n and len(set(to_base)) == true_n,
             "recovered gadgets do not biject onto the base vertices")
    true_set = _edge_set(true_edges)
    mapped = _edge_set((to_base[a], to_base[b]) for a, b in rec_edges)
    _require(len(rec_edges) == len(true_set) and mapped == true_set,
             "gadget bijection is not a base isomorphism")


def check_same_color(same_rows: Sequence[int], colors: Sequence[int],
                     sigma: Sequence[int]) -> None:
    """Same-colour predicate rows (bitmasks over input vertices) must equal the
    colour classes of the colored construction, carried through the relabelling."""
    _require(len(same_rows) == len(colors), "predicate table has the wrong size")
    klass: dict[int, int] = {}
    for x, col in enumerate(colors):
        klass[col] = klass.get(col, 0) | (1 << sigma[x])
    for x, col in enumerate(colors):
        _require(same_rows[sigma[x]] == klass[col],
                 f"same-colour row of input vertex {sigma[x]} differs from its colour class")


# -- maps and groups -----------------------------------------------------------


def check_isomorphism(perm: Optional[Sequence[int]], n: int, edges1: Sequence[Edge],
                      edges2: Sequence[Edge], colors1: Optional[Sequence[int]] = None,
                      colors2: Optional[Sequence[int]] = None) -> None:
    """A returned map must be a bijection carrying every edge onto an edge,
    with as many edges on both sides, and every colour onto the same colour."""
    _require(perm is not None, "no isomorphism found for a planted relabelling")
    _require(sorted(perm) == list(range(n)), "map is not a bijection")
    target = _edge_set(edges2)
    _require(len(_edge_set(edges1)) == len(target), "edge counts differ")
    for u, v in edges1:
        _require((min(perm[u], perm[v]), max(perm[u], perm[v])) in target,
                 f"edge ({u},{v}) is not carried onto an edge")
    if colors1 is not None or colors2 is not None:
        c1 = colors1 if colors1 is not None else [0] * n
        c2 = colors2 if colors2 is not None else [0] * n
        _require(all(c1[v] == c2[perm[v]] for v in range(n)), "map breaks a colour")


def check_non_isomorphic(perm: Optional[Sequence[int]]) -> None:
    _require(perm is None, "an original and a once-twisted CFI graph were reported isomorphic")


def check_automorphisms(perms: Sequence[Sequence[int]], n: int, edges: Sequence[Edge],
                        colors: Optional[Sequence[int]], order: Optional[int] = None,
                        divisor: Optional[int] = None) -> None:
    """Every listed map is a distinct automorphism; the group has the given
    order, or an order that a known subgroup order divides strictly."""
    _require(len({tuple(p) for p in perms}) == len(perms), "automorphisms repeat")
    for p in perms:
        check_isomorphism(p, n, edges, edges, colors, colors)
    if order is not None:
        _require(len(perms) == order, f"group order {len(perms)}, expected {order}")
    if divisor is not None:
        _require(len(perms) % divisor == 0 and len(perms) > divisor,
                 f"group order {len(perms)} is not a proper multiple of {divisor}")


def gadget_group_order(d: int, colored: bool) -> Optional[int]:
    """Colored gadget groups have order 2^(d-1); uncolored ones d!*2^(d-1) for
    d = 3, 5.  Other uncolored degrees have no closed form here (None)."""
    if colored:
        return 1 << (d - 1)
    if d in (3, 5):
        return factorial(d) << (d - 1)
    return None


def twin_preserving_order(d: int) -> int:
    """Order of the twin-preserving subgroup of the uncolored gadget group."""
    return factorial(d) << (d - 1)


def colored_cfi_aut_order(n: int, m: int) -> int:
    """Colored CFI graphs over a connected base with n vertices and m edges:
    the automorphisms are the flips along even subgraphs, 2^(m - n + 1)."""
    return 1 << (m - n + 1)


def cycle_union_aut_order(lengths: Sequence[int]) -> int:
    """Automorphism group order of a disjoint union of cycles of the given lengths."""
    order = 1
    for length, copies in Counter(lengths).items():
        order *= (2 * length) ** copies * factorial(copies)
    return order


# -- treewidth and the pursuit game ---------------------------------------------


def check_treewidth(width: int, bags: Sequence[Iterable[int]], tree_edges: Sequence[Edge],
                    n: int, edges: Sequence[Edge], tw: int) -> None:
    """The width equals the known treewidth and the witness is a tree
    decomposition of that width."""
    _require(width == tw, f"treewidth {width}, expected {tw}")
    bags = [set(b) for b in bags]
    k = len(bags)
    _require(k >= 1 and len(tree_edges) == k - 1, "bag tree has the wrong edge count")
    _require(max(len(b) for b in bags) - 1 <= tw, "witness is wider than the known treewidth")
    adj: list[list[int]] = [[] for _ in range(k)]
    for i, j in tree_edges:
        adj[i].append(j)
        adj[j].append(i)

    def connected(nodes: set[int]) -> bool:
        start = next(iter(nodes))
        seen, stack = {start}, [start]
        while stack:
            for j in adj[stack.pop()]:
                if j in nodes and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen == nodes

    _require(connected(set(range(k))), "bag tree is not connected")
    for u, v in edges:
        _require(any(u in b and v in b for b in bags), f"edge ({u},{v}) lies in no bag")
    for v in range(n):
        holding = {i for i, b in enumerate(bags) if v in b}
        _require(bool(holding) and connected(holding), f"bags of vertex {v} are not a subtree")


def check_robber(wins: bool, cops: int, tw: int) -> None:
    """The robber evades k cops exactly when k <= tw."""
    _require(wins == (cops <= tw), f"robber_wins with {cops} cops is {wins}, treewidth {tw}")


# -- homomorphism counts ---------------------------------------------------------


def _walk_vectors(n: int, edges: Sequence[Edge], start: list[int], steps: int) -> list[int]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    vec = start
    for _ in range(steps):
        vec = [sum(vec[w] for w in adj[v]) for v in range(n)]
    return vec


def walk_count(n: int, edges: Sequence[Edge], length: int) -> int:
    """1^T A^length 1 in exact integers: the number of walks with that many edges."""
    return sum(_walk_vectors(n, edges, [1] * n, length))


def closed_walk_count(n: int, edges: Sequence[Edge], length: int) -> int:
    """tr(A^length) in exact integers: closed walks with that many edges."""
    total = 0
    for s in range(n):
        unit = [0] * n
        unit[s] = 1
        total += _walk_vectors(n, edges, unit, length)[s]
    return total


def check_strict_gap(gap: Sequence[int]) -> None:
    """hom(2-subdivision, original) exceeds hom(2-subdivision, twisted)."""
    _require(gap[0] > gap[1], f"homomorphism counts {tuple(gap)} are not strictly ordered")


def check_counts(got: Sequence[int], expected: Sequence[int], what: str) -> None:
    _require(tuple(got) == tuple(expected), f"{what} {tuple(got)}, expected {tuple(expected)}")
