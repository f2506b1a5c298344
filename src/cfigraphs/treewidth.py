"""Exact treewidth via elimination orderings, and the pursuit game whose
winner characterizes it: the robber evades k cops forever iff the treewidth
is at least k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .base_graph import BaseGraph, is_connected
from .errors import SizeGuardError

TW_SIZE_GUARD = 16


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


def validate_tree_decomposition(g: BaseGraph, td: TreeDecomposition) -> None:
    """Raise unless td is a tree decomposition of g (edge cover, vertex
    connectivity, tree shape)."""
    k = len(td.bags)
    if k == 0 or any(not b for b in td.bags):
        raise ValueError("bags must be nonempty")
    if len(td.tree_edges) != k - 1:
        raise ValueError("tree must have exactly |bags|-1 edges")
    tree = BaseGraph.from_edges(k, td.tree_edges)
    if not is_connected(tree):
        raise ValueError("bag tree is not connected")
    covered = set()
    for b in td.bags:
        covered |= b
    if covered != set(range(g.n)):
        raise ValueError("bags do not cover every vertex")
    for u, v in g.edges:
        if not any(u in b and v in b for b in td.bags):
            raise ValueError(f"edge ({u},{v}) not covered by any bag")
    for v in range(g.n):
        holding = {i for i, b in enumerate(td.bags) if v in b}
        # a subforest of a tree is connected iff it has one edge fewer than vertices
        if sum(1 for i, j in tree.edges if i in holding and j in holding) != len(holding) - 1:
            raise ValueError(f"bags holding vertex {v} are not connected in the tree")


def _fill_neighbors(adjbits: tuple[int, ...], eliminated: int, v: int) -> int:
    """Bitmask of not-yet-eliminated vertices reachable from v via eliminated ones."""
    seen = 1 << v
    stack = [v]
    out = 0
    while stack:
        u = stack.pop()
        fresh = adjbits[u] & ~seen
        seen |= fresh
        while fresh:
            w = (fresh & -fresh).bit_length() - 1
            fresh &= fresh - 1
            if (eliminated >> w) & 1:
                stack.append(w)
            else:
                out |= 1 << w
    return out


def _eliminate_within(n: int, adjbits: tuple[int, ...], width: int) -> list[tuple[int, int]] | None:
    """An elimination order as (vertex, fill bitmask) pairs, every fill degree <= width, or None."""
    full = (1 << n) - 1
    failed: set[int] = set()
    order: list[tuple[int, int]] = []

    def search(eliminated: int) -> bool:
        if eliminated == full:
            return True
        if eliminated in failed:
            return False
        for v in range(n):
            if (eliminated >> v) & 1:
                continue
            fill = _fill_neighbors(adjbits, eliminated, v)
            if fill.bit_count() <= width:
                order.append((v, fill))
                if search(eliminated | (1 << v)):
                    return True
                order.pop()
        failed.add(eliminated)
        return False

    return order if search(0) else None


def _decomposition_from_order(order: list[tuple[int, int]]) -> TreeDecomposition:
    """Bag i: the i-th eliminated vertex and its fill, under the bag of the fill vertex eliminated first."""
    pos = {v: i for i, (v, _) in enumerate(order)}
    bags = []
    edges = []
    roots = []  # empty-fill bags: last vertex of each component, always singletons
    for i, (v, fill) in enumerate(order):
        later = [w for w in pos if (fill >> w) & 1]
        bags.append(frozenset([v, *later]))
        if later:
            edges.append((i, min(pos[w] for w in later)))
        else:
            roots.append(i)
    edges.extend(zip(roots, roots[1:]))  # chain component roots into one tree
    return TreeDecomposition(tuple(bags), tuple(edges))


def treewidth_exact(g: BaseGraph) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witness decomposition (validated on return)."""
    if g.n > TW_SIZE_GUARD:
        raise SizeGuardError(f"exact treewidth guarded at {TW_SIZE_GUARD} vertices")
    for width in range(g.n):
        order = _eliminate_within(g.n, g.adjacency_bits, width)
        if order is not None:
            td = _decomposition_from_order(order)
            validate_tree_decomposition(g, td)
            if td.width > width:
                raise AssertionError("witness decomposition wider than claimed")
            return width, td
    raise AssertionError("unreachable: width n-1 always admits an order")


# -- cops and robber -----------------------------------------------------------


def robber_wins(g: BaseGraph, k: int) -> bool:
    """Whether the robber evades k cops forever.

    Positions are (occupied cop set, robber component of the rest), both as
    vertex bitmasks; the moving cop is lifted before the robber runs.  Solved
    by backward induction: a position is lost for the robber once some cop
    move leaves no surviving reply, and the loss propagates by reverse edges.
    A cop move, (new cop set, region the robber may run through), is one
    node shared by every position that can make it, with one counter of its
    surviving replies.
    """
    if k < 1:
        raise ValueError("need at least one cop")
    if g.n < 2 or not is_connected(g):
        raise ValueError("the game is played on a connected graph with >= 2 vertices")
    if g.n > TW_SIZE_GUARD:
        raise SizeGuardError(f"game solver guarded at {TW_SIZE_GUARD} vertices")

    n = g.n
    adj = g.adjacency_bits
    full = (1 << n) - 1
    comp_cache: dict[int, list[int]] = {}

    def comps(blocked: int) -> list[int]:
        """Components of g minus the blocked vertices, by lowest vertex."""
        out = comp_cache.get(blocked)
        if out is not None:
            return out
        out = []
        rest = full & ~blocked
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    reach |= adj[low.bit_length() - 1]
                frontier = reach & rest & ~comp
                comp |= frontier
            out.append(comp)
            rest &= ~comp
        comp_cache[blocked] = out
        return out

    # state ids, keyed by cops << n | region
    index: dict[int, int] = {}
    states: list[tuple[int, int]] = []
    for size in range(1, k + 1):
        for cops in combinations(range(n), size):
            mask = sum(1 << c for c in cops)
            for region in comps(mask):
                index[mask << n | region] = len(states)
                states.append((mask, region))

    # move ids, keyed by new cops << n | run
    move_index: dict[int, int] = {}
    live: list[int] = []
    owners: list[list[int]] = []
    preds: list[list[int]] = [[] for _ in states]
    for st, (cops, region) in enumerate(states):
        lifts = []
        m = cops
        while m:
            low = m & -m
            m ^= low
            lifts.append(cops ^ low)
        if cops.bit_count() < k:
            lifts.append(cops)
        for lifted in lifts:
            run = next(d for d in comps(lifted) if region & ~d == 0)
            for dest in range(n):
                new_cops = lifted | (1 << dest)
                key = new_cops << n | run
                move = move_index.get(key)
                if move is None:
                    move = move_index[key] = len(live)
                    # the robber runs anywhere in `run` before the cop lands
                    replies = [index[new_cops << n | c]
                               for c in comps(new_cops) if c & ~run == 0]
                    live.append(len(replies))
                    owners.append([st])
                    for r in replies:
                        preds[r].append(move)
                elif owners[move][-1] != st:
                    owners[move].append(st)

    alive = [True] * len(states)
    queue: list[int] = []

    def lose(move: int) -> None:
        """Every state that can make this move, now without a reply, is lost."""
        for st in owners[move]:
            if alive[st]:
                alive[st] = False
                queue.append(st)

    for move, count in enumerate(live):
        if count == 0:
            lose(move)
    while queue:
        dead = queue.pop()
        for move in preds[dead]:
            live[move] -= 1
            if live[move] == 0:
                lose(move)

    return all(
        any(alive[index[(1 << v) << n | c]] for c in comps(1 << v))
        for v in range(n)
    )
