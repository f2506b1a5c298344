"""Equivalence of graphs in bounded-variable logics.

Three engines, deliberately distinct so they can cross-check each other:

* ``lk_equivalent``: the k-variable logic without counting, as the greatest
  fixpoint of the k-pebble game; equivalent iff the diagonal tuples of the
  two graphs realize the same class sets.
* ``wl_equivalent``: dim-dimensional Weisfeiler-Leman refinement compared by
  class histograms; it decides the counting logic with dim+1 variables.
  Dim 1 is colour refinement on vertices: the tuple kernel would build an
  n-by-n row block there, and its atomic type carries no adjacency.  Its
  rows (a vertex's class, then its neighbours' classes, sorted) are ranked
  per degree group, each row whole however wide.

  Both run one kernel over the k-tuples of both graphs.  A tuple's row is
  its class and, per coordinate, the *set* of classes that substituting each
  vertex there reaches (L^k), or the *multiset* of substituted k-tuples of
  classes, three ids (< 2^18) to an int64 word (WL).  No round holds all rows:
  slabs are built from views of the class cube.
  Colours are ranked jointly to dense ints first, so any int is a colour.

  Every class id, from the atomic types and colour refinement's seed on,
  comes from one ranking (``_rank``): rows are hashed to uint64 under keys a
  seeded PRNG draws and get dense ids, in first-seen order, from one sorted
  table; a row unequal to its id's first row (a collision) redoes the
  ranking under the next salt, and a collision under every one of ``SALTS``
  salts raises ``AssertionError``.
* ``ck_equivalent_game``: the bijective k-pebble game (k = 2, 3) solved
  outright at tiny scale: a position of k-1 pebbles lives while its live
  extensions admit a perfect matching.  The 3-pebble solver works in numpy
  rounds over the symmetric half of its positions (p0 <= p1, mirrored):
  cheap rounds kill on an empty row or an uncovered column, and exact
  rounds match greedily, with Kuhn only where greedy gets stuck, until an
  exact round kills nothing.  It must agree with ``wl_equivalent`` at
  dim = k-1, so it reads only the graphs and colours, never refinement
  classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .base_graph import BaseGraph, vertex_colors
from .errors import SizeGuardError

LK_TUPLE_GUARD = 250_000
# int64 cells of a round's rows (128 MB), which bound its work and stored rows:
# the tuple guard alone admits L^2 on two 353-vertex graphs, rows of 1.4 GB
ROW_CELL_GUARD = 16_000_000
CK_STATE_GUARD = 600_000
SLAB_CELLS = 1 << 18  # int64 cells of the rows one slab builds and ranks at once
SALTS = 8  # salts a ranking tries; a collision under each is an engine fault


def _joint_colors(g1: BaseGraph, g2: BaseGraph, colors1: Optional[Sequence[int]],
                  colors2: Optional[Sequence[int]]) -> np.ndarray:
    """Both graphs' colours over one index space (graph 1's vertices, then
    graph 2's), ranked to dense ints in their order, so any int fits."""
    joint = vertex_colors(g1, colors1) + vertex_colors(g2, colors2)
    rank = {c: i for i, c in enumerate(sorted(set(joint)))}
    return np.array([rank[c] for c in joint], dtype=np.int64)


def _pair_types(g: BaseGraph) -> np.ndarray:
    """The type of every vertex pair: 0 apart, 1 adjacent, 2 equal."""
    rel = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        rel[u, v] = rel[v, u] = 1
    np.fill_diagonal(rel, 2)
    return rel


def _atomic_rows(g: BaseGraph, col: np.ndarray, k: int) -> np.ndarray:
    """Atomic-type signature of every k-tuple: coordinate colors (``col``,
    ranked by ``_joint_colors``) plus the pair type of every coordinate pair."""
    rel = _pair_types(g)
    digits = [np.arange(g.n ** k) // g.n ** i % g.n for i in range(k)]
    return np.stack([col[d] for d in digits] + [
        rel[digits[i], digits[j]] for i in range(k) for j in range(i + 1, k)], axis=1)


def _slabs(n: int, C: np.ndarray, k: int, count: int, width: int, sets: bool) -> Iterator[np.ndarray]:
    """One graph's rows for the next round, a slab of consecutive tuples at a
    time: the class, then blocks of ``width`` columns (padding -1 first) per
    coordinate (L^k: classes, duplicates blanked) or word (WL: 3 ids folded)."""
    cube = C.reshape((n,) * k)  # axis k-1-i holds coordinate i; a slab is a range of axis 0
    groups = [[i] for i in range(k)] if sets else [range(j, min(j + 3, k)) for j in range(0, k, 3)]
    subs = [np.broadcast_to(np.expand_dims(np.moveaxis(
        cube if sets else cube * count ** (len(group) - 1 - p), k - 1 - i, -1), k - 1 - i),
        (n,) * (k + 1)) for group in groups for p, i in enumerate(group)]
    unit = n ** (k - 1)  # tuples per index of axis 0
    step = max(1, SLAB_CELLS // max(1, unit * (1 + len(groups) * width)))
    buf = np.full((min(step, n) * unit, 1 + len(groups) * width), -1, dtype=np.int64)
    for lo in range(0, n, step):
        rows = buf[:(min(n, lo + step) - lo) * unit]
        rows[:, 0] = C[lo * unit:lo * unit + len(rows)]
        blocks = [rows[:, 1 + (j + 1) * width - n:1 + (j + 1) * width] for j in range(len(groups))]
        for block, group in zip(blocks, groups):
            fold = block.reshape((-1,) + (n,) * k)  # a view: only axis 0 splits
            np.copyto(fold, subs[group[0]][lo:lo + step])
            for i in group[1:]:
                fold += subs[i][lo:lo + step]
        if len(blocks) > 1 and not sets:  # the words of one element move together
            order = np.lexsort(blocks[::-1], axis=1)
            for block in blocks:
                block[...] = np.take_along_axis(block, order, axis=1)
        for block in blocks if sets or len(blocks) == 1 else ():
            block.sort(axis=1)
            if sets:
                block[:, 1:][block[:, 1:] == block[:, :-1]] = -1
                block.sort(axis=1)
        yield rows


def _row_hash(rows: np.ndarray, salt: int) -> np.ndarray:
    """Each row's uint64 hash: its cells weighted by keys a PRNG seeded by salt draws."""
    keys = np.frombuffer(random.Random(salt).randbytes(8 * rows.shape[1]), dtype=np.uint64)
    return np.einsum("ij,j->i", rows.view(np.uint64), keys)


def _rank(slabs: Callable[[], Iterable[np.ndarray]], size: int) -> tuple[np.ndarray, int]:
    """Dense ids of the ``size`` rows that ``slabs()`` streams, equal rows,
    equal ids, in first-seen order; and how many there are.  Rows are hashed
    to uint64 and looked up in one sorted table; a row unequal to the first
    row of its id (a collision) redoes the ranking under the next salt, at
    most ``SALTS`` times."""
    for salt in range(SALTS):
        ids, count = [], 0
        table, table_ids = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        reps = np.empty((0, 0), dtype=np.int64)  # the first row of each id
        for rows in slabs():
            uniq, inverse = np.unique(_row_hash(rows, salt), return_inverse=True)
            np.minimum.at(first := np.full(len(uniq), len(rows)), inverse, np.arange(len(rows)))
            at = np.searchsorted(table, uniq)
            seen = at < len(table)
            seen[seen] = table[at[seen]] == uniq[seen]
            new = np.flatnonzero(~seen)[np.argsort(first[~seen])]
            uid = np.empty(len(uniq), dtype=np.int64)
            uid[seen], uid[new] = table_ids[at[seen]], np.arange(count, count + len(new))
            if len(reps) < count + len(new):
                reps.resize((min(size, 2 * (count + len(new))), rows.shape[1]), refcheck=False)
            reps[count:count + len(new)] = rows[first[new]]
            count += len(new)
            table, table_ids = (np.insert(a, at[~seen], v[~seen]) for a, v in ((table, uniq), (table_ids, uid)))
            ids.append(uid[inverse])
            if not np.array_equal(np.take(reps, ids[-1], axis=0), rows):
                break
        else:
            return np.concatenate(ids), count
    raise AssertionError(f"row hashes collided under each of {SALTS} salts")


def _refinement(g1: BaseGraph, g2: BaseGraph, k: int,
                colors1: Optional[Sequence[int]], colors2: Optional[Sequence[int]],
                sets: bool) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Refine the k-tuples of both graphs jointly; yield the shared classes
    ``(C1, C2, count)`` of the atomic types and then after every round.
    Rows of the smaller graph are padded to the larger graph's width."""
    if g1.n ** k + g2.n ** k > LK_TUPLE_GUARD:
        raise SizeGuardError("tuple space too large for k-tuple refinement")
    width = max(g1.n, g2.n)
    if (g1.n ** k + g2.n ** k) * (1 + (k if sets else 1) * width) > ROW_CELL_GUARD:
        raise SizeGuardError("row matrix too large for k-tuple refinement")
    col = _joint_colors(g1, g2, colors1, colors2)
    ids, count = _rank(lambda: (_atomic_rows(g1, col[:g1.n], k), _atomic_rows(g2, col[g1.n:], k)),
                       g1.n ** k + g2.n ** k)
    while True:
        C1, C2 = ids[:g1.n ** k], ids[g1.n ** k:]
        yield C1, C2, count
        ids, count = _rank(lambda: chain(_slabs(g1.n, C1, k, count, width, sets),
                                         _slabs(g2.n, C2, k, count, width, sets)), len(ids))


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    rounds: tuple[int, ...]  # shared class count after each refinement round


def lk_equivalent_report(g1: BaseGraph, g2: BaseGraph, k: int,
                         colors1: Optional[Sequence[int]] = None,
                         colors2: Optional[Sequence[int]] = None) -> EquivalenceReport:
    """The k-pebble fixpoint's verdict and the class count of every round."""
    if k < 1:
        raise ValueError("k must be at least 1")
    refinement = _refinement(g1, g2, k, colors1, colors2, sets=True)
    C1, C2, count = next(refinement)
    rounds = [count]
    for C1, C2, count in refinement:
        if count == rounds[-1]:
            break
        rounds.append(count)
    diag1 = np.arange(g1.n) * sum(g1.n ** i for i in range(k))
    diag2 = np.arange(g2.n) * sum(g2.n ** i for i in range(k))
    equivalent = set(C1[diag1].tolist()) == set(C2[diag2].tolist())
    return EquivalenceReport(equivalent, tuple(rounds))


def lk_equivalent(g1: BaseGraph, g2: BaseGraph, k: int,
                  colors1: Optional[Sequence[int]] = None,
                  colors2: Optional[Sequence[int]] = None) -> bool:
    """Whether the graphs satisfy the same k-variable first-order sentences."""
    return lk_equivalent_report(g1, g2, k, colors1, colors2).equivalent


# -- Weisfeiler-Leman ----------------------------------------------------------


def _wl1_report(g1, g2, colors1, colors2) -> EquivalenceReport:
    """Colour refinement on both graphs' vertices at once (graph 1's, then
    graph 2's).  A vertex's row is its class and its neighbours' classes,
    sorted; rows are ranked per degree group, and the seed class holds the
    degree, so group ids offset into one class array."""
    n1, n = g1.n, g1.n + g2.n
    ends = np.concatenate([g.edge_ends() + top for g, top in ((g1, 0), (g2, n1))])
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    nbr = np.concatenate([ends[:, 1], ends[:, 0]])[np.argsort(src, kind="stable")]
    degree = np.bincount(src, minlength=n)
    first = np.cumsum(degree) - degree  # CSR offsets into nbr
    by_degree = np.argsort(degree, kind="stable")
    groups = []  # per degree: its vertices and their neighbour lists
    for vs in np.split(by_degree, np.flatnonzero(np.diff(degree[by_degree])) + 1):
        d = degree[vs[0]]
        groups.append((vs, nbr[first[vs][:, None] + np.arange(d)]))

    C, count = _rank(lambda: [np.stack([degree, _joint_colors(g1, g2, colors1, colors2)], axis=1)], n)
    rounds = [count]
    while True:
        new = np.empty(n, dtype=np.int64)
        count = 0
        for vs, nbrs in groups:
            rows = np.empty((len(vs), 1 + nbrs.shape[1]), dtype=np.int64)
            rows[:, 0] = C[vs]
            rows[:, 1:] = C[nbrs]
            rows[:, 1:].sort(axis=1)
            ids, size = _rank(lambda: [rows], len(vs))
            new[vs] = ids + count
            count += size
        if count == rounds[-1]:
            break
        C = new
        rounds.append(count)
    hist1 = np.bincount(C[:n1], minlength=count)
    return EquivalenceReport(bool(np.array_equal(hist1, np.bincount(C[n1:], minlength=count))),
                             tuple(rounds))


def wl_equivalent_report(g1: BaseGraph, g2: BaseGraph, dim: int,
                         colors1: Optional[Sequence[int]] = None,
                         colors2: Optional[Sequence[int]] = None) -> EquivalenceReport:
    """WL's verdict at dimension dim and the class count of every round."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if dim == 1:
        return _wl1_report(g1, g2, colors1, colors2)
    refinement = _refinement(g1, g2, dim, colors1, colors2, sets=False)
    _, _, count = next(refinement)
    rounds = [count]
    for C1, C2, count in refinement:
        stable = count == rounds[-1]
        if not stable:
            rounds.append(count)
        # histograms only ever split; inequality is final
        if not np.array_equal(np.bincount(C1, minlength=count),
                              np.bincount(C2, minlength=count)):
            return EquivalenceReport(False, tuple(rounds))
        if stable:
            return EquivalenceReport(True, tuple(rounds))


def wl_equivalent(g1: BaseGraph, g2: BaseGraph, dim: int,
                  colors1: Optional[Sequence[int]] = None,
                  colors2: Optional[Sequence[int]] = None) -> bool:
    """Whether dim-dimensional WL refinement leaves the two graphs with equal
    stable color histograms; decides the counting logic with dim+1 variables."""
    return wl_equivalent_report(g1, g2, dim, colors1, colors2).equivalent


# -- bijective pebble game ------------------------------------------------------


def _perfect_matching(rows: list[int], match_x: Sequence[int]) -> Optional[list[int]]:
    """Perfect matching in a bipartite graph given as row bitmasks; Kuhn.

    Returns ``None`` at once when a row is empty or a column is uncovered
    (Hall's condition fails on one vertex).  Otherwise starts from the pairs
    x -> match_x[x] still present in the rows and augments the other rows, so
    a fresh matching passes [-1] * n."""
    covered = 0
    for row in rows:
        if not row:
            return None
        covered |= row
    if covered != (1 << len(rows)) - 1:
        return None
    match_x = list(match_x)
    match_y = [-1] * len(rows)
    broken = []
    for x, y in enumerate(match_x):
        if y >= 0 and (rows[x] >> y) & 1 and match_y[y] < 0:
            match_y[y] = x
        else:
            match_x[x] = -1
            broken.append(x)

    def augment(x: int) -> bool:
        nonlocal visited
        avail = rows[x] & ~visited
        while avail:
            y = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            visited |= 1 << y
            if match_y[y] < 0 or augment(match_y[y]):
                match_y[y] = x
                match_x[x] = y
                return True
            avail &= ~visited
        return False

    for x in broken:
        visited = 0  # columns this row's augmenting search has reached
        if not augment(x):
            return None
    return match_x


def _ck_game_2(g1, g2, c1, c2) -> bool:
    """The bijective 2-pebble game over one-pebble positions (p -> q).

    It keeps O(n^2) state: one bitmask row per vertex and the last matching,
    from which each matching starts.  A position's rows are the live rows
    cut by the pair type of (p, x) against that of (q, y)."""
    n = g1.n
    full = (1 << n) - 1
    adj1, adj2 = g1.adjacency_bits, g2.adjacency_bits
    # alive[x]: bitmask over y of the live positions (x -> y)
    alive = [sum(1 << y for y in range(n) if c1[x] == c2[y]) for x in range(n)]
    last = [-1] * n
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(n):
                if not (alive[p] >> q) & 1:
                    continue
                near, far = adj2[q], full & ~adj2[q] & ~(1 << q)
                rows = [alive[x] & (1 << q if x == p else near if (adj1[p] >> x) & 1 else far)
                        for x in range(n)]
                m = _perfect_matching(rows, last)
                if m is None:
                    alive[p] &= ~(1 << q)
                    changed = True
                else:
                    last = m
    return _perfect_matching(alive, [-1] * n) is not None


def _matchable(block: np.ndarray, exact: bool) -> np.ndarray:
    """Per position (a row of ``block``: the n uint64 row masks x -> y of its
    bipartite graph), False when it has no perfect matching.  Cheap: only an
    empty row or an uncovered column.  Exact: also greedy in x order, each x
    taking its lowest free y, and ``_perfect_matching`` where greedy sticks."""
    n = block.shape[1]
    full = (1 << n) - 1
    ok = (block != 0).all(axis=1) & (np.bitwise_or.reduce(block, axis=1) == full)
    if exact:
        used = np.zeros(len(block), dtype=np.uint64)
        for x in range(n):
            free = block[:, x] & ~used
            used |= free & -free
        for i in np.flatnonzero(ok & (used != full)):
            ok[i] = _perfect_matching(block[i].tolist(), [-1] * n) is not None
    return ok


def _ck_alive_3(g1, g2, c1, c2) -> np.ndarray:
    """The bijective 3-pebble game's greatest fixpoint over two-pebble positions
    (p0 -> q0, p1 -> q1): bit q1 of rows[p0, p1, q0] is set iff it lives; see ``_ck_game_3``."""
    n = g1.n
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    colmatch = np.asarray(c1)[:, None] == np.asarray(c2)[None, :]

    # alive[p0,p1,q0,q1]: the two-pebble position (p0->q0, p1->q1) survives
    alive = (
        colmatch[:, None, :, None]
        & colmatch[None, :, None, :]
        & (_pair_types(g1)[:, :, None, None] == _pair_types(g2)[None, None, :, :])
    )
    rows = alive @ bits  # rows[p, x, q]: bitmask over y of alive[p, x, q, y]

    # with p0 == p1 only q0 == q1 starts alive, so p0 <= p1 takes one of each pair
    pos = np.flatnonzero(alive & ~np.tri(n, k=-1, dtype=bool)[:, :, None, None])
    exact = False
    while True:
        ok = np.empty(len(pos), dtype=bool)
        for i in range(0, len(pos), 4096):  # chunks bound the row blocks' memory
            p0, p1, q0, q1 = np.unravel_index(pos[i:i + 4096], alive.shape)
            ok[i:i + 4096] = _matchable(rows[p0, :, q0] & rows[p1, :, q1], exact)
        if exact and ok.all():
            return rows
        exact = ok.all()
        p0, p1, q0, q1 = np.unravel_index(pos[~ok], alive.shape)
        np.bitwise_and.at(rows, (np.r_[p0, p1], np.r_[p1, p0], np.r_[q0, q1]), ~bits[np.r_[q1, q0]])
        pos = pos[ok]


def _ck_game_3(g1, g2, c1, c2) -> bool:
    """Duplicator's win in the bijective 3-pebble game from the empty board.

    ``_ck_alive_3`` solves the two-pebble positions.  A position lives while
    the bipartite graph x -> y of its live extensions has a perfect matching.
    A position and its mirror (p1 -> q1, p0 -> q0) pose the same matching
    problem, so only p0 <= p1 is solved, and every kill is written to both.
    A round judges all live positions at once against the live set at its
    start (``_matchable``): a cheap round kills on an empty row or an
    uncovered column, an exact round, run only after a cheap one kills
    nothing, on a failed matching; an exact round that kills nothing ends
    the solve.  A position dies only when its extensions over a superset of
    the final live set have no perfect matching, so this is the greatest
    fixpoint.  Like every game solver here, it reads only the graphs and
    colours, never refinement classes."""
    n = g1.n
    rows = _ck_alive_3(g1, g2, c1, c2)
    # rows[x, x, y] holds at most bit y, the position (x -> y, x -> y)
    start = np.bitwise_or.reduce(rows[range(n), range(n)], axis=1).tolist()
    return _perfect_matching(start, [-1] * n) is not None


def ck_equivalent_game(g1: BaseGraph, g2: BaseGraph, k: int,
                       colors1: Optional[Sequence[int]] = None,
                       colors2: Optional[Sequence[int]] = None) -> bool:
    """Tiny-scale oracle for equivalence in the counting logic with k variables,
    by solving the bijective k-pebble game outright."""
    if k not in (2, 3):
        raise SizeGuardError("the game oracle is implemented for k in {2, 3}")
    joint = _joint_colors(g1, g2, colors1, colors2).tolist()
    if g1.n != g2.n:
        return False
    if g1.n ** (2 * (k - 1)) > CK_STATE_GUARD:
        raise SizeGuardError("position space too large for the game oracle")
    c1, c2 = joint[:g1.n], joint[g1.n:]
    if k == 2:
        return _ck_game_2(g1, g2, c1, c2)
    return _ck_game_3(g1, g2, c1, c2)
