import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from cfigraphs import base_graph as bg
from cfigraphs import cfi
from cfigraphs import equivalence as eqv
from cfigraphs.errors import SizeGuardError


def test_lk_identity_and_paths():
    assert eqv.lk_equivalent(bg.petersen(), bg.petersen(), 2)
    assert not eqv.lk_equivalent(bg.path(1), bg.path(2), 2)
    assert not eqv.lk_equivalent(bg.path(2), bg.path(3), 2)
    # long paths collapse without counting
    assert eqv.lk_equivalent(bg.path(3), bg.path(9), 2)
    assert eqv.lk_equivalent(bg.path(4), bg.path(7), 2)


def test_lk_uses_colors():
    g = bg.path(1)
    assert eqv.lk_equivalent(g, g, 2, [0, 0], [0, 0])
    assert not eqv.lk_equivalent(g, g, 2, [0, 0], [0, 1])


def test_lk_monotone_in_k():
    y = cfi.build_cfi(bg.path(4)).graph
    yt = cfi.build_tilde(bg.path(4)).graph
    assert eqv.lk_equivalent(y, yt, 2)
    # k=3 may or may not hold, but k=1 must
    assert eqv.lk_equivalent(y, yt, 1)
    a, b = bg.path(2), bg.path(3)
    for k in (2, 3):
        if eqv.lk_equivalent(a, b, k + 1):
            assert eqv.lk_equivalent(a, b, k)


def test_two_variable_separation_on_paths():
    for m in (3, 4, 5):
        y = cfi.build_cfi(bg.path(m)).graph
        yt = cfi.build_tilde(bg.path(m)).graph
        assert eqv.lk_equivalent(y, yt, 2)
        assert not eqv.wl_equivalent(y, yt, 1)
    for base in (bg.path(3), bg.complete_bipartite(1, 3)):
        x = cfi.build_cfi(base, True)
        xt = cfi.build_tilde(base, True)
        assert not eqv.lk_equivalent(x.graph, xt.graph, 2, x.colors, xt.colors)


def test_wl1_basics():
    assert eqv.wl_equivalent(bg.cycle(6), bg.disjoint_union(bg.cycle(3), bg.cycle(3)), 1)
    assert not eqv.wl_equivalent(bg.cycle(6), bg.cycle(7), 1)
    assert not eqv.wl_equivalent(bg.path(3), bg.path(4), 1)
    assert eqv.wl_equivalent(bg.petersen(), bg.petersen(), 1)


def test_wl2_separates_cycle_unions():
    six = bg.cycle(6)
    two_threes = bg.disjoint_union(bg.cycle(3), bg.cycle(3))
    assert not eqv.wl_equivalent(six, two_threes, 2)


def test_wl_boundary_table():
    for base, tw in ((bg.path(3), 1), (bg.cycle(5), 2), (bg.complete(4), 3)):
        for colored in (False, True):
            y = cfi.build_cfi(base, colored)
            yt = cfi.build_tilde(base, colored)
            for k in (2, 3, 4):
                got = eqv.wl_equivalent(y.graph, yt.graph, k - 1, y.colors, yt.colors)
                assert got == (tw >= k), (base, colored, k)


def test_wl_relabel_invariance():
    rng = random.Random(11)
    y = cfi.build_cfi(bg.cycle(5)).graph
    yt = cfi.build_tilde(bg.cycle(5)).graph
    for dim in (1, 2):
        want = eqv.wl_equivalent(y, yt, dim)
        perm = list(range(yt.n))
        rng.shuffle(perm)
        assert eqv.wl_equivalent(y, yt.relabel(perm), dim) == want


def test_counting_implies_plain():
    # wherever WL at dim k-1 says equivalent, the k-variable fixpoint must too
    pairs = []
    for base in (bg.path(3), bg.cycle(4)):
        for colored in (False, True):
            y = cfi.build_cfi(base, colored)
            yt = cfi.build_tilde(base, colored)
            pairs.append((y.graph, yt.graph, y.colors, yt.colors))
    for g1, g2, c1, c2 in pairs:
        for k in (2, 3):
            if eqv.wl_equivalent(g1, g2, k - 1, c1, c2):
                assert eqv.lk_equivalent(g1, g2, k, c1, c2)


def test_colored_game_equals_plain_fixpoint_on_cfi():
    # with colors, the k-variable game and the counting game coincide on
    # twisted pairs: check the biconditional at k in {2, 3}
    for base in (bg.path(3), bg.cycle(4)):
        x = cfi.build_cfi(base, True)
        xt = cfi.build_tilde(base, True)
        for k in (2, 3):
            lk = eqv.lk_equivalent(x.graph, xt.graph, k, x.colors, xt.colors)
            ck = eqv.wl_equivalent(x.graph, xt.graph, k - 1, x.colors, xt.colors)
            assert lk == ck, (base, k)


def test_game_oracle_small():
    c3 = bg.cycle(3)
    two = bg.disjoint_union(c3, c3)
    six = bg.cycle(6)
    assert eqv.ck_equivalent_game(two, six, 2)
    assert not eqv.ck_equivalent_game(two, six, 3)
    assert eqv.ck_equivalent_game(six, six, 3)
    assert not eqv.ck_equivalent_game(bg.path(2), bg.path(3), 2)  # size mismatch


@pytest.mark.parametrize("k", [2, 3])
def test_game_checks_colors_before_size_mismatch(k):
    with pytest.raises(ValueError, match="colors length"):
        eqv.ck_equivalent_game(bg.path(3), bg.path(4), k, [0])


def test_game_oracle_agrees_with_wl():
    for base in (bg.path(3), bg.cycle(4)):
        for colored in (False, True):
            y = cfi.build_cfi(base, colored)
            yt = cfi.build_tilde(base, colored)
            for k in (2, 3):
                game = eqv.ck_equivalent_game(y.graph, yt.graph, k, y.colors, yt.colors)
                wl = eqv.wl_equivalent(y.graph, yt.graph, k - 1, y.colors, yt.colors)
                assert game == wl, (base, colored, k)


def test_game_guards():
    with pytest.raises(SizeGuardError):
        eqv.ck_equivalent_game(bg.path(3), bg.path(3), 4)
    big = cfi.build_cfi(bg.petersen()).graph
    with pytest.raises(SizeGuardError):
        eqv.ck_equivalent_game(big, big, 3)


def test_row_matrix_guard():
    # inside the tuple guard (249,218 tuples), but L^2's rows would be 1.4 GB
    g1, g2 = bg.path(352), bg.cycle(353)
    assert g1.n ** 2 + g2.n ** 2 == 249_218 <= eqv.LK_TUPLE_GUARD
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            eqv.lk_equivalent_report(g1, g2, 2)
        with pytest.raises(SizeGuardError):
            eqv.wl_equivalent_report(g1, g2, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_reports_round_counts():
    rep = eqv.wl_equivalent_report(bg.cycle(5), bg.cycle(5), 1)
    assert rep.equivalent and len(rep.rounds) >= 1
    rep = eqv.lk_equivalent_report(bg.path(3), bg.path(9), 2)
    assert rep.equivalent and rep.rounds[-1] >= rep.rounds[0]


def test_lk_relabel_invariance():
    rng = random.Random(23)
    y = cfi.build_cfi(bg.path(4)).graph
    yt = cfi.build_tilde(bg.path(4)).graph
    want = eqv.lk_equivalent(y, yt, 2)
    perm = list(range(yt.n))
    rng.shuffle(perm)
    assert eqv.lk_equivalent(y, yt.relabel(perm), 2) == want


def test_record_uncolored_three_variable_relation():
    # whether plain 3-variable equivalence implies the counting version on
    # uncolored twisted pairs is open; record both verdicts, assert neither
    recorded = {}
    for name, base in (("P3", bg.path(3)), ("C4", bg.cycle(4))):
        y = cfi.build_cfi(base).graph
        yt = cfi.build_tilde(base).graph
        recorded[name] = {
            "lk3": eqv.lk_equivalent(y, yt, 3),
            "ck3": eqv.wl_equivalent(y, yt, 2),
        }
    print(f"uncolored 3-variable record: {recorded}")
    for entry in recorded.values():
        assert isinstance(entry["lk3"], bool) and isinstance(entry["ck3"], bool)


def is_partial_iso(g1, g2, c1, c2, pairs):
    """Whether the pebble pairs (u, v) map g1's vertices onto g2's preserving
    colours, equality and adjacency."""
    for (u1, v1) in pairs:
        if c1[u1] != c2[v1]:
            return False
        for (u2, v2) in pairs:
            if (u1 == u2) != (v1 == v2):
                return False
            if u1 < u2 or (u1 == u2 and v1 < v2):
                if g1.has_edge(u1, u2) != g2.has_edge(v1, v2):
                    return False
    return True


def naive_lk_game(g1, g2, k, colors1=None, colors2=None):
    """Explicit position-space fixpoint of the k-pebble game; tiny scale only.

    Positions are partial isomorphisms of size <= k (as frozen pair sets);
    a position of size < k survives iff every placement on either side has a
    reply staying in the surviving family; larger positions shed a pair
    first.  With downward closure, checking extensions from sizes < k
    suffices.  Verdict: the empty position survives.
    """
    c1 = colors1 or [0] * g1.n
    c2 = colors2 or [0] * g2.n

    def partial_iso(pairs):
        return is_partial_iso(g1, g2, c1, c2, pairs)

    from itertools import combinations, product

    alive = set()
    all_pairs = list(product(range(g1.n), range(g2.n)))
    for size in range(k + 1):
        for pairs in combinations(all_pairs, size):
            h = frozenset(pairs)
            if len(h) == size and partial_iso(h):
                alive.add(h)

    changed = True
    while changed:
        changed = False
        for h in sorted(alive, key=len):
            if len(h) >= k:
                continue
            ok = all(
                any(h | {(x, y)} in alive for y in range(g2.n)) for x in range(g1.n)
            ) and all(
                any(h | {(x, y)} in alive for x in range(g1.n)) for y in range(g2.n)
            )
            if not ok:
                # downward closure: kill the position and all supersets
                dead = {g for g in alive if h <= g}
                alive -= dead
                changed = True
                break
    return frozenset() in alive


@st.composite
def tiny_graph_pairs(draw):
    def one(n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs))) if pairs else []
        return bg.BaseGraph.from_edges(n, edges)

    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(1, 4))
    return one(n1), one(n2)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(tiny_graph_pairs(), st.integers(1, 3))
def test_lk_refinement_matches_naive_game(pair, k):
    g1, g2 = pair
    assert eqv.lk_equivalent(g1, g2, k) == naive_lk_game(g1, g2, k)


@st.composite
def small_graph_pairs_same_size(draw):
    n = draw(st.integers(2, 6))

    def one():
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        return bg.BaseGraph.from_edges(n, edges)

    return one(), one()


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(small_graph_pairs_same_size(), st.integers(2, 3))
def test_game_oracle_matches_wl_on_random_pairs(pair, k):
    g1, g2 = pair
    assert eqv.ck_equivalent_game(g1, g2, k) == eqv.wl_equivalent(g1, g2, k - 1)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(tiny_graph_pairs())
def test_hierarchy_monotonicity_random(pair):
    g1, g2 = pair
    lk = [eqv.lk_equivalent(g1, g2, k) for k in (1, 2, 3)]
    for more, fewer in ((lk[2], lk[1]), (lk[1], lk[0])):
        if more:
            assert fewer  # more variables can only separate more
    wl = [eqv.wl_equivalent(g1, g2, dim) for dim in (1, 2)]
    if wl[1]:
        assert wl[0]
    # counting subsumes the plain fragment at the same variable count
    for k in (2, 3):
        if eqv.wl_equivalent(g1, g2, k - 1):
            assert eqv.lk_equivalent(g1, g2, k)


def _relabelled_twist(base, colored, twisted=True):
    """Y/X and the twisted copy (or a second copy of Y/X) relabelled by a fixed
    shuffle, colours pushed along."""
    y = cfi.build_cfi(base, colored)
    yt = cfi.build_tilde(base, colored) if twisted else y
    perm = list(range(yt.graph.n))
    random.Random(7).shuffle(perm)
    colors = None
    if yt.colors is not None:
        colors = [0] * yt.graph.n
        for v, c in enumerate(yt.colors):
            colors[perm[v]] = c
    return y.graph, yt.graph.relabel(perm), y.colors, colors


# (base, colored, engine, k) -> (equivalent, rounds); engine "wl" takes dim = k.
# Computed with the np.unique(axis=0) kernel, and the dim-1 entries with the
# dict-based colour refinement kept below as naive_wl1; the CLI's "rounds"
# shows these.
GOLDEN_ROUNDS = {
    ("P3", False, "wl", 1): (False, (2, 3, 4, 5, 7, 9, 11, 13, 14)),
    ("P3", True, "wl", 1): (False, (12, 14, 16, 18, 22, 26, 30, 34, 36)),
    ("C5", False, "wl", 1): (True, (1,)),
    ("C5", True, "wl", 1): (True, (15,)),
    ("K4", False, "wl", 1): (True, (1,)),
    ("K4", True, "wl", 1): (True, (16,)),
    ("P3", False, "wl", 2): (False, (3, 12, 51)),
    ("P3", False, "lk", 1): (True, (1,)),
    ("P3", False, "lk", 2): (True, (3,)),
    ("P3", False, "wl", 3): (False, (14, 112, 973)),
    ("P3", False, "lk", 3): (False, (14, 77, 973, 2784, 2816)),
    ("P3", True, "wl", 2): (False, (126, 188, 336)),
    ("P3", True, "lk", 1): (True, (10,)),
    ("P3", True, "lk", 2): (False, (126, 168, 214, 268, 332, 452, 648)),
    ("P3", True, "wl", 3): (False, (1822, 3378, 7558)),
    ("P3", True, "lk", 3): (False, (1822, 3378, 7558, 11604, 11664)),
    ("C5", False, "wl", 2): (False, (3, 4, 6, 11)),
    ("C5", False, "lk", 1): (True, (1,)),
    ("C5", False, "lk", 2): (True, (3,)),
    ("C5", True, "wl", 2): (False, (270, 300, 360, 510)),
    ("C5", True, "lk", 1): (True, (15,)),
    ("C5", True, "lk", 2): (True, (270,)),
    ("K4", False, "wl", 2): (True, (3, 4, 11, 23)),
    ("K4", False, "lk", 1): (True, (1,)),
    ("K4", False, "lk", 2): (True, (3,)),
    ("K4", True, "wl", 2): (True, (308, 340, 352)),
    ("K4", True, "lk", 1): (True, (16,)),
    ("K4", True, "lk", 2): (True, (308,)),
}

# graphs of differing sizes: the only inputs whose set/multiset rows are padded
GOLDEN_ROUNDS_P3_P9 = {
    ("wl", 1): (False, (2, 3, 5, 7)),
    ("wl", 2): (False, (3, 20)),
    ("lk", 1): (True, (1,)),
    ("lk", 2): (True, (3,)),
}


def _report(engine, g1, g2, k, c1=None, c2=None):
    run = eqv.wl_equivalent_report if engine == "wl" else eqv.lk_equivalent_report
    rep = run(g1, g2, k, c1, c2)
    return rep.equivalent, rep.rounds


def test_golden_round_traces():
    bases = {"P3": bg.path(3), "C5": bg.cycle(5), "K4": bg.complete(4)}
    pairs = {(name, colored): _relabelled_twist(base, colored)
             for name, base in bases.items() for colored in (False, True)}
    for (name, colored, engine, k), want in GOLDEN_ROUNDS.items():
        g1, g2, c1, c2 = pairs[name, colored]
        assert _report(engine, g1, g2, k, c1, c2) == want, (name, colored, engine, k)
    for (engine, k), want in GOLDEN_ROUNDS_P3_P9.items():
        assert _report(engine, bg.path(3), bg.path(9), k) == want, (engine, k)


def _random_cubic(n, seed):
    """A simple, connected 3-regular graph on n vertices from the pairing model."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2]) if u != v}
        if len(edges) == 3 * n // 2:
            g = bg.BaseGraph.from_edges(n, edges)
            if bg.is_connected(g):
                return g


# (base, colored) -> (equivalent, rounds) of colour refinement on CFI graphs of
# thousands of vertices against the relabelled twist; computed with naive_wl1
GOLDEN_WL1_LARGE = {
    ("grid15x15", False): (True, (4, 8, 12, 17, 21, 25, 33, 38, 43, 54, 60, 66, 80,
                                  87, 94, 111, 119, 127, 147, 148)),
    ("grid15x15", True): (True, (1065,)),
    ("cubic100", False): (True, (1,)),
    ("cubic100", True): (True, (400,)),
}


def test_golden_wl1_large():
    bases = {"grid15x15": bg.grid(15, 15), "cubic100": _random_cubic(100, 1)}
    for (name, colored), want in GOLDEN_WL1_LARGE.items():
        g1, g2, c1, c2 = _relabelled_twist(bases[name], colored)
        assert _report("wl", g1, g2, 1, c1, c2) == want, (name, colored)


def naive_wl1(g1, g2, colors1=None, colors2=None):
    """Colour refinement with a dict of tuples: seed each vertex with (degree,
    colour), then refine by (class, sorted neighbour classes) until the shared
    class count stops growing; equivalent iff the class histograms agree."""
    c1 = colors1 or [0] * g1.n
    c2 = colors2 or [0] * g2.n
    table = {}

    def seed(g, c):
        return [table.setdefault((g.degree(v), c[v]), len(table)) for v in range(g.n)]

    C1, C2 = seed(g1, c1), seed(g2, c2)
    rounds = [len(table)]
    while True:
        table = {}

        def refine(g, C):
            return [table.setdefault((C[v], tuple(sorted(C[u] for u in g.adjacency[v]))),
                                     len(table)) for v in range(g.n)]

        N1, N2 = refine(g1, C1), refine(g2, C2)
        if len(table) == rounds[-1]:
            break
        C1, C2 = N1, N2
        rounds.append(len(table))
    return Counter(C1) == Counter(C2), tuple(rounds)


# a few colours, some far outside int64
_PALETTES = (
    [0], [0, 1], [0, 1, 2],
    [-2 * 10 ** 25, 2 ** 63, 5, 2 * 10 ** 25], [99999999999999999999999, -1, 2 ** 64],
)


@st.composite
def wl1_graph_pairs(draw):
    """Two graphs of 1-12 vertices, or, with a hub of degree above 64, a graph
    of up to 90 vertices and a relabelled copy with a few edges toggled."""
    palette = draw(st.sampled_from(_PALETTES))

    def colors(n):
        return draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))

    def small():
        n = draw(st.integers(1, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs))) if pairs else []
        return bg.BaseGraph.from_edges(n, edges)

    if not draw(st.booleans()):
        g1, g2 = small(), small()
        return g1, g2, colors(g1.n), colors(g2.n)
    n = draw(st.integers(66, 90))
    spokes = draw(st.permutations(range(1, n)))[:draw(st.integers(65, n - 1))]
    extra = draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)), max_size=20))
    edges = {(0, v) for v in spokes} | {(min(u, v), max(u, v)) for u, v in extra if u != v}
    g1 = bg.BaseGraph.from_edges(n, edges)
    c1 = colors(n)
    toggled = set(edges) ^ {(min(u, v), max(u, v)) for u, v in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)) if u != v}
    perm = draw(st.permutations(range(n)))
    g2 = bg.BaseGraph.from_edges(n, toggled).relabel(perm)
    c2 = [0] * n
    for v, c in enumerate(c1):
        c2[perm[v]] = c
    return g1, g2, c1, c2


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(wl1_graph_pairs())
def test_wl1_matches_naive(pair):
    g1, g2, c1, c2 = pair
    assert _report("wl", g1, g2, 1, c1, c2) == naive_wl1(g1, g2, c1, c2)


def test_wl1_hub_memory():
    # the hub's row has 100,001 entries and is ranked whole, so memory must
    # stay linear in its degree
    star = bg.complete_bipartite(1, 100_000)
    perm = list(range(star.n))
    random.Random(3).shuffle(perm)
    copy = star.relabel(perm)
    tracemalloc.start()
    try:
        rep = eqv.wl_equivalent_report(star, copy, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rep.equivalent, rep.rounds) == (True, (2,))
    assert peak < 64 << 20


def test_wl1_coloured_hub_matches_naive():
    # a hub of degree 5,000 in each graph, its leaves in three colours: the
    # hub's row of 5,001 classes is ranked whole
    star = bg.complete_bipartite(1, 5000)
    perm = list(range(star.n))
    random.Random(5).shuffle(perm)
    leaves = [0] + [v % 3 for v in range(5000)]
    recolored = [0] * star.n
    for v, c in enumerate(leaves):
        recolored[perm[v]] = c
    rep = eqv.wl_equivalent_report(star, star.relabel(perm), 1, leaves, recolored)
    assert (rep.equivalent, rep.rounds) == naive_wl1(star, star.relabel(perm), leaves, recolored)


def test_wl_dim4_folds_past_62_bits():
    # 2 * 18**4 tuples sit inside the tuple guard; the colored pair's class
    # count passes 2**15.5, so a 4-fold of classes needs a re-rank.  Merging
    # colour 1 into 5 gives the two graphs different partial folds, which only
    # a re-rank shared by both graphs keeps consistent.  The colored traces
    # agree with a pure-Python WL that keeps whole k-tuples in its rows.
    def merged(colors):
        return [5 if c == 1 else c for c in colors]

    for colored, recolor, want in ((False, None, (91, 1396, 20394)),
                                   (True, None, (29016, 65888, 160368)),
                                   (True, merged, (22843, 65888, 160368))):
        y = cfi.build_cfi(bg.path(3), colored)
        yt = cfi.build_tilde(bg.path(3), colored)
        c1, c2 = (y.colors, yt.colors) if recolor is None else (recolor(y.colors), recolor(yt.colors))
        rep = eqv.wl_equivalent_report(y.graph, yt.graph, 4, c1, c2)
        assert (rep.equivalent, rep.rounds) == (False, want), (colored, recolor)  # tw(P3) = 1 < 5


def test_hash_collisions_redo_the_round(monkeypatch):
    # salt 0 hashes every row to 0, so every ranking of two distinct rows
    # collides and is redone under salt 1: ids, traces and verdicts must not
    # depend on the hash
    row_hash, widths = eqv._row_hash, {0: set(), 1: set()}

    def colliding(rows, salt):
        widths[salt].add(rows.shape[1])
        return np.zeros(len(rows), dtype=np.uint64) if salt == 0 else row_hash(rows, salt)

    monkeypatch.setattr(eqv, "_row_hash", colliding)
    test_golden_round_traces()
    test_golden_wl1_large()
    test_wl_dim4_folds_past_62_bits()
    # redone under salt 1: the colour-refinement seed (degree, colour), the
    # rows of degree-4 vertices and the atomic rows of 3- and 4-tuples
    assert {2, 5, 6, 10} <= widths[1]


def test_collisions_under_every_salt_raise(monkeypatch):
    # a hash that collides under every salt is an engine fault, not a reason
    # to try salts forever
    monkeypatch.setattr(eqv, "_row_hash", lambda rows, salt: np.zeros(len(rows), dtype=np.uint64))
    for engine, k in (("wl", 2), ("lk", 2), ("wl", 1)):
        with pytest.raises(AssertionError):
            _report(engine, bg.path(3), bg.path(9), k)


def test_row_hash_keys_separate_atomic_rows():
    # keys drawn as hash((salt, j)) are nearly affine in j and gave these
    # 1,822 distinct rows (coloured P3 at dim 3) only 1,499-1,740 hashes
    g1, g2, c1, c2 = _relabelled_twist(bg.path(3), True)
    col = eqv._joint_colors(g1, g2, c1, c2)
    rows = np.unique(np.concatenate([eqv._atomic_rows(g1, col[:g1.n], 3),
                                     eqv._atomic_rows(g2, col[g1.n:], 3)]), axis=0)
    assert len(rows) == 1822
    for salt in range(3):
        assert len(np.unique(eqv._row_hash(rows, salt))) == 1822, salt


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.data())
def test_slab_rows_are_exactly_what_substitution_reaches(data):
    # a few classes force carries between packed ids; tiny slabs split the
    # first axis; two rows are equal iff their tuples reach the same: per
    # coordinate the set of classes (L^k), or the multiset of substituted
    # k-tuples of classes (WL), next to the tuple's own class
    sets = data.draw(st.booleans(), "sets")
    k = data.draw(st.integers(1 if sets else 2, 5), "k")
    n = data.draw(st.integers(1, 4 if k <= 3 else 3), "n")
    width = n + data.draw(st.integers(0, 2), "padding")
    count = data.draw(st.integers(1, 4), "count")
    C = np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=n ** k, max_size=n ** k)))
    with mock.patch.object(eqv, "SLAB_CELLS", data.draw(st.sampled_from([1, 50, 1 << 18]), "slab")):
        rows = np.vstack([r.copy() for r in eqv._slabs(n, C, k, count, width, sets)])
    reached = []
    for t in range(n ** k):
        subs = [[int(C[t + (w - t // n ** i % n) * n ** i]) for w in range(n)] for i in range(k)]
        reached.append((int(C[t]), tuple(tuple(sorted(set(s))) for s in subs) if sets
                        else tuple(sorted(zip(*subs)))))
    pairs = {(r, row.tobytes()) for r, row in zip(reached, rows)}
    assert len(pairs) == len({r for r, _ in pairs}) == len({row for _, row in pairs})


@pytest.mark.parametrize("base, dim, bound", [(bg.complete(4), 3, 20), (bg.path(3), 4, 100)],
                         ids=["K4-dim3", "P3-dim4"])
def test_wl_tuple_kernel_memory(base, dim, bound):
    # the rows stream through slabs; only the classes, their representatives
    # and one slab's work stay, where the whole row matrix took 50 and 228 MB
    g1, g2, c1, c2 = _relabelled_twist(base, True)
    tracemalloc.start()
    try:
        rep = eqv.wl_equivalent_report(g1, g2, dim, c1, c2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rep.equivalent
    assert peak < bound << 20


@st.composite
def bipartite_rows(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    stored = draw(st.one_of(
        st.just([-1] * n), st.permutations(range(n)),
        st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)))
    return rows, stored


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(bipartite_rows())
def test_perfect_matching_fresh_and_repaired(case):
    rows, stored = case
    n = len(rows)
    fits = any(all((rows[x] >> perm[x]) & 1 for x in range(n))
               for perm in itertools.permutations(range(n)))
    got = eqv._perfect_matching(rows, stored)
    assert (got is not None) == fits
    if got is not None:
        assert sorted(got) == list(range(n))
        assert all((rows[x] >> got[x]) & 1 for x in range(n))
        # a stored matching that still fits is returned as it is; otherwise
        # augmenting paths may move kept pairs ([1, 4, 8, 24, 2] from the
        # identity must move 3 -> 3), so only the fit itself is checked
        if sorted(stored) == list(range(n)) and all(
                (rows[x] >> stored[x]) & 1 for x in range(n)):
            assert got == stored


@st.composite
def row_blocks(draw):
    n = draw(st.integers(1, 6))
    block = draw(st.lists(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
                          min_size=1, max_size=8))
    return n, block


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(row_blocks())
@hypothesis.example((2, [[0b11, 0b01]]))  # lowest-bit greedy sticks; 0 -> 1, 1 -> 0 fits
@hypothesis.example((2, [[0b01, 0b01], [0b10, 0b00]]))  # uncovered column; empty row
def test_matchable_cheap_and_exact(case):
    n, block = case
    fits = [any(all((rows[x] >> perm[x]) & 1 for x in range(n))
                for perm in itertools.permutations(range(n))) for rows in block]
    plausible = [all(rows) and all(any((r >> y) & 1 for r in rows) for y in range(n))
                 for rows in block]
    arr = np.array(block, dtype=np.uint64)
    assert eqv._matchable(arr, exact=True).tolist() == fits
    assert eqv._matchable(arr, exact=False).tolist() == plausible


def naive_ck_alive_3(g1, g2, c1, c2):
    """The bijective 3-pebble game's surviving two-pebble positions, by trying
    every bijection; tiny scale only.

    Position (p0 -> q0, p1 -> q1) starts alive when it is a partial
    isomorphism and survives while Duplicator has a bijection f such that for
    every x Spoiler may pebble, {p0 -> q0, p1 -> q1, x -> f(x)} is a partial
    isomorphism and both positions left after lifting an old pebble,
    (p1 -> q1, x -> f(x)) and (p0 -> q0, x -> f(x)), are alive."""
    n = g1.n
    pairs = list(itertools.product(range(n), range(n)))
    alive = {(p0, p1, q0, q1) for (p0, q0), (p1, q1) in itertools.product(pairs, pairs)
             if is_partial_iso(g1, g2, c1, c2, ((p0, q0), (p1, q1)))}
    bijections = list(itertools.permutations(range(n)))
    changed = True
    while changed:
        changed = False
        for p0, p1, q0, q1 in sorted(alive):
            if not any(all(is_partial_iso(g1, g2, c1, c2, ((p0, q0), (p1, q1), (x, f[x])))
                           and (p1, x, q1, f[x]) in alive and (p0, x, q0, f[x]) in alive
                           for x in range(n))
                       for f in bijections):
                alive.discard((p0, p1, q0, q1))
                changed = True
    out = np.zeros((n,) * 4, dtype=bool)
    for pos in alive:
        out[pos] = True
    return out


def naive_ck_game_2(g1, g2, c1, c2):
    """The bijective 2-pebble game's verdict, by trying every bijection.

    Position (p -> q) starts alive when the colours agree and survives while
    some bijection f keeps every {p -> q, x -> f(x)} a partial isomorphism
    with (x -> f(x)) alive; Duplicator wins when some bijection sends every x
    to a live position."""
    n = g1.n
    alive = {(p, q) for p in range(n) for q in range(n) if c1[p] == c2[q]}
    bijections = list(itertools.permutations(range(n)))
    changed = True
    while changed:
        changed = False
        for p, q in sorted(alive):
            if not any(all(is_partial_iso(g1, g2, c1, c2, ((p, q), (x, f[x])))
                           and (x, f[x]) in alive for x in range(n))
                       for f in bijections):
                alive.discard((p, q))
                changed = True
    return any(all((x, f[x]) in alive for x in range(n)) for f in bijections)


@st.composite
def tiny_colored_pairs(draw):
    n = draw(st.integers(1, 5))
    palette = draw(st.integers(1, 2))  # 1: uncolored

    def one():
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs))) if pairs else []
        colors = draw(st.lists(st.integers(0, palette - 1), min_size=n, max_size=n))
        return bg.BaseGraph.from_edges(n, edges), colors

    return one(), one()


def ck_alive_3(g1, g2, c1, c2):
    """``eqv._ck_alive_3``'s row masks expanded to alive[p0, p1, q0, q1]."""
    rows = eqv._ck_alive_3(g1, g2, c1, c2)
    return (rows[..., None] >> np.arange(g2.n, dtype=np.uint64) & np.uint64(1)) != 0


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(tiny_colored_pairs())
def test_game_fixpoint_matches_bijection_search(pair):
    (g1, c1), (g2, c2) = pair
    want = naive_ck_alive_3(g1, g2, c1, c2)
    alive = ck_alive_3(g1, g2, c1, c2)
    assert np.array_equal(alive, want)
    assert np.array_equal(alive, alive.transpose(1, 0, 3, 2))
    assert eqv.ck_equivalent_game(g1, g2, 2, c1, c2) == naive_ck_game_2(g1, g2, c1, c2)


def test_game_fixpoint_needs_exact_rounds():
    # colour classes of 4 + 3 against 3 + 4 vertices, no edges: every position
    # leaves at least one unpebbled vertex of each colour on both sides, so no
    # row is empty and no column uncovered, yet no bijection keeps colours, so
    # exact rounds must kill every position
    g = bg.BaseGraph.from_edges(7, [])
    alive = ck_alive_3(g, g, [0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1])
    assert not alive.any()


# (base, colored, second graph) -> (alive positions, sha256 of np.packbits(alive))
# of the 3-pebble game fixpoint against the twist or a copy, each relabelled by
# random.Random(7); computed with the unmirrored solver that re-solved every
# position from a fresh matching, and the C4 and K1,3 entries with the
# warm-pass solver (one Python Kuhn call per live position and pass) that
# preceded the whole-array rounds
GOLDEN_GAME_FIXPOINTS = {
    ("P2", False, "tilde"): (0, "b2069f33fd956c79679b2e5a25c60cd0eab63b023d12111ff0242ae50896e9e1"),
    ("P2", False, "self"): (380, "f4fdd3b61655a1cdc9b48747599de3d9ac178885a4d9b59409a9d5d35e0a8ef7"),
    ("P2", True, "tilde"): (0, "b2069f33fd956c79679b2e5a25c60cd0eab63b023d12111ff0242ae50896e9e1"),
    ("P2", True, "self"): (144, "e18b1133a5284fe745e9d7e6546af0f319c79f69df82efa3dac5d5be88be4148"),
    ("P3", False, "tilde"): (0, "8becefb234bf9c1a5eba46ce84de8d7dd8c4a6a6241c3a12459bffd32e781d49"),
    ("P3", False, "self"): (968, "dad7f5ce9a919f73880aad88d8fb2d26d41d18f9f5e0a02eb52f611800f713c1"),
    ("P3", True, "tilde"): (0, "8becefb234bf9c1a5eba46ce84de8d7dd8c4a6a6241c3a12459bffd32e781d49"),
    ("P3", True, "self"): (324, "ad577a828990d8dd6c5b5934239c7e6cda18aca6fbb687f780a847652c49efcc"),
    ("C3", False, "tilde"): (0, "8becefb234bf9c1a5eba46ce84de8d7dd8c4a6a6241c3a12459bffd32e781d49"),
    ("C3", False, "self"): (31752, "948fd755ebda355518ccb37966e51eda41f325f9662e98585994f2a9a7b5209a"),
    ("C3", True, "tilde"): (0, "8becefb234bf9c1a5eba46ce84de8d7dd8c4a6a6241c3a12459bffd32e781d49"),
    ("C3", True, "self"): (648, "4451c70875e727206fa39914e054741a65bffe54f3d8272332a2560aa5d22523"),
    ("C4", False, "tilde"): (0, "7bc2e3a66be154befef21a91a6fad85db1263898b0fb66a90c12de285c76e411"),
    ("C4", False, "self"): (95616, "9b89a43157d45ae916839eadca02fb693455cf16fc47fc7e17e8002f31482f5d"),
    ("C4", True, "tilde"): (0, "7bc2e3a66be154befef21a91a6fad85db1263898b0fb66a90c12de285c76e411"),
    ("C4", True, "self"): (1152, "94cdae4b35c164f4b2d193a35c13ddfeef18e2736f24a37c7b4809693473c9fa"),
    ("K1,3", False, "tilde"): (0, "9766004c10f25a12a2794f3792417e1668d362968cb856cac3a3b5ab87fa808b"),
    ("K1,3", False, "self"): (1729, "ce77d1163db6d44e267dbc148377c34be1acdc50e554d716cb776936fa6ce7a2"),
    ("K1,3", True, "tilde"): (0, "9766004c10f25a12a2794f3792417e1668d362968cb856cac3a3b5ab87fa808b"),
    ("K1,3", True, "self"): (361, "5dd4272a6243f1594a86aa2389361e2309ec1b02bb3477062d3d1dfca1fdc434"),
}


def test_golden_game_fixpoint():
    bases = {"P2": bg.path(2), "P3": bg.path(3), "C3": bg.cycle(3), "C4": bg.cycle(4),
             "K1,3": bg.complete_bipartite(1, 3)}
    for (name, colored, other), want in GOLDEN_GAME_FIXPOINTS.items():
        g1, g2, c1, c2 = _relabelled_twist(bases[name], colored, other == "tilde")
        if c1 is None:
            c1 = c2 = [0] * g1.n
        alive = ck_alive_3(g1, g2, c1, c2)
        got = (int(alive.sum()), hashlib.sha256(np.packbits(alive)).hexdigest())
        assert got == want, (name, colored, other)
        assert np.array_equal(alive, alive.transpose(1, 0, 3, 2)), (name, colored, other)
