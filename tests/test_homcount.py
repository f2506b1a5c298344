from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfigraphs import base_graph as bg
from cfigraphs import cfi, homcount as hc
from cfigraphs.errors import SizeGuardError


def test_subdivide2_shapes():
    assert bg.classify_linear(hc.subdivide2(bg.cycle(3)).graph) == [bg.LinearShape("cycle", 9)]
    assert bg.classify_linear(hc.subdivide2(bg.path(1)).graph) == [bg.LinearShape("path", 3)]
    assert bg.classify_linear(hc.subdivide2(bg.cycle(4)).graph) == [bg.LinearShape("cycle", 12)]
    sub = hc.subdivide2(bg.complete(4))
    assert sub.graph.n == 4 + 2 * 6
    assert len(sub.graph.edges) == 3 * 6


def test_subdivision_name_map():
    sub = hc.subdivide2(bg.path(2))
    assert set(sub.w_index) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    w01 = sub.w_index[(0, 1)]
    assert sub.graph.has_edge(0, w01)
    assert sub.graph.has_edge(w01, sub.w_index[(1, 0)])


def test_hom_count_facts():
    h = bg.grid(2, 3)
    assert hc.hom_count(bg.path(1), h) == 2 * len(h.edges)
    two_nines = bg.disjoint_union(bg.cycle(9), bg.cycle(9))
    assert hc.hom_count(bg.cycle(9), two_nines) == 36
    assert hc.hom_count(bg.cycle(9), bg.cycle(18)) == 0
    # homomorphisms of a triangle into itself: all 6 permutations
    assert hc.hom_count(bg.cycle(3), bg.cycle(3)) == 6


def test_hom_guard():
    with pytest.raises(SizeGuardError):
        hc.hom_count(bg.cycle(18), bg.cycle(18))


def test_projection_is_homomorphism():
    for base in (bg.cycle(3), bg.complete(4), bg.path(2)):
        c = cfi.build_cfi(base)
        p, sub = hc.projection(c)
        assert hc.is_homomorphism(c.graph, sub.graph, p)
        for i, x in enumerate(c.vertices):
            if isinstance(x, cfi.Link):
                assert p[i] == sub.w_index[(x.u, x.v)]
            else:
                assert p[i] == x.u
        # twin links share an image
        u, v = base.edges[0]
        assert p[c.link_index(u, v, "a")] == p[c.link_index(u, v, "b")]


def test_build_system_rows_and_rhs():
    base = bg.cycle(3)
    sub = hc.subdivide2(base)
    ident = tuple(range(sub.graph.n))
    s1 = hc.build_system(ident, 1, base)
    rhs = 1 << s1.nvars
    # 3 gadget parities, 6 middle-links, 3 cross-links
    assert len(s1.rows) == 12
    assert sum(1 for row in s1.rows if row & rhs) == 1
    s0 = hc.build_system(ident, 0, base)
    assert not any(row & (1 << s0.nvars) for row in s0.rows)
    occur = [sum(row >> j & 1 for row in s1.rows) for j in range(s1.nvars)]
    assert set(occur) == {2}


def test_build_system_rejects_non_homomorphism():
    base = bg.cycle(3)
    sub = hc.subdivide2(base)
    bad = [0] * sub.graph.n
    with pytest.raises(ValueError):
        hc.build_system(bad, 0, base)
    with pytest.raises(ValueError):
        hc.build_system(tuple(range(sub.graph.n)), 2, base)


def test_build_system_rejects_negative_images():
    # the subdivision of P1 is the path 0-2-3-1, and [3, 2, 2, 3] folds it onto
    # the edge 2-3; a -1 in place of vertex 0's image 3 must not read as vertex 3
    base = bg.path(1)
    sub = hc.subdivide2(base)
    assert sub.graph.edges == ((0, 2), (1, 3), (2, 3))
    assert hc.is_homomorphism(sub.graph, sub.graph, (3, 2, 2, 3))
    with pytest.raises(ValueError, match="not an endomorphism"):
        hc.build_system((-1, 2, 2, 3), 0, base)


def test_gf2_count_basics():
    # a + b = 0
    assert hc.gf2_count(hc.Gf2System(2, (0b011,))) == hc.Gf2Count(2, 1)
    # a = 0 and a = 1
    assert hc.gf2_count(hc.Gf2System(1, (0b01, 0b11))) == hc.Gf2Count(0, None)
    with pytest.raises(ValueError, match="every variable"):
        hc.Gf2System(2, (0b001,))  # b occurs in no row


def test_gf2_system_rejects_bits_above_nvars():
    # bit 2 is the right-hand side of a 2-variable row; bit 3 names nothing
    assert hc.Gf2System(2, (0b111,)).rows == (0b111,)
    for rows in ((0b011, 0b1000), (0b011, 0b10000), (0b011, -1)):
        with pytest.raises(ValueError, match="above nvars"):
            hc.Gf2System(2, rows)


def test_build_system_rejects_twist_off_the_base():
    base = bg.path(3)
    ident = tuple(range(hc.subdivide2(base).graph.n))
    with pytest.raises(ValueError):
        hc.build_system(ident, 1, base, twisted_edge=(0, 2))
    # a real edge, given in either orientation, twists the identity fiber away
    for edge in ((1, 2), (2, 1)):
        assert hc.gf2_count(hc.build_system(ident, 1, base, twisted_edge=edge)).count == 0
    assert hc.hom_fiber_count(ident, 1, base) == 0


def test_identity_fiber_counts():
    base = bg.cycle(3)
    sub = hc.subdivide2(base)
    ident = tuple(range(sub.graph.n))
    assert hc.gf2_count(hc.build_system(ident, 1, base)).count == 0
    assert hc.hom_fiber_count(ident, 1, base) == 0
    count0 = hc.gf2_count(hc.build_system(ident, 0, base)).count
    assert count0 >= 1
    assert hc.hom_fiber_count(ident, 0, base) == count0


def test_untwisted_fibers_nonempty():
    base = bg.path(2)
    sub = hc.subdivide2(base)
    for g in hc.enumerate_homomorphisms(sub.graph, sub.graph)[:20]:
        assert hc.hom_fiber_count(g, 0, base) >= 1


def test_fiber_equality_and_partition():
    for base, want_gap in ((bg.path(2), None), (bg.cycle(3), (36, 0))):
        sub = hc.subdivide2(base)
        endos = hc.enumerate_homomorphisms(sub.graph, sub.graph)
        totals = [0, 0]
        for g in endos:
            for i in (0, 1):
                fiber = hc.hom_fiber_count(g, i, base)
                assert fiber == hc.gf2_count(hc.build_system(g, i, base)).count
                totals[i] += fiber
        gap = hc.hom_gap(base)
        assert tuple(totals) == gap
        if want_gap:
            assert gap == want_gap


def test_hom_gap_strict():
    for base in (bg.path(2), bg.cycle(3), bg.cycle(4)):
        a, b = hc.hom_gap(base)
        assert a > b


def test_hom_gap_guards_before_building(monkeypatch):
    # the 2-subdivision of K14 has 196 vertices, over the guard from the start;
    # its CFI graphs would take seconds and hundreds of MB to build
    def refuse(*_):
        raise AssertionError("hom_gap built a CFI graph past the guard")

    monkeypatch.setattr(hc, "build_cfi", refuse)
    with pytest.raises(SizeGuardError):
        hc.hom_gap(bg.complete(14))


def test_fiber_partition_star_base():
    # degree-1 and degree-3 gadgets mixed: the fiber partition still tiles the
    # full homomorphism counts, and every fiber matches its linear system
    base = bg.complete_bipartite(1, 3)
    sub = hc.subdivide2(base)
    endos = hc.enumerate_homomorphisms(sub.graph, sub.graph)
    totals = [0, 0]
    for g in endos:
        for i in (0, 1):
            fiber = hc.hom_fiber_count(g, i, base)
            assert fiber == hc.gf2_count(hc.build_system(g, i, base)).count
            totals[i] += fiber
    assert tuple(totals) == hc.hom_gap(base)
    assert totals[0] > totals[1]


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return bg.BaseGraph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(graphs(5), graphs(6))
def test_hom_count_matches_all_maps(f, h):
    want = sum(1 for m in product(range(h.n), repeat=f.n) if hc.is_homomorphism(f, h, m))
    assert hc.hom_count(f, h) == want
    homs = hc.enumerate_homomorphisms(f, h)
    assert len(homs) == want == len(set(homs))
    assert all(hc.is_homomorphism(f, h, m) for m in homs)


@st.composite
def gf2_systems(draw):
    nvars = draw(st.integers(1, 10))
    rows = draw(st.lists(
        st.tuples(st.integers(1, (1 << nvars) - 1), st.integers(0, 1)),
        min_size=1, max_size=12))
    # renumber the variables that occur to 0..k-1, keeping their order
    used = [j for j in range(nvars) if any(row >> j & 1 for row, _ in rows)]
    k = len(used)
    return hc.Gf2System(k, tuple(
        sum(1 << new for new, j in enumerate(used) if row >> j & 1) | rhs << k
        for row, rhs in rows))


@settings(max_examples=150, deadline=None)
@given(gf2_systems())
def test_gf2_count_matches_all_assignments(system):
    want = 0
    for x in range(1 << system.nvars):  # bit j of x is the value of variable j
        if all((row & x).bit_count() % 2 == row >> system.nvars & 1 for row in system.rows):
            want += 1
    got = hc.gf2_count(system)
    assert got.count == want
    assert got.free_exponent is None if want == 0 else want == 2 ** got.free_exponent
