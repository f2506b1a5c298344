import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfigraphs import gadget as gd
from cfigraphs import iso


def test_build_shapes():
    g1 = gd.build_gadget(1)
    # a_0, b_0, middle for the empty set; the single edge is b_0 - middle
    assert g1.graph.n == 3 and g1.graph.edges == ((1, 2),)
    g3 = gd.build_gadget(3)
    assert g3.middles == (0, 0b011, 0b101, 0b110)
    assert g3.graph.n == 10 and len(g3.graph.edges) == 12
    g2 = gd.build_gadget(2)
    from cfigraphs.base_graph import classify_linear
    assert all(s.kind == "path" for s in classify_linear(g2.graph))
    with pytest.raises(ValueError):
        gd.build_gadget(0)


def test_vertex_count_formula():
    for d in range(1, 9):
        g = gd.build_gadget(d)
        assert g.graph.n == 2 * d + 2 ** (d - 1)
        assert len(g.middles) == 2 ** (d - 1)


def test_twin():
    assert gd.twin(3, 0) == 3 and gd.twin(3, 3) == 0
    for d in (1, 2, 5):
        for x in range(2 * d):
            assert gd.twin(d, gd.twin(d, x)) == x
    with pytest.raises(ValueError):
        gd.twin(3, 6)  # middle vertex


def test_flip_examples():
    g = gd.build_gadget(3)
    m12 = 0b011
    # flipping over {0,1} swaps those twin pairs and shifts middles
    assert gd.apply_flip(g, m12, 0) == 3
    assert gd.apply_flip(g, m12, g.middle_vertex(0b101)) == g.middle_vertex(0b110)
    assert gd.apply_flip(g, 0, 5) == 5  # empty flip is the identity
    with pytest.raises(ValueError):
        gd.apply_flip(g, 0b001, 0)  # odd mask
    for mask in (0b001, 0b111, -2, 0b1010):  # odd, odd, negative, out of range
        with pytest.raises(ValueError):
            g.middle_vertex(mask)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.randoms())
def test_flip_is_self_inverse_automorphism(d, rnd):
    g = gd.build_gadget(d)
    mask = rnd.choice(g.middles)
    perm = gd.flip_perm(g, mask)
    assert g.graph.is_isomorphism(g.graph, perm)
    assert gd.compose(perm, perm) == tuple(range(g.graph.n))
    # the flip sends the empty-set middle to the mask's middle
    assert perm[g.middle_vertex(0)] == g.middle_vertex(mask)


def test_flip_between_middles():
    # the flip by m1 ^ m2 sends middle m1 to middle m2
    g = gd.build_gadget(3)
    assert gd.apply_flip(g, 0b011 ^ 0b101, g.middle_vertex(0b011)) == g.middle_vertex(0b101)


def test_lift_permutation():
    g = gd.build_gadget(3)
    ident = gd.lift_permutation(g, (0, 1, 2))
    assert ident == tuple(range(g.graph.n))
    rho = gd.lift_permutation(g, (1, 2, 0))
    assert g.graph.is_isomorphism(g.graph, rho)
    assert rho[g.middle_vertex(0b011)] == g.middle_vertex(0b110)
    assert gd.classify_map(g, rho).twin_preserving
    with pytest.raises(ValueError):
        gd.lift_permutation(g, (0, 0, 2))


def test_full_link_shuffle_decomposes():
    # rotating the link pairs after a flip over {0,1} fully shuffles links
    g = gd.build_gadget(3)
    f = gd.flip_perm(g, 0b011)
    rho = gd.lift_permutation(g, (1, 2, 0))
    comp = gd.compose(f, rho)
    assert comp[0] == 3 + 1          # a_0 -> b_1
    assert comp[1] == 2              # a_1 -> a_2
    assert comp[2] == 3 + 0          # a_2 -> b_0
    assert comp[g.middle_vertex(0)] == g.middle_vertex(0b011)
    assert comp[g.middle_vertex(0b011)] == g.middle_vertex(0b101)
    mask, pi = gd.decompose_twin_preserving(g, comp)
    assert mask == 0b011 and pi == (1, 2, 0)


def test_classify_counterexamples():
    for d in (1, 2, 4):
        g = gd.build_gadget(d)
        perm = gd.sample_nontwin_automorphism(d)
        cls = gd.classify_map(g, perm)
        assert not cls.twin_preserving
    # the d=2 map keeps links on links; d in {1,4} mixes them into middles
    assert gd.classify_map(gd.build_gadget(2), gd.sample_nontwin_automorphism(2)).link_preserving
    for d in (1, 4):
        assert not gd.classify_map(gd.build_gadget(d), gd.sample_nontwin_automorphism(d)).link_preserving
    with pytest.raises(ValueError):
        gd.sample_nontwin_automorphism(3)


def test_flips_are_twin_preserving():
    for d in (1, 2, 3, 4):
        g = gd.build_gadget(d)
        for mask, perm in gd.colored_automorphisms(d).items():
            assert gd.classify_map(g, perm).twin_preserving


def test_decompose_identity_and_uniqueness():
    g = gd.build_gadget(3)
    mask, pi = gd.decompose_twin_preserving(g, tuple(range(g.graph.n)))
    assert mask == 0 and pi == (0, 1, 2)
    rho = gd.lift_permutation(g, (2, 0, 1))
    assert gd.decompose_twin_preserving(g, rho) == (0, (2, 0, 1))
    with pytest.raises(ValueError):
        gd.decompose_twin_preserving(gd.build_gadget(2), gd.sample_nontwin_automorphism(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5).filter(lambda d: d != 4), st.randoms())
def test_decompose_roundtrip_random(d, rnd):
    g = gd.build_gadget(d)
    mask = rnd.choice(g.middles)
    pi = tuple(rnd.sample(range(d), d))
    comp = gd.compose(gd.flip_perm(g, mask), gd.lift_permutation(g, pi))
    assert gd.decompose_twin_preserving(g, comp) == (mask, pi)


def test_decomposition_enumeration_matches_brute_force():
    # cross-check the two enumeration routes where both apply
    for d in (3,):
        g = gd.build_gadget(d)
        brute = set(iso.automorphisms(g.graph))
        listed = set(gd.automorphisms_by_decomposition(d))
        assert brute == listed
    with pytest.raises(ValueError):
        gd.automorphisms_by_decomposition(4)


def test_group_orders():
    # flip count times link-row permutations, valid off the exceptional degrees
    for d in (3, 5, 6):
        assert len(gd.automorphisms_by_decomposition(d)) == 2 ** (d - 1) * _factorial(d)


def _factorial(d):
    out = 1
    for i in range(2, d + 1):
        out *= i
    return out


def test_flip_properties_exhaustive_small_degrees():
    ident = {}
    for d in range(1, 6):
        g = gd.build_gadget(d)
        ident = tuple(range(g.graph.n))
        for mask in g.middles:
            perm = gd.flip_perm(g, mask)
            assert g.graph.is_isomorphism(g.graph, perm)
            assert gd.compose(perm, perm) == ident
            # twin pairs are fixed setwise
            for x in range(2 * d):
                assert perm[x] in (x, gd.twin(d, x))


def test_short_cycle_coverage():
    from cfigraphs.distinguisher import short_cycle_pair_rows, short_cycles

    # no cycles at degrees 1 and 2; every pair covered from degree 3 on
    for d in (1, 2):
        assert short_cycles(gd.build_gadget(d).graph) == []
    for d in (3, 4, 5):
        g = gd.build_gadget(d)
        rows = short_cycle_pair_rows(g.graph)
        full = (1 << g.graph.n) - 1
        assert all(rows[x] == full for x in range(g.graph.n))


def test_twin_uniqueness_boundary():
    # complementary adjacency to every middle pins the twin uniquely at d >= 3
    def complements(g, x):
        mids = range(2 * g.d, g.graph.n)
        out = []
        for y in range(g.graph.n):
            if y != x and all(
                g.graph.has_edge(x, m) != g.graph.has_edge(y, m) for m in mids
            ):
                out.append(y)
        return out

    for d in (3, 4, 5):
        g = gd.build_gadget(d)
        for x in range(2 * d):
            assert complements(g, x) == [gd.twin(d, x)]
    # the known counterexamples below degree 3
    g1 = gd.build_gadget(1)
    assert set(complements(g1, 1)) == {0, 2}  # twin a_0 and the middle both work
    g2 = gd.build_gadget(2)
    assert len(complements(g2, 0)) > 1
