import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfigraphs import base_graph as bg
from cfigraphs import cfi, gadget, iso
from cfigraphs.errors import SizeGuardError


def brute_isomorphism(g1, g2, colors1=None, colors2=None):
    """Unpruned oracle: try every vertex bijection."""
    if g1.n != g2.n:
        return None
    c1 = colors1 or [0] * g1.n
    c2 = colors2 or [0] * g2.n
    for perm in permutations(range(g1.n)):
        if any(c1[v] != c2[perm[v]] for v in range(g1.n)):
            continue
        if all(g1.has_edge(u, v) == g2.has_edge(perm[u], perm[v])
               for u in range(g1.n) for v in range(u + 1, g1.n)):
            return perm
    return None


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return bg.BaseGraph.from_edges(n, edges), colors


@settings(max_examples=60, deadline=None)
@given(small_graphs(), small_graphs())
def test_pruned_search_agrees_with_unpruned(a, b):
    (g1, c1), (g2, c2) = a, b
    got = iso.find_isomorphism(g1, g2, c1, c2)
    want = brute_isomorphism(g1, g2, c1, c2)
    assert (got is None) == (want is None)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.randoms())
def test_relabeled_graph_found(a, rnd):
    g, colors = a
    perm = list(range(g.n))
    rnd.shuffle(perm)
    g2 = g.relabel(perm)
    colors2 = [0] * g.n
    for v in range(g.n):
        colors2[perm[v]] = colors[v]
    assert iso.find_isomorphism(g, g2, colors, colors2) is not None


def test_identity_always_found():
    for g in (bg.petersen(), bg.grid(2, 3), cfi.build_cfi(bg.cycle(4)).graph):
        m = iso.find_isomorphism(g, g)
        assert m is not None


def test_automorphism_counts_known_groups():
    assert len(iso.automorphisms(bg.complete(4))) == 24
    assert len(iso.automorphisms(bg.cycle(5))) == 10
    assert len(iso.automorphisms(bg.path(3))) == 2
    # two interchangeable triangle components: 6 * 6 * 2
    assert len(iso.automorphisms(bg.disjoint_union(bg.cycle(3), bg.cycle(3)))) == 72


def test_colour_lists_must_fit_the_graph():
    c4 = bg.cycle(4)
    for wrong in ([0], [0] * 5):  # too short, too long
        with pytest.raises(ValueError, match="colors length"):
            iso.find_isomorphism(c4, c4, wrong, [0] * 4)
        with pytest.raises(ValueError, match="colors length"):
            iso.find_isomorphism(c4, c4, [0] * 4, wrong)
        with pytest.raises(ValueError, match="colors length"):
            iso.automorphisms(c4, wrong)


def test_size_guard():
    big = cfi.build_cfi(bg.petersen()).graph
    with pytest.raises(SizeGuardError):
        iso.find_isomorphism(big, big)
    with pytest.raises(SizeGuardError):
        iso.automorphisms(big)


def test_cfi_shapes_via_oracle():
    y = cfi.build_cfi(bg.cycle(3))
    assert iso.find_isomorphism(y.graph, bg.disjoint_union(bg.cycle(9), bg.cycle(9))) is not None
    yt = cfi.build_tilde(bg.cycle(3))
    assert iso.find_isomorphism(yt.graph, bg.cycle(18)) is not None


def test_twisted_pair_not_isomorphic():
    for base in (bg.path(2), bg.path(3), bg.cycle(3), bg.cycle(4), bg.complete(4)):
        y, yt = cfi.build_cfi(base), cfi.build_tilde(base)
        assert iso.find_isomorphism(y.graph, yt.graph) is None
        x, xt = cfi.build_cfi(base, True), cfi.build_tilde(base, True)
        assert iso.find_isomorphism(x.graph, xt.graph, x.colors, xt.colors) is None


def test_tilde_edge_choice_irrelevant():
    base = bg.complete(4)
    for colored in (False, True):
        t1 = cfi.twist(cfi.build_cfi(base, colored), base.edges[0])
        t2 = cfi.twist(cfi.build_cfi(base, colored), base.edges[5])
        assert iso.find_isomorphism(t1.graph, t2.graph, t1.colors, t2.colors) is not None


def test_twist_parity_law_random_sequences():
    rng = random.Random(20240)
    for base in (bg.cycle(4), bg.complete(4)):
        x = cfi.build_cfi(base, colored=True)
        for _ in range(10):
            seq = [rng.choice(base.edges) for _ in range(rng.randint(0, 4))]
            xe = cfi.apply_twist_sequence(x, seq)
            found = iso.find_isomorphism(x.graph, xe.graph, x.colors, xe.colors)
            assert (found is not None) == (len(seq) % 2 == 0)


def test_gadget_preserving_flip_and_lift():
    base = bg.complete(4)
    c = cfi.build_cfi(base)
    flips = {u: frozenset() for u in range(4)}
    flips[2] = frozenset({0, 1})
    perm = cfi.gadget_flip_map(c, flips)
    sigma = iso.is_gadget_preserving(perm, c, c)
    assert sigma == [0, 1, 2, 3]
    rot = [1, 2, 3, 0]
    tau = cfi.lift_base_automorphism(c, rot)
    assert iso.is_gadget_preserving(tau, c, c) == rot
    assert iso.induced_base_map(tau, c, c) == rot


def test_nonpreserving_map_detected():
    # on a cycle base the two big cycles can be rotated off gadget boundaries
    y = cfi.build_cfi(bg.cycle(3))
    auts = iso.automorphisms(y.graph)
    labels = {iso.is_gadget_preserving(a, y, y) is not None for a in auts}
    assert labels == {True, False}


def test_decompose_cfi_aut_roundtrip():
    rng = random.Random(5)
    base = bg.complete(4)
    c = cfi.build_cfi(base)
    # identity decomposes trivially
    sigma, flips = iso.decompose_cfi_aut(tuple(range(c.n)), c)
    assert sigma == [0, 1, 2, 3] and all(not f for f in flips.values())
    # random flip-and-lift compositions decompose back to their parts
    for _ in range(5):
        sig = rng.sample(range(4), 4)
        if base.relabel(sig).edges != base.edges:
            continue
        tau = cfi.lift_base_automorphism(c, sig)
        fl = cfi.random_even_flips(c, rng)
        fperm = cfi.gadget_flip_map(c, fl)
        comp = tuple(fperm[tau[x]] for x in range(c.n))
        got_sigma, got_flips = iso.decompose_cfi_aut(comp, c)
        assert got_sigma == sig and got_flips == fl


def test_every_aut_of_deg3_cfi_decomposes():
    base = bg.complete(4)
    c = cfi.build_cfi(base)
    auts = iso.automorphisms(c.graph)
    # flips form the kernel over base automorphisms: 2^(E-V+1) * |Aut(K4)|
    assert len(auts) == 8 * 24
    for a in auts[:50]:
        sigma, flips = iso.decompose_cfi_aut(a, c)
        assert base.relabel(sigma).edges == base.edges


def test_small_gadget_group_orders():
    from cfigraphs import gadget as gd

    assert len(iso.automorphisms(gd.build_gadget(1).graph)) == 2
    assert len(iso.automorphisms(gd.build_gadget(3).graph)) == 24
    assert len(iso.automorphisms(gd.build_gadget(3).graph, gd.build_gadget(3).colors())) == 4


def test_rigid_base_collapses_uncolored_group():
    # on a rigid base the uncolored CFI graph has no extra automorphisms:
    # the group equals the colored flip group, of size 2^(E-V+1)
    rigid = bg.BaseGraph.from_edges(
        6, [(0, 1), (0, 3), (0, 4), (1, 3), (2, 5), (3, 5)])
    assert len(iso.automorphisms(rigid)) == 1
    y = cfi.build_cfi(rigid)
    x = cfi.build_cfi(rigid, True)
    expected = 2 ** (len(rigid.edges) - rigid.n + 1)
    assert len(iso.automorphisms(x.graph, x.colors)) == expected
    assert len(iso.automorphisms(y.graph)) == expected


# First 16 hex digits of sha256(repr(result)); these pin the exact lists that
# `automorphisms` returns, in search order, and the maps `find_isomorphism`
# returns on relabelled copies.
GOLDEN_AUTOMORPHISMS = {
    "gadget1/colored": "eba5825b4e5cf199",
    "gadget1/uncolored": "8d3cb971d3e9f7f8",
    "gadget2/colored": "372318df4047d29b",
    "gadget2/uncolored": "303619dea2fc3554",
    "gadget3/colored": "7c29cc2636bb4585",
    "gadget3/uncolored": "2247a3b733e8cc01",
    "gadget4/colored": "e92f0a3f1edf1199",
    "gadget4/uncolored": "59e086445398ab80",
    "gadget5/colored": "7e36f88cf1b6c74d",
    "gadget5/uncolored": "643053bc93aed1d8",
    "CFI(C4)/Y": "b62d8ea743141c66",
    "CFI(C4)/X": "1ca9b29b5faf286b",
}
GOLDEN_PLANTED = {
    "Y(K4)": "ce55b7e856099e54",
    "X(C4)": "3c9c18d270273340",
    "gadget5": "380327ee23540e72",
    "petersen": "1a2ea493d1a30f8d",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _aut_input(key):
    name, variant = key.split("/")
    if name.startswith("gadget"):
        gad = gadget.build_gadget(int(name[len("gadget"):]))
        return gad.graph, gad.colors() if variant == "colored" else None
    c = cfi.build_cfi(bg.cycle(4), variant == "X")
    return c.graph, c.colors


@pytest.mark.parametrize("key", sorted(GOLDEN_AUTOMORPHISMS))
def test_golden_automorphisms(key):
    g, colors = _aut_input(key)
    assert _digest(iso.automorphisms(g, colors)) == GOLDEN_AUTOMORPHISMS[key]


def _planted_input(key):
    if key == "Y(K4)":
        return cfi.build_cfi(bg.complete(4)).graph, None
    if key == "X(C4)":
        x = cfi.build_cfi(bg.cycle(4), True)
        return x.graph, x.colors
    if key == "gadget5":
        return gadget.build_gadget(5).graph, None
    return bg.petersen(), None


@pytest.mark.parametrize("key", sorted(GOLDEN_PLANTED))
def test_golden_planted_isomorphisms(key):
    g, colors = _planted_input(key)
    sigma = list(range(g.n))
    random.Random(f"planted/{key}").shuffle(sigma)
    g2 = g.relabel(sigma)
    colors2 = None
    if colors is not None:
        colors2 = [0] * g.n
        for v in range(g.n):
            colors2[sigma[v]] = colors[v]
    assert _digest(iso.find_isomorphism(g, g2, colors, colors2)) == GOLDEN_PLANTED[key]


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_automorphisms_match_permutation_filter(a):
    g, colors = a
    want = [perm for perm in permutations(range(g.n))
            if all(colors[v] == colors[perm[v]] for v in range(g.n))
            and g.relabel(perm).edges == g.edges]
    got = iso.automorphisms(g, colors)
    assert len(got) == len(set(got))
    assert sorted(got) == want
