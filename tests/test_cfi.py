import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfigraphs import base_graph as bg
from cfigraphs import cfi, suite
from cfigraphs.base_graph import LinearShape, classify_linear
from cfigraphs.errors import GraphFormatError


BASES = {
    "P2": bg.path(2),
    "P3": bg.path(3),
    "C3": bg.cycle(3),
    "C4": bg.cycle(4),
    "K4": bg.complete(4),
    "star": bg.complete_bipartite(1, 3),
    "grid23": bg.grid(2, 3),
}


# First 16 hex digits of sha256(repr((names, edges, colors))); these pin the
# exact vertex order, edge list and colour integers that callers index into.
GOLDEN_LAYOUT = {
    ("K4", False, "none"): "9e80c0d930079640",
    ("K4", False, "two"): "ae1c6d3b5408108c",
    ("K4", True, "none"): "979005a972917db4",
    ("K4", True, "two"): "df0525d928cac802",
    ("grid23", False, "none"): "1c6609d14cabf85d",
    ("grid23", False, "two"): "739d8b4e37183939",
    ("grid23", True, "none"): "cb8f0429ddd6c1ef",
    ("grid23", True, "two"): "33d446c53e690233",
    ("petersen", False, "none"): "949eff92a45cf9b8",
    ("petersen", False, "two"): "9183fae4b348818e",
    ("petersen", True, "none"): "bc5bdb19ec72c241",
    ("petersen", True, "two"): "ca0e7332babeab88",
    ("K13", False, "none"): "a76c9c23273d409c",
    ("K13", False, "two"): "3c6e9a8207565700",
    ("K13", True, "none"): "b019abdc310e2dcc",
    ("K13", True, "two"): "9fefda8cdd166174",
}
GOLDEN_BASES = {
    "K4": bg.complete(4),
    "grid23": bg.grid(2, 3),
    "petersen": bg.petersen(),
    "K13": bg.complete_bipartite(1, 3),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_LAYOUT))
def test_golden_layout(key):
    name, colored, twisted = key
    base = GOLDEN_BASES[name]
    c = cfi.build_cfi(base, colored)
    if twisted == "two":
        c = cfi.apply_twist_sequence(c, [base.edges[0], base.edges[2]])
    digest = hashlib.sha256(repr((c.names(), c.edges, c.colors)).encode()).hexdigest()
    assert digest[:16] == GOLDEN_LAYOUT[key]


def test_preconditions():
    with pytest.raises(ValueError):
        cfi.build_cfi(bg.BaseGraph(1, ()))
    with pytest.raises(ValueError):
        cfi.build_cfi(bg.disjoint_union(bg.cycle(3), bg.cycle(3)))
    with pytest.raises(ValueError):
        cfi.build_tilde(bg.BaseGraph(1, ()))
    with pytest.raises(ValueError):
        cfi.build_tilde(bg.disjoint_union(bg.cycle(3), bg.cycle(3)))


def test_vertex_count_formula():
    for name, base in BASES.items():
        c = cfi.build_cfi(base)
        assert c.n == cfi.expected_vertex_count(base), name
    assert cfi.build_cfi(bg.complete(4)).n == 40


def test_path_cycle_shapes():
    for k in range(1, 7):
        y = cfi.build_cfi(bg.path(k))
        yt = cfi.build_tilde(bg.path(k))
        assert classify_linear(y.graph) == [
            LinearShape("path", 3 * (k - 1) + 1),
            LinearShape("path", 3 * (k - 1) + 3),
        ]
        assert classify_linear(yt.graph) == [
            LinearShape("path", 3 * (k - 1) + 2),
            LinearShape("path", 3 * (k - 1) + 2),
        ]
    for k in range(3, 8):
        y = cfi.build_cfi(bg.cycle(k))
        yt = cfi.build_tilde(bg.cycle(k))
        assert classify_linear(y.graph) == [LinearShape("cycle", 3 * k)] * 2
        assert classify_linear(yt.graph) == [LinearShape("cycle", 6 * k)]


def test_connectivity_at_degree_three():
    for name in ("K4", "star", "grid23"):
        base = BASES[name]
        assert bg.is_connected(cfi.build_cfi(base).graph), name
        assert bg.is_connected(cfi.build_tilde(base).graph), name


def test_exactly_one_cross_pattern_per_edge():
    base = bg.complete(4)
    for c in (cfi.build_cfi(base), cfi.build_tilde(base)):
        for u, v in base.edges:
            ia, ib = c.link_index(u, v, "a"), c.link_index(u, v, "b")
            ja, jb = c.link_index(v, u, "a"), c.link_index(v, u, "b")
            parallel = c.graph.has_edge(ia, ja) and c.graph.has_edge(ib, jb)
            crossed = c.graph.has_edge(ia, jb) and c.graph.has_edge(ib, ja)
            assert parallel != crossed
            assert crossed == ((u, v) in c.twist)


def test_degree_facts():
    base = bg.complete(4)
    c = cfi.build_cfi(base)
    for i, x in enumerate(c.vertices):
        d = base.degree(x.u)
        if isinstance(x, cfi.Middle):
            assert c.graph.degree(i) == d
        else:
            assert c.graph.degree(i) == 2 ** (d - 2) + 1


def test_twist_involution_and_commutation():
    base = bg.complete(4)
    c = cfi.build_cfi(base)
    e1, e2 = base.edges[0], base.edges[4]
    assert cfi.twist(cfi.twist(c, e1), e1) == c
    assert cfi.twist(cfi.twist(c, e1), e2) == cfi.twist(cfi.twist(c, e2), e1)
    with pytest.raises(ValueError):
        cfi.twist(cfi.build_cfi(bg.path(3)), (0, 2))


def test_twist_parity():
    base = bg.complete(4)
    c = cfi.build_cfi(base)
    assert len(c.twist) == 0
    c = cfi.twist(c, base.edges[0])
    assert len(c.twist) == 1
    c = cfi.apply_twist_sequence(c, [base.edges[1], base.edges[2]])
    assert len(c.twist) == 3


def test_build_tilde_twists_the_least_edge():
    bases = {**suite._bases_for_distinguisher(), "P2": bg.path(2), "C3": bg.cycle(3), "C4": bg.cycle(4)}
    for base in bases.values():
        for colored in (False, True):
            tilde = cfi.build_tilde(base, colored)
            want = cfi.twist(cfi.build_cfi(base, colored), base.edges[0])
            assert (tilde.edges, tilde.colors, tilde.twist) == (want.edges, want.colors, want.twist)


def test_colors():
    base = bg.complete(4)
    c = cfi.build_cfi(base, colored=True)
    u, v, w = 0, 1, 2
    # twin pairs share the integer color; distinct pairs of a gadget differ
    assert c.colors[c.link_index(u, v, "a")] == c.colors[c.link_index(u, v, "b")]
    assert c.colors[c.link_index(u, v, "a")] != c.colors[c.link_index(u, w, "a")]


def test_color_ints_respect_gadgets():
    base = bg.grid(2, 3)
    c = cfi.build_cfi(base, colored=True)
    dmax = base.max_degree()
    for i, x in enumerate(c.vertices):
        val = c.colors[i]
        assert (val - 1) // (dmax + 1) == x.u
        assert 1 <= val - x.u * (dmax + 1) <= dmax + 1


def test_path_encode():
    base = bg.cycle(3)
    c = cfi.build_cfi(base, colored=True)
    enc = cfi.path_encode(c)
    assert enc.n == c.n + sum(c.colors)
    # pendant path lengths are the color values: equal colors, equal tails
    with pytest.raises(ValueError):
        cfi.path_encode(cfi.build_cfi(base))


def test_path_encode_smallest_color():
    base = bg.path(1)
    c = cfi.build_cfi(base, colored=True)
    assert min(c.colors) == 1  # color (1,1) becomes a pendant path of length 1
    enc = cfi.path_encode(c)
    assert enc.n == c.n + sum(c.colors)


def test_export_roundtrip():
    c = cfi.build_cfi(bg.cycle(4), colored=True)
    g, colors, names = cfi.as_base_graph(c)
    data = bg.write_graph(g, "json", colors=colors, names=names)
    g2, meta = bg.read_graph(data)
    assert g2 == g and meta["colors"] == colors and meta["names"] == names
    assert len(set(names)) == g.n


def test_parse_names_inverts_name():
    c = cfi.build_tilde(bg.grid(2, 3))
    assert cfi.parse_names(c.names()) == list(c.vertices)
    assert cfi.parse_names(["m(4;)"]) == [cfi.Middle(4, ())]
    for bad in ("c(0,1)", "a(0,1", "m(0;1;2)", "a(-1,2)"):
        with pytest.raises(GraphFormatError):
            cfi.parse_names([bad])


def test_gadget_flip_map_is_isomorphism_onto_image():
    import random

    from cfigraphs import iso

    base = bg.complete(4)
    c = cfi.build_cfi(base)
    rng = random.Random(7)
    flips = cfi.random_even_flips(c, rng)
    perm = cfi.gadget_flip_map(c, flips)
    assert sorted(perm) == list(range(c.n))
    relabeled = c.graph.relabel(perm)
    assert iso.find_isomorphism(c.graph, relabeled) is not None


def test_lift_base_automorphism():
    base = bg.cycle(4)
    c = cfi.build_cfi(base)
    rot = [1, 2, 3, 0]
    tau = cfi.lift_base_automorphism(c, rot)
    # the lift is an automorphism of the untwisted graph
    assert c.graph.relabel(tau).edges == c.graph.edges
    with pytest.raises(ValueError):
        cfi.lift_base_automorphism(c, [1, 0, 2, 3])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.randoms())
def test_twist_set_determines_graph(name, rnd):
    base = BASES[name]
    seq = [rnd.choice(base.edges) for _ in range(rnd.randrange(5))]
    c = cfi.apply_twist_sequence(cfi.build_cfi(base), seq)
    parity = {}
    for e in seq:
        parity[e] = parity.get(e, 0) ^ 1
    expected = frozenset(e for e, p in parity.items() if p)
    assert c.twist == expected
    assert len(c.twist) % 2 == len(seq) % 2
