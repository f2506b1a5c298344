import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfigraphs import base_graph as bg
from cfigraphs.errors import GraphFormatError


def test_family_shapes():
    p3 = bg.path(3)
    assert p3.n == 4 and p3.edges == ((0, 1), (1, 2), (2, 3))
    c3 = bg.cycle(3)
    assert c3.n == 3 and set(c3.edges) == {(0, 1), (0, 2), (1, 2)}
    with pytest.raises(ValueError):
        bg.cycle(2)
    with pytest.raises(ValueError):
        bg.path(0)
    with pytest.raises(ValueError):
        bg.complete(0)


def test_edge_count_closed_forms():
    assert len(bg.path(7).edges) == 7
    assert len(bg.cycle(9).edges) == 9
    assert len(bg.complete(6).edges) == 6 * 5 // 2
    assert len(bg.complete_bipartite(3, 3).edges) == 9
    assert len(bg.grid(2, 3).edges) == 7
    assert len(bg.petersen().edges) == 15
    for name, params in (("P", (7,)), ("C", (9,)), ("K", (6,)), ("K", (1,)), ("Kab", (3, 4)),
                         ("grid", (2, 3)), ("grid", (1, 5)), ("petersen", ())):
        g = bg.build_family(name, params)
        assert bg.FAMILY_BUILDERS[name][2](*params) == (g.n, len(g.edges)), name


def test_degrees():
    k4 = bg.complete(4)
    assert all(k4.degree(v) == 3 for v in range(4))
    p3 = bg.path(3)
    assert p3.degree(0) == 1 and p3.degree(1) == 2
    star = bg.complete_bipartite(1, 3)
    assert star.degree(0) == 3 and star.max_degree() == 3
    with pytest.raises(ValueError):
        p3.degree(9)


def test_components():
    c3 = bg.cycle(3)
    assert bg.connected_components(c3) == [frozenset({0, 1, 2})]
    two = bg.disjoint_union(c3, c3)
    assert [len(c) for c in bg.connected_components(two)] == [3, 3]
    single = bg.BaseGraph(1, ())
    assert bg.connected_components(single) == [frozenset({0})]
    assert bg.is_connected(bg.petersen())


def test_classify_linear():
    g = bg.disjoint_union(bg.path(4), bg.path(6))
    assert bg.classify_linear(g) == [bg.LinearShape("path", 4), bg.LinearShape("path", 6)]
    assert bg.classify_linear(bg.cycle(18)) == [bg.LinearShape("cycle", 18)]
    assert bg.classify_linear(bg.complete(4)) == [bg.LinearShape("other")]


def test_loops_and_duplicates():
    with pytest.raises(ValueError, match="loop at vertex 0"):
        bg.BaseGraph.from_edges(3, [(0, 0)])
    g = bg.BaseGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("edges, message", [
    (((1, 2), (0, 1)), "edges must be sorted"),
    (((0, 1), (0, 1)), r"duplicate edge \(0,1\)"),
    (((0, 1), (1, 2), (0, 1)), "edges must be sorted"),
    (((1, 0),), "out of range or not normalized"),
    (((0, 3),), "out of range or not normalized"),
    (((-1, 0),), "out of range or not normalized"),
    (((0, 1), (2, 2)), "loop at vertex 2"),
])
def test_constructor_rejects_malformed_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        bg.BaseGraph(3, edges)


def test_has_edge_out_of_range():
    g = bg.path(3)  # vertex 3 is adjacent to 2 only
    assert g.has_edge(3, 2) and g.has_edge(2, 3)
    for v in range(-1, g.n + 1):
        assert not g.has_edge(-1, v) and not g.has_edge(g.n, v)
        assert not g.has_edge(v, -1) and not g.has_edge(v, g.n)


def test_json_roundtrip_canonical():
    g = bg.grid(2, 3)
    data = bg.write_graph(g, "json")
    g2, meta = bg.read_graph(data, "json")
    assert g2 == g and meta == {}
    assert bg.write_graph(g2, "json") == data


def test_json_colors_names():
    g = bg.path(1)
    data = bg.write_graph(g, "json", colors=[5, 7], names=["x", "y"])
    g2, meta = bg.read_graph(data, "json")
    assert g2 == g and meta["colors"] == [5, 7] and meta["names"] == ["x", "y"]
    with pytest.raises(GraphFormatError):
        bg.read_graph(b'{"n": 2, "edges": [[0,1]], "colors": [1]}', "json")


@pytest.mark.parametrize("doc", [
    b'{"n": 3, "edges": [[0,1],[1,2]], "names": "abc", "colors": [true, false, 1.9]}',
    b'{"n": 3, "edges": [[0,1],[1,2]], "colors": [true, false, 1]}',
    b'{"n": 3, "edges": [[0,1],[1,2]], "colors": [0, 1, 1.9]}',
    b'{"n": 3, "edges": [[0,1],[1,2]], "colors": ["0", 1, 2]}',
    b'{"n": 3, "edges": [[0,1],[1,2]], "names": "abc"}',
    b'{"n": 3, "edges": [[0,1],[1,2]], "names": ["a", "b", 3]}',
    b'{"n": 3.0, "edges": [[0,1],[1,2]]}',
    b'{"n": "3", "edges": [[0,1],[1,2]]}',
    b'{"n": true, "edges": []}',
    b'{"n": 3, "edges": [[0,1],[1,2.0]]}',
    b'{"n": 3, "edges": [[0,1],[1,"2"]]}',
    b'{"n": 3, "edges": [[0,1],[1,2,0]]}',
    b'{"n": 3, "edges": [[false,1]]}',
])
def test_json_accepts_only_json_integers_and_strings(doc):
    with pytest.raises(GraphFormatError, match="bad graph data"):
        bg.read_graph(doc, "json")


def test_dimacs():
    text = b"c comment\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
    g, _ = bg.read_graph(text, "dimacs")
    assert g == bg.cycle(3)
    # duplicate edges dedupe silently
    g2, _ = bg.read_graph(b"p edge 2 2\ne 1 2\ne 2 1\n", "dimacs")
    assert g2.edges == ((0, 1),)
    with pytest.raises(GraphFormatError, match="loop"):
        bg.read_graph(b"p edge 2 1\ne 1 1\n", "dimacs")
    with pytest.raises(GraphFormatError, match="line 1"):
        bg.read_graph(b"q edge 2 1\n", "dimacs")
    with pytest.raises(GraphFormatError, match="line 1: '3.0' is not an integer"):
        bg.read_graph(b"p edge 3.0 1\ne 1 2\n", "dimacs")
    with pytest.raises(GraphFormatError, match="line 2: 'x' is not an integer"):
        bg.read_graph(b"p edge 3 1\ne 1 x\n", "dimacs")
    with pytest.raises(GraphFormatError, match="input cap"):
        bg.read_graph(b"p edge %d 0\n" % (bg.MAX_INPUT_VERTICES + 1), "dimacs")
    assert bg.read_graph(b"p edge %d 0\n" % bg.MAX_INPUT_VERTICES, "dimacs")[0].n == bg.MAX_INPUT_VERTICES
    rt, _ = bg.read_graph(bg.write_graph(g, "dimacs"), "dimacs")
    assert rt == g


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return bg.BaseGraph.from_edges(n, edges)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_io_roundtrip_property(g):
    for fmt in ("json", "dimacs"):
        g2, _ = bg.read_graph(bg.write_graph(g, fmt), fmt)
        assert g2 == g


@settings(max_examples=40, deadline=None)
@given(graphs(), st.randoms())
def test_classify_linear_relabel_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert bg.classify_linear(g) == bg.classify_linear(g.relabel(perm))


@st.composite
def vertex_maps(draw):
    """(g, h, p): h is g relabelled by a permutation sigma, the same with one
    vertex pair toggled, or any graph, often of another order; p is sigma,
    another permutation, sigma with a repeated entry, with one entry -1 or
    n + 1, or one entry too short or too long."""
    g = draw(graphs())
    sigma = draw(st.permutations(range(g.n)))
    h = g.relabel(sigma)
    target = draw(st.sampled_from(["relabelled", "toggled", "any"]))
    if target == "toggled" and g.n > 1:
        pair = draw(st.sampled_from([(u, v) for u in range(g.n) for v in range(u + 1, g.n)]))
        h = bg.BaseGraph.from_edges(g.n, set(h.edges) ^ {pair})
    elif target == "any":
        h = draw(graphs())
    p = list(sigma)
    sequence = draw(st.sampled_from(["sigma", "permutation", "repeated", "negative", "past", "short", "long"]))
    if sequence == "permutation":
        p = draw(st.permutations(range(g.n)))
    elif sequence == "repeated" and g.n > 1:
        i, j = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        p[i] = p[j]
    elif sequence in ("negative", "past"):
        # -1 would index the last vertex if it were used as an index unchecked
        p[draw(st.integers(0, g.n - 1))] = -1 if sequence == "negative" else g.n + 1
    elif sequence == "short":
        p = p[:-1]
    elif sequence == "long":
        p = p + [g.n]
    return g, h, p


@settings(max_examples=300, deadline=None)
@given(vertex_maps())
def test_is_isomorphism_matches_brute_force(case):
    g, h, p = case
    permutes_g = len(p) == g.n and set(p) == set(range(g.n))
    bijection = permutes_g and g.n == h.n
    want = bijection and all(g.has_edge(u, v) == h.has_edge(p[u], p[v])
                             for u in range(g.n) for v in range(u + 1, g.n))
    assert g.is_isomorphism(h, p) == want
    if bijection:
        assert (g.relabel(p).edges == h.edges) == want
    if not permutes_g:
        with pytest.raises(ValueError, match="not a bijection"):
            g.relabel(p)


@pytest.mark.parametrize("enabled", [True, False])
def test_read_graph_restores_the_collector_state(enabled):
    data = bg.write_graph(bg.petersen())
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert bg.read_graph(data)[0] == bg.petersen()
        assert gc.isenabled() == enabled
        with pytest.raises(GraphFormatError):
            bg.read_graph(b'{"n": 2, "edges": [[0, 2]]}')
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError):
            bg.petersen().relabel([0])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
