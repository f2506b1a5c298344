import gc
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfigraphs import base_graph as bg
from cfigraphs import cfi, cli, iso
from cfigraphs import distinguisher as dg
from cfigraphs.errors import StructureError


def test_short_cycles_canonical():
    c5 = bg.cycle(5)
    assert dg.short_cycles(c5) == [(0, 1, 2, 3, 4)]
    k4 = bg.complete(4)
    cycles = dg.short_cycles(k4)
    # 4 triangles and 3 four-cycles
    assert sum(1 for c in cycles if len(c) == 3) == 4
    assert sum(1 for c in cycles if len(c) == 4) == 3
    assert dg.short_cycles(bg.path(9)) == []
    # bounded length: a 9-cycle has no short cycle
    assert dg.short_cycles(bg.cycle(9)) == []


def _bitmask_cycles(g, max_len=8):
    """Every simple cycle of length <= max_len, in short_cycles' canonical form,
    joined from two paths out of its least vertex s that share only their
    ends (path masks ANDed): the half through the second vertex has
    ceil(L/2) edges and the half through the last vertex floor(L/2)."""
    adj = g.sorted_adjacency
    cycles = []
    for s in range(g.n):
        # by_end[k][w]: (trail, mask) of each path s..w of k edges through vertices > s
        level, by_end = [((s,), 1 << s)], [{}]
        for _ in range((max_len + 1) // 2):
            ends = {}
            for trail, mask in level:
                for w in adj[trail[-1]]:
                    if w > s and not mask >> w & 1:
                        ends.setdefault(w, []).append((trail + (w,), mask | 1 << w))
            by_end.append(ends)
            level = [item for items in ends.values() for item in items]
        for length in range(3, max_len + 1):
            shorter = by_end[length // 2]
            for w, ps in by_end[(length + 1) // 2].items():
                ends = 1 << s | 1 << w
                for p, pm in ps:
                    for q, qm in shorter.get(w, ()):
                        if pm & qm == ends and p[1] < q[1]:
                            cycles.append(p + q[-2:0:-1])
    return cycles


def _cycle_edges(g, max_len=8):
    """Edges of the enumerated short cycles: the oracle for short_cycle_edges."""
    steps = set()
    for cyc in _bitmask_cycles(g, max_len):
        steps.update(zip(cyc, cyc[1:] + cyc[:1]))
    return sorted({(min(x, y), max(x, y)) for x, y in steps})


def _classes(n, edges):
    """The components with an edge of the graph on 0..n-1 with these edges:
    the oracle for short_cycle_classes, given the enumerated cycle edges."""
    return [c for c in bg.connected_components(bg.BaseGraph(n, tuple(edges))) if len(c) > 1]


def _scrambled(c, rng):
    """The CFI graph under a random even flip in every gadget, then a random relabelling."""
    flipped = c.graph.relabel(cfi.gadget_flip_map(c, cfi.random_even_flips(c, rng)))
    perm = list(range(c.n))
    rng.shuffle(perm)
    return flipped.relabel(perm)


@st.composite
def sparse_graphs(draw):
    """Graphs on at most 10 vertices with at most n + 3 edges: in denser ones
    nearly every edge lies on a triangle, which tests no length bound."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n + 3)) if pairs else []
    return bg.BaseGraph.from_edges(n, edges)


@pytest.mark.parametrize("base", [
    bg.complete(4), bg.complete(5), bg.complete_bipartite(3, 3), bg.petersen()],
    ids=["K4", "K5", "K33", "petersen"])
def test_bitmask_cycles_match_short_cycles_on_cfi(base):
    rng = random.Random(base.n)
    for build in (cfi.build_cfi, cfi.build_tilde):
        g = _scrambled(build(base), rng)
        for max_len in (6, 8, 9):
            assert sorted(_bitmask_cycles(g, max_len)) == sorted(dg.short_cycles(g, max_len))


@settings(max_examples=200, deadline=None)
@given(sparse_graphs(), st.integers(1, 9))
def test_short_cycle_edges_match_enumeration(g, max_len):
    assert sorted(_bitmask_cycles(g, max_len)) == sorted(dg.short_cycles(g, max_len))
    edges = _cycle_edges(g, max_len)
    assert dg.short_cycle_edges(g, max_len) == edges
    assert dg.short_cycle_classes(g, max_len) == _classes(g.n, edges)


def test_short_cycle_edges_length_bound():
    c8, c9 = bg.cycle(8), bg.cycle(9)
    assert dg.short_cycle_edges(c8) == list(c8.edges)
    assert dg.short_cycle_edges(c9) == []
    # an 8-cycle with a pendant path: only the cycle's edges
    g = bg.BaseGraph.from_edges(10, list(c8.edges) + [(7, 8), (8, 9)])
    assert dg.short_cycle_edges(g) == list(c8.edges)


@pytest.mark.parametrize("base", [
    bg.complete(4), bg.complete(5), bg.complete(6), bg.complete_bipartite(3, 3),
    bg.petersen(), bg.grid(8, 8)], ids=["K4", "K5", "K6", "K33", "petersen", "grid8"])
def test_short_cycle_edges_match_enumeration_on_cfi(base):
    rng = random.Random(base.n)
    for build in (cfi.build_cfi, cfi.build_tilde):
        g = _scrambled(build(base), rng)
        edges = _cycle_edges(g)
        assert dg.short_cycle_edges(g) == edges
        assert dg.short_cycle_classes(g) == _classes(g.n, edges)


# u = 0 and v = 1 joined by the edge uv and by paths of lengths 3 and 5, with a
# pendant 9-cycle at vertex 7 whose edges lie on no cycle of length <= 8
THETA = bg.BaseGraph.from_edges(16, [(0, 1), (0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 7),
                                     (7, 1)] + list(zip(range(7, 15), range(8, 16))) + [(7, 15)])


def _counted_bfs(monkeypatch):
    """The edges that get a BFS, recorded as it runs."""
    calls, meet = [], dg._meet

    def counted(adj, u, v, reach):
        calls.append((u, v))
        return meet(adj, u, v, reach)
    monkeypatch.setattr(dg, "_meet", counted)
    return calls


def test_short_cycle_classes_join_whole_shortest_paths(monkeypatch):
    for max_len in range(1, 10):
        assert dg.short_cycle_classes(THETA, max_len) == _classes(THETA.n, _cycle_edges(THETA, max_len))
    calls = _counted_bfs(monkeypatch)
    assert dg.short_cycle_classes(THETA) == [frozenset(range(8))]
    # edge 01 meets at 3 and joins 2 and 3 too, edge 04 joins the 5-path; the
    # other theta edges are skipped.  Edge 78 of the 9-cycle misses at 8, of
    # degree 2, which closes the cycle's degree-2 chain 8..15, so no other
    # edge of the 9-cycle is searched
    assert calls == [(0, 1), (0, 4), (7, 8)]


def test_short_cycle_classes_search_one_edge_per_degree_two_strand(monkeypatch):
    # CFI(C200 plus the chord 0-100): the two chains of 99 degree-2 gadgets
    # are four strands of degree-2 vertices, each closed by its first miss;
    # two meets close each degree-3 gadget, and 2 cross edges are reached
    # before either end's gadget closed (1,194 runs without the chain rule)
    base = bg.BaseGraph.from_edges(200, list(bg.cycle(200).edges) + [(0, 100)])
    g = _scrambled(cfi.build_tilde(base), random.Random(200))
    calls = _counted_bfs(monkeypatch)
    assert [len(c) for c in dg.short_cycle_classes(g)] == [10, 10]
    assert len(calls) == 4 + 2 * 2 + 2


def test_short_cycle_classes_search_two_edges_per_cubic_gadget(monkeypatch):
    # the first BFS in a degree-3 gadget joins 9 of its 10 vertices and the
    # second the last one, which closes the class; the 2|E| cross edges lie
    # on no short cycle, and only 4 are reached before either end's gadget closed
    base = bg.petersen()
    g = _scrambled(cfi.build_tilde(base), random.Random(7))
    calls = _counted_bfs(monkeypatch)
    assert len(dg.short_cycle_classes(g)) == base.n
    assert len(calls) == 2 * base.n + 4


# degrees 3, 4 and 5: the wheel on hub 0 and rim 1..5, with the chord 1-3
MIXED_DEGREES = bg.BaseGraph.from_edges(6, [(0, i) for i in range(1, 6)] + list(
    zip(range(1, 6), [2, 3, 4, 5, 1])) + [(1, 3)])


@pytest.mark.parametrize("base", [bg.complete(5), bg.complete(6), bg.complete(8), bg.grid(8, 8), MIXED_DEGREES],
                         ids=["K5", "K6", "K8", "grid8", "mixed"])
def test_short_cycle_classes_are_the_constructed_gadgets(base):
    # a class closes only once it is a whole gadget, so the skipped edges
    # split none of them, whatever order the relabelling gives the edges
    rng = random.Random(base.n)
    for build in (cfi.build_cfi, cfi.build_tilde):
        c = build(base)
        for _ in range(3):
            flipped = c.graph.relabel(cfi.gadget_flip_map(c, cfi.random_even_flips(c, rng)))
            perm = list(range(c.n))
            rng.shuffle(perm)
            gadgets = [frozenset(perm[x] for x in range(c.offsets[u], c.offsets[u + 1]))
                       for u in range(base.n) if base.degree(u) >= 3]
            assert dg.short_cycle_classes(flipped.relabel(perm)) == sorted(gadgets, key=min)


@st.composite
def sparse_graphs_to_40(draw):
    """Graphs on at most 40 vertices with at most n + 10 edges, or a relabelled
    CFI graph of at most 40 vertices with up to three vertex pairs toggled."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        return bg.BaseGraph.from_edges(n, {tuple(sorted(e)) for e in draw(st.lists(pair, max_size=n + 10))})
    c = (cfi.build_tilde if draw(st.booleans()) else cfi.build_cfi)(draw(st.sampled_from(MUTATION_BASES)))
    edges = set(c.edges)
    for u, v in draw(st.lists(st.tuples(st.integers(0, c.n - 1), st.integers(0, c.n - 1)), max_size=3)):
        if u != v:
            edges ^= {(min(u, v), max(u, v))}
    perm = list(range(c.n))
    random.Random(draw(st.integers(0, 10**6))).shuffle(perm)
    return bg.BaseGraph.from_edges(c.n, edges).relabel(perm)


@settings(max_examples=150, deadline=None)
@given(sparse_graphs_to_40())
def test_short_cycle_classes_lie_inside_short_cycle_components(g):
    # the documented contract off CFI graphs: disjoint classes, sorted by least
    # vertex, each inside one component of the enumerated short-cycle edges
    classes = dg.short_cycle_classes(g)
    assert sum(map(len, classes)) == len(set().union(*classes))
    assert all(len(c) > 1 for c in classes) and [min(c) for c in classes] == sorted(min(c) for c in classes)
    component = {x: i for i, comp in enumerate(_classes(g.n, _cycle_edges(g))) for x in comp}
    for c in classes:
        assert len({component.get(x) for x in c}) == 1 and min(c) in component


def test_short_cycle_membership_matches_gadget_degree():
    # vertices on short cycles are exactly those in gadgets of base degree >= 3
    base = bg.grid(2, 3)  # degrees 2 and 3 mixed
    c = cfi.build_cfi(base)
    rows = dg.short_cycle_pair_rows(c.graph)
    for i, x in enumerate(c.vertices):
        on_cycle = rows[i] != 0
        assert on_cycle == (base.degree(x.u) >= 3)


def test_short_cycle_classes_are_gadgets():
    base = bg.petersen()
    c = cfi.build_cfi(base)
    dec = dg.decompose(c.graph)
    assert len(dec.gadgets) == base.n
    for gad in dec.gadgets:
        us = {c.vertices[i].u for i in gad.vertices}
        assert len(us) == 1
        assert len(gad.pairs) == base.degree(us.pop())


def test_twin_pairs_recovered():
    base = bg.complete(4)
    c = cfi.build_cfi(base)
    dec = dg.decompose(c.graph)
    for gad in dec.gadgets:
        for pair in gad.pairs:
            va, vb = c.vertices[pair[0]], c.vertices[pair[1]]
            assert (va.u, va.v) == (vb.u, vb.v) and va.side != vb.side


def test_decompose_recovers_base():
    for base in (bg.complete(4), bg.complete_bipartite(3, 3), bg.grid(2, 3),
                 bg.complete_bipartite(1, 3), bg.petersen()):
        for build in (cfi.build_cfi, cfi.build_tilde):
            g = build(base).graph
            dec = dg.decompose(g)
            assert dec.base.n == base.n
            assert iso.find_isomorphism(dec.base, base) is not None


def test_verdicts():
    for base in (bg.path(3), bg.cycle(5), bg.complete(4),
                 bg.complete_bipartite(3, 3), bg.grid(2, 3), bg.petersen()):
        assert not dg.distinguish(cfi.build_cfi(base).graph).twisted
        assert dg.distinguish(cfi.build_tilde(base).graph).twisted


def test_verdict_invariance():
    rng = random.Random(17)
    for base in (bg.grid(2, 3), bg.complete_bipartite(1, 3)):
        for twisted in (False, True):
            c = cfi.build_tilde(base) if twisted else cfi.build_cfi(base)
            for _ in range(5):
                perm = list(range(c.n))
                rng.shuffle(perm)
                assert dg.distinguish(c.graph.relabel(perm)).twisted == twisted
                flips = cfi.random_even_flips(c, rng)
                relab = c.graph.relabel(cfi.gadget_flip_map(c, flips))
                assert dg.distinguish(relab).twisted == twisted


def test_even_twists_keep_verdict():
    base = bg.complete(4)
    c = cfi.apply_twist_sequence(cfi.build_cfi(base), [base.edges[0], base.edges[3]])
    assert not dg.distinguish(c.graph).twisted
    c = cfi.twist(c, base.edges[5])
    assert dg.distinguish(c.graph).twisted


def test_linear_cases():
    v = dg.distinguish(cfi.build_tilde(bg.cycle(5)).graph)
    assert v.twisted and v.base == bg.cycle(5)
    v = dg.distinguish(cfi.build_cfi(bg.path(3)).graph)
    assert not v.twisted and v.base == bg.path(3)
    v = dg.distinguish(cfi.build_cfi(bg.path(1)).graph)
    assert not v.twisted and v.base == bg.path(1)
    v = dg.distinguish(cfi.build_tilde(bg.path(1)).graph)
    assert v.twisted and v.base == bg.path(1)
    # base recovery through the linear route
    assert dg.distinguish(cfi.build_cfi(bg.cycle(7)).graph).base == bg.cycle(7)


def test_per_gadget_parity_correction_is_even():
    # after correction every gadget's representative set has even flip parity,
    # observed indirectly: applying any even flip map leaves the verdict alone
    base = bg.complete_bipartite(3, 3)
    c = cfi.build_cfi(base)
    rng = random.Random(3)
    for _ in range(10):
        flips = cfi.random_even_flips(c, rng)
        g = c.graph.relabel(cfi.gadget_flip_map(c, flips))
        assert not dg.distinguish(g).twisted


def test_structure_errors():
    with pytest.raises(StructureError):
        dg.decompose(bg.path(9))  # no short cycles at all
    with pytest.raises(StructureError):
        dg.distinguish(bg.complete(5))  # cycles, but no CFI structure
    with pytest.raises(StructureError):
        dg.distinguish(bg.disjoint_union(bg.path(4), bg.path(4)))  # wrong lengths
    with pytest.raises(StructureError):
        dg.distinguish(bg.cycle(9))  # single odd cycle is no twisted image


STAR_4_2_1 = bg.BaseGraph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (0, 7)])


def test_grown_pair_touching_another_gadget_is_rejected():
    # a star with arms of length 4, 2 and 1, and a(3,2) on the long arm also
    # joined to the middle of pendant gadget 7, too far away to close a short
    # cycle.  In the construction's own labelling the walk grows gadget 7
    # first, so the pair a(3,2), b(3,2) is grown next to an assigned vertex of
    # a gadget other than the one it came from; the walk recovers the star,
    # and the certificate rejects the extra edge.
    c = cfi.build_cfi(STAR_4_2_1)
    extra = (c.link_index(3, 2, "a"), c.middle_index(7, ()))
    g = bg.BaseGraph.from_edges(c.n, list(c.edges) + [extra])
    assert iso.find_isomorphism(dg.decompose(g).base, STAR_4_2_1) is not None
    with pytest.raises(StructureError, match="not isomorphic to the CFI graph"):
        dg.distinguish(g)


def test_pair_landing_on_a_pair_grown_from_another_gadget_is_rejected():
    # two triangles, each with a pendant base vertex, joined by a path; pendant
    # gadget 7 is cut out and gadget 4's pair toward it joined to pendant
    # gadget 3's links, so gadget 3 hangs off gadgets 0 and 4.  Whichever of
    # the two pairs grows it, the other lands on a pair whose cross edges lead
    # elsewhere, and gadget 3 would have a base edge with no twin pair behind it.
    base = bg.BaseGraph.from_edges(10, [(0, 1), (1, 2), (0, 2), (0, 3), (4, 5), (5, 6), (4, 6), (4, 7),
                                        (2, 8), (8, 9), (9, 5)])
    c = cfi.build_cfi(base)
    edges = list(c.edges) + [(c.link_index(4, 7, s), c.link_index(3, 0, s)) for s in "ab"]
    index = {v: i for i, v in enumerate(v for v in range(c.n) if v not in c.gadget_vertices(7))}
    g = bg.BaseGraph.from_edges(len(index), [(index[x], index[y]) for x, y in edges if x in index and y in index])
    for seed in range(3):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        with pytest.raises(StructureError, match="leading back"):
            dg.distinguish(g.relabel(perm))


def test_short_cycle_class_without_links_is_rejected():
    # the Petersen graph is one short-cycle class of a degree-3 gadget's size
    # with no edge leaving it: as a gadget with no twin pairs it would recover
    # a one-vertex base, whose CFI graph has no gadget to build
    with pytest.raises(StructureError, match="0 of them links"):
        dg.distinguish(bg.petersen())


def test_links_sharing_a_middle_profile_are_rejected():
    # in gadget 0 of CFI(K4), a(0,2) takes the middles of a(0,1) and b(0,2)
    # those of b(0,1), so a(0,1) and a(0,2) each find two complementary
    # partners, and every link finds at least one
    c = cfi.build_cfi(bg.complete(4))
    a2, b2 = c.link_index(0, 2, "a"), c.link_index(0, 2, "b")
    m13, m23 = c.middle_index(0, (1, 3)), c.middle_index(0, (2, 3))
    edges = set(c.edges) - {(a2, m23), (b2, m13)} | {(a2, m13), (b2, m23)}
    with pytest.raises(StructureError, match="complementary partners"):
        dg.decompose(bg.BaseGraph.from_edges(c.n, edges))


@pytest.mark.parametrize("first", [cfi.build_cfi, cfi.build_tilde])
def test_disjoint_copies_are_rejected(first):
    # each copy is a valid CFI graph, but their union recovers a disconnected base
    k4 = bg.complete(4)
    g = bg.disjoint_union(first(k4).graph, cfi.build_tilde(k4).graph)
    with pytest.raises(StructureError):
        dg.decompose(g)
    with pytest.raises(StructureError):
        dg.distinguish(g)


def test_recover_base_matches_construction():
    for base in (bg.complete(4), bg.grid(2, 3), bg.cycle(7)):
        got = dg.distinguish(cfi.build_cfi(base).graph).base
        assert iso.find_isomorphism(got, base) is not None


def test_orientation_parity_direct():
    base = bg.complete(4)
    y = cfi.build_cfi(base).graph
    yt = cfi.build_tilde(base).graph
    assert dg.orientation_parity(y, dg.decompose(y)) == "even"
    assert dg.orientation_parity(yt, dg.decompose(yt)) == "odd"
    # three twists stay odd
    c = cfi.apply_twist_sequence(cfi.build_cfi(base), list(base.edges[:3]))
    assert dg.orientation_parity(c.graph, dg.decompose(c.graph)) == "odd"


def test_theta_graph_base():
    # two degree-3 vertices joined by chains of lengths 2, 2, 3: exercises
    # chain growth meeting assigned gadgets from both directions
    theta = bg.BaseGraph.from_edges(
        7, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)])
    for twisted in (False, True):
        c = cfi.build_tilde(theta) if twisted else cfi.build_cfi(theta)
        v = dg.distinguish(c.graph)
        assert v.twisted == twisted
        assert iso.find_isomorphism(v.base, theta) is not None


def _random_connected_base(rnd, n):
    """Random connected graph on n vertices with max degree capped at 4."""
    edges = {(rnd.randrange(i), i) for i in range(1, n)}
    g = bg.BaseGraph.from_edges(n, edges)
    extra = rnd.randrange(3)
    for _ in range(extra):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v and not g.has_edge(u, v) and g.degree(u) < 4 and g.degree(v) < 4:
            g = bg.BaseGraph.from_edges(n, list(g.edges) + [(u, v)])
    return g


def test_random_bases_roundtrip():
    rnd = random.Random(424242)
    tried = 0
    while tried < 30:
        base = _random_connected_base(rnd, rnd.randint(2, 7))
        tried += 1
        for twisted in (False, True):
            c = cfi.build_tilde(base) if twisted else cfi.build_cfi(base)
            perm = list(range(c.n))
            rnd.shuffle(perm)
            v = dg.distinguish(c.graph.relabel(perm))
            assert v.twisted == twisted, (base.edges, twisted)
            assert iso.find_isomorphism(v.base, base) is not None, base.edges


# C1000 plus a chord: two chains of 499 degree-2 gadgets, grown one by one
C1000_CHORD = bg.BaseGraph.from_edges(1000, list(bg.cycle(1000).edges) + [(0, 500)])


@pytest.mark.parametrize("base", [bg.complete(8), bg.grid(30, 30), C1000_CHORD],
                         ids=["K8", "grid30", "C1000chord"])
def test_distinguish_at_scale(base):
    rng = random.Random(base.n)
    degrees = Counter(base.degree(u) for u in range(base.n))
    for twisted in (False, True):
        c = cfi.build_tilde(base) if twisted else cfi.build_cfi(base)
        v = dg.distinguish(_scrambled(c, rng))
        assert v.twisted == twisted
        assert (v.base.n, len(v.base.edges)) == (base.n, len(base.edges))
        assert Counter(v.base.degree(u) for u in range(v.base.n)) == degrees


def test_distinguish_memory_is_linear():
    # the traced peak per vertex may not grow with n (4.3 times more vertices)
    per_vertex = []
    for a in (10, 20):
        g = _scrambled(cfi.build_tilde(bg.grid(a, a)), random.Random(a))
        tracemalloc.start()
        try:
            assert dg.distinguish(g).twisted
            per_vertex.append(tracemalloc.get_traced_memory()[1] / g.n)
        finally:
            tracemalloc.stop()
    assert per_vertex[1] < 1.3 * per_vertex[0] and max(per_vertex) < 2048


@pytest.mark.parametrize("enabled", [True, False])
def test_distinguish_restores_the_collector_state(enabled):
    g = _scrambled(cfi.build_tilde(bg.grid(8, 8)), random.Random(8))
    k4 = bg.complete(4)
    union = bg.disjoint_union(cfi.build_cfi(k4).graph, cfi.build_tilde(k4).graph)
    was = gc.isenabled()
    try:
        gc.disable()
        gc.collect()
        assert dg.distinguish(g).twisted
        # pausing the collector cannot grow memory: the call leaves no cycles
        assert gc.collect() == 0
        (gc.enable if enabled else gc.disable)()
        assert dg.distinguish(g).twisted
        assert gc.isenabled() == enabled
        with pytest.raises(StructureError):
            dg.distinguish(union)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_distinguish_builds_no_bitmask_rows():
    # one n-bit adjacency row per vertex would make the memory quadratic in n
    c = cfi.build_tilde(bg.grid(15, 15))
    g = _scrambled(c, random.Random(15))
    assert dg.distinguish(g).twisted
    assert "adjacency_bits" not in g.__dict__


# K4 with edge 0-1 replaced by the path 0-4-5-1
K4_SUBDIVIDED = bg.BaseGraph.from_edges(
    6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5), (5, 1)])


def forgery(build):
    """Y or Ytilde over K4_SUBDIVIDED with gadget 4's middles rewired: +4
    joins a(4,0), a(4,5) and b(4,5), and +5 joins b(4,0) alone.  Every CFI
    graph over that base has minimum degree 2; this one has a vertex of
    degree 1, so it is isomorphic to neither."""
    c = build(K4_SUBDIVIDED)
    off = c.offsets[4]
    internal = {(off + x, off + y) for x, y in c.blocks[4].graph.edges}
    rewired = [(off + 4, off), (off + 4, off + 1), (off + 4, off + 3), (off + 5, off + 2)]
    return bg.BaseGraph.from_edges(c.n, [e for e in c.edges if e not in internal] + rewired)


@pytest.mark.parametrize("build", [cfi.build_cfi, cfi.build_tilde], ids=["Y", "Ytilde"])
@pytest.mark.parametrize("seed", range(8))
def test_forgery_is_rejected(build, seed):
    g = forgery(build)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    with pytest.raises(StructureError):
        dg.distinguish(g.relabel(perm))


@pytest.mark.parametrize("build", [cfi.build_cfi, cfi.build_tilde], ids=["Y", "Ytilde"])
def test_forgery_exits_2_from_cli(build, tmp_path, capsys):
    g = forgery(build)
    perm = list(range(g.n))
    random.Random(0).shuffle(perm)
    p = tmp_path / "forgery.json"
    p.write_bytes(bg.write_graph(g.relabel(perm), "json"))
    code = cli.main(["distinguish", str(p)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "error:" in err and "Traceback" not in err


MUTATION_BASES = [
    bg.complete(4),
    bg.complete_bipartite(1, 3),
    bg.BaseGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),  # triangle, pendant path
    K4_SUBDIVIDED,
    STAR_4_2_1,
]


def _mutate(n, edges, kind, i, j, avoid=frozenset()):
    """One edge deletion, addition, rewiring or degree-preserving swap; i and j
    pick the edges and vertices involved, modulo the candidates.  Candidates
    touching a vertex in ``avoid`` are dropped wherever others remain."""
    def clear(candidates, ends=lambda x: x):
        return [x for x in candidates if avoid.isdisjoint(ends(x))] or candidates

    edges = set(edges)
    el = sorted(edges)
    if kind == "delete":
        el = clear(el)
        edges.remove(el[i % len(el)])
    elif kind == "add":
        absent = clear([(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges])
        edges.add(absent[i % len(absent)])
    elif kind == "rewire":  # keep one endpoint, move the other
        el = clear(el)
        u, v = el[i % len(el)]
        if j % 2:
            u, v = v, u
        ws = clear([w for w in range(n) if w not in (u, v) and (min(u, w), max(u, w)) not in edges],
                   lambda w: (w,))
        w = ws[j // 2 % len(ws)]
        edges.remove((min(u, v), max(u, v)))
        edges.add((min(u, w), max(u, w)))
    else:  # ab, cd -> ac, bd
        swaps = clear([((a, b), (c, d)) for a, b in el for c, d in el + [e[::-1] for e in el]
                       if len({a, b, c, d}) == 4 and (min(a, c), max(a, c)) not in edges
                       and (min(b, d), max(b, d)) not in edges], lambda x: x[0] + x[1])
        (a, b), (c, d) = swaps[i % len(swaps)]
        edges -= {(a, b), (min(c, d), max(c, d))}
        edges |= {(min(a, c), max(a, c)), (min(b, d), max(b, d))}
    return edges


# about half of the edits avoid the vertices of the degree >= 3 gadgets: an
# edit touching one nearly always ends at the first class-size check, short
# of the walk and the certificate (K4 has no other vertices)
mutations = st.lists(st.tuples(st.sampled_from(["delete", "add", "rewire", "swap"]),
                               st.integers(0, 10**6), st.integers(0, 10**6), st.booleans()),
                     min_size=1, max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(MUTATION_BASES) - 1), st.booleans(), mutations, st.integers(0, 10**6))
# an added edge that got "original" before the verdict was certified
@example(0, False, [("add", 536321, 903698, False)], 453079)
def test_mutated_cfi_graphs_get_certified_verdicts(which, twisted, muts, seed):
    c = (cfi.build_tilde if twisted else cfi.build_cfi)(MUTATION_BASES[which])
    edges = c.edges
    gadgets = frozenset(x for u in range(c.base.n) if c.base.degree(u) >= 3 for x in c.gadget_vertices(u))
    for kind, i, j, outside in muts:
        edges = _mutate(c.n, edges, kind, i, j, gadgets if outside else frozenset())
    perm = list(range(c.n))
    random.Random(seed).shuffle(perm)
    g = bg.BaseGraph.from_edges(c.n, edges).relabel(perm)
    try:
        v = dg.distinguish(g)
    except StructureError:
        return
    named = (cfi.build_tilde if v.twisted else cfi.build_cfi)(v.base)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iso, "ISO_SIZE_GUARD", max(g.n, named.n))
        assert iso.find_isomorphism(g, named.graph) is not None
