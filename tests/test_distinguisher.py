import random

import pytest

from cfigraphs import base_graph as bg
from cfigraphs import cfi, iso
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
        assert gad.degree == base.degree(us.pop())


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
    # recover_base through the linear route
    assert dg.recover_base(cfi.build_cfi(bg.cycle(7)).graph) == bg.cycle(7)


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
        got = dg.recover_base(cfi.build_cfi(base).graph)
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
