import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfigraphs import base_graph as bg
from cfigraphs import treewidth as tw
from cfigraphs.errors import SizeGuardError
from cfigraphs.homcount import subdivide2

KNOWN = [
    (bg.path(3), 1),
    (bg.path(1), 1),
    (bg.complete_bipartite(1, 3), 1),
    (bg.cycle(4), 2),
    (bg.cycle(5), 2),
    (bg.grid(2, 3), 2),
    (bg.complete(4), 3),
    (bg.complete_bipartite(3, 3), 3),
    (bg.petersen(), 4),
]


def test_known_widths():
    for g, want in KNOWN:
        width, td = tw.treewidth_exact(g)
        assert width == want
        assert td.width == want


# name -> (width, each bag sorted, tree edges) of treewidth_exact, computed
# before the witness took its fills from the elimination search
GOLDEN_DECOMPOSITIONS = {
    "P3": (1, ((0, 1), (1, 2), (2, 3), (3,)), ((0, 1), (1, 2), (2, 3))),
    "C5": (2, ((0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 4), (4,)), ((0, 1), (1, 2), (2, 3), (3, 4))),
    "K4": (3, ((0, 1, 2, 3), (1, 2, 3), (2, 3), (3,)), ((0, 1), (1, 2), (2, 3))),
    "K3,3": (3, ((0, 3, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5), (3, 4, 5), (4, 5), (5,)),
             ((0, 3), (1, 3), (2, 3), (3, 4), (4, 5))),
    "grid2x3": (2, ((0, 1, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5), (4, 5), (5,)),
                ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5))),
    "grid3x4": (3, ((0, 1, 4), (1, 2, 4, 5), (2, 3, 7), (2, 4, 5, 8), (2, 6, 7, 11), (2, 5, 8, 9),
                    (2, 5, 6, 9), (2, 6, 9, 11), (6, 9, 10, 11), (9, 10, 11), (10, 11), (11,)),
                ((0, 1), (1, 3), (2, 4), (3, 5), (4, 7), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
                 (10, 11))),
    "Petersen": (4, ((0, 1, 4, 5), (1, 2, 4, 5, 6), (2, 3, 4, 8), (2, 5, 7, 9), (2, 4, 5, 6, 8),
                     (2, 4, 5, 6, 9), (4, 5, 6, 9), (5, 6, 9), (6, 9), (9,)),
                 ((0, 1), (1, 5), (2, 4), (3, 5), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9))),
}


def test_golden_decompositions():
    graphs = {"P3": bg.path(3), "C5": bg.cycle(5), "K4": bg.complete(4),
              "K3,3": bg.complete_bipartite(3, 3), "grid2x3": bg.grid(2, 3),
              "grid3x4": bg.grid(3, 4), "Petersen": bg.petersen()}
    for name, want in GOLDEN_DECOMPOSITIONS.items():
        width, td = tw.treewidth_exact(graphs[name])
        assert (width, tuple(tuple(sorted(b)) for b in td.bags), td.tree_edges) == want, name


def test_every_tree_has_width_one():
    for g in (bg.path(5), bg.complete_bipartite(1, 4)):
        assert tw.treewidth_exact(g)[0] == 1


C4_BAGS = (frozenset({0, 1, 2}), frozenset({2, 3, 0}), frozenset({1}))


@pytest.mark.parametrize("g, bags, tree_edges, match", [
    (bg.cycle(4), (frozenset({0, 1}),), (), "do not cover every vertex"),
    (bg.cycle(4), C4_BAGS, ((0, 1),), r"exactly \|bags\|-1 edges"),
    (bg.path(2), (frozenset({0, 1}), frozenset({1, 2})), ((0, 2),), "out of range"),
    (bg.cycle(4), C4_BAGS, ((0, 1), (1, 0)), "bag tree is not connected"),
    (bg.cycle(4), (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})), ((0, 1), (1, 2)),
     r"edge \(0,3\) not covered"),
    (bg.cycle(4), (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({0, 3})), ((0, 1), (1, 2)),
     "bags holding vertex 0 are not connected"),
], ids=["uncovered-vertex", "edge-count", "index-past-last-bag", "duplicated-tree-edge",
        "uncovered-edge", "split-running-intersection"])
def test_decomposition_validator_rejects_bad(g, bags, tree_edges, match):
    tw.validate_tree_decomposition(g, tw.treewidth_exact(g)[1])
    with pytest.raises(ValueError, match=match):
        tw.validate_tree_decomposition(g, tw.TreeDecomposition(bags, tree_edges))


def test_size_guard():
    big = bg.grid(4, 5)
    with pytest.raises(SizeGuardError):
        tw.treewidth_exact(big)
    with pytest.raises(SizeGuardError):
        tw.robber_wins(big, 2)


def test_game_preconditions():
    with pytest.raises(ValueError):
        tw.robber_wins(bg.path(3), 0)
    with pytest.raises(ValueError):
        tw.robber_wins(bg.disjoint_union(bg.cycle(3), bg.cycle(3)), 2)


def test_cops_always_win_with_everyone():
    for g, _ in KNOWN:
        if g.n <= 8:
            assert not tw.robber_wins(g, g.n)


def test_game_characterizes_width_small():
    for g, want in KNOWN:
        if g.n > 6:
            continue
        for k in range(1, g.n + 1):
            assert tw.robber_wins(g, k) == (want >= k), (g, k)


def test_game_characterizes_width_petersen_boundary():
    assert tw.robber_wins(bg.petersen(), 4)
    assert not tw.robber_wins(bg.petersen(), 5)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 7))
    edges = {(i, draw(st.integers(0, i - 1))) for i in range(1, n)}  # random tree
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=8)))
    return bg.BaseGraph.from_edges(n, edges)


@settings(max_examples=25, deadline=None)
@given(connected_graphs())
def test_game_matches_width_random(g):
    width, _ = tw.treewidth_exact(g)
    for k in (width, width + 1):
        if 1 <= k <= g.n:
            assert tw.robber_wins(g, k) == (width >= k)


@settings(max_examples=25, deadline=None)
@given(connected_graphs())
def test_decomposition_always_valid(g):
    width, td = tw.treewidth_exact(g)
    tw.validate_tree_decomposition(g, td)
    assert td.width == width


def test_subdivision_preserves_width():
    for g in (bg.cycle(4), bg.path(3), bg.complete(4)):
        assert tw.treewidth_exact(g)[0] == tw.treewidth_exact(subdivide2(g).graph)[0]
