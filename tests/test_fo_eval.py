import random

import pytest

from cfigraphs import base_graph as bg
from cfigraphs import cfi, fo_eval, iso


def _table_for(base):
    c = cfi.build_cfi(base)
    return c, fo_eval.build_predicate_table(c.graph)


def test_gadget_predicate_matches_construction():
    c, table = _table_for(bg.complete(4))
    for x in range(c.n):
        for y in range(c.n):
            assert table.gadget_pred(x, y) == (c.vertices[x].u == c.vertices[y].u)


def test_gadget_predicate_reflexive_symmetric():
    c, table = _table_for(bg.complete_bipartite(3, 3))
    for x in range(c.n):
        assert table.gadget_pred(x, x)
        for y in range(c.n):
            assert table.gadget_pred(x, y) == table.gadget_pred(y, x)


def test_link_and_middle():
    c, table = _table_for(bg.complete(4))
    for i, x in enumerate(c.vertices):
        assert table.link_pred(i) == isinstance(x, cfi.Link)
        assert table.middle_pred(i) == isinstance(x, cfi.Middle)


def test_twin_predicate():
    c, table = _table_for(bg.complete(4))
    u, v = 0, 1
    ia, ib = c.link_index(u, v, "a"), c.link_index(u, v, "b")
    assert table.twin_pred(ia, ib) and table.twin_pred(ib, ia)
    iw = c.link_index(u, 2, "a")
    assert not table.twin_pred(ia, iw)
    for x in range(c.n):
        assert not table.twin_pred(x, x)
        for y in range(c.n):
            assert table.twin_pred(x, y) == table.twin_pred(y, x)


def test_same_color_matches_colored_graph():
    for base in (bg.complete(4), bg.complete_bipartite(3, 3)):
        assert fo_eval.check_same_color(base)


def test_same_color_class_counts():
    for base in (bg.complete(4), bg.complete_bipartite(3, 3)):
        classes, expected = fo_eval.same_color_class_count(base)
        assert classes == expected
        assert expected == base.n + sum(base.degree(u) for u in range(base.n))


def test_degree_guard():
    with pytest.raises(ValueError):
        fo_eval.check_same_color(bg.path(3))
    with pytest.raises(ValueError):
        fo_eval.check_same_color(bg.complete_bipartite(1, 3))


def test_predicates_invariant_under_automorphisms():
    base = bg.complete(4)
    c = cfi.build_cfi(base)
    table = fo_eval.build_predicate_table(c.graph)
    rng = random.Random(2)
    group = iso.automorphisms(c.graph)
    for perm in rng.sample(group, 12):
        for x in range(c.n):
            assert table.link_pred(x) == table.link_pred(perm[x])
            for y in range(c.n):
                assert table.gadget_pred(x, y) == table.gadget_pred(perm[x], perm[y])
                assert table.twin_pred(x, y) == table.twin_pred(perm[x], perm[y])
                assert table.same_color_pred(x, y) == table.same_color_pred(perm[x], perm[y])


def test_agreement_report():
    c = cfi.build_cfi(bg.complete_bipartite(3, 3))
    table = fo_eval.build_predicate_table(c.graph)
    counts = fo_eval.predicate_agreement(c.vertices, table)
    for key, entry in counts.items():
        assert entry["agree"] == entry["total"], key


def test_twisted_graph_same_predicates():
    base = bg.complete(4)
    ct = cfi.build_tilde(base)
    table = fo_eval.build_predicate_table(ct.graph)
    counts = fo_eval.predicate_agreement(ct.vertices, table)
    for key, entry in counts.items():
        assert entry["agree"] == entry["total"], key
