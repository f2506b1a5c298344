import random
import time

import pytest

from cfigraphs import base_graph as bg
from cfigraphs import cfi, cli, fo_eval, iso
from cfigraphs import distinguisher as dg
from cfigraphs.errors import SizeGuardError


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


def _naive_agreement(vertices, table):
    """predicate_agreement pair by pair, straight from the definitions."""
    n = len(vertices)
    counts = {key: 0 for key in ("link", "gadget", "twin", "same_color")}
    for x, vx in enumerate(vertices):
        counts["link"] += isinstance(vx, cfi.Link) == table.link_pred(x)
        for y, vy in enumerate(vertices):
            same_gadget = vx.u == vy.u
            is_twin = (isinstance(vx, cfi.Link) and isinstance(vy, cfi.Link)
                       and (vx.u, vx.v) == (vy.u, vy.v) and vx.side != vy.side)
            same_color = x == y or is_twin or (
                same_gadget and isinstance(vx, cfi.Middle) and isinstance(vy, cfi.Middle))
            counts["gadget"] += table.gadget_pred(x, y) == same_gadget
            counts["twin"] += table.twin_pred(x, y) == is_twin
            counts["same_color"] += table.same_color_pred(x, y) == same_color
    out = {"link": {"agree": counts["link"], "total": n}, "middle": {"agree": counts["link"], "total": n}}
    out.update({key: {"agree": counts[key], "total": n * n} for key in ("gadget", "twin", "same_color")})
    return out


@pytest.mark.parametrize("build", [cfi.build_cfi, cfi.build_tilde], ids=["Y", "Ytilde"])
def test_agreement_matches_pairwise_reference(build):
    # grid 2x3 has degree-2 base vertices, where the short-cycle reading fails,
    # so every pairwise predicate disagrees with the construction somewhere
    c = build(bg.grid(2, 3))
    counts = fo_eval.predicate_agreement(c.vertices, fo_eval.build_predicate_table(c.graph))
    assert counts == _naive_agreement(c.vertices, fo_eval.build_predicate_table(c.graph))
    assert all(counts[key]["agree"] < counts[key]["total"] for key in ("gadget", "twin", "same_color"))


def test_twisted_graph_same_predicates():
    base = bg.complete(4)
    ct = cfi.build_tilde(base)
    table = fo_eval.build_predicate_table(ct.graph)
    counts = fo_eval.predicate_agreement(ct.vertices, table)
    for key, entry in counts.items():
        assert entry["agree"] == entry["total"], key


def test_gadget_rows_match_full_graph_enumeration():
    # the table enumerates cycles on the short-cycle edges only; the full
    # graph's enumeration must give the same pairwise rows
    for base in (bg.complete(4), bg.complete_bipartite(3, 3), bg.grid(2, 3), bg.petersen()):
        for build in (cfi.build_cfi, cfi.build_tilde):
            g = build(base).graph
            rows = dg.short_cycle_pair_rows(g)
            table = fo_eval.build_predicate_table(g)
            assert table.gadget == tuple(row | (1 << x) for x, row in enumerate(rows))
        table = fo_eval.build_predicate_table(base)
        rows = dg.short_cycle_pair_rows(base)
        assert table.gadget == tuple(row | (1 << x) for x, row in enumerate(rows))


def test_walk_count_on_complete_graph():
    # from each of K4's vertices, 3^L walks of length L
    assert fo_eval._walk_count(4, bg.complete(4).edges) == sum(4 * 3 ** length for length in range(1, 8))
    assert fo_eval._walk_count(3, ()) == 0


def test_table_guard_refuses_dense_inputs_at_once():
    # K18's short-cycle subgraph has 7.9e9 walks; the enumeration ran for minutes
    t0 = time.monotonic()
    with pytest.raises(SizeGuardError):
        fo_eval.build_predicate_table(bg.complete(18))
    assert time.monotonic() - t0 < 1.0
    # larger tables than the suite and the benchmark build stay under it
    for base in (bg.complete(5), bg.grid(8, 8)):
        fo_eval.build_predicate_table(cfi.build_cfi(base).graph)


def test_focheck_on_dense_graph_exits_2(tmp_path, capsys):
    names = [cfi.Link(0, v, "a").name() for v in range(1, 19)]
    graph = tmp_path / "k18.json"
    graph.write_bytes(bg.write_graph(bg.complete(18), names=names))
    base = tmp_path / "base.json"
    base.write_bytes(bg.write_graph(bg.complete(4)))
    t0 = time.monotonic()
    assert cli.main(["focheck", str(graph), "--base-file", str(base)]) == 2
    assert time.monotonic() - t0 < 2.0
    out = capsys.readouterr()
    assert out.out == "" and "predicate table guarded" in out.err
