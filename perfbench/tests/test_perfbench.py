"""Tests of the benchmark's own machinery: every independent check accepts the
right answer and rejects a planted wrong one, and the tracer's wrapping and
span arithmetic hold.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cfigraphs import base_graph as bg  # noqa: E402
from cfigraphs import cfi, fo_eval, gadget, homcount, iso, treewidth  # noqa: E402
from cfigraphs import distinguisher as dist  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402


def _relabelled(c, seed=0):
    sigma = list(range(c.n))
    random.Random(seed).shuffle(sigma)
    return sigma, c.graph.relabel(sigma)


def test_known_treewidth_table():
    table = {("P", (3,)): 1, ("C", (5,)): 2, ("K", (5,)): 4, ("Kab", (3, 3)): 3,
             ("Kab", (1, 3)): 1, ("grid", (3, 4)): 3, ("petersen", ()): 4}
    for (family, params), tw in table.items():
        assert checks.known_treewidth(family, params) == tw
    with pytest.raises(ValueError):
        checks.known_treewidth("Kab", (2, 5))


def test_verdict_against_twist_parity():
    checks.check_verdict(True, 1)
    checks.check_verdict(False, 2)
    with pytest.raises(CheckFailure):
        checks.check_verdict(True, 0)
    with pytest.raises(CheckFailure):
        checks.check_verdict(False, 3)


def test_recovered_base_counts_and_degrees():
    base = bg.path(3)
    checks.check_recovered_base(base.n, base.edges, base.n, base.edges)
    star = bg.complete_bipartite(1, 3)  # same vertex and edge counts, other degrees
    with pytest.raises(CheckFailure):
        checks.check_recovered_base(star.n, star.edges, base.n, base.edges)
    with pytest.raises(CheckFailure):
        checks.check_recovered_base(base.n, base.edges[1:], base.n, base.edges)
    with pytest.raises(CheckFailure):
        checks.check_recovered_base(base.n + 1, base.edges, base.n, base.edges)


def test_gadgets_against_the_construction():
    c = cfi.build_tilde(bg.complete(4))
    sigma, g = _relabelled(c)
    dec = dist.decompose(g)
    owner = [x.u for x in c.vertices]
    sets = [set(gd.vertices) for gd in dec.gadgets]
    checks.check_gadgets(sets, dec.base.edges, owner, sigma, c.base.n, c.base.edges)

    swapped = [set(s) for s in sets]
    a, b = next(iter(swapped[0])), next(iter(swapped[1]))
    swapped[0].remove(a), swapped[1].remove(b)
    swapped[0].add(b), swapped[1].add(a)
    with pytest.raises(CheckFailure):
        checks.check_gadgets(swapped, dec.base.edges, owner, sigma, c.base.n, c.base.edges)
    with pytest.raises(CheckFailure):  # two recovered gadgets claim the same block
        checks.check_gadgets([sets[0], sets[0]] + sets[2:], dec.base.edges, owner, sigma,
                             c.base.n, c.base.edges)
    with pytest.raises(CheckFailure):  # a base edge dropped
        checks.check_gadgets(sets, dec.base.edges[1:], owner, sigma, c.base.n, c.base.edges)


def test_same_color_against_the_colored_construction():
    base = bg.complete(4)
    colors = cfi.build_cfi(base, True).colors
    c = cfi.build_cfi(base)
    sigma, g = _relabelled(c, 3)
    rows = list(fo_eval.build_predicate_table(g).same_color)
    checks.check_same_color(rows, colors, sigma)
    rows[sigma[0]] ^= 1 << sigma[c.n - 1]
    with pytest.raises(CheckFailure):
        checks.check_same_color(rows, colors, sigma)


def test_counting_and_lk_rules():
    checks.check_counting_verdict(True, 3, 3)
    checks.check_counting_verdict(False, 2, 3)
    with pytest.raises(CheckFailure):
        checks.check_counting_verdict(True, 1, 2)  # C^2 must fail on a path pair
    with pytest.raises(CheckFailure):
        checks.check_counting_verdict(False, 4, 4)
    checks.check_lk_verdict(True, 1, 2, uncolored_path=True)
    checks.check_lk_verdict(False, 1, 3, uncolored_path=True)
    with pytest.raises(CheckFailure):
        checks.check_lk_verdict(False, 1, 2, uncolored_path=True)
    with pytest.raises(CheckFailure):
        checks.check_lk_verdict(False, 3, 3, uncolored_path=False)
    checks.check_control(True)
    with pytest.raises(CheckFailure):
        checks.check_control(False)


def test_robber_rule():
    checks.check_robber(True, 3, 3)
    checks.check_robber(False, 4, 3)
    with pytest.raises(CheckFailure):
        checks.check_robber(False, 3, 3)
    with pytest.raises(CheckFailure):
        checks.check_robber(True, 4, 3)


def test_gadget_group_orders():
    gad = gadget.build_gadget(3)
    colored = iso.automorphisms(gad.graph, gad.colors())
    order = checks.gadget_group_order(3, True)
    assert order == 4 and checks.gadget_group_order(5, False) == 1920
    checks.check_automorphisms(colored, gad.graph.n, gad.graph.edges, gad.colors(), order)
    with pytest.raises(CheckFailure):  # one automorphism missing
        checks.check_automorphisms(colored[1:], gad.graph.n, gad.graph.edges, gad.colors(), order)
    with pytest.raises(CheckFailure):  # one repeated
        checks.check_automorphisms(colored[:-1] + colored[:1], gad.graph.n, gad.graph.edges,
                                   gad.colors(), order)
    not_aut = list(range(gad.graph.n))
    not_aut[0], not_aut[-1] = not_aut[-1], not_aut[0]
    with pytest.raises(CheckFailure):
        checks.check_automorphisms(colored[:-1] + [tuple(not_aut)], gad.graph.n,
                                   gad.graph.edges, gad.colors(), order)
    uncolored = iso.automorphisms(gadget.build_gadget(4).graph)
    checks.check_automorphisms(uncolored, gadget.build_gadget(4).graph.n,
                               gadget.build_gadget(4).graph.edges, None,
                               divisor=checks.twin_preserving_order(4))
    with pytest.raises(CheckFailure):  # only the twin-preserving subgroup
        checks.check_automorphisms(uncolored[:checks.twin_preserving_order(4)],
                                   gadget.build_gadget(4).graph.n,
                                   gadget.build_gadget(4).graph.edges, None,
                                   divisor=checks.twin_preserving_order(4))


def test_closed_form_group_orders():
    assert checks.cycle_union_aut_order([12, 12]) == 2 * 24 ** 2
    assert checks.colored_cfi_aut_order(4, 4) == 2
    c = cfi.build_cfi(bg.cycle(3))
    assert len(iso.automorphisms(c.graph)) == checks.cycle_union_aut_order([9, 9])


def test_isomorphisms_edge_by_edge():
    c = cfi.build_cfi(bg.complete(4), True)
    sigma, g2 = _relabelled(c, 5)
    colors2 = [0] * c.n
    for x, y in enumerate(sigma):
        colors2[y] = c.colors[x]
    checks.check_isomorphism(sigma, c.n, c.graph.edges, g2.edges, c.colors, colors2)
    with pytest.raises(CheckFailure):
        checks.check_isomorphism(list(range(c.n)), c.n, c.graph.edges, g2.edges)
    with pytest.raises(CheckFailure):
        checks.check_isomorphism(None, c.n, c.graph.edges, g2.edges)
    twin = list(sigma)
    a, b = c.link_index(0, 1, "a"), c.link_index(0, 2, "a")  # same degree, other colours
    twin[a], twin[b] = twin[b], twin[a]
    with pytest.raises(CheckFailure):
        checks.check_isomorphism(twin, c.n, c.graph.edges, g2.edges, c.colors, colors2)
    checks.check_non_isomorphic(None)
    with pytest.raises(CheckFailure):
        checks.check_non_isomorphic(sigma)


def test_treewidth_witness():
    g = bg.petersen()
    width, td = treewidth.treewidth_exact(g)
    checks.check_treewidth(width, td.bags, td.tree_edges, g.n, g.edges, 4)
    with pytest.raises(CheckFailure):
        checks.check_treewidth(3, td.bags, td.tree_edges, g.n, g.edges, 4)
    without = [set(b) for b in td.bags]
    u, v = g.edges[0]
    for b in without:
        if u in b and v in b:
            b.discard(v)
    with pytest.raises(CheckFailure):
        checks.check_treewidth(width, without, td.tree_edges, g.n, g.edges, 4)


def test_walk_counts_match_hom_counts():
    c3 = tuple(checks.closed_walk_count(c.n, c.graph.edges, 9)
               for c in (cfi.build_cfi(bg.cycle(3)), cfi.build_tilde(bg.cycle(3))))
    assert c3 == (36, 0) == homcount.hom_gap(bg.cycle(3))
    p2 = tuple(checks.walk_count(c.n, c.graph.edges, 6)
               for c in (cfi.build_cfi(bg.path(2)), cfi.build_tilde(bg.path(2))))
    assert p2 == homcount.hom_gap(bg.path(2))
    checks.check_counts((36, 0), c3, "hom_gap C3")
    with pytest.raises(CheckFailure):
        checks.check_counts((36, 1), c3, "hom_gap C3")
    checks.check_strict_gap(homcount.hom_gap(bg.complete_bipartite(1, 3)))
    with pytest.raises(CheckFailure):
        checks.check_strict_gap((36, 36))
    with pytest.raises(CheckFailure):  # fiber totals that miss hom_gap
        checks.check_counts(workloads._fiber_totals(bg.path(2)), (378, 377), "fibers P2")


def test_each_pass_has_room_for_the_tail():
    times = [float(i) for i in range(40)]
    assert worker.tail(times) == 29.0  # ten samples beyond it


def test_tracer_wraps_every_holder_and_restores():
    import cfigraphs

    original = dist.short_cycles
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dist.short_cycles is not original
        assert bg.BaseGraph.relabel.__wrapped__ is not None
        assert cfigraphs.distinguish is dist.distinguish  # re-export patched too
        tracer.op = "t"
        fo_eval.build_predicate_table(cfi.build_cfi(bg.complete(4)).graph)
    finally:
        tracer.uninstall()
    assert dist.short_cycles is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert "distinguisher.short_cycles" in names  # reached through fo_eval's own import
    table = next(i for i, s in enumerate(tracer.spans)
                 if s[tracing.NAME] == "fo_eval.build_predicate_table")
    cyc = names.index("distinguisher.short_cycles")
    assert tracer.spans[cyc][tracing.PARENT] == table


def test_span_arithmetic():
    # op [0, 10] > decompose [1, 9] > short_cycles [2, 5]; read_graph [0, 1]
    spans = [["bench.op", 0.0, 10.0, -1, 0, None, None],
             ["base_graph.read_graph", 0.0, 1.0, 0, 0, None, None],
             ["distinguisher.decompose", 1.0, 9.0, 0, 0, 4, None],
             ["distinguisher.short_cycles", 2.0, 5.0, 2, 0, 7, None]]
    ids = list(range(4))
    metrics = tracing.LAYER_METRICS
    assert metrics["distinguisher.decompose_self_s"][1](spans, ids) == 5.0
    assert metrics["distinguisher.short_cycles_s"][1](spans, ids) == 3.0
    assert metrics["distinguisher.gadgets_recovered"][1](spans, ids) == 4
    selfs = tracing.layer_self_times(spans, ids)
    assert selfs == {"bench": 1.0, "base_graph": 1.0, "distinguisher": 8.0}
    assert sum(selfs.values()) == 10.0
