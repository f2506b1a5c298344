"""The acceptance battery: every structural claim the package is built around,
run end to end.  Each check returns a result record; the CLI surfaces them as
JSON lines and the test suite asserts them one by one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import base_graph as bg
from . import cfi, distinguisher, fo_eval, gadget, homcount, iso, treewidth
from . import equivalence as eqv
from .base_graph import LinearShape


@dataclass
class CheckResult:
    check: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)


def _bases_for_distinguisher():
    return {
        "P3": bg.path(3),
        "C5": bg.cycle(5),
        "K4": bg.complete(4),
        "K33": bg.complete_bipartite(3, 3),
        "grid23": bg.grid(2, 3),
        "petersen": bg.petersen(),
    }


def check_path_cycle_structure(seed: int) -> dict:
    failures = []
    for k in range(1, 7):
        got = bg.classify_linear(cfi.build_cfi(bg.path(k)).graph)
        want = sorted([LinearShape("path", 3 * (k - 1) + 1), LinearShape("path", 3 * (k - 1) + 3)])
        if got != want:
            failures.append(("Y", "P", k, got))
        got = bg.classify_linear(cfi.build_tilde(bg.path(k)).graph)
        want = [LinearShape("path", 3 * (k - 1) + 2)] * 2
        if got != want:
            failures.append(("Ytilde", "P", k, got))
    for k in range(3, 8):
        got = bg.classify_linear(cfi.build_cfi(bg.cycle(k)).graph)
        if got != [LinearShape("cycle", 3 * k)] * 2:
            failures.append(("Y", "C", k, got))
        got = bg.classify_linear(cfi.build_tilde(bg.cycle(k)).graph)
        if got != [LinearShape("cycle", 6 * k)]:
            failures.append(("Ytilde", "C", k, got))
    return {"passed": not failures, "failures": failures}


def check_colored_gadget_group(seed: int) -> dict:
    counts = {}
    ok = True
    for d in range(1, 6):
        gad = gadget.build_gadget(d)
        auts = set(iso.automorphisms(gad.graph, gad.colors()))
        flips = gadget.colored_automorphisms(d)
        counts[d] = len(auts)
        if len(auts) != 2 ** (d - 1) or auts != set(flips.values()):
            ok = False
        ident = tuple(range(gad.graph.n))
        if any(gadget.compose(p, p) != ident for p in flips.values()):
            ok = False
    return {"passed": ok, "counts": counts}


def check_twin_preserving_boundary(seed: int) -> dict:
    ok = True
    stats = {}
    for d in (3, 5, 1, 2, 4):  # every automorphism preserves twins exactly at d = 3, 5
        gad = gadget.build_gadget(d)
        auts = iso.automorphisms(gad.graph)
        twins = sum(1 for a in auts if gadget.classify_map(gad, a).twin_preserving)
        stats[d] = {"total": len(auts), "twin_preserving": twins}
        if d in (3, 5):
            ok = ok and twins == len(auts)
        else:
            sample = gadget.sample_nontwin_automorphism(d)
            cls = gadget.classify_map(gad, sample)  # raises unless an automorphism
            ok = ok and twins < len(auts) and not cls.twin_preserving
    return {"passed": ok, "stats": stats}


def check_uncolored_count_resolution(seed: int) -> dict:
    gad = gadget.build_gadget(3)
    auts = iso.automorphisms(gad.graph)
    count = len(auts)
    resolved = count if count in (24, 32) else None
    decompose_ok = True
    seen = set()
    for a in auts:
        if not gadget.classify_map(gad, a).twin_preserving:
            decompose_ok = False
            continue
        mask, pi = gadget.decompose_twin_preserving(gad, a)
        seen.add((mask, pi))
    decompose_ok = decompose_ok and len(seen) == count
    return {
        "passed": resolved is not None and decompose_ok,
        "count": count,
        "matches": {"flips_times_permutations": 24, "two_pow_d_times_colored": 32},
        "resolved_to": resolved,
    }


def check_twist_nonisomorphism(seed: int) -> dict:
    ok = True
    bases = {"P2": bg.path(2), "P3": bg.path(3), "C3": bg.cycle(3),
             "C4": bg.cycle(4), "K4": bg.complete(4)}
    for name, base in bases.items():
        x, xt = cfi.build_cfi(base, True), cfi.build_tilde(base, True)
        if iso.find_isomorphism(x.graph, xt.graph, x.colors, xt.colors) is not None:
            ok = False
        y, yt = cfi.build_cfi(base), cfi.build_tilde(base)
        if iso.find_isomorphism(y.graph, yt.graph) is not None:
            ok = False
    rng = random.Random(seed)
    parity_checked = 0
    for base in (bg.cycle(4), bg.complete(4)):
        x = cfi.build_cfi(base, True)
        for _ in range(10):
            seq = [rng.choice(base.edges) for _ in range(rng.randint(0, 4))]
            xe = cfi.apply_twist_sequence(x, seq)
            found = iso.find_isomorphism(x.graph, xe.graph, x.colors, xe.colors)
            if (found is not None) != (len(seq) % 2 == 0):
                ok = False
            parity_checked += 1
    return {"passed": ok, "parity_sequences": parity_checked}


def check_distinguisher(seed: int) -> dict:
    rng = random.Random(seed)
    ok = True
    runs = 0
    for name, base in _bases_for_distinguisher().items():
        for twisted in (False, True):
            c = cfi.build_tilde(base) if twisted else cfi.build_cfi(base)
            variants = [c.graph]
            for _ in range(5):
                perm = list(range(c.n))
                rng.shuffle(perm)
                variants.append(c.graph.relabel(perm))
            for _ in range(5):
                flips = cfi.random_even_flips(c, rng)
                variants.append(c.graph.relabel(cfi.gadget_flip_map(c, flips)))
            for g in variants:
                verdict = distinguisher.distinguish(g)
                runs += 1
                if verdict.twisted != twisted:
                    ok = False
        recovered = distinguisher.distinguish(cfi.build_cfi(base).graph).base
        if recovered.n != base.n or iso.find_isomorphism(recovered, base) is None:
            ok = False
    t0 = time.perf_counter()
    distinguisher.distinguish(cfi.build_cfi(bg.petersen()).graph)
    petersen_seconds = time.perf_counter() - t0
    return {"passed": ok and petersen_seconds < 1.0,
            "runs": runs, "petersen_seconds": round(petersen_seconds, 3)}


def check_counting_width_boundary(seed: int) -> dict:
    ok = True
    table = {}
    for name, base, tw in (("P3", bg.path(3), 1), ("C5", bg.cycle(5), 2), ("K4", bg.complete(4), 3)):
        got_tw, _ = treewidth.treewidth_exact(base)
        ok = ok and got_tw == tw
        for colored in (False, True):
            y = cfi.build_cfi(base, colored)
            yt = cfi.build_tilde(base, colored)
            for k in (2, 3, 4):
                got = eqv.wl_equivalent(y.graph, yt.graph, k - 1, y.colors, yt.colors)
                table[f"{name}/{'X' if colored else 'Y'}/k={k}"] = got
                if got != (tw >= k):
                    ok = False
    return {"passed": ok, "cells": len(table), "table": table}


def check_cops_robber_treewidth(seed: int) -> dict:
    ok = True
    checked = 0
    suite = {"P3": bg.path(3), "C4": bg.cycle(4), "C5": bg.cycle(5),
             "K4": bg.complete(4), "K33": bg.complete_bipartite(3, 3),
             "grid23": bg.grid(2, 3)}
    for name, g in suite.items():
        tw, _ = treewidth.treewidth_exact(g)
        for k in range(1, g.n + 1):
            if treewidth.robber_wins(g, k) != (tw >= k):
                ok = False
            checked += 1
    return {"passed": ok, "positions_checked": checked}


def check_two_variable_separation(seed: int) -> dict:
    ok = True
    for m in (3, 4, 5):
        y = cfi.build_cfi(bg.path(m))
        yt = cfi.build_tilde(bg.path(m))
        if not eqv.lk_equivalent(y.graph, yt.graph, 2):
            ok = False
        if eqv.wl_equivalent(y.graph, yt.graph, 1):
            ok = False
    for base in (bg.path(3), bg.complete_bipartite(1, 3)):
        x = cfi.build_cfi(base, True)
        xt = cfi.build_tilde(base, True)
        if eqv.lk_equivalent(x.graph, xt.graph, 2, x.colors, xt.colors):
            ok = False
    return {"passed": ok}


def check_game_wl_agreement(seed: int) -> dict:
    graphs = []
    for base_name, base in (("P3", bg.path(3)), ("C4", bg.cycle(4))):
        for variant, build, colored in (
            ("Y", cfi.build_cfi, False), ("Ytilde", cfi.build_tilde, False),
            ("X", cfi.build_cfi, True), ("Xtilde", cfi.build_tilde, True),
        ):
            c = build(base, colored)
            graphs.append((f"{variant}({base_name})", c.graph, c.colors))
    ok = True
    agreements = 0
    disagreements = []
    for i in range(len(graphs)):
        for j in range(i, len(graphs)):
            n1, g1, c1 = graphs[i]
            n2, g2, c2 = graphs[j]
            for k in (2, 3):
                game = eqv.ck_equivalent_game(g1, g2, k, c1, c2)
                wl = eqv.wl_equivalent(g1, g2, k - 1, c1, c2)
                if game != wl:
                    ok = False
                    disagreements.append((n1, n2, k))
                agreements += 1
    return {"passed": ok, "comparisons": agreements, "disagreements": disagreements}


def check_homomorphism_gap(seed: int) -> dict:
    ok = True
    gaps = {}
    for name, base in (("P2", bg.path(2)), ("C3", bg.cycle(3)), ("C4", bg.cycle(4))):
        a, b = homcount.hom_gap(base)
        gaps[name] = (a, b)
        if not a > b:
            ok = False
    if gaps["C3"] != (36, 0):
        ok = False
    for name, base in (("P2", bg.path(2)), ("C3", bg.cycle(3))):
        sub = homcount.subdivide2(base)
        endos = homcount.enumerate_homomorphisms(sub.graph, sub.graph)
        totals = [0, 0]
        for g in endos:
            for i in (0, 1):
                fiber = homcount.hom_fiber_count(g, i, base)
                system = homcount.build_system(g, i, base)
                if fiber != homcount.gf2_count(system).count:
                    ok = False
                totals[i] += fiber
        if tuple(totals) != gaps[name]:
            ok = False
    return {"passed": ok, "gaps": gaps}


def check_same_color_formula(seed: int) -> dict:
    ok = True
    for base in (bg.complete(4), bg.complete_bipartite(3, 3)):
        if not fo_eval.check_same_color(base):
            ok = False
        classes, expected = fo_eval.same_color_class_count(base)
        if classes != expected:
            ok = False
    # predicate tables are invariant under sampled automorphisms
    rng = random.Random(seed)
    base = bg.complete(4)
    c = cfi.build_cfi(base)
    table = fo_eval.build_predicate_table(c.graph)
    group = iso.automorphisms(c.graph)
    sampled = [tuple(range(c.n))] + rng.sample(group, 10)
    invariant = True
    for perm in sampled:
        for x in range(c.n):
            if table.link_pred(x) != table.link_pred(perm[x]):
                invariant = False
            for y in range(c.n):
                if table.gadget_pred(x, y) != table.gadget_pred(perm[x], perm[y]):
                    invariant = False
                if table.same_color_pred(x, y) != table.same_color_pred(perm[x], perm[y]):
                    invariant = False
    return {"passed": ok and invariant, "sampled_automorphisms": len(sampled)}


CHECKS = {
    "path-cycle-structure": check_path_cycle_structure,
    "colored-gadget-group": check_colored_gadget_group,
    "twin-preserving-boundary": check_twin_preserving_boundary,
    "uncolored-count-resolution": check_uncolored_count_resolution,
    "twist-nonisomorphism": check_twist_nonisomorphism,
    "distinguisher": check_distinguisher,
    "counting-width-boundary": check_counting_width_boundary,
    "cops-robber-treewidth": check_cops_robber_treewidth,
    "two-variable-separation": check_two_variable_separation,
    "game-wl-agreement": check_game_wl_agreement,
    "homomorphism-gap": check_homomorphism_gap,
    "same-color-formula": check_same_color_formula,
}


def run_check(check_id: str, seed: int = 20240) -> CheckResult:
    t0 = time.perf_counter()
    details = CHECKS[check_id](seed)
    passed = details.pop("passed")
    return CheckResult(check_id, passed, round(time.perf_counter() - t0, 2), details)
