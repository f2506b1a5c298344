import json
import random
import time

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfigraphs import base_graph as bg
from cfigraphs import cfi, cli, equivalence, treewidth


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_distinguish(tmp_path, capsys):
    path = tmp_path / "yt.json"
    code, _, _ = run(capsys, "gen", "C", "5", "--variant", "Ytilde", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["n"] == 30
    code, out, _ = run(capsys, "distinguish", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "twisted"
    assert verdict["base"]["n"] == 5


def test_gen_variants(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "K", "4", "--variant", "Y")
    assert code == 0
    assert json.loads(out)["n"] == 40
    code, out, _ = run(capsys, "gen", "P", "1")
    assert code == 0
    assert json.loads(out) == {"n": 2, "edges": [[0, 1]]}
    code, out, _ = run(capsys, "gen", "K", "4", "--variant", "Xpath")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] > 40 and "colors" not in doc


def test_gen_relabel_seed_deterministic(tmp_path, capsys):
    code, out1, _ = run(capsys, "gen", "K", "4", "--variant", "Y", "--relabel-seed", "5")
    code, out2, _ = run(capsys, "gen", "K", "4", "--variant", "Y", "--relabel-seed", "5")
    assert out1 == out2
    code, out3, _ = run(capsys, "gen", "K", "4", "--variant", "Y", "--relabel-seed", "6")
    assert out1 != out3


def test_equiv(tmp_path, capsys):
    y = tmp_path / "y.json"
    yt = tmp_path / "yt.json"
    run(capsys, "gen", "C", "5", "--variant", "Y", "--out", str(y))
    run(capsys, "gen", "C", "5", "--variant", "Ytilde", "--out", str(yt))
    code, out, _ = run(capsys, "equiv", "--logic", "Ck", "--k", "2", str(y), str(yt))
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True and doc["rounds"]
    code, out, _ = run(capsys, "equiv", "--logic", "Ck", "--k", "3", str(y), str(yt))
    assert json.loads(out)["equivalent"] is False
    code, out, _ = run(capsys, "equiv", "--logic", "Lk", "--k", "2", str(y), str(yt))
    assert json.loads(out)["equivalent"] is True


def test_equiv_ck_names_the_k_it_was_given(tmp_path, capsys):
    y = tmp_path / "y.json"
    run(capsys, "gen", "C", "5", "--variant", "Y", "--out", str(y))
    for k in ("1", "0", "-3"):
        code, out, err = run(capsys, "equiv", "--logic", "Ck", "--k", k, str(y), str(y))
        assert (code, out) == (2, "") and "--k must be at least 2" in err, k
    code, out, _ = run(capsys, "equiv", "--logic", "Lk", "--k", "1", str(y), str(y))
    assert code == 0 and json.loads(out)["equivalent"] is True


def test_equiv_colored_files(tmp_path, capsys):
    x = tmp_path / "x.json"
    xt = tmp_path / "xt.json"
    run(capsys, "gen", "P", "3", "--variant", "X", "--out", str(x))
    run(capsys, "gen", "P", "3", "--variant", "Xtilde", "--out", str(xt))
    code, out, _ = run(capsys, "equiv", "--logic", "Lk", "--k", "2", str(x), str(xt))
    assert json.loads(out)["equivalent"] is False


def test_equiv_colors_beyond_int64(tmp_path, capsys):
    # shifting every colour past int64 keeps which vertices share a colour,
    # so every verdict and round trace stays as it was
    shift = 99999999999999999999999
    files = {}
    for variant in ("X", "Xtilde"):
        small = tmp_path / f"{variant}.json"
        run(capsys, "gen", "P", "3", "--variant", variant, "--relabel-seed", "4",
            "--out", str(small))
        doc = json.loads(small.read_text())
        doc["colors"] = [c + shift for c in doc["colors"]]
        big = tmp_path / f"{variant}_big.json"
        big.write_text(json.dumps(doc))
        files[variant] = small, big
    for logic, k in (("Ck", 2), ("Ck", 3), ("Lk", 2)):
        got = []
        for i in (0, 1):
            code, out, _ = run(capsys, "equiv", "--logic", logic, "--k", str(k),
                               str(files["X"][i]), str(files["Xtilde"][i]))
            assert code == 0, (logic, k, i)
            got.append(json.loads(out))
        assert got[0] == got[1], (logic, k)


def test_tw(tmp_path, capsys):
    p = tmp_path / "k4.json"
    run(capsys, "gen", "K", "4", "--out", str(p))
    code, out, _ = run(capsys, "tw", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 3
    assert len(doc["bags"]) == 4 and len(doc["tree"]) == 3


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise AssertionError("decomposition fails validation")

    p = tmp_path / "k4.json"
    run(capsys, "gen", "K", "4", "--out", str(p))
    monkeypatch.setattr(treewidth, "treewidth_exact", broken)
    code, out, err = run(capsys, "tw", str(p))
    assert code == 3 and out == ""
    assert err.startswith("internal error:") and "decomposition fails validation" in err
    # a row hash that collides under every salt
    monkeypatch.setattr(equivalence, "_row_hash", lambda rows, salt: np.zeros(len(rows), dtype=np.uint64))
    for logic, k in (("Ck", "3"), ("Lk", "2")):
        code, out, err = run(capsys, "equiv", "--logic", logic, "--k", k, str(p), str(p))
        assert code == 3 and out == "" and err.startswith("internal error:"), (logic, k)


def test_gen_guards_cfi_size_before_building(capsys, monkeypatch):
    # CFI(K18) would have 1,180,260 vertices, more than read_graph accepts;
    # the guard must fire before the first gadget is built
    def refuse(*_):
        raise AssertionError("a gadget was built past the size guard")

    assert cfi.expected_vertex_count(bg.complete(18)) == 1_180_260
    monkeypatch.setattr(cfi, "build_gadget", refuse)
    for variant in ("Y", "Xtilde"):
        code, out, err = run(capsys, "gen", "K", "18", "--variant", variant)
        assert code == 2 and out == "" and "1180260 vertices" in err


def test_gen_guards_family_size_before_building(capsys, monkeypatch):
    # K100000 would have about 5e9 edges; the guard must fire before the builder runs
    def refuse(*_):
        raise AssertionError("a base graph was built past the size guard")

    arity, _, size = bg.FAMILY_BUILDERS["K"]
    monkeypatch.setitem(bg.FAMILY_BUILDERS, "K", (arity, refuse, size))
    code, out, err = run(capsys, "gen", "K", "100000")
    assert code == 2 and out == "" and "4999950000 edges" in err
    # negative sides multiply to a large count but keep the builder's message
    code, out, err = run(capsys, "gen", "grid", "-100000", "-100000")
    assert code == 2 and "grid sides must be positive" in err


def test_gen_guards_path_encoding_size(capsys):
    # X(C400) has 2,400 vertices, but its colour values add up to over 10^6
    c = cfi.build_cfi(bg.cycle(400), colored=True)
    size = c.n + sum(c.colors)
    assert size > bg.MAX_INPUT_VERTICES
    code, out, err = run(capsys, "gen", "C", "400", "--variant", "Xpath")
    assert code == 2 and out == "" and f"{size} vertices" in err


def test_hom(tmp_path, capsys):
    p = tmp_path / "c3.json"
    run(capsys, "gen", "C", "3", "--out", str(p))
    code, out, _ = run(capsys, "hom", "--base", str(p))
    assert code == 0
    assert json.loads(out) == {"hom_Y": 36, "hom_Ytilde": 0, "gap": 36}


def test_focheck(tmp_path, capsys):
    y = tmp_path / "y.json"
    basef = tmp_path / "k33.json"
    run(capsys, "gen", "Kab", "3", "3", "--variant", "Y", "--out", str(y))
    run(capsys, "gen", "Kab", "3", "3", "--out", str(basef))
    code, out, _ = run(capsys, "focheck", str(y), "--base-file", str(basef))
    assert code == 0
    doc = json.loads(out)
    assert doc["all_agree"] is True
    assert doc["predicates"]["same_color"]["agree"] == doc["predicates"]["same_color"]["total"]
    assert doc["predicates"]["middle"] == {"agree": doc["n"], "total": doc["n"]}


def test_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "distinguish", str(bad))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "distinguish", str(tmp_path / "missing.json"))
    assert code == 2
    code, _, err = run(capsys, "gen", "C", "2")
    assert code == 2
    # a family given the wrong number of parameters
    for argv in (("gen", "P"), ("gen", "grid", "3"), ("gen", "K", "4", "4"), ("gen", "petersen", "5")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "parameter" in err, argv
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 1000000000000, "edges": []}')
    code, _, err = run(capsys, "distinguish", str(huge))
    assert code == 2 and "input cap" in err
    # malformed colors and names
    for doc in ('{"n": 2, "edges": [], "colors": 5}', '{"n": 2, "edges": [], "colors": [[1], 2]}',
                '{"n": 2, "edges": [], "names": 7}',
                '{"n": 3, "edges": [[0,1],[1,2]], "names": "abc", "colors": [true, false, 1.9]}',
                '{"n": 3.0, "edges": [[0,1],[1,2]]}'):
        bad.write_text(doc)
        code, _, err = run(capsys, "equiv", "--logic", "Ck", "--k", "2", str(bad), str(bad))
        assert code == 2 and "bad graph data" in err, doc
    # structurally wrong input for the distinguisher
    k5 = tmp_path / "k5.json"
    run(capsys, "gen", "K", "5", "--out", str(k5))
    code, _, err = run(capsys, "distinguish", str(k5))
    assert code == 2


def test_distinguish_rejects_disjoint_copies(tmp_path, capsys):
    k4 = bg.complete(4)
    for first in (cfi.build_cfi, cfi.build_tilde):
        p = tmp_path / "union.json"
        p.write_bytes(bg.write_graph(
            bg.disjoint_union(first(k4).graph, cfi.build_tilde(k4).graph), "json"))
        code, out, err = run(capsys, "distinguish", str(p))
        assert code == 2 and out == "" and "not connected" in err


def test_dimacs_roundtrip_via_cli(tmp_path, capsys):
    p = tmp_path / "c4.dimacs"
    code, _, _ = run(capsys, "gen", "C", "4", "--format", "dimacs", "--out", str(p))
    assert code == 0
    code, out, _ = run(capsys, "tw", str(p), "--format", "dimacs")
    assert code == 0
    assert json.loads(out)["width"] == 2


def test_verify_suite_single_check(capsys):
    code, out, _ = run(capsys, "verify-suite", "--check", "path-cycle-structure",
                       "--check", "uncolored-count-resolution")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["summary"] == "ok"
    checks = {d["check"]: d for d in lines[:-1]}
    assert checks["path-cycle-structure"]["passed"] is True
    assert checks["uncolored-count-resolution"]["details"]["count"] == 24


CALL_BUDGET_S = 1.0
SMALL_BASES = [bg.path(3), bg.cycle(5), bg.complete(4), bg.complete_bipartite(1, 3), bg.grid(2, 3)]


@st.composite
def small_graphs(draw):
    """(graph, vertex names or None): a random graph on at most 40 vertices,
    or Y or Ytilde over a small base with up to two vertex pairs toggled,
    relabelled, its names carried along."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        return bg.BaseGraph.from_edges(n, {tuple(sorted(e)) for e in draw(st.lists(pair, max_size=2 * n))}), None
    c = (cfi.build_tilde if draw(st.booleans()) else cfi.build_cfi)(draw(st.sampled_from(SMALL_BASES)))
    edges = set(c.edges)
    for u, v in draw(st.lists(st.tuples(st.integers(0, c.n - 1), st.integers(0, c.n - 1)), max_size=2)):
        if u != v:
            edges ^= {(min(u, v), max(u, v))}
    perm = list(range(c.n))
    random.Random(draw(st.integers(0, 10**6))).shuffle(perm)
    names = [None] * c.n
    for x, name in enumerate(c.names()):
        names[perm[x]] = name
    return bg.BaseGraph.from_edges(c.n, edges).relabel(perm), names


def _run_bounded(capsys, *argv):
    """Run one command and check the exit-code contract of every command."""
    t0 = time.monotonic()
    code = cli.main([str(a) for a in argv])
    elapsed = time.monotonic() - t0
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert out == "" and "error:" in err and "Traceback" not in err, (argv, out, err)
    else:
        json.loads(out)
    assert elapsed < CALL_BUDGET_S, (argv, elapsed)


@st.composite
def gen_args(draw):
    """A family, as many small parameters as it takes or any number up to 3, and a variant."""
    family = draw(st.sampled_from(sorted(bg.FAMILY_BUILDERS)))
    arity = bg.FAMILY_BUILDERS[family][0]
    param = st.integers(-1, 6)
    params = draw(st.lists(param, min_size=arity, max_size=arity) | st.lists(param, max_size=3))
    return [family, *params, "--variant", draw(st.sampled_from(["base", "Y", "Ytilde", "X", "Xtilde", "Xpath"]))]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_graphs(), small_graphs(), gen_args(), st.sampled_from(["Lk", "Ck"]), st.integers(1, 3),
       st.sampled_from(SMALL_BASES + [bg.complete(5)]))
def test_commands_exit_cleanly_on_small_inputs(tmp_path, capsys, first, second, gen, logic, k, base):
    _run_bounded(capsys, "gen", *gen)
    files = []
    for i, (g, names) in enumerate((first, second)):
        files.append(tmp_path / f"g{i}.json")
        files[-1].write_bytes(bg.write_graph(g, "json", names=names))
    base_file = tmp_path / "base.json"
    base_file.write_bytes(bg.write_graph(base, "json"))
    _run_bounded(capsys, "distinguish", files[0])
    # L^3 refinement on 40 vertices takes seconds; k = 3 is left to C^k
    _run_bounded(capsys, "equiv", "--logic", logic, "--k", min(k, 2) if logic == "Lk" else k, *files)
    _run_bounded(capsys, "tw", files[1])
    _run_bounded(capsys, "hom", "--base", base_file)
    _run_bounded(capsys, "focheck", files[0], "--base-file", base_file)
