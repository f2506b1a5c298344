import json

from cfigraphs import base_graph as bg
from cfigraphs import cfi, cli, treewidth


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
