import json

from cfigraphs import base_graph as bg
from cfigraphs import cfi, cli


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


def test_tw(tmp_path, capsys):
    p = tmp_path / "k4.json"
    run(capsys, "gen", "K", "4", "--out", str(p))
    code, out, _ = run(capsys, "tw", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 3
    assert len(doc["bags"]) == 4 and len(doc["tree"]) == 3


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
