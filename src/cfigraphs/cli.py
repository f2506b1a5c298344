"""Batch command-line surface; machine-readable JSON on stdout, diagnostics on
stderr.  Exit codes: 0 success, 1 check failure, 2 usage or input error
(including a graph file above ``base_graph.MAX_INPUT_VERTICES`` vertices),
3 internal error (a self-check of an engine failed)."""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict

from . import base_graph as bg
from . import cfi, distinguisher, fo_eval, homcount, suite, treewidth
from . import equivalence as eqv
from .errors import GraphFormatError, SizeGuardError, StructureError


def _emit(obj) -> None:
    print(json.dumps(obj))


def _load(path: str, fmt: str):
    with open(path, "rb") as fh:
        return bg.read_graph(fh.read(), fmt)


def _cmd_gen(args) -> int:
    g = bg.build_family(args.family, args.params)
    colors = names = None
    if args.variant == "base":
        out = g
    else:
        colored = args.variant in ("X", "Xtilde", "Xpath")
        builder = cfi.build_tilde if args.variant in ("Ytilde", "Xtilde") else cfi.build_cfi
        c = builder(g, colored)
        if args.variant == "Xpath":
            out = cfi.path_encode(c)
        else:
            out, colors, names = cfi.as_base_graph(c)
    if args.relabel_seed is not None:
        rng = random.Random(args.relabel_seed)
        perm = list(range(out.n))
        rng.shuffle(perm)
        out = out.relabel(perm)
        if colors is not None:
            colors = _pushforward(colors, perm)
        if names is not None:
            names = _pushforward(names, perm)
    data = bg.write_graph(out, args.format, colors=colors, names=names)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())
    return 0


def _pushforward(values, perm):
    out = [None] * len(values)
    for v, value in enumerate(values):
        out[perm[v]] = value
    return out


def _cmd_distinguish(args) -> int:
    g, _ = _load(args.file, args.format)
    verdict = distinguisher.distinguish(g)
    _emit({"verdict": verdict.label, "base": bg.graph_doc(verdict.base)})
    return 0


def _cmd_equiv(args) -> int:
    if args.logic == "Ck" and args.k < 2:
        raise ValueError("--k must be at least 2 for Ck")
    g1, meta1 = _load(args.file1, args.format)
    g2, meta2 = _load(args.file2, args.format)
    c1, c2 = meta1.get("colors"), meta2.get("colors")
    if args.logic == "Lk":
        report = eqv.lk_equivalent_report(g1, g2, args.k, c1, c2)
    else:
        report = eqv.wl_equivalent_report(g1, g2, args.k - 1, c1, c2)
    _emit({
        "logic": args.logic,
        "k": args.k,
        "equivalent": report.equivalent,
        "rounds": list(report.rounds),
    })
    return 0


def _cmd_tw(args) -> int:
    g, _ = _load(args.file, args.format)
    width, td = treewidth.treewidth_exact(g)
    _emit({
        "width": width,
        "bags": [sorted(b) for b in td.bags],
        "tree": [list(e) for e in td.tree_edges],
    })
    return 0


def _cmd_hom(args) -> int:
    g, _ = _load(args.base, args.format)
    a, b = homcount.hom_gap(g)
    _emit({"hom_Y": a, "hom_Ytilde": b, "gap": a - b})
    return 0


def _cmd_focheck(args) -> int:
    g, meta = _load(args.file, args.format)
    base, _ = _load(args.base_file, args.format)
    if "names" not in meta:
        raise GraphFormatError("focheck needs a graph file with vertex names")
    # read_graph holds the names list to length n, and parse_names maps each to one vertex
    counts = fo_eval.predicate_agreement(cfi.parse_names(meta["names"]), fo_eval.build_predicate_table(g))
    report = {
        "n": g.n,
        "base_min_degree": base.min_degree(),
        "predicates": counts,
        "all_agree": all(c["agree"] == c["total"] for c in counts.values()),
    }
    _emit(report)
    return 0 if report["all_agree"] else 1


def _cmd_verify_suite(args) -> int:
    failures = 0
    for check_id in suite.CHECKS:
        if args.check and check_id not in args.check:
            continue
        result = suite.run_check(check_id, args.seed)
        _emit(asdict(result))
        if not result.passed:
            failures += 1
    _emit({"summary": "ok" if failures == 0 else "failed", "failures": failures})
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfigraphs",
        description="Construct CFI graphs, detect twists, and verify their structure theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a base graph or a CFI variant of it")
    p.add_argument("family", choices=sorted(bg.FAMILY_BUILDERS))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--variant", default="base",
                   choices=["base", "Y", "Ytilde", "X", "Xtilde", "Xpath"])
    p.add_argument("--format", default="json", choices=["json", "dimacs"])
    p.add_argument("--out")
    p.add_argument("--relabel-seed", type=int, default=None,
                   help="shuffle vertex labels deterministically")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("distinguish", help="original or twisted, with base recovery")
    p.add_argument("file")
    p.add_argument("--format", default="json", choices=["json", "dimacs"])
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("equiv", help="bounded-variable logic equivalence of two graphs")
    p.add_argument("--logic", required=True, choices=["Lk", "Ck"])
    p.add_argument("--k", required=True, type=int)
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--format", default="json", choices=["json", "dimacs"])
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("tw", help="exact treewidth with a witness decomposition")
    p.add_argument("file")
    p.add_argument("--format", default="json", choices=["json", "dimacs"])
    p.set_defaults(func=_cmd_tw)

    p = sub.add_parser("hom", help="homomorphism counts from the 2-subdivision")
    p.add_argument("--base", required=True)
    p.add_argument("--format", default="json", choices=["json", "dimacs"])
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("focheck", help="first-order color recovery against ground truth")
    p.add_argument("file")
    p.add_argument("--base-file", required=True)
    p.add_argument("--format", default="json", choices=["json", "dimacs"])
    p.set_defaults(func=_cmd_focheck)

    p = sub.add_parser("verify-suite", help="run the whole acceptance battery")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--check", action="append",
                   help="run only the named check (repeatable)")
    p.set_defaults(func=_cmd_verify_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, StructureError, SizeGuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
