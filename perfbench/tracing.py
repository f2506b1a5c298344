"""Spans around the public functions of ``cfigraphs``, recorded from outside
the package.

Each traced function is replaced by a wrapper at every module attribute that
holds it, so that callers inside the package, which resolve the name through
their own module's globals at call time, reach the wrapper too.  Methods are
replaced on their class.  Spans are kept in memory as
(name, start, end, parent, operation id, count) and written out at the end;
the per-layer metrics are derived from them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from typing import Callable, Optional

# (module, attribute path, count of work done by one call or None)
TARGETS: list[tuple[str, str, Optional[Callable]]] = []


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _rounds(fn, args, kwargs, result) -> int:
    return len(result.rounds)


def _target(module: str, attr: str, count: Optional[Callable] = None) -> None:
    TARGETS.append((module, attr, count))


for _attr in ("read_graph", "write_graph", "BaseGraph.relabel", "classify_linear",
              "disjoint_union"):
    _target("base_graph", _attr)
for _attr in ("build_cfi", "build_tilde", "twist", "gadget_flip_map", "random_even_flips"):
    _target("cfi", _attr)
_target("gadget", "build_gadget")
_target("distinguisher", "distinguish")
_target("distinguisher", "decompose", lambda fn, a, kw, r: len(r.gadgets))
_target("distinguisher", "orientation_parity")
_target("distinguisher", "short_cycles", lambda fn, a, kw, r: len(r))
_target("fo_eval", "build_predicate_table")
_target("equivalence", "wl_equivalent_report", _rounds)
_target("equivalence", "lk_equivalent_report", _rounds)
_target("equivalence", "ck_equivalent_game")
_target("iso", "find_isomorphism")
_target("iso", "automorphisms", lambda fn, a, kw, r: len(r))
_target("treewidth", "treewidth_exact")
_target("treewidth", "robber_wins")
for _attr in ("hom_count", "hom_gap", "enumerate_homomorphisms", "build_system", "gf2_count"):
    _target("homcount", _attr)

# spans whose arguments the metrics need: name -> (fn, args, kwargs, result) -> info
_INFO: dict[str, Callable] = {
    "equivalence.wl_equivalent_report": lambda fn, a, kw, r: {
        "arity": _bound(fn, a, kw)["dim"], "n": [a[0].n, a[1].n]},
    "equivalence.lk_equivalent_report": lambda fn, a, kw, r: {
        "arity": _bound(fn, a, kw)["k"], "n": [a[0].n, a[1].n]},
    "equivalence.ck_equivalent_game": lambda fn, a, kw, r: {
        "k": _bound(fn, a, kw)["k"], "n": [a[0].n, a[1].n]},
}

# span fields
NAME, START, END, PARENT, OP, COUNT, INFO = range(7)


class Tracer:
    """Records nested spans while installed; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: object = None
        self.captured: dict[str, object] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans opened by the harness itself ------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        tracer = self
        info = _INFO.get(name)
        capture = name == "distinguisher.decompose"

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            span = tracer.spans[idx]
            if count is not None:
                span[COUNT] = count(fn, args, kwargs, result)
            if info is not None:
                span[INFO] = info(fn, args, kwargs, result)
            if capture:
                tracer.captured[name] = result
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Replace every target at each module attribute and class that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        owners = {name: importlib.import_module(f"cfigraphs.{name}") for name, _, _ in TARGETS}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "cfigraphs" or key.startswith("cfigraphs."))]
        for mod_name, attr, count in TARGETS:
            owner = owners[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = inspect.getattr_static(owner, leaf)
            wrapper = self._wrap(f"{mod_name}.{attr.split('.')[-1]}", fn, count)
            if inspect.isclass(owner):
                self._saved.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)
                continue
            holders = [m for m in modules if m.__dict__.get(leaf) is fn]
            if not holders:
                raise RuntimeError(f"cfigraphs.{mod_name}.{attr} not found")
            for mod in holders:
                self._saved.append((mod, leaf, fn))
                setattr(mod, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()


# -- metrics from spans ----------------------------------------------------------


def _children_time(spans: list[list]) -> list[float]:
    inner = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            inner[s[PARENT]] += s[END] - s[START]
    return inner


def _outermost(spans: list[list], idx: int, names: set[str]) -> bool:
    p = spans[idx][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return False
        p = spans[p][PARENT]
    return True


def _time_in(spans: list[list], ids: list[int], names: set[str], pred=None) -> float:
    """Time spent inside the named functions, counting nested calls once."""
    return sum(spans[i][END] - spans[i][START] for i in ids
               if spans[i][NAME] in names and _outermost(spans, i, names)
               and (pred is None or pred(spans[i])))


def _time_excluding(spans: list[list], ids: list[int], name: str, excluded: str) -> float:
    """Time in ``name`` spans minus the time of their ``excluded`` descendants."""
    total = 0.0
    inside = set()
    for i in ids:
        if spans[i][NAME] == name:
            total += spans[i][END] - spans[i][START]
            inside.add(i)
    for i in ids:
        if spans[i][NAME] != excluded:
            continue
        p = spans[i][PARENT]
        while p >= 0 and p not in inside:
            p = spans[p][PARENT]
        if p >= 0 and _outermost(spans, i, {excluded}):
            total -= spans[i][END] - spans[i][START]
    return total


def _count(spans: list[list], ids: list[int], name: str) -> int:
    return sum(spans[i][COUNT] or 0 for i in ids if spans[i][NAME] == name)


def _rows_ranked(spans: list[list], ids: list[int]) -> int:
    total = 0
    for i in ids:
        s = spans[i]
        if s[NAME] in ("equivalence.wl_equivalent_report", "equivalence.lk_equivalent_report"):
            arity = s[INFO]["arity"]
            if s[NAME] == "equivalence.wl_equivalent_report" and arity == 1:
                continue  # colour refinement is not the tuple kernel
            n1, n2 = s[INFO]["n"]
            total += s[COUNT] * (n1 ** arity + n2 ** arity)
    return total


def _game_positions(spans: list[list], ids: list[int]) -> int:
    total = 0
    for i in ids:
        s = spans[i]
        if s[NAME] == "equivalence.ck_equivalent_game":
            n1, n2 = s[INFO]["n"]
            if n1 == n2:
                total += n1 ** (2 * (s[INFO]["k"] - 1))
    return total


_WL = {"equivalence.wl_equivalent_report"}

# per-layer metric -> (unit, function of (spans, span ids))
LAYER_METRICS: dict[str, tuple[str, Callable]] = {
    "base_graph.read_graph_s": ("s", lambda s, ids: _time_in(s, ids, {"base_graph.read_graph"})),
    "base_graph.relabel_s": ("s", lambda s, ids: _time_in(s, ids, {"base_graph.relabel"})),
    "cfi.build_s": ("s", lambda s, ids: _time_in(
        s, ids, {"cfi.build_cfi", "cfi.build_tilde", "cfi.twist"})),
    "cfi.flip_map_s": ("s", lambda s, ids: _time_in(s, ids, {"cfi.gadget_flip_map"})),
    "distinguisher.short_cycles_s": ("s", lambda s, ids: _time_in(
        s, ids, {"distinguisher.short_cycles"})),
    "distinguisher.short_cycles_found": ("count", lambda s, ids: _count(
        s, ids, "distinguisher.short_cycles")),
    "distinguisher.decompose_self_s": ("s", lambda s, ids: _time_excluding(
        s, ids, "distinguisher.decompose", "distinguisher.short_cycles")),
    "distinguisher.gadgets_recovered": ("count", lambda s, ids: _count(
        s, ids, "distinguisher.decompose")),
    "distinguisher.parity_s": ("s", lambda s, ids: _time_in(
        s, ids, {"distinguisher.orientation_parity"})),
    "fo_eval.predicate_table_self_s": ("s", lambda s, ids: _time_excluding(
        s, ids, "fo_eval.build_predicate_table", "distinguisher.short_cycles")),
    "equivalence.wl1_s": ("s", lambda s, ids: _time_in(
        s, ids, _WL, lambda sp: sp[INFO]["arity"] == 1)),
    "equivalence.wl_tuple_s": ("s", lambda s, ids: _time_in(
        s, ids, _WL, lambda sp: sp[INFO]["arity"] >= 2)),
    "equivalence.lk_s": ("s", lambda s, ids: _time_in(
        s, ids, {"equivalence.lk_equivalent_report"})),
    "equivalence.refine_rounds": ("count", lambda s, ids: _count(
        s, ids, "equivalence.wl_equivalent_report") + _count(
        s, ids, "equivalence.lk_equivalent_report")),
    "equivalence.rows_ranked": ("count", _rows_ranked),
    "equivalence.game_s": ("s", lambda s, ids: _time_in(
        s, ids, {"equivalence.ck_equivalent_game"})),
    "equivalence.game_positions": ("count", _game_positions),
    "iso.automorphisms_s": ("s", lambda s, ids: _time_in(s, ids, {"iso.automorphisms"})),
    "iso.automorphisms_found": ("count", lambda s, ids: _count(s, ids, "iso.automorphisms")),
    "iso.find_isomorphism_s": ("s", lambda s, ids: _time_in(s, ids, {"iso.find_isomorphism"})),
    "treewidth.exact_s": ("s", lambda s, ids: _time_in(s, ids, {"treewidth.treewidth_exact"})),
    "treewidth.robber_s": ("s", lambda s, ids: _time_in(s, ids, {"treewidth.robber_wins"})),
    "homcount.hom_search_s": ("s", lambda s, ids: _time_in(
        s, ids, {"homcount.hom_count", "homcount.enumerate_homomorphisms"})),
    "homcount.gf2_s": ("s", lambda s, ids: _time_in(
        s, ids, {"homcount.build_system", "homcount.gf2_count"})),
}


def layer_self_times(spans: list[list], ids: list[int]) -> dict[str, float]:
    """Self time per layer (module), summed over the given spans; the harness's
    own operation spans form the layer ``bench``."""
    inner = _children_time(spans)
    out: dict[str, float] = {}
    for i in ids:
        s = spans[i]
        layer = s[NAME].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s[END] - s[START]) - inner[i]
    return out


def layer_metrics(spans: list[list], setup_ids: list[int],
                  pass_ids: list[list[int]]) -> dict[str, float]:
    """Each metric over the traced set-up plus the median over traced passes."""
    out = {}
    for name, (_, fn) in LAYER_METRICS.items():
        per_pass = [fn(spans, ids) for ids in pass_ids]
        value = fn(spans, setup_ids) + statistics.median(per_pass)
        out[name] = int(value) if LAYER_METRICS[name][0] == "count" else float(value)
    return out


def write_spans(path, spans: list[list], summary: dict) -> None:
    keys = ("name", "start", "end", "parent", "op", "count", "info")
    with open(path, "w") as fh:
        json.dump({"summary": summary,
                   "spans": [dict(zip(keys, s)) for s in spans]}, fh)
