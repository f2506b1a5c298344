"""Base-graph representation, named families, and graph I/O.

Vertices are always the dense integers 0..n-1; every "arbitrary choice"
downstream resolves to the lexicographically least option under this order.
"""

from __future__ import annotations

import gc
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import GraphFormatError, SizeGuardError

Edge = tuple[int, int]

# Largest vertex count read_graph accepts, and largest vertex or edge count the
# family and CFI builders build: far above CFI(grid 30x30)'s 13,688 vertices,
# and small enough that per-vertex work on an input stays bounded.
MAX_INPUT_VERTICES = 1_000_000


def gc_paused(fn):
    """``fn`` with the cyclic garbage collector paused for the call, and the
    caller's ``gc.isenabled()`` state restored however it ends.

    The graph code builds millions of sets and tuples that live until the
    call returns and form no reference cycles, so every collector pass during
    the call scans them and frees nothing.
    """
    @wraps(fn)
    def call(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return call


@dataclass(frozen=True)
class BaseGraph:
    """Finite simple undirected graph on vertices 0..n-1.

    Immutable after construction; edges are stored sorted with u < v.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        n, prev = self.n, (-1, -1)
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized")
            # sorted and duplicate-free iff each edge is strictly above the one before
            if e <= prev:
                raise ValueError(f"duplicate edge ({u},{v})" if e == prev else "edges must be sorted")
            prev = e

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "BaseGraph":
        """Build a graph, normalizing edge order and deduplicating."""
        return BaseGraph(n, tuple(sorted({(u, v) if u < v else (v, u) for u, v in edges})))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def sorted_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors of each vertex in ascending order; the rank of a neighbor is its index."""
        return tuple(tuple(sorted(a)) for a in self.adjacency)

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Adjacency rows as integer bitmasks; bit v of row u set iff uv is an edge."""
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    def has_edge(self, u: int, v: int) -> bool:
        # the range check keeps a negative u from indexing from the end
        return 0 <= u < self.n and v in self.adjacency[u]

    def degree(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"unknown vertex {v}")
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max(len(a) for a in self.adjacency)

    def min_degree(self) -> int:
        return min(len(a) for a in self.adjacency)

    def edge_ends(self) -> np.ndarray:
        """The edges as an (m, 2) int64 array, rows in edge order."""
        return np.fromiter(chain.from_iterable(self.edges), np.int64, 2 * len(self.edges)).reshape(-1, 2)

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """The int64 keys u * n + v of the edges uv (u < v), ascending: the
        edges are sorted, and n^2 <= 10^12 fits."""
        ends = self.edge_ends()
        return ends[:, 0] * self.n + ends[:, 1]

    def _image_keys(self, perm: Sequence[int]) -> Optional[np.ndarray]:
        """The ascending ``edge_keys`` of the image of this graph under
        v -> perm[v], or None when perm is not a bijection on 0..n-1.

        A bijection's image has no loops or duplicates, so normalising each
        image edge and sorting the keys gives exactly the image's keys.  The
        range check comes before any indexing, so that a negative entry cannot
        index from the end and pass for a vertex.
        """
        p = np.asarray(perm)
        if p.shape != (self.n,) or p.dtype.kind not in "iu" or p.min() < 0 or p.max() >= self.n:
            return None
        hit = np.zeros(self.n, dtype=bool)
        hit[p] = True
        if not hit.all():
            return None
        ends = p.astype(np.int64, copy=False)[self.edge_ends()]
        keys = np.minimum(ends[:, 0], ends[:, 1]) * self.n + np.maximum(ends[:, 0], ends[:, 1])
        keys.sort()
        return keys

    @gc_paused
    def relabel(self, perm: Sequence[int]) -> "BaseGraph":
        """Image of the graph under vertex bijection v -> perm[v]."""
        keys = self._image_keys(perm)
        if keys is None:
            raise ValueError("perm is not a bijection on 0..n-1")
        u, v = np.divmod(keys, self.n)
        # one int object per vertex, shared by all its edges
        vertex = np.arange(self.n).astype(object)
        return BaseGraph(self.n, tuple(zip(vertex[u].tolist(), vertex[v].tolist())))

    def is_isomorphism(self, h: "BaseGraph", perm: Sequence[int]) -> bool:
        """True iff v -> perm[v] is a bijection onto the vertices of h that
        maps the edges of this graph exactly onto the edges of h."""
        if self.n != h.n or len(self.edges) != len(h.edges):
            return False
        keys = self._image_keys(perm)
        return keys is not None and np.array_equal(keys, h.edge_keys)


def connected_components(g: BaseGraph) -> list[frozenset[int]]:
    """Partition of V(g) into maximal connected vertex sets, sorted by least vertex."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.add(v)
                    queue.append(v)
        comps.append(frozenset(comp))
    return comps


def is_connected(g: BaseGraph) -> bool:
    return len(connected_components(g)) == 1


@dataclass(frozen=True, order=True)
class LinearShape:
    """Shape of one connected component: a path or cycle of the given edge count,
    or "other" when some vertex has degree >= 3."""

    kind: str  # "path" | "cycle" | "other"
    length: Optional[int] = None


def classify_linear(g: BaseGraph) -> list[LinearShape]:
    """Classify every component as Path(k), Cycle(k), or Other; sorted canonically."""
    shapes = []
    for comp in connected_components(g):
        degs = [g.degree(v) for v in comp]
        nedges = sum(degs) // 2
        if any(d > 2 for d in degs):
            shapes.append(LinearShape("other"))
        elif all(d == 2 for d in degs) and degs:
            shapes.append(LinearShape("cycle", nedges))
        else:
            # tree with max degree <= 2, i.e. a path (possibly a single vertex)
            shapes.append(LinearShape("path", nedges))
    return sorted(shapes)


# -- named families ----------------------------------------------------------


def path(k: int) -> BaseGraph:
    """P_k: path with k edges and k+1 vertices."""
    if k < 1:
        raise ValueError("paths need at least one edge")
    return BaseGraph(k + 1, tuple((i, i + 1) for i in range(k)))


def cycle(k: int) -> BaseGraph:
    """C_k: cycle with k edges and k vertices."""
    if k < 3:
        raise ValueError("cycles need at least three edges")
    return BaseGraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete(n: int) -> BaseGraph:
    if n < 1:
        raise ValueError("empty graph rejected")
    return BaseGraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> BaseGraph:
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return BaseGraph(a + b, tuple((u, a + v) for u in range(a) for v in range(b)))


def grid(a: int, b: int) -> BaseGraph:
    if a < 1 or b < 1:
        raise ValueError("grid sides must be positive")
    edges = []
    for r in range(a):
        for c in range(b):
            v = r * b + c
            if c + 1 < b:
                edges.append((v, v + 1))
            if r + 1 < a:
                edges.append((v, v + b))
    return BaseGraph.from_edges(a * b, edges)


def petersen() -> BaseGraph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))              # spokes
    return BaseGraph.from_edges(10, edges)


# family name -> (number of parameters, builder, (vertex count, edge count))
FAMILY_BUILDERS = {
    "P": (1, path, lambda k: (k + 1, k)),
    "C": (1, cycle, lambda k: (k, k)),
    "K": (1, complete, lambda n: (n, n * (n - 1) // 2)),
    "Kab": (2, complete_bipartite, lambda a, b: (a + b, a * b)),
    "grid": (2, grid, lambda a, b: (a * b, a * (b - 1) + b * (a - 1))),
    "petersen": (0, petersen, lambda: (10, 15)),
}


def build_family(name: str, params: Sequence[int] = ()) -> BaseGraph:
    """Canonical graph of a named family: P n, C n, K n, Kab a b, grid a b, petersen."""
    if name not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILY_BUILDERS)}")
    arity, builder, size = FAMILY_BUILDERS[name]
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    # counted before building; negative parameters are left to the builder's check
    n, m = size(*(max(p, 0) for p in params))
    if max(n, m) > MAX_INPUT_VERTICES:
        raise SizeGuardError(f"{name} {' '.join(map(str, params))} would have {n} vertices and {m} edges, "
                             f"over the cap of {MAX_INPUT_VERTICES}")
    return builder(*params)


# -- I/O ----------------------------------------------------------------------


def graph_doc(g: BaseGraph) -> dict:
    """The JSON document of a graph alone: {"n", "edges"}."""
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def write_graph(
    g: BaseGraph,
    fmt: str = "json",
    colors: Optional[Sequence[int]] = None,
    names: Optional[Sequence[str]] = None,
) -> bytes:
    """Serialize to canonical JSON ({"n", "edges"} plus optional colors/names) or DIMACS."""
    if fmt == "json":
        doc = graph_doc(g)
        if colors is not None:
            doc["colors"] = list(colors)
        if names is not None:
            doc["names"] = list(names)
        return (json.dumps(doc, separators=(", ", ": ")) + "\n").encode()
    if fmt == "dimacs":
        if colors is not None or names is not None:
            raise ValueError("DIMACS carries no colors or names")
        lines = [f"p edge {g.n} {len(g.edges)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


@gc_paused
def read_graph(data: bytes, fmt: str = "json") -> tuple[BaseGraph, dict]:
    """Parse a graph; returns (graph, meta) where meta may carry colors/names."""
    if fmt == "json":
        return _read_json(data)
    if fmt == "dimacs":
        return _read_dimacs(data)
    raise ValueError(f"unknown format {fmt!r}")


def _check_input_size(n: int) -> int:
    if n > MAX_INPUT_VERTICES:
        raise GraphFormatError(f"n = {n} exceeds the input cap of {MAX_INPUT_VERTICES} vertices")
    return n


def _read_json(data: bytes) -> tuple[BaseGraph, dict]:
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphFormatError('JSON graph needs "n" and "edges"')
    # type(), not isinstance(): JSON true and false load as bool, a subclass of int
    n, edges = doc["n"], doc["edges"]
    if type(n) is not int or type(edges) is not list or any(
            type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int
            for e in edges):
        raise GraphFormatError('bad graph data: "n" must be an integer and "edges" a list of integer pairs')
    _check_input_size(n)
    try:
        g = BaseGraph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphFormatError(f"bad graph data: {exc}") from exc
    meta = {}
    for key, kind in (("colors", int), ("names", str)):
        if key in doc:
            values = doc[key]
            if type(values) is not list or any(type(x) is not kind for x in values):
                raise GraphFormatError(f'bad graph data: "{key}" must be a list of {kind.__name__}s')
            if len(values) != g.n:
                raise GraphFormatError(f"{key} array length != n")
            meta[key] = values
    return g, meta


def _dimacs_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: {token!r} is not an integer") from None


def _read_dimacs(data: bytes) -> tuple[BaseGraph, dict]:
    n = None
    edges: set[Edge] = set()
    for lineno, raw in enumerate(data.decode(errors="replace").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"line {lineno}: expected 'p edge N M'")
            n = _check_input_size(_dimacs_int(parts[2], lineno))
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e U V'")
            u, v = _dimacs_int(parts[1], lineno) - 1, _dimacs_int(parts[2], lineno) - 1
            if u == v:
                raise GraphFormatError(f"line {lineno}: loop at vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex out of range")
            edges.add((u, v) if u < v else (v, u))  # duplicates tolerated silently
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing 'p edge' line")
    return BaseGraph(n, tuple(sorted(edges))), {}


def disjoint_union(g: BaseGraph, h: BaseGraph) -> BaseGraph:
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return BaseGraph.from_edges(g.n + h.n, edges)
