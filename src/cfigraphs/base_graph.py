"""Base-graph representation, named families, and graph I/O.

Vertices are always the dense integers 0..n-1; every "arbitrary choice"
downstream resolves to the lexicographically least option under this order.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import GraphFormatError

Edge = tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


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
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be sorted")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "BaseGraph":
        """Build a graph, normalizing edge order and deduplicating."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.add(_normalize_edge(u, v))
        return BaseGraph(n, tuple(sorted(norm)))

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

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edge_set

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"unknown vertex {v}")
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max(len(a) for a in self.adjacency)

    def min_degree(self) -> int:
        return min(len(a) for a in self.adjacency)

    def relabel(self, perm: Sequence[int]) -> "BaseGraph":
        """Image of the graph under vertex bijection v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a bijection on 0..n-1")
        return BaseGraph.from_edges(self.n, ((perm[u], perm[v]) for u, v in self.edges))


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


FAMILY_BUILDERS = {
    "P": lambda params: path(params[0]),
    "C": lambda params: cycle(params[0]),
    "K": lambda params: complete(params[0]),
    "Kab": lambda params: complete_bipartite(params[0], params[1]),
    "grid": lambda params: grid(params[0], params[1]),
    "petersen": lambda params: petersen(),
}


def build_family(name: str, params: Sequence[int] = ()) -> BaseGraph:
    """Canonical graph of a named family: P n, C n, K n, Kab a b, grid a b, petersen."""
    if name not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILY_BUILDERS)}")
    return FAMILY_BUILDERS[name](list(params))


# -- I/O ----------------------------------------------------------------------


def write_graph(
    g: BaseGraph,
    fmt: str = "json",
    colors: Optional[Sequence[int]] = None,
    names: Optional[Sequence[str]] = None,
) -> bytes:
    """Serialize to canonical JSON ({"n", "edges"} plus optional colors/names) or DIMACS."""
    if fmt == "json":
        doc: dict = {"n": g.n, "edges": [[u, v] for u, v in g.edges]}
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


def read_graph(data: bytes, fmt: str = "json") -> tuple[BaseGraph, dict]:
    """Parse a graph; returns (graph, meta) where meta may carry colors/names."""
    if fmt == "json":
        return _read_json(data)
    if fmt == "dimacs":
        return _read_dimacs(data)
    raise ValueError(f"unknown format {fmt!r}")


def _read_json(data: bytes) -> tuple[BaseGraph, dict]:
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphFormatError('JSON graph needs "n" and "edges"')
    try:
        g = BaseGraph.from_edges(int(doc["n"]), [(int(u), int(v)) for u, v in doc["edges"]])
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad graph data: {exc}") from exc
    meta = {}
    if "colors" in doc:
        colors = [int(c) for c in doc["colors"]]
        if len(colors) != g.n:
            raise GraphFormatError("colors array length != n")
        meta["colors"] = colors
    if "names" in doc:
        names = [str(s) for s in doc["names"]]
        if len(names) != g.n:
            raise GraphFormatError("names array length != n")
        meta["names"] = names
    return g, meta


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
            n = int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e U V'")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if u == v:
                raise GraphFormatError(f"line {lineno}: loop at vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex out of range")
            edges.add(_normalize_edge(u, v))  # duplicates tolerated silently
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing 'p edge' line")
    return BaseGraph(n, tuple(sorted(edges))), {}


def disjoint_union(g: BaseGraph, h: BaseGraph) -> BaseGraph:
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return BaseGraph.from_edges(g.n + h.n, edges)
