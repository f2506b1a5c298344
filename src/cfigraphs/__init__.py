"""Colored and uncolored CFI graphs: construction, twist detection in
polynomial time, bounded-variable logic equivalences, treewidth, and
homomorphism counting."""

from .base_graph import (
    BaseGraph,
    LinearShape,
    build_family,
    classify_linear,
    connected_components,
    is_connected,
    read_graph,
    write_graph,
)
from .cfi import (
    CfiGraph,
    as_base_graph,
    build_cfi,
    build_tilde,
    path_encode,
    twist,
)
from .distinguisher import Verdict, distinguish
from .equivalence import ck_equivalent_game, lk_equivalent, wl_equivalent
from .homcount import gf2_count, hom_count, hom_gap, subdivide2
from .iso import automorphisms, find_isomorphism
from .treewidth import TreeDecomposition, robber_wins, treewidth_exact

__all__ = [
    "BaseGraph",
    "LinearShape",
    "build_family",
    "classify_linear",
    "connected_components",
    "is_connected",
    "read_graph",
    "write_graph",
    "CfiGraph",
    "as_base_graph",
    "build_cfi",
    "build_tilde",
    "path_encode",
    "twist",
    "Verdict",
    "distinguish",
    "ck_equivalent_game",
    "lk_equivalent",
    "wl_equivalent",
    "gf2_count",
    "hom_count",
    "hom_gap",
    "subdivide2",
    "automorphisms",
    "find_isomorphism",
    "TreeDecomposition",
    "robber_wins",
    "treewidth_exact",
]
