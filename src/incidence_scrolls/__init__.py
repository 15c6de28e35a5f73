"""Exact classification engine for incidence scrolls in projective n-space."""

from .bases import (
    IncidenceBase,
    InvariantError,
    JoinResult,
    conditions_count,
    enumerate_bases,
    format_base,
    is_nondegenerate,
    join,
    restrict_to_span,
    satisfies_is,
)
from .grassmann import product_of_specials, render
from .invariants import (
    DegenerationNode,
    ScrollReport,
    classify,
    degeneration_tree,
    degree,
    directrix_degree,
    kappa,
    node_table,
    speciality,
)

__all__ = [
    "product_of_specials", "render",
    "IncidenceBase", "InvariantError", "JoinResult",
    "conditions_count", "enumerate_bases", "format_base",
    "is_nondegenerate", "join", "restrict_to_span", "satisfies_is",
    "DegenerationNode", "ScrollReport",
    "classify", "degeneration_tree", "degree", "directrix_degree", "kappa",
    "node_table", "speciality",
]
