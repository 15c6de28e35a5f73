"""Exact classification engine for incidence scrolls in projective n-space."""

from .bases import IncidenceBase, InvariantError
from .invariants import classify, degeneration_tree, node_table

__all__ = ["IncidenceBase", "InvariantError", "classify", "degeneration_tree",
           "node_table"]
