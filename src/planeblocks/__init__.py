"""planeblocks: block decompositions and edge-bound verification for plane
graphs, with an exhaustive small-graph search oracle."""

from .blocks import decompose
from .graphio import parse_graph
from .ledger import build_ledger
from .search import ConstraintSet, enumerate_graphs, extremal_search
from .theorems import PROFILES, verify

__version__ = "0.1.0"

__all__ = [
    "ConstraintSet",
    "PROFILES",
    "build_ledger",
    "decompose",
    "enumerate_graphs",
    "extremal_search",
    "parse_graph",
    "verify",
]
