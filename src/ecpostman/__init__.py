"""Exact Chinese Postman solver for edge-colored multigraphs.

Find a minimum-weight properly colored closed walk traversing every
edge of a connected edge-colored weighted multigraph, or report that
none exists. The package root exports the solver API; the pipeline
stages, oracles and generators are imported from their own modules.
"""

from .euler import check_pc_euler, pc_euler_trail, verify_pc_closed_walk
from .graph import ColoredMultigraph, Edge, GraphError, InvariantError, PCWalk
from .solver import Solution, solve

__version__ = "0.1.0"

__all__ = [
    "ColoredMultigraph",
    "Edge",
    "GraphError",
    "InvariantError",
    "PCWalk",
    "Solution",
    "check_pc_euler",
    "pc_euler_trail",
    "solve",
    "verify_pc_closed_walk",
]
