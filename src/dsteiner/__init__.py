"""Exact Steiner tree solving via goal-oriented dynamic programming."""

from .baseline import solve_baseline
from .bounds import make_bound
from .distances import DistanceOracle
from .graph import (
    INF,
    Graph,
    SteinerInstance,
    contract_zero_edges,
    multi_source_dijkstra,
    validate_tree,
)
from .hanan import PointSet, build_hanan_grid, generate_random_points
from .solver import choose_root, solve
from .stp import SolutionRecord, parse_stp, parse_stp_file, write_solution, write_stp

__all__ = [
    "INF",
    "DistanceOracle",
    "Graph",
    "PointSet",
    "SolutionRecord",
    "SteinerInstance",
    "build_hanan_grid",
    "choose_root",
    "contract_zero_edges",
    "generate_random_points",
    "make_bound",
    "multi_source_dijkstra",
    "parse_stp",
    "parse_stp_file",
    "solve",
    "solve_baseline",
    "validate_tree",
    "write_solution",
    "write_stp",
]

__version__ = "0.1.0"
