"""Exact solver and experiment lab for the sequential edge-assignment game on
finite graphs: optimal win probabilities by layered dynamic programming, the
reachable-region geometry, randomized steering strategies, Monte Carlo
evaluation, and phase-transition experiment drivers."""

from .graph import Graph, build_graph, load_graph, parse_graph_text
from .geometry import (
    RegionClass,
    RegionKind,
    classify_point,
    membership_flow,
    x_star,
    boundary_distance,
)
from .values import (
    ValueTable,
    compute_table,
    stream_table,
    value_at,
    optimal_move,
    argmax_config,
    save_table,
    load_table,
)
from .strategies import (
    Strategy,
    SteerPlan,
    optimal_strategy,
    baseline_strategy,
    ode_trajectory,
)
from .simulate import GameResult, Estimate, play, estimate, deviation_tail

__version__ = "0.1.0"
