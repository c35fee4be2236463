"""Toggle dynamics of independent sets on cycle graphs.

Orbits of the vertex-by-vertex toggle sweep, their bi-infinite scrolls
and ticker tapes, snake/co-snake structure, slither calculus and the
classification of tapes by feasible word pairs, finite orbit tables with
their ouroboros groups, and sum-vector period theory, all backed by a
brute-force verification harness.
"""

from .classify import (
    FeasibleQuadruple,
    construct_first_row,
    enumerate_ticker_tapes,
    feasible_quadruples,
    gf_count,
)
from .cycles import (
    Orbit,
    all_orbits,
    enumerate_independent_sets,
    is_independent,
    orbit,
    sweep,
    toggle,
)
from .scroll import (
    Scroll,
    SnakePartition,
    scroll_from_seed,
    snakes_and_cosnakes,
)
from .slither import (
    CoSlither,
    ScrollMetrics,
    Slither,
    coslither_from_row,
    metrics_from_row,
    slither_from_row,
)
from .sums import col_scale, construct_period_lambda, sum_vector
from .tables import (
    OrbitTable,
    co_swallow,
    fundamental_degrees,
    group_invariants,
    is_color_preserving,
    omega_table,
    ouroboros_partition,
    predicted_counts,
    swallow,
)
from .verify import run_verification

__all__ = [name for name in dir() if not name.startswith("_")]
