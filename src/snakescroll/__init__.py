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
from .cycles import all_orbits, enumerate_independent_sets, is_independent, orbit
from .scroll import Scroll
from .slither import ScrollMetrics, metrics_from_row
from .sums import col_scale, construct_period_lambda, sum_vector
from .tables import color_preserving, group_factors, predicted_counts, swallow_shift, table_words
from .verify import run_verification

__all__ = [name for name in dir() if not name.startswith("_")]
