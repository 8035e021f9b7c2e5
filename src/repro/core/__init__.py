"""Core public API: self-joins, selectivity calibration, accuracy metrics."""

from repro.core.accuracy import (
    DistanceErrorStats,
    distance_error_stats,
    overlap_accuracy,
)
from repro.core.api import (
    METHODS,
    STREAMABLE_METHODS,
    build_index,
    join,
    join_stream,
    open_index,
    pairwise_sq_dists,
    query,
    self_join,
    self_join_stream,
)
from repro.core.engine import (
    Operand,
    ResidentOperand,
    SourceOperand,
    StreamStats,
    TilePlan,
    auto_batched_from_stats,
    batch_params_from_stats,
    candidate_join,
    norm_expansion_sq_dists,
    tile_join,
)
from repro.core.results import (
    JoinResult,
    NeighborResult,
    PairAccumulator,
    from_dense_mask,
)
from repro.core.selectivity import (
    epsilon_for_selectivity,
    measured_selectivity,
    sampled_pairwise_distances,
)

__all__ = [
    "METHODS",
    "STREAMABLE_METHODS",
    "self_join",
    "self_join_stream",
    "join",
    "join_stream",
    "build_index",
    "open_index",
    "query",
    "pairwise_sq_dists",
    "NeighborResult",
    "JoinResult",
    "PairAccumulator",
    "from_dense_mask",
    "TilePlan",
    "StreamStats",
    "Operand",
    "ResidentOperand",
    "SourceOperand",
    "tile_join",
    "candidate_join",
    "batch_params_from_stats",
    "auto_batched_from_stats",
    "norm_expansion_sq_dists",
    "epsilon_for_selectivity",
    "measured_selectivity",
    "sampled_pairwise_distances",
    "overlap_accuracy",
    "distance_error_stats",
    "DistanceErrorStats",
]
