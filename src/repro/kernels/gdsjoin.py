"""GDS-Join: grid-indexed CUDA-core self-join (paper Section 2.6).

The FP32 reference baseline (and, in FP64 mode, the accuracy ground truth
of paper Section 4.6).  Functionally: a :class:`repro.index.grid.GridIndex`
generates per-cell candidate sets and distances are computed only against
candidates, with the precision requested.  The index can be built from an
in-memory ndarray or **out of core** from a
:class:`~repro.data.source.DatasetSource` (``GridIndex.from_source``, when
:meth:`GdsJoinKernel.self_join` is given a source), in which case
candidate rows are gathered from the source on demand and the dataset is
never resident.
Two-source joins (:meth:`GdsJoinKernel.join`) drop the left set's points
into the right set's grid.  Timing: index construction + short-circuiting
CUDA-core distance pass (measured candidate counts and short-circuit
profile) + batched result transfers, per the paper's end-to-end
methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import (
    ResidentOperand,
    SourceOperand,
    candidate_join,
    resolve_batching,
    source_build_stats,
)
from repro.core.results import JoinResult, NeighborResult
from repro.data.source import DatasetSource
from repro.gpusim.spec import DEFAULT_SPEC, GpuSpec
from repro.index.grid import GridIndex
from repro.kernels.base import (
    LAUNCH_OVERHEAD_S,
    ResponseTime,
    h2d_seconds,
    result_transfer_seconds,
)
from repro.gpusim.timing import KernelCost
from repro.kernels.cudacore import (
    ProfileSample,
    ShortCircuitProfile,
    cuda_candidate_cost,
    cuda_kernel_seconds,
    grid_build_seconds,
)

#: Fraction of FP32 peak a tuned gather-heavy CUDA-core kernel sustains;
#: covers divergence and imperfect intra/inter-warp load balance (the
#: weaknesses MiSTIC improves on).  Calibrated against Figure 10.
GDS_EFFICIENCY = 0.065


@dataclass
class GdsJoinResult:
    """Functional result plus the statistics the timing model consumes."""

    result: NeighborResult
    total_candidates: int
    sample: ProfileSample
    n_indexed_dims: int

    @property
    def profile(self) -> ShortCircuitProfile:
        """Measured on first read (see :class:`ProfileSample`)."""
        return self.sample.profile


class GdsJoinKernel:
    """GDS-Join on the simulated GPU.

    Parameters
    ----------
    spec:
        GPU model.
    precision:
        ``"fp32"`` (paper baseline) or ``"fp64"`` (accuracy ground truth).
    n_index_dims:
        Indexed dimension count (grid fan-out is 3^r).
    """

    def __init__(
        self,
        spec: GpuSpec = DEFAULT_SPEC,
        *,
        precision: str = "fp32",
        n_index_dims: int = 6,
    ) -> None:
        if precision not in {"fp32", "fp64"}:
            raise ValueError("precision must be 'fp32' or 'fp64'")
        self.spec = spec
        self.precision = precision
        self.n_index_dims = n_index_dims

    @property
    def _dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == "fp32" else np.float64)

    def _block_state(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """GDS-Join operand preparation: rows cast to the working
        precision + their row norms (row-local, hence value-identical
        whether applied to the whole dataset or to one gather)."""
        w = block.astype(self._dtype, copy=False)
        return w, (w * w).sum(axis=1)

    def self_join(
        self,
        data: np.ndarray | DatasetSource,
        eps: float,
        *,
        store_distances: bool = True,
        batched: bool | None = None,
        batch_params: dict | None = None,
        memory_budget_bytes: int | None = None,
    ) -> GdsJoinResult:
        """Index-supported self-join; returns result + cost statistics.

        Runs on the shared candidate-group executor
        (:func:`repro.core.engine.candidate_join`): per-group GEMMs
        (pinned bit-identical to the seed loop) or -- batched -- small
        neighboring cell groups fused into padded batch GEMMs (same pair
        set, faster at small eps).  ``batched=None`` (the default) picks
        per index shape: the grid's measured group-size moments decide
        whether the typical group is call-overhead-bound
        (:func:`repro.core.engine.auto_batched_from_stats`); explicit
        ``True`` / ``False`` forces.  The candidate tally and profiling
        sample ride along via the ``on_group`` hook in both modes.  Batched-mode knobs are derived from the grid's measured
        group-size moments
        (:func:`repro.core.engine.batch_params_from_stats` over
        ``GridIndex.stats()``); ``batch_params`` overrides any of them
        (``batch_elems`` / ``max_batch_groups`` / ``single_elems`` /
        ``min_fill``) verbatim.

        Distances use the norm expansion in the working precision (the
        real CUDA-core kernel accumulates differences; in FP64 the two are
        equivalent to ~1e-13 relative, and in FP32 the expansion's extra
        rounding is two orders of magnitude below the FP16 effects the
        accuracy study measures).

        ``data`` may be a :class:`~repro.data.source.DatasetSource`: the
        grid then comes from ``GridIndex.from_source`` (streamed cell-key
        encoding + external counting sort in passes of
        :data:`~repro.core.engine.SOURCE_BUILD_ROWS` rows, or of the edge
        ``memory_budget_bytes`` gives -- the ``(n, d)`` dataset is never
        resident) and the executor gathers member and candidate rows on
        demand with ``source.take``, converting to the working precision
        per gather exactly as the in-memory path converts the whole
        array.  Cell order, per-group norms and GEMM shapes are
        unchanged, so the answer is **bit-identical** to the in-memory
        one; the short-circuit profile is measured on gathered sample
        rows.  In batched mode each flush issues one concatenated gather
        per side.  The run's :class:`~repro.core.engine.StreamStats`
        (build passes' block loads plus the transient gathers) come back
        as ``result.result.stream_stats``.
        """
        if isinstance(data, DatasetSource):
            stats = source_build_stats(data, memory_budget_bytes)
            index = GridIndex.from_source(
                data, eps, n_dims=self.n_index_dims,
                row_block=stats.plan.row_block, stats=stats,
            )
            operand = SourceOperand(data, self._block_state)
            take_rows = data.take
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
            stats = None
            index = GridIndex(data, eps, n_dims=self.n_index_dims)
            operand = ResidentOperand(*self._block_state(data))
            take_rows = data.__getitem__
        batched, params = resolve_batching(batched, index.stats, batch_params)
        total_candidates = 0
        sample_i, sample_j = [], []

        def sample(members: np.ndarray, candidates: np.ndarray) -> None:
            if len(sample_i) < 64:  # keep some candidate pairs for profiling
                take = min(candidates.size, 32)
                sample_i.append(np.repeat(members, take))
                sample_j.append(np.tile(candidates[:take], members.size))

        def on_group(members: np.ndarray, candidates: np.ndarray) -> None:
            nonlocal total_candidates
            total_candidates += members.size * candidates.size
            if not batched:
                sample(members, candidates)

        if batched:
            # The executor consumes size-sorted cells (better batch
            # packing), but the profiling sample must be drawn the same
            # way as the per-group mode -- the first cells in *lex*
            # order -- or the short-circuit profile (and the timing model
            # built on it) would skew toward the smallest cells.
            for members, candidates in index.iter_cells():
                if len(sample_i) >= 64:
                    break
                if members.size and candidates.size:
                    sample(members, candidates)
        acc = candidate_join(
            index.iter_cells(order="size" if batched else "lex"),
            operand,
            self._dtype.type(float(eps) ** 2),
            batched=batched,
            batch_params=params,
            on_group=on_group,
            store_distances=store_distances,
            stats=stats,
        )
        result = acc.finalize(operand.n, float(eps), stats)
        si = np.concatenate(sample_i) if sample_i else np.empty(0, np.int64)
        sj = np.concatenate(sample_j) if sample_j else np.empty(0, np.int64)
        return GdsJoinResult(
            result=result,
            total_candidates=total_candidates,
            sample=ProfileSample(si, sj, take_rows, eps, order=index.order),
            n_indexed_dims=index.r,
        )

    def join(
        self,
        a: np.ndarray,
        b: np.ndarray,
        eps: float,
        *,
        store_distances: bool = True,
    ) -> JoinResult:
        """Two-source grid join: pairs ``(i in A, j in B)`` within ``eps``.

        The grid indexes **B**; A's points are dropped into it with B's
        variance order and cell width (``GridIndex.iter_join_groups``) and
        each query group is evaluated against the 3^r adjacent cells'
        B points by the candidate executor with a second operand (no
        self pairs exist to drop).  Functional path only; timing stays self-join-scoped.
        """
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        if a.shape[1] != b.shape[1]:
            raise ValueError("A and B dimensionalities must match")
        index = GridIndex(b, eps, n_dims=self.n_index_dims)
        acc = candidate_join(
            index.iter_join_groups(a),
            ResidentOperand(*self._block_state(a)),
            self._dtype.type(float(eps) ** 2),
            ResidentOperand(*self._block_state(b)),
            store_distances=store_distances,
        )
        return acc.finalize_join(a.shape[0], b.shape[0], float(eps))

    def cost(
        self, d: int, *, total_candidates: int, profile: ShortCircuitProfile
    ) -> KernelCost:
        """Measured-work cost view of the CUDA-core candidate pass.

        Built by :func:`repro.kernels.cudacore.cuda_candidate_cost` from
        the same measured statistics :meth:`response_time` charges, so
        modeled and executed work agree by construction.
        """
        return cuda_candidate_cost(
            self.spec, d,
            total_candidates=total_candidates,
            profile=profile,
            efficiency=GDS_EFFICIENCY,
            elem_bytes=self._dtype.itemsize,
        )

    def response_time(
        self,
        n: int,
        d: int,
        *,
        total_candidates: int,
        profile: ShortCircuitProfile,
        n_result_pairs: int,
    ) -> ResponseTime:
        """End-to-end response time from measured join statistics."""
        elem = self._dtype.itemsize
        kernel = cuda_kernel_seconds(
            self.spec, total_candidates, d, profile, GDS_EFFICIENCY
        )
        d2h, store = result_transfer_seconds(self.spec, n_result_pairs)
        return ResponseTime(
            h2d_s=h2d_seconds(self.spec, n, d, elem),
            index_build_s=grid_build_seconds(self.spec, n, self.n_index_dims),
            kernel_s=kernel,
            d2h_s=d2h,
            host_store_s=store,
            overhead_s=LAUNCH_OVERHEAD_S,
        )
