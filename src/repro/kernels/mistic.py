"""MiSTIC: multi-space-tree indexed CUDA-core self-join (paper Section 2.6).

Functionally identical output to GDS-Join (FP32 distances over a candidate
set), but the candidate set comes from the incrementally constructed
multi-space tree (:class:`repro.index.mstree.MultiSpaceTree`), whose
combined coordinate + metric pruning yields fewer candidates, and whose
better load-balance properties the paper credits for beating GDS-Join --
captured here as a higher effective-efficiency constant, while the
incremental construction's extra work is charged to index-build time.
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
from repro.index.mstree import MultiSpaceTree
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
)

#: Effective fraction of FP32 peak; higher than GDS-Join's because of the
#: tree's superior intra-/inter-warp load balance (paper Section 2.6).
MISTIC_EFFICIENCY = 0.085

#: Paper configuration: 6 levels, 38 candidate partitions per level.
MISTIC_LEVELS = 6
MISTIC_CANDIDATES = 38


@dataclass
class MisticResult:
    """Functional result plus the statistics the timing model consumes."""

    result: NeighborResult
    total_candidates: int
    sample: ProfileSample
    construction_evaluations: int

    @property
    def profile(self) -> ShortCircuitProfile:
        """Measured on first read (see :class:`ProfileSample`)."""
        return self.sample.profile


class MisticKernel:
    """MiSTIC on the simulated GPU (FP32 CUDA cores)."""

    def __init__(self, spec: GpuSpec = DEFAULT_SPEC, *, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed

    @staticmethod
    def _block_state(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """MiSTIC operand preparation: FP32 rows + einsum row norms
        (row-local, hence value-identical whole-array or per gather)."""
        w = block.astype(np.float32)
        return w, np.einsum("nd,nd->n", w, w)

    def self_join(
        self,
        data: np.ndarray | DatasetSource,
        eps: float,
        *,
        store_distances: bool = True,
        group: int = 512,
        batched: bool | None = None,
        batch_params: dict | None = None,
        memory_budget_bytes: int | None = None,
    ) -> MisticResult:
        """Index-supported self-join; returns result + cost statistics.

        Runs on the shared candidate-group executor
        (:func:`repro.core.engine.candidate_join`).  ``batched`` fuses
        small tree groups into padded batch GEMMs -- same pair set,
        faster when ``group`` is small or eps prunes hard; ``None`` (the
        default) resolves from the tree's measured group-shape moments
        (:func:`repro.core.engine.auto_batched_from_stats` over
        ``MultiSpaceTree.stats``), which also size the batch knobs
        (:func:`~repro.core.engine.batch_params_from_stats`, the same
        sizing contract the grid index uses); ``batch_params`` entries
        override individual derived knobs.

        ``data`` may be a :class:`~repro.data.source.DatasetSource`: the
        multi-space tree is then built out of core
        (``MultiSpaceTree.from_source``: every candidate-partition
        evaluation is one streamed pass, which *is* MiSTIC's incremental
        construction cost, in passes of
        :data:`~repro.core.engine.SOURCE_BUILD_ROWS` rows or of the edge
        ``memory_budget_bytes`` gives) and the executor gathers group
        rows on demand with ``source.take``; per-row FP32 conversion and
        norms match the in-memory precompute bit for bit, so the answer
        is bit-identical to the in-memory one.  The run's
        :class:`~repro.core.engine.StreamStats` come back as
        ``result.result.stream_stats``.
        """
        tree_args = dict(
            n_levels=MISTIC_LEVELS, n_candidates=MISTIC_CANDIDATES,
            seed=self.seed,
        )
        if isinstance(data, DatasetSource):
            stats = source_build_stats(data, memory_budget_bytes)
            tree = MultiSpaceTree.from_source(
                data, eps, row_block=stats.plan.row_block, stats=stats,
                **tree_args,
            )
            operand = SourceOperand(data, self._block_state)
            take_rows = data.take
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
            stats = None
            tree = MultiSpaceTree(data, eps, **tree_args)
            operand = ResidentOperand(*self._block_state(data))
            take_rows = data.__getitem__
        n = operand.n
        batched, params = resolve_batching(
            batched, lambda: tree.stats(group=group), batch_params
        )
        # Norm-expansion distances (see gdsjoin.py for the precision
        # argument); BLAS-backed, so group size only bounds memory.
        acc = candidate_join(
            tree.iter_groups(group=group),
            operand,
            np.float32(float(eps) ** 2),
            batched=batched,
            batch_params=params,
            store_distances=store_distances,
            stats=stats,
        )
        result = acc.finalize(n, float(eps), stats)
        # The short-circuit profile's sample touches only these rows.
        rng = np.random.default_rng(self.seed)
        qi = rng.integers(0, n, size=min(n, 256))
        cand_i, cand_j = [], []
        for q in qi[:64]:
            cm = np.nonzero(tree.candidate_mask_for(int(q)))[0]
            cand_i.append(np.full(cm.size, q))
            cand_j.append(cm)
        si = np.concatenate(cand_i) if cand_i else np.empty(0, np.int64)
        sj = np.concatenate(cand_j) if cand_j else np.empty(0, np.int64)
        return MisticResult(
            result=result,
            total_candidates=tree.total_candidates(),
            sample=ProfileSample(si, sj, take_rows, eps),
            construction_evaluations=tree.construction_evaluations,
        )

    def join(
        self,
        a: np.ndarray,
        b: np.ndarray,
        eps: float,
        *,
        store_distances: bool = True,
        group: int = 512,
    ) -> JoinResult:
        """Two-source tree join: pairs ``(i in A, j in B)`` within ``eps``.

        The tree indexes **B**; blocks of A's points are binned per level
        (``MultiSpaceTree.iter_join_groups`` -- coordinate floor-divides
        plus pivot rings, both valid for external points) and evaluated
        against the +-1 window candidates by the candidate executor with
        a second operand.  Functional path only; timing stays
        self-join-scoped.
        """
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        if a.shape[1] != b.shape[1]:
            raise ValueError("A and B dimensionalities must match")
        tree = MultiSpaceTree(
            b, eps, n_levels=MISTIC_LEVELS, n_candidates=MISTIC_CANDIDATES,
            seed=self.seed,
        )
        acc = candidate_join(
            tree.iter_join_groups(a, group=group),
            ResidentOperand(*self._block_state(a)),
            np.float32(float(eps) ** 2),
            ResidentOperand(*self._block_state(b)),
            store_distances=store_distances,
        )
        return acc.finalize_join(a.shape[0], b.shape[0], float(eps))

    def cost(
        self, d: int, *, total_candidates: int, profile: ShortCircuitProfile
    ) -> KernelCost:
        """Measured-work cost view of the CUDA-core candidate pass.

        Built by :func:`repro.kernels.cudacore.cuda_candidate_cost` (the
        construction shared with GDS-Join) from the same measured
        statistics :meth:`response_time` charges, so modeled and executed
        work agree by construction.
        """
        return cuda_candidate_cost(
            self.spec, d,
            total_candidates=total_candidates,
            profile=profile,
            efficiency=MISTIC_EFFICIENCY,
            elem_bytes=4,  # FP32 lanes
        )

    def response_time(
        self,
        n: int,
        d: int,
        *,
        total_candidates: int,
        profile: ShortCircuitProfile,
        n_result_pairs: int,
        construction_evaluations: int = MISTIC_LEVELS * MISTIC_CANDIDATES,
    ) -> ResponseTime:
        """End-to-end response time from measured join statistics.

        Incremental construction evaluates ``construction_evaluations``
        candidate partitions, each a full pass over the dataset (pivot
        distances or bin projection) -- the "incremental index construction"
        cost the MiSTIC paper accepts in exchange for better pruning.
        """
        build_work = construction_evaluations * n * d * 2.0
        build = build_work / (self.spec.fp32_cuda_flops * 0.25) + 8 * LAUNCH_OVERHEAD_S
        kernel = cuda_kernel_seconds(
            self.spec, total_candidates, d, profile, MISTIC_EFFICIENCY
        )
        d2h, store = result_transfer_seconds(self.spec, n_result_pairs)
        return ResponseTime(
            h2d_s=h2d_seconds(self.spec, n, d, 4),
            index_build_s=build,
            kernel_s=kernel,
            d2h_s=d2h,
            host_store_s=store,
            overhead_s=LAUNCH_OVERHEAD_S,
        )
