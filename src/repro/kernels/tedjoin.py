"""TED-Join: FP64 tensor-core Euclidean distances (Gallet & Gowanlock 2022).

The only prior tensor-core Euclidean-distance algorithm; FaSTED's direct
competitor (paper Sections 2.5, 4.4).  It uses the WMMA API's 8x8x4 FP64
fragments and stages whole points in shared memory, which produces the
three weaknesses the paper measures:

* **Shared-memory capacity** scales with ``d`` (whole points are staged),
  so the kernel OOMs beyond ``d = 384`` even after the paper's L1-carveout
  modification (and beyond ``d = 128`` unmodified).
* **WMMA's rigid access patterns** cause massive bank conflicts (92.3% at
  d=128, 75% at d=256 -- paper Table 6), unfixable without the PTX-level
  control FaSTED uses.
* **Throughput declines with d** as the shrinking shared-memory tile kills
  data reuse: 6.8% of FP64 peak at d=64, decreasing thereafter.

Functional path: exact FP64 arithmetic (brute force, or grid-index
candidates for the Index variant).  Timing path: the efficiency curve
``eff(d) = EFF64 * (64 / d)^DECAY`` anchored at the paper's measured 6.8%
with the structural occupancy/OOM logic above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import (
    ResidentOperand,
    SourceOperand,
    TilePlan,
    as_operand,
    candidate_join,
    resolve_batching,
    source_build_stats,
    tile_join,
    tile_rows,
)
from repro.core.results import JoinResult, NeighborResult, PairAccumulator
from repro.data.source import DatasetSource
from repro.gpusim.occupancy import BlockResources, blocks_per_sm
from repro.gpusim.pipeline import PipelineConfig
from repro.gpusim.spec import DEFAULT_SPEC, GpuSpec
from repro.gpusim.timing import KernelCost, ResourceDemand
from repro.index.grid import GridIndex
from repro.kernels.base import (
    LAUNCH_OVERHEAD_S,
    ResponseTime,
    h2d_seconds,
    result_transfer_seconds,
)
from repro.kernels.cudacore import ShortCircuitProfile, grid_build_seconds

#: Points (query tile + candidate tile) staged in shared memory, FP64.
TED_SMEM_POINTS = 46

#: Original TED-Join static shared-memory budget (no L1 carveout), bytes.
TED_UNMODIFIED_SMEM = 48 * 1024

#: Fraction of FP64 tensor-core peak at d=64 (paper Section 4.4: 6.8%).
TED_EFF64 = 0.068

#: Efficiency decay exponent with dimensionality (fitted to the Figure 9
#: decline of TED-Join-Brute).
TED_DECAY = 0.45

#: WMMA bank-conflict degree by dimensionality (paper Table 6: 92.3% at
#: d=128 and 75.0% at d=256 correspond to 13-way and 4-way replays).
def wmma_conflict_degree(d: int) -> int:
    return 13 if d <= 128 else 4


@dataclass
class TedJoinResult:
    """Functional result plus statistics for the timing model."""

    result: NeighborResult
    total_candidates: int
    profile: ShortCircuitProfile | None


class TedJoinKernel:
    """TED-Join (FP64 WMMA) on the simulated GPU.

    Parameters
    ----------
    spec:
        GPU model.
    variant:
        ``"brute"`` (Scenario 1) or ``"index"`` (Scenario 2, grid-backed).
    modified:
        Apply the paper's L1-carveout modification raising the
        shared-memory budget from 48 KB to the configurable maximum
        (extends support from d<=128 to d<=384).
    """

    def __init__(
        self,
        spec: GpuSpec = DEFAULT_SPEC,
        *,
        variant: str = "brute",
        modified: bool = True,
    ) -> None:
        if variant not in {"brute", "index"}:
            raise ValueError("variant must be 'brute' or 'index'")
        self.spec = spec
        self.variant = variant
        self.modified = modified

    # ------------------------------------------------------------------
    # Capacity model
    # ------------------------------------------------------------------

    def smem_bytes(self, d: int) -> int:
        """Shared memory per block: whole staged points, FP64."""
        return TED_SMEM_POINTS * d * 8

    def supports(self, d: int) -> bool:
        """False when the configuration OOMs (paper's failure mode)."""
        limit = self.spec.smem_max_block_bytes if self.modified else TED_UNMODIFIED_SMEM
        return self.smem_bytes(d) <= limit

    def occupancy(self, d: int) -> int:
        """Blocks per SM at this dimensionality (0 = OOM)."""
        if not self.supports(d):
            return 0
        res = BlockResources(
            threads_per_block=256,
            registers_per_thread=64,
            smem_bytes_per_block=self.smem_bytes(d),
        )
        return blocks_per_sm(self.spec, res)

    # ------------------------------------------------------------------
    # Functional path (exact FP64)
    # ------------------------------------------------------------------

    def auto_row_block(self, n: int, dim: int) -> int:
        """Functional tile edge resolved when ``row_block=None`` (brute).

        The cache-fit edge (:func:`repro.core.engine.tile_rows`) at FP64
        itemsizes, quantized to the 8-point WMMA granule -- the single
        source of truth shared by :meth:`self_join`, :meth:`join`, and the
        ``tile_edge`` benchmark entry.
        """
        return tile_rows(n, dim, d2_itemsize=8, work_itemsize=8, quantum=8)

    @staticmethod
    def _block_state(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """TED-Join operand preparation: the FP64 rows + their row norms
        (row-local, hence value-identical block-wise or whole-array)."""
        return block, (block * block).sum(axis=1)

    def _check_capacity(self, d: int) -> None:
        if not self.supports(d):
            raise MemoryError(
                f"TED-Join ({'modified' if self.modified else 'original'}) "
                f"exceeds shared memory at d={d}"
            )

    def self_join(
        self,
        data: np.ndarray | DatasetSource,
        eps: float,
        *,
        store_distances: bool = True,
        batched: bool | None = None,
        batch_params: dict | None = None,
        row_block: int | None = None,
        plan: TilePlan | None = None,
        memory_budget_bytes: int | None = None,
        acc: PairAccumulator | None = None,
    ) -> TedJoinResult:
        """FP64-exact self-join (norm-expansion form, as TED-Join computes).

        Both variants run on the shared join engine: the brute variant on
        the tile executor (:func:`repro.core.engine.tile_join`; ``c0 >=
        r0`` tiles mirrored -- FP64 dot products are position-independent
        in BLAS, so this is bit-identical to evaluating the full matrix
        at half the GEMM work), the index variant on the candidate-group
        executor (:func:`repro.core.engine.candidate_join`); both run
        serially on the calling thread.  ``batched`` runs the index variant in the executor's
        padded batch-GEMM mode -- same pair set, faster at small eps,
        with knobs derived from the grid's measured group moments
        (:func:`repro.core.engine.batch_params_from_stats`; override any
        of them via ``batch_params``); ``batched=None`` (the default)
        resolves from those same moments
        (:func:`repro.core.engine.auto_batched_from_stats`), and the
        brute variant ignores it.  ``row_block`` (brute) defaults to
        the cache-fit edge of :meth:`auto_row_block`; ``plan`` overrides the brute
        tile geometry outright (e.g. the device schedule from
        :meth:`tile_plan`).  The modeled hardware cost is unchanged:
        TED-Join itself evaluates all ``n^2`` candidates.

        ``data`` may be a :class:`~repro.data.source.DatasetSource`; the
        join then runs out of core, bitwise equal to the resident one.
        The brute variant streams row blocks through the tile executor
        (``memory_budget_bytes`` derives its plan from a resident-set
        budget).  The index variant builds its grid with
        ``GridIndex.from_source`` -- streamed cell-key encoding plus an
        external counting sort, in passes of
        :data:`~repro.core.engine.SOURCE_BUILD_ROWS` rows or of the
        budget's edge -- and gathers member/candidate rows on demand
        with ``source.take``.  The run's
        :class:`~repro.core.engine.StreamStats` come back as
        ``.result.stream_stats``.  ``acc`` (e.g. a disk-spilling
        accumulator) receives the pairs of either variant.

        Raises :class:`MemoryError` when the dimensionality exceeds the
        shared-memory capacity, mirroring the hardware failure.
        """
        eps2 = float(eps) ** 2
        if self.variant == "brute":
            operand = as_operand(data, self._block_state)
            n = operand.n
            self._check_capacity(operand.dim)
            if row_block is None:
                row_block = self.auto_row_block(n, operand.dim)
            out, stats = tile_join(
                operand,
                eps2,
                plan=plan,
                row_block=row_block,
                memory_budget_bytes=memory_budget_bytes,
                store_distances=store_distances,
                acc=acc,
            )
            return TedJoinResult(
                result=out.finalize(
                    n, float(eps), None if operand.resident else stats
                ),
                total_candidates=n * n,
                profile=None,
            )
        if isinstance(data, DatasetSource):
            self._check_capacity(data.dim)
            stats = source_build_stats(data, memory_budget_bytes)
            index = GridIndex.from_source(
                data, eps, row_block=stats.plan.row_block, stats=stats
            )
            operand = SourceOperand(data, self._block_state)
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
            self._check_capacity(data.shape[1])
            stats = None
            index = GridIndex(data, eps)
            operand = ResidentOperand(*self._block_state(data))
        batched, params = resolve_batching(batched, index.stats, batch_params)
        total_candidates = 0

        def on_group(members: np.ndarray, candidates: np.ndarray) -> None:
            # WMMA quantization: work is dispatched in 8x8 point tiles.
            nonlocal total_candidates
            padded = (-(-members.size // 8) * 8) * (-(-candidates.size // 8) * 8)
            total_candidates += padded

        out = candidate_join(
            index.iter_cells(order="size" if batched else "lex"),
            operand,
            eps2,
            batched=batched,
            batch_params=params,
            on_group=on_group,
            store_distances=store_distances,
            acc=acc,
            stats=stats,
        )
        return TedJoinResult(
            result=out.finalize(operand.n, float(eps), stats),
            total_candidates=total_candidates,
            profile=None,
        )

    # ------------------------------------------------------------------
    # Two-source joins
    # ------------------------------------------------------------------

    def join(
        self,
        a: np.ndarray | DatasetSource,
        b: np.ndarray | DatasetSource,
        eps: float,
        *,
        store_distances: bool = True,
        row_block: int | None = None,
        col_block: int | None = None,
        memory_budget_bytes: int | None = None,
        acc: PairAccumulator | None = None,
    ) -> JoinResult:
        """Two-source FP64 join: pairs ``(i in A, j in B)`` within ``eps``.

        Brute variant: the tile executor with a second operand -- every
        A-row x B-col tile, one pair direction, no diagonal handling.
        Either side may be a :class:`~repro.data.source.DatasetSource`
        (A's row blocks pin stripe by stripe while B's column blocks
        stream through, bitwise equal to the resident join at the same
        plan; ``memory_budget_bytes`` and ``acc`` as for
        :meth:`self_join`).  Index variant (in-memory arrays only): grid
        built over **B**, A's points dropped into it
        (``GridIndex.iter_join_groups``), candidates evaluated by the
        candidate executor with a second operand (no self-pair drop --
        equal indices address different points).  Functional path only; the timing models remain self-join-scoped.
        """
        left = as_operand(a, self._block_state)
        right = as_operand(b, self._block_state)
        if left.dim != right.dim:
            raise ValueError("A and B dimensionalities must match")
        self._check_capacity(left.dim)
        eps2 = float(eps) ** 2
        if self.variant == "brute":
            if row_block is None:
                row_block = self.auto_row_block(max(left.n, right.n), left.dim)
            out, stats = tile_join(
                left, eps2, right,
                row_block=row_block,
                col_block=col_block,
                memory_budget_bytes=memory_budget_bytes,
                store_distances=store_distances,
                acc=acc,
            )
            streamed = not (left.resident and right.resident)
            return out.finalize_join(
                left.n, right.n, float(eps), stats if streamed else None
            )
        if not (left.resident and right.resident) or memory_budget_bytes is not None:
            raise ValueError(
                "the index variant joins in-memory arrays; stream A x B "
                "with the brute variant"
            )
        out = candidate_join(
            GridIndex(right.rows, eps).iter_join_groups(left.rows), left, eps2,
            right, store_distances=store_distances, acc=acc,
        )
        return out.finalize_join(left.n, right.n, float(eps))

    # ------------------------------------------------------------------
    # Timing path
    # ------------------------------------------------------------------

    def tile_plan(self, n: int) -> TilePlan:
        """Device WMMA dispatch schedule as a shared :class:`TilePlan`.

        TED-Join issues every 8x8-point tile of the (8-padded) full grid
        -- the WMMA fragment quantization the index variant's candidate
        padding mirrors.  ``TilePlan(symmetric=False)`` expresses exactly
        that schedule: the plan covers the real ``n`` rows (the last tile
        is the clipped remainder the device pads to 8) and its tile count
        equals the padded grid's.  :meth:`cost` takes its ``n_tiles``
        from here, and the functional brute path executes the same plan
        (``self_join(plan=kernel.tile_plan(n))``), so modeled and
        executed tile counts cannot drift (tests/test_workers.py pins the
        equality).
        """
        return TilePlan.square(n, 8, symmetric=False)

    def cost(self, n: int, d: int) -> KernelCost:
        """Work-accounting cost of the brute kernel over the device plan.

        ``n_tiles`` / ``chunks_per_tile`` describe the WMMA dispatch the
        functional path executes: every tile of :meth:`tile_plan`, each
        running ``ceil(d / 4)`` 8x8x4 FP64 fragment steps.  The demand
        figures are derived from the calibrated efficiency curve (and the
        Table-6 conflict degrees), but **seconds still come from**
        :meth:`kernel_seconds` -- this cost exists so the modeled tile
        schedule is the engine's plan, not a private geometry.
        """
        self._check_capacity(d)
        plan = self.tile_plan(n)
        chunks = -(-d // 4)  # 8x8x4 FP64 fragments per k-step
        occ = max(1, self.occupancy(d))
        active_blocks = self.spec.sm_count * occ
        flops_per_chunk = 2.0 * 8 * 8 * 4
        # Cycles per chunk for one block at its share of the *sustained*
        # (efficiency-degraded) FP64 tensor throughput.
        sustained = self.spec.fp64_tc_flops * self.efficiency(d)
        tc_cycles = flops_per_chunk / (
            sustained / self.spec.boost_clock_hz / active_blocks
        )
        degree = wmma_conflict_degree(d)
        demand = ResourceDemand(
            tc_cycles=tc_cycles,
            # WMMA's rigid access patterns replay each ldmatrix-equivalent
            # load `degree`-fold (Table 6); charged against the staged
            # fragment bytes of one chunk.
            smem_load_cycles=(8 + 8) * 4 * 8 * degree / 128.0,
            issue_cycles=0.0,
            gmem_bytes=(8 + 8) * 4 * 8,  # two 8-point, 4-dim FP64 slices
            smem_store_bytes=(8 + 8) * 4 * 8,
        )
        return KernelCost(
            n_tiles=plan.n_tiles,
            chunks_per_tile=chunks,
            demand=demand,
            epilogue_cycles=0.0,
            pipeline=PipelineConfig(async_copy=False, depth=1),
            grid_blocks=active_blocks,
            blocks_per_sm=occ,
            l2_hit_rate=0.5,
            bank_conflict_rate=(degree - 1) / degree,
            plan=plan,
        )

    def efficiency(self, d: int) -> float:
        """Fraction of FP64 tensor-core peak sustained at dimensionality d."""
        if not self.supports(d):
            return 0.0
        return TED_EFF64 * (64.0 / max(d, 64)) ** TED_DECAY

    def derived_tflops(self, n: int, d: int) -> float:
        """Kernel-only derived TFLOPS for the brute-force variant (Fig. 9)."""
        if not self.supports(d):
            return 0.0
        return self.efficiency(d) * self.spec.fp64_tc_flops / 1e12

    def kernel_seconds(self, total_pair_work: float, d: int) -> float:
        """Kernel time for ``total_pair_work`` point-pair comparisons.

        The Index variant short-circuits at 8x8-tile granularity, which the
        candidate padding already accounts for; the work here is full-depth
        FP64 MACs over the padded candidate pairs.
        """
        if not self.supports(d):
            return float("inf")
        flops = 2.0 * total_pair_work * d
        return flops / (self.spec.fp64_tc_flops * self.efficiency(d))

    def response_time(
        self, n: int, d: int, *, total_pair_work: float, n_result_pairs: int
    ) -> ResponseTime:
        """End-to-end response time (Figure 10 methodology)."""
        build = (
            grid_build_seconds(self.spec, n, 6) if self.variant == "index" else 0.0
        )
        d2h, store = result_transfer_seconds(self.spec, n_result_pairs)
        return ResponseTime(
            h2d_s=h2d_seconds(self.spec, n, d, 8),
            index_build_s=build,
            kernel_s=self.kernel_seconds(total_pair_work, d),
            d2h_s=d2h,
            host_store_s=store,
            overhead_s=LAUNCH_OVERHEAD_S,
        )
