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
    StreamStats,
    TilePlan,
    candidate_join,
    resolve_batching,
    tile_join,
    tile_rows,
)
from repro.core.results import JoinResult, NeighborResult, PairAccumulator
from repro.data.source import DatasetSource, as_source
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

    def self_join_stream(
        self,
        source: DatasetSource,
        eps: float,
        *,
        store_distances: bool = True,
        row_block: int = 1024,
        memory_budget_bytes: int | None = None,
        acc: PairAccumulator | None = None,
    ) -> tuple[TedJoinResult, StreamStats]:
        """Out-of-core FP64 brute self-join (bit-identical to resident).

        Brute variant only; the index variant's out-of-core mode is
        :meth:`self_join_source`, which builds its grid with the streamed
        ``GridIndex.from_source`` and gathers candidate rows from the
        source.  The tile executor runs over a source-backed operand
        (per-block state is the contiguous FP64 block plus its row
        norms); peak residency is bounded by the
        :class:`~repro.core.engine.TilePlan`.  ``acc`` admits a
        disk-spilling accumulator.
        """
        if self.variant != "brute":
            raise ValueError(
                "brute-variant streaming only; use self_join_source for the "
                "index variant's out-of-core mode"
            )
        source = as_source(source)
        self._check_capacity(source.dim)
        out, stats = tile_join(
            SourceOperand(source, self._block_state),
            float(eps) ** 2,
            row_block=row_block,
            memory_budget_bytes=memory_budget_bytes,
            store_distances=store_distances,
            acc=acc,
        )
        n = source.n
        result = TedJoinResult(
            result=out.finalize(n, float(eps)),
            total_candidates=n * n,
            profile=None,
        )
        return result, stats

    def self_join(
        self,
        data: np.ndarray,
        eps: float,
        *,
        store_distances: bool = True,
        batched: bool | None = None,
        batch_params: dict | None = None,
        row_block: int | None = None,
        plan: TilePlan | None = None,
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

        Raises :class:`MemoryError` when the dimensionality exceeds the
        shared-memory capacity, mirroring the hardware failure.
        """
        data = np.ascontiguousarray(data, dtype=np.float64)
        n, d = data.shape
        self._check_capacity(d)
        operand = ResidentOperand(*self._block_state(data))
        if self.variant == "brute":
            if row_block is None:
                row_block = self.auto_row_block(n, d)
            acc, _stats = tile_join(
                operand,
                float(eps) ** 2,
                plan=plan,
                row_block=row_block,
                store_distances=store_distances,
            )
            return TedJoinResult(
                result=acc.finalize(n, float(eps)),
                total_candidates=n * n,
                profile=None,
            )
        return self._index_self_join(
            GridIndex(data, eps), operand, n, eps,
            store_distances=store_distances,
            batched=batched, batch_params=batch_params,
        )

    def _index_self_join(
        self, index: GridIndex, operand, n: int, eps: float, *,
        store_distances, batched, batch_params, stats=None,
    ) -> TedJoinResult:
        """Index variant: grid candidates, FP64 distances, 8x8 tile padding."""
        batched, params = resolve_batching(batched, index.stats, batch_params)
        total_candidates = 0

        def on_group(members: np.ndarray, candidates: np.ndarray) -> None:
            # WMMA quantization: work is dispatched in 8x8 point tiles.
            nonlocal total_candidates
            padded = (-(-members.size // 8) * 8) * (-(-candidates.size // 8) * 8)
            total_candidates += padded

        acc = candidate_join(
            index.iter_cells(order="size" if batched else "lex"),
            operand,
            float(eps) ** 2,
            batched=batched,
            batch_params=params,
            on_group=on_group,
            store_distances=store_distances,
            stats=stats,
        )
        return TedJoinResult(
            result=acc.finalize(n, float(eps)),
            total_candidates=total_candidates,
            profile=None,
        )

    # ------------------------------------------------------------------
    # Two-source joins and source-backed index joins
    # ------------------------------------------------------------------

    def join(
        self,
        a: np.ndarray,
        b: np.ndarray,
        eps: float,
        *,
        store_distances: bool = True,
        row_block: int | None = None,
        col_block: int | None = None,
    ) -> JoinResult:
        """Two-source FP64 join: pairs ``(i in A, j in B)`` within ``eps``.

        Brute variant: the tile executor with a second operand -- every
        A-row x B-col tile, one pair direction, no diagonal handling.
        Index variant: grid built over **B**, A's points dropped into it
        (``GridIndex.iter_join_groups``), candidates evaluated by the
        candidate executor with a second operand (no self-pair drop --
        equal indices address different points).  Functional path only; the timing models remain self-join-scoped.
        """
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        if a.shape[1] != b.shape[1]:
            raise ValueError("A and B dimensionalities must match")
        d = a.shape[1]
        self._check_capacity(d)
        eps2 = float(eps) ** 2
        left = ResidentOperand(*self._block_state(a))
        right = ResidentOperand(*self._block_state(b))
        if self.variant == "brute":
            if row_block is None:
                row_block = self.auto_row_block(max(a.shape[0], b.shape[0]), d)
            acc, _stats = tile_join(
                left, eps2, right,
                row_block=row_block,
                col_block=col_block,
                store_distances=store_distances,
            )
        else:
            acc = candidate_join(
                GridIndex(b, eps).iter_join_groups(a), left, eps2, right,
                store_distances=store_distances,
            )
        return acc.finalize_join(a.shape[0], b.shape[0], float(eps))

    def join_stream(
        self,
        source_a: DatasetSource,
        source_b: DatasetSource,
        eps: float,
        *,
        store_distances: bool = True,
        row_block: int = 1024,
        col_block: int | None = None,
        memory_budget_bytes: int | None = None,
        acc: PairAccumulator | None = None,
    ) -> tuple[JoinResult, StreamStats]:
        """Out-of-core two-source FP64 join (brute variant; bit-identical
        to :meth:`join` at the same tile plan).

        A's row blocks pin stripe by stripe while B's column blocks stream
        through the tile executor, with prefetch spanning both sources;
        ``acc`` admits a disk-spilling accumulator for outputs larger than
        RAM.
        """
        if self.variant != "brute":
            raise ValueError(
                "brute-variant streaming only; the index variant joins "
                "sources via GridIndex.from_source (see self_join_source)"
            )
        source_a, source_b = as_source(source_a), as_source(source_b)
        self._check_capacity(source_a.dim)
        out, stats = tile_join(
            SourceOperand(source_a, self._block_state),
            float(eps) ** 2,
            SourceOperand(source_b, self._block_state),
            row_block=row_block,
            col_block=col_block,
            memory_budget_bytes=memory_budget_bytes,
            store_distances=store_distances,
            acc=acc,
        )
        return out.finalize_join(source_a.n, source_b.n, float(eps)), stats

    def self_join_source(
        self,
        source: DatasetSource,
        eps: float,
        *,
        store_distances: bool = True,
        row_block: int = 65536,
        memory_budget_bytes: int | None = None,
        batched: bool | None = None,
        batch_params: dict | None = None,
    ) -> tuple[TedJoinResult, StreamStats]:
        """Index-variant self-join against a source (out-of-core grid build).

        The grid is built with ``GridIndex.from_source`` -- streamed
        cell-key encoding plus an external counting sort, never holding
        the ``(n, d)`` dataset -- and the candidate executor gathers
        member/candidate rows on demand with ``source.take`` through a
        :class:`~repro.core.engine.SourceOperand`.  Per-row norms and
        per-group GEMM shapes are unchanged, so the result is
        bit-identical to :meth:`self_join` on the materialized data
        (pinned by tests/test_two_source.py).  ``batched=True`` (or
        ``None`` resolving true from the streamed grid's group moments)
        fuses the groups into padded batch GEMMs with the ``take()``
        gathers batched per flush (pair-set contract, knobs from
        ``GridIndex.stats()`` overridable via ``batch_params``).
        """
        if self.variant != "index":
            raise ValueError(
                "self_join_source is the index variant's source mode; the "
                "brute variant streams via self_join_stream"
            )
        source = as_source(source)
        n, d = int(source.n), int(source.dim)
        self._check_capacity(d)
        plan = TilePlan.for_join(
            n, n, d, row_block=row_block,
            memory_budget_bytes=memory_budget_bytes, symmetric=True,
        )
        row_block = plan.row_block
        stats = StreamStats(plan=plan)
        index = GridIndex.from_source(
            source, eps, row_block=row_block, stats=stats
        )
        result = self._index_self_join(
            index, SourceOperand(source, self._block_state), n, eps,
            store_distances=store_distances, batched=batched,
            batch_params=batch_params, stats=stats,
        )
        return result, stats

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
