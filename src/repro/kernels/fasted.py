"""FaSTED: Fast and Scalable Tensor-core Euclidean Distance (paper Sec. 3).

The kernel has two faces, matching the simulator's design:

* :meth:`FastedKernel.self_join` -- the **functional** path.  Computes the
  actual self-join result with FaSTED's numerics: coordinates quantized to
  FP16, squared norms precomputed with round-toward-zero (Step 1), the
  cross-term GEMM in FP32 accumulation (Step 2), and the recombination
  ``dist^2 = s_i + s_j - 2 a_ij`` in FP32 (Step 3).  The computation is
  blocked exactly like the GPU kernel (128x128 block tiles over 64-dim
  k-chunks); a fragment-exact mode routes every tile through the simulated
  shared memory, ``ldmatrix`` and per-fragment RZ MMA for validation.

* :meth:`FastedKernel.timing` / :meth:`FastedKernel.derived_tflops` -- the
  **timing** path.  Assembles the per-chunk resource demands of one block
  tile from the configuration and optimization flags and resolves seconds /
  TFLOPS / profiler counters through :mod:`repro.gpusim.timing`.

Every optimization of paper Section 3.3 is a flag in
:class:`FastedOptimizations` so the Table-5 leave-one-out study is a loop.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.engine import (
    TilePlan,
    as_operand,
    norm_expansion_sq_dists,
    tile_join,
    tile_rows,
)
from repro.core.results import JoinResult, NeighborResult, PairAccumulator
from repro.data.source import DatasetSource
from repro.fp.fp16 import quantize_fp16
from repro.fp.mma import gemm_fp16_32
from repro.fp.rounding import rz_sum_squares
from repro.gpusim import workqueue
from repro.gpusim.occupancy import blocks_per_sm, fasted_block_resources
from repro.gpusim.pipeline import PipelineConfig
from repro.gpusim.spec import DEFAULT_SPEC, GpuSpec
from repro.gpusim.timing import KernelCost, KernelTiming, ResourceDemand, resolve_timing
from repro.kernels import calibration as cal
from repro.kernels.base import (
    LAUNCH_OVERHEAD_S,
    ResponseTime,
    h2d_seconds,
    result_transfer_seconds,
)


@dataclass(frozen=True)
class FastedOptimizations:
    """The eight §3.3 optimizations as independent flags (paper Table 5)."""

    block_tile_ordering: bool = True  # §3.3.1 L2-friendly work-queue order
    block_tile: bool = True  # §3.3.2 shared-memory block tile
    memcpy_async: bool = True  # §3.3.4 async global->shared copies
    multistage_pipeline: bool = True  # §3.3.5 two-stage copy pipeline
    sm_block_residency: bool = True  # §3.3.6 two blocks per SM
    warp_tile: bool = True  # §3.3.7 64x64 register-reuse warp tile
    swizzle: bool = True  # §3.3.8 XOR-swizzled SMEM layout
    smem_alignment: bool = True  # §3.3.9 128 B-aligned SMEM

    def disable(self, name: str) -> "FastedOptimizations":
        """Copy with one optimization turned off.

        Disabling ``memcpy_async`` also disables the multi-stage pipeline,
        because synchronous copies cannot be pipelined (paper footnote 9).
        """
        if name not in {f.name for f in fields(self)}:
            raise KeyError(f"unknown optimization: {name!r}")
        out = replace(self, **{name: False})
        if name == "memcpy_async":
            out = replace(out, multistage_pipeline=False)
        return out

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def leave_one_out(cls) -> dict[str, "FastedOptimizations"]:
        """The Table-5 study: each optimization disabled in isolation."""
        return {name: cls().disable(name) for name in cls.names()}


@dataclass(frozen=True)
class FastedConfig:
    """Tile/grid geometry (defaults = paper Table 2)."""

    block_points: int = 128  # block tile is block_points x block_points
    block_k: int = 64  # k-chunk depth staged in shared memory
    warp_tile_m: int = 64  # warp tile rows
    warp_tile_n: int = 64  # warp tile cols
    mma_m: int = 16
    mma_n: int = 8
    mma_k: int = 16
    warps_per_block: int = 4
    dispatch_shape: int = 8  # 8x8 block-tile dispatch squares
    blocks_per_sm: int = 2
    pipeline_depth: int = 2
    opts: FastedOptimizations = FastedOptimizations()

    def padded_points(self, n: int) -> int:
        """|D| padded to a multiple of the block tile edge."""
        return -(-n // self.block_points) * self.block_points

    def padded_dims(self, d: int) -> int:
        """Dimensionality padded to a multiple of the k-chunk depth.

        The paper (Section 4.2): dimensionalities that are not a multiple
        of 64 are zero-padded up to the next multiple.
        """
        return -(-d // self.block_k) * self.block_k

    def tile_plan(self, n: int) -> TilePlan:
        """Device block-tile schedule as a shared :class:`TilePlan`.

        The GPU work queue dispatches **every** ``block_points`` tile of
        the padded full grid (nothing is mirrored on the device), which is
        exactly ``TilePlan(symmetric=False)``: the plan covers the real
        ``n`` rows (its last tile is the clipped remainder the device
        zero-pads), and its tile *count* equals the padded grid's because
        both are the ceiling division.  The timing path
        (:meth:`FastedKernel.cost`) takes its ``n_tiles`` from this plan,
        and the functional executor runs the very same plan
        (``FastedKernel.self_join(plan=config.tile_plan(n))``) --
        tests/test_workers.py pins that the two walk identical tile
        counts.
        """
        return TilePlan.square(n, self.block_points, symmetric=False)

    def n_tiles(self, n: int) -> int:
        """Block tiles in the device schedule (= ``tile_plan(n).n_tiles``)."""
        return self.tile_plan(n).n_tiles

    def chunks_per_tile(self, d: int) -> int:
        return self.padded_dims(d) // self.block_k

    def total_flops(self, n: int, d: int) -> float:
        """MACs x2 over the padded all-pairs computation (derived TFLOPS)."""
        np_ = float(self.padded_points(n))
        return 2.0 * np_ * np_ * float(self.padded_dims(d))


class FastedKernel:
    """FaSTED on the simulated GPU: functional results + modeled timing."""

    def __init__(
        self, spec: GpuSpec = DEFAULT_SPEC, config: FastedConfig | None = None
    ) -> None:
        self.spec = spec
        self.config = config or FastedConfig()

    # ------------------------------------------------------------------
    # Functional path
    # ------------------------------------------------------------------

    def precompute_norms(self, data: np.ndarray, *, mode: str = "nearest") -> np.ndarray:
        """Step 1: ``s_i = sum_k p_ik^2`` of the FP16-quantized coordinates.

        The paper computes the norms with round-toward-zero "to match TC
        rounding" -- what matters is that the norm and the GEMM use the
        *same* rounding so the recombination ``s_i + s_j - 2 a_ij`` carries
        no systematic bias.  The fragment-exact path accumulates the GEMM
        with per-step RZ, so it pairs with ``mode="rz"``; the fast NumPy
        GEMM rounds to nearest, so the fast path pairs with
        ``mode="nearest"`` (the default).  Mixing the modes reintroduces
        exactly the one-sided bias the paper's choice avoids -- see
        tests/test_kernels_fasted.py::TestMatchedRounding.
        """
        if mode == "rz":
            return rz_sum_squares(data)
        if mode != "nearest":
            raise ValueError("mode must be 'nearest' or 'rz'")
        q = quantize_fp16(data)
        return (q * q).sum(axis=1, dtype=np.float32)

    def tile_sq_dists(
        self, p_block: np.ndarray, q_block: np.ndarray,
        s_p: np.ndarray, s_q: np.ndarray,
    ) -> np.ndarray:
        """Steps 2-3 for one tile: FP16-32 GEMM + FP32 recombination.

        Returns squared distances, clamped at zero (FP16 rounding can push
        tiny distances negative).
        """
        return norm_expansion_sq_dists(s_p, s_q, gemm_fp16_32(p_block, q_block))

    def auto_row_block(self, n: int, dim: int) -> int:
        """Functional tile edge resolved when ``row_block=None``.

        The cache-fit edge (:func:`repro.core.engine.tile_rows`) at this
        kernel's working itemsizes (FP32 distance tile, FP32 quantized
        operands) and dispatch quantum (``block_points``) -- the single
        source of truth shared by :meth:`self_join`, :meth:`join`, and the
        ``tile_edge`` benchmark entry.
        """
        return tile_rows(
            n, dim, d2_itemsize=4, work_itemsize=4,
            quantum=self.config.block_points,
        )

    def _block_state(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """FaSTED operand preparation: FP16-grid coordinates + Step-1 norms.

        Row-local, so block-wise preparation is value-identical to slicing
        a whole-dataset precompute -- the bit-identity lever behind the
        resident and streamed inputs of every join below.
        """
        q = quantize_fp16(block)  # FP32 values on the FP16 grid
        return q, (q * q).sum(axis=1, dtype=np.float32)

    def self_join(
        self,
        data: np.ndarray | DatasetSource,
        eps: float,
        *,
        store_distances: bool = True,
        row_block: int | None = None,
        plan: TilePlan | None = None,
        memory_budget_bytes: int | None = None,
        acc: PairAccumulator | None = None,
    ) -> NeighborResult:
        """Compute the distance-similarity self-join with FaSTED numerics.

        The tile loop runs on the shared tile executor
        (:func:`repro.core.engine.tile_join`): by default only
        ``c0 >= r0`` tiles are evaluated and off-diagonal tiles are
        mirrored; an explicit ``plan`` (e.g. the device schedule from
        :meth:`FastedConfig.tile_plan`) overrides the geometry.

        Parameters
        ----------
        data:
            ``(n, d)`` dataset; quantized to FP16 internally.  An ndarray
            is prepared once and stays resident; a
            :class:`~repro.data.source.DatasetSource` runs **out of core**:
            row blocks are loaded on demand and quantized and normed per
            block (both row-local, so the values match the resident path
            exactly), only ``O(row_block * d)`` rows stay in memory, and
            the answer is bitwise the resident one at the same plan.
        eps:
            Search radius; pairs with ``dist <= eps`` are returned.
        store_distances:
            Keep the squared distance of each pair (needed by the accuracy
            experiments; costs one float32 per pair).
        row_block:
            Functional blocking factor for the NumPy GEMM -- a performance
            knob only: the pair set is identical for any value (low-order
            distance bits can vary with BLAS tile-shape specialization).
            ``None`` (the default) picks the cache-fit edge of
            :meth:`auto_row_block`, resident or streamed.
        plan:
            Explicit :class:`~repro.core.engine.TilePlan` to execute
            (overrides ``row_block``); used by the timing-unification
            tests to run the device schedule functionally.
        memory_budget_bytes:
            Derive the tile plan from a resident-set budget
            (:meth:`~repro.core.engine.TilePlan.from_budget`) instead of
            ``row_block``.
        acc:
            Emit into this accumulator (e.g. a disk-spilling one) when
            the output itself outgrows memory.

        A run over a source reports its
        :class:`~repro.core.engine.StreamStats` (blocks loaded, observed
        peak resident bytes) as the result's ``stream_stats``.
        """
        operand = as_operand(data, self._block_state)
        if row_block is None:
            row_block = self.auto_row_block(operand.n, operand.dim)
        out, stats = tile_join(
            operand,
            self._eps2(eps),
            plan=plan,
            row_block=row_block,
            memory_budget_bytes=memory_budget_bytes,
            store_distances=store_distances,
            acc=acc,
        )
        return out.finalize(
            operand.n, float(eps), None if operand.resident else stats
        )

    @staticmethod
    def _eps2(eps: float) -> np.float32:
        # Square the radius in FP64 before rounding to FP32 so boundary
        # ties resolve the same way as in an FP64 reference.
        return np.float32(float(eps) ** 2)

    # ------------------------------------------------------------------
    # Two-source joins (A x B)
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
        """Two-source join with FaSTED numerics: pairs ``(i in A, j in B)``.

        The tile executor with a second operand: every tile of the
        A-rows x B-cols grid is evaluated, nothing is mirrored and no
        diagonal is cleared -- equal indices address different points.
        ``row_block``/``col_block`` are performance knobs only for the
        pair set (FP32 low-order distance bits vary with BLAS tile
        shapes, as for the self-join); ``None`` picks the cache-fit edge
        of :meth:`auto_row_block`.  Either side may be a
        :class:`~repro.data.source.DatasetSource`: A's row blocks are
        then pinned stripe by stripe while B's column blocks stream
        through, with prefetch spanning both sources, bitwise equal to
        the resident join at the same plan.  ``memory_budget_bytes`` and
        ``acc`` are as for :meth:`self_join`.
        """
        left = as_operand(a, self._block_state)
        right = as_operand(b, self._block_state)
        if row_block is None:
            row_block = self.auto_row_block(max(left.n, right.n), left.dim)
        out, stats = tile_join(
            left,
            self._eps2(eps),
            right,
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

    # ------------------------------------------------------------------
    # Timing path
    # ------------------------------------------------------------------

    def _grid_blocks(self) -> int:
        per_sm = self.config.blocks_per_sm if self.config.opts.sm_block_residency else 1
        return self.spec.sm_count * per_sm

    def _occupancy(self) -> int:
        per_sm = self.config.blocks_per_sm if self.config.opts.sm_block_residency else 1
        res = fasted_block_resources(
            block_points=self.config.block_points,
            block_k=self.config.block_k,
            pipeline_depth=self.config.pipeline_depth
            if self.config.opts.multistage_pipeline
            else 1,
            warps_per_block=self.config.warps_per_block,
            warp_tile_m=self.config.warp_tile_m,
            warp_tile_n=self.config.warp_tile_n,
            async_copy=self.config.opts.memcpy_async,
        )
        return min(per_sm, max(1, blocks_per_sm(self.spec, res)))

    def _demand(self, active_blocks_per_sm: int) -> ResourceDemand:
        cfg = self.config
        opts = cfg.opts
        bp, bk = cfg.block_points, cfg.block_k
        # Tensor-core cycles: this chunk's MACs at the block's share of the
        # SM's tensor throughput.
        flops = 2.0 * bp * bp * bk
        per_block_rate = (
            self.spec.fp16_tc_flops_per_cycle_per_sm / active_blocks_per_sm
        )
        tc = flops / per_block_rate

        # ldmatrix traffic: each warp reads its warp tile's P and Q k-slices.
        n_warps = cfg.warps_per_block
        warp_bytes = (cfg.warp_tile_m + cfg.warp_tile_n) * bk * 2
        smem_read = warp_bytes * n_warps
        issue = cal.ISSUE_CYCLES_PER_CHUNK
        mma_count = (
            (cfg.warp_tile_m // cfg.mma_m)
            * (cfg.warp_tile_n // cfg.mma_n)
            * (bk // cfg.mma_k)
            * n_warps
        )
        if not opts.warp_tile:
            # No register reuse: every MMA reloads both operand fragments
            # and stalls on the dependent load.
            smem_read *= cal.NO_WARP_TILE_SMEM_FACTOR
            issue += mma_count * 1.5
        conflict_mult = 1.0
        if not (opts.swizzle and opts.smem_alignment):
            # 8-way ldmatrix conflicts, partially hidden by the scheduler.
            conflict_mult = 1.0 + 7.0 * cal.CONFLICT_EXPOSURE
        ld_rate = (
            cal.LDMATRIX_BYTES_PER_CYCLE_PER_SM / active_blocks_per_sm
        )
        smem_load = smem_read * conflict_mult / ld_rate
        stall = 0.0
        if not opts.warp_tile:
            stall = mma_count / n_warps * cal.NO_WARP_TILE_STALL_PER_MMA

        gmem = 2.0 * bp * bk * 2  # P^bf + Q^bf, FP16
        smem_store = gmem
        if not opts.block_tile:
            gmem *= cal.NO_BLOCK_TILE_TRAFFIC_FACTOR
            smem_store *= cal.NO_BLOCK_TILE_TRAFFIC_FACTOR

        return ResourceDemand(
            tc_cycles=tc,
            smem_load_cycles=smem_load + stall,
            issue_cycles=issue,
            gmem_bytes=gmem,
            smem_store_bytes=smem_store,
        )

    def _exposed_tile_latency(self, chunk_iter_compute: float, occupancy: int) -> float:
        """Per-tile serialized latency after co-resident-block hiding.

        With two blocks per SM, one block's queue-pop/drain/epilogue latency
        is hidden behind the other block's busy cycles; when the co-resident
        work (or the co-resident block itself) is absent, the latency is
        exposed -- which is both the low-d droop of Figure 8 and most of the
        SM-residency ablation of Table 5.
        """
        hidden = 0.0
        if occupancy >= 2:
            hidden = cal.TILE_LATENCY_HIDE * chunk_iter_compute
        return max(cal.TILE_LATENCY_CYCLES - hidden, cal.TILE_LATENCY_MIN_CYCLES)

    def cost(self, n: int, d: int) -> KernelCost:
        """Assemble the whole-kernel cost description for |D|=n, dims=d.

        The tile schedule comes from the same :class:`TilePlan` geometry
        the functional executor runs (:meth:`FastedConfig.tile_plan` --
        the full-grid device schedule), so the modeled ``n_tiles`` can
        never drift from what a functional run of that plan executes.
        """
        cfg = self.config
        occ = self._occupancy()
        demand = self._demand(occ)
        chunks = cfg.chunks_per_tile(d)
        plan = cfg.tile_plan(n)
        n_tiles = plan.n_tiles
        l2_hit = workqueue.analytic_l2_hit_rate(
            cfg.padded_points(n),
            cfg.padded_dims(d),
            tile_points=cfg.block_points,
            square=cfg.opts.block_tile_ordering,
            shape=cfg.dispatch_shape,
            l2_size_bytes=self.spec.l2_size_bytes,
        )
        pipe = PipelineConfig(
            async_copy=cfg.opts.memcpy_async,
            depth=cfg.pipeline_depth if cfg.opts.multistage_pipeline else 1,
        )
        busy = chunks * (demand.tc_cycles + demand.smem_load_cycles)
        epilogue = cal.EPILOGUE_CYCLES + self._exposed_tile_latency(busy, occ)
        conflict_rate = 0.0
        if not (cfg.opts.swizzle and cfg.opts.smem_alignment):
            conflict_rate = 1.0 - 1.0 / 8.0
        return KernelCost(
            n_tiles=n_tiles,
            chunks_per_tile=chunks,
            demand=demand,
            epilogue_cycles=epilogue,
            pipeline=pipe,
            grid_blocks=self._grid_blocks(),
            blocks_per_sm=occ,
            l2_hit_rate=l2_hit,
            fixed_overhead_s=cal.FIXED_KERNEL_OVERHEAD_S,
            bank_conflict_rate=conflict_rate,
            plan=plan,
        )

    def timing(self, n: int, d: int) -> KernelTiming:
        """Resolve the kernel timing for a brute-force self-join."""
        return resolve_timing(self.spec, self.cost(n, d))

    def derived_tflops(self, n: int, d: int) -> float:
        """The paper's kernel-only derived TFLOPS metric (Figures 8-9)."""
        t = self.timing(n, d)
        return t.derived_tflops(self.config.total_flops(n, d))

    def response_time(self, n: int, d: int, n_result_pairs: int) -> ResponseTime:
        """End-to-end response time (Figure 10 methodology).

        Includes host->device transfer of the FP16 dataset, the norms
        precompute pass, the main kernel, and moving/storing the result
        pairs on the host.
        """
        t = self.timing(n, d)
        norms_s = (
            n * d * 2 / self.spec.dram_bandwidth + LAUNCH_OVERHEAD_S
        )
        d2h, store = result_transfer_seconds(self.spec, n_result_pairs)
        return ResponseTime(
            h2d_s=h2d_seconds(self.spec, n, d, 2),
            index_build_s=norms_s,
            kernel_s=t.seconds,
            d2h_s=d2h,
            host_store_s=store,
            overhead_s=LAUNCH_OVERHEAD_S,
        )
