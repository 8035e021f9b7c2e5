"""Tests for two-source (A x B) joins and their out-of-core companions:
the tile executor with a second operand over a rectangular TilePlan
(repro.core.engine.tile_join), the disk-spilling PairAccumulator, the
out-of-core grid/tree builds (GridIndex.from_source /
MultiSpaceTree.from_source) and the kernels' source-backed joins.

Contracts pinned here:

* A streamed ``A x B`` join is **bit-identical** to the resident one at
  the same tile plan (per-block preparation is row-local, per-tile GEMM
  shapes are unchanged) -- including from mmap/chunked sources larger than
  the memory budget, whose observed peak residency must stay under it.
* A spilling ``PairAccumulator`` yields exactly the arrays a non-spilling
  run yields, while its resident buffer stays bounded.
* ``GridIndex.from_source`` (streamed cell-key encoding + external
  counting sort) groups points exactly like the in-memory constructor, so
  the index kernels' ``self_join`` over a source is bit-identical to
  their in-memory self-join.
* Index-backed two-source joins produce the same pair set as the exact
  FP64 brute-force two-source join.
"""

import numpy as np
import pytest

from repro.core.api import join, join_stream, self_join
from repro.core.engine import (
    SOURCE_BUILD_ROWS,
    ResidentOperand,
    TilePlan,
    candidate_join,
    tile_join,
)
from repro.core.results import JoinResult, PairAccumulator
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.source import (
    ArraySource,
    MmapNpySource,
    write_chunked_npy,
)
from repro.index.grid import GridIndex
from repro.index.mstree import MultiSpaceTree
from repro.kernels.fasted import FastedKernel
from repro.kernels.gdsjoin import GdsJoinKernel
from repro.kernels.mistic import MisticKernel
from repro.kernels.reference import canon, joins_bit_identical
from repro.kernels.tedjoin import TedJoinKernel

_CENTER_SEED = 42


def _dataset(d, n=400, seed=0):
    rng = np.random.default_rng(_CENTER_SEED)
    centers = rng.normal(0, 4, size=(6, d))
    rng = np.random.default_rng(seed)
    return centers[rng.integers(0, 6, n)] + rng.normal(0, 0.5, size=(n, d))


def _pair(d, n_a=350, n_b=300, seed=0):
    """Two datasets drawn over the same cluster centers (so they join)."""
    return _dataset(d, n_a, seed), _dataset(d, n_b, seed + 1)


def _eps(a, b, target=12):
    return float(epsilon_for_selectivity(np.vstack((a, b)), target))


def _fp64_operand(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    return ResidentOperand(x, (x * x).sum(axis=1))


def _budget_for_rows(rows, d):
    """The memory budget whose plan has a ``rows``-row block edge."""
    return TilePlan.RESIDENT_BLOCKS * rows * (d + 1) * 8


def _assert_bitwise_equal(x, y):
    """Pairs in emission order and their distance bits."""
    np.testing.assert_array_equal(x.pairs_i, y.pairs_i)
    np.testing.assert_array_equal(x.pairs_j, y.pairs_j)
    np.testing.assert_array_equal(
        x.sq_dists.view(np.uint32), y.sq_dists.view(np.uint32)
    )


def assert_pair_sets_equal(x, y):
    xi, xj, _ = canon(x)
    yi, yj, _ = canon(y)
    np.testing.assert_array_equal(xi, yi)
    np.testing.assert_array_equal(xj, yj)


def _brute_fp64_pairs(a, b, eps):
    """Dense FP64 reference: the ground-truth pair set of A x B."""
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    ii, jj = np.nonzero(d2 <= eps * eps)
    return ii.astype(np.int64), jj.astype(np.int64)


# ----------------------------------------------------------------------
# Rectangular TilePlan
# ----------------------------------------------------------------------


class TestRectTilePlan:
    def test_matches_in_memory_tiling(self):
        plan = TilePlan(n_rows=500, n_cols=700, row_block=128, col_block=96)
        from_plan = [
            (*plan.row_bounds(ri), *plan.col_bounds(cj))
            for ri, cj in plan.tiles()
        ]
        expect = [
            (r0, min(r0 + 128, 500), c0, min(c0 + 96, 700))
            for r0 in range(0, 500, 128)
            for c0 in range(0, 700, 96)
        ]
        assert from_plan == expect == list(plan.tile_bounds())
        assert plan.n_tiles == len(expect)
        assert plan.n_row_blocks == 4 and plan.n_col_blocks == 8

    def test_from_budget_respects_bound(self):
        plan = TilePlan.from_budget(10_000, 8_000, 64, 1 << 20)
        assert plan.peak_resident_bytes(64) <= 1 << 20
        assert plan.row_block >= 1 and plan.col_block >= 1

    def test_tiny_budget_still_progresses(self):
        plan = TilePlan.from_budget(50, 60, 4096, 1024)
        assert plan.row_block == 1 and plan.col_block == 1
        assert plan.n_tiles == 50 * 60

    def test_invalid(self):
        with pytest.raises(ValueError):
            TilePlan(n_rows=10, n_cols=10, row_block=0, col_block=4)
        with pytest.raises(ValueError):
            TilePlan.from_budget(10, 10, 8, 0)


# ----------------------------------------------------------------------
# Rectangular executor correctness
# ----------------------------------------------------------------------


class TestRectJoin:
    def test_matches_dense_reference(self):
        a, b = _pair(16, n_a=120, n_b=90, seed=3)
        eps = _eps(a, b, 8)
        acc, _ = tile_join(
            _fp64_operand(a), eps * eps, _fp64_operand(b), row_block=37
        )
        got = acc.finalize_join(a.shape[0], b.shape[0], eps)
        ii, jj = _brute_fp64_pairs(a, b, eps)
        gi, gj, _ = canon(got)
        np.testing.assert_array_equal(gi, ii)
        np.testing.assert_array_equal(gj, jj)

    def test_equal_indices_not_dropped(self):
        """(i, i) relates different points across sets -- must be kept."""
        a = np.zeros((3, 4))
        b = np.zeros((3, 4))
        acc, _ = tile_join(_fp64_operand(a), 0.5, _fp64_operand(b), row_block=2)
        res = acc.finalize_join(3, 3, 1.0)
        assert res.pairs_i.size == 9  # all pairs, diagonal included

    def test_join_result_properties(self):
        res = JoinResult(
            n_left=4, n_right=5, eps=1.0,
            pairs_i=np.array([0, 0, 2]), pairs_j=np.array([1, 2, 0]),
        )
        assert res.selectivity == pytest.approx(0.75)
        np.testing.assert_array_equal(res.match_counts(), [2, 0, 1, 0])


# ----------------------------------------------------------------------
# Two-source streaming bit-identity
# ----------------------------------------------------------------------


class TestStreamingJoinBitIdentity:
    def test_fasted_array_sources(self):
        a, b = _pair(48)
        eps = _eps(a, b)
        mem = FastedKernel().join(a, b, eps, row_block=100)
        got = FastedKernel().join(
            ArraySource(a), ArraySource(b), eps, row_block=100
        )
        stats = got.stream_stats
        assert mem.stream_stats is None
        assert joins_bit_identical(mem, got)
        assert stats.tiles_evaluated == stats.plan.n_tiles
        # Every stripe loads A's block once plus all of B's blocks.
        nbr, nbc = stats.plan.n_row_blocks, stats.plan.n_col_blocks
        assert stats.blocks_loaded == nbr * (1 + nbc)

    def test_fasted_mmap_larger_than_budget(self, tmp_path):
        """The headline contract: data > budget, bit-identical, bounded."""
        a, b = _pair(64, n_a=700, n_b=600, seed=5)
        path_a, path_b = tmp_path / "a.npy", tmp_path / "b.npy"
        np.save(path_a, a)
        np.save(path_b, b)
        src_a, src_b = MmapNpySource(path_a), MmapNpySource(path_b)
        budget = 128 * 1024
        assert src_a.nbytes + src_b.nbytes > budget
        plan = TilePlan.from_budget(a.shape[0], b.shape[0], 64, budget)
        eps = _eps(a, b)
        mem = FastedKernel().join(
            a, b, eps, row_block=plan.row_block, col_block=plan.col_block
        )
        got = FastedKernel().join(src_a, src_b, eps, memory_budget_bytes=budget)
        assert joins_bit_identical(mem, got)
        assert got.stream_stats.peak_resident_bytes <= budget

    def test_ted_brute_chunked(self, tmp_path):
        a, b = _pair(32, seed=7)
        src_a = write_chunked_npy(tmp_path / "a", a, rows_per_chunk=64)
        src_b = write_chunked_npy(tmp_path / "b", b, rows_per_chunk=80)
        eps = _eps(a, b)
        mem = TedJoinKernel(variant="brute").join(a, b, eps, row_block=90)
        got = TedJoinKernel(variant="brute").join(
            src_a, src_b, eps, row_block=90
        )
        assert joins_bit_identical(mem, got)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            FastedKernel().join(
                ArraySource(_dataset(8, n=10)), ArraySource(_dataset(9, n=10)), 1.0
            )

    def test_independent_block_schedules(self):
        """Rectangular plans honor distinct row/col block sizes."""
        a, b = _pair(16, n_a=130, n_b=210, seed=11)
        eps = _eps(a, b)
        got = FastedKernel().join(
            ArraySource(a), ArraySource(b), eps, row_block=50, col_block=70
        )
        stats = got.stream_stats
        assert stats.plan.row_block == 50 and stats.plan.col_block == 70
        mem = FastedKernel().join(a, b, eps, row_block=50, col_block=70)
        assert joins_bit_identical(mem, got)


# ----------------------------------------------------------------------
# PairAccumulator disk spill
# ----------------------------------------------------------------------


class TestAccumulatorSpill:
    def _random_appends(self, acc, seed=0, rounds=30):
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            m = int(rng.integers(1, 400))
            i = rng.integers(0, 10_000, m)
            j = rng.integers(0, 10_000, m)
            d = rng.random(m).astype(np.float32)
            acc.append(i, j, d)

    def test_spill_transparent(self, tmp_path):
        plain = PairAccumulator()
        spill = PairAccumulator(
            spill_threshold_bytes=4096, spill_dir=tmp_path / "spill"
        )
        self._random_appends(plain)
        self._random_appends(spill)
        assert spill.n_spill_chunks > 0
        assert len(spill) == len(plain)
        # Resident buffer stays bounded while chunks land on disk.
        assert spill.nbytes < plain.nbytes
        pi, pj, pd = plain.arrays()
        si, sj, sd = spill.arrays()
        np.testing.assert_array_equal(pi, si)
        np.testing.assert_array_equal(pj, sj)
        assert np.array_equal(pd.view(np.uint32), sd.view(np.uint32))

    def test_iter_chunks_covers_everything(self, tmp_path):
        spill = PairAccumulator(
            spill_threshold_bytes=2048, spill_dir=tmp_path / "spill"
        )
        self._random_appends(spill, seed=1)
        total = sum(i.size for i, _j, _d in spill.iter_chunks())
        assert total == len(spill)

    def test_cleanup_removes_chunks(self, tmp_path):
        d = tmp_path / "spill"
        spill = PairAccumulator(spill_threshold_bytes=1024, spill_dir=d)
        self._random_appends(spill, seed=2, rounds=10)
        assert any(d.iterdir())
        spill.cleanup()
        assert not any(d.iterdir())

    def test_finalize_join_spilled(self, tmp_path):
        spill = PairAccumulator(
            spill_threshold_bytes=1024, spill_dir=tmp_path / "spill"
        )
        plain = PairAccumulator()
        self._random_appends(spill, seed=3, rounds=12)
        self._random_appends(plain, seed=3, rounds=12)
        a = spill.finalize_join(10_000, 10_000, 1.0)
        b = plain.finalize_join(10_000, 10_000, 1.0)
        assert joins_bit_identical(a, b)
        assert not any((tmp_path / "spill").iterdir())  # finalize cleans up

    def test_no_store_distances(self, tmp_path):
        spill = PairAccumulator(
            store_distances=False,
            spill_threshold_bytes=1024,
            spill_dir=tmp_path / "spill",
        )
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(1, 200))
            spill.append(rng.integers(0, 100, m), rng.integers(0, 100, m))
        i, j, d = spill.arrays()
        assert i.size == len(spill) and d.size == 0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PairAccumulator(spill_threshold_bytes=0)

    def test_streaming_join_with_spill_bit_identical(self, tmp_path):
        a, b = _pair(32, seed=13)
        eps = _eps(a, b)
        mem = FastedKernel().join(a, b, eps, row_block=80)
        acc = PairAccumulator(
            spill_threshold_bytes=16 * 1024, spill_dir=tmp_path / "spill"
        )
        got = FastedKernel().join(
            ArraySource(a), ArraySource(b), eps, row_block=80, acc=acc
        )
        assert joins_bit_identical(mem, got)


# ----------------------------------------------------------------------
# Out-of-core grid / tree builds
# ----------------------------------------------------------------------


class TestFromSourceIndexes:
    def test_grid_identical_grouping(self):
        data = _dataset(24, n=500, seed=15)
        eps = float(epsilon_for_selectivity(data, 10))
        mem = GridIndex(data, eps)
        src = GridIndex.from_source(ArraySource(data), eps, row_block=61)
        np.testing.assert_array_equal(mem.order, src.order)
        np.testing.assert_array_equal(mem._sort, src._sort)
        np.testing.assert_array_equal(mem._unique, src._unique)
        for (ma, ca), (mb, cb) in zip(mem.iter_cells(), src.iter_cells()):
            np.testing.assert_array_equal(ma, mb)
            np.testing.assert_array_equal(ca, cb)
        assert mem.stats() == src.stats()

    def test_grid_from_chunked_path(self, tmp_path):
        data = _dataset(16, n=300, seed=16)
        eps = float(epsilon_for_selectivity(data, 8))
        write_chunked_npy(tmp_path / "chunks", data, rows_per_chunk=47)
        mem = GridIndex(data, eps)
        src = GridIndex.from_source(tmp_path / "chunks", eps, row_block=53)
        np.testing.assert_array_equal(mem._sort, src._sort)

    def test_grid_build_accounts_stats(self):
        from repro.core.engine import StreamStats

        data = _dataset(16, n=200, seed=17)
        eps = float(epsilon_for_selectivity(data, 8))
        stats = StreamStats(plan=TilePlan.square(200, 50))
        GridIndex.from_source(ArraySource(data), eps, row_block=50, stats=stats)
        assert stats.blocks_loaded > 0
        # One block resident at a time during the build passes.
        assert stats.peak_resident_bytes <= 50 * 16 * 8

    def test_tree_identical_levels(self):
        data = _dataset(16, n=400, seed=18)
        eps = float(epsilon_for_selectivity(data, 8))
        mem = MultiSpaceTree(data, eps)
        src = MultiSpaceTree.from_source(ArraySource(data), eps, row_block=77)
        assert [(l.kind, l.param) for l in mem.levels] == [
            (l.kind, l.param) for l in src.levels
        ]
        for lm, ls in zip(mem.levels, src.levels):
            np.testing.assert_array_equal(lm.bins, ls.bins)
        assert mem.construction_evaluations == src.construction_evaluations


# ----------------------------------------------------------------------
# Source-backed kernel self-joins (bit-identity with in-memory)
# ----------------------------------------------------------------------


class TestKernelSelfJoinSource:
    @pytest.fixture()
    def data_eps(self):
        data = _dataset(32, n=450, seed=19)
        return data, float(epsilon_for_selectivity(data, 10))

    def test_gds_join(self, data_eps, tmp_path):
        data, eps = data_eps
        src = write_chunked_npy(tmp_path / "chunks", data, rows_per_chunk=96)
        mem = GdsJoinKernel().self_join(data, eps)
        got = GdsJoinKernel().self_join(
            src, eps, memory_budget_bytes=_budget_for_rows(96, data.shape[1])
        )
        _assert_bitwise_equal(mem.result, got.result)
        assert mem.total_candidates == got.total_candidates
        assert mem.n_indexed_dims == got.n_indexed_dims
        assert mem.result.stream_stats is None
        stats = got.result.stream_stats
        assert stats.plan.row_block == 96 and stats.blocks_loaded > 0

    def test_ted_index(self, data_eps):
        data, eps = data_eps
        mem = TedJoinKernel(variant="index").self_join(data, eps)
        got = TedJoinKernel(variant="index").self_join(
            ArraySource(data), eps,
            memory_budget_bytes=_budget_for_rows(128, data.shape[1]),
        )
        _assert_bitwise_equal(mem.result, got.result)
        assert mem.total_candidates == got.total_candidates
        assert got.result.stream_stats.blocks_loaded > 0

    def test_mistic(self, data_eps):
        data, eps = data_eps
        mem = MisticKernel().self_join(data, eps)
        got = MisticKernel().self_join(
            ArraySource(data), eps,
            memory_budget_bytes=_budget_for_rows(128, data.shape[1]),
        )
        _assert_bitwise_equal(mem.result, got.result)
        assert mem.construction_evaluations == got.construction_evaluations
        assert got.result.stream_stats.blocks_loaded > 0

    def test_memory_budget_sets_row_block(self, data_eps):
        data, eps = data_eps
        got = GdsJoinKernel().self_join(
            ArraySource(data), eps, memory_budget_bytes=64 * 1024
        )
        stats = got.result.stream_stats
        assert stats.plan.peak_resident_bytes(data.shape[1]) <= 64 * 1024
        mem = GdsJoinKernel().self_join(data, eps)
        assert joins_bit_identical(mem.result, got.result)

    def test_default_build_block(self, data_eps):
        """Without a budget the source build reads SOURCE_BUILD_ROWS-row
        passes, clamped to the source: 450 rows are one pass of 450."""
        data, eps = data_eps
        got = GdsJoinKernel().self_join(ArraySource(data), eps)
        assert data.shape[0] < SOURCE_BUILD_ROWS
        assert got.result.stream_stats.plan.row_block == data.shape[0]

    @pytest.mark.parametrize("kernel", [
        GdsJoinKernel, lambda: TedJoinKernel(variant="index"), MisticKernel,
    ], ids=["gds-join", "ted-join-index", "mistic"])
    def test_reported_plan_is_the_one_that_ran(self, data_eps, kernel):
        """The unbudgeted plan's edge never exceeds the data, so the
        residency the plan claims is bounded by the data's own size."""
        data, eps = data_eps
        n, d = data.shape
        stats = kernel().self_join(ArraySource(data), eps).result.stream_stats
        assert stats.plan.row_block <= n and stats.plan.col_block <= n
        assert stats.plan.peak_resident_bytes(d) <= (
            stats.plan.RESIDENT_BLOCKS * n * (d + 1) * 8
        )


class TestBatchedSourceExecutor:
    """Batched take() gathers through the padded-GEMM path: the source-
    backed batched executor must reproduce the in-memory batched join's
    pair set (the batched executor's own contract)."""

    @pytest.fixture()
    def data_eps(self):
        data = _dataset(24, n=600, seed=23)
        return data, float(epsilon_for_selectivity(data, 8))

    def test_gds_batched_source(self, data_eps, tmp_path):
        data, eps = data_eps
        src = write_chunked_npy(tmp_path / "chunks", data, rows_per_chunk=128)
        mem = GdsJoinKernel().self_join(data, eps, batched=True)
        got = GdsJoinKernel().self_join(src, eps, batched=True)
        assert_pair_sets_equal(mem.result, got.result)
        assert mem.total_candidates == got.total_candidates
        assert got.result.stream_stats.blocks_loaded > 0

    def test_ted_index_batched_source(self, data_eps):
        data, eps = data_eps
        mem = TedJoinKernel(variant="index").self_join(data, eps, batched=True)
        got = TedJoinKernel(variant="index").self_join(
            ArraySource(data), eps, batched=True
        )
        # FP64: the batched executor agrees bitwise in practice, but the
        # contract (and this pin) is the pair set.
        assert_pair_sets_equal(mem.result, got.result)

    def test_mistic_batched_source(self, data_eps):
        data, eps = data_eps
        mem = MisticKernel().self_join(data, eps, batched=True)
        got = MisticKernel().self_join(ArraySource(data), eps, batched=True)
        assert_pair_sets_equal(mem.result, got.result)

    def test_source_view_matches_unbatched(self, data_eps, tmp_path):
        """Source-backed batched == per-group source path, pair-set-wise."""
        data, eps = data_eps
        np.save(tmp_path / "d.npy", data)
        src = MmapNpySource(tmp_path / "d.npy")
        plain = GdsJoinKernel().self_join(src, eps)
        batched = GdsJoinKernel().self_join(src, eps, batched=True)
        assert_pair_sets_equal(plain.result, batched.result)

    def test_batched_candidate_join_two_source(self, data_eps):
        """External queries: the candidate executor's batched mode matches
        its per-group mode on the same groups."""
        data, eps = data_eps
        rng = np.random.default_rng(7)
        queries = data[rng.integers(0, data.shape[0], 200)] + rng.normal(
            0, eps / (4 * data.shape[1] ** 0.5), size=(200, data.shape[1])
        )
        index = GridIndex(data, eps)
        left, right = _fp64_operand(queries), _fp64_operand(data)
        eps2 = float(eps) ** 2
        plain, batched = (
            candidate_join(
                index.iter_join_groups(queries), left, eps2, right, batched=mode
            ).finalize_join(200, data.shape[0], eps)
            for mode in (False, True)
        )
        assert_pair_sets_equal(plain, batched)


# ----------------------------------------------------------------------
# Two-source index-backed joins vs the exact brute reference
# ----------------------------------------------------------------------


class TestTwoSourceIndexJoins:
    @pytest.fixture()
    def ab_eps(self):
        a, b = _pair(24, n_a=300, n_b=260, seed=21)
        # Place eps in the middle of a wide gap of the A x B distance
        # distribution: the FP32 methods (mistic, gds-fp32) round d2 by
        # ~1e-4 at these magnitudes, so a boundary-adjacent eps could
        # legitimately flip a pair vs the FP64 reference.  Mid-gap, all
        # precisions agree on the pair set.
        d2 = np.sort(
            ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2).ravel()
        )
        lo = int(a.shape[0] * 8)  # ~8 matches per query point
        window = np.diff(d2[lo : lo + 2000])
        k = lo + int(np.argmax(window))
        eps = float(np.sqrt((d2[k] + d2[k + 1]) / 2.0))
        return a, b, eps

    def test_ted_index_pair_set(self, ab_eps):
        a, b, eps = ab_eps
        brute = TedJoinKernel(variant="brute").join(a, b, eps)
        idx = TedJoinKernel(variant="index").join(a, b, eps)
        assert joins_bit_identical(brute, idx)  # FP64: even distances match

    def test_gds_fp64_pair_set(self, ab_eps):
        a, b, eps = ab_eps
        brute = TedJoinKernel(variant="brute").join(a, b, eps)
        gds = GdsJoinKernel(precision="fp64").join(a, b, eps)
        assert_pair_sets_equal(brute, gds)

    def test_mistic_pair_set(self, ab_eps):
        a, b, eps = ab_eps
        brute = TedJoinKernel(variant="brute").join(a, b, eps)
        mistic = MisticKernel().join(a, b, eps)
        assert_pair_sets_equal(brute, mistic)

    def test_candidate_join_keeps_equal_indices(self):
        """The two-source group executor must not drop (i, i) pairs."""
        groups = [(np.array([0, 1]), np.array([0, 1]))]
        zeros = _fp64_operand(np.zeros((2, 3)))
        assert len(candidate_join(groups, zeros, 0.5, zeros)) == 4
        assert len(candidate_join(groups, zeros, 0.5)) == 2  # self-join drops (i, i)


# ----------------------------------------------------------------------
# API-level two-source joins
# ----------------------------------------------------------------------


class TestApiJoin:
    def test_stream_flag_matches_in_memory(self):
        a, b = _pair(32, seed=23)
        eps = _eps(a, b)
        mem = join(a, b, eps)
        streamed = join(a, b, eps, stream=True)
        assert joins_bit_identical(mem, streamed)

    def test_from_paths_with_budget(self, tmp_path):
        a, b = _pair(32, n_a=320, n_b=280, seed=25)
        eps = _eps(a, b)
        path_a = tmp_path / "a.npy"
        np.save(path_a, a)
        src_b = write_chunked_npy(tmp_path / "b", b, rows_per_chunk=64)
        budget = 96 * 1024
        plan = TilePlan.from_budget(a.shape[0], b.shape[0], 32, budget)
        mem = FastedKernel().join(
            a, b, eps, row_block=plan.row_block, col_block=plan.col_block
        )
        got = join(path_a, src_b.directory, eps, memory_budget_bytes=budget)
        assert joins_bit_identical(mem, got)
        assert got.stream_stats.peak_resident_bytes <= budget

    def test_memory_budget_implies_stream(self):
        a, b = _pair(24, seed=27)
        eps = _eps(a, b)
        got = join(a, b, eps, memory_budget_bytes=64 * 1024)
        mem = join(a, b, eps, stream=True, memory_budget_bytes=64 * 1024)
        assert joins_bit_identical(mem, got)
        with pytest.raises(ValueError):
            join(a, b, eps, stream=False, memory_budget_bytes=1 << 20)

    def test_all_methods_agree_on_pair_set(self):
        a, b = _pair(24, n_a=220, n_b=200, seed=29)
        eps = _eps(a, b, 8)
        truth = join(a, b, eps, method="ted-join-brute")
        for method in ("ted-join-index", "gds-join", "mistic"):
            assert_pair_sets_equal(truth, join(a, b, eps, method=method))

    def test_stream_rejected_for_index_methods(self):
        a, b = _pair(16, n_a=50, n_b=50)
        with pytest.raises(ValueError):
            join(a, b, 1.0, method="gds-join", stream=True)
        with pytest.raises(ValueError):
            join_stream(a, b, 1.0, method="mistic")

    def test_join_vs_self_join_consistency(self):
        """join(data, data) must contain self_join(data) plus the diagonal."""
        data = _dataset(24, n=180, seed=33)
        eps = float(epsilon_for_selectivity(data, 8))
        sj = self_join(data, eps, method="ted-join-brute")
        jj = join(data, data, eps, method="ted-join-brute")
        # Two-source keeps the diagonal: n extra pairs, same off-diagonal set.
        assert jj.pairs_i.size == sj.pairs_i.size + data.shape[0]
        off = jj.pairs_i != jj.pairs_j
        got = JoinResult(
            n_left=data.shape[0], n_right=data.shape[0], eps=eps,
            pairs_i=jj.pairs_i[off], pairs_j=jj.pairs_j[off],
            sq_dists=jj.sq_dists[off],
        )
        assert_pair_sets_equal(sj, got)

    def test_spill_through_api(self, tmp_path):
        a, b = _pair(24, seed=35)
        eps = _eps(a, b)
        mem = join(a, b, eps, method="ted-join-brute")
        got = join(
            a, b, eps, method="ted-join-brute", stream=True,
            spill_threshold_bytes=8 * 1024, spill_dir=tmp_path / "spill",
        )
        # Same tile plan (default row_block), so bit-identical through spill.
        assert joins_bit_identical(mem, got)


# ----------------------------------------------------------------------
# CLI two-source form
# ----------------------------------------------------------------------


class TestCliTwoSource:
    def _write_pair(self, tmp_path):
        a, b = _pair(16, n_a=200, n_b=150, seed=37)
        write_chunked_npy(tmp_path / "a", a, rows_per_chunk=64)
        write_chunked_npy(tmp_path / "b", b, rows_per_chunk=64)
        return tmp_path / "a", tmp_path / "b"

    def test_two_chunked_sources_stream(self, tmp_path, capsys):
        from repro.cli import main

        pa, pb = self._write_pair(tmp_path)
        assert main([
            "join", str(pa), str(pb), "--stream", "--memory-budget", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "datasets: A n=200, B n=150" in out
        assert "streaming:" in out and "peak resident blocks" in out

    def test_stream_index_method_rejected(self, tmp_path):
        from repro.cli import main

        pa, pb = self._write_pair(tmp_path)
        with pytest.raises(SystemExit):
            main(["join", str(pa), str(pb), "--method", "gds-join", "--stream"])

    def test_batched_two_source_rejected(self, tmp_path):
        from repro.cli import main

        pa, pb = self._write_pair(tmp_path)
        with pytest.raises(SystemExit):
            main(["join", str(pa), str(pb), "--method", "gds-join", "--batched"])

    def test_data_flag_is_gone(self, tmp_path):
        """The dataset is the A positional; ``--data`` is an unknown
        flag (argparse exits 2)."""
        from repro.cli import main

        pa, _pb = self._write_pair(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["join", str(pa), "--data", str(pa)])
        assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# Source row gathers
# ----------------------------------------------------------------------


class TestSourceTake:
    @pytest.mark.parametrize("kind", ["array", "mmap", "chunked"])
    def test_gather_matches_fancy_index(self, kind, tmp_path):
        data = _dataset(8, n=120, seed=39)
        if kind == "array":
            src = ArraySource(data)
        elif kind == "mmap":
            np.save(tmp_path / "d.npy", data)
            src = MmapNpySource(tmp_path / "d.npy")
        else:
            src = write_chunked_npy(tmp_path / "chunks", data, rows_per_chunk=17)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 120, 64)  # unsorted, with duplicates
        got = src.take(idx)
        np.testing.assert_array_equal(got, data[idx])
        assert got.dtype == np.float64

    def test_generic_run_gather(self):
        """The base-class contiguous-run fallback is exercised directly."""
        from repro.data.source import DatasetSource

        data = _dataset(8, n=60, seed=41)
        src = ArraySource(data)
        idx = np.array([5, 6, 7, 30, 2, 2, 59])
        got = DatasetSource.take(src, idx)
        np.testing.assert_array_equal(got, data[idx])

    def test_out_of_range(self):
        src = ArraySource(_dataset(8, n=10))
        with pytest.raises(IndexError):
            src.take(np.array([0, 10]))
