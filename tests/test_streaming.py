"""Tests for the engine's out-of-core (source-backed) tile execution and
the batched mode of the candidate executor (repro.core.engine.tile_join
over a SourceOperand / candidate_join(batched=True), repro.data.source).

The streaming contract is *bit-identity with the in-memory engine at the
same tile plan*: per-block preparation is row-local and per-tile GEMM
shapes are unchanged, so streamed results must match the resident path
bitwise -- including when the dataset is served from a memory-mapped
``.npy`` (or a chunk directory) and is deliberately larger than the
configured memory budget.  The batched executor's contract is weaker by
design: the *pair set* matches the per-group path, while FP32 low-order
distance bits may differ (BLAS may reassociate for the padded shapes).
"""

import numpy as np
import pytest

from repro.core.api import join, self_join, self_join_stream
from repro.core.engine import (
    ResidentOperand,
    SourceOperand,
    TilePlan,
    candidate_join,
    tile_join,
)
from repro.core.results import PairAccumulator
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.source import (
    ArraySource,
    ChunkedNpySource,
    MmapNpySource,
    as_source,
    write_chunked_npy,
)
from repro.data.synthetic import fine_grid_dataset
from repro.index.grid import GridIndex
from repro.kernels.fasted import FastedKernel
from repro.kernels.gdsjoin import GdsJoinKernel
from repro.kernels.mistic import MisticKernel
from repro.kernels.reference import canon, joins_bit_identical
from repro.kernels.tedjoin import TedJoinKernel


def _dataset(d, n=500, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 4, size=(6, d))
    return centers[rng.integers(0, 6, n)] + rng.normal(0, 0.5, size=(n, d))


def assert_pair_sets_equal(a, b):
    ai, aj, _ = canon(a)
    bi, bj, _ = canon(b)
    np.testing.assert_array_equal(ai, bi)
    np.testing.assert_array_equal(aj, bj)


# ----------------------------------------------------------------------
# TilePlan
# ----------------------------------------------------------------------


class TestTilePlan:
    def test_matches_in_memory_tiling(self):
        plan = TilePlan.square(1000, 128)
        expect = [
            (r0, min(r0 + 128, 1000), c0, min(c0 + 128, 1000))
            for r0 in range(0, 1000, 128)
            for c0 in range(r0, 1000, 128)
        ]
        assert list(plan.tile_bounds()) == expect
        assert plan.n_tiles == len(expect)

    def test_from_budget_respects_bound(self):
        n, d, budget = 10_000, 64, 1 << 20
        plan = TilePlan.from_budget(n, n, d, budget, symmetric=True)
        assert plan.peak_resident_bytes(d) <= budget
        assert plan.row_block >= 1

    def test_from_budget_tiny_budget_still_progresses(self):
        plan = TilePlan.from_budget(100, 100, 4096, 1024, symmetric=True)
        assert plan.row_block == 1  # floor: one row per block
        assert plan.n_row_blocks == 100

    def test_invalid(self):
        with pytest.raises(ValueError):
            TilePlan.square(10, 0)
        with pytest.raises(ValueError):
            TilePlan.from_budget(10, 10, 8, 0)


# ----------------------------------------------------------------------
# Dataset sources
# ----------------------------------------------------------------------


class TestSources:
    def test_array_source_blocks(self):
        data = _dataset(16, n=37)
        src = ArraySource(data)
        np.testing.assert_array_equal(src.load_block(5, 20), data[5:20])
        np.testing.assert_array_equal(src.materialize(), data)
        assert src.shape == data.shape
        with pytest.raises(IndexError):
            src.load_block(0, 38)

    def test_mmap_npy_source(self, tmp_path):
        data = _dataset(8, n=50).astype(np.float32)  # non-float64 on disk
        path = tmp_path / "data.npy"
        np.save(path, data)
        src = MmapNpySource(path)
        got = src.load_block(10, 30)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, data[10:30].astype(np.float64))

    def test_chunked_source_round_trip(self, tmp_path):
        data = _dataset(8, n=103)
        src = write_chunked_npy(tmp_path / "chunks", data, rows_per_chunk=10)
        assert src.n == 103 and src.dim == 8
        # A block spanning several chunk boundaries.
        np.testing.assert_array_equal(src.load_block(7, 95), data[7:95])
        np.testing.assert_array_equal(src.materialize(), data)

    def test_chunked_source_without_manifest(self, tmp_path):
        data = _dataset(8, n=45)
        d = tmp_path / "chunks"
        write_chunked_npy(d, data, rows_per_chunk=20)
        (d / "chunks.json").unlink()
        src = ChunkedNpySource(d)
        np.testing.assert_array_equal(src.materialize(), data)

    def test_as_source_dispatch(self, tmp_path):
        data = _dataset(8, n=20)
        assert isinstance(as_source(data), ArraySource)
        path = tmp_path / "d.npy"
        np.save(path, data)
        assert isinstance(as_source(str(path)), MmapNpySource)
        cdir = tmp_path / "chunks"
        write_chunked_npy(cdir, data, rows_per_chunk=7)
        assert isinstance(as_source(cdir), ChunkedNpySource)
        src = ArraySource(data)
        assert as_source(src) is src


# ----------------------------------------------------------------------
# Streaming bit-identity
# ----------------------------------------------------------------------


class TestStreamingBitIdentity:
    def test_fasted_array_source(self):
        data = _dataset(48)
        eps = epsilon_for_selectivity(data, 16)
        mem = FastedKernel().self_join(data, eps, row_block=128)
        got = FastedKernel().self_join(ArraySource(data), eps, row_block=128)
        stats = got.stream_stats
        assert mem.stream_stats is None
        assert joins_bit_identical(mem, got)
        assert stats.blocks_loaded == stats.plan.n_tiles  # each tile: 1 load

    def test_fasted_mmap_larger_than_budget(self, tmp_path):
        """The headline contract: dataset > budget, bit-identical, bounded."""
        data = _dataset(64, n=900, seed=1)
        path = tmp_path / "big.npy"
        np.save(path, data)
        source = MmapNpySource(path)
        budget = 128 * 1024
        assert source.nbytes > budget  # deliberately larger than the budget
        plan = TilePlan.from_budget(
            source.n, source.n, source.dim, budget, symmetric=True
        )
        mem = FastedKernel().self_join(data, eps := epsilon_for_selectivity(data, 16), row_block=plan.row_block)
        got = FastedKernel().self_join(source, eps, memory_budget_bytes=budget)
        stats = got.stream_stats
        assert joins_bit_identical(mem, got)
        assert stats.peak_resident_bytes <= budget
        assert stats.plan.n_row_blocks > TilePlan.RESIDENT_BLOCKS

    def test_ted_brute_chunked_larger_than_budget(self, tmp_path):
        data = _dataset(32, n=700, seed=2)
        source = write_chunked_npy(tmp_path / "chunks", data, rows_per_chunk=64)
        budget = 128 * 1024
        assert source.nbytes > budget
        eps = epsilon_for_selectivity(data, 16)
        # FP64 tile geometry is bit-invariant across row_block (pinned by
        # tests/test_engine.py), so compare against the default path.
        mem = TedJoinKernel(variant="brute").self_join(data, eps).result
        got = TedJoinKernel(variant="brute").self_join(
            source, eps, memory_budget_bytes=budget
        ).result
        assert joins_bit_identical(mem, got)
        assert got.stream_stats.peak_resident_bytes <= budget

    def test_store_distances_off(self):
        data = _dataset(24, n=200, seed=4)
        eps = epsilon_for_selectivity(data, 8)
        got = FastedKernel().self_join(
            ArraySource(data), eps, row_block=64, store_distances=False
        )
        assert got.sq_dists.size == 0
        mem = FastedKernel().self_join(data, eps, row_block=64)
        assert_pair_sets_equal(mem, got)

    def test_streaming_engine_generic(self):
        """tile_join over a source-backed operand == over a resident one."""
        data = _dataset(16, n=150, seed=5).astype(np.float64)
        eps2 = float(epsilon_for_selectivity(data, 8)) ** 2
        acc, stats = tile_join(
            SourceOperand(ArraySource(data), TedJoinKernel._block_state), eps2, row_block=40
        )
        ref, ref_stats = tile_join(
            ResidentOperand(*TedJoinKernel._block_state(data)), eps2, row_block=40
        )
        assert joins_bit_identical(acc.finalize(150, 1.0), ref.finalize(150, 1.0))
        assert stats.tiles_evaluated == stats.plan.n_tiles
        assert stats.blocks_loaded == stats.plan.n_tiles
        assert ref_stats.blocks_loaded == 0 == ref_stats.peak_resident_bytes

    def test_ted_index_variant_refuses_streaming(self):
        """The index variant streams its self-join (through the source
        grid build) but not an A x B join."""
        data = _dataset(16, n=50)
        with pytest.raises(ValueError):
            TedJoinKernel(variant="index").join(ArraySource(data), data, 1.0)


# ----------------------------------------------------------------------
# API-level streaming
# ----------------------------------------------------------------------


class TestApiStreaming:
    def test_stream_flag_matches_in_memory(self):
        data = _dataset(32, n=300, seed=6)
        eps = float(epsilon_for_selectivity(data, 12))
        mem = self_join(data, eps)
        streamed = self_join(data, eps, stream=True)
        assert joins_bit_identical(mem, streamed)

    def test_stream_from_path(self, tmp_path):
        data = _dataset(32, n=300, seed=6)
        eps = float(epsilon_for_selectivity(data, 12))
        path = tmp_path / "d.npy"
        np.save(path, data)
        mem = self_join(data, eps, method="ted-join-brute")
        streamed = self_join(
            path, eps, method="ted-join-brute", stream=True,
            memory_budget_bytes=96 * 1024,
        )
        assert joins_bit_identical(mem, streamed)

    def test_materializes_source_for_index_methods(self, tmp_path):
        data = _dataset(24, n=250, seed=7)
        eps = float(epsilon_for_selectivity(data, 8))
        path = tmp_path / "d.npy"
        np.save(path, data)
        mem = self_join(data, eps, method="gds-join")
        via_path = self_join(str(path), eps, method="gds-join")
        assert joins_bit_identical(mem, via_path)

    def test_memory_budget_implies_stream(self, tmp_path):
        """An explicit budget must never be answered by materializing."""
        data = _dataset(32, n=300, seed=6)
        eps = float(epsilon_for_selectivity(data, 12))
        path = tmp_path / "d.npy"
        np.save(path, data)
        budget = 96 * 1024
        plan = TilePlan.from_budget(300, 300, 32, budget, symmetric=True)
        mem = FastedKernel().self_join(data, eps, row_block=plan.row_block)
        got = self_join(path, eps, memory_budget_bytes=budget)  # no stream=
        assert joins_bit_identical(mem, got)

    def test_self_join_stream_returns_stats(self):
        data = _dataset(24, n=220, seed=9)
        eps = float(epsilon_for_selectivity(data, 8))
        result, stats = self_join_stream(
            data, eps, method="ted-join-brute", memory_budget_bytes=64 * 1024
        )
        assert stats.peak_resident_bytes <= 64 * 1024
        assert joins_bit_identical(
            result, self_join(data, eps, method="ted-join-brute")
        )
        with pytest.raises(ValueError):
            self_join_stream(data, eps, method="mistic")

    def test_stream_rejected_for_index_methods(self):
        data = _dataset(16, n=60)
        with pytest.raises(ValueError):
            self_join(data, 1.0, method="gds-join", stream=True)
        with pytest.raises(ValueError):
            self_join(data, 1.0, method="gds-join", memory_budget_bytes=1 << 20)
        with pytest.raises(ValueError):
            # A budget cannot be honored by the materializing path.
            self_join(data, 1.0, stream=False, memory_budget_bytes=1 << 20)

    def test_batched_rejected_for_brute_methods(self):
        data = _dataset(16, n=60)
        with pytest.raises(ValueError):
            self_join(data, 1.0, method="fasted", batched=True)


class TestStreamedEqualsResident:
    @pytest.mark.parametrize("shape", ["self", "a-x-b"])
    @pytest.mark.parametrize("method", ["fasted", "ted-join-brute"])
    def test_every_api_path_answers_bitwise_alike(
        self, method, shape, tmp_path, monkeypatch
    ):
        """``stream=False``, ``stream=True``, a memory-budget run and a
        spill run give the same answer -- pairs in emission order and
        distance bits -- on data several default tile edges wide.  The
        budget is the one whose plan has the default (cache-fit) edge, so
        all four walk one tile plan."""
        data = _dataset(64, n=4352, seed=3)
        eps = float(epsilon_for_selectivity(data[:2048], 16))
        args = (data[:2048],) if shape == "self" else (data[:2048], data[2048:])
        entry = self_join if shape == "self" else join
        kernel = (
            FastedKernel() if method == "fasted"
            else TedJoinKernel(variant="brute")
        )
        edge = kernel.auto_row_block(max(len(x) for x in args), 64)
        assert 2048 >= 4 * edge
        budget = TilePlan.RESIDENT_BLOCKS * edge * (64 + 1) * 8
        spills = []
        real_spill = PairAccumulator._spill

        def counting_spill(acc):
            spills.append(len(acc))
            real_spill(acc)

        monkeypatch.setattr(PairAccumulator, "_spill", counting_spill)

        resident = entry(*args, eps, method=method, stream=False)
        runs = {
            "stream": entry(*args, eps, method=method, stream=True),
            "budget": entry(*args, eps, method=method, memory_budget_bytes=budget),
            "spill": entry(
                *args, eps, method=method, stream=True,
                spill_threshold_bytes=16 * 1024, spill_dir=tmp_path / "spill",
            ),
        }
        assert resident.stream_stats is None and resident.pairs_i.size > 0
        for name, got in runs.items():
            np.testing.assert_array_equal(got.pairs_i, resident.pairs_i, name)
            np.testing.assert_array_equal(got.pairs_j, resident.pairs_j, name)
            np.testing.assert_array_equal(
                got.sq_dists.view(np.uint32), resident.sq_dists.view(np.uint32),
                name,
            )
            assert got.stream_stats.plan.row_block == edge, name
        assert runs["budget"].stream_stats.peak_resident_bytes <= budget
        assert spills and not list((tmp_path / "spill").glob("spill_*"))


# ----------------------------------------------------------------------
# Batched candidate executor
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [32, 64])
class TestBatchedCandidateExecutor:
    def test_gds_join_pair_set(self, d):
        data = fine_grid_dataset(800, d, seed=d)
        eps = float(epsilon_for_selectivity(data, 8))
        plain = GdsJoinKernel().self_join(data, eps, batched=False).result
        batched = GdsJoinKernel().self_join(data, eps, batched=True).result
        assert_pair_sets_equal(plain, batched)
        ad, bd = canon(plain)[2], canon(batched)[2]
        # FP32 norm expansion: absolute error scales with the squared-norm
        # magnitude (~1e4 here), not the small distances, so the tolerance
        # is a few ulps of the norms -- same caveat as row_block changes.
        np.testing.assert_allclose(ad, bd, rtol=1e-3, atol=0.05)

    def test_ted_index_pair_set(self, d):
        data = fine_grid_dataset(700, d, seed=d + 1)
        eps = float(epsilon_for_selectivity(data, 8))
        plain = TedJoinKernel(variant="index").self_join(data, eps, batched=False)
        batched = TedJoinKernel(variant="index").self_join(data, eps, batched=True)
        assert_pair_sets_equal(plain.result, batched.result)
        # The 8x8-padded candidate tally must not depend on the executor.
        assert plain.total_candidates == batched.total_candidates

    def test_mistic_pair_set(self, d):
        data = fine_grid_dataset(600, d, seed=d + 2)
        eps = float(epsilon_for_selectivity(data, 8))
        plain = MisticKernel().self_join(data, eps, batched=False).result
        batched = MisticKernel().self_join(data, eps, batched=True).result
        assert_pair_sets_equal(plain, batched)


class TestBatchedEngine:
    def _setup(self, n=400, d=24, seed=9):
        data = fine_grid_dataset(n, d, seed=seed)
        eps = float(epsilon_for_selectivity(data, 8))
        index = GridIndex(data, eps)
        work = np.ascontiguousarray(data, dtype=np.float64)
        return data, eps, index, ResidentOperand(*TedJoinKernel._block_state(work))

    def test_matches_per_group_executor(self):
        data, eps, index, operand = self._setup()
        eps2 = float(eps) ** 2
        plain = candidate_join(index.iter_cells(), operand, eps2)
        batched = candidate_join(
            index.iter_cells(order="size"), operand, eps2, batched=True
        )
        a = plain.finalize(data.shape[0], eps)
        b = batched.finalize(data.shape[0], eps)
        # FP64 norm expansion: even the distances agree bitwise here.
        assert joins_bit_identical(a, b)

    def test_forced_tiny_batches(self):
        """Pathological knobs (every group flushes alone) still correct."""
        data, eps, index, operand = self._setup(n=250)
        eps2 = float(eps) ** 2
        batched = candidate_join(
            index.iter_cells(), operand, eps2, batched=True,
            batch_params={"batch_elems": 1, "single_elems": 1},
        )
        plain = candidate_join(index.iter_cells(), operand, eps2)
        assert joins_bit_identical(
            plain.finalize(250, eps), batched.finalize(250, eps)
        )

    def test_on_group_sees_every_group_in_order(self):
        data, eps, index, operand = self._setup(n=300)
        seen = []
        candidate_join(
            index.iter_cells(),
            operand,
            -1.0,  # keep nothing
            batched=True,
            on_group=lambda m, c: seen.append((m.size, c.size)),
        )
        expect = [
            (m.size, c.size) for m, c in index.iter_cells() if m.size and c.size
        ]
        assert seen == expect

    def test_size_order_same_pair_set(self):
        data, eps, index, operand = self._setup(n=350, seed=11)
        eps2 = float(eps) ** 2
        lex = candidate_join(index.iter_cells(), operand, eps2, batched=True)
        size = candidate_join(
            index.iter_cells(order="size"), operand, eps2, batched=True
        )
        assert joins_bit_identical(
            lex.finalize(350, eps), size.finalize(350, eps)
        )
