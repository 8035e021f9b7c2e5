"""Execution contracts: the cache-fit tile edge, serial determinism,
spill concurrency, and the unified timing-path tile plans.

Every join runs its tiles or candidate groups serially on the calling
thread (a streamed tile join adds only its one-block prefetch loader), so
no entry point takes a worker count: a ``workers=`` argument or a
``--workers`` flag is refused, never silently ignored.  Streaming and
spill-enabled accumulators must be bit-identical to the resident run
(pair set AND distance bits), and every kernel's modeled tile schedule
must equal the one the functional path executes.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import api, engine
from repro.core.engine import (
    TILE_CACHE_BUDGET_BYTES,
    ResidentOperand,
    SourceOperand,
    TilePlan,
    candidate_join,
    tile_join,
    tile_rows,
)
from repro.core.results import PairAccumulator
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.source import ArraySource
from repro.index.grid import GridIndex
from repro.index.mstree import MultiSpaceTree
from repro.kernels.fasted import FastedKernel
from repro.kernels.gdsjoin import GdsJoinKernel
from repro.kernels.mistic import MISTIC_CANDIDATES, MISTIC_LEVELS, MisticKernel
from repro.kernels.reference import canon, joins_bit_identical
from repro.kernels.tedjoin import TedJoinKernel


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(600, 32))
    eps = float(epsilon_for_selectivity(data, 16))
    return data, eps


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(8).normal(size=(250, 32))


# ----------------------------------------------------------------------
# The cache-fit tile edge
# ----------------------------------------------------------------------


class TestTileRows:
    def test_tile_rows_fits_budget_and_quantum(self):
        rows = tile_rows(1 << 20, 64, d2_itemsize=4, work_itemsize=4)
        assert rows % 128 == 0
        assert rows * rows * 4 + 2 * rows * 64 * 4 <= TILE_CACHE_BUDGET_BYTES
        # Caps at n; never returns zero.
        assert tile_rows(100, 64, d2_itemsize=4, work_itemsize=4) == 100
        assert tile_rows(1, 4096, d2_itemsize=8, work_itemsize=8) == 1
        # FP64 tiles are smaller than FP32 tiles at the same budget.
        assert tile_rows(1 << 20, 64, d2_itemsize=8, work_itemsize=8) < rows

    @pytest.mark.parametrize(
        "n,dim,fasted,ted",
        [
            (100, 64, 100, 100),
            (600, 32, 512, 408),
            (4096, 64, 512, 384),
            (16384, 128, 512, 328),
            (20000, 384, 256, 200),
            (1 << 20, 4096, 47, 16),
        ],
    )
    def test_default_edges_pinned(self, n, dim, fasted, ted):
        """The ``row_block=None`` edges every default answer's bits hang
        on (FP32 low-order bits follow the BLAS tile shape)."""
        assert FastedKernel().auto_row_block(n, dim) == fasted
        assert TedJoinKernel(variant="brute").auto_row_block(n, dim) == ted


# ----------------------------------------------------------------------
# Serial determinism: every kernel, every executor shape
# ----------------------------------------------------------------------


class TestWorkerDeterminism:
    # Every method runs serially and refuses a worker request.  The class
    # name and the one-value ``workers`` parameters keep the ids of the
    # tests whose contracts outlived the tile threads stable.

    @pytest.mark.parametrize("workers", [2])
    def test_ted_index_process_pool(self, dataset, workers):
        data, eps = dataset
        kern = TedJoinKernel(variant="index")
        serial = kern.self_join(data, eps, batched=False)
        via_api = api.self_join(data, eps, method="ted-join-index")
        assert joins_bit_identical(serial.result, via_api)
        assert serial.total_candidates == kern.self_join(data, eps).total_candidates
        with pytest.raises(TypeError):
            kern.self_join(data, eps, workers=workers)
        with pytest.raises(TypeError):
            kern.join(data, data, eps, workers=workers)

    @pytest.mark.parametrize("workers", [2])
    def test_gds_process_pool(self, dataset, workers):
        data, eps = dataset
        serial = GdsJoinKernel().self_join(data, eps, batched=False)
        assert joins_bit_identical(
            serial.result, api.self_join(data, eps, method="gds-join")
        )
        with pytest.raises(TypeError):
            api.self_join(data, eps, method="gds-join", workers=workers)
        with pytest.raises(TypeError):
            GdsJoinKernel().self_join(data, eps, workers=workers)

    @pytest.mark.parametrize("workers", [2])
    def test_mistic_process_pool(self, dataset, workers):
        data, eps = dataset
        serial = MisticKernel().self_join(data, eps, batched=False)
        assert joins_bit_identical(
            serial.result, api.self_join(data, eps, method="mistic")
        )
        with pytest.raises(TypeError):
            api.self_join(data, eps, method="mistic", workers=workers)
        with pytest.raises(TypeError):
            MisticKernel().self_join(data, eps, workers=workers)

    def test_gds_batched_process_pool_pair_set(self, dataset):
        # Batched mode keeps the per-group mode's pair set (batch
        # boundaries reassociate nothing at the pair level), and asking
        # for workers on top is refused rather than ignored.
        data, eps = dataset
        a = GdsJoinKernel().self_join(data, eps, batched=False).result
        b = GdsJoinKernel().self_join(data, eps, batched=True).result
        sa = set(zip(a.pairs_i.tolist(), a.pairs_j.tolist()))
        sb = set(zip(b.pairs_i.tolist(), b.pairs_j.tolist()))
        assert sa == sb
        with pytest.raises(TypeError):
            api.self_join(data, eps, method="gds-join", batched=True, workers=2)

    @pytest.mark.parametrize("workers", [0])
    def test_streaming_fasted(self, dataset, workers):
        data, eps = dataset
        serial = FastedKernel().self_join(data, eps, row_block=150)
        streamed = FastedKernel().self_join(ArraySource(data), eps, row_block=150)
        stats = streamed.stream_stats
        assert joins_bit_identical(serial, streamed)
        assert stats.tiles_evaluated == stats.plan.n_tiles

    @pytest.mark.parametrize("workers", [0])
    def test_streaming_ted_brute_with_spill(self, dataset, workers, tmp_path):
        data, eps = dataset
        kern = TedJoinKernel(variant="brute")
        serial = kern.self_join(data, eps, row_block=150).result
        acc = PairAccumulator(spill_threshold_bytes=4096, spill_dir=tmp_path / "sp")
        streamed = kern.self_join(ArraySource(data), eps, row_block=150, acc=acc)
        assert joins_bit_identical(serial, streamed.result)

    @pytest.mark.parametrize("workers", [2])
    def test_two_source_all_methods(self, dataset, queries, workers):
        data, eps = dataset
        for method in api.METHODS:
            serial = api.join(queries, data, eps, method=method)
            assert serial.pairs_i.size, method
            with pytest.raises(TypeError):
                api.join(queries, data, eps, method=method, workers=workers)

    def test_two_source_streaming_with_spill(self, dataset, queries):
        data, eps = dataset
        base = api.join(queries, data, eps, stream=True)
        streamed = api.join(
            queries, data, eps, stream=True, spill_threshold_bytes=4096,
        )
        assert joins_bit_identical(base, streamed)

    @pytest.mark.parametrize("method", list(api.METHODS))
    def test_api_self_join_workers(self, dataset, method):
        data, eps = dataset
        serial = api.self_join(data, eps, method=method)
        assert joins_bit_identical(serial, api.self_join(data, eps, method=method))
        for workers in (None, 2):
            with pytest.raises(TypeError):
                api.self_join(data, eps, method=method, workers=workers)

    def test_store_distances_false_paths(self, dataset):
        data, eps = dataset
        a = GdsJoinKernel().self_join(data, eps).result
        b = GdsJoinKernel().self_join(data, eps, store_distances=False).result
        assert np.array_equal(a.pairs_i, b.pairs_i)
        assert np.array_equal(a.pairs_j, b.pairs_j)
        assert b.sq_dists.size == 0


class TestRemovedWorkersKnob:
    """No entry point takes a tile-thread count any more: the library
    raises ``TypeError`` and the CLI exits with a usage error."""

    @pytest.mark.parametrize(
        "entry", ["self_join", "join", "self_join_stream", "join_stream"]
    )
    def test_api_entry_points_refuse_workers(self, dataset, queries, entry):
        data, eps = dataset
        args = (data, eps) if entry.startswith("self") else (queries, data, eps)
        with pytest.raises(TypeError, match="workers"):
            getattr(repro, entry)(*args, workers=2)

    @pytest.mark.parametrize(
        "kern", [FastedKernel(), TedJoinKernel(variant="brute")],
        ids=["fasted", "ted-join-brute"],
    )
    def test_brute_kernels_refuse_workers(self, dataset, kern):
        data, eps = dataset
        with pytest.raises(TypeError, match="workers"):
            kern.self_join(data, eps, workers=2)
        with pytest.raises(TypeError, match="workers"):
            kern.join(data, data, eps, workers=2)
        with pytest.raises(TypeError, match="workers"):
            kern.self_join(ArraySource(data), eps, workers=2)
        with pytest.raises(TypeError):
            kern.auto_row_block(600, 32, 2)

    def test_engine_has_no_worker_plan(self, dataset):
        data, eps = dataset
        operand = ResidentOperand(*TedJoinKernel._block_state(data))
        with pytest.raises(TypeError, match="workers"):
            tile_join(operand, eps ** 2, workers=2)
        with pytest.raises(TypeError, match="extra_blocks"):
            TilePlan.from_budget(600, 600, 32, 1 << 16, extra_blocks=2)
        for name in ("WorkerPlan", "blas_thread_count", "_InFlightWindow"):
            assert not hasattr(engine, name), name

    def test_repro_workers_env_is_not_read(self, dataset, monkeypatch):
        # Nothing reads the variable: even a malformed value is inert.
        data, eps = dataset
        base = FastedKernel().self_join(data, eps)
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert joins_bit_identical(base, FastedKernel().self_join(data, eps))

    @pytest.mark.parametrize("value", ["2", "auto"])
    def test_cli_workers_flag_is_a_usage_error(self, value):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-m", "repro", "join", "--workers", value,
             "--n", "200", "--d", "8"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 2
        assert "unrecognized arguments: --workers" in out.stderr
        assert "Traceback" not in out.stderr


class TestSerialTileLoop:
    """The tile executor evaluates and commits every tile on the calling
    thread; a source-backed operand adds only the one-block loader."""

    @staticmethod
    def _operands(data, queries, two_source, streamed):
        prep = TedJoinKernel._block_state

        def operand(x):
            if streamed:
                return SourceOperand(ArraySource(x), prep)
            return ResidentOperand(*prep(x))

        if two_source:
            return operand(queries), operand(data)
        return operand(data), None

    @pytest.mark.parametrize("streamed", [False, True], ids=["resident", "streamed"])
    @pytest.mark.parametrize("two_source", [False, True], ids=["self", "a-x-b"])
    def test_pools_started(self, dataset, queries, monkeypatch, two_source, streamed):
        data, eps = dataset
        started = []
        real = engine.ThreadPoolExecutor

        def recording(*args, **kwargs):
            started.append(kwargs.get("max_workers", args[0] if args else None))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", recording)
        left, right = self._operands(data, queries, two_source, streamed)
        acc, stats = tile_join(left, eps ** 2, right, row_block=100)
        assert stats.tiles_evaluated == stats.plan.n_tiles > 1
        assert len(acc) > 0
        assert started == ([1] if streamed else [])

    @pytest.mark.parametrize("streamed", [False, True], ids=["resident", "streamed"])
    @pytest.mark.parametrize("two_source", [False, True], ids=["self", "a-x-b"])
    def test_commit_order_is_tile_order(self, dataset, queries, two_source, streamed):
        """Pairs land tile by tile in the plan's row-major order (a
        symmetric tile's mirrored pairs right after its own)."""
        data, eps = dataset
        left, right = self._operands(data, queries, two_source, streamed)
        acc, stats = tile_join(left, eps ** 2, right, row_block=100)
        i, j, _ = acc.arrays()
        bi, bj = i // 100, j // 100
        if stats.plan.symmetric:
            bi, bj = np.minimum(bi, bj), np.maximum(bi, bj)
        key = bi * stats.plan.n_col_blocks + bj
        assert i.size and np.all(np.diff(key) >= 0)
        visited = [ri * stats.plan.n_col_blocks + cj for ri, cj in stats.plan.tiles()]
        assert set(np.unique(key).tolist()) <= set(visited)

    @pytest.mark.parametrize("two_source", [False, True], ids=["self", "a-x-b"])
    @pytest.mark.parametrize(
        "kern,fixed",
        [(FastedKernel(), 2048), (TedJoinKernel(variant="brute"), 1024)],
        ids=["fasted", "ted-join-brute"],
    )
    def test_default_edge_bits_equal_old_fixed_edge(self, kern, fixed, two_source):
        """What the ``tile_edge`` bench entry's bit claims, on a seed-style
        dataset: the cache-fit default (512 / 384 rows here) answers with
        the same pairs and distance bits as the old fixed edge."""
        rng = np.random.default_rng(11)
        data = rng.normal(size=(1500, 64))
        eps = float(epsilon_for_selectivity(data, 16))
        assert kern.auto_row_block(*data.shape) < min(fixed, data.shape[0])

        def run(row_block):
            if two_source:
                return kern.join(data[:500], data, eps, row_block=row_block)
            res = kern.self_join(data, eps, row_block=row_block)
            return getattr(res, "result", res)

        assert joins_bit_identical(run(fixed), run(None))


# ----------------------------------------------------------------------
# The one candidate loop: resident and source-backed operands
# ----------------------------------------------------------------------


INDEX_METHODS = ("gds-join", "mistic", "ted-join-index")


def _index_groups(method, data, eps, queries=None):
    """``(groups, prepare, eps2)`` as the method's kernel builds them:
    its index over ``data``, self groups or ``queries`` dropped into it,
    its row preparation and its working-precision squared radius."""
    if method == "mistic":
        tree = MultiSpaceTree(
            data, eps, n_levels=MISTIC_LEVELS, n_candidates=MISTIC_CANDIDATES
        )
        groups = (
            tree.iter_groups(group=512) if queries is None
            else tree.iter_join_groups(queries, group=512)
        )
        return groups, MisticKernel._block_state, np.float32(eps ** 2)
    if method == "gds-join":
        kern = GdsJoinKernel()
        index = GridIndex(data, eps, n_dims=kern.n_index_dims)
        prepare, eps2 = kern._block_state, np.float32(eps ** 2)
    else:
        index = GridIndex(data, eps)
        prepare, eps2 = TedJoinKernel._block_state, float(eps) ** 2
    groups = (
        index.iter_cells() if queries is None
        else index.iter_join_groups(queries)
    )
    return groups, prepare, eps2


class TestSerialCandidateJoin:
    """Every index-backed join runs one serial candidate loop, whether its
    operands are resident arrays or sources gathered with ``take``: the
    two backings commit the same pairs in the same order with the same
    distance bits, self-join and A x B, per-group and batched, and the
    loop's pair set is the public API's answer."""

    @pytest.mark.parametrize("batched", [False, True], ids=["per-group", "batched"])
    @pytest.mark.parametrize("two_source", [False, True], ids=["self", "a-x-b"])
    @pytest.mark.parametrize("method", INDEX_METHODS)
    def test_source_backed_bit_identical(
        self, dataset, queries, method, two_source, batched
    ):
        data, eps = dataset
        q = queries if two_source else None

        def run(operand):
            groups, prepare, eps2 = _index_groups(method, data, eps, q)
            left = operand(q if two_source else data, prepare)
            right = operand(data, prepare) if two_source else None
            return candidate_join(groups, left, eps2, right, batched=batched)

        resident = run(lambda x, prep: ResidentOperand(*prep(x)))
        sourced = run(lambda x, prep: SourceOperand(ArraySource(x), prep))
        r_arrays, s_arrays = resident.arrays(), sourced.arrays()
        assert r_arrays[0].size > 0
        for r, s in zip(r_arrays, s_arrays):
            assert r.dtype == s.dtype and r.tobytes() == s.tobytes()

        if two_source:
            got = resident.finalize_join(q.shape[0], data.shape[0], eps)
            public = api.join(q, data, eps, method=method)
        else:
            got = resident.finalize(data.shape[0], eps)
            public = api.self_join(data, eps, method=method, batched=batched)
        gi, gj, _ = canon(got)
        pi, pj, _ = canon(public)
        assert np.array_equal(gi, pi) and np.array_equal(gj, pj)


# ----------------------------------------------------------------------
# Spill concurrency (the PairAccumulator race regression)
# ----------------------------------------------------------------------


class TestSpillConcurrency:
    def test_concurrent_appends_never_lose_pairs(self, tmp_path):
        """Appends from pool threads racing the spill rotation.

        Before the accumulator grew its lock, two threads appending past
        the threshold could interleave the buffer reset and drop or
        duplicate pairs; with the lock the multiset of appended pairs is
        always preserved (order across threads is unspecified).
        """
        acc = PairAccumulator(
            spill_threshold_bytes=2048, spill_dir=tmp_path / "race"
        )
        n_threads, appends, width = 8, 120, 7

        def hammer(k: int) -> None:
            for t in range(appends):
                i = np.full(width, k, dtype=np.int64)
                j = np.arange(t, t + width, dtype=np.int64)
                acc.append(i, j, np.full(width, float(k), np.float32))

        threads = [
            threading.Thread(target=hammer, args=(k,)) for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert acc.n_spill_chunks > 0  # the rotation really happened
        i, j, d = acc.arrays()
        assert len(acc) == i.size == n_threads * appends * width
        for k in range(n_threads):
            mask = i == k
            assert mask.sum() == appends * width
            assert np.all(d[mask] == float(k))
        acc.cleanup()

    def test_join_with_workers_and_tiny_spill(self, dataset, tmp_path):
        """A streamed FaSTED join through a tiny spill threshold."""
        data, eps = dataset
        serial = api.self_join(data, eps, stream=True)
        spilled = api.self_join(
            data, eps, stream=True,
            spill_threshold_bytes=2048, spill_dir=tmp_path / "sp",
        )
        assert joins_bit_identical(serial, spilled)
        # finalize() cleaned the chunks up behind itself.
        assert not list((tmp_path / "sp").glob("spill_*"))

    def test_self_join_stream_spill_threads_through(self, dataset, tmp_path):
        """api.self_join honors spill_threshold_bytes/spill_dir."""
        data, eps = dataset
        base = api.self_join(data, eps, method="ted-join-brute", stream=True)
        spilled = api.self_join(
            data, eps, method="ted-join-brute", stream=True,
            spill_threshold_bytes=2048, spill_dir=tmp_path / "ted",
        )
        assert joins_bit_identical(base, spilled)
        assert not list((tmp_path / "ted").glob("spill_*"))

    def test_self_join_stream_cleans_up_on_midstream_error(
        self, dataset, tmp_path
    ):
        data, eps = dataset

        class FailingSource(ArraySource):
            loads = 0

            def load_block(self, r0, r1):
                type(self).loads += 1
                if type(self).loads > 2:
                    raise RuntimeError("disk died")
                return super().load_block(r0, r1)

        spill_dir = tmp_path / "err"
        with pytest.raises(RuntimeError, match="disk died"):
            api.self_join(
                FailingSource(data), eps,
                memory_budget_bytes=64 << 10,
                spill_threshold_bytes=512, spill_dir=spill_dir,
            )
        # Whatever chunks spilled before the failure were removed.
        assert not list(spill_dir.glob("spill_*"))


# ----------------------------------------------------------------------
# Unified timing-path tile plans
# ----------------------------------------------------------------------


class TestTimingPlanUnification:
    @pytest.mark.parametrize("n", [256, 700, 1000])
    def test_fasted_cost_equals_executed_plan(self, n):
        kern = FastedKernel()
        cost = kern.cost(n, 64)
        device_plan = TilePlan.square(
            n, kern.config.block_points, symmetric=False
        )
        assert cost.n_tiles == device_plan.n_tiles
        assert cost.plan is not None and cost.plan.n_tiles == cost.n_tiles
        assert kern.config.n_tiles(n) == kern.config.tile_plan(n).n_tiles

    def test_fasted_functional_executes_device_plan(self, dataset):
        """Run the functional path AT the device plan: same bits, and the
        executor evaluates exactly the modeled tile count -- using the
        kernel's own tile_plan(), as the docstrings advertise (n=600 is
        deliberately not a multiple of block_points)."""
        data, eps = dataset
        n = data.shape[0]
        kern = FastedKernel()
        device_plan = kern.config.tile_plan(n)
        assert kern.cost(n, data.shape[1]).n_tiles == device_plan.n_tiles
        base = kern.self_join(data, eps)
        dev = kern.self_join(data, eps, plan=device_plan)
        assert joins_bit_identical(base, dev)

    def test_engine_tile_count_matches_plan(self, dataset):
        data, eps = dataset
        n = data.shape[0]
        plan = TilePlan.square(n, 128, symmetric=False)
        _, stats = tile_join(
            ResidentOperand(*TedJoinKernel._block_state(data)), float(eps) ** 2, plan=plan
        )
        assert stats.tiles_evaluated == plan.n_tiles

    @pytest.mark.parametrize("n", [160, 700])
    def test_ted_cost_equals_executed_plan(self, n):
        kern = TedJoinKernel(variant="brute")
        cost = kern.cost(n, 64)
        device_plan = TilePlan.square(n, 8, symmetric=False)
        assert cost.n_tiles == device_plan.n_tiles
        assert cost.chunks_per_tile == -(-64 // 4)
        # Table-6 conflict degrees survive in the cost view.
        assert cost.bank_conflict_rate == pytest.approx(12 / 13)
        assert kern.cost(n, 256).bank_conflict_rate == pytest.approx(3 / 4)

    def test_ted_functional_executes_device_plan(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(157, 32))  # not a multiple of the WMMA tile
        eps = float(epsilon_for_selectivity(data, 8))
        kern = TedJoinKernel(variant="brute")
        base = kern.self_join(data, eps).result
        dev = kern.self_join(data, eps, plan=kern.tile_plan(157)).result
        assert joins_bit_identical(base, dev)

    def test_ted_cost_ooms_like_the_functional_path(self):
        kern = TedJoinKernel(modified=False)
        with pytest.raises(MemoryError):
            kern.cost(1000, 512)

    def test_candidate_kernels_cost_from_measured_stats(self, dataset):
        data, eps = dataset
        g = GdsJoinKernel().self_join(data, eps)
        cost = GdsJoinKernel().cost(
            data.shape[1], total_candidates=g.total_candidates, profile=g.profile
        )
        assert cost.n_tiles == -(-g.total_candidates // 32)
        m = MisticKernel().self_join(data, eps)
        mcost = MisticKernel().cost(
            data.shape[1], total_candidates=m.total_candidates, profile=m.profile
        )
        assert mcost.n_tiles == -(-m.total_candidates // 32)
        assert mcost.chunks_per_tile >= 1

    def test_fasted_timing_still_resolves(self):
        t = FastedKernel().timing(4096, 64)
        assert t.seconds > 0


# ----------------------------------------------------------------------
# Engine plan plumbing guards
# ----------------------------------------------------------------------


class TestPlanGuards:
    def test_symmetric_executor_rejects_mismatched_plan(self):
        operand = ResidentOperand(*TedJoinKernel._block_state(np.zeros((100, 4))))
        with pytest.raises(ValueError, match="plan covers"):
            tile_join(operand, 1.0, plan=TilePlan.square(50, 10))
        with pytest.raises(ValueError, match="symmetric"):
            tile_join(operand, 1.0, operand, plan=TilePlan.square(100, 10))
        with pytest.raises(ValueError, match="equal row and column"):
            tile_join(operand, 1.0, plan=TilePlan(100, 100, 10, 20))
        with pytest.raises(ValueError, match="square"):
            TilePlan(100, 80, 10, 10, symmetric=True)

    def test_streaming_runs_device_plan(self, dataset):
        """One tile loop: a streamed self-join walks the full-grid device
        schedule too, bit-identical to the resident run at that plan."""
        data, eps = dataset
        plan = TilePlan.square(data.shape[0], 100, symmetric=False)
        resident, _ = tile_join(
            ResidentOperand(*TedJoinKernel._block_state(data)), eps ** 2, plan=plan
        )
        streamed, stats = tile_join(
            SourceOperand(ArraySource(data), TedJoinKernel._block_state), eps ** 2, plan=plan
        )
        n = data.shape[0]
        assert joins_bit_identical(resident.finalize(n, eps), streamed.finalize(n, eps))
        # Every tile but the diagonal ones loads a column block.
        nb = plan.n_row_blocks
        assert stats.tiles_evaluated == plan.n_tiles == nb * nb
        assert stats.blocks_loaded == nb + nb * (nb - 1)

    def test_full_grid_plan_counts(self):
        plan = TilePlan.square(1000, 128, symmetric=False)
        assert plan.n_tiles == 64 == len(list(plan.tile_bounds()))
        sym = TilePlan.square(1000, 128)
        assert sym.n_tiles == 36
        assert all(c0 >= r0 for r0, _r1, c0, _c1 in sym.tile_bounds())
        assert set(sym.tile_bounds()) <= set(plan.tile_bounds())


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_workers_junk_rejected(self):
        # The flag is gone: any value is an unknown argument.
        from repro.cli import build_parser

        for value in ("many", "2", "auto"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["join", "--workers", value])
