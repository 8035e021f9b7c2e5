"""Parallel execution subsystem: WorkerPlan, worker determinism, spill
concurrency, and the unified timing-path tile plans.

The engine's contract is that parallel execution may only change *how
fast* the answer is produced: every worker configuration -- thread tiles,
streaming overlap, spill-enabled accumulators -- must be bit-identical to
serial execution (pair set AND distance bits), the index-backed methods
run serially and reject a worker request, and every kernel's modeled tile
schedule must equal the one the functional path executes.
"""

import threading

import numpy as np
import pytest

from repro.core import api
from repro.core.engine import (
    TILE_CACHE_BUDGET_BYTES,
    ResidentOperand,
    SourceOperand,
    TilePlan,
    WorkerPlan,
    candidate_join,
    tile_join,
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
# WorkerPlan resolution
# ----------------------------------------------------------------------


class TestWorkerPlan:
    def test_serial_default(self):
        wp = WorkerPlan.resolve(0)
        assert wp.n_workers == 1 and wp.source == "serial"
        assert not wp.parallel
        assert WorkerPlan.resolve(None).n_workers == 1

    def test_explicit_counts(self):
        assert WorkerPlan.resolve(4).n_workers == 4
        assert WorkerPlan.resolve(4).source == "explicit"
        assert WorkerPlan.resolve(1).parallel is False
        assert WorkerPlan.resolve(2).parallel is True

    def test_resolve_is_idempotent(self):
        wp = WorkerPlan.resolve(3)
        assert WorkerPlan.resolve(wp) is wp

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        wp = WorkerPlan.resolve("auto")
        assert wp.n_workers == 3 and wp.source == "env"
        # The override only governs "auto": explicit counts win.
        assert WorkerPlan.resolve(5).n_workers == 5

    def test_env_override_junk_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            WorkerPlan.resolve("auto")

    def test_env_override_negative_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        with pytest.raises(ValueError, match="positive"):
            WorkerPlan.resolve("auto")

    def test_auto_from_topology(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        wp = WorkerPlan.resolve("auto")
        assert wp.source == "auto"
        assert 1 <= wp.n_workers <= WorkerPlan.MAX_AUTO_WORKERS
        if wp.blas_threads is not None:
            assert wp.n_workers <= max(1, wp.cpu_count // wp.blas_threads)
        assert WorkerPlan.resolve(-1).source in ("auto", "env")

    def test_blas_pinning_is_read(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        wp = WorkerPlan.resolve("auto")
        assert wp.blas_threads == 1
        assert wp.n_workers == min(wp.cpu_count, WorkerPlan.MAX_AUTO_WORKERS)

    def test_bad_string_raises(self):
        with pytest.raises(ValueError, match="auto"):
            WorkerPlan.resolve("fast")

    def test_negative_counts_other_than_minus_one_raise(self):
        # -1 is "auto"; any other negative is a sign typo, not a plan.
        with pytest.raises(ValueError, match="workers must be"):
            WorkerPlan.resolve(-4)

    def test_tile_rows_fits_budget_and_quantum(self):
        wp = WorkerPlan.resolve(0)
        rows = wp.tile_rows(1 << 20, 64, d2_itemsize=4, work_itemsize=4)
        assert rows % 128 == 0
        assert rows * rows * 4 + 2 * rows * 64 * 4 <= TILE_CACHE_BUDGET_BYTES
        # Caps at n; never returns zero.
        assert wp.tile_rows(100, 64, d2_itemsize=4, work_itemsize=4) == 100
        assert wp.tile_rows(1, 4096, d2_itemsize=8, work_itemsize=8) == 1
        # FP64 tiles are smaller than FP32 tiles at the same budget.
        assert wp.tile_rows(1 << 20, 64, d2_itemsize=8, work_itemsize=8) < rows

    def test_as_dict_round_trip(self):
        d = WorkerPlan.resolve(2).as_dict()
        assert d["n_workers"] == 2 and d["source"] == "explicit"


# ----------------------------------------------------------------------
# Worker determinism: every kernel, every executor shape
# ----------------------------------------------------------------------


class TestWorkerDeterminism:
    @pytest.mark.parametrize("workers", [2, 4, "auto"])
    def test_fasted_threads(self, dataset, workers):
        data, eps = dataset
        serial = FastedKernel().self_join(data, eps)
        assert joins_bit_identical(
            serial, FastedKernel().self_join(data, eps, workers=workers)
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_ted_brute_threads(self, dataset, workers):
        data, eps = dataset
        kern = TedJoinKernel(variant="brute")
        serial = kern.self_join(data, eps).result
        assert joins_bit_identical(
            serial, kern.self_join(data, eps, workers=workers).result
        )

    # The index-backed kernels have no process pool: they run serially
    # (the API answer is the kernel's answer, bit for bit) and a worker
    # request is an error, never a silently serial run.

    @pytest.mark.parametrize("workers", [2, 4])
    def test_ted_index_process_pool(self, dataset, workers):
        data, eps = dataset
        kern = TedJoinKernel(variant="index")
        serial = kern.self_join(data, eps, batched=False)
        via_api = api.self_join(data, eps, method="ted-join-index")
        assert joins_bit_identical(serial.result, via_api)
        assert serial.total_candidates == kern.self_join(data, eps).total_candidates
        with pytest.raises(ValueError, match="runs serially"):
            kern.self_join(data, eps, workers=workers)
        with pytest.raises(ValueError, match="runs serially"):
            kern.join(data, data, eps, workers=workers)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_gds_process_pool(self, dataset, workers):
        data, eps = dataset
        serial = GdsJoinKernel().self_join(data, eps, batched=False)
        assert joins_bit_identical(
            serial.result, api.self_join(data, eps, method="gds-join")
        )
        with pytest.raises(ValueError, match="runs serially"):
            api.self_join(data, eps, method="gds-join", workers=workers)
        with pytest.raises(TypeError):
            GdsJoinKernel().self_join(data, eps, workers=workers)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_mistic_process_pool(self, dataset, workers):
        data, eps = dataset
        serial = MisticKernel().self_join(data, eps, batched=False)
        assert joins_bit_identical(
            serial.result, api.self_join(data, eps, method="mistic")
        )
        with pytest.raises(ValueError, match="runs serially"):
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
        with pytest.raises(ValueError, match="runs serially"):
            api.self_join(data, eps, method="gds-join", batched=True, workers=2)

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_streaming_fasted(self, dataset, workers):
        data, eps = dataset
        serial = FastedKernel().self_join(data, eps, row_block=150)
        streamed, stats = FastedKernel().self_join_stream(
            ArraySource(data), eps, row_block=150, workers=workers
        )
        assert joins_bit_identical(serial, streamed)
        assert stats.tiles_evaluated == stats.plan.n_tiles

    def test_memory_budget_honored_with_workers(self, dataset):
        """Budget-derived plans fold the in-flight worker blocks into the
        residency accounting, so workers cannot break the budget."""
        data, eps = dataset
        budget = 64 << 10
        serial, s0 = api.self_join_stream(data, eps, memory_budget_bytes=budget)
        parallel, s4 = api.self_join_stream(
            data, eps, memory_budget_bytes=budget, workers=4
        )
        assert s0.peak_resident_bytes <= budget
        assert s4.peak_resident_bytes <= budget
        # The worker plan pays for its window with a smaller block edge.
        assert s4.plan.row_block < s0.plan.row_block
        assert np.array_equal(
            np.sort(serial.pairs_i), np.sort(parallel.pairs_i)
        )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_streaming_ted_brute_with_spill(self, dataset, workers, tmp_path):
        data, eps = dataset
        kern = TedJoinKernel(variant="brute")
        serial = kern.self_join(data, eps, row_block=150).result
        acc = PairAccumulator(
            spill_threshold_bytes=4096, spill_dir=tmp_path / f"sp{workers}"
        )
        streamed, _ = kern.self_join_stream(
            ArraySource(data), eps, row_block=150, workers=workers, acc=acc
        )
        assert joins_bit_identical(serial, streamed.result)

    @pytest.mark.parametrize("workers", [2, "auto"])
    def test_two_source_all_methods(self, dataset, queries, workers):
        data, eps = dataset
        for method in api.METHODS:
            serial = api.join(queries, data, eps, method=method)
            if method in api.STREAMABLE_METHODS:
                parallel = api.join(
                    queries, data, eps, method=method, workers=workers
                )
                assert joins_bit_identical(serial, parallel), method
                continue
            assert joins_bit_identical(
                serial, api.join(queries, data, eps, method=method, workers=0)
            ), method
            with pytest.raises(ValueError, match="runs serially"):
                api.join(queries, data, eps, method=method, workers=workers)

    def test_two_source_streaming_with_spill(self, dataset, queries):
        data, eps = dataset
        base, _ = api.join_stream(queries, data, eps)
        streamed, _ = api.join_stream(
            queries, data, eps, workers=2, spill_threshold_bytes=4096,
        )
        assert joins_bit_identical(base, streamed)

    @pytest.mark.parametrize("method", list(api.METHODS))
    def test_api_self_join_workers(self, dataset, method):
        data, eps = dataset
        serial = api.self_join(data, eps, method=method)
        if method in api.STREAMABLE_METHODS:
            parallel = api.self_join(data, eps, method=method, workers=2)
            assert joins_bit_identical(serial, parallel)
            return
        assert joins_bit_identical(
            serial, api.self_join(data, eps, method=method, workers=None)
        )
        with pytest.raises(ValueError, match="runs serially"):
            api.self_join(data, eps, method=method, workers=2)

    def test_store_distances_false_paths(self, dataset):
        data, eps = dataset
        a = GdsJoinKernel().self_join(data, eps).result
        b = GdsJoinKernel().self_join(data, eps, store_distances=False).result
        assert np.array_equal(a.pairs_i, b.pairs_i)
        assert np.array_equal(a.pairs_j, b.pairs_j)
        assert b.sq_dists.size == 0


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
        """The satellite regression: workers=2 + a tiny spill threshold."""
        data, eps = dataset
        serial, _ = api.self_join_stream(data, eps)
        spilled, _ = api.self_join_stream(
            data, eps, workers=2,
            spill_threshold_bytes=2048, spill_dir=tmp_path / "sp",
        )
        assert joins_bit_identical(serial, spilled)
        # finalize() cleaned the chunks up behind itself.
        assert not list((tmp_path / "sp").glob("spill_*"))

    def test_self_join_stream_spill_threads_through(self, dataset, tmp_path):
        """api.self_join_stream now honors spill_threshold_bytes/spill_dir."""
        data, eps = dataset
        base, _ = api.self_join_stream(data, eps, method="ted-join-brute")
        spilled, _ = api.self_join_stream(
            data, eps, method="ted-join-brute",
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
            api.self_join_stream(
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
    def test_workers_flag(self, capsys):
        from repro.cli import main

        main(["join", "--n", "400", "--d", "16", "--workers", "2"])
        out = capsys.readouterr().out
        assert "workers: 2 (explicit" in out

    def test_workers_auto(self, capsys):
        from repro.cli import main

        main(["join", "--n", "400", "--d", "16", "--workers", "auto", "--stream"])
        out = capsys.readouterr().out
        assert "workers:" in out and "cpu_count=" in out

    def test_workers_junk_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "--workers", "many"])

    def test_workers_auto_bad_env_is_clean_cli_error(self, monkeypatch):
        # A malformed REPRO_WORKERS must surface as a CLI `error:`, not a
        # mid-join ValueError traceback.
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        from repro.cli import main

        with pytest.raises(SystemExit, match="error:"):
            main(["join", "--n", "200", "--d", "8", "--workers", "auto"])

    def test_workers_on_index_method_is_clean_cli_error(self):
        # Index-backed methods run serially: --workers is refused up front
        # with a CLI `error:` (exit status 1), not a traceback and not a
        # silently serial run.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-m", "repro", "join", "--method", "gds-join",
             "--workers", "2", "--n", "200", "--d", "8"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 1
        assert "error: --workers applies to fasted, ted-join-brute" in out.stderr
        assert "Traceback" not in out.stderr
