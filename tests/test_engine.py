"""Tests for the shared join engine (repro.core.engine, PairAccumulator).

The centerpiece is the bit-identity suite: every kernel's self-join routed
through the engine must reproduce the seed (pre-engine) implementation
exactly -- same pair set and bitwise-equal squared distances -- on
fixed-seed datasets across d in {32, 64, 128}.  The seed algorithms live
in :mod:`repro.kernels.reference` (shared with the benchmark so the pinned
baseline cannot drift), giving the engine an independent executor to be
checked against.
"""

import numpy as np
import pytest

from repro import trace
from repro.core import engine
from repro.core.engine import (
    ResidentOperand,
    SourceOperand,
    candidate_join,
    norm_expansion_sq_dists,
    tile_join,
)
from repro.core.results import NeighborResult, PairAccumulator
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.source import ArraySource
from repro.index.grid import GridIndex
from repro.index.mstree import MultiSpaceTree
from repro.kernels.fasted import FastedKernel
from repro.kernels.gdsjoin import GdsJoinKernel
from repro.kernels.mistic import MisticKernel
from repro.kernels.reference import (
    canon as _canon,
)
from repro.kernels.reference import (
    seed_candidate_join,
    seed_fasted_join,
    seed_ted_brute_join,
)
from repro.kernels.tedjoin import TedJoinKernel


def _dataset(d, n=400, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 4, size=(6, d))
    return centers[rng.integers(0, 6, n)] + rng.normal(0, 0.5, size=(n, d))


def _fp64_operand(data):
    return ResidentOperand(*TedJoinKernel._block_state(np.ascontiguousarray(data, np.float64)))


def assert_bit_identical(a: NeighborResult, b: NeighborResult):
    """Same pair set (order-insensitive) and bitwise-equal distances."""
    ai, aj, ad = _canon(a)
    bi, bj, bd = _canon(b)
    np.testing.assert_array_equal(ai, bi)
    np.testing.assert_array_equal(aj, bj)
    assert np.array_equal(ad.view(np.uint32), bd.view(np.uint32))


# ----------------------------------------------------------------------
# Kernel bit-identity through the engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [32, 64, 128])
class TestKernelBitIdentity:
    def test_fasted(self, d):
        data = _dataset(d)
        eps = epsilon_for_selectivity(data, 24)
        got = FastedKernel().self_join(data, eps)
        assert_bit_identical(got, seed_fasted_join(data, eps))

    def test_ted_join_brute(self, d):
        data = _dataset(d, seed=1)
        eps = epsilon_for_selectivity(data, 24)
        got = TedJoinKernel(variant="brute").self_join(data, eps).result
        assert_bit_identical(got, seed_ted_brute_join(data, eps))

    def test_ted_join_index(self, d):
        data = _dataset(d, seed=2)
        eps = epsilon_for_selectivity(data, 24)
        got = TedJoinKernel(variant="index").self_join(data, eps).result
        ref = seed_candidate_join(
            data, eps, GridIndex(data, eps).iter_cells(), np.float64
        )
        assert_bit_identical(got, ref)

    def test_gds_join(self, d):
        data = _dataset(d, seed=3)
        eps = epsilon_for_selectivity(data, 24)
        # The seed reference IS the per-group executor; pin that path
        # explicitly (batched=None may auto-route small-group shapes
        # through the padded-batch executor, whose contract is pair-set
        # equality, not seed bit-identity).
        got = GdsJoinKernel().self_join(data, eps, batched=False).result
        ref = seed_candidate_join(
            data, eps, GridIndex(data, eps).iter_cells(), np.float32
        )
        assert_bit_identical(got, ref)

    def test_mistic(self, d):
        data = _dataset(d, seed=4)
        eps = epsilon_for_selectivity(data, 24)
        got = MisticKernel().self_join(data, eps).result
        tree = MultiSpaceTree(data, eps, n_levels=6, n_candidates=38, seed=0)
        ref = seed_candidate_join(
            data, eps, tree.iter_groups(group=512), np.float32, einsum_norms=True
        )
        assert_bit_identical(got, ref)


class TestEngineExecution:
    def test_row_block_invariance(self):
        """Tiling is a performance knob: the pair set must not change.

        (FP32 GEMMs reassociate the k-reduction per tile shape, so
        distances are compared to a small float32 tolerance, while the
        FP64 TED path below stays strictly bit-identical.)
        """
        data = _dataset(48, seed=5)
        eps = epsilon_for_selectivity(data, 16)
        base = _canon(FastedKernel().self_join(data, eps))
        for rb in (64, 100, 1000, 10_000):
            got = _canon(FastedKernel().self_join(data, eps, row_block=rb))
            np.testing.assert_array_equal(base[0], got[0])
            np.testing.assert_array_equal(base[1], got[1])
            np.testing.assert_allclose(base[2], got[2], rtol=1e-3, atol=1e-3)

    def test_ted_row_block_bit_invariance(self):
        data = _dataset(48, seed=5)
        eps = epsilon_for_selectivity(data, 16)
        base = TedJoinKernel(variant="brute").self_join(data, eps).result
        for rb in (64, 100, 10_000):
            acc, _ = tile_join(_fp64_operand(data), float(eps) ** 2, row_block=rb)
            assert_bit_identical(base, acc.finalize(len(data), float(eps)))

    def test_workers_identical_to_serial(self):
        data = _dataset(32, n=600, seed=6)
        eps = epsilon_for_selectivity(data, 16)
        serial = FastedKernel().self_join(data, eps, row_block=128)
        threaded = FastedKernel().self_join(
            data, eps, row_block=128, workers=4
        )
        # Deterministic commit order: identical arrays, not just same set.
        np.testing.assert_array_equal(serial.pairs_i, threaded.pairs_i)
        np.testing.assert_array_equal(serial.pairs_j, threaded.pairs_j)
        assert np.array_equal(
            serial.sq_dists.view(np.uint32), threaded.sq_dists.view(np.uint32)
        )

    def test_ted_brute_workers(self):
        data = _dataset(32, n=500, seed=7)
        eps = epsilon_for_selectivity(data, 16)
        a = TedJoinKernel(variant="brute").self_join(data, eps).result
        b = TedJoinKernel(variant="brute").self_join(data, eps, workers=3).result
        assert_bit_identical(a, b)

    def test_store_distances_off(self):
        data = _dataset(32, n=200, seed=8)
        eps = epsilon_for_selectivity(data, 8)
        with_d = FastedKernel().self_join(data, eps)
        without = FastedKernel().self_join(data, eps, store_distances=False)
        assert without.sq_dists.size == 0
        ai = np.lexsort((with_d.pairs_j, with_d.pairs_i))
        bi = np.lexsort((without.pairs_j, without.pairs_i))
        np.testing.assert_array_equal(with_d.pairs_i[ai], without.pairs_i[bi])
        np.testing.assert_array_equal(with_d.pairs_j[ai], without.pairs_j[bi])

    def test_empty_result(self):
        data = _dataset(16, n=50, seed=9) * 100.0  # spread out, tiny eps
        res, stats = tile_join(_fp64_operand(data), 1e-12, row_block=16)
        assert len(res) == 0 and stats.tiles_evaluated == stats.plan.n_tiles
        out = res.finalize(50, 1e-6)
        assert out.pairs_i.size == 0 and out.sq_dists.size == 0

    def test_candidate_chunking_invariance(self, monkeypatch):
        data = _dataset(24, n=300, seed=10)
        eps = epsilon_for_selectivity(data, 16)
        index = GridIndex(data, eps)
        operand = _fp64_operand(data)
        eps2 = float(eps) ** 2
        whole = candidate_join(index.iter_cells(), operand, eps2)
        # The executor derives its candidate-axis chunk from d; shrink the
        # element bound so every group is cut into 7-candidate chunks.
        monkeypatch.setattr(engine, "GROUP_CHUNK_ELEMS", 7 * data.shape[1])
        assert engine.group_chunk(data.shape[1]) == 7
        chunked = candidate_join(index.iter_cells(), operand, eps2)
        assert_bit_identical(whole.finalize(300, eps), chunked.finalize(300, eps))

    def test_on_group_sees_every_nonempty_group(self):
        data = _dataset(16, n=150, seed=11)
        eps = epsilon_for_selectivity(data, 8)
        index = GridIndex(data, eps)
        seen = []
        candidate_join(
            index.iter_cells(),
            _fp64_operand(data),
            -1.0,  # keep nothing
            on_group=lambda m, c: seen.append((m.size, c.size)),
        )
        expect = [
            (m.size, c.size)
            for m, c in index.iter_cells()
            if m.size and c.size
        ]
        assert seen == expect


# ----------------------------------------------------------------------
# candidate_join: every operand kind x execution mode agrees with brute force
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["per-group", "batched", "pooled", "pooled-batched"])
@pytest.mark.parametrize("streamed", [False, True], ids=["resident", "source"])
@pytest.mark.parametrize("two_source", [False, True], ids=["self", "axb"])
def test_candidate_join_modes_match_brute_force(two_source, streamed, mode):
    data = _dataset(12, n=260, seed=14)
    queries = _dataset(12, n=90, seed=15) if two_source else data
    eps = float(epsilon_for_selectivity(data, 10))
    index = GridIndex(data, eps)

    def operand(x):
        if streamed:
            return SourceOperand(ArraySource(x), TedJoinKernel._block_state)
        return _fp64_operand(x)

    got = candidate_join(
        index.iter_join_groups(queries) if two_source else index.iter_cells(),
        operand(queries),
        eps * eps,
        operand(data) if two_source else None,
        batched="batched" in mode,
        workers=2 if "pooled" in mode else 0,  # source-backed: runs serial
        group_batch=8,
    )
    brute, _ = tile_join(
        _fp64_operand(queries), eps * eps,
        _fp64_operand(data) if two_source else None, row_block=64,
    )
    if two_source:
        shape = (queries.shape[0], data.shape[0])
        got, brute = got.finalize_join(*shape, eps), brute.finalize_join(*shape, eps)
    else:
        got, brute = got.finalize(len(data), eps), brute.finalize(len(data), eps)
    if "batched" in mode:  # pair-set contract (padded GEMMs may reassociate)
        for x, y in zip(_canon(got)[:2], _canon(brute)[:2]):
            np.testing.assert_array_equal(x, y)
    else:
        assert_bit_identical(got, brute)


# ----------------------------------------------------------------------
# Stage hooks: every executor shape and mode reports its stages
# ----------------------------------------------------------------------


def _hook_cases():
    """(id, run, expected stages): ``run()`` returns one join's arrays."""
    data, other = _dataset(16, n=220, seed=12), _dataset(16, n=180, seed=13)
    eps = float(epsilon_for_selectivity(data, 10))

    def operand(x, streamed):
        if streamed:
            return SourceOperand(ArraySource(x), TedJoinKernel._block_state)
        return _fp64_operand(x)

    def tiled(two_source, streamed):
        return lambda: tile_join(
            operand(data, streamed), eps * eps,
            operand(other, streamed) if two_source else None, row_block=64,
        )[0].arrays()

    def gds(**kwargs):
        def run():
            res = GdsJoinKernel(precision="fp64").self_join(data, eps, **kwargs).result
            return res.pairs_i, res.pairs_j, res.sq_dists

        return run

    cases = [
        (
            f"tile-{'axb' if two else 'self'}-{'streamed' if st else 'resident'}",
            tiled(two, st),
            {"gemm", "commit"},
        )
        for two in (False, True)
        for st in (False, True)
    ]
    candidate = {"adjacency", "gather", "gemm", "rz", "commit"}
    cases.append(("gds-per-group", gds(batched=False), candidate))
    cases.append(("gds-batched", gds(batched=True), candidate))
    cases.append(("gds-pooled", gds(batched=False, workers=2), {"adjacency", "worker"}))
    return cases


@pytest.mark.parametrize(
    "run,stages", [pytest.param(r, s, id=i) for i, r, s in _hook_cases()]
)
def test_stage_hooks_cover_every_mode_and_never_change_answers(run, stages):
    plain = run()
    hooks = trace.TraceHooks()
    with trace.use_hooks(hooks):
        hooked = run()
    assert stages <= set(hooks.stages), hooks.stages
    assert all(seconds >= 0.0 for seconds in hooks.stages.values())
    for a, b in zip(plain, hooked):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestNormExpansion:
    def test_bit_identical_to_naive(self):
        rng = np.random.default_rng(0)
        for dt in (np.float32, np.float64):
            a = rng.normal(size=(40, 16)).astype(dt)
            b = rng.normal(size=(30, 16)).astype(dt)
            sa = (a * a).sum(axis=1)
            sb = (b * b).sum(axis=1)
            g = a @ b.T
            naive = sa[:, None] + sb[None, :] - dt(2.0) * g
            naive = np.maximum(naive, 0.0)
            got = norm_expansion_sq_dists(sa, sb, g.copy())
            assert got.dtype == dt
            assert np.array_equal(
                naive.view(np.uint32 if dt is np.float32 else np.uint64),
                got.view(np.uint32 if dt is np.float32 else np.uint64),
            )


class TestPairAccumulator:
    def test_growth_and_finalize(self):
        acc = PairAccumulator(capacity=2)
        rng = np.random.default_rng(0)
        all_i, all_j, all_d = [], [], []
        for _ in range(20):
            m = int(rng.integers(0, 50))
            gi = rng.integers(0, 1000, m)
            gj = rng.integers(0, 1000, m)
            dd = rng.random(m).astype(np.float32)
            acc.append(gi, gj, dd)
            all_i.append(gi)
            all_j.append(gj)
            all_d.append(dd)
        res = acc.finalize(1000, 0.5)
        np.testing.assert_array_equal(res.pairs_i, np.concatenate(all_i))
        np.testing.assert_array_equal(res.pairs_j, np.concatenate(all_j))
        np.testing.assert_array_equal(res.sq_dists, np.concatenate(all_d))

    def test_no_distances_mode(self):
        acc = PairAccumulator(store_distances=False)
        acc.append(np.array([1, 2]), np.array([3, 4]))
        assert len(acc) == 2
        res = acc.finalize(5, 1.0)
        assert res.sq_dists.size == 0

    def test_requires_parallel_arrays(self):
        acc = PairAccumulator()
        with pytest.raises(ValueError):
            acc.append(np.array([1]), np.array([1, 2]), np.array([0.1], np.float32))
        with pytest.raises(ValueError):
            acc.append(np.array([1]), np.array([2]))  # missing distances

    def test_empty_append_is_noop(self):
        acc = PairAccumulator()
        acc.append(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float32))
        assert len(acc) == 0
        assert acc.capacity == 1024

    def test_capacity_doubles(self):
        acc = PairAccumulator(capacity=4)
        acc.append(np.arange(5), np.arange(5), np.zeros(5, np.float32))
        assert acc.capacity >= 5
        assert len(acc) == 5


# ----------------------------------------------------------------------
# Auto-selection of the batched candidate executor (batched=None)
# ----------------------------------------------------------------------


class TestAutoBatchedSelection:
    """``batched=None`` routes by measured group shape, never by guess."""

    @staticmethod
    def _stats(mean_m, mean_c, n_groups):
        from types import SimpleNamespace

        return SimpleNamespace(
            mean_members=mean_m,
            mean_group_candidates=mean_c,
            n_nonempty_cells=n_groups,
        )

    def test_small_typical_block_batches(self):
        from repro.core.engine import auto_batched_from_stats

        assert auto_batched_from_stats(self._stats(8.0, 64.0, 200)) is True

    def test_large_typical_block_stays_per_group(self):
        from repro.core.engine import AUTO_BATCH_ELEMS, auto_batched_from_stats

        big = self._stats(256.0, float(AUTO_BATCH_ELEMS), 200)
        assert auto_batched_from_stats(big) is False

    def test_threshold_is_inclusive(self):
        from repro.core.engine import AUTO_BATCH_ELEMS, auto_batched_from_stats

        at = self._stats(1.0, float(AUTO_BATCH_ELEMS), 200)
        above = self._stats(1.0, float(AUTO_BATCH_ELEMS + 1), 200)
        assert auto_batched_from_stats(at) is True
        assert auto_batched_from_stats(above) is False

    def test_too_few_groups_never_batch(self):
        from repro.core.engine import AUTO_BATCH_MIN_GROUPS, auto_batched_from_stats

        few = self._stats(4.0, 16.0, AUTO_BATCH_MIN_GROUPS - 1)
        enough = self._stats(4.0, 16.0, AUTO_BATCH_MIN_GROUPS)
        assert auto_batched_from_stats(few) is False
        assert auto_batched_from_stats(enough) is True

    def test_degenerate_empty_shape_stays_per_group(self):
        from repro.core.engine import auto_batched_from_stats

        assert auto_batched_from_stats(self._stats(0.0, 0.0, 500)) is False

    def test_kernel_auto_matches_forced_choice(self):
        """The batched=None run is bit-identical to explicitly forcing
        whichever executor the heuristic picks for this index shape."""
        from repro.core.engine import auto_batched_from_stats

        data = _dataset(32, seed=9)
        eps = epsilon_for_selectivity(data, 24)
        kernel = GdsJoinKernel()
        index = GridIndex(data, eps, n_dims=kernel.n_index_dims)
        choice = auto_batched_from_stats(index.stats())
        auto = kernel.self_join(data, eps).result
        forced = kernel.self_join(data, eps, batched=choice).result
        assert_bit_identical(auto, forced)
        # ...and forcing the OTHER executor still yields the same pair
        # set (distance bits may differ: padded GEMMs reassociate).
        other = kernel.self_join(data, eps, batched=not choice).result
        ai, aj, _ = _canon(auto)
        oi, oj, _ = _canon(other)
        np.testing.assert_array_equal(ai, oi)
        np.testing.assert_array_equal(aj, oj)
