"""Tests for the shared join engine (repro.core.engine, PairAccumulator).

The centerpiece is the bit-identity suite: every kernel's self-join routed
through the engine must reproduce the seed (pre-engine) implementation
exactly -- same pair set and bitwise-equal squared distances -- on
fixed-seed datasets across d in {32, 64, 128}.  The seed algorithms live
in :mod:`repro.kernels.reference` (shared with the benchmark so the pinned
baseline cannot drift), giving the engine an independent executor to be
checked against.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import trace
from repro.core import api, engine
from repro.core.engine import (
    ResidentOperand,
    SourceOperand,
    candidate_join,
    norm_expansion_sq_dists,
    threshold_epilogue,
    tile_join,
)
from repro.core.results import NeighborResult, PairAccumulator
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.source import ArraySource
from repro.fp import native
from repro.index.grid import GridIndex
from repro.index.mstree import MultiSpaceTree
from repro.index.query import QueryEngine
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

    def run(**kwargs):
        return candidate_join(
            index.iter_join_groups(queries) if two_source else index.iter_cells(),
            operand(queries),
            eps * eps,
            operand(data) if two_source else None,
            batched="batched" in mode,
            **kwargs,
        )

    if "pooled" in mode:
        # candidate_join runs serially: a worker request is not a
        # parameter it takes.
        with pytest.raises(TypeError):
            run(workers=2)
    got = run()
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

    def api_gds():
        res = api.self_join(data, eps, method="gds-join", precision="fp64")
        return res.pairs_i, res.pairs_j, res.sq_dists

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
    # The API route with an explicit serial worker request runs the
    # candidate loop and reports that loop's stages.
    cases.append(("gds-pooled", api_gds, candidate))

    def knn():
        res = QueryEngine(GridIndex(data, eps), data).knn_query(other[:40], 5)
        return res.indices, res.sq_dists

    # kNN's rounds pull their groups and build their blocks as range does.
    cases.append(("knn-rounds", knn, candidate))
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


# ----------------------------------------------------------------------
# threshold_epilogue: the one Step-3 + eps^2 filter behind every block
# ----------------------------------------------------------------------


def _naive_epilogue(gram, s_row, s_col, eps2, clear_diagonal=False):
    """Reference (kept here, not in src/): full distance block, clamp,
    boolean mask, 2-D ``nonzero``, fancy-indexed float32 distances."""
    with np.errstate(all="ignore"):
        d2 = np.maximum((s_row[:, None] + s_col[None, :]) - 2.0 * gram, 0)
    mask = d2 <= eps2
    if clear_diagonal:
        np.fill_diagonal(mask, False)
    ii, jj = np.nonzero(mask)
    return ii, jj, d2[ii, jj].astype(np.float32)


def _strip_height(rows, c, dtype):
    """Patch the strip budget so a strip holds ``rows`` rows of width ``c``."""
    per_row = c * (2 * np.dtype(dtype).itemsize + 1)
    return mock.patch.object(engine, "TILE_CACHE_BUDGET_BYTES", rows * per_row)


def _numpy_strips(on=True):
    """Make the native binding answer ``None`` (what it does with no
    compiler), so ``threshold_epilogue`` runs its NumPy strips."""
    if not on:
        return contextlib.nullcontext()
    return mock.patch.object(native, "threshold_epilogue_native", lambda *a, **k: None)


def _assert_same_hits(got, want):
    """Equal positions *in order* and bitwise-equal float32 distances."""
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2].dtype == np.float32
    assert got[2].tobytes() == want[2].tobytes()


def _block(m, c, dtype, seed=0, d=6):
    """Gram block + norms of two small-integer point sets: exact
    arithmetic, many ties at each radius, and one coincident pair (0, 0)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(m, d)).astype(dtype)
    b = rng.integers(-3, 4, size=(c, d)).astype(dtype)
    b[0] = a[0]
    return a @ b.T, (a * a).sum(axis=1), (b * b).sum(axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestThresholdEpilogue:
    @pytest.mark.parametrize("m,c", [(1, 1), (23, 10), (5, 31)])
    @pytest.mark.parametrize("eps2", [-1.0, 0.0, 9.0, 40.0, 1e9])
    def test_matches_naive_at_every_strip_height(self, dtype, m, c, eps2):
        """Zero hits (eps2 < 0), eps2 = 0, some hits, all hits; strip
        heights 1, 7 (dividing neither m) and >= m, and the default."""
        gram, sr, sc = _block(m, c, dtype, seed=m + c)
        want = _naive_epilogue(gram.copy(), sr, sc, dtype(eps2))
        assert (want[0].size == 0) == (eps2 < 0)  # eps2 = 0 keeps (0, 0)
        assert (want[0].size == m * c) == (eps2 == 1e9 or m * c == 1 and eps2 >= 0)
        _assert_same_hits(threshold_epilogue(gram.copy(), sr, sc, dtype(eps2)), want)
        for rows in (1, 7, m + 3):
            with _strip_height(rows, c, dtype):
                got = threshold_epilogue(gram.copy(), sr, sc, dtype(eps2))
            _assert_same_hits(got, want)

    @pytest.mark.parametrize("m,c", [(9, 13), (13, 9), (8, 8)])
    def test_clipped_diagonal_tile_clears_its_diagonal(self, dtype, m, c):
        rng = np.random.default_rng(3)
        pts = rng.integers(-2, 3, size=(max(m, c), 4)).astype(dtype)
        norms = (pts * pts).sum(axis=1)
        gram = pts[:m] @ pts[:c].T
        want = _naive_epilogue(gram.copy(), norms[:m], norms[:c], dtype(6.0), True)
        assert not np.any(want[0] == want[1]) and want[0].size
        for rows in (1, 4, m):
            with _strip_height(rows, c, dtype):
                got = threshold_epilogue(
                    gram.copy(), norms[:m], norms[:c], dtype(6.0), clear_diagonal=True
                )
            _assert_same_hits(got, want)

    def test_negative_recombination_is_stored_as_positive_zero(self, dtype):
        # (1 + 1) - 2 * 1.5 = -1: in range for eps2 >= 0 only after the clamp.
        gram = np.array([[1.5, 0.0]], dtype=dtype)
        ones = np.ones(2, dtype=dtype)
        rows, cols, dd = threshold_epilogue(gram.copy(), ones[:1], ones, dtype(0.5))
        assert (rows.tolist(), cols.tolist()) == ([0], [0])
        assert dd.tobytes() == np.float32(0.0).tobytes()  # +0.0, not -0.0 / -1
        # ... and a negative radius keeps nothing: max(-1, 0) > -0.5.
        assert threshold_epilogue(gram, ones[:1], ones, dtype(-0.5))[0].size == 0

    def test_nan_and_inf_norms_never_emit(self, dtype):
        gram, sr, sc = _block(6, 7, dtype, seed=5)
        sr[1], sr[4], sc[2], sc[6] = np.inf, np.nan, np.nan, np.inf
        want = _naive_epilogue(gram.copy(), sr, sc, dtype(1e9))
        assert want[0].size == 4 * 5
        with _strip_height(4, 7, dtype):
            _assert_same_hits(threshold_epilogue(gram.copy(), sr, sc, dtype(1e9)), want)

    def test_padded_batch_block_with_mixed_group_sizes(self, dtype):
        """The 3-D block: rows index the (g*m, c) view, inf-norm padding
        never emits, whatever number of groups a strip holds."""
        sizes = [(3, 5), (1, 2), (4, 1), (2, 5)]
        g, pad_m, pad_c = len(sizes), 4, 5
        gram = np.zeros((g, pad_m, pad_c), dtype=dtype)
        sm = np.full((g, pad_m), np.inf, dtype=dtype)
        sc = np.full((g, pad_c), np.inf, dtype=dtype)
        want = [[], [], []]
        for k, (m, c) in enumerate(sizes):
            gram[k, :m, :c], sm[k, :m], sc[k, :c] = _block(m, c, dtype, seed=k)
            ii, jj, dd = _naive_epilogue(gram[k, :m, :c].copy(), sm[k, :m], sc[k, :c], dtype(20.0))
            want[0].append(ii + k * pad_m), want[1].append(jj), want[2].append(dd)
        want = [np.concatenate(w) for w in want]
        assert want[0].size
        for rows in (1, 3, pad_m, 2 * pad_m + 1, g * pad_m):
            with _strip_height(rows, pad_c, dtype):
                got = threshold_epilogue(gram.copy(), sm, sc, dtype(20.0))
            _assert_same_hits(got, want)

    def test_store_distances_off_and_stage_hooks(self, dtype):
        gram, sr, sc = _block(12, 9, dtype, seed=8)
        want = _naive_epilogue(gram.copy(), sr, sc, dtype(12.0))
        hooks = trace.TraceHooks()
        rows, cols, dd = threshold_epilogue(
            gram.copy(), sr, sc, dtype(12.0), store_distances=False, hooks=hooks
        )
        assert dd is None and set(hooks.stages) == {"rz", "commit"}
        np.testing.assert_array_equal(rows, want[0])
        np.testing.assert_array_equal(cols, want[1])


@given(
    m=st.integers(1, 24), c=st.integers(1, 24), rows=st.integers(1, 30),
    quantile=st.floats(0.0, 1.0), f32=st.booleans(), diagonal=st.booleans(),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_threshold_epilogue_shape_value_sweep(m, c, rows, quantile, f32, diagonal, seed):
    """Both implementations: the fused C pass (when it built; the patched
    budget also shrinks its scratch, so fills resume mid-block) and the
    NumPy strips."""
    dtype = np.float32 if f32 else np.float64
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(m, 5)).astype(dtype), rng.normal(size=(c, 5)).astype(dtype)
    gram, sr, sc = a @ b.T, (a * a).sum(axis=1), (b * b).sum(axis=1)
    # A radius that is itself one of the block's distances: ties included.
    eps2 = dtype(np.quantile(norm_expansion_sq_dists(sr, sc, gram.copy()), quantile))
    want = _naive_epilogue(gram.copy(), sr, sc, eps2, diagonal)
    for numpy_only in (False, True):
        with _strip_height(rows, c, dtype), _numpy_strips(numpy_only):
            got = threshold_epilogue(gram.copy(), sr, sc, eps2, clear_diagonal=diagonal)
        _assert_same_hits(got, want)


needs_native = pytest.mark.skipif(not native.available(), reason="no C compiler")


@needs_native
class TestThresholdEpilogueNumpyStrips(TestThresholdEpilogue):
    """Every case above again with the native binding answering ``None``:
    there they ran the fused C pass (their patched budgets shrink its
    scratch, so fills resume mid-block), here the NumPy strips it must
    match bit for bit.  Skipped without a compiler: the same run twice."""

    @pytest.fixture(autouse=True)
    def _no_native(self):
        with _numpy_strips():
            yield


@contextlib.contextmanager
def _native_answers():
    """Record what the native binding answers, fill by fill."""
    answers, real = [], native.threshold_epilogue_native

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]

    with mock.patch.object(native, "threshold_epilogue_native", spy):
        yield answers


@needs_native
class TestNativeEpilogue:
    """What the fused C pass must get right beyond the shared cases."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "m,c,slots,fills",
        [(37, 11, 50, 10), (3, 200, 50, 3), (5, 8, 8, 5)],
        ids=["four-rows-a-fill", "row-wider-than-the-scratch", "one-row-scratch"],
    )
    def test_all_hit_block_resumes_across_scratch_fills(self, dtype, m, c, slots, fills):
        gram, sr, sc = _block(m, c, dtype, seed=1)
        want = _naive_epilogue(gram.copy(), sr, sc, dtype(1e9), clear_diagonal=True)
        assert want[0].size == m * c - min(m, c)
        with mock.patch.object(engine, "TILE_CACHE_BUDGET_BYTES", 20 * slots):
            with _native_answers() as answers:
                got = threshold_epilogue(gram.copy(), sr, sc, dtype(1e9), clear_diagonal=True)
        assert len(answers) == fills and None not in answers
        assert [row for row, _ in answers][-1] == m
        _assert_same_hits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_padded_batch_fills_straddle_group_boundaries(self, dtype):
        g, m, c = 4, 3, 6
        gram = np.zeros((g, m, c), dtype=dtype)
        sm = np.full((g, m), np.inf, dtype=dtype)
        sc = np.full((g, c), np.inf, dtype=dtype)
        for k in range(g):
            gram[k, :, : c - k], sm[k], sc[k, : c - k] = _block(m, c - k, dtype, seed=k)
        with _numpy_strips():
            want = threshold_epilogue(gram.copy(), sm, sc, dtype(1e9))
        assert want[0].size == sum(m * (c - k) for k in range(g))
        # 15 slots: a fill ends when fewer than c = 6 are left, i.e. after
        # two full rows (more once padding thins them) -- inside a group.
        with mock.patch.object(engine, "TILE_CACHE_BUDGET_BYTES", 20 * 15):
            with _native_answers() as answers:
                got = threshold_epilogue(gram.copy(), sm, sc, dtype(1e9))
        assert [row for row, _ in answers] == [2, 4, 6, 9, 12]
        _assert_same_hits(got, want)

    def test_python_float_radius_is_weak_like_numpy(self):
        """``x <= 0.1`` on a float32 block compares against float32(0.1),
        which is above 0.1: the value float32(0.1) itself is a hit."""
        tenth = np.float32(0.1)
        assert float(tenth) > 0.1
        sc = np.array([tenth, np.nextafter(tenth, np.float32(1))], dtype=np.float32)
        gram, sr = np.zeros((1, 2), np.float32), np.zeros(1, np.float32)
        for eps2 in (0.1, tenth):
            with _native_answers() as answers:
                got = threshold_epilogue(gram.copy(), sr, sc, eps2)
            assert answers == [(1, 1)]
            _assert_same_hits(got, _naive_epilogue(gram, sr, sc, eps2))
        # A float64 scalar promotes the comparison: NumPy's to answer.
        with _native_answers() as answers:
            got = threshold_epilogue(gram.copy(), sr, sc, np.float64(0.1))
        assert answers == [None] and got[0].size == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_and_nan_radius(self, dtype):
        gram, sr, sc = _block(4, 5, dtype, seed=2)  # (0, 0) is coincident
        with _native_answers() as answers:
            got = threshold_epilogue(gram.copy(), sr, sc, dtype(-0.0))
            assert threshold_epilogue(gram.copy(), sr, sc, dtype(np.nan))[0].size == 0
            assert threshold_epilogue(gram.copy(), sr, sc, dtype(-1e-30))[0].size == 0
        assert answers == [(4, 1)]  # NaN / negative: nothing to scan for
        _assert_same_hits(got, _naive_epilogue(gram, sr, sc, dtype(-0.0)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_overflowing_doubling_is_not_contracted(self, dtype):
        """``t - 2*g`` with ``2*g`` overflowing: -inf + ... = inf, a miss;
        a fused multiply-add would keep it finite and report a hit."""
        big = np.finfo(dtype).max
        gram = np.array([[-0.6 * big, 0.0]], dtype=dtype)
        sr, sc = np.array([-0.5 * big], dtype=dtype), np.zeros(2, dtype=dtype)
        with np.errstate(over="ignore"), _native_answers() as answers:
            got = threshold_epilogue(gram.copy(), sr, sc, dtype(0.9 * big))
            want = _naive_epilogue(gram, sr, sc, dtype(0.9 * big))
        assert answers == [(1, 1)] and want[1].tolist() == [1]
        _assert_same_hits(got, want)

    def test_inputs_the_c_loop_does_not_take_fall_back(self):
        gram, sr, sc = _block(9, 7, np.float64, seed=4)
        wide = np.zeros((9, 14))
        wide[:, ::2] = gram
        cases = {
            "float16": (gram.astype(np.float16), sr.astype(np.float16), sc.astype(np.float16)),
            "strided gram": (wide[:, ::2], sr, sc),
            "strided norms": (gram, np.repeat(sr, 2)[::2], sc),
            "float32 gram, float64 norms": (gram.astype(np.float32), sr, sc),
        }
        for name, (gm, s_row, s_col) in cases.items():
            eps2 = gm.dtype.type(12.0)
            with _native_answers() as answers:
                got = threshold_epilogue(gm.copy() if gm.base is None else gm, s_row, s_col, eps2)
            assert answers == [None], name
            # Small integers: exact in every one of these precisions.
            _assert_same_hits(got, _naive_epilogue(gram, sr, sc, 12.0))

    def test_threaded_tiles_equal_serial_and_numpy(self):
        """The tile loop's C pass gives the same arrays, in the same order,
        as the NumPy strips and as a repeat run."""
        data = _dataset(32, n=700, seed=14)
        state = FastedKernel()._block_state(data)
        eps2 = np.float32(epsilon_for_selectivity(data, 24) ** 2)

        def run(**kwargs):
            acc, _ = tile_join(ResidentOperand(*state), eps2, row_block=96, **kwargs)
            return acc.arrays()

        serial = run()
        assert serial[0].size
        with _numpy_strips():
            numpy_strips = run()
        for other in (numpy_strips, run()):
            for a, b in zip(serial, other):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
