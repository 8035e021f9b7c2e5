"""Tests for TED-Join, GDS-Join, MiSTIC and the CUDA-core cost model."""

import numpy as np
import pytest

from repro.gpusim.spec import A100_PCIE
from repro.index.grid import GridIndex
from repro.kernels import cudacore
from repro.kernels.cudacore import (
    cuda_kernel_seconds,
    grid_build_seconds,
    short_circuit_profile,
)
from repro.kernels.gdsjoin import GdsJoinKernel
from repro.kernels.mistic import MisticKernel
from repro.kernels.tedjoin import TedJoinKernel, wmma_conflict_degree


def _clustered(n=400, d=32, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 5, size=(8, d))
    return centers[rng.integers(0, 8, n)] + rng.normal(0, 0.4, size=(n, d))


def _truth_pairs(data, eps):
    d2 = ((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2)
    mask = d2 <= eps * eps
    np.fill_diagonal(mask, False)
    return set(zip(*np.nonzero(mask)))


class TestTedJoinCapacity:
    def test_modified_supports_up_to_384(self):
        """Paper Section 4.1.2: the L1-carveout mod reaches d <= 384."""
        k = TedJoinKernel()
        assert k.supports(384)
        assert not k.supports(512)
        assert not k.supports(4096)  # Table 6's OOM column

    def test_unmodified_limit_128(self):
        """Paper: original TED-Join fails to compile for d > 128."""
        k = TedJoinKernel(modified=False)
        assert k.supports(128)
        assert not k.supports(192)

    def test_oom_raises(self):
        k = TedJoinKernel()
        with pytest.raises(MemoryError):
            k.self_join(np.zeros((64, 512)), 1.0)

    def test_occupancy_drops_with_d(self):
        k = TedJoinKernel()
        assert k.occupancy(64) > k.occupancy(384) >= 1
        assert k.occupancy(512) == 0


class TestTedJoinFunctional:
    def test_brute_is_fp64_exact(self):
        data = _clustered(seed=1)
        eps = 3.0
        res = TedJoinKernel(variant="brute").self_join(data, eps).result
        assert set(zip(res.pairs_i.tolist(), res.pairs_j.tolist())) == _truth_pairs(
            data, eps
        )

    def test_index_matches_brute(self):
        data = _clustered(seed=2)
        eps = 2.5
        brute = TedJoinKernel(variant="brute").self_join(data, eps).result
        index = TedJoinKernel(variant="index").self_join(data, eps).result
        bp = set(zip(brute.pairs_i.tolist(), brute.pairs_j.tolist()))
        ip = set(zip(index.pairs_i.tolist(), index.pairs_j.tolist()))
        assert bp == ip

    def test_index_counts_padded_tiles(self):
        data = _clustered(seed=3)
        out = TedJoinKernel(variant="index").self_join(data, 2.0)
        # 8x8 WMMA padding can only inflate the candidate work.
        assert out.total_candidates >= 0

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            TedJoinKernel(variant="hybrid")


class TestTedJoinTiming:
    def test_efficiency_anchored_at_paper_value(self):
        """Paper Section 4.4: 6.8% of FP64 peak at d=64."""
        k = TedJoinKernel()
        assert k.efficiency(64) == pytest.approx(0.068)
        assert k.derived_tflops(100_000, 64) == pytest.approx(
            0.068 * 19.5, rel=0.01
        )

    def test_efficiency_declines_with_d(self):
        k = TedJoinKernel()
        effs = [k.efficiency(d) for d in (64, 128, 256, 384)]
        assert effs == sorted(effs, reverse=True)

    def test_oom_efficiency_zero(self):
        assert TedJoinKernel().efficiency(4096) == 0.0
        assert TedJoinKernel().kernel_seconds(1e6, 4096) == float("inf")

    def test_conflict_degrees_match_table6(self):
        """92.3% at d=128 (13-way) and 75.0% at d=256 (4-way)."""
        assert 1 - 1 / wmma_conflict_degree(128) == pytest.approx(0.923, abs=0.001)
        assert 1 - 1 / wmma_conflict_degree(256) == pytest.approx(0.75)


class TestGdsJoin:
    def test_fp64_matches_truth_exactly(self):
        data = _clustered(seed=4)
        eps = 2.8
        out = GdsJoinKernel(precision="fp64").self_join(data, eps)
        got = set(zip(out.result.pairs_i.tolist(), out.result.pairs_j.tolist()))
        assert got == _truth_pairs(data, eps)

    def test_fp32_close_to_truth(self):
        data = _clustered(seed=5)
        eps = 2.8
        out = GdsJoinKernel(precision="fp32").self_join(data, eps)
        got = set(zip(out.result.pairs_i.tolist(), out.result.pairs_j.tolist()))
        truth = _truth_pairs(data, eps)
        sym = got.symmetric_difference(truth)
        assert len(sym) <= 0.01 * max(len(truth), 1)

    def test_candidates_at_least_results(self):
        data = _clustered(seed=6)
        out = GdsJoinKernel().self_join(data, 2.0)
        assert out.total_candidates >= out.result.pairs_i.size

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            GdsJoinKernel(precision="fp16")

    def test_response_time_grows_with_candidates(self):
        k = GdsJoinKernel()
        prof = short_circuit_profile(
            _clustered(seed=7), 2.0, (np.arange(32), np.arange(32)[::-1])
        )
        t1 = k.response_time(
            1000, 64, total_candidates=10**6, profile=prof, n_result_pairs=1000
        )
        t2 = k.response_time(
            1000, 64, total_candidates=10**8, profile=prof, n_result_pairs=1000
        )
        assert t2.total_s > t1.total_s


class TestMistic:
    def test_matches_truth(self):
        data = _clustered(seed=8)
        eps = 2.8
        out = MisticKernel().self_join(data, eps)
        got = set(zip(out.result.pairs_i.tolist(), out.result.pairs_j.tolist()))
        truth = _truth_pairs(data, eps)
        sym = got.symmetric_difference(truth)
        assert len(sym) <= 0.01 * max(len(truth), 1)

    def test_construction_evaluations_counted(self):
        # Needs d large enough that 19 coordinate candidates remain
        # available at every one of the 6 levels.
        data = _clustered(200, 40, seed=9)
        out = MisticKernel().self_join(data, 2.0, store_distances=False)
        # 6 levels x (19 coord + 19 metric) candidate partitions.
        assert out.construction_evaluations == 6 * 38

    def test_deterministic_given_seed(self):
        data = _clustered(seed=10)
        a = MisticKernel(seed=3).self_join(data, 2.0, store_distances=False)
        b = MisticKernel(seed=3).self_join(data, 2.0, store_distances=False)
        assert a.result.pairs_i.size == b.result.pairs_i.size
        assert a.total_candidates == b.total_candidates


class TestShortCircuitProfile:
    def test_all_neighbors_full_depth(self):
        data = np.zeros((64, 16))
        prof = short_circuit_profile(
            data, 1.0, (np.arange(32), np.arange(32, 64))
        )
        assert prof.mean_fraction == 1.0
        assert prof.warp_fraction == 1.0
        assert prof.neighbor_fraction == 1.0

    def test_far_pairs_abort_early(self):
        rng = np.random.default_rng(11)
        data = rng.normal(0, 10, size=(128, 64))
        prof = short_circuit_profile(
            data, 0.01, (np.arange(64), np.arange(64, 128))
        )
        assert prof.mean_fraction < 0.2
        assert prof.neighbor_fraction == 0.0

    def test_warp_fraction_at_least_mean(self):
        """The warp pays its worst lane: warp fraction >= pair mean."""
        rng = np.random.default_rng(12)
        data = rng.normal(size=(256, 32))
        ii = rng.integers(0, 256, 512)
        jj = rng.integers(0, 256, 512)
        prof = short_circuit_profile(data, 2.0, (ii, jj))
        assert prof.warp_fraction >= prof.mean_fraction

    def test_empty_candidates(self):
        prof = short_circuit_profile(
            np.zeros((4, 4)), 1.0, (np.empty(0, int), np.empty(0, int))
        )
        assert prof.mean_fraction == 1.0

    @pytest.mark.parametrize("kernel", [GdsJoinKernel(), MisticKernel()], ids=["gds", "mistic"])
    def test_join_measures_its_profile_on_first_read_only(self, kernel, monkeypatch):
        calls = []
        real = cudacore.short_circuit_profile
        monkeypatch.setattr(
            cudacore, "short_circuit_profile",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        out = kernel.self_join(_clustered(seed=13), 2.0)
        assert not calls  # the functional join never pays the FP64 pass
        first = out.profile
        assert out.profile is first and len(calls) == 1

    def test_lazy_gds_profile_equals_eager_call_on_the_dataset(self):
        """Same sample (first 64 nonempty cells in lex order, <= 32
        candidates each), same order, same seed as the eager profile the
        join used to end with -- measured on the dataset itself here."""
        data, eps = _clustered(seed=14), 2.0
        index = GridIndex(data, eps, n_dims=6)
        si, sj = [], []
        for members, cands in index.iter_cells():
            if len(si) < 64 and members.size and cands.size:
                take = min(cands.size, 32)
                si.append(np.repeat(members, take))
                sj.append(np.tile(cands[:take], members.size))
        eager = short_circuit_profile(
            data, eps, (np.concatenate(si), np.concatenate(sj)), order=index.order
        )
        for batched in (False, True):
            assert GdsJoinKernel().self_join(data, eps, batched=batched).profile == eager

    def test_kernel_seconds_scaling(self):
        prof = short_circuit_profile(
            np.zeros((64, 16)), 1.0, (np.arange(32), np.arange(32, 64))
        )
        t1 = cuda_kernel_seconds(A100_PCIE, 1e6, 64, prof, 0.1)
        t2 = cuda_kernel_seconds(A100_PCIE, 2e6, 64, prof, 0.1)
        assert t2 == pytest.approx(2 * t1)
        with pytest.raises(ValueError):
            cuda_kernel_seconds(A100_PCIE, 1e6, 64, prof, 0.0)

    def test_grid_build_positive(self):
        assert grid_build_seconds(A100_PCIE, 10_000, 6) > 0
