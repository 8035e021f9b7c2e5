"""CUDA-core (non-tensor) cost model shared by GDS-Join and MiSTIC.

Both baselines compute candidate distances on FP32 CUDA cores with
**short-circuiting**: the running squared-distance sum is compared against
``eps^2`` after every dimension and the loop aborts once it is exceeded
(paper Section 4.1.2).  Combined with variance-ordered coordinates this
means non-neighbors usually touch only a small prefix of the dimensions --
the quantity that makes index-supported methods competitive at all.

The short-circuit profile is *measured on the actual data*: we sample
candidate pairs, accumulate squared differences in variance order and
record where each pair would abort.  The timing model then charges

    work = sum(candidates) x d x mean_computed_fraction x OPS_PER_DIM

FLOPs at an effective fraction of the FP32 peak; the effective fraction is
a per-algorithm calibration constant covering divergence, gather-pattern
memory behaviour and load (im)balance -- the structural reasons the paper
cites for why these kernels cannot approach peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.pipeline import PipelineConfig
from repro.gpusim.spec import GpuSpec
from repro.gpusim.timing import KernelCost, ResourceDemand

#: FLOPs per dimension of one distance computation (sub, FMA).
OPS_PER_DIM = 3.0


@dataclass(frozen=True)
class ShortCircuitProfile:
    """Measured early-abort behaviour of candidate distance computations.

    ``mean_fraction`` is the per-*pair* average abort depth; ``warp_fraction``
    is the per-*warp* average of the worst lane, which is what the hardware
    actually pays: the 32 lanes of a warp advance in lock-step, so a warp's
    distance loop runs until its slowest pair aborts (one surviving neighbor
    forces all 32 lanes through the full depth).  This intra-warp load
    imbalance is precisely the effect the GDS-Join/MiSTIC papers engineer
    against, and it dominates at small radii where most pairs abort early.
    """

    mean_fraction: float  # mean fraction of dimensions actually computed
    warp_fraction: float  # mean over warps of the max lane fraction
    neighbor_fraction: float  # fraction of candidate pairs that are neighbors

    @property
    def effective_dims_factor(self) -> float:
        return self.warp_fraction


def short_circuit_profile(
    data: np.ndarray,
    eps: float,
    candidate_pairs: tuple[np.ndarray, np.ndarray],
    *,
    order: np.ndarray | None = None,
    max_pairs: int = 20000,
    seed: int = 0,
) -> ShortCircuitProfile:
    """Measure the short-circuit profile on sampled candidate pairs.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset (the precision of the baseline is irrelevant for
        the *profile*; float64 is used for stability).
    eps:
        Search radius.
    candidate_pairs:
        ``(i_idx, j_idx)`` arrays of candidate pairs produced by an index.
    order:
        Coordinate evaluation order (variance order when the algorithm
        reorders dimensions; identity otherwise).
    max_pairs:
        Sample size cap; pairs are subsampled uniformly beyond it.
    """
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    ii, jj = candidate_pairs
    ii = np.asarray(ii)
    jj = np.asarray(jj)
    if ii.size == 0:
        return ShortCircuitProfile(
            mean_fraction=1.0, warp_fraction=1.0, neighbor_fraction=0.0
        )
    if ii.size > max_pairs:
        rng = np.random.default_rng(seed)
        pick = rng.choice(ii.size, size=max_pairs, replace=False)
        ii, jj = ii[pick], jj[pick]
    if order is None:
        order = np.arange(d)
    diffs = data[ii][:, order] - data[jj][:, order]
    cum = np.cumsum(diffs * diffs, axis=1)
    eps2 = eps * eps
    exceeded = cum > eps2
    # First dimension index at which the pair aborts; d when it never does.
    first = np.where(
        exceeded.any(axis=1), np.argmax(exceeded, axis=1) + 1, d
    ).astype(np.float64)
    neighbors = ~exceeded[:, -1]
    # Warp cost: the max abort depth over each group of 32 consecutive
    # sampled pairs (candidates of a point are processed consecutively by a
    # warp's lanes, so consecutive grouping is the realistic pairing).
    n_warps = first.size // 32
    if n_warps >= 1:
        warp_max = first[: n_warps * 32].reshape(n_warps, 32).max(axis=1)
        warp_fraction = float(warp_max.mean() / d)
    else:
        warp_fraction = float(first.max() / d)
    return ShortCircuitProfile(
        mean_fraction=float(first.mean() / d),
        warp_fraction=warp_fraction,
        neighbor_fraction=float(neighbors.mean()),
    )


class ProfileSample:
    """Sampled candidate pairs whose profile is measured on first read.

    The functional joins end by sampling candidate pairs for the timing
    model, but only the timing path (``response_time`` / ``cost``) ever
    reads the profile -- ``repro.self_join`` discards it -- so the FP64
    pass over the sample waits for :attr:`profile`.  The sample is kept
    compacted (only the sampled rows, pair indices renumbered into them),
    so holding it never holds the dataset, and the lazy value is
    identical to an eager :func:`short_circuit_profile` call on it.
    """

    def __init__(self, sample_i, sample_j, take_rows, eps: float, order=None) -> None:
        """``take_rows(idx)`` gathers float64 dataset rows; it is called
        here, once, on the distinct sampled indices."""
        uniq, inv = np.unique(
            np.concatenate((sample_i, sample_j)), return_inverse=True
        )
        self.rows = take_rows(uniq)
        self.pairs = (inv[: len(sample_i)], inv[len(sample_i) :])
        self.eps = eps
        self.order = order
        self._profile: ShortCircuitProfile | None = None

    @property
    def profile(self) -> ShortCircuitProfile:
        if self._profile is None:
            self._profile = short_circuit_profile(
                self.rows, self.eps, self.pairs, order=self.order
            )
        return self._profile


def cuda_kernel_seconds(
    spec: GpuSpec,
    total_candidates: float,
    dims: int,
    profile: ShortCircuitProfile,
    efficiency: float,
) -> float:
    """Kernel time of a short-circuiting CUDA-core distance pass."""
    if efficiency <= 0:
        raise ValueError("efficiency must be positive")
    work = total_candidates * dims * profile.effective_dims_factor * OPS_PER_DIM
    return work / (spec.fp32_cuda_flops * efficiency)


def cuda_candidate_cost(
    spec: GpuSpec,
    dims: int,
    *,
    total_candidates: int,
    profile: ShortCircuitProfile,
    efficiency: float,
    elem_bytes: int,
) -> KernelCost:
    """Measured-work :class:`KernelCost` of a short-circuiting candidate pass.

    The candidate kernels (GDS-Join, MiSTIC) have no standalone tile
    geometry to model -- the functional run *is* the work inventory.
    ``n_tiles`` is the number of 32-lane warp work units over the
    candidate pairs the executor actually evaluated, ``chunks_per_tile``
    the short-circuit-weighted dimension depth, both taken from the same
    measured statistics the kernels' ``response_time`` charges -- modeled
    and executed work agree by construction (the candidate-kernel
    analogue of the tiled kernels' shared ``TilePlan``).
    """
    warps = max(1, -(-int(total_candidates) // 32))
    depth = max(1, int(round(dims * profile.effective_dims_factor)))
    rate = (
        spec.fp32_cuda_flops * efficiency / spec.boost_clock_hz / spec.sm_count
    )
    demand = ResourceDemand(
        tc_cycles=32 * OPS_PER_DIM / rate,
        smem_load_cycles=0.0,
        issue_cycles=0.0,
        gmem_bytes=32 * elem_bytes,  # one gathered dim per lane
        smem_store_bytes=0.0,
    )
    return KernelCost(
        n_tiles=warps,
        chunks_per_tile=depth,
        demand=demand,
        epilogue_cycles=0.0,
        pipeline=PipelineConfig(async_copy=False, depth=1),
        grid_blocks=spec.sm_count,
        blocks_per_sm=1,
        l2_hit_rate=0.5,
    )


def grid_build_seconds(spec: GpuSpec, n_points: int, n_dims_indexed: int) -> float:
    """GPU grid-index construction: project, hash, sort, mark boundaries."""
    key_ops = n_points * max(1.0, np.log2(max(n_points, 2)))
    project_ops = n_points * n_dims_indexed * 2.0
    sort_rate = 2.0e9  # keys/s for a GPU radix sort of this key width
    return key_ops / (sort_rate * np.log2(max(n_points, 2))) + project_ops / (
        spec.fp32_cuda_flops * 0.05
    ) + 200e-6
