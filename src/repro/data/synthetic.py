"""Synthetic datasets (paper Table 4, bottom).

The paper's Synth family: ``|D| = 10^(3 + n/3)`` for ``n in 0..9`` (1000 to
1,000,000) crossed with ``d = 2^n`` for ``n in 6..12`` (64 to 4096).  These
drive the brute-force throughput experiments (Figures 8-9, Tables 5-6),
where the data *distribution* is irrelevant -- a brute-force method does
identical work for any values -- but the *values* still matter for the
functional path, so the generator produces well-conditioned FP16-friendly
uniform data by default and clustered data on request.
"""

from __future__ import annotations

import numpy as np

#: Paper's Synth dataset sizes: 10^(3 + n/3), n = 0..9.
SYNTH_SIZES: tuple[int, ...] = tuple(
    int(round(10 ** (3 + n / 3))) for n in range(10)
)

#: Paper's Synth dimensionalities: 2^n, n = 6..12.
SYNTH_DIMS: tuple[int, ...] = tuple(2**n for n in range(6, 13))


def synth_dataset(
    n: int,
    d: int,
    *,
    seed: int = 0,
    clustered: bool = False,
    n_clusters: int = 32,
) -> np.ndarray:
    """Generate a Synth dataset of ``n`` points in ``d`` dimensions.

    Parameters
    ----------
    n, d:
        Cardinality and dimensionality (any values, not only the paper
        grid).
    seed:
        RNG seed; generation is deterministic.
    clustered:
        When True, draw points around ``n_clusters`` Gaussian centers
        instead of uniformly -- useful when an index-supported method needs
        non-trivial pruning structure on synthetic data.

    Returns
    -------
    numpy.ndarray
        ``(n, d)`` float32 array with values in a comfortably FP16-safe
        range (|x| < 8).
    """
    if n <= 0 or d <= 0:
        raise ValueError("n and d must be positive")
    rng = np.random.default_rng(seed)
    if not clustered:
        return rng.uniform(0.0, 1.0, size=(n, d)).astype(np.float32)
    centers = rng.uniform(0.0, 4.0, size=(n_clusters, d))
    assign = rng.integers(0, n_clusters, size=n)
    pts = centers[assign] + rng.normal(0.0, 0.15, size=(n, d))
    return pts.astype(np.float32)


def fine_grid_dataset(
    n: int,
    d: int,
    *,
    seed: int = 0,
    n_clusters: int = 512,
    variance_decay: float = 0.8,
    center_scale: float = 40.0,
    noise_scale: float = 0.6,
) -> np.ndarray:
    """Micro-clustered data with anisotropic (decaying) per-dimension variance.

    The workload the *batched* candidate executor targets: per-dimension
    scales fall off as ``(1 + k)^-variance_decay`` (like real descriptor
    datasets -- see :mod:`repro.data.realworld`), so the variance-ordered
    6-dimension grid prefix is highly discriminative, and a small eps
    shatters the dataset into thousands of occupied cells with a handful
    of points each.  In that regime per-cell GEMMs degenerate into Python
    call overhead, which is exactly what the batched mode of
    :func:`repro.core.engine.candidate_join` amortizes
    (benchmarks/bench_engine_throughput.py measures this on
    ``fine_grid_dataset``).

    Returns ``(n, d)`` float64 (the kernels' input precision).
    """
    if n <= 0 or d <= 0:
        raise ValueError("n and d must be positive")
    rng = np.random.default_rng(seed)
    dim_scale = (1.0 + np.arange(d)) ** (-variance_decay)
    centers = rng.normal(0.0, center_scale, size=(n_clusters, d)) * dim_scale
    assign = rng.integers(0, n_clusters, size=n)
    pts = centers[assign] + rng.normal(0.0, noise_scale, size=(n, d)) * dim_scale
    return pts.astype(np.float64)
