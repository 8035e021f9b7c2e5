"""High-level public API of the reproduction.

One-call entry points over the four implementations:

>>> import numpy as np
>>> from repro import self_join, join, epsilon_for_selectivity
>>> data = np.random.default_rng(0).normal(size=(2000, 128))
>>> eps = epsilon_for_selectivity(data, 64)
>>> result = self_join(data, eps)                 # FaSTED (FP16-32)
>>> truth = self_join(data, eps, method="gds-join", precision="fp64")
>>> queries = np.random.default_rng(1).normal(size=(500, 128))
>>> matches = join(queries, data, eps)            # two-source A x B

Methods: ``"fasted"`` (default), ``"ted-join-brute"``, ``"ted-join-index"``,
``"gds-join"``, ``"mistic"`` -- the five rows of paper Table 3.

Datasets may also be :class:`repro.data.source.DatasetSource` instances
(or paths to ``.npy`` files / chunk directories); with ``stream=True`` (or
a ``memory_budget_bytes``) the brute methods then run out-of-core, holding
only ``memory_budget_bytes`` of the data resident (docs/ARCHITECTURE.md
describes the dataflow -- for :func:`self_join` a symmetric
:class:`~repro.core.engine.TilePlan`, for :func:`join` a rectangular one),
and the result's ``stream_stats`` report what was loaded and held.  Each
kernel has one ``self_join`` and one ``join``; the input picks the path (a
source streams, an array stays resident), so streaming here only means
handing the kernel a source.  The index-backed methods materialize here;
their out-of-core self-joins (streamed grid/tree build + source row
gathers) are their kernels' ``self_join`` given a source.

Every method runs its tiles or candidate groups serially on the calling
thread; the brute methods size their default tile edge to the per-core
cache (:func:`repro.core.engine.tile_rows`).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.results import JoinResult, NeighborResult, PairAccumulator
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.source import DatasetSource, as_source
from repro.gpusim.spec import DEFAULT_SPEC, GpuSpec

#: Valid method names (paper Table 3).
METHODS = ("fasted", "ted-join-brute", "ted-join-index", "gds-join", "mistic")

#: Methods that stream here (tiled out-of-core execution): the brute-force
#: kernels.  The index-backed methods materialize at this API level; out
#: of core they run through their kernels' ``self_join`` given a
#: ``DatasetSource`` (out-of-core grid/tree build via
#: ``GridIndex.from_source`` / ``MultiSpaceTree.from_source`` + on-demand
#: source row gathers).
STREAMABLE_METHODS = ("fasted", "ted-join-brute")


def _kernel(method: str, precision: str | None, spec: GpuSpec, seed: int):
    """The kernel behind ``method``, with its precision checked."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "fasted":
        from repro.kernels.fasted import FastedKernel

        if precision not in (None, "fp16-32"):
            raise ValueError("FaSTED is FP16-32 only")
        return FastedKernel(spec)
    if method in ("ted-join-brute", "ted-join-index"):
        from repro.kernels.tedjoin import TedJoinKernel

        if precision not in (None, "fp64"):
            raise ValueError("TED-Join is FP64 only")
        return TedJoinKernel(spec, variant=method.rsplit("-", 1)[1])
    if method == "gds-join":
        from repro.kernels.gdsjoin import GdsJoinKernel

        return GdsJoinKernel(spec, precision=precision or "fp32")
    from repro.kernels.mistic import MisticKernel

    if precision not in (None, "fp32"):
        raise ValueError("MiSTIC is FP32 only")
    return MisticKernel(spec, seed=seed)


def _streams(method, stream, memory_budget_bytes, spill_threshold_bytes) -> bool:
    """Check the streaming arguments; True when the join is to stream."""
    if memory_budget_bytes is not None:
        if stream is False:
            raise ValueError(
                "memory_budget_bytes cannot be honored with stream=False "
                "(materializing ignores the budget)"
            )
        stream = True  # a budget can only be honored by streaming
    if (stream or spill_threshold_bytes is not None) and (
        method not in STREAMABLE_METHODS
    ):
        raise ValueError(
            f"stream=True, memory_budget_bytes and spill_threshold_bytes "
            f"are only supported for {STREAMABLE_METHODS}; index-backed "
            "methods materialize the dataset here"
        )
    return bool(stream)


def _as_input(data, stream: bool):
    """What the kernel reads: a source when streaming, else an array."""
    if stream:
        return as_source(data)
    return data if isinstance(data, np.ndarray) else as_source(data).materialize()


@contextmanager
def _spill_accumulator(spill_threshold_bytes, spill_dir, store_distances):
    """A disk-spilling accumulator (or None), cleaned up if the join dies."""
    if spill_threshold_bytes is None:
        yield None
        return
    acc = PairAccumulator(
        store_distances=store_distances,
        spill_threshold_bytes=spill_threshold_bytes,
        spill_dir=spill_dir,
    )
    try:
        yield acc
    except BaseException:
        # Never strand spill chunks when the join dies (I/O error,
        # interrupt): the accumulator was created here, so it is cleaned
        # up here.  Successful runs clean up when they finalize.
        acc.cleanup()
        raise


def self_join(
    data: np.ndarray | DatasetSource | str | Path,
    eps: float,
    *,
    method: str = "fasted",
    precision: str | None = None,
    spec: GpuSpec = DEFAULT_SPEC,
    store_distances: bool = True,
    seed: int = 0,
    stream: bool | None = None,
    memory_budget_bytes: int | None = None,
    spill_threshold_bytes: int | None = None,
    spill_dir: str | Path | None = None,
    batched: bool = False,
) -> NeighborResult:
    """Distance-similarity self-join: all pairs within ``eps``.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset -- an ndarray, a
        :class:`~repro.data.source.DatasetSource`, or a path to a ``.npy``
        file / chunk directory (coerced with
        :func:`repro.data.source.as_source`).
    eps:
        Search radius.
    method:
        One of :data:`METHODS`.
    precision:
        Only meaningful for ``"gds-join"`` (``"fp32"`` default, ``"fp64"``
        for the accuracy ground truth).  The other methods have fixed
        precision per Table 3 (FaSTED: FP16-32; TED-Join: FP64;
        MiSTIC: FP32).
    spec:
        Simulated GPU model (affects only capacity checks functionally).
    store_distances:
        Keep per-pair squared distances on the result.
    seed:
        Seed for randomized index construction (MiSTIC pivots).
    stream:
        Run out-of-core (:data:`STREAMABLE_METHODS` only; bit-identical to
        the in-memory path, at the same cache-fit tile edge).  The
        default, ``None``, materializes the data unless
        ``memory_budget_bytes`` is given; ``True`` for an index-backed
        method raises.  The result's ``stream_stats`` then hold the
        residency statistics (peak resident bytes, blocks loaded).
    memory_budget_bytes:
        Bound on resident streamed-block bytes; the tile plan is derived
        from it (:meth:`repro.core.engine.TilePlan.from_budget`).  Implies
        ``stream=True`` (a budget cannot be honored by materializing), so
        passing it with ``stream=False`` or for an index-backed method
        raises.
    spill_threshold_bytes, spill_dir:
        :data:`STREAMABLE_METHODS` only: route the pairs through a
        disk-spilling :class:`~repro.core.results.PairAccumulator`,
        bounding resident *result* memory during accumulation as the tile
        plan bounds the streamed blocks (the returned result still
        materializes).
    batched:
        Index-backed methods only: fuse small candidate groups into padded
        batch GEMMs (same pair set, faster at small eps).

    Returns
    -------
    NeighborResult
        Non-self pairs within ``eps`` (both directions).
    """
    kernel = _kernel(method, precision, spec, seed)
    stream = _streams(method, stream, memory_budget_bytes, spill_threshold_bytes)
    if method not in STREAMABLE_METHODS:
        return kernel.self_join(
            _as_input(data, stream), eps,
            store_distances=store_distances, batched=batched,
        ).result
    if batched:
        raise ValueError("batched=True applies to index-backed methods only")
    with _spill_accumulator(
        spill_threshold_bytes, spill_dir, store_distances
    ) as acc:
        out = kernel.self_join(
            _as_input(data, stream), eps, store_distances=store_distances,
            memory_budget_bytes=memory_budget_bytes, acc=acc,
        )
    return out if method == "fasted" else out.result


def self_join_stream(data, eps, **kwargs):
    """:func:`self_join` with ``stream=True``, returning ``(result, stats)``."""
    result = self_join(data, eps, stream=True, **kwargs)
    return result, result.stream_stats


def join(
    a: np.ndarray | DatasetSource | str | Path,
    b: np.ndarray | DatasetSource | str | Path,
    eps: float,
    *,
    method: str = "fasted",
    precision: str | None = None,
    spec: GpuSpec = DEFAULT_SPEC,
    store_distances: bool = True,
    seed: int = 0,
    stream: bool | None = None,
    memory_budget_bytes: int | None = None,
    spill_threshold_bytes: int | None = None,
    spill_dir: str | Path | None = None,
) -> JoinResult:
    """Two-source distance-similarity join: pairs ``(i in A, j in B)``.

    The general A x B counterpart of :func:`self_join`: every returned
    pair relates a point of the left set ``a`` to a point of the right
    set ``b`` (one direction only -- there is no diagonal and nothing is
    mirrored).  The brute methods run the rectangular tiled executor;
    the index-backed methods build their grid/tree over **B** and drop
    A's points into it.

    Parameters
    ----------
    a, b:
        ``(n_a, d)`` / ``(n_b, d)`` datasets -- ndarrays,
        :class:`~repro.data.source.DatasetSource` instances, or paths.
        Dimensionalities must match.
    eps:
        Search radius.
    method, precision, spec, store_distances, seed:
        As for :func:`self_join`.
    stream, memory_budget_bytes, spill_threshold_bytes, spill_dir:
        As for :func:`self_join`: streamed, A's row blocks pin stripe by
        stripe while B's column blocks stream through, bit-identical to
        the in-memory path at the same tile plan, and the result's
        ``stream_stats`` hold the residency statistics.

    Returns
    -------
    JoinResult
        Pairs within ``eps``, indices into A and B respectively.
    """
    kernel = _kernel(method, precision, spec, seed)
    stream = _streams(method, stream, memory_budget_bytes, spill_threshold_bytes)
    a, b = _as_input(a, stream), _as_input(b, stream)
    if method not in STREAMABLE_METHODS:
        return kernel.join(a, b, eps, store_distances=store_distances)
    with _spill_accumulator(
        spill_threshold_bytes, spill_dir, store_distances
    ) as acc:
        return kernel.join(
            a, b, eps, store_distances=store_distances,
            memory_budget_bytes=memory_budget_bytes, acc=acc,
        )


def join_stream(a, b, eps, **kwargs):
    """:func:`join` with ``stream=True``, returning ``(result, stats)``."""
    result = join(a, b, eps, stream=True, **kwargs)
    return result, result.stream_stats


#: Module-level LRU of loaded query engines behind :func:`open_index`
#: (lazy; built with the default serving configuration on first use).
_INDEX_CACHE = None


def build_index(
    data: np.ndarray | DatasetSource | str | Path,
    eps: float,
    path: str | Path,
    *,
    n_dims: int = 6,
    mutable: bool = False,
    seal_threshold: int | None = None,
) -> Path:
    """Build an epsilon-grid query index over ``data`` and persist it.

    The build-once half of the serving lifecycle: the resulting directory
    (see :mod:`repro.index.persist` for the format) is what
    :func:`open_index`, ``python -m repro query`` and ``python -m repro
    serve`` answer queries from.  Non-resident inputs (paths, sources)
    build **out of core** (``GridIndex.from_source``) and the dataset is
    embedded (in cell order) by a streamed copy, so the ``(n, d)`` array
    never materializes here.

    Parameters
    ----------
    data:
        Dataset -- ndarray, source, or path.
    eps:
        Grid cell width; queries at radii up to this are served (the
        serving cache keys indexes by this eps grid).
    path:
        Target directory.
    n_dims:
        Indexed dimension count.
    mutable:
        Build a **mutable** LSM-style store
        (:class:`repro.index.delta.MutableIndex`) instead of an
        immutable index directory: appends, tombstone deletes and
        compaction become available (``index append`` / ``index delete``
        / ``index compact``).
    seal_threshold:
        Mutable only: buffered appends spill to a sealed on-disk segment
        past this row count.
    """
    from repro.index.grid import GridIndex
    from repro.index.persist import save_index

    if mutable:
        from repro.index.delta import MutableIndex

        kwargs = {"n_dims": n_dims}
        if seal_threshold is not None:
            kwargs["seal_threshold"] = int(seal_threshold)
        MutableIndex.create(path, data, eps, **kwargs)
        return Path(path)
    if seal_threshold is not None:
        raise ValueError("seal_threshold applies only with mutable=True")
    source = as_source(data)
    index = (
        GridIndex(data, eps, n_dims=n_dims)
        if isinstance(data, np.ndarray)
        else GridIndex.from_source(source, eps, n_dims=n_dims)
    )
    return save_index(index, path, data=source)


def open_index(
    path: str | Path,
    *,
    cache: bool = True,
    verify: str = "header",
):
    """Open a persisted index for querying; returns a ``QueryEngine``.

    A mutable store (built with ``build_index(..., mutable=True)``) opens
    as a :class:`repro.index.delta.MutableIndex` instead -- same
    ``range_query``/``knn_query`` surface, plus ``append``/``delete``/
    ``compact``.

    With ``cache=True`` (the default) engines come from a module-level
    LRU (``repro.service.IndexCache``, one engine per index directory,
    a hit checked by one ``stat`` of its header), so repeated opens --
    and every :func:`query` call addressed by path -- reuse the loaded,
    mmap-backed index instead of re-reading it; this is the cached-index fast path the
    ``query_service`` benchmark entry measures.  ``verify="full"`` (or
    ``cache=False``) constructs a private engine instead (the shared
    cache stays at the default level).  Every engine answers in FP64
    over the index's mapped rows.

    ``verify`` is the integrity level applied at load
    (:func:`repro.index.persist.load_index`): ``"header"`` (default)
    stat-checks payload byte sizes, ``"full"`` re-hashes every payload
    against its SHA-256.  A failed check raises
    :class:`~repro.index.persist.CorruptIndexError` before any query
    runs.
    """
    from repro.index.delta import MutableIndex, is_mutable_index
    from repro.service import IndexCache, QueryEngine

    if not cache or verify != "header":
        engine_cls = MutableIndex if is_mutable_index(path) else QueryEngine
        return engine_cls(path, verify=verify)
    global _INDEX_CACHE
    if _INDEX_CACHE is None:
        _INDEX_CACHE = IndexCache()
    return _INDEX_CACHE.get(path)


def query(
    index,
    queries,
    *,
    eps: float | None = None,
    k: int | None = None,
):
    """Answer a batched range or kNN query against a (persisted) index.

    ``index`` is a ``QueryEngine`` (from :func:`open_index`) or a path to
    a persisted index directory (opened through the shared cache).  With
    ``k=None`` this is a range query -- eps-neighbors of every query
    point, ``eps`` defaulting to the index's radius, returned as a
    :class:`~repro.core.results.JoinResult`.  Serving is FP64: its pair
    set always equals the brute-force reference's
    (``brute_range_query``), and its distance bits are equal where BLAS
    rounds a dot product alike in the engine's per-group GEMMs and the
    reference's one GEMM (ROADMAP item 9 makes them equal by
    construction).  With ``k`` set it returns the k nearest neighbors
    per query (``repro.service.KnnResult``) via the expanding-eps search.
    """
    from repro.index.delta import MutableIndex
    from repro.service import QueryEngine

    engine = (
        index
        if isinstance(index, (QueryEngine, MutableIndex))
        else open_index(index)
    )
    if k is not None:
        if eps is not None:
            raise ValueError("pass eps (range query) or k (kNN), not both")
        return engine.knn_query(queries, k)
    return engine.range_query(queries, eps)


def pairwise_sq_dists(
    a: np.ndarray, b: np.ndarray, *, precision: str = "fp16-32"
) -> np.ndarray:
    """Dense squared-distance matrix between two point sets.

    Exposes the paper's Step 1-3 pipeline as a standalone primitive for
    applications beyond the self-join (kNN, clustering, outlier detection).

    Parameters
    ----------
    a, b:
        ``(m, d)`` and ``(n, d)`` point sets.
    precision:
        ``"fp16-32"`` (FaSTED numerics), ``"fp32"`` or ``"fp64"``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("inputs must be 2-D with matching dimensionality")
    if precision == "fp16-32":
        from repro.fp.fp16 import quantize_fp16
        from repro.fp.rounding import rz_sum_squares

        qa, qb = quantize_fp16(a), quantize_fp16(b)
        sa, sb = rz_sum_squares(a), rz_sum_squares(b)
        d2 = sa[:, None] + sb[None, :] - 2.0 * (qa @ qb.T)
    elif precision in ("fp32", "fp64"):
        dt = np.float32 if precision == "fp32" else np.float64
        wa, wb = a.astype(dt), b.astype(dt)
        sa = (wa * wa).sum(axis=1)
        sb = (wb * wb).sum(axis=1)
        d2 = sa[:, None] + sb[None, :] - 2.0 * (wa @ wb.T)
    else:
        raise ValueError(f"unknown precision {precision!r}")
    return np.maximum(d2, 0.0, out=d2)


__all__ = [
    "METHODS",
    "STREAMABLE_METHODS",
    "self_join",
    "self_join_stream",
    "join",
    "join_stream",
    "build_index",
    "open_index",
    "query",
    "pairwise_sq_dists",
    "epsilon_for_selectivity",
]
