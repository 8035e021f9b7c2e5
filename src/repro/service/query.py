"""Batched range/kNN query engine over a persisted or in-memory index.

The serving counterpart of the batch join API: a :class:`QueryEngine`
binds one epsilon-grid index (freshly built, or restored by
:mod:`repro.index.persist`) to the dataset it was built over and answers
**external** queries through the same engine executors the joins run
on:

* :meth:`QueryEngine.range_query` -- eps-neighbors of a batch of query
  points.  Queries are grouped by grid cell
  (``GridIndex.iter_join_groups``) and evaluated by
  :func:`repro.core.engine.candidate_join` (per-group GEMMs) with the
  query batch as the left operand and the dataset as the right one,
  emitting into a :class:`~repro.core.results.PairAccumulator`.
  At the default FP64 precision the result is **bit-identical** to the
  dense brute-force reference (:func:`brute_range_query`) -- the same
  contract the index-backed two-source joins carry
  (tests/test_service.py pins it, loaded-from-disk indexes included);
  FP32 carries the usual pair-set contract.

* :meth:`QueryEngine.knn_query` -- k nearest neighbors via **expanding
  radius**: candidates are probed at grid reach ``m`` (sound for radius
  ``m * eps``; see ``GridIndex.candidates_of_cell``), a query resolves
  once its k-th candidate distance is within ``m * eps`` (every point
  that near is guaranteed to be a candidate, so the top-k is exact in
  the working precision), and unresolved queries double ``m``.  The
  starting reach comes from ``GridIndex.stats()``: the measured mean
  candidate count at reach 1 is extrapolated by the ``(2m+1)^r / 3^r``
  cell fan-out to the smallest reach expected to cover ``k``.

The dataset side can stay **out of core**: a mmap-backed
:class:`~repro.data.source.DatasetSource` (what ``load_index`` hands
back) serves candidate rows through ``take`` gathers, touching only the
rows queries actually hit -- the engine's dataset operand is then a
:class:`~repro.core.engine.SourceOperand` with a hot-cell LRU in front
of its gather.  Queries run serially on the calling thread; concurrent
requests are served by the caller's threads (the HTTP server's).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro import trace as trace_mod
from repro.core.engine import (
    ResidentOperand,
    SourceOperand,
    candidate_join,
    group_chunk,
    group_gram,
    norm_expansion_sq_dists,
)
from repro.core.results import JoinResult, PairAccumulator
from repro.data.source import ArraySource, DatasetSource, as_source
from repro.index.grid import GridIndex
from repro.index.persist import LoadedIndex, load_index

#: kNN expansion cap on the derived starting reach (the loop still
#: doubles past it when needed).
_MAX_START_REACH = 8


@dataclass
class KnnResult:
    """Batched kNN answer: per-query neighbor indices and distances.

    ``indices[q]`` holds the ``k`` nearest dataset rows of query ``q`` in
    ascending (squared distance, index) order -- the index tie-break makes
    results deterministic; ``sq_dists`` parallels it.  When the dataset
    has fewer than ``k`` points the tail is padded with ``-1`` indices
    and ``+inf`` distances.
    """

    k: int
    n_points: int
    indices: np.ndarray  # (n_queries, k) int64, -1 padded
    sq_dists: np.ndarray  # (n_queries, k) float32, +inf padded

    @property
    def n_queries(self) -> int:
        return self.indices.shape[0]


def _as_queries(queries) -> np.ndarray:
    q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
    if q.ndim == 1:
        q = q[None, :]
    if q.ndim != 2:
        raise ValueError("queries must be (q, d) or a single (d,) point")
    return q


def sample_queries(data, eps: float, n_queries: int, *, seed: int = 0) -> np.ndarray:
    """Realistic query points: dataset rows jittered by ~``eps/4`` total.

    The one definition of the synthetic serving workload shared by the
    CLI demo (``python -m repro query``), the serve self-test, and the
    ``query_service`` benchmark entry -- seed rows are drawn uniformly
    and displaced by a Gaussian whose per-dimension scale shrinks with
    ``sqrt(d)``, so queries land inside their seed row's neighborhood
    and range answers are non-trivial.
    """
    src = as_source(data)
    rng = np.random.default_rng(seed)
    base = src.take(rng.integers(0, src.n, size=int(n_queries)))
    scale = float(eps) / (4.0 * max(int(src.dim), 1) ** 0.5)
    return base + rng.normal(0, scale, size=base.shape)


def brute_range_query(
    data,
    queries,
    eps: float,
    *,
    precision: str = "fp64",
    store_distances: bool = True,
    row_block: int = 1024,
) -> JoinResult:
    """Dense brute-force reference: eps-neighbors by full distance rows.

    Computes each query block's distances to **every** dataset point via
    the shared norm-expansion recombination in the requested working
    precision -- the ground truth :meth:`QueryEngine.range_query` is
    pinned against (bit-identical at FP64, pair-set at FP32).  Intended
    for tests, benchmarks and small validation runs; it is O(q * n * d).
    """
    data = np.ascontiguousarray(as_source(data).materialize())
    q = _as_queries(queries)
    if q.shape[1] != data.shape[1]:
        raise ValueError("query dimensionality does not match the dataset")
    dtype = np.dtype(np.float32 if precision == "fp32" else np.float64)
    wb = data.astype(dtype)
    sb = (wb * wb).sum(axis=1)
    wq = q.astype(dtype)
    sq = (wq * wq).sum(axis=1)
    eps2 = dtype.type(float(eps) ** 2)
    acc = PairAccumulator(store_distances=store_distances)
    for r0 in range(0, q.shape[0], row_block):
        r1 = min(r0 + row_block, q.shape[0])
        d2 = norm_expansion_sq_dists(sq[r0:r1], sb, wq[r0:r1] @ wb.T)
        ii, jj = np.nonzero(d2 <= eps2)
        dd = d2[ii, jj].astype(np.float32) if store_distances else None
        acc.append(ii.astype(np.int64) + r0, jj.astype(np.int64), dd)
    return acc.finalize_join(q.shape[0], data.shape[0], float(eps))


def _cast_with_norms(dtype: np.dtype, block: np.ndarray):
    """Operand preparation for queries and dataset alike: cast to the
    working precision + row norms (row-local)."""
    w = block.astype(dtype, copy=False)
    return w, (w * w).sum(axis=1)


class _CachedSourceOperand(SourceOperand):
    """Source-backed dataset operand with an LRU in front of ``take``.

    Serving workloads hit the same hot cells over and over; keying the
    gathered ``(rows, norms)`` block on a digest of the candidate index
    bytes makes a repeat skip both the ``take`` gather and the norm
    recompute, which is most of a warm query's cost.  Values are bitwise
    what a fresh gather yields (row-local ops), so caching never changes
    an answer.  Engines are shared across threads (IndexCache + the HTTP
    server's connection threads), so every cache mutation holds the lock;
    the gather itself runs outside it (a racing duplicate gather is
    wasted work, not corruption).  The engine never tracks residency
    (no ``StreamStats``), so gathers here are unaccounted.
    """

    def __init__(self, source, prepare, cache_bytes: int) -> None:
        super().__init__(source, prepare)
        self._budget = int(cache_bytes)
        self._cache: "OrderedDict[bytes, tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._used = 0
        self._lock = threading.Lock()

    def take(self, idx, stats=None):
        if self._budget <= 0:
            return super().take(idx)
        key = hashlib.blake2b(
            np.ascontiguousarray(idx).tobytes(), digest_size=16
        ).digest()
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                return hit
        rows, norms = super().take(idx)
        with self._lock:
            if key not in self._cache:
                self._cache[key] = (rows, norms)
                self._used += rows.nbytes + norms.nbytes
            while self._used > self._budget and self._cache:
                _, (old_rows, old_norms) = self._cache.popitem(last=False)
                self._used -= old_rows.nbytes + old_norms.nbytes
        return rows, norms


class QueryEngine:
    """Build-once / query-many engine over one index + its dataset.

    Parameters
    ----------
    index:
        A built :class:`GridIndex`, a
        :class:`~repro.index.persist.LoadedIndex`, or a path to a
        persisted index directory (loaded mmap-backed).
    data:
        The dataset the index was built over -- ndarray,
        :class:`~repro.data.source.DatasetSource`, or path.  Optional
        when a persisted index carries its dataset; passing it overrides
        the embedded one.
    precision:
        ``"fp64"`` (default -- range queries bit-identical to the brute
        reference) or ``"fp32"`` (pair-set contract, half the memory
        traffic).
    mmap, verify:
        Only used when ``index`` is a path: forwarded to
        :func:`~repro.index.persist.load_index` (``verify`` is the
        integrity level -- ``"off"``, ``"header"``, or ``"full"`` -- and
        a failed check raises
        :class:`~repro.index.persist.CorruptIndexError` before any query
        can run).
    candidate_cache_bytes:
        Source-backed (mmap/chunked) datasets only: budget for the
        engine's LRU of gathered candidate blocks (rows + norms, keyed by
        the candidate index set).  Serving workloads hit the same hot
        cells over and over; a hit skips the ``take`` gather and the norm
        recompute entirely, which is most of a warm query's cost.  The
        cached values are exactly what a fresh gather produces (row-local
        ops), so results are unchanged.  ``0`` disables the cache.
    """

    def __init__(
        self,
        index,
        data=None,
        *,
        precision: str = "fp64",
        mmap: bool = True,
        verify: str = "header",
        candidate_cache_bytes: int = 64 << 20,
    ) -> None:
        if precision not in ("fp32", "fp64"):
            raise ValueError("precision must be 'fp32' or 'fp64'")
        if isinstance(index, (str, Path)):
            index = load_index(index, mmap=mmap, verify=verify)
        source: DatasetSource | None = None
        if isinstance(index, LoadedIndex):
            source = index.source
            index = index.index
        if not isinstance(index, GridIndex):
            raise TypeError(f"unsupported index type {type(index).__name__}")
        if data is not None:
            source = as_source(data)
        if source is None:
            raise ValueError(
                "no dataset: the index was persisted without one -- pass "
                "data= (array, source, or path)"
            )
        self.index = index
        self.eps = float(index.eps)
        self.precision = precision
        self.dtype = np.dtype(np.float32 if precision == "fp32" else np.float64)
        # A partial, not a bound method: the dataset operand keeps its
        # prepare function, and must not keep the engine alive in a cycle.
        self._prepare = partial(_cast_with_norms, self.dtype)
        self.source = source
        n = int(source.n)
        if n != int(index.n_points):
            raise ValueError(
                f"dataset has {n} rows but the index covers {index.n_points}"
            )
        self.n_points = n
        self.dim = int(source.dim)
        # Resident fast path: an in-memory dataset is prepared once and
        # candidate rows are sliced; mmap/chunked sources stay on disk and
        # are gathered per group (touched rows only) through the LRU.
        if isinstance(source, ArraySource):
            self._data = ResidentOperand(*self._prepare(source.materialize()))
        else:
            self._data = _CachedSourceOperand(
                source, self._prepare, candidate_cache_bytes
            )
        self._stats = None  # lazy GridIndex.stats() (kNN starting reach)

    # ------------------------------------------------------------------

    def _check_queries(self, queries) -> np.ndarray:
        q = _as_queries(queries)
        if q.shape[1] != self.dim:
            raise ValueError(
                f"query dimensionality {q.shape[1]} != indexed {self.dim}"
            )
        return q

    def range_query(
        self,
        queries,
        eps: float | None = None,
        *,
        store_distances: bool = True,
    ) -> JoinResult:
        """eps-neighbors of each query point: pairs ``(query, data row)``.

        ``eps`` defaults to the index's cell width and must not exceed it
        (the +-1 cell candidate window is only sound up to there --
        larger radii belong to an index built at that eps, which is why
        the serving cache keys on the eps grid).  At FP64 the answer is
        bit-identical to :func:`brute_range_query`.
        """
        q = self._check_queries(queries)
        eps = self.eps if eps is None else float(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if eps > self.eps:
            raise ValueError(
                f"eps={eps} exceeds the index cell width {self.eps}; "
                "build (or load) an index at that radius"
            )
        # Square in float64 before any precision cast (the kernels'
        # boundary-tie convention).
        eps2 = self.dtype.type(float(eps) ** 2)
        acc = candidate_join(
            self.index.iter_join_groups(q),
            ResidentOperand(*self._prepare(q)),
            eps2,
            self._data,
            store_distances=store_distances,
        )
        return acc.finalize_join(q.shape[0], self.n_points, eps)

    # ------------------------------------------------------------------

    def _initial_reach(self, k: int) -> int:
        """Smallest probe reach expected to cover ``k`` neighbors.

        Extrapolates the measured per-point candidate mean at reach 1
        (``GridIndex.stats()``) by the ``((2m+1)/3)^r`` growth of the
        probe volume.
        """
        if self._stats is None:
            self._stats = self.index.stats()
        mean = max(self._stats.mean_candidates, 1e-9)
        r = max(int(self.index.r), 1)
        reach = 1
        while (
            reach < _MAX_START_REACH
            and mean * ((2.0 * reach + 1.0) / 3.0) ** r < 4.0 * k
        ):
            reach += 1
        return reach

    def knn_query(self, queries, k: int) -> KnnResult:
        """k nearest neighbors of each query point, expanding-eps search.

        Distances are squared Euclidean in the engine's working precision;
        ties break deterministically by dataset index.  Queries resolve
        as soon as the probed reach provably covers their k-th neighbor
        (see the module docstring); the rest re-probe at double reach,
        degenerating to an exact brute pass when the probe reaches the
        whole dataset.
        """
        q = self._check_queries(queries)
        k = int(k)
        if k <= 0:
            raise ValueError("k must be positive")
        nq = q.shape[0]
        out_idx = np.full((nq, k), -1, dtype=np.int64)
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        if nq == 0 or self.n_points == 0:
            return KnnResult(k=k, n_points=self.n_points, indices=out_idx, sq_dists=out_d)
        kk = min(k, self.n_points)
        wq, sq = self._prepare(q)
        chunk = max(kk, group_chunk(self.dim))
        hooks = trace_mod.current_hooks()
        unresolved = np.arange(nq)
        reach = self._initial_reach(kk)
        while unresolved.size:
            radius2 = float(reach * self.eps) ** 2
            still: list[np.ndarray] = []
            for members, candidates in self.index.iter_join_groups(
                q[unresolved], reach=reach
            ):
                gm = unresolved[members]  # global query rows
                if candidates.size == 0:
                    still.append(gm)
                    continue
                # Ascending candidate order: a stable distance sort
                # then breaks ties by dataset index.
                candidates = np.sort(candidates)
                best_d = np.full((gm.size, kk), np.inf)
                best_i = np.full((gm.size, kk), -1, dtype=np.int64)
                rows_m, norms_m = wq[gm], sq[gm]
                for c0 in range(0, candidates.size, chunk):
                    cand = candidates[c0 : c0 + chunk]
                    gram, norms_c = group_gram(rows_m, self._data, cand, hooks)
                    tz = time.perf_counter()
                    # kNN ranks every candidate: the full block is the product.
                    d2 = norm_expansion_sq_dists(norms_m, norms_c, gram).astype(
                        np.float64, copy=False
                    )
                    tm = time.perf_counter()
                    if hooks is not None:
                        hooks.record("rz", tm - tz)
                    cat_d = np.concatenate([best_d, d2], axis=1)
                    cat_i = np.concatenate(
                        [best_i, np.broadcast_to(cand, d2.shape)], axis=1
                    )
                    order = np.argsort(cat_d, axis=1, kind="stable")[:, :kk]
                    rows = np.arange(gm.size)[:, None]
                    best_d = cat_d[rows, order]
                    best_i = cat_i[rows, order]
                    if hooks is not None:
                        hooks.record("commit", time.perf_counter() - tm)
                covered = candidates.size >= self.n_points
                done = covered | (best_d[:, kk - 1] <= radius2)
                sel = np.nonzero(done)[0]
                if sel.size:
                    out_idx[gm[sel], :kk] = best_i[sel]
                    out_d[gm[sel], :kk] = best_d[sel].astype(np.float32)
                if not done.all():
                    still.append(gm[~done])
            unresolved = (
                np.concatenate(still) if still else np.empty(0, np.int64)
            )
            reach *= 2
        return KnnResult(
            k=k, n_points=self.n_points, indices=out_idx, sq_dists=out_d
        )


__all__ = ["QueryEngine", "KnnResult", "brute_range_query", "sample_queries"]
