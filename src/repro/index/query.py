"""Batched range/kNN query engine over a persisted or in-memory index.

The serving counterpart of the batch join API: a :class:`QueryEngine`
binds one epsilon-grid index (freshly built, or restored by
:mod:`repro.index.persist`) to the dataset it was built over and answers
**external** queries through the same engine executors the joins run
on.  Serving has one configuration: FP64 throughout (FaSTED's FP16-32
numerics belong to the join kernels).

* :meth:`QueryEngine.range_query` -- eps-neighbors of a batch of query
  points.  Queries are grouped by grid cell
  (``GridIndex.iter_join_groups``) and evaluated by
  :func:`repro.core.engine.candidate_join` (per-group GEMMs) with the
  query batch as the left operand and the dataset as the right one,
  emitting into a :class:`~repro.core.results.PairAccumulator`.
  The pair set always equals the dense brute-force reference's
  (:func:`brute_range_query`), and the distance bits are equal where
  BLAS rounds a dot product alike in the per-group GEMMs and the
  reference's one ``(q x n)`` GEMM -- which blocking decides, so it is
  pinned at the tested shapes (tests/test_service.py, loaded-from-disk
  indexes included), not promised everywhere: at d=128, 1 of 16,359
  pairs of the ``cell_order`` bench data differs in its float32 bits.
  One fixed-order FP64 distance per reported pair (planned in
  ROADMAP.md) makes the bits equal by construction.

* :meth:`QueryEngine.knn_query` -- k nearest neighbors via **expanding
  radius**: candidates are probed at grid reach ``m`` (sound for radius
  ``m * eps``; see ``GridIndex.candidates_of_cell``), a query resolves
  once its k-th candidate distance is within ``m * eps`` (every point
  that near is guaranteed to be a candidate, so the top-k is exact),
  and unresolved queries double ``m``.  The starting reach comes from
  ``GridIndex.stats()``: the measured mean candidate count at reach 1
  is extrapolated by the ``(2m+1)^r / 3^r`` cell fan-out to the
  smallest reach expected to cover ``k``.

The operand is chosen by the input alone.  A persisted index (format
v3, rows stored in cell order) is read **in place**: its memory-mapped
rows beside their stored FP64 norms.  A candidate set there is stored
rows in a few contiguous runs, and a single run is served as a slice
view of rows and norms; any other set costs one gather of each.  Only
the pages queries touch are read, and nothing is cached per candidate
set, so a request pays for its own rows and no lock, hash or norm
recompute.  An in-memory :class:`GridIndex` binds its dataset in
original order: an ndarray is prepared once, any other source (a
``.npy`` path, chunked datasets) is gathered per candidate set with
its norms computed row by row, bitwise the stored ones.  Answers are in
**original ids**: range pairs map their stored rows through the index's
``ids``, and kNN ranks each candidate set in original-id order so ties
break exactly as on the original layout.  Queries run serially on the
calling thread; concurrent requests are served by the caller's threads
(the HTTP server's).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
from repro.data.source import ArraySource, as_source
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


def as_rows(
    rows, dim: int | None = None, *, what: str = "queries", min_rows: int = 0
) -> np.ndarray:
    """``rows`` as C-contiguous float64 ``(n, d)``: a single ``(d,)``
    point becomes one row.

    The one input check of every query and append: ``dim`` (when given)
    must match, and at least ``min_rows`` rows must be present; anything
    else raises :class:`ValueError` naming ``what`` and the shape.
    """
    r = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    if r.ndim == 1:
        r = r[None, :]
    want = f"({'n' if min_rows == 0 else f'n >= {min_rows}'}, {dim or 'd'})"
    if r.ndim != 2 or r.shape[0] < min_rows:
        raise ValueError(
            f"{what} must be {want} or a single point; got shape {r.shape}"
        )
    if dim is not None and r.shape[1] != dim:
        raise ValueError(
            f"{what} must be {want}: dimensionality {r.shape[1]} "
            f"!= indexed {dim}"
        )
    return r


def sample_queries(data, eps: float, n_queries: int, *, seed: int = 0) -> np.ndarray:
    """Realistic query points: dataset rows jittered by ~``eps/4`` total.

    The one definition of the synthetic serving workload shared by the
    CLI demo (``python -m repro query``), the serve self-test, and the
    ``query_service`` benchmark entry -- seed rows are drawn uniformly
    and displaced by a Gaussian whose per-dimension scale shrinks with
    ``sqrt(d)``, so queries land inside their seed row's neighborhood
    and range answers are non-trivial.

    ``data`` is a dataset (array, source or path) or an engine
    (:class:`QueryEngine` or a mutable store): an engine's seed rows are
    drawn by original id and mapped to its stored rows, so one seed
    draws the same points from every layout of the same dataset.
    """
    rows_of = getattr(data, "rows_of", None)
    src = data.source if rows_of is not None else as_source(data)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, src.n, size=int(n_queries))
    base = src.take(picks if rows_of is None else rows_of(picks))
    scale = float(eps) / (4.0 * max(int(src.dim), 1) ** 0.5)
    return base + rng.normal(0, scale, size=base.shape)


def _with_norms(rows: np.ndarray):
    """Operand preparation for float64 queries and dataset rows alike:
    the rows and their squared norms (row-local)."""
    return rows, (rows * rows).sum(axis=1)


def brute_range_query(
    data,
    queries,
    eps: float,
    *,
    store_distances: bool = True,
    row_block: int = 1024,
) -> JoinResult:
    """Dense brute-force reference: eps-neighbors by full distance rows.

    Computes each query block's FP64 distances to **every** dataset point
    via the shared norm-expansion recombination -- the ground truth
    :meth:`QueryEngine.range_query` is pinned against (pair sets always,
    distance bits where BLAS rounds a dot product alike -- see the module
    docstring).  Intended for tests, benchmarks and small validation
    runs; it is O(q * n * d).
    """
    wb = np.ascontiguousarray(as_source(data).materialize())
    wq, sq = _with_norms(as_rows(queries, wb.shape[1]))
    sb = (wb * wb).sum(axis=1)
    eps2 = np.float64(float(eps) ** 2)
    acc = PairAccumulator(store_distances=store_distances)
    for r0 in range(0, wq.shape[0], row_block):
        r1 = min(r0 + row_block, wq.shape[0])
        d2 = norm_expansion_sq_dists(sq[r0:r1], sb, wq[r0:r1] @ wb.T)
        ii, jj = np.nonzero(d2 <= eps2)
        dd = d2[ii, jj].astype(np.float32) if store_distances else None
        acc.append(ii.astype(np.int64) + r0, jj.astype(np.int64), dd)
    return acc.finalize_join(wq.shape[0], wb.shape[0], float(eps))


class _StoredRowsOperand(ResidentOperand):
    """FP64 dataset operand over memory-mapped rows and their norms.

    ``take`` of one contiguous run of rows -- a cell-ordered index's
    candidate set is often exactly that -- returns slice views of the
    mapped rows and norms; any other index set is one gather of each.
    Either way the values are bitwise the gathered rows and the
    :func:`_with_norms` norms a per-group gather would compute, so
    every answer is unchanged, and nothing is cached, locked or hashed.
    """

    def take(self, idx, stats=None):
        n = idx.size
        if n and idx[-1] - idx[0] == n - 1 and (np.diff(idx) == 1).all():
            a = int(idx[0])
            return self.rows[a : a + n], self.norms[a : a + n]
        return self.rows[idx], self.norms[idx]


class QueryEngine:
    """Build-once / query-many engine over one index + its dataset.

    Parameters
    ----------
    index:
        A built :class:`GridIndex`, a
        :class:`~repro.index.persist.LoadedIndex`, or a path to a
        persisted index directory (loaded mmap-backed).
    data:
        The dataset an in-memory :class:`GridIndex` was built over --
        ndarray, :class:`~repro.data.source.DatasetSource`, or path.  A
        persisted index carries its own rows, so it takes none.
    verify:
        Only used when ``index`` is a path: the
        :func:`~repro.index.persist.load_index` integrity level,
        ``"header"`` or ``"full"`` (a failed check raises
        :class:`~repro.index.persist.CorruptIndexError` before any query
        can run).

    Answers are FP64 (see the module docstring).  ``source`` is the
    dataset in stored order and ``ids`` the original id of each stored
    row (None: the identity); answers are always in original ids, and
    :meth:`rows_of` maps them back to stored rows.
    """

    def __init__(self, index, data=None, *, verify: str = "header") -> None:
        if isinstance(index, (str, Path)):
            index = load_index(index, verify=verify)
        if isinstance(index, LoadedIndex):
            if data is not None:
                raise ValueError(
                    "a persisted index stores its own rows in cell order; "
                    "query it without data="
                )
            source, ids = index.source, index.ids
            # Read in place: the mapped rows beside their stored norms.
            self._data = _StoredRowsOperand(source.mapped, index.norms)
            index = index.index
        elif not isinstance(index, GridIndex):
            raise TypeError(f"unsupported index type {type(index).__name__}")
        elif data is None:
            raise ValueError(
                "no dataset: an in-memory index needs data= (array, "
                "source, or path)"
            )
        else:
            source, ids = as_source(data), None
            # An ndarray is prepared once; any other source is gathered
            # and prepared per candidate set.
            if isinstance(source, ArraySource):
                self._data = ResidentOperand(*_with_norms(source.materialize()))
            else:
                self._data = SourceOperand(source, _with_norms)
        self.index = index
        self.eps = float(index.eps)
        self.source = source
        n = int(source.n)
        if n != int(index.n_points):
            raise ValueError(
                f"dataset has {n} rows but the index covers {index.n_points}"
            )
        self.n_points = n
        self.dim = int(source.dim)
        self.ids = ids
        self._rows_of_id: np.ndarray | None = None
        self._stats = None  # lazy GridIndex.stats() (kNN starting reach)

    def rows_of(self, ids) -> np.ndarray:
        """Stored rows of original ids (the ids themselves unless the
        index stores its rows in cell order)."""
        ids = np.asarray(ids, dtype=np.int64)
        if self.ids is None:
            return ids
        if self._rows_of_id is None:
            inverse = np.empty(self.n_points, dtype=np.int64)
            inverse[self.ids] = np.arange(self.n_points, dtype=np.int64)
            self._rows_of_id = inverse
        return self._rows_of_id[ids]

    # ------------------------------------------------------------------

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
        the serving cache keys on the eps grid).  The pair set is always
        :func:`brute_range_query`'s, and the distance bits are too
        wherever BLAS rounds a dot product alike in both GEMM shapes
        (pinned at the tested shapes, not guaranteed -- see the module
        docstring).
        """
        q = as_rows(queries, self.dim)
        eps = self.eps if eps is None else float(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if eps > self.eps:
            raise ValueError(
                f"eps={eps} exceeds the index cell width {self.eps}; "
                "build (or load) an index at that radius"
            )
        eps2 = np.float64(float(eps) ** 2)
        acc = candidate_join(
            self.index.iter_join_groups(q),
            ResidentOperand(*_with_norms(q)),
            eps2,
            self._data,
            store_distances=store_distances,
        )
        res = acc.finalize_join(q.shape[0], self.n_points, eps)
        if self.ids is not None:
            res.pairs_j = self.ids[res.pairs_j]
        return res

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

        Distances are squared Euclidean in FP64; ties break
        deterministically by original dataset id.  Queries resolve
        as soon as the probed reach provably covers their k-th neighbor
        (see the module docstring); the rest re-probe at double reach,
        degenerating to an exact brute pass when the probe reaches the
        whole dataset.
        """
        q = as_rows(queries, self.dim)
        k = int(k)
        if k <= 0:
            raise ValueError("k must be positive")
        nq = q.shape[0]
        out_idx = np.full((nq, k), -1, dtype=np.int64)
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        if nq == 0 or self.n_points == 0:
            return KnnResult(k=k, n_points=self.n_points, indices=out_idx, sq_dists=out_d)
        kk = min(k, self.n_points)
        wq, sq = _with_norms(q)
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
                # Ascending original-id order: a stable distance sort
                # then breaks ties by original id on every layout.
                if self.ids is None:
                    candidates = np.sort(candidates)
                    cand_ids = candidates
                else:
                    cand_ids = self.ids[candidates]
                    by_id = np.argsort(cand_ids)
                    candidates, cand_ids = candidates[by_id], cand_ids[by_id]
                best_d = np.full((gm.size, kk), np.inf)
                best_i = np.full((gm.size, kk), -1, dtype=np.int64)
                rows_m, norms_m = wq[gm], sq[gm]
                for c0 in range(0, candidates.size, chunk):
                    cand = candidates[c0 : c0 + chunk]
                    gram, norms_c = group_gram(rows_m, self._data, cand, hooks)
                    tz = time.perf_counter()
                    # kNN ranks every candidate: the full block is the product.
                    d2 = norm_expansion_sq_dists(norms_m, norms_c, gram)
                    tm = time.perf_counter()
                    if hooks is not None:
                        hooks.record("rz", tm - tz)
                    cat_d = np.concatenate([best_d, d2], axis=1)
                    cat_i = np.concatenate(
                        [best_i, np.broadcast_to(cand_ids[c0 : c0 + chunk], d2.shape)],
                        axis=1,
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


__all__ = [
    "QueryEngine",
    "KnnResult",
    "as_rows",
    "brute_range_query",
    "sample_queries",
]
