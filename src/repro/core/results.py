"""Result-set containers for distance-similarity joins.

A self-join over dataset ``D`` with radius ``eps`` conceptually returns
``R = {(i, j) : dist(p_i, p_j) <= eps}``.  Following the paper's selectivity
definition ``S = (|R| - |D|) / |D|`` (Section 4.1.3), the trivial self pairs
``(i, i)`` are members of ``R``; we store only the non-self pairs and account
for the diagonal arithmetically, which keeps memory proportional to the
interesting output.  A two-source join ``A x B`` (:class:`JoinResult`) has
no diagonal: every stored pair ``(i, j)`` relates point ``i`` of the left
set to point ``j`` of the right set, one direction only.

Pairs are stored as parallel ``int64`` arrays (structure-of-arrays -- the
HPC-friendly layout) with optional squared distances for accuracy studies.
:class:`PairAccumulator` is the builder used by the join engine: a
preallocated, geometrically grown buffer that replaces per-tile Python-list
appends plus one big ``concatenate`` with amortized O(1) bulk copies.  For
joins whose output outgrows RAM the accumulator can **spill to disk**
(``spill_threshold_bytes``): whenever the live buffer passes the threshold
it is written out as one chunk of ``.npy`` files and reset, so resident
result memory stays bounded by roughly the threshold while
:meth:`PairAccumulator.arrays` still presents one transparently
concatenated result (and :meth:`PairAccumulator.iter_chunks` lets
out-of-core consumers process the chunks without ever concatenating).
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np


@dataclass
class NeighborResult:
    """Self-join result: non-self pairs within ``eps`` plus metadata.

    Attributes
    ----------
    n_points:
        Dataset size |D|.
    eps:
        Search radius used.
    pairs_i, pairs_j:
        Parallel arrays of point indices; both directions ``(i, j)`` and
        ``(j, i)`` are present, matching what a GPU kernel would emit for
        each query point's neighbor list.
    sq_dists:
        Squared distances for each stored pair (optional; empty when the
        kernel was run with ``store_distances=False``).
    stream_stats:
        The :class:`~repro.core.engine.StreamStats` of a run over a
        ``DatasetSource`` (blocks loaded, peak resident bytes, tile plan);
        ``None`` when the data was resident.
    """

    n_points: int
    eps: float
    pairs_i: np.ndarray
    pairs_j: np.ndarray
    sq_dists: np.ndarray = field(default_factory=lambda: np.empty(0, np.float32))
    stream_stats: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.pairs_i = np.asarray(self.pairs_i, dtype=np.int64)
        self.pairs_j = np.asarray(self.pairs_j, dtype=np.int64)
        if self.pairs_i.shape != self.pairs_j.shape:
            raise ValueError("pairs_i and pairs_j must be parallel arrays")
        if self.sq_dists.size and self.sq_dists.shape != self.pairs_i.shape:
            raise ValueError("sq_dists must parallel the pair arrays")

    @property
    def total_result_size(self) -> int:
        """|R| including the |D| self pairs (the paper's result-set size)."""
        return int(self.pairs_i.size) + self.n_points

    @property
    def selectivity(self) -> float:
        """Paper Eq.: ``S = (|R| - |D|) / |D|`` = mean non-self neighbors."""
        if self.n_points == 0:
            return 0.0
        return self.pairs_i.size / self.n_points

    def neighbor_counts(self) -> np.ndarray:
        """Number of non-self neighbors of each point."""
        return np.bincount(self.pairs_i, minlength=self.n_points)

    def neighbor_sets(self) -> list[set[int]]:
        """Per-point neighbor sets (excluding self).

        Materializes Python sets -- intended for the accuracy metrics on
        moderate result sizes, not for hot paths.
        """
        sets: list[set[int]] = [set() for _ in range(self.n_points)]
        for i, j in zip(self.pairs_i.tolist(), self.pairs_j.tolist()):
            sets[i].add(j)
        return sets

    def neighbors_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor lists in CSR form ``(indptr, indices)``, sorted by query.

        The vectorized counterpart of :meth:`neighbor_sets`, used by the
        overlap-accuracy metric at scale.
        """
        order = np.lexsort((self.pairs_j, self.pairs_i))
        indices = self.pairs_j[order]
        counts = np.bincount(self.pairs_i, minlength=self.n_points)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return indptr, indices

    def symmetric(self) -> bool:
        """True when every stored pair appears in both directions."""
        fwd = set(zip(self.pairs_i.tolist(), self.pairs_j.tolist()))
        return all((j, i) in fwd for (i, j) in fwd)

    def sorted_copy(self) -> "NeighborResult":
        """Pairs sorted lexicographically -- convenient for comparisons."""
        order = np.lexsort((self.pairs_j, self.pairs_i))
        sq = self.sq_dists[order] if self.sq_dists.size else self.sq_dists
        return NeighborResult(
            n_points=self.n_points,
            eps=self.eps,
            pairs_i=self.pairs_i[order],
            pairs_j=self.pairs_j[order],
            sq_dists=sq,
        )


@dataclass
class JoinResult:
    """Two-source join result: pairs ``(i in A, j in B)`` within ``eps``.

    Unlike :class:`NeighborResult` there is no diagonal to account for and
    no mirrored direction: index ``i`` addresses the left (query) set and
    ``j`` the right (indexed/streamed) set, so ``(i, j)`` and ``(j, i)``
    would be different pairs.  The field names mirror ``NeighborResult``
    so order-insensitive comparison helpers
    (``repro.kernels.reference.canon`` / ``joins_bit_identical``) work on
    both, and ``stream_stats`` is set when either side was a source.
    """

    n_left: int
    n_right: int
    eps: float
    pairs_i: np.ndarray  # indices into the left set A
    pairs_j: np.ndarray  # indices into the right set B
    sq_dists: np.ndarray = field(default_factory=lambda: np.empty(0, np.float32))
    stream_stats: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.pairs_i = np.asarray(self.pairs_i, dtype=np.int64)
        self.pairs_j = np.asarray(self.pairs_j, dtype=np.int64)
        if self.pairs_i.shape != self.pairs_j.shape:
            raise ValueError("pairs_i and pairs_j must be parallel arrays")
        if self.sq_dists.size and self.sq_dists.shape != self.pairs_i.shape:
            raise ValueError("sq_dists must parallel the pair arrays")

    @property
    def selectivity(self) -> float:
        """Mean matches per left point (the two-source analogue of S)."""
        if self.n_left == 0:
            return 0.0
        return self.pairs_i.size / self.n_left

    def match_counts(self) -> np.ndarray:
        """Number of right-set matches of each left point."""
        return np.bincount(self.pairs_i, minlength=self.n_left)

    def sorted_copy(self) -> "JoinResult":
        """Pairs sorted lexicographically -- convenient for comparisons."""
        order = np.lexsort((self.pairs_j, self.pairs_i))
        sq = self.sq_dists[order] if self.sq_dists.size else self.sq_dists
        return JoinResult(
            n_left=self.n_left,
            n_right=self.n_right,
            eps=self.eps,
            pairs_i=self.pairs_i[order],
            pairs_j=self.pairs_j[order],
            sq_dists=sq,
        )


class PairAccumulator:
    """Growable structure-of-arrays buffer for join result pairs.

    The join kernels emit pairs tile by tile; collecting them in Python
    lists and concatenating at the end costs one object + one array header
    per tile and a full extra copy at finalization.  This accumulator keeps
    three preallocated arrays (``i``, ``j``, optional squared distance) and
    doubles capacity on demand, so emitting a tile is a bounds check plus
    bulk slice assignments.

    With ``spill_threshold_bytes`` set, the accumulator spills: whenever
    the *used* buffer bytes reach the threshold after an append, the live
    pairs are written out as one chunk of ``.npy`` files
    (``spill_00000_i.npy`` / ``_j.npy`` / ``_d.npy`` under ``spill_dir``)
    and the in-memory buffer is reset to its initial capacity.  Append
    order is preserved across chunks, so a spilling run yields exactly the
    same :meth:`arrays` as a non-spilling one (pinned by
    tests/test_two_source.py); only the resident footprint changes.
    Spilled files are removed by :meth:`cleanup` (called automatically by
    the finalizers); the directory itself is removed only when the
    accumulator created it.  :meth:`append` is thread-safe -- spill
    rotation included -- so callers may append from several threads.

    Parameters
    ----------
    store_distances:
        Track a float32 squared distance per pair.
    capacity:
        Initial capacity in pairs.
    spill_threshold_bytes:
        Spill the live buffer to disk once its used bytes reach this
        (None: never spill -- the default, fully in-memory behavior).
    spill_dir:
        Directory for spill chunks (created if missing).  When None and
        spilling is enabled, a private temporary directory is created and
        removed again by :meth:`cleanup`.
    """

    __slots__ = (
        "_i", "_j", "_d", "_size", "_initial_capacity",
        "_spill_threshold", "_spill_dir", "_spill_dir_owned", "_chunks",
        "_spilled_pairs", "_lock",
    )

    def __init__(
        self,
        *,
        store_distances: bool = True,
        capacity: int = 1024,
        spill_threshold_bytes: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        capacity = max(int(capacity), 1)
        self._i = np.empty(capacity, dtype=np.int64)
        self._j = np.empty(capacity, dtype=np.int64)
        self._d = np.empty(capacity, dtype=np.float32) if store_distances else None
        self._size = 0
        self._initial_capacity = capacity
        if spill_threshold_bytes is not None and spill_threshold_bytes <= 0:
            raise ValueError("spill_threshold_bytes must be positive")
        self._spill_threshold = spill_threshold_bytes
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._spill_dir_owned = False
        self._chunks: list[tuple[Path, Path, Path | None, int]] = []
        self._spilled_pairs = 0
        # Appends mutate the buffer cursor and, past the spill threshold,
        # rotate the whole buffer out to disk.  The engine's executors
        # commit from one thread, but nothing stops a caller from
        # appending out of several threads -- an unlocked append racing
        # a spill rotation would interleave half-written chunks, so every
        # append (including its potential spill) is serialized here.
        # Uncontended lock acquisition is noise next to the bulk copies.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._spilled_pairs + self._size

    @property
    def store_distances(self) -> bool:
        return self._d is not None

    @property
    def capacity(self) -> int:
        return self._i.size

    @property
    def nbytes(self) -> int:
        """Currently allocated *resident* buffer bytes (spilled chunks are
        on disk; the streaming memory reports account result growth
        separately from the streamed blocks)."""
        return self._i.nbytes + self._j.nbytes + (self._d.nbytes if self._d is not None else 0)

    @property
    def n_spill_chunks(self) -> int:
        return len(self._chunks)

    @property
    def spilled_pairs(self) -> int:
        return self._spilled_pairs

    def _pair_bytes(self) -> int:
        """Bytes one stored pair occupies in the live buffer (from the
        buffers' own dtypes, so the spill accounting can never drift)."""
        return (
            self._i.itemsize
            + self._j.itemsize
            + (self._d.itemsize if self._d is not None else 0)
        )

    def _reserve(self, extra: int) -> None:
        need = self._size + extra
        cap = self._i.size
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("_i", "_j", "_d"):
            old = getattr(self, name)
            if old is None:
                continue
            new = np.empty(cap, dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)

    def _ensure_spill_dir(self) -> Path:
        if self._spill_dir is None:
            self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            self._spill_dir_owned = True
        else:
            self._spill_dir.mkdir(parents=True, exist_ok=True)
        return self._spill_dir

    def _spill(self) -> None:
        """Write the live pairs out as one chunk and reset the buffer."""
        if self._size == 0:
            return
        directory = self._ensure_spill_dir()
        k = len(self._chunks)
        path_i = directory / f"spill_{k:05d}_i.npy"
        path_j = directory / f"spill_{k:05d}_j.npy"
        np.save(path_i, self._i[: self._size])
        np.save(path_j, self._j[: self._size])
        path_d = None
        if self._d is not None:
            path_d = directory / f"spill_{k:05d}_d.npy"
            np.save(path_d, self._d[: self._size])
        self._chunks.append((path_i, path_j, path_d, self._size))
        self._spilled_pairs += self._size
        self._size = 0
        if self._i.size > self._initial_capacity:  # release the grown buffer
            self._i = np.empty(self._initial_capacity, dtype=np.int64)
            self._j = np.empty(self._initial_capacity, dtype=np.int64)
            if self._d is not None:
                self._d = np.empty(self._initial_capacity, dtype=np.float32)

    def append(
        self,
        pairs_i: np.ndarray,
        pairs_j: np.ndarray,
        sq_dists: np.ndarray | None = None,
    ) -> None:
        """Bulk-append parallel pair arrays (and distances when tracked).

        Thread-safe: concurrent appends (e.g. from pool threads) are
        serialized, including any spill rotation an append triggers, so a
        spill-enabled accumulator never interleaves chunks mid-append.
        """
        m = len(pairs_i)
        if len(pairs_j) != m:
            raise ValueError("pairs_i and pairs_j must be parallel arrays")
        if self._d is not None and (sq_dists is None or len(sq_dists) != m):
            raise ValueError("sq_dists required (and parallel) when tracked")
        if m == 0:
            return
        with self._lock:
            self._reserve(m)
            s, e = self._size, self._size + m
            self._i[s:e] = pairs_i
            self._j[s:e] = pairs_j
            if self._d is not None:
                self._d[s:e] = sq_dists
            self._size = e
            if (
                self._spill_threshold is not None
                and self._size * self._pair_bytes() >= self._spill_threshold
            ):
                self._spill()

    def iter_chunks(self):
        """Yield ``(pairs_i, pairs_j, sq_dists)`` per chunk, append order.

        Spilled chunks are loaded one at a time, followed by the live
        tail -- the consumption path for results too large to concatenate
        (at most one chunk is resident per step).  ``sq_dists`` is an empty
        array when distances are not tracked.
        """
        empty = np.empty(0, np.float32)
        for path_i, path_j, path_d, _count in self._chunks:
            yield (
                np.load(path_i),
                np.load(path_j),
                np.load(path_d) if path_d is not None else empty,
            )
        if self._size:
            sq = self._d[: self._size].copy() if self._d is not None else empty
            yield self._i[: self._size].copy(), self._j[: self._size].copy(), sq

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compacted ``(pairs_i, pairs_j, sq_dists)`` copies.

        With spilled chunks this transparently concatenates them with the
        live tail (materializing the full result -- use
        :meth:`iter_chunks` when that cannot fit in memory).
        """
        if not self._chunks:
            sq = (
                self._d[: self._size].copy()
                if self._d is not None
                else np.empty(0, np.float32)
            )
            return self._i[: self._size].copy(), self._j[: self._size].copy(), sq
        parts = list(self.iter_chunks())
        if not parts:
            return (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.float32),
            )
        pairs_i = np.concatenate([p[0] for p in parts])
        pairs_j = np.concatenate([p[1] for p in parts])
        sq = (
            np.concatenate([p[2] for p in parts])
            if self._d is not None
            else np.empty(0, np.float32)
        )
        return pairs_i, pairs_j, sq

    def __enter__(self) -> "PairAccumulator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Context-manager form for engine-level users: guarantees the
        # spill chunks are removed even when the join raises mid-stream.
        self.cleanup()

    def cleanup(self) -> None:
        """Delete spill chunk files (and the spill dir when it was created
        by this accumulator).  Idempotent; called by the finalizers."""
        for path_i, path_j, path_d, _count in self._chunks:
            for p in (path_i, path_j, path_d):
                if p is not None:
                    p.unlink(missing_ok=True)
        self._chunks = []
        if self._spill_dir_owned and self._spill_dir is not None:
            try:
                self._spill_dir.rmdir()
            except OSError:
                pass
            self._spill_dir = None
            self._spill_dir_owned = False

    def finalize(
        self, n_points: int, eps: float, stream_stats: Any = None
    ) -> NeighborResult:
        """Build the :class:`NeighborResult` and release the buffers."""
        pairs_i, pairs_j, sq = self.arrays()
        self.cleanup()
        return NeighborResult(
            n_points=n_points, eps=eps, pairs_i=pairs_i, pairs_j=pairs_j,
            sq_dists=sq, stream_stats=stream_stats,
        )

    def finalize_join(
        self, n_left: int, n_right: int, eps: float, stream_stats: Any = None
    ) -> "JoinResult":
        """Build the two-source :class:`JoinResult` and release the buffers."""
        pairs_i, pairs_j, sq = self.arrays()
        self.cleanup()
        return JoinResult(
            n_left=n_left,
            n_right=n_right,
            eps=eps,
            pairs_i=pairs_i,
            pairs_j=pairs_j,
            sq_dists=sq,
            stream_stats=stream_stats,
        )


def from_dense_mask(mask: np.ndarray, eps: float, sq_dists: np.ndarray | None = None) -> NeighborResult:
    """Build a :class:`NeighborResult` from a dense boolean neighbor mask.

    The diagonal is ignored (self pairs are implicit).  Used by tests and
    small reference computations.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError("mask must be square")
    m = mask.copy()
    np.fill_diagonal(m, False)
    ii, jj = np.nonzero(m)
    sq = (
        np.asarray(sq_dists, dtype=np.float32)[ii, jj]
        if sq_dists is not None
        else np.empty(0, np.float32)
    )
    return NeighborResult(
        n_points=mask.shape[0], eps=eps, pairs_i=ii, pairs_j=jj, sq_dists=sq
    )
