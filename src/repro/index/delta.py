"""LSM-style mutable indexes: one base + one delta block + tombstones.

The persisted indexes of :mod:`repro.index.persist` are read-only: any
new point means a full out-of-core rebuild.  :class:`MutableIndex` turns
one persisted index directory into a **live store** with the classic
log-structured layering, read as a base and one delta block:

* The **base**: a persisted grid index, queried through its
  :class:`~repro.service.query.QueryEngine`.
* The **delta block**: the rows of the unsealed buffer and of every
  sealed segment of at most :data:`BLOCK_SEGMENT_ROWS` rows -- every
  delta row unless a bulk append sealed a larger segment -- resident as
  working-precision rows, their squared norms and their global ids, in
  ascending id order.  A read is one
  :func:`~repro.core.engine.tile_join` of its queries against the block,
  one GEMM per column chunk (a chunk bounds the temporary) through the
  engine's ``threshold_epilogue``; kNN builds the same distance block
  and keeps each row's top-k by ``(distance, global id)``.  For small
  segments brute force beats the index -- the paper's trade-off: a grid
  probe per small segment costs more than the distances it saves.
  **Residency:** ``n_block x d x itemsize`` bytes of rows plus
  ``n_block x (itemsize + 8)`` of norms and ids; capacity doubles when
  full, so at most twice that is allocated.  The FP64 originals stay on
  disk in the segments (compaction reads them back), apart from the
  buffer's until it is sealed.
* **Large segments**: a sealed segment past :data:`BLOCK_SEGMENT_ROWS`
  rows keeps its own grid engine over its memory-mapped rows, like the
  base -- past that size the index can beat brute force (see the
  constant's measurements and the ``segment_read_crossover`` table of
  BENCH_engine.json), and ``mmap`` keeps bounding what such a store
  holds resident.

``delta_depth`` counts sealed segments plus a nonempty buffer (what a
compaction folds); ``delta_rows`` counts the block's rows (what a read
multiplies its queries against).  A traced read records one
``delta.layer`` span per part -- ``layer`` 0 the base, 1 the block, 2
and up each large segment, each with its ``rows`` -- and one
``delta.merge``.

Writes:

* **Appends** extend the block in place and are the in-memory
  **buffer** (FP64 rows) until sealed.  Past ``seal_threshold`` buffered rows the
  buffer is *sealed*: saved as an immutable on-disk **delta segment** --
  an ordinary :func:`~repro.index.persist.save_index` directory with its
  rows embedded, cell-ordered with stored ``ids`` and ``norms`` like
  every persisted index -- so sealing inherits the atomic-staging crash
  safety (stage + fsync + one ``rename``) and its fault points
  unchanged.  The
  block keeps the sealed rows as they are (a large segment's rows leave
  it for the segment's engine); opening a store reads each small
  segment's rows once, into id order through its stored ``ids``.
* **Deletes** write **tombstones**: global row ids masked out of every
  query answer.  Rows are never rewritten in place; a tombstoned row
  physically persists in its base/segment until a compaction folds it
  out.  Tombstones are durable -- every ``delete`` commits the manifest.
* **Compaction** streams the live rows (base + every sealed segment
  read back from disk, minus tombstones, in ascending global-id order)
  through the existing
  ``GridIndex.from_source`` out-of-core build into a **new versioned
  base snapshot** (``base-<token>/``), then commits.  Appends/deletes
  that race a compaction are preserved: segments sealed after the
  snapshot stay, the block keeps its rows past the snapshot, and only
  the tombstones
  the snapshot already folded out are pruned.

**Commit point.**  The store is a directory holding ``state.json`` (the
manifest: base directory name, base-row global ids, tombstone payload,
segment list, ``next_id``) next to the base and segment grid index
directories.  Every state change is committed by staging the side
payloads (``ids-<token>.npy``, ``tomb-<token>.npy``) through
:mod:`repro.index.persist`'s payload staging (fsynced and
SHA-256-checksummed; on open, checked by the same per-payload verifier
as index payloads), writing the new manifest to a temp sibling, and
swinging it in with one atomic ``os.replace`` -- the index header's
replacement discipline, sharing the ``persist.write`` /
``persist.payload`` fault points.  A ``SIGKILL`` at any instant
therefore leaves the previous *or* the new manifest in place, each
referencing only fully-committed payloads: the store always reloads as
old-or-new, never a half-compacted generation (tests/test_faults.py
kills saves mid-seal and mid-compaction to pin this).  Unsealed buffer
rows are the deliberate exception -- like any memtable without a WAL
they are volatile until sealed; a crash simply loses them, and reopen
prunes any tombstones left dangling at the vanished ids.

**Answers equal a rebuild's.**  A query answers what an index *rebuilt
from scratch* over the equivalent live dataset answers
(tests/test_mutable.py drives randomized op sequences against exactly
that rebuild):

* Global ids are minted monotonically; base ids < every delta id, the
  block is in id order, a segment's ids are one ascending run, and a
  compacted base inherits the sorted live ids, so "position in the
  rebuilt dataset" and "global id" order rows identically.  Each engine
  answers in its original row numbers, which the store maps through
  that part's ascending gids.
* Pair sets are always equal: every part evaluates the same
  norm-expansion distance against the same ``eps^2`` in the working
  precision.  Distance *bits* are equal where BLAS rounds each dot
  product alike in the engines' group GEMMs, the block's GEMM and the
  rebuild's group GEMMs -- the store never matched a rebuild's GEMM
  shapes, and the shapes tests/test_mutable.py pins round alike.  One
  fixed-order FP64 distance per reported pair (planned in ROADMAP.md)
  makes this hold by construction.
* Range: tombstones are masked once per part and the union is
  canonicalized by the ``(query, global id)`` lexsort.
* kNN: each engine part answers an exact top-``k + dead(part)`` (the
  padding guarantees ``k`` live survivors) whose distances are
  recomputed in the working precision; the block's dead columns are set
  to ``+inf`` and it keeps the least ``(distance, global id)``.  The
  merge breaks distance ties by id -- the part holding the lower ids
  first, then the engine's own order within a part -- which reproduces
  the rebuilt engine's ``(distance, index)`` tie-break.

**Concurrency.**  One writer process; within it, mutations serialize on
an internal lock, queries capture an immutable generation snapshot (the
base and large-segment engines, a view of the block's first ``n`` rows,
the tombstone array) and run lock-free on it.  Appends only write past a
snapshot's ``n`` (or into a grown copy), and a compaction or a large
seal replaces the block with a fresh copy of the rows it keeps, so no
write lands under an in-flight read.  A
compaction swaps the base atomically under the lock -- in-flight
queries finish on the old generation (their mmaps stay valid; POSIX
keeps unlinked payload inodes readable) while new queries see the new
one.  A compaction also holds the store's ``compact.lock`` exclusively,
and GC (run at open and after every commit) skips while any other
handle -- in this process or another -- holds it, so opening a store
never deletes another handle's in-flight base.  The serving layer
(:class:`repro.service.server.IndexCache`) keeps a cached mutable
engine while the manifest on disk is still the generation the engine
recorded at its own last commit (a
:class:`~repro.index.persist.FileGeneration`: one ``stat``, plus a
digest compare while the commit is racily recent), for the same
old-or-new swap across processes.
"""

from __future__ import annotations

import fcntl
import json
import os
import secrets
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults
from repro import trace as trace_mod
from repro.core.engine import (
    GROUP_CHUNK_ELEMS,
    ResidentOperand,
    norm_expansion_sq_dists,
    tile_join,
)
from repro.core.results import JoinResult
from repro.data.source import ArraySource, DatasetSource, as_source
from repro.index.grid import GridIndex
from repro.index.persist import (
    SAVING_SUFFIX,
    CorruptIndexError,
    FileGeneration,
    _fsync,
    _gc_interrupted_saves,
    _stage_payload,
    _verify_payload,
    load_embedded_rows,
    load_index,
    save_index,
)

#: Manifest identification; readers reject unknown magic/version.
MUTABLE_MAGIC = "repro-mutable"
MUTABLE_VERSION = 1

#: Manifest file name inside a mutable store directory (the commit point).
MANIFEST_NAME = "state.json"

#: Default buffer size (rows) past which an append seals a segment.
DEFAULT_SEAL_THRESHOLD = 4096

#: Largest sealed segment (rows) the delta block takes in.  A larger one
#: -- a bulk append sealed whole -- is read through its own grid engine
#: over its memory-mapped rows.  Measured on a 2-core x86 VM for one
#: segment of clustered rows at ~8 range neighbours per query: at 8
#: queries the block's GEMM beats the segment's grid engine up to 8192
#: rows at d=64 (0.48 vs 0.57 ms; 0.89 vs 0.46 ms at 16384) and ties at
#: 4096 rows at d=128 (0.38 vs 0.34 ms), and its kNN selection beats the
#: engine's up to 8192 rows at d=64 (0.73 vs 0.89 ms).
BLOCK_SEGMENT_ROWS = 4096

#: Lock file a compaction holds exclusively (``flock``) for its whole run;
#: GC on every other handle takes it shared and skips while it cannot.
COMPACT_LOCK_NAME = "compact.lock"


class CompactionInProgress(RuntimeError):
    """A non-waiting ``compact`` found another compaction running."""


def is_mutable_index(path) -> bool:
    """True when ``path`` holds a mutable store (a ``state.json`` manifest)."""
    return (Path(path) / MANIFEST_NAME).is_file()


def _manifest_bytes(path: Path) -> bytes:
    mpath = path / MANIFEST_NAME
    if not mpath.is_file():
        raise ValueError(f"{path} is not a mutable index (no {MANIFEST_NAME})")
    return mpath.read_bytes()


def read_manifest(path, raw: bytes | None = None) -> dict:
    """Read and validate a mutable store's manifest.

    Mirrors :func:`repro.index.persist.read_header`: anything that is
    not a compatible manifest raises :class:`ValueError`; unreadable
    garbage raises :class:`~repro.index.persist.CorruptIndexError`.
    ``raw`` is the manifest's bytes when the caller has already read
    them.
    """
    path = Path(path)
    mpath = path / MANIFEST_NAME
    if raw is None:
        raw = _manifest_bytes(path)
    try:
        manifest = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptIndexError(
            f"{mpath} is not valid JSON (truncated or garbled manifest)"
        ) from exc
    if not isinstance(manifest, dict):
        raise CorruptIndexError(f"{mpath} does not contain an object")
    if manifest.get("magic") != MUTABLE_MAGIC:
        raise ValueError(
            f"{path}: bad magic {manifest.get('magic')!r} "
            f"(expected {MUTABLE_MAGIC!r})"
        )
    if manifest.get("version") != MUTABLE_VERSION:
        raise ValueError(
            f"{path}: unsupported mutable-store version "
            f"{manifest.get('version')!r} (this reader understands "
            f"{MUTABLE_VERSION})"
        )
    if manifest.get("kind") != "grid":
        raise ValueError(
            f"{path}: unknown index kind {manifest.get('kind')!r}"
        )
    for field in ("eps", "dim", "next_id", "base", "segments"):
        if field not in manifest:
            raise CorruptIndexError(f"{path}: manifest lost {field!r}")
    return manifest


def _as_rows(rows, dim: int | None = None) -> np.ndarray:
    q = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    if q.ndim == 1:
        q = q[None, :]
    if q.ndim != 2:
        raise ValueError("rows must be (n, d) or a single (d,) point")
    if dim is not None and q.shape[1] != dim:
        raise ValueError(f"row dimensionality {q.shape[1]} != indexed {dim}")
    return q


class _LiveRowsSource(DatasetSource):
    """Live rows of a generation, in ascending global-id order.

    ``parts`` is a list of ``(source, rows)``: the base's and each
    sealed segment's source plus the stored rows that survive the
    tombstone mask, in ascending global-id order (empty parts are
    dropped).  This is
    what a compaction streams through ``from_source`` and
    ``save_index`` -- the rows a from-scratch rebuild over the live
    dataset would see, in the same order, so the built index is
    bit-identical to that rebuild.
    """

    def __init__(self, parts) -> None:
        self._parts = [(src, np.asarray(ix, dtype=np.int64))
                       for src, ix in parts if len(ix)]
        if not self._parts:
            raise ValueError("no live rows")
        self.dim = int(self._parts[0][0].dim)
        counts = [ix.size for _, ix in self._parts]
        self._bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.n = int(self._bounds[-1])

    def load_block(self, r0: int, r1: int) -> np.ndarray:
        self._check_block(r0, r1)
        out = np.empty((r1 - r0, self.dim), dtype=np.float64)
        for p, (src, ix) in enumerate(self._parts):
            lo = max(r0, int(self._bounds[p]))
            hi = min(r1, int(self._bounds[p + 1]))
            if lo >= hi:
                continue
            local = ix[lo - int(self._bounds[p]) : hi - int(self._bounds[p])]
            out[lo - r0 : hi - r0] = src.take(local)
        return out

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        out = np.empty((indices.size, self.dim), dtype=np.float64)
        part = np.searchsorted(self._bounds, indices, side="right") - 1
        for p, (src, ix) in enumerate(self._parts):
            sel = np.nonzero(part == p)[0]
            if sel.size:
                out[sel] = src.take(ix[indices[sel] - int(self._bounds[p])])
        return out


class _DeltaBlock:
    """Small-segment and buffer rows, resident, in ascending global-id order.

    ``rows`` are the working-precision rows, ``norms`` their squared
    norms (:func:`~repro.service.query._cast_with_norms`: row-local,
    bitwise what the engine's operand preparation computes) and
    ``gids`` their global ids.  The first ``n`` rows of each array are
    filled.  :meth:`extend` writes only past ``n``, or into a doubled
    copy when the capacity is spent, and :meth:`snapshot` /
    :meth:`select` are views and copies that no later write touches --
    what lets a query run on its generation's block without the lock.
    """

    def __init__(self, dim: int, dtype: np.dtype, cap: int = 0) -> None:
        self.dtype = np.dtype(dtype)
        self.rows = np.empty((cap, dim), dtype=self.dtype)
        self.norms = np.empty(cap, dtype=self.dtype)
        self.gids = np.empty(cap, dtype=np.int64)
        self.n = 0

    def extend(
        self, raw: np.ndarray, gids: np.ndarray, order: np.ndarray | None = None
    ) -> "_DeltaBlock":
        """Append FP64 rows and their (ascending, larger) global ids;
        returns the block holding them -- this one, or a copy with
        doubled capacity when this one is full.  ``order`` places row
        ``p`` of ``raw`` at new row ``order[p]`` (a segment's stored
        rows back into id order) on the way in."""
        m = raw.shape[0]
        block = self
        if self.n + m > self.gids.size:
            block = self._copy(0, self.n, max(2 * self.gids.size, self.n + m))
        lo, hi = block.n, block.n + m
        if order is None:
            block.rows[lo:hi] = raw  # the working-precision cast
        else:
            block.rows[lo + order] = raw
        _, block.norms[lo:hi] = _prepare(self.dtype, block.rows[lo:hi])
        block.gids[lo:hi] = gids
        block.n = hi
        return block

    def _copy(self, start: int, stop: int, cap: int) -> "_DeltaBlock":
        """A fresh block of capacity ``cap`` holding rows ``start:stop``."""
        block = _DeltaBlock(self.rows.shape[1], self.dtype, cap)
        m, filled = stop - start, slice(start, stop)
        block.rows[:m] = self.rows[filled]
        block.norms[:m] = self.norms[filled]
        block.gids[:m] = self.gids[filled]
        block.n = m
        return block

    def snapshot(self) -> "_DeltaBlock":
        """Views of the filled rows: full, so nothing ever extends them
        in place."""
        snap = _DeltaBlock.__new__(_DeltaBlock)
        snap.dtype, snap.n = self.dtype, self.n
        snap.rows, snap.norms = self.rows[: self.n], self.norms[: self.n]
        snap.gids = self.gids[: self.n]
        return snap

    def select(self, lo: int, hi: int) -> "_DeltaBlock":
        """The rows with ``lo <= gid < hi``: this block when that is all
        of them, else a fresh copy (a compaction keeps the rows past its
        snapshot; a large seal drops the buffer's rows)."""
        start, stop = np.searchsorted(self.gids[: self.n], [lo, hi])
        if (start, stop) == (0, self.n):
            return self
        return self._copy(int(start), int(stop), int(stop - start))

    def contains(self, ids: np.ndarray) -> np.ndarray:
        """Which of ``ids`` are rows of the block."""
        gids = self.gids[: self.n]
        if not gids.size:
            return np.zeros(ids.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(gids, ids), gids.size - 1)
        return gids[pos] == ids


@dataclass
class _EnginePart:
    """A part read through a grid engine: the base, or one sealed segment
    too large for the block (see :data:`BLOCK_SEGMENT_ROWS`)."""

    engine: object  # QueryEngine (imported lazily -- see _engine_cls)
    gids: np.ndarray  # (n,) int64 ascending: global id of engine row j
    dead: int = 0  # tombstoned rows (set per generation)


@dataclass
class _Generation:
    """Immutable snapshot a query runs against (captured under the lock)."""

    parts: list  # _EnginePart: the base, then large segments in id order
    block: _DeltaBlock  # snapshot: small-segment and buffer rows, by id
    block_dead: np.ndarray | None  # (block.n,) bool, None when none is dead
    tomb: np.ndarray  # sorted int64 global ids
    n_live: int
    next_id: int


def _engine_cls():
    # Imported lazily: repro.service imports this module (via server.py),
    # so a module-level import here would be circular.
    from repro.service.query import QueryEngine

    return QueryEngine


def _knn_result_cls():
    from repro.service.query import KnnResult

    return KnnResult


def _prepare(dtype: np.dtype, rows: np.ndarray):
    """Rows in the working precision and their squared norms: the query
    engine's own operand preparation, for queries and block rows alike."""
    from repro.service.query import _cast_with_norms

    return _cast_with_norms(dtype, rows)


def _stored_positions(ids: np.ndarray) -> np.ndarray:
    """Stored row of each original row, given the original row of each
    stored row (a segment's ``ids``)."""
    inverse = np.empty(ids.size, dtype=np.int64)
    inverse[ids] = np.arange(ids.size, dtype=np.int64)
    return inverse


def _segment_gids(seg: dict) -> np.ndarray:
    """Global ids of a sealed segment's rows, in its original row order."""
    return np.arange(
        seg["start_id"], seg["start_id"] + seg["n"], dtype=np.int64
    )


def _block_chunk(n_queries: int) -> int:
    """Block columns per GEMM: a ``(queries x chunk)`` temporary stays
    within the engine's :data:`~repro.core.engine.GROUP_CHUNK_ELEMS`."""
    return max(1, GROUP_CHUNK_ELEMS // max(n_queries, 1))


def _least(d: np.ndarray, keys: tuple, k: int) -> np.ndarray:
    """Per row, the columns of the ``k`` entries of least ``(distance,
    *keys)``, in that order: ``(rows, min(k, columns))`` positions.

    A partition finds each row's ``k``-th distance; only the entries at
    or under it (ties included) are sorted.
    """
    nq, c = d.shape
    if c > k:
        cut = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
        r, col = np.nonzero(d <= cut)
    else:
        r, col = np.divmod(np.arange(nq * c), max(c, 1))
    order = np.lexsort(
        tuple(key[r, col] for key in reversed(keys)) + (d[r, col], r)
    )
    r, col = r[order], col[order]
    keep = np.arange(r.size) - np.searchsorted(r, r) < k
    return col[keep].reshape(nq, -1)


def _layer_span(layer: int, rows: int, t0: float) -> None:
    """One ``delta.layer`` span: ``layer`` 0 is the base engine's pass,
    1 the delta block's GEMM, 2 and up each large segment's engine;
    ``rows`` the rows that part holds."""
    trace_mod.record_ambient_span(
        "delta.layer", time.perf_counter() - t0,
        attrs={"layer": layer, "rows": int(rows)},
    )


def _merge_span(n_layers: int, t0: float) -> None:
    """The ``delta.merge`` span: the merge of one query's parts."""
    trace_mod.record_ambient_span(
        "delta.merge", time.perf_counter() - t0, attrs={"layers": n_layers},
    )


class MutableIndex:
    """A persisted index that accepts appends and deletes (LSM layering).

    Open an existing store with ``MutableIndex(path)``; create one from a
    dataset with :meth:`MutableIndex.create`.  The instance duck-types
    :class:`~repro.service.query.QueryEngine` (``range_query`` /
    ``knn_query`` / ``eps`` / ``dim`` / ``n_points``), so the whole
    serving stack -- :class:`~repro.service.server.QueryService`
    micro-batching and the HTTP front end -- works on it
    unchanged, with ``n_points`` reporting the **live** row count.

    Query answers index rows by **global id**: the dense ``0..n-1``
    numbering of the creating dataset, extended monotonically by every
    append (``append`` returns the minted ids).  Ids are stable for the
    life of a row -- across seals and compactions -- and are never
    reused.

    Single-writer: one process mutates a store at a time (same contract
    as :func:`~repro.index.persist.save_index`).  Within the process the
    class is thread-safe; see the module docstring for the snapshot
    discipline.
    """

    def __init__(
        self,
        path,
        *,
        mmap: bool = True,
        precision: str = "fp64",
        verify: str = "header",
        seal_threshold: int | None = None,
    ) -> None:
        path = Path(path)
        raw = _manifest_bytes(path)
        # The generation is taken after the read: a commit racing this
        # open leaves a fresh ctime, so the generation is racy and the
        # digest of the bytes read here tells the two apart -- the
        # serving cache reloads once, never serves a stale generation.
        try:
            self._committed = FileGeneration(path / MANIFEST_NAME, raw)
        except OSError as exc:
            raise ValueError(
                f"{path} is not a mutable index (no {MANIFEST_NAME})"
            ) from exc
        manifest = read_manifest(path, raw)
        self.path = path
        self.eps = float(manifest["eps"])
        self.dim = int(manifest["dim"])
        self.precision = precision
        self.dtype = np.dtype(
            np.float32 if precision == "fp32" else np.float64
        )
        self._mmap = mmap
        self._verify = verify
        self._params = dict(manifest.get("params", {}))
        self.seal_threshold = int(
            seal_threshold
            if seal_threshold is not None
            else manifest.get("seal_threshold", DEFAULT_SEAL_THRESHOLD)
        )
        if self.seal_threshold < 1:
            raise ValueError("seal_threshold must be >= 1")

        self._lock = threading.RLock()
        self._compact_lock = threading.Lock()
        self._protected: set[str] = set()  # dirs an in-flight compaction owns
        self._compact_fd: int | None = None  # held compact.lock, if compacting
        self._gen: _Generation | None = None
        # The buffer: FP64 rows appended since the last seal (what a seal
        # writes), also the block's last ``_buffer_n`` rows unless they
        # are bound for a segment of their own (see ``append``).
        self._buffer_rows: list[np.ndarray] = []
        self._buffer_n = 0
        self._buffer_start = 0

        engine_cls = _engine_cls()
        self._base_dir = manifest["base"]
        loaded = load_index(path / self._base_dir, mmap=mmap, verify=verify)
        if float(loaded.eps) != self.eps:
            raise CorruptIndexError(
                f"{path}: base {self._base_dir} disagrees with the manifest "
                f"(eps)"
            )
        self._base_engine = engine_cls(loaded, precision=precision)
        self._base_n = int(self._base_engine.n_points)
        entry = manifest.get("base_ids")
        if entry is None:
            self._base_gids = None  # identity: arange(base_n)
        else:
            _verify_payload(path, "base_ids", entry, verify)
            self._base_gids = np.load(path / entry["file"]).astype(
                np.int64, copy=False
            )
            if self._base_gids.size != self._base_n:
                raise CorruptIndexError(
                    f"{path}: base_ids covers {self._base_gids.size} rows, "
                    f"base holds {self._base_n}"
                )
        self._segments = [
            {"dir": seg["dir"], "start_id": int(seg["start_id"]),
             "n": int(seg["n"])}
            for seg in manifest["segments"]
        ]
        # Sealed segments past BLOCK_SEGMENT_ROWS, by directory.
        self._large: dict[str, _EnginePart] = {}
        small = [s for s in self._segments if s["n"] <= BLOCK_SEGMENT_ROWS]
        self._block = _DeltaBlock(
            self.dim, self.dtype, sum(seg["n"] for seg in small)
        )
        for seg in self._segments:
            if seg["n"] > BLOCK_SEGMENT_ROWS:
                self._large[seg["dir"]] = self._engine_part(seg)
                continue
            # Straight from the map into id order, through ``ids``.
            rows, ids = self._segment_rows(seg)
            self._block = self._block.extend(rows, _segment_gids(seg), ids)
        self.next_id = int(manifest["next_id"])
        self._buffer_start = self.next_id
        entry = manifest.get("tombstones")
        if entry is None:
            self._tombstones: set[int] = set()
        else:
            _verify_payload(path, "tombstones", entry, verify)
            tomb = np.load(path / entry["file"]).astype(np.int64, copy=False)
            # Tombstones at ids that no longer exist (buffer rows lost to
            # a crash before their seal) are dangling; prune them.
            exists = self._exists_mask_locked(tomb)
            self._tombstones = set(int(t) for t in tomb[exists])
        self._manifest = manifest
        with self._lock:
            self._gc_locked()

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        data,
        eps: float,
        *,
        n_dims: int = 6,
        seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
        mmap: bool = True,
        precision: str = "fp64",
        verify: str = "header",
    ) -> "MutableIndex":
        """Create a mutable store over ``data`` at ``path`` and open it.

        The initial base grid index is built like
        :func:`repro.core.api.build_index` (in-memory for resident arrays,
        out-of-core otherwise) with the dataset embedded; row ``i`` of
        ``data`` gets global id ``i``.  The whole store is staged in a
        ``<name>.saving-<token>`` sibling and published by one atomic
        ``rename`` -- a crash mid-create leaves no partial store behind,
        and the next create at that path removes the staging leftovers.
        """
        path = Path(path)
        if path.exists():
            raise ValueError(f"{path} already exists")
        source = as_source(data)
        if source.n < 1:
            raise ValueError("a mutable index needs at least one initial row")
        index = (
            GridIndex(data, eps, n_dims=n_dims)
            if isinstance(data, np.ndarray)
            else GridIndex.from_source(source, eps, n_dims=n_dims)
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        _gc_interrupted_saves(path)
        tmp = path.parent / f"{path.name}{SAVING_SUFFIX}{secrets.token_hex(4)}"
        tmp.mkdir()
        try:
            base_dir = f"base-{secrets.token_hex(4)}"
            save_index(index, tmp / base_dir, data=source)
            (tmp / "segments").mkdir()
            manifest = {
                "magic": MUTABLE_MAGIC,
                "version": MUTABLE_VERSION,
                "kind": "grid",
                "eps": float(eps),
                "dim": int(source.dim),
                "next_id": int(source.n),
                "base": base_dir,
                "base_ids": None,
                "tombstones": None,
                "segments": [],
                "params": {"n_dims": int(n_dims)},
                "seal_threshold": int(seal_threshold),
            }
            mpath = tmp / MANIFEST_NAME
            mpath.write_text(json.dumps(manifest, indent=2) + "\n")
            _fsync(mpath)
            _fsync(tmp)
            os.rename(tmp, path)
            _fsync(path.parent)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return cls(
            path, mmap=mmap, precision=precision,
            verify=verify, seal_threshold=seal_threshold,
        )

    # -- bookkeeping ----------------------------------------------------

    @property
    def base_engine(self):
        """The base layer's :class:`QueryEngine` (query sampling etc.)."""
        return self._base_engine

    @property
    def source(self):
        """The base layer's dataset source, in stored order (samplers
        draw from it through :meth:`rows_of`)."""
        return self._base_engine.source

    def rows_of(self, ids) -> np.ndarray:
        """Stored base-layer rows of base-layer original row numbers."""
        return self._base_engine.rows_of(ids)

    @property
    def index(self):
        """The base layer's raw index (grid-cell introspection)."""
        return self._base_engine.index

    @property
    def n_points(self) -> int:
        """Live row count (rows appended or initial, minus tombstones)."""
        with self._lock:
            return self._n_rows_locked() - len(self._tombstones)

    @property
    def delta_depth(self) -> int:
        """Sealed segments plus a nonempty buffer: what a compaction
        folds (a read pays for :attr:`delta_rows`, not for depth)."""
        with self._lock:
            return len(self._segments) + (1 if self._buffer_n else 0)

    @property
    def delta_rows(self) -> int:
        """Rows in the delta block: every buffer row and every row of a
        sealed segment of at most :data:`BLOCK_SEGMENT_ROWS`, dead or
        live (what a read multiplies its queries against)."""
        with self._lock:
            return self._block.n

    @property
    def n_tombstones(self) -> int:
        with self._lock:
            return len(self._tombstones)

    @property
    def n_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    def _n_rows_locked(self) -> int:
        return self._base_n + self._block.n + sum(
            part.gids.size for part in self._large.values()
        )

    def live_ids(self) -> np.ndarray:
        """Sorted global ids of every live row."""
        gen = self._generation()
        gids = np.sort(np.concatenate(
            [part.gids for part in gen.parts] + [gen.block.gids]
        ))
        if gen.tomb.size:
            gids = gids[~np.isin(gids, gen.tomb)]
        return gids

    def _check_segment(self, seg: dict, shape: tuple) -> None:
        if shape != (seg["n"], self.dim):
            raise CorruptIndexError(
                f"{self.path}: segment {seg['dir']} holds rows of shape "
                f"{shape}, its manifest record names {seg['n']} of dim "
                f"{self.dim}"
            )

    def _segment_rows(self, seg: dict):
        """A sealed segment's stored rows (mapped) and their original row
        numbers (``ids``): only those payloads are opened, checked at
        this handle's ``verify`` level; a damaged one raises
        :class:`~repro.index.persist.CorruptIndexError`."""
        rows, ids = load_embedded_rows(
            self.path / seg["dir"], verify=self._verify
        )
        self._check_segment(seg, rows.shape)
        return rows, ids

    def _engine_part(self, seg: dict) -> _EnginePart:
        """A large sealed segment's grid engine over its (mapped) rows."""
        loaded = load_index(
            self.path / seg["dir"], mmap=self._mmap, verify=self._verify
        )
        self._check_segment(seg, (loaded.source.n, loaded.source.dim))
        return _EnginePart(
            _engine_cls()(loaded, precision=self.precision), _segment_gids(seg)
        )

    def _base_gids_locked(self) -> np.ndarray:
        if self._base_gids is not None:
            return self._base_gids
        return np.arange(self._base_n, dtype=np.int64)

    def _exists_mask_locked(self, ids: np.ndarray) -> np.ndarray:
        """Which of ``ids`` name a physically present row (dead or live)."""
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.zeros(ids.shape, dtype=bool)
        if self._base_n:
            bg = self._base_gids
            if bg is None:
                mask |= (ids >= 0) & (ids < self._base_n)
            else:
                pos = np.searchsorted(bg, ids)
                inb = pos < bg.size
                mask |= inb & (bg[np.minimum(pos, bg.size - 1)] == ids)
        for part in self._large.values():
            mask |= (ids >= part.gids[0]) & (ids <= part.gids[-1])
        return mask | self._block.contains(ids)

    # -- manifest commit ------------------------------------------------

    def manifest_is_current(self, path=None) -> bool:
        """Whether ``state.json`` under ``path`` (default: this handle's
        own path) is the manifest this handle committed.

        :meth:`FileGeneration.matches
        <repro.index.persist.FileGeneration.matches>` against the
        generation this handle recorded at its own last commit (or at
        open): one ``stat``, plus one read while that commit is racily
        recent.  Every commit renames a fresh file into place, so
        another handle's commit is another generation, and a ``path``
        spelled through a symlink that now leads to another store finds
        another file.  False means another handle rewrote the store (or
        removed it), or ``path`` no longer leads here.  Compared under
        the writer lock: a commit swaps the file in before it records
        the new generation, so an unlocked compare in that window would
        call this handle -- and the unsealed rows only it holds -- stale.
        """
        target = Path(self.path if path is None else path) / MANIFEST_NAME
        with self._lock:
            return self._committed.matches(target)

    def _commit_manifest_locked(self) -> None:
        """Atomically publish the current in-memory state to ``state.json``.

        Side payloads first (fsynced, checksummed, generation-tagged so
        the live manifest cannot reference them), then the manifest to a
        temp sibling, then one ``os.replace`` -- the commit point, guarded
        by the ``persist.write`` fault like every index commit.
        """
        token = secrets.token_hex(4)
        base_ids_entry = None
        if self._base_gids is not None:
            base_ids_entry = _stage_payload(
                self.path, f"ids-{token}.npy", self._base_gids
            )
        tomb_entry = None
        if self._tombstones:
            tomb = np.fromiter(
                sorted(self._tombstones), dtype=np.int64,
                count=len(self._tombstones),
            )
            tomb_entry = _stage_payload(
                self.path, f"tomb-{token}.npy", tomb
            )
        manifest = {
            "magic": MUTABLE_MAGIC,
            "version": MUTABLE_VERSION,
            "kind": "grid",
            "eps": self.eps,
            "dim": self.dim,
            "next_id": int(self.next_id),
            "base": self._base_dir,
            "base_ids": base_ids_entry,
            "tombstones": tomb_entry,
            "segments": [
                {"dir": s["dir"], "start_id": s["start_id"], "n": s["n"]}
                for s in self._segments
            ],
            "params": self._params,
            "seal_threshold": int(self.seal_threshold),
        }
        raw = (json.dumps(manifest, indent=2) + "\n").encode()
        tmp = self.path / f"{MANIFEST_NAME}{SAVING_SUFFIX}{token}"
        tmp.write_bytes(raw)
        _fsync(tmp)
        if faults.ARMED:
            faults.check("persist.write")
        os.replace(tmp, self.path / MANIFEST_NAME)
        self._committed = FileGeneration(self.path / MANIFEST_NAME, raw)
        _fsync(self.path)
        self._manifest = manifest
        self._gc_locked()

    def _gc_locked(self) -> None:
        """Drop files/dirs the committed manifest does not reference.

        Superseded bases, folded segments, stale side payloads, and
        interrupted staging leftovers all become garbage the moment a
        new manifest commits (live mmaps keep reading the unlinked
        inodes).  Directories this handle's in-flight compaction is
        staging are protected by name; another handle's compaction is
        invisible by name, so GC skips while :data:`COMPACT_LOCK_NAME` is
        held exclusively elsewhere.
        """
        if self._compact_fd is not None:
            self._sweep_locked()
            return
        try:
            fd = self._open_compact_lock()
        except OSError:
            return  # a store this handle cannot write is not its to sweep
        try:
            fcntl.flock(fd, fcntl.LOCK_SH | fcntl.LOCK_NB)
        except BlockingIOError:
            return  # another handle is compacting
        else:
            self._sweep_locked()
        finally:
            os.close(fd)  # drops the shared lock

    def _sweep_locked(self) -> None:
        manifest = self._manifest
        keep_files = {MANIFEST_NAME, COMPACT_LOCK_NAME}
        for entry in (manifest.get("base_ids"), manifest.get("tombstones")):
            if entry:
                keep_files.add(entry["file"])
        keep_dirs = {manifest["base"], "segments"}
        keep_segs = {Path(s["dir"]).name for s in manifest["segments"]}
        # In-memory state may be ahead of the manifest (a sealed segment
        # whose commit failed retries on the next commit) -- keep it too.
        keep_dirs.add(self._base_dir)
        keep_segs.update(Path(s["dir"]).name for s in self._segments)
        protected = set(self._protected)

        def _shielded(name: str) -> bool:
            return any(name.startswith(p) for p in protected)

        for child in self.path.iterdir():
            name = child.name
            if _shielded(name):
                continue
            if child.is_dir():
                if name == "segments":
                    for seg in child.iterdir():
                        if seg.name not in keep_segs and not _shielded(
                            seg.name
                        ):
                            shutil.rmtree(seg, ignore_errors=True)
                elif name not in keep_dirs:
                    shutil.rmtree(child, ignore_errors=True)
            elif name not in keep_files:
                child.unlink(missing_ok=True)

    # -- mutations ------------------------------------------------------

    def append(self, rows) -> np.ndarray:
        """Add rows; returns their newly minted global ids (ascending).

        Rows join the in-memory buffer -- **volatile until sealed** (see
        the module docstring) -- and extend the delta block.  Crossing
        ``seal_threshold`` buffered rows triggers an automatic
        :meth:`seal`; rows that seal at once into a segment too large
        for the block never enter it.
        """
        rows = _as_rows(rows, self.dim)
        if rows.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        with self._lock:
            if self._buffer_n == 0:
                self._buffer_start = self.next_id
            ids = np.arange(
                self.next_id, self.next_id + rows.shape[0], dtype=np.int64
            )
            self.next_id += rows.shape[0]
            self._buffer_rows.append(rows)
            self._buffer_n += rows.shape[0]
            self._gen = None
            sealing = self._buffer_n >= self.seal_threshold
            bulk = sealing and self._buffer_n > BLOCK_SEGMENT_ROWS
            if not bulk:
                self._block = self._block.extend(rows, ids)
            try:
                if sealing:
                    self._seal_locked()
            except BaseException:
                if bulk and self._buffer_n:  # unsealed: the block answers
                    self._block = self._block.extend(rows, ids)
                raise
            return ids

    def delete(self, ids, *, missing: str = "error") -> int:
        """Tombstone global ids; returns how many rows became dead.

        ``missing="error"`` (default) raises :class:`ValueError` when an
        id is unknown or already dead; ``missing="ignore"`` skips those.
        The write is durable: every delete commits the manifest (the
        tombstone payload is small -- one int64 per dead row).
        """
        if missing not in ("error", "ignore"):
            raise ValueError("missing must be 'error' or 'ignore'")
        ids = np.unique(np.asarray(ids, dtype=np.int64).ravel())
        if ids.size == 0:
            return 0
        with self._lock:
            exists = self._exists_mask_locked(ids)
            dead = np.fromiter(
                (int(i) in self._tombstones for i in ids),
                dtype=bool, count=ids.size,
            )
            target = exists & ~dead
            if missing == "error" and not target.all():
                bad = ids[~target][:8].tolist()
                raise ValueError(
                    f"cannot delete ids {bad}: unknown or already deleted"
                )
            if not target.any():
                return 0
            self._tombstones.update(int(i) for i in ids[target])
            self._gen = None
            self._commit_manifest_locked()
            return int(target.sum())

    def seal(self) -> "str | None":
        """Spill the buffer to an immutable on-disk segment (if nonempty).

        Returns the new segment's store-relative directory, or None when
        the buffer was empty.  The segment is an ordinary persisted grid
        index with its rows embedded, written with the atomic staging
        discipline; the manifest commit that follows makes it (and every
        tombstone/append fact accumulated since the last commit) durable.
        The delta block keeps the rows as they are, unless the segment is
        larger than :data:`BLOCK_SEGMENT_ROWS`: then its rows leave the
        block and the segment is read through its own grid engine.
        """
        with self._lock:
            return self._seal_locked()

    def _seal_locked(self) -> "str | None":
        if self._buffer_n == 0:
            return None
        data = (
            self._buffer_rows[0] if len(self._buffer_rows) == 1
            else np.concatenate(self._buffer_rows)
        )
        index = GridIndex(
            data, self.eps, n_dims=int(self._params.get("n_dims", 6))
        )
        rel = f"segments/seg-{secrets.token_hex(4)}"
        (self.path / "segments").mkdir(exist_ok=True)
        save_index(index, self.path / rel, data=data)
        seg = {
            "dir": rel,
            "start_id": int(self._buffer_start),
            "n": int(self._buffer_n),
        }
        if seg["n"] > BLOCK_SEGMENT_ROWS:
            self._large[rel] = self._engine_part(seg)
            self._block = self._block.select(0, self._buffer_start)
            self._gen = None
        self._segments.append(seg)
        self._buffer_rows, self._buffer_n = [], 0
        self._buffer_start = self.next_id
        self._commit_manifest_locked()
        return rel

    def compact(self, *, wait: bool = True) -> dict:
        """Fold base + delta block into a fresh base snapshot.

        Seals the buffer first, snapshots the segment list and the
        tombstone set, streams the surviving rows -- the base's, then
        each sealed segment's FP64 rows read back from disk, in id order
        -- through the out-of-core builder
        into a new versioned ``base-<token>/`` directory, and commits a
        manifest that references it -- pruning exactly the tombstones the
        snapshot folded out.  Appends and deletes that land *during* the
        build are preserved: segments sealed after the snapshot stay on
        disk, their rows stay in the block (which keeps only its rows past
        the snapshot) or in their own engines, and their tombstones stay
        masked.  The
        commit is the single atomic manifest replace; a crash at any
        point leaves the old generation intact.

        One compaction runs at a time; ``wait=False`` raises
        :class:`CompactionInProgress` instead of queueing behind one.
        Returns ``{"duration_s", "n_live", "segments_folded"}``.
        """
        if not self._compact_lock.acquire(blocking=wait):
            raise CompactionInProgress(
                f"{self.path}: a compaction is already running"
            )
        t0 = time.perf_counter()
        try:
            self._hold_compact_flock(wait)
            with self._lock:
                self._seal_locked()
                if self._n_rows_locked() - len(self._tombstones) == 0:
                    raise ValueError(
                        "compaction would produce an empty index; a mutable "
                        "store must keep at least one live row"
                    )
                snap_segments = list(self._segments)
                snap_tomb = np.fromiter(
                    sorted(self._tombstones), dtype=np.int64,
                    count=len(self._tombstones),
                )
                base_engine = self._base_engine
                base_gids = self._base_gids_locked()
                snap_next = int(self.next_id)  # every id below is sealed
                new_base_dir = f"base-{secrets.token_hex(4)}"
                self._protected.add(new_base_dir)
            try:
                base_live = np.nonzero(~np.isin(base_gids, snap_tomb))[0]
                parts = [(base_engine.source, base_engine.rows_of(base_live))]
                gid_parts = [base_gids[base_live]]
                for seg in snap_segments:
                    gids = _segment_gids(seg)
                    live = np.nonzero(~np.isin(gids, snap_tomb))[0]
                    if not live.size:
                        continue
                    rows, ids = self._segment_rows(seg)
                    pos = _stored_positions(ids)[live]
                    parts.append((ArraySource(rows), pos))
                    gid_parts.append(gids[live])
                live_src = _LiveRowsSource(parts)
                live_gids = np.concatenate(gid_parts)
                new_index = GridIndex.from_source(
                    live_src, self.eps,
                    n_dims=int(self._params.get("n_dims", 6)),
                )
                save_index(
                    new_index, self.path / new_base_dir, data=live_src
                )
                loaded = load_index(
                    self.path / new_base_dir,
                    mmap=self._mmap, verify=self._verify,
                )
                new_engine = _engine_cls()(loaded, precision=self.precision)
                with self._lock:
                    folded = {id(s) for s in snap_segments}
                    self._segments = [
                        s for s in self._segments if id(s) not in folded
                    ]
                    for seg in snap_segments:
                        self._large.pop(seg["dir"], None)
                    self._block = self._block.select(
                        snap_next, np.iinfo(np.int64).max
                    )
                    self._base_engine = new_engine
                    self._base_dir = new_base_dir
                    self._base_n = int(live_gids.size)
                    identity = (
                        live_gids.size == 0 or
                        (live_gids[0] == 0
                         and live_gids[-1] == live_gids.size - 1)
                    )
                    self._base_gids = None if identity else live_gids
                    self._tombstones.difference_update(
                        int(t) for t in snap_tomb
                    )
                    self._gen = None
                    self._commit_manifest_locked()  # the commit point
            finally:
                self._protected.discard(new_base_dir)
        finally:
            fd, self._compact_fd = self._compact_fd, None
            if fd is not None:
                os.close(fd)  # drops the exclusive lock
            self._compact_lock.release()
        return {
            "duration_s": time.perf_counter() - t0,
            "n_live": int(live_gids.size),
            "segments_folded": len(snap_segments),
        }

    def _open_compact_lock(self) -> int:
        return os.open(
            self.path / COMPACT_LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644
        )

    def _hold_compact_flock(self, wait: bool) -> None:
        """Take :data:`COMPACT_LOCK_NAME` exclusively for this compaction."""
        fd = self._open_compact_lock()
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | (0 if wait else fcntl.LOCK_NB))
        except BlockingIOError:
            os.close(fd)
            raise CompactionInProgress(
                f"{self.path}: a compaction is already running"
            ) from None
        except BaseException:
            os.close(fd)
            raise
        self._compact_fd = fd

    # -- query snapshot -------------------------------------------------

    def _generation(self) -> _Generation:
        with self._lock:
            if self._gen is not None:
                return self._gen
            tomb = np.fromiter(
                sorted(self._tombstones), dtype=np.int64,
                count=len(self._tombstones),
            )
            block = self._block.snapshot()
            block_dead = np.isin(block.gids, tomb) if tomb.size else None
            n_dead = 0 if block_dead is None else int(block_dead.sum())
            large = []
            for seg in self._segments:
                part = self._large.get(seg["dir"])
                if part is not None:
                    # A segment's ids are one contiguous run.
                    lo, hi = np.searchsorted(
                        tomb, [part.gids[0], part.gids[-1] + 1]
                    )
                    large.append(
                        _EnginePart(part.engine, part.gids, int(hi - lo))
                    )
                    n_dead += int(hi - lo)
            # Every tombstone names a present row (delete checks, reopen
            # prunes), so those in no other part are the base's.
            base = _EnginePart(
                self._base_engine, self._base_gids_locked(),
                int(tomb.size) - n_dead,
            )
            self._gen = _Generation(
                parts=[base] + large,
                block=block,
                block_dead=(
                    block_dead
                    if block_dead is not None and block_dead.any() else None
                ),
                tomb=tomb,
                n_live=self._n_rows_locked() - tomb.size,
                next_id=int(self.next_id),
            )
            return self._gen

    @staticmethod
    def _layers(gen: _Generation):
        """``(span layer, part)`` of a generation's engine parts: the base
        is layer 0, large segments 2 and up (1 is the block)."""
        yield 0, gen.parts[0]
        yield from enumerate(gen.parts[1:], start=2)

    # -- queries --------------------------------------------------------

    def range_query(
        self,
        queries,
        eps: float | None = None,
        *,
        store_distances: bool = True,
    ) -> JoinResult:
        """eps-neighbors over the live rows; ``pairs_j`` are global ids.

        The base and each large segment answer through their engines;
        the delta block through :func:`~repro.core.engine.tile_join` of
        the queries against its rows, one GEMM per column chunk.
        Tombstoned ids are masked once per part, and the union is
        canonicalized by an ascending ``(query, global id)`` lexsort: the
        pair set of an engine rebuilt over the live dataset with rows
        renumbered through the live-id order, with its distance bits
        wherever BLAS rounds the dot products alike (see the module
        docstring).  ``n_right`` reports the id-space bound
        (``next_id``), not the live count: global ids are sparse after
        deletions.
        """
        q = _as_rows(queries, self.dim)
        eps = self.eps if eps is None else float(eps)
        gen = self._generation()
        traced = trace_mod.current_span() is not None
        parts_i, parts_g, parts_d = [], [], []
        for layer, part in self._layers(gen):
            t0 = time.perf_counter() if traced else 0.0
            res = part.engine.range_query(
                q, eps, store_distances=store_distances
            )
            pi, pg, pd = res.pairs_i, part.gids[res.pairs_j], res.sq_dists
            if part.dead and pg.size:
                alive = ~np.isin(pg, gen.tomb)
                pi, pg = pi[alive], pg[alive]
                pd = pd[alive] if store_distances else pd
            parts_i.append(pi)
            parts_g.append(pg)
            parts_d.append(pd)
            if traced:
                _layer_span(layer, part.gids.size, t0)
        block = gen.block
        if block.n and q.shape[0]:
            t0 = time.perf_counter() if traced else 0.0
            wq, sq = _prepare(self.dtype, q)
            # Squared in float64 before the precision cast, as the engine.
            eps2 = self.dtype.type(eps**2)
            acc, _ = tile_join(
                ResidentOperand(wq, sq), eps2,
                ResidentOperand(block.rows, block.norms),
                row_block=q.shape[0], col_block=_block_chunk(q.shape[0]),
                store_distances=store_distances,
            )
            ii, jj, dd = acc.arrays()
            if gen.block_dead is not None:
                alive = ~gen.block_dead[jj]
                ii, jj = ii[alive], jj[alive]
                dd = dd[alive] if store_distances else dd
            parts_i.append(ii)
            parts_g.append(block.gids[jj])
            parts_d.append(dd)
            if traced:
                _layer_span(1, block.n, t0)
        t0 = time.perf_counter() if traced else 0.0
        pi, pg = np.concatenate(parts_i), np.concatenate(parts_g)
        order = np.lexsort((pg, pi))
        sd = (
            np.concatenate(parts_d)[order] if store_distances
            else np.empty(0, dtype=np.float32)
        )
        if traced:
            _merge_span(len(parts_i), t0)
        return JoinResult(
            n_left=q.shape[0],
            n_right=int(gen.next_id),
            eps=float(eps),
            pairs_i=pi[order],
            pairs_j=pg[order],
            sq_dists=sd,
        )

    def knn_query(self, queries, k: int):
        """k nearest live rows per query; indices are global ids.

        The base and each large segment answer an exact
        top-``min(n, k + dead)`` (the padding guarantees ``k`` live
        survivors) whose survivors' squared distances are recomputed in
        the working precision.  The delta block's distance block is built
        in column chunks with its dead columns at ``+inf``, and each
        chunk keeps its top-k by ``(distance, global id)``.  The parts'
        candidates are then merged by distance, ties going to the part
        with the lower ids (an engine part's ids are one run, or all
        below the delta's) and within an engine part to its own order --
        the rebuilt engine's ``(distance, index)`` tie-break, since
        global ids order rows as the rebuilt dataset does.  Padding
        follows the engine
        convention: ``-1`` / ``+inf`` when fewer than ``k`` live rows
        exist.
        """
        q = _as_rows(queries, self.dim)
        k = int(k)
        if k <= 0:
            raise ValueError("k must be positive")
        gen = self._generation()
        nq = q.shape[0]
        out_idx = np.full((nq, k), -1, dtype=np.int64)
        out_d = np.full((nq, k), np.inf, dtype=np.float32)
        if nq == 0 or gen.n_live == 0:
            return _knn_result_cls()(
                k=k, n_points=gen.n_live, indices=out_idx, sq_dists=out_d
            )
        kk = min(k, gen.n_live)
        wq, sq = _prepare(self.dtype, q)
        rows = np.arange(nq)[:, None]
        traced = trace_mod.current_span() is not None
        parts_d, parts_g, parts_key = [], [], []
        for layer, part in self._layers(gen):
            t0 = time.perf_counter() if traced else 0.0
            engine = part.engine
            res = engine.knn_query(q, min(part.gids.size, kk + part.dead))
            idx = res.indices
            valid = idx >= 0
            safe = np.clip(idx, 0, None)
            gid = np.where(valid, part.gids[safe], -1)
            alive = valid & ~np.isin(gid, gen.tomb) if part.dead else valid
            d = np.full(idx.shape, np.inf)
            if alive.any():
                uniq = np.unique(idx[alive])
                wc, sc = _prepare(
                    self.dtype, engine.source.take(engine.rows_of(uniq))
                )
                d2 = norm_expansion_sq_dists(sq, sc, wq @ wc.T).astype(
                    np.float64, copy=False
                )
                # Dead/padded slots may map past the end of ``uniq``;
                # clamp before gathering -- ``where`` discards them.
                pos = np.minimum(np.searchsorted(uniq, safe), uniq.size - 1)
                d = np.where(alive, d2[rows, pos], np.inf)
            parts_d.append(d)
            parts_g.append(gid)
            # Below every id of another part, above none: ties break on
            # the part's first id, then the engine's own order.
            parts_key.append((
                np.full(idx.shape, part.gids[0]),
                np.broadcast_to(np.arange(idx.shape[1]), idx.shape),
            ))
            if traced:
                _layer_span(layer, part.gids.size, t0)
        block = gen.block
        if block.n:
            t0 = time.perf_counter() if traced else 0.0
            kb = min(kk, block.n)
            chunk = max(kb, _block_chunk(nq))
            for c0 in range(0, block.n, chunk):
                gram = wq @ block.rows[c0 : c0 + chunk].T
                d2 = norm_expansion_sq_dists(
                    sq, block.norms[c0 : c0 + chunk], gram
                ).astype(np.float64, copy=False)
                if gen.block_dead is not None:
                    d2[:, gen.block_dead[c0 : c0 + chunk]] = np.inf
                g2 = np.broadcast_to(block.gids[c0 : c0 + chunk], d2.shape)
                if c0:
                    d2 = np.concatenate([best_d, d2], axis=1)
                    g2 = np.concatenate([best_g, g2], axis=1)
                pos = _least(d2, (g2,), kb)
                best_d, best_g = d2[rows, pos], g2[rows, pos]
            parts_d.append(best_d)
            parts_g.append(best_g)
            parts_key.append((best_g, np.zeros_like(best_g)))
            if traced:
                _layer_span(1, block.n, t0)
        t0 = time.perf_counter() if traced else 0.0
        cat_d = np.concatenate(parts_d, axis=1)
        pos = _least(cat_d, tuple(
            np.concatenate([key[i] for key in parts_key], axis=1)
            for i in (0, 1)
        ), kk)
        best_d = cat_d[rows, pos]
        best_g = np.concatenate(parts_g, axis=1)[rows, pos]
        finite = np.isfinite(best_d)
        out_idx[:, :kk] = np.where(finite, best_g, -1)
        out_d[:, :kk] = np.where(finite, best_d, np.inf).astype(np.float32)
        if traced:
            _merge_span(len(parts_d), t0)
        return _knn_result_cls()(
            k=k, n_points=gen.n_live, indices=out_idx, sq_dists=out_d
        )

    # -- info -----------------------------------------------------------

    def stats(self) -> dict:
        """Store-shape summary (the CLI ``index info`` view)."""
        with self._lock:
            return {
                "eps": self.eps,
                "dim": self.dim,
                "n_live": self._n_rows_locked() - len(self._tombstones),
                "n_rows": self._n_rows_locked(),
                "n_tombstones": len(self._tombstones),
                "n_segments": len(self._segments),
                "buffered_rows": self._buffer_n,
                "next_id": int(self.next_id),
                "base": self._base_dir,
                "seal_threshold": self.seal_threshold,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        s = self.stats()
        return (
            f"MutableIndex({str(self.path)!r}, "
            f"live={s['n_live']}, segments={s['n_segments']}, "
            f"tombstones={s['n_tombstones']})"
        )


__all__ = [
    "MANIFEST_NAME",
    "MUTABLE_MAGIC",
    "MUTABLE_VERSION",
    "DEFAULT_SEAL_THRESHOLD",
    "BLOCK_SEGMENT_ROWS",
    "CompactionInProgress",
    "MutableIndex",
    "is_mutable_index",
    "read_manifest",
]
