"""LSM-style mutable indexes: delta segments + tombstones over a base.

The persisted indexes of :mod:`repro.index.persist` are read-only: any
new point means a full out-of-core rebuild.  :class:`MutableIndex` turns
one persisted index directory into a **live store** with the classic
log-structured layering:

* **Appends** land in a small in-memory buffer (a resident
  :class:`~repro.index.grid.GridIndex` is built over it lazily when a
  query arrives).  Past ``seal_threshold`` rows the buffer is *sealed*:
  saved as an immutable on-disk **delta segment** -- an ordinary
  :func:`~repro.index.persist.save_index` directory with its rows
  embedded, so sealing inherits the v2 atomic-staging crash safety
  (stage + fsync + one ``rename``) and its fault points unchanged.
* **Deletes** write **tombstones**: global row ids masked out of every
  query answer.  Rows are never rewritten in place; a tombstoned row
  physically persists in its base/segment until a compaction folds it
  out.  Tombstones are durable -- every ``delete`` commits the manifest.
* **Compaction** streams the live rows (base + sealed segments, minus
  tombstones, in ascending global-id order) through the existing
  ``GridIndex.from_source`` / ``MultiSpaceTree.from_source`` out-of-core
  builds into a **new versioned base snapshot** (``base-<token>/``),
  then commits.  Appends/deletes that race a compaction are preserved:
  segments sealed after the snapshot stay layered on the new base, and
  only the tombstones the snapshot already folded out are pruned.

**Commit point.**  The store is a directory holding ``state.json`` (the
manifest: base directory name, base-row global ids, tombstone payload,
segment list, ``next_id``) next to the base and segment index
directories.  Every state change is committed by staging the side
payloads (``ids-<token>.npy``, ``tomb-<token>.npy``, fsynced and
SHA-256-checksummed like index payloads), writing the new manifest to a
temp sibling, and swinging it in with one atomic ``os.replace`` -- the
exact v2 header-replacement discipline, sharing the ``persist.write`` /
``persist.payload`` fault points.  A ``SIGKILL`` at any instant
therefore leaves the previous *or* the new manifest in place, each
referencing only fully-committed payloads: the store always reloads as
old-or-new, never a half-compacted generation (tests/test_faults.py
kills saves mid-seal and mid-compaction to pin this).  Unsealed buffer
rows are the deliberate exception -- like any memtable without a WAL
they are volatile until sealed; a crash simply loses them, and reopen
prunes any tombstones left dangling at the vanished ids.

**Bit-identity.**  Queries merge the layers and must be bit-identical to
an index *rebuilt from scratch* over the equivalent live dataset
(tests/test_mutable.py drives randomized op sequences against exactly
that rebuild).  The argument:

* Global ids are minted monotonically and each layer covers an
  ascending id block (base ids < every later segment's < the buffer's;
  a compacted base inherits the sorted live ids), so "position in the
  rebuilt dataset" and "global id" order rows identically.
* Range: each layer is itself a full index at the same eps, so the
  per-layer ``range_query`` is bit-identical to brute force over that
  layer's rows (the engine's FP64 contract); squared distances are
  row-local (norm expansion over per-element-stable GEMM products), so
  masking tombstones and concatenating layers yields exactly the
  rebuilt pair set, and the canonical ``(query, global id)`` lexsort
  makes the ordering equal too.
* kNN: each layer answers an *exact* top-``k + dead(layer)`` (padding by
  the layer's tombstone count guarantees ``k`` live survivors), the
  survivors' distances are recomputed in the working precision (bitwise
  what the rebuilt engine computes, by row-locality), and a stable merge
  over the ascending-id layout reproduces the rebuilt engine's strict
  ``(distance, index)`` tie-break.

**Concurrency.**  One writer process; within it, mutations serialize on
an internal lock, queries capture an immutable generation snapshot (the
layer list + tombstone array) and run lock-free on it, and a compaction
swaps the base atomically under the lock -- in-flight queries finish on
the old generation (their mmaps stay valid; POSIX keeps unlinked
payload inodes readable) while new queries see the new one.  The
serving layer (:class:`repro.service.server.IndexCache`) keys cached
mutable engines on the manifest digest for the same old-or-new swap
across processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults
from repro import trace as trace_mod
from repro.core.results import JoinResult
from repro.data.source import DatasetSource, as_source
from repro.index.grid import GridIndex
from repro.index.mstree import MultiSpaceTree
from repro.index.persist import (
    CorruptIndexError,
    _fsync_dir,
    _fsync_file,
    _sha256_file,
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


class CompactionInProgress(RuntimeError):
    """A non-waiting ``compact`` found another compaction running."""


def is_mutable_index(path) -> bool:
    """True when ``path`` holds a mutable store (a ``state.json`` manifest)."""
    return (Path(path) / MANIFEST_NAME).is_file()


def read_manifest(path) -> dict:
    """Read and validate a mutable store's manifest.

    Mirrors :func:`repro.index.persist.read_header`: anything that is
    not a compatible manifest raises :class:`ValueError`; unreadable
    garbage raises :class:`~repro.index.persist.CorruptIndexError`.
    """
    path = Path(path)
    mpath = path / MANIFEST_NAME
    if not mpath.is_file():
        raise ValueError(f"{path} is not a mutable index (no {MANIFEST_NAME})")
    try:
        manifest = json.loads(mpath.read_text())
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
    if manifest.get("kind") not in ("grid", "mstree"):
        raise ValueError(
            f"{path}: unknown index kind {manifest.get('kind')!r}"
        )
    for field in ("eps", "dim", "next_id", "base", "segments"):
        if field not in manifest:
            raise CorruptIndexError(f"{path}: manifest lost {field!r}")
    return manifest


def _digest_of(mpath: Path) -> str:
    return hashlib.blake2b(mpath.read_bytes(), digest_size=16).hexdigest()


def _verify_side_payload(path: Path, entry: dict, *, level: str) -> None:
    """Size/hash-check one manifest side payload (ids/tombstones)."""
    if level == "off":
        return
    fpath = path / entry["file"]
    if not fpath.is_file():
        raise CorruptIndexError(f"{path}: missing payload {entry['file']}")
    if fpath.stat().st_size != entry["nbytes"]:
        raise CorruptIndexError(
            f"{path}: payload {entry['file']} is {fpath.stat().st_size} "
            f"bytes, manifest recorded {entry['nbytes']}"
        )
    if level == "full" and _sha256_file(fpath) != entry["sha256"]:
        raise CorruptIndexError(
            f"{path}: payload {entry['file']} failed its SHA-256 check"
        )


def _stage_side_payload(path: Path, fname: str, arr: np.ndarray) -> dict:
    """Write one manifest side payload, fsynced + checksummed.

    Same contract as the index payload staging: the ``persist.payload``
    corrupt fault fires after the checksum is recorded, so verification
    is exactly what must catch it.
    """
    fpath = path / fname
    np.save(fpath, np.ascontiguousarray(arr))
    _fsync_file(fpath)
    entry = {
        "file": fname,
        "sha256": _sha256_file(fpath),
        "nbytes": fpath.stat().st_size,
    }
    if faults.ARMED:
        if faults.check("persist.payload") == "corrupt":
            faults.corrupt_file(fpath)
    return entry


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

    ``parts`` is a list of ``(source, local_indices)``: each layer's
    dataset plus the sorted local rows that survive the tombstone mask.
    This is what a compaction streams through ``from_source`` and
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


@dataclass
class _Layer:
    """One immutable query layer: an engine plus its global-id mapping."""

    engine: object  # QueryEngine (imported lazily -- see _engine_cls)
    gids: np.ndarray  # (n,) int64, ascending
    dir_name: str | None  # store-relative directory; None for the buffer


@dataclass
class _Generation:
    """Immutable snapshot a query runs against (captured under the lock)."""

    layers: tuple
    tomb: np.ndarray  # sorted int64 global ids
    n_rows: int
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


def _layer_span(depth: int, layer: _Layer, t0: float) -> None:
    """One ``delta.layer`` span: a layer's engine pass plus its id map
    (``layer`` 0 is the base, then segments oldest first, then the buffer)."""
    trace_mod.record_ambient_span(
        "delta.layer", time.perf_counter() - t0,
        attrs={"layer": depth, "rows": int(layer.gids.size)},
    )


def _merge_span(n_layers: int, t0: float) -> None:
    """The ``delta.merge`` span: the cross-layer merge of one query."""
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
    micro-batching, the HTTP front end, the load generator -- works on it
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
        manifest = read_manifest(path)
        self.path = path
        self.kind = manifest["kind"]
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
        self._gen: _Generation | None = None
        self._buffer_rows: list[np.ndarray] = []
        self._buffer_n = 0
        self._buffer_start = 0
        self._buffer_engine = None

        engine_cls = _engine_cls()
        self._base_dir = manifest["base"]
        loaded = load_index(path / self._base_dir, mmap=mmap, verify=verify)
        if loaded.kind != self.kind or float(loaded.eps) != self.eps:
            raise CorruptIndexError(
                f"{path}: base {self._base_dir} disagrees with the manifest "
                f"(kind/eps)"
            )
        self._base_engine = engine_cls(loaded, precision=precision)
        self._base_n = int(self._base_engine.n_points)
        entry = manifest.get("base_ids")
        if entry is None:
            self._base_gids = None  # identity: arange(base_n)
        else:
            _verify_side_payload(path, entry, level=verify)
            self._base_gids = np.load(path / entry["file"]).astype(
                np.int64, copy=False
            )
            if self._base_gids.size != self._base_n:
                raise CorruptIndexError(
                    f"{path}: base_ids covers {self._base_gids.size} rows, "
                    f"base holds {self._base_n}"
                )
        self._segments: list[dict] = []
        for seg in manifest["segments"]:
            seg_loaded = load_index(
                path / seg["dir"], mmap=mmap, verify=verify
            )
            self._segments.append(
                {
                    "dir": seg["dir"],
                    "start_id": int(seg["start_id"]),
                    "n": int(seg["n"]),
                    "engine": engine_cls(seg_loaded, precision=precision),
                }
            )
        self.next_id = int(manifest["next_id"])
        self._buffer_start = self.next_id
        entry = manifest.get("tombstones")
        if entry is None:
            self._tombstones: set[int] = set()
        else:
            _verify_side_payload(path, entry, level=verify)
            tomb = np.load(path / entry["file"]).astype(np.int64, copy=False)
            # Tombstones at ids that no longer exist (buffer rows lost to
            # a crash before their seal) are dangling; prune them.
            exists = self._exists_mask_locked(tomb)
            self._tombstones = set(int(t) for t in tomb[exists])
        self.committed_state_digest = _digest_of(path / MANIFEST_NAME)
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
        kind: str = "grid",
        n_dims: int = 6,
        n_levels: int = 6,
        n_candidates: int = 38,
        seed: int = 0,
        seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
        mmap: bool = True,
        precision: str = "fp64",
        verify: str = "header",
    ) -> "MutableIndex":
        """Create a mutable store over ``data`` at ``path`` and open it.

        The initial base index is built like :func:`repro.core.api.build_index`
        (in-memory for resident arrays, out-of-core otherwise) with the
        dataset embedded; row ``i`` of ``data`` gets global id ``i``.
        The whole store is staged in a ``<name>.saving-<token>`` sibling
        and published by one atomic ``rename`` -- a crash mid-create
        leaves no partial store behind.
        """
        if kind not in ("grid", "mstree"):
            raise ValueError("kind must be 'grid' or 'mstree'")
        path = Path(path)
        if path.exists():
            raise ValueError(f"{path} already exists")
        source = as_source(data)
        if source.n < 1:
            raise ValueError("a mutable index needs at least one initial row")
        resident = isinstance(data, np.ndarray)
        if kind == "grid":
            index = (
                GridIndex(data, eps, n_dims=n_dims)
                if resident
                else GridIndex.from_source(source, eps, n_dims=n_dims)
            )
        else:
            index = (
                MultiSpaceTree(
                    data, eps, n_levels=n_levels,
                    n_candidates=n_candidates, seed=seed,
                )
                if resident
                else MultiSpaceTree.from_source(
                    source, eps, n_levels=n_levels,
                    n_candidates=n_candidates, seed=seed,
                )
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        token = secrets.token_hex(4)
        tmp = path.parent / f"{path.name}.saving-{token}"
        tmp.mkdir()
        try:
            base_dir = f"base-{secrets.token_hex(4)}"
            save_index(index, tmp / base_dir, data=source)
            (tmp / "segments").mkdir()
            manifest = {
                "magic": MUTABLE_MAGIC,
                "version": MUTABLE_VERSION,
                "kind": kind,
                "eps": float(eps),
                "dim": int(source.dim),
                "next_id": int(source.n),
                "base": base_dir,
                "base_ids": None,
                "tombstones": None,
                "segments": [],
                "params": {
                    "n_dims": int(n_dims),
                    "n_levels": int(n_levels),
                    "n_candidates": int(n_candidates),
                    "seed": int(seed),
                },
                "seal_threshold": int(seal_threshold),
            }
            mpath = tmp / MANIFEST_NAME
            mpath.write_text(json.dumps(manifest, indent=2) + "\n")
            _fsync_file(mpath)
            _fsync_dir(tmp)
            os.rename(tmp, path)
            _fsync_dir(path.parent)
        except BaseException:
            import shutil

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
        """The base layer's dataset source (samplers draw from it)."""
        return self._base_engine.source

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
        """Delta layers above the base: sealed segments + live buffer."""
        with self._lock:
            return len(self._segments) + (1 if self._buffer_n else 0)

    @property
    def n_tombstones(self) -> int:
        with self._lock:
            return len(self._tombstones)

    @property
    def n_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    def _n_rows_locked(self) -> int:
        return (
            self._base_n
            + sum(s["n"] for s in self._segments)
            + self._buffer_n
        )

    def live_ids(self) -> np.ndarray:
        """Sorted global ids of every live row."""
        gen = self._generation()
        if not gen.layers:
            return np.empty(0, dtype=np.int64)
        gids = np.concatenate([layer.gids for layer in gen.layers])
        if gen.tomb.size:
            gids = gids[~np.isin(gids, gen.tomb)]
        return gids

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
        for seg in self._segments:
            mask |= (ids >= seg["start_id"]) & (ids < seg["start_id"] + seg["n"])
        if self._buffer_n:
            mask |= (ids >= self._buffer_start) & (
                ids < self._buffer_start + self._buffer_n
            )
        return mask

    # -- manifest commit ------------------------------------------------

    def manifest_is_current(self) -> bool:
        """Whether ``state.json`` on disk is the manifest this handle committed.

        False means another handle rewrote the store.  Compared under the
        writer lock: a commit swaps the file in before it records the new
        digest, so an unlocked compare in that window would call this
        handle -- and the unsealed rows only it holds -- stale.
        """
        with self._lock:
            return (
                _digest_of(self.path / MANIFEST_NAME)
                == self.committed_state_digest
            )

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
            base_ids_entry = _stage_side_payload(
                self.path, f"ids-{token}.npy", self._base_gids
            )
        tomb_entry = None
        if self._tombstones:
            tomb = np.fromiter(
                sorted(self._tombstones), dtype=np.int64,
                count=len(self._tombstones),
            )
            tomb_entry = _stage_side_payload(
                self.path, f"tomb-{token}.npy", tomb
            )
        manifest = {
            "magic": MUTABLE_MAGIC,
            "version": MUTABLE_VERSION,
            "kind": self.kind,
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
        body = json.dumps(manifest, indent=2) + "\n"
        tmp = self.path / f"{MANIFEST_NAME}.saving-{token}"
        tmp.write_text(body)
        _fsync_file(tmp)
        if faults.ARMED:
            faults.check("persist.write")
        os.replace(tmp, self.path / MANIFEST_NAME)
        _fsync_dir(self.path)
        self._manifest = manifest
        self.committed_state_digest = hashlib.blake2b(
            body.encode(), digest_size=16
        ).hexdigest()
        self._gc_locked()

    def _gc_locked(self) -> None:
        """Drop files/dirs the committed manifest does not reference.

        Superseded bases, folded segments, stale side payloads, and
        interrupted staging leftovers all become garbage the moment a
        new manifest commits (live mmaps keep reading the unlinked
        inodes).  Directories an in-flight compaction is staging are
        protected by name.
        """
        import shutil

        manifest = self._manifest
        keep_files = {MANIFEST_NAME}
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

        Rows land in the in-memory buffer -- **volatile until sealed**
        (see the module docstring).  Crossing ``seal_threshold`` buffered
        rows triggers an automatic :meth:`seal`.
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
            self._buffer_rows.append(rows.copy())
            self._buffer_n += rows.shape[0]
            self._buffer_engine = None
            self._gen = None
            if self._buffer_n >= self.seal_threshold:
                self._seal_locked()
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
        """
        with self._lock:
            return self._seal_locked()

    def _seal_locked(self) -> "str | None":
        if self._buffer_n == 0:
            return None
        data = (
            self._buffer_rows[0]
            if len(self._buffer_rows) == 1
            else np.concatenate(self._buffer_rows)
        )
        index = GridIndex(
            data, self.eps, n_dims=int(self._params.get("n_dims", 6))
        )
        rel = f"segments/seg-{secrets.token_hex(4)}"
        (self.path / "segments").mkdir(exist_ok=True)
        save_index(index, self.path / rel, data=data)
        engine = _engine_cls()(index, data, precision=self.precision)
        self._segments.append(
            {
                "dir": rel,
                "start_id": int(self._buffer_start),
                "n": int(self._buffer_n),
                "engine": engine,
            }
        )
        self._buffer_rows = []
        self._buffer_n = 0
        self._buffer_engine = None
        self._buffer_start = self.next_id
        self._gen = None
        self._commit_manifest_locked()
        return rel

    def compact(self, *, wait: bool = True) -> dict:
        """Fold base + sealed segments into a fresh base snapshot.

        Seals the buffer first, snapshots the layer list and tombstone
        set, streams the surviving rows through the out-of-core builder
        into a new versioned ``base-<token>/`` directory, and commits a
        manifest that references it -- pruning exactly the tombstones the
        snapshot folded out.  Appends and deletes that land *during* the
        build are preserved: segments sealed after the snapshot stay
        layered on the new base, and their tombstones stay masked.  The
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
                new_base_dir = f"base-{secrets.token_hex(4)}"
                self._protected.add(new_base_dir)
            try:
                parts = []
                live_gid_parts = []
                layers = [(base_engine, base_gids)] + [
                    (s["engine"], np.arange(
                        s["start_id"], s["start_id"] + s["n"], dtype=np.int64
                    ))
                    for s in snap_segments
                ]
                for engine, gids in layers:
                    alive = (
                        ~np.isin(gids, snap_tomb)
                        if snap_tomb.size
                        else np.ones(gids.size, dtype=bool)
                    )
                    local = np.nonzero(alive)[0]
                    if local.size:
                        parts.append((engine.source, local))
                        live_gid_parts.append(gids[local])
                live_src = _LiveRowsSource(parts)
                live_gids = np.concatenate(live_gid_parts)
                if self.kind == "grid":
                    new_index = GridIndex.from_source(
                        live_src, self.eps,
                        n_dims=int(self._params.get("n_dims", 6)),
                    )
                else:
                    new_index = MultiSpaceTree.from_source(
                        live_src, self.eps,
                        n_levels=int(self._params.get("n_levels", 6)),
                        n_candidates=int(self._params.get("n_candidates", 38)),
                        seed=int(self._params.get("seed", 0)),
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
            self._compact_lock.release()
        return {
            "duration_s": time.perf_counter() - t0,
            "n_live": int(live_gids.size),
            "segments_folded": len(snap_segments),
        }

    # -- query snapshot -------------------------------------------------

    def _generation(self) -> _Generation:
        with self._lock:
            if self._gen is not None:
                return self._gen
            layers = []
            if self._base_n:
                layers.append(
                    _Layer(
                        engine=self._base_engine,
                        gids=self._base_gids_locked(),
                        dir_name=self._base_dir,
                    )
                )
            for seg in self._segments:
                layers.append(
                    _Layer(
                        engine=seg["engine"],
                        gids=np.arange(
                            seg["start_id"], seg["start_id"] + seg["n"],
                            dtype=np.int64,
                        ),
                        dir_name=seg["dir"],
                    )
                )
            if self._buffer_n:
                if self._buffer_engine is None:
                    data = (
                        self._buffer_rows[0]
                        if len(self._buffer_rows) == 1
                        else np.concatenate(self._buffer_rows)
                    )
                    index = GridIndex(
                        data, self.eps,
                        n_dims=int(self._params.get("n_dims", 6)),
                    )
                    self._buffer_engine = _engine_cls()(
                        index, data, precision=self.precision
                    )
                layers.append(
                    _Layer(
                        engine=self._buffer_engine,
                        gids=np.arange(
                            self._buffer_start,
                            self._buffer_start + self._buffer_n,
                            dtype=np.int64,
                        ),
                        dir_name=None,
                    )
                )
            tomb = np.fromiter(
                sorted(self._tombstones), dtype=np.int64,
                count=len(self._tombstones),
            )
            n_rows = self._n_rows_locked()
            self._gen = _Generation(
                layers=tuple(layers),
                tomb=tomb,
                n_rows=n_rows,
                n_live=n_rows - tomb.size,
                next_id=int(self.next_id),
            )
            return self._gen

    # -- queries --------------------------------------------------------

    def range_query(
        self,
        queries,
        eps: float | None = None,
        *,
        batched: bool = False,
        store_distances: bool = True,
    ) -> JoinResult:
        """eps-neighbors over the live rows; ``pairs_j`` are global ids.

        Each layer answers through its own engine (the per-layer FP64
        answers are bit-identical to brute force over that layer's rows),
        tombstoned ids are masked, and the union is canonicalized by an
        ascending ``(query, global id)`` lexsort -- making the result
        bit-identical, pairs and distances, to an engine rebuilt over the
        live dataset with rows renumbered through the live-id order.
        ``n_right`` reports the id-space bound (``next_id``), not the
        live count: global ids are sparse after deletions.
        """
        q = _as_rows(queries, self.dim)
        eps = self.eps if eps is None else float(eps)
        gen = self._generation()
        traced = trace_mod.current_span() is not None
        parts_i, parts_g, parts_d = [], [], []
        for depth, layer in enumerate(gen.layers):
            t0 = time.perf_counter() if traced else 0.0
            res = layer.engine.range_query(
                q, eps, batched=batched, store_distances=store_distances,
            )
            gid = layer.gids[res.pairs_j]
            if gen.tomb.size and gid.size:
                alive = ~np.isin(gid, gen.tomb)
                parts_i.append(res.pairs_i[alive])
                parts_g.append(gid[alive])
                if store_distances:
                    parts_d.append(res.sq_dists[alive])
            else:
                parts_i.append(res.pairs_i)
                parts_g.append(gid)
                if store_distances:
                    parts_d.append(res.sq_dists)
            if traced:
                _layer_span(depth, layer, t0)
        t0 = time.perf_counter() if traced else 0.0
        pi = (
            np.concatenate(parts_i)
            if parts_i
            else np.empty(0, dtype=np.int64)
        )
        pg = (
            np.concatenate(parts_g)
            if parts_g
            else np.empty(0, dtype=np.int64)
        )
        order = np.lexsort((pg, pi))
        sd = np.empty(0, dtype=np.float32)
        if store_distances and parts_d:
            sd = np.concatenate(parts_d)[order]
        if traced:
            _merge_span(len(gen.layers), t0)
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

        Per layer, an exact top-``min(n_layer, k + dead(layer))`` is
        fetched (the padding guarantees ``k`` live survivors), survivors'
        squared distances are recomputed in the working precision --
        row-local, hence bitwise what a rebuilt engine computes -- and a
        stable merge over the ascending-global-id layer layout selects
        the final top-k with the engine's exact ``(distance, index)``
        tie-break.  Padding follows the engine convention: ``-1`` /
        ``+inf`` when fewer than ``k`` live rows exist.
        """
        from repro.core.engine import norm_expansion_sq_dists

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
        wq = q.astype(self.dtype)
        sq = (wq * wq).sum(axis=1)
        rows = np.arange(nq)[:, None]
        traced = trace_mod.current_span() is not None
        parts_d, parts_g = [], []
        for depth, layer in enumerate(gen.layers):
            t0 = time.perf_counter() if traced else 0.0
            n_layer = layer.gids.size
            dead = (
                int(np.isin(layer.gids, gen.tomb).sum())
                if gen.tomb.size
                else 0
            )
            k_layer = min(n_layer, kk + dead)
            res = layer.engine.knn_query(q, k_layer)
            idx = res.indices
            valid = idx >= 0
            safe = np.clip(idx, 0, None)
            gid = np.where(valid, layer.gids[safe], -1)
            if gen.tomb.size:
                alive = valid & ~np.isin(gid, gen.tomb)
            else:
                alive = valid
            d_part = np.full(idx.shape, np.inf)
            if alive.any():
                uniq = np.unique(idx[alive])
                wc = layer.engine.source.take(uniq).astype(
                    self.dtype, copy=False
                )
                sc = (wc * wc).sum(axis=1)
                d2 = norm_expansion_sq_dists(sq, sc, wq @ wc.T).astype(
                    np.float64, copy=False
                )
                # Dead/padded slots may map past the end of ``uniq``;
                # clamp before gathering -- ``where`` discards them.
                pos = np.minimum(np.searchsorted(uniq, safe), uniq.size - 1)
                d_part = np.where(alive, d2[rows, pos], np.inf)
            parts_d.append(d_part)
            parts_g.append(np.where(alive, gid, -1))
            if traced:
                _layer_span(depth, layer, t0)
        t0 = time.perf_counter() if traced else 0.0
        cat_d = np.concatenate(parts_d, axis=1)
        cat_g = np.concatenate(parts_g, axis=1)
        # Stable sort on the ascending-id column layout: every distance
        # tie resolves to the lower global id, exactly the rebuilt
        # engine's tie-break (its candidate order is its row order, which
        # maps monotonically to global ids).
        order = np.argsort(cat_d, axis=1, kind="stable")[:, :kk]
        best_d = cat_d[rows, order]
        best_g = cat_g[rows, order]
        finite = np.isfinite(best_d)
        out_idx[:, :kk] = np.where(finite, best_g, -1)
        out_d[:, :kk] = np.where(finite, best_d, np.inf).astype(np.float32)
        if traced:
            _merge_span(len(gen.layers), t0)
        return _knn_result_cls()(
            k=k, n_points=gen.n_live, indices=out_idx, sq_dists=out_d
        )

    def iter_join_groups(self, queries, *, reach: int = 1):
        """Candidate groups over the live rows, candidates as global ids.

        Chains each layer's group stream with ids mapped and tombstones
        masked -- the same soundness contract the per-layer indexes
        carry: every live row within ``reach * eps`` of a member query
        appears among that query's candidates (tests/test_mutable.py
        checks coverage against the brute pair set).
        """
        q = _as_rows(queries, self.dim)
        gen = self._generation()
        for layer in gen.layers:
            for members, cand in layer.engine._iter_groups(q, reach=reach):
                gid = layer.gids[np.asarray(cand, dtype=np.int64)]
                if gen.tomb.size and gid.size:
                    gid = gid[~np.isin(gid, gen.tomb)]
                yield members, gid

    # -- info -----------------------------------------------------------

    def stats(self) -> dict:
        """Store-shape summary (the CLI ``index info`` view)."""
        with self._lock:
            return {
                "kind": self.kind,
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
            f"MutableIndex({str(self.path)!r}, kind={s['kind']!r}, "
            f"live={s['n_live']}, segments={s['n_segments']}, "
            f"tombstones={s['n_tombstones']})"
        )


__all__ = [
    "MANIFEST_NAME",
    "MUTABLE_MAGIC",
    "MUTABLE_VERSION",
    "DEFAULT_SEAL_THRESHOLD",
    "CompactionInProgress",
    "MutableIndex",
    "is_mutable_index",
    "read_manifest",
]
