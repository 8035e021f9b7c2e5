"""Versioned, crash-safe on-disk persistence for the epsilon-grid index.

The batch engine rebuilds its :class:`~repro.index.grid.GridIndex` from
the dataset on every invocation -- fine for one join, hopeless for a
serving workload where the same index answers thousands of queries.
This module gives the grid a build-once / query-many lifecycle (the
serving layer is grid-only: MiSTIC's multi-space tree is rebuilt by its
baseline kernel and never persisted):

* :func:`save_index` writes an index as a **directory**: one JSON header
  (``header.json`` -- magic, format version, index kind ``"grid"``,
  scalars, and a per-payload SHA-256 checksum + byte size) plus one
  ``.npy`` payload per index array and the embedded dataset
  (``data-*.npy``) -- answering distance queries needs the points
  themselves, not just the grouping, so every index carries its rows.

* **Format v3: cell-ordered rows** -- the one layout written and read.
  The dataset is written in the grid's cell order (GDS-Join's
  sorted-by-cell layout), streamed block by block through
  ``source.take`` of the grid's sort permutation, never materialized.
  Beside it go an ``ids`` payload -- the original row id of every
  stored row, i.e. that permutation -- and a ``norms`` payload, the
  FP64 squared norm ``(w * w).sum(axis=1)`` of every stored row.  The
  saved grid then needs no permutation: its member order is the
  identity, each cell is the stored row range ``[start, end)``, and a
  query's candidate set is one or a few contiguous slices of rows and
  norms.  Older layouts (v2, and indexes saved without their rows or
  referencing them by path) are refused: rebuild them.

* **Crash safety**: a save stages everything in a temp sibling directory
  (``<name>.saving-<token>``), fsyncs files and directories, and commits
  atomically -- a single ``rename`` of the whole directory for a fresh
  save, or (when replacing a live index) per-payload renames that the old
  header cannot see followed by one atomic ``os.replace`` of
  ``header.json``, which *is* the commit point.  A ``SIGKILL`` at any
  instant therefore leaves either the old or the new index fully
  loadable, never a partial.  Payload files are generation-tagged
  (``<name>-<token>.npy``) so a replacement writes fresh inodes: live
  memory maps of the previous generation keep reading valid bytes.
  Orphans of interrupted or superseded saves (stale ``.saving-*``
  siblings, unreferenced ``*.npy``) are detected and garbage-collected by
  the next save.  The mutable store (:mod:`repro.index.delta`) stages
  and verifies its manifest side payloads through the same
  :func:`_stage_payload` / :func:`_verify_payload`.

* :func:`load_index` **verifies before it touches payloads**:
  ``verify="header"`` (the default) checks that every payload exists with
  exactly the byte size the header recorded; ``verify="full"`` re-hashes
  every payload against its SHA-256; ``verify="off"`` skips both.
  Verification failures raise :class:`CorruptIndexError` (a
  :class:`ValueError`) before any query can run over bad bytes.
  ``mmap=True`` (the default) memory-maps the payloads; ``mmap=False``
  loads everything resident -- bit-identical results either way
  (tests/test_service.py pins mmap vs in-RAM and loaded vs freshly
  built; tests/test_faults.py drives the corruption and kill paths).

* **Versioning**: the header's ``magic`` / ``version`` / ``kind`` are
  checked before anything else; other versions, other index kinds (a
  multi-space tree header included) and non-index directories are
  rejected with :class:`ValueError` rather than misinterpreted, and a
  header missing a scalar or a payload entry raises
  :class:`CorruptIndexError`.

Bit-identity argument: the saved arrays *are* the index state (cell
extents, cell coordinates, and the stable sort permutation as ``ids``
beside the cell-ordered rows).  Loading installs them verbatim, so a
query's candidates are the freshly built index's, in the same order:
candidate ``p`` is stored row ``p`` and
``ids[p]`` is the fresh index's candidate at that position, holding the
same float64 values.  Every distance is therefore computed from the same
operands in the same order, and the stored norms are the same row-local
expression the engine would evaluate over the gathered rows, so answers
mapped through ``ids`` are bitwise the fresh index's.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults
from repro.data.source import (
    ArraySource,
    DatasetSource,
    MmapNpySource,
    as_source,
)
from repro.index.grid import GridIndex

#: Directory-format identification; bump ``FORMAT_VERSION`` on layout
#: changes (readers reject versions they do not understand).  Version 2
#: added per-payload SHA-256 checksums / byte sizes and generation-tagged
#: payload file names; version 3 stores embedded rows in cell order with
#: ``ids`` and ``norms`` payloads.
MAGIC = "repro-index"
FORMAT_VERSION = 3

#: Versions :func:`read_header` accepts: only the one the writer writes.
READABLE_VERSIONS = (FORMAT_VERSION,)

#: Header scalars and payload entries every index carries.
SCALARS = ("eps", "n_points", "n_dims_data", "r")
PAYLOADS = ("order", "starts", "ends", "unique", "ids", "norms")

#: Header file name inside an index directory.
HEADER_NAME = "header.json"

#: Base name for an embedded dataset payload (tagged per save:
#: ``data-<token>.npy``).
DATA_STEM = "data"

#: Suffix marking an in-flight save's staging directory, sibling to the
#: target: ``<name>.saving-<token>``.
SAVING_SUFFIX = ".saving-"

#: Accepted ``verify=`` levels for :func:`load_index`.
VERIFY_LEVELS = ("off", "header", "full")


class CorruptIndexError(ValueError):
    """A persisted index failed integrity verification.

    Raised by :func:`load_index` / :func:`verify_index` when a payload is
    missing, truncated, resized, or fails its SHA-256 -- and by
    :func:`read_header` when the header itself is unreadable garbage.
    Subclasses :class:`ValueError` so callers that guard broadly against
    invalid index directories keep working.
    """


@dataclass
class LoadedIndex:
    """A persisted index restored from disk, plus its dataset.

    ``index`` is a ready-to-query :class:`GridIndex`; ``source`` is its
    embedded dataset as a block/gather-addressable
    :class:`~repro.data.source.DatasetSource`, rows in *stored* (cell)
    order: ``ids[p]`` is the original id of stored row ``p`` and
    ``norms[p]`` its FP64 squared norm.
    """

    index: GridIndex
    eps: float
    path: Path
    source: DatasetSource
    header: dict
    ids: np.ndarray
    norms: np.ndarray


#: How far a header's or manifest's timestamps must lag the clock before
#: its ``stat`` signature alone identifies it.  A freed inode can be
#: reused by a later generation of the same size, and a generation
#: written within the same filesystem timestamp tick then matches the
#: earlier signature field for field; once the clock has moved this far
#: past a file's mtime and ctime, every later write gets newer ones.
#: One second covers local filesystems' timestamp granularity (a kernel
#: tick, or whole seconds on the coarsest); the rule assumes the file's
#: timestamps come from this host's clock.
RACY_NS = 1_000_000_000


def _digest(raw: bytes) -> bytes:
    return hashlib.blake2b(raw, digest_size=16).digest()


class FileGeneration:
    """One generation of a header or manifest, recognised by a ``stat``.

    The signature is ``(st_dev, st_ino, st_size, st_mtime_ns,
    st_ctime_ns)``.  Every writer of a header or manifest commits by
    renaming a freshly written file into place, so the generation that
    replaces a file always has another inode and a fresh ctime.  Only a
    *racily clean* signature -- the file's timestamps were within
    :data:`RACY_NS` of the clock when it was taken, so a later
    generation reusing the freed inode could repeat it -- is not trusted
    alone: it carries a digest of the file's bytes, and :meth:`matches`
    re-reads the file until the clock has moved past the ambiguity
    (git's rule for its index).

    ``raw`` is the file's content when the caller has it -- the bytes it
    just wrote, or read just before this ``stat``.  A replacement landing
    in between has a fresh ctime, so the generation is racy and the
    digest of ``raw`` tells it apart.  Without ``raw`` a racy file is
    read after the ``stat``.  Raises :class:`OSError` when the file is
    gone.
    """

    __slots__ = ("sig", "digest")

    def __init__(self, path: str | Path, raw: bytes | None = None) -> None:
        taken = time.time_ns()
        self.sig = _stat_signature(path)
        if taken - max(self.sig[3], self.sig[4]) >= RACY_NS:
            self.digest = None
        else:
            self.digest = _digest(raw if raw is not None else Path(path).read_bytes())

    def matches(self, path: str | Path) -> bool:
        """Whether ``path`` still holds this generation: one ``stat``,
        plus one read while the signature is racily clean.  A racy match
        whose timestamps have since settled drops its digest, so later
        checks are one ``stat`` again.  False when the file is gone."""
        try:
            taken = time.time_ns()
            sig = _stat_signature(path)
            if sig != self.sig:
                return False
            digest = self.digest
            if digest is None:
                return True
            if _digest(Path(path).read_bytes()) != digest:
                return False
        except OSError:
            return False
        if taken - max(sig[3], sig[4]) >= RACY_NS:
            self.digest = None
        return True


def _stat_signature(path: str | Path) -> tuple[int, int, int, int, int]:
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fsync(path: Path) -> None:
    """fsync a file or a directory (both open read-only on POSIX)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _seal_payload(fpath: Path) -> dict:
    """fsync one written payload and return its header/manifest record.

    The ``persist.payload`` fault point fires after the checksum is
    recorded, so an injected corruption is exactly what ``verify`` must
    catch: bytes that no longer match the header.
    """
    _fsync(fpath)
    entry = {
        "file": fpath.name,
        "sha256": _sha256_file(fpath),
        "nbytes": fpath.stat().st_size,
    }
    if faults.ARMED:
        if faults.check("persist.payload") == "corrupt":
            faults.corrupt_file(fpath)
    return entry


def _stage_payload(directory: Path, fname: str, arr: np.ndarray) -> dict:
    """Write one payload array, fsynced + checksummed (:func:`_seal_payload`).

    Index payloads and the mutable store's manifest side payloads (base
    ids, tombstones) are all staged here.
    """
    fpath = directory / fname
    np.save(fpath, np.ascontiguousarray(arr))
    return _seal_payload(fpath)


def _write_rows(
    source: DatasetSource, rows: np.ndarray, fpath: Path,
    *, row_block: int = 8192,
) -> np.ndarray:
    """Stream ``source`` rows ``rows`` (in that order) into one float64
    ``.npy``; returns their FP64 squared norms.

    Only ``row_block`` rows are ever resident.  Each block's norms are
    the engine's row-local ``(w * w).sum(axis=1)`` over the same float64
    rows, hence bitwise what a gather of those rows would compute.
    """
    from numpy.lib import format as npy_format

    n, dim = int(rows.size), int(source.dim)
    norms = np.empty(n, dtype=np.float64)
    with open(fpath, "wb") as fh:
        npy_format.write_array_header_1_0(
            fh, {"descr": npy_format.dtype_to_descr(np.dtype(np.float64)),
                 "fortran_order": False, "shape": (n, dim)},
        )
        for r0 in range(0, n, row_block):
            block = source.take(rows[r0 : r0 + row_block])
            norms[r0 : r0 + block.shape[0]] = (block * block).sum(axis=1)
            fh.write(block.data)
    return norms


def _gc_interrupted_saves(path: Path, *, keep: Path | None = None) -> None:
    """Remove stale ``<name>.saving-*`` staging dirs next to ``path``.

    A save that died before its commit leaves one behind; the target
    itself was never touched, so the leftovers are pure garbage.
    """
    parent = path.parent
    if not parent.is_dir():
        return
    for stale in parent.glob(path.name + SAVING_SUFFIX + "*"):
        if keep is not None and stale == keep:
            continue
        shutil.rmtree(stale, ignore_errors=True)


def _gc_unreferenced_payloads(path: Path, header: dict) -> None:
    """Drop every ``.npy`` in a live index dir the header does not name.

    Replacing an index leaves the previous generation's payloads behind
    (they kept live mmaps valid through the commit); with the new header
    committed they are unreachable and can go.
    """
    referenced = {entry["file"] for entry in header["arrays"].values()}
    referenced.add(header["data"])
    for stray in path.glob("*.npy"):
        if stray.name not in referenced:
            stray.unlink(missing_ok=True)


def save_index(
    index: GridIndex,
    path: str | Path,
    *,
    data,
) -> Path:
    """Persist a grid index and its dataset to a directory.

    The save is **atomic**: payloads and header are staged in a
    ``<name>.saving-<token>`` sibling directory, fsynced, and committed
    either by renaming the whole staging dir into place (fresh save) or
    by moving the generation-tagged payloads in and atomically replacing
    ``header.json`` (replacement of a live index).  Interrupted saves
    leave the target untouched and are garbage-collected here on the
    next save.

    Parameters
    ----------
    index:
        A built :class:`GridIndex`.
    path:
        Target directory (created; an existing index there is replaced).
    data:
        The dataset the index was built over, embedded as a
        ``data-<token>.npy`` payload -- an ndarray, a
        :class:`~repro.data.source.DatasetSource`, or a path coercible by
        :func:`~repro.data.source.as_source`.  Rows are written in the
        grid's cell order (with ``ids`` and ``norms`` payloads), streamed
        in row blocks, never materialized.
    """
    if not isinstance(index, GridIndex):
        raise TypeError(f"cannot persist index of type {type(index).__name__}")
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ValueError(f"{path} exists and is not a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    _gc_interrupted_saves(path)

    token = secrets.token_hex(4)
    tmp = path.parent / f"{path.name}{SAVING_SUFFIX}{token}"
    tmp.mkdir()

    def fname(name: str) -> str:
        return f"{name}-{token}.npy"

    try:
        header: dict = {
            "magic": MAGIC,
            "version": FORMAT_VERSION,
            "kind": "grid",
            "scalars": {
                "eps": float(index.eps),
                "n_points": int(index.n_points),
                "n_dims_data": int(index.n_dims_data),
                "r": int(index.r),
            },
        }
        # Cell order: stored row p is original row sort[p].
        sort = index.members_order()
        data_file = tmp / fname(DATA_STEM)
        norms = _write_rows(as_source(data), sort, data_file)
        entry = _seal_payload(data_file)
        header["data"] = entry["file"]
        header["data_embedded"] = True
        header["data_sha256"] = entry["sha256"]
        header["data_nbytes"] = entry["nbytes"]
        to_save = {
            "order": index.order,
            "starts": index._starts,
            "ends": index._ends,
            "unique": index._unique,
            "ids": sort,
            "norms": norms,
        }
        header["arrays"] = {
            name: _stage_payload(tmp, fname(name), arr)
            for name, arr in to_save.items()
        }

        header_tmp = tmp / HEADER_NAME
        header_tmp.write_text(json.dumps(header, indent=2) + "\n")
        _fsync(header_tmp)
        _fsync(tmp)

        # ---- commit point ------------------------------------------------
        if faults.ARMED:
            faults.check("persist.write")
        if not path.exists():
            # Fresh save: one atomic rename publishes the whole directory.
            os.rename(tmp, path)
            _fsync(path.parent)
        else:
            # Replacement: move the tagged payloads in (the live header
            # cannot reference them, so readers still see the old index
            # intact), then atomically swing header.json -- the commit.
            for staged in sorted(tmp.iterdir()):
                if staged.name == HEADER_NAME:
                    continue
                os.rename(staged, path / staged.name)
            _fsync(path)
            os.replace(header_tmp, path / HEADER_NAME)
            _fsync(path)
            tmp.rmdir()
            _gc_unreferenced_payloads(path, header)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


def read_header(path: str | Path) -> dict:
    """Read and validate an index directory's header.

    Raises :class:`ValueError` for anything that is not a compatible
    persisted index (missing header, wrong magic, any format version but
    :data:`FORMAT_VERSION`, any kind but ``"grid"``) and
    :class:`CorruptIndexError` -- a ValueError subclass -- when the
    header file itself is unreadable garbage or lacks one of the
    :data:`SCALARS`, the :data:`PAYLOADS` entries or the embedded
    dataset's entry.
    """
    path = Path(path)
    header_path = path / HEADER_NAME
    if not header_path.is_file():
        raise ValueError(f"{path} is not a persisted index (no {HEADER_NAME})")
    try:
        header = json.loads(header_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptIndexError(
            f"{header_path} is not valid JSON (truncated or garbled header)"
        ) from exc
    if not isinstance(header, dict):
        raise CorruptIndexError(f"{header_path} does not contain an object")
    if header.get("magic") != MAGIC:
        raise ValueError(
            f"{path}: bad magic {header.get('magic')!r} (expected {MAGIC!r})"
        )
    version = header.get("version")
    if version not in READABLE_VERSIONS:
        raise ValueError(
            f"{path}: unsupported index format version {version!r} "
            f"(this reader understands {READABLE_VERSIONS}; rebuild the "
            "index from its dataset)"
        )
    if header.get("kind") != "grid":
        raise ValueError(f"{path}: unknown index kind {header.get('kind')!r}")
    scalars, arrays = header.get("scalars"), header.get("arrays")
    if not isinstance(scalars, dict) or not isinstance(arrays, dict):
        raise CorruptIndexError(f"{path}: header lost its scalars or arrays map")
    if not header.get("data_embedded") or not isinstance(header.get("data"), str):
        raise CorruptIndexError(
            f"{path}: header names no embedded dataset (every index "
            "stores its rows; rebuild the index from its dataset)"
        )
    for name in SCALARS:
        if name not in scalars:
            raise CorruptIndexError(f"{path}: header lost scalar {name!r}")
    for name in PAYLOADS:
        entry = arrays.get(name)
        if not isinstance(entry, dict) or "file" not in entry:
            raise CorruptIndexError(f"{path}: header lost payload {name!r}")
    return header


def _verify_payload(path: Path, name: str, entry, level: str) -> None:
    """Check one payload against its header or manifest record.

    The one per-payload check behind :func:`verify_index` and the mutable
    store's side payloads: ``entry`` must be an object naming its
    ``file``; at ``level="header"`` the file must exist with the recorded
    ``nbytes``, and ``level="full"`` also compares its SHA-256.  Every
    failure, a malformed record included, raises
    :class:`CorruptIndexError`.
    """
    if not isinstance(entry, dict) or "file" not in entry:
        raise CorruptIndexError(
            f"{path}: malformed entry for payload {name!r}"
        )
    if level == "off":
        return
    fpath = path / entry["file"]
    if not fpath.is_file():
        raise CorruptIndexError(
            f"{path}: payload {entry['file']} ({name}) is missing"
        )
    nbytes = entry.get("nbytes")
    actual = fpath.stat().st_size
    if nbytes is not None and actual != nbytes:
        raise CorruptIndexError(
            f"{path}: payload {entry['file']} ({name}) is {actual} bytes, "
            f"{nbytes} recorded (truncated or partially written)"
        )
    if level == "full":
        digest = entry.get("sha256")
        if digest is None:
            raise CorruptIndexError(
                f"{path}: payload {entry['file']} ({name}) has no "
                "recorded checksum"
            )
        actual_digest = _sha256_file(fpath)
        if actual_digest != digest:
            raise CorruptIndexError(
                f"{path}: payload {entry['file']} ({name}) failed its "
                f"SHA-256 check (got {actual_digest[:12]}..., "
                f"recorded {digest[:12]}...)"
            )


def verify_index(
    path: str | Path, header: dict | None = None, *, level: str = "header"
) -> None:
    """Verify a persisted index's payloads against its header.

    ``level="header"`` confirms every payload exists with exactly the
    recorded byte size (one ``stat`` each -- catches truncation, partial
    writes, and swapped files without reading payload bytes).
    ``level="full"`` additionally re-hashes every payload and compares
    its SHA-256 (catches in-place bit corruption).  ``level="off"`` is a
    no-op.  Raises :class:`CorruptIndexError` on the first mismatch.
    """
    if level not in VERIFY_LEVELS:
        raise ValueError(
            f"verify must be one of {VERIFY_LEVELS}, got {level!r}"
        )
    if level == "off":
        return
    path = Path(path)
    if header is None:
        header = read_header(path)
    entries = dict(header["arrays"])
    entries["<data>"] = _data_entry(header)
    for name, entry in entries.items():
        _verify_payload(path, name, entry, level)


def _data_entry(header: dict) -> dict:
    """The embedded dataset's payload record, in the per-payload form."""
    return {
        "file": header["data"],
        "sha256": header.get("data_sha256"),
        "nbytes": header.get("data_nbytes"),
    }


def _load_payload(path: Path, fname: str, mmap: bool) -> np.ndarray:
    try:
        # A plain ndarray view of the map: np.memmap's Python-level
        # __getitem__ would tax every scalar cell-extent lookup.
        return np.asarray(np.load(path / fname, mmap_mode="r" if mmap else None))
    except (ValueError, OSError) as exc:
        # Size-preserving corruption inside the npy format header
        # slips past verify="header"; surface it typed, not as a raw
        # numpy parse error.
        raise CorruptIndexError(
            f"{path}: payload {fname} is unreadable: {exc}"
        ) from exc


def _check_shape(path: Path, name: str, got: np.ndarray, shape, dtype) -> None:
    if got.shape != shape or got.dtype != dtype:
        raise CorruptIndexError(
            f"{path}: payload {name} is {got.dtype}{got.shape}, "
            f"expected {np.dtype(dtype)}{shape}"
        )


def load_embedded_rows(
    path: str | Path, *, verify: str = "header"
) -> tuple[np.ndarray, np.ndarray]:
    """An index's embedded rows, memory-mapped, without its grid.

    Returns ``(rows, ids)``: the stored rows and the original id of each
    stored row.  Only the header and those two payloads are opened, each
    checked at ``verify`` like :func:`load_index` checks it; a payload of
    the wrong shape raises :class:`CorruptIndexError`.
    """
    if verify not in VERIFY_LEVELS:
        raise ValueError(
            f"verify must be one of {VERIFY_LEVELS}, got {verify!r}"
        )
    path = Path(path)
    header = read_header(path)
    scalars = header["scalars"]
    n_points, dim = int(scalars["n_points"]), int(scalars["n_dims_data"])
    _verify_payload(path, "<data>", _data_entry(header), verify)
    entry = header["arrays"]["ids"]
    _verify_payload(path, "ids", entry, verify)
    rows = _load_payload(path, header["data"], True)
    ids = _load_payload(path, entry["file"], True)
    _check_shape(path, "<data>", rows, (n_points, dim), np.float64)
    _check_shape(path, "ids", ids, (n_points,), np.int64)
    return rows, ids


def load_index(
    path: str | Path, *, mmap: bool = True, verify: str = "header"
) -> LoadedIndex:
    """Restore a persisted index from a directory.

    Integrity is checked **before** any payload is mapped or read:
    ``verify="header"`` (default) stat-checks byte sizes,
    ``verify="full"`` re-hashes every payload against its SHA-256,
    ``verify="off"`` trusts the directory.  Failures raise
    :class:`CorruptIndexError`.

    ``mmap=True`` (the default) memory-maps every payload and serves the
    embedded dataset through a mmap-backed
    :class:`~repro.data.source.DatasetSource` -- queries read only the
    rows they touch, so the dataset is never re-read into RAM wholesale.
    ``mmap=False`` loads everything resident.  Results are bit-identical
    either way, and to the freshly built index.  The source is in stored
    (cell) order and comes with ``ids`` and ``norms``.
    """
    path = Path(path)
    header = read_header(path)
    verify_index(path, header, level=verify)

    def arr(name: str) -> np.ndarray:
        return _load_payload(path, header["arrays"][name]["file"], mmap)

    scalars = header["scalars"]
    n_points, dim = int(scalars["n_points"]), int(scalars["n_dims_data"])
    ids, norms = arr("ids"), arr("norms")
    _check_shape(path, "ids", ids, (n_points,), np.int64)
    _check_shape(path, "norms", norms, (n_points,), np.float64)
    data_file = path / header["data"]
    try:
        source = (
            MmapNpySource(data_file) if mmap else ArraySource(np.load(data_file))
        )
    except (ValueError, OSError) as exc:
        raise CorruptIndexError(
            f"{path}: payload {data_file.name} is unreadable: {exc}"
        ) from exc
    if (source.n, source.dim) != (n_points, dim):
        raise CorruptIndexError(
            f"{path}: embedded rows are {(source.n, source.dim)}, "
            f"expected {(n_points, dim)}"
        )
    # Cell-ordered rows: the grid's member order is the identity.
    index = GridIndex.__new__(GridIndex)
    index._install(
        eps=float(scalars["eps"]),
        n_points=n_points,
        n_dims_data=dim,
        order=arr("order"),
        r=int(scalars["r"]),
        sort=None,
        starts=arr("starts"),
        ends=arr("ends"),
        unique=np.ascontiguousarray(arr("unique")),
    )
    return LoadedIndex(
        index=index,
        eps=float(scalars["eps"]),
        path=path,
        source=source,
        header=header,
        ids=ids,
        norms=norms,
    )


__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "READABLE_VERSIONS",
    "HEADER_NAME",
    "DATA_STEM",
    "SAVING_SUFFIX",
    "VERIFY_LEVELS",
    "CorruptIndexError",
    "LoadedIndex",
    "save_index",
    "load_index",
    "load_embedded_rows",
    "read_header",
    "verify_index",
    "RACY_NS",
    "FileGeneration",
]
