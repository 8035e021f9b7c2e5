"""Dataset sources: block-addressable access for source-backed joins.

The paper's batched result-transfer design assumes the dataset does not sit
in GPU memory all at once; the host streams it in block by block.  This
module is the host-side analogue for the join engine's out-of-core mode
(a :class:`repro.core.engine.SourceOperand` under either executor): a
:class:`DatasetSource` hands out contiguous float64 row blocks on demand,
so the executor can keep only ``O(row_block * d)`` rows resident
regardless of dataset size.

Three sources cover the storage spectrum:

* :class:`ArraySource` -- an in-memory ndarray (the degenerate case; block
  loads are cheap contiguous copies).  Streaming an ``ArraySource`` is
  bit-identical to the in-memory executor and exists so the two paths can
  be compared directly.
* :class:`MmapNpySource` -- a single ``.npy`` file opened with
  ``numpy.load(..., mmap_mode="r")``.  The OS pages rows in lazily; only
  the requested block is ever copied into a real array.
* :class:`ChunkedNpySource` -- a directory of row-chunk ``.npy`` files
  (``chunk_00000.npy``, ``chunk_00001.npy``, ...) as written by
  :func:`write_chunked_npy`.  Each chunk is memory-mapped only while a
  block load overlaps it, so datasets far larger than RAM stream fine.

All sources normalize blocks to C-contiguous float64 -- exactly the
``np.ascontiguousarray(data, dtype=np.float64)`` the kernels apply to
in-memory inputs -- which is what makes the streamed results bit-identical
to the resident path (see docs/ARCHITECTURE.md).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from repro import faults

#: Manifest file name written next to the chunks by :func:`write_chunked_npy`.
CHUNK_MANIFEST = "chunks.json"

_CHUNK_RE = re.compile(r"chunk_(\d+)\.npy$")


class DatasetSource:
    """Block-addressable view of an ``(n, d)`` dataset.

    Subclasses implement :meth:`load_block`; everything else (shape
    bookkeeping, whole-dataset materialization, byte estimates) is shared.
    """

    #: Number of rows (points).
    n: int
    #: Number of columns (dimensions).
    dim: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.dim)

    @property
    def nbytes(self) -> int:
        """Size of the full dataset in float64 working precision."""
        return self.n * self.dim * 8

    def load_block(self, r0: int, r1: int) -> np.ndarray:
        """Return rows ``[r0:r1]`` as a fresh C-contiguous float64 array."""
        raise NotImplementedError

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Gather arbitrary rows as a fresh C-contiguous float64 array.

        The random-access primitive the index-backed candidate executors
        use to evaluate ``(members, candidates)`` groups against on-disk
        data (``GridIndex.from_source``-built indexes hand out row indices,
        not rows).  Rows come back in the order of ``indices``; duplicate
        indices are allowed.  The generic implementation loads one
        contiguous covering run at a time, so only the touched row ranges
        are ever resident; subclasses override it with direct gathers.
        """
        indices = self._check_indices(indices)
        if indices.size == 0:
            return np.empty((0, self.dim), dtype=np.float64)
        out = np.empty((indices.size, self.dim), dtype=np.float64)
        order = np.argsort(indices, kind="stable")
        sorted_idx = indices[order]
        # Run boundaries in one shot (a gap > 1 ends a contiguous cover);
        # the Python loop below is O(runs), not O(indices).
        breaks = np.nonzero(np.diff(sorted_idx) > 1)[0] + 1
        bounds = np.concatenate(([0], breaks, [sorted_idx.size]))
        for run_start, run_end in zip(bounds[:-1], bounds[1:]):
            lo = int(sorted_idx[run_start])
            hi = int(sorted_idx[run_end - 1]) + 1
            block = self.load_block(lo, hi)
            out[order[run_start:run_end]] = block[sorted_idx[run_start:run_end] - lo]
        return out

    def materialize(self) -> np.ndarray:
        """Load the entire dataset (for the non-streaming / index paths)."""
        return self.load_block(0, self.n)

    # Every concrete load_block/take funnels through one of these two
    # validators, so they double as the `source.read` fault point: one
    # gate covers every source kind (in-memory, mmap, chunked).
    def _check_block(self, r0: int, r1: int) -> None:
        if faults.ARMED:
            faults.check("source.read")
        if not (0 <= r0 <= r1 <= self.n):
            raise IndexError(f"block [{r0}:{r1}] out of range for n={self.n}")

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        if faults.ARMED:
            faults.check("source.read")
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if indices.size and (indices.min() < 0 or indices.max() >= self.n):
            raise IndexError(f"row indices out of range for n={self.n}")
        return indices


class ArraySource(DatasetSource):
    """In-memory dataset: block loads are contiguous float64 copies."""

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError("data must be (n, d)")
        self._data = data
        self.n, self.dim = data.shape

    def load_block(self, r0: int, r1: int) -> np.ndarray:
        self._check_block(r0, r1)
        # copy=True even when the slice is already contiguous float64: the
        # contract is a *fresh* array (callers may retain or mutate it),
        # and the streaming residency accounting assumes private blocks.
        return np.array(self._data[r0:r1], dtype=np.float64, order="C", copy=True)

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        return np.ascontiguousarray(self._data[indices], dtype=np.float64)


class MmapNpySource(DatasetSource):
    """Single ``.npy`` file, memory-mapped; blocks are copied out on demand."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._mmap = np.load(self.path, mmap_mode="r")
        if self._mmap.ndim != 2:
            raise ValueError(f"{self.path} must hold a 2-D array")
        self.n, self.dim = self._mmap.shape

    @property
    def mapped(self) -> np.ndarray:
        """The mapped rows themselves, read-only and in place, as a plain
        ndarray view of the map (in the file's own dtype and order)."""
        return np.asarray(self._mmap)

    def load_block(self, r0: int, r1: int) -> np.ndarray:
        self._check_block(r0, r1)
        # copy=True: never hand out views of the file mapping (see
        # ArraySource.load_block).
        return np.array(self._mmap[r0:r1], dtype=np.float64, order="C", copy=True)

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        # Fancy indexing a memmap copies only the touched rows (the OS
        # pages in just those file regions), never the whole file.
        return np.ascontiguousarray(self._mmap[indices], dtype=np.float64)


class ChunkedNpySource(DatasetSource):
    """Directory of row-chunk ``.npy`` files (see :func:`write_chunked_npy`).

    Chunks are opened with ``mmap_mode="r"`` only while a block load
    overlaps them, so the resident footprint is the requested block alone.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        manifest = self.directory / CHUNK_MANIFEST
        if manifest.exists():
            meta = json.loads(manifest.read_text())
            names = meta["chunks"]
            self.dim = int(meta["dim"])
            rows = [int(r) for r in meta["rows"]]
        else:  # reconstruct from the files themselves
            names = sorted(
                p.name for p in self.directory.iterdir() if _CHUNK_RE.search(p.name)
            )
            if not names:
                raise FileNotFoundError(f"no chunk_*.npy files in {self.directory}")
            rows = []
            self.dim = -1
            for name in names:
                arr = np.load(self.directory / name, mmap_mode="r")
                if arr.ndim != 2:
                    raise ValueError(f"{name} must hold a 2-D array")
                if self.dim < 0:
                    self.dim = arr.shape[1]
                elif arr.shape[1] != self.dim:
                    raise ValueError("chunk dimensionalities disagree")
                rows.append(arr.shape[0])
        self._paths = [self.directory / name for name in names]
        self._starts = np.concatenate(([0], np.cumsum(rows))).astype(np.int64)
        self.n = int(self._starts[-1])

    def load_block(self, r0: int, r1: int) -> np.ndarray:
        self._check_block(r0, r1)
        out = np.empty((r1 - r0, self.dim), dtype=np.float64)
        # Chunks overlapping [r0, r1): binary-search the start offsets.
        first = int(np.searchsorted(self._starts, r0, side="right")) - 1
        row = r0
        while row < r1:
            c0 = int(self._starts[first])
            c1 = int(self._starts[first + 1])
            lo, hi = max(row, c0), min(r1, c1)
            chunk = np.load(self._paths[first], mmap_mode="r")
            out[lo - r0 : hi - r0] = chunk[lo - c0 : hi - c0]
            row = hi
            first += 1
        return out

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        out = np.empty((indices.size, self.dim), dtype=np.float64)
        if indices.size == 0:
            return out
        # Group the gather by owning chunk so each chunk is mapped once.
        owner = np.searchsorted(self._starts, indices, side="right") - 1
        for ci in np.unique(owner):
            sel = owner == ci
            chunk = np.load(self._paths[int(ci)], mmap_mode="r")
            out[sel] = chunk[indices[sel] - int(self._starts[int(ci)])]
        return out


def write_chunked_npy(
    directory: str | Path, data: np.ndarray, *, rows_per_chunk: int = 65536
) -> ChunkedNpySource:
    """Split ``data`` into row-chunk ``.npy`` files plus a manifest.

    The writer exists mainly for tests and data preparation; production
    pipelines would emit chunks as the data arrives and never hold the
    full array (each chunk only needs ``rows_per_chunk`` rows resident).
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("data must be (n, d)")
    if rows_per_chunk <= 0:
        raise ValueError("rows_per_chunk must be positive")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names, rows = [], []
    for k, r0 in enumerate(range(0, data.shape[0], rows_per_chunk)):
        name = f"chunk_{k:05d}.npy"
        block = data[r0 : r0 + rows_per_chunk]
        np.save(directory / name, block)
        names.append(name)
        rows.append(int(block.shape[0]))
    (directory / CHUNK_MANIFEST).write_text(
        json.dumps({"dim": int(data.shape[1]), "chunks": names, "rows": rows})
    )
    return ChunkedNpySource(directory)


def as_source(data) -> DatasetSource:
    """Coerce an ndarray / ``.npy`` path / chunk directory into a source."""
    if isinstance(data, DatasetSource):
        return data
    if isinstance(data, (str, Path)):
        path = Path(data)
        if path.is_dir():
            return ChunkedNpySource(path)
        return MmapNpySource(path)
    return ArraySource(np.asarray(data))
