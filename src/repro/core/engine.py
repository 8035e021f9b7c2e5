"""Shared vectorized join engine: two executors over ``(rows, norms)`` operands.

Architecture
------------
FaSTED and the paper's three baselines (TED-Join, GDS-Join, MiSTIC) compute
one expression -- ``d2 = s_i + s_j - 2 (p_i . q_j)`` filtered by ``eps^2`` --
and differ only in *working precision* and in *which pairs are candidates*.
The engine therefore owns the distance expression, its stage timing and all
pair bookkeeping exactly once, and a kernel supplies only **operands** and a
**schedule**:

* An :class:`Operand` is one side of a join: rows in the kernel's working
  precision plus their squared norms, addressable by row range
  (:meth:`~Operand.block`) and by index array (:meth:`~Operand.take`).  A
  :class:`ResidentOperand` is prepared once for a whole in-memory array
  (quantize/cast + norms); a :class:`SourceOperand` prepares each block or
  gather it pulls from a :class:`repro.data.source.DatasetSource` with the
  same *row-local* function, so both yield bitwise the same values for the
  same rows -- the lever behind every streamed-equals-resident pin.
  :func:`as_operand` makes that choice from a kernel's input: a
  ``DatasetSource`` streams, an array is prepared once, so each kernel has
  one ``self_join`` and one ``join`` for both.

* :func:`tile_join` -- dense/brute kernels.  Walks the block tiles of a
  :class:`TilePlan` (the host form of the GPU work queue): ``right=None`` is
  a self-join (a symmetric plan evaluates only ``c0 >= r0`` tiles and
  mirrors the off-diagonal ones, halving the GEMM work; the self-pair
  diagonal is cleared), a second operand is ``A x B`` (every tile, one pair
  direction, nothing cleared).  ``dist(i, j) == dist(j, i)`` holds bitwise
  for every precision here because float addition is commutative and BLAS
  dot products do not depend on the operand block's position, so mirroring
  is bit-identical to the full matrix (tests/test_engine.py pins this
  against re-implementations of the seed kernels).  When an operand is
  source-backed the next block is loaded and prepared on a background
  thread while the current tile computes, and at most
  :data:`TilePlan.RESIDENT_BLOCKS` blocks are alive at once.

* :func:`candidate_join` -- index-backed kernels and the query service.
  Iterates ``(members, candidates)`` groups from a grid/tree index and
  evaluates each group's distance block (candidate axis chunked from ``d``
  so a temporary stays bounded).  ``right=None`` drops self pairs; a second
  operand keeps equal indices (they address different points).  It runs
  serially on the calling thread, in one of two *modes*: per group, or
  ``batched=True``, which fuses small groups into padded batch GEMMs --
  the host analogue of the GPU kernels' fixed 8x8 dispatch tiles, a win
  where per-group GEMMs degenerate to call overhead.

Both executors emit into a :class:`repro.core.results.PairAccumulator` and
commit strictly in tile / group order on the calling thread; the only
other thread is the tile executor's one-block prefetch loader.  Under ``repro.trace.use_hooks`` both attribute their time to
the same stages -- ``adjacency`` (index group iteration), ``gather``,
``gemm``, ``rz`` (recombination + compare + compaction) and ``commit``
(copy-out, append) -- with one ContextVar read per call.

**Epilogue**: every distance block -- a tile, a group's candidate chunk, a
padded batch -- goes through :func:`threshold_epilogue`: Step 3 fused with
the ``eps^2`` filter, so no full-tile pass follows the GEMM.  It tries one
native pass first (:func:`repro.fp.native.threshold_epilogue_native`, the
host analogue of FaSTED running Step 3 in the accumulator's registers): per
row of the ``(g*m, c)`` view it forms ``(s_i + s_j) - 2*g`` in the block's
dtype, compares, and writes the survivors' ``(row, col, float32 d2)``
compactly into scratch -- the gram is read once and not written, and
the call resumes where a full scratch stopped it.  The first fill uses
a per-thread scratch reused across calls, so a serving-size block
allocates none; each survivor is copied out once.  Without a
compiler, or for inputs the C loop does not take (mixed dtypes, a strided
gram), the NumPy strips run instead and are the reference the tests compare
bits against: a strip is as many rows of the gram block as fit
:data:`TILE_CACHE_BUDGET_BYTES` together with one norm-sum and one compare
buffer, both reused from strip to strip (whole groups at a time in a batch
of small ones); per strip the recombination runs in place in
:func:`norm_expansion_sq_dists`' elementwise order and the hits come from a
row-major ``flatnonzero`` + one ``divmod``.  Either way only the hits are
clamped, because for ``eps2 >= 0``, ``max(x, 0) <= eps2`` iff ``x <= eps2``
(NaN compares false either way).  Hence bit-identical to thresholding the
full distance block, which :func:`norm_expansion_sq_dists` still builds
where it is the product: the query service's kNN search, ``FastedKernel.
tile_sq_dists``, the brute oracles and the mutable store's buffer pass.

**Timing-path reuse**: the tiled kernels' ``cost()`` models derive their
``KernelCost.n_tiles`` from the same :class:`TilePlan` geometry the
functional executor runs (``symmetric=False`` is the device schedule: every
block tile of the full grid), so modeled and executed tile counts cannot
drift apart -- tests/test_workers.py executes the functional path at the
device plan and asserts the equality.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro import trace as trace_mod
from repro.core.results import PairAccumulator
from repro.data.source import DatasetSource
from repro.fp import native

#: ``prepare(raw_block)`` turns float64 rows into ``(rows in the kernel's
#: working precision, their squared norms)``.  Must be row-local (a row's
#: output depends on that row only): that is what makes a block-wise or
#: gather-wise preparation bitwise equal to slicing a whole-array one.
PrepareFn = Callable[[np.ndarray], "tuple[np.ndarray, np.ndarray]"]

#: Bound on the elements of one gathered candidate block; the candidate
#: executor chunks a group's candidate axis at ``GROUP_CHUNK_ELEMS // d``
#: (:func:`group_chunk`) so a temporary stays ~this size regardless of
#: cell density.
GROUP_CHUNK_ELEMS = 2_000_000

#: Per-core cache byte budget (the last-level-cache slice of current
#: server parts).  Sizes the default GEMM tile edge (:func:`tile_rows`:
#: d2 block + two operand panels) and, in :func:`threshold_epilogue`, the
#: native pass's survivor scratch and the NumPy fallback's row strips,
#: whose passes over a strip then read cache whatever the tile edge.
TILE_CACHE_BUDGET_BYTES = 3 << 19  # 1.5 MiB

#: Rows per streamed pass of an out-of-core index build
#: (``GridIndex.from_source`` / ``MultiSpaceTree.from_source``) when no
#: memory budget sizes it (:func:`source_build_stats`).
SOURCE_BUILD_ROWS = 65536


def tile_rows(
    n: int,
    dim: int,
    *,
    d2_itemsize: int = 8,
    work_itemsize: int = 8,
    quantum: int = 128,
) -> int:
    """Cache-fit tile edge: largest ``rows`` with
    ``rows^2 * d2_itemsize + 2 * rows * dim * work_itemsize`` under
    :data:`TILE_CACHE_BUDGET_BYTES`, rounded down to a multiple of
    ``quantum`` (a kernel's natural dispatch granule) and clamped to
    ``[1, n]``.

    The GEMM shape per tile -- the host analogue of FaSTED's hierarchical
    data reuse; the epilogue strip-mines any tile, so its cache residency
    does not depend on it.  Kernels use it whenever the caller leaves
    ``row_block=None``; the choice never changes the pair set, and on the
    seed datasets it is bit-identical distance-for-distance too
    (tests/test_workers.py).
    """
    a = float(max(d2_itemsize, 1))
    b = 2.0 * max(dim, 1) * max(work_itemsize, 1)
    budget = float(TILE_CACHE_BUDGET_BYTES)
    rows = int(((b * b + 4.0 * a * budget) ** 0.5 - b) / (2.0 * a))
    if rows >= quantum:
        rows -= rows % quantum
    return max(1, min(rows, max(n, 1)))


def norm_expansion_sq_dists(
    s_row: np.ndarray, s_col: np.ndarray, gram: np.ndarray
) -> np.ndarray:
    """``max(0, (s_i + s_j) - 2*gram)`` computed in place on ``gram``.

    The full Step-3 distance block.  Elementwise order is exactly
    ``(s_row[:, None] + s_col[None, :]) - 2.0 * gram``, so results are
    bit-identical to the naive expression in any precision, with one
    temporary (the broadcast norm sum); the rest reuses the gram buffer.
    """
    t = s_row[:, None] + s_col[None, :]
    np.multiply(gram, 2.0, out=gram)
    np.subtract(t, gram, out=gram)
    return np.maximum(gram, 0.0, out=gram)


def threshold_epilogue(
    gram: np.ndarray, s_row: np.ndarray, s_col: np.ndarray, eps2: float, *,
    clear_diagonal: bool = False, store_distances: bool = True, hooks=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Step 3 fused with the ``eps2`` filter, one native pass or strip by
    strip (see the module docstring): a gram block's in-range positions and
    distances.

    ``gram`` is ``(m, c)`` with norms ``(m,)`` / ``(c,)`` or a padded batch
    ``(g, m, c)`` with norms ``(g, m)`` / ``(g, c)``, and is consumed.
    Returns ``(rows, cols, dd)``: row-major positions of the ``(g*m, c)``
    view where ``max(0, (s_i + s_j) - 2*gram) <= eps2`` -- minus the main
    diagonal when ``clear_diagonal`` -- and those distances as float32
    (None unless ``store_distances``).  ``hooks`` gets the ``rz`` and
    ``commit`` (extraction + distance gather) stage seconds.
    """
    block = gram.reshape((-1,) + gram.shape[-2:])
    g, m, c = block.shape
    s_row, s_col = s_row.reshape(g, m, 1), s_col.reshape(g, 1, c)
    if eps2 >= 0:
        fused = _native_epilogue(
            block, s_row, s_col, eps2, clear_diagonal, store_distances, hooks
        )
        if fused is not None:
            return fused
    sum_dtype = np.result_type(s_row, s_col)
    per_row = max(1, c * (block.itemsize + sum_dtype.itemsize + 1))
    height = max(1, TILE_CACHE_BUDGET_BYTES // per_row)
    # A strip is ~`height` rows of the (g*m, c) view -- whole groups when
    # they are that small, else row ranges of one group -- and one norm-sum
    # and one compare buffer serve every strip.
    step_g, step_r = (height // m, m) if height >= m > 0 else (1, height)
    sums = np.empty((min(step_g, g), min(step_r, m), c), dtype=sum_dtype)
    mask = np.empty(sums.size, dtype=np.bool_)
    hits, dists = [np.empty(0, np.int64)], [np.empty(0, np.float32)]
    rz_s = commit_s = 0.0
    # eps2 < 0 (or NaN) keeps nothing; clamp-after-select needs eps2 >= 0.
    for k0 in range(0, g, step_g) if eps2 >= 0 else ():
        for a in range(0, m, step_r):
            t0 = time.perf_counter()
            ks, rs = slice(k0, k0 + step_g), slice(a, a + step_r)
            strip = block[ks, rs]
            t, hit = sums[: strip.shape[0], : strip.shape[1]], mask[: strip.size]
            np.add(s_row[ks, rs], s_col[ks], out=t)
            np.multiply(strip, 2.0, out=strip)
            np.subtract(t, strip, out=strip)
            flat = strip.reshape(-1)
            np.less_equal(flat, eps2, out=hit)
            if clear_diagonal and a < c:
                # Tile row a+i meets the diagonal at column a+i.
                hit[a : a + (min(rs.stop, m, c) - a) * (c + 1) : c + 1] = False
            t1 = time.perf_counter()
            idx = np.flatnonzero(hit)
            if store_distances:
                dists.append(np.maximum(flat[idx], 0.0).astype(np.float32, copy=False))
            idx += (k0 * m + a) * c
            hits.append(idx)
            rz_s += t1 - t0
            commit_s += time.perf_counter() - t1
    t1 = time.perf_counter()
    rows, cols = np.divmod(np.concatenate(hits), max(c, 1))
    dd = np.concatenate(dists) if store_distances else None
    if hooks is not None:
        hooks.record("rz", rz_s)
        hooks.record("commit", commit_s + time.perf_counter() - t1)
    return rows, cols, dd


_fill_scratch = threading.local()


def _native_epilogue(
    block, s_row, s_col, eps2, clear_diagonal, store_distances, hooks
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
    """:func:`threshold_epilogue` as fills of the fused C pass, or ``None``
    where :func:`repro.fp.native.threshold_epilogue_native` does not apply
    (no compiler, mixed dtypes, a strided or empty gram)."""
    if not block.size:
        return None
    n_rows, c = block.shape[0] * block.shape[1], block.shape[2]
    # Survivor scratch per fill: a cache budget's worth of 20-byte (int64
    # row, int64 col, float32 d2) slots, but at least one block row (the C
    # pass stops before a row that might not fit).  The first fill goes
    # into the thread's scratch, reused across calls; a block that needs
    # more fills gives each later one its own, and every survivor is
    # copied out exactly once.
    cap = max(c, TILE_CACHE_BUDGET_BYTES // 20)
    scratch = getattr(_fill_scratch, "buf", None)
    if scratch is None or scratch.cap != cap:
        scratch = _fill_scratch.buf = native.FillScratch(cap)
    t0 = time.perf_counter()
    fills: list[tuple[native.FillScratch, int]] = []
    row = 0
    while row < n_rows:
        if fills:
            scratch = native.FillScratch(cap)
        filled = native.threshold_epilogue_native(
            block, s_row, s_col, eps2, clear_diagonal, row, scratch,
            store_distances,
        )
        if filled is None:
            return None
        row, n = filled
        fills.append((scratch, n))
    t1 = time.perf_counter()

    def out(name: str) -> np.ndarray:
        parts = [getattr(f, name)[:n] for f, n in fills]
        return parts[0].copy() if len(parts) == 1 else np.concatenate(parts)

    result = (out("rows"), out("cols"), out("dd") if store_distances else None)
    if hooks is not None:
        hooks.record("rz", t1 - t0)
        hooks.record("commit", time.perf_counter() - t1)
    return result


# ----------------------------------------------------------------------
# Tile geometry and streaming statistics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TilePlan:
    """Block-tile schedule of a tiled join: the host form of the work queue.

    The left set's ``n_rows`` rows are cut into ``row_block``-sized blocks
    and the right set's ``n_cols`` rows into ``col_block``-sized blocks;
    every ``(ri, cj)`` block pair is a tile, walked row-major.  A
    **symmetric** plan (self-joins only: square, equal block edges) walks
    just the upper triangle ``cj >= ri`` -- the executor mirrors the
    off-diagonal tiles -- while ``symmetric=False`` over a square grid is
    the **device schedule** (a GPU work queue issues all block tiles),
    which the kernels' timing models share via their ``tile_plan()`` /
    ``cost()`` methods so modeled and executed tile counts cannot drift.

    When the operands are source-backed, processing row block ``ri`` pins
    it for the whole stripe while the stripe's column blocks stream
    through, each discarded after its tile -- the left set is read once
    and the right set once per row stripe -- so peak residency is bounded
    by :data:`RESIDENT_BLOCKS` blocks regardless of either size.
    """

    n_rows: int
    n_cols: int
    row_block: int
    col_block: int
    symmetric: bool = False

    #: Worst-case simultaneously resident blocks: the pinned row block, the
    #: current column block, and the prefetched next block (whose raw
    #: float64 form and prepared state briefly coexist inside ``prepare``).
    RESIDENT_BLOCKS = 4

    def __post_init__(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("need n_rows >= 0 and n_cols >= 0")
        if self.row_block <= 0 or self.col_block <= 0:
            raise ValueError("row_block and col_block must be positive")
        if self.symmetric and (
            self.n_rows != self.n_cols or self.row_block != self.col_block
        ):
            raise ValueError("a symmetric plan needs a square grid")

    @classmethod
    def square(cls, n: int, row_block: int, *, symmetric: bool = True) -> "TilePlan":
        """Self-join plan over ``n`` points with one block edge."""
        return cls(n, n, int(row_block), int(row_block), symmetric)

    @classmethod
    def from_budget(
        cls,
        n_rows: int,
        n_cols: int,
        dim: int,
        memory_budget_bytes: int,
        *,
        symmetric: bool = False,
        itemsize: int = 8,
    ) -> "TilePlan":
        """Choose equal block edges so peak resident data fits the budget.

        The budget covers the streamed blocks only (``RESIDENT_BLOCKS``
        float64 blocks, plus one spare column per row for the per-block
        norm vectors); the result pairs themselves grow with the join's
        output and are accounted separately by ``PairAccumulator.nbytes``.
        """
        if memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        per_row = max(1, (dim + 1) * itemsize)
        block = int(max(1, memory_budget_bytes // (cls.RESIDENT_BLOCKS * per_row)))
        return cls(
            n_rows,
            n_cols,
            min(block, max(n_rows, 1)),
            min(block, max(n_cols, 1)),
            symmetric,
        )

    @classmethod
    def for_join(
        cls,
        n_rows: int,
        n_cols: int,
        dim: int,
        *,
        row_block: int,
        col_block: int | None = None,
        memory_budget_bytes: int | None = None,
        symmetric: bool = False,
    ) -> "TilePlan":
        """The plan a join runs when the caller gave block edges or a budget.

        A ``memory_budget_bytes`` wins (:meth:`from_budget`); otherwise
        the explicit edges are used (``col_block`` defaults to
        ``row_block``, and symmetric plans use ``row_block`` for both).
        """
        if memory_budget_bytes is not None:
            return cls.from_budget(
                n_rows, n_cols, dim, int(memory_budget_bytes),
                symmetric=symmetric,
            )
        rb = int(row_block)
        cb = rb if symmetric or col_block is None else int(col_block)
        return cls(n_rows, n_cols, rb, cb, symmetric)

    @property
    def n_row_blocks(self) -> int:
        return -(-self.n_rows // self.row_block) if self.n_rows else 0

    @property
    def n_col_blocks(self) -> int:
        return -(-self.n_cols // self.col_block) if self.n_cols else 0

    @property
    def n_tiles(self) -> int:
        nb = self.n_row_blocks
        return nb * (nb + 1) // 2 if self.symmetric else nb * self.n_col_blocks

    def row_bounds(self, ri: int) -> tuple[int, int]:
        """Row range ``(r0, r1)`` of left-set block ``ri``."""
        r0 = ri * self.row_block
        return r0, min(r0 + self.row_block, self.n_rows)

    def col_bounds(self, cj: int) -> tuple[int, int]:
        """Row range ``(c0, c1)`` of right-set block ``cj``."""
        c0 = cj * self.col_block
        return c0, min(c0 + self.col_block, self.n_cols)

    def stripe(self, ri: int) -> range:
        """Column-block indices of row stripe ``ri``, in execution order."""
        return range(ri if self.symmetric else 0, self.n_col_blocks)

    def tiles(self) -> Iterator[tuple[int, int]]:
        """Block-index pairs ``(ri, cj)`` in execution order.

        Upper triangle (``cj >= ri``) for symmetric plans, the full grid
        row-major otherwise.
        """
        for ri in range(self.n_row_blocks):
            for cj in self.stripe(ri):
                yield ri, cj

    def tile_bounds(self) -> Iterator[tuple[int, int, int, int]]:
        """Tile coordinates ``(r0, r1, c0, c1)`` in execution order."""
        for ri, cj in self.tiles():
            yield (*self.row_bounds(ri), *self.col_bounds(cj))

    def peak_resident_bytes(self, dim: int, *, itemsize: int = 8) -> int:
        """Upper bound on simultaneously resident streamed-block bytes."""
        edge = max(self.row_block, self.col_block)
        return self.RESIDENT_BLOCKS * edge * (dim + 1) * itemsize


@dataclass
class StreamStats:
    """What a source-backed run actually loaded and held (tests, reporting).

    :func:`tile_join` returns one per call (all zeros for resident
    operands apart from ``tiles_evaluated``); an index kernel's
    ``self_join`` over a source accounts its out-of-core build
    (``GridIndex.from_source``) and its candidate gathers into one from
    :func:`source_build_stats`.  A kernel run over a source hands its
    stats back on the result (``NeighborResult.stream_stats`` /
    ``JoinResult.stream_stats``; ``None`` when every operand was resident).
    """

    plan: "TilePlan | None" = None
    blocks_loaded: int = 0
    tiles_evaluated: int = 0
    peak_resident_bytes: int = 0
    _resident_bytes: int = field(default=0, repr=False)
    _lock: Any = field(default_factory=threading.Lock, repr=False)

    def _acquire(self, nbytes: int) -> None:
        # The prefetch thread and the main loop both account blocks.
        with self._lock:
            self._resident_bytes += nbytes
            if self._resident_bytes > self.peak_resident_bytes:
                self.peak_resident_bytes = self._resident_bytes

    def _release(self, nbytes: int) -> None:
        with self._lock:
            self._resident_bytes -= nbytes


# ----------------------------------------------------------------------
# Operands
# ----------------------------------------------------------------------


class Operand:
    """One side of a join: working-precision rows + their squared norms.

    ``block(r0, r1)`` and ``take(idx)`` both return ``(rows, norms)``;
    whoever called them hands the pair back through :meth:`release` once
    its distance block is computed.  ``stats`` (a :class:`StreamStats`,
    optional everywhere) is where a source-backed operand accounts the
    bytes it has handed out; resident operands hand out views or gathers
    of arrays that are alive anyway and account nothing.
    """

    #: True when rows are held in memory for the operand's lifetime.
    resident: bool
    n: int
    dim: int

    def block(self, r0: int, r1: int, stats: "StreamStats | None" = None):
        raise NotImplementedError

    def take(self, idx: np.ndarray, stats: "StreamStats | None" = None):
        raise NotImplementedError

    def release(self, rows, norms, stats: "StreamStats | None" = None) -> None:
        pass


class ResidentOperand(Operand):
    """Operand prepared once for a whole in-memory array.

    ``ResidentOperand(*prepare(data))`` is the usual spelling: the
    quantize/cast + norms pass runs exactly once however many tiles or
    groups read it.
    """

    resident = True

    def __init__(self, rows: np.ndarray, norms: np.ndarray) -> None:
        self.rows = rows
        self.norms = norms
        self.n, self.dim = rows.shape

    def block(self, r0, r1, stats=None):
        return self.rows[r0:r1], self.norms[r0:r1]

    def take(self, idx, stats=None):
        return self.rows[idx], self.norms[idx]


class SourceOperand(Operand):
    """Operand over a ``DatasetSource``: load/gather, then ``prepare``.

    Rows come from ``source.load_block`` / ``source.take`` (float64) and
    go through the same row-local ``prepare`` a resident operand ran over
    the whole array, so the values are bitwise what slicing that
    precompute would yield.  The raw float64 rows and the prepared state
    briefly coexist inside :meth:`_prepared`; both are charged to
    ``stats`` so ``peak_resident_bytes`` is honest about it.
    """

    resident = False

    def __init__(self, source, prepare: PrepareFn) -> None:
        self.source = source
        self.prepare = prepare
        self.n, self.dim = int(source.n), int(source.dim)

    def _prepared(self, raw: np.ndarray, stats):
        if stats is None:
            return self.prepare(raw)
        stats._acquire(raw.nbytes)
        rows, norms = self.prepare(raw)
        stats._acquire(rows.nbytes + norms.nbytes)
        stats._release(raw.nbytes)  # raw block dies with this frame
        return rows, norms

    def block(self, r0, r1, stats=None):
        out = self._prepared(self.source.load_block(r0, r1), stats)
        if stats is not None:
            stats.blocks_loaded += 1
        return out

    def take(self, idx, stats=None):
        return self._prepared(self.source.take(idx), stats)

    def release(self, rows, norms, stats=None) -> None:
        if stats is not None:
            stats._release(rows.nbytes + norms.nbytes)


def as_operand(data, prepare: PrepareFn) -> Operand:
    """The operand a kernel's input calls for.

    A :class:`~repro.data.source.DatasetSource` becomes a
    :class:`SourceOperand` (rows loaded and prepared per block or
    gather); anything else is an in-memory array, prepared once as a
    :class:`ResidentOperand`.
    """
    if isinstance(data, DatasetSource):
        return SourceOperand(data, prepare)
    return ResidentOperand(*prepare(np.ascontiguousarray(data, dtype=np.float64)))


def source_build_stats(source, memory_budget_bytes: int | None) -> StreamStats:
    """Ledger of an index kernel's out-of-core self-join over ``source``.

    Its plan's ``row_block`` sizes the streamed build passes:
    :data:`SOURCE_BUILD_ROWS` clamped to the source's rows, or the edge
    :meth:`TilePlan.from_budget` derives from ``memory_budget_bytes``.
    """
    n, d = int(source.n), int(source.dim)
    return StreamStats(plan=TilePlan.for_join(
        n, n, d, row_block=min(SOURCE_BUILD_ROWS, max(n, 1)),
        memory_budget_bytes=memory_budget_bytes, symmetric=True,
    ))


def _check_operands(left: Operand, right: "Operand | None") -> Operand:
    """The column-side operand (``left`` itself for a self-join)."""
    if right is None:
        return left
    if left.dim != right.dim:
        raise ValueError(
            f"operand dimensionalities disagree: {left.dim} != {right.dim}"
        )
    return right


# ----------------------------------------------------------------------
# Tile executor
# ----------------------------------------------------------------------


def _prefetched(requests: Iterable, fetch: Callable, pool: ThreadPoolExecutor | None):
    """Yield ``fetch(req)`` per request, one request ahead on ``pool``.

    A 1-deep pipeline: while the consumer works on result ``k``, request
    ``k + 1`` is being fetched on the (single-thread) pool.  Without a
    pool the fetches run inline, on demand.
    """
    if pool is None:
        for req in requests:
            yield fetch(req)
        return
    it = iter(requests)
    first = next(it, None)
    if first is None:
        return
    ahead = pool.submit(fetch, first)
    for req in it:
        ready, ahead = ahead.result(), pool.submit(fetch, req)
        yield ready
    yield ahead.result()


def tile_join(
    left: Operand,
    eps2: float,
    right: Operand | None = None,
    *,
    plan: TilePlan | None = None,
    row_block: int = 2048,
    col_block: int | None = None,
    memory_budget_bytes: int | None = None,
    store_distances: bool = True,
    acc: PairAccumulator | None = None,
) -> tuple[PairAccumulator, StreamStats]:
    """Tiled join over the block grid of a :class:`TilePlan`.

    ``right=None`` is the self-join of ``left``: with a symmetric plan
    (the default) only tiles with ``c0 >= r0`` are evaluated and
    off-diagonal tiles emit both pair directions from the one evaluation,
    with ``plan.symmetric=False`` (the device schedule the timing models
    share) every tile of the full grid is evaluated and nothing is
    mirrored -- bit-identical, because ``dist(i, j) == dist(j, i)`` holds
    bitwise -- and diagonal tiles get their self-pair diagonal cleared
    either way.  A second operand makes it ``A x B``: every tile, pairs
    ``(i in A, j in B)`` in that one direction, no diagonal handling.

    Resident operands are sliced in place.  When an operand is
    source-backed its row blocks are loaded on demand: each row block of
    ``left`` is pinned for one stripe while the stripe's column blocks
    stream through, the next block (of either operand) is loaded and
    prepared on a background thread while the current tile's GEMM runs,
    and at most :data:`TilePlan.RESIDENT_BLOCKS` blocks are alive at once.
    Per-block preparation is row-local and per-tile GEMM shapes depend
    only on the plan, so a streamed run is bit-identical to a resident
    run at the same plan (tests/test_streaming.py, tests/test_two_source.py).

    Parameters
    ----------
    left, right:
        Operands in the kernel's working precision; dimensionalities must
        match.
    eps2:
        Squared radius in the working precision (pairs with ``d2 <= eps2``
        are kept, matching every kernel's seed semantics).
    plan:
        Explicit tile schedule; overrides ``row_block`` / ``col_block`` /
        ``memory_budget_bytes`` and must cover exactly the operands' rows.
    row_block, col_block:
        Block edges when no plan/budget is given (``col_block`` defaults
        to ``row_block``; self-joins use ``row_block`` for both).  A
        performance knob only -- the pair set is identical for any value.
    memory_budget_bytes:
        Derive the plan with :meth:`TilePlan.from_budget` so peak resident
        streamed data stays under the budget.
    store_distances:
        Track per-pair squared distances (ignored when ``acc`` is given).
    acc:
        Emit into this accumulator instead of a fresh one -- the hook for
        disk-spilling accumulators
        (``PairAccumulator(spill_threshold_bytes=...)``) when the output
        itself outgrows memory.  A failed run cleans its spill files up.

    Returns
    -------
    (PairAccumulator, StreamStats)
        The accumulated pairs and the observed load/residency statistics.
    """
    self_join = right is None
    cols = _check_operands(left, right)
    if plan is None:
        plan = TilePlan.for_join(
            left.n, cols.n, left.dim,
            row_block=row_block, col_block=col_block,
            memory_budget_bytes=memory_budget_bytes, symmetric=self_join,
        )
    elif (plan.n_rows, plan.n_cols) != (left.n, cols.n):
        raise ValueError(
            f"plan covers {plan.n_rows}x{plan.n_cols}, "
            f"join has {left.n}x{cols.n}"
        )
    if self_join and plan.row_block != plan.col_block:
        raise ValueError("a self-join plan needs equal row and column blocks")
    if plan.symmetric and not self_join:
        raise ValueError("a symmetric plan cannot drive a two-source join")
    stats = StreamStats(plan=plan)
    if acc is None:
        acc = PairAccumulator(store_distances=store_distances)
    store_distances = acc.store_distances
    hooks = trace_mod.current_hooks()

    def loads() -> Iterator[tuple[Operand, int, int]]:
        # Row block ri, then the stripe's column blocks (a self-join's
        # diagonal tile reuses the pinned row block).
        for ri in range(plan.n_row_blocks):
            yield (left, *plan.row_bounds(ri))
            for cj in plan.stripe(ri):
                if not (self_join and cj == ri):
                    yield (cols, *plan.col_bounds(cj))

    def fetch(req: tuple[Operand, int, int]):
        op, lo, hi = req
        return op.block(lo, hi, stats)

    def run_tile(row, col, r0: int, c0: int, diagonal: bool) -> None:
        t0 = time.perf_counter()
        gram = row[0] @ col[0].T
        if hooks is not None:
            hooks.record("gemm", time.perf_counter() - t0)
        gi, gj, dd = threshold_epilogue(
            gram, row[1], col[1], eps2, clear_diagonal=diagonal,
            store_distances=store_distances, hooks=hooks,
        )
        gi, gj = gi + r0, gj + c0
        t0 = time.perf_counter()
        acc.append(gi, gj, dd)
        if plan.symmetric and not diagonal:
            acc.append(gj, gi, dd)
        stats.tiles_evaluated += 1
        if not diagonal:
            cols.release(*col, stats)
        if hooks is not None:
            hooks.record("commit", time.perf_counter() - t0)

    streamed = not (left.resident and cols.resident)
    loader = ThreadPoolExecutor(max_workers=1) if streamed else None
    try:
        blocks = _prefetched(loads(), fetch, loader)
        for ri in range(plan.n_row_blocks):
            row = next(blocks)
            r0, _r1 = plan.row_bounds(ri)
            for cj in plan.stripe(ri):
                diagonal = self_join and cj == ri
                col = row if diagonal else next(blocks)
                run_tile(row, col, r0, plan.col_bounds(cj)[0], diagonal)
            left.release(*row, stats)
    except BaseException:
        # A failed run's partial output is garbage; drop any spilled
        # chunk files with it so prefetch/tile errors do not leak disk.
        acc.cleanup()
        raise
    finally:
        if loader is not None:
            loader.shutdown(wait=True, cancel_futures=True)
    return acc, stats


# ----------------------------------------------------------------------
# Candidate-group executor
# ----------------------------------------------------------------------


def group_chunk(dim: int) -> int:
    """Candidates evaluated per distance block at dimensionality ``dim``."""
    return max(1, GROUP_CHUNK_ELEMS // max(int(dim), 1))


def group_gram(
    rows_m: np.ndarray, cols: Operand, cand: np.ndarray,
    hooks=None, stats: "StreamStats | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(gram of member rows against cols[cand], the candidates' norms)``.

    The one spelling of a candidate group's ``gather`` / ``gemm`` stages,
    shared by :func:`candidate_join` (which thresholds the gram block) and
    kNN's rounds (which rank by FP64 distance, so they build the full
    block with :func:`norm_expansion_sq_dists`).
    """
    t0 = time.perf_counter()
    rows_c, norms_c = cols.take(cand, stats)
    t1 = time.perf_counter()
    gram = rows_m @ rows_c.T
    if hooks is not None:
        hooks.record("gather", t1 - t0)
        hooks.record("gemm", time.perf_counter() - t1)
    cols.release(rows_c, norms_c, stats)
    return gram, norms_c


def batch_params_from_stats(
    stats,
    *,
    batch_elems: int | None = None,
    max_batch_groups: int | None = None,
    single_elems: int | None = None,
    min_fill: float | None = None,
) -> dict:
    """Derive batched-executor knobs from measured index moments.

    ``stats`` is a ``repro.index.grid.GridStats`` (duck-typed: the mean /
    standard deviation of per-cell member counts and candidate-set sizes).
    Any knob passed explicitly is taken verbatim -- the override escape
    hatch; the rest follow the group-shape distribution:

    * ``single_elems`` -- the bypass threshold scales with the typical
      group block (``8 x mean_members x mean_group_candidates``): a group
      several times the norm amortizes its own BLAS call, while on a
      fine-shattered grid the static default would bypass groups that are
      still call-overhead-bound.
    * ``batch_elems`` -- sized to hold ~64 groups padded one standard
      deviation above the mean, clamped to ``[2^16, 2^22]`` so a flush
      block neither degenerates to a handful of groups nor outgrows cache.
    * ``min_fill`` -- from the expected fill when padding to
      ``mean + std`` per axis: homogeneous group shapes (small std) raise
      the guard toward 0.5 (padding is cheap, demand it be tight), widely
      dispersed shapes lower it toward 0.15 (constant flushing would cost
      more than the padding it avoids).
    """
    mean_m = max(float(getattr(stats, "mean_members", 0.0)), 1.0)
    mean_c = max(float(getattr(stats, "mean_group_candidates", 0.0)), 1.0)
    std_m = float(getattr(stats, "std_members", 0.0))
    std_c = float(getattr(stats, "std_group_candidates", 0.0))
    pad_m = mean_m + std_m
    pad_c = mean_c + std_c
    if single_elems is None:
        single_elems = int(min(max(1 << 12, 8.0 * mean_m * mean_c), GROUP_CHUNK_ELEMS))
    if batch_elems is None:
        batch_elems = int(min(max(1 << 16, 64.0 * pad_m * pad_c), 1 << 22))
    if min_fill is None:
        fill_est = (mean_m / pad_m) * (mean_c / pad_c)
        min_fill = float(min(0.5, max(0.15, 0.6 * fill_est)))
    if max_batch_groups is None:
        max_batch_groups = 512
    return {
        "batch_elems": int(batch_elems),
        "max_batch_groups": int(max_batch_groups),
        "single_elems": int(single_elems),
        "min_fill": float(min_fill),
    }


#: Mean group block (members x candidates) above which per-group BLAS
#: calls amortize their own overhead and padding stops paying; below it
#: the padded-batch executor wins (the regime the committed
#: ``candidate_batched`` bench entry measures).
AUTO_BATCH_ELEMS = 1 << 14

#: Minimum nonempty-group count for batching: with fewer groups the
#: flush blocks never fill and batch assembly is pure overhead.
AUTO_BATCH_MIN_GROUPS = 32


def auto_batched_from_stats(stats) -> bool:
    """Should this index's group shapes ride the batched executor?

    The decision rule behind the kernels' ``batched=None`` default: an
    index whose *typical* group block (``mean_members x
    mean_group_candidates``) is small is call-overhead-bound -- exactly
    where padded batch GEMMs win -- provided there are enough nonempty
    groups (:data:`AUTO_BATCH_MIN_GROUPS`) to fill the flush blocks.
    Large typical blocks already amortize their own BLAS calls, and
    padding them would only burn bandwidth.  Explicit ``batched=True`` /
    ``False`` on a kernel bypasses this heuristic entirely.
    """
    mean_m = float(getattr(stats, "mean_members", 0.0))
    mean_c = float(getattr(stats, "mean_group_candidates", 0.0))
    n_groups = int(getattr(stats, "n_nonempty_cells", 0))
    typical = mean_m * mean_c
    return n_groups >= AUTO_BATCH_MIN_GROUPS and 0.0 < typical <= AUTO_BATCH_ELEMS


def resolve_batching(
    batched: bool | None, index_stats: Callable[[], Any], overrides: dict | None
) -> tuple[bool, dict | None]:
    """Resolve a kernel's ``batched`` / ``batch_params`` arguments.

    ``batched=None`` asks the measured group shapes
    (:func:`auto_batched_from_stats`); when batching is on, the knobs come
    from the same moments with ``overrides`` taken verbatim
    (:func:`batch_params_from_stats`).  ``index_stats()`` is called at
    most once and not at all for an explicit ``batched=False`` -- a
    tree's stats cost a full group pass.  Returns ``(batched,
    batch_params or None)``, ready for :func:`candidate_join`.
    """
    stats = None
    if batched is None:
        stats = index_stats()
        batched = auto_batched_from_stats(stats)
    if not batched:
        return False, None
    if stats is None:
        stats = index_stats()
    return True, batch_params_from_stats(stats, **(overrides or {}))


#: Static padded-batch knobs (``batched=True`` with no ``batch_params``);
#: kernels with an index derive them from the measured group-size
#: distribution instead (:func:`batch_params_from_stats`).
#:
#: * ``batch_elems`` -- flush a buffer before its padded ``g * M * C``
#:   distance block would exceed this many elements.
#: * ``max_batch_groups`` -- hard cap on groups per flush (bounds the
#:   Python-side scatter loop).
#: * ``single_elems`` -- groups whose own ``members * candidates`` exceeds
#:   this bypass batching and run as one plain GEMM: a group that large
#:   amortizes its own BLAS call, and padding it would waste more than
#:   the call overhead it saves.
#: * ``min_fill`` -- flush before the buffer's fill ratio (real
#:   ``sum(m*c)`` over padded ``g * M * C``) would drop below this, the
#:   guard that keeps heterogeneous group shapes from turning padding
#:   into more work than batching saves.
DEFAULT_BATCH_PARAMS = {
    "batch_elems": 1 << 20,
    "max_batch_groups": 512,
    "single_elems": 1 << 12,
    "min_fill": 0.35,
}


def _live_groups(
    groups: Iterable[tuple[np.ndarray, np.ndarray]],
    on_group: Callable[[np.ndarray, np.ndarray], None] | None,
    hooks,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The nonempty groups, in order, with ``on_group`` fired on each.

    Candidate groups are computed lazily by the grid/tree iterators, so
    the time spent *producing* the next group is index traversal work,
    not kernel math -- attributed to ``adjacency`` here, at the one pull
    site every execution mode shares.
    """
    it = iter(groups)
    while True:
        t0 = time.perf_counter()
        item = next(it, None)
        if item is None:
            return
        if hooks is not None:
            hooks.record("adjacency", time.perf_counter() - t0)
        members, candidates = item
        if members.size == 0 or candidates.size == 0:
            continue
        if on_group is not None:
            on_group(members, candidates)
        yield members, candidates


def _run_groups(
    groups: Iterable[tuple[np.ndarray, np.ndarray]],
    left: Operand, cols: Operand, eps2: float, acc: PairAccumulator, *,
    drop_self: bool, batch_params: dict | None,
    hooks=None, stats: "StreamStats | None" = None,
) -> None:
    """Evaluate nonempty groups serially into ``acc``.

    The numeric core of :func:`candidate_join`; both modes share its
    gathers, GEMM shapes and extraction.  ``batch_params=None`` is the
    per-group mode; a dict of padded-batch knobs
    (:data:`DEFAULT_BATCH_PARAMS` keys) is the batched mode.
    """
    chunk = group_chunk(left.dim)

    def emit(gram, norms_m, norms_c, row_ids, col_ids) -> None:
        # ``row_ids`` is flat over the (g*m) block rows, ``col_ids`` (g, c).
        rows, cols_, dd = threshold_epilogue(
            gram, norms_m, norms_c, eps2,
            store_distances=acc.store_distances, hooks=hooks,
        )
        t0 = time.perf_counter()
        gi, gj = row_ids[rows], col_ids[rows // gram.shape[-2], cols_]
        if drop_self:  # self-join: equal indices are the same point
            keep = gi != gj
            gi, gj = gi[keep], gj[keep]
            dd = dd[keep] if dd is not None else None
        acc.append(gi, gj, dd)
        if hooks is not None:
            hooks.record("commit", time.perf_counter() - t0)

    def run_single(members: np.ndarray, candidates: np.ndarray) -> None:
        t0 = time.perf_counter()
        rows_m, norms_m = left.take(members, stats)
        if hooks is not None:
            hooks.record("gather", time.perf_counter() - t0)
        # Wide candidate lists are chunked so a dense cell cannot blow up
        # a single (members x candidates) temporary.
        for c0 in range(0, candidates.size, chunk):
            cand = candidates[c0 : c0 + chunk]
            gram, norms_c = group_gram(rows_m, cols, cand, hooks, stats)
            emit(gram, norms_m, norms_c, members, cand[None])
        left.release(rows_m, norms_m, stats)

    if batch_params is None:
        for members, candidates in groups:
            run_single(members, candidates)
        return

    batch_elems = batch_params["batch_elems"]
    max_batch_groups = batch_params["max_batch_groups"]
    single_elems = batch_params["single_elems"]
    min_fill = batch_params["min_fill"]
    batch: list[tuple[np.ndarray, np.ndarray]] = []
    batch_m = batch_c = batch_fill = 0

    def flush() -> None:
        nonlocal batch, batch_m, batch_c, batch_fill
        if len(batch) == 1:
            run_single(*batch[0])
        elif batch:
            g = len(batch)
            t0 = time.perf_counter()
            # One concatenated gather per side: identical row values to
            # per-group gathers (row gathers are row-local), but a
            # source-backed operand pays one take() per side per flush.
            mem_cat = np.concatenate([m for m, _ in batch])
            cand_cat = np.concatenate([c for _, c in batch])
            rows_m, norms_m = left.take(mem_cat, stats)
            rows_c, norms_c = cols.take(cand_cat, stats)
            d = rows_m.shape[1]
            p = np.zeros((g, batch_m, d), dtype=rows_m.dtype)
            q = np.zeros((g, batch_c, d), dtype=rows_m.dtype)
            sm = np.full((g, batch_m), np.inf, dtype=norms_m.dtype)
            sc = np.full((g, batch_c), np.inf, dtype=norms_m.dtype)
            mi_idx = np.zeros((g, batch_m), dtype=np.int64)
            cj_idx = np.zeros((g, batch_c), dtype=np.int64)
            mo = co = 0
            for k, (members, candidates) in enumerate(batch):
                m, c = members.size, candidates.size
                p[k, :m] = rows_m[mo : mo + m]
                sm[k, :m] = norms_m[mo : mo + m]
                mi_idx[k, :m] = members
                q[k, :c] = rows_c[co : co + c]
                sc[k, :c] = norms_c[co : co + c]
                cj_idx[k, :c] = candidates
                mo += m
                co += c
            left.release(rows_m, norms_m, stats)
            cols.release(rows_c, norms_c, stats)
            t1 = time.perf_counter()
            gram = np.matmul(p, q.transpose(0, 2, 1))
            if hooks is not None:
                hooks.record("gather", t1 - t0)
                hooks.record("gemm", time.perf_counter() - t1)
            # Padded rows/cols have inf norms -> inf distance -> filtered.
            emit(gram, sm, sc, mi_idx.reshape(-1), cj_idx)
        batch, batch_m, batch_c, batch_fill = [], 0, 0, 0

    for members, candidates in groups:
        mc = members.size * candidates.size
        if mc > single_elems:
            flush()  # preserve group order across the two paths
            run_single(members, candidates)
            continue
        new_m = max(batch_m, members.size)
        new_c = max(batch_c, candidates.size)
        padded = (len(batch) + 1) * new_m * new_c
        if batch and (
            padded > batch_elems
            or len(batch) >= max_batch_groups
            or (batch_fill + mc) < min_fill * padded
        ):
            flush()
            new_m, new_c = members.size, candidates.size
        batch.append((members, candidates))
        batch_m, batch_c, batch_fill = new_m, new_c, batch_fill + mc
    flush()


def candidate_join(
    groups: Iterable[tuple[np.ndarray, np.ndarray]],
    left: Operand,
    eps2: float,
    right: Operand | None = None,
    *,
    batched: bool = False,
    batch_params: dict | None = None,
    on_group: Callable[[np.ndarray, np.ndarray], None] | None = None,
    store_distances: bool = True,
    acc: PairAccumulator | None = None,
    stats: "StreamStats | None" = None,
) -> PairAccumulator:
    """Index-backed join over ``(members, candidates)`` groups.

    ``groups`` pairs member indices into ``left`` with candidate indices
    into ``right`` -- or into ``left`` itself when ``right`` is None, the
    self-join, where ``gi == gj`` pairs are dropped; with a second operand
    (``GridIndex.iter_join_groups`` / ``MultiSpaceTree.iter_join_groups``
    drop external points into the right set's index) equal indices
    address different points and are kept.  Each group's distance block
    is evaluated in the operands' working precision with the candidate
    axis chunked at :func:`group_chunk`, filtered by ``eps2`` (inclusive)
    and appended in group order.

    Parameters
    ----------
    groups:
        Iterable of ``(members, candidates)`` global-index arrays, as
        produced by ``GridIndex.iter_cells`` /
        ``MultiSpaceTree.iter_groups`` (or their ``iter_join_groups``).
        Feeding size-sorted groups (``iter_cells(order="size")``) keeps
        padding waste low in batched mode.
    left, right:
        Operands; either may be source-backed, in which case member and
        candidate rows are gathered with ``source.take`` per group (per
        flush and side in batched mode) and the dataset is never resident.
    eps2:
        Squared radius in the working precision.
    batched:
        Fuse consecutive small groups into **one padded batch GEMM** per
        flush: groups are zero-padded to the buffer's max member /
        candidate counts and multiplied as a stacked ``(g, M, d) @ (g, d,
        C)`` ``np.matmul``.  Padded rows carry ``+inf`` norms so they can
        never pass the filter; real entries go through the same
        recombination as the per-group mode.  The pair *set* matches the
        per-group mode (tests/test_streaming.py pins this); FP32
        low-order distance bits may differ because BLAS may reassociate
        for the padded shapes -- the same caveat as ``row_block`` changes
        on the tile executor.
    batch_params:
        Overrides for :data:`DEFAULT_BATCH_PARAMS` in batched mode.
    on_group:
        Statistics hook invoked once per nonempty group, in group order,
        *before* evaluation -- kernels use it to tally candidate counts /
        sampling without a second index pass.
    store_distances:
        Track per-pair squared distances (ignored when ``acc`` is given).
    acc:
        Emit into this accumulator (e.g. a disk-spilling one).
    stats:
        Where source-backed operands account their transient gathers.
    """
    cols = _check_operands(left, right)
    if acc is None:
        acc = PairAccumulator(store_distances=store_distances)
    hooks = trace_mod.current_hooks()
    params = {**DEFAULT_BATCH_PARAMS, **(batch_params or {})} if batched else None
    _run_groups(
        _live_groups(groups, on_group, hooks), left, cols, eps2, acc,
        drop_self=right is None, batch_params=params, hooks=hooks, stats=stats,
    )
    return acc

