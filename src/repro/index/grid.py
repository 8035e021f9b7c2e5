"""Epsilon-grid index over a prefix of variance-ordered dimensions.

GDS-Join (Gowanlock & Karsin 2019; Gowanlock et al. 2023) indexes
high-dimensional data with a regular grid of cell width ``eps`` over the
first ``r`` dimensions only (indexing all dimensions would create an
astronomically sparse grid), after reordering coordinates by decreasing
variance so the indexed prefix is as discriminative as possible.  A range
query for point ``p`` must examine every point in the 3^r adjacent cells;
those are the *candidates* whose distances are actually computed.

The same structure backs TED-Join-Index's candidate generation.

The implementation is fully vectorized: cell ids are computed with one
``floordiv`` + row hashing, points are grouped by sorting, and candidates
are produced per *cell* (every point in a cell shares its candidate set),
which is exactly how the GPU algorithms batch their work.  Neighbor-cell
adjacency is resolved by binary search, as GDS-Join does over its sorted
non-empty cells: occupied cells are encoded once per index to scalar keys
whose numeric order equals the lexicographic cell order, and all
``cells x 3^r`` neighbor probes become a single ``np.searchsorted`` over
the sorted keys (chunked to bound temporaries).  The occupied-cell
adjacency is built once and shared by candidate generation and
:meth:`GridIndex.stats`; per-cell candidate arrays of occupied cells are
cached.  External query cells -- occupied or not -- are resolved by the
same probe, one batch per request (:meth:`GridIndex.iter_join_groups`),
so a query landing in an *empty* cell (the common case on a small delta
layer) costs a share of one vectorized probe, not 3^r Python dict
lookups.  Only geometry too wide for the int64 key encoding falls back
to per-cell dict probes.

The grid can also be built **out of core** (:meth:`GridIndex.from_source`):
the dataset streams through in row blocks -- variance, cell-coordinate
spans and the scalar cell keys are each computed in one streamed pass, and
the point grouping is an external *counting sort* over the row blocks --
so only ``O(n)`` key/permutation state plus one block is ever resident,
never the ``(n, d)`` float64 dataset.  The resulting index groups points
exactly like the in-memory constructor (both sorts are stable by the same
key order), so candidate iteration -- and therefore the kernels' join
results -- is identical (pinned by tests/test_two_source.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

#: Default row-block edge for the streamed (out-of-core) build passes.
_SOURCE_ROW_BLOCK = 65536

#: Probe-matrix budget for the batched adjacency pass (cells per chunk is
#: derived from this so a chunk's ``cells x 3^r`` int64 block stays small).
_ADJACENCY_CHUNK_ELEMS = 4_000_000

#: Cap on the total int64 entries retained by the per-cell candidate-array
#: cache (~32 MB).  On dense data the sum of all candidate arrays is
#: O(n^2); the cache keeps hot cells fast without letting a scan over
#: every cell pin that much memory.
_CAND_CACHE_MAX_ELEMS = 4_000_000

_I64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class _KeyCodec:
    """Mixed-radix cell-key encoding of one grid's occupied cells.

    One digit per indexed dimension, each with a one-slot margin below
    ``mins`` and above ``maxs``: a cell inside ``[mins - 1, maxs + 1]``
    has a unique key, and numeric key order is lexicographic cell order.
    A coordinate outside that band aliases into the neighbouring digit,
    so probes are only trusted while they stay inside ``[mins, maxs]``.
    """

    keys: np.ndarray  # (C,) ascending keys of the occupied cells
    strides: np.ndarray  # (r,) digit weights
    mins: np.ndarray  # (r,) occupied span per indexed dimension
    maxs: np.ndarray
    offsets: np.ndarray  # (3^r, r) neighbor offsets, product((-1, 0, 1)) order
    deltas: np.ndarray  # (3^r,) key delta of each offset


def variance_order(data: np.ndarray) -> np.ndarray:
    """Dimension permutation by decreasing variance (GDS-Join reordering).

    Besides improving index selectivity, this ordering is what makes
    short-circuiting effective: high-variance dimensions contribute to the
    running distance sum first, so non-neighbors are rejected early.
    """
    return np.argsort(-np.var(np.asarray(data, dtype=np.float64), axis=0), kind="stable")


def _group_by_cells(
    cells: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable lexicographic grouping of rows by their cell coordinates.

    Returns ``(sort, starts, ends, sorted_cells)``: the permutation
    ordering rows by cell (stable, so within-cell order is original row
    order) and the per-cell slice bounds into it.  The single definition
    of the grouping semantics shared by the in-memory build, the
    ``from_source`` overflow fallback, and external-query grouping -- the
    streamed counting sort of :meth:`GridIndex.from_source` reproduces it
    exactly, which is what the bit-identity contract rests on.
    """
    sort = np.lexsort(cells.T[::-1])
    sorted_cells = cells[sort]
    change = np.any(np.diff(sorted_cells, axis=0) != 0, axis=1)
    starts = np.concatenate(([0], np.nonzero(change)[0] + 1))
    ends = np.concatenate((starts[1:], [cells.shape[0]]))
    return sort, starts, ends, sorted_cells


def _iter_source_blocks(source, row_block: int, stats=None):
    """Yield ``(r0, r1, block)`` over a source, accounting residency.

    ``stats`` is an optional ``repro.core.engine.StreamStats`` (duck-typed:
    ``_acquire`` / ``_release`` / ``blocks_loaded``); each block is
    released once the consumer advances, so at most one block is charged.
    """
    for r0 in range(0, source.n, row_block):
        r1 = min(r0 + row_block, source.n)
        block = source.load_block(r0, r1)
        if stats is not None:
            stats._acquire(block.nbytes)
            stats.blocks_loaded += 1
        try:
            yield r0, r1, block
        finally:
            if stats is not None:
                stats._release(block.nbytes)


def variance_order_from_source(
    source, *, row_block: int = _SOURCE_ROW_BLOCK, stats=None
) -> np.ndarray:
    """Streamed :func:`variance_order`: two passes (mean, squared devs).

    Summation order differs from ``np.var`` over the resident array, so
    the per-dimension variances can differ in their last float64 bits; the
    *ordering* -- all that the grid consumes -- matches unless two
    dimensions' variances tie to within rounding.
    """
    n, d = int(source.n), int(source.dim)
    if n == 0:
        return np.arange(d)
    total = np.zeros(d, dtype=np.float64)
    for _r0, _r1, block in _iter_source_blocks(source, row_block, stats):
        total += block.sum(axis=0)
    mean = total / n
    ssd = np.zeros(d, dtype=np.float64)
    for _r0, _r1, block in _iter_source_blocks(source, row_block, stats):
        diff = block - mean
        ssd += (diff * diff).sum(axis=0)
    return np.argsort(-(ssd / n), kind="stable")


@dataclass
class GridStats:
    """Construction/query statistics consumed by the timing models.

    The group-shape moments (``mean_members`` / ``std_members`` over
    per-cell member counts, ``mean_group_candidates`` /
    ``std_group_candidates`` over per-cell candidate-set sizes) also
    drive the batched mode's derived knobs
    (:func:`repro.core.engine.batch_params_from_stats`) and the
    query-serving layer's kNN starting radius.
    """

    n_points: int
    n_indexed_dims: int
    n_nonempty_cells: int
    total_candidates: int  # sum over points of candidate-set sizes
    mean_members: float = 0.0  # mean points per nonempty cell
    std_members: float = 0.0
    mean_group_candidates: float = 0.0  # mean candidate-set size per cell
    std_group_candidates: float = 0.0

    @property
    def mean_candidates(self) -> float:
        return self.total_candidates / max(self.n_points, 1)


class GridIndex:
    """Grid over the first ``r`` variance-ordered dimensions.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    eps:
        Cell width = search radius, the standard choice: all neighbors of a
        point lie within the 3^r adjacent cells.
    n_dims:
        Number of indexed dimensions ``r``; capped at 6 like GDS-Join (the
        adjacency fan-out is 3^r).
    reorder:
        Apply variance ordering before indexing (on by default, matching
        the reference implementation).
    """

    def __init__(
        self,
        data: np.ndarray,
        eps: float,
        n_dims: int = 6,
        *,
        reorder: bool = True,
    ) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be (n, d)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        n, d = data.shape
        order = variance_order(data) if reorder else np.arange(d)
        r = int(min(n_dims, d))
        proj = data[:, order[:r]]
        self._cells = np.floor(proj / float(eps)).astype(np.int64)
        # Group points by cell via lexicographic sort.
        sort, starts, ends, sorted_cells = _group_by_cells(self._cells)
        self._install(
            eps=float(eps),
            n_points=n,
            n_dims_data=d,
            order=order,
            r=r,
            sort=sort,
            starts=starts,
            ends=ends,
            unique=np.ascontiguousarray(sorted_cells[starts]),
        )

    def _install(
        self,
        *,
        eps: float,
        n_points: int,
        n_dims_data: int,
        order: np.ndarray,
        r: int,
        sort: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        unique: np.ndarray,
    ) -> None:
        """Common tail of both constructors: grouped state + lazy caches."""
        self.eps = eps
        self.n_points = n_points
        self.n_dims_data = n_dims_data
        self.order = order
        self.r = r
        self._sort = sort
        self._starts = starts
        self._ends = ends
        #: Occupied cell coordinates in lexicographic order, shape (C, r).
        self._unique = unique
        self._cell_keys = [tuple(row) for row in self._unique]
        #: Single key -> occupied-cell-index mapping; slices come from
        #: _starts/_ends so there is one source of truth for cell extents.
        self._cell_id = {key: i for i, key in enumerate(self._cell_keys)}
        #: Cell-key encoding every probe searches (None: unencodable).
        self._codec = self._encode()
        # Lazily built batched adjacency (CSR over occupied-cell indices)
        # and the per-cell candidate-array cache it feeds.
        self._nbr_indptr: np.ndarray | None = None
        self._nbr_cells: np.ndarray | None = None
        self._cand_cache: dict[int, np.ndarray] = {}
        self._cand_cache_elems = 0

    @classmethod
    def from_source(
        cls,
        source,
        eps: float,
        n_dims: int = 6,
        *,
        reorder: bool = True,
        row_block: int = _SOURCE_ROW_BLOCK,
        stats=None,
    ) -> "GridIndex":
        """Out-of-core grid build: the dataset streams through in row blocks.

        Equivalent to ``GridIndex(source.materialize(), eps, n_dims)``
        without ever holding the ``(n, d)`` float64 dataset: the streamed
        passes keep one ``row_block`` block resident and the build state is
        ``O(n)`` (scalar cell keys + the point permutation) plus the
        occupied-cell structures every grid holds anyway.

        Pipeline (each step one pass over ``source``):

        1. streamed variance -> dimension order
           (:func:`variance_order_from_source`; see its note on ordering
           ties -- cell *assignment* is bit-exact either way);
        2. cell-coordinate spans (per-dimension min/max of
           ``floor(proj / eps)``);
        3. streamed **cell-key encoding**: each row's cell encoded to one
           mixed-radix int64 whose numeric order equals the lexicographic
           cell order;
        4. external **counting sort over row blocks**: unique keys +
           counts give each cell's slot range, then every block's rows are
           placed at their cell cursors (stable: blocks in order,
           stable argsort within a block) -- producing exactly the
           permutation the in-memory ``np.lexsort`` yields.

        When the coordinate spans are too wide for the int64 encoding
        (pathological eps), the build falls back to materializing the
        ``(n, r)`` cell-coordinate array and lexsorting it -- still never
        the dataset itself.

        Parameters
        ----------
        source:
            ``DatasetSource`` (or anything :func:`repro.data.source.as_source`
            accepts).
        eps, n_dims, reorder:
            As for the in-memory constructor.
        row_block:
            Rows per streamed block.
        stats:
            Optional ``repro.core.engine.StreamStats`` accounting the pass
            loads (block residency + ``blocks_loaded``).
        """
        from repro.data.source import as_source

        source = as_source(source)
        if eps <= 0:
            raise ValueError("eps must be positive")
        n, d = int(source.n), int(source.dim)
        order = (
            variance_order_from_source(source, row_block=row_block, stats=stats)
            if reorder
            else np.arange(d)
        )
        r = int(min(n_dims, d))
        proj_dims = order[:r]
        eps = float(eps)

        obj = cls.__new__(cls)
        if n == 0:
            obj._install(
                eps=eps, n_points=0, n_dims_data=d, order=order, r=r,
                sort=np.empty(0, np.int64),
                starts=np.empty(0, np.int64), ends=np.empty(0, np.int64),
                unique=np.empty((0, r), np.int64),
            )
            return obj

        def block_cells(block: np.ndarray) -> np.ndarray:
            # Identical elementwise op on identical float64 values, so the
            # coordinates are bit-exactly those of the in-memory build.
            return np.floor(block[:, proj_dims] / eps).astype(np.int64)

        # Pass: per-dimension cell-coordinate spans.
        mins = np.full(r, np.iinfo(np.int64).max, dtype=np.int64)
        maxs = np.full(r, np.iinfo(np.int64).min, dtype=np.int64)
        for _r0, _r1, block in _iter_source_blocks(source, row_block, stats):
            cells = block_cells(block)
            np.minimum(mins, cells.min(axis=0), out=mins)
            np.maximum(maxs, cells.max(axis=0), out=maxs)

        # Overflow guard in float64 (cf. GridIndex._encode): extreme spans
        # would wrap the int64 key arithmetic.
        spans_f = maxs.astype(np.float64) - mins.astype(np.float64) + 3.0
        if r and float(np.prod(spans_f)) >= 2.0**62:
            # Fallback: materialize the (n, r) coordinates and lexsort --
            # same grouping, O(n*r) resident instead of O(n).
            cells = np.empty((n, r), dtype=np.int64)
            for r0, r1, block in _iter_source_blocks(source, row_block, stats):
                cells[r0:r1] = block_cells(block)
            sort, starts, ends, sorted_cells = _group_by_cells(cells)
            obj._install(
                eps=eps, n_points=n, n_dims_data=d, order=order, r=r,
                sort=sort, starts=starts, ends=ends,
                unique=np.ascontiguousarray(sorted_cells[starts]),
            )
            return obj

        spans = maxs - mins + 3  # +-1 probe margins, matching _encode
        strides = np.ones(max(r, 1), dtype=np.int64)[:r]
        for k in range(r - 2, -1, -1):
            strides[k] = strides[k + 1] * spans[k + 1]

        # Pass: streamed cell-key encoding (numeric key order == lex order).
        keys = np.empty(n, dtype=np.int64)
        for r0, r1, block in _iter_source_blocks(source, row_block, stats):
            keys[r0:r1] = ((block_cells(block) - mins + 1) * strides).sum(axis=1)

        ukeys, counts = np.unique(keys, return_counts=True)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ends = starts + counts

        # External counting sort over row blocks: place each block's rows
        # at their cell cursors.  Stable (blocks in order, stable argsort
        # within each block), so the permutation equals np.lexsort's.
        sort = np.empty(n, dtype=np.int64)
        cursors = starts.copy()
        for b0 in range(0, n, row_block):
            kb = keys[b0 : b0 + row_block]
            ci = np.searchsorted(ukeys, kb)
            blk_order = np.argsort(ci, kind="stable")
            cs = ci[blk_order]
            run_start = np.concatenate(([0], np.nonzero(np.diff(cs))[0] + 1))
            run_len = np.diff(np.concatenate((run_start, [cs.size])))
            ranks = np.arange(cs.size) - np.repeat(run_start, run_len)
            sort[cursors[cs] + ranks] = b0 + blk_order
            cursors += np.bincount(ci, minlength=ukeys.size)

        # Decode the unique keys back to cell coordinates (exact ints).
        unique = np.empty((ukeys.size, r), dtype=np.int64)
        for k in range(r):
            unique[:, k] = (ukeys // strides[k]) % spans[k] + mins[k] - 1

        obj._install(
            eps=eps, n_points=n, n_dims_data=d, order=order, r=r,
            sort=sort, starts=starts, ends=ends, unique=unique,
        )
        return obj

    # ------------------------------------------------------------------
    # Batched neighbor-cell adjacency
    # ------------------------------------------------------------------

    def _encode(self) -> _KeyCodec | None:
        """The grid's cell-key encoding (built once, at install), or None.

        Returns None when there are no occupied cells or the coordinate
        spans are so wide the encoding would overflow int64 (pathological
        eps); callers then fall back to :meth:`_dict_probe`.
        """
        unique = self._unique
        if not unique.shape[0]:
            return None
        mins = unique.min(axis=0)
        maxs = unique.max(axis=0)
        # Overflow guard must run in float64 *before* any int64 span math:
        # extreme coordinate ranges (|cell| ~ 2**62) would wrap the int64
        # subtraction itself and corrupt the keys silently.  Probes also
        # step two past the span, so its ends must leave that much room.
        spans_f = maxs.astype(np.float64) - mins.astype(np.float64) + 3.0
        if float(np.prod(spans_f)) >= 2.0**62 or (
            self.r and (mins.min() < _I64.min + 2 or maxs.max() > _I64.max - 2)
        ):
            return None
        spans = maxs - mins + 3  # +2: margin for +-1 probes (now wrap-safe)
        strides = np.ones(self.r, dtype=np.int64)
        for k in range(self.r - 2, -1, -1):
            strides[k] = strides[k + 1] * spans[k + 1]
        offsets = np.array(
            list(product((-1, 0, 1), repeat=self.r)), dtype=np.int64
        ).reshape(3**self.r, self.r)
        return _KeyCodec(
            keys=((unique - mins + 1) * strides).sum(axis=1),
            strides=strides,
            mins=mins,
            maxs=maxs,
            offsets=offsets,
            deltas=(offsets * strides).sum(axis=1),
        )

    def _dict_probe(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_probe` by 3^r dict lookups per cell key, same output.

        Only for geometry :meth:`_encode` cannot encode.
        """
        rows = []
        for key in keys:
            hits = []
            for offset in product((-1, 0, 1), repeat=self.r):
                nb = self._cell_id.get(tuple(k + o for k, o in zip(key, offset)))
                if nb is not None:
                    hits.append(nb)
            rows.append(hits)
        counts = np.array([len(h) for h in rows], dtype=np.int64)
        return counts, np.array([c for h in rows for c in h], dtype=np.int64)

    def _probe(
        self, codec: _KeyCodec, cells: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve every 3^r neighbor probe of ``cells`` by binary search.

        ``cells`` (coordinates inside ``[mins - 1, maxs + 1]``) and their
        ``keys``.  Returns ``(counts, hits)``: per cell, how many occupied
        neighbors it has, and those neighbors' occupied-cell indices
        concatenated in cell order and, within a cell, in probe order.
        Chunked so one chunk's ``cells x 3^r`` probe block stays small.
        """
        n_cells = codec.keys.size
        fan = codec.deltas.size
        chunk = max(1, _ADJACENCY_CHUNK_ELEMS // fan)
        counts = np.empty(cells.shape[0], dtype=np.int64)
        hit_chunks: list[np.ndarray] = [np.empty(0, np.int64)]
        for b0 in range(0, cells.shape[0], chunk):
            b1 = min(b0 + chunk, cells.shape[0])
            probes = keys[b0:b1, None] + codec.deltas[None, :]
            idx = np.searchsorted(codec.keys, probes)
            np.minimum(idx, n_cells - 1, out=idx)
            valid = codec.keys[idx] == probes
            block = cells[b0:b1]
            outside = np.any(
                (block < codec.mins) | (block > codec.maxs), axis=1
            )
            if outside.any():
                # A cell on the margin probes two steps past the span,
                # where its key borrows from (or carries into) the
                # neighbouring digit.  The alias lands on a margin digit
                # no occupied key has, but mask every probe that leaves
                # [mins, maxs] (it hits nothing) rather than lean on that.
                e = np.nonzero(outside)[0]
                for k in range(self.r):
                    col = block[e, k, None] + np.array([-1, 0, 1])
                    inside = (col >= codec.mins[k]) & (col <= codec.maxs[k])
                    valid[e] &= inside[:, codec.offsets[:, k] + 1]
            counts[b0:b1] = valid.sum(axis=1)
            # Row-major selection keeps the probe (offset-product) order
            # within each cell, matching the reference iteration order.
            hit_chunks.append(idx[valid])
        return counts, np.concatenate(hit_chunks)

    def _build_adjacency(self) -> None:
        """One vectorized pass resolving every cell's 3^r neighbor probes."""
        if self._nbr_indptr is not None:
            return
        codec = self._codec
        if codec is None:
            counts, hits = self._dict_probe(self._cell_keys)
        else:
            counts, hits = self._probe(codec, self._unique, codec.keys)
        # _nbr_cells first: the build guard checks _nbr_indptr, so a
        # concurrent reader (serving engines share one index across
        # threads) must never see indptr published before cells.
        self._nbr_cells = hits
        self._nbr_indptr = np.concatenate(([0], np.cumsum(counts)))

    def _resolve_cells(
        self, cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reach-1 neighbor cells of external query cells, in one pass.

        ``cells`` is ``(G, r)`` query cell coordinates.  Returns
        ``(occupied, indptr, hits)``: ``occupied[g]`` is the occupied-cell
        index of query cell ``g`` (its candidates come from the cached
        adjacency) or -1; an unoccupied cell's adjacent occupied cells
        are ``hits[indptr[g]:indptr[g + 1]]`` in probe order.
        """
        g = cells.shape[0]
        occupied = np.full(g, -1, dtype=np.int64)
        counts = np.zeros(g, dtype=np.int64)
        codec = self._codec if g else None
        if codec is None:
            keys = [tuple(key) for key in cells.tolist()]
            occupied[:] = [self._cell_id.get(key, -1) for key in keys]
            empty = np.nonzero(occupied < 0)[0]
            counts[empty], hits = self._dict_probe([keys[i] for i in empty])
        else:
            # A cell more than one step outside the span reaches no
            # occupied cell; the rest have unique keys (inside the digit
            # margins).
            near = np.nonzero(
                np.all(
                    (cells >= codec.mins - 1) & (cells <= codec.maxs + 1),
                    axis=1,
                )
            )[0]
            near_cells = cells[near]
            keys = ((near_cells - codec.mins + 1) * codec.strides).sum(axis=1)
            pos = np.searchsorted(codec.keys, keys)
            np.minimum(pos, codec.keys.size - 1, out=pos)
            found = codec.keys[pos] == keys
            occupied[near[found]] = pos[found]
            empty = ~found
            counts[near[empty]], hits = self._probe(
                codec, near_cells[empty], keys[empty]
            )
        return occupied, np.concatenate(([0], np.cumsum(counts))), hits

    def _cell_candidates(
        self, resolved: tuple[np.ndarray, np.ndarray, np.ndarray], g: int
    ) -> np.ndarray:
        """Candidates of query cell ``g`` of a :meth:`_resolve_cells` result."""
        occupied, indptr, hits = resolved
        ci = int(occupied[g])
        if ci >= 0:
            return self._candidates_of_index(ci, cache=True)
        return self._gather(hits[indptr[g] : indptr[g + 1]])

    def _neighbor_cells(self, cell_index: int) -> np.ndarray:
        """Occupied-cell indices adjacent to one cell (itself included)."""
        self._build_adjacency()
        s, e = self._nbr_indptr[cell_index], self._nbr_indptr[cell_index + 1]
        return self._nbr_cells[s:e]

    # ------------------------------------------------------------------

    def points_in_cell(self, key: tuple[int, ...]) -> np.ndarray:
        """Original indices of the points in one cell."""
        ci = self._cell_id.get(tuple(key))
        if ci is None:
            return np.empty(0, dtype=np.int64)
        return self._sort[self._starts[ci] : self._ends[ci]]

    def _gather(self, cells: np.ndarray) -> np.ndarray:
        """Fresh array of the points in ``cells``, cell by cell in order."""
        if not cells.size:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [self._sort[self._starts[b] : self._ends[b]] for b in cells]
        )

    def _candidates_of_index(self, cell_index: int, *, cache: bool) -> np.ndarray:
        cached = self._cand_cache.get(cell_index)
        if cached is not None:
            return cached
        out = self._gather(self._neighbor_cells(cell_index))
        if cache and self._cand_cache_elems + out.size <= _CAND_CACHE_MAX_ELEMS:
            # Cached arrays are handed out on every later query: freeze
            # them so an in-place edit by a caller fails loudly instead of
            # silently corrupting the index.
            out.flags.writeable = False
            self._cand_cache[cell_index] = out
            self._cand_cache_elems += out.size
        return out

    def candidates_of_cell(
        self, key: tuple[int, ...], *, reach: int = 1
    ) -> np.ndarray:
        """Candidate indices for a cell: points in the adjacent cells.

        With the default ``reach=1`` these are the 3^r adjacent cells --
        sound for query radii up to the cell width ``eps``.  ``reach=m``
        widens the probe to every occupied cell within Chebyshev distance
        ``m`` in the indexed dimensions, which is sound for radii up to
        ``m * eps`` (a coordinate difference of at most ``m * eps`` moves
        the floor-divided cell coordinate by at most ``m``): the expanding
        search the query-serving layer's kNN uses.

        The key does not have to be occupied -- a query point can land in
        an empty cell whose neighbors hold points.  Occupied-cell
        ``reach=1`` queries are cached and reuse the batched adjacency;
        the returned array may be that shared cache entry and is then
        read-only (copy it before mutating).  Empty-cell ``reach=1``
        queries are resolved by the same key-encoded binary-search probe
        (:meth:`iter_join_groups` batches it over a whole request) and,
        like ``reach>1`` queries, return fresh arrays.  ``reach=1``
        candidates come in probe (offset-product) order, ``reach>1`` in
        lexicographic cell order, which no consumer depends on.
        """
        key = tuple(key)
        if reach < 1:
            raise ValueError("reach must be >= 1")
        if reach > 1:
            if self.r == 0 or not len(self._cell_keys):
                # Zero indexed dims: one cell holds everything.
                return self._sort.copy() if len(self._cell_keys) else np.empty(0, np.int64)
            # Chebyshev filter over the occupied cells (lexicographic
            # order): O(C * r) per queried cell, no (2m+1)^r probe blowup.
            key_arr = np.asarray(key, dtype=np.int64)
            near = np.abs(self._unique - key_arr).max(axis=1) <= reach
            return self._gather(np.nonzero(near)[0])
        resolved = self._resolve_cells(
            np.asarray(key, dtype=np.int64).reshape(1, self.r)
        )
        return self._cell_candidates(resolved, 0)

    def iter_cells(self, *, order: str = "lex"):
        """Yield ``(members, candidates)`` index arrays per nonempty cell.

        Bulk scans reuse any cached arrays but do not populate the cache
        (one transient candidate array at a time keeps memory bounded,
        matching the kernels' streaming consumption).

        Parameters
        ----------
        order:
            ``"lex"`` (default): lexicographic cell order, the reference
            iteration order every bit-identity test pins.  ``"size"``:
            cells sorted by (member count, candidate-cell fan-in) so
            consecutive cells have similar padded shapes -- what the
            batched mode of :func:`repro.core.engine.candidate_join`
            wants, since one batch's padding waste is set by its largest
            group.  The pair *set* is order-independent.
        """
        self._build_adjacency()
        cells = range(len(self._cell_keys))
        if order == "size":
            member_counts = self._ends - self._starts
            fan_in = np.diff(self._nbr_indptr)
            cells = np.lexsort((fan_in, member_counts))
        elif order != "lex":
            raise ValueError("order must be 'lex' or 'size'")
        for ci in cells:
            members = self._sort[self._starts[ci] : self._ends[ci]]
            yield members, self._candidates_of_index(ci, cache=False)

    def iter_join_groups(
        self, queries, *, row_block: int = _SOURCE_ROW_BLOCK, reach: int = 1
    ):
        """Yield ``(query_members, candidates)`` for an external query set.

        The two-source (A x B) counterpart of :meth:`iter_cells`: this
        index was built over the *right* set B; ``queries`` is the left
        set A (an ndarray, a ``DatasetSource``, or a path).  Each query
        point is dropped into B's grid -- projected with **B's** variance
        order and cell width -- queries sharing a cell are grouped, and
        the group's candidates are the B points of the 3^r adjacent cells,
        exactly :meth:`candidates_of_cell`'s arrays.  At ``reach=1`` all
        of the request's query cells are resolved in one binary-search
        probe (:meth:`_resolve_cells`): occupied ones reuse the cached
        adjacency, unoccupied ones -- most of them, on a small index --
        gather their hit cells in probe order.  Yields ``(A-index array,
        B-index array)`` groups for
        :func:`repro.core.engine.candidate_join`; query cell coordinates
        are computed in streamed row blocks, so A never has to be resident
        (the ``O(n_A)`` cell/permutation state is).  ``reach`` widens the
        candidate probe for radii beyond one cell width (see
        :meth:`candidates_of_cell`).
        """
        from repro.data.source import as_source

        src = as_source(queries)
        if int(src.dim) != int(self.n_dims_data):
            raise ValueError(
                f"query dimensionality {src.dim} != indexed {self.n_dims_data}"
            )
        nq = int(src.n)
        if nq == 0:
            return
        proj_dims = self.order[: self.r]
        qcells = np.empty((nq, self.r), dtype=np.int64)
        for r0 in range(0, nq, row_block):
            r1 = min(r0 + row_block, nq)
            block = src.load_block(r0, r1)
            qcells[r0:r1] = np.floor(block[:, proj_dims] / self.eps).astype(
                np.int64
            )
        qsort, starts, ends, sorted_cells = _group_by_cells(qcells)
        if reach != 1:
            for s, e in zip(starts, ends):
                yield qsort[s:e], self.candidates_of_cell(
                    tuple(sorted_cells[s]), reach=reach
                )
            return
        resolved = self._resolve_cells(sorted_cells[starts])
        for g, (s, e) in enumerate(zip(starts, ends)):
            yield qsort[s:e], self._cell_candidates(resolved, g)

    def stats(self) -> GridStats:
        """Candidate-count statistics (drives the baselines' cost models).

        Computed from the shared adjacency in a few reductions -- candidate
        arrays are never materialized (nor recomputed) for this.
        """
        self._build_adjacency()
        member_counts = self._ends - self._starts
        if member_counts.size:
            cand_sizes = np.add.reduceat(
                member_counts[self._nbr_cells], self._nbr_indptr[:-1]
            )
            total = int((member_counts * cand_sizes).sum())
            mean_m, std_m = float(member_counts.mean()), float(member_counts.std())
            mean_c, std_c = float(cand_sizes.mean()), float(cand_sizes.std())
        else:
            total = 0
            mean_m = std_m = mean_c = std_c = 0.0
        return GridStats(
            n_points=self.n_points,
            n_indexed_dims=self.r,
            n_nonempty_cells=len(self._cell_keys),
            total_candidates=total,
            mean_members=mean_m,
            std_members=std_m,
            mean_group_candidates=mean_c,
            std_group_candidates=std_c,
        )
