"""MiSTIC-style multi-space partitioning (Donnelly & Gowanlock 2024).

MiSTIC combines **coordinate-based** partitioning (grid cells over selected
dimensions) with **metric-based** partitioning (rings of width ``eps``
around pivot points; the triangle inequality prunes any candidate whose
ring index differs by more than one) and constructs the index
*incrementally*: at every level it evaluates a pool of candidate partitions
(the paper uses 38) on a sample and keeps the one that minimizes the
expected candidate count.

Our reproduction keeps that decision structure: each level chooses between
one coordinate split (per remaining high-variance dimension) and one metric
split (per random pivot), scored by the sum of squared partition
populations (proportional to expected candidate pairs).  Queries intersect
the level-wise neighbor ranges, so the candidate set is never larger than a
pure grid over the same dimensions -- the property that makes MiSTIC beat
GDS-Join in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.grid import (
    _SOURCE_ROW_BLOCK,
    GridStats,
    _iter_source_blocks,
    variance_order,
    variance_order_from_source,
)


@dataclass(frozen=True)
class _Level:
    """One partitioning level: either a coordinate or a metric split."""

    kind: str  # "coord" | "metric"
    param: int  # dimension index (coord) or pivot row (metric)
    bins: np.ndarray  # per-point ring/cell index at this level
    #: Pivot coordinates for metric levels (needed to bin *external* query
    #: points for two-source joins); None for coordinate levels.
    pivot_point: np.ndarray | None = None


def _score(bins: np.ndarray) -> float:
    """Expected candidate-pair proxy: sum over bins of (n_b * window_b).

    For eps-width bins a query must inspect its own bin and both neighbor
    bins, so the candidate count of a point in bin ``b`` is
    ``n_{b-1} + n_b + n_{b+1}``; summing over points gives the total.
    """
    counts = np.bincount(bins - bins.min())
    padded = np.concatenate(([0], counts, [0]))
    window = padded[:-2] + padded[1:-1] + padded[2:]
    return float(np.dot(counts, window))


class MultiSpaceTree:
    """Incrementally-constructed multi-space index.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    eps:
        Search radius; bins/rings have width ``eps``.
    n_levels:
        Partitioning levels (paper configuration: 6).
    n_candidates:
        Candidate partitions evaluated per level (paper: 38), split between
        coordinate dimensions and metric pivots.
    seed:
        RNG seed for pivot selection.
    """

    def __init__(
        self,
        data: np.ndarray,
        eps: float,
        n_levels: int = 6,
        n_candidates: int = 38,
        seed: int = 0,
    ) -> None:
        data = np.asarray(data, dtype=np.float64)
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.n_points, self.dims = data.shape
        rng = np.random.default_rng(seed)
        order = variance_order(data)
        self.levels: list[_Level] = []
        used_dims: set[int] = set()
        n_coord = max(1, n_candidates // 2)
        n_metric = max(1, n_candidates - n_coord)
        self.construction_evaluations = 0
        for _ in range(n_levels):
            best: _Level | None = None
            best_score = np.inf
            # Coordinate candidates: next unused high-variance dimensions.
            coord_dims = [d for d in order if int(d) not in used_dims][:n_coord]
            for dim in coord_dims:
                bins = np.floor(data[:, dim] / self.eps).astype(np.int64)
                s = _score(bins)
                self.construction_evaluations += 1
                if s < best_score:
                    best, best_score = _Level("coord", int(dim), bins), s
            # Metric candidates: rings around random pivots.
            for pivot in rng.integers(0, self.n_points, size=n_metric):
                dist = np.sqrt(((data - data[pivot]) ** 2).sum(axis=1))
                bins = np.floor(dist / self.eps).astype(np.int64)
                s = _score(bins)
                self.construction_evaluations += 1
                if s < best_score:
                    best, best_score = (
                        _Level("metric", int(pivot), bins, data[pivot].copy()),
                        s,
                    )
            assert best is not None
            self.levels.append(best)
            if best.kind == "coord":
                used_dims.add(best.param)

    @classmethod
    def from_source(
        cls,
        source,
        eps: float,
        n_levels: int = 6,
        n_candidates: int = 38,
        seed: int = 0,
        *,
        row_block: int = _SOURCE_ROW_BLOCK,
        stats=None,
    ) -> "MultiSpaceTree":
        """Out-of-core tree build: every candidate evaluation streams blocks.

        Equivalent to ``MultiSpaceTree(source.materialize(), eps, ...)``
        without ever holding the ``(n, d)`` dataset: per-candidate bin
        arrays are computed block by block (coordinate bins are a
        single-column floor-divide; metric bins need only the pivot row,
        gathered with ``source.take``), so resident state is the ``O(n)``
        bin arrays plus one block.  Bins are row-local, so they -- and
        hence the chosen levels -- are bit-exactly the in-memory build's
        (modulo the streamed-variance ordering note on
        :func:`repro.index.grid.variance_order_from_source`).  The many
        streamed passes *are* MiSTIC's incremental-construction cost.
        """
        from repro.data.source import as_source

        source = as_source(source)
        if eps <= 0:
            raise ValueError("eps must be positive")
        obj = cls.__new__(cls)
        obj.eps = float(eps)
        obj.n_points, obj.dims = int(source.n), int(source.dim)
        rng = np.random.default_rng(seed)
        order = variance_order_from_source(source, row_block=row_block, stats=stats)
        obj.levels = []
        used_dims: set[int] = set()
        n_coord = max(1, n_candidates // 2)
        n_metric = max(1, n_candidates - n_coord)
        obj.construction_evaluations = 0

        def coord_bins(dim: int) -> np.ndarray:
            bins = np.empty(obj.n_points, dtype=np.int64)
            for r0, r1, block in _iter_source_blocks(source, row_block, stats):
                bins[r0:r1] = np.floor(block[:, dim] / obj.eps).astype(np.int64)
            return bins

        def metric_bins(pivot_point: np.ndarray) -> np.ndarray:
            bins = np.empty(obj.n_points, dtype=np.int64)
            for r0, r1, block in _iter_source_blocks(source, row_block, stats):
                dist = np.sqrt(((block - pivot_point) ** 2).sum(axis=1))
                bins[r0:r1] = np.floor(dist / obj.eps).astype(np.int64)
            return bins

        for _ in range(n_levels):
            best: _Level | None = None
            best_score = np.inf
            coord_dims = [d for d in order if int(d) not in used_dims][:n_coord]
            for dim in coord_dims:
                bins = coord_bins(int(dim))
                s = _score(bins)
                obj.construction_evaluations += 1
                if s < best_score:
                    best, best_score = _Level("coord", int(dim), bins), s
            for pivot in rng.integers(0, obj.n_points, size=n_metric):
                pivot_point = source.take(np.array([pivot]))[0]
                bins = metric_bins(pivot_point)
                s = _score(bins)
                obj.construction_evaluations += 1
                if s < best_score:
                    best, best_score = (
                        _Level("metric", int(pivot), bins, pivot_point),
                        s,
                    )
            assert best is not None
            obj.levels.append(best)
            if best.kind == "coord":
                used_dims.add(best.param)
        return obj

    # ------------------------------------------------------------------

    def candidate_mask_for(self, idx: int) -> np.ndarray:
        """Boolean mask of candidates of point ``idx`` (level intersection).

        A point ``q`` survives as a candidate of ``p`` iff at *every* level
        its bin index is within +-1 of ``p``'s -- the eps-width bin property
        for coordinate levels, the triangle inequality for metric levels.
        """
        mask = np.ones(self.n_points, dtype=bool)
        for level in self.levels:
            mask &= np.abs(level.bins - level.bins[idx]) <= 1
        return mask

    def candidate_counts(self, sample: np.ndarray | None = None) -> np.ndarray:
        """Candidate-set sizes for all points (or a sample of points)."""
        idxs = np.arange(self.n_points) if sample is None else np.asarray(sample)
        return np.array([int(self.candidate_mask_for(int(i)).sum()) for i in idxs])

    def total_candidates(self, sample_size: int = 512, seed: int = 1) -> int:
        """Estimated total candidate count over all points.

        Exact for small datasets; sampled (with scaling) above
        ``sample_size`` to keep index statistics cheap.
        """
        if self.n_points <= sample_size:
            return int(self.candidate_counts().sum())
        rng = np.random.default_rng(seed)
        sample = rng.choice(self.n_points, size=sample_size, replace=False)
        mean = float(self.candidate_counts(sample).mean())
        return int(mean * self.n_points)

    def iter_groups(self, group: int = 1024):
        """Yield ``(members, candidates)`` for blocks of points.

        Members are processed in natural order; each block's candidate set
        is the union of its members' masks -- mirroring how the GPU kernel
        assigns points to warps and loads the union working set.
        """
        for start in range(0, self.n_points, group):
            members = np.arange(start, min(start + group, self.n_points))
            # Union of per-member candidate masks, computed vectorized: a
            # point is a candidate of the block if at every level its bin
            # lies within [min_b - 1, max_b + 1] of the block's bins. This
            # is a superset of the exact union but much cheaper; the exact
            # per-pair filter happens in the join's distance computation.
            block_mask = np.ones(self.n_points, dtype=bool)
            for level in self.levels:
                b = level.bins[members]
                block_mask &= (level.bins >= b.min() - 1) & (level.bins <= b.max() + 1)
            yield members, np.nonzero(block_mask)[0]

    def stats(self, group: int = 1024) -> GridStats:
        """Group-shape moments, mirroring :meth:`GridIndex.stats`.

        The tree's unit of work is the :meth:`iter_groups` block (the
        grid's is the cell), so the moments are over per-group member
        counts and candidate-set sizes: ``n_nonempty_cells`` counts
        groups, ``n_indexed_dims`` counts partitioning levels, and
        ``total_candidates`` is the sum over points of their group's
        candidate-set size -- the same duck-typed contract
        :func:`repro.core.engine.batch_params_from_stats` consumes, so
        tree-backed batched executors get measured knobs instead of the
        static defaults.  Returned as a :class:`GridStats` (same fields,
        same semantics per unit of work).
        """
        member_counts: list[int] = []
        cand_sizes: list[int] = []
        total = 0
        for members, candidates in self.iter_groups(group=group):
            member_counts.append(int(members.size))
            cand_sizes.append(int(candidates.size))
            total += int(members.size) * int(candidates.size)
        if member_counts:
            mc = np.asarray(member_counts, dtype=np.float64)
            cs = np.asarray(cand_sizes, dtype=np.float64)
            mean_m, std_m = float(mc.mean()), float(mc.std())
            mean_c, std_c = float(cs.mean()), float(cs.std())
        else:
            mean_m = std_m = mean_c = std_c = 0.0
        return GridStats(
            n_points=self.n_points,
            n_indexed_dims=len(self.levels),
            n_nonempty_cells=len(member_counts),
            total_candidates=total,
            mean_members=mean_m,
            std_members=std_m,
            mean_group_candidates=mean_c,
            std_group_candidates=std_c,
        )

    def query_bins(self, queries: np.ndarray) -> list[np.ndarray]:
        """Per-level bin indices of *external* query points.

        Coordinate levels floor-divide the level's dimension; metric
        levels ring the stored pivot point.  The same +-1 window property
        holds for external points: a query's neighbors in the indexed set
        lie within one bin at every level (eps-width bins; triangle
        inequality for rings).
        """
        queries = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
        bins = []
        for level in self.levels:
            if level.kind == "coord":
                qb = np.floor(queries[:, level.param] / self.eps).astype(np.int64)
            else:
                dist = np.sqrt(((queries - level.pivot_point) ** 2).sum(axis=1))
                qb = np.floor(dist / self.eps).astype(np.int64)
            bins.append(qb)
        return bins

    def iter_join_groups(
        self,
        queries,
        group: int = 1024,
        *,
        row_block: int = _SOURCE_ROW_BLOCK,
    ):
        """Yield ``(query_members, candidates)`` for an external query set.

        The two-source counterpart of :meth:`iter_groups`: this tree
        indexes the right set B; ``queries`` is the left set A (ndarray,
        source, or path).  Query blocks are binned per level
        (:meth:`query_bins`, computed in streamed row blocks) and each
        block's candidates are the B points inside the block's +-1 bin
        window at every level -- a superset of the exact union, with the
        exact filter happening in the join's distance computation.
        """
        from repro.data.source import as_source

        src = as_source(queries)
        if int(src.dim) != int(self.dims):
            raise ValueError(
                f"query dimensionality {src.dim} != indexed {self.dims}"
            )
        nq = int(src.n)
        qbins = [np.empty(nq, dtype=np.int64) for _ in self.levels]
        for r0 in range(0, nq, row_block):
            r1 = min(r0 + row_block, nq)
            for dst, qb in zip(qbins, self.query_bins(src.load_block(r0, r1))):
                dst[r0:r1] = qb
        for start in range(0, nq, group):
            members = np.arange(start, min(start + group, nq))
            block_mask = np.ones(self.n_points, dtype=bool)
            for level, qb in zip(self.levels, qbins):
                b = qb[members]
                block_mask &= (level.bins >= b.min() - 1) & (
                    level.bins <= b.max() + 1
                )
            yield members, np.nonzero(block_mask)[0]
