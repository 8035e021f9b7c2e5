"""Tests for the grid index and multi-space tree (repro.index)."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.grid import GridIndex, variance_order
from repro.index.mstree import MultiSpaceTree


def _clustered(n=300, d=12, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 4, size=(6, d))
    return centers[rng.integers(0, 6, n)] + rng.normal(0, 0.3, size=(n, d))


def _true_neighbor_pairs(data, eps):
    d2 = ((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2)
    mask = d2 <= eps * eps
    np.fill_diagonal(mask, False)
    return set(zip(*np.nonzero(mask)))


class TestVarianceOrder:
    def test_orders_by_decreasing_variance(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(500, 4)) * np.array([1.0, 10.0, 0.1, 5.0])
        order = variance_order(data)
        assert order.tolist() == [1, 3, 0, 2]

    def test_permutation(self):
        data = np.random.default_rng(2).normal(size=(50, 7))
        assert sorted(variance_order(data).tolist()) == list(range(7))


class TestGridIndex:
    def test_candidates_cover_all_neighbors(self):
        """Index safety: every true neighbor pair is a candidate pair."""
        data = _clustered(seed=3)
        eps = 1.5
        index = GridIndex(data, eps, n_dims=4)
        cand_pairs = set()
        for members, candidates in index.iter_cells():
            for m in members:
                cand_pairs.update((int(m), int(c)) for c in candidates)
        for pair in _true_neighbor_pairs(data, eps):
            assert pair in cand_pairs

    @given(st.integers(0, 10**6), st.floats(0.3, 3.0), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_candidate_superset_property(self, seed, eps, r):
        data = _clustered(100, 8, seed)
        index = GridIndex(data, eps, n_dims=r)
        cand = {}
        for members, candidates in index.iter_cells():
            cset = set(candidates.tolist())
            for m in members:
                cand[int(m)] = cset
        for i, j in _true_neighbor_pairs(data, eps):
            assert j in cand[i]

    def test_cells_partition_points(self):
        data = _clustered(seed=4)
        index = GridIndex(data, 1.0)
        seen = []
        for members, _ in index.iter_cells():
            seen.extend(members.tolist())
        assert sorted(seen) == list(range(len(data)))

    def test_stats(self):
        data = _clustered(seed=5)
        index = GridIndex(data, 1.0, n_dims=3)
        stats = index.stats()
        assert stats.n_points == len(data)
        assert stats.n_indexed_dims == 3
        assert stats.total_candidates >= stats.n_points  # self is a candidate
        assert stats.mean_candidates >= 1.0

    def test_indexed_dims_capped_by_d(self):
        data = _clustered(50, 4, seed=6)
        assert GridIndex(data, 1.0, n_dims=10).r == 4

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            GridIndex(_clustered(10, 4, 7), 0.0)

    def test_large_eps_single_cell(self):
        data = _clustered(seed=8)
        index = GridIndex(data, 1e6)
        stats = index.stats()
        assert stats.total_candidates == len(data) ** 2

    def test_candidates_of_unoccupied_cell(self):
        """A query landing in an empty cell still sees occupied neighbors."""
        data = np.array([[0.5], [2.5]])
        index = GridIndex(data, 1.0, n_dims=1)
        # Cell (1,) is empty but adjacent to both occupied cells (0,), (2,).
        assert sorted(index.candidates_of_cell((1,)).tolist()) == [0, 1]
        # A far-away empty cell has no candidates.
        assert index.candidates_of_cell((100,)).size == 0

    def test_extreme_coordinate_spans(self):
        """int64-wrap-prone cell ranges must fall back, not drop pairs."""
        data = np.array([[-9.0e18], [-9.0e18 + 0.6], [9.0e18]])
        index = GridIndex(data, 1.0, n_dims=1)
        pairs = set()
        for members, candidates in index.iter_cells():
            for m in members:
                pairs.update((int(m), int(c)) for c in candidates)
        # Points 0 and 1 share a cell: both directions must be candidates.
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_stats_after_queries_consistent(self):
        data = _clustered(seed=20)
        index = GridIndex(data, 1.0, n_dims=3)
        before = index.stats().total_candidates
        for key in index._cell_keys[:5]:
            index.candidates_of_cell(key)
        assert index.stats().total_candidates == before


def _dict_loop_candidates(index, key):
    """The per-cell reference: 3^r dict probes in offset-product order."""
    chunks = []
    for offset in product((-1, 0, 1), repeat=index.r):
        nb = index._cell_id.get(tuple(k + o for k, o in zip(key, offset)))
        if nb is not None:
            chunks.append(index._sort[index._starts[nb] : index._ends[nb]])
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def _probe_keys(index, rng, n_random=40):
    """Unoccupied query cells: random ones around the occupied span, and
    ones exactly on, one outside and two outside the span per dimension."""
    lo = index._unique.min(axis=0)
    hi = index._unique.max(axis=0)
    keys = {tuple(rng.integers(lo - 2, hi + 3)) for _ in range(n_random)}
    for k in range(index.r):
        for v in (lo[k] - 2, lo[k] - 1, lo[k], hi[k], hi[k] + 1, hi[k] + 2):
            key = rng.integers(lo, hi + 1)
            key[k] = v
            keys.add(tuple(key))
    keys.update({tuple(lo - 1), tuple(hi + 1), tuple(lo - 2), tuple(hi + 2)})
    return sorted(k for k in keys if k not in index._cell_id)


class TestEmptyCellProbe:
    """Unoccupied query cells resolve through the key-encoded binary
    search; the answers must equal the dict loop's, element for element."""

    def _check(self, index, keys):
        for key in keys:
            want = _dict_loop_candidates(index, key)
            got = index.candidates_of_cell(key)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            # Fresh and writable: never a view of the index or a cache entry.
            assert got.flags.writeable
            assert not np.shares_memory(got, index._sort)
            assert index.candidates_of_cell(key) is not got

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [8, 64, 4096])
    def test_matches_dict_loop(self, r, n):
        rng = np.random.default_rng(100 * r + n)
        data = rng.uniform(0.0, 5.0, size=(n, r + 2))
        index = GridIndex(data, 1.0, n_dims=r)
        assert index._encode() is not None
        keys = _probe_keys(index, rng)
        assert keys
        self._check(index, keys)

    @pytest.mark.parametrize("r", [1, 3, 6])
    def test_join_groups_match_dict_loop(self, r):
        """The per-request batched probe yields the same arrays as the
        per-cell path, occupied and unoccupied query cells alike."""
        rng = np.random.default_rng(7 + r)
        data = rng.uniform(0.0, 5.0, size=(64, r + 2))
        index = GridIndex(data, 1.0, n_dims=r)
        queries = np.vstack(
            [rng.uniform(-2.5, 7.5, size=(400, r + 2)), data[:20]]
        )
        cells = np.floor(queries[:, index.order[:r]]).astype(np.int64)
        seen_empty = seen_occupied = 0
        for members, got in index.iter_join_groups(queries):
            key = tuple(cells[members[0]])
            assert (cells[members] == key).all()
            np.testing.assert_array_equal(got, _dict_loop_candidates(index, key))
            if key in index._cell_id:
                seen_occupied += 1
            else:
                seen_empty += 1
                assert got.flags.writeable
        assert seen_empty and seen_occupied

    def test_unencodable_geometry_falls_back(self):
        data = np.array(
            [[-9.0e18, 0.0], [-9.0e18 + 0.6, 1.0], [9.0e18, 2.0], [9.0e18, 4.0]]
        )
        index = GridIndex(data, 1.0, n_dims=2, reorder=False)
        assert index._encode() is None
        occupied = index._cell_keys
        keys = [
            (c[0] + dx, c[1] + dy)
            for c in occupied
            for dx, dy in ((0, 1), (1, 0), (-1, -1), (0, 3))
        ]
        self._check(index, [k for k in keys if k not in index._cell_id])
        queries = data + np.array([[0.0, 1.0]])
        groups = list(index.iter_join_groups(queries))
        assert len(groups) == 4
        for members, got in groups:
            key = tuple(
                np.floor(queries[members[0]]).astype(np.int64).tolist()
            )
            np.testing.assert_array_equal(got, _dict_loop_candidates(index, key))


class TestMultiSpaceTree:
    def test_candidate_mask_covers_neighbors(self):
        """Triangle-inequality + bin safety: no true neighbor is pruned."""
        data = _clustered(seed=9)
        eps = 1.5
        tree = MultiSpaceTree(data, eps, n_levels=4, n_candidates=10)
        truth = _true_neighbor_pairs(data, eps)
        for i, j in truth:
            assert tree.candidate_mask_for(i)[j], (i, j)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_neighbor_safety_property(self, seed):
        data = _clustered(80, 6, seed)
        eps = 1.2
        tree = MultiSpaceTree(data, eps, n_levels=3, n_candidates=8, seed=seed)
        for i, j in _true_neighbor_pairs(data, eps):
            assert tree.candidate_mask_for(i)[j]

    def test_self_always_candidate(self):
        data = _clustered(seed=10)
        tree = MultiSpaceTree(data, 1.0)
        for i in (0, 17, 99):
            assert tree.candidate_mask_for(i)[i]

    def test_more_levels_prune_more(self):
        data = _clustered(500, 16, seed=11)
        t2 = MultiSpaceTree(data, 0.8, n_levels=2, n_candidates=10)
        t6 = MultiSpaceTree(data, 0.8, n_levels=6, n_candidates=10)
        c2 = t2.candidate_counts(np.arange(50)).sum()
        c6 = t6.candidate_counts(np.arange(50)).sum()
        assert c6 <= c2

    def test_iter_groups_covers_all_points(self):
        data = _clustered(seed=12)
        tree = MultiSpaceTree(data, 1.0)
        members_seen = []
        for members, candidates in tree.iter_groups(group=64):
            members_seen.extend(members.tolist())
            # The block's candidate superset must include its own members.
            assert set(members.tolist()) <= set(candidates.tolist())
        assert sorted(members_seen) == list(range(len(data)))

    def test_total_candidates_sampling(self):
        data = _clustered(200, 8, seed=13)
        tree = MultiSpaceTree(data, 1.0)
        exact = int(tree.candidate_counts().sum())
        sampled = tree.total_candidates(sample_size=400)  # > n: exact path
        assert sampled == exact

    def test_construction_counts_evaluations(self):
        tree = MultiSpaceTree(_clustered(seed=14), 1.0, n_levels=3, n_candidates=10)
        assert tree.construction_evaluations == 3 * 10

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            MultiSpaceTree(_clustered(20, 4, 15), -1.0)
