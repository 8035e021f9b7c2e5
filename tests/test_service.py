"""Query-serving subsystem: persistence, query engine, cache, server.

The serving contracts, executable:

* **Persistence round-trips** -- grid save/load, loaded (mmap and
  in-RAM) indexes answering bit-identically to freshly built ones,
  version/magic/kind rejection.
* **Query engine** -- ``range_query`` bit-identical to the dense
  brute-force reference at FP64 (on loaded-from-disk indexes -- the
  acceptance contract), pair-set at FP32; ``knn_query`` exact
  against a brute argsort, including the expanding-reach path.
* **Serving layer** -- LRU cache accounting, micro-batch splitting, and
  the concurrent smoke: N threads hammering one cached index through
  the service and over HTTP must reproduce serial answers.
"""

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import build_index, open_index, query
from repro.core.engine import batch_params_from_stats
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.source import MmapNpySource, as_source
from repro.index.grid import GridIndex
from repro.index.mstree import MultiSpaceTree
from repro.index.persist import (
    FORMAT_VERSION,
    HEADER_NAME,
    CorruptIndexError,
    load_index,
    read_header,
    save_index,
)
from repro.service import (
    IndexCache,
    KnnResult,
    QueryEngine,
    QueryService,
    brute_range_query,
    make_server,
    run_self_test,
)


def _dataset(n=1500, d=24, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, size=(6, d))
    data = centers[rng.integers(0, 6, n)] + rng.normal(0, 0.7, size=(n, d))
    eps = float(epsilon_for_selectivity(data, 16))
    return data, eps


def _queries(data, eps, nq=120, seed=3):
    rng = np.random.default_rng(seed)
    base = data[rng.integers(0, data.shape[0], size=nq)]
    scale = eps / (4.0 * data.shape[1] ** 0.5)
    return base + rng.normal(0, scale, size=base.shape)


def _canon_join(res):
    order = np.lexsort((res.pairs_j, res.pairs_i))
    sq = res.sq_dists[order] if res.sq_dists.size else res.sq_dists
    return res.pairs_i[order], res.pairs_j[order], sq


def assert_joins_bit_identical(a, b):
    ai, aj, ad = _canon_join(a)
    bi, bj, bd = _canon_join(b)
    np.testing.assert_array_equal(ai, bi)
    np.testing.assert_array_equal(aj, bj)
    assert np.array_equal(ad.view(np.uint32), bd.view(np.uint32))


def assert_pair_sets_equal(a, b):
    ai, aj, _ = _canon_join(a)
    bi, bj, _ = _canon_join(b)
    np.testing.assert_array_equal(ai, bi)
    np.testing.assert_array_equal(aj, bj)


def brute_knn(data, queries, k):
    """Exact top-k by (squared distance, index) in float64."""
    d2 = ((queries[:, None, :] - data[None, :, :]) ** 2).sum(axis=-1)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return order


@pytest.fixture(scope="module")
def data_eps():
    return _dataset()


# ----------------------------------------------------------------------
# Persistence round-trips
# ----------------------------------------------------------------------


class TestPersistence:
    def test_grid_roundtrip_state(self, data_eps, tmp_path):
        data, eps = data_eps
        fresh = GridIndex(data, eps)
        save_index(fresh, tmp_path / "g", data=data)
        loaded = load_index(tmp_path / "g")
        assert loaded.header["kind"] == "grid"
        assert loaded.eps == eps
        idx = loaded.index
        # Format v3 stores the rows in cell order: the fresh sort
        # permutation becomes the ids payload and the loaded grid's
        # member order is the identity.
        np.testing.assert_array_equal(loaded.ids, fresh._sort)
        np.testing.assert_array_equal(
            idx.members_order(), np.arange(data.shape[0])
        )
        np.testing.assert_array_equal(idx._unique, fresh._unique)
        np.testing.assert_array_equal(idx.order, fresh.order)
        for (ma, ca), (mb, cb) in zip(fresh.iter_cells(), idx.iter_cells()):
            np.testing.assert_array_equal(ma, loaded.ids[mb])
            np.testing.assert_array_equal(ca, loaded.ids[cb])

    def test_loaded_query_bit_identical_to_fresh(self, data_eps, tmp_path):
        data, eps = data_eps
        q = _queries(data, eps)
        index = GridIndex(data, eps)
        save_index(index, tmp_path / "grid", data=data)
        fresh = QueryEngine(index, data).range_query(q)
        loaded = QueryEngine(tmp_path / "grid").range_query(q)
        assert_joins_bit_identical(fresh, loaded)

    def test_version_mismatch_rejected(self, data_eps, tmp_path):
        data, eps = data_eps
        path = save_index(GridIndex(data, eps), tmp_path / "g", data=data)
        header = json.loads((path / HEADER_NAME).read_text())
        header["version"] = FORMAT_VERSION + 1
        (path / HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(ValueError, match="version"):
            load_index(path)

    def test_bad_magic_and_missing_header_rejected(self, data_eps, tmp_path):
        data, eps = data_eps
        path = save_index(GridIndex(data, eps), tmp_path / "g", data=data)
        header = json.loads((path / HEADER_NAME).read_text())
        header["magic"] = "not-an-index"
        (path / HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(ValueError, match="magic"):
            read_header(path)
        with pytest.raises(ValueError, match="not a persisted index"):
            load_index(tmp_path)  # a directory without a header

    def test_tree_header_rejected(self, data_eps, tmp_path):
        """Only grids persist: a multi-space-tree header is refused typed."""
        data, eps = data_eps
        path = save_index(GridIndex(data, eps), tmp_path / "g", data=data)
        header = json.loads((path / HEADER_NAME).read_text())
        header["kind"] = "mstree"
        (path / HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(ValueError, match="unknown index kind 'mstree'"):
            load_index(path)

    def test_saved_without_data_requires_data(self, data_eps, tmp_path):
        """Every index embeds its rows: a save without them is refused,
        and only an in-memory index takes its dataset at query time."""
        data, eps = data_eps
        with pytest.raises(TypeError, match="data"):
            save_index(GridIndex(data, eps), tmp_path / "g")
        assert not (tmp_path / "g").exists()
        with pytest.raises(ValueError, match="no dataset"):
            QueryEngine(GridIndex(data, eps))
        q = _queries(data, eps, nq=40)
        res = QueryEngine(GridIndex(data, eps), data).range_query(q)
        assert_joins_bit_identical(res, brute_range_query(data, q, eps))

    def test_data_path_is_not_an_option(self, data_eps, tmp_path):
        """No layout references its dataset by path."""
        data, eps = data_eps
        np.save(tmp_path / "ds.npy", data)
        with pytest.raises(TypeError, match="data_path"):
            save_index(
                GridIndex(data, eps), tmp_path / "g", data=data,
                data_path=tmp_path / "ds.npy",
            )
        loaded = load_index(save_index(GridIndex(data, eps), tmp_path / "g", data=data))
        assert isinstance(loaded.source, MmapNpySource)
        assert loaded.source.path.parent == tmp_path / "g"
        assert loaded.source.n == data.shape[0]

    def test_resave_removes_stale_payloads(self, data_eps, tmp_path):
        """Replacing an index leaves no dead .npy of the old generation."""
        data, eps = data_eps
        save_index(GridIndex(data, eps * 0.7), tmp_path / "g", data=data)
        save_index(GridIndex(data, eps), tmp_path / "g", data=data)
        loaded = load_index(tmp_path / "g")
        names = {p.name for p in (tmp_path / "g").glob("*.npy")}
        referenced = {e["file"] for e in loaded.header["arrays"].values()}
        assert names == referenced | {loaded.header["data"]}
        assert loaded.eps == eps
        q = _queries(data, eps, nq=20)
        assert_joins_bit_identical(
            QueryEngine(loaded).range_query(q), brute_range_query(data, q, eps)
        )

    def test_streamed_data_embed(self, data_eps, tmp_path):
        """Embedding from a source streams it in row blocks, cell order."""
        data, eps = data_eps
        np.save(tmp_path / "ds.npy", data)
        src = as_source(tmp_path / "ds.npy")
        save_index(GridIndex(data, eps), tmp_path / "g", data=src)
        loaded = load_index(tmp_path / "g")
        # Stored row p is original row ids[p] (cell order, format v3).
        np.testing.assert_array_equal(
            loaded.source.materialize(), data[loaded.ids]
        )


# ----------------------------------------------------------------------
# Query engine
# ----------------------------------------------------------------------


class TestRangeQuery:
    # One kind persists; the parameter keeps the test id stable.
    @pytest.mark.parametrize("kind", ["grid"])
    def test_loaded_bit_identical_to_brute(self, data_eps, tmp_path, kind):
        """The acceptance contract: range_query on a loaded-from-disk
        index == dense FP64 brute force, bitwise."""
        data, eps = data_eps
        q = _queries(data, eps)
        build_index(data, eps, tmp_path / kind)
        res = QueryEngine(tmp_path / kind).range_query(q)
        assert res.pairs_i.size > 0  # a vacuous comparison proves nothing
        assert_joins_bit_identical(res, brute_range_query(data, q, eps))

    def test_smaller_eps_and_validation(self, data_eps, tmp_path):
        data, eps = data_eps
        q = _queries(data, eps)
        build_index(data, eps, tmp_path / "g")
        eng = QueryEngine(tmp_path / "g")
        small = eps * 0.6
        assert_joins_bit_identical(
            eng.range_query(q, small), brute_range_query(data, q, small)
        )
        with pytest.raises(ValueError, match="exceeds the index cell width"):
            eng.range_query(q, eps * 1.5)
        with pytest.raises(ValueError, match="positive"):
            eng.range_query(q, -1.0)
        with pytest.raises(ValueError, match="dimensionality"):
            eng.range_query(q[:, :-1])

    def test_workers_bit_identical(self, data_eps):
        data, eps = data_eps
        q = _queries(data, eps)
        eng = QueryEngine(GridIndex(data, eps), data)
        # Range queries run serially: the answer is the brute reference
        # bit for bit, and a worker request is refused.
        assert_joins_bit_identical(
            eng.range_query(q), brute_range_query(data, q, eps)
        )
        with pytest.raises(TypeError):
            eng.range_query(q, workers=2)

    def test_mmap_source_matches_resident(self, data_eps, tmp_path):
        """Source-backed (gathered) evaluation == resident arrays."""
        data, eps = data_eps
        q = _queries(data, eps)
        np.save(tmp_path / "ds.npy", data)
        index = GridIndex(data, eps)
        resident = QueryEngine(index, data).range_query(q)
        gathered = QueryEngine(index, tmp_path / "ds.npy").range_query(q)
        assert_joins_bit_identical(resident, gathered)

    def test_single_point_query(self, data_eps):
        data, eps = data_eps
        eng = QueryEngine(GridIndex(data, eps), data)
        res = eng.range_query(data[7])  # (d,) accepted as one query
        assert res.n_left == 1
        assert 7 in set(res.pairs_j.tolist())  # its own row is a match


class TestKnnQuery:
    # One kind persists; the parameter keeps the test id stable.
    @pytest.mark.parametrize("kind", ["grid"])
    def test_exact_vs_brute(self, data_eps, tmp_path, kind):
        data, eps = data_eps
        q = _queries(data, eps, nq=60)
        build_index(data, eps, tmp_path / kind)
        eng = QueryEngine(tmp_path / kind)
        for k in (1, 5):
            res = eng.knn_query(q, k)
            np.testing.assert_array_equal(res.indices, brute_knn(data, q, k))

    def test_far_queries_force_expansion(self, data_eps):
        """Queries far outside the data must still resolve (reach growth)."""
        data, eps = data_eps
        rng = np.random.default_rng(9)
        far = rng.normal(30.0, 1.0, size=(5, data.shape[1]))
        eng = QueryEngine(GridIndex(data, eps), data)
        res = eng.knn_query(far, 3)
        np.testing.assert_array_equal(res.indices, brute_knn(data, far, 3))

    def test_k_exceeding_n(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(7, 4))
        eng = QueryEngine(GridIndex(data, 1.0), data)
        res = eng.knn_query(data[:3], 10)
        assert res.indices.shape == (3, 10)
        assert np.all(res.indices[:, :7] >= 0)
        assert np.all(res.indices[:, 7:] == -1)
        assert np.all(np.isinf(res.sq_dists[:, 7:]))

    def test_self_is_nearest(self, data_eps):
        data, eps = data_eps
        eng = QueryEngine(GridIndex(data, eps), data)
        res = eng.knn_query(data[:20], 1)
        np.testing.assert_array_equal(res.indices[:, 0], np.arange(20))
        # The norm expansion can leave ~1 ulp of cancellation residue on
        # the self pair; "nearest" is what matters.
        assert np.all(res.sq_dists[:, 0] <= 1e-10)

    def test_invalid_k(self, data_eps):
        data, eps = data_eps
        eng = QueryEngine(GridIndex(data, eps), data)
        with pytest.raises(ValueError, match="k must be positive"):
            eng.knn_query(data[:2], 0)

    def test_initial_reach_scales_with_k(self, data_eps):
        data, eps = data_eps
        eng = QueryEngine(GridIndex(data, eps), data)
        assert eng._initial_reach(1) <= eng._initial_reach(500)

    def test_duplicate_points(self):
        """Duplicated rows must all surface before any farther point."""
        rng = np.random.default_rng(11)
        base = rng.normal(size=(40, 6))
        data = np.concatenate([base, base[:10]])  # rows 40..49 dup 0..9
        eng = QueryEngine(GridIndex(data, 1.0), data)
        res = eng.knn_query(base[:10], 2)
        for qi in range(10):
            got = set(res.indices[qi].tolist())
            assert got == {qi, qi + 40}
            assert np.all(res.sq_dists[qi] <= 1e-10)

    def test_all_identical_coordinates(self):
        """Degenerate dataset: every point in one cell at distance 0."""
        data = np.ones((12, 5)) * 3.25
        eng = QueryEngine(GridIndex(data, 1.0), data)
        res = eng.knn_query(data[:4], 5)
        assert res.indices.shape == (4, 5)
        assert np.all(res.indices >= 0)
        assert np.all(res.sq_dists <= 1e-10)
        # No index repeats within a row: ties broken by identity.
        for row in res.indices:
            assert len(set(row.tolist())) == 5

    def test_k1_single_cell_dataset(self):
        """k=1 on a dataset that collapses into a single grid cell."""
        rng = np.random.default_rng(7)
        data = rng.uniform(0.0, 0.01, size=(25, 3))
        eng = QueryEngine(GridIndex(data, 5.0), data)  # eps >> spread
        res = eng.knn_query(data, 1)
        np.testing.assert_array_equal(res.indices[:, 0], np.arange(25))

    # One kind persists; the parameter keeps the test id stable.
    @pytest.mark.parametrize("kind", ["grid"])
    def test_k_equals_n_exact(self, data_eps, tmp_path, kind):
        """k == n returns the full stable distance ordering, no -1 pads."""
        rng = np.random.default_rng(13)
        data = rng.normal(size=(30, 8))
        build_index(data, 1.0, tmp_path / f"kn-{kind}")
        eng = QueryEngine(tmp_path / f"kn-{kind}")
        q = data[:6]
        res = eng.knn_query(q, 30)
        assert np.all(res.indices >= 0)
        np.testing.assert_array_equal(res.indices, brute_knn(data, q, 30))


# ----------------------------------------------------------------------
# Derived batch params (satellite: stats-moment autotuning)
# ----------------------------------------------------------------------


class TestBatchParams:
    def test_moments_populated(self, data_eps):
        data, eps = data_eps
        stats = GridIndex(data, eps).stats()
        assert stats.mean_members > 0
        assert stats.mean_group_candidates >= stats.mean_members
        assert stats.std_members >= 0

    def test_derived_and_override(self, data_eps):
        data, eps = data_eps
        stats = GridIndex(data, eps).stats()
        derived = batch_params_from_stats(stats)
        assert set(derived) == {
            "batch_elems", "max_batch_groups", "single_elems", "min_fill",
        }
        assert 0.15 <= derived["min_fill"] <= 0.5
        assert derived["single_elems"] >= 1 << 12
        forced = batch_params_from_stats(stats, min_fill=0.42, batch_elems=123)
        assert forced["min_fill"] == 0.42
        assert forced["batch_elems"] == 123
        assert forced["single_elems"] == derived["single_elems"]

    def test_homogeneous_groups_demand_tighter_fill(self):
        class S:  # duck-typed stats
            mean_members = 8.0
            std_members = 0.0
            mean_group_candidates = 24.0
            std_group_candidates = 0.0

        class D:
            mean_members = 8.0
            std_members = 24.0
            mean_group_candidates = 24.0
            std_group_candidates = 100.0

        assert (
            batch_params_from_stats(S())["min_fill"]
            > batch_params_from_stats(D())["min_fill"]
        )

    def test_mstree_stats_mirrors_grid_contract(self, data_eps):
        """MultiSpaceTree.stats() emits the same GridStats shape the
        grid does, so batch_params_from_stats works on both."""
        from repro.index.grid import GridStats

        data, eps = data_eps
        tree = MultiSpaceTree(data, eps, seed=0)
        stats = tree.stats(group=256)
        assert isinstance(stats, GridStats)
        assert stats.n_points == data.shape[0]
        # Every point belongs to exactly one group.
        members = [int(m.size) for m, _ in tree.iter_groups(group=256)]
        assert sum(members) == data.shape[0]
        assert stats.n_nonempty_cells == len(members)
        assert stats.mean_members == pytest.approx(np.mean(members))
        assert stats.std_members == pytest.approx(np.std(members))
        assert stats.mean_group_candidates >= stats.mean_members

    def test_mstree_stats_derive_same_knob_set_as_grid(self, data_eps):
        data, eps = data_eps
        from_tree = batch_params_from_stats(
            MultiSpaceTree(data, eps, seed=0).stats()
        )
        from_grid = batch_params_from_stats(GridIndex(data, eps).stats())
        assert set(from_tree) == set(from_grid)
        # Same clamps apply to both derivations.
        for knobs in (from_tree, from_grid):
            assert 0.15 <= knobs["min_fill"] <= 0.5
            assert knobs["single_elems"] >= 1 << 12
            assert 1 << 16 <= knobs["batch_elems"] <= 1 << 22

    def test_mistic_batched_uses_derived_knobs(self, data_eps):
        """The tree-backed kernel's batched path (now knob-derived) must
        stay pair-set-equal to the serial path."""
        from repro.kernels.mistic import MisticKernel

        data, eps = data_eps
        data = data[:400]
        a = MisticKernel().self_join(data, eps, batched=False).result
        b = MisticKernel().self_join(data, eps, batched=True).result
        assert_pair_sets_equal(a, b)

    def test_kernel_override_changes_nothing_functionally(self, data_eps):
        from repro.kernels.gdsjoin import GdsJoinKernel

        data, eps = data_eps
        a = GdsJoinKernel().self_join(data, eps, batched=True).result
        b = (
            GdsJoinKernel()
            .self_join(
                data, eps, batched=True,
                batch_params={"batch_elems": 1 << 14, "min_fill": 0.2},
            )
            .result
        )
        assert_pair_sets_equal(a, b)


# ----------------------------------------------------------------------
# Serving layer: cache, micro-batching, HTTP
# ----------------------------------------------------------------------


class TestIndexCache:
    def test_hits_misses_and_keying(self, data_eps, tmp_path):
        data, eps = data_eps
        build_index(data, eps, tmp_path / "a")
        cache = IndexCache(capacity=2)
        e1 = cache.get(tmp_path / "a")
        e2 = cache.get(tmp_path / "a")
        assert e1 is e2
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_lru_eviction(self, tmp_path):
        cache = IndexCache(capacity=2)
        paths = []
        for i in range(3):
            data, eps = _dataset(n=200, d=8, seed=i)
            build_index(data, eps, tmp_path / f"i{i}")
            paths.append(tmp_path / f"i{i}")
        engines = [cache.get(p) for p in paths]
        assert len(cache) == 2 and cache.evictions == 1
        # i0 was evicted: a re-get is a miss producing a fresh engine.
        again = cache.get(paths[0])
        assert again is not engines[0]

    def test_cold_lookups_load_an_index_once(
        self, data_eps, tmp_path, monkeypatch
    ):
        """Concurrent cold lookups of one immutable index share one
        single-flight load: one engine object and one miss."""
        import repro.service.server as server_mod

        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        loads = []

        class SlowLoad(QueryEngine):
            def __init__(self, *args, **kwargs):
                loads.append(1)
                time.sleep(0.2)  # every lookup is in flight before it ends
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(server_mod, "QueryEngine", SlowLoad)
        cache = IndexCache()
        n = 4
        barrier = threading.Barrier(n)
        got = []

        def cold():
            barrier.wait()
            got.append(cache.get(tmp_path / "g"))

        threads = [threading.Thread(target=cold) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert len(loads) == 1
        assert len(got) == n and all(e is got[0] for e in got)
        assert cache.misses == 1 and cache.hits == n - 1

    def test_rejects_non_index(self, tmp_path):
        cache = IndexCache()
        with pytest.raises(ValueError):
            cache.get(tmp_path)

    def test_rebuild_invalidates_cache(self, tmp_path):
        """Rebuilding at the same path must not serve the stale engine
        (the key carries the header content digest)."""
        data1, eps1 = _dataset(n=300, d=8, seed=1)
        build_index(data1, eps1, tmp_path / "g")
        cache = IndexCache()
        e1 = cache.get(tmp_path / "g")
        assert e1.n_points == 300
        data2, eps2 = _dataset(n=400, d=8, seed=2)
        build_index(data2, eps2, tmp_path / "g")
        e2 = cache.get(tmp_path / "g")
        assert e2 is not e1 and e2.n_points == 400
        q = _queries(data2, eps2, nq=20, seed=6)
        assert_joins_bit_identical(
            e2.range_query(q), brute_range_query(data2, q, eps2)
        )


class TestQueryService:
    def test_split_matches_serial(self, data_eps, tmp_path):
        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        q = _queries(data, eps, nq=48)
        with QueryService() as svc:
            engine = svc.cache.get(tmp_path / "g")
            pending = [
                svc.submit(tmp_path / "g", q[i * 12 : (i + 1) * 12])
                for i in range(4)
            ]
            for i, p in enumerate(pending):
                got = p.result(timeout=30)
                serial = engine.range_query(q[i * 12 : (i + 1) * 12])
                assert_joins_bit_identical(got, serial)

    def test_concurrent_hammer_equals_serial(self, data_eps, tmp_path):
        """The serve smoke: N threads against one cached index."""
        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        q = _queries(data, eps, nq=96, seed=11)
        n_threads = 8
        per = q.shape[0] // n_threads
        results: list = [None] * n_threads
        knns: list = [None] * n_threads
        with QueryService() as svc:
            engine = svc.cache.get(tmp_path / "g")

            def hammer(i: int) -> None:
                rows = q[i * per : (i + 1) * per]
                results[i] = svc.query(tmp_path / "g", rows)
                knns[i] = svc.query(tmp_path / "g", rows, k=3)

            threads = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats()
        assert stats["cache"]["misses"] == 1  # one load served everyone
        assert stats["requests_served"] == 2 * n_threads
        for i in range(n_threads):
            rows = q[i * per : (i + 1) * per]
            assert_joins_bit_identical(results[i], engine.range_query(rows))
            np.testing.assert_array_equal(
                knns[i].indices, engine.knn_query(rows, 3).indices
            )

    def test_submit_restarts_stopped_service(self, data_eps, tmp_path):
        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        svc = QueryService()
        q = _queries(data, eps, nq=6)
        try:
            first = svc.query(tmp_path / "g", q)
            svc.stop()
            again = svc.query(tmp_path / "g", q)  # submit revives the loop
            assert_joins_bit_identical(first, again)
        finally:
            svc.stop()

    def test_error_propagates_to_waiter(self, data_eps, tmp_path):
        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        with QueryService() as svc:
            pending = svc.submit(
                tmp_path / "g", _queries(data, eps, nq=4), eps=eps * 10
            )
            with pytest.raises(ValueError, match="exceeds the index"):
                pending.result(timeout=30)

    def test_bad_dimensionality_fails_its_own_submit(self, data_eps, tmp_path):
        """A malformed request must not poison the batch it would join."""
        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        with QueryService() as svc:
            with pytest.raises(ValueError, match="queries must be"):
                svc.submit(tmp_path / "g", np.zeros((2, data.shape[1] + 1)))
            # Valid traffic is unaffected.
            res = svc.query(tmp_path / "g", _queries(data, eps, nq=4))
            assert res.n_left == 4

    @pytest.mark.parametrize("k", [0, -2])
    def test_bad_k_fails_its_own_submit(self, data_eps, tmp_path, k):
        """A non-positive k is refused before it can join a kNN batch
        (served at the group's largest k, it would be sliced, not
        refused)."""
        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        with QueryService() as svc:
            depth = svc.stats()["queue_depth"]
            with pytest.raises(ValueError, match="k must be positive"):
                svc.submit(tmp_path / "g", _queries(data, eps, nq=2), k=k)
            assert svc.stats()["queue_depth"] == depth


class TestHttpServer:
    def test_endpoints(self, data_eps, tmp_path):
        import http.client

        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        server = make_server({"default": tmp_path / "g"}, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("GET", "/healthz")
            health = json.loads(conn.getresponse().read())
            assert health["status"] == "ok" and health["indexes"] == ["default"]
            q = _queries(data, eps, nq=6)
            conn.request(
                "POST", "/range",
                json.dumps({"queries": q.tolist()}),
                {"Content-Type": "application/json"},
            )
            got = json.loads(conn.getresponse().read())
            engine = server.service.cache.get(tmp_path / "g")
            want = engine.range_query(q)
            sets = [set() for _ in range(q.shape[0])]
            for i, j in zip(want.pairs_i.tolist(), want.pairs_j.tolist()):
                sets[i].add(j)
            assert [set(x) for x in got["neighbors"]] == sets
            conn.request(
                "POST", "/knn",
                json.dumps({"queries": q.tolist(), "k": 2}),
                {"Content-Type": "application/json"},
            )
            got_knn = json.loads(conn.getresponse().read())
            assert got_knn["indices"] == engine.knn_query(q, 2).indices.tolist()
            conn.request("POST", "/range", json.dumps({"index": "nope"}),
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()  # drain: keep-alive needs the body consumed
            assert resp.status == 404
            conn.request("GET", "/stats")
            assert json.loads(conn.getresponse().read())["requests_served"] >= 2
            conn.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_strict_json_and_stable_shape(self, tmp_path):
        """kNN padding must serialize as null (strict JSON, no Infinity)
        and empty range answers must keep the sq_dists key."""
        import http.client

        rng = np.random.default_rng(2)
        data = rng.normal(size=(3, 6))
        build_index(data, 1.0, tmp_path / "g")
        server = make_server({"default": tmp_path / "g"}, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request(
                "POST", "/knn",
                json.dumps({"queries": data[:1].tolist(), "k": 5}),
                {"Content-Type": "application/json"},
            )
            raw = conn.getresponse().read().decode()
            assert "Infinity" not in raw  # strict parsers reject it
            got = json.loads(raw)
            assert got["sq_dists"][0][3:] == [None, None]
            far = (data[:1] + 100.0).tolist()
            conn.request(
                "POST", "/range", json.dumps({"queries": far}),
                {"Content-Type": "application/json"},
            )
            got = json.loads(conn.getresponse().read())
            assert got["neighbors"] == [[]]
            assert got["sq_dists"] == [[]]  # key survives empty answers
            conn.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_accepted_socket_disables_nagle(self, tmp_path):
        """The threaded handler writes headers and body as separate
        sends; with Nagle on, the body waits for the client's delayed
        ACK of the headers (up to 40 ms per response)."""
        import http.client
        import socket

        rng = np.random.default_rng(5)
        data = rng.normal(size=(64, 6))
        build_index(data, 1.0, tmp_path / "g")
        server = make_server({"default": tmp_path / "g"}, port=0)
        accepted = []
        get_request = server.get_request

        def capture():
            sock, addr = get_request()
            accepted.append(sock)
            return sock, addr

        server.get_request = capture
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request(
                "POST", "/range", json.dumps({"queries": data[:2].tolist()}),
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
            # Keep-alive: the accepted socket is still open and is the
            # one that answered.
            assert len(accepted) == 1
            nodelay = accepted[0].getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            assert nodelay != 0
            conn.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_run_self_test(self, data_eps, tmp_path):
        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        out = run_self_test(tmp_path / "g", n_clients=3, queries_per_client=4)
        assert out["clients"] == 3
        assert out["stats"]["requests_served"] >= 3

    def test_requires_registration(self):
        with pytest.raises(ValueError, match="at least one index"):
            make_server({}, port=0)


class TestSelfTestHealth:
    """``run_self_test`` ends with a health check of the server it drove
    (``/metrics`` parses, no 5xx, armed tracing retained a query trace)
    and shuts that server down on every path, setup failures included."""

    def test_traced_summary_reports_retained_query_traces(
        self, data_eps, tmp_path
    ):
        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        log = tmp_path / "traces.jsonl"
        out = run_self_test(
            tmp_path / "g", n_clients=2, queries_per_client=4,
            trace_sample=1.0, trace_log=log,
        )
        assert out["traces_retained"] >= 1
        assert out["http_5xx"] == 0
        assert out["metrics_series"] > 0
        assert log.stat().st_size > 0

    def test_armed_tracing_without_query_traces_is_a_problem(
        self, data_eps, tmp_path
    ):
        from repro.service.server import _health_check

        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        server = make_server({"default": tmp_path / "g"}, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            quiet = _health_check(host, port, trace_sample=0.0)
            armed = _health_check(host, port, trace_sample=1.0)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert quiet["problems"] == [] and quiet["metrics_series"] > 0
        assert armed["traces_retained"] == 0
        assert armed["problems"] == ["tracing armed but no traces retained"]

    def test_setup_failure_leaves_no_live_server(self, data_eps, tmp_path):
        data, eps = data_eps
        path = tmp_path / "g"
        build_index(data, eps, path)
        header = read_header(path)
        victim = path / next(iter(header["arrays"].values()))["file"]
        with open(victim, "r+b") as fh:
            fh.truncate(victim.stat().st_size - 8)
        before = set(threading.enumerate())
        with pytest.raises(CorruptIndexError):
            run_self_test(path, n_clients=2, queries_per_client=4)
        leaked = [
            t.name for t in threading.enumerate()
            if t not in before and t.is_alive()
        ]
        assert leaked == []

    def test_cli_prints_health_lines(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = str(tmp_path / "idx")
        assert main([
            "index", "build", out_dir, "--n", "600", "--d", "12",
            "--selectivity", "8",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--index", out_dir, "--self-test", "--trace-sample", "1",
        ]) == 0
        text = capsys.readouterr().out
        assert "server 5xx responses: 0" in text
        retained = text.split("/trace/recent: ", 1)[1].split()[0]
        assert int(retained) >= 1


# ----------------------------------------------------------------------
# api-level entry points and CLI
# ----------------------------------------------------------------------


class TestApi:
    def test_open_index_cached_and_query(self, data_eps, tmp_path):
        data, eps = data_eps
        build_index(data, eps, tmp_path / "g")
        e1 = open_index(tmp_path / "g")
        e2 = open_index(tmp_path / "g")
        assert e1 is e2  # module-level LRU
        assert open_index(tmp_path / "g", cache=False) is not e1
        q = _queries(data, eps, nq=20)
        res = query(tmp_path / "g", q)
        assert_joins_bit_identical(res, brute_range_query(data, q, eps))
        knn = query(tmp_path / "g", q, k=2)
        assert isinstance(knn, KnnResult)
        with pytest.raises(ValueError, match="not both"):
            query(e1, q, eps=eps, k=2)

    def test_build_index_out_of_core(self, data_eps, tmp_path):
        """Paths build through from_source and embed by streamed copy."""
        data, eps = data_eps
        np.save(tmp_path / "ds.npy", data)
        build_index(tmp_path / "ds.npy", eps, tmp_path / "g")
        loaded = load_index(tmp_path / "g")
        fresh = GridIndex(data, eps)
        np.testing.assert_array_equal(loaded.ids, fresh._sort)
        q = _queries(data, eps, nq=30)
        assert_joins_bit_identical(
            QueryEngine(loaded).range_query(q), brute_range_query(data, q, eps)
        )

    @pytest.mark.parametrize(
        "option", [{"data_path": "ds.npy"}, {"include_data": False}],
        ids=["data_path", "include_data"],
    )
    def test_build_index_has_one_layout(self, data_eps, tmp_path, option):
        """The dataset is always embedded: no option leaves it out."""
        data, eps = data_eps
        with pytest.raises(TypeError, match=next(iter(option))):
            build_index(data, eps, tmp_path / "g", **option)
        assert not (tmp_path / "g").exists()


class TestCli:
    def _run(self, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0

    def test_index_build_info_query_serve(self, tmp_path, capsys):
        out_dir = str(tmp_path / "idx")
        self._run(
            "index", "build", out_dir, "--n", "600", "--d", "12",
            "--selectivity", "8",
        )
        assert "persisted" in capsys.readouterr().out
        self._run("index", "info", out_dir)
        assert "kind: grid" in capsys.readouterr().out
        self._run("query", out_dir, "--n-queries", "16")
        assert "range:" in capsys.readouterr().out
        self._run("query", out_dir, "--n-queries", "8", "--k", "2")
        assert "kNN" in capsys.readouterr().out
        self._run("serve", "--index", out_dir, "--self-test")
        assert "self-test OK" in capsys.readouterr().out

    def test_query_rejects_eps_and_k(self, tmp_path):
        out_dir = str(tmp_path / "idx")
        self._run("index", "build", out_dir, "--n", "300", "--d", "8")
        with pytest.raises(SystemExit):
            self._run("query", out_dir, "--eps", "0.5", "--k", "3")


# ----------------------------------------------------------------------
# Grid reach extension (the kNN probe widening)
# ----------------------------------------------------------------------


class TestGridReach:
    def test_reach_candidates_are_supersets(self, data_eps):
        data, eps = data_eps
        index = GridIndex(data, eps)
        cell = tuple(index._unique[len(index._unique) // 2])
        r1 = set(index.candidates_of_cell(cell).tolist())
        r2 = set(index.candidates_of_cell(cell, reach=2).tolist())
        r3 = set(index.candidates_of_cell(cell, reach=3).tolist())
        assert r1 <= r2 <= r3

    def test_reach_soundness(self, data_eps):
        """Every point within m*eps of a query must be a reach-m candidate."""
        data, eps = data_eps
        index = GridIndex(data, eps)
        rng = np.random.default_rng(4)
        proj = index.order[: index.r]
        for m in (2, 3):
            for qi in rng.integers(0, data.shape[0], size=10):
                qpt = data[int(qi)]
                cell = tuple(
                    np.floor(qpt[proj] / eps).astype(np.int64).tolist()
                )
                cands = set(index.candidates_of_cell(cell, reach=m).tolist())
                within = np.nonzero(
                    ((data - qpt) ** 2).sum(axis=1) <= (m * eps) ** 2
                )[0]
                assert set(within.tolist()) <= cands

    def test_reach_validation(self, data_eps):
        data, eps = data_eps
        index = GridIndex(data, eps)
        with pytest.raises(ValueError, match="reach"):
            index.candidates_of_cell((0,) * index.r, reach=0)
