"""Mutable-index test tier: differential op sequences, concurrency, swap.

The core contract of :mod:`repro.index.delta` is *bit-identity under
mutation*: at any point in an append/delete/seal/compact history, every
query against the layered store must equal -- bitwise, including
distances and tie-breaks -- the same query against an index rebuilt from
scratch over the live rows.  The tests here enforce that contract three
ways:

* **Differential op sequences** -- a seeded generator interleaves
  append/delete/seal/compact/reopen ops against a ``MutableIndex`` and a
  brute-force model, asserting bit-identical range and kNN answers after
  *every* op (mmap and in-RAM loads, 3 seeds x 200 ops).
* **Concurrency hammer** -- writer threads appending/deleting through a
  ``QueryService`` while readers issue range/kNN; the final store equals
  the serialized op log's rebuild and the mutation counters are exact.
* **Generation swap** -- ``IndexCache`` keeps the live writer across
  self-commits but atomically swaps to a new generation when another
  handle rewrites the manifest.
"""

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.index.delta import (
    DEFAULT_SEAL_THRESHOLD,
    MANIFEST_NAME,
    MutableIndex,
    is_mutable_index,
    read_manifest,
)
from repro.index.grid import GridIndex
from repro.service import QueryEngine, QueryService
from repro.service.server import IndexCache, make_server


def _dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 2.5, size=(5, d))
    return centers[rng.integers(0, 5, n)] + rng.normal(0, 0.7, size=(n, d))


def _eps_for(data):
    from repro.core.selectivity import epsilon_for_selectivity

    return float(epsilon_for_selectivity(data, 8))


class _Model:
    """Brute-force mirror: global id -> row, with a live set."""

    def __init__(self, data):
        self.rows = {i: data[i].copy() for i in range(data.shape[0])}
        self.live = set(self.rows)
        self.next_id = data.shape[0]

    def append(self, rows):
        ids = list(range(self.next_id, self.next_id + rows.shape[0]))
        for i, gid in enumerate(ids):
            self.rows[gid] = rows[i].copy()
            self.live.add(gid)
        self.next_id += rows.shape[0]
        return ids

    def delete(self, ids):
        for gid in ids:
            self.live.remove(gid)

    def live_gids(self):
        return np.array(sorted(self.live), dtype=np.int64)

    def live_rows(self):
        return np.array([self.rows[g] for g in sorted(self.live)])


def _rebuilt(model, eps, *, n_dims=6):
    """A from-scratch engine over the live rows, in ascending-id order."""
    rows = model.live_rows()
    return QueryEngine(GridIndex(rows, eps, n_dims=n_dims), rows)


def _assert_bit_identical(mut, model, queries, k=5, *, atol=None):
    """Range + kNN answers must equal the rebuilt engine's, bitwise.

    ``atol`` relaxes only the *distance* comparison: with exact
    duplicate rows, BLAS per-element rounding depends on a candidate's
    column position inside the reference engine's GEMM, so a 0-distance
    pair can come back as a last-ulp residual (~1e-14) in one engine and
    exactly 0.0 in the other.  Neighbor sets and tie order stay exact.
    """
    gids = model.live_gids()
    ref = _rebuilt(model, mut.eps)

    def _dists_equal(got_d, want_d):
        if atol is None:
            np.testing.assert_array_equal(got_d, want_d)
        else:
            np.testing.assert_allclose(got_d, want_d, rtol=0, atol=atol)

    got = mut.range_query(queries)
    want = ref.range_query(queries)
    order = np.lexsort((want.pairs_j, want.pairs_i))
    np.testing.assert_array_equal(got.pairs_i, want.pairs_i[order])
    np.testing.assert_array_equal(got.pairs_j, gids[want.pairs_j[order]])
    _dists_equal(got.sq_dists, want.sq_dists[order])

    kk = min(k, gids.size)
    got_k = mut.knn_query(queries, k)
    want_k = ref.knn_query(queries, k)
    assert got_k.n_points == gids.size == want_k.n_points
    pad = want_k.indices < 0
    mapped = np.where(pad, -1, gids[np.clip(want_k.indices, 0, None)])
    np.testing.assert_array_equal(got_k.indices, mapped)
    finite = np.isfinite(want_k.sq_dists)
    _dists_equal(got_k.sq_dists[finite], want_k.sq_dists[finite])
    np.testing.assert_array_equal(
        np.isfinite(got_k.sq_dists), finite
    )
    assert np.all(got_k.indices[:, kk:] == -1)


def _run_op_sequence(tmp_path, *, mmap, seed, n_ops=200, n0=150, d=7):
    data = _dataset(n0, d, seed)
    eps = _eps_for(data)
    root = tmp_path / f"mut-{seed}"
    MutableIndex.create(root, data, eps, seal_threshold=40)
    mut = MutableIndex(root, mmap=mmap)
    model = _Model(data)
    rng = np.random.default_rng(seed + 1000)
    queries = data[rng.integers(0, n0, size=10)] + rng.normal(
        0, eps / 8, size=(10, d)
    )

    for step in range(n_ops):
        r = rng.random()
        if r < 0.40:
            rows = _dataset(int(rng.integers(1, 9)), d, seed * 7919 + step)
            ids = mut.append(rows)
            assert ids.tolist() == model.append(rows)
        elif r < 0.62 and len(model.live) > 8:
            take = rng.choice(
                model.live_gids(),
                size=int(rng.integers(1, 4)),
                replace=False,
            )
            assert mut.delete(take) == take.size
            model.delete(take.tolist())
        elif r < 0.70:
            mut.seal()
        elif r < 0.76:
            mut.compact()
            assert mut.n_segments == 0 and mut.n_tombstones == 0
        elif r < 0.80:
            # Reopen from disk: the unsealed buffer is volatile, so
            # seal first -- this also exercises manifest round-tripping.
            mut.seal()
            mut = MutableIndex(root, mmap=mmap)
        if step % 4 == 0 or r >= 0.62:
            assert mut.n_points == len(model.live)
            np.testing.assert_array_equal(mut.live_ids(), model.live_gids())
            _assert_bit_identical(mut, model, queries)
    _assert_bit_identical(mut, model, queries)
    mut.compact()
    _assert_bit_identical(mut, model, queries)
    # And once more through a cold reopen of the compacted store.
    _assert_bit_identical(MutableIndex(root, mmap=mmap), model, queries)


# Stores are grid-only; ``kind`` keeps the test ids stable.
@pytest.mark.parametrize(
    "kind,mmap,seed",
    [("grid", True, 0), ("grid", False, 1), ("grid", True, 2)],
)
def test_differential_op_sequence(tmp_path, kind, mmap, seed):
    _run_op_sequence(tmp_path, mmap=mmap, seed=seed)


def test_duplicate_rows_tie_break(tmp_path):
    """Appended exact duplicates must tie-break like the rebuilt engine
    (lower global id wins), in both range order and kNN indices."""
    data = _dataset(60, 5, 9)
    eps = _eps_for(data)
    root = tmp_path / "dup"
    MutableIndex.create(root, data, eps, seal_threshold=16)
    mut = MutableIndex(root)
    model = _Model(data)
    dup = data[:12].copy()
    assert mut.append(dup).tolist() == model.append(dup)
    mut.seal()
    ids = mut.append(dup[:5])
    model.append(dup[:5])
    queries = data[:8]
    _assert_bit_identical(mut, model, queries, k=7, atol=1e-12)
    mut.delete(ids[:2])
    model.delete(ids[:2].tolist())
    _assert_bit_identical(mut, model, queries, k=7, atol=1e-12)
    mut.compact()
    _assert_bit_identical(mut, model, queries, k=7, atol=1e-12)


def test_buffer_volatile_and_tombstones_durable(tmp_path):
    """Reopen semantics: unsealed appends vanish, deletes survive, and
    tombstones left dangling by a lost buffer are pruned."""
    data = _dataset(50, 5, 3)
    eps = _eps_for(data)
    root = tmp_path / "vol"
    MutableIndex.create(root, data, eps, seal_threshold=1000)
    mut = MutableIndex(root)
    ids = mut.append(_dataset(6, 5, 4))
    mut.delete([0, 1])
    mut.delete(ids[:2])  # tombstones over buffered (volatile) rows
    reopened = MutableIndex(root)
    assert reopened.n_points == 48  # buffer gone, base deletes durable
    assert reopened.n_tombstones == 2  # dangling buffer tombstones pruned
    np.testing.assert_array_equal(
        reopened.live_ids(), np.arange(2, 50, dtype=np.int64)
    )


def test_compact_empty_and_missing_ids(tmp_path):
    data = _dataset(20, 4, 5)
    root = tmp_path / "edge"
    MutableIndex.create(root, data, _eps_for(data))
    mut = MutableIndex(root)
    with pytest.raises(ValueError):
        mut.delete([999])
    assert mut.delete([999, 3], missing="ignore") == 1
    mut.delete(np.arange(20)[np.arange(20) != 3], missing="ignore")
    assert mut.n_points == 0
    with pytest.raises(ValueError):
        mut.compact()  # nothing live to rebuild from


def test_create_rejects_existing_and_empty(tmp_path):
    data = _dataset(10, 4, 6)
    root = tmp_path / "c"
    MutableIndex.create(root, data, _eps_for(data))
    with pytest.raises(ValueError):
        MutableIndex.create(root, data, 1.0)
    with pytest.raises(ValueError):
        MutableIndex.create(tmp_path / "c2", np.empty((0, 4)), 1.0)
    assert is_mutable_index(root)
    m = read_manifest(root)
    assert m["next_id"] == 10 and m["kind"] == "grid"


def test_create_collects_interrupted_staging(tmp_path):
    """A create killed before its rename leaves a ``<name>.saving-*``
    sibling; the next create at that path removes it."""
    data = _dataset(10, 4, 6)
    stale = tmp_path / "st.saving-dead"
    stale.mkdir()
    (stale / MANIFEST_NAME).write_text("{}")
    MutableIndex.create(tmp_path / "st", data, _eps_for(data))
    assert not stale.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["st"]


def test_tree_manifest_rejected_and_old_params_ignored(tmp_path):
    """Stores are grid-only: a tree manifest is refused typed, while a
    grid manifest still carrying the retired tree build params opens,
    compacts and commits."""
    import json

    data = _dataset(40, 4, 8)
    root = tmp_path / "m"
    MutableIndex.create(root, data, _eps_for(data))
    mpath = root / MANIFEST_NAME
    manifest = json.loads(mpath.read_text())
    manifest["params"].update(n_levels=6, n_candidates=38, seed=0)
    mpath.write_text(json.dumps(manifest))
    mut = MutableIndex(root)
    mut.append(_dataset(5, 4, 9))
    mut.delete([0])
    mut.compact()
    assert MutableIndex(root).n_points == 44
    manifest = json.loads(mpath.read_text())
    assert manifest["params"]["n_levels"] == 6  # carried, not used
    manifest["kind"] = "mstree"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="unknown index kind 'mstree'"):
        MutableIndex(root)


def test_serve_mutable_shape_deep_deltas(tmp_path):
    """A miniature of the served mutable workload: tight clusters, small
    seals, queries at cluster centres.  Most query cells of a 64-row
    delta layer are unoccupied, so this drives the empty-cell probe on
    every layer; answers stay bitwise equal to a rebuild at every depth."""
    d, n0, k_clusters = 16, 512, 16
    rng = np.random.default_rng(29)
    centres = rng.uniform(0.0, 40.0, size=(k_clusters, d))

    def near_centres(count):
        picks = rng.integers(0, k_clusters, size=count)
        return centres[picks] + rng.normal(0.0, 0.15, size=(count, d))

    data = near_centres(n0)
    eps = _eps_for(data)
    root = tmp_path / "serve-mutable"
    MutableIndex.create(root, data, eps, seal_threshold=64)
    mut = MutableIndex(root)
    model = _Model(data)
    own = []
    max_depth = 0
    for step in range(40):
        rows = near_centres(16)
        ids = mut.append(rows)
        assert ids.tolist() == model.append(rows)
        own.extend(ids.tolist())
        if step % 3 == 2:
            gone = [own.pop(0), int(rng.integers(0, n0))]
            gone = [g for g in dict.fromkeys(gone) if g in model.live]
            assert mut.delete(gone) == len(gone)
            model.delete(gone)
        max_depth = max(max_depth, mut.delta_depth)
        if step % 5 == 4:
            _assert_bit_identical(mut, model, near_centres(8))
    assert max_depth >= 6
    _assert_bit_identical(mut, model, near_centres(8))


# ----------------------------------------------------------------------
# Concurrency hammer through the QueryService
# ----------------------------------------------------------------------


def test_concurrent_hammer_matches_serial_rebuild(tmp_path):
    """Writers appending/deleting + readers querying, concurrently; the
    final store must equal the rebuild of the merged op log, and the
    mutation counters must account for every op exactly."""
    d = 6
    data = _dataset(120, d, 11)
    eps = _eps_for(data)
    root = tmp_path / "hammer"
    MutableIndex.create(root, data, eps, seal_threshold=32)

    svc = QueryService()
    n_writers, ops_per_writer, n_readers = 4, 25, 3
    appended = [[] for _ in range(n_writers)]  # (gid, row) per writer
    deleted = [[] for _ in range(n_writers)]
    errors = []
    barrier = threading.Barrier(n_writers + n_readers)
    stop_readers = threading.Event()

    def writer(w):
        try:
            rng = np.random.default_rng(100 + w)
            barrier.wait()
            own = []
            for op in range(ops_per_writer):
                if own and rng.random() < 0.3:
                    gid = own.pop(int(rng.integers(0, len(own))))
                    assert svc.delete(root, [gid]) == 1
                    deleted[w].append(gid)
                else:
                    rows = rng.normal(0, 1.5, size=(int(rng.integers(1, 5)), d))
                    ids = svc.append(root, rows)
                    for i, gid in enumerate(ids):
                        appended[w].append((int(gid), rows[i].copy()))
                        own.append(int(gid))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    def reader(ri):
        try:
            rng = np.random.default_rng(200 + ri)
            barrier.wait()
            while not stop_readers.is_set():
                q = data[rng.integers(0, data.shape[0], size=4)]
                if rng.random() < 0.5:
                    res = svc.query(root, q, eps=eps)
                    assert res.pairs_i.size == res.pairs_j.size
                else:
                    res = svc.query(root, q, k=3)
                    assert res.indices.shape == (4, 3)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(n_writers)
    ] + [threading.Thread(target=reader, args=(ri,)) for ri in range(n_readers)]
    for t in threads:
        t.start()
    for t in threads[:n_writers]:
        t.join()
    stop_readers.set()
    for t in threads[n_writers:]:
        t.join()
    assert not errors, errors

    # Serialized-equivalent final state: initial + all appends - deletes.
    model = _Model(data)
    for w in range(n_writers):
        for gid, row in appended[w]:
            model.rows[gid] = row
            model.live.add(gid)
        model.next_id = max(model.next_id, max(
            (gid + 1 for gid, _ in appended[w]), default=0
        ))
    for w in range(n_writers):
        for gid in deleted[w]:
            model.live.remove(gid)

    engine = svc.engine_for(root)
    np.testing.assert_array_equal(engine.live_ids(), model.live_gids())
    # Jittered queries (exact data rows would sit at distance 0 from
    # their base row, where last-ulp GEMM cancellation is visible).
    qrng = np.random.default_rng(999)
    queries = data[:10] + qrng.uniform(-eps / 8, eps / 8, (10, d))
    _assert_bit_identical(engine, model, queries)

    # Mutation counters: exact, and torn-read-free (one snapshot).
    snap = svc.metrics.snapshot()
    total_rows = sum(len(a) for a in appended)
    total_deletes = sum(len(dl) for dl in deleted)
    assert snap["repro_mutable_rows_appended_total"] == total_rows
    assert snap["repro_mutable_tombstones_written_total"] == total_deletes
    assert snap["repro_mutable_deletes_total"] == total_deletes
    # Every op was one request: appends are whatever wasn't a delete.
    assert snap["repro_mutable_appends_total"] == (
        n_writers * ops_per_writer - total_deletes
    )

    out = svc.compact(root)
    assert out["n_live"] == len(model.live)
    assert snap["repro_mutable_compactions_total"] == 0
    assert svc.metrics.snapshot()["repro_mutable_compactions_total"] == 1
    _assert_bit_identical(svc.engine_for(root), model, queries)
    svc.stop()


# ----------------------------------------------------------------------
# IndexCache generation swap
# ----------------------------------------------------------------------


def test_cache_keeps_writer_across_self_commits(tmp_path):
    data = _dataset(40, 5, 21)
    root = tmp_path / "gen"
    MutableIndex.create(root, data, _eps_for(data), seal_threshold=8)
    cache = IndexCache(capacity=4)
    eng = cache.get(root)
    assert isinstance(eng, MutableIndex)
    eng.append(_dataset(10, 5, 22))  # crosses the threshold: seals+commits
    eng.delete([0])
    assert cache.get(root) is eng  # self-commits keep the live writer
    eng.compact()
    assert cache.get(root) is eng


def test_cache_swaps_on_external_rewrite(tmp_path):
    data = _dataset(40, 5, 23)
    root = tmp_path / "swap"
    MutableIndex.create(root, data, _eps_for(data), seal_threshold=8)
    cache = IndexCache(capacity=4)
    old = cache.get(root)
    # Another handle (think: another process) commits a new generation.
    other = MutableIndex(root)
    other.delete([0, 1, 2])
    other.compact()
    new = cache.get(root)
    assert new is not old
    assert new.n_points == 37
    # In-flight requests on the old generation still complete.
    res = old.range_query(data[:4])
    assert res.pairs_i.size >= 0


def test_cache_lookup_inside_commit_window_keeps_writer(tmp_path, monkeypatch):
    """A lookup racing a manifest commit -- after the new manifest is
    swapped in, before the writer records its digest -- must get the
    writer back, not a reload that drops the writer's unsealed rows."""
    data = _dataset(40, 5, 25)
    root = tmp_path / "window"
    MutableIndex.create(root, data, _eps_for(data), seal_threshold=1000)
    cache = IndexCache(capacity=4)
    writer = cache.get(root)
    buffered = writer.append(_dataset(3, 5, 26))  # only `writer` holds them

    looked = []
    lookup = threading.Thread(target=lambda: looked.append(cache.get(root)))
    real_replace = os.replace

    def replace_then_look(src, dst):
        real_replace(src, dst)
        if Path(dst).name == MANIFEST_NAME and lookup.ident is None:
            # Open the window: another request looks the store up now.
            # A correct cache makes it wait for the commit to finish.
            lookup.start()
            lookup.join(timeout=0.5)

    monkeypatch.setattr(os, "replace", replace_then_look)
    assert writer.delete([0]) == 1  # commits the manifest
    monkeypatch.undo()
    lookup.join(timeout=30)
    assert not lookup.is_alive()
    assert looked == [writer]
    assert cache.get(root) is writer
    assert writer.delete(buffered) == buffered.size


def test_cold_lookups_load_a_store_once(tmp_path, monkeypatch):
    """Concurrent first requests share one engine (single-flight load)."""
    import repro.service.server as server_mod

    data = _dataset(40, 5, 27)
    root = tmp_path / "cold"
    MutableIndex.create(root, data, _eps_for(data))
    loads = []

    class SlowLoad(MutableIndex):
        def __init__(self, *args, **kwargs):
            loads.append(1)
            time.sleep(0.2)  # both lookups are in flight before one ends
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(server_mod, "MutableIndex", SlowLoad)
    cache = IndexCache(capacity=4)
    barrier = threading.Barrier(2)
    got = []

    def cold():
        barrier.wait()
        got.append(cache.get(root))

    threads = [threading.Thread(target=cold) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(loads) == 1
    assert got[0] is got[1]
    assert cache.misses == 1 and cache.hits == 1


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------


def test_http_mutation_endpoints(tmp_path):
    from repro.service.client import ServiceClient

    d = 5
    data = _dataset(80, d, 31)
    eps = _eps_for(data)
    mut_root = tmp_path / "m"
    MutableIndex.create(mut_root, data, eps, seal_threshold=16)
    from repro.core.api import build_index

    ro_root = build_index(data, eps, tmp_path / "ro")
    server = make_server(
        {"default": mut_root, "frozen": ro_root}, port=0
    )
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(host, port) as client:
            rows = _dataset(6, d, 32)
            ids = client.append(rows.tolist())
            assert ids == list(range(80, 86))
            assert client.delete(ids[:2]) == 2
            out = client.compact()
            assert out["compacted"] and out["n_live"] == 84
            got = client.range_query(data[:3].tolist())
            assert got["n_queries"] == 3
            # Mutating an immutable registration is a client error.
            status, body = client.request(
                "POST", "/append",
                {"index": "frozen", "rows": rows.tolist()},
            )
            assert status == 400
            status, _ = client.request(
                "POST", "/delete", {"index": "frozen", "ids": [1]}
            )
            assert status == 400
            status, _ = client.request(
                "POST", "/compact", {"index": "frozen"}
            )
            assert status == 400
            # Bad mutation payloads 400 too (never 500).
            status, _ = client.request(
                "POST", "/append", {"rows": [[1.0, 2.0]]}
            )
            assert status == 400
            status, _ = client.request("POST", "/delete", {"ids": [99999]})
            assert status == 400
    finally:
        server.shutdown()
        server.server_close()


def test_default_seal_threshold_sane():
    assert DEFAULT_SEAL_THRESHOLD >= 1
