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
  *every* op (mapped loads, 3 seeds x 200 ops).
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


def _run_op_sequence(tmp_path, *, seed, n_ops=200, n0=150, d=7):
    data = _dataset(n0, d, seed)
    eps = _eps_for(data)
    root = tmp_path / f"mut-{seed}"
    MutableIndex.create(root, data, eps, seal_threshold=40)
    mut = MutableIndex(root)
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
            mut = MutableIndex(root)
        if step % 4 == 0 or r >= 0.62:
            assert mut.n_points == len(model.live)
            np.testing.assert_array_equal(mut.live_ids(), model.live_gids())
            _assert_bit_identical(mut, model, queries)
    _assert_bit_identical(mut, model, queries)
    mut.compact()
    _assert_bit_identical(mut, model, queries)
    # And once more through a cold reopen of the compacted store.
    _assert_bit_identical(MutableIndex(root), model, queries)


# Stores are grid-only and read their mapped rows; ``kind`` and ``mmap``
# keep the test ids stable.
@pytest.mark.parametrize(
    "kind,mmap,seed",
    [("grid", True, 0), ("grid", False, 1), ("grid", True, 2)],
)
def test_differential_op_sequence(tmp_path, kind, mmap, seed):
    _run_op_sequence(tmp_path, seed=seed)


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


def _probed_reaches(monkeypatch):
    """Record the ``reach`` of every ``GridIndex.iter_join_groups`` call."""
    reaches = []
    real = GridIndex.iter_join_groups

    def spy(self, queries, **kwargs):
        reaches.append(kwargs.get("reach", 1))
        return real(self, queries, **kwargs)

    monkeypatch.setattr(GridIndex, "iter_join_groups", spy)
    return reaches


def test_tombstones_do_not_widen_the_knn_probe(tmp_path, monkeypatch):
    """Tombstones far from the queries cost a kNN read nothing: with 600
    dead base rows the store probes no reach a tombstone-free copy does
    not, and still answers like a rebuild over the live rows."""
    d = 6
    rng = np.random.default_rng(41)
    near = rng.normal(0.0, 1.0, size=(900, d))
    far = rng.normal(0.0, 1.0, size=(600, d)) + 40.0
    data = np.concatenate([near, far])
    eps = _eps_for(near)
    MutableIndex.create(tmp_path / "dead", data, eps)
    MutableIndex.create(tmp_path / "clean", data, eps)
    dead, clean = MutableIndex(tmp_path / "dead"), MutableIndex(tmp_path / "clean")
    model = _Model(data)
    gone = np.arange(900, 1500)
    assert dead.delete(gone) == gone.size
    model.delete(gone.tolist())
    queries = near[::90] + rng.normal(0.0, eps / 8, size=(10, d))
    reaches = _probed_reaches(monkeypatch)
    for k in (1, 5, 40):
        del reaches[:]
        clean.knn_query(queries, k)
        clean_reaches = set(reaches)
        del reaches[:]
        dead.knn_query(queries, k)
        assert set(reaches) <= clean_reaches, (k, reaches, clean_reaches)
        _assert_bit_identical(dead, model, queries, k=k)


@pytest.mark.parametrize("k", [4, 500])
def test_knn_covered_rule_across_parts(tmp_path, monkeypatch, k):
    """Queries far from every row, and ``k`` past the live count, resolve
    only when every part covered them: the base, the block and a large
    segment, each holding tombstones, give all of their live rows, and
    the answers equal a rebuild's."""
    import repro.index.delta as delta_mod

    monkeypatch.setattr(delta_mod, "BLOCK_SEGMENT_ROWS", 24)
    d = 5
    data = _dataset(120, d, 97)
    eps = _eps_for(data)
    root = tmp_path / "covered"
    MutableIndex.create(root, data, eps, seal_threshold=16)
    mut = MutableIndex(root)
    model = _Model(data)
    for rows in (_dataset(16, d, 98), _dataset(40, d, 99), _dataset(5, d, 100)):
        assert mut.append(rows).tolist() == model.append(rows)
    assert len(mut._large) == 1 and mut.delta_rows == 21
    gone = [3, 77, 121, 130, 140, 150, 177, 180]  # base, block, large, buffer
    assert mut.delete(gone) == len(gone)
    model.delete(gone)
    queries = np.concatenate([
        data[:3] + np.random.default_rng(101).normal(0, eps / 8, (3, d)),
        data[:3] + 60.0 * eps,
    ])
    reaches = _probed_reaches(monkeypatch)
    _assert_bit_identical(mut, model, queries, k=k)
    assert max(reaches) >= 32  # the far queries went out to a covering reach


# ----------------------------------------------------------------------
# The delta block's lifecycle
# ----------------------------------------------------------------------


def _range_answer(mut, queries):
    res = mut.range_query(queries)
    return [res.pairs_i, res.pairs_j, res.sq_dists.view(np.uint32)]


def _knn_answer(mut, queries, k=5):
    knn = mut.knn_query(queries, k)
    return [knn.indices, knn.sq_dists.view(np.uint32)]


def _answers(mut, queries, k=5):
    """Range pairs + distance bits and kNN indices + distance bits."""
    return _range_answer(mut, queries) + _knn_answer(mut, queries, k)


def _assert_same_answers(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_snapshot_reads_survive_block_growth(tmp_path, monkeypatch):
    """Reads that captured their generation before appends forced the
    delta block to grow -- or before a compaction replaced it -- answer
    range and kNN with the same bits as before those writes."""
    import repro.index.delta as delta_mod

    d = 6
    data = _dataset(200, d, 41)
    eps = _eps_for(data)
    root = tmp_path / "grow"
    MutableIndex.create(root, data, eps, seal_threshold=24)
    mut = MutableIndex(root)
    rng = np.random.default_rng(42)

    def near_data(n):  # rows among the base's, so answers mix both parts
        return data[rng.integers(0, 200, n)] + rng.normal(0, eps / 4, (n, d))

    mut.append(near_data(30))
    mut.delete([3, 201])
    queries = near_data(8)
    reads = {
        "range": lambda: _range_answer(mut, queries),
        "knn": lambda: _knn_answer(mut, queries),
    }
    # Each reader pauses once inside its block pass -- after it captured
    # its generation -- until the writes below are done.
    pending: set = set()
    arrived, release = threading.Semaphore(0), threading.Event()

    def pause(real):
        def wrapped(*args, **kwargs):
            me = threading.current_thread()
            if me in pending:
                pending.discard(me)
                arrived.release()
                assert release.wait(timeout=30)
            return real(*args, **kwargs)
        return wrapped

    for name in ("tile_join", "norm_expansion_sq_dists"):
        monkeypatch.setattr(delta_mod, name, pause(getattr(delta_mod, name)))

    for mutate in ("grow", "compact"):
        want = {name: read() for name, read in reads.items()}
        got, errors = {}, []

        def reader(name):
            try:
                got[name] = reads[name]()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        release.clear()
        threads = [
            threading.Thread(target=reader, args=(name,)) for name in reads
        ]
        pending.update(threads)
        for t in threads:
            t.start()
        for _ in threads:
            assert arrived.acquire(timeout=30)  # both hold a generation
        rows_before = mut._block.rows
        if mutate == "grow":
            for _ in range(6):
                mut.append(near_data(17))
            assert mut._block.rows is not rows_before  # capacity grew
        else:
            # Rows appended while the compaction builds are the block's
            # suffix the commit keeps.
            def build_after_append(cls, *args, **kwargs):
                mut.append(near_data(5))
                return real_from_source(cls, *args, **kwargs)

            real_from_source = GridIndex.from_source.__func__
            with monkeypatch.context() as patch:
                patch.setattr(
                    GridIndex, "from_source", classmethod(build_after_append)
                )
                mut.compact()
            assert mut.delta_rows == 5
        release.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert not errors, errors
        for name in reads:
            _assert_same_answers(got[name], want[name])


def test_appends_during_compaction_are_answered(tmp_path, monkeypatch):
    """Rows appended (sealed and buffered) and deleted while a compaction
    builds its new base are answered after its commit, bitwise like a
    rebuild, and survive a reopen."""
    d = 5
    data = _dataset(120, d, 51)
    eps = _eps_for(data)
    root = tmp_path / "race"
    MutableIndex.create(root, data, eps, seal_threshold=16)
    mut = MutableIndex(root)
    model = _Model(data)
    rows = _dataset(20, d, 52)
    assert mut.append(rows).tolist() == model.append(rows)
    mut.delete([7])
    model.delete([7])

    real_from_source = GridIndex.from_source.__func__
    late = []

    def from_source_with_writes(cls, *args, **kwargs):
        if not late:  # once: while the compaction builds, outside its lock
            more = _dataset(21, d, 53)  # seals one segment, buffers 5
            ids = mut.append(more)
            assert ids.tolist() == model.append(more)
            late.extend(ids.tolist())
            gone = [late[2], 11]  # a late row and a folded base row
            assert mut.delete(gone) == 2
            model.delete(gone)
        return real_from_source(cls, *args, **kwargs)

    monkeypatch.setattr(
        GridIndex, "from_source", classmethod(from_source_with_writes)
    )
    mut.compact()
    monkeypatch.undo()
    assert late
    assert mut.n_segments == 1 and mut.delta_rows == 21
    queries = np.concatenate([data[:4], _dataset(21, d, 53)[:4]])
    queries = queries + np.random.default_rng(54).normal(0, eps / 8, queries.shape)
    _assert_bit_identical(mut, model, queries)
    hits = set(mut.range_query(queries).pairs_j.tolist())
    assert hits & set(late)  # the late rows are really answered
    mut.seal()
    _assert_bit_identical(MutableIndex(root), model, queries)


def test_reopen_answers_like_the_handle(tmp_path):
    """A store reopened with sealed segments and tombstones (base and
    delta rows) answers range and kNN bitwise like the handle before."""
    d = 7
    data = _dataset(150, d, 61)
    eps = _eps_for(data)
    root = tmp_path / "reopen"
    MutableIndex.create(root, data, eps, seal_threshold=20)
    mut = MutableIndex(root)
    for seed in range(62, 67):
        mut.append(_dataset(13, d, seed))
    mut.delete([0, 5, 151, 170, 205])
    mut.seal()
    assert mut.n_segments == 3 and mut.n_tombstones == 5
    queries = data[::25] + np.random.default_rng(68).normal(0, eps / 8, (6, d))
    for k in (1, 5, 40):
        want = _answers(mut, queries, k)
        reopened = MutableIndex(root)
        assert reopened.delta_rows == mut.delta_rows == 65
        _assert_same_answers(_answers(reopened, queries, k), want)


def test_delta_rows_gauge_tracks_the_block(tmp_path):
    """``delta_rows`` counts every sealed and buffered row; the service
    exports it beside the delta depth, and compaction empties it."""
    data = _dataset(50, 4, 73)
    root = tmp_path / "gauge"
    MutableIndex.create(root, data, _eps_for(data), seal_threshold=8)
    with QueryService() as svc:
        svc.append(root, _dataset(9, 4, 74))  # sealed: one segment
        svc.append(root, _dataset(2, 4, 75))  # + the buffer
        svc.delete(root, [50])  # a dead block row still takes a column
        snap = svc.metrics.snapshot()
        assert snap["repro_mutable_delta_rows"] == 11
        assert snap["repro_mutable_delta_depth"] == 2
        assert svc.engine_for(root).delta_rows == 11
        svc.compact(root)
        snap = svc.metrics.snapshot()
        assert snap["repro_mutable_delta_rows"] == 0
        assert snap["repro_mutable_delta_depth"] == 0


def test_truncated_segment_payload_raises_at_open(tmp_path):
    """Opening reads every segment's rows into the delta block; a short
    segment payload is refused as corruption, not read as rows."""
    from repro.index.persist import CorruptIndexError

    data = _dataset(60, 4, 71)
    root = tmp_path / "trunc"
    MutableIndex.create(root, data, _eps_for(data), seal_threshold=10)
    MutableIndex(root).append(_dataset(10, 4, 72))  # seals one segment
    (seg,) = read_manifest(root)["segments"]
    victim = max((root / seg["dir"]).glob("data-*.npy"))
    with open(victim, "r+b") as fh:
        fh.truncate(victim.stat().st_size - 8)
    with pytest.raises(CorruptIndexError):
        MutableIndex(root)


def test_large_segments_keep_their_own_engine(tmp_path, monkeypatch):
    """A sealed segment past ``BLOCK_SEGMENT_ROWS`` -- a bulk append --
    is read through its own grid engine over its mapped rows, not copied
    into the block; ids on both sides of it stay in the block, and
    answers (duplicate-row ties included) equal a rebuild's through
    deletes, a reopen and a compaction."""
    import repro.index.delta as delta_mod

    monkeypatch.setattr(delta_mod, "BLOCK_SEGMENT_ROWS", 24)
    d = 5
    data = _dataset(120, d, 91)
    eps = _eps_for(data)
    root = tmp_path / "large"
    MutableIndex.create(root, data, eps, seal_threshold=16)
    mut = MutableIndex(root)
    model = _Model(data)

    def append(rows):
        assert mut.append(rows).tolist() == model.append(rows)

    # ids 120..135: a small segment, in the block; 120..123 duplicate
    # base rows, as 136..145 and 176..183 do, so kNN ties span parts.
    append(np.concatenate([data[:4], _dataset(12, d, 92)]))
    bulk = np.concatenate([data[:10], _dataset(30, d, 93)])
    append(bulk[:6])  # buffered, then sealed with the bulk below
    append(bulk[6:])  # ids 136..175: one large segment
    append(data[:8])  # ids 176..183: the buffer, duplicates of base rows
    assert mut.n_segments == 2 and mut.delta_rows == 24
    assert mut.delta_depth == 3
    (large,) = mut._large.values()
    assert large.gids.tolist() == list(range(136, 176))
    assert not mut._block.contains(large.gids).any()
    assert isinstance(large.engine.source.load_block(0, 1), np.ndarray)
    queries = data[:10] + np.random.default_rng(94).normal(0, eps / 8, (10, d))
    _assert_bit_identical(mut, model, queries, k=7, atol=1e-12)
    gone = [2, 125, 140, 141, 180]
    assert mut.delete(gone) == 5
    model.delete(gone)
    _assert_bit_identical(mut, model, queries, k=7, atol=1e-12)
    with pytest.raises(ValueError):
        mut.delete([176 + 40])  # past next_id: not a row anywhere
    mut.seal()
    reopened = MutableIndex(root)
    assert reopened.delta_rows == 24 and len(reopened._large) == 1
    _assert_same_answers(
        _answers(reopened, queries, 7), _answers(mut, queries, 7)
    )
    reopened.compact()
    assert reopened.delta_rows == 0 and not reopened._large
    _assert_bit_identical(reopened, model, queries, k=7, atol=1e-12)


def test_failed_bulk_seal_keeps_rows_answered(tmp_path, monkeypatch):
    """A bulk append whose seal fails leaves its rows buffered -- in the
    block, so still answered -- and the next seal writes them."""
    import repro.index.delta as delta_mod

    monkeypatch.setattr(delta_mod, "BLOCK_SEGMENT_ROWS", 24)
    d = 4
    data = _dataset(80, d, 95)
    root = tmp_path / "failseal"
    MutableIndex.create(root, data, _eps_for(data), seal_threshold=16)
    mut = MutableIndex(root)
    model = _Model(data)
    rows = _dataset(5, d, 96)
    mut.append(rows)
    model.append(rows)
    real_save = delta_mod.save_index

    def failing_save(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(delta_mod, "save_index", failing_save)
    bulk = _dataset(30, d, 97)
    with pytest.raises(OSError):
        mut.append(bulk)
    model.append(bulk)
    assert mut.n_segments == 0 and mut.delta_rows == 35
    queries = bulk[:6]
    _assert_bit_identical(mut, model, queries)
    monkeypatch.setattr(delta_mod, "save_index", real_save)
    mut.seal()
    assert mut.n_segments == 1 and mut.delta_rows == 0
    _assert_bit_identical(MutableIndex(root), model, queries)

    # A commit that fails after the segment is written: the rows are
    # sealed (read through the segment's engine) and not also in the block.
    real_commit = MutableIndex._commit_manifest_locked

    def failing_commit(self):
        monkeypatch.setattr(
            MutableIndex, "_commit_manifest_locked", real_commit
        )
        raise OSError("disk full")

    monkeypatch.setattr(MutableIndex, "_commit_manifest_locked", failing_commit)
    bulk = _dataset(30, d, 98)
    with pytest.raises(OSError):
        mut.append(bulk)
    model.append(bulk)
    assert mut.n_segments == 2 and mut.delta_rows == 0
    _assert_bit_identical(mut, model, bulk[:6])
    mut.delete([0])  # the next commit writes the segment's record
    model.delete([0])
    _assert_bit_identical(MutableIndex(root), model, bulk[:6])


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
