"""Cell-ordered index payloads (format v3) and the one-``stat`` lookup.

The layout contracts, executable:

* **Answers** -- a persisted index answers range and kNN queries bitwise
  equal to a fresh in-memory engine over the same data (rows in
  original order, gathered and normed per request) and to the
  brute-force reference; a kNN distance tie between rows in two cells
  still resolves to the lower original id.
* **Payloads** -- stored rows are the original rows in cell order,
  ``ids`` is the fresh grid's sort permutation, ``norms`` the FP64
  squared norms; a truncated ``ids`` or ``norms`` payload is refused
  typed at every verify level; seals and compactions write v3.
* **One layout** -- v3 is the only layout read: the committed v2
  directory (``fixtures/index_v2``, written by the v2 writer) and an
  index saved without its rows are refused, naming why.
* **Operand** -- one run of candidate rows is served as a view, any
  other set by one gather, both bitwise the gathered values.
* **Lookup** -- an ``IndexCache`` hit on a settled generation makes
  exactly one ``os.stat`` and opens nothing; a racily clean one also
  reads the file, so a later generation repeating its signature is
  still told apart; a spelling that now leads to another index or store
  finds it.
* **Sampling** -- ``sample_queries`` draws the same points from the
  original-order and cell-ordered layouts of one dataset.
"""

import builtins
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import build_index
from repro.core.engine import SourceOperand, threshold_epilogue
from repro.index.delta import MutableIndex
from repro.index.grid import GridIndex
from repro.index import persist
from repro.index.persist import (
    HEADER_NAME,
    CorruptIndexError,
    load_index,
    read_header,
)
from repro.service import (
    IndexCache,
    QueryEngine,
    brute_range_query,
    sample_queries,
)

FIXTURE_V2 = Path(__file__).parent / "fixtures" / "index_v2"
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32)


def _assert_same_range(a, b):
    """Equal pairs *in order* and bitwise-equal distances."""
    np.testing.assert_array_equal(a.pairs_i, b.pairs_i)
    np.testing.assert_array_equal(a.pairs_j, b.pairs_j)
    np.testing.assert_array_equal(_bits(a.sq_dists), _bits(b.sq_dists))


def _canon(res):
    order = np.lexsort((res.pairs_j, res.pairs_i))
    return res.pairs_i[order], res.pairs_j[order], _bits(res.sq_dists[order])


@pytest.fixture(scope="module")
def v2_data():
    """The v2 fixture's dataset (stored there in original order) and eps,
    read straight from its files."""
    header = json.loads((FIXTURE_V2 / HEADER_NAME).read_text())
    assert header["version"] == 2
    return np.load(FIXTURE_V2 / header["data"]), header["scalars"]["eps"]


@pytest.fixture
def v3_path(v2_data, tmp_path):
    data, eps = v2_data
    return build_index(data, eps, tmp_path / "v3")


def _original_order_engine(data, eps, directory):
    """An engine over ``data`` in original order, memory-mapped from a
    ``.npy``: each candidate set is gathered and normed per request."""
    np.save(directory / "ds.npy", data)
    return QueryEngine(GridIndex(data, eps), directory / "ds.npy")


def _queries(data, eps, nq=80, seed=5):
    rng = np.random.default_rng(seed)
    base = data[rng.integers(0, data.shape[0], nq)]
    return base + rng.normal(0, eps / 5, size=base.shape)


class TestV3Answers:
    def test_range_equals_fresh_and_brute(self, v2_data, v3_path, tmp_path):
        data, eps = v2_data
        q = _queries(data, eps)
        v3 = QueryEngine(v3_path).range_query(q)
        assert v3.pairs_i.size > 0
        _assert_same_range(v3, QueryEngine(GridIndex(data, eps), data).range_query(q))
        _assert_same_range(
            v3, _original_order_engine(data, eps, tmp_path).range_query(q)
        )
        for got, want in zip(_canon(v3), _canon(brute_range_query(data, q, eps))):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_knn_equals_fresh_and_brute(self, v2_data, v3_path, tmp_path, k):
        data, eps = v2_data
        q = _queries(data, eps, seed=6)
        v3 = QueryEngine(v3_path).knn_query(q, k)
        for fresh in (
            QueryEngine(GridIndex(data, eps), data),
            _original_order_engine(data, eps, tmp_path),
        ):
            ref = fresh.knn_query(q, k)
            np.testing.assert_array_equal(v3.indices, ref.indices)
            np.testing.assert_array_equal(_bits(v3.sq_dists), _bits(ref.sq_dists))
        d2 = ((q[:, None, :] - data[None, :, :]) ** 2).sum(axis=-1)
        want = np.argsort(d2, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(v3.indices, want)

    def test_knn_tie_across_cells_breaks_by_original_id(self, tmp_path):
        """Rows 0 and 1 are exactly equidistant from the query, and row 0
        lies in the lexicographically later cell -- stored after row 1."""
        filler = np.array([[10.0 + 3 * i, 10.0 + 5 * i] for i in range(6)])
        data = np.vstack([[1.5, 0.5], [0.5, 0.5], filler])
        path = build_index(data, 1.0, tmp_path / "tie")
        engine = QueryEngine(path)
        stored = engine.rows_of([0, 1])
        assert stored[0] > stored[1]  # the layout really reverses them
        q = np.array([[1.0, 0.5]])
        for k in (1, 2):
            got = engine.knn_query(q, k)
            ref = QueryEngine(GridIndex(data, 1.0), data).knn_query(q, k)
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_array_equal(got.indices[0], [0, 1][:k])
            np.testing.assert_array_equal(_bits(got.sq_dists), _bits(ref.sq_dists))
            assert got.sq_dists[0, k - 1] == np.float32(0.25)


class TestV3Payloads:
    def test_stored_rows_ids_and_norms(self, v2_data, v3_path):
        data, eps = v2_data
        loaded = load_index(v3_path)
        assert loaded.header["version"] == 3
        assert {"ids", "norms"} <= set(loaded.header["arrays"])
        assert "sort" not in loaded.header["arrays"]
        fresh = GridIndex(data, eps)
        np.testing.assert_array_equal(loaded.ids, fresh._sort)
        rows = loaded.source.materialize()
        np.testing.assert_array_equal(rows, data[loaded.ids])
        # Bitwise what the engine's per-gather norm expression yields.
        gathered = rows[np.arange(rows.shape[0])[::-1]]
        want = (gathered * gathered).sum(axis=1)[::-1]
        np.testing.assert_array_equal(
            np.asarray(loaded.norms).view(np.uint64), want.view(np.uint64)
        )
        # Each cell is a run of stored rows, and the runs tile the rows.
        idx = loaded.index
        np.testing.assert_array_equal(idx._starts[1:], idx._ends[:-1])
        for ci, (members, _) in enumerate(idx.iter_cells()):
            np.testing.assert_array_equal(
                members, np.arange(idx._starts[ci], idx._ends[ci])
            )

    @pytest.mark.parametrize("name", ["ids", "norms"])
    @pytest.mark.parametrize("level", ["header", "full", "off"])
    def test_truncated_payload_refused(self, v3_path, name, level):
        entry = read_header(v3_path)["arrays"][name]
        target = v3_path / entry["file"]
        os.truncate(target, target.stat().st_size - 8)
        with pytest.raises(CorruptIndexError):
            load_index(v3_path, verify=level)

    def test_embedded_index_refuses_foreign_rows(self, v3_path, v2_data):
        with pytest.raises(ValueError, match="cell order"):
            QueryEngine(load_index(v3_path), v2_data[0])

    def test_seal_and_compaction_write_v3(self, v2_data, tmp_path):
        data, eps = v2_data
        root = tmp_path / "store"
        store = MutableIndex.create(root, data[:300], eps, seal_threshold=50)
        store.append(data[300:360])  # crosses the threshold: one seal
        layers = [root / store._base_dir] + [
            root / seg["dir"] for seg in store._segments
        ]
        assert len(layers) == 2
        store.delete([3, 301])
        headers = [read_header(layer) for layer in layers]
        store.compact()  # folds the segment into a new base
        headers.append(read_header(root / store._base_dir))
        for header in headers:
            assert header["version"] == 3
            assert {"ids", "norms"} <= set(header["arrays"])
        live = np.delete(data[:360], [3, 301], axis=0)
        live_ids = np.delete(np.arange(360), [3, 301])
        q = _queries(data, eps, nq=40, seed=8)
        got = store.range_query(q)
        want = brute_range_query(live, q, eps)
        gi, gj, gd = _canon(got)
        wi, wj, wd = _canon(want)
        order = np.lexsort((live_ids[wj], wi))
        np.testing.assert_array_equal(gi, wi[order])
        np.testing.assert_array_equal(gj, live_ids[wj][order])
        np.testing.assert_array_equal(gd, wd[order])


class TestOneLayout:
    def test_v2_fixture_is_refused(self):
        for load in (load_index, QueryEngine, IndexCache().get):
            with pytest.raises(ValueError, match="format version 2"):
                load(FIXTURE_V2)

    def test_cli_refuses_v2_without_traceback(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "index", "info", str(FIXTURE_V2)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        out = proc.stdout + proc.stderr
        assert proc.returncode != 0, out
        assert "error:" in out and "Traceback" not in out, out
        assert "format version 2" in out, out

    def test_unembedded_index_is_refused(self, v3_path):
        """The header an index saved without its rows (or referencing
        them by path) had: a ``sort`` payload, no ``ids``/``norms``, no
        embedded dataset."""
        header_path = v3_path / HEADER_NAME
        header = json.loads(header_path.read_text())
        header["arrays"]["sort"] = header["arrays"].pop("ids")
        del header["arrays"]["norms"]
        for key in ("data_embedded", "data_sha256", "data_nbytes"):
            del header[key]
        header["data"] = str(v3_path.parent / "ds.npy")
        header_path.write_text(json.dumps(header))
        with pytest.raises(CorruptIndexError, match="no embedded dataset"):
            load_index(v3_path)
        with pytest.raises(CorruptIndexError, match="no embedded dataset"):
            QueryEngine(v3_path)


class TestStoredRowsOperand:
    def test_run_is_a_view_and_gathers_match(self, v3_path):
        engine = QueryEngine(v3_path)
        op = engine._data
        rows, norms = op.rows, op.norms
        run = np.arange(5, 17)
        r, n = op.take(run)
        assert np.shares_memory(r, rows) and np.shares_memory(n, norms)
        np.testing.assert_array_equal(r, rows[run])
        for idx in (np.array([5, 6, 8, 9]), np.array([9, 3, 4]), np.array([2, 2, 3])):
            r, n = op.take(idx)
            assert not np.shares_memory(r, rows)
            np.testing.assert_array_equal(r, rows[idx])
            np.testing.assert_array_equal(n, norms[idx])

    def test_original_order_rows_are_gathered_per_request(self, v2_data, tmp_path):
        """Rows mapped in original order have no stored norms: the engine
        computes none at open, and each candidate set is gathered and
        normed row by row."""
        engine = _original_order_engine(*v2_data, tmp_path)
        assert type(engine._data) is SourceOperand
        rows = engine.source.materialize()
        idx = np.array([3, 9, 10, 40])
        r, n = engine._data.take(idx)
        np.testing.assert_array_equal(r, rows[idx])
        np.testing.assert_array_equal(
            n.view(np.uint64), (rows[idx] * rows[idx]).sum(axis=1).view(np.uint64)
        )

    def test_one_fill_epilogue_results_survive_the_next_call(self):
        rng = np.random.default_rng(2)
        first_gram = rng.normal(size=(3, 40))
        want = threshold_epilogue(
            first_gram.copy(), np.zeros(3), np.zeros(40), 1.0
        )
        got = threshold_epilogue(
            first_gram.copy(), np.zeros(3), np.zeros(40), 1.0
        )
        snapshot = [a.copy() for a in got]
        threshold_epilogue(
            rng.normal(size=(3, 40)), np.zeros(3), np.zeros(40), 1.0
        )
        for a, b, c in zip(got, snapshot, want):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)


class TestOneStatLookup:
    @staticmethod
    def _count_io(monkeypatch):
        calls = {"stat": 0, "open": 0}
        real_stat, real_open, real_os_open = os.stat, builtins.open, os.open

        def stat(*args, **kwargs):
            calls["stat"] += 1
            return real_stat(*args, **kwargs)

        def opener(real):
            def counted(*args, **kwargs):
                calls["open"] += 1
                return real(*args, **kwargs)
            return counted

        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(builtins, "open", opener(real_open))
        monkeypatch.setattr(io, "open", opener(io.open))
        monkeypatch.setattr(os, "open", opener(real_os_open))
        return calls

    def test_index_hit_is_one_stat_and_no_open(self, v3_path, monkeypatch):
        monkeypatch.setattr(persist, "RACY_NS", 0)  # a settled header
        cache = IndexCache()
        engine = cache.get(v3_path)
        calls = self._count_io(monkeypatch)
        assert cache.get(v3_path) is engine
        monkeypatch.undo()
        assert calls == {"stat": 1, "open": 0}
        assert cache.hits == 1 and cache.misses == 1

    def test_mutable_hit_is_one_stat_and_no_open(self, v2_data, tmp_path, monkeypatch):
        data, eps = v2_data
        monkeypatch.setattr(persist, "RACY_NS", 0)  # a settled manifest
        root = tmp_path / "store"
        MutableIndex.create(root, data, eps)
        cache = IndexCache()
        store = cache.get(root)
        calls = self._count_io(monkeypatch)
        assert cache.get(root) is store
        monkeypatch.undo()
        assert calls == {"stat": 1, "open": 0}

    def test_racy_hit_reads_until_the_header_settles(self, v3_path, monkeypatch):
        monkeypatch.setattr(persist, "RACY_NS", 10**18)  # always racy
        cache = IndexCache()
        engine = cache.get(v3_path)
        calls = self._count_io(monkeypatch)
        assert cache.get(v3_path) is engine
        assert calls == {"stat": 1, "open": 1}
        monkeypatch.setattr(persist, "RACY_NS", 0)  # the clock moved on
        assert cache.get(v3_path) is engine  # verifies once more, settles
        calls.update(stat=0, open=0)
        assert cache.get(v3_path) is engine
        monkeypatch.undo()
        assert calls == {"stat": 1, "open": 0}

    @pytest.mark.parametrize("kind", ["index", "store"])
    def test_racy_signature_repeated_by_a_new_generation(
        self, v2_data, tmp_path, monkeypatch, kind
    ):
        """A later generation that reuses the freed inode within one
        timestamp tick repeats the signature field for field; the digest
        of a racily clean generation still tells the two apart."""
        data, eps = v2_data
        root = tmp_path / kind
        if kind == "index":
            build_index(data, eps, root)
            watched = root / HEADER_NAME
        else:
            MutableIndex.create(root, data, eps)
            watched = root / "state.json"
        cache = IndexCache()
        first = cache.get(root)
        before = os.stat(watched)
        if kind == "index":
            build_index(data[:300], eps, root)
        else:
            other = MutableIndex(root)
            other.delete(np.arange(data.shape[0] - 300))
            other.compact()
        real_stat = os.stat

        def repeated(path, *args, **kwargs):
            if Path(path) == watched:
                return before
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", repeated)
        second = cache.get(root)
        monkeypatch.undo()
        assert second is not first and second.n_points == 300

    def test_retargeted_symlink_finds_the_new_index(self, v2_data, tmp_path):
        data, eps = v2_data
        build_index(data, eps, tmp_path / "blue")
        build_index(data[:300], eps, tmp_path / "green")
        live = tmp_path / "live"
        live.symlink_to("blue")
        cache = IndexCache()
        assert cache.get(live).n_points == data.shape[0]
        (tmp_path / "next").symlink_to("green")
        os.replace(tmp_path / "next", live)
        assert cache.get(live).n_points == 300

    def test_retargeted_symlink_finds_the_new_store(self, v2_data, tmp_path):
        data, eps = v2_data
        blue = MutableIndex.create(tmp_path / "blue", data, eps)
        green = MutableIndex.create(tmp_path / "green", data[:300], eps)
        live = tmp_path / "live"
        live.symlink_to("blue")
        cache = IndexCache()
        served = cache.get(live)
        assert served.n_points == blue.n_points
        (tmp_path / "next").symlink_to("green")
        os.replace(tmp_path / "next", live)
        served = cache.get(live)
        assert served.n_points == green.n_points == 300
        assert served.path.resolve() == (tmp_path / "green").resolve()

    def test_relative_store_path_follows_the_cwd(self, v2_data, tmp_path, monkeypatch):
        data, eps = v2_data
        for name, rows in (("a", data), ("b", data[:300])):
            (tmp_path / name).mkdir()
            MutableIndex.create(tmp_path / name / "store", rows, eps)
        cache = IndexCache()
        monkeypatch.chdir(tmp_path / "a")
        assert cache.get("store").n_points == data.shape[0]
        monkeypatch.chdir(tmp_path / "b")
        assert cache.get("store").n_points == 300

    def test_opening_a_non_store_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="not a mutable index"):
            MutableIndex(tmp_path)

    def test_other_spelling_shares_the_entry(self, v3_path, monkeypatch):
        cache = IndexCache()
        engine = cache.get(v3_path)
        monkeypatch.chdir(v3_path.parent)
        assert cache.get(Path(v3_path.name)) is engine
        assert cache.misses == 1

    def test_replaced_directory_reloads(self, v2_data, v3_path):
        data, eps = v2_data
        cache = IndexCache()
        first = cache.get(v3_path)
        shutil.rmtree(v3_path)
        build_index(data[:200], eps, v3_path)
        second = cache.get(v3_path)
        assert second is not first and second.n_points == 200


class TestSampleQueries:
    def test_same_rows_on_original_and_cell_order(self, v2_data, v3_path, tmp_path):
        data, eps = v2_data
        want = sample_queries(data, eps, 24, seed=11)
        for engine in (
            _original_order_engine(data, eps, tmp_path), QueryEngine(v3_path)
        ):
            got = sample_queries(engine, eps, 24, seed=11)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_mutable_store_samples_its_base_by_original_id(self, v2_data, tmp_path):
        data, eps = v2_data
        store = MutableIndex.create(tmp_path / "m", data, eps)
        np.testing.assert_array_equal(
            sample_queries(store, eps, 8, seed=2),
            sample_queries(data, eps, 8, seed=2),
        )
