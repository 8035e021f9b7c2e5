"""Chaos suite: every fault point driven to a typed error or a clean recovery.

The fault-injection harness (:mod:`repro.faults`) is only worth having if
each instrumented layer demonstrably survives its faults, so this module
pins the fault-tolerance contracts end to end:

* **Persistence** -- ``SIGKILL`` at any point inside ``save_index``
  leaves either the old index or the new one fully loadable (never a torn
  directory); corruption and truncation are caught by ``verify=`` levels
  *before* any payload is handed to a query engine, as typed
  :class:`~repro.index.persist.CorruptIndexError`.
* **Execution** -- a mid-stream source fault aborts the streaming
  executors without leaking spill chunks.
* **Serving** -- a full admission queue answers
  :class:`~repro.service.ServiceOverloaded` / HTTP 429 within 50 ms,
  ``stop(drain=True)`` fails queued waiters fast with
  :class:`~repro.service.ServiceShuttingDown` (never abandons them), stale
  requests die as :class:`~repro.service.DeadlineExceeded`, every HTTP
  failure mode is well-formed JSON booked once under its own status in
  ``/metrics``, and the retrying client rides out transient 429s.

Faults are armed programmatically per test (an autouse fixture disarms
between tests) or via ``REPRO_FAULTS`` in subprocesses -- the same knob
the CI chaos leg uses.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import faults
from repro.core.api import build_index, open_index
from repro.core.engine import SourceOperand, tile_join
from repro.core.results import PairAccumulator
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.source import ArraySource
from repro.index.delta import (
    COMPACT_LOCK_NAME,
    CompactionInProgress,
    MutableIndex,
    read_manifest,
)
from repro.index.grid import GridIndex
from repro.index.persist import (
    HEADER_NAME,
    SAVING_SUFFIX,
    CorruptIndexError,
    load_index,
    read_header,
    verify_index,
)
from repro.kernels.tedjoin import TedJoinKernel
from repro.service import (
    DeadlineExceeded,
    IndexCache,
    QueryService,
    ServiceClient,
    ServiceOverloaded,
    ServiceShuttingDown,
    ServiceUnavailable,
    make_server,
    parse_prometheus_text,
)

_SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends disarmed, with a reseeded fault RNG."""
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def served_index(tmp_path_factory):
    """One persisted grid index shared by the service-layer tests."""
    rng = np.random.default_rng(7)
    data = rng.normal(size=(500, 12))
    eps = float(epsilon_for_selectivity(data, 8))
    path = tmp_path_factory.mktemp("served") / "idx"
    build_index(data, eps, path)
    return path, data, eps


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_VAR, None)
    return env


# ----------------------------------------------------------------------
# Harness mechanics
# ----------------------------------------------------------------------


class TestHarness:
    def test_disarmed_by_default(self):
        assert faults.ARMED is False
        assert faults.active() == {}
        assert faults.check("persist.write") is None

    def test_arm_validates_inputs(self):
        with pytest.raises(ValueError):
            faults.arm("no.such.point", "error")
        with pytest.raises(ValueError):
            faults.arm("persist.write", "explode")
        with pytest.raises(ValueError):
            faults.arm("persist.write", "error", prob=1.5)

    def test_armed_gate_tracks_spec_lifecycle(self):
        assert faults.ARMED is False
        faults.arm("source.read", "delay", param=0.0)
        assert faults.ARMED is True
        faults.disarm("source.read")
        assert faults.ARMED is False

    def test_count_bounds_firing(self):
        faults.arm("source.read", "error", count=2)
        for _ in range(2):
            with pytest.raises(faults.FaultError):
                faults.check("source.read")
        assert faults.check("source.read") is None
        assert faults.active()["source.read"].fired == 2

    def test_after_skips_early_evaluations(self):
        faults.arm("source.read", "error", after=2)
        assert faults.check("source.read") is None
        assert faults.check("source.read") is None
        with pytest.raises(faults.FaultError):
            faults.check("source.read")

    def test_probability_is_seeded_and_roughly_honored(self):
        faults.arm("source.read", "error", prob=0.4, seed=7)
        fired = 0
        for _ in range(300):
            try:
                faults.check("source.read")
            except faults.FaultError:
                fired += 1
        assert 60 < fired < 180  # ~120 expected; wide deterministic band

    def test_corrupt_kind_returns_marker(self):
        faults.arm("persist.payload", "corrupt")
        assert faults.check("persist.payload") == "corrupt"

    def test_corrupt_file_flips_one_byte(self, tmp_path):
        p = tmp_path / "blob"
        payload = bytes(range(64))
        p.write_bytes(payload)
        faults.corrupt_file(p)
        after = p.read_bytes()
        assert len(after) == len(payload)
        assert sum(a != b for a, b in zip(payload, after)) == 1

    def test_env_parsing(self):
        specs = faults.configure_from_env(
            "persist.write:error:0.5, service.dispatch:delay:1.0:0.02"
        )
        assert {s.point for s in specs} == {"persist.write", "service.dispatch"}
        assert faults.active()["persist.write"].prob == 0.5
        assert faults.active()["service.dispatch"].param == 0.02
        with pytest.raises(ValueError):
            faults.configure_from_env("garbage")
        assert faults.configure_from_env("") == []

    def test_env_arms_at_import_in_subprocess(self):
        env = _subprocess_env()
        env[faults.ENV_VAR] = "source.read:error:0.25"
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro import faults; import json; "
                "print(json.dumps({p: [s.kind, s.prob] "
                "for p, s in faults.active().items()}))",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"source.read": ["error", 0.25]}

    def test_malformed_env_fails_loudly_in_subprocess(self):
        env = _subprocess_env()
        env[faults.ENV_VAR] = "not-a-spec"
        out = subprocess.run(
            [sys.executable, "-c", "import repro.faults"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode != 0
        assert "ValueError" in out.stderr


# ----------------------------------------------------------------------
# Crash-safe persistence
# ----------------------------------------------------------------------

# Builds (deterministically, from the seed) and saves an index, with a
# kill fault armed somewhere inside save_index.  The print never runs.
_KILL_SAVE_SCRIPT = """
import sys
import numpy as np
from repro import faults
from repro.core.api import build_index
from repro.core.selectivity import epsilon_for_selectivity

point, after, path, seed = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
)
rng = np.random.default_rng(seed)
data = rng.normal(size=(250, 8))
eps = float(epsilon_for_selectivity(data, 8))
faults.arm(point, "kill", after=after)
build_index(data, eps, path)
print("SURVIVED")
"""

#: Kill sites spanning the save: the first payload write, a mid-save
#: payload write, and the instant before the atomic commit.
_KILL_SITES = [("persist.payload", 0), ("persist.payload", 2), ("persist.write", 0)]


def _save_killed_at(point, after, path, seed):
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _KILL_SAVE_SCRIPT,
            point,
            str(after),
            str(path),
            str(seed),
        ],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (proc.returncode, proc.stderr)
    assert "SURVIVED" not in proc.stdout
    return proc


def _reference_build(path, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(250, 8))
    eps = float(epsilon_for_selectivity(data, 8))
    build_index(data, eps, path)


class TestCrashSafePersistence:
    def test_kill_during_fresh_save_leaves_no_index(self, tmp_path):
        path = tmp_path / "fresh"
        for point, after in _KILL_SITES:
            _save_killed_at(point, after, path, seed=1)
            assert not path.exists()
        # The latest interrupted attempt left staging debris behind (each
        # save GCs its predecessors' debris on entry) ...
        stale = list(tmp_path.glob(f"fresh{SAVING_SUFFIX}*"))
        assert len(stale) == 1
        # ... which the next (clean) save garbage-collects on its way in.
        _reference_build(path, seed=1)
        loaded = load_index(path, verify="full")
        assert loaded.index.n_points == 250
        assert not list(tmp_path.glob(f"fresh{SAVING_SUFFIX}*"))

    def test_kill_during_replacement_keeps_old_generation(self, tmp_path):
        path = tmp_path / "repl"
        _reference_build(path, seed=1)
        before = read_header(path)
        for point, after in _KILL_SITES:
            _save_killed_at(point, after, path, seed=2)
            # The commit never happened: byte-identical header, payloads
            # that still pass full checksum verification.
            assert read_header(path) == before
            load_index(path, verify="full")
        # A clean replacement then commits the new generation and GCs
        # every stale staging dir and orphaned payload.
        _reference_build(path, seed=2)
        after_header = read_header(path)
        assert after_header != before
        load_index(path, verify="full")
        assert not list(tmp_path.glob(f"repl{SAVING_SUFFIX}*"))
        referenced = {e["file"] for e in after_header["arrays"].values()}
        if after_header.get("data_embedded"):
            referenced.add(after_header["data"])
        on_disk = {p.name for p in path.iterdir()} - {HEADER_NAME}
        assert on_disk == referenced

    # One kind persists; the parameter keeps the test id stable.
    @pytest.mark.parametrize("kind", ["grid"])
    def test_corrupt_payload_caught_by_full_verify(self, tmp_path, kind):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(300, 8))
        eps = float(epsilon_for_selectivity(data, 8))
        path = tmp_path / kind
        build_index(data, eps, path)
        header = read_header(path)
        victim = path / next(iter(header["arrays"].values()))["file"]
        # Flip a byte of real array data (the npy payload tail), past the
        # npy format header: the cheap level passes, the checksum level
        # and the loader both refuse before any payload reaches a query.
        faults.corrupt_file(victim, offset=victim.stat().st_size - 16)
        load_index(path, verify="header")
        with pytest.raises(CorruptIndexError):
            load_index(path, verify="full")
        with pytest.raises(CorruptIndexError):
            open_index(path, verify="full")

    # One kind persists; the parameter keeps the test id stable.
    @pytest.mark.parametrize("kind", ["grid"])
    def test_truncated_payload_caught_by_header_verify(self, tmp_path, kind):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(300, 8))
        eps = float(epsilon_for_selectivity(data, 8))
        path = tmp_path / kind
        build_index(data, eps, path)
        header = read_header(path)
        victim = path / next(iter(header["arrays"].values()))["file"]
        with open(victim, "r+b") as fh:
            fh.truncate(victim.stat().st_size - 8)
        with pytest.raises(CorruptIndexError):
            load_index(path, verify="header")
        with pytest.raises(CorruptIndexError):
            load_index(path, verify="full")

    def test_cli_reports_truncated_payload_without_traceback(self, tmp_path):
        """``index info`` and ``serve --self-test`` map a corrupt index to
        one ``error:`` line and a non-zero exit, like ``query`` does."""
        rng = np.random.default_rng(6)
        data = rng.normal(size=(300, 8))
        path = tmp_path / "idx"
        build_index(data, float(epsilon_for_selectivity(data, 8)), path)
        victim = path / read_header(path)["data"]
        with open(victim, "r+b") as fh:
            fh.truncate(victim.stat().st_size - 8)
        for argv in (
            ["index", "info", str(path)],
            ["serve", "--index", str(path), "--self-test"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                env=_subprocess_env(), capture_output=True, text=True,
                timeout=120,
            )
            out = proc.stdout + proc.stderr
            assert proc.returncode != 0, (argv, out)
            assert "error:" in out and "Traceback" not in out, (argv, out)

    def test_cli_reports_tree_header_without_traceback(self, tmp_path):
        """A header of a kind the store no longer persists is a loader
        ``ValueError``; ``index info``, ``query`` and ``serve --self-test``
        report it as one ``error:`` line and a non-zero exit."""
        rng = np.random.default_rng(7)
        data = rng.normal(size=(200, 6))
        path = tmp_path / "idx"
        build_index(data, float(epsilon_for_selectivity(data, 8)), path)
        header = json.loads((path / HEADER_NAME).read_text())
        header["kind"] = "mstree"
        (path / HEADER_NAME).write_text(json.dumps(header))
        for argv in (
            ["index", "info", str(path)],
            ["query", str(path), "--n-queries", "4"],
            ["serve", "--index", str(path), "--self-test"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                env=_subprocess_env(), capture_output=True, text=True,
                timeout=120,
            )
            out = proc.stdout + proc.stderr
            assert proc.returncode != 0, (argv, out)
            assert "error:" in out and "Traceback" not in out, (argv, out)
            assert "unknown index kind 'mstree'" in out, (argv, out)

    def test_header_corruption_is_typed(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(200, 6))
        eps = float(epsilon_for_selectivity(data, 8))
        path = tmp_path / "idx"
        build_index(data, eps, path)
        header_path = path / HEADER_NAME
        good = header_path.read_bytes()

        header_path.write_bytes(b"{ this is not json")
        with pytest.raises(CorruptIndexError):
            read_header(path)
        header_path.write_bytes(good[: len(good) // 2])  # torn write
        with pytest.raises(CorruptIndexError):
            read_header(path)
        # Wrong magic is an incompatibility, not corruption.
        junk = json.loads(good)
        junk["magic"] = "nope"
        header_path.write_bytes(json.dumps(junk).encode())
        with pytest.raises(ValueError):
            read_header(path)
        with pytest.raises(ValueError):
            read_header(tmp_path / "does-not-exist")

    @pytest.mark.parametrize(
        "field",
        [f"scalars.{name}" for name in ("eps", "n_points", "n_dims_data", "r")]
        + [
            f"arrays.{name}"
            for name in ("order", "starts", "ends", "unique", "ids", "norms")
        ]
        + ["data", "data_embedded"],
    )
    def test_missing_header_field_is_typed(self, tmp_path, field):
        """A header that lost a scalar, a payload entry or the embedded
        dataset's entry is corrupt, refused before any payload is read."""
        rng = np.random.default_rng(8)
        data = rng.normal(size=(200, 6))
        path = tmp_path / "idx"
        build_index(data, float(epsilon_for_selectivity(data, 8)), path)
        header = json.loads((path / HEADER_NAME).read_text())
        *parents, name = field.split(".")
        node = header
        for key in parents:
            node = node[key]
        del node[name]
        (path / HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(CorruptIndexError, match=repr(name) if parents else "dataset"):
            read_header(path)
        for level in ("header", "full"):
            with pytest.raises(CorruptIndexError):
                load_index(path, verify=level)

    def test_malformed_payload_entry_is_typed(self, tmp_path):
        """An entry that names no file is refused like a missing one,
        typed, before any payload check runs."""
        rng = np.random.default_rng(8)
        data = rng.normal(size=(200, 6))
        path = tmp_path / "idx"
        build_index(data, float(epsilon_for_selectivity(data, 8)), path)
        header = json.loads((path / HEADER_NAME).read_text())
        header["arrays"]["ids"] = header["arrays"]["ids"]["file"]
        (path / HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(CorruptIndexError, match="'ids'"):
            load_index(path, verify="header")

    def test_verify_off_is_refused(self, tmp_path):
        """There is no unchecked load: ``verify="off"`` is a ValueError
        at every entry point, before anything is mapped."""
        rng = np.random.default_rng(10)
        data = rng.normal(size=(200, 6))
        eps = float(epsilon_for_selectivity(data, 8))
        path = tmp_path / "idx"
        build_index(data, eps, path)
        store = tmp_path / "store"
        build_index(data, eps, store, mutable=True)
        for load in (
            lambda: load_index(path, verify="off"),
            lambda: verify_index(path, level="off"),
            lambda: open_index(path, verify="off"),
            lambda: MutableIndex(store, verify="off"),
        ):
            with pytest.raises(ValueError, match="verify must be one of"):
                load()

    def test_cli_verify_off_exits_2(self, tmp_path, capsys):
        """``--verify off`` is not a choice of ``query`` or ``serve``:
        argparse refuses it with exit status 2."""
        from repro.cli import main

        for argv in (
            ["query", str(tmp_path), "--verify", "off"],
            ["serve", "--index", str(tmp_path), "--verify", "off"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "invalid choice: 'off'" in capsys.readouterr().err

    def test_cli_reports_missing_scalar_without_traceback(self, tmp_path):
        """``index info`` and ``serve --self-test`` on a header that lost
        ``scalars.eps`` print one ``error:`` line, not a ``KeyError``."""
        rng = np.random.default_rng(9)
        data = rng.normal(size=(200, 6))
        path = tmp_path / "idx"
        build_index(data, float(epsilon_for_selectivity(data, 8)), path)
        header = json.loads((path / HEADER_NAME).read_text())
        del header["scalars"]["eps"]
        (path / HEADER_NAME).write_text(json.dumps(header))
        for argv in (
            ["index", "info", str(path)],
            ["serve", "--index", str(path), "--self-test"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                env=_subprocess_env(), capture_output=True, text=True,
                timeout=120,
            )
            out = proc.stdout + proc.stderr
            assert proc.returncode != 0, (argv, out)
            assert "error:" in out and "Traceback" not in out, (argv, out)
            assert "lost scalar 'eps'" in out, (argv, out)

    def test_injected_payload_corruption_roundtrip(self, tmp_path):
        """The persist.payload corrupt fault is caught by verify='full'."""
        rng = np.random.default_rng(6)
        data = rng.normal(size=(200, 6))
        eps = float(epsilon_for_selectivity(data, 8))
        path = tmp_path / "idx"
        faults.arm("persist.payload", "corrupt", count=1)
        build_index(data, eps, path)
        faults.disarm()
        verify_index(path, level="header")  # the flip preserves sizes
        with pytest.raises(CorruptIndexError):
            load_index(path, verify="full")
        try:
            load_index(path, verify="header")
        except CorruptIndexError:
            pass  # byte landed in an npy format header: still typed


# ----------------------------------------------------------------------
# Executor failure recovery
# ----------------------------------------------------------------------


def _chaos_dataset(seed, n=600, d=8):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    eps = float(epsilon_for_selectivity(data, 10))
    return np.ascontiguousarray(data), eps


class TestExecutorRecovery:
    def test_source_read_fault_propagates_and_clears(self):
        data, _ = _chaos_dataset(13, n=200)
        src = ArraySource(data)
        ok = src.load_block(0, 50)
        faults.arm("source.read", "error")
        with pytest.raises(faults.FaultError):
            src.load_block(0, 50)
        faults.disarm()
        np.testing.assert_array_equal(src.load_block(0, 50), ok)

    def test_streaming_fault_cleans_up_spill_chunks(self, tmp_path):
        data, eps = _chaos_dataset(14, n=400)
        spill_dir = tmp_path / "spill"
        acc = PairAccumulator(spill_threshold_bytes=2048, spill_dir=spill_dir)
        faults.arm("source.read", "error", after=12)  # fail mid-stream
        with pytest.raises(faults.FaultError):
            tile_join(
                SourceOperand(ArraySource(data), TedJoinKernel._block_state), eps * eps,
                row_block=40, acc=acc,
            )
        assert not spill_dir.exists() or not any(spill_dir.iterdir())


# ----------------------------------------------------------------------
# Admission control, deadlines, graceful shutdown
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_overload_rejects_within_50ms(self, served_index):
        path, data, eps = served_index
        q = data[:4]
        svc = QueryService(max_queue_depth=2)
        faults.arm("service.dispatch", "delay", param=0.3)
        try:
            handles = [svc.submit(path, q, eps=eps)]
            time.sleep(0.08)  # dispatcher is asleep inside the first batch
            handles += [svc.submit(path, q, eps=eps) for _ in range(2)]
            t0 = time.monotonic()
            with pytest.raises(ServiceOverloaded) as excinfo:
                svc.submit(path, q, eps=eps)
            assert time.monotonic() - t0 < 0.05
            assert excinfo.value.retry_after > 0
            assert svc.stats()["requests_rejected"] == 1
            faults.disarm()
            for h in handles:  # admitted requests are all served
                assert h.result(timeout=10).n_left == 4
        finally:
            faults.disarm()
            svc.stop()

    def test_stop_drain_fails_queued_requests_fast(self, served_index):
        path, data, eps = served_index
        q = data[:4]
        svc = QueryService(max_queue_depth=8)
        faults.arm("service.dispatch", "delay", param=0.25)
        first = svc.submit(path, q, eps=eps)
        time.sleep(0.05)
        queued = [svc.submit(path, q, eps=eps) for _ in range(3)]
        stopper = threading.Thread(target=svc.stop)
        t0 = time.monotonic()
        stopper.start()
        time.sleep(0.02)
        # New submissions are refused while the stop is in progress.
        with pytest.raises(ServiceShuttingDown):
            svc.submit(path, q, eps=eps)
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        # In-flight work finished; queued waiters got a typed error
        # promptly instead of blocking out their own timeouts.
        assert first.result(timeout=1).n_left == 4
        for h in queued:
            with pytest.raises(ServiceShuttingDown):
                h.result(timeout=1)
        assert time.monotonic() - t0 < 5.0
        # A later submit revives the stopped service.
        faults.disarm()
        res = svc.query(path, q, eps=eps, deadline_s=10)
        assert res.n_left == 4
        svc.stop()

    def test_wait_that_runs_out_is_a_typed_504(self):
        """A waiter giving up on an unanswered request gets the typed
        deadline error -- still a ``TimeoutError`` -- which the HTTP
        layer maps to 504, not a generic 500."""
        from repro.service.server import _Pending, _error_response

        pending = _Pending(None, np.zeros((1, 2)), None, "range", None)
        with pytest.raises(DeadlineExceeded) as excinfo:
            pending.result(timeout=0.01)
        assert isinstance(excinfo.value, TimeoutError)
        assert _error_response(excinfo.value)[0] == 504

    def test_stale_requests_fail_with_deadline_exceeded(self, served_index):
        path, data, eps = served_index
        q = data[:4]
        svc = QueryService()
        faults.arm("service.dispatch", "delay", param=0.2)
        try:
            first = svc.submit(path, q, eps=eps)
            time.sleep(0.05)
            late = svc.submit(path, q, eps=eps, deadline_s=0.01)
            with pytest.raises(DeadlineExceeded):
                late.result(timeout=5)
            assert svc.stats()["requests_expired"] >= 1
            faults.disarm()
            assert first.result(timeout=10).n_left == 4
        finally:
            faults.disarm()
            svc.stop()


# ----------------------------------------------------------------------
# HTTP surface + retrying client
# ----------------------------------------------------------------------


@contextmanager
def _serve(index_path, **kwargs):
    server = make_server({"default": index_path}, port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _raw_post(port, path, body, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), json.loads(resp.read())
    finally:
        conn.close()


class TestHttpFaults:
    def test_error_codes_are_wellformed_json(self, served_index):
        path, data, eps = served_index
        with _serve(path, max_body_bytes=4096) as port:
            with ServiceClient(port=port) as client:
                assert client.healthz()["status"] == "ok"
                status, body = client.request("GET", "/nope")
                assert status == 404 and "error" in body
            assert _raw_post(port, "/nope", b"{}")[0] == 404
            status, _, body = _raw_post(port, "/range", b"this is not json")
            assert status == 400 and "error" in body
            status, _, body = _raw_post(port, "/range", b'["not", "a", "dict"]')
            assert status == 400 and "object" in body["error"]
            status, _, body = _raw_post(
                port,
                "/range",
                json.dumps({"index": "ghost", "queries": data[:1].tolist()}).encode(),
            )
            assert status == 404 and body["indexes"] == ["default"]
            status, _, body = _raw_post(port, "/range", b" " * 8192)
            assert status == 413 and "4096" in body["error"]
            # An unexpected dispatcher explosion is a JSON 500, not a
            # dropped connection or an HTML stack trace.
            faults.arm("service.dispatch", "error", count=1)
            status, _, body = _raw_post(
                port,
                "/range",
                json.dumps({"queries": data[:2].tolist(), "eps": eps}).encode(),
            )
            assert status == 500 and "FaultError" in body["error"]
            faults.disarm()
            status, _, body = _raw_post(
                port,
                "/range",
                json.dumps({"queries": data[:2].tolist(), "eps": eps}).encode(),
            )
            assert status == 200 and body["n_queries"] == 2

    def test_corrupt_index_answers_500(self, served_index, tmp_path):
        """A registered index whose payload fails verification is the
        server's fault: a JSON 500 naming the corruption, which the
        client does not retry.  A malformed query to a healthy index is
        still the client's 400."""
        path, data, eps = served_index
        bad = tmp_path / "bad"
        build_index(data, eps, bad)
        server = make_server({"default": path, "bad": bad}, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            (payload,) = bad.glob("data-*.npy")
            os.truncate(payload, payload.stat().st_size - 8)
            body = {"index": "bad", "queries": data[:2].tolist(), "eps": eps}
            status, _, got = _raw_post(port, "/range", json.dumps(body).encode())
            assert status == 500, got
            assert "CorruptIndexError" in got["error"] and "truncated" in got["error"]
            with ServiceClient(port=port, max_attempts=3, base_delay_s=0.01) as client:
                status, _ = client.request("POST", "/range", body)
            assert status == 500 and client.retries == 0
            body = {"queries": [[1.0, 2.0]], "eps": eps}  # wrong dimensionality
            status, _, got = _raw_post(port, "/range", json.dumps(body).encode())
            assert status == 400, got
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_overloaded_server_answers_429_within_50ms(self, served_index):
        path, data, eps = served_index
        payload = json.dumps({"queries": data[:2].tolist(), "eps": eps}).encode()
        with _serve(path, max_queue_depth=1) as port:
            faults.arm("service.dispatch", "delay", param=0.4)
            background = []
            results = []
            for _ in range(2):  # one in flight + one filling the queue
                t = threading.Thread(
                    target=lambda: results.append(_raw_post(port, "/range", payload))
                )
                t.start()
                background.append(t)
                time.sleep(0.05)
            t0 = time.monotonic()
            status, headers, body = _raw_post(port, "/range", payload, timeout=5)
            elapsed = time.monotonic() - t0
            faults.disarm()
            for t in background:
                t.join(timeout=30)
            assert status == 429
            assert elapsed < 0.05
            assert float(headers["Retry-After"]) > 0
            assert body["retry_after"] > 0
            assert [s for s, _, _ in results] == [200, 200]

    def test_client_retries_through_transient_429(self, served_index):
        path, data, eps = served_index
        payload = json.dumps({"queries": data[:2].tolist(), "eps": eps}).encode()
        with _serve(path, max_queue_depth=1) as port:
            faults.arm("service.dispatch", "delay", param=0.4, count=1)
            background = []
            for _ in range(2):
                t = threading.Thread(
                    target=lambda: _raw_post(port, "/range", payload)
                )
                t.start()
                background.append(t)
                time.sleep(0.05)
            client = ServiceClient(
                port=port, max_attempts=10, base_delay_s=0.05, seed=1
            )
            res = client.range_query(data[:2].tolist(), eps=eps)
            for t in background:
                t.join(timeout=30)
            assert res["n_queries"] == 2
            assert client.retries > 0  # it was actually turned away first

    def test_self_test_health_check_flags_5xx(self, served_index):
        """A server that answered 5xx fails the self-test's health check."""
        from repro.service.server import _health_check

        path, data, eps = served_index
        payload = json.dumps({"queries": data[:2].tolist(), "eps": eps}).encode()
        with _serve(path) as port:
            faults.arm("service.dispatch", "error", count=1)
            status, _, body = _raw_post(port, "/range", payload)
            assert status == 500 and "error" in body
            health = _health_check("127.0.0.1", port, trace_sample=0.0)
        assert health["http_5xx"] == 1
        assert health["problems"] == ["server answered 1 5xx"]

    def test_client_gives_up_with_typed_error(self):
        with socket.socket() as s:  # grab a port nothing listens on
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        client = ServiceClient(
            port=port, max_attempts=2, timeout=1.0, base_delay_s=0.01
        )
        with pytest.raises(ServiceUnavailable):
            client.healthz()
        assert client.retries >= 1


def _range_statuses(port):
    """``{status: count}`` of ``/range`` answers in the live ``/metrics``."""
    with ServiceClient(port=port) as client:
        fams = parse_prometheus_text(client.metrics_text())
    return {
        dict(labels)["status"]: value
        for labels, value in fams["repro_http_requests_total"].items()
        if dict(labels)["endpoint"] == "range"
    }


class TestHttpStatusAccounting:
    """Every typed rejection leaves the wire as its own status and is
    booked exactly once under that status in ``/metrics``."""

    @pytest.mark.parametrize("exc,status", [
        (ServiceOverloaded("full"), 429),
        (ServiceShuttingDown("bye"), 503),
        (DeadlineExceeded("late"), 504),
        (KeyError("queries"), 400),
        (TypeError("bad type"), 400),
        (ValueError("bad value"), 400),
        (RuntimeError("boom"), 500),
    ])
    def test_error_response_mapping(self, exc, status):
        from repro.service.server import _error_response

        got, payload, headers = _error_response(exc)
        assert got == status
        assert "error" in payload and isinstance(payload["error"], str)
        assert (headers is not None) == (status == 429)

    def test_unexpected_errors_name_their_type(self):
        from repro.service.server import _error_response

        _, payload, _ = _error_response(RuntimeError("boom"))
        assert payload == {"error": "RuntimeError: boom"}

    def test_overload_forwards_retry_after(self):
        from repro.service.server import _error_response

        _, payload, headers = _error_response(
            ServiceOverloaded("full", retry_after=0.1234)
        )
        assert payload["retry_after"] == pytest.approx(0.1234)
        assert headers == {"Retry-After": "0.123"}

    def test_admission_rejections_counted_as_429(self, served_index):
        path, data, eps = served_index
        payload = json.dumps({"queries": data[:2].tolist(), "eps": eps}).encode()
        with _serve(path, max_queue_depth=1) as port:
            faults.arm("service.dispatch", "delay", param=0.3)
            results = []
            background = []
            for _ in range(2):  # one in flight + one filling the queue
                t = threading.Thread(
                    target=lambda: results.append(_raw_post(port, "/range", payload))
                )
                t.start()
                background.append(t)
                time.sleep(0.05)
            rejected = [_raw_post(port, "/range", payload, timeout=5)[0]
                        for _ in range(3)]
            faults.disarm()
            for t in background:
                t.join(timeout=30)
            booked = _range_statuses(port)
        assert rejected == [429, 429, 429]
        assert [s for s, _, _ in results] == [200, 200]
        assert booked == {"200": 2.0, "429": 3.0}

    def test_deadline_expiry_counted_as_504_under_dispatch_delay(
        self, served_index
    ):
        path, data, eps = served_index
        payload = json.dumps({"queries": data[:2].tolist(), "eps": eps}).encode()
        svc = QueryService(default_deadline_s=0.05)
        with _serve(path, service=svc) as port:
            faults.arm("service.dispatch", "delay", param=0.3, count=1)
            results = []
            first = threading.Thread(
                target=lambda: results.append(_raw_post(port, "/range", payload))
            )
            first.start()
            time.sleep(0.05)  # the first request is now inside the delay
            status, _, body = _raw_post(port, "/range", payload)
            first.join(timeout=30)
            booked = _range_statuses(port)
        assert status == 504 and "deadline" in body["error"]
        assert [s for s, _, _ in results] == [200]
        assert booked == {"200": 1.0, "504": 1.0}
        assert svc.stats()["requests_expired"] == 1


class TestOneDeadline:
    def test_queued_request_answers_504_at_its_deadline(self, served_index):
        """The waiter gives up at the request's one deadline: a /range
        queued behind a dispatcher held ~1 s answers 504 after ~0.2 s,
        not when the dispatcher gets to it, and never runs."""
        path, data, eps = served_index
        payload = json.dumps({"queries": data[:2].tolist(), "eps": eps}).encode()
        svc = QueryService(default_deadline_s=0.2)
        with _serve(path, service=svc) as port:
            faults.arm("service.dispatch", "delay", param=1.0, count=1)
            try:
                held = svc.submit(path, data[:2], eps=eps, deadline_s=10.0)
                give_up = time.monotonic() + 5.0
                while svc.batches_dispatched == 0:  # held inside the delay
                    assert time.monotonic() < give_up
                    time.sleep(0.001)
                t0 = time.monotonic()
                status, _, body = _raw_post(port, "/range", payload)
                elapsed = time.monotonic() - t0
                assert held.result().n_left == 2
            finally:
                faults.disarm()
            booked = _range_statuses(port)
        assert status == 504 and "deadline" in body["error"]
        assert elapsed < 0.8
        assert booked == {"504": 1.0}
        assert svc.stats()["requests_expired"] == 1
        assert svc.stats()["batches_dispatched"] == 1

    def test_default_deadline_is_the_named_constant(self):
        from repro.service.server import DEFAULT_DEADLINE_S

        assert QueryService().default_deadline_s == DEFAULT_DEADLINE_S == 30.0


# ----------------------------------------------------------------------
# Cache staleness (satellite regression)
# ----------------------------------------------------------------------


class TestCacheStaleness:
    def test_rebuild_within_mtime_granularity_not_served_stale(self, tmp_path):
        """The digest-keyed cache sees a rebuild even at identical mtime."""
        path = tmp_path / "idx"
        _reference_build(path, seed=1)
        header_path = path / HEADER_NAME
        st = header_path.stat()
        cache = IndexCache(capacity=2)
        first = cache.get(path)
        assert cache.get(path) is first and cache.hits == 1
        _reference_build(path, seed=2)  # in-place replacement
        # Pin the header's timestamps back to the first generation's: an
        # mtime-keyed cache could not tell the generations apart.
        os.utime(header_path, (st.st_atime, st.st_mtime))
        second = cache.get(path)
        assert second is not first
        assert cache.misses == 2


# ----------------------------------------------------------------------
# Mutable store chaos (LSM delta layer: seal + compaction)
# ----------------------------------------------------------------------

# Opens an existing mutable store, applies deterministic mutations, then
# runs one seal or compaction with a kill fault armed inside it.  The
# deletes commit *before* arming, so they are durable in every outcome;
# the appended rows live in the volatile buffer until the sealed segment
# (or the compacted base) commits.  The print never runs.
_KILL_MUTABLE_SCRIPT = """
import sys
import numpy as np
from repro import faults
from repro.index.delta import MutableIndex

op, point, after, path = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
)
rng = np.random.default_rng(77)
mut = MutableIndex(path)
mut.delete([0, 1, 2])
mut.append(rng.normal(size=(20, 6)))
if op == "compact":
    mut.seal()  # commit the segment cleanly; the kill targets compaction
faults.arm(point, "kill", after=after)
getattr(mut, op)()
print("SURVIVED")
"""

#: Kill sites spanning a seal or a compaction: payload writes inside the
#: inner ``save_index`` (first and mid-save), its directory commit, and
#: the ``state.json`` atomic replace -- the store-level commit point.
_MUTABLE_KILL_SITES = [
    ("persist.payload", 0),
    ("persist.payload", 2),
    ("persist.write", 0),
    ("persist.write", 1),
]


def _mutable_store(tmp_path, n=150, d=6, seed=71):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    eps = float(epsilon_for_selectivity(data, 8))
    root = tmp_path / "mut"
    MutableIndex.create(root, data, eps)
    return root, data, eps


def _mutation_killed_at(op, point, after, root):
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _KILL_MUTABLE_SCRIPT,
            op,
            point,
            str(after),
            str(root),
        ],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (proc.returncode, proc.stderr)
    assert "SURVIVED" not in proc.stdout
    return proc


class TestMutableStoreChaos:
    @pytest.mark.parametrize("point,after", _MUTABLE_KILL_SITES)
    def test_kill_during_seal_reloads_old_or_new(self, tmp_path, point, after):
        root, data, _eps = _mutable_store(tmp_path)
        _mutation_killed_at("seal", point, after, root)
        mut = MutableIndex(root, verify="full")
        old = np.arange(3, 150, dtype=np.int64)
        new = np.concatenate([old, np.arange(150, 170, dtype=np.int64)])
        got = mut.live_ids()
        want = old if got.size == old.size else new
        np.testing.assert_array_equal(got, want)
        # Deletes are durable in every outcome, and the reloaded store
        # still answers queries without surfacing a tombstoned row.
        res = mut.range_query(data[:5])
        assert not np.isin(res.pairs_j, [0, 1, 2]).any()

    @pytest.mark.parametrize("point,after", _MUTABLE_KILL_SITES)
    def test_kill_during_compaction_never_half_compacted(
        self, tmp_path, point, after
    ):
        root, data, eps = _mutable_store(tmp_path)
        _mutation_killed_at("compact", point, after, root)
        mut = MutableIndex(root, verify="full")
        # The live set was fully durable before the kill (the segment
        # sealed cleanly), so it is identical in the old and the new
        # generation -- only the layering may differ, and it is never
        # partial: one intact segment or a fully folded base.
        rng = np.random.default_rng(77)
        extra = rng.normal(size=(20, 6))
        live_ids = np.concatenate(
            [np.arange(3, 150, dtype=np.int64),
             np.arange(150, 170, dtype=np.int64)]
        )
        np.testing.assert_array_equal(mut.live_ids(), live_ids)
        assert mut.n_segments in (0, 1)
        # Whatever generation survived answers bit-identically to a
        # from-scratch rebuild over the live rows.
        from repro.index.query import QueryEngine

        live_rows = np.concatenate([data[3:], extra])
        ref = QueryEngine(GridIndex(live_rows, eps, n_dims=6), live_rows)
        qrng = np.random.default_rng(78)
        q = data[5:15] + qrng.uniform(-eps / 8, eps / 8, (10, data.shape[1]))
        got, want = mut.range_query(q), ref.range_query(q)
        order = np.lexsort((want.pairs_j, want.pairs_i))
        np.testing.assert_array_equal(got.pairs_i, want.pairs_i[order])
        np.testing.assert_array_equal(
            got.pairs_j, live_ids[want.pairs_j[order]]
        )
        np.testing.assert_array_equal(got.sq_dists, want.sq_dists[order])
        # Reopening GC'd everything the committed manifest does not
        # reference: no half-written generation is left to be served.
        m = read_manifest(root)
        dirs = {p.name for p in root.iterdir() if p.is_dir()}
        assert dirs - {"segments"} == {m["base"]}
        segs = (
            {p.name for p in (root / "segments").iterdir()}
            if (root / "segments").is_dir()
            else set()
        )
        assert segs == {Path(s["dir"]).name for s in m["segments"]}

    def test_open_mid_compaction_keeps_the_staging_base(self, tmp_path):
        """Opening a second handle while the first compacts must not GC
        the first handle's staging base: the compaction's lock file makes
        every other handle's GC stand down until the commit."""
        root, data, _eps = _mutable_store(tmp_path)
        mut = MutableIndex(root)
        mut.delete([0, 1, 2])
        old_base = read_manifest(root)["base"]
        faults.arm("persist.payload", "delay", param=0.2)
        errors = []

        def compact():
            try:
                mut.compact()
            except BaseException as exc:  # re-raised on the test thread
                errors.append(exc)

        worker = threading.Thread(target=compact)
        worker.start()
        deadline = time.monotonic() + 30
        while not any(SAVING_SUFFIX in p.name for p in root.glob("base-*")):
            assert worker.is_alive() and time.monotonic() < deadline
            time.sleep(0.01)
        MutableIndex(root)  # a reader opening mid-compaction runs GC
        worker.join(timeout=60)
        faults.disarm()
        assert not worker.is_alive()
        if errors:
            raise errors[0]
        new_base = read_manifest(root)["base"]
        assert new_base != old_base
        reopened = MutableIndex(root, verify="full")
        assert reopened.n_segments == 0
        np.testing.assert_array_equal(
            reopened.live_ids(), np.arange(3, data.shape[0], dtype=np.int64)
        )
        res = reopened.range_query(data[:5])
        assert res.pairs_i.size and not np.isin(res.pairs_j, [0, 1, 2]).any()
        dirs = {p.name for p in root.iterdir() if p.is_dir()}
        assert dirs - {"segments"} == {new_base}

    @contextmanager
    def _compaction_elsewhere(self, root):
        """Hold ``compact.lock`` the way another process's compaction does."""
        import fcntl

        fd = os.open(root / COMPACT_LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def test_gc_stands_down_while_compact_lock_held(self, tmp_path):
        """A handle opened while another holds the compaction lock leaves
        the children its manifest does not name alone; the next open
        after the lock drops sweeps them and keeps the lock file."""
        root, _data, _eps = _mutable_store(tmp_path)
        staging = root / f"base-0badf00d{SAVING_SUFFIX}12345678"
        staging.mkdir()
        with self._compaction_elsewhere(root):
            MutableIndex(root)
            assert staging.is_dir()
        MutableIndex(root)
        assert not staging.exists()
        assert (root / COMPACT_LOCK_NAME).is_file()

    def test_nonwaiting_compact_refused_across_handles(self, tmp_path):
        root, _data, _eps = _mutable_store(tmp_path)
        mut = MutableIndex(root)
        mut.delete([0])
        with self._compaction_elsewhere(root):
            with pytest.raises(CompactionInProgress):
                mut.compact(wait=False)
        assert mut.compact(wait=False)["n_live"] == 149

    def test_corrupt_segment_payload_refused_by_full_verify(self, tmp_path):
        root, _data, _eps = _mutable_store(tmp_path)
        mut = MutableIndex(root)
        mut.append(np.random.default_rng(79).normal(size=(16, 6)))
        faults.arm("persist.payload", "corrupt", count=1)
        mut.seal()
        faults.disarm()
        with pytest.raises(CorruptIndexError):
            MutableIndex(root, verify="full")

    def test_corrupt_compacted_base_refused_by_full_verify(self, tmp_path):
        root, _data, _eps = _mutable_store(tmp_path)
        mut = MutableIndex(root)
        mut.delete([0, 1])
        mut.append(np.random.default_rng(80).normal(size=(12, 6)))
        mut.seal()
        faults.arm("persist.payload", "corrupt", count=1)
        # The flip lands in the freshly-built base: either compaction's
        # own reload refuses it before the commit, or the commit goes
        # through and the next full-verify open refuses it -- the
        # corrupt generation is never served silently.
        try:
            mut.compact()
        except CorruptIndexError:
            faults.disarm()
            reopened = MutableIndex(root, verify="full")
            assert reopened.n_segments == 1  # old generation, intact
        else:
            faults.disarm()
            with pytest.raises(CorruptIndexError):
                MutableIndex(root, verify="full")

    def test_corrupt_tombstone_payload_refused(self, tmp_path):
        root, _data, _eps = _mutable_store(tmp_path)
        mut = MutableIndex(root)
        faults.arm("persist.payload", "corrupt", count=1)
        mut.delete([0])  # commits a manifest with a tombstone side payload
        faults.disarm()
        with pytest.raises(CorruptIndexError):
            MutableIndex(root, verify="full")

    @pytest.mark.parametrize("damage", ["truncated", "missing"])
    def test_damaged_side_payload_caught_by_header_verify(
        self, tmp_path, damage
    ):
        """The store checks its side payloads with the index's own
        per-payload verifier: the default header level already refuses a
        tombstone file that is short or gone."""
        root, _data, _eps = _mutable_store(tmp_path)
        MutableIndex(root).delete([0])
        entry = json.loads((root / "state.json").read_text())["tombstones"]
        victim = root / entry["file"]
        if damage == "truncated":
            with open(victim, "r+b") as fh:
                fh.truncate(victim.stat().st_size - 8)
        else:
            victim.unlink()
        with pytest.raises(CorruptIndexError, match="tombstones"):
            MutableIndex(root)
        with pytest.raises(CorruptIndexError, match="tombstones"):
            MutableIndex(root, verify="full")

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(
                lambda e: {k: v for k, v in e.items() if k != "file"},
                id="no-file",
            ),
            pytest.param(lambda e: e["file"], id="not-object"),
        ],
    )
    def test_malformed_side_payload_entry_is_typed(self, tmp_path, mangle):
        """A manifest side-payload record without a ``file``, or one that
        is not an object at all, is corruption -- not a bare KeyError."""
        root, _data, _eps = _mutable_store(tmp_path)
        MutableIndex(root).delete([0])
        mpath = root / "state.json"
        manifest = json.loads(mpath.read_text())
        manifest["tombstones"] = mangle(manifest["tombstones"])
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(CorruptIndexError, match="tombstones"):
            MutableIndex(root)
