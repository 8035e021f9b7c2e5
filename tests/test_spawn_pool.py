"""Spawn-safe worker pool: start-method resolution + bit-identity.

The fork pool ships operand arrays to children for free (copy-on-write
page sharing); the spawn pool has to reconstruct them, which it does by
mapping named ``multiprocessing.shared_memory`` segments read-only in
each child.  These tests pin the contract that makes the flavor a pure
deployment knob: the spawn pool commits *bit-identical* results to the
serial executor and to the fork pool, recovers from killed children the
same way, and honors the ``REPRO_START_METHOD`` override.

(Container note: ``os.cpu_count()`` may be 1 here, so worker counts are
always explicit -- topology-derived counts would resolve to serial and
quietly skip the pool path.)
"""

import numpy as np
import pytest

from repro import faults
from repro.core import engine
from repro.core.engine import (
    ResidentOperand,
    WorkerPlan,
    candidate_join,
    resolve_start_method,
)
from repro.core.selectivity import epsilon_for_selectivity
from repro.index.grid import GridIndex


def _dataset(seed, n=600, d=8):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    eps = float(epsilon_for_selectivity(data, 10))
    return np.ascontiguousarray(data), eps


def _operand(data):
    return ResidentOperand(data, (data * data).sum(axis=1))


def _join(data, eps, **kwargs):
    idx = GridIndex(data, eps, n_dims=4)
    return candidate_join(idx.iter_cells(), _operand(data), eps * eps, **kwargs)


def assert_same_bits(a, b):
    ai, aj, ad = a.arrays()
    bi, bj, bd = b.arrays()
    np.testing.assert_array_equal(ai, bi)
    np.testing.assert_array_equal(aj, bj)
    view = np.uint64 if ad.dtype == np.float64 else np.uint32
    assert ad.dtype == bd.dtype
    assert np.array_equal(ad.view(view), bd.view(view))


class TestResolveStartMethod:
    def test_explicit_values_pass_through(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        assert resolve_start_method("spawn") == "spawn"
        if engine._fork_available():
            assert resolve_start_method("fork") == "fork"

    def test_auto_prefers_fork_when_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        want = "fork" if engine._fork_available() else "spawn"
        assert resolve_start_method("auto") == want
        assert resolve_start_method(None) == want

    def test_env_overrides_preference(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        # Even an explicit fork preference defers to the env override:
        # that is the knob CI uses to force a whole tier onto spawn.
        assert resolve_start_method("fork") == "spawn"
        plan = WorkerPlan.resolve(2)
        assert plan.resolved_start_method() == "spawn"
        assert plan.as_dict()["start_method"] == "spawn"

    def test_bad_values_raise(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        with pytest.raises(ValueError):
            resolve_start_method("forkserver")
        monkeypatch.setenv("REPRO_START_METHOD", "bogus")
        with pytest.raises(ValueError):
            resolve_start_method("auto")

    def test_fork_unavailable_is_an_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        monkeypatch.setattr(engine, "_fork_available", lambda: False)
        assert resolve_start_method("auto") == "spawn"
        with pytest.raises(ValueError):
            resolve_start_method("fork")


class TestSpawnPoolBitIdentity:
    def test_spawn_identical_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        data, eps = _dataset(21)
        serial = _join(data, eps, workers=0)
        plan = WorkerPlan(2, 1, None, "explicit", start_method="spawn")
        spawned = _join(data, eps, workers=plan, group_batch=8)
        assert_same_bits(serial, spawned)

    @pytest.mark.skipif(
        not engine._fork_available(), reason="fork start method unavailable"
    )
    def test_spawn_identical_to_fork(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        data, eps = _dataset(22)
        forked = _join(
            data, eps,
            workers=WorkerPlan(2, 1, None, "explicit", start_method="fork"),
            group_batch=8,
        )
        spawned = _join(
            data, eps,
            workers=WorkerPlan(2, 1, None, "explicit", start_method="spawn"),
            group_batch=8,
        )
        assert_same_bits(forked, spawned)

    def test_env_routes_pool_to_spawn(self, monkeypatch):
        # The CI spawn leg's exact shape: nothing in the code asks for
        # spawn, REPRO_START_METHOD flips the pool flavor wholesale.
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        data, eps = _dataset(23, n=400)
        serial = _join(data, eps, workers=0)
        pooled = _join(data, eps, workers=2, group_batch=8)
        assert_same_bits(serial, pooled)

    def test_spawn_two_source_join(self, monkeypatch):
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        rng = np.random.default_rng(24)
        left = np.ascontiguousarray(rng.normal(size=(300, 8)))
        right = np.ascontiguousarray(rng.normal(size=(250, 8)))
        eps = float(epsilon_for_selectivity(left, 10))
        idx = GridIndex(left, eps, n_dims=4)
        groups = [
            (m, rng.integers(0, right.shape[0], size=max(c.size, 1)))
            for m, c in idx.iter_cells()
        ]
        lo, ro = _operand(left), _operand(right)
        serial = candidate_join(iter(groups), lo, eps * eps, ro, workers=0)
        spawned = candidate_join(
            iter(groups), lo, eps * eps, ro,
            workers=WorkerPlan(2, 1, None, "explicit", start_method="spawn"),
            group_batch=4,
        )
        assert_same_bits(serial, spawned)


class TestSpawnPoolRecovery:
    def test_killed_spawn_children_recover_bit_identical(self, monkeypatch):
        data, eps = _dataset(25)
        serial = _join(data, eps, workers=0)
        before = engine.FORK_RECOVERIES
        # Spawn children rebuild their interpreter and re-arm faults
        # from the environment at import -- programmatic faults.arm()
        # only reaches fork children, so the env var is the real knob.
        monkeypatch.setenv("REPRO_FAULTS", "worker.exec:kill:0.3")
        try:
            chaotic = _join(
                data, eps,
                workers=WorkerPlan(
                    2, 1, None, "explicit", start_method="spawn"
                ),
                group_batch=8,
            )
        finally:
            faults.disarm()
        assert engine.FORK_RECOVERIES > before  # children actually died
        assert_same_bits(serial, chaotic)
