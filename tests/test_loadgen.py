"""Load generator + experiment runner: the workload contracts.

* **Determinism** -- request *content* is a pure function of the config
  seed (per-worker / per-request RNG streams), pinned by running the
  same workload twice on a fake clock and comparing request
  fingerprints byte for byte.
* **Loop disciplines** -- closed-loop quota/duration stop conditions,
  open-loop fixed arrival schedule with latency charged from the
  *scheduled* arrival (no coordinated omission) and far-behind arrivals
  shed as ``dropped``.
* **Status accounting** -- the target maps service outcomes onto the
  fixed status set; 429/504 under armed ``service.dispatch`` delay
  faults land in the right buckets and every issued request is counted
  exactly once.
* **Run table** -- factors x repetitions expand deterministically
  (sorted factor names, declared level order, repetitions innermost,
  ``seed = base + rep``), eagerly validated, and one flat summary row
  per run lands in the JSON/CSV report with the saturation knee.
"""

import json
import math
import threading

import numpy as np
import pytest

from repro import faults
from repro.core.api import build_index
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.synthetic import synth_dataset
from repro.loadgen import (
    LoadResult,
    QuerySampler,
    WorkloadConfig,
    expand_run_table,
    load_config,
    run_experiment,
    run_load,
    saturation_knee,
)
from repro.loadgen.generator import (
    STATUSES,
    WORKLOAD_KEYS,
    InProcessTarget,
    _split_quota,
)
from repro.loadgen.runner import tomllib
from repro.service import QueryService
from repro.service.metrics import LogHistogram
from repro.service.query import QueryEngine
from repro.service.server import (
    DeadlineExceeded,
    ServiceOverloaded,
    ServiceShuttingDown,
)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    data = synth_dataset(600, 8, seed=0, clustered=True)
    eps = float(epsilon_for_selectivity(data, 16))
    path = tmp_path_factory.mktemp("loadgen-idx") / "index"
    build_index(data, eps, path, kind="grid")
    return path, data, eps


@pytest.fixture(scope="module")
def engine(index_path):
    path, _, _ = index_path
    return QueryEngine(path)


# ----------------------------------------------------------------------
# Test doubles: fake clock, fake target
# ----------------------------------------------------------------------


class FakeClock:
    """Thread-safe virtual clock; ``sleep`` advances it."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = float(t)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self.t

    def sleep(self, dt: float) -> None:
        with self._lock:
            self.t += dt


class FakeTarget:
    """Records request fingerprints; optionally burns virtual time."""

    def __init__(self, log=None, clock=None, cost_s: float = 0.0,
                 status: str = "ok") -> None:
        self.log = log
        self.clock = clock
        self.cost_s = cost_s
        self.status = status

    def issue(self, kind, queries, eps, k, deadline_s) -> str:
        if self.log is not None:
            self.log.append(
                (kind, queries.tobytes(),
                 -1.0 if eps is None else float(eps),
                 -1 if k is None else int(k))
            )
        if self.clock is not None and self.cost_s:
            self.clock.sleep(self.cost_s)
        return self.status

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# WorkloadConfig validation
# ----------------------------------------------------------------------


class TestWorkloadConfig:
    def test_defaults_valid(self):
        cfg = WorkloadConfig()
        assert cfg.mode == "closed"
        assert cfg.max_requests is None

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            WorkloadConfig(mode="sideways")

    @pytest.mark.parametrize(
        "kw",
        [
            {"duration_s": 0.0},
            {"target_rps": 0.0},
            {"concurrency": 0},
            {"max_requests": 0},
            {"range_fraction": 1.5},
            {"batch_size": 0},
            {"k": 0},
            {"eps_scale": 0.0},
            {"eps_scale": 1.5},
            {"zipf_s": -0.1},
            {"think_time_s": -1.0},
        ],
    )
    def test_invalid_fields(self, kw):
        with pytest.raises(ValueError):
            WorkloadConfig(**kw)

    def test_workload_keys_match_fields(self):
        assert "target_rps" in WORKLOAD_KEYS
        assert "zipf_s" in WORKLOAD_KEYS
        assert "nonsense" not in WORKLOAD_KEYS


# ----------------------------------------------------------------------
# QuerySampler: mix, skew, determinism
# ----------------------------------------------------------------------


class TestQuerySampler:
    def test_request_shapes(self, engine):
        cfg = WorkloadConfig(batch_size=6, seed=1)
        sampler = QuerySampler(engine, cfg)
        kind, queries, eps, k = sampler.make_request(
            np.random.default_rng(0)
        )
        assert kind == "range"
        assert queries.shape == (6, engine.dim)
        assert eps == pytest.approx(float(engine.eps))
        assert k is None

    def test_mix_extremes_and_blend(self, engine):
        rng = np.random.default_rng(0)
        all_range = QuerySampler(engine, WorkloadConfig(range_fraction=1.0))
        assert all(
            all_range.make_request(rng)[0] == "range" for _ in range(20)
        )
        all_knn = QuerySampler(
            engine, WorkloadConfig(range_fraction=0.0, k=3)
        )
        kinds = [all_knn.make_request(rng)[0] for _ in range(20)]
        assert set(kinds) == {"knn"}
        _, _, eps, k = all_knn.make_request(rng)
        assert eps is None and k == 3
        mixed = QuerySampler(engine, WorkloadConfig(range_fraction=0.5))
        kinds = {mixed.make_request(rng)[0] for _ in range(50)}
        assert kinds == {"range", "knn"}

    def test_eps_scale(self, engine):
        half = QuerySampler(engine, WorkloadConfig(eps_scale=0.5))
        assert half.eps == pytest.approx(0.5 * float(engine.eps))

    def test_pool_deterministic_under_seed(self, engine):
        cfg = WorkloadConfig(seed=42)
        a = QuerySampler(engine, cfg).pool
        b = QuerySampler(engine, cfg).pool
        assert a.tobytes() == b.tobytes()
        c = QuerySampler(engine, WorkloadConfig(seed=43)).pool
        assert a.tobytes() != c.tobytes()

    def test_zipf_skew_concentrates_draws(self, engine):
        rng_u = np.random.default_rng(5)
        rng_z = np.random.default_rng(5)
        uniform = QuerySampler._draw_rows(
            engine, WorkloadConfig(zipf_s=0.0), rng_u, 512
        )
        skewed = QuerySampler._draw_rows(
            engine, WorkloadConfig(zipf_s=3.0), rng_z, 512
        )
        top_u = int(np.unique(uniform, return_counts=True)[1].max())
        top_z = int(np.unique(skewed, return_counts=True)[1].max())
        assert top_z > top_u  # hot rows hammered under skew
        assert skewed.min() >= 0 and skewed.max() < engine.n_points

    def test_tree_index_falls_back_to_uniform(self, index_path,
                                              tmp_path_factory):
        _, data, eps = index_path
        path = tmp_path_factory.mktemp("loadgen-tree") / "index"
        build_index(data, eps, path, kind="mstree")
        tree_engine = QueryEngine(path)
        sampler = QuerySampler(
            tree_engine, WorkloadConfig(zipf_s=2.0, batch_size=4)
        )
        kind, queries, _, _ = sampler.make_request(
            np.random.default_rng(0)
        )
        assert queries.shape == (4, tree_engine.dim)


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------


class TestClosedLoop:
    def test_split_quota(self):
        assert _split_quota(10, 4) == [3, 3, 2, 2]
        assert _split_quota(9, 3) == [3, 3, 3]
        assert _split_quota(None, 3) == [None, None, None]

    def test_quota_bounds_offered(self, engine):
        cfg = WorkloadConfig(
            mode="closed", concurrency=3, max_requests=30,
            duration_s=100.0, seed=7,
        )
        clock = FakeClock()
        res = run_load(
            cfg, lambda: FakeTarget(), QuerySampler(engine, cfg),
            clock=clock, sleep=clock.sleep,
        )
        assert res.offered == 30
        assert res.statuses == {"ok": 30}
        assert len(res.records) == 30

    def test_deterministic_under_seed_and_fake_clock(self, engine):
        cfg = WorkloadConfig(
            mode="closed", concurrency=3, max_requests=24,
            duration_s=100.0, range_fraction=0.5, seed=11,
        )

        def bout():
            log = []
            clock = FakeClock()
            run_load(
                cfg, lambda: FakeTarget(log=log),
                QuerySampler(engine, cfg),
                clock=clock, sleep=clock.sleep,
            )
            return sorted(log)

        assert bout() == bout()

    def test_duration_stops_loop(self, engine):
        cfg = WorkloadConfig(
            mode="closed", concurrency=1, duration_s=1.0, seed=0
        )
        clock = FakeClock()
        res = run_load(
            cfg,
            # 0.125 is exact in binary, so the virtual time hits 1.0
            # exactly after 8 issues and the loop stops.
            lambda: FakeTarget(clock=clock, cost_s=0.125),
            QuerySampler(engine, cfg),
            clock=clock, sleep=clock.sleep,
        )
        assert res.offered == 8  # t = 0, 0.125, ..., 0.875
        assert res.duration_s == pytest.approx(1.0)

    def test_think_time_paces_worker(self, engine):
        cfg = WorkloadConfig(
            mode="closed", concurrency=1, duration_s=1.0,
            think_time_s=0.25, seed=0,
        )
        clock = FakeClock()
        res = run_load(
            cfg, lambda: FakeTarget(), QuerySampler(engine, cfg),
            clock=clock, sleep=clock.sleep,
        )
        assert res.offered == 4  # t = 0, .25, .5, .75

    def test_record_limit_bounds_retention(self, engine):
        cfg = WorkloadConfig(
            mode="closed", concurrency=2, max_requests=40,
            duration_s=100.0, seed=0,
        )
        clock = FakeClock()
        res = run_load(
            cfg, lambda: FakeTarget(), QuerySampler(engine, cfg),
            clock=clock, sleep=clock.sleep, record_limit=10,
        )
        assert len(res.records) == 10  # capped
        assert res.offered == 40  # counting is not

    def test_worker_crash_propagates(self, engine):
        cfg = WorkloadConfig(
            mode="closed", concurrency=2, max_requests=4, seed=0
        )

        def broken_factory():
            raise RuntimeError("target exploded")

        with pytest.raises(RuntimeError, match="target exploded"):
            run_load(cfg, broken_factory, QuerySampler(engine, cfg))


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------


class TestOpenLoop:
    def test_fixed_arrival_schedule(self, engine):
        cfg = WorkloadConfig(
            mode="open", target_rps=10.0, duration_s=1.0,
            concurrency=1, seed=0,
        )
        clock = FakeClock()
        res = run_load(
            cfg, lambda: FakeTarget(), QuerySampler(engine, cfg),
            clock=clock, sleep=clock.sleep,
        )
        assert res.offered == 10  # duration * rps
        assert res.statuses == {"ok": 10}
        # Arrivals at exactly i/rps on the virtual clock.
        offsets = sorted(r.t_offset_s for r in res.records)
        assert offsets == pytest.approx([i * 0.1 for i in range(10)])

    def test_latency_charged_from_scheduled_arrival(self, engine):
        cfg = WorkloadConfig(
            mode="open", target_rps=10.0, duration_s=0.5,
            concurrency=1, seed=0,
        )
        clock = FakeClock()
        res = run_load(
            cfg,
            lambda: FakeTarget(clock=clock, cost_s=0.05),
            QuerySampler(engine, cfg),
            clock=clock, sleep=clock.sleep,
        )
        assert res.offered == 5
        for rec in res.records:
            assert rec.latency_s == pytest.approx(0.05)

    def test_far_behind_arrivals_shed_as_dropped(self, engine):
        cfg = WorkloadConfig(
            mode="open", target_rps=10.0, duration_s=1.0,
            concurrency=1, seed=0,
        )
        clock = FakeClock()
        res = run_load(
            cfg,
            lambda: FakeTarget(clock=clock, cost_s=0.5),
            QuerySampler(engine, cfg),
            clock=clock, sleep=clock.sleep,
        )
        assert res.offered == 10
        assert res.statuses.get("dropped", 0) > 0
        assert sum(res.statuses.values()) == 10
        dropped = [r for r in res.records if r.status == "dropped"]
        assert all(r.latency_s == 0.0 for r in dropped)

    def test_max_requests_bounds_schedule(self, engine):
        cfg = WorkloadConfig(
            mode="open", target_rps=100.0, duration_s=5.0,
            concurrency=2, max_requests=7, seed=0,
        )
        clock = FakeClock()
        res = run_load(
            cfg, lambda: FakeTarget(), QuerySampler(engine, cfg),
            clock=clock, sleep=clock.sleep,
        )
        assert res.offered == 7

    def test_deterministic_content(self, engine):
        cfg = WorkloadConfig(
            mode="open", target_rps=50.0, duration_s=0.5,
            concurrency=3, range_fraction=0.5, seed=21,
        )

        def bout():
            log = []
            clock = FakeClock()
            run_load(
                cfg, lambda: FakeTarget(log=log),
                QuerySampler(engine, cfg),
                clock=clock, sleep=clock.sleep,
            )
            return sorted(log)

        a, b = bout(), bout()
        assert a == b
        assert len(a) == 25


# ----------------------------------------------------------------------
# Status accounting: target mapping + fault injection
# ----------------------------------------------------------------------


class _StubPending:
    def __init__(self, exc):
        self.exc = exc

    def result(self, timeout=None):
        if self.exc is not None:
            raise self.exc
        return object()


class _StubService:
    """Minimal QueryService look-alike for status-mapping tests."""

    def __init__(self, exc=None, submit_exc=None):
        self.exc = exc
        self.submit_exc = submit_exc

    def engine_for(self, index):
        return index

    def submit(self, engine, queries, eps=None, k=None, deadline_s=None):
        if self.submit_exc is not None:
            raise self.submit_exc
        return _StubPending(self.exc)


class TestStatusAccounting:
    @pytest.mark.parametrize(
        "exc,expected",
        [
            (None, "ok"),
            (DeadlineExceeded("late"), "504"),
            (ServiceShuttingDown("bye"), "503"),
            (ValueError("bad"), "error"),
        ],
    )
    def test_result_exception_mapping(self, exc, expected):
        target = InProcessTarget(_StubService(exc=exc), "idx")
        q = np.zeros((1, 2))
        assert target.issue("range", q, 1.0, None, None) == expected

    def test_submit_overload_maps_to_429(self):
        target = InProcessTarget(
            _StubService(submit_exc=ServiceOverloaded("full")), "idx"
        )
        assert target.issue("range", np.zeros((1, 2)), 1.0, None,
                            None) == "429"

    def test_deadline_expiry_counted_as_504_under_dispatch_delay(
        self, index_path
    ):
        """Armed service.dispatch delays make queued requests outlive a
        tight deadline; the generator must book them as 504, not error,
        and account for every issued request exactly once."""
        path, _, _ = index_path
        faults.reset()
        faults.arm("service.dispatch", "delay", 1.0, param=0.05)
        try:
            cfg = WorkloadConfig(
                mode="open", target_rps=400.0, duration_s=0.4,
                concurrency=8, deadline_s=0.005, seed=3,
            )
            svc = QueryService()
            try:
                from repro.loadgen.generator import run_against_service

                res = run_against_service(path, cfg, service=svc)
            finally:
                svc.stop()
        finally:
            faults.reset()
        assert res.statuses.get("504", 0) > 0
        assert set(res.statuses) <= set(STATUSES)
        assert sum(res.statuses.values()) == res.offered

    def test_admission_rejections_counted_as_429(self, index_path):
        path, _, _ = index_path
        faults.reset()
        faults.arm("service.dispatch", "delay", 1.0, param=0.02)
        try:
            cfg = WorkloadConfig(
                mode="open", target_rps=800.0, duration_s=0.3,
                concurrency=12, seed=4,
            )
            svc = QueryService(max_queue_depth=1)
            try:
                from repro.loadgen.generator import run_against_service

                res = run_against_service(path, cfg, service=svc)
            finally:
                svc.stop()
        finally:
            faults.reset()
        assert res.statuses.get("429", 0) > 0
        assert sum(res.statuses.values()) == res.offered


# ----------------------------------------------------------------------
# Summaries + knee detection
# ----------------------------------------------------------------------


def _result(statuses, offered, duration=1.0, latencies=()):
    hist = LogHistogram((0.001, 0.01, 0.1, 1.0))
    for v in latencies:
        hist.observe(v)
    return LoadResult(
        config=WorkloadConfig(mode="closed"),
        duration_s=duration,
        offered=offered,
        statuses=dict(statuses),
        latency=hist,
    )


class TestSummary:
    def test_row_schema(self):
        row = _result({"ok": 3}, 3, latencies=(0.005, 0.005, 0.05)).summary()
        assert set(row) == {
            "mode", "offered_rps", "concurrency", "batch_size",
            "range_fraction", "zipf_s", "duration_s", "offered", "ok",
            "err_429", "err_503", "err_504", "err_other", "dropped",
            "error_rate", "throughput_rps", "p50_ms", "p95_ms",
            "p99_ms", "max_ms", "mean_ms",
        }
        assert row["ok"] == 3
        # rank 1.5 of (5ms, 5ms, 50ms) interpolates 3/4 into (1, 10] ms.
        assert row["p50_ms"] == pytest.approx(7.75)
        assert row["error_rate"] == 0.0

    def test_empty_run_serializes_to_none(self):
        row = _result({}, 0).summary()
        assert row["p50_ms"] is None
        assert row["p99_ms"] is None
        assert row["max_ms"] is None
        assert row["error_rate"] == 1.0
        json.dumps(row)  # JSON-safe: no NaN leaks

    def test_error_breakdown(self):
        row = _result(
            {"ok": 2, "429": 3, "504": 1, "error": 1, "dropped": 2}, 9
        ).summary()
        assert row["err_429"] == 3
        assert row["err_504"] == 1
        assert row["err_other"] == 1
        assert row["dropped"] == 2
        assert row["error_rate"] == pytest.approx(1.0 - 2.0 / 9.0)


class TestSaturationKnee:
    def test_last_keeping_pace(self):
        rows = [
            {"offered_rps": 50.0, "throughput_rps": 50.0},
            {"offered_rps": 100.0, "throughput_rps": 97.0},
            {"offered_rps": 200.0, "throughput_rps": 120.0},
        ]
        assert saturation_knee(rows) == 100.0

    def test_none_when_lowest_rate_saturates(self):
        rows = [{"offered_rps": 50.0, "throughput_rps": 10.0}]
        assert saturation_knee(rows) is None

    def test_order_independent(self):
        rows = [
            {"offered_rps": 200.0, "throughput_rps": 199.0},
            {"offered_rps": 50.0, "throughput_rps": 50.0},
        ]
        assert saturation_knee(rows) == 200.0

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            saturation_knee([], tolerance=0.0)
        with pytest.raises(ValueError):
            saturation_knee([], tolerance=1.5)


# ----------------------------------------------------------------------
# Experiment runner: config, run table, execution
# ----------------------------------------------------------------------


class TestRunTable:
    def test_expansion_order_and_seeds(self):
        config = {
            "repetitions": 2,
            "base": {"mode": "open", "duration_s": 1.0, "seed": 100},
            "factors": {
                "target_rps": [50.0, 100.0],
                "batch_size": [4],
            },
        }
        runs = expand_run_table(config)
        assert len(runs) == 4  # 2 levels x 1 level x 2 reps
        assert [r["run_id"] for r in runs] == [0, 1, 2, 3]
        # Factor names sorted -> batch_size varies outside target_rps;
        # repetitions innermost.
        assert [r["rep"] for r in runs] == [0, 1, 0, 1]
        assert [r["factors"]["target_rps"] for r in runs] == [
            50.0, 50.0, 100.0, 100.0,
        ]
        assert [r["params"]["seed"] for r in runs] == [100, 101, 100, 101]

    def test_level_order_preserved(self):
        runs = expand_run_table(
            {"factors": {"concurrency": [4, 1, 2]}}
        )
        assert [r["factors"]["concurrency"] for r in runs] == [4, 1, 2]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown workload keys"):
            expand_run_table({"base": {"warmup": 1}})
        with pytest.raises(ValueError, match="unknown workload keys"):
            expand_run_table({"factors": {"rps": [1]}})

    def test_empty_levels_and_bad_reps_rejected(self):
        with pytest.raises(ValueError, match="no levels"):
            expand_run_table({"factors": {"target_rps": []}})
        with pytest.raises(ValueError, match="repetitions"):
            expand_run_table({"repetitions": 0})

    def test_eager_validation_of_levels(self):
        with pytest.raises(ValueError, match="batch_size"):
            expand_run_table({"factors": {"batch_size": [8, 0]}})


class TestConfigLoading:
    def test_json_config(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps({"name": "x", "repetitions": 2}))
        assert load_config(p)["repetitions"] == 2

    def test_toml_config(self, tmp_path):
        if tomllib is None:
            pytest.skip("stdlib tomllib unavailable")
        p = tmp_path / "exp.toml"
        p.write_text(
            'name = "x"\nrepetitions = 2\n\n[factors]\n'
            "target_rps = [50.0, 100.0]\n"
        )
        cfg = load_config(p)
        assert cfg["name"] == "x"
        assert cfg["factors"]["target_rps"] == [50.0, 100.0]


class TestRunExperiment:
    def test_rows_report_and_outputs(self, index_path, tmp_path):
        path, _, _ = index_path
        config = {
            "name": "smoke",
            "repetitions": 1,
            "base": {
                "mode": "closed", "duration_s": 0.2, "batch_size": 2,
                "seed": 5,
            },
            "factors": {"concurrency": [1, 2]},
        }
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "rows.csv"
        seen = []
        report = run_experiment(
            config, index=path, out_json=out_json, out_csv=out_csv,
            progress=seen.append,
        )
        assert report["n_runs"] == 2
        assert len(seen) == 2
        for row in report["rows"]:
            assert row["ok"] > 0
            assert row["err_other"] == 0
            assert {"run_id", "rep", "concurrency",
                    "throughput_rps", "p99_ms"} <= set(row)
        assert "saturation_knee_rps" not in report  # no rps factor
        loaded = json.loads(out_json.read_text())
        assert loaded["rows"] == report["rows"]
        header = out_csv.read_text().splitlines()[0].split(",")
        assert set(header) == set(report["rows"][0])

    def test_rps_sweep_reports_knee(self, index_path):
        path, _, _ = index_path
        config = {
            "name": "sweep",
            "base": {
                "mode": "open", "duration_s": 0.2, "concurrency": 4,
                "batch_size": 2, "seed": 1,
            },
            "factors": {"target_rps": [50.0, 100.0]},
        }
        report = run_experiment(config, index=path)
        assert "saturation_knee_rps" in report
        knee = report["saturation_knee_rps"]
        assert knee is None or knee in (50.0, 100.0)

    def test_reuses_supplied_service(self, index_path):
        path, _, _ = index_path
        svc = QueryService()
        try:
            config = {
                "base": {
                    "mode": "closed", "duration_s": 0.15,
                    "concurrency": 2, "batch_size": 2, "seed": 2,
                },
            }
            run_experiment(config, index=path, service=svc)
            stats = svc.stats()
            assert stats["requests_served"] > 0
            # Still alive: the runner must not stop a borrowed service.
            svc.query(path, QueryEngine(path).source.take(
                np.arange(2)), eps=QueryEngine(path).eps)
        finally:
            svc.stop()
