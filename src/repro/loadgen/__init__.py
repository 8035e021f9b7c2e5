"""Load-test harness for the query-serving subsystem.

:mod:`repro.loadgen.generator` drives an in-process
:class:`~repro.service.server.QueryService` or a live ``serve``
endpoint with open-loop (target arrival rate) or closed-loop (fixed
concurrency) workloads -- configurable query mix, Zipf cell skew, and
streaming latency histograms with error/429/504 breakdowns.
:mod:`repro.loadgen.runner` expands a TOML/JSON config of factors x
repetitions into a run table and emits one summary row per run -- the
flow behind ``python -m repro loadtest`` and
``benchmarks/bench_service_load.py`` (``BENCH_service.json``).
"""

from repro.loadgen.generator import (
    HttpTarget,
    InProcessTarget,
    LoadResult,
    QuerySampler,
    RequestRecord,
    WorkloadConfig,
    run_against_server,
    run_against_service,
    run_load,
    saturation_knee,
)
from repro.loadgen.runner import (
    expand_run_table,
    load_config,
    run_experiment,
)

__all__ = [
    "WorkloadConfig",
    "QuerySampler",
    "RequestRecord",
    "LoadResult",
    "InProcessTarget",
    "HttpTarget",
    "run_load",
    "run_against_service",
    "run_against_server",
    "saturation_knee",
    "load_config",
    "expand_run_table",
    "run_experiment",
]
