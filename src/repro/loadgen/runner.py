"""Config-driven load experiments: factors x repetitions -> run table.

The muBench-style methodology: a config names an experiment, a ``base``
workload, a set of ``factors`` (each a list of levels), and a
``repetitions`` count.  The full factorial of factor levels times
repetitions expands -- deterministically, before anything runs -- into a
**run table**; every run executes one
:class:`~repro.loadgen.generator.WorkloadConfig` and emits one flat
summary row (JSON and optionally CSV), and the report carries the
saturation knee whenever ``target_rps`` was swept.

Config files are TOML (stdlib :mod:`tomllib`, Python >= 3.11) or JSON
-- same schema either way::

    name = "rps-sweep"
    repetitions = 2

    [base]
    mode = "open"
    duration_s = 2.0
    batch_size = 8

    [factors]
    target_rps = [50, 100, 200, 400]

Repetition ``r`` of a cell runs with ``seed = base seed + r`` so
repeats are independent draws of the same workload, not bit-identical
replays.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

try:  # Python >= 3.11; JSON remains the fallback config format.
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - py310 fallback
    tomllib = None

from repro.loadgen.generator import (
    WORKLOAD_KEYS,
    WorkloadConfig,
    run_against_server,
    run_against_service,
    saturation_knee,
)

__all__ = ["load_config", "expand_run_table", "run_experiment"]


def load_config(path) -> dict:
    """Read a TOML (``.toml``) or JSON experiment config."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        if tomllib is None:
            raise RuntimeError(
                "TOML configs need the stdlib tomllib (Python >= 3.11); "
                "use a JSON config instead"
            )
        return tomllib.loads(text)
    return json.loads(text)


def expand_run_table(config: dict) -> list[dict]:
    """Expand ``base`` x ``factors`` x ``repetitions`` into run rows.

    Returns ``[{run_id, rep, factors: {...}, params: {...}}, ...]`` in
    deterministic order: factor names sorted, levels in declared order,
    repetitions innermost.  ``params`` is the complete
    :class:`WorkloadConfig` keyword set for the run (validated here, so
    a typo'd config fails before anything executes).
    """
    base = dict(config.get("base", {}))
    factors = {str(k): list(v) for k, v in dict(config.get("factors", {})).items()}
    reps = int(config.get("repetitions", 1))
    if reps < 1:
        raise ValueError("repetitions must be >= 1")
    for name, levels in factors.items():
        if not levels:
            raise ValueError(f"factor {name!r} has no levels")
    unknown = (set(base) | set(factors)) - WORKLOAD_KEYS
    if unknown:
        raise ValueError(
            f"unknown workload keys {sorted(unknown)}; valid keys are "
            f"{sorted(WORKLOAD_KEYS)}"
        )
    names = sorted(factors)
    runs: list[dict] = []
    for combo in itertools.product(*(factors[n] for n in names)):
        cell = dict(zip(names, combo))
        for rep in range(reps):
            params = dict(base)
            params.update(cell)
            params["seed"] = int(params.get("seed", 0)) + rep
            WorkloadConfig(**params)  # validate levels eagerly
            runs.append(
                {
                    "run_id": len(runs),
                    "rep": rep,
                    "factors": dict(cell),
                    "params": params,
                }
            )
    return runs


def run_experiment(
    config: dict,
    *,
    index,
    service=None,
    server: "tuple[str, int] | None" = None,
    index_name: str = "default",
    out_json=None,
    out_csv=None,
    progress=None,
) -> dict:
    """Execute every run in the expanded table; return the report dict.

    ``index`` is a persisted index directory.  By default every run goes
    through one shared in-process
    :class:`~repro.service.server.QueryService` (so the index loads
    once); pass ``server=(host, port)`` to drive a live ``serve``
    endpoint instead, or ``service=`` to reuse an existing one.
    ``progress(row)`` is called after each run.  ``out_json`` /
    ``out_csv`` write the full report / the flat rows.
    """
    from repro.service.server import QueryService

    runs = expand_run_table(config)
    rows: list[dict] = []
    own_service = service is None and server is None
    svc = QueryService() if own_service else service
    try:
        for run in runs:
            workload = WorkloadConfig(**run["params"])
            if server is not None:
                result = run_against_server(
                    index, server[0], server[1], workload,
                    index_name=index_name,
                )
            else:
                result = run_against_service(index, workload, service=svc)
            row = {"run_id": run["run_id"], "rep": run["rep"]}
            row.update(run["factors"])
            row.update(result.summary())
            rows.append(row)
            if progress is not None:
                progress(row)
    finally:
        if own_service:
            svc.stop()
    report: dict = {
        "name": str(config.get("name", "loadtest")),
        "repetitions": int(config.get("repetitions", 1)),
        "factors": {k: list(v) for k, v in dict(config.get("factors", {})).items()},
        "n_runs": len(rows),
        "rows": rows,
    }
    if "target_rps" in report["factors"]:
        report["saturation_knee_rps"] = saturation_knee(rows)
    if out_json is not None:
        Path(out_json).write_text(json.dumps(report, indent=2) + "\n")
    if out_csv is not None and rows:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return report
