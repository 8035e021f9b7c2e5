"""Smoke test of the end-to-end benchmark (``run.py --quick``).

Collected by the tier-1 command.  It checks shape, not speed: every
quick run prints a result that matches ``BENCHMARK.json``, the counts
the program makes repeat exactly, ``--compare`` calls a table the same
as itself, and no server outlives the run.  The runs overlap, which is
fine because nothing here asserts a timing.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Counts the program makes; equal inputs must give equal counts.
REPEATING = {"join_batch": "core.result_pairs", "serve_hot": "index.candidates_per_query"}


def quick(workload: str, trace: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {"workload": workload, "seed": 3, "trace": trace, **json.loads(proc.stdout.strip().splitlines()[-1])}


@pytest.fixture(scope="module")
def rows(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("e2e")
    jobs = [(w, t) for t in (0, 1) for w in WORKLOADS] + [(w, 1) for w in REPEATING]
    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(lambda job: quick(*job, out), jobs))


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_run_prints_the_declared_metrics(rows):
    for row in rows:
        assert set(row) == {"workload", "seed", "trace", "correct", "attempted", "failed", "metrics"}
        assert row["correct"] is True and row["failed"] == 0 and row["attempted"] >= 1, row
        declared = SPEC["per_layer"] if row["trace"] else SPEC["end_to_end"]
        assert list(row["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            cell = row["metrics"][m["name"]]
            assert cell["unit"] == m["unit"] and math.isfinite(cell["value"])
            if not row["trace"]:
                # Every cell of the end-to-end table is a measured, non-zero number.
                assert cell["value"] > 0, (row["workload"], m["name"])


def test_program_counts_repeat_exactly(rows):
    for workload, name in REPEATING.items():
        values = [r["metrics"][name]["value"] for r in rows if r["workload"] == workload and r["trace"] == 1]
        assert len(values) == 2 and values[0] == values[1] and values[0] > 0, (workload, name, values)


def test_compare_calls_a_table_the_same_as_itself(rows, tmp_path):
    table = tmp_path / "run_table.json"
    table.write_text(json.dumps({"rows": rows}))
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--compare", str(table), str(table)],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.strip().splitlines()[1:]]
    assert len(verdicts) == len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1) and set(verdicts) == {"same"}


def test_no_server_outlives_the_runs(rows):
    mine = str(HERE / ".work")
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            text = cmdline.read_bytes().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue  # the process ended while we looked
        assert not ("serve" in text and mine in text), f"server still running: {text}"
