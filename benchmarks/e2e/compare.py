"""Judge two run tables against the bounds in ``BENCHMARK.json``.

For every end-to-end metric x workload: the parent's median, the
change's median, the relative delta, the bound and a verdict.

* ``worse``      -- the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` -- the run-to-run spread of either side (distance between
  the quartiles over the median, needs four runs) is wider than the bound
  and not every run of the change reads better than every run of the
  parent, so "no change" cannot be told from "changed";
* ``better``     -- better by more than the bound;
* ``same``       -- within the bound.

Failures are judged too: a workload whose failed share rises by more
than 0.002 is ``worse`` whatever its timings say.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

FAILED_SHARE_BOUND = 0.002


def cells(rows: list[dict]) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): values}`` over the untraced rows of a table."""
    out: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        if row["trace"]:
            continue
        for name, cell in row["metrics"].items():
            out.setdefault((row["workload"], name), []).append(cell["value"])
    return out


def spread(values: list[float]) -> float | None:
    """Inter-quartile distance as a share of the median (needs 4 runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


def noise_table(spec: dict, rows: list[dict]) -> dict:
    """min / quartiles / max / spread per end-to-end metric x workload."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict = {}
    for (workload, name), values in sorted(cells(rows).items()):
        q1, _, q3 = statistics.quantiles(values, n=4)
        table.setdefault(workload, {})[name] = {
            "runs": len(values), "min": min(values), "q1": q1, "median": statistics.median(values), "q3": q3,
            "max": max(values), "spread": spread(values), "bound": bounds[name],
        }
    return table


def print_noise(table: dict) -> None:
    print(f"{'workload':<14} {'metric':<16} {'min':>11} {'median':>11} {'max':>11} {'spread':>8} {'bound':>6}")
    for workload, metrics in table.items():
        for name, c in metrics.items():
            flag = "" if name == "setup_s" or c["spread"] <= c["bound"] / 3 else "  > bound/3"
            print(f"{workload:<14} {name:<16} {c['min']:>11.5g} {c['median']:>11.5g} {c['max']:>11.5g} "
                  f"{c['spread']:>8.4f} {c['bound']:>6.2f}{flag}")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    med_a, med_b = statistics.median(a), statistics.median(b)
    delta = (med_b - med_a) / med_a if med_a else 0.0
    worse_by = delta if better == "lower" else -delta
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return delta, "better" if all_better else "unresolved"
    if worse_by > bound:
        return delta, "worse"
    return delta, "better" if worse_by < -bound else "same"


def load_rows(path: str) -> list[dict]:
    return json.loads(Path(path).read_text())["rows"]


def compare_tables(spec: dict, path_a: str, path_b: str) -> int:
    rows_a, rows_b = load_rows(path_a), load_rows(path_b)
    a, b = cells(rows_a), cells(rows_b)
    any_worse = False
    print(f"{'workload':<14} {'metric':<16} {'parent':>11} {'change':>11} {'delta':>8} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in a or key not in b:
                print(f"{key[0]:<14} {key[1]:<16} {'-':>11} {'-':>11} {'-':>8} {m['bound']:>6.2f}  unresolved (missing)")
                continue
            delta, word = verdict(a[key], b[key], m["better"], m["bound"])
            any_worse |= word == "worse"
            print(f"{key[0]:<14} {key[1]:<16} {statistics.median(a[key]):>11.5g} {statistics.median(b[key]):>11.5g} "
                  f"{delta:>+8.1%} {m['bound']:>6.2f}  {word}")
        shares = []
        for rows in (rows_a, rows_b):
            mine = [r for r in rows if r["workload"] == w["name"] and r["trace"] == 0]
            shares.append(sum(r["failed"] for r in mine) / max(sum(r["attempted"] for r in mine), 1))
        word = "worse" if shares[1] - shares[0] > FAILED_SHARE_BOUND else "same"
        any_worse |= word == "worse"
        print(f"{w['name']:<14} {'failed_share':<16} {shares[0]:>11.5g} {shares[1]:>11.5g} {shares[1] - shares[0]:>+8.4f} "
              f"{FAILED_SHARE_BOUND:>6.3f}  {word}")
    return 1 if any_worse else 0
