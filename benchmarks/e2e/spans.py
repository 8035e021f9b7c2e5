"""In-memory span recorder for the traced pass.

Spans are recorded by the benchmark around its calls into each layer
(name, start, end, parent), kept in memory, and written out as
``spans.jsonl`` when the run ends.  A layer's self time is its span
minus the spans it contains.

The layer peel replays one request against progressively deeper public
entry points, one call per depth, so a child's interval is measured in
its own call and attached to the parent by id rather than by wall-clock
containment; the subtraction is the same.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Time the block; yields the span id for children to name."""
        sid = len(self.spans)
        record = {"id": sid, "name": name, "parent": parent, "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        try:
            yield sid
        finally:
            record["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median_s(self, name: str) -> float | None:
        values = self.durations(name)
        return statistics.median(values) if values else None

    def self_s(self, name: str) -> float | None:
        """Median duration of ``name`` minus the medians of the span
        names recorded as its children."""
        total = self.median_s(name)
        if total is None:
            return None
        ids = {s["id"] for s in self.spans if s["name"] == name}
        children = sorted({s["name"] for s in self.spans if s["parent"] in ids})
        return total - sum(self.median_s(child) for child in children)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def server_self_times(jsonl_path: Path) -> tuple[dict[str, float], float | None]:
    """Median self time (s) per span name in the server's ``--trace-log``
    export, and the median root duration of POST traces."""
    by_id: dict[str, dict] = {}
    try:
        with open(jsonl_path) as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # a torn last line from a server stopped mid-write
                by_id[rec["span_id"]] = rec
    except OSError:
        return {}, None
    child_s: dict[str, float] = {}
    for rec in by_id.values():
        parent = rec.get("parent_id")
        if parent in by_id:
            child_s[parent] = child_s.get(parent, 0.0) + float(rec.get("duration_s") or 0.0)
    post_traces = {r["trace_id"] for r in by_id.values() if r.get("parent_id") is None and r["name"].startswith("POST")}
    self_by_name: dict[str, list[float]] = {}
    roots: list[float] = []
    for sid, rec in by_id.items():
        if rec["trace_id"] not in post_traces:
            continue
        dur = float(rec.get("duration_s") or 0.0)
        if rec.get("parent_id") is None:
            roots.append(dur)
        self_by_name.setdefault(rec["name"], []).append(max(dur - child_s.get(sid, 0.0), 0.0))
    medians = {name: statistics.median(vals) for name, vals in self_by_name.items()}
    return medians, (statistics.median(roots) if roots else None)
