"""The four workloads: what runs, what is timed, what is checked.

Every workload has an untraced flow (``--trace 0``: the end-to-end
metrics, measured by the client with tracing off) and a traced flow
(``--trace 1``: the per-layer metrics -- ``/metrics`` deltas around an
untraced phase, the server's own ``--trace-log`` spans, and the
benchmark's span recorder around progressively deeper public entry
points).  Each workload maps its operation kinds onto the slots
``op1``/``op2``/``op3`` of the end-to-end metrics; README.md has the table.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import load
from httpclient import Connection, ServerProcess, peak_rss_mib
from inputs import Mixture, Oracle, mutable_ops
from load import Request
from spans import Recorder, server_self_times

WORKLOADS = ("join_batch", "serve_hot", "serve_wide", "serve_mutable")

#: Load is sized for this host (nproc = 2): one generator process, two
#: client threads = two connections, never more than nproc.
CLIENTS = 2
KNN_K = 5
SETUP_REPS = 3
JOIN_SETUP_REPS = 5
#: Requests replayed against each entry point in the layer peel.
PEEL_REQUESTS = 100
PACED_RPS = 16.0
STAGES = ("adjacency", "gather", "gemm", "rz", "commit", "worker")
TRACE_SPANS = ("queue.wait", "batch.assemble", "engine.dispatch", "batch.split")
POST_ENDPOINTS = ("range", "knn", "append", "delete")

SHAPES = {
    "join_batch": dict(n=16384, d=128, clusters=128, gds_rows=8192, budget=8 << 20, warm_rows=4096, truth_rows=2048),
    "serve_hot": dict(n=16384, d=64, clusters=128, batch=8, zipf=1.1),
    "serve_wide": dict(n=131072, d=128, clusters=1024, batch=32, zipf=None),
    "serve_mutable": dict(n=16384, d=64, clusters=128, batch=8, cycle_ops=150, seal=64, append_rows=16, delete_ids=4),
}
QUICK_SHAPES = {
    "join_batch": dict(n=2048, d=32, clusters=16, gds_rows=1024, budget=1 << 18, warm_rows=256, truth_rows=512),
    "serve_hot": dict(n=2048, d=16, clusters=16, batch=8, zipf=1.1),
    "serve_wide": dict(n=2048, d=32, clusters=32, batch=32, zipf=None),
    "serve_mutable": dict(n=2048, d=16, clusters=16, batch=8, cycle_ops=40, seal=16, append_rows=8, delete_ids=2),
}

#: (slot, request kind, share of --seconds) for serve_hot and serve_wide.
SERVE_PHASES = (("op1", "range", 0.5), ("op2", "knn", 0.25), ("op3", "point", 0.25))
#: Times the phases are gone through in one run.
SERVE_CYCLES = 4
#: Slot -> request kind for serve_mutable.
MUTABLE_SLOTS = (("op1", "range"), ("op2", "append"), ("op3", "delete"))


@dataclass
class Run:
    """One invocation: its arguments, scratch space and what it found."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    workdir: Path
    outdir: Path
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    recorder: Recorder = field(default_factory=Recorder)

    @property
    def shape(self) -> dict:
        return (QUICK_SHAPES if self.quick else SHAPES)[self.workload]

    @property
    def prefix(self) -> str:
        return f"{self.workload}-s{self.seed}-t{int(self.trace)}"

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, WORKLOADS.index(self.workload), *stream])

    def count(self, attempted: int, failures: list[str], unlisted: int = 0) -> None:
        """Add operations and their failures; ``unlisted`` failures have
        no body of their own (only the first error bodies are kept)."""
        self.attempted += attempted
        self.failed += len(failures) + unlisted
        self.errors.extend(failures[: max(0, load.MAX_ERROR_BODIES - len(self.errors))])

    def save(self, name: str, data) -> None:
        path = self.outdir / f"{self.prefix}.{name}"
        if isinstance(data, np.ndarray):
            np.save(path, data)
        else:
            path.write_text(data)

    def few(self, full: int, quick: int) -> int:
        """A request count: ``full`` when measuring, ``quick`` in a smoke run."""
        return quick if self.quick else full

    def phase_row(self, phase: str, **cells) -> None:
        self.phases.append({"workload": self.workload, "phase": phase, "seed": self.seed, "trace": int(self.trace), **cells})


def ratio(num, den, scale: float = 1.0):
    if num is None or den is None or den == 0:
        return None
    return scale * num / den


def median_ms(values) -> float | None:
    return statistics.median(values) * 1e3 if len(values) else None


# ----------------------------------------------------------------------
# join_batch: the in-process library, no server
# ----------------------------------------------------------------------


def _sorted_pairs(result) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((result.pairs_j, result.pairs_i))
    keys = result.pairs_i[order] * result.n_points + result.pairs_j[order]
    return keys, result.sq_dists[order].view(np.uint32)


def _keys_below(result, first_rows: int) -> np.ndarray:
    mask = result.pairs_i < first_rows
    return np.unique(result.pairs_i[mask] * result.n_points + result.pairs_j[mask])


#: Floor on FaSTED's overlap with FP64 truth.  On these rows (coordinates
#: up to 40, where FP16's spacing is 0.031, against sigma 0.15) the seed
#: measures 0.96; the floor leaves room for seeds, not for a wrong kernel.
OVERLAP_FLOOR = 0.93


def fasted_overlap(result, oracle: Oracle, first_rows: int, eps: float) -> float:
    """The paper's Eq. 3 over the first ``first_rows`` points: mean
    per-point |got and true| / |got or true| of the neighbour sets."""
    _, truth = oracle.self_pairs(first_rows, eps)
    got = _keys_below(result, first_rows)
    n = result.n_points

    def per_point(keys: np.ndarray) -> np.ndarray:
        return np.bincount(keys // n, minlength=first_rows)

    common = per_point(np.intersect1d(got, truth))
    union = per_point(got) + per_point(truth) - common
    return float(np.where(union > 0, common / np.maximum(union, 1), 1.0).mean())


def run_join_batch(run: Run) -> None:
    import repro

    shape = run.shape
    npy = run.workdir / "rows.npy"

    # Set-up, several times over: rows, eps, the .npy file and one small
    # join of each kind.  The first pass also pays imports, the native
    # kernel's load and BLAS spin-up; the median does not.
    setups = []
    for _ in range(run.few(JOIN_SETUP_REPS, 1)):
        t0 = time.perf_counter()
        mix = Mixture(run.seed, shape["n"], shape["d"], shape["clusters"])
        np.save(npy, mix.data)
        warm = mix.data[: shape["warm_rows"]]
        repro.self_join(warm, mix.eps, method="fasted")
        repro.self_join(warm, mix.eps, method="gds-join", precision="fp64")
        repro.self_join(warm, mix.eps, stream=True, memory_budget_bytes=shape["budget"])
        setups.append(time.perf_counter() - t0)
    data, eps = mix.data, mix.eps
    gds_data = data[: shape["gds_rows"]]

    def fasted():
        return repro.self_join(data, eps, method="fasted")

    def gds():
        return repro.self_join(gds_data, eps, method="gds-join", precision="fp64")

    def stream():
        return repro.self_join(npy, eps, stream=True, memory_budget_bytes=shape["budget"])

    if run.trace:
        _join_traced(run, mix, npy, fasted, gds)
        return

    # Blocks of each kind in turn until the time is up, so every kind
    # samples the whole run: this host's speed drifts by tens of per cent
    # over some seconds, and a kind measured in one stretch would take
    # its median from whatever that stretch was like.  Blocks, not single
    # reps, because the first gds-join rep after a fasted join has churned
    # the allocator takes up to 0.77 s against 0.15 s among its own kind;
    # one slow rep in six leaves the median alone.
    kinds = (("op1", "fasted", fasted, 2), ("op2", "gds-join", gds, 6), ("op3", "stream", stream, 2))
    times: dict[str, list[float]] = {slot: [] for slot, *_ in kinds}
    sizes: dict[str, int] = {}
    last: dict[str, object] = {}
    failures: list[str] = []
    deadline = time.perf_counter() + run.seconds
    while not sizes or time.perf_counter() < deadline:
        for slot, label, join, block in kinds:
            if slot in sizes and time.perf_counter() >= deadline:
                break
            for _ in range(block):
                # One result per kind is alive at a time (20 MB each), so
                # the memory peak does not depend on how many reps fitted.
                last[slot] = None
                t0 = time.perf_counter()
                last[slot] = join()
                times[slot].append(time.perf_counter() - t0)
                # Every rep must repeat the first rep's count (off the clock).
                size = last[slot].total_result_size
                if size != sizes.setdefault(slot, size):
                    failures.append(f"{label} rep {len(times[slot]) - 1}: {size} pairs, rep 0 had {sizes[slot]}")
    peak = peak_rss_mib()

    # Oracle, off the clock: the last rep of each kind gets the full check.
    rf, rg, rs = last["op1"], last["op2"], last["op3"]
    overlap = fasted_overlap(rf, mix.oracle, shape["truth_rows"], eps)
    if overlap < OVERLAP_FLOOR:
        failures.append(f"fasted overlap {overlap:.6f} < {OVERLAP_FLOOR} against FP64 truth")
    sure, maybe = Oracle(gds_data).self_pairs(shape["truth_rows"], eps)
    got = _keys_below(rg, shape["truth_rows"])
    if np.setdiff1d(sure, got).size or np.setdiff1d(got, maybe).size:
        failures.append("gds-join fp64 pair set differs from FP64 truth")
    keys_f, bits_f = _sorted_pairs(rf)
    keys_s, bits_s = _sorted_pairs(rs)
    if not (np.array_equal(keys_f, keys_s) and np.array_equal(bits_f, bits_s)):
        failures.append("streaming join is not bitwise equal to the in-memory join")
    run.count(sum(len(t) for t in times.values()), failures)

    m = run.metrics
    for slot, label, _, _ in kinds:
        m[f"{slot}_p50_ms"] = median_ms(times[slot])
        run.phase_row(label, reps=len(times[slot]), p50_ms=m[f"{slot}_p50_ms"], result_size=last[slot].total_result_size)
        run.save(f"{label}.times.npy", np.array(times[slot]))
    m["op1_p95_ms"] = float(np.percentile(times["op1"], 95) * 1e3)
    # One join of each kind, at the median pace of each.
    m["throughput_ops"] = 3e3 / (m["op1_p50_ms"] + m["op2_p50_ms"] + m["op3_p50_ms"])
    m["setup_s"] = statistics.median(setups)
    m["peak_rss_mib"] = peak


def _join_traced(run: Run, mix: Mixture, npy: Path, fasted, gds) -> None:
    import repro
    from repro import fp
    from repro.data.source import as_source
    from repro.kernels.fasted import FastedKernel
    from repro.kernels.gdsjoin import GdsJoinKernel

    shape = run.shape
    rec = run.recorder
    data, eps = mix.data, mix.eps
    gds_data = data[: shape["gds_rows"]]
    tile = data[: min(2048, data.shape[0])]
    reps = max(2, min(5, int(run.seconds // 4)))
    stats = None
    for _ in range(reps):
        with rec.span("core.self_join.fasted") as api:
            rf = fasted()
        with rec.span("kernels.fasted.self_join", parent=api):
            FastedKernel(repro.DEFAULT_SPEC).self_join(data, eps)
        with rec.span("core.self_join.gds") as api:
            gds()
        with rec.span("kernels.gds.self_join", parent=api):
            rg = GdsJoinKernel(repro.DEFAULT_SPEC, precision="fp64").self_join(gds_data, eps)
        with rec.span("core.self_join_stream"):
            rs, stats = repro.self_join_stream(npy, eps, memory_budget_bytes=shape["budget"])
        with rec.span("fp.quantize_fp16"):
            fp.quantize_fp16(data)
        with rec.span("fp.rz_sum_squares"):
            fp.rz_sum_squares(data)
        with rec.span("fp.gemm_fp16_32"):
            fp.gemm_fp16_32(tile, tile)
        source = as_source(npy)
        with rec.span("data.load_block"):
            for r0 in range(0, source.n, 4096):
                source.load_block(r0, min(r0 + 4096, source.n))
    n = data.shape[0]
    m = run.metrics
    m["fp.quantize_s"] = rec.median_s("fp.quantize_fp16")
    m["fp.rz_norms_s"] = rec.median_s("fp.rz_sum_squares")
    m["fp.gemm_gflops"] = ratio(2.0 * tile.shape[0] ** 2 * tile.shape[1] / 1e9, rec.median_s("fp.gemm_fp16_32"))
    m["kernels.fasted_s"] = rec.median_s("kernels.fasted.self_join")
    m["kernels.gds_s"] = rec.median_s("kernels.gds.self_join")
    m["kernels.gds_pair_yield"] = ratio(rg.result.pairs_i.size, rg.total_candidates)
    m["kernels.fasted_overlap"] = fasted_overlap(rf, mix.oracle, shape["truth_rows"], eps)
    m["core.api_self_s"] = rec.self_s("core.self_join.fasted")
    m["core.stream_ratio"] = ratio(rec.median_s("core.self_join_stream"), rec.median_s("core.self_join.fasted"))
    m["core.stream_blocks_loaded"] = stats.blocks_loaded
    m["core.stream_peak_resident_mib"] = stats.peak_resident_bytes / 2**20
    m["core.dist_evals_per_s"] = ratio(n * (n - 1) / 2, rec.median_s("core.self_join.fasted"))
    m["core.result_pairs"] = rf.total_result_size
    m["data.load_block_mib_per_s"] = ratio(n * data.shape[1] * 8 / 2**20, rec.median_s("data.load_block"))
    failures = []
    if rs.total_result_size != rf.total_result_size:
        failures.append("streaming and in-memory result sizes differ")
    if m["kernels.fasted_overlap"] < OVERLAP_FLOOR:
        failures.append(f"fasted overlap {m['kernels.fasted_overlap']:.6f} < {OVERLAP_FLOOR}")
    run.count(3 * reps, failures)


# ----------------------------------------------------------------------
# serving: requests, set-up, checks
# ----------------------------------------------------------------------


def request_stream(mix: Mixture, rng: np.random.Generator, kind: str, batch: int, zipf):
    """Endless requests of one kind; ``point`` is a one-query ``/range``."""
    rows = 1 if kind == "point" else batch
    while True:
        for q in mix.queries(rng, 64, rows, zipf):
            payload = {"queries": q.tolist()}
            if kind == "knn":
                payload["k"] = KNN_K
            yield Request(kind, "/knn" if kind == "knn" else "/range", payload, state=q)


def first_requests(mix: Mixture, rng: np.random.Generator, kind: str, shape: dict, count: int) -> list[Request]:
    stream = request_stream(mix, rng, kind, shape["batch"], shape.get("zipf"))
    return [next(stream) for _ in range(count)]


def check_samples(samples: list, oracle_for, eps: float) -> list[str]:
    """Judge the kept replies; ``oracle_for(request)`` names the truth."""
    failures = []
    for req, reply in samples:
        try:
            doc = json.loads(reply)
            if req.kind == "knn":
                good = oracle_for(req).check_knn(req.state, KNN_K, doc.get("indices"))
            else:
                good = oracle_for(req).check_range(req.state, eps, doc.get("neighbors"))
        except (ValueError, TypeError, AttributeError, IndexError):
            good = False
        if not good:
            failures.append(f"wrong answer to {req.path}: {reply[:200].decode('utf-8', 'replace')}")
    return failures


def account(run: Run, result: load.PhaseResult, oracle_for, eps: float) -> int:
    """Count a phase's failures (non-200, transport, wrong); returns wrong."""
    wrong = check_samples(result.samples, oracle_for, eps)
    bad_status = int((result.records["status"] != 200).sum())
    run.count(int(result.records.size), result.errors + wrong, bad_status - len(result.errors))
    return len(wrong)


def setup_server(run: Run, stack: ExitStack, mix: Mixture, tag: str, warm: list[Request],
                 extra: tuple = (), **build) -> tuple[ServerProcess, Path, float, float]:
    """One full set-up: build the index, start the server, warm it.

    Returns ``(server, index path, build seconds, total seconds)``.  A
    warm-up reply other than 200 aborts the run: nothing measured after
    it would mean anything.
    """
    import repro

    path = run.workdir / f"index-{tag}"
    t0 = time.perf_counter()
    repro.build_index(mix.data, mix.eps, path, **build)
    build_s = time.perf_counter() - t0
    server = stack.enter_context(ServerProcess(path, run.workdir, extra))
    conn = Connection(server.port)
    try:
        for req in warm:
            status, reply = conn.request("POST", req.path, req.body())
            if status != 200:
                raise RuntimeError(f"warm-up {req.path} answered {status}: {reply[:200]!r}")
    finally:
        conn.close()
    return server, path, build_s, time.perf_counter() - t0


def repeated_setup(run: Run, stack: ExitStack, mix: Mixture, warm: list[Request], **build):
    """Set up ``SETUP_REPS`` times; keep the last server, report the median."""
    samples = []
    reps = run.few(SETUP_REPS, 1)
    for rep in range(reps):
        last = rep == reps - 1
        with ExitStack() as scratch:
            server, path, _, total = setup_server(run, stack if last else scratch, mix, f"setup{rep}", warm, **build)
            samples.append(total)
        if not last:
            shutil.rmtree(path, ignore_errors=True)
    return server, path, statistics.median(samples)


def server_deltas(before: str, after: str, observed_s: float) -> dict:
    """``service.server.*`` from two ``/metrics`` scrapes around a phase.

    ``observed_s`` is the sum of the latencies the clients saw in that
    phase; a family the server no longer exports gives ``None``.
    """
    b, a = load.parse_metrics(before), load.parse_metrics(after)

    def delta(name: str):
        return a[name] - b.get(name, 0.0) if name in a else None

    def total(names: list[str]):
        values = [delta(n) for n in names]
        present = [v for v in values if v is not None]
        return sum(present) if present else None

    served = delta("repro_service_requests_served_total")
    handled = total([f'repro_http_request_seconds_count{{endpoint="{e}"}}' for e in POST_ENDPOINTS])
    handler_s = total([f'repro_http_request_seconds_sum{{endpoint="{e}"}}' for e in POST_ENDPOINTS])
    out = {
        "service.server.batches_per_req": ratio(delta("repro_service_batches_dispatched_total"), served),
        "service.server.coalesced_share": ratio(delta("repro_service_requests_coalesced_total"), served),
        "service.server.dispatch_ms_per_req": ratio(delta("repro_service_dispatch_seconds_sum"), served, 1e3),
        "service.server.handler_ms_per_req": ratio(handler_s, handled, 1e3),
        "service.server.rejected": delta("repro_service_requests_rejected_total"),
        "service.server.expired": delta("repro_service_requests_expired_total"),
    }
    stage_s = 0.0
    for stage in STAGES:
        d = delta(f'repro_stage_seconds_sum{{stage="{stage}"}}')
        out[f"service.server.stage_s_per_req.{stage}"] = ratio(d, served)
        stage_s += d or 0.0
    out["service.server.unattributed_share"] = 1.0 - stage_s / observed_s if observed_s > 0 and served else None
    return out


def record_server_deltas(run: Run, before: str, after: str, result: load.PhaseResult) -> None:
    """The untraced phase of a traced run: ``/metrics`` deltas and raw text."""
    run.metrics.update(server_deltas(before, after, float(result.records["latency"].sum())))
    run.metrics["harness.client_busy_share"] = result.busy_share
    run.save("metrics_before.txt", before)
    run.save("metrics_after.txt", after)


def trace_metrics(run: Run, log: Path, metrics_text: str, untraced_rps, traced_rps) -> None:
    self_s, root_s = server_self_times(log)
    gauges = load.parse_metrics(metrics_text)
    m = run.metrics
    m["trace.overhead_pct"] = ratio(untraced_rps - traced_rps, untraced_rps, 100.0) if untraced_rps and traced_rps else None
    for name in TRACE_SPANS:
        m[f"trace.self_ms.{name}"] = self_s[name] * 1e3 if name in self_s else None
    m["trace.root_ms"] = root_s * 1e3 if root_s is not None else None
    m["trace.retained"] = gauges.get("repro_traces_retained")
    m["trace.dropped"] = gauges.get("repro_traces_dropped")
    if log.is_file():
        run.save("server_trace.jsonl", log.read_text())


# ----------------------------------------------------------------------
# serve_hot / serve_wide
# ----------------------------------------------------------------------


def run_serve(run: Run) -> None:
    shape = run.shape
    mix = Mixture(run.seed, shape["n"], shape["d"], shape["clusters"])
    warm = [req for i, (_, kind, _) in enumerate(SERVE_PHASES) for req in first_requests(mix, run.rng(9, i), kind, shape, run.few(6, 2))]

    def streams(phase: int, kind: str):
        return [request_stream(mix, run.rng(phase, c), kind, shape["batch"], shape["zipf"]) for c in range(CLIENTS)]

    def oracle_for(_req):
        return mix.oracle

    if run.trace:
        _serve_traced(run, mix, warm, streams, oracle_for)
        return

    with ExitStack() as stack:
        server, _, setup_s = repeated_setup(run, stack, mix, warm)
        # The phases in turn, several times over, so each kind samples the
        # whole run and not one stretch of a host whose speed drifts.
        cycles = run.few(SERVE_CYCLES, 1)
        kind_streams = {kind: streams(phase, kind) for phase, (_, kind, _) in enumerate(SERVE_PHASES)}
        parts: dict[str, list[load.PhaseResult]] = {kind: [] for kind in kind_streams}
        t_start = time.perf_counter()
        for _ in range(cycles):
            for _, kind, share in SERVE_PHASES:
                offset = time.perf_counter() - t_start
                part = load.closed_loop(server.port, kind_streams[kind], run.seconds * share / cycles)
                part.records["start"] += offset
                parts[kind].append(part)
    m = run.metrics
    for slot, kind, _ in SERVE_PHASES:
        wrong = sum(account(run, part, oracle_for, mix.eps) for part in parts[kind])
        records = np.concatenate([part.records for part in parts[kind]])
        ok = records[records["status"] == 200]
        m[f"{slot}_p50_ms"] = load.percentile_ms(ok["latency"], 50)
        if slot == "op1":
            m["op1_p95_ms"] = load.percentile_ms(ok["latency"], 95)
            m["throughput_ops"] = statistics.median(part.ok().size / part.wall_s for part in parts[kind])
        run.phase_row(kind, sent=int(records.size), ok=int(ok.size), wrong=wrong, wall_s=sum(part.wall_s for part in parts[kind]),
                      p50_ms=load.percentile_ms(ok["latency"], 50), p95_ms=load.percentile_ms(ok["latency"], 95),
                      client_busy_share=statistics.mean(part.busy_share for part in parts[kind]))
        run.save(f"{kind}.records.npy", records)
    m["setup_s"] = setup_s
    m["peak_rss_mib"] = server.peak_rss_mib


def _serve_traced(run: Run, mix: Mixture, warm, streams, oracle_for) -> None:
    import repro
    from repro import trace as repro_trace
    from repro.service import QueryService

    shape = run.shape
    m = run.metrics
    rec = run.recorder
    slice_s = run.seconds / 4.0
    peel = first_requests(mix, run.rng(0, 0), "range", shape, run.few(PEEL_REQUESTS, 10))
    peel_knn = first_requests(mix, run.rng(1, 0), "knn", shape, len(peel) // 2)

    # A. Untraced server: /metrics deltas around the closed loop, the
    # paced phase, and the HTTP depth of the layer peel.
    with ExitStack() as stack:
        server, path, build_s, _ = setup_server(run, stack, mix, "untraced", warm)
        m["index.build_s"] = build_s
        before = load.scrape(server.port)
        result = load.closed_loop(server.port, streams(0, "range"), slice_s)
        after = load.scrape(server.port)
        account(run, result, oracle_for, mix.eps)
        ok = result.ok()
        untraced_rps = ok.size / result.wall_s
        record_server_deltas(run, before, after, result)
        run.phase_row("range.untraced", sent=int(result.records.size), ok=int(ok.size), wall_s=result.wall_s,
                      p50_ms=load.percentile_ms(ok["latency"], 50), throughput=untraced_rps)

        if run.workload == "serve_hot":
            # Open loop, Poisson arrivals.  Per-layer only: on the seed it
            # is bimodal with the inter-arrival gap and cannot be gated.
            rng = run.rng(7)
            due = np.cumsum(rng.exponential(1.0 / PACED_RPS, size=int(PACED_RPS * slice_s) + 1))
            paced = load.paced_loop(server.port, first_requests(mix, rng, "range", shape, due.size), due, CLIENTS)
            account(run, paced, oracle_for, mix.eps)
            m["service.server.paced_p50_ms"] = load.percentile_ms(paced.ok()["latency"], 50)
            m["service.server.paced_p95_ms"] = load.percentile_ms(paced.ok()["latency"], 95)
            m["harness.late_share"] = paced.late_share
            run.save("paced.records.npy", paced.records)
            run.phase_row("range.paced", sent=int(paced.records.size), ok=int(paced.ok().size), rate_rps=PACED_RPS,
                          p50_ms=m["service.server.paced_p50_ms"], p95_ms=m["service.server.paced_p95_ms"])

        conn = Connection(server.port)
        http_ids, idle_s, failures = [], [], []
        try:
            for i, req in enumerate(peel):
                body = req.body()
                with rec.span("http.round_trip", request=i) as sid:
                    status, _ = load.send(conn, req, body)
                http_ids.append(sid)
                if status != 200:
                    failures.append(f"peel request {i} answered {status}")
            for req in peel[: run.few(10, 3)]:
                body = req.body()
                time.sleep(0.2)
                t0 = time.perf_counter()
                load.send(conn, req, body)
                idle_s.append(time.perf_counter() - t0)
        finally:
            conn.close()
        run.count(len(peel), failures)
        m["service.server.http_idle_ms"] = median_ms(idle_s)

    # B. The same closed loop against a server that retains every trace.
    log = run.workdir / "trace.jsonl"
    with ExitStack() as stack:
        server, _, _, _ = setup_server(run, stack, mix, "traced", warm, extra=("--trace-sample", "1.0", "--trace-log", str(log)))
        result = load.closed_loop(server.port, streams(0, "range"), slice_s)
        account(run, result, oracle_for, mix.eps)
        traced_text = load.scrape(server.port)
    traced_rps = result.ok().size / result.wall_s
    trace_metrics(run, log, traced_text, untraced_rps, traced_rps)
    run.phase_row("range.traced", sent=int(result.records.size), ok=int(result.ok().size), wall_s=result.wall_s, throughput=traced_rps)

    # C. The same requests against progressively deeper entry points, in
    # this process: QueryService.query -> QueryEngine -> groups + take.
    t0 = time.perf_counter()
    engine = repro.open_index(path, cache=False)
    m["index.open_s"] = time.perf_counter() - t0
    with QueryService() as service:
        service.query(path, peel[0].state)
        svc_ids = []
        for req, parent in zip(peel, http_ids):
            with rec.span("service.query", parent=parent) as sid:
                service.query(path, req.state)
            svc_ids.append(sid)
    engine.range_query(peel[0].state)
    eng_ids, pairs = [], 0
    for req, parent in zip(peel, svc_ids):
        with rec.span("engine.range_query", parent=parent) as sid:
            res = engine.range_query(req.state)
        eng_ids.append(sid)
        pairs += int(res.pairs_i.size)
    for req in peel_knn:
        with rec.span("engine.knn_query"):
            engine.knn_query(req.state, KNN_K)
    hooks = repro_trace.TraceHooks()
    t0 = time.perf_counter()
    with repro_trace.use_hooks(hooks):
        for req in peel:
            engine.range_query(req.state)
    hooked_s = time.perf_counter() - t0
    evals = queries = rows = 0
    for req, parent in zip(peel, eng_ids):
        with rec.span("index.groups+take", parent=parent) as sid:
            with rec.span("index.iter_join_groups", parent=sid):
                groups = list(engine.index.iter_join_groups(req.state))
            with rec.span("data.take", parent=sid):
                for _, cand in groups:
                    rows += engine.source.take(cand).shape[0]
        evals += sum(members.size * cand.size for members, cand in groups)
        queries += sum(members.size for members, _ in groups)

    m["service.query.range_ms"] = median_ms(rec.durations("engine.range_query"))
    m["service.query.knn_ms"] = median_ms(rec.durations("engine.knn_query"))
    stages = hooks.snapshot()
    for stage in STAGES[:-1]:
        m[f"service.query.stage_share.{stage}"] = stages.get(stage, 0.0) / hooked_s
    m["service.query.unattributed_share"] = 1.0 - sum(stages.values()) / hooked_s
    m["service.server.submit_self_ms"] = ratio(rec.self_s("service.query"), 1e-3)
    m["service.server.transport_self_ms"] = ratio(rec.self_s("http.round_trip"), 1e-3)
    m["index.groups_ms_per_req"] = median_ms(rec.durations("index.iter_join_groups"))
    m["index.candidates_per_query"] = ratio(evals, queries)
    m["index.pair_yield"] = ratio(pairs, evals)
    take_s = sum(rec.durations("data.take"))
    m["data.take_rows_per_s"] = ratio(rows, take_s)
    m["data.take_mib_per_s"] = ratio(rows * shape["d"] * 8 / 2**20, take_s)
    depths = ("http.round_trip", "service.query", "engine.range_query", "index.groups+take")
    run.phase_row("peel", requests=len(peel), median_ms={d: median_ms(rec.durations(d)) for d in depths},
                  self_ms={d: ratio(rec.self_s(d), 1e-3) for d in depths})


# ----------------------------------------------------------------------
# serve_mutable
# ----------------------------------------------------------------------


@dataclass
class Cycle:
    """One pass of the fixed op sequence over a fresh store."""

    result: load.PhaseResult
    blocks: list      # (ids, rows) per acknowledged append, in order
    deleted: list     # acknowledged deleted ids, in order
    probes: int       # final live-set probe requests sent
    failures: list    # wrong acknowledgements and wrong probe answers


def live_oracle(mix: Mixture, blocks: list, deleted: list) -> Oracle:
    """Base + acknowledged appends - acknowledged deletes."""
    ids = np.concatenate([np.arange(mix.data.shape[0], dtype=np.int64)] + [b[0] for b in blocks])
    rows = np.vstack([mix.data] + [b[1] for b in blocks])
    keep = ~np.isin(ids, np.asarray(deleted, dtype=np.int64))
    return Oracle(rows[keep], ids[keep])


def ids_to_delete(op: tuple, own: list[int]) -> list[int]:
    """The ids a delete op names now: the oldest acknowledged appended ids
    when the op asks for its own and enough exist, else its base ids."""
    _, wants_own, base_ids = op
    if wants_own and len(own) >= len(base_ids):
        return [own.pop(0) for _ in base_ids]
    return base_ids


def mutable_cycle(port: int, ops: list, mix: Mixture) -> Cycle:
    """Send the sequence from one connection, in order, then probe.

    One connection because the seed server can drop acknowledged appends
    when a second connection's request races a manifest commit (see
    README.md, "Seed findings"); the benchmark needs a workload on which
    nothing fails.
    """
    sink = load.Sink()
    blocks, deleted, own, failures = [], [], [], []
    ranges = 0
    conn = Connection(port)
    t_start = time.perf_counter()
    try:
        for op in ops:
            keep = False
            if op[0] == "range":
                req = Request("range", "/range", {"queries": op[1].tolist()}, state=op[1], when=(len(blocks), len(deleted)))
                keep = ranges % load.CHECK_EVERY == 0
                ranges += 1
            elif op[0] == "append":
                req = Request("append", "/append", {"rows": op[1].tolist()}, state=op[1])
            else:
                ids = ids_to_delete(op, own)
                req = Request("delete", "/delete", {"ids": ids}, state=ids)
            body = req.body()
            t0 = time.perf_counter()
            status, reply = load.send(conn, req, body)
            t1 = time.perf_counter()
            sink.in_request_s += t1 - t0
            sink.add(req, t0 - t_start, t1 - t0, status, reply, keep)
            if status != 200 or req.kind == "range":
                continue
            try:
                doc = json.loads(reply)
                if req.kind == "append":
                    ids = [int(i) for i in doc["ids"]]
                    if len(ids) != len(op[1]):
                        raise ValueError("append acknowledged a different row count")
                    blocks.append((np.asarray(ids, dtype=np.int64), op[1]))
                    own.extend(ids)
                else:
                    if int(doc["deleted"]) != len(req.state):
                        raise ValueError("delete acknowledged a different id count")
                    deleted.extend(req.state)
            except (ValueError, KeyError, TypeError) as exc:
                failures.append(f"{req.path}: {exc}: {reply[:200].decode('utf-8', 'replace')}")
        wall = time.perf_counter() - t_start

        # Quiescent: probe the final live set where it changed.
        final = live_oracle(mix, blocks, deleted)
        appended = np.vstack([b[1] for b in blocks[-2:]]) if blocks else mix.data[:0]
        removed = mix.data[[i for i in deleted if i < mix.data.shape[0]][-8:]]
        probes = np.vstack([appended[-16:], removed, mix.data[:8]])
        probes_sent = 0
        for q in np.array_split(probes, max(1, len(probes) // 8)):
            req = Request("range", "/range", {"queries": q.tolist()}, state=q)
            status, reply = load.send(conn, req, req.body())
            if status != 200:
                failures.append(f"probe answered {status}: {reply[:200].decode('utf-8', 'replace')}")
            else:
                failures.extend(check_samples([(req, reply)], lambda _r: final, mix.eps))
            probes_sent += 1
    finally:
        conn.close()
    return Cycle(load.merge([sink], wall, wall), blocks, deleted, probes_sent, failures)


def account_cycle(run: Run, mix: Mixture, cycle: Cycle) -> None:
    def oracle_for(req):
        n_blocks, n_deleted = req.when
        return live_oracle(mix, cycle.blocks[:n_blocks], cycle.deleted[:n_deleted])

    account(run, cycle.result, oracle_for, mix.eps)
    run.count(cycle.probes, cycle.failures)


def run_serve_mutable(run: Run) -> None:
    shape = run.shape
    mix = Mixture(run.seed, shape["n"], shape["d"], shape["clusters"])
    ops = mutable_ops(run.rng(0), mix, shape["cycle_ops"], shape["batch"], shape["append_rows"], shape["delete_ids"])
    warm = first_requests(mix, run.rng(9), "range", {**shape, "zipf": None}, run.few(6, 2))
    build = dict(mutable=True, seal_threshold=shape["seal"])

    if run.trace:
        _mutable_traced(run, mix, ops, warm, build)
        return

    cycles: list[Cycle] = []
    setups, peak, spent = [], 0.0, 0.0
    while True:
        with ExitStack() as stack:
            server, path, _, setup_s = setup_server(run, stack, mix, f"cycle{len(cycles)}", warm, **build)
            cycle = mutable_cycle(server.port, ops, mix)
        shutil.rmtree(path, ignore_errors=True)
        account_cycle(run, mix, cycle)
        cycles.append(cycle)
        setups.append(setup_s)
        peak = max(peak, server.peak_rss_mib)
        spent += cycle.result.wall_s
        run.save(f"cycle{len(cycles) - 1}.records.npy", cycle.result.records)
        # A faster server runs more cycles, never a longer sequence: rows,
        # seals and tombstones per cycle are the same on every commit.
        if spent + 0.5 * spent / len(cycles) >= run.seconds:
            break
    records = np.concatenate([c.result.records for c in cycles])
    ok = records[records["status"] == 200]
    m = run.metrics
    for slot, kind in MUTABLE_SLOTS:
        lat = ok["latency"][ok["kind"] == kind]
        m[f"{slot}_p50_ms"] = load.percentile_ms(lat, 50)
        run.phase_row(kind, cycles=len(cycles), sent=int((records["kind"] == kind).sum()), ok=int(lat.size),
                      p50_ms=load.percentile_ms(lat, 50), p95_ms=load.percentile_ms(lat, 95))
    m["op1_p95_ms"] = load.percentile_ms(ok["latency"][ok["kind"] == "range"], 95)
    m["throughput_ops"] = ok.size / spent
    m["setup_s"] = statistics.median(setups)
    m["peak_rss_mib"] = peak


def _mutable_traced(run: Run, mix: Mixture, ops, warm, build) -> None:
    import repro

    m = run.metrics
    with ExitStack() as stack:
        server, path, build_s, _ = setup_server(run, stack, mix, "untraced", warm, **build)
        m["index.build_s"] = build_s
        before = load.scrape(server.port)
        cycle = mutable_cycle(server.port, ops, mix)
        after = load.scrape(server.port)
    shutil.rmtree(path, ignore_errors=True)
    account_cycle(run, mix, cycle)
    untraced_rps = cycle.result.ok().size / cycle.result.wall_s
    record_server_deltas(run, before, after, cycle.result)
    run.phase_row("ops.untraced", sent=int(cycle.result.records.size), ok=int(cycle.result.ok().size), throughput=untraced_rps)

    log = run.workdir / "trace.jsonl"
    with ExitStack() as stack:
        server, path, _, _ = setup_server(run, stack, mix, "traced", warm, extra=("--trace-sample", "1.0", "--trace-log", str(log)), **build)
        cycle = mutable_cycle(server.port, ops, mix)
        traced_text = load.scrape(server.port)
    shutil.rmtree(path, ignore_errors=True)
    account_cycle(run, mix, cycle)
    traced_rps = cycle.result.ok().size / cycle.result.wall_s
    trace_metrics(run, log, traced_text, untraced_rps, traced_rps)
    run.phase_row("ops.traced", sent=int(cycle.result.records.size), ok=int(cycle.result.ok().size), throughput=traced_rps)

    # The same op sequence against the store in this process.
    path = run.workdir / "index-inprocess"
    repro.build_index(mix.data, mix.eps, path, **build)
    t0 = time.perf_counter()
    store = repro.open_index(path, cache=False)
    m["index.open_s"] = time.perf_counter() - t0
    rec = run.recorder
    probes = mix.queries(run.rng(5), 20, run.shape["batch"], None)
    store.range_query(probes[0])
    for q in probes:
        with rec.span("delta.range.depth0"):
            store.range_query(q)
    own: list[int] = []
    for op in ops:
        if op[0] == "range":
            with rec.span("delta.range"):
                store.range_query(op[1])
        elif op[0] == "append":
            with rec.span("delta.append"):
                ids = store.append(op[1])
            own.extend(int(i) for i in ids)
        else:
            ids = ids_to_delete(op, own)
            with rec.span("delta.delete"):
                store.delete(ids)
    for q in probes:
        with rec.span("delta.range.end"):
            store.range_query(q)
    m["index.delta_append_ms"] = median_ms(rec.durations("delta.append"))
    m["index.delta_delete_ms"] = median_ms(rec.durations("delta.delete"))
    m["index.delta_range_ms_depth0"] = median_ms(rec.durations("delta.range.depth0"))
    m["index.delta_range_ms_end"] = median_ms(rec.durations("delta.range.end"))
    m["index.delta_depth_end"] = store.delta_depth
    disk = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
    m["index.delta_bytes_per_live_byte"] = ratio(disk, store.n_points * run.shape["d"] * 8)
    with rec.span("delta.compact"):
        store.compact()
    m["index.delta_compact_s"] = rec.median_s("delta.compact")


RUNNERS = {
    "join_batch": run_join_batch,
    "serve_hot": run_serve,
    "serve_wide": run_serve,
    "serve_mutable": run_serve_mutable,
}
