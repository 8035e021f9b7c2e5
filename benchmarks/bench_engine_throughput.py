"""Join-engine throughput benchmark: the perf trajectory for future PRs.

Measures, at the standard working point (n=4096):

* ``rz_sum_squares`` at d=256 -- current implementation vs the seed
  (nextafter-per-chunk) implementation, with a bit-identity check.
* TED-Join-Brute self-join at d=64 -- engine (symmetric tiles) vs the seed
  full-matrix loop, with a bit-identity check.
* Pairs/sec of every kernel's self-join at d=64, with each kernel's
  working precision and its overlap accuracy (paper Eq. 3) against the
  FP64 ground truth.
* Stage seconds of the FaSTED self-join (``gemm`` / ``rz`` / ``commit``
  from ``trace.use_hooks``): the GEMM's share of a join, with a
  bit-identity check that arming the hooks changes nothing.
* The tile executor over a source-backed (mmap) operand vs a resident one
  at the same tile plan (bit-identity + peak-resident-vs-budget check).
* The candidate executor's batched mode vs per-group GEMMs on the
  fine-grid workload (``fine_grid_dataset``, small eps -> thousands of
  tiny cells).
* The two-source (A x B) tile join, both operands mmap-backed, vs the
  resident one at the same rectangular tile plan (bit-identity + budget).
* The source-backed index join (``GridIndex.from_source`` build + row
  gathers) vs the in-memory grid-indexed self-join (bit-identity).
* The cache-fit default tile edge (``row_block=None``) vs each brute
  kernel's former fixed edge, with a bit-identity check.
* The query-serving layer: cached persisted-index range queries
  (``repro.service``) vs rebuild-per-query, with the cached answers
  checked bitwise against the dense brute-force reference.
* The mutable store (``repro.index.delta``): range-query latency as the
  delta depth grows from 0 to 16 sealed segments, compaction throughput,
  and a bit-identity pin against a from-scratch rebuild at full depth
  and after compaction; kNN latency as base tombstones grow from 0 to
  4096, pinned bitwise against a rebuild.

Writes ``BENCH_engine.json`` at the repository root (see
docs/BENCHMARKS.md for the workflow: extend this file, never replace it).
Run standalone:

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
"""

from __future__ import annotations

import json
import platform
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import trace
from repro.core.accuracy import overlap_accuracy
from repro.core.engine import TILE_CACHE_BUDGET_BYTES, TilePlan
from repro.core.selectivity import epsilon_for_selectivity
from repro.data.source import MmapNpySource, write_chunked_npy
from repro.data.synthetic import fine_grid_dataset
from repro.fp import native
from repro.fp.fp16 import to_fp16
from repro.fp.rounding import round_toward_zero_f32_reference, rz_sum_squares
from repro.kernels.fasted import FastedKernel
from repro.kernels.gdsjoin import GdsJoinKernel
from repro.kernels.mistic import MisticKernel
from repro.kernels.reference import (
    canon,
    joins_bit_identical,
    seed_ted_brute_join,
)
from repro.kernels.tedjoin import TedJoinKernel

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

N_POINTS = 4096
RZ_DIMS = 256
JOIN_DIMS = 64
SELECTIVITY = 64

#: Streaming benchmark: resident-block budget (well under the dataset).
STREAM_BUDGET_BYTES = 1 << 20

#: Batched-executor benchmark: small-eps selectivity target.
BATCHED_SELECTIVITY = 8


# ----------------------------------------------------------------------
# Seed implementations (pre-engine), kept verbatim as the baseline
# ----------------------------------------------------------------------


def seed_rz_sum_squares(points: np.ndarray, step: int = 4) -> np.ndarray:
    q = to_fp16(points).astype(np.float32).astype(np.float64)
    v = q * q
    acc = np.zeros(v.shape[:-1], dtype=np.float32)
    for start in range(0, v.shape[-1], step):
        chunk = v[..., start : start + step].sum(axis=-1)
        acc = round_toward_zero_f32_reference(acc.astype(np.float64) + chunk)
    return acc


# ----------------------------------------------------------------------


def median_seconds(fn, *, reps: int = 5, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def interleaved_medians(fn_a, fn_b, *, reps: int = 7) -> tuple[float, float]:
    """Median seconds of two competitors measured alternately.

    Interleaving keeps slow drift of the host (shared VM, thermal state)
    from landing entirely on one side of an A/B comparison.
    """
    fn_a()
    fn_b()
    times_a, times_b = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn_a()
        times_a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        times_b.append(time.perf_counter() - t0)
    return statistics.median(times_a), statistics.median(times_b)


def bench_rz(rng: np.random.Generator) -> dict:
    pts = rng.normal(size=(N_POINTS, RZ_DIMS))
    new = rz_sum_squares(pts)
    seed = seed_rz_sum_squares(pts)
    identical = bool(
        np.array_equal(new.view(np.uint32), seed.view(np.uint32))
    )
    t_seed = median_seconds(lambda: seed_rz_sum_squares(pts))
    t_new = median_seconds(lambda: rz_sum_squares(pts), reps=9)
    return {
        "n": N_POINTS,
        "d": RZ_DIMS,
        "seed_seconds": t_seed,
        "engine_seconds": t_new,
        "speedup": t_seed / t_new,
        "bit_identical": identical,
        "native_kernel": native.available(),
    }


def bench_ted_brute(data: np.ndarray, eps: float) -> dict:
    kern = TedJoinKernel(variant="brute")
    new = kern.self_join(data, eps).result
    seed = seed_ted_brute_join(data, eps)
    identical = joins_bit_identical(new, seed)
    t_seed = median_seconds(lambda: seed_ted_brute_join(data, eps), reps=5)
    t_new = median_seconds(lambda: kern.self_join(data, eps), reps=5)
    return {
        "n": N_POINTS,
        "d": JOIN_DIMS,
        "seed_seconds": t_seed,
        "engine_seconds": t_new,
        "speedup": t_seed / t_new,
        "bit_identical": identical,
        "result_pairs": int(new.pairs_i.size),
    }


def bench_kernels(data: np.ndarray, eps: float) -> dict:
    """Pairs/sec per kernel, with its precision and accuracy on record.

    Result sizes may differ between kernels by a few FP32/FP16 boundary
    pairs (a pair whose true distance sits within rounding of ``eps``);
    ``overlap_vs_fp64`` -- the paper's Eq. 3 overlap accuracy against
    GDS-Join in FP64 mode, the paper's ground truth -- says how few.
    """
    runs = {
        "fasted": ("fp16-32", lambda: FastedKernel().self_join(data, eps)),
        "ted-join-brute": (
            "fp64",
            lambda: TedJoinKernel(variant="brute").self_join(data, eps).result,
        ),
        "ted-join-index": (
            "fp64",
            lambda: TedJoinKernel(variant="index").self_join(data, eps).result,
        ),
        "gds-join": ("fp32", lambda: GdsJoinKernel().self_join(data, eps).result),
        "mistic": ("fp32", lambda: MisticKernel().self_join(data, eps).result),
    }
    truth = GdsJoinKernel(precision="fp64").self_join(data, eps).result
    out = {}
    for name, (precision, fn) in runs.items():
        res = fn()
        pairs = int(res.pairs_i.size)
        seconds = median_seconds(fn, reps=3)
        out[name] = {
            "seconds": seconds,
            "result_pairs": pairs,
            "pairs_per_sec": pairs / seconds if seconds else float("inf"),
            "precision": precision,
            "overlap_vs_fp64": overlap_accuracy(res, truth),
        }
    return out


#: The second ``stage_seconds`` shape: ``join_batch`` op1 of the e2e
#: benchmark, where prose quotes the GEMM-vs-epilogue split.
JOIN_BATCH_SHAPE = (16384, 128)


def _stage_split(data: np.ndarray, eps: float) -> dict:
    kern = FastedKernel()
    plain = kern.self_join(data, eps)
    reps: dict[str, list[float]] = {"gemm": [], "rz": [], "commit": []}
    for _ in range(5):
        hooks = trace.TraceHooks()
        with trace.use_hooks(hooks):
            armed = kern.self_join(data, eps)
        for stage, seconds in reps.items():
            seconds.append(hooks.stages[stage])
    stages = {stage: statistics.median(seconds) for stage, seconds in reps.items()}
    return {
        "n": data.shape[0],
        "d": data.shape[1],
        "row_block": kern.auto_row_block(*data.shape),
        "join_seconds": median_seconds(lambda: kern.self_join(data, eps)),
        **stages,
        "epilogue_over_gemm": (stages["rz"] + stages["commit"]) / stages["gemm"],
        "bit_identical": bool(
            np.array_equal(plain.pairs_i, armed.pairs_i)
            and np.array_equal(plain.pairs_j, armed.pairs_j)
            and plain.sq_dists.tobytes() == armed.sq_dists.tobytes()
        ),
        "result_pairs": int(plain.pairs_i.size),
    }


def bench_stage_seconds(data: np.ndarray, eps: float) -> dict:
    """Where a FaSTED self-join's seconds go: GEMM vs the Step-3 epilogue.

    ``gemm`` is the tile products, ``rz`` the epilogue's recombination +
    compare + compaction (the fused C pass when ``native_epilogue``, else
    the NumPy strips), ``commit`` its copy-out and the accumulator appends
    -- read from ``trace.use_hooks`` over the serial tile loop, median of
    the reps per stage.  ``epilogue_over_gemm`` is the number the fused
    epilogue exists to keep well under 1; ``bit_identical`` pins that an
    armed run returns the same arrays, in the same order, as an unarmed
    one.  Taken at the script's shape and, under ``join_batch_shape``, at
    :data:`JOIN_BATCH_SHAPE` (same generator and target selectivity).
    """
    big = np.random.default_rng(0).normal(size=JOIN_BATCH_SHAPE)
    return {
        "kernel": "fasted",
        "native_epilogue": native.available(),
        **_stage_split(data, eps),
        "join_batch_shape": _stage_split(
            big, float(epsilon_for_selectivity(big, SELECTIVITY))
        ),
    }


def bench_streaming(data: np.ndarray, eps: float) -> dict:
    """Out-of-core executor vs in-memory engine at the same tile plan.

    FaSTED numerics; the dataset is served from a memory-mapped ``.npy``
    and the tile plan derived from ``STREAM_BUDGET_BYTES`` (a fraction of
    the dataset), so the streamed peak-resident check is meaningful.  The
    in-memory run uses the same ``row_block`` -- the configuration where
    streaming is bit-identical (FP32 GEMMs reassociate across different
    tile shapes; see docs/ARCHITECTURE.md).
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    plan = TilePlan.from_budget(
        data.shape[0], data.shape[0], data.shape[1], STREAM_BUDGET_BYTES,
        symmetric=True,
    )
    kern = FastedKernel()
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "bench_stream.npy"
        np.save(path, data)
        source = MmapNpySource(path)
        mem = kern.self_join(data, eps, row_block=plan.row_block)
        streamed = kern.self_join(
            source, eps, memory_budget_bytes=STREAM_BUDGET_BYTES
        )
        stats = streamed.stream_stats
        identical = joins_bit_identical(mem, streamed)
        t_mem, t_stream = interleaved_medians(
            lambda: kern.self_join(data, eps, row_block=plan.row_block),
            lambda: kern.self_join(
                source, eps, memory_budget_bytes=STREAM_BUDGET_BYTES
            ),
        )
    return {
        "n": data.shape[0],
        "d": data.shape[1],
        "kernel": "fasted",
        "memory_budget_bytes": STREAM_BUDGET_BYTES,
        "dataset_bytes": int(data.nbytes),
        "row_block": plan.row_block,
        "blocks_loaded": stats.blocks_loaded,
        "peak_resident_bytes": stats.peak_resident_bytes,
        "within_budget": bool(stats.peak_resident_bytes <= STREAM_BUDGET_BYTES),
        "in_memory_seconds": t_mem,
        "streaming_seconds": t_stream,
        "streaming_overhead": t_stream / t_mem,
        "bit_identical": identical,
        "result_pairs": int(streamed.pairs_i.size),
    }


def bench_two_source(rng: np.random.Generator, eps: float) -> dict:
    """Two-source tile join: mmap-backed operands vs resident, same plan.

    FaSTED numerics; both datasets are served from memory-mapped ``.npy``
    files and the rectangular tile plan is derived from
    ``STREAM_BUDGET_BYTES`` (a fraction of either dataset), so the
    peak-resident check covers both sources.  The in-memory run uses the
    same block edges -- the configuration where streaming is bit-identical
    (same FP32 GEMM tile shapes; see docs/ARCHITECTURE.md).
    """
    a = rng.normal(size=(N_POINTS, JOIN_DIMS))
    b = rng.normal(size=(N_POINTS, JOIN_DIMS))
    plan = TilePlan.from_budget(
        a.shape[0], b.shape[0], JOIN_DIMS, STREAM_BUDGET_BYTES
    )
    kern = FastedKernel()
    with tempfile.TemporaryDirectory() as td:
        path_a, path_b = Path(td) / "a.npy", Path(td) / "b.npy"
        np.save(path_a, a)
        np.save(path_b, b)
        src_a, src_b = MmapNpySource(path_a), MmapNpySource(path_b)
        mem = kern.join(a, b, eps, row_block=plan.row_block, col_block=plan.col_block)
        streamed = kern.join(
            src_a, src_b, eps, memory_budget_bytes=STREAM_BUDGET_BYTES
        )
        stats = streamed.stream_stats
        identical = joins_bit_identical(mem, streamed)
        t_mem, t_stream = interleaved_medians(
            lambda: kern.join(
                a, b, eps, row_block=plan.row_block, col_block=plan.col_block
            ),
            lambda: kern.join(
                src_a, src_b, eps, memory_budget_bytes=STREAM_BUDGET_BYTES
            ),
        )
    return {
        "n_a": a.shape[0],
        "n_b": b.shape[0],
        "d": JOIN_DIMS,
        "kernel": "fasted",
        "memory_budget_bytes": STREAM_BUDGET_BYTES,
        "dataset_bytes": int(a.nbytes + b.nbytes),
        "row_block": plan.row_block,
        "col_block": plan.col_block,
        "blocks_loaded": stats.blocks_loaded,
        "peak_resident_bytes": stats.peak_resident_bytes,
        "within_budget": bool(stats.peak_resident_bytes <= STREAM_BUDGET_BYTES),
        "in_memory_seconds": t_mem,
        "streaming_seconds": t_stream,
        "streaming_overhead": t_stream / t_mem,
        "bit_identical": identical,
        "result_pairs": int(streamed.pairs_i.size),
    }


def bench_streaming_index(data: np.ndarray, eps: float) -> dict:
    """Source-backed index join vs the in-memory grid-indexed self-join.

    GDS-Join builds its grid out of core (``GridIndex.from_source``:
    streamed cell-key encoding + external counting sort over the chunked
    source) and gathers candidate rows on demand, against the ordinary
    in-memory ``self_join`` -- bit-identical by construction; the overhead
    is the price of the streamed build passes and per-group gathers.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    kern = GdsJoinKernel()
    row_block = 1024
    # The budget whose plan builds the grid in passes of row_block rows.
    budget = TilePlan.RESIDENT_BLOCKS * row_block * (data.shape[1] + 1) * 8
    with tempfile.TemporaryDirectory() as td:
        source = write_chunked_npy(Path(td) / "chunks", data, rows_per_chunk=512)
        mem = kern.self_join(data, eps).result
        streamed = kern.self_join(source, eps, memory_budget_bytes=budget)
        stats = streamed.result.stream_stats
        identical = joins_bit_identical(mem, streamed.result)
        t_mem, t_stream = interleaved_medians(
            lambda: kern.self_join(data, eps),
            lambda: kern.self_join(source, eps, memory_budget_bytes=budget),
            reps=3,
        )
    return {
        "n": data.shape[0],
        "d": data.shape[1],
        "kernel": "gds-join",
        "row_block": stats.plan.row_block,
        "build_blocks_loaded": stats.blocks_loaded,
        "peak_resident_bytes": stats.peak_resident_bytes,
        "in_memory_seconds": t_mem,
        "streaming_seconds": t_stream,
        "streaming_overhead": t_stream / t_mem,
        "bit_identical": identical,
        "result_pairs": int(streamed.result.pairs_i.size),
    }


def bench_candidate_batched() -> dict:
    """Batched vs per-group candidate executor at small eps.

    Runs the index-backed kernels on ``fine_grid_dataset`` -- anisotropic
    micro-clusters whose variance-ordered grid prefix shatters into
    thousands of tiny cells at small eps, the regime where per-group
    GEMMs degenerate to call overhead.
    """
    data = fine_grid_dataset(N_POINTS, JOIN_DIMS, seed=0)
    eps = float(epsilon_for_selectivity(data, BATCHED_SELECTIVITY))
    out: dict = {
        "n": N_POINTS,
        "d": JOIN_DIMS,
        "eps": eps,
        "target_selectivity": BATCHED_SELECTIVITY,
        "kernels": {},
    }
    runs = {
        "gds-join": lambda batched: GdsJoinKernel()
        .self_join(data, eps, batched=batched)
        .result,
        "ted-join-index": lambda batched: TedJoinKernel(variant="index")
        .self_join(data, eps, batched=batched)
        .result,
    }
    for name, fn in runs.items():
        plain = fn(False)
        batched = fn(True)
        ap, bp = canon(plain), canon(batched)
        pair_equal = bool(
            np.array_equal(ap[0], bp[0]) and np.array_equal(ap[1], bp[1])
        )
        t_plain, t_batched = interleaved_medians(
            lambda: fn(False), lambda: fn(True)
        )
        out["kernels"][name] = {
            "unbatched_seconds": t_plain,
            "batched_seconds": t_batched,
            "speedup": t_plain / t_batched,
            "pair_set_equal": pair_equal,
            "result_pairs": int(plain.pairs_i.size),
        }
    return out


def bench_tile_edge(data: np.ndarray, eps: float) -> dict:
    """Cache-fit default tile edge vs each brute kernel's old fixed edge.

    The host analogue of FaSTED's hierarchical data reuse: a kernel whose
    caller leaves ``row_block=None`` runs tiles of the edge
    :func:`repro.core.engine.tile_rows` fits into
    ``TILE_CACHE_BUDGET_BYTES`` (distance block + two operand panels), in
    place of the fixed edges the kernels used before (FaSTED 2048,
    TED-Join-Brute 1024).  Both sides run the same serial tile loop, so
    the entry isolates what the edge buys.  ``bit_identical`` must hold:
    the edge never changes the pair set, and on the seed datasets the
    distance bits are equal too (tests/test_workers.py pins the edges).
    """
    n, d = data.shape
    ted = TedJoinKernel(variant="brute")
    runs = {
        "fasted": (
            2048,
            FastedKernel().auto_row_block(n, d),
            lambda rb: FastedKernel().self_join(data, eps, row_block=rb),
        ),
        "ted-join-brute": (
            1024,
            ted.auto_row_block(n, d),
            lambda rb: ted.self_join(data, eps, row_block=rb).result,
        ),
    }
    out: dict = {
        "n": n,
        "d": d,
        "tile_cache_budget_bytes": TILE_CACHE_BUDGET_BYTES,
        "kernels": {},
    }
    for name, (fixed_rb, fit_rb, run) in runs.items():
        fixed_res, fit_res = run(fixed_rb), run(None)
        pairs = int(fixed_res.pairs_i.size)
        t_fixed, t_fit = interleaved_medians(
            lambda: run(fixed_rb), lambda: run(None), reps=5
        )
        out["kernels"][name] = {
            "fixed_seconds": t_fixed,
            "cache_fit_seconds": t_fit,
            "speedup": t_fixed / t_fit,
            "fixed_pairs_per_sec": pairs / t_fixed,
            "cache_fit_pairs_per_sec": pairs / t_fit,
            "fixed_row_block": fixed_rb,
            "cache_fit_row_block": fit_rb,
            "bit_identical": joins_bit_identical(fixed_res, fit_res),
            "result_pairs": pairs,
        }
    return out


def bench_query_service() -> dict:
    """Cached-index serving vs rebuild-per-request (the serving-layer win).

    Serving workload: clustered data (the regime grid indexes prune --
    ``synth_dataset(clustered=True)``), one small request (8 query
    points drawn near the data) answered over and over.  The **cold**
    side is what every pre-serving invocation pays per request: read the
    dataset from disk, rebuild the grid, set up the engine, answer.  The
    **cached** side persists the index once (``repro.index.persist``)
    and serves every request from the warm
    :class:`~repro.service.IndexCache` engine, which reads the
    cell-ordered rows and stored norms in place.  Both sides run the
    identical FP64 engine path, and ``bit_identical`` pins the cached,
    loaded-from-disk answers against the dense brute-force reference.
    """
    from repro.data.synthetic import synth_dataset
    from repro.index.grid import GridIndex
    from repro.index.persist import read_header, save_index
    from repro.service import (
        IndexCache,
        QueryEngine,
        brute_range_query,
        sample_queries,
    )

    data = synth_dataset(N_POINTS, JOIN_DIMS, seed=0, clustered=True)
    eps = float(epsilon_for_selectivity(data, SELECTIVITY))
    nq = 8
    queries = sample_queries(data, eps, nq, seed=7)

    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "index"
        save_index(GridIndex(data, eps), path, data=data)
        data_npy = path / read_header(path)["data"]  # generation-tagged

        def rebuild_and_query():
            resident = np.load(data_npy)
            return QueryEngine(GridIndex(resident, eps), resident).range_query(
                queries
            )

        # Serve at the fault-tolerance default: payload integrity is
        # stat-verified on every cache miss (verify="header").
        cache = IndexCache(verify="header")
        cache.get(path)  # the one-time load the serving layer amortizes

        def cached_query():
            return cache.get(path).range_query(queries)

        res = cached_query()
        identical = joins_bit_identical(res, brute_range_query(data, queries, eps))
        t_rebuild, t_cached = interleaved_medians(
            rebuild_and_query, cached_query
        )
        cache_stats = cache.stats()
    return {
        "n": data.shape[0],
        "d": data.shape[1],
        "eps": eps,
        "target_selectivity": SELECTIVITY,
        "queries_per_request": nq,
        "rebuild_seconds": t_rebuild,
        "cached_seconds": t_cached,
        "speedup": t_rebuild / t_cached,
        "queries_per_sec_cold": nq / t_rebuild,
        "queries_per_sec_cached": nq / t_cached,
        "bit_identical": identical,
        "result_pairs": int(res.pairs_i.size),
        "verify": "header",
        "cache": cache_stats,
    }


def bench_cell_order() -> dict:
    """Serving reads on a cell-ordered (v3) index against original order.

    One persisted index over a tight Gaussian mixture (the serving
    regime: a query's candidates are its cluster's cells), answered by a
    32-query ``range_query`` from the v3 directory -- rows stored in cell
    order with FP64 norms, so candidate sets are contiguous runs read in
    place -- and by an engine over the same grid and a memory-mapped
    ``.npy`` of the rows in original order -- candidates gathered and
    normed row by row per request.  ``bit_identical`` pins the v3
    answers, pairs in order and distance bits, against the
    original-order ones; ``pair_set_equal`` pins their pair sets against
    the dense brute-force reference (whose one large GEMM may round a
    d=128 dot product differently from the per-group GEMMs in the last
    bit).
    """
    from repro.core.api import build_index
    from repro.index.grid import GridIndex
    from repro.service import QueryEngine, brute_range_query

    n, d, clusters, nq = 32768, 128, 256, 32
    rng = np.random.default_rng(40)
    centres = rng.uniform(0.0, 40.0, size=(clusters, d))
    data = centres[rng.integers(0, clusters, n)] + rng.normal(0.0, 0.15, (n, d))
    eps = float(epsilon_for_selectivity(data, 32))
    requests = [
        centres[rng.integers(0, clusters, nq)] + rng.normal(0.0, 0.15, (nq, d))
        for _ in range(16)
    ]
    with tempfile.TemporaryDirectory() as td:
        v3 = QueryEngine(build_index(data, eps, Path(td) / "v3"))
        np.save(Path(td) / "rows.npy", data)
        original = QueryEngine(GridIndex(data, eps), Path(td) / "rows.npy")

        def serve(engine):
            return lambda: [engine.range_query(q) for q in requests]

        identical = pair_sets = True
        for q in requests:
            a, b = v3.range_query(q), original.range_query(q)
            identical = identical and bool(
                np.array_equal(a.pairs_i, b.pairs_i)
                and np.array_equal(a.pairs_j, b.pairs_j)
                and np.array_equal(
                    a.sq_dists.view(np.uint32), b.sq_dists.view(np.uint32)
                )
            )
            want = canon(brute_range_query(data, q, eps))
            pair_sets = pair_sets and all(
                np.array_equal(x, y) for x, y in zip(canon(a)[:2], want[:2])
            )
        t_orig, t_v3 = interleaved_medians(serve(original), serve(v3))
        runs = [
            1 + int((np.diff(c) != 1).sum())
            for q in requests
            for _, c in v3.index.iter_join_groups(q)
        ]
    return {
        "n": n,
        "d": d,
        "clusters": clusters,
        "eps": eps,
        "queries_per_request": nq,
        "original_order_seconds_per_request": t_orig / len(requests),
        "v3_seconds_per_request": t_v3 / len(requests),
        "speedup": t_orig / t_v3,
        "v3_runs_per_candidate_set": float(np.mean(runs)),
        "v3_one_run_share": float(np.mean(np.array(runs) == 1)),
        "bit_identical": identical,
        "pair_set_equal": pair_sets,
    }


def bench_mutable() -> dict:
    """Query latency vs delta depth, and compaction throughput.

    A mutable store answers every query from its base engine plus one
    brute GEMM over the delta block (every sealed-segment and buffer
    row), so depth costs only the block's extra rows.  The entry charts
    range-query latency at delta depth 0/1/4/16 (segments of
    ``seg_rows`` appended rows, sealed manually so depth is exact), then
    folds all 16 segments into a new base generation and records the
    compaction's row throughput plus the post-compaction latency (which
    stays within 2x of depth 0).  ``bit_identical`` pins the depth-16 *and*
    post-compaction answers against a :class:`~repro.service.QueryEngine`
    rebuilt from scratch over the live rows -- the differential contract
    tests/test_mutable.py enforces op-by-op.

    ``large_segment`` then bulk-appends twice the initial rows as one
    sealed segment -- past ``BLOCK_SEGMENT_ROWS``, so it is read through
    its own grid engine rather than the block -- with its latency and its
    own bitwise pin.  ``segment_read_crossover`` times one segment of
    ``n`` such rows both ways a store can read it: the block's
    ``tile_join`` of the queries against the resident rows, and a grid
    engine over them (interleaved medians).
    """
    from repro.core.engine import GROUP_CHUNK_ELEMS, ResidentOperand, tile_join
    from repro.data.synthetic import synth_dataset
    from repro.index.delta import BLOCK_SEGMENT_ROWS, MutableIndex
    from repro.index.grid import GridIndex
    from repro.service import QueryEngine, sample_queries

    n0, d, seg_rows = N_POINTS, JOIN_DIMS, 128
    data = synth_dataset(n0, d, seed=0, clustered=True)
    eps = float(epsilon_for_selectivity(data, SELECTIVITY))
    nq = 8
    queries = sample_queries(data, eps, nq, seed=7)
    rng = np.random.default_rng(1)
    measure_at = {0, 1, 4, 16}
    out: dict = {
        "n_base": n0,
        "d": d,
        "eps": eps,
        "target_selectivity": SELECTIVITY,
        "segment_rows": seg_rows,
        "queries_per_request": nq,
        "latency_by_depth": {},
    }
    appended: list = []
    with tempfile.TemporaryDirectory() as td:
        root = Path(td) / "mut"
        # Seal manually so the delta depth is exactly the loop count.
        MutableIndex.create(root, data, eps, seal_threshold=1 << 30)
        mut = MutableIndex(root)
        for depth in range(17):
            if depth in measure_at:
                t_range = median_seconds(
                    lambda: mut.range_query(queries), reps=5
                )
                out["latency_by_depth"][str(depth)] = {
                    "n_live": int(mut.n_points),
                    "range_seconds": t_range,
                }
            if depth < 16:
                rows = data[rng.integers(0, n0, seg_rows)] + rng.uniform(
                    -eps / 4, eps / 4, (seg_rows, d)
                )
                appended.append(rows)
                mut.append(rows)
                mut.seal()
        by_depth = out["latency_by_depth"]
        out["overhead_depth16_vs_0"] = (
            by_depth["16"]["range_seconds"] / by_depth["0"]["range_seconds"]
        )

        # Differential pin at full depth: no deletes, so global ids are
        # the rebuilt row positions and the answers must match bitwise.
        live_rows = np.concatenate([data] + appended)
        ref = QueryEngine(GridIndex(live_rows, eps), live_rows)
        want = ref.range_query(queries)
        # The mutable store canonicalizes to ascending (query, id); sort
        # the rebuilt engine's per-query candidate order the same way.
        order = np.lexsort((want.pairs_j, want.pairs_i))

        def _bits(a: np.ndarray) -> np.ndarray:
            return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)

        def _matches(res) -> bool:
            return bool(
                np.array_equal(res.pairs_i, want.pairs_i[order])
                and np.array_equal(res.pairs_j, want.pairs_j[order])
                and np.array_equal(
                    _bits(res.sq_dists), _bits(want.sq_dists[order])
                )
            )

        got = mut.range_query(queries)
        identical = _matches(got)

        stats = mut.compact()
        out["compaction"] = {
            "segments_folded": stats["segments_folded"],
            "n_live": stats["n_live"],
            "duration_s": stats["duration_s"],
            "rows_per_sec": stats["n_live"] / stats["duration_s"],
        }
        out["post_compact_range_seconds"] = median_seconds(
            lambda: mut.range_query(queries), reps=5
        )
        identical = identical and _matches(mut.range_query(queries))
        out["bit_identical"] = identical
        out["result_pairs"] = int(got.pairs_i.size)

        n_bulk = 2 * n0
        bulk = data[rng.integers(0, n0, n_bulk)] + rng.uniform(
            -eps / 4, eps / 4, (n_bulk, d)
        )
        mut.append(bulk)
        mut.seal()
        live_rows = np.concatenate([live_rows, bulk])
        ref = QueryEngine(GridIndex(live_rows, eps), live_rows)
        want = ref.range_query(queries)
        order = np.lexsort((want.pairs_j, want.pairs_i))
        out["large_segment"] = {
            "rows": n_bulk,
            "delta_rows": int(mut.delta_rows),
            "range_seconds": median_seconds(
                lambda: mut.range_query(queries), reps=5
            ),
            "bit_identical": _matches(mut.range_query(queries)),
        }

    crossover: dict = {}
    wq, sq = queries, (queries * queries).sum(axis=1)
    for n in (1024, 4096, 16384, 65536):
        rows = data[rng.integers(0, n0, n)] + rng.uniform(
            -eps / 4, eps / 4, (n, d)
        )
        norms = (rows * rows).sum(axis=1)
        engine = QueryEngine(GridIndex(rows, eps), rows)

        def block_read():
            acc, _ = tile_join(
                ResidentOperand(wq, sq), eps**2, ResidentOperand(rows, norms),
                row_block=nq, col_block=GROUP_CHUNK_ELEMS // nq,
            )
            return acc.arrays()

        t_block, t_engine = interleaved_medians(
            block_read, lambda: engine.range_query(queries), reps=9
        )
        crossover[str(n)] = {
            "block_seconds": t_block,
            "engine_seconds": t_engine,
        }
    out["segment_read_crossover"] = {
        "block_segment_rows": BLOCK_SEGMENT_ROWS,
        "by_rows": crossover,
    }
    out.update(_knn_by_tombstones(rng))
    return out


def _knn_by_tombstones(rng: np.random.Generator) -> dict:
    """kNN (k=5, 8 queries) on a 16384-row store as random base rows are
    deleted: 0, 512, then 4096 tombstones.  A tombstone costs a read its
    ``isin`` mask only, so ``knn_overhead_tombstones_vs_0`` (the slower
    of the two tombstoned reads over the clean one) stays near 1;
    ``knn_bit_identical`` pins every answer -- indices and distance bits
    -- against an engine rebuilt over the live rows."""
    from repro.data.synthetic import synth_dataset
    from repro.index.delta import MutableIndex
    from repro.index.grid import GridIndex
    from repro.service import QueryEngine, sample_queries

    n, k = 4 * N_POINTS, 5
    data = synth_dataset(n, JOIN_DIMS, seed=0, clustered=True)
    eps = float(epsilon_for_selectivity(data, SELECTIVITY))
    queries = sample_queries(data, eps, 8, seed=7)
    doomed = rng.permutation(n)
    seconds: dict = {}
    identical = True
    with tempfile.TemporaryDirectory() as td:
        mut = MutableIndex.create(Path(td) / "mut", data, eps)
        for n_dead in (0, 512, 4096):
            if n_dead:
                mut.delete(doomed[mut.n_tombstones : n_dead])
            seconds[str(n_dead)] = median_seconds(
                lambda: mut.knn_query(queries, k), reps=7
            )
            live = mut.live_ids()
            ref = QueryEngine(GridIndex(data[live], eps), data[live])
            got, want = mut.knn_query(queries, k), ref.knn_query(queries, k)
            identical = identical and bool(
                np.array_equal(got.indices, live[want.indices])
                and np.array_equal(
                    got.sq_dists.view(np.uint32), want.sq_dists.view(np.uint32)
                )
            )
    return {
        "knn_store_rows": n,
        "knn_seconds_by_tombstones": seconds,
        "knn_overhead_tombstones_vs_0": (
            max(seconds["512"], seconds["4096"]) / seconds["0"]
        ),
        "knn_bit_identical": identical,
    }


def main() -> dict:
    rng = np.random.default_rng(0)
    data = rng.normal(size=(N_POINTS, JOIN_DIMS))
    eps = float(epsilon_for_selectivity(data, SELECTIVITY))
    report = {
        "config": {
            "n": N_POINTS,
            "join_d": JOIN_DIMS,
            "rz_d": RZ_DIMS,
            "eps": eps,
            "target_selectivity": SELECTIVITY,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "native_rz_kernel": native.available(),
        },
        "rz_sum_squares": bench_rz(rng),
        "ted_join_brute": bench_ted_brute(data, eps),
        "kernel_pairs_per_sec": bench_kernels(data, eps),
        "stage_seconds": bench_stage_seconds(data, eps),
        "streaming": bench_streaming(data, eps),
        "candidate_batched": bench_candidate_batched(),
        "two_source": bench_two_source(rng, eps),
        "streaming_index": bench_streaming_index(data, eps),
        "tile_edge": bench_tile_edge(data, eps),
        "query_service": bench_query_service(),
        "mutable": bench_mutable(),
        "cell_order": bench_cell_order(),
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {OUT_PATH}")
    return report


#: Correctness bits of the report: every one must be ``True``.
CORRECTNESS_FIELDS = (
    "bit_identical", "knn_bit_identical", "within_budget", "pair_set_equal",
)


def failed_correctness_fields(node, path: str = "") -> list[str]:
    """Paths of the report's correctness bits that are not ``True``."""
    if not isinstance(node, dict):
        return []
    failed = []
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        if key in CORRECTNESS_FIELDS and value is not True:
            failed.append(where)
        failed += failed_correctness_fields(value, where)
    return failed


if __name__ == "__main__":
    # CI's benchmark smoke job runs this: a timing is only worth reading
    # if the answer it timed was right.
    failed = failed_correctness_fields(main())
    if failed:
        raise SystemExit(f"correctness bits not true: {', '.join(failed)}")
