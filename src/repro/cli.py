"""Command-line interface: ``python -m repro <experiment>``.

Exposes the experiment drivers without writing any Python:

.. code-block:: console

    $ python -m repro fig8                 # throughput heatmap
    $ python -m repro table5               # leave-one-out ablation
    $ python -m repro fig9                 # FaSTED vs TED-Join-Brute
    $ python -m repro table6               # profiler counters
    $ python -m repro fig10 --dataset Sift10M --n 4000
    $ python -m repro accuracy --dataset Cifar60K --n 3000
    $ python -m repro join --n 20000 --d 64 --stream --memory-budget 4
    $ python -m repro join --method gds-join --batched --selectivity 8
    $ python -m repro join A.npy B_chunks/ --stream --memory-budget 4
    $ python -m repro index build my_index --data data.npy --selectivity 64
    $ python -m repro index info my_index
    $ python -m repro query my_index --n-queries 256
    $ python -m repro serve --index my_index --port 8787

Model-driven experiments run instantly at the paper's full scales; the
data-driven ones accept ``--n`` to bound the surrogate size.  ``join``
runs one functional join end to end: with no positional datasets a
self-join on synthetic data, with one positional a
self-join on that dataset, and with two positionals the **two-source**
join ``A x B`` (each a ``.npy`` file or chunk directory) -- optionally
out-of-core (``--stream`` / ``--memory-budget``, in MiB) or, for
self-joins on the index-backed methods, with the batched candidate
executor (``--batched``).  Every join runs serially; the brute methods
size their tiles to the per-core cache.

The query-serving layer (``repro.service``) is driven by three more
subcommands: ``index build`` persists an epsilon-grid index (plus an
embedded dataset copy) to a directory, ``index info`` inspects
one, ``query`` answers batched range (``--eps``) or kNN (``--k``)
queries against it, and ``serve`` exposes cached indexes over
JSON-HTTP with micro-batched dispatch (``--self-test`` runs the
one-shot concurrent smoke CI uses).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.experiments import (
    run_fig8,
    run_fig9,
    run_real_dataset,
    run_table5,
    run_table6,
)
from repro.analysis.tables import format_heatmap, format_table
from repro.data.realworld import DATASETS
from repro.gpusim.profiler import format_table as profiler_table
from repro.index.persist import VERIFY_LEVELS


def _cmd_fig8(_args) -> str:
    res = run_fig8()
    return format_heatmap(
        res.tflops,
        [f"{n:,}" for n in res.sizes],
        res.dims,
        title="Figure 8: FaSTED derived TFLOPS",
        corner="|D| \\ d",
    )


def _cmd_table5(_args) -> str:
    res = run_table5()
    rows = [(r.disabled, f"{r.tflops:.1f}", r.paper_tflops) for r in res.rows]
    rows.append(("(all enabled)", f"{res.baseline_tflops:.1f}", res.paper_baseline))
    return format_table(
        ("Disabled optimization", "Model TFLOPS", "Paper TFLOPS"),
        rows,
        title="Table 5: leave-one-out study",
    )


def _cmd_fig9(_args) -> str:
    res = run_fig9()
    rows = [
        (d, f"{f:.1f}", f"{t:.2f}" if t is not None else "OOM")
        for d, f, t in zip(res.dims, res.fasted_tflops, res.tedjoin_tflops)
    ]
    return format_table(
        ("d", "FaSTED", "TED-Join-Brute"),
        rows,
        title="Figure 9: brute-force TC TFLOPS vs d",
    )


def _cmd_table6(_args) -> str:
    return profiler_table(run_table6(), title="Table 6: profiler counters")


def _cmd_fig10(args) -> str:
    out = run_real_dataset(args.dataset, n=args.n, with_accuracy=False)
    rows = []
    for row in out.fig10_rows:
        for o in row.outcomes:
            su = row.speedup_over(o.name)
            rows.append(
                (
                    row.selectivity,
                    o.name,
                    f"{o.total_s * 1e3:.2f} ms" if o.total_s else "OOM",
                    f"{su:.1f}x" if su else "-",
                )
            )
    return format_table(
        ("S", "Method", "End-to-end", "FaSTED speedup"),
        rows,
        title=f"Figure 10 panel: {args.dataset} (n={out.n_points}, d={out.dims})",
    )


def _cmd_accuracy(args) -> str:
    out = run_real_dataset(
        args.dataset, n=args.n, with_accuracy=True, with_error_stats=True
    )
    rows = [
        (
            a.selectivity,
            f"{a.overlap:.5f}",
            f"{a.error_stats.mean:+.2e}",
            f"{a.error_stats.std:.2e}",
        )
        for a in out.accuracy
    ]
    return format_table(
        ("S", "Overlap", "Err mean", "Err std"),
        rows,
        title=f"Tables 7-8: {args.dataset} accuracy vs FP64",
    )


def _calibration_sample(source, target: int = 4096):
    """Rows for epsilon calibration, drawn from blocks spread across the
    dataset -- on-disk data is often written in cluster or sorted order,
    so a prefix would calibrate to one dense region's density."""
    import numpy as np

    if source.n <= target:
        return source.materialize()
    k = 8
    per = target // k
    starts = np.linspace(0, source.n - per, k).astype(np.int64)
    return np.concatenate(
        [source.load_block(int(s), int(s) + per) for s in starts]
    )


def _cmd_join(args) -> str:
    from repro.core.api import STREAMABLE_METHODS, join, self_join
    from repro.data.source import as_source
    from repro.data.synthetic import synth_dataset

    two_source = args.data_b is not None
    if two_source:
        source = as_source(args.data_a)
        source_b = as_source(args.data_b)
        if source.dim != source_b.dim:
            raise SystemExit(
                f"error: A and B dimensionalities disagree "
                f"({source.dim} != {source_b.dim})"
            )
    else:
        source_b = None
        if args.data_a is not None:
            source = as_source(args.data_a)
        else:
            source = as_source(
                synth_dataset(args.n, args.d, seed=args.seed, clustered=True)
            )
    if args.memory_budget is not None and args.memory_budget <= 0:
        raise SystemExit("error: --memory-budget must be a positive number of MiB")
    budget = (
        int(args.memory_budget * (1 << 20)) if args.memory_budget else None
    )
    stream = bool(args.stream or budget)
    if stream and args.method not in STREAMABLE_METHODS:
        raise SystemExit(
            f"error: --stream/--memory-budget need one of {STREAMABLE_METHODS}; "
            f"{args.method} materializes here (its out-of-core mode is its "
            "kernel's self_join over a DatasetSource)"
        )
    if args.batched and (two_source or args.method in STREAMABLE_METHODS):
        raise SystemExit(
            "error: --batched applies to index-backed self-joins "
            "(ted-join-index, gds-join, mistic)"
        )
    # Calibrate against the set being searched: B for a two-source join
    # (the target is matches per A point in B's density), the dataset
    # itself for a self-join.
    eps, _calibrated = _resolve_eps(args, source_b if two_source else source)
    lines = [
        (
            f"datasets: A n={source.n}, B n={source_b.n}, d={source.dim} "
            f"({(source.nbytes + source_b.nbytes) / (1 << 20):.1f} MiB as float64)"
            if two_source
            else f"dataset: n={source.n} d={source.dim} "
            f"({source.nbytes / (1 << 20):.1f} MiB as float64)"
        ),
        f"method: {args.method}  eps={eps:.4f}"
        + (f"  (calibrated for S={args.selectivity})" if args.eps is None else ""),
    ]
    t0 = time.perf_counter()
    if stream:
        if two_source:
            result = join(
                source, source_b, eps, method=args.method, stream=True,
                memory_budget_bytes=budget,
            )
        else:
            result = self_join(
                source, eps, method=args.method, stream=True,
                memory_budget_bytes=budget,
            )
        elapsed = time.perf_counter() - t0
        stats = result.stream_stats
        plan = stats.plan
        edges = (
            f"row_block={plan.row_block} col_block={plan.col_block} "
            f"({plan.n_row_blocks}x{plan.n_col_blocks} blocks"
            if two_source
            else f"row_block={plan.row_block} ({plan.n_row_blocks} blocks"
        )
        lines.append(
            f"streaming: {edges}, {plan.n_tiles} tiles, "
            f"{stats.blocks_loaded} block loads)"
        )
        lines.append(
            f"peak resident blocks: {stats.peak_resident_bytes / (1 << 20):.2f} MiB"
            + (
                f" (budget {budget / (1 << 20):.2f} MiB)"
                if budget is not None
                else ""
            )
        )
    else:
        if two_source:
            result = join(
                source.materialize(), source_b.materialize(), eps,
                method=args.method,
            )
        else:
            result = self_join(
                source.materialize(), eps, method=args.method,
                batched=args.batched,
            )
        elapsed = time.perf_counter() - t0
        if args.batched:
            lines.append("candidate executor: batched (padded batch GEMMs)")
    lines.append(
        f"result: {result.pairs_i.size} pairs "
        + (
            f"(mean matches/query {result.selectivity:.1f}) "
            if two_source
            else f"(selectivity {result.selectivity:.1f}) "
        )
        + f"in {elapsed:.3f} s "
        f"({result.pairs_i.size / max(elapsed, 1e-9):,.0f} pairs/s)"
    )
    return "\n".join(lines)


def _resolve_eps(args, source) -> tuple[float, bool]:
    """``(eps, calibrated)`` from ``--eps`` or ``--selectivity``.

    The one calibration path shared by ``join``, ``index build``, and
    anything else that targets a selectivity: ``epsilon_for_selectivity``
    targets S neighbors *within the data it is given*, so when
    calibrating on a subsample the quantile is rescaled to the full
    cardinality -- otherwise the realized selectivity would overshoot by
    ~``n / sample``.
    """
    from repro.core.selectivity import epsilon_for_selectivity

    if args.eps is not None:
        return float(args.eps), False
    cal = _calibration_sample(source)
    target = args.selectivity
    if cal.shape[0] < source.n:
        target = max(target * (cal.shape[0] - 1) / (source.n - 1), 1e-6)
    return float(epsilon_for_selectivity(cal, target)), True


def _cmd_index_build(args) -> str:
    from repro.core.api import build_index
    from repro.data.source import as_source
    from repro.data.synthetic import synth_dataset

    if args.data is not None:
        source = as_source(args.data)
    else:
        source = as_source(
            synth_dataset(args.n, args.d, seed=args.seed, clustered=True)
        )
    eps, calibrated = _resolve_eps(args, source)
    t0 = time.perf_counter()
    path = build_index(
        source,
        eps,
        args.out,
        n_dims=args.n_dims,
        mutable=args.mutable,
        seal_threshold=args.seal_threshold,
    )
    elapsed = time.perf_counter() - t0
    total_bytes = sum(
        p.stat().st_size for p in path.rglob("*") if p.is_file()
    )
    return "\n".join(
        [
            f"dataset: n={source.n} d={source.dim} "
            f"({source.nbytes / (1 << 20):.1f} MiB as float64)",
            f"index: grid  eps={eps:.4f}"
            + (f"  (calibrated for S={args.selectivity})" if calibrated else "")
            + ("  [mutable]" if args.mutable else ""),
            f"persisted: {path} ({total_bytes / (1 << 20):.2f} MiB, "
            f"dataset embedded) in {elapsed:.3f} s",
        ]
    )


def _cmd_index_info(args) -> str:
    from repro.index.delta import is_mutable_index
    from repro.index.persist import load_index

    try:
        if is_mutable_index(args.path):
            return _index_info_mutable(args.path)
        loaded = load_index(args.path)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    scalars = loaded.header["scalars"]
    lines = [
        f"index: {loaded.path}",
        f"kind: grid  format v{loaded.header['version']}",
        f"eps: {loaded.eps:.6g}",
        f"points: {scalars['n_points']}  dims: {scalars['n_dims_data']} "
        f"(indexed prefix r={scalars['r']})",
        f"occupied cells: {loaded.index._starts.size}",
    ]
    payload = sum(p.stat().st_size for p in loaded.path.iterdir())
    lines.append(f"dataset: {loaded.header['data']} (n={loaded.source.n})")
    lines.append(f"on disk: {payload / (1 << 20):.2f} MiB")
    return "\n".join(lines)


def _index_info_mutable(path) -> str:
    from pathlib import Path

    from repro.index.delta import MutableIndex

    idx = MutableIndex(path)
    s = idx.stats()
    payload = sum(
        p.stat().st_size for p in Path(path).rglob("*") if p.is_file()
    )
    return "\n".join(
        [
            f"index: {idx.path} [mutable]",
            f"kind: grid  eps: {s['eps']:.6g}  dim: {s['dim']}",
            f"live rows: {s['n_live']} of {s['n_rows']} "
            f"({s['n_tombstones']} tombstones)  next id: {s['next_id']}",
            f"delta: {s['n_segments']} sealed segments, "
            f"{s['buffered_rows']} buffered rows "
            f"(seal threshold {s['seal_threshold']})",
            f"base: {s['base']}",
            f"on disk: {payload / (1 << 20):.2f} MiB",
        ]
    )


def _cmd_index_append(args) -> str:
    from repro.index.delta import MutableIndex

    idx = MutableIndex(args.path)
    if args.data is not None:
        from repro.data.source import as_source

        rows = as_source(args.data).materialize()
    else:
        from repro.service import sample_queries

        rows = sample_queries(idx, idx.eps, args.n, seed=args.seed)
    t0 = time.perf_counter()
    ids = idx.append(rows)
    # The in-memory buffer is volatile; a CLI append must outlive the
    # process, so spill it to a sealed segment before exiting.
    idx.seal()
    elapsed = time.perf_counter() - t0
    s = idx.stats()
    return "\n".join(
        [
            f"appended {ids.size} rows (ids {ids[0]}..{ids[-1]}) "
            f"in {elapsed:.3f} s",
            f"store: {s['n_live']} live rows, {s['n_segments']} segments, "
            f"{s['buffered_rows']} buffered",
        ]
    )


def _cmd_index_delete(args) -> str:
    from repro.index.delta import MutableIndex

    try:
        ids = [int(t) for t in args.ids.split(",") if t.strip()]
    except ValueError:
        raise SystemExit(
            f"error: --ids must be comma-separated integers, got {args.ids!r}"
        )
    if not ids:
        raise SystemExit("error: --ids named no rows")
    idx = MutableIndex(args.path)
    n = idx.delete(ids, missing=args.missing)
    s = idx.stats()
    return (
        f"deleted {n} rows; {s['n_live']} live remain "
        f"({s['n_tombstones']} tombstones)"
    )


def _cmd_index_compact(args) -> str:
    from repro.index.delta import MutableIndex

    idx = MutableIndex(args.path)
    before = idx.stats()
    out = idx.compact()
    return "\n".join(
        [
            f"compacted {out['segments_folded']} segments + "
            f"{before['n_tombstones']} tombstones in "
            f"{out['duration_s']:.3f} s",
            f"new base generation: {out['n_live']} live rows",
        ]
    )


def _make_queries(engine, n_queries: int, seed: int):
    """Synthetic query points near the indexed data's density."""
    from repro.service import sample_queries

    return sample_queries(engine, engine.eps, n_queries, seed=seed)


def _cmd_query_remote(args) -> str:
    """``query --server``: route the queries over HTTP via the retrying
    client instead of opening the index in-process."""
    import numpy as np

    from repro.service.client import ServiceClient, ServiceUnavailable

    if args.queries is None:
        raise SystemExit(
            "error: --server needs --queries (synthetic queries are sampled "
            "from the local dataset, which a remote server does not expose)"
        )
    host, _, port = args.server.rpartition(":")
    if not port.isdigit():
        raise SystemExit(
            f"error: --server must be HOST:PORT, got {args.server!r}"
        )
    queries = np.load(args.queries)
    client = ServiceClient(host or "127.0.0.1", int(port), timeout=60.0)
    lines = []
    t0 = time.perf_counter()
    try:
        # The positional argument is the *remote* index name here.  A
        # single-index server (serve --index PATH registers "default")
        # serves whatever name the local path happens to be, so fall
        # back to the lone registered name instead of 404ing.
        name = args.index
        served = client.healthz().get("indexes", [])
        if name not in served and len(served) == 1:
            name = served[0]
        lines += [
            f"index: {name!r} on http://{host or '127.0.0.1'}:{port}",
            f"queries: {queries.shape[0]} from {args.queries}",
        ]
        if args.k is not None:
            res = client.knn_query(queries.tolist(), args.k, index=name)
            elapsed = time.perf_counter() - t0
            found = sum(1 for row in res["indices"] for i in row if i >= 0)
            lines.append(
                f"kNN: k={args.k} -> {found} neighbors in {elapsed:.3f} s"
            )
        else:
            res = client.range_query(
                queries.tolist(), index=name, eps=args.eps
            )
            elapsed = time.perf_counter() - t0
            pairs = sum(len(neigh) for neigh in res["neighbors"])
            lines.append(
                f"range: eps={res['eps']:.4f} -> {pairs} pairs in "
                f"{elapsed:.3f} s"
            )
    except (ServiceUnavailable, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    finally:
        client.close()
    if client.retries:
        lines.append(f"retries absorbed: {client.retries}")
    return "\n".join(lines)


def _cmd_query(args) -> str:
    from repro.core.api import open_index

    if args.eps is not None and args.k is not None:
        raise SystemExit("error: pass --eps (range query) or --k (kNN), not both")
    if args.server is not None:
        return _cmd_query_remote(args)
    try:
        engine = open_index(args.index, cache=False, verify=args.verify)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.queries is not None:
        import numpy as np

        queries = np.load(args.queries)
    else:
        queries = _make_queries(engine, args.n_queries, args.seed)
    lines = [
        f"index: {args.index} (n={engine.n_points}, "
        f"d={engine.dim}, eps={engine.eps:.4f})",
        f"queries: {queries.shape[0]}"
        + ("" if args.queries is not None else f" synthetic (seed {args.seed})"),
    ]
    t0 = time.perf_counter()
    if args.k is not None:
        try:
            res = engine.knn_query(queries, args.k)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
        elapsed = time.perf_counter() - t0
        found = int((res.indices >= 0).sum())
        lines.append(
            f"kNN: k={args.k} -> {found} neighbors in {elapsed:.3f} s "
            f"({queries.shape[0] / max(elapsed, 1e-9):,.0f} queries/s)"
        )
    else:
        try:
            res = engine.range_query(queries, args.eps)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
        elapsed = time.perf_counter() - t0
        lines.append(
            f"range: eps={args.eps if args.eps is not None else engine.eps:.4f} "
            f"-> {res.pairs_i.size} pairs "
            f"(mean matches/query {res.selectivity:.1f}) in {elapsed:.3f} s "
            f"({queries.shape[0] / max(elapsed, 1e-9):,.0f} queries/s)"
        )
    return "\n".join(lines)


def _cmd_serve(args) -> str:
    from repro import log as _log
    from repro.service import make_server, run_self_test

    _log.setup()  # structured JSON logs on stderr for the serving path
    registry = {}
    for item in args.index:
        # NAME=PATH only when the prefix looks like a name (no '/'):
        # paths may legitimately contain '=' and must not be split.
        name, sep, rest = item.partition("=")
        if sep and name and "/" not in name:
            registry[name] = rest
        else:
            registry["default"] = item
    if args.self_test:
        first = next(iter(registry.values()))
        try:
            out = run_self_test(
                first,
                max_queue_depth=args.max_queue_depth,
                verify=args.verify,
                trace_sample=args.trace_sample,
                trace_log=args.trace_log,
                slow_ms=args.slow_ms,
            )
        except (ValueError, AssertionError) as exc:
            raise SystemExit(f"error: {exc}") from exc
        stats = out["stats"]
        return (
            "self-test OK: "
            f"{out['clients']} concurrent clients x "
            f"{out['queries_per_client']} queries (range + kNN) matched the "
            f"serial engine\n"
            f"micro-batching: {stats['batches_dispatched']} engine batches "
            f"for {stats['requests_served']} requests "
            f"({stats['requests_coalesced']} coalesced, "
            f"{stats['requests_rejected']} rejected, "
            f"{out['client_retries']} client retries absorbed)\n"
            f"/metrics: {out['metrics_series']} series parsed, "
            f"server 5xx responses: {out['http_5xx']}\n"
            f"/trace/recent: {out['traces_retained']} retained query traces\n"
            f"cache: {stats['cache']}"
        )
    try:
        server = make_server(
            registry, host=args.host, port=args.port,
            max_queue_depth=args.max_queue_depth, verify=args.verify,
            trace_sample=args.trace_sample, trace_log=args.trace_log,
            slow_ms=args.slow_ms,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    host, port = server.server_address[:2]
    print(
        f"serving {sorted(registry)} on http://{host}:{port} "
        "(POST /range | /knn, GET /healthz | /stats | /trace/recent; "
        f"trace sample {args.trace_sample:g}; Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return "server stopped"


def _cmd_trace_report(args) -> str:
    from repro import trace as trace_mod

    try:
        spans = trace_mod.read_jsonl(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    return trace_mod.render_report(
        spans, limit=args.limit, slow_ms=args.slow_ms
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FaSTED reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fig8", help="throughput heatmap").set_defaults(fn=_cmd_fig8)
    sub.add_parser("table5", help="ablation study").set_defaults(fn=_cmd_table5)
    sub.add_parser("fig9", help="FaSTED vs TED-Join-Brute").set_defaults(fn=_cmd_fig9)
    sub.add_parser("table6", help="profiler counters").set_defaults(fn=_cmd_table6)
    for name, fn, default_n in (("fig10", _cmd_fig10, 4000), ("accuracy", _cmd_accuracy, 3000)):
        p = sub.add_parser(name, help=f"{name} on a surrogate dataset")
        p.add_argument("--dataset", choices=sorted(DATASETS), default="Sift10M")
        p.add_argument("--n", type=int, default=default_n, help="surrogate size")
        p.set_defaults(fn=fn)
    j = sub.add_parser(
        "join",
        help="run one join: self-join, or two-source A x B "
        "(optionally streaming / batched)",
    )
    j.add_argument(
        "data_a", nargs="?", default=None, metavar="A",
        help="left dataset (.npy file or chunk directory); alone: self-join",
    )
    j.add_argument(
        "data_b", nargs="?", default=None, metavar="B",
        help="right dataset; given, the command runs the two-source join A x B",
    )
    j.add_argument(
        "--method",
        choices=("fasted", "ted-join-brute", "ted-join-index", "gds-join", "mistic"),
        default="fasted",
    )
    j.add_argument("--n", type=int, default=8192, help="synthetic dataset size")
    j.add_argument("--d", type=int, default=64, help="synthetic dimensionality")
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--eps", type=float, default=None, help="search radius")
    j.add_argument(
        "--selectivity", type=int, default=64,
        help="target mean neighbors used to calibrate eps when --eps is absent",
    )
    j.add_argument(
        "--stream", action="store_true",
        help="run out-of-core (brute methods only; bit-identical)",
    )
    j.add_argument(
        "--memory-budget", type=float, default=None, metavar="MIB",
        help="resident-block budget in MiB (implies --stream)",
    )
    j.add_argument(
        "--batched", action="store_true",
        help="batched candidate executor (index-backed methods)",
    )
    j.set_defaults(fn=_cmd_join)

    idx = sub.add_parser(
        "index",
        help="build or inspect persisted query indexes (the serving layer)",
    )
    idx_sub = idx.add_subparsers(dest="index_command", required=True)
    ib = idx_sub.add_parser(
        "build", help="build a grid index and persist it to a directory"
    )
    ib.add_argument("out", help="target index directory")
    ib.add_argument(
        "--data", default=None,
        help="dataset (.npy file or chunk directory; default: synthetic)",
    )
    ib.add_argument("--n", type=int, default=8192, help="synthetic dataset size")
    ib.add_argument("--d", type=int, default=64, help="synthetic dimensionality")
    ib.add_argument("--seed", type=int, default=0)
    ib.add_argument("--eps", type=float, default=None, help="grid cell width")
    ib.add_argument(
        "--selectivity", type=int, default=64,
        help="target mean neighbors used to calibrate eps when --eps is absent",
    )
    ib.add_argument(
        "--n-dims", type=int, default=6, help="indexed dimension count"
    )
    ib.add_argument(
        "--mutable", action="store_true",
        help="build an LSM-style mutable store (append/delete/compact)",
    )
    ib.add_argument(
        "--seal-threshold", type=int, default=None, metavar="ROWS",
        help="mutable only: buffered appends spill to a sealed segment "
        "past this row count (default 4096)",
    )
    ib.set_defaults(fn=_cmd_index_build)
    ii = idx_sub.add_parser("info", help="summarize a persisted index")
    ii.add_argument("path", help="index directory")
    ii.set_defaults(fn=_cmd_index_info)
    ia = idx_sub.add_parser(
        "append", help="append rows to a mutable store (sealed durable)"
    )
    ia.add_argument("path", help="mutable index directory")
    ia.add_argument(
        "--data", default=None,
        help=".npy of rows to append (default: synthetic near the data)",
    )
    ia.add_argument(
        "--n", type=int, default=64, help="synthetic row count"
    )
    ia.add_argument("--seed", type=int, default=1)
    ia.set_defaults(fn=_cmd_index_append)
    idl = idx_sub.add_parser(
        "delete", help="tombstone rows of a mutable store by global id"
    )
    idl.add_argument("path", help="mutable index directory")
    idl.add_argument(
        "--ids", required=True, metavar="ID,ID,...",
        help="comma-separated global row ids to delete",
    )
    idl.add_argument(
        "--missing", choices=("error", "ignore"), default="error",
        help="unknown/already-dead ids: fail the command or skip them",
    )
    idl.set_defaults(fn=_cmd_index_delete)
    ic = idx_sub.add_parser(
        "compact",
        help="fold sealed segments + tombstones into a new base generation",
    )
    ic.add_argument("path", help="mutable index directory")
    ic.set_defaults(fn=_cmd_index_compact)

    qp = sub.add_parser(
        "query",
        help="batched range/kNN queries against a persisted index",
    )
    qp.add_argument("index", help="persisted index directory")
    qp.add_argument(
        "--queries", default=None,
        help=".npy of query points (default: synthetic near the data)",
    )
    qp.add_argument(
        "--n-queries", type=int, default=64, help="synthetic query count"
    )
    qp.add_argument("--seed", type=int, default=1)
    qp.add_argument(
        "--eps", type=float, default=None,
        help="range-query radius (default: the index eps; must not exceed it)",
    )
    qp.add_argument(
        "--k", type=int, default=None, help="run a kNN query instead of range"
    )
    qp.add_argument(
        "--verify", choices=VERIFY_LEVELS, default="header",
        help="integrity level applied when loading the index (default: "
        "header byte-size checks; full re-hashes every payload)",
    )
    qp.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="query a running `serve` instance over HTTP (retrying client) "
        "instead of opening the index locally; requires --queries, and "
        "INDEX names a registered index, not a path",
    )
    qp.set_defaults(fn=_cmd_query)

    sv = sub.add_parser(
        "serve",
        help="JSON-over-HTTP query server with micro-batching + index cache",
    )
    sv.add_argument(
        "--index", action="append", required=True, metavar="[NAME=]PATH",
        help="persisted index to register (repeatable; default name 'default')",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8787)
    sv.add_argument(
        "--self-test", action="store_true",
        help="one-shot smoke: serve on an ephemeral port, hammer it with "
        "concurrent retrying clients, verify against the serial engine, exit",
    )
    sv.add_argument(
        "--max-queue-depth", type=int, default=256, metavar="N",
        help="admission-control bound on queued requests; past it the "
        "server answers 429 + Retry-After immediately",
    )
    sv.add_argument(
        "--verify", choices=VERIFY_LEVELS, default="header",
        help="integrity level applied when the cache loads an index "
        "(default: header byte-size checks; full re-hashes every payload)",
    )
    sv.add_argument(
        "--trace-sample", type=float, default=0.0, metavar="P",
        help="probability of retaining a request's span tree in the "
        "in-memory ring served by /trace/recent and /trace/<id> "
        "(error traces are always kept; 0 disables sampling)",
    )
    sv.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="append every retained trace's spans to this JSONL file "
        "(render offline with `python -m repro trace report PATH`)",
    )
    sv.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="slow-query log: always retain traces whose root span ran "
        "at least this long, regardless of the sampling coin",
    )
    sv.set_defaults(fn=_cmd_serve)

    tr = sub.add_parser(
        "trace",
        help="inspect span exports from `serve --trace-log`",
    )
    tr_sub = tr.add_subparsers(dest="trace_cmd", required=True)
    trr = tr_sub.add_parser(
        "report",
        help="validate a span JSONL file and render per-trace trees "
        "with total/self times",
    )
    trr.add_argument("path", help="JSONL file written by --trace-log")
    trr.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="render only the last N traces",
    )
    trr.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="render only traces whose root span ran at least this long",
    )
    trr.set_defaults(fn=_cmd_trace_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    print(args.fn(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
