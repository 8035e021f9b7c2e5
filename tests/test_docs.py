"""Documentation integrity: the docs layer must track the code.

Runs the same reference checker as the CI docs job
(``tools/check_docs.py``) over ``README.md`` and ``docs/*.md``, so a PR
that moves or deletes a referenced file fails tier-1 locally, and pins
the structural claims README makes (CLI command table, benchmark keys).
"""

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_docs_exist():
    assert (REPO_ROOT / "README.md").is_file()
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()
    assert (REPO_ROOT / "docs" / "BENCHMARKS.md").is_file()


def test_no_dangling_references():
    checker = _load_checker()
    errors = []
    for doc in checker.default_docs():
        errors.extend(checker.check_file(doc))
    assert not errors, "\n".join(errors)


def test_checker_catches_dangling(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad.md"
    bad.write_text(
        "see `src/repro/does_not_exist.py` and [doc](missing/file.md)\n"
        "but `python -m repro fig8` and `np.matmul` are not paths\n"
    )
    errors = checker.check_file(bad)
    assert len(errors) == 2
    assert "does_not_exist" in errors[0]


def test_readme_lists_every_cli_command():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.pop(0)
    readme = (REPO_ROOT / "README.md").read_text()
    sub = next(
        a for a in build_parser()._actions
        if a.__class__.__name__ == "_SubParsersAction"
    )
    for command in sub.choices:
        assert f"python -m repro {command}" in readme, (
            f"README command table is missing `python -m repro {command}`"
        )


def test_readme_mentions_committed_bench_entries():
    """README's speedup table and BENCH_engine.json must not drift apart."""
    bench = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    readme = (REPO_ROOT / "README.md").read_text()
    assert "rz_sum_squares" in readme and "rz_sum_squares" in bench
    for key in (
        "streaming", "candidate_batched", "two_source", "streaming_index",
        "tile_edge", "query_service", "mutable",
    ):
        assert key in bench, f"BENCH_engine.json lost its `{key}` entry"
    assert bench["streaming"]["bit_identical"] is True
    assert bench["streaming"]["within_budget"] is True
    speedups = [
        k["speedup"] for k in bench["candidate_batched"]["kernels"].values()
    ]
    assert max(speedups) >= 1.3, "batched executor no longer lifts any kernel"


def test_tile_edge_bench_entry():
    """The cache-fit tile edge keeps its contracts: bit-identity against
    the old fixed edge everywhere, and a real (>1.3x) pairs/sec lift on at
    least one kernel."""
    bench = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    entry = bench["tile_edge"]
    assert entry["tile_cache_budget_bytes"] > 0
    for name, k in entry["kernels"].items():
        assert k["bit_identical"] is True, f"{name} lost tile-edge bit-identity"
        assert k["cache_fit_row_block"] < k["fixed_row_block"], name
    assert max(k["speedup"] for k in entry["kernels"].values()) > 1.3, (
        "the cache-fit tile edge no longer lifts any kernel"
    )


def test_two_source_bench_entries():
    """The two-source and source-backed-index entries keep their contracts."""
    bench = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    two = bench["two_source"]
    assert two["bit_identical"] is True
    assert two["within_budget"] is True
    assert two["peak_resident_bytes"] <= two["memory_budget_bytes"]
    assert two["dataset_bytes"] > two["memory_budget_bytes"]  # really out-of-core
    idx = bench["streaming_index"]
    assert idx["bit_identical"] is True
    assert idx["build_blocks_loaded"] > 0


def test_query_service_bench_entry():
    """The serving entry keeps its contracts: bit-identity against the
    brute reference and the 5x cached-vs-rebuild serving floor."""
    bench = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    entry = bench["query_service"]
    assert entry["bit_identical"] is True
    assert entry["n"] == 4096 and entry["d"] == 64
    assert entry["speedup"] >= 5.0, (
        "cached-index serving no longer clears the 5x floor over "
        "rebuild-per-request"
    )
    assert entry["cache"]["hits"] > 0


def test_mutable_bench_entry():
    """The mutable-store entry keeps its contracts: answers at full delta
    depth and after compaction are bitwise-pinned against a from-scratch
    rebuild, and the compacted store reads within 2x of depth 0."""
    bench = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    entry = bench["mutable"]
    assert entry["bit_identical"] is True
    assert entry["n_base"] == 4096 and entry["d"] == 64
    depths = entry["latency_by_depth"]
    assert set(depths) == {"0", "1", "4", "16"}
    assert entry["compaction"]["segments_folded"] == 16
    assert entry["compaction"]["rows_per_sec"] > 0
    # The compacted base holds the 16 segments' rows too; reading it
    # stays in the depth-0 regime.
    assert (
        entry["post_compact_range_seconds"]
        <= 2.0 * depths["0"]["range_seconds"]
    )


def test_mutable_bench_large_segment():
    """A bulk-appended segment past ``BLOCK_SEGMENT_ROWS`` is read through
    its own engine (the block stays empty) and answers bitwise like a
    rebuild; the committed crossover table backs the threshold -- the
    block's GEMM beats a segment's grid engine at every measured size up
    to it."""
    from repro.index.delta import BLOCK_SEGMENT_ROWS

    bench = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    entry = bench["mutable"]
    large = entry["large_segment"]
    assert large["bit_identical"] is True
    assert large["rows"] > BLOCK_SEGMENT_ROWS
    assert large["delta_rows"] == 0
    crossover = entry["segment_read_crossover"]
    assert crossover["block_segment_rows"] == BLOCK_SEGMENT_ROWS
    sizes = {int(n): t for n, t in crossover["by_rows"].items()}
    assert BLOCK_SEGMENT_ROWS in sizes and max(sizes) > BLOCK_SEGMENT_ROWS
    for n, t in sizes.items():
        if n <= BLOCK_SEGMENT_ROWS:
            assert t["block_seconds"] < t["engine_seconds"], n


def test_cell_order_bench_entry():
    """The layout entry keeps its contracts: a 32-query range request on a
    cell-ordered (v3) index answers bitwise like an engine over the rows
    in original order, pair sets match the brute reference, and both
    were timed."""
    bench = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    entry = bench["cell_order"]
    assert entry["bit_identical"] is True
    assert entry["pair_set_equal"] is True
    assert entry["queries_per_request"] == 32
    assert entry["original_order_seconds_per_request"] > 0
    assert entry["v3_seconds_per_request"] > 0
    assert not any(key.startswith("v2") for key in entry)
    assert 0.0 <= entry["v3_one_run_share"] <= 1.0


def test_mutable_bench_depth_overhead():
    """README quotes the depth-16 read overhead of the mutable store; the
    committed entry must stay in that regime.  Every delta row is one
    column of a single brute GEMM per read, so 16 sealed segments cost
    their rows, not 16 engine passes: within 2x of depth 0."""
    bench = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    assert bench["mutable"]["overhead_depth16_vs_0"] <= 2.0
    readme = (REPO_ROOT / "README.md").read_text()
    assert "`overhead_depth16_vs_0`" in readme


def test_mutable_bench_knn_tombstone_overhead():
    """A tombstone costs a store's kNN its mask only, never a wider
    probe: the committed reads at 512 and 4096 dead base rows stay within
    2x of the clean store's, and every answer equals a rebuild's."""
    bench = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    entry = bench["mutable"]
    assert entry["knn_bit_identical"] is True
    assert set(entry["knn_seconds_by_tombstones"]) == {"0", "512", "4096"}
    assert entry["knn_overhead_tombstones_vs_0"] <= 2.0


def test_readme_states_the_fp64_contract_that_holds():
    """README promises what the FP64 engine keeps: brute force's pair set
    always, its distance bits only where BLAS rounds a dot product alike
    (pinned at the tested shapes), with the fix named -- not bitwise
    equality everywhere."""
    readme = " ".join((REPO_ROOT / "README.md").read_text().split())
    assert (
        "at FP64 a range query's pair set always equals brute force's "
        "(`brute_range_query`), and its distance bits are equal where "
        "BLAS rounds a dot product alike"
    ) in readme
    assert "which the tests pin at their shapes" in readme
    assert "ROADMAP item 9" in readme
    assert "# bit-identical to brute force" not in readme


def test_query_docstring_states_the_fp64_contract_that_holds():
    """`repro.query` promises what README does: brute force's pair set
    always, its distance bits where BLAS rounds alike -- not bitwise
    equality everywhere."""
    import repro

    doc = " ".join(repro.query.__doc__.split())
    assert "pair set always equals the brute-force reference's" in doc
    assert "distance bits are equal where BLAS rounds a dot product alike" in doc
    assert "ROADMAP item 9" in doc
    assert "bit-identical to the brute-force reference" not in doc


def test_docs_state_one_default_deadline_and_no_cross_k_coalescing():
    """README and ARCHITECTURE describe the service the code runs: one
    request deadline whose default is ``DEFAULT_DEADLINE_S`` (30 s), and
    kNN batches of one ``k`` -- no cross-``k`` coalescing at a max-k."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.service.server import DEFAULT_DEADLINE_S
    finally:
        sys.path.pop(0)
    assert DEFAULT_DEADLINE_S == 30.0
    readme = " ".join((REPO_ROOT / "README.md").read_text().split())
    arch = " ".join(
        (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text().split()
    )
    assert "one request deadline (default 30 s)" in readme
    assert "**one deadline**" in arch
    assert "`server.DEFAULT_DEADLINE_S` (30 s)" in arch
    for text in (readme, arch):
        assert "cross-`k`" not in text
        assert "max-k" not in text
        assert "maximum requested `k`" not in text


def test_one_persisted_layout_in_api_cli_and_docs():
    """Every index directory embeds its rows in cell order: no API
    parameter or CLI flag leaves the dataset out or references it by
    path, and the docs no longer say v2 directories load or that a
    dataset can be referenced by path or left out."""
    import inspect

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import build_parser
        from repro.core.api import build_index
        from repro.index import persist
        from repro.index import query
    finally:
        sys.path.pop(0)
    for fn in (build_index, persist.save_index):
        params = inspect.signature(fn).parameters
        assert "include_data" not in params and "data_path" not in params, fn
    data = inspect.signature(persist.save_index).parameters["data"]
    assert data.default is inspect.Parameter.empty  # required
    assert persist.READABLE_VERSIONS == (persist.FORMAT_VERSION,)
    sub = next(
        a for a in build_parser()._actions
        if a.__class__.__name__ == "_SubParsersAction"
    )
    index_sub = next(
        a for a in sub.choices["index"]._actions
        if a.__class__.__name__ == "_SubParsersAction"
    )
    assert "--no-data" not in index_sub.choices["build"].format_help()

    def flat(text):
        return " ".join(text.split())

    texts = {
        "README.md": flat((REPO_ROOT / "README.md").read_text()),
        "ARCHITECTURE.md": flat(
            (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        ),
        "persist": flat(persist.__doc__),
        "query": flat(query.__doc__),
    }
    for name, text in texts.items():
        for stale in (
            "v2 directories load",
            "v2 directories read",
            "v2 directory loads",
            "a v2 index",
            "referenced by path",
            "or reference it by path",
            "optionally with the dataset",
            "saved without its data",
            "saved without data",
            "not stored",
        ):
            assert stale not in text, (name, stale)
    assert "the one layout written and read" in texts["persist"]
    assert "the one layout written and read" in texts["README.md"]
    assert "with the dataset always embedded" in texts["ARCHITECTURE.md"]


def test_environment_knobs_are_exactly_the_documented_two():
    """Every ``REPRO_*`` name the package reads from the environment is a
    string literal naming it whole (``os.environ.get("REPRO_NATIVE")``,
    ``ENV_VAR = "REPRO_FAULTS"``); the set is pinned, and README names
    each one, so a new knob cannot slip in undocumented."""
    import ast
    import re

    knob = re.compile(r"REPRO_[A-Z_]+")
    found = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and knob.fullmatch(node.value)
            ):
                found.add(node.value)
    assert found == {"REPRO_FAULTS", "REPRO_NATIVE"}
    readme = (REPO_ROOT / "README.md").read_text()
    for name in sorted(found):
        assert name in readme, name


def test_checker_resolves_nested_cli_commands():
    """`index build` must check against the nested parser's flags."""
    checker = _load_checker()
    commands = checker._load_cli_commands()
    assert "index build" in commands and "index info" in commands
    assert "--n-dims" in commands["index build"]
    nested = tuple({k.split()[0] for k in commands if " " in k})
    calls = list(checker.iter_cli_invocations(
        "run `python -m repro index build out --n-dims 4` then\n"
        "`python -m repro index info out`\n",
        nested,
    ))
    assert calls == [
        (1, "index build", [("--n-dims", "4")]),
        (2, "index info", []),
    ]


def test_cli_two_source_help():
    """The join subcommand keeps its two-dataset positional form."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.pop(0)
    sub = next(
        a for a in build_parser()._actions
        if a.__class__.__name__ == "_SubParsersAction"
    )
    join = sub.choices["join"]
    positionals = [a.dest for a in join._get_positional_actions()]
    assert positionals == ["data_a", "data_b"]
    help_text = join.format_help()
    assert "two-source join A x B" in " ".join(help_text.split())
    for flag in ("--stream", "--memory-budget", "--batched", "--method"):
        assert flag in help_text


def test_readme_documents_two_source_cli():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "join A.npy B_chunks/ --stream --memory-budget" in readme


def test_checker_catches_cli_flag_drift():
    """check_docs must flag unknown flags and unknown commands."""
    checker = _load_checker()
    commands = checker._load_cli_commands()
    assert "--memory-budget" in commands["join"]
    calls = list(checker.iter_cli_invocations(
        "run `python -m repro join A B --stream --no-such-flag` and\n"
        "`python -m repro bogus` but skip `python -m repro <experiment>`\n"
    ))
    assert calls == [
        (1, "join", [("--stream", None), ("--no-such-flag", None)]),
        (2, "bogus", []),
    ]
    errors = []
    for lineno, command, flags in calls:
        if command not in commands:
            errors.append(command)
        else:
            errors.extend(f for f, _ in flags if f not in commands[command])
    assert errors == ["--no-such-flag", "bogus"]


def test_checker_catches_cli_value_drift(tmp_path):
    """check_docs must flag a value outside a flag's argparse choices --
    a doc still showing ``--verify off`` fails -- in both spellings, and
    pass the values the parser accepts."""
    checker = _load_checker()
    commands = checker._load_cli_commands()
    assert commands["query"]["--verify"] == ("header", "full")
    assert commands["serve"]["--verify"] == ("header", "full")
    assert commands["query"]["--n-queries"] is None  # no choices
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`python -m repro query idx --verify off --n-queries 8`\n"
        "`python -m repro serve --index idx --verify=off`\n"
        "`python -m repro query idx --verify full`\n"
        "`python -m repro serve --index idx --verify <level>`\n"
    )
    errors = checker.check_cli_invocations(doc, commands)
    assert len(errors) == 2, errors
    assert "doc.md:1:" in errors[0] and "not `off`" in errors[0]
    assert "doc.md:2:" in errors[1] and "not `off`" in errors[1]


def test_serving_has_one_configuration():
    """Serving answers in FP64 over the mapped v3 rows: no serving
    signature takes ``precision`` or ``mmap``, and there is no unchecked
    load level."""
    import inspect

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        import repro
        from repro.index import persist
        from repro.index.delta import MutableIndex
        from repro.service import IndexCache, QueryEngine, QueryService
        from repro.service.server import make_server
    finally:
        sys.path.pop(0)
    signatures = (
        QueryEngine,
        MutableIndex,
        MutableIndex.create,
        IndexCache,
        QueryService,
        make_server,
        repro.open_index,
        persist.load_index,
    )
    for fn in signatures:
        params = inspect.signature(fn).parameters
        assert "precision" not in params and "mmap" not in params, fn
    assert persist.VERIFY_LEVELS == ("header", "full")


def test_docs_cli_invocations_valid():
    """Every CLI call documented in README/docs exists with real flags."""
    checker = _load_checker()
    commands = checker._load_cli_commands()
    errors = []
    for doc in checker.default_docs():
        errors.extend(checker.check_cli_invocations(doc, commands))
    assert not errors, "\n".join(errors)


def test_dockerfile_cmd_parses():
    """The container's start command parses with the live CLI, so a flag
    removed later fails here instead of at `docker compose up`."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.pop(0)
    text = (REPO_ROOT / "Dockerfile").read_text().replace("\\\n", " ")
    # Continuations joined, the exec-form CMD is the one line opening
    # with it (the HEALTHCHECK's CMD rides on the HEALTHCHECK line).
    cmd = next(line for line in text.splitlines() if line.startswith("CMD "))
    argv = json.loads(cmd[len("CMD "):])
    assert argv[:3] == ["python", "-m", "repro"]
    try:
        args = build_parser().parse_args(argv[3:])
    except SystemExit:
        raise AssertionError(
            f"Dockerfile CMD does not parse: {argv}"
        ) from None
    assert args.command == "serve"
