"""One out-of-process benchmark for the whole stack.

Driver form (one run, one JSON object as the last line of stdout)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` it runs every workload (``--runs`` untraced seeds
each, then one traced pass), prints every metric by name and unit and
writes a run table plus raw per-run files under ``benchmarks/e2e/runs/``.
``--quick`` shrinks every shape for a smoke run; ``--compare A B`` judges
two run tables against the bounds in ``BENCHMARK.json``.  README.md in
this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "nogit"


def environment() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k, "default") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg(),
    }


def finish_environment(env: dict) -> dict:
    env["loadavg_end"] = os.getloadavg()
    env["noisy"] = max(env["loadavg_start"][0], env["loadavg_end"][0]) > env["nproc"]
    return env


def run_dir(sha: str) -> Path:
    path = HERE / "runs" / f"{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}-{sha}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def enter_checkout() -> None:
    """Make ``repro`` importable, here and in the server processes (they
    inherit the environment), and keep what it writes inside the checkout,
    including the native kernel it compiles under the temp directory."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"error: the program under test is missing ({SRC / 'repro'})")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def single_run(args, spec: dict) -> int:
    """Run one workload once; the last stdout line is the result object."""
    enter_checkout()
    from workloads import RUNNERS, Run

    env = environment()
    outdir = Path(args.out) if args.out else run_dir(env["git_sha"])
    outdir.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick, workdir, outdir)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so servers are reaped
    try:
        RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.recorder.write(outdir / f"{run.prefix}.spans.jsonl")

    declared = spec["per_layer"] if run.trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in declared:
        value = run.metrics.get(m["name"])
        if value is None:
            missing.append(m["name"])
            # A layer off this workload's path did no work: 0.  An
            # end-to-end metric has no such reading; the run is not correct.
            value = 0.0
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    if not run.trace and missing:
        run.count(0, [f"end-to-end metric {name} was not measured" for name in missing])
    result = {"correct": run.failed == 0, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}
    (outdir / f"{run.prefix}.run.json").write_text(json.dumps({
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.trace), "quick": run.quick,
        "env": finish_environment(env), "phases": run.phases, "errors": run.errors,
        "unmeasured": missing, "result": result,
    }, indent=1))

    print(f"{run.workload} seed={run.seed} trace={int(run.trace)}: attempted {result['attempted']}, failed {run.failed}"
          + (" (noisy host)" if env["noisy"] else ""))
    for name, cell in metrics.items():
        print(f"  {name:<44} {cell['value']:>16.6g} {cell['unit']}" + ("   (not on this path)" if name in missing else ""))
    for body in run.errors:
        print(f"  error: {body}")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# every workload: run table plus raw files
# ----------------------------------------------------------------------


def child(args, outdir: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(outdir)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed={seed} trace={trace} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    return {"workload": workload, "seed": seed, "trace": trace, **json.loads(lines[-1])}


def full_run(args, spec: dict) -> int:
    from compare import noise_table, print_noise

    env = environment()
    outdir = Path(args.out) if args.out else run_dir(env["git_sha"])
    jobs = []
    for w in spec["workloads"]:
        jobs += [(w["name"], args.seed + i, 0) for i in range(args.runs)] + [(w["name"], args.seed, 1)]
    # A measurement runs alone; a smoke run may share the host with another.
    with ThreadPoolExecutor(max_workers=env["nproc"] if args.quick else 1) as pool:
        rows = list(pool.map(lambda job: child(args, outdir, *job), jobs))
    table = {"env": finish_environment(env), "seconds": args.seconds, "quick": args.quick, "rows": rows,
             "phases": [p for f in sorted(outdir.glob("*.run.json")) for p in json.loads(f.read_text())["phases"]]}
    if args.runs >= 4:
        table["noise"] = noise_table(spec, rows)
        print_noise(table["noise"])
    (outdir / "run_table.json").write_text(json.dumps(table, indent=1))
    print(f"run table: {outdir / 'run_table.json'}")
    return 0 if all(r["correct"] for r in rows) else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="untraced seeds per workload when running every workload")
    ap.add_argument("--quick", action="store_true", help="tiny shapes and 1-s runs: a smoke test, not a measurement")
    ap.add_argument("--out", help="directory for the raw per-run files (default: a new one under runs/)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="judge run table B against run table A")
    args = ap.parse_args(argv)
    if args.compare:
        from compare import compare_tables

        return compare_tables(spec, *args.compare)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    return single_run(args, spec) if args.workload else full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
