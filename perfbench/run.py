"""Benchmark of the ppgstress pipeline on seeded synthetic cohorts.

    python3 perfbench/run.py --workload eval16 --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory. With `--trace 0` the run sets up the workload several times,
repeats the timed job while another repetition fits in `--seconds` (at
least once) and reports the end-to-end metrics. With `--trace 1` it sets up
once and runs the job once untraced and once traced, and reports the
per-layer metrics of `spans.Tracer`. Every repetition's outputs are checked
(see `workloads.py` and `fingerprint.py`); an operation that raises or
fails a check counts as failed. A table, the environment and the
fingerprint file's path go to standard output, and the last line is the
JSON result. The run's full record is written to `.perfbench_run/`.
"""

import time

START = time.perf_counter()  # before the imports: their time is part of setup_s

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_run"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
SETUP_REPS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Limit BLAS to at most one thread per usable CPU; returns the cap."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            cap = min(cap, int(value))
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def import_program():
    """Import ppgstress from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ppgstress
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import ppgstress from {src}: {e}")
    if Path(ppgstress.__file__).resolve().parent != src / "ppgstress":
        raise SystemExit(f"perfbench: ppgstress came from {ppgstress.__file__}, "
                         f"not {src}")


def environment(blas_cap: int) -> dict:
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_cap, "git_sha": sha,
            "machine": platform.machine()}


def run_job(workload, inp, preds, tracer=None):
    """One timed job; with a tracer, the job runs instrumented."""
    with tracer.installed() if tracer else nullcontext():
        t = time.perf_counter()
        with tracer.span("bench.job") if tracer else nullcontext():
            out = workload.job(inp, preds)
        return time.perf_counter() - t, out


def verify(workload, inp, out, references):
    """Fingerprint a job's outputs; returns it, the problems and failed ops."""
    import fingerprint
    fp = {"workload": workload.name, **workload.fingerprint(inp, out)}
    problems = workload.check(inp, out)
    problems += [(op, f"raised {out[op]!r}") for op in workload.ops()
                 if isinstance(out[op], Exception)]
    for label, ref in references.items():
        for path in fingerprint.compare({k: fp[k] for k in ("inputs", "ops")},
                                        {k: ref[k] for k in ("inputs", "ops")}):
            parts = path.strip("/").split("/")
            scope = parts[1] if parts[0] == "ops" and len(parts) > 1 else "inputs"
            problems.append((scope, f"differs from the {label} at {path}"))
    scopes = {scope for scope, _ in problems}
    failed = set(workload.ops()) if "inputs" in scopes else scopes
    return fp, problems, failed


def timed_run(workload, seed, seconds, preds, import_s, reference):
    setup_times = []
    inp = None
    for _ in range(SETUP_REPS):
        inp = None  # let the previous repetition's inputs be freed first
        t = time.perf_counter()
        inp = workload.setup(seed, WORKDIR)
        setup_times.append(time.perf_counter() - t)
    walls, problems, first = [], [], None
    attempted = failed = 0
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        wall, out = run_job(workload, inp, preds)
        refs = {"reference": reference} if reference else {}
        if first is not None:
            refs["first repetition"] = first
        fp, probs, failed_ops = verify(workload, inp, out, refs)
        first = first or fp
        walls.append(wall)
        problems += probs
        attempted += len(workload.ops())
        failed += len(failed_ops)
        del out
    wall = statistics.median(walls)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": wall,
        "windows_per_s": workload.n_windows(inp) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {"setup_times_s": setup_times, "import_s": import_s,
              "job_walls_s": walls}
    return metrics, attempted, failed, problems, first, detail


def traced_run(workload, seed, preds, reference):
    import spans
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        inp = workload.setup(seed, WORKDIR)
    refs = {"reference": reference} if reference else {}
    problems, attempted, failed = [], 0, 0
    walls, first = [], None
    for t in (None, tracer):
        wall, out = run_job(workload, inp, preds, t)
        fp, probs, failed_ops = verify(workload, inp, out, refs)
        refs = {**refs, "untraced run": fp}
        first = first or fp
        walls.append(wall)
        problems += probs
        attempted += len(workload.ops())
        failed += len(failed_ops)
    metrics = tracer.metrics()
    metrics["trace.unattributed_setup_s"] = metrics.pop("bench.setup_s")
    metrics["trace.unattributed_job_s"] = metrics.pop("bench.job_s")
    untraced, traced = walls
    metrics.update({"trace.untraced_job_s": untraced, "trace.traced_job_s": traced,
                    "trace.overhead_s": traced - untraced,
                    "trace.overhead_frac": (traced - untraced) / untraced})
    return metrics, attempted, failed, problems, first, {"spans": len(tracer.names)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    blas_cap = cap_blas_threads()
    import_program()
    import workloads  # imports numpy and the program: after the BLAS cap
    import_s = time.perf_counter() - START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    ref_path = REFERENCE_DIR / f"{workload.name}.json"
    reference = (json.loads(ref_path.read_text())
                 if args.seed == DEFAULT_SEED and ref_path.exists() else None)

    WORKDIR.mkdir(exist_ok=True)
    preds = workloads.Predictions()
    try:
        with preds.recording():
            if args.trace:
                result = traced_run(workload, args.seed, preds, reference)
            else:
                result = timed_run(workload, args.seed, args.seconds, preds,
                                   import_s, reference)
    finally:
        shutil.rmtree(WORKDIR / "cohort", ignore_errors=True)
    metrics, attempted, failed, problems, fp, detail = result
    if set(metrics) != set(units):
        raise SystemExit("perfbench: metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")

    env = environment(blas_cap)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": env, "metrics": metrics, "attempted": attempted,
              "failed": failed, "problems": problems, "detail": detail,
              "reference_checked": reference is not None,
              "fingerprint": {**fp, "seed": args.seed}}
    out_path = WORKDIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for scope, msg in problems[:20]:
        print(f"FAILED {scope}: {msg}")
    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_frac':<48} {failed / attempted:>16.6g} 1")
    print("env:", json.dumps(env))
    print("record:", out_path)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
