"""One repetition of a benchmark workload, in a fresh Python process.

    python3 bench/worker.py --workload NAME --seed N --mode setup|run|trace \
        --t0 MONOTONIC --out-dir DIR [--tiny]

BLAS is pinned to one thread before numpy is imported.  `netamp` is imported
from the checkout's `src/` and nowhere else.  `--t0` is the parent's
`time.monotonic()` just before it started this process, so `setup_s` covers
interpreter start-up, the package import and building the spec.

Modes: `setup` stops there; `run` times one `run_experiment` call with the
workload's thread count; `trace` runs it with threads = 1 under `Tracer` and
adds the kernel probes.  The last stdout line is one JSON record.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
sys.path.insert(0, HERE)

from tracing import ROOT_SPAN, Tracer, kernel_probes  # noqa: E402
from workloads import (CHECKS, WORKLOADS, failed_replicates, operations,  # noqa: E402
                       read_rows, spec_kwargs)


def import_harness():
    """netamp.experiments from the checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "netamp", "__init__.py")):
        raise SystemExit(f"no netamp sources under {SRC}")
    sys.path.insert(0, SRC)
    import netamp.experiments as ex
    if os.path.dirname(os.path.dirname(ex.__file__)) != SRC:
        raise SystemExit(f"netamp imported from {ex.__file__}, not {SRC}")
    return ex


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its largest child's peak RSS (ru_maxrss is KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def git_revision():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=CHECKOUT, text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], CHECKOUT):
        return None
    return lines[1]


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_revision": git_revision(),
            "seed": seed}


def check_outputs(name: str, kw: dict, out_dir: str) -> tuple[int, list[str]]:
    """(failed replicate jobs, failed output checks) of one run's CSVs."""
    csvs, failed = {}, 0
    for pl in kw["pipelines"]:
        path = os.path.join(out_dir, f"{name}_{pl}.csv")
        if not os.path.exists(path):
            return failed, [f"missing output {os.path.basename(path)}"]
        rows, comments = read_rows(path)
        csvs[pl] = rows
        failed = max(failed, failed_replicates(comments))
    try:
        return failed, CHECKS[name](csvs)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return failed, [f"check could not run: {type(exc).__name__}: {exc}"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    ex = import_harness()
    kw = spec_kwargs(args.workload, args.seed, args.tiny)
    spec = ex.ExperimentSpec(**kw)
    rec = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(rec))
        return

    tracer, threads = None, WORKLOADS[args.workload]["threads"]
    if args.mode == "trace":                  # one process, so every span is seen
        tracer, threads = Tracer(), 1
        tracer.install(ex)
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        ex.run_experiment(spec, args.out_dir, threads=threads, overwrite=True)
    except ex.ReplicateFailures as exc:       # outputs are written before it is raised
        print(f"replicate failures: {exc}", file=sys.stderr)
    rec["wall_s"] = time.perf_counter() - t0
    rec["cpu_s"] = cpu_seconds() - cpu0
    rec["peak_rss_mb"] = peak_rss_mb()

    failed_reps, problems = check_outputs(args.workload, kw, args.out_dir)
    attempted = operations(kw)
    rec.update(attempted=attempted, failed_replicates=failed_reps,
               check_failures=problems,
               failed=min(attempted, failed_reps + len(problems)),
               provenance=provenance(args.seed))
    if tracer:
        rec["layers"] = tracer.layer_metrics(rec["wall_s"])
        rec["layers"]["experiments.failed_frac"] = rec["failed"] / attempted
        rec["layers"].update(kernel_probes(spec, args.seed))
        rec["spans"] = [{"name": ROOT_SPAN, "parent": None, "start": t0,
                         "end": t0 + rec["wall_s"]}] + tracer.spans
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
