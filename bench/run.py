"""netamp benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload mi_curve|fdr_sweep|figure2_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Every repetition is a fresh `bench/worker.py` process (see there).

`--trace 0` first starts SETUP_PROBES processes that only import the package
and build the spec, then repeats the whole experiment until S seconds of
repetitions have passed (at least one), and reports medians of wall_s, cpu_s,
peak_rss_mb and setup_s, plus ok_frac, the share of operations that neither
failed nor failed an output check.  `--trace 1` makes one traced run with
harness threads = 1 and reports the per-layer metrics of `tracing.py`.

The full record (provenance, every sample, the spans) goes to
`.bench_results/<workload>-seed<N>-trace<T>.json` in the checkout; the last
stdout line is the summary `{"correct", "attempted", "failed", "metrics"}`.
The process exits non-zero without a summary when a repetition fails to
start, crashes or would overrun TIME_LIMIT_S.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(CHECKOUT, ".bench_results")
sys.path.insert(0, HERE)

from tracing import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "fraction"}


class BenchError(RuntimeError):
    """A repetition could not be measured."""


def _child(workload: str, seed: int, mode: str, tiny: bool, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON record."""
    work = os.path.join(RESULTS, "work")
    os.makedirs(work, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--out-dir", out_dir] + (["--tiny"] if tiny else [])
    try:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=CHECKOUT,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)    # the worker and its pool
            proc.communicate()
            raise BenchError(f"{workload} {mode} repetition overran the time limit")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload} {mode} worker printed no record: {exc}") from exc


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, dict]:
    """(summary, full record) of one benchmark run."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "netamp", "__init__.py")):
        raise BenchError(f"no netamp sources under {CHECKOUT}/src")
    if trace:
        reps = [_child(workload, seed, "trace", tiny, deadline)]
        setups = []
    else:
        setups = [_child(workload, seed, "setup", tiny, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        reps, start = [], time.monotonic()
        while not reps or time.monotonic() - start < seconds:
            reps.append(_child(workload, seed, "run", tiny, deadline))
        setups += [r["setup_s"] for r in reps]

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in reps[0]["layers"].items()}
    else:
        values = {k: statistics.median(r[k] for r in reps)
                  for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        values["ok_frac"] = 1.0 - failed / attempted
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    summary = {"correct": all(not r["check_failures"] for r in reps),
               "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": workload, "why": WORKLOADS[workload]["why"],
              "seconds": seconds, "trace": int(trace), "tiny": tiny,
              "provenance": reps[0]["provenance"], "setup_samples": setups,
              "repetitions": reps, "summary": summary}
    return summary, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        summary, record = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in (p for r in record["repetitions"] for p in r["check_failures"]):
        print(f"output check failed: {problem}", file=sys.stderr)
    print(f"full record: {os.path.relpath(path, CHECKOUT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
