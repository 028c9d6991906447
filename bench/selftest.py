"""Self-test of the benchmark at toy sizes; it has no timing gate.

    python3 bench/selftest.py

Runs every workload shape with tiny n, p and replicate counts, end-to-end and
traced, and checks that each summary names exactly the metrics of
BENCHMARK.json with their units, that the workloads and their reasons match
it, and that the benchmark fails without printing a summary in a directory
that holds only BENCHMARK.json and the benchmark's files.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import RESULTS, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_summary(summary: dict, declared: list[dict], label: str) -> None:
    check(set(summary) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: summary keys {sorted(summary)}")
    check(isinstance(summary["attempted"], int) and summary["attempted"] >= 1,
          f"{label}: attempted = {summary['attempted']}")
    check(isinstance(summary["failed"], int) and summary["failed"] >= 0,
          f"{label}: failed = {summary['failed']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    check(got == want, f"{label}: metrics {got} != declared {want}")
    for k, v in summary["metrics"].items():
        check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
              f"{label}: {k} = {v['value']!r}")


def check_fails_without_sources() -> None:
    """The command exits non-zero, printing no summary, without the package."""
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(RESULTS, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-", dir=RESULTS)
    try:
        shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), bare)
        for p in bench["paths"]:
            shutil.copytree(os.path.join(CHECKOUT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = bench["workloads"][0]["name"]
        out = subprocess.run(bench["command"] + ["--workload", name, "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0, "benchmark succeeded without the package sources")
    check('"metrics"' not in out.stdout, "benchmark printed a summary without sources")


def main() -> None:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check({w["name"]: w["why"] for w in bench["workloads"]}
          == {k: v["why"] for k, v in WORKLOADS.items()},
          "BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            label = f"{name} trace={int(trace)}"
            summary, record = run_workload(name, seed=0, seconds=0, trace=trace, tiny=True)
            check_summary(summary, declared, label)
            prov = record["provenance"]
            for key in ("nproc", "blas", "blas_version", "blas_threads", "python",
                        "numpy", "scipy", "git_revision", "seed"):
                check(key in prov, f"{label}: provenance lacks {key}")
            check(record["why"] == WORKLOADS[name]["why"], f"{label}: why")
            print(f"ok  {label}: {len(summary['metrics'])} metrics, "
                  f"{summary['attempted']} operations")
    check_fails_without_sources()
    print("ok  fails without the package sources")
    print("selftest passed")


if __name__ == "__main__":
    main()
