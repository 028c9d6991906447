"""The benchmark's workloads: fixed experiment specs and their output checks.

Each workload is one `netamp.experiments.ExperimentSpec` (given here as plain
keyword arguments, so this module imports nothing from the package) plus the
harness thread count and the checks its CSVs must pass.  ``tiny`` overrides
shrink a workload to the same shape at toy sizes for the self-test.
"""

from __future__ import annotations

import csv
from collections import defaultdict

FIVE_ATOM = (-2.0, -1.0, 0.0, 1.0, 2.0)

WORKLOADS = {
    "mi_curve": {
        "why": ("figure1a family: pure scalar quadrature (minimize, fixed_point) "
                "with no matrices; the no-change control for every matrix layer"),
        "threads": 1,
        "spec": {"pipelines": ("mi",), "rho": 0.4, "slab": FIVE_ATOM,
                 "kappa_mi": 1.5, "lambdas": (0.0, 1.0, 3.0),
                 "deltas": (1.0, 4.0), "replicates": 1},
        "tiny": {"lambdas": (0.0, 1.0), "deltas": (1.0, 4.0)},
    },
    "fdr_sweep": {
        "why": ("table1-amp family: dense graph at n = p = 3000, so generate and "
                "amp.run dominate; one dataset per seed is shared by 3 Deltas and 2 pipelines"),
        "threads": 2,
        "spec": {"pipelines": ("amp", "fdr"), "n": 3000, "p": 3000, "rho": 0.07,
                 "b_p": 1500.0, "lambdas": (5.0,), "deltas": (0.5, 1.79, 3.26),
                 "replicates": 4},
        "tiny": {"n": 300, "p": 300, "b_p": 150.0, "replicates": 2},
    },
    "figure2_sweep": {
        "why": ("figure2a family: laplacian tune + fit take over 90% of the time; "
                "AMP on a near-empty graph, so design matvecs dominate its share"),
        "threads": 2,
        "spec": {"pipelines": ("amp", "baseline", "se"), "n": 2000, "p": 2000,
                 "rho": 0.7, "slab": (-1.0, 1.0), "b_p": 0.7, "lambdas": (3.0,),
                 "deltas": (0.5, 3.5), "replicates": 2},
        "tiny": {"n": 200, "p": 200, "replicates": 1},
    },
}

# pipelines whose every (lambda, Delta, replicate) is one harness job
REPLICATE_PIPELINES = ("amp", "fdr", "coverage", "baseline", "universality")


def spec_kwargs(name: str, seed: int, tiny: bool) -> dict:
    """Keyword arguments of the workload's ExperimentSpec for one seed."""
    w = WORKLOADS[name]
    kw = {"name": name, "base_seed": seed, **w["spec"]}
    if tiny:
        kw.update(w["tiny"])
    return kw


def operations(kw: dict) -> int:
    """Operations one run attempts: replicate jobs, or MI points when none."""
    grid = len(kw["lambdas"]) * len(kw["deltas"])
    jobs = sum(grid * kw["replicates"] for pl in kw["pipelines"]
               if pl in REPLICATE_PIPELINES)
    return jobs if jobs else grid


# ---------------------------------------------------------------------------
# reading the harness CSVs


def read_rows(path: str) -> tuple[list[dict], list[str]]:
    """(data rows, comment lines) of one harness CSV."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    return list(csv.DictReader(body)), comments


def failed_replicates(comments: list[str]) -> int:
    """Count the entries of a `# failed_replicates = seed:msg;...` trailer."""
    for ln in comments:
        key, _, note = ln[1:].partition("=")
        if key.strip() == "failed_replicates":
            return sum(1 for item in note.split(";")
                       if item.strip().partition(":")[0].isdigit())
    return 0


def _replicate_rows(rows: list[dict]) -> list[dict]:
    """Per-replicate rows; the aggregate rows carry 'mean' / 'stderr'."""
    return [r for r in rows if r["replicate"] not in ("mean", "stderr")]


def _by_delta(rows: list[dict], col: str) -> dict[float, list[float]]:
    out: dict[float, list[float]] = defaultdict(list)
    for r in _replicate_rows(rows):
        out[float(r["Delta"])].append(float(r[col]))
    return out


def _mean(vals: list[float]) -> float:
    return sum(vals) / len(vals)


def _first(rows: list[dict], col: str) -> dict[float, float]:
    return {float(r["Delta"]): float(r[col]) for r in _replicate_rows(rows)}


# ---------------------------------------------------------------------------
# output checks; each returns one message per failed check


def _check_pred_error(amp_rows: list[dict]) -> list[str]:
    bad = []
    se = _first(amp_rows, "se_pred_error")
    for delta, vals in _by_delta(amp_rows, "pred_error").items():
        rel = abs(_mean(vals) - se[delta]) / se[delta]
        if not rel <= 0.10:
            bad.append(f"Delta={delta}: AMP pred_error {_mean(vals):.6g} is "
                       f"{rel:.1%} from SE {se[delta]:.6g} (limit 10%)")
    return bad


def check_mi_curve(csvs: dict[str, list[dict]]) -> list[str]:
    rows = csvs["mi"]
    bad = [f"lambda={r['lambda']} Delta={r['Delta']}: fixed point and potential "
           f"minimizer do not coincide" for r in rows if r["coincide"] != "1"]
    mi = {(float(r["lambda"]), float(r["Delta"])): float(r["mi"]) for r in rows}
    lams = sorted({k[0] for k in mi})
    deltas = sorted({k[1] for k in mi})
    for lam in lams:
        for d0, d1 in zip(deltas, deltas[1:]):
            if not mi[(lam, d1)] < mi[(lam, d0)]:
                bad.append(f"lambda={lam}: MI not strictly decreasing from "
                           f"Delta={d0} to Delta={d1}")
    for delta in deltas:
        for l0, l1 in zip(lams, lams[1:]):
            if not mi[(l1, delta)] > mi[(l0, delta)]:
                bad.append(f"Delta={delta}: MI not strictly increasing from "
                           f"lambda={l0} to lambda={l1}")
    return bad


def check_fdr_sweep(csvs: dict[str, list[dict]]) -> list[str]:
    amp = csvs["amp"]
    bad = _check_pred_error(amp)
    se_ov = _first(amp, "se_overlap_pred")
    for delta, vals in _by_delta(amp, "overlap").items():
        gap = abs(_mean(vals) - se_ov[delta])
        if not gap <= 0.02:
            bad.append(f"Delta={delta}: AMP overlap {_mean(vals):.6g} is {gap:.4g} "
                       f"from SE {se_ov[delta]:.6g} (limit 0.02)")
    for r in _replicate_rows(csvs["fdr"]):
        for col in ("fdp", "tdp", "fdp_stepup", "tdp_stepup"):
            v = float(r[col])
            if not 0.0 <= v <= 1.0:
                bad.append(f"Delta={r['Delta']} replicate={r['replicate']}: "
                           f"{col} = {v} outside [0, 1]")
    return bad


def check_figure2_sweep(csvs: dict[str, list[dict]]) -> list[str]:
    amp = csvs["amp"]
    bad = _check_pred_error(amp)
    base = _by_delta(csvs["baseline"], "pred_error")
    for delta, vals in _by_delta(amp, "pred_error").items():
        if not _mean(vals) <= _mean(base[delta]):
            bad.append(f"Delta={delta}: AMP pred_error {_mean(vals):.6g} above "
                       f"the baseline's {_mean(base[delta]):.6g}")
    return bad


CHECKS = {"mi_curve": check_mi_curve, "fdr_sweep": check_fdr_sweep,
          "figure2_sweep": check_figure2_sweep}
