"""Experiment orchestration: seeded replicate loops and CSV emission.

An ExperimentSpec names a model family (with optional sweeps over the noise
level and the graph SNR), a replicate budget and the pipelines to run.  Each
pipeline writes one CSV with a commented metadata header (schema version,
spec echo, seeds, timestamp) followed by per-replicate rows and trailing
aggregate rows.  Replaying a spec with the same seeds reproduces the payload
byte-for-byte apart from the timestamp line.

Built-in specs cover the standard figure and table reproductions at desk
scale (n = p = 2000, 20 replicates by default; override via a config file).
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import math
import os
import time
from collections.abc import Callable
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .amp import AmpConfig, run, run_draw  # noqa: F401  (bench/tracing.py wraps run)
from .inference import credible_intervals, discover, mse_beta, pvalues
from .laplacian import LapConfig, LapTune, fit, tune
from .priors import MIN_QUAD_ORDER, PriorSpec, QuadratureRule
from .rs_potential import coincide, minimize
from .state_evolution import fixed_point, predicted_errors, se_run
from .synth import ModelParams, generate, snr_to_ap, with_delta

__all__ = ["ExperimentSpec", "run_experiment", "builtin_spec", "BUILTIN_NAMES",
           "load_spec_file"]

SCHEMA_VERSION = "netamp-csv-1"


# ---------------------------------------------------------------------------
# pipelines: the row each replicate unit makes, and what each CSV holds


def _amp_row(spec, ds, res, trace):
    return {"overlap": float(res.overlap[spec.T]),
            "mse_beta": float(res.mse_beta[spec.T]),
            "pred_error": float(res.pred_error[spec.T])}


def _fdr_row(spec, ds, res, trace):
    pv = pvalues(res.sigma_iter, float(trace.nu[spec.T]))
    d = discover(pv, spec.rho, spec.alpha, truth=ds.sigma0)
    # textbook step-up threshold recorded alongside for comparison
    d_up = discover(pv, spec.rho, spec.alpha, truth=ds.sigma0, variant="step-up")
    return {"alpha": spec.alpha, "fdp": d.empirical_fdp, "tdp": d.empirical_tdp,
            "n_rejected": len(d.rejected), "fdp_stepup": d_up.empirical_fdp,
            "tdp_stepup": d_up.empirical_tdp}


def _coverage_row(spec, ds, res, trace):
    ci = credible_intervals(res.sigma_iter, float(trace.eta[spec.T]),
                            float(trace.nu[spec.T]), spec.alpha, truth=ds.sigma0)
    return {"alpha": spec.alpha, "coverage": ci.empirical_coverage}


def _universality_row(spec, ds, runs, trace):
    res, sur = runs                 # the sbm-mode and surrogate-mode runs (`_paired`)
    o_sbm, o_sur = float(res.overlap[spec.T]), float(sur.overlap[spec.T])
    return {"overlap_sbm": o_sbm, "overlap_surrogate": o_sur, "gap": abs(o_sbm - o_sur)}


def _baseline_row(ds, cfg):
    res = fit(ds, cfg)
    return {"pred_error": mse_beta(ds.Phi, res.beta, ds.beta0), "lambda1": cfg.lambda1,
            "lambda2": cfg.lambda2, "converged": int(res.converged)}


@dataclass(frozen=True)
class _Pipeline:
    columns: tuple[str, ...]                 # after (lambda, Delta)
    averaged: tuple[str, ...] = ()           # get mean/stderr rows; replicate pipelines only
    amp_row: Callable | None = None          # row from the shared sbm-mode AMP run
    # (the universality row gets that run paired with the surrogate-mode one)


# every pipeline, in CSV and failure-trailer order
_PIPELINES = {
    "se": _Pipeline(("t", "eta", "nu", "tau", "mu", "xi", "mu_star", "xi_star",
                     "residual")),
    "mi": _Pipeline(("mu_bar", "xi_bar", "mi", "mu_star", "xi_star", "coincide")),
    "amp": _Pipeline(("replicate", "overlap", "mse_beta", "pred_error",
                      "se_overlap_pred", "se_pred_error"),
                     ("overlap", "mse_beta", "pred_error"), _amp_row),
    "baseline": _Pipeline(("replicate", "pred_error", "lambda1", "lambda2", "converged"),
                          ("pred_error",)),
    "fdr": _Pipeline(("replicate", "alpha", "fdp", "tdp", "n_rejected", "fdp_stepup",
                      "tdp_stepup"),
                     ("fdp", "tdp", "n_rejected", "fdp_stepup", "tdp_stepup"), _fdr_row),
    "coverage": _Pipeline(("replicate", "alpha", "coverage"), ("coverage",), _coverage_row),
    "universality": _Pipeline(("replicate", "overlap_sbm", "overlap_surrogate", "gap"),
                              ("overlap_sbm", "overlap_surrogate", "gap"),
                              _universality_row),
}
VALID_PIPELINES = tuple(_PIPELINES)
# pipelines with one unit per (lambda, Delta, seed)
REPLICATE_PIPELINES = tuple(pl for pl, d in _PIPELINES.items() if d.averaged)
# pipelines that read the one sbm-mode AMP run of their (lambda, Delta, seed)
AMP_PIPELINES = tuple(pl for pl, d in _PIPELINES.items() if d.amp_row)


def _draw_problems(spec: ExperimentSpec) -> list[str]:
    """What the draws' `_make_params` would reject at spec's nonnegative
    lambdas, checked by `synth.snr_to_ap`: a b_p outside (0, p), or a lambda
    too large for it."""
    problems = []
    for lam in spec.lambdas:
        if lam >= 0:
            try:
                snr_to_ap(lam, spec.b_p, spec.p)
            except ValueError as exc:
                problems.append(f"{exc} at lambda {lam}, b_p {spec.b_p} and p {spec.p}")
    return problems


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    pipelines: tuple[str, ...]
    n: int = 2000
    p: int = 2000
    rho: float = 0.7
    slab: tuple[float, ...] = (-1.0, 1.0)
    atoms0: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    b_p: float = 0.7
    lambdas: tuple[float, ...] = (3.0,)
    deltas: tuple[float, ...] = (1.0,)
    design: str = "gaussian"
    replicates: int = 20
    base_seed: int = 0
    T: int = 25
    quad_order: int = 41
    alpha: float = 0.1
    kappa_mi: float | None = None      # overrides n/p; se and mi pipelines only

    def __post_init__(self):
        problems = []
        bad = [pl for pl in self.pipelines if pl not in VALID_PIPELINES]
        if bad:
            problems.append(f"unknown pipelines {bad} (valid: {VALID_PIPELINES})")
        if self.replicates < 1:
            problems.append("replicates must be at least 1")
        if not self.lambdas or not self.deltas:
            problems.append("sweep grids must be nonempty")
        if not all(d > 0 for d in self.deltas):
            problems.append("every Delta must be positive")
        if not all(lam >= 0 for lam in self.lambdas):
            problems.append("lambdas must be nonnegative")
        if any(len(set(grid)) < len(grid) for grid in (self.lambdas, self.deltas)):
            problems.append("sweep grids must not repeat a value")
        if self.n < 1 or self.p < 1:
            problems.append("n and p must be positive")
        if not 0.0 < self.rho < 1.0:
            problems.append("rho must be in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            problems.append("alpha must be in (0, 1)")
        if self.T < 1:
            problems.append("T must be at least 1")
        if self.quad_order < MIN_QUAD_ORDER:
            problems.append(f"quadrature order must be at least {MIN_QUAD_ORDER}")
        if self.design not in ("gaussian", "bernoulli"):
            problems.append(f"unknown design {self.design!r}")
        if self.kappa_mi is not None and not self.kappa_mi > 0:
            problems.append("kappa must be positive")
        if any(pl in REPLICATE_PIPELINES for pl in self.pipelines):
            problems += _draw_problems(self)
        amp_pls = [pl for pl in self.pipelines if pl in AMP_PIPELINES]
        if self.kappa_mi is not None and amp_pls:
            # their runs see data drawn at n/p, so a trace at kappa_mi would not track them
            problems.append(f"kappa_mi applies to se and mi pipelines only, "
                            f"not to {amp_pls}; set n and p instead")
        if problems:
            raise ValueError("invalid experiment spec: " + "; ".join(problems))

    def prior(self) -> PriorSpec:
        k = len(self.slab)
        return PriorSpec(rho=self.rho, atoms0=self.atoms0,
                         atoms1=tuple((v, 1.0 / k) for v in self.slab))

    def kappa(self) -> float:
        return self.kappa_mi if self.kappa_mi is not None else self.n / self.p


# ---------------------------------------------------------------------------
# built-in specs

_FIVE = (-2.0, -1.0, 0.0, 1.0, 2.0)
_FIG2_DELTAS = tuple(np.linspace(0.2, 4.0, 20).round(12).tolist())

_BUILTIN_SPECS = {
    "smoke": ExperimentSpec(
        name="smoke", pipelines=("amp", "se", "fdr", "coverage", "baseline"),
        n=200, p=200, rho=0.3, b_p=20.0, lambdas=(3.0,), deltas=(1.0,),
        replicates=1, T=10),
    "figure1a": ExperimentSpec(
        name="figure1a", pipelines=("mi",), rho=0.4, slab=_FIVE,
        kappa_mi=1.5, lambdas=(0.0, 1.0, 2.0, 3.0),
        deltas=(0.5, 1.0, 2.0, 4.0), replicates=1),
    "figure1b": ExperimentSpec(
        name="figure1b", pipelines=("mi",), rho=0.4, slab=_FIVE,
        kappa_mi=1.5, lambdas=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        deltas=(0.5, 1.0, 2.0), replicates=1),
    "figure2a": ExperimentSpec(
        name="figure2a", pipelines=("amp", "baseline", "se"),
        lambdas=(3.0,), deltas=_FIG2_DELTAS),
    "figure2b": ExperimentSpec(
        name="figure2b", pipelines=("amp", "baseline", "se"),
        lambdas=(5.0,), deltas=_FIG2_DELTAS),
    "figure3": ExperimentSpec(
        name="figure3", pipelines=("amp", "baseline", "se"), design="bernoulli",
        lambdas=(3.0, 5.0), deltas=_FIG2_DELTAS),
    "table1-amp": ExperimentSpec(
        name="table1-amp", pipelines=("fdr",), n=3000, p=3000, rho=0.07,
        b_p=1500.0, lambdas=(5.0, 10.0),
        deltas=(0.5, 1.05, 1.79, 2.52, 3.26, 4.0)),
    "fdr-calibration": ExperimentSpec(
        name="fdr-calibration", pipelines=("fdr",), n=3000, p=3000,
        rho=0.07, b_p=1500.0, lambdas=(5.0,), deltas=(1.0,), replicates=60),
    "coverage-calibration": ExperimentSpec(
        name="coverage-calibration", pipelines=("coverage",), n=3000, p=3000,
        rho=0.07, b_p=1500.0, lambdas=(5.0,), deltas=(1.0,), replicates=20),
    "universality-check": ExperimentSpec(
        name="universality-check", pipelines=("universality",),
        b_p=200.0, lambdas=(3.0,), deltas=(1.0,), replicates=8),
}

BUILTIN_NAMES = tuple(_BUILTIN_SPECS)


def builtin_spec(name: str) -> ExperimentSpec:
    if name not in _BUILTIN_SPECS:
        raise ValueError(f"unknown built-in spec {name!r}; have {sorted(_BUILTIN_SPECS)}")
    return _BUILTIN_SPECS[name]


def floats(s) -> tuple[float, ...]:
    """Parse a comma-separated list of floats, skipping empty entries."""
    return tuple(float(x) for x in str(s).split(",") if str(x).strip())


def _names(s) -> tuple[str, ...]:
    return tuple(x.strip() for x in s.split(","))


# spec file section -> key (as configparser lowercases it) -> (spec field, parser)
_SPEC_FILE_KEYS = {
    "experiment": {"name": ("name", str), "pipelines": ("pipelines", _names),
                   "replicates": ("replicates", int), "base_seed": ("base_seed", int),
                   "t": ("T", int), "quad_order": ("quad_order", int),
                   "alpha": ("alpha", float)},
    "model": {"n": ("n", int), "p": ("p", int), "rho": ("rho", float),
              "slab": ("slab", floats), "b_p": ("b_p", float),
              "lambda": ("lambdas", floats), "delta": ("deltas", floats),
              "design": ("design", str), "kappa": ("kappa_mi", float)},
}


def load_spec_file(path: str) -> ExperimentSpec:
    """Parse a flat key = value spec file with [experiment] and [model] sections.

    A section or key the format does not name is an error, not ignored.
    """
    import configparser

    cp = configparser.ConfigParser()
    with open(path) as fh:
        try:
            cp.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"spec file {path}: {exc}") from exc
    if not cp.has_section("experiment"):
        raise ValueError(f"spec file {path} has no [experiment] section")
    if cp.defaults():               # its keys would show up in every section
        raise ValueError(f"spec file {path}: unknown section [{cp.default_section}]")
    kwargs: dict = {"name": os.path.basename(path), "pipelines": ("amp",)}
    for section in cp.sections():
        if section not in _SPEC_FILE_KEYS:
            raise ValueError(f"spec file {path}: unknown section [{section}]")
        for key, value in cp[section].items():
            if key not in _SPEC_FILE_KEYS[section]:
                raise ValueError(f"spec file {path}: unknown key {key!r} in [{section}]")
            field, parse = _SPEC_FILE_KEYS[section][key]
            kwargs[field] = parse(value)
    return ExperimentSpec(**kwargs)


# ---------------------------------------------------------------------------
# CSV plumbing


def check_out_dir(out_dir: str) -> None:
    """Raise FileExistsError when out_dir cannot be made a directory.

    That is when out_dir, or the nearest of its parents that exists, is not
    a directory.  Run before any work, so such an output path fails at once
    instead of when the outputs are written.
    """
    head = out_dir
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), head)


class CsvSink:
    def __init__(self, path: str, columns: list[str], meta: dict, overwrite: bool):
        check_out_dir(os.path.dirname(path))
        if os.path.exists(path) and not overwrite:
            raise FileExistsError(f"{path} exists; pass overwrite to replace it")
        self.path = path
        self.columns = columns
        self.rows: list[list] = []
        self.meta = meta

    def add(self, **kv):
        self.rows.append([kv.get(c, "") for c in self.columns])

    @staticmethod
    def _fmt(v) -> str:
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    def write(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "w", newline="") as fh:
            fh.write(f"# schema = {SCHEMA_VERSION}\n")
            fh.write(f"# version = {__version__}\n")
            fh.write(f"# timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
            for k, v in self.meta.items():
                fh.write(f"# {k} = {v}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(self._fmt(v) for v in row) + "\n")


def pipeline_sink(path: str, pl: str, meta: dict, overwrite: bool) -> CsvSink:
    """A CsvSink with the columns of pipeline pl's harness CSV."""
    return CsvSink(path, ["lambda", "Delta", *_PIPELINES[pl].columns], meta, overwrite)


def _aggregate(sink: CsvSink, value_cols: tuple[str, ...]):
    """Append mean and stderr rows per (lambda, Delta), recomputed from the data rows."""
    groups: dict[tuple, list] = {}
    for row in sink.rows:                        # every row starts with lambda, Delta
        groups.setdefault(tuple(row[:2]), []).append(row)
    for (lam, delta), rows in groups.items():
        vals = {c: np.array([r[sink.columns.index(c)] for r in rows], float)
                for c in value_cols}
        sink.add(**{"lambda": lam, "Delta": delta, "replicate": "mean"},
                 **{c: float(v.mean()) for c, v in vals.items()})
        sink.add(**{"lambda": lam, "Delta": delta, "replicate": "stderr"},
                 **{c: float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
                    for c, v in vals.items()})


# ---------------------------------------------------------------------------
# replicate jobs (top level so a process pool can pickle them)


def _make_params(spec: ExperimentSpec, lam: float, delta: float) -> ModelParams:
    return ModelParams.from_snr(n=spec.n, p=spec.p, Delta=delta, b_p=spec.b_p,
                                lam=lam, prior=spec.prior(),
                                design_dist=spec.design)


def _failure(exc: Exception) -> tuple[str, str]:
    return ("err", f"{type(exc).__name__}: {exc}")


def _attempt(fn, *args, **kwargs) -> tuple[str, object]:
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:          # replicate failures are recorded, not fatal
        return _failure(exc)


def _isolated(ds, gen):
    """One run's generator, returning ("ok", result) or ("err", message).

    The per-run hook that `_replicate_job` passes to `run_draw`: a run that
    raises fails its own units only, and the other runs of the draw go on.
    ``ds`` names the run, so a replacement hook can single one out.
    """
    try:
        return ("ok", (yield from gen))
    except Exception as exc:          # replicate failures are recorded, not fatal
        return _failure(exc)


def _paired(sbm, surrogate) -> tuple[str, object]:
    """A universality unit's outcome: the sbm run's error, else the surrogate
    run's, else ("ok", (sbm result, surrogate result))."""
    for outcome in (sbm, surrogate):
        if outcome[0] == "err":
            return outcome
    return ("ok", (sbm[1], surrogate[1]))


def _replicate_job(args) -> dict:
    """Every (pipeline, Delta) unit of one (lambda, seed).

    One draw at the first Delta, re-noised for each other Delta, and one
    sbm-mode run per Delta shared by the AMP pipelines; with the universality
    pipeline, one surrogate-mode run per Delta too.  All of them go in
    lockstep through one `run_draw` call.  Returns {(pipeline, Delta):
    ("ok", row) | ("err", message)}; a failed draw or run is reported on
    every unit that needed it.  ``cfgs`` maps Delta to the tuned baseline
    config, or to None where tuning failed.
    """
    spec, lam, seed, traces, cfgs = args
    pls = [pl for pl in REPLICATE_PIPELINES if pl in spec.pipelines]
    amp_pls = [pl for pl in pls if pl in AMP_PIPELINES]
    units: dict = {}
    try:
        base = generate(_make_params(spec, lam, spec.deltas[0]), seed)
    except Exception as exc:
        return {(pl, delta): _failure(exc) for pl in pls for delta in spec.deltas}
    draws = {}
    for delta in spec.deltas:
        try:
            ds = base if delta == base.params.Delta else with_delta(base, delta)
        except Exception as exc:
            units.update({(pl, delta): _failure(exc) for pl in pls})
            continue
        draws[delta] = ds
        if "baseline" in pls and cfgs[delta] is not None:
            units[("baseline", delta)] = _attempt(_baseline_row, ds, cfgs[delta])
    if not amp_pls:
        return units
    modes = ["sbm", "gaussian-surrogate"] if "universality" in amp_pls else ["sbm"]
    ran = run_draw([*draws.values()] * len(modes),
                   [AmpConfig(T=spec.T, matrix_mode=mode, record_history=False)
                    for mode in modes for _ in draws],
                   [traces[delta] for delta in draws] * len(modes), wrap=_isolated)
    for k, (delta, ds) in enumerate(draws.items()):
        for pl in amp_pls:
            outcome = (_paired(ran[k], ran[len(draws) + k]) if pl == "universality"
                       else ran[k])
            units[(pl, delta)] = (outcome if outcome[0] == "err" else
                                  _attempt(_PIPELINES[pl].amp_row, spec, ds, outcome[1],
                                           traces[delta]))
    return units


def _tune_job(args) -> LapTune:
    spec, lam, delta = args
    tune_ds = generate(_make_params(spec, lam, delta), spec.base_seed + spec.replicates)
    return tune(tune_ds, _lap_grid(tune_ds), seed=spec.base_seed)


def _note_unconverged_tunes(path: str, tunes: dict[tuple, LapTune]) -> None:
    """Append `# unconverged_tune_fits = lambda:Delta:k/m;...` to the CSV at path.

    k of the tune's m grid fits stopped at max_iter; a tune whose every fit
    converged is left out, and nothing is written when no tune is left.
    """
    note = ";".join(f"{lam}:{delta}:{t.converged.count(False)}/{len(t.converged)}"
                    for (lam, delta), t in tunes.items() if not all(t.converged))
    if note:
        with open(path, "a") as fh:
            fh.write(f"# unconverged_tune_fits = {note}\n")


class ReplicateFailures(RuntimeError):
    """Raised after writing outputs when too many replicates failed."""


class _InProcess:
    """Executor stand-in that runs each job when it is submitted."""

    def submit(self, fn, *args) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


def _lap_grid(dataset) -> list[LapConfig]:
    lam_max = float(np.max(np.abs(dataset.Phi.T @ dataset.y)))
    return [LapConfig(lambda1=f1 * lam_max, lambda2=f2, max_iter=400, tol=1e-6)
            for f1 in (0.02, 0.1, 0.3) for f2 in (0.0, 1.0, 4.0)]


# ---------------------------------------------------------------------------
# pipelines


def run_experiment(spec: ExperimentSpec, out_dir: str, threads: int = 1,
                   overwrite: bool = False, progress=None) -> dict[str, str]:
    """Run all pipelines of a spec; returns {pipeline: csv path}.

    Replicate seeds are base_seed + replicate index, identical across
    pipelines so estimators and baselines face the same datasets.  Each
    (lambda, seed) is one job: one draw, re-noised for each other Delta, and
    one AMP run per Delta that every AMP pipeline reads.  The baseline's tuning
    runs first, one job per (lambda, Delta).  With threads > 1 all jobs share
    one process pool; otherwise they run in this process.  The CSVs are then
    written in pipeline order, one (lambda, Delta) group at a time.
    """
    quad = QuadratureRule.gauss_hermite(spec.quad_order)
    prior = spec.prior()
    kappa = spec.kappa()
    seeds = [spec.base_seed + r for r in range(spec.replicates)]
    meta = {"experiment": spec.name, "seeds": f"{seeds[0]}..{seeds[-1]}",
            "spec": dataclasses.asdict(spec)}
    say = progress if progress is not None else (lambda s: None)
    # every output is claimed before any work, so an existing file fails fast
    sinks = {pl: pipeline_sink(os.path.join(out_dir, f"{spec.name}_{pl}.csv"), pl, meta,
                               overwrite)
             for pl in _PIPELINES if pl in spec.pipelines}

    traces = {}
    if any(pl in spec.pipelines for pl in AMP_PIPELINES + ("se",)):
        for lam in spec.lambdas:
            for delta in spec.deltas:
                say(f"state evolution lam={lam} Delta={delta}")
                traces[(lam, delta)] = se_run(prior, lam, kappa, delta,
                                              T=spec.T + 1, quad=quad)

    fixed_points = {}

    def fp_at(lam, delta):
        """fixed_point at (lam, Delta), computed once for all pipelines."""
        if (lam, delta) not in fixed_points:
            fixed_points[(lam, delta)] = fixed_point(prior, lam, kappa, delta, quad=quad)
        return fixed_points[(lam, delta)]

    pls = [pl for pl in REPLICATE_PIPELINES if pl in spec.pipelines]
    tune_keys = ([(lam, delta) for lam in spec.lambdas for delta in spec.deltas]
                 if "baseline" in pls else [])
    job_keys = [(lam, seed) for lam in spec.lambdas for seed in seeds] if pls else []
    workers = min(threads, max(len(tune_keys), len(job_keys)))
    with (ProcessPoolExecutor(workers) if workers > 1
          else contextlib.nullcontext(_InProcess())) as pool:
        tuned = {}
        for lam, delta in tune_keys:
            say(f"baseline tuning lam={lam} Delta={delta}")
            tuned[(lam, delta)] = pool.submit(_tune_job, (spec, lam, delta))
        # a failed tune is raised where the baseline CSV reaches it
        cfgs = {key: None if fut.exception() else fut.result().config
                for key, fut in tuned.items()}
        jobs = {}
        for lam, seed in job_keys:
            say(f"replicate lam={lam} seed={seed}")
            jobs[(lam, seed)] = pool.submit(_replicate_job, (
                spec, lam, seed, {d: traces.get((lam, d)) for d in spec.deltas},
                {d: cfgs.get((lam, d)) for d in spec.deltas}))
        units = {(pl, lam, delta, seed): outcome
                 for (lam, seed), fut in jobs.items()
                 for (pl, delta), outcome in fut.result().items()}

    failures: list[tuple[int, str]] = []    # (seed, message) per failed unit

    def rows(pl, lam, delta) -> list[dict]:
        """Pipeline pl's rows at (lam, Delta), keyed by column name."""
        if pl == "se":
            tr, fp = traces[(lam, delta)], fp_at(lam, delta)
            return [*({"t": t, "eta": float(tr.eta[t]), "nu": float(tr.nu[t]),
                       "tau": float(tr.tau[t]), "mu": float(tr.mu[t]),
                       "xi": float(tr.xi[t])} for t in range(len(tr))),
                    {"t": "fixed_point", "mu_star": fp.mu_star,
                     "xi_star": fp.xi_star, "residual": fp.residual}]
        if pl == "mi":
            say(f"mi lam={lam} Delta={delta}")
            fp = fp_at(lam, delta)
            ev = minimize(prior, lam, kappa, delta, quad=quad, uninformative=fp)
            return [{"mu_bar": ev.mu_bar, "xi_bar": ev.xi_bar, "mi": ev.value,
                     "mu_star": fp.mu_star, "xi_star": fp.xi_star,
                     "coincide": int(coincide(fp, ev))}]
        se_cols = {}
        if pl == "amp":
            _, beta_pred = predicted_errors(fp_at(lam, delta), prior, lam, delta)
            se_cols = {"se_overlap_pred": float(traces[(lam, delta)].nu[spec.T + 1] ** 2),
                       "se_pred_error": beta_pred}
        elif pl == "baseline":
            tuned[(lam, delta)].result()         # raises if this tune failed
        group = []
        for seed in seeds:
            status, value = units[(pl, lam, delta, seed)]
            if status == "ok":
                group.append({"replicate": seed, **value, **se_cols})
            else:
                failures.append((seed, value))
        return group

    written: dict[str, str] = {}
    for pl, sink in sinks.items():
        for lam in spec.lambdas:
            for delta in spec.deltas:
                for row in rows(pl, lam, delta):
                    sink.add(**{"lambda": lam, "Delta": delta, **row})
        if _PIPELINES[pl].averaged:
            _aggregate(sink, _PIPELINES[pl].averaged)
        sink.write()
        written[pl] = sink.path
        if pl == "baseline":
            _note_unconverged_tunes(sink.path, {key: fut.result() for key, fut in tuned.items()})

    if failures:
        total = len(pls) * len(spec.lambdas) * len(spec.deltas) * len(seeds)
        note = ";".join(f"{s}:{m}" for s, m in failures)
        for path in written.values():
            with open(path, "a") as fh:
                fh.write(f"# failed_replicates = {note}\n")
        if len(failures) > 0.1 * max(total, 1):
            raise ReplicateFailures(
                f"{len(failures)} of {total} replicate jobs failed: {note}")
    return written
