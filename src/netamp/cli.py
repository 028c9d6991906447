"""Command-line interface.

Subcommands map one-to-one onto the library surface:

    generate      draw a dataset and write it to a directory
    amp-run       run the estimator on a stored dataset, write per-iteration CSV
    se-solve      state-evolution trace + fixed point (the harness's se CSV)
    mi-curve      limiting mutual information over a lambda x Delta grid (mi CSV)
    fdr-sim       replicate loop for FDP/TDP at a given level (fdr CSV)
    coverage-sim  replicate loop for credible-interval coverage (coverage CSV)
    baseline-lap  tuned Laplacian-penalized baseline on a stored dataset
                  (one row of the harness's baseline CSV)
    experiment    run a built-in or file-defined experiment spec

se-solve, mi-curve, fdr-sim and coverage-sim build an experiment spec from
the flags given, with ExperimentSpec's defaults for the rest, and run it
through the experiment harness, which writes <out>/<subcommand>_<pipeline>.csv;
--lam and --Delta take comma-separated grids.  amp-run writes the one CSV the
harness has no pipeline for, the per-iteration history <out>/amp_run.csv.

All CSVs use ',' separators, '.' decimals, UTF-8 and LF line endings.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from argparse import SUPPRESS

from .amp import AmpConfig, run
from .experiments import (BUILTIN_NAMES, CsvSink, ExperimentSpec,
                          ReplicateFailures, _baseline_row, _draw_problems, _lap_grid,
                          _make_params, _note_unconverged_tunes, builtin_spec,
                          check_out_dir, floats, load_spec_file, pipeline_sink,
                          run_experiment)
from .laplacian import tune
from .priors import DEFAULT_QUAD, MIN_QUAD_ORDER, QuadratureRule
from .state_evolution import se_run
from .synth import Dataset, generate, load_dataset, save_dataset

_SPEC_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentSpec))


def _spec(ap: argparse.ArgumentParser, args, base: ExperimentSpec | None = None
          ) -> ExperimentSpec:
    """``base``, or a spec named after the subcommand, with the fields that the
    arguments set (a spec-field flag has default=SUPPRESS, so a field whose flag
    is not given keeps its default); invalid is a usage error (exit status 2)."""
    given = {k: v for k, v in vars(args).items() if k in _SPEC_FIELDS}
    try:
        return (dataclasses.replace(base, **given) if base is not None
                else ExperimentSpec(name=args.cmd, **given))
    except ValueError as exc:
        ap.error(str(exc))


def _load(ap: argparse.ArgumentParser, data: str) -> Dataset:
    """load_dataset; a missing or malformed dataset is a usage error (exit status 2)."""
    try:
        return load_dataset(data)
    except (OSError, ValueError) as exc:
        ap.error(str(exc))


def _claim(ap: argparse.ArgumentParser, make, *args, **kwargs):
    """make(*args, **kwargs), which claims its output files before any work; one
    that exists without --overwrite is a usage error (exit status 2)."""
    try:
        return make(*args, **kwargs)
    except FileExistsError as exc:     # one from the OS names a file: --out is not a directory
        ap.error(str(exc) if exc.filename else f"{exc} (--overwrite)")


def _run_spec(ap: argparse.ArgumentParser, spec: ExperimentSpec, args) -> int:
    """run_experiment with progress on stderr; exit status 1 on ReplicateFailures."""
    try:
        paths = _claim(ap, run_experiment, spec, args.out, threads=args.threads,
                       overwrite=args.overwrite,
                       progress=lambda s: print(f"  {s}", file=sys.stderr))
    except ReplicateFailures as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="netamp", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default="out", help="output directory")
    output.add_argument("--overwrite", action="store_true", help="replace existing output files")
    harness = argparse.ArgumentParser(add_help=False, parents=[output])
    harness.add_argument("--threads", type=int, default=1, help="replicate worker count")
    harness.add_argument("--quad-order", type=int, default=SUPPRESS,
                         help="Gauss-Hermite nodes per dimension")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--rho", type=float, default=SUPPRESS)
    family.add_argument("--slab", type=floats, default=SUPPRESS, help="comma-separated slab atoms")
    family.add_argument("--lam", type=floats, dest="lambdas", metavar="LAM",
                        default=SUPPRESS, help="graph SNR grid, comma-separated")
    family.add_argument("--Delta", type=floats, dest="deltas", metavar="DELTA",
                        default=SUPPRESS, help="noise variance grid, comma-separated")
    model = argparse.ArgumentParser(add_help=False, parents=[family])  # to draw data
    model.add_argument("--n", type=int, default=SUPPRESS)
    model.add_argument("--p", type=int, default=SUPPRESS)
    model.add_argument("--b-p", type=float, dest="b_p", default=SUPPRESS)
    model.add_argument("--design", choices=("gaussian", "bernoulli"), default=SUPPRESS)
    model.add_argument("--seed", type=int, dest="base_seed", metavar="SEED", default=SUPPRESS,
                       help="base RNG seed")

    sub.add_parser("generate", parents=[model, output],
                   help="draw one dataset to a directory").set_defaults(pipelines=())

    a = sub.add_parser("amp-run", parents=[output],
                       help="run the estimator on a stored dataset")
    a.add_argument("--data", required=True, help="dataset directory")
    a.add_argument("--T", type=int, default=AmpConfig.T)
    a.add_argument("--matrix-mode", choices=("sbm", "gaussian-surrogate"), default="sbm")
    a.add_argument("--quad-order", type=int, default=DEFAULT_QUAD.order,
                   help="Gauss-Hermite nodes per dimension")

    s = sub.add_parser("se-solve", parents=[family, harness],
                       help="state evolution trace + fixed point")
    s.add_argument("--kappa", type=float, dest="kappa_mi", metavar="KAPPA", default=1.0)
    s.add_argument("--T", type=int, default=50)
    s.set_defaults(pipelines=("se",), replicates=1)

    m = sub.add_parser("mi-curve", parents=[family, harness],
                       help="limiting mutual information over a grid")
    m.add_argument("--kappa", type=float, dest="kappa_mi", metavar="KAPPA", default=1.0)
    m.set_defaults(pipelines=("mi",), replicates=1)

    for name, pipeline, help_ in (("fdr-sim", "fdr", "FDP/TDP replicate loop"),
                                  ("coverage-sim", "coverage", "coverage replicate loop")):
        f = sub.add_parser(name, parents=[model, harness], help=help_)
        f.add_argument("--T", type=int, default=SUPPRESS)
        f.add_argument("--alpha", type=float, default=SUPPRESS)
        f.add_argument("--replicates", type=int, default=SUPPRESS)
        f.set_defaults(pipelines=(pipeline,))

    b = sub.add_parser("baseline-lap", parents=[output],
                       help="tuned Laplacian baseline on a dataset")
    b.add_argument("--data", required=True)
    b.add_argument("--seed", type=int, default=0, help="holdout-split seed of the tuning")

    e = sub.add_parser("experiment", parents=[harness], help="run a built-in or file spec")
    e.add_argument("spec", help=f"built-in name {BUILTIN_NAMES} or a spec file path")
    e.add_argument("--seed", type=int, dest="base_seed", metavar="SEED", default=SUPPRESS,
                   help="replaces the spec's base RNG seed")
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)

    if args.cmd == "generate":
        spec = _spec(ap, args)
        if len(spec.lambdas) > 1 or len(spec.deltas) > 1:
            ap.error("generate draws one dataset: give one --lam and one --Delta")
        if problems := _draw_problems(spec):
            ap.error("invalid experiment spec: " + "; ".join(problems))
        _claim(ap, check_out_dir, args.out)
        if not args.overwrite and os.path.exists(os.path.join(args.out, "header.txt")):
            ap.error(f"{args.out} holds a dataset; pass --overwrite to replace it")
        ds = generate(_make_params(spec, *spec.lambdas, *spec.deltas), spec.base_seed)
        save_dataset(ds, args.out)
        print(f"dataset written to {args.out} "
              f"(support fraction {ds.sigma0.mean():.3f}, edges {ds.edge_list().shape[0]})")
        return 0

    if args.cmd == "amp-run":
        if args.quad_order < MIN_QUAD_ORDER:
            ap.error(f"quadrature order must be at least {MIN_QUAD_ORDER}")
        try:
            config = AmpConfig(T=args.T, matrix_mode=args.matrix_mode)
        except ValueError as exc:
            ap.error(str(exc))
        ds = _load(ap, args.data)
        sink = _claim(ap, CsvSink, f"{args.out}/amp_run.csv",
                      ["t", "overlap", "mse_beta", "pred_error",
                       "se_overlap_pred", "se_pred_error"],
                      {"data": args.data, "T": args.T}, args.overwrite)
        trace = se_run(ds.params.prior, ds.params.lam, ds.params.kappa, ds.params.Delta,
                       T=args.T + 1, quad=QuadratureRule.gauss_hermite(args.quad_order))
        res = run(ds, config, se_trace=trace)
        for t in range(args.T + 1):
            xi_t = float(trace.xi[t])
            sink.add(t=t, overlap=float(res.overlap[t]),
                     mse_beta=float(res.mse_beta[t]),
                     pred_error=float(res.pred_error[t]),
                     se_overlap_pred=float(trace.nu[t + 1] ** 2),
                     se_pred_error=ds.params.Delta * xi_t / (1.0 + xi_t))
        sink.write()
        print(f"wrote {sink.path}; final overlap {res.overlap[-1]:.4f}, "
              f"prediction error {res.pred_error[-1]:.4f}")
        return 0

    if args.cmd == "baseline-lap":
        ds = _load(ap, args.data)
        sink = _claim(ap, pipeline_sink, f"{args.out}/baseline_lap.csv", "baseline",
                      {"data": args.data}, args.overwrite)
        tuned = tune(ds, _lap_grid(ds), seed=args.seed)
        cfg = tuned.config
        row = _baseline_row(ds, cfg)
        sink.add(**{"lambda": ds.params.lam, "Delta": ds.params.Delta,
                    "replicate": ds.seed, **row})
        sink.write()
        _note_unconverged_tunes(sink.path, {(ds.params.lam, ds.params.Delta): tuned})
        print(f"wrote {sink.path}; prediction error {row['pred_error']:.4f} "
              f"(lambda1={cfg.lambda1:.4g}, lambda2={cfg.lambda2:.4g})")
        return 0

    if args.cmd == "experiment":
        try:
            spec = (builtin_spec(args.spec) if args.spec in BUILTIN_NAMES
                    else load_spec_file(args.spec))
        except (OSError, ValueError) as exc:
            ap.error(str(exc))
        return _run_spec(ap, _spec(ap, args, spec), args)

    # se-solve, mi-curve, fdr-sim, coverage-sim
    return _run_spec(ap, _spec(ap, args), args)


if __name__ == "__main__":
    sys.exit(main())
