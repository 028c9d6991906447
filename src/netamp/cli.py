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
their arguments and run it through the experiment harness, which writes
<out>/<subcommand>_<pipeline>.csv; --lam and --Delta take comma-separated
grids.  amp-run writes the one CSV the harness has no pipeline for, the
per-iteration history <out>/amp_run.csv.

All CSVs use ',' separators, '.' decimals, UTF-8 and LF line endings.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .amp import AmpConfig, run
from .experiments import (BUILTIN_NAMES, CsvSink, ExperimentSpec,
                          ReplicateFailures, _baseline_row, _lap_grid,
                          _make_params, _note_unconverged_tunes, builtin_spec,
                          floats, load_spec_file, pipeline_sink, run_experiment)
from .laplacian import tune
from .priors import QuadratureRule
from .state_evolution import se_run
from .synth import Dataset, generate, load_dataset, save_dataset


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--threads", type=int, default=1, help="replicate worker count")
    p.add_argument("--quad-order", type=int, default=41,
                   help="Gauss-Hermite nodes per dimension")
    p.add_argument("--overwrite", action="store_true",
                   help="replace existing output files")


def _add_family_args(p: argparse.ArgumentParser):
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("--slab", type=floats, default="-1,1", help="comma-separated slab atoms")
    p.add_argument("--lam", type=floats, default="3.0", help="graph SNR grid, comma-separated")
    p.add_argument("--Delta", type=floats, default="1.0",
                   help="noise variance grid, comma-separated")


def _add_model_args(p: argparse.ArgumentParser):
    _add_family_args(p)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--p", type=int, default=2000)
    p.add_argument("--b-p", type=float, default=0.7, dest="b_p")
    p.add_argument("--design", choices=("gaussian", "bernoulli"), default="gaussian")


def _spec(ap: argparse.ArgumentParser, args, *pipelines: str, **fields) -> ExperimentSpec:
    """The ExperimentSpec that a subcommand's model-family arguments name.

    The subcommands that draw data (generate, fdr-sim, coverage-sim) also
    give the design's n, p, b_p and distribution.  An invalid spec is a
    usage error (exit status 2).
    """
    if "n" in args:
        fields.update(n=args.n, p=args.p, b_p=args.b_p, design=args.design)
    try:
        return ExperimentSpec(name=args.cmd, pipelines=pipelines, rho=args.rho,
                              slab=args.slab, lambdas=args.lam, deltas=args.Delta,
                              base_seed=args.seed, quad_order=args.quad_order, **fields)
    except ValueError as exc:
        ap.error(str(exc))


def _load(ap: argparse.ArgumentParser, data: str) -> Dataset:
    """load_dataset; a missing or malformed dataset is a usage error (exit status 2)."""
    try:
        return load_dataset(data)
    except (OSError, ValueError) as exc:
        ap.error(str(exc))


def _run_spec(spec: ExperimentSpec, args) -> int:
    """run_experiment with progress on stderr; exit status 1 on ReplicateFailures."""
    try:
        paths = run_experiment(spec, args.out, threads=args.threads,
                               overwrite=args.overwrite,
                               progress=lambda s: print(f"  {s}", file=sys.stderr))
    except ReplicateFailures as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="netamp", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="draw one dataset to a directory")
    _add_model_args(g)
    _add_common(g)

    a = sub.add_parser("amp-run", help="run the estimator on a stored dataset")
    a.add_argument("--data", required=True, help="dataset directory")
    a.add_argument("--T", type=int, default=25)
    a.add_argument("--matrix-mode", choices=("sbm", "gaussian-surrogate"),
                   default="sbm")
    _add_common(a)

    s = sub.add_parser("se-solve", help="state evolution trace + fixed point")
    s.add_argument("--kappa", type=float, default=1.0)
    s.add_argument("--T", type=int, default=50)
    _add_family_args(s)
    _add_common(s)

    m = sub.add_parser("mi-curve", help="limiting mutual information over a grid")
    m.add_argument("--kappa", type=float, default=1.0)
    _add_family_args(m)
    _add_common(m)

    for name, help_ in (("fdr-sim", "FDP/TDP replicate loop"),
                        ("coverage-sim", "coverage replicate loop")):
        f = sub.add_parser(name, help=help_)
        _add_model_args(f)
        f.add_argument("--T", type=int, default=25)
        f.add_argument("--alpha", type=float, default=0.1)
        f.add_argument("--replicates", type=int, default=20)
        _add_common(f)

    b = sub.add_parser("baseline-lap", help="tuned Laplacian baseline on a dataset")
    b.add_argument("--data", required=True)
    _add_common(b)

    e = sub.add_parser("experiment", help="run a built-in or file spec")
    e.add_argument("spec", help=f"built-in name {BUILTIN_NAMES} or a spec file path")
    _add_common(e)

    args = ap.parse_args(argv)

    if args.cmd == "generate":
        spec = _spec(ap, args)
        if len(spec.lambdas) > 1 or len(spec.deltas) > 1:
            ap.error("generate draws one dataset: give one --lam and one --Delta")
        ds = generate(_make_params(spec, *spec.lambdas, *spec.deltas), args.seed)
        save_dataset(ds, args.out)
        print(f"dataset written to {args.out} "
              f"(support fraction {ds.sigma0.mean():.3f}, edges {ds.edge_list().shape[0]})")
        return 0

    if args.cmd == "amp-run":
        ds = _load(ap, args.data)
        trace = se_run(ds.params.prior, ds.params.lam, ds.params.kappa, ds.params.Delta,
                       T=args.T + 1, quad=QuadratureRule.gauss_hermite(args.quad_order))
        res = run(ds, AmpConfig(T=args.T, matrix_mode=args.matrix_mode), se_trace=trace)
        sink = CsvSink(f"{args.out}/amp_run.csv",
                       ["t", "overlap", "mse_beta", "pred_error",
                        "se_overlap_pred", "se_pred_error"],
                       {"data": args.data, "T": args.T}, args.overwrite)
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

    if args.cmd == "se-solve":
        return _run_spec(_spec(ap, args, "se", kappa_mi=args.kappa, T=args.T, replicates=1), args)

    if args.cmd == "mi-curve":
        return _run_spec(_spec(ap, args, "mi", kappa_mi=args.kappa, replicates=1), args)

    if args.cmd in ("fdr-sim", "coverage-sim"):
        pipeline = "fdr" if args.cmd == "fdr-sim" else "coverage"
        return _run_spec(_spec(ap, args, pipeline, replicates=args.replicates, T=args.T,
                               alpha=args.alpha), args)

    if args.cmd == "baseline-lap":
        ds = _load(ap, args.data)
        tuned = tune(ds, _lap_grid(ds), seed=args.seed)
        cfg = tuned.config
        row = _baseline_row(ds, cfg)
        sink = pipeline_sink(f"{args.out}/baseline_lap.csv", "baseline",
                             {"data": args.data}, args.overwrite)
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
        if args.seed:
            spec = dataclasses.replace(spec, base_seed=args.seed)
        return _run_spec(spec, args)

    return 1


if __name__ == "__main__":
    sys.exit(main())
