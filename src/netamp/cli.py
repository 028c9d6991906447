"""Command-line interface.

Subcommands map one-to-one onto the library surface:

    generate      draw a dataset and write it to a directory
    amp-run       run the estimator on a stored dataset, write per-iteration CSV
    se-solve      state-evolution trace + fixed point CSV
    mi-curve      sweep the limiting mutual information over lambda or Delta
    fdr-sim       replicate loop for FDP/TDP at a given level
    coverage-sim  replicate loop for credible-interval coverage
    baseline-lap  tuned Laplacian-penalized baseline on a stored dataset
    experiment    run a built-in or file-defined experiment spec

All CSVs use ',' separators, '.' decimals, UTF-8 and LF line endings.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .amp import AmpConfig, run
from .experiments import (BUILTIN_NAMES, CsvSink, ExperimentSpec,
                          ReplicateFailures, _lap_grid, builtin_spec,
                          load_spec_file, run_experiment)
from .inference import mse_beta as pred_error_of
from .laplacian import fit, tune
from .priors import PriorSpec, QuadratureRule
from .rs_potential import coincide, minimize
from .state_evolution import fixed_point, se_run
from .synth import ModelParams, generate, load_dataset, save_dataset


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--threads", type=int, default=1, help="replicate worker count")
    p.add_argument("--quad-order", type=int, default=41,
                   help="Gauss-Hermite nodes per dimension")
    p.add_argument("--overwrite", action="store_true",
                   help="replace existing output files")


def _prior_from_args(args) -> PriorSpec:
    slab = tuple(float(v) for v in args.slab.split(","))
    return PriorSpec(rho=args.rho, atoms0=((0.0, 1.0),),
                     atoms1=tuple((v, 1.0 / len(slab)) for v in slab))


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--p", type=int, default=2000)
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("--slab", default="-1,1", help="comma-separated slab atoms")
    p.add_argument("--b-p", type=float, default=0.7, dest="b_p")
    p.add_argument("--lam", type=float, default=3.0, help="graph SNR")
    p.add_argument("--Delta", type=float, default=1.0, help="noise variance")
    p.add_argument("--design", choices=("gaussian", "bernoulli"), default="gaussian")


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
    s.add_argument("--rho", type=float, default=0.7)
    s.add_argument("--slab", default="-1,1")
    s.add_argument("--lam", type=float, default=3.0)
    s.add_argument("--Delta", type=float, default=1.0)
    _add_common(s)

    m = sub.add_parser("mi-curve", help="limiting mutual information sweep")
    m.add_argument("--sweep", choices=("lambda", "Delta"), required=True)
    m.add_argument("--values", required=True, help="comma-separated sweep grid")
    m.add_argument("--kappa", type=float, default=1.0)
    m.add_argument("--rho", type=float, default=0.7)
    m.add_argument("--slab", default="-1,1")
    m.add_argument("--lam", type=float, default=3.0, help="fixed lambda (Delta sweep)")
    m.add_argument("--Delta", type=float, default=1.0, help="fixed Delta (lambda sweep)")
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
    quad = QuadratureRule.gauss_hermite(args.quad_order) if hasattr(args, "quad_order") else None

    if args.cmd == "generate":
        prior = _prior_from_args(args)
        params = ModelParams.from_snr(n=args.n, p=args.p, Delta=args.Delta,
                                      b_p=args.b_p, lam=args.lam, prior=prior,
                                      design_dist=args.design)
        ds = generate(params, args.seed)
        save_dataset(ds, args.out)
        print(f"dataset written to {args.out} "
              f"(support fraction {ds.sigma0.mean():.3f}, edges {ds.edge_list().shape[0]})")
        return 0

    if args.cmd == "amp-run":
        ds = load_dataset(args.data)
        prior = ds.params.prior
        trace = se_run(prior, ds.params.lam, ds.params.kappa, ds.params.Delta,
                       T=args.T + 1, quad=quad)
        res = run(ds, prior, ds.params,
                  AmpConfig(T=args.T, matrix_mode=args.matrix_mode),
                  quad=quad, se_trace=trace)
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
        prior = _prior_from_args(args)
        trace = se_run(prior, args.lam, args.kappa, args.Delta, T=args.T, quad=quad)
        fp = fixed_point(prior, args.lam, args.kappa, args.Delta, quad=quad)
        sink = CsvSink(f"{args.out}/se_solve.csv",
                       ["t", "eta", "nu", "tau", "mu", "xi"],
                       {"lambda": args.lam, "Delta": args.Delta,
                        "kappa": args.kappa}, args.overwrite)
        for t in range(len(trace)):
            sink.add(t=t, eta=float(trace.eta[t]), nu=float(trace.nu[t]),
                     tau=float(trace.tau[t]), mu=float(trace.mu[t]),
                     xi=float(trace.xi[t]))
        sink.add(t="fixed_point", eta=fp.mu_star, nu=fp.xi_star, tau=fp.residual)
        sink.write()
        print(f"wrote {sink.path}; (mu*, xi*) = ({fp.mu_star:.6g}, {fp.xi_star:.6g})")
        return 0

    if args.cmd == "mi-curve":
        prior = _prior_from_args(args)
        values = [float(v) for v in args.values.split(",")]
        sink = CsvSink(f"{args.out}/mi_curve.csv",
                       ["sweep_value", "mu_bar", "xi_bar", "mi",
                        "mu_star", "xi_star", "coincide"],
                       {"sweep": args.sweep, "kappa": args.kappa}, args.overwrite)
        for v in values:
            lam = v if args.sweep == "lambda" else args.lam
            delta = v if args.sweep == "Delta" else args.Delta
            fp = fixed_point(prior, lam, args.kappa, delta, quad=quad)
            ev = minimize(prior, lam, args.kappa, delta, quad=quad, uninformative=fp)
            sink.add(sweep_value=v, mu_bar=ev.mu_bar, xi_bar=ev.xi_bar,
                     mi=ev.value, mu_star=fp.mu_star, xi_star=fp.xi_star,
                     coincide=int(coincide(fp, ev)))
        sink.write()
        print(f"wrote {sink.path}")
        return 0

    if args.cmd in ("fdr-sim", "coverage-sim"):
        slab = tuple(float(v) for v in args.slab.split(","))
        pipeline = "fdr" if args.cmd == "fdr-sim" else "coverage"
        spec = ExperimentSpec(name=args.cmd, pipelines=(pipeline,), n=args.n,
                              p=args.p, rho=args.rho, slab=slab, b_p=args.b_p,
                              lambdas=(args.lam,), deltas=(args.Delta,),
                              design=args.design, replicates=args.replicates,
                              base_seed=args.seed, T=args.T,
                              quad_order=args.quad_order, alpha=args.alpha)
        return _run_spec(spec, args)

    if args.cmd == "baseline-lap":
        ds = load_dataset(args.data)
        cfg = tune(ds, _lap_grid(ds), seed=args.seed)
        res = fit(ds, cfg)
        pe = pred_error_of(ds.Phi, res.beta, ds.beta0)
        sink = CsvSink(f"{args.out}/baseline_lap.csv",
                       ["t", "overlap", "mse_beta", "pred_error",
                        "se_overlap_pred", "se_pred_error"],
                       {"data": args.data, "lambda1": cfg.lambda1,
                        "lambda2": cfg.lambda2}, args.overwrite)
        d = res.beta - ds.beta0
        sink.add(t=0, mse_beta=float(d @ d) / ds.params.p, pred_error=pe)
        sink.write()
        print(f"wrote {sink.path}; prediction error {pe:.4f} "
              f"(lambda1={cfg.lambda1:.4g}, lambda2={cfg.lambda2:.4g})")
        return 0

    if args.cmd == "experiment":
        try:
            spec = builtin_spec(args.spec)
        except ValueError:
            spec = load_spec_file(args.spec)
        if args.seed:
            spec = dataclasses.replace(spec, base_seed=args.seed)
        return _run_spec(spec, args)

    return 1


if __name__ == "__main__":
    sys.exit(main())
