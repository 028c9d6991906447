"""Write the harness CSVs of one checkout for a byte-identity comparison.

    python scripts/identity_outputs.py CHECKOUT OUT_DIR

Imports ``netamp`` from CHECKOUT/src and runs each case below into its own
subdirectory of OUT_DIR:

- every benchmark workload of CHECKOUT/bench/workloads.py at seeds 1 and 7,
  at the workload's own harness thread count;
- ``builtin_spec("smoke")`` and a spec with all seven pipelines, each at
  threads 1 and 2, plus the all-pipeline spec at n != p and with a Bernoulli
  design;
- ``builtin_spec("figure1a")``, the full 4 x 4 (lambda, Delta) grid of the
  limiting mutual information, at threads 1;
- ``table1_amp``: ``builtin_spec("table1-amp")``'s model, 6 Deltas and
  2 lambdas at toy n != p, with the ``amp`` pipeline beside its ``fdr``, at
  threads 1, so one draw's runs go 6 wide in lockstep and share one
  ``Phi / sqrt(kappa)`` at kappa != 1;
- ``odd_p149``, ``odd_p150``, ``odd_p151``: the all-pipeline spec at
  n = 157 (157 % 8 = 5) and p = 149, 150, 151 (p % 4 = 1, 2, 3), at
  threads 1, so the design's row slabs end in a partial slab and the last
  ``p % 4`` entries of ``S.T @ z``, which AMP's one-pass residual products
  compute apart (see ``netamp.lockstep``), reach the comparison;
- a spec in which ``generate`` raises on one replicate seed, one in which
  it raises on the baseline's tuning seed, and one in which
  ``netamp.amp.gaussian_surrogate`` raises on one replicate seed, each at
  threads 1 and 2;
- ``dataset_cli``: ``netamp generate`` saves a small dense draw, and
  ``netamp amp-run`` (in both matrix modes, the surrogate one into
  ``surrogate/``) and ``netamp baseline-lap`` run on it, so the saved
  ``edges.csv`` and the CSVs of a loaded dataset join the set;
- ``cli_specs``: specs that ``netamp.cli`` builds from its flags: ``se-solve``
  and ``mi-curve --kappa 1.5`` with every other flag at its default, toy
  ``fdr-sim`` and ``coverage-sim`` runs, and ``experiment smoke --seed 3``;
- ``kernels``: repr'd values of the scalar-channel kernels of
  ``netamp.priors`` (``scalar_mi`` at single points and in 10-wide xi
  batches at orders 21 and 41, ``mmse_pair``, and ``_mmse_channels`` and the
  denoisers with their partials under every channel convention, the two
  exact-conditioning ones included, which no harness CSV reaches),
  ``scalar_mi`` along a short xi search at fixed mu and a mu search at fixed
  xi, ``mmse_pair`` and ``_mmse_channels`` along a short ``fixed_point``-style
  alternation, and one ``se_run`` trace, per prior and order, so the rows
  also cover the warm per-side caches that these kernels share.

Each case's outcome ("ok", or the type and message of what the harness
raised) goes into OUT_DIR/outcomes.csv.  Two checkouts give the same outputs
when ``python scripts/same_csvs.py OUT_A OUT_B`` reports 0 differing and
0 missing.

BLAS is pinned to one thread before numpy is imported, as in
``bench/worker.py``: byte identity is defined at one BLAS thread.  At some
shapes a plain matrix-vector product already depends on the thread count
(for a Gaussian 1500 x 1500 ``Phi``, ``Phi @ v`` and ``Phi.T @ v`` differ in
3 and 4 of their 1500 entries between one and two OpenBLAS threads), so
the same code can give other bits at another thread count.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import contextlib  # noqa: E402
import csv  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402


def _all_pipelines(name: str, **kw) -> dict:
    spec = dict(name=name, pipelines=("se", "mi", "amp", "baseline", "fdr",
                                      "coverage", "universality"),
                n=150, p=150, rho=0.3, b_p=15.0, lambdas=(2.0,),
                deltas=(0.5, 1.5), replicates=3, T=6)
    return {**spec, **kw}


def cases(workloads) -> list[tuple[str, dict | str, int, tuple[str, int] | None]]:
    """(directory, spec keywords or built-in name, threads, fault).

    A fault is None or (function, seed): `raising_at` makes that function
    raise at that seed.
    """
    out = [(f"{w}_seed{seed}", workloads.spec_kwargs(w, seed, False),
            workloads.WORKLOADS[w]["threads"], None)
           for w in workloads.WORKLOADS for seed in (1, 7)]
    generate_fails = dict(name="generate_fails",
                          pipelines=("se", "amp", "baseline", "fdr", "universality"),
                          n=80, p=80, rho=0.3, b_p=8.0, lambdas=(1.0,),
                          deltas=(0.5, 1.0), replicates=4, T=3)
    tune_fails = dict(generate_fails, name="tune_fails",
                      pipelines=("se", "mi", "amp", "baseline", "fdr"), replicates=2)
    surrogate_fails = dict(generate_fails, name="surrogate_fails",
                           pipelines=("amp", "fdr", "universality"))
    for threads in (1, 2):
        out += [(f"smoke_t{threads}", "smoke", threads, None),
                (f"all_t{threads}", _all_pipelines("all"), threads, None),
                (f"generate_fails_t{threads}", generate_fails, threads, ("generate", 1)),
                (f"tune_fails_t{threads}", tune_fails, threads, ("generate", 2)),
                (f"surrogate_fails_t{threads}", surrogate_fails, threads,
                 ("gaussian_surrogate", 2))]
    table1_amp = dict(name="table1_amp", pipelines=("amp", "fdr"), n=240, p=200,
                      rho=0.07, b_p=100.0, lambdas=(5.0, 10.0),
                      deltas=(0.5, 1.05, 1.79, 2.52, 3.26, 4.0), replicates=3)
    out += [("kappa", _all_pipelines("kappa", n=180), 1, None),
            ("bernoulli", _all_pipelines("bernoulli", design="bernoulli"), 1, None),
            ("figure1a", "figure1a", 1, None),
            ("table1_amp", table1_amp, 1, None)]
    out += [(f"odd_p{p}", _all_pipelines(f"odd_p{p}", n=157, p=p), 1, None)
            for p in (149, 150, 151)]
    return out


# the dataset_cli draw: b_p = p / 2, the dense regime of the calibration runs
DATASET_DRAW = ["--n", "120", "--p", "100", "--rho", "0.3", "--b-p", "50", "--lam", "2",
                "--Delta", "1", "--seed", "3"]


def dataset_cli(cli, case_dir: str) -> None:
    """Save the DATASET_DRAW dataset, then run amp-run (sbm and surrogate
    modes) and baseline-lap on it.

    Runs in case_dir with relative paths, so the data path that the CSV
    headers echo is the same for every checkout.
    """
    os.makedirs(case_dir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(case_dir)
    try:
        for argv in (["generate", *DATASET_DRAW, "--out", "data"],
                     ["amp-run", "--data", "data", "--T", "8", "--out", "."],
                     ["amp-run", "--data", "data", "--T", "8",
                      "--matrix-mode", "gaussian-surrogate", "--out", "surrogate"],
                     ["baseline-lap", "--data", "data", "--out", "."]):
            status = cli.main([*argv, "--overwrite"])
            if status:
                raise RuntimeError(f"netamp {argv[0]} exited with {status}")
    finally:
        os.chdir(cwd)


# the cli_specs runs; each also gets --overwrite and --out
CLI_SPECS = [["se-solve"], ["mi-curve", "--kappa", "1.5"],
             *([cmd, "--n", "120", "--p", "100", "--b-p", "50", "--replicates", "2", "--T", "4"]
               for cmd in ("fdr-sim", "coverage-sim")),
             ["experiment", "smoke", "--seed", "3"]]


def cli_specs(cli, case_dir: str) -> None:
    """Run each CLI_SPECS command into case_dir."""
    for argv in CLI_SPECS:
        status = cli.main([*argv, "--overwrite", "--out", case_dir])
        if status:
            raise RuntimeError(f"netamp {argv[0]} exited with {status}")


def kernels(priors, case_dir: str) -> None:
    """Write the scalar-channel kernels' values to case_dir/kernels.csv.

    Each row is (kernel, prior, arguments, value); a value is the ``repr`` of
    each float, so two checkouts agree on a row only when they agree bit for
    bit, or the type and message of what the kernel raised.
    """
    import numpy as np

    import netamp.state_evolution as state_evolution

    two = ((-1.0, 0.5), (1.0, 0.5))
    named_priors = {
        "five_atom": priors.spike_slab(0.4, [-2.0, -1.0, 0.0, 1.0, 2.0]),
        "pm7": priors.spike_slab(0.7, [-1.0, 1.0]),
        "b_indep": priors.PriorSpec(rho=0.4, atoms0=two, atoms1=two),
        "seven_atom": priors.PriorSpec(
            rho=0.3, atoms0=((-0.5, 0.3), (0.0, 0.4), (1.5, 0.3)),
            atoms1=((-2.0, 0.25), (-1.0, 0.25), (0.7, 0.25), (2.5, 0.25))),
    }
    quads = {order: priors.QuadratureRule.gauss_hermite(order) for order in (21, 41)}
    # (mu, xi, Delta, kappa)
    points = [(0.0, 0.0, 1.0, 1.0), (0.5, 0.2, 0.5, 1.0), (2.0, 1.0, 1.0, 1.5),
              (4.0, 3.0, 2.0, 0.7), (2.12, 0.0063, 0.52, 1.28)]
    batch = np.linspace(0.0, 3.0, 10)
    # (eta, nu, tau): a regular channel and every degenerate convention
    channels = [(1.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1.3, 0.0, 0.7), (0.8, 1.1, 0.0),
                (0.8, 1.1, math.inf), (0.0, 0.0, math.inf), (1.3, 0.0, 0.0)]

    def value(run, *args) -> str:
        try:
            return ";".join(repr(float(v)) for v in np.ravel(run(*args)))
        except Exception as exc:    # the outcome is part of the compared output
            return f"{type(exc).__name__}: {exc}"

    def se_trace(prior, quad):
        trace = state_evolution.se_run(prior, 2.0, 1.5, 1.0, 4, quad)
        return np.concatenate([trace.eta, trace.nu, trace.tau])

    rows = [("kernel", "prior", "arguments", "value")]
    for name, prior in named_priors.items():
        for order, quad in quads.items():
            for mu, xi, Delta, kappa in points:
                at = f"mu={mu!r} xi={xi!r} Delta={Delta!r} kappa={kappa!r} order={order}"
                rows += [("scalar_mi", name, at,
                          value(priors.scalar_mi, mu, xi, prior, Delta, kappa, quad)),
                         ("mmse_pair", name, at,
                          value(priors.mmse_pair, mu, xi, prior, Delta, kappa, quad)),
                         ("scalar_mi", name, at.replace(f"xi={xi!r}", "xi=linspace(0,3,10)"),
                          value(priors.scalar_mi, mu, batch, prior, Delta, kappa, quad))]
            # warm caches, as the potential's line searches use them: xi moves
            # at fixed mu (points and 10-wide batches), then mu at fixed xi
            for mu, xis in ([(1.3, xi) for xi in (0.2, 0.9, 0.5, 0.6)]
                            + [(1.3, xi + batch) for xi in (0.2, 0.9)]
                            + [(mu, 0.6) for mu in (0.4, 2.0, 1.1, 1.2)]):
                shown = xis if np.ndim(xis) == 0 else f"{float(xis[0])!r}+linspace(0,3,10)"
                at = f"mu={mu!r} xi={shown} Delta=1.0 kappa=1.5 order={order} line search"
                rows.append(("scalar_mi", name, at,
                             value(priors.scalar_mi, mu, xis, prior, 1.0, 1.5, quad)))
            # warm caches of the mmse pair, as fixed_point uses them: mmse1(mu, xi)
            # (here mmse_pair), then mmse2(mu_new, xi) (here _mmse_channels at
            # mmse_pair's channels), so each call moves one channel
            mu, xi = 0.0, prior.second_moment_b()
            for _ in range(3):
                at = f"mu={mu!r} xi={xi!r} Delta=1.0 kappa=1.5 order={order} fixed point"
                pair = value(priors.mmse_pair, mu, xi, prior, 1.0, 1.5, quad)
                rows.append(("mmse_pair", name, at, pair))
                mu = 2.0 * (prior.rho - float(pair.split(";")[0]))
                ch = priors._mu_xi_channels(mu, xi, 1.0, 1.5)
                at = f"eta={ch[0]!r} nu={ch[1]!r} tau={ch[2]!r} order={order} fixed point"
                pair = value(priors._mmse_channels, prior, *ch, quad)
                rows.append(("_mmse_channels", name, at, pair))
                xi = float(pair.split(";")[1])
            rows.append(("se_run", name, f"lam=2.0 kappa=1.5 Delta=1.0 T=4 order={order} "
                         "eta;nu;tau", value(se_trace, prior, quad)))
        sig, b, _ = priors._atom_arrays(prior)
        for eta, nu, tau in channels:
            rng = np.random.default_rng(7)
            idx = rng.integers(len(sig), size=50)
            # an exact-conditioning channel observes an atom exactly
            x = eta * sig[idx] if nu == 0.0 else 3.0 * rng.normal(size=50)
            y = b[idx] if tau == 0.0 else 3.0 * rng.normal(size=50)
            ch = priors.ScalarChannelParams(eta=eta, nu=nu, tau=tau)
            at = f"eta={eta!r} nu={nu!r} tau={tau!r}"
            rows += [("_mmse_channels", name, at,
                      value(priors._mmse_channels, prior, eta, nu, tau, quads[41])),
                     ("denoise_sigma", name, at, value(priors.denoise_sigma, x, y, ch, prior)),
                     ("denoise_beta", name, at, value(priors.denoise_beta, y, x, ch, prior)),
                     ("denoiser_partials", name, at,
                      value(priors.denoiser_partials, x, y, ch, prior)),
                     ("denoise_sigma", name, at + " scalar",
                      value(priors.denoise_sigma, float(x[0]), float(y[0]), ch, prior))]
    os.makedirs(case_dir, exist_ok=True)
    with open(os.path.join(case_dir, "kernels.csv"), "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# the module attribute that each fault patches, and what its error names
FAULTS = {"generate": ("netamp.experiments", "draw"),
          "gaussian_surrogate": ("netamp.amp", "surrogate")}


@contextlib.contextmanager
def raising_at(fault: tuple[str, int] | None):
    """Make the function named by fault raise for one seed, its last argument.

    Pool workers see the patch because they are forked from this process
    (the default start method on Linux).
    """
    if fault is None:
        yield
        return
    name, bad_seed = fault
    module, what = FAULTS[name]
    module = sys.modules[module]
    real = getattr(module, name)

    def raising(*args):
        if args[-1] == bad_seed:
            raise RuntimeError(f"no {what} at seed {bad_seed}")
        return real(*args)

    setattr(module, name, raising)
    try:
        yield
    finally:
        setattr(module, name, real)


def run_spec(ex, spec, case_dir: str, threads: int, fault: tuple[str, int] | None) -> None:
    with raising_at(fault):
        ex.run_experiment(spec, case_dir, threads=threads, overwrite=True)


def outcome(run, *args) -> str:
    """"ok", or the type and message of what run(*args) raised."""
    try:
        run(*args)
        return "ok"
    except Exception as exc:        # the outcome is part of the compared output
        return f"{type(exc).__name__}: {exc}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    checkout, out_dir = (os.path.abspath(a) for a in argv)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
    import netamp.cli as cli
    import netamp.experiments as ex
    import netamp.priors as priors
    import workloads

    if os.path.dirname(os.path.dirname(ex.__file__)) != os.path.join(checkout, "src"):
        print(f"netamp imported from {ex.__file__}, not {checkout}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    outcomes = []
    for case, kw, threads, fault in cases(workloads):
        spec = ex.builtin_spec(kw) if isinstance(kw, str) else ex.ExperimentSpec(**kw)
        print(f"{case}: {spec.name} at threads {threads}", file=sys.stderr)
        outcomes.append((case, outcome(run_spec, ex, spec, os.path.join(out_dir, case),
                                       threads, fault)))
    print("dataset_cli: generate, amp-run (both modes), baseline-lap", file=sys.stderr)
    outcomes.append(("dataset_cli",
                     outcome(dataset_cli, cli, os.path.join(out_dir, "dataset_cli"))))
    print("cli_specs: se-solve, mi-curve, fdr-sim, coverage-sim, experiment", file=sys.stderr)
    outcomes.append(("cli_specs", outcome(cli_specs, cli, os.path.join(out_dir, "cli_specs"))))
    print("kernels: scalar-channel kernel values", file=sys.stderr)
    outcomes.append(("kernels", outcome(kernels, priors, os.path.join(out_dir, "kernels"))))
    with open(os.path.join(out_dir, "outcomes.csv"), "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([("case", "outcome"), *outcomes])
    print(f"wrote {len(outcomes)} cases to {out_dir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
