"""Spans around the layer calls of the experiment harness, and kernel probes.

`Tracer.install` replaces the layer functions that `netamp.experiments` looks
up at module level (`generate`, `run`, `se_run`, ...) with wrappers that time
each call and read its counts off the returned object.  Nothing inside the
package changes; the harness must run with threads = 1 so that every call
happens in this process.  None of the wrapped functions calls another one
through `netamp.experiments`, so layer spans never nest: each is a child of
the one root span around `run_experiment`.
"""

from __future__ import annotations

import statistics
import time

ROOT_SPAN = "experiments.run_experiment"

# harness attribute -> (layer span name, counts read off the returned object)
LAYERS = {
    "generate": ("synth.generate", lambda ds: {}),
    "run": ("amp.run", lambda res: {"iterations": res.config.T}),
    "se_run": ("state_evolution.se_run", lambda tr: {}),
    "fixed_point": ("state_evolution.fixed_point",
                    lambda fp: {"iterations": fp.iterations,
                                "converged": int(fp.converged)}),
    "minimize": ("rs_potential.minimize",
                 lambda ev: {"candidates": len(ev.candidates),
                             "stationarity_residual": ev.stationarity_residual}),
    "pvalues": ("inference.pvalues", lambda pv: {}),
    "discover": ("inference.discover", lambda d: {}),
    "tune": ("laplacian.tune", lambda cfg: {}),
    "fit": ("laplacian.fit", lambda f: {"iterations": f.n_iter,
                                        "converged": int(f.converged)}),
}

# every per-layer metric the traced run reports, with its unit
LAYER_UNITS = {
    "synth.generate.calls": "count",
    "synth.generate.s": "s",
    "amp.run.calls": "count",
    "amp.run.s": "s",
    "amp.iteration_ms": "ms",
    "state_evolution.se_run.s": "s",
    "state_evolution.fixed_point.calls": "count",
    "state_evolution.fixed_point.s": "s",
    "state_evolution.fixed_point.iterations": "count",
    "state_evolution.fixed_point.converged_frac": "fraction",
    "rs_potential.minimize.calls": "count",
    "rs_potential.minimize.s": "s",
    "rs_potential.minimize.ms_max": "ms",
    "rs_potential.minimize.candidates": "count",
    "rs_potential.minimize.stationarity_residual_max": "1",
    "laplacian.tune.calls": "count",
    "laplacian.tune.s": "s",
    "laplacian.fit.calls": "count",
    "laplacian.fit.s": "s",
    "laplacian.fit.iterations": "count",
    "laplacian.fit.converged_frac": "fraction",
    "inference.pvalues.s": "s",
    "inference.discover.calls": "count",
    "inference.discover.s": "s",
    "experiments.self_s": "s",
    "experiments.traced_wall_s": "s",
    "experiments.span_coverage": "fraction",
    "experiments.failed_frac": "fraction",
    "synth.graph_apply_ms": "ms",
    "priors.denoiser_ms": "ms",
    "priors.scalar_mi_ms": "ms",
    "priors.mmse_ms": "ms",
}


class Tracer:
    """Keeps one span per wrapped call in memory."""

    def __init__(self):
        self.spans: list[dict] = []

    def _wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            span = {"name": name, "parent": ROOT_SPAN}
            try:
                out = fn(*args, **kwargs)
                span.update(counts(out))
                return out
            except Exception:
                span["error"] = True
                raise
            finally:
                span["start"], span["end"] = start, time.perf_counter()
                self.spans.append(span)
        return traced

    def install(self, module) -> None:
        """Replace the harness's layer functions with traced wrappers."""
        for attr, (name, counts) in LAYERS.items():
            setattr(module, attr, self._wrap(name, getattr(module, attr), counts))

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """The span-derived metrics of LAYER_UNITS; wall is the root span's length."""
        by: dict[str, list[dict]] = {name: [] for name, _ in LAYERS.values()}
        for s in self.spans:
            by[s["name"]].append(s)

        def dur(name):
            return sum(s["end"] - s["start"] for s in by[name])

        def total(name, key):
            return sum(s[key] for s in by[name] if key in s)

        def frac(name, key):
            return total(name, key) / len(by[name]) if by[name] else 0.0

        m = {}
        for layer in ("synth.generate", "amp.run", "state_evolution.fixed_point",
                      "rs_potential.minimize", "laplacian.tune", "laplacian.fit",
                      "inference.discover"):
            m[f"{layer}.calls"] = len(by[layer])
        for layer in by:
            m[f"{layer}.s"] = dur(layer)
        amp_iters = total("amp.run", "iterations")
        m["amp.iteration_ms"] = 1e3 * dur("amp.run") / amp_iters if amp_iters else 0.0
        m["state_evolution.fixed_point.iterations"] = total("state_evolution.fixed_point", "iterations")
        m["state_evolution.fixed_point.converged_frac"] = frac("state_evolution.fixed_point", "converged")
        mins = by["rs_potential.minimize"]
        m["rs_potential.minimize.ms_max"] = max((1e3 * (s["end"] - s["start"]) for s in mins), default=0.0)
        m["rs_potential.minimize.candidates"] = total("rs_potential.minimize", "candidates")
        m["rs_potential.minimize.stationarity_residual_max"] = max(
            (s["stationarity_residual"] for s in mins if "stationarity_residual" in s), default=0.0)
        m["laplacian.fit.iterations"] = total("laplacian.fit", "iterations")
        m["laplacian.fit.converged_frac"] = frac("laplacian.fit", "converged")
        covered = sum(s["end"] - s["start"] for s in self.spans)
        m["experiments.traced_wall_s"] = wall
        m["experiments.self_s"] = wall - covered
        m["experiments.span_coverage"] = covered / wall
        return {k: v for k, v in m.items() if k in LAYER_UNITS}


def median_ms(fn, repeats: int = 21) -> float:
    """Median wall time of single calls in ms, after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def kernel_probes(spec, seed: int) -> dict[str, float]:
    """Single-call timings of the public kernels at the workload's sizes.

    The graph apply and the denoiser run on a dataset drawn at the spec's
    (n, p, b_p) and the largest lambda; the scalar-channel functionals run at
    that point's state-evolution fixed point and the spec's quadrature order.
    """
    import numpy as np

    import netamp as na

    lam, delta = max(spec.lambdas), spec.deltas[0]
    prior, kappa = spec.prior(), spec.kappa()
    quad = na.QuadratureRule.gauss_hermite(spec.quad_order)
    params = na.ModelParams.from_snr(n=spec.n, p=spec.p, Delta=delta, b_p=spec.b_p,
                                     lam=lam, prior=prior, design_dist=spec.design)
    ds = na.generate(params, seed)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(spec.p)

    tr = na.se_run(prior, lam, kappa, delta, T=spec.T + 1, quad=quad)
    ch = na.ScalarChannelParams(eta=float(tr.eta[spec.T]), nu=float(tr.nu[spec.T]),
                                tau=float(tr.tau[spec.T - 1]))
    x = ch.eta * ds.sigma0 + ch.nu * rng.standard_normal(spec.p)
    y = ds.beta0 + ch.tau * rng.standard_normal(spec.p)
    fp = na.fixed_point(prior, lam, kappa, delta, quad=quad)
    mu, xi = fp.mu_star, fp.xi_star
    return {
        "synth.graph_apply_ms": median_ms(lambda: na.centered_adjacency_apply(ds, v)),
        "priors.denoiser_ms": median_ms(lambda: na.denoiser_partials(x, y, ch, prior)),
        "priors.scalar_mi_ms": median_ms(lambda: na.scalar_mi(mu, xi, prior, delta, kappa, quad)),
        "priors.mmse_ms": median_ms(lambda: na.mmse1(mu, xi, prior, delta, kappa, quad)),
    }
