"""Synchronized graph + regression message passing with Bayes denoisers.

Per iteration t (with S = Phi/sqrt(kappa), y0 = y/sqrt(kappa), b^t =
S^T z^t + beta^t):

    r^t       = f_t(sigma^t, b^{t-1})                       sigma estimate
    sigma^{t+1} = Abar r^t / sqrt(p) - <df_t> r^{t-1}        graph power step
    z^t       = y0 - S beta^t + (1/kappa) <dzeta_{t-1}> z^{t-1}
    beta^{t+1} = zeta_t(b^t, sigma^{t+1})                    beta estimate

f_t / zeta_t are the posterior means for the scalar channels whose noise
levels come from the deterministic state-evolution trace at the same index:
sigma^t carries (eta_t, nu_t) and b^t carries tau_t.  The memory
coefficients <df_t> (w.r.t. the sigma observation) and <dzeta_{t-1}>
(w.r.t. the B observation, i.e. of the map that produced beta^t) are the
average analytic derivatives; they cancel the iterate correlations that
would otherwise break the Gaussian-channel picture.

Initialization is uninformative: sigma^0 = rho * 1 and
beta^0 = E[B] * 1 with z^{-1} = 0, so the t = 0 sigma denoiser is the
constant rho (no B-side observation exists yet) and the t = 0 residual is
plain y0 - S beta^0.

A run's model is its dataset's: the denoisers use ``dataset.params.prior``,
the prior that generated the data, which is what makes them Bayes-optimal,
and the dimensions, graph SNR and noise level come from ``dataset.params``.

The loop is one generator that yields its products with the graph and the
design (`_steps`).  The residual z^t and S^T z^t come from one residual
request, which reads S once per iteration where the two products read it
twice; it keeps their bits (see `netamp.lockstep`).  `run_draw` drives the
runs of one draw side by side through `netamp.lockstep`, one per noise
level and matrix mode, so each round reads S and each graph once for all
of them; `run` is `run_draw` of a single run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DivergedIteration
from .priors import PriorSpec, ScalarChannelParams, _posterior_moments
from .state_evolution import SeTrace, se_run
from .lockstep import RESIDUAL, lockstep
from .synth import Dataset, centered_product, gaussian_surrogate

__all__ = ["AmpConfig", "AmpResult", "run", "run_draw"]


@dataclass(frozen=True)
class AmpConfig:
    """Iteration count and matrix mode for one run."""

    T: int = 25
    matrix_mode: str = "sbm"           # "sbm" or "gaussian-surrogate"
    record_history: bool = True

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be at least 1")
        if self.matrix_mode not in ("sbm", "gaussian-surrogate"):
            raise ValueError(f"unknown matrix_mode {self.matrix_mode!r}")


@dataclass(frozen=True)
class AmpResult:
    """Final iterates, estimates and per-iteration diagnostics."""

    sigma_iter: np.ndarray          # final sigma^T
    sigma_hat: np.ndarray           # f_T(sigma^T, b^{T-1})
    beta_hat: np.ndarray            # beta^T
    z: np.ndarray                   # final residual
    overlap: np.ndarray             # (1/p) sum sigma_hat^t * sigma0, t = 0..T
    mse_beta: np.ndarray            # (1/p) ||beta^t - beta0||^2, t = 0..T
    pred_error: np.ndarray          # (1/n) ||Phi(beta^t - beta0)||^2, t = 0..T
    config: AmpConfig = field(repr=False)


def _channel(trace: SeTrace, t: int) -> ScalarChannelParams:
    """Channel for the sigma denoiser at step t: (eta_t, nu_t; tau_{t-1})."""
    tau_prev = math.inf if t == 0 else float(trace.tau[t - 1])
    return ScalarChannelParams(eta=float(trace.eta[t]), nu=float(trace.nu[t]),
                               tau=tau_prev)


def _beta_channel(trace: SeTrace, t: int) -> ScalarChannelParams:
    """Channel for the beta denoiser producing beta^{t+1}: (tau_t; eta_{t+1}, nu_{t+1})."""
    return ScalarChannelParams(eta=float(trace.eta[t + 1]),
                               nu=float(trace.nu[t + 1]),
                               tau=float(trace.tau[t]))


def _f_and_partial(x_sig, y_b, ch: ScalarChannelParams, prior: PriorSpec):
    """(f values, mean df/d sigma-obs); constant prior mean when uninformative."""
    if ch.nu == 0.0 and ch.eta == 0.0 and math.isinf(ch.tau):
        f = np.full(x_sig.shape, prior.rho)
        return f, 0.0
    ms, _, vs, _, _ = _posterior_moments(x_sig, y_b, ch, prior)
    gain = 0.0 if ch.nu == 0.0 else ch.eta / ch.nu**2
    return ms, float(gain * np.mean(vs))


def _zeta_and_partial(x_b, y_sig, ch: ScalarChannelParams, prior: PriorSpec):
    """(zeta values, mean dzeta/d B-obs)."""
    _, mb, _, vb, _ = _posterior_moments(y_sig, x_b, ch, prior)
    gain = 0.0 if math.isinf(ch.tau) else 1.0 / ch.tau**2
    return mb, float(gain * np.mean(vb))


def _check_finite(name: str, arr: np.ndarray, t: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise DivergedIteration(f"{name} contains NaN/Inf at iteration {t}")


def _scaled_design(dataset: Dataset, kappa: float) -> np.ndarray:
    """S = Phi / sqrt(kappa).  Phi / sqrt(1.0) is Phi bit for bit, so S is Phi
    itself at kappa = 1; nothing writes into S."""
    return dataset.Phi if kappa == 1.0 else dataset.Phi / math.sqrt(kappa)


def _surrogate(dataset: Dataset):
    """A zero-argument builder of the dataset's Gaussian surrogate that builds
    it on its first call and hands the same array to every later one; a build
    that raises is tried, and raises, again on the next call."""
    return functools.cache(
        lambda: gaussian_surrogate(dataset.sigma0, dataset.params.lam, dataset.seed))


def _steps(dataset: Dataset, config: AmpConfig, se_trace: SeTrace, S: np.ndarray,
           surrogate):
    """The iteration as a generator of product requests; returns the AmpResult.

    Yields ``(A, transpose, v)`` for each product with the graph and with
    Phi for the recorded prediction error, and expects ``A.T @ v`` or
    ``A @ v`` back; for the residual it yields ``(S, RESIDUAL, (beta, y0,
    (omega / kappa) * z_prev))`` and gets ``(z, S.T @ z)`` back, where
    ``z = (y0 - S @ beta) + (omega / kappa) * z_prev`` (see
    `netamp.lockstep`).  The posterior moments it keeps are fresh arrays,
    not the kernels' workspace, so other runs may use the kernels while
    this one waits at a yield.  In surrogate mode the graph is
    ``surrogate()`` (see `_surrogate`).
    """
    params = dataset.params
    prior = params.prior
    p, n = params.p, params.n
    if dataset.Phi.shape != (n, p) or dataset.sigma0.shape[0] != p:
        raise DimensionMismatch("dataset dimensions do not match params")
    kappa = params.kappa
    T = config.T
    if len(se_trace) < T + 2:
        raise ValueError("state-evolution trace too short for T iterations")
    y0 = dataset.y / math.sqrt(kappa)

    if config.matrix_mode == "gaussian-surrogate":
        A_tilde = surrogate()

        def apply_graph(v):
            return (yield A_tilde, False, v)
    else:
        def apply_graph(v):
            return centered_product(dataset, (yield dataset.adjacency, False, v), v)

    sigma = np.full(p, prior.rho)
    beta = np.full(p, prior.mean_b())
    z_prev = np.zeros(n)
    b_prev = np.zeros(p)           # placeholder; ignored while tau is absent
    r_prev = np.zeros(p)
    omega = 0.0                    # beta^0 is the initializer, not a denoiser output

    overlap = np.full(T + 1, np.nan)
    mse_beta = np.full(T + 1, np.nan)
    pred_error = np.full(T + 1, np.nan)

    def record(t, sig_hat, bet):
        if not config.record_history and t < T:
            return
        overlap[t] = float(sig_hat @ dataset.sigma0) / p
        diff = bet - dataset.beta0
        mse_beta[t] = float(diff @ diff) / p
        resid = yield dataset.Phi, False, diff
        pred_error[t] = float(resid @ resid) / n

    r = np.zeros(p)
    for t in range(T):
        ch_f = _channel(se_trace, t)
        r, df_mean = _f_and_partial(sigma, b_prev, ch_f, prior)
        yield from record(t, r, beta)

        sigma_next = (yield from apply_graph(r)) / math.sqrt(p) - df_mean * r_prev
        _check_finite("sigma", sigma_next, t)

        z, st_z = yield S, RESIDUAL, (beta, y0, (omega / kappa) * z_prev)
        _check_finite("z", z, t)

        b = st_z + beta
        ch_z = _beta_channel(se_trace, t)
        # omega is the Onsager mean of the map that made beta^{t+1}: step t+1 needs it
        beta_next, omega = _zeta_and_partial(b, sigma_next, ch_z, prior)
        _check_finite("beta", beta_next, t)

        sigma = sigma_next
        r_prev = r
        beta = beta_next
        z_prev = z
        b_prev = b

    ch_f = _channel(se_trace, T)
    sigma_hat, _ = _f_and_partial(sigma, b_prev, ch_f, prior)
    sigma_hat = np.clip(sigma_hat, 0.0, 1.0)
    beta = np.clip(beta, -prior.s_max, prior.s_max)
    yield from record(T, sigma_hat, beta)

    return AmpResult(sigma_iter=sigma, sigma_hat=sigma_hat, beta_hat=beta,
                     z=z_prev, overlap=overlap, mse_beta=mse_beta,
                     pred_error=pred_error, config=config)


def run(dataset: Dataset, config: AmpConfig = AmpConfig(),
        se_trace: SeTrace | None = None) -> AmpResult:
    """Run the full iteration on one dataset, under the dataset's own model.

    The state-evolution trace is computed from ``dataset.params`` at
    DEFAULT_QUAD when not supplied; it must cover indices 0 .. T+1.
    """
    params = dataset.params
    if se_trace is None:
        se_trace = se_run(params.prior, params.lam, params.kappa, params.Delta, config.T + 1)
    return run_draw([dataset], [config], [se_trace])[0]


def run_draw(datasets: list[Dataset], configs: list[AmpConfig], se_traces: list[SeTrace],
             wrap=None) -> list:
    """`run` on datasets of one draw, such as its Deltas, all in lockstep.

    Run k takes ``datasets[k]``, ``configs[k]`` and ``se_traces[k]``, so a
    dataset may appear once per matrix mode.  The datasets must share the
    draw's Phi, sigma0, graph SNR and seed, as `synth.with_delta` makes them,
    and each runs under its own params and prior.  S, and when a run asks
    for it the draw's Gaussian surrogate, are built once, and each round
    serves every run's products with the graph, the surrogate, S (the
    residual and its product with S.T in one pass) and Phi together, so
    every operator is read once per round instead of once per run.  Each
    result equals that of its run alone bit for bit at one BLAS thread.

    ``wrap(dataset, gen)``, when given, returns the generator to drive in
    place of a run's own, and its return value becomes that run's result:
    a wrapper that catches what the run raises keeps one failed run from
    stopping the others.
    """
    if not datasets:
        return []
    d0 = datasets[0]
    if any(ds.Phi is not d0.Phi or ds.sigma0 is not d0.sigma0 or ds.seed != d0.seed
           or ds.params.lam != d0.params.lam for ds in datasets):
        raise ValueError("run_draw needs datasets of one draw: one Phi, sigma0, lam and seed")
    S = _scaled_design(d0, d0.params.kappa)
    surrogate = _surrogate(d0)
    gens = [_steps(ds, config, trace, S, surrogate)
            for ds, config, trace in zip(datasets, configs, se_traces, strict=True)]
    if wrap is not None:
        gens = [wrap(ds, gen) for ds, gen in zip(datasets, gens)]
    return lockstep(gens)
