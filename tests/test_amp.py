import dataclasses
import math

import numpy as np
import pytest

import netamp.lockstep
from netamp.amp import (AmpConfig, _beta_channel, _channel, _f_and_partial,
                        _zeta_and_partial, run, run_draw)
from netamp.errors import DimensionMismatch, DivergedIteration
from netamp.experiments import _isolated
from netamp.priors import ScalarChannelParams, denoise_beta, denoise_sigma, spike_slab
from netamp.state_evolution import fixed_point, se_run
from netamp.synth import (ModelParams, centered_adjacency_apply,
                          centered_adjacency_dense, gaussian_surrogate, generate,
                          with_delta)


def reference_amp(ds, prior, trace, T):
    """Plain-loop re-implementation of the synchronized iteration.

    Kept deliberately naive (dense matrices, explicit per-step channel
    bookkeeping) as the small-instance oracle for `amp.run`.
    """
    params = ds.params
    p, n, kappa = params.p, params.n, params.kappa
    S = ds.Phi / math.sqrt(kappa)
    y0 = ds.y / math.sqrt(kappa)
    Abar = centered_adjacency_dense(ds)

    sigma = np.full(p, prior.rho)
    beta = np.full(p, prior.mean_b())
    z_prev = np.zeros(n)
    b_prev = np.zeros(p)
    r_prev = np.zeros(p)
    for t in range(T):
        ch_f = ScalarChannelParams(eta=trace.eta[t], nu=trace.nu[t],
                                   tau=math.inf if t == 0 else trace.tau[t - 1])
        if t == 0:
            r = np.full(p, prior.rho)
            df = 0.0
        else:
            r = denoise_sigma(sigma, b_prev, ch_f, prior)
            h = 1e-6
            df = float(np.mean((denoise_sigma(sigma + h, b_prev, ch_f, prior)
                                - denoise_sigma(sigma - h, b_prev, ch_f, prior)) / (2 * h)))
        sigma_next = Abar @ r / math.sqrt(p) - df * r_prev
        if t == 0:
            omega = 0.0
        else:
            ch_prev = ScalarChannelParams(eta=trace.eta[t], nu=trace.nu[t],
                                          tau=trace.tau[t - 1])
            h = 1e-6
            omega = float(np.mean((denoise_beta(b_prev + h, sigma, ch_prev, prior)
                                   - denoise_beta(b_prev - h, sigma, ch_prev, prior)) / (2 * h)))
        z = y0 - S @ beta + (omega / kappa) * z_prev
        b = S.T @ z + beta
        ch_z = ScalarChannelParams(eta=trace.eta[t + 1], nu=trace.nu[t + 1],
                                   tau=trace.tau[t])
        beta = denoise_beta(b, sigma_next, ch_z, prior)
        sigma, r_prev, z_prev, b_prev = sigma_next, r, z, b
    return sigma, beta, z_prev


def loop_reference_run(ds, prior, params, config, trace):
    """`amp.run`'s loop in its plain form, the oracle for its exact outputs.

    It copies Phi / sqrt(kappa) at every kappa and recomputes omega at each
    step from (b^{t-1}, sigma^t), where `run` reuses the Onsager mean of the
    denoiser call that made beta^t.  Returns the `AmpResult` arrays by name.
    """
    p, n, kappa, T = params.p, params.n, params.kappa, config.T
    S = ds.Phi / math.sqrt(kappa)
    y0 = ds.y / math.sqrt(kappa)
    if config.matrix_mode == "gaussian-surrogate":
        A_tilde = gaussian_surrogate(ds.sigma0, params.lam, ds.seed)
        apply_graph = lambda v: A_tilde @ v
    else:
        apply_graph = lambda v: centered_adjacency_apply(ds, v)

    sigma = np.full(p, prior.rho)
    beta = np.full(p, prior.mean_b())
    z_prev = np.zeros(n)
    b_prev = np.zeros(p)
    r_prev = np.zeros(p)
    overlap, mse_beta, pred_error = (np.full(T + 1, np.nan) for _ in range(3))

    def record(t, sig_hat, bet):
        if not config.record_history and t < T:
            return
        overlap[t] = float(sig_hat @ ds.sigma0) / p
        diff = bet - ds.beta0
        mse_beta[t] = float(diff @ diff) / p
        resid = ds.Phi @ diff
        pred_error[t] = float(resid @ resid) / n

    for t in range(T):
        r, df_mean = _f_and_partial(sigma, b_prev, _channel(trace, t), prior)
        record(t, r, beta)
        sigma_next = apply_graph(r) / math.sqrt(p) - df_mean * r_prev
        if t == 0:
            omega = 0.0
        else:
            _, omega = _zeta_and_partial(b_prev, sigma, _beta_channel(trace, t - 1), prior)
        z = y0 - S @ beta + (omega / kappa) * z_prev
        b = S.T @ z + beta
        beta_next, _ = _zeta_and_partial(b, sigma_next, _beta_channel(trace, t), prior)
        sigma, r_prev, beta, z_prev, b_prev = sigma_next, r, beta_next, z, b

    sigma_hat, _ = _f_and_partial(sigma, b_prev, _channel(trace, T), prior)
    sigma_hat = np.clip(sigma_hat, 0.0, 1.0)
    beta = np.clip(beta, -prior.s_max, prior.s_max)
    record(T, sigma_hat, beta)
    return {"sigma_iter": sigma, "sigma_hat": sigma_hat, "beta_hat": beta,
            "z": z_prev, "overlap": overlap, "mse_beta": mse_beta,
            "pred_error": pred_error}


@pytest.fixture(scope="module")
def small_setup():
    prior = spike_slab(0.6, [-1.0, 1.0])
    params = ModelParams.from_snr(n=60, p=50, Delta=0.8, b_p=8.0, lam=2.0,
                                  prior=prior)
    ds = generate(params, 123)
    trace = se_run(prior, 2.0, params.kappa, 0.8, T=6)
    return prior, params, ds, trace


class TestAgainstReference:
    def test_iterates_match_reference(self, small_setup):
        prior, params, ds, trace = small_setup
        for T in (1, 3, 5):
            res = run(ds, AmpConfig(T=T), se_trace=trace)
            sig_ref, beta_ref, z_ref = reference_amp(ds, prior, trace, T)
            assert np.max(np.abs(res.sigma_iter - sig_ref)) < 1e-7
            assert np.max(np.abs(res.beta_hat - beta_ref)) < 1e-7
            assert np.max(np.abs(res.z - z_ref)) < 1e-7

    @pytest.mark.parametrize("n", [50, 60])
    @pytest.mark.parametrize("matrix_mode", ["sbm", "gaussian-surrogate"])
    @pytest.mark.parametrize("record_history", [True, False])
    def test_outputs_equal_loop_reference(self, n, matrix_mode, record_history, monkeypatch):
        """Every output array equals the plain loop's bit for bit, at kappa = 1
        (no copy of Phi) and kappa = 1.2: a run alone, and each run of one
        draw's three Deltas in both matrix modes in one lockstep.  The six
        lockstep runs share 8-row slabs of S, Phi and the surrogate, with a 2-
        or 4-wide tail, and one graph block product."""
        prior = spike_slab(0.6, [-1.0, 1.0])
        params = ModelParams.from_snr(n=n, p=50, Delta=0.8, b_p=8.0, lam=2.0,
                                      prior=prior)
        ds = generate(params, 123)
        trace = se_run(prior, 2.0, params.kappa, 0.8, T=9)
        config = AmpConfig(T=8, matrix_mode=matrix_mode, record_history=record_history)
        res = run(ds, config, se_trace=trace)
        ref = loop_reference_run(ds, prior, params, config, trace)
        for name, want in ref.items():
            assert np.array_equal(getattr(res, name), want, equal_nan=True), name

        monkeypatch.setattr(netamp.lockstep, "SLAB", 8)
        draws = [ds, with_delta(ds, 0.3), with_delta(ds, 2.5)]
        traces = [se_run(prior, 2.0, params.kappa, d.params.Delta, T=9) for d in draws]
        # this parameter's mode first, so the two parameters take both orders
        modes = sorted(("sbm", "gaussian-surrogate"), key=lambda m: m != matrix_mode)
        configs = [dataclasses.replace(config, matrix_mode=mode) for mode in modes for _ in draws]
        got = run_draw(draws * 2, configs, traces * 2)
        assert len(got) == 6
        for res, d, cfg, tr in zip(got, draws * 2, configs, traces * 2):
            ref = loop_reference_run(d, prior, d.params, cfg, tr)
            for name, want in ref.items():
                assert np.array_equal(getattr(res, name), want, equal_nan=True), name

    def test_first_iterate_structure(self, small_setup):
        """From the prior-mean start the first sigma step is the constant-
        denoiser power step rho * Abar 1 / sqrt(p)."""
        prior, params, ds, trace = small_setup
        res = run(ds, AmpConfig(T=1), se_trace=trace)
        expect = prior.rho * (centered_adjacency_dense(ds) @ np.ones(params.p)) \
            / math.sqrt(params.p)
        assert np.max(np.abs(res.sigma_iter - expect)) < 1e-12


class TestBehavior:
    def test_noiseless_high_sampling_recovery(self):
        """lam=0, tiny noise, kappa=2: essentially exact recovery."""
        prior = spike_slab(0.5, [-1.0, 1.0])
        params = ModelParams.from_snr(n=1600, p=800, Delta=1e-6, b_p=8.0,
                                      lam=0.0, prior=prior)
        ds = generate(params, 0)
        res = run(ds, AmpConfig(T=25))
        assert res.pred_error[25] <= 1e-3

    def test_determinism(self, small_setup):
        prior, params, ds, trace = small_setup
        a = run(ds, AmpConfig(T=4), se_trace=trace)
        b = run(ds, AmpConfig(T=4), se_trace=trace)
        assert np.array_equal(a.sigma_hat, b.sigma_hat)
        assert np.array_equal(a.beta_hat, b.beta_hat)
        assert np.array_equal(a.overlap, b.overlap)

    def test_estimate_ranges(self, small_setup):
        prior, params, ds, trace = small_setup
        res = run(ds, AmpConfig(T=5), se_trace=trace)
        assert np.all(res.sigma_hat >= 0.0) and np.all(res.sigma_hat <= 1.0)
        assert np.all(np.abs(res.beta_hat) <= prior.s_max + 1e-12)

    def test_dimension_mismatch(self, small_setup):
        prior, params, ds, trace = small_setup
        bad = ModelParams.from_snr(n=61, p=50, Delta=0.8, b_p=8.0, lam=2.0,
                                   prior=prior)
        with pytest.raises(DimensionMismatch):
            run(dataclasses.replace(ds, params=bad), AmpConfig(T=2))

    def test_non_finite_residual_fails_only_its_run(self, small_setup):
        """A y holding an inf makes the residual z non-finite: that run raises
        DivergedIteration at iteration 0, alone and in a draw's lockstep, where
        the harness's `_isolated` contains it and the other runs equal their
        solo results."""
        prior, params, ds, trace = small_setup
        y = ds.y.copy()
        y[7] = np.inf
        bad = dataclasses.replace(ds, y=y)
        config = AmpConfig(T=4)
        with pytest.raises(DivergedIteration, match=r"^z contains NaN/Inf at iteration 0$"):
            run(bad, config, se_trace=trace)
        draws = [ds, bad, with_delta(ds, 2.5)]
        traces = [trace, trace, se_run(prior, 2.0, params.kappa, 2.5, T=6)]
        got = run_draw(draws, [config] * 3, traces, wrap=_isolated)
        assert got[1] == ("err", "DivergedIteration: z contains NaN/Inf at iteration 0")
        for (status, res), d, tr in zip(got[::2], draws[::2], traces[::2]):
            assert status == "ok"
            solo = run(d, config, se_trace=tr)
            for name in ("sigma_iter", "sigma_hat", "beta_hat", "z", "overlap",
                         "mse_beta", "pred_error"):
                assert np.array_equal(getattr(res, name), getattr(solo, name)), name

    def test_record_history_flag(self, small_setup):
        prior, params, ds, trace = small_setup
        res = run(ds, AmpConfig(T=4, record_history=False), se_trace=trace)
        assert np.all(np.isnan(res.overlap[:4]))
        assert np.isfinite(res.overlap[4])
        full = run(ds, AmpConfig(T=4), se_trace=trace)
        assert res.overlap[4] == full.overlap[4]
        assert res.mse_beta[4] == full.mse_beta[4]
        assert res.pred_error[4] == full.pred_error[4]

    def test_surrogate_mode_deterministic(self, small_setup):
        prior, params, ds, trace = small_setup
        a = run(ds, AmpConfig(T=3, matrix_mode="gaussian-surrogate"),
                se_trace=trace)
        b = run(ds, AmpConfig(T=3, matrix_mode="gaussian-surrogate"),
                se_trace=trace)
        assert np.array_equal(a.sigma_iter, b.sigma_iter)


class TestOnsagerAverage:
    """The memory coefficients `run` takes from `_f_and_partial` and `_zeta_and_partial`."""

    def test_constant_denoiser_zero(self, b_indep, rng):
        # B independent of Sigma and eta = 0: f is constant in both arguments
        ch = ScalarChannelParams(eta=0.0, nu=1.0, tau=1.0)
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert _f_and_partial(x, y, ch, b_indep)[1] == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_difference(self, pm1, rng):
        ch = ScalarChannelParams(eta=1.1, nu=0.9, tau=1.2)
        x, y = rng.normal(size=40), rng.normal(size=40)
        h = 1e-6
        for partial, fn in ((_f_and_partial, denoise_sigma),
                            (_zeta_and_partial, denoise_beta)):
            got = partial(x, y, ch, pm1)[1]
            fd = float(np.mean((fn(x + h, y, ch, pm1) - fn(x - h, y, ch, pm1)) / (2 * h)))
            assert got == pytest.approx(fd, abs=1e-6)

    def test_zeta_average_nonnegative(self, five_atom, rng):
        ch = ScalarChannelParams(eta=0.5, nu=1.0, tau=0.8)
        for _ in range(5):
            x, y = rng.normal(size=25), rng.normal(size=25)
            assert _zeta_and_partial(x, y, ch, five_atom)[1] >= 0.0


class TestStateEvolutionAgreement:
    def test_moderate_size_tracking(self, pm7):
        """Overlap and prediction error track the deterministic trace."""
        params = ModelParams.from_snr(n=800, p=800, Delta=1.0, b_p=80.0,
                                      lam=3.0, prior=pm7)
        trace = se_run(pm7, 3.0, 1.0, 1.0, T=16)
        ovl, prd = [], []
        for seed in range(4):
            ds = generate(params, seed)
            res = run(ds, AmpConfig(T=15), se_trace=trace)
            ovl.append(res.overlap[15])
            prd.append(res.pred_error[15])
        fp = fixed_point(pm7, 3.0, 1.0, 1.0)
        assert np.mean(ovl) == pytest.approx(fp.mu_star / 3.0, abs=0.05)
        assert np.mean(prd) == pytest.approx(1.0 * fp.xi_star / (1 + fp.xi_star),
                                             rel=0.15)
