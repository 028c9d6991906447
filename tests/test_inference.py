import math

import numpy as np
import pytest

from netamp.inference import (credible_intervals, discover, mse_beta, mse_sigma,
                              pvalues)


class TestErrorMetrics:
    def test_mse_sigma_trivials(self, rng):
        v = (rng.random(500) < 0.4).astype(float)
        assert mse_sigma(v, v) == pytest.approx(0.0, abs=1e-15)
        frac = v.mean()
        assert mse_sigma(np.zeros(500), v) == pytest.approx(frac**2)

    def test_mse_sigma_matches_dense(self, rng):
        for p in (100, 200):
            u = rng.random(p)
            v = (rng.random(p) < 0.5).astype(float)
            dense = np.linalg.norm(np.outer(u, u) - np.outer(v, v), "fro") ** 2 / p**2
            assert abs(mse_sigma(u, v) - dense) <= 1e-10

    def test_mse_beta_trivials(self, rng):
        n = p = 300
        Phi = rng.normal(size=(n, p)) / math.sqrt(p)
        beta = rng.normal(size=p)
        assert mse_beta(Phi, beta, beta) == 0.0
        e1 = np.zeros(p)
        e1[0] = 1.0
        assert mse_beta(Phi, beta + e1, beta) == pytest.approx(1.0 / n, rel=0.2)

    def test_mse_beta_matches_loop(self, rng):
        Phi = rng.normal(size=(40, 30))
        b1, b0 = rng.normal(size=30), rng.normal(size=30)
        acc = sum(float(Phi[i] @ (b1 - b0)) ** 2 for i in range(40)) / 40
        assert abs(mse_beta(Phi, b1, b0) - acc) <= 1e-12


class TestPvalues:
    def test_zero_statistic(self):
        pv = pvalues(np.array([0.0, 0.5]), 0.5)
        assert pv[0] == pytest.approx(1.0)

    def test_quantile_point(self):
        nu = 0.37
        pv = pvalues(np.array([1.959964 * nu]), nu)
        assert pv[0] == pytest.approx(0.05, abs=1e-6)

    def test_range(self, rng):
        pv = pvalues(rng.normal(size=1000) * 3, 1.0)
        assert np.all(pv > 0.0) and np.all(pv <= 1.0)

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            pvalues(np.zeros(3), 0.0)

    def test_null_uniformity_simulation(self):
        """Null p-values from the full pipeline pass a KS check (1% level)."""
        from scipy.stats import kstest

        from netamp.amp import AmpConfig, run
        from netamp.priors import spike_slab
        from netamp.state_evolution import se_run
        from netamp.synth import ModelParams, generate

        prior = spike_slab(0.07, [-1.0, 1.0])
        p = 1500
        params = ModelParams.from_snr(n=p, p=p, Delta=1.0, b_p=p / 2.0, lam=1.0,
                                      prior=prior)
        T = 15
        trace = se_run(prior, 1.0, 1.0, 1.0, T=T + 1)
        stats = []
        for seed in range(20):
            ds = generate(params, seed)
            res = run(ds, AmpConfig(T=T), se_trace=trace)
            pv = pvalues(res.sigma_iter, float(trace.nu[T]))
            stats.append(kstest(pv[ds.sigma0 == 0], "uniform").statistic)
        from scipy.stats import ksone

        n_null = int(p * (1 - prior.rho))
        crit = float(ksone.ppf(0.99, n_null))
        below = np.mean(np.array(stats) < crit)
        assert np.median(stats) < crit, (np.median(stats), crit)
        assert below >= 0.6, f"only {below:.0%} of replicates below the 1% critical value"


def brute_force_threshold(pv, rho, alpha, res=2_000_000):
    p = len(pv)
    s = np.linspace(0.0, 1.0, res + 1)
    cnt = np.searchsorted(np.sort(pv), s, side="right")
    fdp = p * (1 - rho) * s / np.maximum(cnt, 1)
    hit = fdp >= alpha
    return float(s[np.argmax(hit)]) if hit.any() else None


class TestDiscover:
    def test_all_ones_no_rejections(self):
        r = discover(np.ones(10), rho=0.5, alpha=0.2)
        assert r.s_star == pytest.approx(0.2 / (10 * 0.5))
        assert len(r.rejected) == 0

    def test_toy_case_brute_force(self):
        pv = np.array([0.001, 0.002, 0.5, 0.9])
        r = discover(pv, rho=0.5, alpha=0.2)
        brute = brute_force_threshold(pv, 0.5, 0.2)
        assert r.s_star == pytest.approx(brute, abs=2e-6)
        assert set(r.rejected) == {0, 1}

    def test_randomized_brute_force(self, rng):
        for _ in range(80):
            n = int(rng.integers(1, 40))
            pv = np.round(rng.random(n), 3)       # rounding induces ties
            alpha = float(rng.uniform(0.02, 0.5))
            rho = float(rng.uniform(0.05, 0.9))
            mine = discover(pv, rho, alpha).s_star
            brute = brute_force_threshold(pv, rho, alpha)
            if brute is None:
                assert mine >= 1.0
            else:
                assert abs(mine - brute) <= 2e-6, (pv, alpha, rho)

    def test_monotone_in_alpha(self, rng):
        pv = rng.random(200) ** 2
        sets = []
        for alpha in (0.05, 0.1, 0.2, 0.4):
            sets.append(set(discover(pv, 0.1, alpha).rejected))
        for small, big in zip(sets, sets[1:]):
            assert small <= big

    def test_truth_metrics(self):
        # brute-force scan gives s* = 0.45, rejecting the three smallest
        pv = np.array([1e-6, 1e-5, 0.3, 0.8])
        truth = np.array([1.0, 0.0, 1.0, 0.0])
        r = discover(pv, rho=0.5, alpha=0.3, truth=truth)
        assert r.s_star == pytest.approx(0.45)
        assert set(r.rejected) == {0, 1, 2}
        assert r.empirical_fdp == pytest.approx(1.0 / 3.0)
        assert r.empirical_tdp == pytest.approx(2.0 / 3.0)
        # empty rejection set: both rates are 0, not undefined
        r = discover(np.ones(4), rho=0.5, alpha=0.3, truth=truth)
        assert len(r.rejected) == 0
        assert r.empirical_fdp == 0.0
        assert r.empirical_tdp == 0.0

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            discover(np.ones(3), 0.5, 0.0)

    def test_step_up_variant_matches_reference_bh(self, rng):
        """Step-up variant equals a direct BH implementation with the
        null-fraction-corrected level."""
        for _ in range(40):
            n = int(rng.integers(2, 60))
            pv = np.round(rng.random(n) ** 2, 3)
            alpha, rho = float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.1, 0.8))
            got = discover(pv, rho, alpha, variant="step-up")
            order = np.sort(pv)
            ks = [k for k in range(1, n + 1)
                  if order[k - 1] <= alpha * k / (n * (1 - rho))]
            if not ks:
                assert len(got.rejected) == 0
            else:
                thr = order[max(ks) - 1]
                assert set(got.rejected) == set(np.flatnonzero(pv <= thr))

    def test_step_up_rejects_at_least_first_crossing(self, rng):
        """The step-up set contains the first-crossing (step-down-like) set."""
        for _ in range(40):
            pv = rng.random(int(rng.integers(2, 80))) ** 2
            alpha, rho = 0.2, 0.3
            down = set(discover(pv, rho, alpha).rejected)
            up = set(discover(pv, rho, alpha, variant="step-up").rejected)
            assert down <= up

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            discover(np.ones(3), 0.5, 0.2, variant="bogus")


class TestCredibleIntervals:
    def test_alpha_one_zero_width(self, rng):
        sig = rng.normal(size=10)
        ci = credible_intervals(sig, eta_t=0.5, nu_t=0.2, alpha=1.0)
        assert np.allclose(ci.lower, ci.upper)
        assert np.allclose(ci.lower, sig / 0.5)

    def test_half_width_formula(self):
        nu, eta = 0.3, 0.7
        ci = credible_intervals(np.zeros(4), eta, nu, alpha=0.05)
        half = (ci.upper - ci.lower) / 2
        assert np.allclose(half, 1.959964 * nu / eta, atol=1e-6 * nu / eta)

    def test_coverage_computation(self):
        sig = np.array([0.0, 1.0, 0.5])
        truth = np.array([0.0, 1.0, 5.0])
        ci = credible_intervals(sig, 1.0, 0.5, alpha=0.1, truth=truth)
        assert ci.empirical_coverage == pytest.approx(2.0 / 3.0)

    def test_uninformative_raises(self):
        with pytest.raises(ValueError, match="uninformative"):
            credible_intervals(np.zeros(3), 0.0, 0.5, 0.1)

    def test_alpha_domain(self):
        for alpha in (0.0, -0.1, 1.3):
            with pytest.raises(ValueError, match="alpha"):
                credible_intervals(np.zeros(3), 0.5, 0.5, alpha)
