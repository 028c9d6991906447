import math

import numpy as np
import pytest

from netamp.state_evolution import SeFixedPoint, fixed_point, predicted_errors, se_run


class TestTrace:
    def test_tau0_initialization(self, pm7, five_atom):
        for prior, kappa, Delta in ((pm7, 1.0, 1.0), (five_atom, 1.5, 2.0)):
            tr = se_run(prior, 2.0, kappa, Delta, T=3)
            expect = (Delta + prior.second_moment_b()) / kappa
            assert tr.tau[0] ** 2 == pytest.approx(expect, abs=1e-12)

    def test_eta_nu_relation(self, pm7):
        tr = se_run(pm7, 3.0, 1.0, 1.0, T=12)
        assert np.allclose(tr.eta[1:], math.sqrt(3.0) * tr.nu[1:] ** 2, atol=1e-14)

    def test_monotone_trajectories(self, pm7, five_atom):
        for prior, lam, Delta, kappa in ((pm7, 3.0, 1.0, 1.0), (five_atom, 2.0, 0.5, 1.5)):
            tr = se_run(prior, lam, kappa, Delta, T=40)
            assert np.all(np.diff(tr.mu) >= -1e-12)
            assert np.all(np.diff(tr.xi) <= 1e-12)

    def test_constant_denoiser_path(self, b_zero):
        # B = 0 and lam = 0: f is the constant rho, nothing evolves
        tr = se_run(b_zero, 0.0, 1.0, 1.0, T=6)
        rho = b_zero.rho
        assert np.allclose(tr.nu[1:] ** 2, rho**2, atol=1e-14)
        assert np.all(tr.eta == 0.0)
        assert np.allclose(tr.tau**2, 1.0, atol=1e-14)  # Delta / kappa

    def test_first_step_uninformative(self, pm7):
        # no B-side data exists at t = 0: nu_1^2 = rho^2 from the constant
        # denoiser, not the exact-conditioning value rho
        tr = se_run(pm7, 3.0, 1.0, 1.0, T=2)
        assert tr.nu[1] ** 2 == pytest.approx(pm7.rho**2, abs=1e-12)

    def test_trace_limit_matches_fixed_point(self, pm7):
        tr = se_run(pm7, 3.0, 1.0, 1.0, T=200)
        fp = fixed_point(pm7, 3.0, 1.0, 1.0)
        assert abs(tr.mu[-1] - fp.mu_star) <= 1e-10
        assert abs(tr.xi[-1] - fp.xi_star) <= 1e-10


class TestFixedPoint:
    def test_lambda_zero(self, pm1, quad):
        fp = fixed_point(pm1, 0.0, 1.0, 1.0, quad=quad)
        assert fp.mu_star == 0.0
        # xi solves xi = mmse2(0, xi) / Delta
        from netamp.priors import mmse2

        assert fp.xi_star == pytest.approx(
            mmse2(0.0, fp.xi_star, pm1, 1.0, 1.0, quad) / 1.0, abs=1e-10)
        assert fp.converged

    def test_constant_b(self, b_zero):
        fp = fixed_point(b_zero, 2.0, 1.0, 1.0)
        assert fp.xi_star == pytest.approx(0.0, abs=1e-12)

    def test_residual_definition(self, five_atom, quad):
        from netamp.priors import mmse1, mmse2

        for lam in (0.0, 2.0):
            fp = fixed_point(five_atom, lam, 1.5, 1.0, quad=quad)
            r_mu = abs(fp.mu_star - lam * (0.4 - mmse1(fp.mu_star, fp.xi_star,
                                                       five_atom, 1.0, 1.5, quad)))
            r_xi = abs(fp.xi_star - mmse2(fp.mu_star, fp.xi_star, five_atom,
                                          1.0, 1.5, quad) / 1.0)
            assert fp.residual == max(r_mu, r_xi)
            assert fp.residual <= 1e-10

    def test_long_recursion_oracle(self, five_atom, quad_double):
        """Fixed point vs a 500-step trace at doubled quadrature order."""
        fp = fixed_point(five_atom, 2.0, 1.5, 1.0, quad=quad_double)
        tr = se_run(five_atom, 2.0, 1.5, 1.0, T=500, quad=quad_double)
        assert abs(tr.mu[-1] - fp.mu_star) <= 1e-8
        assert abs(tr.xi[-1] - fp.xi_star) <= 1e-8

    def test_informative_start_agrees_here(self, pm7):
        a = fixed_point(pm7, 3.0, 1.0, 1.0)
        b = fixed_point(pm7, 3.0, 1.0, 1.0, start="informative")
        assert abs(a.mu_star - b.mu_star) <= 1e-8
        assert abs(a.xi_star - b.xi_star) <= 1e-8

    def test_quadrature_refinement_stability(self, pm7, quad, quad_double):
        a = fixed_point(pm7, 3.0, 1.0, 1.0, quad=quad)
        b = fixed_point(pm7, 3.0, 1.0, 1.0, quad=quad_double)
        assert abs(a.mu_star - b.mu_star) <= 1e-7
        assert abs(a.xi_star - b.xi_star) <= 1e-7


@pytest.mark.parametrize("lam, kappa, Delta", [
    (1.0, 1.0, 0.0), (1.0, 1.0, -0.5), (1.0, 0.0, 1.0), (1.0, -1.0, 1.0), (-1.0, 1.0, 1.0)])
def test_invalid_model_rejected(pm7, lam, kappa, Delta):
    """se_run and fixed_point name the model they cannot solve, with one error."""
    for solve in (lambda: se_run(pm7, lam, kappa, Delta, T=3),
                  lambda: fixed_point(pm7, lam, kappa, Delta)):
        with pytest.raises(ValueError, match=r"need Delta > 0, kappa > 0 and lam >= 0, "
                                             rf"not Delta = {Delta}, kappa = {kappa}, "
                                             rf"lam = {lam}"):
            solve()


class TestPredictedErrors:
    def test_perfect_recovery(self, pm7):
        fp = SeFixedPoint(mu_star=3.0 * pm7.rho, xi_star=0.3, iterations=1,
                          residual=0.0, converged=True)
        mse_sig, _ = predicted_errors(fp, pm7, 3.0, 1.0)
        assert mse_sig == pytest.approx(0.0, abs=1e-15)

    def test_zero_xi(self, pm7):
        fp = SeFixedPoint(mu_star=1.0, xi_star=0.0, iterations=1,
                          residual=0.0, converged=True)
        _, mse_beta = predicted_errors(fp, pm7, 3.0, 1.0)
        assert mse_beta == 0.0

    def test_lambda_zero_limit(self, pm7):
        fp = SeFixedPoint(mu_star=0.0, xi_star=0.5, iterations=1,
                          residual=0.0, converged=True)
        mse_sig, mse_beta = predicted_errors(fp, pm7, 0.0, 2.0)
        assert mse_sig == pytest.approx(pm7.rho**2)
        assert mse_beta == pytest.approx(2.0 * 0.5 / 1.5)

    def test_ranges(self, pm7):
        fp = fixed_point(pm7, 3.0, 1.0, 1.0)
        mse_sig, mse_beta = predicted_errors(fp, pm7, 3.0, 1.0)
        assert 0.0 <= mse_sig <= pm7.rho**2
        xi0 = pm7.second_moment_b() / 1.0
        assert 0.0 <= mse_beta <= 1.0 * xi0 / (1 + xi0)
