import dataclasses
import math

import numpy as np
import pytest

import netamp.rs_potential
from netamp.priors import joint_atoms, mmse1, mmse2
from netamp.rs_potential import coincide, minimize, rs_value
from netamp.state_evolution import fixed_point, predicted_errors

# frozen MC value for the scalar-channel MI at (mu, xi) = (1, 1),
# five-atom prior, kappa = 1.5, Delta = 2 (1e6 draws, seed 20240817)
MI_SPOT_MC, MI_SPOT_TOL = 0.234843, 1.9e-3


class TestRsValue:
    def test_constant_b_at_origin(self, b_zero, quad):
        # B = 0 prior at (0, 0): only the lam rho^2 / 4 term survives
        val = rs_value(0.0, 0.0, b_zero, lam=2.0, kappa=1.0, Delta=1.0, quad=quad)
        assert val == pytest.approx(2.0 * b_zero.rho**2 / 4.0, abs=1e-12)

    def test_spot_value_vs_mc_composite(self, five_atom, quad):
        got = rs_value(1.0, 1.0, five_atom, lam=2.0, kappa=1.5, Delta=2.0, quad=quad)
        closed = (2.0 * 0.4**2 / 4.0 + 1.0 / (4.0 * 2.0)
                  + 0.75 * (math.log(2.0) - 0.5) - 0.5 * 0.4)
        assert got == pytest.approx(closed + MI_SPOT_MC, abs=MI_SPOT_TOL)

    def test_lambda_zero_branch(self, five_atom, quad):
        val = rs_value(0.0, 0.5, five_atom, lam=0.0, kappa=1.5, Delta=1.0, quad=quad)
        assert np.isfinite(val)
        with pytest.raises(ValueError):
            rs_value(0.1, 0.5, five_atom, lam=0.0, kappa=1.5, Delta=1.0, quad=quad)

    def test_domain(self, five_atom, quad):
        with pytest.raises(ValueError):
            rs_value(-0.1, 0.0, five_atom, 1.0, 1.0, 1.0, quad)


class TestMinimize:
    def test_constant_b_minimizer_at_zero_xi(self, b_zero, quad):
        ev = minimize(b_zero, 2.0, 1.0, 1.0, quad=quad)
        assert ev.xi_bar == pytest.approx(0.0, abs=1e-6)

    def test_stationarity_at_minimizer(self, five_atom, quad):
        for lam in (0.0, 2.0):
            ev = minimize(five_atom, lam, 1.5, 1.0, quad=quad)
            m1 = mmse1(ev.mu_bar, ev.xi_bar, five_atom, 1.0, 1.5, quad)
            m2 = mmse2(ev.mu_bar, ev.xi_bar, five_atom, 1.0, 1.5, quad)
            r_mu = abs(ev.mu_bar - lam * (five_atom.rho - m1))
            r_xi = abs(ev.xi_bar - m2 / 1.0)
            assert ev.stationarity_residual == max(r_mu, r_xi)
            assert ev.stationarity_residual <= 1e-4

    def test_matches_fixed_point_here(self, five_atom, quad):
        ev = minimize(five_atom, 2.0, 1.5, 1.0, quad=quad)
        fp = fixed_point(five_atom, 2.0, 1.5, 1.0, quad=quad)
        assert abs(ev.mu_bar - fp.mu_star) <= 1e-6
        assert abs(ev.xi_bar - fp.xi_star) <= 1e-6

    def test_value_below_candidates(self, five_atom, quad):
        ev = minimize(five_atom, 1.0, 1.5, 1.0, quad=quad)
        assert all(ev.value <= v + 1e-12 for _, _, v in ev.candidates)

    def test_lambda_zero(self, five_atom, quad):
        ev = minimize(five_atom, 0.0, 1.5, 1.0, quad=quad)
        fp = fixed_point(five_atom, 0.0, 1.5, 1.0, quad=quad)
        assert ev.mu_bar == 0.0
        assert abs(ev.xi_bar - fp.xi_star) <= 1e-6

    def test_grid_refinement_stability(self, five_atom, quad, monkeypatch):
        monkeypatch.setattr(netamp.rs_potential, "GRID_POINTS", 20)
        a = minimize(five_atom, 2.0, 1.5, 1.0, quad=quad)
        monkeypatch.setattr(netamp.rs_potential, "GRID_POINTS", 40)
        b = minimize(five_atom, 2.0, 1.5, 1.0, quad=quad)
        assert abs(a.mu_bar - b.mu_bar) <= 1e-6
        assert abs(a.xi_bar - b.xi_bar) <= 1e-6

    def test_mi_nonnegative(self, five_atom, b_zero, quad):
        assert minimize(five_atom, 1.0, 1.5, 2.0, quad=quad).value >= -1e-12
        # degenerate-ish prior: tiny mutual information
        ev = minimize(b_zero, 1e-6, 1.0, 1.0, quad=quad)
        assert -1e-12 <= ev.value <= 1e-6


def fixed_point_and_minimizer(prior, lam, kappa, Delta):
    """The fixed point and the potential's minimizer that the harness compares."""
    fp = fixed_point(prior, lam, kappa, Delta)
    return fp, minimize(prior, lam, kappa, Delta, uninformative=fp)


class TestOptimalityCheck:
    def test_constant_b_coincides(self, b_zero):
        assert coincide(*fixed_point_and_minimizer(b_zero, 2.0, 1.0, 1.0))

    def test_reference_config_coincides(self, pm7):
        fp, ev = fixed_point_and_minimizer(pm7, 3.0, 1.0, 1.0)
        assert coincide(fp, ev)
        # the errors predicted at the minimizer against those at the fixed point
        at_min = dataclasses.replace(fp, mu_star=ev.mu_bar, xi_star=ev.xi_bar)
        mse_sig, mse_beta = predicted_errors(fp, pm7, 3.0, 1.0)
        mmse_pred, y_mmse_pred = predicted_errors(at_min, pm7, 3.0, 1.0)
        assert mmse_pred == pytest.approx(mse_sig, abs=1e-6)
        assert y_mmse_pred == pytest.approx(mse_beta, abs=1e-6)

    def test_lambda_zero_coincides(self, pm1):
        fp, ev = fixed_point_and_minimizer(pm1, 0.0, 1.0, 1.0)
        assert coincide(fp, ev)
        assert ev.mu_bar == 0.0
        assert fp.mu_star == 0.0


# The whole-model I-MMSE identity (Guo, Shamai & Verdu 2005), a second route
# to the value I* = min F: in y = Phi beta + sqrt(Delta) eps with n = kappa p,
# dI/d(1/Delta) is kappa/2 times the per-sample mmse of Phi beta, which the
# SE puts at Delta xi*/(1 + xi*) wherever the fixed point is the minimizer:
#     dI*/dDelta = -(kappa / (2 Delta)) xi*/(1 + xi*).
# Over figure1a's 4 x 4 (lam, Delta) grid, central differences of I* at
# h = 1e-3 Delta met it to a relative 3.6e-7 to 7.3e-7 (0.9e-7 to 3.6e-7 at
# h / 2, 1.5e-6 to 2.9e-6 at 2 h).  The gap grows as h^2, so it is the
# difference quotient's truncation error, apart from a part that stays as h
# shrinks at Delta = 0.5, 2.7e-7 at lam = 0 and 0.8e-7 at lam = 1: the
# order-41 quadrature error (extrapolated to h = 0 at order 82, below 1e-10).
I_MMSE_STEP, I_MMSE_RTOL = 1e-3, 1e-6


@pytest.mark.parametrize("lam, Delta", [(0.0, 0.5), (0.0, 2.0), (2.0, 0.5), (2.0, 2.0)])
def test_whole_model_i_mmse(five_atom, lam, Delta):
    kappa, h = 1.5, I_MMSE_STEP * Delta
    fp, ev = fixed_point_and_minimizer(five_atom, lam, kappa, Delta)
    assert coincide(fp, ev)
    # H(Sigma, B) = h(0.4) + 0.4 ln 5 = 1.3168 nats bounds the information
    entropy = -sum(w * math.log(w) for _, _, w in joint_atoms(five_atom))
    assert 0.0 <= ev.value <= entropy
    slope = (minimize(five_atom, lam, kappa, Delta + h).value
             - minimize(five_atom, lam, kappa, Delta - h).value) / (2 * h)
    want = -kappa / (2 * Delta) * fp.xi_star / (1 + fp.xi_star)
    assert abs(slope - want) <= I_MMSE_RTOL * abs(want)


# The same identity integrated along the fixed points: a route to I* that
# reads the potential's value at one end only,
#     I*(Delta_lo) = I*(Delta_hi) + int (kappa / (2 D)) xi*(D)/(1 + xi*(D)) dD,
# which holds where the fixed point is the minimizer along the whole path, so
# both starts of `fixed_point` must meet at every node.  With INTEGRAL_NODES
# Gauss-Legendre nodes in log D over [0.5, 4] at figure1a's prior, it met
# `minimize(...).value` to a relative 7.8e-9 at lam = 0 (7.8e-9 to 7.9e-9 at
# 8 to 32 nodes) and 3.3e-11 at lam = 2 (3.3e-11 to 5.7e-11): at lam = 0 the
# gap is the order-41 quadrature error, 3.8e-10 at order 61 and 7e-12 at 82.
INTEGRAL_NODES, INTEGRAL_RTOL = 16, 2e-8


@pytest.mark.parametrize("lam", [0.0, 2.0])
def test_mi_integral_route(five_atom, lam):
    kappa, lo, hi = 1.5, 0.5, 4.0
    x, w = np.polynomial.legendre.leggauss(INTEGRAL_NODES)
    half = 0.5 * math.log(hi / lo)
    integral = 0.0
    for node, weight in zip(x, w):
        D = math.sqrt(lo * hi) * math.exp(half * node)
        fp = fixed_point(five_atom, lam, kappa, D)
        other = fixed_point(five_atom, lam, kappa, D, start="informative")
        assert abs(fp.mu_star - other.mu_star) <= 1e-4
        assert abs(fp.xi_star - other.xi_star) <= 1e-4
        # dD = D du in u = log D
        integral += half * weight * kappa / 2 * fp.xi_star / (1 + fp.xi_star)
    want = minimize(five_atom, lam, kappa, lo).value
    got = minimize(five_atom, lam, kappa, hi).value + integral
    assert abs(got - want) <= INTEGRAL_RTOL * abs(want)
