"""Deterministic state evolution and its fixed point.

The scalar parameters (eta_t, nu_t, tau_t) track the effective Gaussian
channels seen by the message-passing iterates:

    nu_{t+1}^2  = rho - mmse1(mu_t, xi_{t-1})          (sigma side)
    eta_{t+1}   = sqrt(lam) * nu_{t+1}^2
    tau_{t+1}^2 = (Delta + mmse2(mu_{t+1}, xi_t)) / kappa   (beta side)

with the reparametrization mu_t = lam * nu_t^2 and
xi_t = (kappa * tau_t^2 - Delta) / Delta.  The recursion starts from the
uninformative algorithm initialization: the t = 0 sigma denoiser sees no
signal (eta_0 = nu_0 = 0, factor dropped) and no B-side observation exists
yet (tau_{-1} treated as absent), so nu_1^2 = rho^2.  tau_0^2 =
(Delta + E[B^2]) / kappa corresponds to starting the regression side from
beta = 0.

Both mu_t (non-decreasing) and xi_t (non-increasing) converge monotonically;
the limit solves

    mu* = lam * (rho - mmse1(mu*, xi*)),   xi* = mmse2(mu*, xi*) / Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .priors import (DEFAULT_QUAD, PriorSpec, QuadratureRule, _mmse_channels,
                     mmse1, mmse2, mmse_pair)

__all__ = ["SeTrace", "SeFixedPoint", "se_run", "fixed_point", "predicted_errors"]

# `fixed_point` stops at a step below 0.1 * FIXED_POINT_TOL or after FIXED_POINT_MAX_ITER
# steps, and is converged when its residual is at most FIXED_POINT_TOL
FIXED_POINT_TOL, FIXED_POINT_MAX_ITER = 1e-10, 10_000


@dataclass(frozen=True)
class SeTrace:
    """Per-iteration channel parameters, index t = 0 .. T."""

    lam: float
    kappa: float
    Delta: float
    eta: np.ndarray
    nu: np.ndarray
    tau: np.ndarray

    @property
    def mu(self) -> np.ndarray:
        return self.lam * self.nu**2

    @property
    def xi(self) -> np.ndarray:
        return (self.kappa * self.tau**2 - self.Delta) / self.Delta

    def __len__(self) -> int:
        return len(self.eta)


@dataclass(frozen=True)
class SeFixedPoint:
    mu_star: float
    xi_star: float
    iterations: int
    residual: float
    converged: bool


def _check_model(lam: float, kappa: float, Delta: float) -> None:
    if not (Delta > 0 and kappa > 0 and lam >= 0):
        raise ValueError(f"need Delta > 0, kappa > 0 and lam >= 0, "
                         f"not Delta = {Delta}, kappa = {kappa}, lam = {lam}")


def se_run(prior: PriorSpec, lam: float, kappa: float, Delta: float, T: int,
           quad: QuadratureRule = DEFAULT_QUAD) -> SeTrace:
    """Run T state-evolution steps; returns channel parameters for t = 0..T.

    The start is uninformative: (eta_0, nu_0) = (0, 0).
    """
    _check_model(lam, kappa, Delta)
    if T < 1:
        raise ValueError("T must be at least 1")
    eta = np.zeros(T + 1)
    nu = np.zeros(T + 1)
    tau = np.zeros(T + 1)
    tau[0] = math.sqrt((Delta + prior.second_moment_b()) / kappa)
    rho = prior.rho

    for t in range(T):
        # B-side channel available to the sigma denoiser at step t
        tau_prev = math.inf if t == 0 else tau[t - 1]
        m1, _ = _mmse_channels(prior, eta[t], nu[t], tau_prev, quad)
        nu[t + 1] = math.sqrt(max(rho - m1, 0.0))
        eta[t + 1] = math.sqrt(lam) * nu[t + 1] ** 2
        _, m2 = _mmse_channels(prior, eta[t + 1], nu[t + 1], tau[t], quad)
        tau[t + 1] = math.sqrt((Delta + m2) / kappa)
    return SeTrace(lam=lam, kappa=kappa, Delta=Delta, eta=eta, nu=nu, tau=tau)


def _residual(mu: float, xi: float, prior: PriorSpec, lam: float, kappa: float,
              Delta: float, quad: QuadratureRule) -> float:
    m1, m2 = mmse_pair(mu, xi, prior, Delta, kappa, quad)
    return max(abs(mu - lam * (prior.rho - m1)), abs(xi - m2 / Delta))


def fixed_point(prior: PriorSpec, lam: float, kappa: float, Delta: float,
                quad: QuadratureRule = DEFAULT_QUAD,
                start: str = "uninformative") -> SeFixedPoint:
    """Solve the two-variable fixed-point system by alternating iteration.

    ``start`` selects the initialization: "uninformative" begins at
    (mu, xi) = (0, E[B^2]/Delta) and approaches the limit monotonically;
    "informative" begins at (lam * rho, 0), the perfect-recovery corner,
    exposing any other stable solution of the system.
    """
    _check_model(lam, kappa, Delta)
    if start == "uninformative":
        mu, xi = 0.0, prior.second_moment_b() / Delta
    elif start == "informative":
        mu, xi = lam * prior.rho, 0.0
    else:
        raise ValueError(f"unknown start {start!r}")

    it = 0
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        mu_new = 0.0 if lam == 0 else lam * (prior.rho - mmse1(mu, xi, prior, Delta, kappa, quad))
        xi_new = mmse2(mu_new, xi, prior, Delta, kappa, quad) / Delta
        shift = max(abs(mu_new - mu), abs(xi_new - xi))
        mu, xi = mu_new, xi_new
        if shift <= 0.1 * FIXED_POINT_TOL:
            break
    res = _residual(mu, xi, prior, lam, kappa, Delta, quad)
    return SeFixedPoint(mu_star=mu, xi_star=xi, iterations=it, residual=res,
                        converged=res <= FIXED_POINT_TOL)


def predicted_errors(fp: SeFixedPoint, prior: PriorSpec, lam: float,
                     Delta: float) -> tuple[float, float]:
    """Limiting reconstruction errors implied by a fixed point.

    Returns (mse_sigma_pred, mse_beta_pred): the rank-one matrix error
    rho^2 - (mu*/lam)^2 (equal to rho^2 when lam = 0) and the prediction
    error Delta * xi* / (1 + xi*).
    """
    if lam > 0:
        mse_sigma = prior.rho**2 - (fp.mu_star / lam) ** 2
    else:
        mse_sigma = prior.rho**2
    mse_beta = Delta * fp.xi_star / (1.0 + fp.xi_star)
    return mse_sigma, mse_beta
