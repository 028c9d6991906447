"""Error metrics, p-values, FDR-controlled discovery and credible intervals.

The testing machinery treats the raw sigma iterate at step t as a Gaussian
observation eta_t * sigma0_i + nu_t * Z_i with (eta_t, nu_t) taken from the
state-evolution trace at the same index, which is what makes the p-values
asymptotically uniform under the null and the intervals calibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "DiscoveryResult",
    "CredibleIntervals",
    "mse_sigma",
    "mse_beta",
    "pvalues",
    "discover",
    "credible_intervals",
]


_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# error metrics


def mse_sigma(sigma_hat: np.ndarray, sigma0: np.ndarray) -> float:
    """Normalized rank-one matrix error (1/p^2) ||uu^T - vv^T||_F^2.

    Uses the O(p) identity ||uu^T - vv^T||_F^2 = (u.u)^2 - 2 (u.v)^2 + (v.v)^2.
    """
    u = np.asarray(sigma_hat, float)
    v = np.asarray(sigma0, float)
    if u.shape != v.shape:
        raise DimensionMismatch("length mismatch")
    p = u.shape[0]
    return ((u @ u) ** 2 - 2.0 * (u @ v) ** 2 + (v @ v) ** 2) / p**2


def mse_beta(Phi: np.ndarray, beta_hat: np.ndarray, beta0: np.ndarray) -> float:
    """Prediction error (1/n) ||Phi (beta_hat - beta0)||^2."""
    if Phi.shape[1] != beta_hat.shape[0] or beta_hat.shape != beta0.shape:
        raise DimensionMismatch("dimension mismatch")
    r = Phi @ (np.asarray(beta_hat, float) - np.asarray(beta0, float))
    return float(r @ r) / Phi.shape[0]


# ---------------------------------------------------------------------------
# p-values, discovery, credible sets


@dataclass(frozen=True)
class DiscoveryResult:
    """Outcome of ``discover``; the truth metrics are None without ``truth``.

    ``empirical_fdp`` and ``empirical_tdp`` are the false and true
    discoveries divided by max(#rejected, 1).  So ``empirical_tdp`` is the
    precision of the rejection set, not power (true discoveries over
    non-nulls), and both are 0 when nothing is rejected.
    """

    pvalues: np.ndarray
    s_star: float
    rejected: np.ndarray            # indices with p_i < s_star
    empirical_fdp: float | None
    empirical_tdp: float | None


@dataclass(frozen=True)
class CredibleIntervals:
    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    empirical_coverage: float | None


def pvalues(sigma_iter: np.ndarray, nu_t: float) -> np.ndarray:
    """Two-sided p-values 2 (1 - Phi(|sigma_i| / nu_t)) in (0, 1]."""
    if nu_t <= 0:
        raise ValueError("nu_t must be positive")
    from scipy.special import erfc

    x = np.abs(np.asarray(sigma_iter, float)) / nu_t
    return erfc(x / _SQRT2)


def discover(pvals: np.ndarray, rho: float, alpha: float,
             truth: np.ndarray | None = None,
             variant: str = "first-crossing") -> DiscoveryResult:
    """Threshold the p-values by the estimated false-discovery proportion.

    The FDP estimate at level s is p (1 - rho) s / max(1, #{p_i <= s}).

    variant "first-crossing" (default): the threshold is the smallest s at
    which the estimate reaches alpha, found by an exact scan over the
    piecewise-linear structure (between consecutive order statistics the
    estimate is linear in s, so the first crossing is either an interior
    point alpha * k / (p (1 - rho)) or an order statistic itself);
    hypotheses with p_i strictly below the threshold are rejected.

    variant "step-up": the textbook step-up rule under the same null-fraction
    correction: reject p_i <= p_(k) for the largest k with
    p_(k) <= alpha * k / (p (1 - rho)).  The harness records both variants'
    empirical FDP side by side.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    pv = np.asarray(pvals, float)
    p = pv.shape[0]
    scale = p * (1.0 - rho)

    if variant == "step-up":
        order = np.sort(pv)
        line = alpha * np.arange(1, p + 1) / scale
        hits = np.flatnonzero(order <= line)
        if len(hits) == 0:
            thr = 0.0
            rejected = np.empty(0, dtype=int)
        else:
            thr = float(order[hits[-1]])
            rejected = np.flatnonzero(pv <= thr)
        return DiscoveryResult(pvalues=pv, s_star=thr, rejected=rejected,
                               **_truth_rates(rejected, truth))
    if variant != "first-crossing":
        raise ValueError(f"unknown variant {variant!r}")
    vals, counts = np.unique(pv, return_counts=True)
    cum = np.cumsum(counts)                     # #{p_i <= vals[j]}

    s_star = None
    # leading piece [0, vals[0]) has count 0, denominator 1
    first = vals[0] if len(vals) else 1.0
    cross = alpha / scale
    if cross < first:
        s_star = cross
    else:
        for j in range(len(vals)):
            v, c = vals[j], int(cum[j])
            hi = vals[j + 1] if j + 1 < len(vals) else 1.0
            if scale * v / c >= alpha:          # reached at the order statistic
                s_star = v
                break
            cross = alpha * c / scale           # interior crossing of this piece
            if v <= cross < hi:
                s_star = cross
                break
    if s_star is None:
        # estimate never reaches alpha on [0, 1]: every hypothesis is rejectable
        s_star = math.inf

    rejected = np.flatnonzero(pv < s_star)
    return DiscoveryResult(pvalues=pv, s_star=float(s_star), rejected=rejected,
                           **_truth_rates(rejected, truth))


def _truth_rates(rejected: np.ndarray, truth) -> dict:
    if truth is None:
        return {"empirical_fdp": None, "empirical_tdp": None}
    truth = np.asarray(truth)
    n_rej = max(len(rejected), 1)
    false = int(np.sum(truth[rejected] == 0))
    return {"empirical_fdp": false / n_rej,
            "empirical_tdp": int(np.sum(truth[rejected] != 0)) / n_rej}


def credible_intervals(sigma_iter: np.ndarray, eta_t: float, nu_t: float,
                       alpha: float, truth: np.ndarray | None = None) -> CredibleIntervals:
    """Symmetric credible sets sigma_i/eta_t +- (nu_t/eta_t) Phi^{-1}(1-alpha/2)."""
    if eta_t <= 0:
        raise ValueError("uninformative iteration; intervals undefined")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    from scipy.special import ndtri

    center = np.asarray(sigma_iter, float) / eta_t
    half = (nu_t / eta_t) * float(ndtri(1.0 - alpha / 2.0))
    lower, upper = center - half, center + half
    coverage = None
    if truth is not None:
        truth = np.asarray(truth, float)
        coverage = float(np.mean((truth >= lower) & (truth <= upper)))
    return CredibleIntervals(lower=lower, upper=upper, alpha=alpha,
                             empirical_coverage=coverage)
