"""Two-variable variational potential for the limiting mutual information.

The limiting per-vertex mutual information between the latents and the data
is the global minimum over (mu, xi) >= 0 of

    F(mu, xi) = lam rho^2 / 4 + mu^2 / (4 lam)
              + (kappa / 2) [log(1 + xi) - xi / (1 + xi)]
              - mu rho / 2 + I(mu, xi; Delta),

with I the scalar-channel mutual information of `priors.scalar_mi`.  Any
interior minimizer satisfies the same stationarity system the state
evolution converges to:

    mu = lam (rho - mmse1(mu, xi)),    xi = mmse2(mu, xi) / Delta,

so coincidence of the global minimizer with the iterative fixed point
certifies that the iterative estimator is information-theoretically optimal;
a gap flags a hard phase.  lam = 0 removes the mu^2/(4 lam) barrier by
forcing mu = 0 and the potential reduces to its regression-only part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .priors import DEFAULT_QUAD, PriorSpec, QuadratureRule, scalar_mi
from .state_evolution import SeFixedPoint, _residual, fixed_point

__all__ = ["RsEvaluation", "rs_value", "minimize", "coincide"]


# points per axis of the coarse grid, and xi values per batched `scalar_mi` call on it
GRID_POINTS, GRID_BATCH = 40, 10
_DESCENT_TOL, _DESCENT_ROUNDS = 1e-8, 40     # `_coordinate_descent` tolerance, rounds


@dataclass(frozen=True)
class RsEvaluation:
    mu_bar: float
    xi_bar: float
    value: float
    stationarity_residual: float
    candidates: tuple[tuple[float, float, float], ...]


def _rs_rest(mu: float, xi: float, prior: PriorSpec, lam: float, kappa: float) -> float:
    """The potential at (mu, xi) without its scalar-MI term."""
    if mu < 0 or xi < 0:
        raise ValueError("mu and xi must be nonnegative")
    rho = prior.rho
    if lam == 0.0:
        if mu != 0.0:
            raise ValueError("mu must be 0 when lam = 0")
        barrier = 0.0
        graph_term = 0.0
    else:
        barrier = mu**2 / (4.0 * lam)
        graph_term = lam * rho**2 / 4.0
    reg_term = 0.5 * kappa * (math.log1p(xi) - xi / (1.0 + xi))
    return graph_term + barrier + reg_term - 0.5 * mu * rho


def rs_value(mu: float, xi: float, prior: PriorSpec, lam: float, kappa: float,
             Delta: float, quad: QuadratureRule = DEFAULT_QUAD) -> float:
    """Potential value at (mu, xi); lam = 0 is valid only on the mu = 0 line."""
    return _rs_rest(mu, xi, prior, lam, kappa) + scalar_mi(mu, xi, prior, Delta, kappa, quad)


def _rs_row(mu: float, xis: np.ndarray, prior: PriorSpec, lam: float, kappa: float,
            Delta: float, quad: QuadratureRule) -> list[float]:
    """`rs_value` at (mu, x) for each x of xis, bit for bit, from batched `scalar_mi` calls."""
    out = []
    for start in range(0, len(xis), GRID_BATCH):
        chunk = xis[start:start + GRID_BATCH]
        mi = scalar_mi(mu, chunk, prior, Delta, kappa, quad)
        out += [_rs_rest(mu, x, prior, lam, kappa) + v for x, v in zip(chunk, mi)]
    return out


def _coordinate_descent(f, mu0, xi0, mu_hi, xi_hi, mu_fixed=False):
    """Alternating golden-section line searches.

    The first round sweeps the whole [0, hi] interval of each coordinate;
    later rounds bracket a shrinking window around the current point, which
    keeps the total evaluation count low at the 1e-8 coordinate tolerance.
    ``f`` is called at every probe; `minimize` passes a memoized one.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def golden(g, lo, hi):
        a, b = lo, hi
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        gc, gd = g(c), g(d)
        while b - a > _DESCENT_TOL:
            if gc < gd:
                b, d, gd = d, c, gc
                c = b - inv_phi * (b - a)
                gc = g(c)
            else:
                a, c, gc = c, d, gd
                d = a + inv_phi * (b - a)
                gd = g(d)
        x = 0.5 * (a + b)
        return x, g(x)

    mu, xi = mu0, xi0
    w_mu, w_xi = mu_hi, xi_hi          # full sweep on the first round
    for _ in range(_DESCENT_ROUNDS):
        mu_old, xi_old = mu, xi
        if not mu_fixed:
            mu, _ = golden(lambda m: f(m, xi), max(0.0, mu - w_mu), min(mu_hi, mu + w_mu))
        xi, val = golden(lambda x: f(mu, x), max(0.0, xi - w_xi), min(xi_hi, xi + w_xi))
        shift_mu, shift_xi = abs(mu - mu_old), abs(xi - xi_old)
        if shift_mu <= _DESCENT_TOL and shift_xi <= _DESCENT_TOL:
            break
        # shrink windows, never below a safe multiple of the achieved shift
        w_mu = max(4.0 * shift_mu, 256.0 * _DESCENT_TOL, w_mu / 16.0)
        w_xi = max(4.0 * shift_xi, 256.0 * _DESCENT_TOL, w_xi / 16.0)
    val = f(mu, xi)
    return mu, xi, val


def minimize(prior: PriorSpec, lam: float, kappa: float, Delta: float,
             quad: QuadratureRule = DEFAULT_QUAD,
             uninformative: SeFixedPoint | None = None) -> RsEvaluation:
    """Global minimum of the potential over the nonnegative quadrant.

    Strategy: a GRID_POINTS x GRID_POINTS coarse grid over [0, lam*rho] x
    [0, E[B^2]/Delta] evaluated at a reduced quadrature order (ranking only),
    local refinement of the best grid cells by coordinate descent at full
    order, plus candidates seeded from the iterative fixed points
    (uninformative and informative starts).  The global best over all refined
    candidates is returned.

    The grid is evaluated one mu-row at a time, each row by batched
    `scalar_mi` calls of at most GRID_BATCH xi values (`_rs_row`).  All
    coordinate descents of one call share one cache of full-order values,
    so a point that two descents both visit is evaluated once.  Every value
    is the one a single `rs_value` call gives, bit for bit.

    ``uninformative`` is the caller's own ``fixed_point(prior, lam, kappa,
    Delta, quad=quad)``, passed in so that it is not solved twice.
    """
    rho = prior.rho
    mu_hi = max(lam * rho, 1e-8)
    xi_hi = max(prior.second_moment_b() / Delta, 1e-8)
    # small headroom so boundary minima are not clipped by the search box
    mu_box, xi_box = 1.02 * mu_hi, 1.02 * xi_hi

    cache: dict[tuple[float, float], float] = {}

    def f(m, x):
        if (m, x) not in cache:
            cache[m, x] = rs_value(m, x, prior, lam, kappa, Delta, quad)
        return cache[m, x]

    candidates: list[tuple[float, float, float]] = []
    if lam == 0.0:
        mu, xi, val = _coordinate_descent(f, 0.0, xi_hi / 2.0, 0.0, xi_box,
                                          mu_fixed=True)
        candidates.append((mu, xi, val))
    else:
        quad_coarse = quad if quad.order <= 21 else QuadratureRule.gauss_hermite(21)
        mus = np.linspace(0.0, mu_hi, GRID_POINTS)
        xis = np.linspace(0.0, xi_hi, GRID_POINTS)
        vals = np.array([_rs_row(m, xis, prior, lam, kappa, Delta, quad_coarse) for m in mus])
        # refine the two best well-separated cells
        flat = np.argsort(vals, axis=None)
        seeds, taken = [], []
        for idx in flat:
            i, j = np.unravel_index(idx, vals.shape)
            if any(abs(i - i0) <= 2 and abs(j - j0) <= 2 for i0, j0 in taken):
                continue
            taken.append((i, j))
            seeds.append((float(mus[i]), float(xis[j])))
            if len(seeds) == 2:
                break
        for mu0, xi0 in seeds:
            mu, xi, val = _coordinate_descent(f, mu0, xi0, mu_box, xi_box)
            candidates.append((mu, xi, val))

    if uninformative is None:
        uninformative = fixed_point(prior, lam, kappa, Delta, quad=quad)
    informative = fixed_point(prior, lam, kappa, Delta, quad=quad, start="informative")
    for fp in (uninformative, informative):
        mu0 = 0.0 if lam == 0.0 else fp.mu_star
        mu, xi, val = _coordinate_descent(f, mu0, fp.xi_star, mu_box, xi_box,
                                          mu_fixed=(lam == 0.0))
        candidates.append((mu, xi, val))

    mu_bar, xi_bar, best = min(candidates, key=lambda c: c[2])
    resid = _residual(mu_bar, xi_bar, prior, lam, kappa, Delta, quad)
    return RsEvaluation(mu_bar=mu_bar, xi_bar=xi_bar, value=best,
                        stationarity_residual=resid,
                        candidates=tuple(candidates))


def coincide(fp: SeFixedPoint, ev: RsEvaluation) -> bool:
    """Whether the fixed point and the potential's minimizer agree within 1e-4 in mu and xi."""
    return abs(fp.mu_star - ev.mu_bar) <= 1e-4 and abs(fp.xi_star - ev.xi_bar) <= 1e-4
