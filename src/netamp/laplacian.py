"""Graph-Laplacian-penalized regression baseline.

Minimizes

    F(beta) = 0.5 ||y - Phi beta||^2 + lambda1 ||beta||_1
            + 0.5 lambda2 beta^T L beta

by monotone FISTA (Beck & Teboulle 2009) with gradient restart (O'Donoghue &
Candes 2015) at a step from power iteration, where L = D - A is the
Laplacian of the observed graph.  A candidate that would raise the objective
is replaced by a plain proximal-gradient step, which is why that step needs
no line search (see `_fit_steps`).  The quadratic term pulls coefficients of
adjacent vertices together, which is how the side network enters this
estimator; it is the comparison point for the message-passing approach.

Each fit is a generator that yields the products with the design it needs
(``Phi @ v`` or ``Phi.T @ r``), and `netamp.lockstep` serves them.  `tune`
runs its whole grid in lockstep, so each cache-sized slab of ``Phi`` is read
once per round for all pending fits instead of once per fit.  A slab product
has the bits of the full product, so every fit equals the one `fit` gives
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lockstep import lockstep
from .synth import Dataset

__all__ = ["LapConfig", "LapFit", "LapTune", "fit", "tune", "graph_laplacian"]


@dataclass(frozen=True)
class LapConfig:
    lambda1: float = 0.0
    lambda2: float = 0.0
    max_iter: int = 500
    tol: float = 1e-7

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("penalty weights must be nonnegative")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class LapFit:
    beta: np.ndarray
    converged: bool
    n_iter: int
    objective: float


@dataclass(frozen=True)
class LapTune:
    config: LapConfig                # the picked grid entry
    converged: tuple[bool, ...]      # each grid fit's flag, in grid order


def graph_laplacian(adjacency: sp.csr_array) -> sp.csr_array:
    """L = D - A with D the diagonal degree matrix."""
    deg = np.asarray(adjacency.sum(axis=1)).ravel()
    return (sp.diags_array(deg) - adjacency).tocsr()


def _soft_threshold(x: np.ndarray, thr: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


def _step_size(Phi: np.ndarray, L, lambda2: float):
    """Generator of the step 1 / (1.05 ||Phi^T Phi + lambda2 L||).

    The Lipschitz constant lambda_max of the quadratic smooth part comes from
    30 power iterations, an estimate that can still sit more than 5% below
    it, so the step is not always at most 1 / lambda_max: step * lambda_max
    was measured at 0.95-1.03.  `_fit_steps` falls back on a plain
    proximal-gradient step, which needs only step < 2 / lambda_max, as
    ``test_step_guarantees_descent`` pins.  The step does not depend on
    lambda1.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(Phi.shape[1])
    nrm = 1.0
    for _ in range(30):
        w = yield Phi, True, (yield Phi, False, v)
        if L is not None:
            w = w + lambda2 * (L @ v)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            break
        v = w / nrm
    return 1.0 / (1.05 * nrm) if nrm > 0 else 1.0


def _fit_steps(Phi: np.ndarray, y: np.ndarray, L, config: LapConfig, step: float):
    """Generator of one fit: monotone FISTA with gradient restart.

    FISTA (Beck & Teboulle 2009) takes each proximal-gradient step from the
    extrapolated point v = x_k + theta_k (x_k - x_{k-1}).  The momentum
    restarts whenever the step points against it, (v - x_{k+1}) .
    (x_{k+1} - x_k) > 0 (the gradient scheme of O'Donoghue & Candes 2015).
    A candidate whose objective rises above F(x_k) is rejected: the momentum
    restarts and a plain proximal-gradient step is taken from x_k instead.

    That guard is what makes the power-iteration step safe.  FISTA's own
    bound is step <= 1 / lambda_max(Phi^T Phi + lambda2 L), which that step
    can miss by a few percent, but a plain proximal-gradient step below
    2 / lambda_max decreases the objective (Beck 2017, Lemma 10.4), so the
    objective never rises and no line search is needed.

    Each iteration makes one product of each kind: Phi^T at v for the
    gradient, and Phi at the new iterate, which also gives its objective.
    Phi v is extrapolated from the tracked Phi x_k and Phi x_{k-1}, as
    lambda2 L v is from lambda2 L x_k and lambda2 L x_{k-1}.  A rejected
    candidate costs one more product of each kind.  The fit stops once
    max|x_{k+1} - x_k| <= tol or after max_iter iterations, and its
    ``objective`` is F at the returned beta.
    """
    p = Phi.shape[1]
    l1, l2 = config.lambda1, config.lambda2

    def at(beta):
        """(Phi beta, lambda2 L beta, F(beta)): one product with Phi."""
        u = yield Phi, False, beta
        w = l2 * (L @ beta) if L is not None else np.zeros(p)
        r = y - u
        return u, w, 0.5 * float(r @ r) + l1 * float(np.abs(beta).sum()) + 0.5 * float(beta @ w)

    def prox_step(beta, u, w):
        """Proximal-gradient step from beta, given Phi beta and lambda2 L beta."""
        grad = yield Phi, True, u - y
        return _soft_threshold(beta - step * (grad + w), step * l1)

    x = np.zeros(p)
    u, w, obj = yield from at(x)
    x_prev, u_prev, w_prev = x, u, w
    t = 1.0
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        theta = (t - 1.0) / t_next
        v = x + theta * (x - x_prev)
        cand = yield from prox_step(v, u + theta * (u - u_prev), w + theta * (w - w_prev))
        u_new, w_new, obj_new = yield from at(cand)
        if obj_new > obj:                  # the guard: a plain step from x
            cand = yield from prox_step(x, u, w)
            u_new, w_new, obj_new = yield from at(cand)
            t_next = 1.0
        elif float((v - cand) @ (cand - x)) > 0.0:     # gradient restart
            t_next = 1.0
        max_change = float(np.max(np.abs(cand - x)))
        x_prev, u_prev, w_prev = x, u, w
        x, u, w, obj, t = cand, u_new, w_new, obj_new, t_next
        if max_change <= config.tol:
            converged = True
            break
    return LapFit(beta=x, converged=converged, n_iter=it, objective=obj)


def _fit_all(Phi: np.ndarray, y: np.ndarray, adjacency, configs: list[LapConfig]) -> list[LapFit]:
    """Fit every config on (Phi, y) in lockstep, one power iteration per lambda2."""
    L = graph_laplacian(adjacency) if any(c.lambda2 > 0 for c in configs) else None
    lambda2s = list(dict.fromkeys(c.lambda2 for c in configs))
    steps = lockstep([_step_size(Phi, L if l2 > 0 else None, l2) for l2 in lambda2s])
    step_of = dict(zip(lambda2s, steps))
    return lockstep([_fit_steps(Phi, y, L if c.lambda2 > 0 else None, c, step_of[c.lambda2])
                     for c in configs])


def fit(dataset: Dataset, config: LapConfig) -> LapFit:
    """Monotone FISTA at the power-iteration step, one fit alone."""
    return _fit_all(dataset.Phi, dataset.y, dataset.adjacency, [config])[0]


def tune(dataset: Dataset, grid: list[LapConfig], seed: int = 0) -> LapTune:
    """Pick the grid config with the lowest prediction error on a holdout split.

    ``grid`` is a list of LapConfig; ties resolve to the earliest entry.  The
    split is seeded and stratifies nothing: a uniformly random 20% of rows
    are held out.  The grid is fitted in lockstep on the training rows; each
    fit equals `fit` on them.  The result carries every grid fit's
    convergence flag with the pick.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    n = dataset.params.n
    rng = np.random.default_rng(seed)
    n_hold = max(1, int(round(0.2 * n)))
    hold = np.zeros(n, dtype=bool)
    hold[rng.choice(n, size=n_hold, replace=False)] = True
    fits = _fit_all(dataset.Phi[~hold], dataset.y[~hold], dataset.adjacency, grid)
    Phi_hold, y_hold = dataset.Phi[hold], dataset.y[hold]
    best_cfg, best_err = None, math.inf
    for cfg, res in zip(grid, fits):
        r = y_hold - Phi_hold @ res.beta
        err = float(r @ r) / n_hold
        if err < best_err - 1e-15:
            best_cfg, best_err = cfg, err
    return LapTune(config=best_cfg, converged=tuple(f.converged for f in fits))
