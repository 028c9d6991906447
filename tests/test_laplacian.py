import math

import numpy as np
import pytest

import netamp.lockstep
from netamp import laplacian
from netamp.laplacian import LapConfig, LapFit, fit, graph_laplacian, tune
from netamp.lockstep import lockstep
from netamp.priors import spike_slab
from netamp.synth import ModelParams, generate


@pytest.fixture(scope="module")
def tall_dataset():
    prior = spike_slab(0.5, [-1.0, 1.0])
    params = ModelParams.from_snr(n=200, p=50, Delta=0.5, b_p=5.0, lam=2.0,
                                  prior=prior)
    return generate(params, 7)


@pytest.fixture(scope="module")
def square_dataset():
    prior = spike_slab(0.5, [-1.0, 1.0])
    params = ModelParams.from_snr(n=60, p=60, Delta=1.0, b_p=6.0, lam=2.0,
                                  prior=prior)
    return generate(params, 11)


def cd_reference(Phi, y, L, l1, l2, sweeps=4000):
    """Cyclic coordinate descent on the same objective (slow oracle)."""
    p = Phi.shape[1]
    G = Phi.T @ Phi + l2 * L
    c = Phi.T @ y
    b = np.zeros(p)
    for _ in range(sweeps):
        for j in range(p):
            rj = c[j] - G[j] @ b + G[j, j] * b[j]
            b[j] = np.sign(rj) * max(abs(rj) - l1, 0.0) / G[j, j]
    return b


def reference_fit(dataset, config):
    """`fit` as one plain loop that makes every product with Phi itself.

    The oracle for the lockstep fits, which must equal it bit for bit.
    """
    def _soft_threshold(x, thr):
        return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)

    Phi, y = dataset.Phi, dataset.y
    p = Phi.shape[1]
    L = graph_laplacian(dataset.adjacency) if config.lambda2 > 0 else None

    # Lipschitz constant of the quadratic smooth part by power iteration;
    # the 1.05 inflation covers the estimate converging from below.
    rng = np.random.default_rng(0)
    v = rng.standard_normal(p)
    nrm = 1.0
    for _ in range(30):
        w = Phi.T @ (Phi @ v)
        if L is not None:
            w = w + config.lambda2 * (L @ v)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            break
        v = w / nrm
    step = 1.0 / (1.05 * nrm) if nrm > 0 else 1.0

    l1, l2 = config.lambda1, config.lambda2

    def at(beta):
        u = Phi @ beta
        w = l2 * (L @ beta) if L is not None else np.zeros(p)
        r = y - u
        return u, w, 0.5 * float(r @ r) + l1 * float(np.abs(beta).sum()) + 0.5 * float(beta @ w)

    def prox_step(beta, u, w):
        grad = Phi.T @ (u - y)
        return _soft_threshold(beta - step * (grad + w), step * l1)

    x = np.zeros(p)
    u, w, obj = at(x)
    x_prev, u_prev, w_prev = x, u, w
    t = 1.0
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        theta = (t - 1.0) / t_next
        v = x + theta * (x - x_prev)
        cand = prox_step(v, u + theta * (u - u_prev), w + theta * (w - w_prev))
        u_new, w_new, obj_new = at(cand)
        if obj_new > obj:                  # the guard: a plain step from x
            cand = prox_step(x, u, w)
            u_new, w_new, obj_new = at(cand)
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


def objective(Phi, y, L, beta, l1, l2):
    r = y - Phi @ beta
    return 0.5 * float(r @ r) + l1 * float(np.abs(beta).sum()) \
        + 0.5 * l2 * float(beta @ (L @ beta))


class TestFit:
    def test_unpenalized_matches_ols(self, tall_dataset):
        res = fit(tall_dataset, LapConfig(max_iter=3000, tol=1e-13))
        ols = np.linalg.solve(tall_dataset.Phi.T @ tall_dataset.Phi,
                              tall_dataset.Phi.T @ tall_dataset.y)
        assert np.max(np.abs(res.beta - ols)) <= 1e-8
        assert res.converged

    def test_huge_l1_kills_everything(self, tall_dataset):
        res = fit(tall_dataset, LapConfig(lambda1=1e6))
        assert np.all(res.beta == 0.0)

    def test_matches_coordinate_descent(self, square_dataset):
        cfg = LapConfig(lambda1=0.05, lambda2=0.3, max_iter=20000, tol=1e-13)
        mine = fit(square_dataset, cfg)
        assert mine.converged
        L = graph_laplacian(square_dataset.adjacency).toarray()
        ref = cd_reference(square_dataset.Phi, square_dataset.y, L, 0.05, 0.3)
        o_mine = objective(square_dataset.Phi, square_dataset.y, L, mine.beta, 0.05, 0.3)
        o_ref = objective(square_dataset.Phi, square_dataset.y, L, ref, 0.05, 0.3)
        assert o_mine <= o_ref + 1e-6

    def test_objective_monotone(self, square_dataset):
        """Objective recorded across restarts with increasing budget."""
        objs = []
        L = graph_laplacian(square_dataset.adjacency).toarray()
        for iters in (1, 3, 10, 30, 100, 300):
            res = fit(square_dataset, LapConfig(lambda1=0.05, lambda2=0.3,
                                                max_iter=iters, tol=1e-300))
            objs.append(objective(square_dataset.Phi, square_dataset.y, L,
                                  res.beta, 0.05, 0.3))
        assert all(np.diff(objs) <= 1e-10)

    def test_guard_keeps_descent_above_fista_bound(self, square_dataset):
        """At step 1.9 / lambda_max FISTA alone may climb; the guard may not.

        The step is above FISTA's 1 / lambda_max bound and below the
        2 / lambda_max that keeps a plain proximal-gradient step descending.
        """
        ds = square_dataset
        L = graph_laplacian(ds.adjacency)
        Ld = L.toarray()
        step = 1.9 / np.linalg.eigvalsh(ds.Phi.T @ ds.Phi + 0.3 * Ld)[-1]

        def fits(configs):
            return lockstep([laplacian._fit_steps(ds.Phi, ds.y, L, c, step) for c in configs])

        budgets = fits([LapConfig(lambda1=0.05, lambda2=0.3, max_iter=k, tol=1e-300)
                        for k in range(1, 61)])
        objs = [objective(ds.Phi, ds.y, Ld, res.beta, 0.05, 0.3) for res in budgets]
        assert all(np.diff(objs) <= 1e-10)

        # No convergence flag here: once F is flat to rounding (iterates
        # ~1e-8 apart) the guard cannot see the oscillation that a step this
        # long excites, so max|x_{k+1} - x_k| stays above a 1e-13 tol.
        [mine] = fits([LapConfig(lambda1=0.05, lambda2=0.3, max_iter=2000, tol=1e-13)])
        ref = cd_reference(ds.Phi, ds.y, Ld, 0.05, 0.3)
        assert (objective(ds.Phi, ds.y, Ld, mine.beta, 0.05, 0.3)
                <= objective(ds.Phi, ds.y, Ld, ref, 0.05, 0.3) + 1e-6)

    @pytest.mark.parametrize("n, p", [(400, 200), (300, 300), (200, 400)])
    @pytest.mark.parametrize("design_dist", ["gaussian", "bernoulli"])
    @pytest.mark.parametrize("lambda2", [0.0, 1.0, 4.0])
    def test_step_guarantees_descent(self, n, p, design_dist, lambda2):
        """The premise that lets `fit` skip a line search.

        A proximal gradient step below 2 / lambda_max(Phi^T Phi + lambda2 L)
        decreases the objective.  The power-iteration step is not always
        below 1 / lambda_max: here step * lambda_max reaches 1.018 (400 x
        200, Gaussian, lambda2 = 4).
        """
        prior = spike_slab(0.5, [-1.0, 1.0])
        params = ModelParams.from_snr(n=n, p=p, Delta=0.5, b_p=6.0, lam=2.0,
                                      prior=prior, design_dist=design_dist)
        ds = generate(params, 5)
        L = graph_laplacian(ds.adjacency)
        [step] = lockstep([laplacian._step_size(ds.Phi, L if lambda2 > 0 else None, lambda2)])
        H = ds.Phi.T @ ds.Phi + lambda2 * L.toarray()
        assert step * np.linalg.eigvalsh(H)[-1] < 2.0

    def test_stays_finite_bernoulli_design(self):
        prior = spike_slab(0.7, [-1.0, 1.0])
        params = ModelParams.from_snr(n=400, p=400, Delta=0.5, b_p=0.7, lam=3.0,
                                      prior=prior, design_dist="bernoulli")
        ds = generate(params, 0)
        lam_max = float(np.max(np.abs(ds.Phi.T @ ds.y)))
        for l1 in (0.0, 0.1 * lam_max, 0.5 * lam_max):
            res = fit(ds, LapConfig(lambda1=l1, lambda2=1.0, max_iter=300, tol=1e-7))
            assert np.all(np.isfinite(res.beta))
            assert np.isfinite(res.objective)


class TestLockstep:
    def test_grid_equals_reference_bit_for_bit(self, monkeypatch):
        """A 3 x 3 grid in lockstep against one plain loop per config.

        With 8-row slabs, n = 57 and p = 73 give row and column slabs with
        a 1-wide tail folded in, and every product stays below OpenBLAS's
        single-thread cutoff (m n < 9216), so the bits do not depend on the
        BLAS thread count.
        """
        monkeypatch.setattr(netamp.lockstep, "SLAB", 8)
        prior = spike_slab(0.5, [-1.0, 1.0])
        params = ModelParams.from_snr(n=57, p=73, Delta=0.5, b_p=6.0, lam=2.0,
                                      prior=prior)
        ds = generate(params, 3)
        lam_max = float(np.max(np.abs(ds.Phi.T @ ds.y)))
        grid = [LapConfig(lambda1=f1 * lam_max, lambda2=l2, max_iter=150, tol=1e-6)
                for f1 in (0.02, 0.1, 0.3) for l2 in (0.0, 1.0, 4.0)]
        fits = laplacian._fit_all(ds.Phi, ds.y, ds.adjacency, grid)
        refs = [reference_fit(ds, cfg) for cfg in grid]
        assert any(not r.converged and r.n_iter == 150 for r in refs)
        assert any(r.converged for r in refs)
        for got, ref in zip(fits, refs):
            assert np.array_equal(got.beta, ref.beta)
            assert (got.n_iter, got.converged) == (ref.n_iter, ref.converged)
            assert got.objective == ref.objective


class TestLaplacianMatrix:
    def test_quadratic_form_is_edge_sum(self, square_dataset, rng):
        L = graph_laplacian(square_dataset.adjacency)
        beta = rng.normal(size=60)
        edges = square_dataset.edge_list()
        direct = sum((beta[i] - beta[j]) ** 2 for i, j in edges)
        assert float(beta @ (L @ beta)) == pytest.approx(direct, abs=1e-10)


class TestTune:
    def test_single_point_grid(self, square_dataset):
        cfg = tune(square_dataset, [LapConfig(lambda1=0.1, lambda2=0.5)]).config
        assert (cfg.lambda1, cfg.lambda2) == (0.1, 0.5)

    def test_all_zero_response_ties_to_first(self, square_dataset):
        import dataclasses

        ds0 = dataclasses.replace(square_dataset, y=np.zeros(60))
        grid = [LapConfig(lambda1=l1, lambda2=l2)
                for l1, l2 in ((0.3, 0.0), (0.1, 1.0), (0.0, 0.0))]
        cfg = tune(ds0, grid).config
        assert (cfg.lambda1, cfg.lambda2) == (0.3, 0.0)

    def test_matches_exhaustive(self, square_dataset):
        grid = [LapConfig(lambda1=l1, lambda2=l2)
                for l1 in (0.0, 0.05, 0.2) for l2 in (0.0, 0.3, 1.0)]
        picked = tune(square_dataset, grid, seed=5).config

        # independent exhaustive evaluation with the same split
        rng = np.random.default_rng(5)
        n = square_dataset.params.n
        hold = np.zeros(n, dtype=bool)
        hold[rng.choice(n, size=int(round(0.2 * n)), replace=False)] = True
        import dataclasses

        train = dataclasses.replace(square_dataset,
                                    Phi=square_dataset.Phi[~hold],
                                    y=square_dataset.y[~hold])
        errs = []
        for cfg in grid:
            res = reference_fit(train, cfg)
            r = square_dataset.y[hold] - square_dataset.Phi[hold] @ res.beta
            errs.append(float(r @ r) / hold.sum())
        best = grid[int(np.argmin(errs))]
        assert (picked.lambda1, picked.lambda2) == (best.lambda1, best.lambda2)

    def test_reports_every_grid_flag(self, square_dataset):
        """The flags of the training-row fits, in grid order, come with the pick."""
        grid = [LapConfig(lambda1=l1, lambda2=l2, max_iter=60)
                for l1 in (0.0, 0.05, 0.2) for l2 in (0.0, 0.3, 1.0)]
        tuned = tune(square_dataset, grid, seed=5)
        rng = np.random.default_rng(5)
        hold = np.zeros(60, dtype=bool)
        hold[rng.choice(60, size=12, replace=False)] = True
        fits = laplacian._fit_all(square_dataset.Phi[~hold], square_dataset.y[~hold],
                                  square_dataset.adjacency, grid)
        flags = tuple(f.converged for f in fits)
        assert tuned.converged == flags
        assert True in flags and False in flags

    def test_empty_grid(self, square_dataset):
        with pytest.raises(ValueError):
            tune(square_dataset, [])
