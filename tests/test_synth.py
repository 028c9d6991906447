import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import netamp.synth
from netamp.cli import main as cli_main
from netamp.priors import spike_slab
from netamp.synth import (Dataset, ModelParams, _sample_graph, ap_to_snr,
                          centered_adjacency_apply, centered_adjacency_dense,
                          gaussian_surrogate, generate, load_dataset,
                          save_dataset, snr_to_ap, with_delta)


class TestSnrCalibration:
    def test_zero_snr(self):
        assert snr_to_ap(0.0, 0.7, 3000) == pytest.approx(0.7)
        assert snr_to_ap(0.0, 12.0, 100) == pytest.approx(12.0)

    def test_reference_value(self):
        # a_p = b_p + sqrt(lam b_p (1 - b_p/p)) at lam=3, b_p=0.7, p=3000
        a_p = snr_to_ap(3.0, 0.7, 3000)
        assert a_p == pytest.approx(0.7 + math.sqrt(3 * 0.7 * (1 - 0.7 / 3000)))
        assert a_p == pytest.approx(2.148969, abs=5e-6)

    def test_round_trip(self, rng):
        for _ in range(100):
            p = int(rng.integers(50, 5000))
            b_p = float(rng.uniform(0.1, p / 4))
            lam = float(rng.uniform(0.0, 4.0))
            a_p = snr_to_ap(lam, b_p, p)
            assert ap_to_snr(a_p, b_p, p) == pytest.approx(lam, abs=1e-12)

    def test_supercritical(self):
        with pytest.raises(ValueError, match="supercritical"):
            snr_to_ap(1e6, 5.0, 10)


def naive_sample_graph(rng, sigma0, a_p, b_p):
    """One `rng.random` call and one COO row per upper-triangle row: the
    reference for `_sample_graph`'s block-drawn CSR.

    The COO coordinates have the index dtype scipy picks for p, so the
    index dtype of the sum is the one scipy picks for the symmetric graph
    (a scipy sparse array keeps the dtype of int64 coordinates).
    """
    p = sigma0.shape[0]
    pa, pb = a_p / p, b_p / p
    rows, cols = [], []
    for i in range(p - 1):
        j = np.arange(i + 1, p)
        prob = np.where(sigma0[i] * sigma0[i + 1:] == 1.0, pa, pb)
        hit = rng.random(p - 1 - i) < prob
        if hit.any():
            cols.append(j[hit])
            rows.append(np.full(int(hit.sum()), i))
    idx = sp.get_index_dtype(maxval=p)
    r = np.concatenate(rows).astype(idx) if rows else np.empty(0, dtype=idx)
    c = np.concatenate(cols).astype(idx) if cols else np.empty(0, dtype=idx)
    upper = sp.coo_array((np.ones(len(r)), (r, c)), shape=(p, p))
    return (upper + upper.T).tocsr()


class TestGraphSampler:
    @pytest.mark.parametrize("p", [1, 2, 63, 64, 65, 129, 300])
    def test_equals_naive_sampler(self, p):
        """Same graph as the per-row reference, and the same stream consumed.

        p runs across the row-block edges.  Rates are fractions of p
        (a_p = fa p, b_p = fb p): a dense graph, lam = 0 (a_p = b_p) and a
        near-empty graph with b_p = 0.7; sigma0 is random, all 0 or all 1.
        """
        draw = np.random.default_rng(100 + p)
        sigmas = {"bernoulli": (draw.random(p) < 0.3).astype(float),
                  "zeros": np.zeros(p), "ones": np.ones(p)}
        rates = {"dense": (0.3, 0.1), "lam0": (0.1, 0.1), "near-empty": (1.5 / p, 0.7 / p)}
        for (s_kind, sigma0), (r_kind, (fa, fb)) in itertools.product(sigmas.items(),
                                                                        rates.items()):
            for seed in (1, 2, 3):
                case = (s_kind, r_kind, seed)
                rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _sample_graph(rng_new, sigma0, fa * p, fb * p)
                want = naive_sample_graph(rng_ref, sigma0, fa * p, fb * p)
                for name in ("indptr", "indices", "data"):
                    g, w = getattr(got, name), getattr(want, name)
                    assert g.dtype == w.dtype and np.array_equal(g, w), (name, case)
                assert got.shape == (p, p)
                assert rng_new.random() == rng_ref.random(), case

    def test_peak_memory_near_result(self):
        """The build holds little beyond its result: the scipy sum
        ``(upper + upper.T).tocsr()`` peaked at 2.36x the result's bytes here."""
        p = 1000
        sigma0 = (np.random.default_rng(5).random(p) < 0.5).astype(float)
        b_p = p / 2
        a_p = snr_to_ap(5.0, b_p, p)
        tracemalloc.start()
        try:
            got = _sample_graph(np.random.default_rng(1), sigma0, a_p, b_p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = got.data.nbytes + got.indices.nbytes + got.indptr.nbytes
        assert got.nnz > 100_000
        assert peak <= 1.5 * size, peak / size


@pytest.fixture(scope="module")
def small_params(pm7=spike_slab(0.7, [-1.0, 1.0])):
    return ModelParams.from_snr(n=3000, p=3000, Delta=1.0, b_p=0.7, lam=3.0,
                                prior=pm7)


class TestGenerate:
    def test_reproducible(self, small_params):
        a = generate(small_params, 42)
        b = generate(small_params, 42)
        assert np.array_equal(a.sigma0, b.sigma0)
        assert np.array_equal(a.beta0, b.beta0)
        assert np.array_equal(a.Phi, b.Phi)
        assert np.array_equal(a.y, b.y)
        assert (a.adjacency != b.adjacency).nnz == 0

    def test_spike_slab_support(self, small_params):
        ds = generate(small_params, 0)
        assert np.all(ds.beta0[ds.sigma0 == 0] == 0.0)
        assert np.all(np.abs(ds.beta0[ds.sigma0 == 1]) == 1.0)
        assert ds.sigma0.mean() == pytest.approx(0.7, abs=0.03)

    def test_noise_variance(self, small_params):
        ds = generate(small_params, 1)
        resid = ds.y - ds.Phi @ ds.beta0
        assert resid.var() == pytest.approx(1.0, rel=0.05)

    def test_mean_degree_reference_config(self, small_params):
        # expected mean degree = rho^2 a_p + (1 - rho^2) b_p ~ 1.41
        a_p = small_params.a_p
        expect = 0.49 * a_p + 0.51 * 0.7
        degs = []
        for seed in range(20):
            ds = generate(small_params, seed)
            degs.append(ds.adjacency.sum() / small_params.p)
        assert np.mean(degs) == pytest.approx(expect, rel=0.05)
        assert expect == pytest.approx(1.41, abs=0.01)

    def test_dense_degenerate_rates(self):
        # a_p = p with rho near 1: nearly complete graph
        p = 60
        prior = spike_slab(0.99, [1.0])
        lam = ap_to_snr(float(p), 10.0, p)
        params = ModelParams(n=60, p=p, Delta=1.0, b_p=10.0, a_p=float(p),
                             lam=lam, prior=prior)
        ds = generate(params, 3)
        n_edges = ds.edge_list().shape[0]
        assert n_edges >= 0.93 * p * (p - 1) / 2

    def test_edge_law_per_pair(self):
        """Edge frequencies given community status match both rates (3 SE)."""
        p = 30
        prior = spike_slab(0.5, [1.0])
        params = ModelParams.from_snr(n=30, p=p, Delta=1.0, b_p=6.0, lam=2.0,
                                      prior=prior)
        reps = 10_000
        hits = {"within": 0.0, "background": 0.0}
        pairs = {"within": 0, "background": 0}
        iu = np.triu_indices(p, k=1)
        for seed in range(reps):
            ds = generate(params, seed)
            within = (ds.sigma0[iu[0]] * ds.sigma0[iu[1]]) == 1.0
            A = ds.adjacency.toarray()[iu]
            hits["within"] += A[within].sum()
            hits["background"] += A[~within].sum()
            pairs["within"] += int(within.sum())
            pairs["background"] += int((~within).sum())
        for kind, rate in (("within", params.a_p / p), ("background", params.b_p / p)):
            freq = hits[kind] / pairs[kind]
            se = math.sqrt(rate * (1 - rate) / pairs[kind])
            assert abs(freq - rate) <= 3 * se, (kind, freq, rate)

    def test_bernoulli_design(self):
        prior = spike_slab(0.5, [1.0])
        params = ModelParams.from_snr(n=500, p=400, Delta=1.0, b_p=5.0, lam=1.0,
                                      prior=prior, design_dist="bernoulli")
        ds = generate(params, 0)
        assert ds.Phi.mean() == pytest.approx(0.0, abs=3e-4)
        assert (ds.Phi**2).mean() == pytest.approx(1.0 / 400, rel=0.02)
        # two-point support after centering/scaling
        assert len(np.unique(np.round(ds.Phi * math.sqrt(400), 8))) == 2

    def test_design_column_scaling(self, small_params):
        ds = generate(small_params, 2)
        norms = np.linalg.norm(ds.Phi, axis=0)
        assert norms.mean() == pytest.approx(1.0, rel=0.02)

    def test_with_delta_equals_fresh_draw(self):
        prior = spike_slab(0.4, [-1.0, 1.0])
        params = ModelParams.from_snr(n=90, p=80, Delta=1.0, b_p=8.0, lam=2.0,
                                      prior=prior)
        base = generate(params, 11)
        for delta in (0.3, 2.5):
            derived = with_delta(base, delta)
            fresh = generate(dataclasses.replace(params, Delta=delta), 11)
            assert derived.params == fresh.params
            assert derived.seed == fresh.seed
            for name in ("y", "Phi", "sigma0", "beta0"):
                assert np.array_equal(getattr(derived, name), getattr(fresh, name)), name
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(derived.adjacency, name),
                                      getattr(fresh.adjacency, name)), name
            assert derived.Phi is base.Phi
            assert derived.adjacency is base.adjacency
            assert not np.array_equal(derived.y, base.y)

    def test_param_validation(self):
        prior = spike_slab(0.5, [1.0])
        with pytest.raises(ValueError, match="lambda inconsistent"):
            ModelParams(n=100, p=100, Delta=1.0, b_p=1.0, a_p=3.0, lam=0.5,
                        prior=prior)


class TestCenteredAdjacency:
    def test_zero_vector(self, small_params):
        ds = generate(small_params, 5)
        out = centered_adjacency_apply(ds, np.zeros(small_params.p))
        assert np.all(out == 0.0)

    def test_matches_dense(self):
        prior = spike_slab(0.5, [1.0])
        for p in (50, 120, 200):
            params = ModelParams.from_snr(n=p, p=p, Delta=1.0, b_p=4.0, lam=2.0,
                                          prior=prior)
            ds = generate(params, p)
            dense = centered_adjacency_dense(ds)
            rng = np.random.default_rng(p)
            for _ in range(3):
                v = rng.normal(size=p)
                assert np.max(np.abs(centered_adjacency_apply(ds, v) - dense @ v)) < 1e-12

    def test_centering_mean(self):
        """Mean of centered entries over off-community pairs is ~0."""
        prior = spike_slab(0.5, [1.0])
        params = ModelParams.from_snr(n=40, p=40, Delta=1.0, b_p=8.0, lam=1.0,
                                      prior=prior)
        total, count = 0.0, 0
        for seed in range(300):
            ds = generate(params, seed)
            dense = centered_adjacency_dense(ds)
            mask = np.outer(1 - ds.sigma0, 1 - ds.sigma0).astype(bool)
            np.fill_diagonal(mask, False)
            total += dense[mask].sum()
            count += mask.sum()
        assert abs(total / count) < 3 / math.sqrt(count)

    def test_division_by_zero_guard(self):
        # b_p in {0, p} cannot pass ModelParams validation; exercise the
        # runtime guard with a hand-built container.
        import scipy.sparse as sp
        from types import SimpleNamespace

        fake = Dataset(params=SimpleNamespace(n=4, p=4, b_p=0.0),
                       seed=0, sigma0=np.zeros(4), beta0=np.zeros(4),
                       Phi=np.zeros((4, 4)), y=np.zeros(4),
                       adjacency=sp.csr_array((4, 4)))
        with pytest.raises(ZeroDivisionError):
            centered_adjacency_apply(fake, np.ones(4))


class TestGaussianSurrogate:
    def test_symmetry(self):
        sig = np.zeros(100)
        A = gaussian_surrogate(sig, 2.0, 0)
        assert np.array_equal(A, A.T)

    def test_top_eigenvalue_pure_noise(self):
        sig = np.zeros(2000)
        A = gaussian_surrogate(sig, 0.0, 1)
        top = float(np.linalg.eigvalsh(A)[-1])
        assert top / math.sqrt(2000) == pytest.approx(2.0, rel=0.05)

    def test_entry_moments(self):
        p = 50
        sig = (np.arange(p) < 25).astype(float)
        lam = 2.0
        reps = 10_000
        acc = np.zeros((p, p))
        acc2_diag = np.zeros(p)
        for seed in range(reps):
            A = gaussian_surrogate(sig, lam, seed)
            acc += A
            acc2_diag += np.diag(A) ** 2
        mean = acc / reps
        target = math.sqrt(lam / p) * np.outer(sig, sig)
        off = ~np.eye(p, dtype=bool)
        se_off = 1.0 / math.sqrt(reps)
        assert np.max(np.abs(mean - target)[off]) < 4.5 * se_off  # max over 2450 pairs
        # diagonal second moment: 2 + lam sig_i^2 / p
        m2 = acc2_diag / reps
        target_diag = 2.0 + lam * sig**2 / p
        assert np.max(np.abs(m2 - target_diag)) < 5 * math.sqrt(2 * 2.0**2 / reps)

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(netamp.synth, "MAX_SURROGATE_P", 5)
        with pytest.raises(ValueError, match="exceeds"):
            gaussian_surrogate(np.zeros(10), 1.0, 0)


class TestRoundTrip:
    @pytest.mark.parametrize("b_p", [4.0, 30.0])
    def test_save_load(self, tmp_path, b_p):
        params = ModelParams.from_snr(n=80, p=60, Delta=0.5, b_p=b_p, lam=1.5,
                                      prior=spike_slab(0.3, [-2.0, 1.0]))
        ds = generate(params, 9)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(ds.sigma0, back.sigma0)
        assert np.array_equal(ds.beta0, back.beta0)
        assert np.array_equal(ds.Phi, back.Phi)
        assert np.array_equal(ds.y, back.y)
        for attr in ("indptr", "indices", "data"):
            got, want = getattr(back.adjacency, attr), getattr(ds.adjacency, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want), attr
        assert back.params.lam == ds.params.lam
        assert back.params.prior == ds.params.prior
        assert back.seed == 9

    def test_save_load_edgeless(self, tmp_path):
        params = ModelParams.from_snr(n=20, p=3, Delta=0.5, b_p=1e-9, lam=0.0,
                                      prior=spike_slab(0.3, [1.0]))
        ds = generate(params, 1)
        assert ds.adjacency.nnz == 0
        save_dataset(ds, tmp_path / "d")
        assert (tmp_path / "d" / "edges.csv").read_text() == "i,j\n"
        back = load_dataset(tmp_path / "d")
        assert back.adjacency.shape == (3, 3) and back.adjacency.nnz == 0

    @pytest.mark.parametrize("edit", ["nan_y", "no_rho", "header_n", "short_beta",
                                      "self_loop", "reversed", "repeated"])
    def test_malformed_dataset_is_rejected(self, tmp_path, capsys, edit):
        """Each defect raises a ValueError naming its file; the CLI exits 2."""
        message = {"nan_y": "y.npy holds NaN or Inf",
                   "no_rho": "header.txt has no 'rho' line",
                   "header_n": r"phi.npy has shape \(30, 20\), not \(40, 20\)",
                   "short_beta": r"beta0.npy has shape \(19,\), not \(20,\)",
                   "self_loop": r"edges.csv: edge \(3, 3\) is not 0 <= i < j < p = 20",
                   "reversed": r"edges.csv: edge \(9, 2\) is not 0 <= i < j < p = 20",
                   "repeated": r"edges.csv: edge \(\d+, \d+\) is repeated"}[edit]
        params = ModelParams.from_snr(n=30, p=20, Delta=0.5, b_p=4.0, lam=1.5,
                                      prior=spike_slab(0.3, [1.0]))
        data = tmp_path / "d"
        save_dataset(generate(params, 2), data)
        if edit == "nan_y":
            y = np.load(data / "y.npy")
            y[7] = np.nan
            np.save(data / "y.npy", y)
        elif edit == "no_rho":
            header = (data / "header.txt").read_text().splitlines(keepends=True)
            (data / "header.txt").write_text("".join(ln for ln in header
                                                     if not ln.startswith("rho")))
        elif edit == "header_n":
            header = (data / "header.txt").read_text()
            (data / "header.txt").write_text(header.replace("n = 30\n", "n = 40\n"))
        elif edit == "short_beta":
            np.save(data / "beta0.npy", np.load(data / "beta0.npy")[:-1])
        else:
            lines = (data / "edges.csv").read_text().splitlines(keepends=True)
            extra = {"self_loop": "3,3\n", "reversed": "9,2\n", "repeated": lines[1]}[edit]
            (data / "edges.csv").write_text("".join(lines) + extra)
        with pytest.raises(ValueError, match=message):
            load_dataset(data)
        for cmd in ("amp-run", "baseline-lap"):
            with pytest.raises(SystemExit) as exc:
                cli_main([cmd, "--data", str(data), "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
