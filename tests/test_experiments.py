import dataclasses
import os
import time

import numpy as np
import pytest

from netamp.cli import main as cli_main
from netamp.amp import AmpConfig, run
from netamp.experiments import (_PIPELINES, AMP_PIPELINES, BUILTIN_NAMES, CsvSink,
                                ExperimentSpec, builtin_spec, load_spec_file,
                                run_experiment)
from netamp.priors import QuadratureRule
from netamp.state_evolution import fixed_point, se_run
from netamp.synth import load_dataset


def read_csv(path):
    """Returns (meta dict, header list, rows as string lists)."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                k, _, v = line[2:].partition(" = ")
                meta[k] = v
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def failing_after(gen, yields, exc, counter=None):
    """A run generator that passes on gen's first `yields` requests, then raises exc.

    It stands in for a run inside `run_draw` through the harness's per-run
    hook ``_isolated``; ``counter`` (a list) gets one entry per request passed on.
    """
    product = None
    for _ in range(yields):
        product = yield gen.send(product)
        if counter is not None:
            counter.append(1)
    raise exc


def strip_timestamp(path):
    with open(path) as fh:
        return [l for l in fh if not l.startswith("# timestamp")]


class TestSmokeSpec:
    def test_smoke_runs_fast_and_writes_everything(self, tmp_path):
        t0 = time.time()
        spec = builtin_spec("smoke")
        paths = run_experiment(spec, str(tmp_path))
        assert time.time() - t0 < 10.0
        assert set(paths) == {"amp", "se", "fdr", "coverage", "baseline"}
        for path in paths.values():
            meta, header, rows = read_csv(path)
            assert meta["schema"] == "netamp-csv-1"
            assert len(rows) >= 1

    def test_replay_is_bit_identical(self, tmp_path):
        spec = builtin_spec("smoke")
        p1 = run_experiment(spec, str(tmp_path / "a"))
        p2 = run_experiment(spec, str(tmp_path / "b"))
        for key in p1:
            assert strip_timestamp(p1[key]) == strip_timestamp(p2[key])

    def test_no_overwrite_without_flag(self, tmp_path):
        spec = builtin_spec("smoke")
        run_experiment(spec, str(tmp_path))
        with pytest.raises(FileExistsError):
            run_experiment(spec, str(tmp_path))
        run_experiment(spec, str(tmp_path), overwrite=True)

    def test_aggregates_recompute(self, tmp_path):
        spec = ExperimentSpec(name="agg", pipelines=("amp",), n=150, p=150,
                              rho=0.3, b_p=15.0, lambdas=(2.0,), deltas=(1.0,),
                              replicates=4, T=6)
        paths = run_experiment(spec, str(tmp_path))
        meta, header, rows = read_csv(paths["amp"])
        i_rep = header.index("replicate")
        i_ov = header.index("overlap")
        data = [float(r[i_ov]) for r in rows if r[i_rep] not in ("mean", "stderr")]
        mean = [float(r[i_ov]) for r in rows if r[i_rep] == "mean"][0]
        se = [float(r[i_ov]) for r in rows if r[i_rep] == "stderr"][0]
        assert mean == pytest.approx(np.mean(data), abs=1e-12)
        assert se == pytest.approx(np.std(data, ddof=1) / np.sqrt(len(data)), abs=1e-12)

    def test_threads_match_serial(self, tmp_path):
        common = dict(n=120, p=120, rho=0.3, b_p=12.0, lambdas=(2.0,),
                      replicates=4, T=5)
        specs = [ExperimentSpec(name="par", pipelines=("amp",), deltas=(1.0,), **common),
                 ExperimentSpec(name="shared", pipelines=("amp", "fdr", "coverage", "baseline"),
                                deltas=(0.5, 2.0), **common)]
        for spec in specs:
            p1 = run_experiment(spec, str(tmp_path / spec.name / "serial"), threads=1)
            p2 = run_experiment(spec, str(tmp_path / spec.name / "pool"), threads=3)
            assert set(p1) == set(p2) == set(spec.pipelines)
            for key in p1:
                assert strip_timestamp(p1[key]) == strip_timestamp(p2[key])

    def test_fdr_rows_independent_of_other_pipelines(self, tmp_path):
        common = dict(n=120, p=120, rho=0.3, b_p=12.0, lambdas=(2.0,),
                      deltas=(0.5, 2.0), replicates=3, T=5)
        both = run_experiment(ExperimentSpec(name="both", pipelines=("amp", "fdr"), **common),
                              str(tmp_path / "both"))
        alone = run_experiment(ExperimentSpec(name="alone", pipelines=("fdr",), **common),
                               str(tmp_path / "alone"))
        _, header_b, rows_b = read_csv(both["fdr"])
        _, header_a, rows_a = read_csv(alone["fdr"])
        assert header_b == header_a
        assert rows_b == rows_a
        assert len(rows_a) == 2 * 3 + 2 * 2      # replicates plus mean/stderr rows


    def test_csv_headers(self, tmp_path):
        spec = ExperimentSpec(name="all", pipelines=("universality", "coverage", "fdr",
                                                     "baseline", "amp", "mi", "se"),
                              n=60, p=60, rho=0.3, b_p=6.0, lambdas=(1.0,),
                              deltas=(1.0,), replicates=1, T=3, quad_order=21)
        paths = run_experiment(spec, str(tmp_path))
        rep = ["lambda", "Delta", "replicate"]
        assert {pl: read_csv(path)[1] for pl, path in paths.items()} == {
            "se": ["lambda", "Delta", "t", "eta", "nu", "tau", "mu", "xi",
                   "mu_star", "xi_star", "residual"],
            "mi": ["lambda", "Delta", "mu_bar", "xi_bar", "mi", "mu_star",
                   "xi_star", "coincide"],
            "amp": rep + ["overlap", "mse_beta", "pred_error", "se_overlap_pred",
                          "se_pred_error"],
            "baseline": rep + ["pred_error", "lambda1", "lambda2", "converged"],
            "fdr": rep + ["alpha", "fdp", "tdp", "n_rejected", "fdp_stepup",
                          "tdp_stepup"],
            "coverage": rep + ["alpha", "coverage"],
            "universality": rep + ["overlap_sbm", "overlap_surrogate", "gap"],
        }
        assert list(paths) == ["se", "mi", "amp", "baseline", "fdr", "coverage",
                               "universality"]


def _shrunk(spec: ExperimentSpec) -> ExperimentSpec:
    """spec at toy n = p = 60, T 3 and 2 replicates, with b_p scaled to p, its
    first lambda and its first two Deltas, their types kept."""
    return dataclasses.replace(spec, n=60, p=60, b_p=spec.b_p * 60 / spec.p, T=3,
                               replicates=2, lambdas=spec.lambdas[:1],
                               deltas=spec.deltas[:2])


class TestSpecs:
    def test_builtin_names_complete(self):
        for name in BUILTIN_NAMES:
            spec = builtin_spec(name)
            assert spec.name == name

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown built-in"):
            builtin_spec("nope")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_csvs_hold_numbers(self, tmp_path, name):
        """Every body cell of a built-in spec's CSVs is a number or empty, apart
        from the row labels, and the spec echo holds no numpy repr."""
        for pl, path in run_experiment(_shrunk(builtin_spec(name)), str(tmp_path)).items():
            meta, _, rows = read_csv(path)
            assert "np." not in meta["spec"], pl
            for row in rows:
                for cell in row:
                    if cell not in ("", "mean", "stderr", "fixed_point"):
                        float(cell)

    def test_invalid_pipeline_listed(self):
        with pytest.raises(ValueError, match="unknown pipelines"):
            ExperimentSpec(name="x", pipelines=("amp", "bogus"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentSpec(name="x", pipelines=("amp",), lambdas=())

    @pytest.mark.parametrize("grid, frag", [
        (dict(deltas=(0.0, 1.0)), "every Delta must be positive"),
        (dict(deltas=(-1.0, 1.0)), "every Delta must be positive"),
        (dict(lambdas=(-1.0,)), "lambdas must be nonnegative"),
        (dict(lambdas=(1.0, 1.0)), "sweep grids must not repeat a value"),
        (dict(deltas=(0.5, 1.0, 0.5)), "sweep grids must not repeat a value"),
    ])
    def test_sweep_values_rejected(self, grid, frag):
        with pytest.raises(ValueError, match="invalid experiment spec: " + frag):
            ExperimentSpec(name="x", pipelines=("amp", "baseline"), **grid)

    @pytest.mark.parametrize("pl", AMP_PIPELINES)
    def test_kappa_mi_rejected_with_amp_pipelines(self, pl):
        """An AMP run sees data drawn at n/p, so its trace may not be at kappa_mi."""
        with pytest.raises(ValueError, match="invalid experiment spec: kappa_mi applies "
                                             "to se and mi pipelines only"):
            ExperimentSpec(name="x", pipelines=("se", pl), n=120, p=100, kappa_mi=2.5)

    def test_kappa_mi_kept_for_scalar_pipelines(self):
        spec = ExperimentSpec(name="x", pipelines=("se", "mi"), n=120, p=100, kappa_mi=2.5)
        assert spec.kappa() == 2.5
        for name in ("figure1a", "figure1b"):
            assert builtin_spec(name).kappa_mi == 1.5

    def test_exhaustive_validation_message(self):
        with pytest.raises(ValueError) as ei:
            ExperimentSpec(name="x", pipelines=("bogus",), replicates=0,
                           lambdas=(), rho=1.5, alpha=2.0, T=0, design="nope")
        msg = str(ei.value)
        for frag in ("unknown pipelines", "replicates", "nonempty", "rho",
                     "alpha", "T must", "design"):
            assert frag in msg
        # the model checks: kappa, and b_p at each lambda of a spec that draws data
        with pytest.raises(ValueError) as ei:
            ExperimentSpec(name="x", pipelines=("bogus", "fdr"), replicates=0,
                           deltas=(), rho=1.5, alpha=2.0, T=0, design="nope",
                           kappa_mi=0.0, b_p=0.0, lambdas=(0.0, 3.0))
        msg = str(ei.value)
        for frag in ("unknown pipelines", "replicates", "nonempty", "rho",
                     "alpha", "T must", "design", "kappa must be positive",
                     "need 0 < b_p < p at lambda 0.0, b_p 0.0 and p 2000",
                     "need 0 < b_p < p at lambda 3.0", "kappa_mi applies"):
            assert frag in msg

    @pytest.mark.parametrize("pipelines", [("amp",), ("baseline",), ("se", "coverage")])
    def test_lambda_the_draw_rejects(self, pipelines):
        """A spec that draws data is checked at each lambda as its draws would be."""
        with pytest.raises(ValueError, match="invalid experiment spec: supercritical SNR "
                                             "for given sparsity at lambda 40.0, b_p 30.0"):
            ExperimentSpec(name="x", pipelines=pipelines, n=50, p=50, b_p=30.0,
                           lambdas=(1.0, 40.0))

    def test_scalar_pipelines_draw_nothing(self):
        spec = ExperimentSpec(name="x", pipelines=("se", "mi"), n=50, p=50, b_p=30.0,
                              lambdas=(40.0,))
        assert spec.lambdas == (40.0,)

    def test_replicate_failures_recorded_and_fatal_above_threshold(self, tmp_path, monkeypatch):
        import netamp.experiments as ex

        real_isolated = ex._isolated

        def explode(ds, gen):
            if ds.seed % 2 == 0:
                gen = failing_after(gen, 0, RuntimeError("boom"))
            return real_isolated(ds, gen)

        monkeypatch.setattr(ex, "_isolated", explode)
        spec = ExperimentSpec(name="fail", pipelines=("amp",), n=100, p=100,
                              rho=0.3, b_p=10.0, lambdas=(1.0,), deltas=(1.0,),
                              replicates=4, T=3)
        with pytest.raises(ex.ReplicateFailures, match="2 of 4"):
            ex.run_experiment(spec, str(tmp_path))
        meta, _, rows = read_csv(tmp_path / "fail_amp.csv")
        assert "boom" in meta["failed_replicates"]
        kept = [r for r in rows if r[2] not in ("mean", "stderr")]
        assert len(kept) == 2          # failed replicates skipped

    def test_failed_replicates_trailer_is_pipeline_major(self, tmp_path, monkeypatch):
        """A failed draw or run fans out to every (pipeline, Delta) unit it fed."""
        import netamp.experiments as ex

        real_generate, real_isolated = ex.generate, ex._isolated

        def flaky_generate(params, seed):
            if seed == 3:
                raise RuntimeError("boom")
            return real_generate(params, seed)

        def flaky_run(ds, gen):
            if ds.seed == 5:
                gen = failing_after(gen, 0, RuntimeError(f"bad run at Delta={ds.params.Delta}"))
            return real_isolated(ds, gen)

        monkeypatch.setattr(ex, "generate", flaky_generate)
        monkeypatch.setattr(ex, "_isolated", flaky_run)
        spec = ExperimentSpec(name="trailer", pipelines=("fdr", "amp"), n=60, p=60,
                              rho=0.3, b_p=6.0, lambdas=(1.0,), deltas=(0.5, 1.0),
                              replicates=24, T=3)
        expected = ";".join(entry for pl in ("amp", "fdr") for delta in spec.deltas
                            for entry in ("3:RuntimeError: boom",
                                          f"5:RuntimeError: bad run at Delta={delta}"))
        paths = ex.run_experiment(spec, str(tmp_path))
        assert list(paths) == ["amp", "fdr"]
        for path in paths.values():
            meta, _, rows = read_csv(path)
            assert meta["failed_replicates"] == expected
            kept = [r for r in rows if r[2] not in ("mean", "stderr")]
            assert len(kept) == 2 * 22

    def test_run_failing_mid_lockstep_fails_only_its_delta(self, tmp_path, monkeypatch):
        """One Delta's run raises after some rounds of the draw's lockstep; the
        other Deltas' runs finish and their rows are those of `run` alone."""
        import netamp.experiments as ex
        from netamp.amp import AmpConfig, run
        from netamp.state_evolution import se_run
        from netamp.synth import generate, with_delta

        real_isolated = ex._isolated
        passed = []

        def flaky_run(ds, gen):
            if ds.seed == 1 and ds.params.Delta == 1.0:
                gen = failing_after(gen, 5, RuntimeError("mid-lockstep"), passed)
            return real_isolated(ds, gen)

        monkeypatch.setattr(ex, "_isolated", flaky_run)
        spec = ExperimentSpec(name="mid", pipelines=("fdr", "amp"), n=70, p=60,
                              rho=0.3, b_p=6.0, lambdas=(1.0,), deltas=(0.5, 1.0, 2.0),
                              replicates=4, T=3)
        paths = ex.run_experiment(spec, str(tmp_path))
        assert len(passed) == 5
        quad = QuadratureRule.gauss_hermite(spec.quad_order)
        base = generate(ex._make_params(spec, 1.0, 0.5), 1)
        for pl, path in paths.items():
            meta, header, rows = read_csv(path)
            # one entry for each of the two pipelines that read the failed run
            assert meta["failed_replicates"] == ";".join(["1:RuntimeError: mid-lockstep"] * 2)
            got = {(r[1], r[2]): r for r in rows if r[2] not in ("mean", "stderr")}
            assert len(got) == 3 * 4 - 1 and ("1.0", "1") not in got
            for delta in (0.5, 2.0):
                ds = base if delta == 0.5 else with_delta(base, delta)
                trace = se_run(spec.prior(), 1.0, spec.kappa(), delta, T=spec.T + 1, quad=quad)
                alone = run(ds, AmpConfig(T=spec.T, record_history=False), se_trace=trace)
                want = _PIPELINES[pl].amp_row(spec, ds, alone, trace)
                row = dict(zip(header, got[(repr(delta), "1")]))
                assert all(row[c] == ex.CsvSink._fmt(v) for c, v in want.items())

    def test_universality_under_failures(self, tmp_path, monkeypatch):
        """Each draw's sbm and surrogate-mode runs share one lockstep.  A surrogate
        that cannot be built fails only its seed's universality units; a Delta
        whose runs fail mid-lockstep fails its unit once in each pipeline, with
        the sbm run's error where both runs fail; and every other row is that
        of the runs alone."""
        import netamp.amp
        import netamp.experiments as ex
        from netamp.synth import generate, with_delta

        real_surrogate, real_isolated = netamp.amp.gaussian_surrogate, ex._isolated

        def surrogate(sigma0, lam, seed):
            if seed == 2:
                raise RuntimeError("no surrogate")
            return real_surrogate(sigma0, lam, seed)

        def flaky_run(ds, gen):
            # at seed 2 the surrogate run raises its own error before 5 requests
            if ds.seed in (1, 2) and ds.params.Delta == 1.0:
                gen = failing_after(gen, 5, RuntimeError("mid-lockstep"))
            return real_isolated(ds, gen)

        monkeypatch.setattr(netamp.amp, "gaussian_surrogate", surrogate)
        monkeypatch.setattr(ex, "_isolated", flaky_run)
        spec = ExperimentSpec(name="univ", pipelines=("amp", "universality"), n=70, p=60,
                              rho=0.3, b_p=6.0, lambdas=(1.0,), deltas=(0.5, 1.0),
                              replicates=4, T=3)
        with pytest.raises(ex.ReplicateFailures, match="5 of 16"):
            ex.run_experiment(spec, str(tmp_path))
        mid, no_surrogate = "RuntimeError: mid-lockstep", "RuntimeError: no surrogate"
        expected = ";".join([f"1:{mid}", f"2:{mid}",                           # amp
                             f"2:{no_surrogate}", f"1:{mid}", f"2:{mid}"])     # universality
        quad = QuadratureRule.gauss_hermite(spec.quad_order)
        for pl in spec.pipelines:
            meta, header, rows = read_csv(tmp_path / f"univ_{pl}.csv")
            assert meta["failed_replicates"] == expected
            got = {(r[1], r[2]): dict(zip(header, r)) for r in rows
                   if r[2] not in ("mean", "stderr")}
            failed = {("1.0", "1"), ("1.0", "2")} | ({("0.5", "2")}
                                                     if pl == "universality" else set())
            assert set(got) == {(repr(d), str(s)) for d in spec.deltas
                                for s in range(4)} - failed
            for (delta, seed), row in got.items():
                ds = generate(ex._make_params(spec, 1.0, 0.5), int(seed))
                ds = ds if delta == "0.5" else with_delta(ds, float(delta))
                trace = se_run(spec.prior(), 1.0, spec.kappa(), float(delta),
                               T=spec.T + 1, quad=quad)
                alone = run(ds, AmpConfig(T=spec.T, record_history=False), se_trace=trace)
                if pl == "universality":
                    alone = (alone, run(ds, AmpConfig(T=spec.T, matrix_mode="gaussian-surrogate",
                                                      record_history=False), se_trace=trace))
                want = _PIPELINES[pl].amp_row(spec, ds, alone, trace)
                assert all(row[c] == CsvSink._fmt(v) for c, v in want.items())

    def test_failed_tune_raises_at_the_baseline_csv(self, tmp_path, monkeypatch):
        import netamp.experiments as ex

        real_generate = ex.generate

        def flaky_generate(params, seed):
            if seed == 2:              # the tuning draw, at base_seed + replicates
                raise RuntimeError("no tuning draw")
            return real_generate(params, seed)

        monkeypatch.setattr(ex, "generate", flaky_generate)
        spec = ExperimentSpec(name="tune", pipelines=("fdr", "baseline", "amp", "mi", "se"),
                              n=60, p=60, rho=0.3, b_p=6.0, lambdas=(1.0,),
                              deltas=(1.0,), replicates=2, T=3, quad_order=21)
        with pytest.raises(RuntimeError, match="no tuning draw") as ei:
            ex.run_experiment(spec, str(tmp_path))
        assert type(ei.value) is RuntimeError
        assert sorted(os.listdir(tmp_path)) == ["tune_amp.csv", "tune_mi.csv", "tune_se.csv"]

    def test_unconverged_tune_fits_trailer(self, tmp_path, monkeypatch):
        """Only the baseline CSV names each tune whose grid fits hit max_iter."""
        import dataclasses

        import netamp.experiments as ex

        real_grid = ex._lap_grid

        def short_grid(ds):                # 5 iterations for lambda1 = 0.02 lam_max at Delta 1
            grid = real_grid(ds)
            if ds.params.Delta == 1.0:
                grid[:3] = [dataclasses.replace(c, max_iter=5) for c in grid[:3]]
            return grid

        spec = ExperimentSpec(name="unconv", pipelines=("amp", "baseline"), n=60, p=60,
                              rho=0.3, b_p=6.0, lambdas=(1.0,), deltas=(1.0,),
                              replicates=2, T=3)
        paths = ex.run_experiment(spec, str(tmp_path / "converged"))
        assert "unconverged_tune_fits" not in read_csv(paths["baseline"])[0]

        # at Delta 0.5 the lambda1 = 0.02 lam_max, lambda2 = 0 fit needs over 400
        monkeypatch.setattr(ex, "_lap_grid", short_grid)
        spec = dataclasses.replace(spec, deltas=(0.5, 1.0))
        paths = ex.run_experiment(spec, str(tmp_path / "short"))
        meta, _, _ = read_csv(paths["baseline"])
        assert meta["unconverged_tune_fits"] == "1.0:0.5:1/9;1.0:1.0:3/9"
        assert "unconverged_tune_fits" not in read_csv(paths["amp"])[0]

    def test_spec_file_round_trip(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\n"
            "name = custom\n"
            "pipelines = se,mi\n"
            "replicates = 2\n"
            "T = 7\n"
            "alpha = 0.2\n"
            "[model]\n"
            "n = 300\np = 200\nrho = 0.25\nslab = -2,2\nb_p = 10\n"
            "lambda = 1.0,2.0\ndelta = 0.5\nkappa = 1.5\n")
        spec = load_spec_file(str(cfg))
        assert spec.name == "custom"
        assert spec.pipelines == ("se", "mi")
        assert spec.n == 300 and spec.p == 200
        assert spec.slab == (-2.0, 2.0)
        assert spec.lambdas == (1.0, 2.0)
        assert spec.kappa() == 1.5
        assert spec.alpha == 0.2

    @pytest.mark.parametrize("text, where", [
        ("[experiment]\npipelines = se\n[model]\nlambdas = 1,2\n", "'lambdas' in [model]"),
        ("[experiment]\npipelines = se\n[model]\ndeltas = 0.5\n", "'deltas' in [model]"),
        ("[experiment]\npipelines = se\nreplicate = 5\n", "'replicate' in [experiment]"),
        ("[experiment]\npipelines = se\n[modle]\nn = 50\n", "unknown section [modle]"),
        ("[DEFAULT]\nrho = 0.3\n[experiment]\npipelines = se\n", "unknown section [DEFAULT]"),
    ], ids=["model-lambdas", "model-deltas", "experiment-replicate", "section-modle",
            "section-default"])
    def test_spec_file_unknown_key_rejected(self, tmp_path, text, where):
        """A misspelt key or section is an error, not a silent default."""
        cfg = tmp_path / "typo.ini"
        cfg.write_text(text)
        with pytest.raises(ValueError) as ei:
            load_spec_file(str(cfg))
        assert str(ei.value).startswith(f"spec file {cfg}: ")
        assert where in str(ei.value)


class TestCli:
    def test_generate_amp_baseline_roundtrip(self, tmp_path):
        data = str(tmp_path / "ds")
        rc = cli_main(["generate", "--n", "150", "--p", "150", "--rho", "0.4",
                       "--b-p", "15", "--lam", "2.0", "--Delta", "1.0",
                       "--seed", "3", "--out", data])
        assert rc == 0
        assert os.path.exists(os.path.join(data, "phi.npy"))

        out = str(tmp_path / "out")
        rc = cli_main(["amp-run", "--data", data, "--T", "8", "--out", out])
        assert rc == 0
        meta, header, rows = read_csv(os.path.join(out, "amp_run.csv"))
        assert header == ["t", "overlap", "mse_beta", "pred_error",
                          "se_overlap_pred", "se_pred_error"]
        assert len(rows) == 9

        rc = cli_main(["baseline-lap", "--data", data, "--out", out])
        assert rc == 0
        _, header_b, rows_b = read_csv(os.path.join(out, "baseline_lap.csv"))
        assert header_b == ["lambda", "Delta", *_PIPELINES["baseline"].columns]
        assert [r[:3] for r in rows_b] == [["2.0", "1.0", "3"]]

    def test_amp_run_surrogate_mode(self, tmp_path):
        """amp-run --matrix-mode gaussian-surrogate writes the history of `run` in
        that mode, with the trace at the --quad-order rule."""
        data, out = str(tmp_path / "ds"), str(tmp_path / "out")
        assert cli_main(["generate", "--n", "120", "--p", "100", "--rho", "0.3",
                         "--b-p", "50", "--lam", "2", "--Delta", "1", "--seed", "3",
                         "--out", data]) == 0
        assert cli_main(["amp-run", "--data", data, "--T", "8", "--quad-order", "21",
                         "--matrix-mode", "gaussian-surrogate", "--out", out]) == 0
        ds = load_dataset(data)
        par = ds.params
        trace = se_run(par.prior, par.lam, par.kappa, par.Delta, T=9,
                       quad=QuadratureRule.gauss_hermite(21))
        res = run(ds, AmpConfig(T=8, matrix_mode="gaussian-surrogate"), se_trace=trace)
        _, header, rows = read_csv(os.path.join(out, "amp_run.csv"))
        assert len(rows) == 9
        for t, row in enumerate(rows):
            got = dict(zip(header, row))
            for col in ("overlap", "mse_beta", "pred_error"):
                assert got[col] == CsvSink._fmt(float(getattr(res, col)[t])), (t, col)

    def test_generate_takes_one_point(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["generate", "--n", "50", "--p", "50", "--lam", "1,2",
                      "--out", str(tmp_path)])
        assert os.listdir(tmp_path) == []

    def test_invalid_spec_is_a_usage_error(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.ini"
        spec_file.write_text("[experiment]\npipelines = amp\nreplicates = 0\n")
        no_section = tmp_path / "model_only.ini"
        no_section.write_text("[model]\nn = 50\n")
        no_header = tmp_path / "no_header.ini"
        no_header.write_text("pipelines = amp\n")
        amp_kappa = tmp_path / "amp_kappa.ini"
        amp_kappa.write_text("[experiment]\npipelines = amp,se\nT = 6\n[model]\n"
                             "n = 120\np = 100\nrho = 0.3\nb_p = 20\nlambda = 2\n"
                             "delta = 1\nkappa = 2.5\n")
        unknown_key = tmp_path / "unknown_key.ini"
        unknown_key.write_text("[experiment]\npipelines = se\nreplicate = 5\n")
        bad = "invalid experiment spec: "
        for argv, problem in ((["mi-curve", "--Delta", "1,1"],
                               bad + "sweep grids must not repeat a value"),
                              (["fdr-sim", "--rho", "1.5"], bad + "rho must be in (0, 1)"),
                              (["experiment", str(spec_file)],
                               bad + "replicates must be at least 1"),
                              (["experiment", str(tmp_path / "nosuchspec")],
                               "No such file or directory"),
                              (["experiment", str(no_section)],
                               "has no [experiment] section"),
                              (["experiment", str(no_header)],
                               "File contains no section headers"),
                              (["experiment", str(amp_kappa)],
                               bad + "kappa_mi applies to se and mi pipelines only"),
                              (["experiment", str(unknown_key)],
                               "unknown key 'replicate' in [experiment]")):
            out = tmp_path / "out"
            with pytest.raises(SystemExit) as exc:
                cli_main([*argv, "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert problem in err
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("argv, problem", [
        (["se-solve", "--kappa", "0"], "kappa must be positive"),
        (["mi-curve", "--kappa", "-1"], "kappa must be positive"),
        (["fdr-sim", "--b-p", "0"], "need 0 < b_p < p at lambda 3.0, b_p 0.0 and p 2000"),
        (["fdr-sim", "--n", "50", "--p", "50", "--b-p", "30", "--lam", "40"],
         "supercritical SNR for given sparsity at lambda 40.0, b_p 30.0 and p 50"),
        (["generate", "--b-p", "0"], "need 0 < b_p < p at lambda 3.0, b_p 0.0 and p 2000"),
        *((argv + ["--quad-order", order], "quadrature order must be at least 21")
          for argv in (["se-solve"], ["mi-curve"], ["experiment", "smoke"])
          for order in ("5", "0"))],
        ids=lambda v: "-".join(v) if isinstance(v, list) else None)
    def test_unsolvable_model_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv,
                                               problem):
        """A model that the state evolution or the draws would reject stops the
        CLI before any work, with exit status 2."""
        for name in ("experiments.se_run", "experiments.generate", "experiments.fixed_point",
                     "experiments.minimize", "cli.generate"):
            monkeypatch.setattr(f"netamp.{name}", self._unreachable)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid experiment spec: {problem}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, problem", [
        (["--quad-order", "5"], "quadrature order must be at least 21"),
        (["--quad-order", "0"], "quadrature order must be at least 21"),
        (["--T", "0"], "T must be at least 1")],
        ids=lambda v: "".join(v) if isinstance(v, list) else None)
    def test_amp_run_flag_out_of_range_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        flags, problem):
        """amp-run checks its --quad-order and --T before it loads the data,
        computes or writes anything, with exit status 2."""
        for name in ("load_dataset", "se_run", "run"):
            monkeypatch.setattr(f"netamp.cli.{name}", self._unreachable)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["amp-run", "--data", str(tmp_path / "ds"), *flags, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err
        assert not out.exists()

    def test_se_solve_and_mi_curve(self, tmp_path):
        out = str(tmp_path / "cli")
        rc = cli_main(["se-solve", "--rho", "0.5", "--slab=-1,1",
                       "--lam", "2.0", "--Delta", "1.0", "--T", "12",
                       "--quad-order", "21", "--out", out])
        assert rc == 0
        _, header, rows = read_csv(os.path.join(out, "se-solve_se.csv"))
        assert header == ["lambda", "Delta", *_PIPELINES["se"].columns]
        assert [r[2] for r in rows] == [str(t) for t in range(14)] + ["fixed_point"]
        got = dict(zip(header, rows[-1]))
        fp = fixed_point(ExperimentSpec(name="x", pipelines=(), rho=0.5).prior(),
                         2.0, 1.0, 1.0, quad=QuadratureRule.gauss_hermite(21))
        assert (got["mu_star"], got["xi_star"], got["residual"]) == (
            repr(fp.mu_star), repr(fp.xi_star), repr(fp.residual))
        assert got["eta"] == got["nu"] == got["tau"] == ""

        rc = cli_main(["mi-curve", "--lam", "0,1", "--Delta", "1,2",
                       "--rho", "0.5", "--slab=-1,1", "--quad-order", "21",
                       "--out", out])
        assert rc == 0
        spec = ExperimentSpec(name="mi-curve", pipelines=("mi",), rho=0.5,
                              lambdas=(0.0, 1.0), deltas=(1.0, 2.0), kappa_mi=1.0,
                              replicates=1, quad_order=21)
        harness = run_experiment(spec, str(tmp_path / "harness"))["mi"]
        _, header, rows = read_csv(os.path.join(out, "mi-curve_mi.csv"))
        assert len(rows) == 4
        assert (header, rows) == read_csv(harness)[1:]
        mis = [float(r[header.index("mi")]) for r in rows]
        assert mis[0] > mis[1]          # MI decreasing in Delta at lambda = 0

    def test_experiment_subcommand(self, tmp_path):
        rc = cli_main(["experiment", "smoke", "--out", str(tmp_path)])
        assert rc == 0
        assert os.path.exists(tmp_path / "smoke_amp.csv")

    @pytest.mark.parametrize("argv", [
        ["generate", "--threads", "2"], ["generate", "--quad-order", "21"],
        ["amp-run", "--data", "ds", "--seed", "1"], ["amp-run", "--data", "ds", "--threads", "2"],
        ["se-solve", "--seed", "1"], ["mi-curve", "--seed", "1"],
        ["baseline-lap", "--data", "ds", "--threads", "2"],
        ["baseline-lap", "--data", "ds", "--quad-order", "21"]],
        ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_unread_flags_rejected(self, tmp_path, capsys, argv):
        """Each subcommand takes only the flags it reads."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, pipeline, own", [
        ("se-solve", "se", dict(kappa_mi=1.0, T=50, replicates=1)),
        ("mi-curve", "mi", dict(kappa_mi=1.0, replicates=1)),
        ("fdr-sim", "fdr", {}), ("coverage-sim", "coverage", {})])
    def test_unset_flags_take_spec_defaults(self, tmp_path, monkeypatch, cmd, pipeline, own):
        """With only --out, a harness subcommand runs ExperimentSpec's defaults,
        apart from the CLI's own defaults for se-solve and mi-curve."""
        calls = []
        monkeypatch.setattr("netamp.cli.run_experiment",
                            lambda spec, out, **kw: calls.append((spec, out, kw)) or {})
        assert cli_main([cmd, "--out", str(tmp_path)]) == 0
        [(spec, out, kw)] = calls
        assert spec == ExperimentSpec(name=cmd, pipelines=(pipeline,), **own)
        assert (out, kw["threads"], kw["overwrite"]) == (str(tmp_path), 1, False)

    def test_experiment_seed_and_quad_order_override_the_spec(self, tmp_path):
        spec_file = tmp_path / "seeded.ini"
        spec_file.write_text("[experiment]\npipelines = se\nbase_seed = 5\nT = 3\n")
        for flags, seeds, quad_order in (([], "5..24", 41),
                                         (["--seed", "0", "--quad-order", "21"], "0..19", 21)):
            out = tmp_path / f"out{len(flags)}"
            assert cli_main(["experiment", str(spec_file), *flags, "--out", str(out)]) == 0
            meta, _, _ = read_csv(out / "seeded.ini_se.csv")
            assert meta["seeds"] == seeds
            assert f"'base_seed': {seeds.split('.')[0]}," in meta["spec"]
            assert f"'quad_order': {quad_order}," in meta["spec"]

    def test_generate_refuses_an_existing_dataset(self, tmp_path, capsys):
        data = tmp_path / "ds"
        draw = ["generate", "--n", "60", "--p", "50", "--b-p", "10", "--lam", "2",
                "--out", str(data)]
        assert cli_main([*draw, "--seed", "3"]) == 0
        before = {f: (data / f).read_bytes() for f in os.listdir(data)}
        with pytest.raises(SystemExit) as exc:
            cli_main([*draw, "--seed", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--overwrite" in err and "Traceback" not in err
        assert {f: (data / f).read_bytes() for f in os.listdir(data)} == before
        assert cli_main([*draw, "--seed", "4", "--overwrite"]) == 0
        assert load_dataset(str(data)).seed == 4

    def test_existing_output_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        """An output that exists without --overwrite stops the CLI before any work."""
        data, out = str(tmp_path / "ds"), tmp_path / "out"
        assert cli_main(["generate", "--n", "60", "--p", "50", "--b-p", "10",
                         "--out", data]) == 0

        def unreachable(*args, **kwargs):
            raise AssertionError("computed before claiming the output")

        monkeypatch.setattr("netamp.cli.run", unreachable)
        monkeypatch.setattr("netamp.cli.tune", unreachable)
        out.mkdir()
        for argv, name in ((["amp-run", "--data", data], "amp_run.csv"),
                           (["baseline-lap", "--data", data], "baseline_lap.csv"),
                           (["experiment", "smoke"], "smoke_coverage.csv")):
            (out / name).write_text("kept\n")
            with pytest.raises(SystemExit) as exc:
                cli_main([*argv, "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"{out / name} exists" in err and "--overwrite" in err
            assert "Traceback" not in err
            assert (out / name).read_text() == "kept\n"
        # an --out that is a file is a usage error too, but --overwrite would not help
        with pytest.raises(SystemExit) as exc:
            cli_main(["se-solve", "--T", "3", "--out", str(out / name)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "File exists" in err and "--overwrite" not in err

    @staticmethod
    def _out_is_a_file(capsys, argv, afile):
        """argv with --out at afile, and below it, each exits 2 naming afile."""
        for out in (afile, afile / "sub"):
            with pytest.raises(SystemExit) as exc:
                cli_main([*argv, "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"File exists: '{afile}'" in err and "Traceback" not in err
            assert afile.read_text() == "kept\n"

    @staticmethod
    def _unreachable(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    def test_harness_out_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        """An --out that is a regular file stops the harness subcommands before
        the state evolution, the draws or the potential."""
        for name in ("se_run", "generate", "fixed_point", "minimize"):
            monkeypatch.setattr(f"netamp.experiments.{name}", self._unreachable)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        for argv in (["se-solve", "--T", "3"], ["mi-curve"],
                     ["fdr-sim", "--n", "60", "--p", "50", "--b-p", "10"],
                     ["coverage-sim", "--n", "60", "--p", "50", "--b-p", "10"],
                     ["experiment", "smoke"]):
            self._out_is_a_file(capsys, argv, afile)

    def test_dataset_out_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        """amp-run and baseline-lap check --out before the state evolution, AMP
        or the tuning."""
        data = str(tmp_path / "ds")
        assert cli_main(["generate", "--n", "60", "--p", "50", "--b-p", "10",
                         "--out", data]) == 0
        for name in ("se_run", "run", "tune"):
            monkeypatch.setattr(f"netamp.cli.{name}", self._unreachable)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        for argv in (["amp-run", "--data", data], ["baseline-lap", "--data", data]):
            self._out_is_a_file(capsys, argv, afile)

    def test_generate_out_file_fails_before_drawing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("netamp.cli.generate", self._unreachable)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        self._out_is_a_file(capsys, ["generate", "--n", "60", "--p", "50"], afile)
