import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import cldp.adaptive
import cldp.channels
import cldp.harness
from cldp.adaptive import _diagonal_table, _estimate_table, build_bandwidth_grid, build_truncation_grid
from cldp.channels import (
    PrivacyBudget,
    kernel_clean,
    kernel_order,
    kernel_scale,
    laplace_release,
    make_kernel,
    trunc_scale,
)
from cldp.estimators import (
    MomentProfile,
    PrivatizedSample,
    RegimeError,
    corr_release_plan,
    private_covariance_correlation,
    private_joint_moment,
    private_kde,
    private_mean,
    release_sample,
)
from cldp.harness import (
    MODES,
    ExperimentConfig,
    RateCurve,
    RatePoint,
    ZeroNoiseRng,
    _plan,
    _run_replication,
    derive_rng,
    fit_loglog_slope,
    run_mode,
    run_rate_experiment,
    run_verification_suite,
)
from cldp.simdata import (
    HolderDensityModel,
    ParetoFactorModel,
    sample_heavy_tailed,
    sample_holder_density,
)


def mean_cfg(**kw):
    base = dict(
        mode="mean",
        n_grid=(256, 512, 1024, 2048),
        alphas=(0.5,),
        replications=40,
        seed=5,
        model=ParetoFactorModel(ks=[4.0], a=[5.0]).to_json(),
        options={"ks": [4.0]},
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestFitLogLog:
    def test_exact_power_curve(self):
        xs = np.array([10.0, 100.0, 1000.0, 10_000.0])
        ys = 3.0 * xs**-0.5
        fit = fit_loglog_slope((xs, ys))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_constant_curve(self):
        xs = np.array([10.0, 100.0, 1000.0, 10_000.0])
        fit = fit_loglog_slope((xs, np.full(4, 2.0)))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = derive_rng(11, 0)
        xs = np.array([16.0, 64.0, 256.0, 1024.0, 4096.0])
        ys = 2.0 * xs**-0.7 * np.exp(rng.normal(0, 0.1, size=5))
        fit = fit_loglog_slope((xs, ys))
        # hand-computed OLS via the normal equations
        lx, ly = np.log(xs), np.log(ys)
        A = np.vstack([np.ones_like(lx), lx]).T
        coef = np.linalg.solve(A.T @ A, A.T @ ly)
        assert fit.intercept == pytest.approx(coef[0], abs=1e-10)
        assert fit.slope == pytest.approx(coef[1], abs=1e-10)

    def test_band_uses_t_quantile(self):
        xs = 2.0 ** np.arange(8, 16)
        ys = xs**-0.5 * np.exp(derive_rng(13, 0).normal(0, 0.1, size=8))
        fit = fit_loglog_slope((xs, ys))
        half = 2.446911851144979 * fit.slope_stderr  # t quantile, 6 degrees of freedom
        assert fit.band[0] == pytest.approx(fit.slope - half, rel=1e-12)
        assert fit.band[1] == pytest.approx(fit.slope + half, rel=1e-12)

    def test_nonpositive_mse_rejected(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        with pytest.raises(ValueError, match="nonpositive"):
            fit_loglog_slope((xs, np.array([1.0, 0.0, 1.0, 1.0])))

    def test_needs_four_points(self):
        with pytest.raises(ValueError, match="4 points"):
            fit_loglog_slope((np.array([1.0, 2.0]), np.array([1.0, 2.0])))


class _PassThroughRng:
    """A stream proxy that forwards every draw, as the benchmark tracer's counting one does."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestRunRateExperiment:
    def test_zero_noise_single_rep_is_pure_bias(self):
        # deterministic channel and an exact column mean: the error is the
        # squared (sampling + truncation) bias of that one draw
        cfg = mean_cfg(replications=1, options={"ks": [4.0], "zero_noise": True})
        curve = run_rate_experiment(cfg)
        model = ParetoFactorModel(ks=[4.0], a=[5.0])
        from cldp.channels import LaplaceTruncChannel
        from cldp.estimators import MomentProfile, optimal_truncations
        from cldp.channels import PrivacyBudget
        from cldp.simdata import sample_heavy_tailed

        for point in curve.points:
            rng = derive_rng(5, 1, point.n, 0)
            X = sample_heavy_tailed(model, point.n, rng)
            T = optimal_truncations(MomentProfile([4.0]), PrivacyBudget([0.5]), point.n, "mean")[0]
            expected = float(np.clip(X[:, 0], -T, T).mean()) ** 2
            assert point.mse == pytest.approx(expected, rel=1e-12)

    def test_doubling_replications_shrinks_stderr(self):
        c1 = run_rate_experiment(mean_cfg(n_grid=(1024,), replications=60))
        c2 = run_rate_experiment(mean_cfg(n_grid=(1024,), replications=240))
        assert c2.points[0].stderr < c1.points[0].stderr

    def test_regime_violation_becomes_warning_row(self):
        cfg = mean_cfg(n_grid=(2, 256, 512, 1024, 2048), alphas=(0.5,))
        curve = run_rate_experiment(cfg)
        assert math.isnan(curve.points[0].mse)
        assert curve.points[0].replications == 0
        assert "warning" in curve.extras["per_n"]["2"]
        fit = fit_loglog_slope(curve)  # nan row excluded
        assert math.isfinite(fit.slope)

    def test_adaptive_grid_below_four_is_warning_row(self):
        # n = 1 used to divide by log(1) on the adaptive axis before the check
        cfg = ExperimentConfig(mode="adaptive_moment", n_grid=(1, 2, 64), alphas=(1.0,), replications=2, seed=5,
                               model=ParetoFactorModel(ks=[2.0], a=[3.0]).to_json(), options={"oracle": False})
        curve = run_rate_experiment(cfg)
        assert [p.replications for p in curve.points] == [0, 0, 2]
        for n in ("1", "2"):
            assert curve.extras["per_n"][n] == {"warning": "adaptive grids need n >= 4"}

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"options": {"ks": [0.5]}}, "k_j must exceed 1"),
            ({"options": {}}, "ks"),
            ({"n_grid": (0, 256)}, "n grid entries"),
            ({"mode": "adaptive_moment", "options": {"c0": -1.0}}, "c0 must be positive"),
            ({"mode": "adaptive_moment", "options": {"c0": math.nan}}, "c0 must be positive"),
        ],
    )
    def test_malformed_option_fails_at_config(self, changes, message):
        with pytest.raises((ValueError, KeyError), match=message):
            mean_cfg(**changes)

    def test_only_regime_errors_become_warning_rows(self, monkeypatch):
        # a fault in the channel builder past the config check raises instead of hiding in a row
        cfg = mean_cfg(n_grid=(2, 256, 512, 1024))
        mean = cldp.harness.MODES["mean"]

        def faulty(n, budget, options):
            if n == 512:
                raise ValueError("builder fault")
            return mean.channels(n, budget, options)

        monkeypatch.setitem(cldp.harness.MODES, "mean", dataclasses.replace(mean, channels=faulty))
        with pytest.raises(ValueError, match="builder fault"):
            run_rate_experiment(cfg)

    def test_csv_round_and_meta(self, tmp_path):
        out = tmp_path / "curve.csv"
        cfg = mean_cfg(out=str(out))
        run_rate_experiment(cfg)
        text = out.read_text()
        assert text.splitlines()[0] == "n,n_eff,mse,stderr,replications,seed"
        meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
        assert meta["axis"] == "n*alpha^2"
        assert "slope" in meta["fit"]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            mean_cfg(workers=workers)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            mean_cfg(seed=-1)

    def test_parallel_workers_byte_identical(self, tmp_path):
        out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
        run_rate_experiment(mean_cfg(out=str(out1), workers=1))
        run_rate_experiment(mean_cfg(out=str(out8), workers=8))
        assert out1.read_bytes() == out8.read_bytes()

    @pytest.mark.parametrize("case", ["c07", "c08"])
    def test_split_releases_workers_byte_identical(self, case, tmp_path, monkeypatch):
        # at n = 2^14 each replication's pass over row blocks runs on threads that each
        # forked pool worker starts for itself: runs on 1, 2 and 3 CPUs, on two workers,
        # and with each replication handed a pass-through proxy stream, as a tracer does
        mode, model, alphas, options = ORACLE_CASES[case]
        outs = []
        derive = cldp.harness.derive_rng
        runs = [(1, 1, False), (1, 2, False), (1, 3, False), (2, 2, False), (1, 1, True)]
        for run, (workers, cpus, proxy) in enumerate(runs):
            monkeypatch.setattr(cldp.channels, "_cpus", lambda: cpus)
            if proxy:
                monkeypatch.setattr(cldp.harness, "derive_rng", lambda *key: _PassThroughRng(derive(*key)))
            out = tmp_path / f"run{run}.csv"
            run_rate_experiment(ExperimentConfig(mode=mode, n_grid=(2**14,), alphas=alphas, replications=2, seed=9,
                                                 model=model.to_json(), options=options, out=str(out),
                                                 workers=workers))
            meta = json.loads((tmp_path / f"run{run}.csv.meta.json").read_text())
            assert meta["config"].pop("workers") == workers
            assert "oracle_mse" in meta["extras"]["per_n"][str(2**14)]
            outs.append((out.read_bytes(), json.dumps(meta, sort_keys=True)))
        assert all(o == outs[0] for o in outs)

    def test_slope_validation(self):
        with pytest.raises(ValueError, match="replications"):
            mean_cfg(replications=5).validate_for_slope()
        with pytest.raises(ValueError, match="grid"):
            mean_cfg(n_grid=(256, 512)).validate_for_slope()
        with pytest.raises(ValueError, match="decades"):
            mean_cfg(n_grid=(256, 300, 350, 400)).validate_for_slope()

    def test_slope_span_counts_only_fitted_points(self):
        # n = 2 is a warning row, so the fitted points span 2048 / 256 = 8x of n alpha^2
        cfg = mean_cfg(n_grid=(2, 256, 512, 1024, 2048), replications=30)
        with pytest.raises(ValueError, match="decades"):
            cfg.validate_for_slope()

    def test_grid_plans_each_point_once(self):
        plan = mean_cfg(n_grid=(2, 256, 512, 1024, 2048)).grid()
        assert isinstance(plan[0], RegimeError)
        assert plan[1:] == [n * 0.25 for n in (256, 512, 1024, 2048)]
        # the adaptive axis is deflated by log(n)^(2d+1) in the run, not in the plan
        cfg = ExperimentConfig(mode="adaptive_moment", n_grid=(2, 64), alphas=(1.0,), replications=1, seed=5,
                               model=ParetoFactorModel(ks=[2.0], a=[3.0]).to_json(), options={"oracle": False})
        assert cfg.grid()[1] == 64.0
        assert run_rate_experiment(cfg).points[1].n_eff == 64.0 / math.log(64) ** 3

    def test_channels_built_once_per_grid_point(self, monkeypatch):
        # each grid point's channels reach its replications through the plan, also on a pool
        built = []
        optimal = cldp.harness.optimal_truncations
        monkeypatch.setattr(cldp.harness, "optimal_truncations", lambda *a, **k: built.append(a[2]) or optimal(*a, **k))
        counts, csvs = [], []
        for replications, workers in ((2, 1), (6, 1), (6, 2)):
            cfg = mean_cfg(n_grid=(2, 256, 512), replications=replications, workers=workers)
            built.clear()
            csvs.append(run_rate_experiment(cfg).to_csv())
            counts.append(len(built))
        assert counts[0] == counts[1] == counts[2] <= 2 * 3
        assert csvs[1] == csvs[2]
        cfg = mean_cfg(n_grid=(256,)).to_json()
        assert _run_replication(cfg, 256, 3) == _run_replication(cfg, 256, 3, plan=cldp.harness._plan(cfg, 256))


class TestVerificationSuites:
    def test_contraction_suite_clean(self):
        code, rep = run_verification_suite("contraction", seed=7, instances=40)
        assert code == 0
        assert rep["violations"] == 0

    def test_privacy_suite_clean(self):
        code, rep = run_verification_suite("privacy", seed=7)
        assert code == 0
        assert all(r["ok"] for r in rep["audits"])

    def test_leakage_suite_clean(self):
        code, rep = run_verification_suite("leakage", seed=7, instances=30)
        assert code == 0

    def test_lowerbound_suite_clean(self):
        code, rep = run_verification_suite("lowerbound")
        assert code == 0
        assert all(c["condition3_ok"] for c in rep["cases"])

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_verification_suite("nope")

    @pytest.mark.parametrize("suite", ["contraction", "leakage"])
    @pytest.mark.parametrize("instances", [0, -1])
    def test_instance_count_must_be_positive(self, suite, instances):
        # 0 once fell back to the default count and -1 ran nothing and passed
        with pytest.raises(ValueError, match="instances must be >= 1"):
            run_verification_suite(suite, instances=instances)


class TestModelChecks:
    @pytest.mark.parametrize("changes", [{"box": 1e-9}, {"mus": (50.0, 50.0)}])
    def test_box_mass_below_floor_rejected_before_sampling(self, changes, monkeypatch):
        monkeypatch.setattr(cldp.harness, "sample_holder_density", lambda *a: pytest.fail("sampled"))
        model = HolderDensityModel(beta=2, **changes)
        with pytest.raises(ValueError, match="box mass .* is below 0.01"):
            run_mode(MODES["kde"], model, 256, PrivacyBudget([1.0]), {"x0": [0.0]}, derive_rng(0))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"model": {"kind": "pareto_factor", "ks": [4.0]}}, "missing key(s) 'a'"),
            ({"model": HolderDensityModel(beta=2).to_json()}, "mode expects a ParetoFactorModel"),
            ({"model": ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0]).to_json()}, "2 component(s) but the budget 1"),
        ],
    )
    def test_model_checked_at_config(self, changes, message):
        # the check runs in the parent process, not in the first replication
        with pytest.raises(ValueError, match=re.escape(message)):
            mean_cfg(**changes)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_nonfinite_beta_option(self, beta):
        for mode in ("kde", "adaptive_density"):
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                MODES[mode].channels(256, PrivacyBudget([1.0]), {"beta": beta, "x0": [0.0]})


class TestZeroNoiseRng:
    def test_a_channel_that_draws_from_it_raises(self):
        # the marker draws nothing: randomized response has no clean map to release, so it cannot
        # run noise-free, and drawing its symbol from the wrapped stream would be silently noisy
        with pytest.raises(AttributeError):
            cldp.channels.privatize(cldp.channels.make_rr_channel((0.0, 1.0), 1.0), 0.0, ZeroNoiseRng(derive_rng(1, 2)))

    def test_zero_noise_keeps_the_sampler_draws(self, monkeypatch):
        # c08's density draws its kink component with rng.laplace: under zero_noise
        # the sample is the unwrapped stream's and only the release is noise-free
        # (the releases reach the selector only through its level table)
        mode, model, alphas, options = ORACLE_CASES["c08"]
        n = 256
        cfg = ExperimentConfig(mode=mode, n_grid=(n,), alphas=alphas, replications=1, seed=3,
                               model=model.to_json(), options={**options, "zero_noise": True})
        sampled, tables = [], []
        sample, rule = cldp.harness.sample_holder_density, cldp.adaptive.gl_bandwidth_rule
        monkeypatch.setattr(cldp.harness, "sample_holder_density",
                            lambda *args: sampled.append(sample(*args)) or sampled[-1])
        monkeypatch.setattr(cldp.adaptive, "gl_bandwidth_rule", lambda pi, cfg: tables.append(pi) or rule(pi, cfg))
        _run_replication(cfg.to_json(), n, 0)
        X, = sampled
        assert np.array_equal(X, sample_holder_density(model, n, derive_rng(3, MODES[mode].id, n, 0)))
        assert np.count_nonzero(X == 0.0) == 0
        chans = MODES[mode].channels(n, PrivacyBudget(alphas), options)
        assert np.array_equal(tables[0], _diagonal_table([chans[0].clean(X[:, 0])]))


class TestCovarianceRate:
    def test_cov_slope_matches_moment_rate(self):
        # bivariate k=4: covariance MSE slope vs n a1^2 a2^2 near -0.5
        cfg = ExperimentConfig(
            mode="cov",
            n_grid=tuple(2**q for q in range(10, 18)),
            alphas=(0.5, 0.5),
            replications=60,
            seed=21,
            model=ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5).to_json(),
            options={"ks": [4.0, 4.0]},
        )
        fit = fit_loglog_slope(run_rate_experiment(cfg))
        assert abs(fit.slope - (-0.5)) <= 0.15


class TestCorrMode:
    MODEL = ParetoFactorModel(ks=[6.0, 6.0], a=[8.0, 8.0], rho=0.6)
    BUDGET = PrivacyBudget((0.8, 0.8))

    @pytest.mark.parametrize("n", [64, 4096])
    def test_equals_raw_and_squared_releases(self, n):
        # one four-column release of [X, |X|^2] consumes the stream as two two-column releases do
        X, est = run_mode(MODES["corr"], self.MODEL, n, self.BUDGET, {"ks": [6.0, 6.0]}, derive_rng(3, 900))
        rng = derive_rng(3, 900)
        X_ref = sample_heavy_tailed(self.MODEL, n, rng)
        ch_raw, ch_sq = corr_release_plan(MomentProfile([6.0, 6.0]), self.BUDGET, n)
        want = private_covariance_correlation(release_sample(X_ref, ch_raw, rng),
                                              release_sample(np.abs(X_ref) ** 2, ch_sq, rng))
        assert np.array_equal(X, X_ref)
        assert est == want

    def test_undefined_correlation_leaves_the_fit(self):
        cfg = ExperimentConfig(mode="corr", n_grid=(64, 4096), alphas=(0.8, 0.8), replications=3, seed=11,
                               model=self.MODEL.to_json(), options={"ks": [6.0, 6.0]})
        curve = run_rate_experiment(cfg)
        assert curve.axis == "n*prod(alpha^2)"
        assert math.isnan(curve.points[0].mse) and curve.points[0].replications == 3
        assert curve.valid_points() == [curve.points[1]]
        assert curve.extras["per_n"]["64"]["undefined"] >= 1
        assert "undefined" not in curve.extras["per_n"].get("4096", {})
        assert MODES["corr"].truth(self.MODEL, {}) == self.MODEL.correlation()


C07_MODEL = ParetoFactorModel(ks=[2.0], a=[2.1], scale=16.0, coupling="power", symmetric=False)
PARETO_2 = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5)
C08_MODEL = HolderDensityModel(beta=1, d=1, kink_b=0.2, kink_weight=0.7)

# (mode, model, alphas, options) as in c07, the moment table at d = 2, and c08
ORACLE_CASES = {
    "c07": ("adaptive_moment", C07_MODEL, (1.0,), {"ks": [2.0], "c0": 12.0}),
    "pareto_d2": ("adaptive_moment", PARETO_2, (1.0, 1.0), {"ks": [4.0, 4.0], "c0": 128.0}),
    "c08": ("adaptive_density", C08_MODEL, (8.0,), {"beta": 1.0, "x0": [0.0], "c0": 2.5}),
}


def full_budget_release(mode, X, alphas, options):
    """Per-axis clean maps (n, m) and Laplace scales (m,) of the oracle's full-budget release, and
    the map from per-axis releases to the estimate table."""
    n, d = X.shape
    if mode == "adaptive_moment":
        grid = build_truncation_grid(n)
        clean = [np.clip(X[:, j, None], -grid, grid) for j in range(d)]
        scales = [trunc_scale(grid, a) for a in alphas]
        return clean, scales, _estimate_table
    grid = build_bandwidth_grid(n)
    kernel = make_kernel(kernel_order(options["beta"]))
    clean = [kernel_clean(kernel, X[:, j, None], options["x0"][j], grid) for j in range(d)]
    scales = [kernel_scale(kernel, grid, a) for a in alphas]
    return clean, scales, lambda cols: np.prod(cols, axis=0).mean(axis=0)


def moments_given_x(clean: list, var: list, row_mean) -> tuple:
    """Mean and variance over the Laplace noise, given X, of the full-budget estimate, from whole
    clean maps: clean[j] is axis j's (n, m) clean map, var[j] = 2 b_j^2 its per-level noise
    variance and ``row_mean`` a level table (per-axis (n, m) factors or (1, m) rows -> mean over
    rows of their product); the noise variance is summed as
    sum_j 2 b_j^2 prod_{k<j} (c_k^2 + 2 b_k^2) prod_{k>j} c_k^2, divided by n^2."""
    second = [c * c + v for c, v in zip(clean[:-1], var)]
    clean_sq = [c * c for c in clean[1:]]
    noise = sum(row_mean(second[:j] + [v[None, :]] + clean_sq[j:]) for j, v in enumerate(var))
    return row_mean(clean), noise / clean[0].shape[0]


def reference_moment_table(X, budget, options):
    """The moment oracle written from the options alone: clamp grid, clamp map and 2T/alpha scales."""
    grid = build_truncation_grid(X.shape[0])
    clean = [np.clip(X[:, j, None], -grid, grid) for j in range(budget.d)]
    var = [2.0 * trunc_scale(grid, alpha) ** 2 for alpha in budget.alphas]
    return moments_given_x(clean, var, _estimate_table)


def reference_kde_per_h(X, budget, options):
    """The density oracle written from the options alone: bandwidth grid, kernel map and scales."""
    grid = build_bandwidth_grid(X.shape[0])
    kernel = make_kernel(kernel_order(float(options.get("beta", 2.0))))
    x0 = np.atleast_1d(np.asarray(options.get("x0", 0.0), dtype=float))
    clean = [kernel_clean(kernel, X[:, j, None], x0[j], grid) for j in range(budget.d)]
    var = [2.0 * kernel_scale(kernel, grid, alpha) ** 2 for alpha in budget.alphas]
    return moments_given_x(clean, var, _diagonal_table)


def sample_for(mode, model, n, rng):
    return (sample_holder_density if isinstance(model, HolderDensityModel) else sample_heavy_tailed)(model, n, rng)


class TestExactOracle:
    """The oracle scores each level by its squared error in expectation over the Laplace noise, given X."""

    @pytest.mark.parametrize("mode, d", [
        ("adaptive_moment", 1), ("adaptive_moment", 2), ("adaptive_moment", 3),
        ("adaptive_density", 1), ("adaptive_density", 2),
    ])
    def test_noise_term_matches_row_loop(self, mode, d):
        n = 64
        rng = derive_rng(17, d)
        alphas = tuple(0.6 + 0.3 * j for j in range(d))
        if mode == "adaptive_moment":
            X, options = 20.0 * rng.standard_normal((n, d)), {}
        else:
            X, options = rng.uniform(-1.2, 1.2, (n, d)), {"beta": 2.0, "x0": [0.1, -0.2][:d]}
        mean, noise_var = MODES[mode].oracle(X, PrivacyBudget(alphas), options)
        clean, scales, table = full_budget_release(mode, X, alphas, options)
        assert np.allclose(mean, table(clean), rtol=1e-12, atol=0)
        # each level (tuple) of the table, in the order of its entries
        if mode == "adaptive_moment":
            cells = [tuple(idx) for idx in np.ndindex(*noise_var.shape)]
        else:
            cells = [(r,) * d for r in range(noise_var.size)]
        want = []
        for cell in cells:
            total = 0.0
            for i in range(n):
                second = clean_sq = 1.0
                for j, r in enumerate(cell):
                    c = float(clean[j][i, r])
                    second *= c * c + 2.0 * float(scales[j][r]) ** 2
                    clean_sq *= c * c
                total += second - clean_sq
            want.append(total / n**2)
        assert np.allclose(noise_var.ravel(), want, rtol=1e-12, atol=0)

    def test_agrees_with_monte_carlo(self):
        # the Monte Carlo oracle this replaces: full-budget releases of every level from
        # one stream, scored by the squared error of each table entry
        draws, worst, cells = 400, 0.0, 0
        for case, (mode, model, alphas, options) in ORACLE_CASES.items():
            truth = MODES[mode].truth(model, options)
            for n in (2**8, 2**10, 2**12):
                X = sample_for(mode, model, n, derive_rng(31, n))
                mean, noise_var = MODES[mode].oracle(X, PrivacyBudget(alphas), options)
                exact = (mean - truth) ** 2 + noise_var
                clean, scales, table = full_budget_release(mode, X, alphas, options)
                rng = derive_rng(32, n)
                sq = np.array([
                    (table([laplace_release(c, b, rng) for c, b in zip(clean, scales)]) - truth) ** 2
                    for _ in range(draws)
                ])
                z = (sq.mean(axis=0) - exact) / (sq.std(axis=0, ddof=1) / math.sqrt(draws))
                worst, cells = max(worst, float(np.abs(z).max())), cells + z.size
        assert cells == 2 * (8 + 10 + 12) + (64 + 100 + 144)
        assert worst <= 5.0

    @pytest.mark.parametrize("case", ["pareto_d2", "c08"])
    def test_zero_noise_scores_the_clean_mean(self, case):
        mode, model, alphas, options = ORACLE_CASES[case]
        n = 256
        cfg = ExperimentConfig(mode=mode, n_grid=(n,), alphas=alphas, replications=1, seed=3,
                               model=model.to_json(), options={**options, "zero_noise": True})
        out = _run_replication(cfg.to_json(), n, 0)
        X, _ = run_mode(MODES[mode], model, n, PrivacyBudget(alphas), {**options, "zero_noise": True},
                        derive_rng(3, MODES[mode].id, n, 0))
        clean, _, table = full_budget_release(mode, X, alphas, options)
        assert out["oracle_sq"] == ((table(clean) - MODES[mode].truth(model, options)) ** 2).ravel().tolist()

    @pytest.mark.parametrize("case", ["pareto_d2", "c08"])
    def test_replication_draws_only_the_release(self, case, monkeypatch):
        # the oracle draws nothing: past the data sampler's own draws (the kink
        # component of the Holder density is Laplace), a replication's Laplace
        # variates, each one exponential magnitude, are its release's n * d * m
        drawn = []

        class Counting:
            def __init__(self, rng):
                self._rng = rng

            def laplace(self, loc=0.0, scale=1.0, size=None):
                out = self._rng.laplace(loc, scale, size)
                drawn.append(np.size(out))
                return out

            def standard_exponential(self, size=None, dtype=np.float64, method="zig", out=None):
                got = self._rng.standard_exponential(size, dtype, method, out)
                drawn.append(np.size(got))
                return got

            def __getattr__(self, name):
                return getattr(self._rng, name)

        mode, model, alphas, options = ORACLE_CASES[case]
        n = 256
        sample_for(mode, model, n, Counting(derive_rng(3, MODES[mode].id, n, 0)))
        sampled = sum(drawn)
        drawn.clear()
        derive = cldp.harness.derive_rng
        monkeypatch.setattr(cldp.harness, "derive_rng", lambda *key: Counting(derive(*key)))
        cfg = ExperimentConfig(mode=mode, n_grid=(n,), alphas=alphas, replications=1, seed=3,
                               model=model.to_json(), options=options)
        out = _run_replication(cfg.to_json(), n, 0)
        assert "oracle_sq" in out
        m = 8  # floor(log2 256) levels
        assert sum(drawn) - sampled == n * len(alphas) * m


class TestOracleMatchesReference:
    """The oracle built from the mode's channels equals the one written from the options, bit for bit."""

    @pytest.mark.parametrize("mode, model, alphas, options", [
        ("adaptive_moment", C07_MODEL, (1.0,), {"ks": [2.0], "c0": 12.0}),
        ("adaptive_moment", PARETO_2, (0.7, 1.3), {"ks": [4.0, 4.0], "c0": 128.0}),
        ("adaptive_density", HolderDensityModel(beta=1, d=1), (8.0,), {"beta": 1.0, "x0": [0.0], "c0": 2.5}),
        ("adaptive_density", HolderDensityModel(beta=3, d=1), (1.0,), {"beta": 3.0, "x0": [0.1]}),
        ("adaptive_density", HolderDensityModel(beta=1, d=2), (0.7, 1.3), {"beta": 1.0, "x0": [0.1, -0.2]}),
        ("adaptive_density", HolderDensityModel(beta=3, d=2), (0.7, 1.3), {"beta": 3.0, "x0": [0.1, -0.2]}),
    ])
    @pytest.mark.parametrize("n", [256, 4096])
    def test_mean_and_noise_variance_equal(self, mode, model, alphas, options, n):
        X = sample_for(mode, model, n, derive_rng(41, n, len(alphas)))
        budget = PrivacyBudget(alphas)
        reference = reference_moment_table if mode == "adaptive_moment" else reference_kde_per_h
        mean, noise_var = MODES[mode].oracle(X, budget, options)
        want_mean, want_var = reference(X, budget, options)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(noise_var, want_var)


PASS_N = 2**14  # 14 levels: 229,376 values per axis, above the size from which the pass splits into row blocks
assert PASS_N * 14 >= 2 * cldp.channels._BLOCK


# the fixed-tuning modes' estimates from a released sample, through the per-sample API
FIXED_REFERENCE = {
    "mean": lambda Z: [private_mean(Z, j + 1) for j in range(Z.d)],
    "moment": private_joint_moment,
    "cov": private_covariance_correlation,
    "corr": lambda Z: private_covariance_correlation(
        *(PrivatizedSample(Z.values[:, cols], Z.channels[cols]) for cols in (slice(0, 2), slice(2, 4)))
    ),
    "kde": private_kde,
}

# (mode, model, alphas, options) of each fixed-tuning mode, kde on one and on two axes
FIXED_CASES = {
    "mean": ("mean", ParetoFactorModel(ks=[4.0], a=[5.0]), (0.5,), {"ks": [4.0]}),
    "moment": ("moment", PARETO_2, (0.5, 0.5), {"ks": [4.0, 4.0]}),
    "cov": ("cov", PARETO_2, (0.5, 0.5), {"ks": [4.0, 4.0]}),
    "corr": ("corr", ParetoFactorModel(ks=[6.0, 6.0], a=[8.0, 8.0], rho=0.6), (0.8, 0.8), {"ks": [6.0, 6.0]}),
    "kde": ("kde", HolderDensityModel(beta=2.0), (0.5,), {"beta": 2.0, "x0": [0.0]}),
    "kde_d2": ("kde", HolderDensityModel(beta=2.0, d=2), (1.0, 1.0), {"beta": 2.0, "x0": [0.1, 0.1]}),
}


def _fixed_cfg(case, n, zero_noise):
    name, model, alphas, options = FIXED_CASES[case]
    options = {**options, "zero_noise": True} if zero_noise else options
    cfg = ExperimentConfig(mode=name, n_grid=(n,), alphas=alphas, replications=1, seed=3,
                           model=model.to_json(), options=options)
    return name, cfg.to_json()


def per_sample_sq_err(name, cfg, n, rep):
    """A fixed-tuning replication's squared error through the whole released sample: the sample,
    ``release_sample`` on the same stream (under zero_noise a ``ZeroNoiseRng``) and the
    ``private_*`` estimate."""
    mode, options = MODES[name], cfg["options"]
    model, truth, _, channels = _plan(cfg, n)
    rng = derive_rng(cfg["seed"], mode.id, n, rep)
    X = sample_for(name, model, n, rng)
    release_rng = ZeroNoiseRng(rng) if options.get("zero_noise") else rng
    est = FIXED_REFERENCE[name](release_sample(mode.release_input(X), channels, release_rng))
    return (mode.point(est) - truth) ** 2


def _pass_inputs(case, n):
    mode, model, alphas, options = ORACLE_CASES[case]
    budget = PrivacyBudget(alphas)
    X = sample_for(mode, model, n, derive_rng(43, n, len(alphas)))
    return MODES[mode], budget, options, X, MODES[mode].channels(n, budget, options)


def assert_same_sums(got, want, level_sums, columns):
    """got == want to 1e-13 of the level sums of |columns| over their rows: the bound on a change of
    summation order, which for a sum without cancellation is 1e-13 relative."""
    scale = level_sums([np.abs(c) for c in columns]) / columns[0].shape[0]
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


class TestLevelPass:
    """One pass over row blocks gives the table of ``release_sample``'s releases and the oracle of
    the whole clean maps, draws what ``release_sample`` draws, and holds no (n, m) array."""

    @pytest.mark.parametrize("case", ["c07", "c08", "pareto_d2"])
    def test_table_selection_oracle_and_stream_match_the_release(self, case):
        mode, budget, options, X, channels = _pass_inputs(case, PASS_N)
        passed, released = derive_rng(44, PASS_N), derive_rng(44, PASS_N)
        table, (mean, noise_var) = mode.level_pass(X, channels, passed, oracle=True)
        Z = release_sample(X, channels, released)
        columns = [Z.values[:, j, :] for j in range(budget.d)]
        assert_same_sums(table, mode.level_sums(columns) / PASS_N, mode.level_sums, columns)
        cfg = cldp.adaptive.GLConfig(n=PASS_N, budget=budget, c0=options["c0"])
        select = cldp.adaptive.gl_select_truncation if mode.id == 5 else cldp.adaptive.gl_select_bandwidth
        assert mode.estimate(table, PASS_N, budget, options).index == select(Z, cfg).index
        table_of = _estimate_table if mode.id == 5 else _diagonal_table
        clean = [ch.clean(X[:, j]) for j, ch in enumerate(channels)]
        want_mean, want_var = moments_given_x(clean, [2.0 * ch.scales(ch.alpha) ** 2 for ch in channels], table_of)
        assert_same_sums(mean, want_mean, mode.level_sums, clean)
        np.testing.assert_allclose(noise_var, want_var, rtol=1e-13, atol=0)
        assert passed.random() == released.random()

    @pytest.mark.parametrize("case", ["c07", "pareto_d2"])
    def test_zero_noise_and_no_stream(self, case):
        # zero noise releases the clean maps and draws nothing; the oracle alone has no table
        mode, budget, options, X, channels = _pass_inputs(case, PASS_N)
        rng, untouched = derive_rng(45), derive_rng(45)
        table, moments = mode.level_pass(X, channels, ZeroNoiseRng(rng), oracle=False)
        assert moments is None and rng.random() == untouched.random()
        clean = [ch.clean(X[:, j]) for j, ch in enumerate(channels)]
        assert_same_sums(table, mode.level_sums(clean) / PASS_N, mode.level_sums, clean)
        table, moments = mode.level_pass(X, channels, None, oracle=True)
        assert table is None
        assert all(np.array_equal(a, b) for a, b in zip(moments, mode.oracle(X, budget, options)))

    @pytest.mark.parametrize("case", FIXED_CASES)
    @pytest.mark.parametrize("n", [2**10, 2**17])  # one row block, and two of one level each
    @pytest.mark.parametrize("zero_noise", [False, True])
    def test_fixed_table_is_the_per_sample_estimate(self, case, n, zero_noise):
        # the one-level table gives the bytes of the private_* estimators on release_sample's
        # releases of the same stream, and draws what release_sample draws
        name, cfg = _fixed_cfg(case, n, zero_noise)
        mode = MODES[name]
        model, _, budget, channels = _plan(cfg, n)
        X = mode.release_input(sample_for(name, model, n, derive_rng(47, n)))
        passed, released = derive_rng(48, n), derive_rng(48, n)
        noise = ZeroNoiseRng if zero_noise else (lambda rng: rng)
        table, moments = mode.level_pass(X, channels, noise(passed), oracle=False)
        want = FIXED_REFERENCE[name](release_sample(X, channels, noise(released)))
        assert moments is None
        assert repr(mode.estimate(table, n, budget, cfg["options"])) == repr(want)
        assert passed.random() == released.random()

    @pytest.mark.parametrize("case", FIXED_CASES)
    @pytest.mark.parametrize("n", [2**10, 2**17])
    @pytest.mark.parametrize("zero_noise", [False, True])
    def test_fixed_replication_is_the_per_sample_path(self, case, n, zero_noise):
        # byte for byte the squared error of a replication that releases the whole sample and
        # estimates from it (the harness before it summed the fixed modes over row blocks)
        name, cfg = _fixed_cfg(case, n, zero_noise)
        for rep in range(2):
            assert repr(_run_replication(cfg, n, rep)) == repr({"sq_err": per_sample_sq_err(name, cfg, n, rep)})

    def test_kde_at_a_point_with_different_coordinates(self):
        # per-axis evaluation points, which private_kde refuses: the estimate is the mean of the row
        # products of the per-axis kernel releases, the density at the point x0
        model, budget, n = HolderDensityModel(beta=2.0, d=2), PrivacyBudget((1.0, 1.0)), 2**10
        options = {"beta": 2.0, "x0": [0.1, -0.2]}
        X, est = run_mode(MODES["kde"], model, n, budget, options, derive_rng(49))
        rng = derive_rng(49)
        assert np.array_equal(X, sample_holder_density(model, n, rng))
        Z = release_sample(X, MODES["kde"].channels(n, budget, options), rng)
        assert est == float((Z.values[:, 0] * Z.values[:, 1]).mean())

    def test_block_exception_reaches_caller(self, monkeypatch):
        raised_on = []

        class Faulty(cldp.channels.MultiTruncChannel):
            def clean(self, x):
                if np.any(np.asarray(x) == 9.0):
                    raised_on.append(threading.current_thread())
                    raise RuntimeError("clean failed")
                return super().clean(x)

        mode, budget, options, X, channels = _pass_inputs("c07", PASS_N)
        X = X.copy()
        X[-10:] = 9.0  # in the last block; every block is reduced on a pool thread
        rng, keyed = derive_rng(46), derive_rng(46)
        keyed.integers(0, 2**63)  # the pass's one draw from the caller's stream: the axis's key
        monkeypatch.setattr(cldp.channels, "_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="clean failed"):
            mode.level_pass(X, (Faulty(grid=channels[0].grid, alpha=channels[0].alpha),), rng, oracle=True)
        assert raised_on and raised_on[0] is not threading.main_thread()
        assert rng.bit_generator.state == keyed.bit_generator.state

    def test_replication_holds_no_release_sized_array(self, monkeypatch):
        # one c07 and one c08 replication at n = 2^16 (16 levels) on two CPUs: the traced peak
        # stays below one (n, m) float64 array
        import tracemalloc

        n, levels = 2**16, 16
        monkeypatch.setattr(cldp.channels, "_cpus", lambda: 2)
        for case in ("c07", "c08"):
            mode, model, alphas, options = ORACLE_CASES[case]
            cfg = ExperimentConfig(mode=mode, n_grid=(n,), alphas=alphas, replications=1, seed=3,
                                   model=model.to_json(), options=options).to_json()
            _run_replication(cfg, 64, 0)  # first calls outside the trace
            tracemalloc.start()
            try:
                out = _run_replication(cfg, n, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert "oracle_sq" in out
            assert peak < n * levels * 8, (case, peak)


class TestReportCommand:
    def test_report_all_suites(self, tmp_path):
        from cldp.cli import main

        out = tmp_path / "all.json"
        assert main(["report", "--seed", "7", "--instances", "25", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert set(rep) == {"contraction", "privacy", "leakage", "lowerbound"}
