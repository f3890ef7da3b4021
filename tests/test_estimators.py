import math

import numpy as np
import pytest

from cldp.channels import (
    KernelLaplaceChannel,
    LaplaceTruncChannel,
    MultiBandwidthChannel,
    MultiTruncChannel,
    PrivacyBudget,
    make_kernel,
)
from cldp.estimators import (
    HolderClass,
    MomentProfile,
    PrivatizedSample,
    corr_release_plan,
    kde_channels,
    optimal_bandwidth,
    optimal_truncations,
    private_covariance_correlation,
    private_joint_moment,
    private_kde,
    private_mean,
    release_sample,
)
from cldp.harness import ZeroNoiseRng, derive_rng
from cldp.simdata import HolderDensityModel, ParetoFactorModel, sample_heavy_tailed


def zero_rng():
    return ZeroNoiseRng(np.random.default_rng(0))


class TestMomentProfile:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            MomentProfile([1.0, 4.0])
        with pytest.raises(ValueError):
            MomentProfile([1.5, 1.5])  # 1/k sums to > 1


class TestOptimalTruncations:
    def test_unit_base(self):
        prof = MomentProfile([4.0])
        ts = optimal_truncations(prof, PrivacyBudget([1.0]), 1, mode="mean")
        assert ts[0] == pytest.approx(1.0)

    def test_joint_mode_value(self):
        # n prod alpha^2 = 1e4 * 0.25 * 0.25 = 625, T = 625^(1/8)
        prof = MomentProfile([4.0, 4.0])
        ts = optimal_truncations(prof, PrivacyBudget([0.5, 0.5]), 10_000, mode="joint")
        assert np.allclose(ts, 625.0 ** (1.0 / 8.0))

    def test_mean_vs_joint_differ_by_base(self):
        prof = MomentProfile([4.0, 8.0])
        budget = PrivacyBudget([0.5, 0.9])
        n = 5000
        mean_ts = optimal_truncations(prof, budget, n, mode="mean")
        joint_ts = optimal_truncations(prof, budget, n, mode="joint")
        for j, k in enumerate(prof.ks):
            assert mean_ts[j] == pytest.approx((n * budget.alphas[j] ** 2) ** (1 / (2 * k)))
            assert joint_ts[j] == pytest.approx((n * budget.prod_alpha_sq()) ** (1 / (2 * k)))

    def test_regime_violation(self):
        prof = MomentProfile([4.0, 4.0])
        with pytest.raises(ValueError, match="regime"):
            optimal_truncations(prof, PrivacyBudget([0.1, 0.1]), 10, mode="joint")


class TestPointEstimators:
    def test_single_row(self):
        Z = PrivatizedSample(np.array([[2.0, 3.0]]), (None, None))
        assert private_mean(Z, 1) == 2.0
        assert private_joint_moment(Z) == 6.0

    def test_constant_column(self):
        Z = PrivatizedSample(np.full((5, 1), 3.7), (None,))
        assert private_mean(Z, 1) == pytest.approx(3.7)

    def test_zero_column_kills_product(self):
        vals = np.array([[1.0, 0.0], [2.0, 0.0]])
        Z = PrivatizedSample(vals, (None, None))
        assert private_joint_moment(Z) == 0.0

    def test_matches_summation_oracle(self):
        rng = derive_rng(3, 0)
        vals = rng.normal(size=(64, 2))
        Z = PrivatizedSample(vals, (None, None))
        acc_mean = 0.0
        acc_prod = 0.0
        for i in range(64):
            acc_mean += vals[i, 0]
            acc_prod += vals[i, 0] * vals[i, 1]
        assert private_mean(Z, 1) == pytest.approx(acc_mean / 64, abs=1e-12)
        assert private_joint_moment(Z) == pytest.approx(acc_prod / 64, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_products_are_the_bits_of_prod(self, d):
        # the estimators multiply the columns left to right instead of np.prod(axis=1)
        vals = derive_rng(3, 1, d).standard_cauchy(size=(4099, d))
        vals[0, 0], vals[1, -1] = -0.0, 1e-310  # a signed zero and a subnormal
        chans = tuple(KernelLaplaceChannel(h=0.5, x0=0.0, kernel=make_kernel(1), alpha=1.0) for _ in range(d))
        want = float(np.prod(vals, axis=1).mean()).hex()
        assert private_joint_moment(PrivatizedSample(vals, (None,) * d)).hex() == want
        assert private_kde(PrivatizedSample(vals, chans)).hex() == want

    def test_column_out_of_range(self):
        Z = PrivatizedSample(np.zeros((2, 2)), (None, None))
        with pytest.raises(ValueError):
            private_mean(Z, 3)


class TestSampleOwnsItsValues:
    """A sample's values are read-only and shared with no array a caller holds."""

    SCALAR = (
        LaplaceTruncChannel(T=2.0, alpha=1.0),
        KernelLaplaceChannel(h=0.5, x0=0.0, kernel=make_kernel(1), alpha=1.0),
    )
    MULTI = (
        MultiTruncChannel(grid=(4.0, 2.0, 1.0), alpha=1.0),
        MultiBandwidthChannel(grid=(0.25, 0.5, 1.0), alpha=1.0, x0=0.0, kernel=make_kernel(0)),
    )

    def test_caller_array_is_copied(self):
        vals = derive_rng(5, 0).normal(size=(6, 2))
        Z = PrivatizedSample(vals, (None, None))
        kept = Z.values.copy()
        vals[0, 0] = 99.0
        assert np.array_equal(Z.values, kept)
        assert not np.shares_memory(Z.values, vals)

    def test_read_only_view_of_a_writeable_base_is_copied(self):
        base = derive_rng(5, 1).normal(size=(6, 2, 3))
        view = base[:, :, :]
        view.flags.writeable = False
        Z = PrivatizedSample(view, (None, None))
        kept = Z.values.copy()
        base[0, 0, 0] = 99.0
        assert np.array_equal(Z.values, kept)
        assert not np.shares_memory(Z.values, base)

    def test_read_only_owner_is_copied(self):
        # an array that owns its memory can be made writeable again by its holder
        vals = derive_rng(5, 2).normal(size=(6, 1))
        vals.flags.writeable = False
        Z = PrivatizedSample(vals, (None,))
        vals.flags.writeable = True
        vals[0, 0] = 99.0
        assert Z.values[0, 0] != 99.0

    def test_values_are_read_only(self):
        Z = PrivatizedSample(np.zeros((3, 2)), (None, None))
        with pytest.raises(ValueError):
            Z.values[0, 0] = 1.0

    @pytest.mark.parametrize("channels", [SCALAR[:1], SCALAR, MULTI[:1], MULTI[1:], MULTI])
    def test_release_shares_nothing_with_its_input(self, channels):
        X = derive_rng(5, 3).normal(size=(40, len(channels)))
        X_before = X.copy()
        Z = release_sample(X, channels, derive_rng(5, 4))
        assert not Z.values.flags.writeable
        assert not np.shares_memory(Z.values, X)
        assert np.array_equal(X, X_before)
        # the bytes of the stacked per-column releases, drawn from the same stream
        rng = derive_rng(5, 4)
        stacked = np.stack([ch.privatize_array(X[:, j], rng) for j, ch in enumerate(channels)], axis=1)
        assert Z.values.shape == stacked.shape and Z.values.tobytes() == stacked.tobytes()
        again = release_sample(X, channels, derive_rng(5, 4))
        assert not np.shares_memory(Z.values, again.values)


class TestCovarianceCorrelation:
    def test_independent_constant_columns(self):
        vals = np.column_stack([np.full(8, 2.0), np.full(8, -1.0)])
        Z = PrivatizedSample(vals, (None, None))
        est = private_covariance_correlation(Z)
        assert est.theta == pytest.approx(0.0, abs=1e-12)
        assert est.corr is None and not est.corr_defined

    def test_perfectly_linear_noiseless(self):
        x = np.linspace(-1, 1, 32)
        Z = PrivatizedSample(np.column_stack([x, 2.0 * x]), (None, None))
        Z2 = PrivatizedSample(np.column_stack([x**2, (2.0 * x) ** 2]), (None, None))
        est = private_covariance_correlation(Z, Z2)
        assert est.corr == pytest.approx(1.0)

    def test_nonpositive_variance_flagged_not_raised(self):
        vals = np.column_stack([np.ones(4), np.ones(4)])
        Z = PrivatizedSample(vals, (None, None))
        Z2 = PrivatizedSample(np.zeros((4, 2)), (None, None))  # v_hat = -1 < 0
        est = private_covariance_correlation(Z, Z2)
        assert not est.corr_defined
        assert est.diagnostic == "nonpositive variance estimate"

    def test_unbiased_at_infinite_truncation(self):
        # with T above every |x| the release is x + centered noise
        model = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5)
        rng = derive_rng(4, 0)
        X = sample_heavy_tailed(model, 4000, rng)
        T = float(np.abs(X).max()) + 1.0
        chans = tuple(LaplaceTruncChannel(T, 1.0) for _ in range(2))
        reps = 64
        pivots = []
        for r in range(reps):
            Z = release_sample(X, chans, derive_rng(4, 1, r))
            pivots.append(private_joint_moment(Z))
        sample_moment = float(np.prod(X, axis=1).mean())
        pivots = np.asarray(pivots)
        spread = pivots.std(ddof=1) / math.sqrt(reps)
        assert abs(pivots.mean() - sample_moment) <= 4.0 * spread

    def test_corr_release_plan_halves_budget(self):
        prof = MomentProfile([4.0, 4.0])
        budget = PrivacyBudget([0.8, 0.6])
        raw, sq = corr_release_plan(prof, budget, 4096)
        assert [c.alpha for c in raw] == [0.4, 0.3]
        assert [c.alpha for c in sq] == [0.4, 0.3]
        # squared components use the mean-mode clamp at order k/2
        assert sq[0].T == pytest.approx((4096 * 0.4**2) ** (1.0 / 4.0))


class TestVarianceBoundShape:
    def test_fitted_constant_small(self):
        # empirical var of the released mean stays below 10 * T^2/(n alpha^2)
        model = ParetoFactorModel(ks=[4.0], a=[5.0])
        worst = 0.0
        case = 0
        for n in (256, 1024):
            for alpha in (0.4, 0.8):
                for t_mult in (1.0, 2.0):
                    prof = MomentProfile([4.0])
                    budget = PrivacyBudget([alpha])
                    T = float(optimal_truncations(prof, budget, n, "mean")[0]) * t_mult
                    ch = (LaplaceTruncChannel(T, alpha),)
                    ests = []
                    for r in range(200):
                        rng = derive_rng(5, case, r)
                        X = sample_heavy_tailed(model, n, rng)
                        ests.append(private_mean(release_sample(X, ch, rng), 1))
                    var = float(np.var(ests, ddof=1))
                    worst = max(worst, var / (T**2 / (n * alpha**2)))
                    case += 1
        assert worst <= 10.0


class TestKDE:
    def test_single_release(self):
        ch = KernelLaplaceChannel(h=0.5, x0=0.0, kernel=make_kernel(1), alpha=1.0)
        Z = PrivatizedSample(np.array([[0.8]]), (ch,))
        assert private_kde(Z) == pytest.approx(0.8)

    def test_mismatched_bandwidths_rejected(self):
        k = make_kernel(1)
        chans = (
            KernelLaplaceChannel(h=0.5, x0=0.0, kernel=k, alpha=1.0),
            KernelLaplaceChannel(h=0.25, x0=0.0, kernel=k, alpha=1.0),
        )
        Z = PrivatizedSample(np.zeros((3, 2)), chans)
        with pytest.raises(ValueError, match="mismatched"):
            private_kde(Z)

    def test_noiseless_bias_within_smoothness_law(self):
        # noiseless estimate at the peak converges like h^beta for beta = 2
        model = HolderDensityModel(beta=2, d=1)
        hc = HolderClass(beta=2.0, d=1)
        budget = PrivacyBudget([1.0])
        truth = model.density_at(0.0)
        errs = {}
        for h in (0.4, 0.2, 0.1, 0.05):
            chans = kde_channels(hc, budget, [0.0], h)
            # quadrature oracle for the noiseless smoothed value
            us = np.linspace(-1, 1, 20001)
            k = chans[0].kernel
            vals = k(us) * model.density(-us * h)  # x0 = 0
            smoothed = float(np.trapezoid(vals, us))
            errs[h] = abs(smoothed - truth)
        c = errs[0.4] / 0.4**2
        for h, e in errs.items():
            assert e <= 3.0 * c * h**2

    def test_noiseless_sample_estimate_matches_quadrature(self):
        model = HolderDensityModel(beta=2, d=1)
        hc = HolderClass(beta=2.0, d=1)
        chans = kde_channels(hc, PrivacyBudget([1.0]), [0.0], 0.1)
        rng = derive_rng(6, 0)
        from cldp.simdata import sample_holder_density

        X = sample_holder_density(model, 200_000, rng)
        Z = release_sample(X, chans, ZeroNoiseRng(rng))
        est = private_kde(Z)
        us = np.linspace(-1, 1, 20001)
        k = chans[0].kernel
        smoothed = float(np.trapezoid(k(us) * model.density(-us * 0.1), us))
        assert est == pytest.approx(smoothed, abs=0.05)


class TestHolderClass:
    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_beta_positive_and_finite(self, beta):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            HolderClass(beta=beta)


class TestOptimalBandwidth:
    def test_private_formula(self):
        hc = HolderClass(beta=2.0, d=1)
        choice = optimal_bandwidth(hc, PrivacyBudget([0.5]), 4096)
        assert choice.regime == "private"
        assert choice.h_star == pytest.approx((4096 * 0.25) ** (-1.0 / 6.0))

    def test_nonprivate_formula(self):
        hc = HolderClass(beta=2.0, d=1)
        choice = optimal_bandwidth(hc, PrivacyBudget([1e6]), 10**6)
        assert choice.regime == "nonprivate"
        assert choice.h_star == pytest.approx(10 ** (-6.0 / 5.0))

    def test_threshold_continuity(self):
        beta, d, n = 2.0, 1, 2**20
        alpha = n ** (1.0 / (2.0 * (2.0 * beta + d)))
        h_non = n ** (-1.0 / (2.0 * beta + d))
        h_priv = (n * alpha ** (2.0 * d)) ** (-1.0 / (2.0 * (beta + d)))
        assert h_priv / h_non == pytest.approx(1.0, abs=1e-9)

    def test_boundary_rejected(self):
        hc = HolderClass(beta=2.0, d=1)
        with pytest.raises(ValueError, match="sample too small"):
            optimal_bandwidth(hc, PrivacyBudget([1.0]), 1)

    def test_unequal_alphas_forced_private(self):
        hc = HolderClass(beta=2.0, d=2)
        choice = optimal_bandwidth(hc, PrivacyBudget([50.0, 60.0]), 4096)
        assert choice.regime == "private"
