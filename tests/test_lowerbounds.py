import dataclasses
import itertools
import math

import numpy as np
import pytest

import cldp
from cldp.channels import PrivacyBudget, make_rr_channel
from cldp.estimators import HolderClass, MomentProfile
from cldp.harness import derive_rng
from cldp.lowerbounds import (
    bump_axis_integral,
    check_density_instance,
    default_moment_channels,
    density_star_mass_and_min,
    density_two_point,
    moment_two_point,
    smooth_bump,
    verify_two_point,
    zero_mean_bump,
)
from cldp.measures import marginal, nonempty_subsets, tv_distance


def build_moment(d=2, alphas=(0.5, 0.5), n=64, ks=None):
    profile = MomentProfile(ks or [4.0] * d)
    return moment_two_point(profile, PrivacyBudget(alphas), n), profile


class TestMomentInstance:
    def test_strict_subset_marginals_equal(self):
        for d, alphas, n in ((2, (0.5, 0.5), 64), (3, (0.7, 0.4, 1.0), 256)):
            inst, _ = build_moment(d, alphas, n)
            for S in nonempty_subsets(d):
                if len(S) == d:
                    continue
                tv = tv_distance(marginal(inst.P, S), marginal(inst.P_star, S))
                assert tv <= 1e-14

    def test_gamma_p_zero_and_unit_moments(self):
        inst, profile = build_moment()
        supports = inst.P.supports
        gamma = 0.0
        for idx in np.ndindex(inst.P.probs.shape):
            gamma += inst.P.probs[idx] * np.prod([supports[j][idx[j]] for j in range(2)])
        assert gamma == pytest.approx(0.0, abs=1e-14)
        for j, k in enumerate(profile.ks):
            moment = 0.0
            for idx in np.ndindex(inst.P.probs.shape):
                moment += inst.P.probs[idx] * abs(supports[j][idx[j]]) ** k
            assert moment == pytest.approx(1.0, rel=1e-12)

    def test_tv_by_direct_summation(self):
        inst, _ = build_moment()
        # oracle: direct table summation
        total = 0.0
        for idx in np.ndindex(inst.P.probs.shape):
            total += abs(inst.P.probs[idx] - inst.P_star.probs[idx])
        assert tv_distance(inst.P, inst.P_star) == pytest.approx(total, abs=1e-15)
        assert total <= inst.delta / 2.0 + 1e-15

    def test_separation_formula(self):
        inst, profile = build_moment(n=128)
        expected = 0.5 * inst.delta ** (1.0 - sum(1.0 / k for k in profile.ks))
        assert inst.separation == pytest.approx(expected, abs=1e-12)

    def test_delta_calibration(self):
        budget = PrivacyBudget([0.5, 0.5])
        inst, _ = build_moment(n=64)
        contrast = float(np.prod(np.abs(budget.exp_minus_one()) ** 2))
        assert inst.delta == pytest.approx((2 * 64 * contrast) ** -0.5, rel=1e-12)

    def test_regime_violation(self):
        with pytest.raises(ValueError, match="regime"):
            build_moment(n=1, alphas=(0.1, 0.1))


class TestVerifyTwoPoint:
    def test_condition3_at_regime_boundary(self):
        contrast = (math.e**0.5 - 1) ** 4
        n = max(1, math.ceil(1.0 / contrast))
        inst, _ = build_moment(n=n)
        rep = verify_two_point(inst, default_moment_channels(inst), n)
        assert rep.condition3_ok
        assert rep.bound == pytest.approx(0.125, rel=1e-9)
        assert rep.n_times_jeffreys <= rep.bound + 1e-9

    def test_budget_read_from_the_instance(self):
        inst, _ = build_moment(n=64)
        tight = dataclasses.replace(inst, kl_budget=1e-6)
        assert verify_two_point(inst, default_moment_channels(inst), 64).condition3_ok
        assert not verify_two_point(tight, default_moment_channels(tight), 64).condition3_ok

    def test_divergence_vanishes_for_small_delta(self):
        inst, _ = build_moment(n=10**8)
        rep = verify_two_point(inst, default_moment_channels(inst), 10**8)
        assert rep.per_sample_jeffreys < 1e-8

    def test_bound_monotone_in_n_delta_sq(self):
        # with delta fixed by one instance, the iid bound scales linearly in n
        inst, _ = build_moment(n=64)
        chans = default_moment_channels(inst)
        vals = [verify_two_point(inst, chans, n).bound for n in (10, 20, 40, 80)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_density_kind_rejected(self):
        hc = HolderClass(beta=2.0, d=1)
        inst = density_two_point(hc, PrivacyBudget([0.5]), 10_000)
        with pytest.raises(ValueError, match="quadrature"):
            verify_two_point(inst, (), 10)

    def test_minimax_floor_for_plugin_rules(self):
        # no plug-in estimator distinguishes the pair well enough to beat the
        # two-point floor on worst-case MSE
        n = 40
        inst, _ = build_moment(n=n)
        chans = default_moment_channels(inst)
        floor = inst.separation**2 / 16.0
        reps = 200
        mid = (0.0 + inst.separation) / 2.0

        def plugin_product_mean(Z):
            return float(np.prod(Z, axis=1).mean())

        def plugin_clip(Z):
            return float(np.clip(np.prod(Z, axis=1), -5, 5).mean())

        def plugin_threshold(Z):
            return 0.0 if plugin_product_mean(Z) < mid else inst.separation

        for rule in (plugin_product_mean, plugin_clip, plugin_threshold):
            worst = 0.0
            for which, dist in (("P", inst.P), ("P*", inst.P_star)):
                truth = 0.0 if which == "P" else inst.separation
                errs = []
                for r in range(reps):
                    rng = derive_rng(13, hash(which) % 1000, r)
                    flat = dist.probs.ravel()
                    idx = rng.choice(flat.size, size=n, p=flat)
                    coords = np.unravel_index(idx, dist.probs.shape)
                    Z = np.empty((n, 2))
                    for j in range(2):
                        xs = np.asarray(dist.supports[j])[coords[j]]
                        Z[:, j] = [chans[j].privatize(x, rng) for x in xs]
                    errs.append((rule(Z) - truth) ** 2)
                worst = max(worst, float(np.mean(errs)))
            assert worst >= floor


def test_one_type_per_instance():
    assert isinstance(build_moment()[0], cldp.MomentInstance)
    assert isinstance(density_two_point(HolderClass(2.0, d=1), PrivacyBudget([0.5]), 10_000), cldp.DensityInstance)


class TestDensityInstance:
    def test_bump_properties(self):
        xs = np.linspace(-1.2, 1.2, 2001)
        assert zero_mean_bump(0.0) == pytest.approx(1.0, rel=1e-12)
        assert np.all(zero_mean_bump(np.array([-1.0, 1.0, 1.1])) == 0.0)
        assert abs(bump_axis_integral(
            density_two_point(HolderClass(2.0, d=1), PrivacyBudget([0.5]), 10_000)
        )) <= 1e-8
        # smooth_bump stays below its max at 0
        assert np.all(smooth_bump(xs) <= smooth_bump(0.0) + 1e-15)

    def test_separation_exact(self):
        hc = HolderClass(beta=2.0, d=1)
        inst = density_two_point(hc, PrivacyBudget([0.5]), 10_000)
        x0 = np.zeros((1, 1))
        gap = float((inst.density_star(x0) - inst.density(x0))[0])
        assert gap == pytest.approx(inst.separation, rel=1e-12)
        assert inst.separation == pytest.approx(1.0 / inst.M_n, rel=1e-12)
        assert inst.h_n == pytest.approx((1.0 / inst.M_n) ** (1.0 / hc.beta), rel=1e-12)

    def test_mass_and_nonnegativity(self):
        for d in (1, 2):
            hc = HolderClass(beta=2.0, d=d)
            inst = density_two_point(hc, PrivacyBudget([0.5] * d), 50_000)
            mass, dmin = density_star_mass_and_min(inst)
            assert mass == pytest.approx(1.0, abs=1e-6)
            assert dmin >= 0.0

    def test_small_n_rejected(self):
        hc = HolderClass(beta=2.0, d=1)
        with pytest.raises(ValueError, match="h_n"):
            density_two_point(hc, PrivacyBudget([0.1]), 2)

    def test_calibration_formula(self):
        hc = HolderClass(beta=2.0, d=1)
        budget = PrivacyBudget([0.5])
        n, eps0, c_k = 10_000, 1.9, 4.0
        inst = density_two_point(hc, budget, n, eps0=eps0, c_k=c_k)
        contrast = float(np.prod(np.abs(budget.exp_minus_one()) ** 2))
        expected = (eps0 / (c_k * n * contrast)) ** (hc.beta / (2.0 * (hc.d + hc.beta)))
        assert 1.0 / inst.M_n == pytest.approx(expected, rel=1e-12)

    def test_check_flags_a_negative_density(self):
        inst = density_two_point(HolderClass(beta=2.0, d=1), PrivacyBudget([0.5]), 50_000)
        assert check_density_instance(inst)["ok"]
        shifted = dataclasses.replace(inst, density_star=lambda x: inst.density_star(x) - 1.0)
        rep = check_density_instance(shifted)
        assert not rep["ok"]
        assert rep["min_density"] < -0.5
