import dataclasses
import json
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cldp.channels
from cldp.channels import (
    AuditResult,
    KernelLaplaceChannel,
    LaplaceTruncChannel,
    MultiBandwidthChannel,
    MultiTruncChannel,
    PrivacyBudget,
    channel_from_json,
    channel_to_json,
    compose_ldp_level,
    kernel_clean,
    kernel_order,
    laplace_release,
    RandomizedResponseChannel,
    make_constant_channel,
    make_identity_channel,
    make_kernel,
    make_rr_channel,
    privacy_audit,
    privatize,
    release_rows,
)
from cldp.harness import ZeroNoiseRng, derive_rng


def zero_rng():
    return ZeroNoiseRng(np.random.default_rng(0))


def validate_kernel(k, tol: float = 1e-8, nodes: int = 64) -> None:
    """Check normalization, vanishing moments, sup bound, and support."""
    if abs(k.moment(0, nodes) - 1.0) > tol:
        raise ValueError(f"kernel does not integrate to 1 (got {k.moment(0, nodes)})")
    for l in range(1, k.order + 1):
        if abs(k.moment(l, nodes)) > tol:
            raise ValueError(f"kernel moment {l} does not vanish (got {k.moment(l, nodes)})")
    grid = np.linspace(-1, 1, 4001)
    if np.max(np.abs(k(grid))) > k.kappa * (1 + 1e-12) + 1e-15:
        raise ValueError("kernel exceeds its declared sup bound")
    outside = np.array([-1.5, 1.5, 2.0])
    if np.any(k(outside) != 0.0):
        raise ValueError("kernel support exceeds [-1, 1]")


class TestPrivacyBudget:
    def test_accessors(self):
        b = PrivacyBudget([0.5, 1.0])
        assert np.allclose(b.exp_minus_one(), [math.e**0.5 - 1, math.e - 1])
        assert b.total() == 1.5
        assert b.prod_alpha_sq() == pytest.approx(0.25)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PrivacyBudget([-0.1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="alphas"):
            PrivacyBudget([0.5, math.nan])

    def test_compose_ldp_level(self):
        assert compose_ldp_level(PrivacyBudget([0.0, 0.0])) == 0.0
        assert compose_ldp_level(PrivacyBudget([0.5, 0.5])) == pytest.approx(1.0)


class TestKernels:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_moment_conditions(self, order):
        k = make_kernel(order)
        validate_kernel(k, tol=1e-8)

    def test_order_two_closed_form(self):
        # solving the moment system by hand gives 9/8 - 15/8 x^2
        k = make_kernel(2)
        xs = np.linspace(-1, 1, 11)
        assert np.allclose(k(xs), 9.0 / 8.0 - 15.0 / 8.0 * xs**2, atol=1e-12)
        assert k.kappa == pytest.approx(9.0 / 8.0, rel=1e-12)

    def test_kernel_order_strict_floor(self):
        # the smoothness class controls derivatives strictly below beta
        assert kernel_order(2.0) == 1
        assert kernel_order(2.5) == 2
        assert kernel_order(1.0) == 0
        assert kernel_order(3.0) == 2

    def test_support_clipped(self):
        k = make_kernel(2)
        assert k(1.5) == 0.0

    def test_one_kernel_per_order(self):
        assert make_kernel(1) is make_kernel(1)
        assert make_kernel(2) is not make_kernel(1)


class TestPrivatize:
    def test_clamp_forces_boundary(self):
        ch = LaplaceTruncChannel(T=2.0, alpha=1.0)
        assert privatize(ch, 5.0, zero_rng()) == 2.0
        assert privatize(ch, -7.0, zero_rng()) == -2.0

    def test_kernel_release_zero_noise(self):
        # box kernel K(0) = 1/2: release is (1/h) K(0) = 1 at h = 0.5
        ch = KernelLaplaceChannel(h=0.5, x0=0.3, kernel=make_kernel(0), alpha=1.0)
        assert privatize(ch, 0.3, zero_rng()) == pytest.approx(1.0)

    def test_nonfinite_input_rejected(self):
        ch = LaplaceTruncChannel(T=1.0, alpha=1.0)
        with pytest.raises(ValueError, match="finite"):
            privatize(ch, float("nan"), zero_rng())

    def test_construction_errors(self):
        with pytest.raises(ValueError):
            LaplaceTruncChannel(T=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            KernelLaplaceChannel(h=1.0, x0=0.0, kernel=make_kernel(1), alpha=1.0)

    @pytest.mark.parametrize("build, name", [
        (lambda: LaplaceTruncChannel(T=math.nan, alpha=1.0), "truncation T"),
        (lambda: LaplaceTruncChannel(T=1.0, alpha=math.nan), "alpha"),
        (lambda: KernelLaplaceChannel(h=0.5, x0=0.0, kernel=make_kernel(1), alpha=math.nan), "alpha"),
        (lambda: MultiTruncChannel(grid=(math.nan, 1.0), alpha=1.0), "truncation grid"),
        (lambda: MultiTruncChannel(grid=(2.0, 1.0), alpha=math.nan), "alpha"),
        (lambda: MultiBandwidthChannel(grid=(0.5, 1.0), alpha=math.nan, x0=0.0, kernel=make_kernel(1)), "alpha"),
        (lambda: make_rr_channel((0.0, 1.0), math.nan), "alpha"),
        (lambda: KernelLaplaceChannel(h=0.5, x0=math.nan, kernel=make_kernel(1), alpha=1.0), "x0"),
        (lambda: MultiBandwidthChannel(grid=(0.5, 1.0), alpha=1.0, x0=math.nan, kernel=make_kernel(1)), "x0"),
    ])
    def test_nan_parameters_rejected(self, build, name):
        # NaN passes the comparisons x <= 0 and x < 0, so each check is written to fail on it;
        # a NaN x0 makes every clean kernel value 0
        with pytest.raises(ValueError, match=name):
            build()

    @pytest.mark.parametrize("build", [
        lambda a: LaplaceTruncChannel(T=1.0, alpha=a),
        lambda a: KernelLaplaceChannel(h=0.5, x0=0.0, kernel=make_kernel(1), alpha=a),
        lambda a: MultiTruncChannel(grid=(2.0, 1.0), alpha=a),
        lambda a: MultiBandwidthChannel(grid=(0.5, 1.0), alpha=a, x0=0.0, kernel=make_kernel(1)),
    ], ids=["laplace_trunc", "kernel_laplace", "multi_trunc", "multi_bandwidth"])
    def test_infinite_alpha_rejected(self, build):
        # the Laplace scale would be 0 and the audit's range/scale undefined
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            build(math.inf)

    @pytest.mark.parametrize("build, name", [
        (lambda: LaplaceTruncChannel(T=math.inf, alpha=1.0), "truncation T"),
        (lambda: MultiTruncChannel(grid=(math.inf, 1.0), alpha=1.0), "truncation grid"),
        (lambda: MultiTruncChannel(grid=(2.0, -math.inf), alpha=1.0), "truncation grid"),
    ])
    def test_infinite_truncation_rejected(self, build, name):
        # an infinite level leaves the clamp unbounded and the Laplace scale infinite
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            build()

    def test_laplace_variance_identity(self):
        # var of the T=1, alpha=1 release at x=0 is 2 (2T/alpha)^2 = 8
        ch = LaplaceTruncChannel(T=1.0, alpha=1.0)
        rng = derive_rng(123, 1)
        zs = ch.privatize_array(np.zeros(1_000_000), rng)
        assert zs.var() == pytest.approx(8.0, rel=0.02)

    def test_noise_centering(self):
        ch = LaplaceTruncChannel(T=1.0, alpha=1.0)
        rng = derive_rng(124, 1)
        zs = ch.privatize_array(np.zeros(1_000_000), rng)
        sigma = math.sqrt(8.0)
        assert abs(zs.mean()) <= 4.0 * sigma / math.sqrt(zs.size)

    def test_identical_stream_identical_release(self):
        ch = LaplaceTruncChannel(T=1.0, alpha=0.7)
        a = privatize(ch, 0.4, derive_rng(7, 1, 2))
        b = privatize(ch, 0.4, derive_rng(7, 1, 2))
        assert a == b

    def test_multi_trunc_release_shape_and_levels(self):
        ch = MultiTruncChannel(grid=(4.0, 2.0, 1.0), alpha=0.9)
        assert ch.beta_n == pytest.approx(0.3)
        out = privatize(ch, 3.0, zero_rng())
        assert np.allclose(out, [3.0, 2.0, 1.0])

    def test_multi_level_independence(self):
        ch = MultiTruncChannel(grid=(4.0, 2.0, 1.0), alpha=0.9)
        rng = derive_rng(42, 5)
        zs = ch.privatize_array(np.zeros(200_000), rng)
        noise = zs / (2.0 * np.asarray(ch.grid) / ch.beta_n)
        corr = np.corrcoef(noise.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.01

    def test_beta_n_is_derived(self):
        # alpha / len(grid) on both multi-level channels, neither an argument nor an attribute to set
        for cls, extra in ((MultiTruncChannel, {}), (MultiBandwidthChannel, {"x0": 0.0, "kernel": make_kernel(1)})):
            with pytest.raises(TypeError, match="beta_n"):
                cls(grid=(0.5, 0.25), alpha=0.9, beta_n=0.45, **extra)
            ch = cls(grid=(0.5, 0.25), alpha=0.9, **extra)
            assert ch.beta_n == 0.45
            with pytest.raises(AttributeError):
                ch.beta_n = 0.2


class TestAudit:
    def test_constant_channel_ratio_one(self):
        ch = make_constant_channel((0.0, 1.0, 2.0))
        assert privacy_audit(ch).max_ratio == pytest.approx(1.0)

    def test_laplace_trunc_exact(self):
        ch = LaplaceTruncChannel(T=1.0, alpha=0.8)
        res = privacy_audit(ch)
        assert res.max_ratio == pytest.approx(math.exp(0.8), rel=1e-12)
        assert (res.arg_x, res.arg_xp, res.arg_z) == (1.0, -1.0, 1.0)
        assert res.achieved_alpha == pytest.approx(0.8, rel=1e-12)

    def test_laplace_trunc_default_grids_exact(self):
        for T, alpha in [(0.5, 0.3), (2.0, 1.2), (7.0, 0.05)]:
            res = privacy_audit(LaplaceTruncChannel(T=T, alpha=alpha))
            bound = math.exp(alpha)
            assert bound * (1 - 1e-6) <= res.max_ratio <= bound * (1 + 1e-9)

    def test_kernel_laplace_within_bound(self):
        # the release range spans |K_max - K_min| <= 2 kappa, so the audited
        # leakage sits at exp(alpha |K_max - K_min| / (2 kappa)) <= e^alpha
        ch = KernelLaplaceChannel(h=0.25, x0=0.0, kernel=make_kernel(1), alpha=0.6)
        res = privacy_audit(ch)
        assert res.max_ratio <= math.exp(0.6) * (1 + 1e-9)
        assert res.max_ratio == pytest.approx(math.exp(0.3), rel=1e-9)
        assert res.achieved_alpha == pytest.approx(0.3, rel=1e-12)  # the box kernel is (alpha/2)-private

    def test_multi_trunc_joint_ratio_at_level_alpha(self):
        ch = MultiTruncChannel(grid=(4.0, 2.0, 1.0), alpha=0.9)
        res = privacy_audit(ch)
        bound = math.exp(0.9)
        assert res.max_ratio <= bound * (1 + 1e-9)
        assert res.max_ratio >= bound * (1 - 1e-6)

    def test_multi_bandwidth_within_bound(self):
        ch = MultiBandwidthChannel(grid=(0.25, 0.5, 1.0), alpha=0.7, x0=0.0, kernel=make_kernel(1))
        res = privacy_audit(ch)
        assert res.max_ratio <= math.exp(0.7) * (1 + 1e-9)
        assert res.achieved_alpha == pytest.approx(0.35, rel=1e-12)

    def test_order_four_kernel_pin(self):
        # K = (225 - 1050 u^2 + 945 u^4)/128 peaks at K(0) = 225/128 = kappa and bottoms
        # out at K(+-sqrt(5/9)) = -25/48, between the grid points of a plain x grid
        ch = KernelLaplaceChannel(h=0.5, x0=0.0, kernel=make_kernel(4), alpha=1.0)
        k_max, k_min = 225.0 / 128.0, -25.0 / 48.0
        b = 2.0 * k_max / (0.5 * 1.0)
        res = privacy_audit(ch)
        assert res.max_ratio == pytest.approx(math.exp((k_max - k_min) / (0.5 * b)), rel=1e-12)
        assert res.max_ratio == pytest.approx(1.91200, abs=5e-6)
        assert (res.arg_x, abs(res.arg_xp)) == pytest.approx((0.0, 0.5 * math.sqrt(5.0 / 9.0)), abs=1e-12)

    def test_product_channel_attains_sum_level(self):
        chans = [LaplaceTruncChannel(T=1.0, alpha=0.4), LaplaceTruncChannel(T=2.0, alpha=0.9)]
        joint = np.prod([privacy_audit(c).max_ratio for c in chans])
        assert joint == pytest.approx(math.exp(1.3), rel=1e-9)


class TestRandomizedResponse:
    def test_stay_probability(self):
        ch = make_rr_channel((0.0, 1.0), math.log(3.0))
        assert ch.transition_table[0, 0] == pytest.approx(0.75)

    def test_zero_alpha_uniform(self):
        ch = make_rr_channel((0.0, 1.0), 0.0)
        assert np.allclose(ch.transition_table, 0.5)

    def test_three_symbols_audit(self):
        ch = make_rr_channel((0.0, 1.0, 2.0), 1.0)
        assert np.allclose(ch.transition_table.sum(axis=1), 1.0, atol=1e-12)
        assert privacy_audit(ch).max_ratio == pytest.approx(math.e, rel=1e-12)

    def test_small_alphabet_rejected(self):
        with pytest.raises(ValueError):
            make_rr_channel((0.0,), 1.0)

    def test_sampling_deterministic(self):
        ch = make_rr_channel((0.0, 1.0, 2.0), 0.5)
        a = [privatize(ch, 1.0, derive_rng(9, i)) for i in range(20)]
        b = [privatize(ch, 1.0, derive_rng(9, i)) for i in range(20)]
        assert a == b


def _laplace_pdf(z, clean, b):
    return np.exp(-np.abs(z - clean) / b) / (2.0 * b)


# each Laplace-type channel with its clean map and its scales written out by hand
LAPLACE_TYPE = [
    (LaplaceTruncChannel(T=1.5, alpha=0.4), lambda x: np.clip(x, -1.5, 1.5), 2.0 * 1.5 / 0.4),
    (
        KernelLaplaceChannel(h=0.3, x0=0.1, kernel=make_kernel(2), alpha=0.8),
        lambda x: (9.0 / 8.0 - 15.0 / 8.0 * ((x - 0.1) / 0.3) ** 2) * (np.abs(x - 0.1) <= 0.3) / 0.3,
        2.0 * (9.0 / 8.0) / (0.3 * 0.8),
    ),
    (
        MultiTruncChannel(grid=(8.0, 4.0, 2.0, 1.0), alpha=0.6),
        lambda x: np.clip(np.asarray(x)[..., None], -np.array([8.0, 4.0, 2.0, 1.0]), [8.0, 4.0, 2.0, 1.0]),
        2.0 * np.array([8.0, 4.0, 2.0, 1.0]) / (0.6 / 4),
    ),
    (
        MultiBandwidthChannel(grid=(0.25, 0.5, 1.0), alpha=0.6, x0=0.2, kernel=make_kernel(1)),
        lambda x: 0.5 * (np.abs(np.asarray(x)[..., None] - 0.2) <= np.array([0.25, 0.5, 1.0])) / [0.25, 0.5, 1.0],
        2.0 * 0.5 / (np.array([0.25, 0.5, 1.0]) * (0.6 / 3)),
    ),
]


class TestSharedLaplaceRelease:
    @pytest.mark.parametrize("ch, clean, scales", LAPLACE_TYPE)
    def test_scalar_release_is_one_row_of_the_array_release(self, ch, clean, scales):
        for i, x in enumerate((-3.0, 0.05, 0.2, 2.5)):
            rng_one, rng_row = derive_rng(17, i), derive_rng(17, i)
            one = privatize(ch, x, rng_one)
            row = ch.privatize_array([x], rng_row)[0]
            assert np.array_equal(one, row)
            assert np.shape(one) == np.shape(clean(x))
            assert rng_one.random() == rng_row.random()  # the same draws were consumed

    @pytest.mark.parametrize("ch, clean, scales", LAPLACE_TYPE)
    def test_release_is_clean_map_plus_scaled_noise(self, ch, clean, scales):
        xs = np.linspace(-2.0, 2.0, 9)
        assert np.allclose(ch.scales(), scales, rtol=1e-12, atol=0.0)
        expected = _formula(clean(xs), scales, derive_rng(18, 0))
        assert np.allclose(ch.privatize_array(xs, derive_rng(18, 0)), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("ch, clean, scales", LAPLACE_TYPE)
    def test_density_is_closed_form_laplace_pdf(self, ch, clean, scales):
        # the grid audit's density, built from the channel's clean map and scales
        xs = np.linspace(-2.0, 2.0, 9)
        zs = np.linspace(-6.0, 6.0, 13)
        for level in range(np.size(scales)):
            hand = np.asarray(clean(xs)).reshape(len(xs), -1)[:, level]
            expected = _laplace_pdf(zs[None, :], hand[:, None], np.ravel(scales)[level])
            np.testing.assert_allclose(_level_density(ch, level, zs, xs), expected, rtol=1e-12)

    @pytest.mark.parametrize("ch, clean, scales", LAPLACE_TYPE)
    def test_clean_extremes_bound_the_clean_map(self, ch, clean, scales):
        # every level's map stays within its extremes and reaches both at the witness inputs
        x_lo, c_lo, x_hi, c_hi = (np.atleast_1d(v) for v in ch.clean_extremes())
        dense = np.asarray(clean(np.linspace(-12.0, 12.0, 24001))).reshape(24001, -1)
        assert np.all(dense.min(axis=0) >= c_lo - 1e-12) and np.all(dense.max(axis=0) <= c_hi + 1e-12)
        for lev, (xl, xh) in enumerate(zip(x_lo, x_hi)):
            lo, hi = (np.ravel(clean(_inside(ch, x, lev)))[lev] for x in (xl, xh))
            assert lo == pytest.approx(c_lo[lev], rel=1e-12, abs=1e-12)
            assert hi == pytest.approx(c_hi[lev], rel=1e-12, abs=1e-12)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
unit_half_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
kernels = st.integers(0, 4).map(make_kernel)


@st.composite
def multi_level(draw, cls, level, **fields):
    """A multi-level channel."""
    grid = tuple(draw(st.lists(level, min_size=1, max_size=6)))
    return cls(grid=grid, alpha=draw(positive), **{k: draw(v) for k, v in fields.items()})


supports = st.lists(finite, min_size=2, max_size=5, unique=True)
any_channel = st.one_of(
    st.builds(LaplaceTruncChannel, T=positive, alpha=positive),
    st.builds(KernelLaplaceChannel, h=unit_open, x0=finite, kernel=kernels, alpha=positive),
    multi_level(MultiTruncChannel, positive),
    multi_level(MultiBandwidthChannel, unit_half_open, x0=finite, kernel=kernels),
    st.builds(make_rr_channel, supports, st.floats(min_value=0.0, max_value=50.0)),
    st.builds(make_identity_channel, supports),
)


class TestSerialization:
    @settings(max_examples=200, deadline=None)
    @given(ch=any_channel)
    def test_roundtrip_all_variants(self, ch):
        # standard JSON (the identity channel's infinite alpha is null), every field back exactly
        spec = json.loads(json.dumps(channel_to_json(ch), allow_nan=False))
        back = channel_from_json(spec)
        assert type(back) is type(ch)
        for f in dataclasses.fields(ch):
            a, b = getattr(ch, f.name), getattr(back, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            else:
                assert type(a) is type(b) and a == b

    def test_spec_keys_are_the_fields(self):
        spec = channel_to_json(MultiBandwidthChannel(grid=(0.25, 0.5), alpha=0.6, x0=0.0, kernel=make_kernel(1)))
        assert spec == {"variant": "multi_bandwidth", "grid": [0.25, 0.5], "alpha": 0.6, "x0": 0.0,
                        "kernel_order": 1}
        assert channel_to_json(make_identity_channel((0.0, 1.0)))["alpha"] is None

    @pytest.mark.parametrize("spec, message", [
        ({"variant": "laplace_trunc", "alpha": 0.5, "T": 1.0, "alhpa": 2}, "laplace_trunc.*'alhpa'"),
        ({"variant": "laplace_trunc", "T": 1.0}, "laplace_trunc.*'alpha'"),
        ({"variant": "kernel_laplace", "alpha": 1.0, "h": 0.5, "x0": 0.0}, "kernel_laplace.*'kernel_order'"),
        ({"variant": "kernel_laplace", "alpha": 1.0, "h": 0.5, "x0": 0.0, "kernel_order": 1, "kernel": 1},
         "kernel_laplace.*'kernel'"),
        ({"variant": "multi_trunc", "alpha": 0.8, "grid": [2.0, 1.0], "beta": 0.4}, "multi_trunc.*'beta'"),
        ({"variant": "randomized_response", "alpha": 0.5, "input_support": [0.0, 1.0],
          "transition_table": [[1.0, 0.0], [0.0, 1.0]]}, "randomized_response.*'output_support'"),
        ({"variant": "laplace", "alpha": 0.5}, "unknown channel variant 'laplace'"),
        ({"alpha": 0.5, "T": 1.0}, "variant"),
    ])
    def test_unknown_or_missing_key_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            channel_from_json(spec)

    def test_beta_n_key_rejected(self):
        # derived from alpha and the grid, so not a spec key, even at its derived value
        with pytest.raises(ValueError, match="multi_trunc channel spec: unknown key.*'beta_n'"):
            channel_from_json({"variant": "multi_trunc", "alpha": 0.8, "grid": [2.0, 1.0], "beta_n": 0.4})


def _level_density(ch, level: int, zs, xs) -> np.ndarray:
    """The (x, z) matrix of q_l(z|x) of a Laplace-type channel's level l, from its clean map and scales."""
    clean = np.asarray(ch.clean(np.asarray(xs, dtype=float)))
    if clean.ndim > 1:  # a trailing level axis
        clean = clean[:, level]
    return _laplace_pdf(np.asarray(zs, dtype=float)[None, :], clean[:, None], np.ravel(ch.scales())[level])


def _inside(ch, x, level: int = 0) -> float:
    """x moved toward x0 until (x - x0)/h rounds into [-1, 1]: a kernel witness x0 +- h can
    round just off the support, where K reads 0.  Clamp witnesses and the off-support
    witness u = 2 are left as they are."""
    if not hasattr(ch, "kernel"):
        return float(x)
    h = np.ravel(getattr(ch, "grid", getattr(ch, "h", None)))[level]
    while 1.0 < abs((x - ch.x0) / h) < 1.5:
        x = np.nextafter(x, ch.x0)
    return float(x)


def _witness_grids(ch) -> tuple[np.ndarray, np.ndarray]:
    """x and z grids holding every level's extremal inputs, nudged inside the support,
    and every level's extreme clean values, on top of a coarse linspace."""
    x_lo, c_lo, x_hi, c_hi = (np.atleast_1d(v) for v in ch.clean_extremes())
    witnesses = [_inside(ch, x, lev) for xs in (x_lo, x_hi) for lev, x in enumerate(xs)]
    xs = np.union1d(np.linspace(-4.0, 4.0, 41), witnesses)
    zs = np.union1d(np.linspace(-20.0, 20.0, 41), np.concatenate([c_lo, c_hi]))
    return xs, zs


def reference_audit(ch, x_grid=None, z_grid=None) -> AuditResult:
    """The grid audit as nested Python loops: over z for randomized response (its full
    alphabets by default) and for scalar Laplace-type releases, and over (x, x', level)
    for multi-level ones, whose ratio is the product over levels of the sup over z at
    one input pair.  Laplace-type channels default to ``_witness_grids``."""
    if isinstance(ch, RandomizedResponseChannel):
        xs = np.asarray(ch.input_support) if x_grid is None else np.asarray(x_grid, dtype=float)
        zs = np.asarray(ch.output_support) if z_grid is None else np.asarray(z_grid, dtype=float)
        dens = np.array([[ch.density(z, x) for z in zs] for x in xs])
        best = (-math.inf, 0, 0, 0)
        for iz in range(len(zs)):
            col = dens[:, iz]
            ix = int(np.argmax(col))
            ixp = int(np.argmin(col))
            if col[ixp] == 0.0:
                ratio = math.inf if col[ix] > 0 else 1.0
            else:
                ratio = col[ix] / col[ixp]
            if ratio > best[0]:
                best = (ratio, ix, ixp, iz)
        return AuditResult(best[0], float(xs[best[1]]), float(xs[best[2]]), float(zs[best[3]]))

    default_xs, default_zs = _witness_grids(ch)
    xs = default_xs if x_grid is None else np.asarray(x_grid, dtype=float)
    zs = default_zs if z_grid is None else np.asarray(z_grid, dtype=float)
    if isinstance(ch, (MultiTruncChannel, MultiBandwidthChannel)):
        dens = [_level_density(ch, lev, zs, xs) for lev in range(len(ch.grid))]
        best = (-math.inf, 0.0, 0.0, None)
        for i, x in enumerate(xs):
            for j, xp in enumerate(xs):
                ratio = 1.0
                argz = []
                for d in dens:
                    r = d[i] / d[j]
                    k = int(np.argmax(r))
                    ratio *= float(r[k])
                    argz.append(float(zs[k]))
                if ratio > best[0]:
                    best = (ratio, float(x), float(xp), tuple(argz))
        return AuditResult(*best)

    dens = _level_density(ch, 0, zs, xs)
    best = (-math.inf, 0, 0, 0)
    for iz in range(len(zs)):
        col = dens[:, iz]
        ix = int(np.argmax(col))
        ixp = int(np.argmin(col))
        ratio = col[ix] / col[ixp]
        if ratio > best[0]:
            best = (float(ratio), ix, ixp, iz)
    return AuditResult(best[0], float(xs[best[1]]), float(xs[best[2]]), float(zs[best[3]]))


def _meets_every_level(ch) -> bool:
    """Whether one input pair reaches every level's range, so that the closed form is
    the sup itself: one level, a clamp grid, or a kernel with no negative lobe."""
    return np.size(ch.scales()) == 1 or not hasattr(ch, "kernel") or bool(np.all(ch.clean_extremes()[1] >= 0.0))


def _check_against_grid(ch, xs=None, zs=None) -> None:
    """The grid sup never exceeds the closed form; on grids holding the witness points
    it equals the closed form wherever that is the sup."""
    closed = privacy_audit(ch)
    grid = reference_audit(ch, xs, zs)
    assert grid.max_ratio <= closed.max_ratio * (1 + 1e-12)
    if xs is None and zs is None and _meets_every_level(ch):
        assert grid.max_ratio == pytest.approx(closed.max_ratio, rel=1e-12)


MULTI_LEVEL = [
    MultiTruncChannel(grid=(4.0, 2.0, 1.0), alpha=0.9),
    MultiBandwidthChannel(grid=(0.25, 0.5, 1.0), alpha=0.7, x0=0.3, kernel=make_kernel(1)),
    MultiBandwidthChannel(grid=(0.125, 0.5, 1.0), alpha=0.5, x0=-0.4, kernel=make_kernel(3)),
]


class TestRandomizedResponseLookup:
    """Inputs and outputs are matched to the alphabets within 1e-12 absolute, nothing looser."""

    def test_output_near_symbol_rejected(self):
        ch = make_rr_channel((0.0, 1000.0), 1.0)
        # 1000.005 is within 1e-5 relative of the symbol 1000, not within 1e-12
        with pytest.raises(ValueError, match="output support"):
            ch.density(1000.005, 0.0)
        with pytest.raises(ValueError, match="input support"):
            ch.density(0.0, 1000.005)
        assert ch.density(1000.0 + 1e-13, 0.0) == ch.transition_table[0, 1]

    def test_density_broadcasts(self):
        ch = make_rr_channel((0.0, 1.0, 2.0), 0.9)
        xs, zs = np.array([2.0, 0.0]), np.array([1.0, 2.0, 0.0])
        dens = ch.density(zs[None, :], xs[:, None])
        assert dens.shape == (2, 3)
        assert dens.tolist() == [[ch.density(z, x) for z in zs] for x in xs]
        with pytest.raises(ValueError, match="input support"):
            ch.density(zs[None, :], np.array([[0.0], [0.5]]))


class TestAuditMatchesLoopReference:
    """The closed-form audit against the grid audit: never below it, and equal to it on
    grids that hold the witness points wherever the closed form is the sup.  Randomized
    response matches the loop over its alphabets exactly, ties and witnesses included."""

    @pytest.mark.parametrize("ch", MULTI_LEVEL, ids=["trunc", "bandwidth_k1", "bandwidth_k3"])
    def test_multi_level_default_grids(self, ch):
        _check_against_grid(ch)
        if ch is MULTI_LEVEL[2]:
            # the order-3 kernel's negative lobe: no one input pair reaches every level's
            # minimum, so the closed form is the per-level composition bound, above the sup
            assert not _meets_every_level(ch)
            assert reference_audit(ch).max_ratio < privacy_audit(ch).max_ratio * (1 - 1e-3)

    @pytest.mark.parametrize("ch", MULTI_LEVEL, ids=["trunc", "bandwidth_k1", "bandwidth_k3"])
    def test_multi_level_explicit_grids(self, ch):
        _check_against_grid(ch, np.linspace(-5.0, 5.0, 21), np.linspace(-30.0, 30.0, 41))
        res = privacy_audit(ch)
        assert len(res.arg_x) == len(res.arg_xp) == len(res.arg_z) == len(ch.grid)

    @pytest.mark.parametrize(
        "ch",
        [
            LaplaceTruncChannel(T=1.0, alpha=0.8),
            LaplaceTruncChannel(T=7.0, alpha=0.05),
            *(KernelLaplaceChannel(h=0.25, x0=0.1, kernel=make_kernel(k), alpha=0.6) for k in range(4)),
        ],
    )
    def test_scalar_release(self, ch):
        _check_against_grid(ch)
        _check_against_grid(ch, [-1.0, 0.0, 1.0, 1.0], [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "ch",
        [
            *(make_rr_channel(tuple(range(m)), 0.3 + 0.2 * m) for m in (2, 3, 5)),
            make_constant_channel((0.0, 1.0, 2.0)),
            make_constant_channel((0.0, 1.0, 2.0), symbol_index=1),
            make_identity_channel((0.0, 1.0, 2.0)),
        ],
    )
    def test_randomized_response(self, ch):
        assert privacy_audit(ch) == reference_audit(ch)

    def test_zero_probability_columns(self):
        # a zero minimum reads inf; an all-zero column reads 1
        assert privacy_audit(make_identity_channel((0.0, 1.0))).max_ratio == math.inf
        res = privacy_audit(make_constant_channel((0.0, 1.0, 2.0), symbol_index=2))
        assert res == AuditResult(1.0, 0.0, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        variant=st.sampled_from(["trunc", "bandwidth"]),
        levels=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
        alpha=st.floats(0.05, 3.0),
        kernel=st.integers(0, 5),
        x0=st.floats(-1.0, 1.0),
        xs=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=7),
        zs=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=9),
    )
    def test_multi_level_property(self, variant, levels, alpha, kernel, x0, xs, zs):
        if variant == "trunc":
            ch = MultiTruncChannel(grid=tuple(8.0 * t for t in levels), alpha=alpha)
        else:
            ch = MultiBandwidthChannel(grid=tuple(levels), alpha=alpha, x0=x0, kernel=make_kernel(kernel))
        _check_against_grid(ch, xs, zs)
        assert privacy_audit(ch).max_ratio <= math.exp(alpha) * (1 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        T=st.floats(0.1, 8.0),
        alpha=st.floats(0.05, 3.0),
        xs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=9),
        zs=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=9),
    )
    def test_scalar_release_property(self, T, alpha, xs, zs):
        ch = LaplaceTruncChannel(T=T, alpha=alpha)
        _check_against_grid(ch, xs, zs)
        assert privacy_audit(ch).max_ratio == pytest.approx(math.exp(alpha), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        variant=st.sampled_from(["trunc", "kernel", "multi_trunc", "multi_bandwidth"]),
        levels=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
        alpha=st.floats(0.05, 3.0),
        kernel=st.integers(0, 5),
        x0=st.floats(-1.0, 1.0),
    )
    def test_closed_form_meets_the_witness_grid(self, variant, levels, alpha, kernel, x0):
        ch = {
            "trunc": lambda: LaplaceTruncChannel(T=8.0 * levels[0], alpha=alpha),
            "kernel": lambda: KernelLaplaceChannel(h=levels[0], x0=x0, kernel=make_kernel(kernel), alpha=alpha),
            "multi_trunc": lambda: MultiTruncChannel(grid=tuple(8.0 * t for t in levels), alpha=alpha),
            "multi_bandwidth": lambda: MultiBandwidthChannel(
                grid=tuple(levels), alpha=alpha, x0=x0, kernel=make_kernel(kernel)),
        }[variant]()
        _check_against_grid(ch)


def _same_bytes(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _formula(clean, scales, rng):
    """clean + scales * copysign(E, U - 0.5), every E drawn before every U: the release written plainly."""
    shape = np.shape(clean)
    e = rng.standard_exponential(shape)
    return clean + np.copysign(e, rng.random(shape) - 0.5) * scales


def _polyval_kernel(k, u):
    """K(u) as np.where(|u| <= 1, polyval(u, coeffs), 0), the form the in-place evaluation replaces."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.where(np.abs(u) <= 1.0, np.polynomial.polynomial.polyval(u, np.asarray(k.coeffs)), 0.0)
    return vals if vals.ndim else float(vals)


_EDGES = [-1.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), np.nextafter(1.0, 0.0), 0.0, -0.0,
          1e200, -1e200, math.inf, -math.inf, math.nan]


class TestLeanReleaseIsBitwiseTheFormula:
    """The in-place release and kernel evaluation give the bytes of the plain formulas."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        shape=st.sampled_from([(), (7,), (5, 3), (1, 4)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_laplace_release(self, data, shape, seed):
        value = st.floats(-1e6, 1e6, allow_subnormal=True)
        clean = data.draw(hnp.arrays(np.float64, shape, elements=value))
        # one scale per entry, per level (the trailing axis) or one for all
        scale_shape = data.draw(st.sampled_from([(), shape[-1:], shape]))
        scales = data.draw(hnp.arrays(np.float64, scale_shape, elements=st.floats(1e-3, 1e3)))
        want = _formula(clean, scales, np.random.default_rng(seed))
        assert _same_bytes(laplace_release(clean, scales, np.random.default_rng(seed)), want)

    @settings(max_examples=80, deadline=None)
    @given(
        order=st.integers(0, 3),
        u=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
            elements=st.one_of(st.floats(-3.0, 3.0), st.sampled_from(_EDGES)),
        ),
    )
    def test_kernel_evaluation(self, order, u):
        k = make_kernel(order)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = k(u)
        assert type(vals) is type(_polyval_kernel(k, u))
        assert _same_bytes(vals, _polyval_kernel(k, u))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_kernel_edges(self, order):
        k = make_kernel(order)
        edges = np.array(_EDGES)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bytes(k(edges), _polyval_kernel(k, edges))
        assert (k(-1.0), k(1.0)) == (_polyval_kernel(k, -1.0), _polyval_kernel(k, 1.0))
        assert k(1.0) != 0.0 and k(-1.0) != 0.0
        assert k(np.nextafter(1.0, 2.0)) == k(np.nextafter(-1.0, -2.0)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(0, 3),
        xs=hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(-4.0, 4.0)),
        x0=st.floats(-1.0, 1.0),
        hs=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5),
    )
    def test_kernel_clean(self, order, xs, x0, hs):
        k, h = make_kernel(order), np.asarray(hs)
        old = _polyval_kernel(k, (xs[:, None] - x0) / h) / h
        assert _same_bytes(kernel_clean(k, xs[:, None], x0, h), old)
        assert _same_bytes(kernel_clean(k, xs, x0, h[0]), _polyval_kernel(k, (xs - x0) / h[0]) / h[0])


    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        order=st.integers(0, 4),
        x0=st.floats(-2.0, 2.0),
        hs=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=6),
        grid=st.booleans(),
    )
    def test_kernel_clean_at_the_support_edge(self, data, order, x0, hs, grid):
        # the map tests |x - x0| <= h instead of |(x - x0)/h| <= 1 and divides by h on the support
        # only: the bytes of kernel((x - x0)/h) / h, with points planted at |x - x0| = h and one
        # ulp either side of it
        k, h = make_kernel(order), np.asarray(hs if grid else hs[:1])
        planted = [x0 + s * t for t in h for s in (-1.0, 1.0)]
        planted += [np.nextafter(p, d) for p in planted for d in (-math.inf, math.inf)]
        xs = np.array(planted + data.draw(st.lists(st.floats(-4.0, 4.0), max_size=20)))
        hh = h if grid else h[0]
        x = xs[:, None] if grid else xs
        with np.errstate(over="ignore", invalid="ignore"):
            want = k((x - x0) / hh) / hh
        assert _same_bytes(kernel_clean(k, x, x0, hh), want)
        assert kernel_clean(k, xs[0], x0, h[0]) == k((xs[0] - x0) / h[0]) / h[0]


SPLIT = 2 * cldp.channels._BLOCK  # draws from which a release is filled in row blocks


def _four_channels(levels: int, order: int) -> list:
    """The four Laplace-type channels; the multi-level two with ``levels`` levels."""
    grid = tuple(2.0 ** -k for k in range(levels))
    return [
        LaplaceTruncChannel(T=1.5, alpha=0.7),
        KernelLaplaceChannel(h=0.4, x0=0.1, kernel=make_kernel(order), alpha=1.3),
        MultiTruncChannel(grid=tuple(4.0 * g for g in grid), alpha=0.9),
        MultiBandwidthChannel(grid=grid, alpha=2.0, x0=-0.2, kernel=make_kernel(order)),
    ]


def _xs(n: int, seed: int = 0) -> np.ndarray:
    return 2.0 * np.random.default_rng(seed).standard_normal(n)


def _reference_release(ch, xs, rng):
    """The release as the stream layout states it, one block after another on one thread: below
    the split size the formula on ``rng``; from it one key from ``rng``, and block b of
    ``_BLOCK // levels`` rows the formula on the stream spawned from (key, b)."""
    clean, scales = ch.clean(xs), ch.scales()
    if np.size(clean) < SPLIT:
        return _formula(clean, scales, rng)
    key = int(rng.integers(0, 2**63))
    rows = max(1, cldp.channels._BLOCK // np.size(scales))
    return np.concatenate([
        _formula(clean[a:a + rows], scales,
                 np.random.Generator(np.random.PCG64(np.random.SeedSequence(key, spawn_key=(b,)))))
        for b, a in enumerate(range(0, len(xs), rows))
    ])


class _PassThrough:
    """A stream proxy that counts the exponential draws it is asked for, as a tracer's would."""

    def __init__(self, rng):
        self._rng = rng
        self.drawn = 0

    def standard_exponential(self, size=None, dtype=np.float64, method="zig", out=None):
        got = self._rng.standard_exponential(size, dtype, method, out)
        self.drawn += np.size(got)
        return got

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestRowBlocks:
    """Releases and clean maps filled in row blocks give the bytes of the reference layout, on any
    number of CPUs, and leave the caller's stream where it does."""

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        which=st.integers(0, 3),
        levels=st.sampled_from([1, 2, 3, 7, 14]),
        cpus=st.sampled_from([1, 2, 3, 5]),
        pre=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_and_stream_as_serial(self, data, which, levels, cpus, pre, seed):
        ch = _four_channels(levels, order=seed % 4)[which]
        rows = SPLIT // np.size(ch.scales())
        # one row below, at and above the split size (at it exactly where the levels divide it),
        # or up to three times it, with ragged last blocks
        n = rows + data.draw(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(2, 2 * rows)))
        xs = _xs(n, seed)
        split, serial = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (split, serial):  # an odd count leaves half a 64-bit draw buffered
            rng.integers(0, 2**32, size=pre, dtype=np.uint32)
        with mock.patch.object(cldp.channels, "_cpus", lambda: cpus):
            z = ch.privatize_array(xs, split)
            # with no stream the pass hands each block its clean map as the release
            blocks = release_rows(xs[:, None], (ch,), None, lambda rows, clean, z: (clean[0], z[0]))
        assert _same_bytes(z, _reference_release(ch, xs, serial))
        assert all(zb is cb for cb, zb in blocks)
        assert _same_bytes(np.concatenate([cb for cb, _ in blocks]), ch.clean(xs))
        assert split.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == \
            serial.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
        assert split.random() == serial.random()

    @pytest.mark.parametrize("which", range(4))
    def test_proxies_and_other_generators_give_the_layout_bytes(self, which):
        ch = _four_channels(14, order=1)[which]
        for n in (SPLIT // np.size(ch.scales()) - 1, 2 * SPLIT // np.size(ch.scales()) + 5):
            xs = _xs(n)
            # zero noise is the clean map exactly, below and above the split size, and for one value
            assert _same_bytes(ch.privatize_array(xs, ZeroNoiseRng(np.random.default_rng(1))), ch.clean(xs))
            assert _same_bytes(privatize(ch, xs[0], ZeroNoiseRng(np.random.default_rng(1))),
                               np.asarray(ch.clean(xs[0])))
            # a pass-through proxy gets the bare Generator's bytes and leaves its stream where it does
            proxy, bare = _PassThrough(np.random.default_rng(2)), np.random.default_rng(2)
            assert _same_bytes(ch.privatize_array(xs, proxy), ch.privatize_array(xs, bare))
            assert proxy.random() == bare.random()
            # below the split size the proxy sees every draw; above it, the blocks draw from their own streams
            assert proxy.drawn == (n * np.size(ch.scales()) if n * np.size(ch.scales()) < SPLIT else 0)
            mt, mt_serial = (np.random.Generator(np.random.MT19937(0)) for _ in range(2))
            assert _same_bytes(ch.privatize_array(xs, mt), _reference_release(ch, xs, mt_serial))
            assert mt.random() == mt_serial.random()

    @pytest.mark.parametrize("shape", [(5, 3), (5, 1), (5,), (5, 2, 1)])
    def test_sample_shape_checked(self, shape):
        # a third column used to be dropped without a word, and a 1-d sample raised an IndexError
        with pytest.raises(ValueError, match=r"X must be \(n, d\) with one channel per column"):
            release_rows(np.ones(shape), _four_channels(1, 0)[:2], np.random.default_rng(0), lambda *block: None)

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_bytes_do_not_depend_on_the_cpus(self, cpus):
        ch = _four_channels(3, order=2)[3]
        xs = _xs(5 * SPLIT // 3 + 7)
        with mock.patch.object(cldp.channels, "_cpus", lambda: 1):
            one = ch.privatize_array(xs, np.random.default_rng(4))
        with mock.patch.object(cldp.channels, "_cpus", lambda: cpus):
            assert _same_bytes(ch.privatize_array(xs, np.random.default_rng(4)), one)

    def test_helper_thread_exception_reaches_caller(self):
        raised_on = []

        class Faulty(LaplaceTruncChannel):
            def clean(self, x):
                if np.any(np.asarray(x) == 9.0):
                    raised_on.append(threading.current_thread())
                    raise RuntimeError("clean failed")
                return super().clean(x)

        xs = _xs(2 * SPLIT)
        xs[-10:] = 9.0  # in the last block; every block is filled on a pool thread
        rng, keyed = np.random.default_rng(3), np.random.default_rng(3)
        keyed.integers(0, 2**63)  # the release's one draw from the caller's stream: its key
        with mock.patch.object(cldp.channels, "_cpus", lambda: 2):
            with pytest.raises(RuntimeError, match="clean failed"):
                Faulty(T=1.0, alpha=1.0).privatize_array(xs, rng)
        assert raised_on and raised_on[0] is not threading.main_thread()
        assert rng.bit_generator.state == keyed.bit_generator.state


class TestLaplaceNoise:
    """The unit noise copysign(E, U - 0.5) is Laplace(0, 1), from the caller's stream below the
    split size and from one stream per row block above it."""

    # a clamp at T = 1/2 and level 1 has scale 1, so the release of zeros is the unit noise
    UNIT = LaplaceTruncChannel(T=0.5, alpha=1.0)

    @pytest.mark.parametrize("n", [SPLIT - 1, 3 * SPLIT + 11])
    def test_moments_and_law(self, n):
        from scipy import stats

        z = self.UNIT.privatize_array(np.zeros(n), np.random.default_rng(5))
        # mean 0 with variance 2, and the sample variance 2 with variance E L^4 - 4 = 20
        assert abs(z.mean()) / math.sqrt(2.0 / n) < 4.0
        assert abs(z.var() - 2.0) / math.sqrt(20.0 / n) < 4.0
        assert stats.kstest(z, "laplace").pvalue > 1e-3

    def test_blocks_are_uncorrelated(self):
        rows = cldp.channels._BLOCK
        z = self.UNIT.privatize_array(np.zeros(4 * rows), np.random.default_rng(6)).reshape(4, rows)
        # each block against the next, value by value, and the values either side of each boundary
        for a, b in zip(z[:-1], z[1:]):
            assert abs(np.corrcoef(a, b)[0, 1]) * math.sqrt(rows) < 4.0
        across = np.corrcoef(z[:-1, -1000:].ravel(), z[1:, :1000].ravel())[0, 1]
        assert abs(across) * math.sqrt(3000) < 4.0
