import itertools
import math

import numpy as np
import pytest

from cldp.adaptive import (
    GLConfig,
    _gl_select,
    build_bandwidth_grid,
    build_truncation_grid,
    gl_select_bandwidth,
    gl_select_truncation,
    multi_bandwidth_channels,
    multi_trunc_channels,
)
from cldp.channels import PrivacyBudget, make_kernel, privacy_audit
from cldp.estimators import (
    HolderClass,
    MomentProfile,
    PrivatizedSample,
    RegimeError,
    optimal_bandwidth,
    optimal_truncations,
    release_sample,
)
from cldp.harness import ZeroNoiseRng, derive_rng
from cldp.simdata import HolderDensityModel, ParetoFactorModel, sample_heavy_tailed, sample_holder_density


class TestGrids:
    def test_truncation_grid_n8(self):
        assert np.allclose(build_truncation_grid(8), [4.0, 2.0, 1.0])

    def test_bandwidth_grid_n8(self):
        assert np.allclose(build_bandwidth_grid(8), [0.25, 0.5, 1.0])

    def test_cardinality_n1000(self):
        assert build_truncation_grid(1000).size == 9
        assert math.floor(math.log2(1000)) == 9

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            build_truncation_grid(3)

    def test_bandwidth_entries_at_most_one(self):
        for n in (8, 100, 4096):
            assert np.all(build_bandwidth_grid(n) <= 1.0)


class TestGLConfig:
    def test_derived_quantities(self):
        cfg = GLConfig(n=1024, budget=PrivacyBudget([0.5, 0.8]), c0=8.0)
        assert cfg.grid_cardinality == 10
        assert cfg.a_n == pytest.approx(8.0 * math.log(1024))
        assert np.allclose(cfg.beta_n(), [0.05, 0.08])

    @pytest.mark.parametrize("c0", [0.0, -1.0, math.nan, -math.inf])
    def test_rejects_nonpositive_c0(self, c0):
        with pytest.raises(ValueError, match="c0 must be positive"):
            GLConfig(n=256, budget=PrivacyBudget([1.0]), c0=c0)

    @pytest.mark.parametrize("c0", [1e308, math.inf])
    def test_rejects_c0_whose_penalty_constant_overflows(self, c0):
        with pytest.raises(ValueError, match="a_n"):
            GLConfig(n=256, budget=PrivacyBudget([1.0]), c0=c0)

    @pytest.mark.parametrize("d, n, c0", [(1, 2**14, 1e298), (2, 256, 1e296)])
    def test_rejects_c0_whose_selector_penalty_overflows(self, d, n, c0):
        # a_n is finite, but both selectors form a_n (n/2)^(2d) before dividing, and that overflows
        GLConfig(n=n, budget=PrivacyBudget([1.0] * d), c0=c0)  # accepted
        assert math.isfinite(100.0 * c0 * math.log(n))
        with pytest.raises(ValueError, match="a_n"):
            GLConfig(n=n, budget=PrivacyBudget([1.0] * d), c0=100.0 * c0)
        # a small budget's denominator lifts the penalty past the float range after the division
        with pytest.raises(ValueError, match="a_n"):
            GLConfig(n=n, budget=PrivacyBudget([0.01] * d), c0=c0)

    def test_small_n_is_a_regime_error(self):
        with pytest.raises(RegimeError, match="n >= 4"):
            GLConfig(n=3, budget=PrivacyBudget([1.0]), c0=math.nan)

    def test_channels_pass_audit_at_declared_level(self):
        cfg = GLConfig(n=64, budget=PrivacyBudget([0.9]))
        ch = multi_trunc_channels(cfg)[0]
        assert privacy_audit(ch).max_ratio <= math.exp(0.9) * (1 + 1e-9)
        chb = multi_bandwidth_channels(cfg, [0.0], make_kernel(1))[0]
        assert privacy_audit(chb).max_ratio <= math.exp(0.9) * (1 + 1e-9)


def _noiseless_multi_sample(X, cfg, kind="trunc", x0=0.0, kernel=None):
    rng = ZeroNoiseRng(np.random.default_rng(0))
    if kind == "trunc":
        chans = multi_trunc_channels(cfg)
    else:
        chans = multi_bandwidth_channels(cfg, [x0] * X.shape[1], kernel or make_kernel(0))
    return release_sample(X, chans, rng)


class TestSelectTruncation:
    def test_noiseless_bounded_data_selects_smallest_penalty(self):
        # all levels agree when the data sits below the smallest clamp, so the
        # bias proxy vanishes and the penalty minimizer (smallest product) wins
        n = 64
        cfg = GLConfig(n=n, budget=PrivacyBudget([1.0, 1.0]))
        rng = derive_rng(1, 0)
        X = rng.uniform(-0.5, 0.5, size=(n, 2))
        Zm = _noiseless_multi_sample(X, cfg)
        sel = gl_select_truncation(Zm, cfg)
        assert np.all(sel.B_table == 0.0)
        grid = build_truncation_grid(n)
        assert sel.T_hat == (grid[-1], grid[-1])
        assert sel.gamma_hat == pytest.approx(float(np.prod(X, axis=1).mean()))

    def test_commutativity_of_pair_estimates(self):
        # gamma^(T, T') consumes the same releases as gamma^(T', T) exactly
        n = 32
        cfg = GLConfig(n=n, budget=PrivacyBudget([1.0, 1.0]))
        rng = derive_rng(2, 0)
        X = rng.normal(size=(n, 2))
        Zm = release_sample(X, multi_trunc_channels(cfg), rng)
        gamma = gl_select_truncation(Zm, cfg).gamma_table
        m = gamma.shape[0]
        for i1 in range(m):
            for i2 in range(m):
                for j1 in range(m):
                    for j2 in range(m):
                        a = gamma[max(i1, j1), max(i2, j2)]
                        b = gamma[max(j1, i1), max(j2, i2)]
                        assert a == b

    def test_penalty_closed_form(self):
        n = 256
        cfg = GLConfig(n=n, budget=PrivacyBudget([0.5, 0.7]), c0=8.0)
        rng = derive_rng(3, 0)
        X = rng.normal(size=(n, 2))
        Zm = release_sample(X, multi_trunc_channels(cfg), rng)
        sel = gl_select_truncation(Zm, cfg)
        grid = build_truncation_grid(n)
        beta = cfg.beta_n()
        for i1 in (0, 3, 7):
            for i2 in (1, 5):
                expected = (
                    cfg.a_n
                    * grid[i1] ** 2
                    * grid[i2] ** 2
                    / (n * beta[0] ** 2 * beta[1] ** 2)
                )
                assert sel.V_table[i1, i2] == pytest.approx(expected, rel=1e-12)

    def test_selection_stability_same_seed(self):
        n = 128
        cfg = GLConfig(n=n, budget=PrivacyBudget([1.0, 1.0]))
        model = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5)
        sels = []
        for _ in range(2):
            rng = derive_rng(9, 1)
            X = sample_heavy_tailed(model, n, rng)
            Zm = release_sample(X, multi_trunc_channels(cfg), rng)
            sels.append(gl_select_truncation(Zm, cfg))
        assert sels[0].T_hat == sels[1].T_hat
        assert sels[0].gamma_hat == sels[1].gamma_hat

    def test_grid_mismatch_rejected(self):
        cfg = GLConfig(n=64, budget=PrivacyBudget([1.0]))
        Zm = PrivatizedSample(np.zeros((64, 1, 3)), (None,))
        with pytest.raises(ValueError, match="levels"):
            gl_select_truncation(Zm, cfg)

    def test_selection_near_oracle_truncation(self):
        # proximity check: selected clamp within factor 4 of the rate-optimal
        # level in at least 80% of replications.  The bias-proxy excess terms
        # must clear fluctuations whose size scales with the per-release noise
        # constant 8^d, so two axes need c0 around 8^2 * 2 rather than the
        # one-axis default.
        n = 2**14
        budget = PrivacyBudget([0.5, 0.5])
        cfg = GLConfig(n=n, budget=budget, c0=128.0)
        model = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5)
        t_star = optimal_truncations(MomentProfile([4.0, 4.0]), budget, n, "joint")
        chans = multi_trunc_channels(cfg)
        hits = 0
        reps = 100
        for r in range(reps):
            rng = derive_rng(11, r)
            X = sample_heavy_tailed(model, n, rng)
            Zm = release_sample(X, chans, rng)
            sel = gl_select_truncation(Zm, cfg)
            ratios = np.asarray(sel.T_hat) / t_star
            if np.all((ratios <= 4.0) & (ratios >= 0.25)):
                hits += 1
        assert hits >= 0.8 * reps


def _reference_truncation_tables(gamma, grid, cfg):
    """The selector's (B, V, index) as computed before the one-broadcast form:
    a broadcast for d = 1 and d = 2, a loop over every (I, J) pair for d >= 3."""
    m, d = grid.size, gamma.ndim
    beta = cfg.beta_n()
    denom = cfg.n * float(np.prod(beta**2))
    V = cfg.a_n * _outer([grid**2] * d) / denom
    ar = np.arange(m)
    K = np.maximum(ar[:, None], ar[None, :])
    if d == 1:
        diff = gamma[K] - gamma[None, :]
        B = np.maximum(diff * diff - V[None, :], 0.0).max(axis=1)
    elif d == 2:
        gamma_K = gamma[K[:, None, :, None], K[None, :, None, :]]
        diff = gamma_K - gamma[None, None, :, :]
        B = np.maximum(diff * diff - V[None, None, :, :], 0.0).max(axis=(2, 3))
    else:
        B = np.zeros_like(V)
        for I in itertools.product(range(m), repeat=d):
            worst = 0.0
            for J in itertools.product(range(m), repeat=d):
                Kt = tuple(max(a, b) for a, b in zip(I, J))
                diff = gamma[Kt] - gamma[J]
                excess = diff * diff - V[J]
                if excess > worst:
                    worst = excess
            B[I] = worst
    score = B + V
    prod_T = _outer([grid] * d)
    ties = np.argwhere(score == score.min())
    index = tuple(int(i) for i in max(ties, key=lambda I: prod_T[tuple(I)]))
    return B, V, index


def _outer(vectors):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


class TestTruncationTablesMatchLoopReference:
    # noisy releases at c0 = 8 (d = 1: an all-zero proxy, so the tie-break
    # decides) and c0 = 0.01; noiseless releases at c0 = 1e-9, where the proxy
    # is positive on part of the grid and the selection is interior
    @pytest.mark.parametrize(
        "d, n, c0, noise",
        [(1, 2**14, 8.0, True), (1, 2**14, 0.01, True), (2, 1024, 8.0, True), (2, 256, 1e-9, False),
         (3, 64, 8.0, True), (3, 256, 0.01, True), (3, 64, 1e-9, False)],
    )
    def test_exact_tables_and_index(self, d, n, c0, noise):
        cfg = GLConfig(n=n, budget=PrivacyBudget([1.0] * d), c0=c0)
        model = ParetoFactorModel(ks=[4.0] * d, a=[5.0] * d, rho=0.5)
        rng = derive_rng(17, d, n)
        X = sample_heavy_tailed(model, n, rng)
        Zm = release_sample(X, multi_trunc_channels(cfg), rng if noise else ZeroNoiseRng(rng))
        sel = gl_select_truncation(Zm, cfg)
        B, V, index = _reference_truncation_tables(sel.gamma_table, build_truncation_grid(n), cfg)
        assert np.array_equal(sel.B_table, B)
        assert np.array_equal(sel.V_table, V)
        assert sel.index == index


def _reference_bandwidth_tables(pi, grid, cfg, d):
    """The bandwidth selector's (B, V, index) as computed before the shared GL
    core: one m x m broadcast, and the last minimal score (the largest h)."""
    beta = cfg.beta_n()
    denom = cfg.n * float(np.prod(beta**2))
    V = cfg.a_n / (grid ** (2 * d)) / denom
    ar = np.arange(grid.size)
    K = np.maximum(ar[:, None], ar[None, :])
    diff = pi[K] - pi[None, :]
    B = np.maximum(diff * diff - V[None, :], 0.0).max(axis=1)
    score = B + V
    return B, V, int(np.flatnonzero(score == score.min())[-1])


class TestBandwidthTablesMatchLoopReference:
    # c08's density and budget.  Noisy releases at c0 = 2.5 and 1.0 (interior
    # selections) and 0.01 (the finest h); noiseless releases at c0 = 1e-3,
    # where the proxy is positive on part of the grid, and at c0 = 1e298, where
    # penalties near the top of the float range swamp every proxy
    @pytest.mark.parametrize(
        "d, n, c0, noise",
        [(1, 2**14, 2.5, True), (1, 2**14, 0.01, True), (1, 2**14, 1e-3, False), (1, 2**14, 1e298, False),
         (2, 256, 2.5, True), (2, 1024, 1.0, True)],
    )
    def test_exact_tables_and_index(self, d, n, c0, noise):
        cfg = GLConfig(n=n, budget=PrivacyBudget([8.0] * d), c0=c0)
        model = HolderDensityModel(beta=1, d=d, kink_b=0.2)
        rng = derive_rng(19, d, n)
        X = sample_holder_density(model, n, rng)
        chans = multi_bandwidth_channels(cfg, [0.0] * d, make_kernel(0))
        Zm = release_sample(X, chans, rng if noise else ZeroNoiseRng(rng))
        sel = gl_select_bandwidth(Zm, cfg)
        pi = np.prod(Zm.values, axis=1).mean(axis=0)
        B, V, index = _reference_bandwidth_tables(pi, build_bandwidth_grid(n), cfg, d)
        assert np.array_equal(sel.pi_table, pi)
        assert np.array_equal(sel.B_table, B)
        assert np.array_equal(sel.V_table, V)
        assert sel.index == index


def test_gl_ties_go_to_the_largest_preference():
    # every score ties (all inf, or all equal): the tie-break alone decides
    for V in (np.full(4, np.inf), np.ones(4)):
        assert _gl_select(np.zeros(4), V, np.array([2.0, 5.0, 3.0, 1.0]))[0] == (1,)
    assert _gl_select(np.zeros((3, 3)), np.full((3, 3), np.inf), np.arange(9.0).reshape(3, 3))[0] == (2, 2)


class TestSelectBandwidth:
    def test_constant_density_noiseless_selects_largest_h(self):
        # a flat density has no bias at any bandwidth: penalty decides, and the
        # largest h has the smallest penalty
        n = 64
        cfg = GLConfig(n=n, budget=PrivacyBudget([1.0]))
        rng = derive_rng(4, 0)
        X = rng.uniform(-1.0, 1.0, size=(n, 1))
        kernel = make_kernel(0)
        Zm = _noiseless_multi_sample(X, cfg, kind="bw", kernel=kernel)
        sel = gl_select_bandwidth(Zm, cfg)
        grid = build_bandwidth_grid(n)
        assert sel.h_hat == grid[-1] == 1.0
        assert np.all(sel.B_table <= sel.V_table.max())

    def test_penalty_closed_form(self):
        n = 128
        cfg = GLConfig(n=n, budget=PrivacyBudget([0.8]), c0=8.0)
        rng = derive_rng(5, 0)
        X = rng.normal(size=(n, 1))
        Zm = release_sample(X, multi_bandwidth_channels(cfg, [0.0], make_kernel(0)), rng)
        sel = gl_select_bandwidth(Zm, cfg)
        grid = build_bandwidth_grid(n)
        beta = cfg.beta_n()
        for i in range(grid.size):
            expected = cfg.a_n / (n * grid[i] ** 2 * beta[0] ** 2)
            assert sel.V_table[i] == pytest.approx(expected, rel=1e-12)

    def test_selection_near_oracle_bandwidth(self):
        n = 2**14
        budget = PrivacyBudget([0.5])
        cfg = GLConfig(n=n, budget=budget, c0=8.0)
        model = HolderDensityModel(beta=2, d=1)
        h_star = optimal_bandwidth(HolderClass(beta=2.0, d=1), budget, n).h_star
        kernel = make_kernel(1)
        chans = multi_bandwidth_channels(cfg, [0.0], kernel)
        hits = 0
        reps = 100
        for r in range(reps):
            rng = derive_rng(12, r)
            X = sample_holder_density(model, n, rng)
            Zm = release_sample(X, chans, rng)
            sel = gl_select_bandwidth(Zm, cfg)
            if 0.25 * h_star <= sel.h_hat <= 4.0 * h_star:
                hits += 1
        assert hits >= 0.8 * reps
