"""Tests of the benchmark's reference computations and checks.

    python3 -m pytest perfbench -q

Each reference is compared with something computed another way (quadrature,
a direct numpy simulation, or cldp itself), and each check is shown to fail
on a deliberate error.
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import quad

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference as ref  # noqa: E402
import workloads as wls  # noqa: E402
from cldp import adaptive as ad  # noqa: E402
from cldp.channels import PrivacyBudget, make_kernel, privacy_audit  # noqa: E402
from cldp.estimators import PrivatizedSample  # noqa: E402
from cldp.harness import run_verification_suite  # noqa: E402


# truncation selection on three axes: the selector's Python loop over m^(2d) pairs
PARETO_D3 = {"kind": "pareto_factor", "ks": [4.0, 4.0, 4.0], "a": [5.0, 5.0, 5.0], "rho": 0.0,
             "scale": 1.0, "coupling": "power", "symmetric": False}


def _z(samples, expected):
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    if se == 0.0:  # a clamp below the scale makes the sample constant
        return 0.0 if math.isclose(samples[0], expected, rel_tol=1e-12) else math.inf
    return (samples.mean() - expected) / se


# --- closed forms against quadrature and simulation ---------------------------


@pytest.mark.parametrize("factors", [
    [(2.0, 1 / 2.1, 50.0, 2)],
    [(0.7, 0.2, 3.0, 1)],
    [(2.0, 0.2, 3.0, 2), (1.5, 0.2, 4.0, 2)],
    [(1.0, 0.2, 0.5, 1), (1.0, 0.25, 9.0, 1)],  # first factor clamped from u = 1
])
def test_clipped_power_moment_matches_quadrature(factors):
    def integrand(u):
        return np.prod([min(s * u**p, T) ** q for s, p, T, q in factors]) / u**2

    want = quad(integrand, 1, np.inf, limit=500, epsabs=0, epsrel=1e-11)[0]
    assert ref.clipped_power_moment(factors) == pytest.approx(want, rel=1e-8)


def _sample_pareto(spec, rows, rng):
    """Direct numpy sampler written from the model's documented definition."""
    s = ref.pareto_scales(spec)
    d = len(s)
    if spec["coupling"] == "power":
        u = rng.random(rows)
        sign = rng.choice([-1.0, 1.0], rows) if spec["symmetric"] else np.ones(rows)
        return np.stack([sign * u ** (-1.0 / a) for a in spec["a"]], axis=-1) * s
    a_sh = min(spec["a"])
    w = rng.random(rows) ** (-1.0 / a_sh) * rng.choice([-1.0, 1.0], rows)
    cols = []
    for j in range(d):
        v = rng.random(rows) ** (-1.0 / spec["a"][j]) * rng.choice([-1.0, 1.0], rows)
        cols.append(np.where(rng.random(rows) < spec["rho"], w, v))
    return np.stack(cols, axis=-1) * s


def _simulated_sq_errors(mode, n, reps, rng, noise_factor=1.0):
    _, spec, alphas, options = next(s for s in wls.FixedRates.specs if s[0] == mode)
    if mode == "kde":
        h = ref.private_bandwidth(options["beta"], alphas, n)
        x = np.empty(0)
        while x.size < reps * n:  # rejection sampling of the box-truncated mixture
            comp = rng.random(2 * reps * n) < spec["weights"][0]
            draw = np.where(comp, rng.normal(spec["mus"][0], spec["sigmas"][0], comp.size),
                            rng.normal(spec["mus"][1], spec["sigmas"][1], comp.size))
            x = np.concatenate([x, draw[np.abs(draw) <= spec["box"]]])
        clean = (np.abs(x[: reps * n]) <= h) / (2.0 * h)
        z = clean + rng.laplace(0.0, noise_factor * ref.kernel_scale(h, alphas[0]), clean.size)
        est = z.reshape(reps, n).mean(axis=1)
        return (est - ref.holder_truth(spec, 0.0)) ** 2
    X = _sample_pareto(spec, reps * n, rng)
    if mode == "mean":
        Ts = [ref.mean_truncation(options["ks"][0], alphas[0], n)]
    else:
        Ts = ref.joint_truncations(options["ks"], alphas, n)
    Z = np.ones(reps * n)
    for j, (T, a) in enumerate(zip(Ts, alphas)):
        Z *= np.clip(X[:, j], -T, T) + rng.laplace(0.0, noise_factor * ref.trunc_scale(T, a), reps * n)
    est = Z.reshape(reps, n).mean(axis=1)
    return (est - ref.pareto_truth(spec)) ** 2


@pytest.mark.parametrize("mode", ["mean", "moment", "kde"])
def test_closed_form_mse_matches_simulation(mode):
    n, reps = 1024, 3000
    want = wls.FixedRates(0).expected_mse(mode, n)
    rng = np.random.default_rng(5)
    assert abs(_z(_simulated_sq_errors(mode, n, reps, rng), want)) < wls.Z_MSE
    # deliberate error: the simulation doubles the Laplace scale
    assert abs(_z(_simulated_sq_errors(mode, n, reps, rng, noise_factor=2.0), want)) > wls.Z_MSE


def test_clip_moments_match_simulation():
    rng = np.random.default_rng(6)
    for spec in (wls.PARETO_MEAN, PARETO_D3, wls.PARETO_C07):
        X = _sample_pareto(spec, 1_000_000, rng)[:, 0]
        for T in (0.5, 4.0, 64.0):
            for q in (1, 2):
                assert abs(_z(np.clip(X, -T, T) ** q, ref.pareto_clip_moment(spec, 0, T, q))) < 5
    # deliberate error: the reference at half the clamp level
    assert abs(_z(np.clip(X, -4.0, 4.0), ref.pareto_clip_moment(wls.PARETO_C07, 0, 2.0, 1))) > 5


def test_cross_moments_match_simulation():
    spec, T1, T2 = wls.PARETO_MOMENT, 1.5, 2.5
    X = _sample_pareto(spec, 2_000_000, np.random.default_rng(7))
    c = np.clip(X[:, 0], -T1, T1) * np.clip(X[:, 1], -T2, T2)
    m11, m22 = ref.pareto_cross_moments(spec, T1, T2)
    assert abs(_z(c, m11)) < 5 and abs(_z(c * c, m22)) < 5
    assert abs(_z(c, ref.pareto_cross_moments({**spec, "rho": 0.25}, T1, T2)[0])) > 5  # wrong coupling weight


def test_holder_mass_matches_quadrature():
    for spec in (wls.HOLDER_C08, wls.HOLDER_KDE):
        total = quad(lambda x: ref._holder_raw_density(spec, x), -spec["box"], spec["box"], epsrel=1e-12)[0]
        part = quad(lambda x: ref._holder_raw_density(spec, x), -0.3, 0.5, points=[0.0], epsrel=1e-12)[0]
        assert ref.holder_mass(spec, -0.3, 0.5) == pytest.approx(part / total, rel=1e-9)
        assert ref.holder_truth(spec, 0.0) == pytest.approx(ref._holder_raw_density(spec, 0.0) / total, rel=1e-9)


# --- GL selectors against cldp.adaptive ----------------------------------------


def _random_releases(rng, n, d, m, spread):
    return rng.normal(size=(n, d, m)) * spread + rng.normal(size=(1, d, m))


@pytest.mark.parametrize("d", [1, 3])
def test_truncation_selector_matches_program(d):
    n, c0 = (64, 1e-5) if d == 3 else (4096, 0.05)
    m = int(math.log2(n))
    cfg = ad.GLConfig(n=n, budget=PrivacyBudget([1.0] * d), c0=c0)
    channels = ad.multi_trunc_channels(cfg)
    rng = np.random.default_rng(d)
    chosen = set()
    for _ in range(8):
        values = _random_releases(rng, n, d, m, spread=3.0)
        sel = ad.gl_select_truncation(PrivatizedSample(values, channels), cfg)
        index, score, table = ref.gl_truncation(values, n, [1.0] * d, c0)
        assert ref.selection_agrees(sel.index, index, score)
        assert float(table[sel.index]) == pytest.approx(sel.gamma_hat, rel=1e-9)
        chosen.add(index)
    assert len(chosen) > 1  # the inputs exercise more than the tie-break


def test_bandwidth_selector_matches_program():
    n, c0 = 4096, 0.02
    grid_len = len(ref.bandwidth_grid(n))
    cfg = ad.GLConfig(n=n, budget=PrivacyBudget([1.0]), c0=c0)
    channels = ad.multi_bandwidth_channels(cfg, [0.0], make_kernel(0))
    rng = np.random.default_rng(3)
    for _ in range(8):
        values = _random_releases(rng, n, 1, grid_len, spread=2.0)
        sel = ad.gl_select_bandwidth(PrivatizedSample(values, channels), cfg)
        index, score, _ = ref.gl_bandwidth(values, n, [1.0], c0)
        assert ref.selection_agrees(sel.index, index, score)


class _SmallD1(wls.AdaptiveD1):
    n_grid = (256, 1024)
    replications = 2


class _SmallD3(wls.AdaptiveD1):
    specs = [("adaptive_moment", PARETO_D3, (1.0, 1.0, 1.0), {"c0": 12.0})]
    n_grid = (64,)
    replications = 3


@pytest.fixture(scope="module")
def small_adaptive():
    runs = []
    for cls in (_SmallD1, _SmallD3):
        wl = cls(11)
        wl.setup()
        runs.append((wl, wl.run_round()))
    return runs


def test_adaptive_checks_pass(small_adaptive):
    for wl, out in small_adaptive:
        failures, margins = wl.check(out)
        assert failures == [], failures
        assert margins["release_mean_max_abs_z"] < wls.Z_RELEASE


def test_adaptive_check_flags_finer_auxiliary_scale(small_adaptive, monkeypatch):
    # deliberate error: auxiliary estimates at the finer of the two scales
    pairs = ref._coarse_pairs

    def finer_pairs(m, d):
        I, J, _ = pairs(m, d)
        return I, J, [np.minimum(i, j) for i, j in zip(I, J)]

    monkeypatch.setattr(ref, "_coarse_pairs", finer_pairs)
    failures = [f for wl, out in small_adaptive for f in wl.check(out)[0]]
    assert any("reference" in f for f in failures)


def test_adaptive_check_flags_doubled_kernel_mean(small_adaptive, monkeypatch):
    # deliberate error: a kernel that integrates to 2
    box = ref.box_release_moments
    monkeypatch.setattr(ref, "box_release_moments", lambda *a: (2.0 * box(*a)[0], box(*a)[1]))
    wl, out = small_adaptive[0]
    assert any("release mean" in f for f in wl.check(out)[0])


# --- verification suites -------------------------------------------------------


def test_contraction_recomputation_matches_and_flags_doubled_alpha(monkeypatch):
    wl = wls.VerifyReport(7)
    wl.contraction_sample = 3
    _, report = run_verification_suite("contraction", seed=7, instances=30)
    assert wl._contraction_error(report) < wls.REL_TOL
    rr = ref.rr_matrix
    monkeypatch.setattr(ref, "rr_matrix", lambda m, alpha: rr(m, 2.0 * alpha))
    assert wl._contraction_error(report) > wls.REL_TOL


def test_leakage_recomputation_matches_and_flags_doubled_alpha(monkeypatch):
    wl = wls.VerifyReport(7)
    code, report = run_verification_suite("leakage", seed=7, instances=20)
    assert code == 0 and wl._leakage_check(code, report)[0] == []
    rr = ref.rr_matrix
    monkeypatch.setattr(ref, "rr_matrix", lambda m, alpha: rr(m, 2.0 * alpha))
    assert any("differ from the report" in f for f in wl._leakage_check(code, report)[0])


def test_leakage_fault_is_counted_failed_not_incorrect(monkeypatch):
    wl = wls.VerifyReport(7)
    code, report = run_verification_suite("leakage", seed=wls.LEAKAGE_FAULT_SEED)
    failures, margins = wl._leakage_check(code, report)
    assert code == 1 and failures == [] and margins["leakage_violations_at"] == [8]
    assert margins["leakage_max_exact_over_bound"] > 1.0 + 1e-9
    bound = ref.leakage_bound
    monkeypatch.setattr(ref, "leakage_bound", lambda p, a: 1.01 * bound(p, a))  # deliberate error
    assert any("exceeds the bound at" in f for f in wl._leakage_check(code, report)[0])


def test_multi_level_audit_closed_form(monkeypatch):
    sup = wls.VerifyReport._multi_level_sup
    for n, alpha in ((16, 0.8), (32, 0.5)):
        glc = ad.GLConfig(n=n, budget=PrivacyBudget([alpha]))
        trunc = privacy_audit(ad.multi_trunc_channels(glc)[0]).max_ratio
        band = privacy_audit(ad.multi_bandwidth_channels(glc, [0.0], make_kernel(1))[0]).max_ratio
        assert trunc == pytest.approx(sup("multi_trunc", n, alpha), rel=1e-9)
        assert band == pytest.approx(sup("multi_bandwidth", n, alpha), rel=1e-9)
        with monkeypatch.context() as mp:  # deliberate error: noise scale T/level
            mp.setattr(ref, "trunc_scale", lambda T, level: T / level)
            assert trunc != pytest.approx(sup("multi_trunc", n, alpha), rel=1e-3)


# --- fixed-tuning sweeps -------------------------------------------------------


class _SmallFixed(wls.FixedRates):
    n_grid = (1024, 2048)
    replications = 60


def test_fixed_rates_check_passes_and_flags_doubled_noise(monkeypatch):
    wl = _SmallFixed(3)
    wl.setup()
    out = wl.run_round()
    failures, margins = wl.check(out)
    assert failures == [] and margins["csv_identical_across_workers"]
    scale = ref.trunc_scale
    monkeypatch.setattr(ref, "trunc_scale", lambda T, level: 2.0 * scale(T, level))
    assert any("standard errors" in f for f in wl.check(out)[0])


# --- tracing -------------------------------------------------------------------


def test_tracer_counts_draws_from_release_shapes():
    from tracing import Tracer

    wl = _SmallD1(2)
    wl.setup()
    with Tracer() as tracer:
        wl.run_round(tracer)
    totals = tracer.layer_totals(0)
    draws = sum(n * len(ref.dyadic_levels(n) if mode == "adaptive_moment" else ref.bandwidth_grid(n))
                for mode, *_ in wl.specs for n in wl.n_grid) * wl.replications
    assert totals["channels.laplace_draws"] == draws
    assert totals["harness.oracle_draws"] == draws  # one full-budget table per replication
    assert 0 < totals["channels.release_s"] < totals["harness.replication_s"]
