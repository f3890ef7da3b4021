import collections
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cldp import simdata
from cldp.harness import derive_rng
from cldp.simdata import (
    MODEL_KINDS,
    HolderDensityModel,
    ParetoFactorModel,
    model_from_json,
    sample_heavy_tailed,
    sample_holder_density,
)


class TestParetoFactor:
    def test_determinism(self):
        model = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.4)
        X1 = sample_heavy_tailed(model, 1000, derive_rng(1, 0))
        X2 = sample_heavy_tailed(model, 1000, derive_rng(1, 0))
        assert np.array_equal(X1, X2)

    def test_tail_index_must_exceed_order(self):
        with pytest.raises(ValueError, match="exceed"):
            ParetoFactorModel(ks=[4.0], a=[4.0])

    def test_independent_components_uncorrelated(self):
        model = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.0)
        X = sample_heavy_tailed(model, 400_000, derive_rng(2, 0))
        # correlate bounded transforms to dodge heavy-tail noise
        B = np.tanh(X)
        corr = np.corrcoef(B.T)[0, 1]
        assert abs(corr) < 0.01

    def test_full_coupling_matches_mc_oracle(self):
        model = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=1.0)
        rng = derive_rng(3, 0)
        X = sample_heavy_tailed(model, 10_000_000, rng)
        assert np.array_equal(X[:, 0], X[:, 1])  # symmetric copies at rho = 1
        mc = float(np.prod(X, axis=1).mean())
        assert model.gamma() == pytest.approx(mc, rel=0.05)

    def test_moment_normalization(self):
        model = ParetoFactorModel(ks=[4.0], a=[5.0])
        X = sample_heavy_tailed(model, 1_000_000, derive_rng(4, 0))
        emp = float(np.mean(np.abs(X) ** 4))
        assert emp <= 1.1

    def test_power_coupling_truths(self):
        model = ParetoFactorModel(ks=[4.0, 4.0], a=[4.5, 4.5], coupling="power")
        rng = derive_rng(5, 0)
        X = sample_heavy_tailed(model, 4_000_000, rng)
        assert model.gamma() == pytest.approx(float(np.prod(X, axis=1).mean()), rel=0.02)
        # magnitudes are comonotone and signs shared
        assert np.all(np.sign(X[:, 0]) == np.sign(X[:, 1]))

    def test_one_sided_mean(self):
        model = ParetoFactorModel(ks=[2.0], a=[2.5], coupling="power", symmetric=False)
        X = sample_heavy_tailed(model, 2_000_000, derive_rng(6, 0))
        assert np.all(X > 0)
        assert model.mean(1) == pytest.approx(float(X.mean()), rel=0.02)

    def test_one_sided_mixture_truths(self):
        model = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5, symmetric=False)
        gamma = model.gamma()
        assert model.covariance() == pytest.approx(gamma - model.mean(1) * model.mean(2), rel=1e-12)
        assert 0.0 < model.correlation() < 1.0
        prods = np.prod(sample_heavy_tailed(model, 1_000_000, derive_rng(12, 0)), axis=1)
        se = float(prods.std(ddof=1)) / math.sqrt(prods.size)
        assert abs(float(prods.mean()) - gamma) <= 5.0 * se

    def test_scale_multiplies_moments(self):
        base = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5)
        scaled = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5, scale=3.0)
        assert scaled.gamma() == pytest.approx(9.0 * base.gamma(), rel=1e-12)

    def test_json_roundtrip(self):
        model = ParetoFactorModel(ks=[2.0], a=[2.2], coupling="power", symmetric=False, scale=16.0)
        back = model_from_json(model.to_json())
        assert back == model


class TestHolderDensity:
    def test_peak_value_closed_form(self):
        model = HolderDensityModel(beta=2, d=1, weights=(1.0,), mus=(0.0,), sigmas=(0.7,))
        # symmetric single component: the peak is the normal peak over the box mass
        from scipy.special import ndtr

        z = ndtr(model.box / 0.7) - ndtr(-model.box / 0.7)
        expected = (1.0 / (0.7 * math.sqrt(2 * math.pi))) / z
        assert model.density_at(0.0) == pytest.approx(expected, rel=1e-12)

    def test_histogram_goodness_of_fit(self):
        model = HolderDensityModel(beta=2, d=1)
        rng = derive_rng(7, 0)
        X = sample_holder_density(model, 1_000_000, rng)[:, 0]
        edges = np.linspace(-model.box, model.box, 25)
        counts, _ = np.histogram(X, bins=edges)
        probs = model.axis_bin_mass(edges)
        n = X.size
        for c, p in zip(counts, probs):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(c - n * p) <= 4.0 * sigma

    def test_kinked_density_sampling(self):
        model = HolderDensityModel(beta=1, d=1, kink_b=0.5, kink_weight=0.7)
        rng = derive_rng(8, 0)
        X = sample_holder_density(model, 500_000, rng)[:, 0]
        edges = np.linspace(-model.box, model.box, 19)
        counts, _ = np.histogram(X, bins=edges)
        probs = model.axis_bin_mass(edges)
        for c, p in zip(counts, probs):
            sigma = math.sqrt(X.size * p * (1 - p))
            assert abs(c - X.size * p) <= 4.0 * sigma

    def test_evaluator_integrates_to_one(self):
        for beta in (1, 2):
            model = HolderDensityModel(beta=beta, d=1)
            xs = np.linspace(-model.box, model.box, 200_001)
            mass = float(np.trapezoid(model.density(xs), xs))
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_product_density_d2(self):
        model = HolderDensityModel(beta=2, d=2)
        assert model.density_at([0.0, 0.0]) == pytest.approx(
            HolderDensityModel(beta=2, d=1).density_at(0.0) ** 2, rel=1e-12
        )

    def test_samples_respect_box(self):
        model = HolderDensityModel(beta=2, d=2, box=2.0)
        X = sample_holder_density(model, 10_000, derive_rng(9, 0))
        assert np.max(np.abs(X)) <= 2.0

    def test_unsupported_beta(self):
        with pytest.raises(ValueError, match="smoothness"):
            HolderDensityModel(beta=2.5)


class ZeroStream:
    """A stream whose every uniform is exactly 0.0 and every integer 0."""

    def random(self, size=None):
        return np.zeros(size)

    def integers(self, low, high=None, size=None):
        return np.zeros(size, dtype=np.int64)


class FirstPassOutside:
    """The wrapped stream, except that the first call of each continuous draw lands outside every box."""

    def __init__(self, rng):
        self._rng, self.calls = rng, collections.Counter()

    def __getattr__(self, name):
        draw = getattr(self._rng, name)
        if name not in ("laplace", "normal", "standard_normal"):
            return draw

        def shifted(*args, **kwargs):
            self.calls[name] += 1
            return draw(*args, **kwargs) + (1e6 if self.calls[name] == 1 else 0.0)

        return shifted


# sha256 of the samples' bytes, written before the mixture and beta in {2, 3} samplers were
# redrawn: the power coupling (c07's model among them) and beta = 1 (c08's) keep every byte
SAMPLE_PINS = {
    "power_symmetric_d2": (ParetoFactorModel(ks=[4.0, 4.0], a=[4.5, 4.5], coupling="power"),
                           "ea0272f34f01c3bcb106aaee173fc3714a8af48bb5af65a49e388fd2b8bb859c"),
    "power_c07": (ParetoFactorModel(ks=[2.0], a=[2.1], scale=16.0, coupling="power", symmetric=False),
                  "a651825bba4edf6bf251a0949d5896e9dce535f7f904c211285ff0c5f33232b7"),
    "kink_c08": (HolderDensityModel(beta=1.0, kink_b=0.2),
                 "0a63fa9786bad5324d033ea5d805e73b57536a10e3546bbc6365fd93417f19f4"),
    # box mass about 0.49 per axis: every axis takes several passes
    "kink_d2_box_half": (HolderDensityModel(beta=1.0, d=2, box=0.5),
                         "e8b7b5de740c30e8b6136ed4f4c9f5d2ab2c1b2ec5d827034e44dec36b661330"),
}


def _sample(model, n, rng):
    return (sample_heavy_tailed if isinstance(model, ParetoFactorModel) else sample_holder_density)(model, n, rng)


class TestSamplerLaws:
    """The draws of each sampler branch: byte pins where the layout is kept, laws where it was redrawn."""

    @pytest.mark.parametrize("name", sorted(SAMPLE_PINS))
    def test_kept_branches_keep_their_bytes(self, name):
        model, sha = SAMPLE_PINS[name]
        assert hashlib.sha256(_sample(model, 3000, derive_rng(5, 0)).tobytes()).hexdigest() == sha

    @pytest.mark.parametrize("model", [
        ParetoFactorModel(ks=[2.0, 2.0], a=[3.0, 4.0], rho=rho, symmetric=symmetric)
        for rho in (0.0, 0.5, 1.0) for symmetric in (True, False)
    ] + [ParetoFactorModel(ks=[2.0, 2.0], a=[4.5, 4.5], coupling="power", symmetric=symmetric)
         for symmetric in (True, False)], ids=repr)
    def test_zero_uniforms_give_finite_values(self, model):
        # a uniform of exactly 0 once became 0 ** (-1/a) = inf; the base now lies in (0, 1]
        X = sample_heavy_tailed(model, 8, ZeroStream())
        assert np.all(np.isfinite(X))
        if model.coupling == "power":  # 0 is read as 1: magnitude 1, the sign from integers() 0
            assert np.array_equal(X, np.tile(model.component_scales() * (-1.0 if model.symmetric else 1.0), (8, 1)))

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_pareto_sign_and_magnitude(self, rho, symmetric):
        # axis j is scale_j times the shared value (tail min(a)) at rho = 1 and its own (tail a_j) at rho = 0
        model = ParetoFactorModel(ks=[2.0, 2.0], a=[3.0, 4.0], rho=rho, symmetric=symmetric)
        n = 200_000
        Y = sample_heavy_tailed(model, n, derive_rng(21, int(rho), int(symmetric))) / model.component_scales()
        for j, tail in enumerate(model.a if rho == 0.0 else (model.a_shared,) * 2):
            mag, positive = np.abs(Y[:, j]), Y[:, j] > 0
            assert stats.kstest(tail * np.log(mag), "expon").pvalue > 1e-3
            if not symmetric:
                assert positive.all()
                continue
            assert abs(positive.sum() - n / 2) <= 4.0 * math.sqrt(n / 4)
            assert stats.ks_2samp(mag[positive], mag[~positive]).pvalue > 1e-3

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_pick_rate_and_shared_rows(self, rho):
        n = 200_000
        # equal axes: X^1 = X^2 exactly where both axes picked the shared value, with probability rho^2
        X = sample_heavy_tailed(ParetoFactorModel(ks=[2.0, 2.0], a=[3.0, 3.0], rho=rho), n, derive_rng(22, 0))
        equal = int(np.count_nonzero(X[:, 0] == X[:, 1]))
        assert abs(equal - n * rho**2) <= 4.0 * math.sqrt(n * rho**2 * (1 - rho**2))
        # axis 2 (own tail 4, shared tail 3) is Pareto(3) with probability rho, else Pareto(4)
        model = ParetoFactorModel(ks=[2.0, 2.0], a=[3.0, 4.0], rho=rho)
        mag = np.abs(sample_heavy_tailed(model, n, derive_rng(22, 1))[:, 1] / model.component_scales()[1])
        assert stats.kstest(mag, lambda t: 1.0 - rho * t**-3.0 - (1.0 - rho) * t**-4.0).pvalue > 1e-3

    @pytest.mark.parametrize("rho", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("kw", [
        {"ks": [2.0, 2.0], "a": [3.0, 4.0]},
        {"ks": [2.0, 2.0], "a": [3.0, 4.0], "symmetric": False},
        {"ks": [0.005, 0.005], "a": [0.01, 0.02]},  # tails so heavy that some values are +-inf
    ], ids=repr)
    def test_mixture_pick_equals_np_where(self, rho, kw):
        # the branch-free pick gives np.where's bits on the same stream, signs and infinities included
        model, n = ParetoFactorModel(rho=rho, **kw), 4096
        with np.errstate(over="ignore"):
            got = sample_heavy_tailed(model, n, derive_rng(25, 0))
            rng = derive_rng(25, 0)
            w = simdata._pareto(rng, model.a_shared, n, model.symmetric)
            want = np.empty((n, model.d))
            for j, scale in enumerate(model.component_scales()):
                col = simdata._pareto(rng, model.a[j], n, model.symmetric)
                want[:, j] = np.where(rng.random(n) < rho, w, col) * scale
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if kw["a"][0] < 1.0:
            assert np.isinf(got).any() and not np.isnan(got).any()

    @pytest.mark.parametrize("model", [
        HolderDensityModel(beta=2.0),
        HolderDensityModel(beta=3.0, d=2, box=1.5, weights=(0.5, 0.0, 0.5), mus=(-1.0, 0.0, 1.2),
                           sigmas=(0.4, 1.0, 0.9)),
        HolderDensityModel(beta=2.0, box=0.3, weights=(1.0,), mus=(0.0,), sigmas=(1.0,)),
    ], ids=repr)
    def test_truncated_mixture_bin_masses(self, model):
        n = 200_000
        X = sample_holder_density(model, n, derive_rng(23, 0))
        edges = np.linspace(-model.box, model.box, 31)
        probs = model.axis_bin_mass(edges)
        for j in range(model.d):
            counts, _ = np.histogram(X[:, j], bins=edges)
            assert counts.sum() == n
            assert stats.chisquare(counts, n * probs / probs.sum()).pvalue > 1e-3

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_exactly_n_values_in_the_box(self, beta):
        model = HolderDensityModel(beta=beta, d=2, box=2.0)
        X = sample_holder_density(model, 1, derive_rng(24, 0))
        assert X.shape == (1, 2) and np.all(np.isfinite(X)) and np.all(np.abs(X) <= model.box)
        # the first axis's first pass lands wholly outside the box: it takes a second pass
        rng = FirstPassOutside(derive_rng(24, 1))
        X = sample_holder_density(model, 500, rng)
        assert X.shape == (500, 2) and np.all(np.isfinite(X)) and np.all(np.abs(X) <= model.box)
        assert rng.calls and all(count >= 3 for count in rng.calls.values())

    def test_box_mass_computed_once_per_model(self, monkeypatch):
        calls = []
        norm = HolderDensityModel._axis_norm
        monkeypatch.setattr(HolderDensityModel, "_axis_norm", lambda self: calls.append(self) or norm(self))
        model = HolderDensityModel(beta=2.0, d=2)
        for seed in (1, 2):
            sample_holder_density(model, 100, derive_rng(seed))
        assert len(calls) == 1


class TestNormalCdf:
    """``simdata._ndtr`` (math.erfc per element) against scipy's cephes ``ndtr``."""

    def test_matches_scipy_on_a_grid(self):
        from scipy.special import ndtr

        x = np.linspace(-8.0, 8.0, 20_001)
        np.testing.assert_allclose(simdata._ndtr(x), ndtr(x), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("x", [0.3, np.array(-1.7), np.linspace(-3, 3, 7), np.linspace(-3, 3, 12).reshape(3, 4)])
    def test_keeps_the_shape(self, x):
        from scipy.special import ndtr

        got = simdata._ndtr(x)
        assert got.shape == np.shape(x) and got.dtype == np.float64
        np.testing.assert_allclose(got, ndtr(x), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("beta", [1, 2, 3])
    @pytest.mark.parametrize("kink_b", [0.2, 0.6])
    @pytest.mark.parametrize("box", [2.0, 3.0])
    def test_box_mass_equals_the_scipy_value(self, monkeypatch, beta, kink_b, box):
        # raw CDFs may differ by a few ULP in the lower tail; the difference cancels in hi - lo
        from scipy.special import ndtr

        model = HolderDensityModel(beta=beta, d=1, kink_b=kink_b, box=box)
        norm = model._axis_norm()
        monkeypatch.setattr(simdata, "_ndtr", ndtr)
        assert norm == model._axis_norm()


# the six golden models' to_json() as the hand-written codec wrote it, key order and types included
GOLDEN_MODEL_JSON = [
    (ParetoFactorModel(ks=[4.0], a=[5.0]),
     {"kind": "pareto_factor", "ks": [4.0], "a": [5.0], "rho": 0.0, "scale": 1.0, "coupling": "mixture",
      "symmetric": True}),
    (ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5),
     {"kind": "pareto_factor", "ks": [4.0, 4.0], "a": [5.0, 5.0], "rho": 0.5, "scale": 1.0, "coupling": "mixture",
      "symmetric": True}),
    (ParetoFactorModel(ks=[2.0], a=[2.1], scale=16.0, coupling="power", symmetric=False),
     {"kind": "pareto_factor", "ks": [2.0], "a": [2.1], "rho": 0.0, "scale": 16.0, "coupling": "power",
      "symmetric": False}),
    (ParetoFactorModel(ks=[6.0, 6.0], a=[8.0, 8.0], rho=0.6),
     {"kind": "pareto_factor", "ks": [6.0, 6.0], "a": [8.0, 8.0], "rho": 0.6, "scale": 1.0, "coupling": "mixture",
      "symmetric": True}),
    (HolderDensityModel(beta=2.0),
     {"kind": "holder_density", "beta": 2.0, "d": 1, "box": 3.0, "weights": [0.6, 0.4], "mus": [0.0, 0.8],
      "sigmas": [0.55, 1.1], "kink_b": 0.6, "kink_weight": 0.7}),
    (HolderDensityModel(beta=1.0, kink_b=0.2),
     {"kind": "holder_density", "beta": 1.0, "d": 1, "box": 3.0, "weights": [0.6, 0.4], "mus": [0.0, 0.8],
      "sigmas": [0.55, 1.1], "kink_b": 0.2, "kink_weight": 0.7}),
]


@st.composite
def pareto_models(draw):
    d = draw(st.integers(1, 3))
    ks = draw(st.lists(st.floats(min_value=1.1, max_value=10.0), min_size=d, max_size=d))
    a = [k + draw(st.floats(min_value=0.01, max_value=10.0)) for k in ks]
    power = draw(st.booleans()) and sum(1.0 / x for x in a) < 1.0
    return ParetoFactorModel(
        ks=ks, a=a, rho=draw(st.floats(min_value=0.0, max_value=1.0)),
        scale=draw(st.floats(min_value=1e-3, max_value=1e3)), coupling="power" if power else "mixture",
        symmetric=draw(st.booleans()),
    )


@st.composite
def holder_models(draw):
    m = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=m, max_size=m))
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])  # exact to the ulp
    return HolderDensityModel(
        beta=draw(st.sampled_from([1, 2, 3, 1.0, 2.0, 3.0])), d=draw(st.integers(1, 3)),
        box=draw(st.floats(min_value=0.1, max_value=10.0)), weights=weights,
        mus=draw(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=m, max_size=m)),
        sigmas=draw(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=m, max_size=m)),
        kink_b=draw(st.floats(min_value=0.01, max_value=5.0)),
        kink_weight=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


class TestModelJson:
    @pytest.mark.parametrize("model, want", GOLDEN_MODEL_JSON)
    def test_golden_models_unchanged(self, model, want):
        assert json.dumps(model.to_json()) == json.dumps(want)
        assert model_from_json(want) == model

    @settings(max_examples=100, deadline=None)
    @given(model=st.one_of(pareto_models(), holder_models()))
    def test_roundtrip_both_kinds(self, model):
        back = model_from_json(json.loads(json.dumps(model.to_json(), allow_nan=False)))
        assert back == model
        for f in dataclasses.fields(model):
            assert type(getattr(back, f.name)) is type(getattr(model, f.name))

    def test_kind_table_covers_both_models(self):
        assert MODEL_KINDS == {"pareto_factor": ParetoFactorModel, "holder_density": HolderDensityModel}

    def test_fields_take_their_annotated_types(self):
        model = HolderDensityModel(beta=2, d=np.int64(2), weights=[1], mus=[0], sigmas=np.array([1]))
        assert (model.beta, model.d, model.weights, model.mus, model.sigmas) == (2.0, 2, (1.0,), (0.0,), (1.0,))
        assert type(model.beta) is float and type(model.d) is int and type(model.sigmas[0]) is float
        assert ParetoFactorModel(ks=np.array([4]), a=[5], symmetric=np.bool_(False)).symmetric is False

    @pytest.mark.parametrize("obj, words", [
        ({"kind": "pareto_factor", "ks": [4.0], "a": [5.0], "rh": 0.5}, ["pareto_factor", "unknown", "'rh'"]),
        ({"kind": "pareto_factor", "ks": [4.0]}, ["pareto_factor", "missing", "'a'"]),
        ({"kind": "holder_density", "d": 1}, ["holder_density", "missing", "'beta'"]),
        ({"kind": "holder_density", "beta": 2.0, "kink": 1}, ["holder_density", "unknown", "'kink'"]),
        ({"kind": "discrete_table", "dist": {}}, ["unknown model kind 'discrete_table'"]),
        ({"ks": [4.0], "a": [5.0]}, ["unknown model kind None"]),
    ])
    def test_unknown_and_missing_keys(self, obj, words):
        with pytest.raises(ValueError) as err:
            model_from_json(obj)
        assert all(w in str(err.value) for w in words)


class TestModelChecks:
    """Each malformed field is rejected by the constructor, before any draw."""

    @pytest.mark.parametrize("fields, match", [
        ({"box": -1.0}, "box must be positive"),
        ({"box": math.nan}, "box must be a finite number"),
        ({"weights": (0.5, 0.5), "mus": (0.0,), "sigmas": (1.0, 1.0)}, "one mean and one scale per weight"),
        ({"sigmas": (1.0, 0.0)}, "sigmas must be positive"),
        ({"sigmas": (1.0, -1.0)}, "sigmas must be positive"),
        ({"weights": (1.5, -0.5)}, "weights must be nonnegative"),
        ({"weights": (math.nan, 0.5)}, "weights must be a list of finite numbers"),
        ({"beta": 1.0, "kink_weight": 1.5}, r"kink_weight must lie in \[0, 1\]"),
        ({"beta": 1.0, "kink_b": 0.0}, "kink_b must be positive"),
        ({"d": 1.5}, "d must be an integer"),
        ({"d": math.inf}, "d must be an integer"),
    ])
    def test_holder_density(self, fields, match):
        with pytest.raises(ValueError, match=match):
            HolderDensityModel(**{"beta": 2.0, **fields})

    @pytest.mark.parametrize("fields, match", [
        ({"scale": math.nan}, "scale must be a finite number"),
        ({"a": (math.inf,)}, "a must be a list of finite numbers"),
        ({"ks": (), "a": ()}, "at least one component"),
        ({"ks": (0.0,), "a": (1.0,)}, "moment orders must be positive"),
        ({"symmetric": "false"}, "symmetric must be a boolean"),
    ])
    def test_pareto_factor(self, fields, match):
        with pytest.raises(ValueError, match=match):
            ParetoFactorModel(**{"ks": (4.0,), "a": (5.0,), **fields})
