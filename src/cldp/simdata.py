"""Synthetic raw-data generators with known ground truths.

Heavy-tailed vectors come from a shared-factor mixture of sign-symmetric
Pareto variables, which keeps every cross moment in closed form; densities come
from box-truncated mixtures with exact evaluators.  Ground truths (gamma,
covariance, correlation, pi(x0)) are closed-form and cached on the model, so
MSE experiments always score against a stable target.

Each model field declares its rules (``cldp.rules``): its type as the CLI
parses it, then its range; the model then checks what ties fields together.

Sampling is deterministic given (seed, n): generators consume an explicit RNG
stream and nothing else, in this order.  Mixture coupling: with rho > 0 n shared
values, then per axis n own values and, with rho > 0, n uniforms U (U < rho takes
the shared value); one uniform U gives a one-sided value (1 - U)^(-1/a), or, with
s = 2U - 1 + 2^-53 (symmetric about 0, never 0), the sign of s times |s|^(-1/a).
Power coupling: n uniforms U (0 read as 1), then if symmetric n signs from
``integers(0, 2)``; axis j is sign * U^(-1/a_j).  Holder densities go axis by
axis, in passes until n values lie in the box; a pass draws uniforms, then as
many Laplace and normal values (beta = 1: 1.4 w + 16 for w values still wanted,
U < kink_weight takes the Laplace) or standard normals Z (beta 2, 3: sized from
the box mass; the component is the count of cumulative weights <= U; mu + sigma Z).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .rules import (
    BOOL, CLOSED_UNIT, FLOAT, FLOATS, INT, NONNEGATIVE, POSITIVE_FINITE, at_least, check_fields, check_keys, each,
    one_of, rule,
)

__all__ = [
    "ParetoFactorModel",
    "HolderDensityModel",
    "MODEL_KINDS",
    "sample_heavy_tailed",
    "sample_holder_density",
    "model_from_json",
]


def _to_json(model) -> dict:
    """The model's kind plus its fields, tuples as lists."""
    kind = next(k for k, cls in MODEL_KINDS.items() if type(model) is cls)
    out = {"kind": kind}
    for f in fields(model):
        value = getattr(model, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


@dataclass(frozen=True)
class ParetoFactorModel:
    """Sign-symmetric Pareto components coupled through a shared factor.

    coupling="mixture": component j equals scale_j * (I_j W + (1 - I_j) V_j)
    where W and the V_j are sign-symmetric Pareto variables (tail indices
    min(a) and a_j) and I_j ~ Bernoulli(rho) are independent.

    coupling="power": component j equals scale_j * sign * U^(1/a_j) for one
    shared Pareto(1) magnitude U and one shared sign.  Marginals are exactly
    sign-symmetric Pareto(a_j); the extremes are comonotone, which realizes
    the worst-case truncation-bias decay for the product moment (the mixture
    coupling cannot: its cross bias is governed by the shared factor's own
    tail, which the moment class forces to be light).  ``rho`` is ignored.

    symmetric=False drops the random sign and keeps raw magnitudes, giving a
    positive heavy tail: a symmetric law has zero truncation bias for the
    mean, which makes it useless for exercising truncation tuning at d=1.

    At scale=1 the per-axis scales are chosen so E|X^j|^{k_j} = 1 exactly;
    ``scale`` multiplies all components.
    """

    ks: tuple[float, ...] = rule(FLOATS, each(POSITIVE_FINITE), name="moment orders")
    a: tuple[float, ...] = rule(FLOATS)
    rho: float = rule(FLOAT, CLOSED_UNIT, default=0.0)
    scale: float = rule(FLOAT, POSITIVE_FINITE, default=1.0)
    coupling: str = rule(one_of("mixture", "power"), default="mixture")
    symmetric: bool = rule(BOOL, default=True)

    def __post_init__(self):
        check_fields(self)
        if not len(self.a) == len(self.ks) >= 1:
            raise ValueError("need at least one component and one tail index per component")
        for aj, kj in zip(self.a, self.ks):
            if aj <= kj:
                raise ValueError(f"tail index {aj} must exceed moment order {kj}")
        if self.coupling == "power" and sum(1.0 / x for x in self.a) >= 1.0:
            raise ValueError("power coupling needs sum 1/a_j < 1 for a finite product moment")

    to_json = _to_json

    @property
    def d(self) -> int:
        return len(self.ks)

    @property
    def a_shared(self) -> float:
        return min(self.a)

    def _abs_moment(self, tail: float, order: float) -> float:
        # E |Pareto(tail)|^order for unit-scale magnitude >= 1
        if order >= tail:
            raise ValueError("moment of this order is infinite")
        return tail / (tail - order)

    def component_scales(self) -> np.ndarray:
        """Per-axis scales making E|X^j|^{k_j} = scale^{k_j} at the given scale."""
        return np.asarray([self.scale * self._axis_abs_moment(j, k) ** (-1.0 / k) for j, k in enumerate(self.ks)])

    def _axis_abs_moment(self, j: int, order: float) -> float:
        """E |U_j|^order for the unit-scale magnitude U_j of axis j (0-based)."""
        if self.coupling == "power":
            return self._abs_moment(self.a[j], order)
        return self.rho * self._abs_moment(self.a_shared, order) + (1.0 - self.rho) * self._abs_moment(self.a[j], order)

    # --- exact ground truths ---

    def mean(self, j: int) -> float:
        if self.symmetric:
            return 0.0
        return float(self.component_scales()[j - 1]) * self._axis_abs_moment(j - 1, 1.0)

    def gamma(self) -> float:
        """E prod_j X^j; zero for odd d under sign symmetry."""
        if self.symmetric and self.d % 2 == 1:
            return 0.0
        s = self.component_scales()
        if self.coupling == "power":
            # E U^p for U ~ Pareto(1) is 1/(1 - p), here p = sum 1/a_j < 1
            p = sum(1.0 / aj for aj in self.a)
            return float(np.prod(s)) / (1.0 - p)
        if self.symmetric:
            return float(np.prod(s)) * self.rho**self.d * self._abs_moment(self.a_shared, self.d)
        # asymmetric mixture: sum over which components picked the shared factor
        total = 0.0
        for picks in itertools.product((0, 1), repeat=self.d):
            w = 1.0
            shared_count = sum(picks)
            for j, p_j in enumerate(picks):
                w *= self.rho if p_j else (1.0 - self.rho)
                if not p_j:
                    w *= self._abs_moment(self.a[j], 1.0)
            if shared_count:
                w *= self._abs_moment(self.a_shared, float(shared_count))
            total += w
        return float(np.prod(s)) * total

    def variance(self, j: int) -> float:
        s = self.component_scales()[j - 1]
        return s * s * self._axis_abs_moment(j - 1, 2.0) - self.mean(j) ** 2

    def covariance(self) -> float:
        if self.d != 2:
            raise ValueError("covariance defined for d=2")
        return self.gamma() - self.mean(1) * self.mean(2)

    def correlation(self) -> float:
        if self.d != 2:
            raise ValueError("correlation defined for d=2")
        return self.covariance() / math.sqrt(self.variance(1) * self.variance(2))

def _pareto(rng, tail: float, n: int, symmetric: bool) -> np.ndarray:
    """n Pareto(tail) values of magnitude >= 1, one uniform U each (see the module docstring)."""
    u = rng.random(n)
    if not symmetric:
        return np.power(np.subtract(1.0, u, out=u), -1.0 / tail, out=u)
    u *= 2.0
    u -= 1.0 - 2.0**-53  # exact: s = 2U - 1 + 2^-53, an odd multiple of 2^-53 in (-1, 1)
    return np.copysign(np.power(np.abs(u), -1.0 / tail), u, out=u)


def _keep_else(col: np.ndarray, keep: np.ndarray, w: np.ndarray) -> None:
    """col = np.where(keep, col, w) in place, bit for bit and infinities included,
    without np.where's branch per value, which mispredicts on a random mask."""
    mask = keep.astype(np.uint64)
    np.negative(mask, out=mask)  # all 64 bits set where col keeps its value
    bits, w_bits = col.view(np.uint64), w.view(np.uint64)
    bits ^= w_bits
    bits &= mask
    bits ^= w_bits


def sample_heavy_tailed(model: ParetoFactorModel, n: int, rng) -> np.ndarray:
    """(n, d) iid rows from the shared-factor Pareto model."""
    if n < 1:
        raise ValueError("n must be >= 1")
    X = np.empty((n, model.d))
    if model.coupling == "power":
        u = rng.random(n)  # U = u^-1 ~ Pareto(1)
        u[u == 0.0] = 1.0  # u in (0, 1], the law of 1 - u
        sign = rng.integers(0, 2, size=n) * 2.0 - 1.0 if model.symmetric else np.ones(n)
        for j in range(model.d):
            X[:, j] = sign * u ** (-1.0 / model.a[j])
        return X * model.component_scales()
    w = _pareto(rng, model.a_shared, n, model.symmetric) if model.rho > 0 else None
    for j, scale in enumerate(model.component_scales()):
        col = _pareto(rng, model.a[j], n, model.symmetric)
        if w is not None:  # U < rho takes the shared value
            _keep_else(col, rng.random(n) >= model.rho, w)
        np.multiply(col, scale, out=X[:, j])
    return X


def _ndtr(x) -> np.ndarray:
    """Standard normal CDF elementwise, from ``math.erfc``, in the shape of ``x``.

    numpy has no erfc ufunc, and a numpy approximation would not be
    bit-stable; with one ``math.erfc`` call per element the box masses of the
    pinned models equal the cephes ``ndtr`` values bit for bit.
    """
    a = np.asarray(x, dtype=float)
    vals = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in a.ravel().tolist()]
    return np.array(vals, dtype=float).reshape(a.shape)


@dataclass(frozen=True)
class HolderDensityModel:
    """Box-truncated product density with an exact evaluator.

    beta=1 uses a double-exponential (kinked) peak mixed with a wide Gaussian
    background, so the smoothness class membership is tight at the peak; a pure
    Gaussian mixture is infinitely smooth and its kernel bias would decay
    faster than the beta=1 rate.  beta in {2, 3} uses Gaussian mixtures.
    """

    beta: float = rule(FLOAT, one_of(1.0, 2.0, 3.0), name="smoothness order beta")
    d: int = rule(INT, at_least(1), default=1)
    box: float = rule(FLOAT, POSITIVE_FINITE, default=3.0)
    # Gaussian mixture parameters (beta 2 or 3)
    weights: tuple[float, ...] = rule(FLOATS, each(NONNEGATIVE), default=(0.6, 0.4))
    mus: tuple[float, ...] = rule(FLOATS, default=(0.0, 0.8))
    sigmas: tuple[float, ...] = rule(FLOATS, each(POSITIVE_FINITE), default=(0.55, 1.1))
    # kink parameters (beta 1): peak weight and its scale
    kink_b: float = rule(FLOAT, POSITIVE_FINITE, default=0.6)
    kink_weight: float = rule(FLOAT, CLOSED_UNIT, default=0.7)

    def __post_init__(self):
        check_fields(self)
        if not (len(self.weights) == len(self.mus) == len(self.sigmas)):
            raise ValueError("need one mean and one scale per weight")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")

    to_json = _to_json

    # --- 1-d building blocks (product across axes) ---

    def _axis_density_raw(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if int(self.beta) == 1:
            peak = (1.0 / (2.0 * self.kink_b)) * np.exp(-np.abs(x) / self.kink_b)
            bg_sigma = 1.2
            bg = np.exp(-0.5 * (x / bg_sigma) ** 2) / (bg_sigma * math.sqrt(2 * math.pi))
            return self.kink_weight * peak + (1.0 - self.kink_weight) * bg
        dens = np.zeros_like(x)
        for w, mu, s in zip(self.weights, self.mus, self.sigmas):
            dens += w * np.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        return dens

    def _axis_cdf_raw(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if int(self.beta) == 1:
            lap = np.where(x < 0, 0.5 * np.exp(x / self.kink_b), 1.0 - 0.5 * np.exp(-x / self.kink_b))
            bg = _ndtr(x / 1.2)
            return self.kink_weight * lap + (1.0 - self.kink_weight) * bg
        cdf = np.zeros_like(x)
        for w, mu, s in zip(self.weights, self.mus, self.sigmas):
            cdf += w * _ndtr((x - mu) / s)
        return cdf

    def _axis_norm(self) -> float:
        lo, hi = self._axis_cdf_raw(np.array([-self.box, self.box]))
        return float(hi - lo)

    def density(self, x) -> np.ndarray:
        """Exact truncated density at points of shape (n, d) (or (n,) when d=1)."""
        pts = np.asarray(x, dtype=float).reshape(-1, self.d)
        inside = np.all(np.abs(pts) <= self.box, axis=1)
        per_axis = self._axis_density_raw(pts) / self._axis_norm()
        return np.where(inside, np.prod(per_axis, axis=1), 0.0)

    def density_at(self, x0) -> float:
        return float(self.density(x0)[0])

    def axis_bin_mass(self, edges: np.ndarray) -> np.ndarray:
        """Exact per-bin probabilities on one axis (for goodness-of-fit tests)."""
        edges = np.clip(np.asarray(edges, dtype=float), -self.box, self.box)
        cdf = self._axis_cdf_raw(edges)
        return np.diff(cdf) / self._axis_norm()

    @functools.cached_property
    def _mixture(self) -> tuple:
        """The beta 2, 3 sampler's constants: cumulative weights but the last, mus, sigmas, box mass."""
        return np.cumsum(self.weights)[:-1], np.asarray(self.mus), np.asarray(self.sigmas), self._axis_norm()

    def _sample_axis(self, n: int, rng) -> np.ndarray:
        parts, kept = [], 0
        while kept < n:
            want = n - kept
            if int(self.beta) == 1:
                draw = int(want * 1.4) + 16
                pick = rng.random(draw) < self.kink_weight
                vals = np.where(pick, rng.laplace(0.0, self.kink_b, size=draw), rng.normal(0.0, 1.2, size=draw))
            else:
                cuts, mus, sigmas, mass = self._mixture
                # kept on average: want + 4 sqrt(want), so a second pass is rare; the harness refuses a mass < 0.01
                draw = int((want + 4.0 * math.sqrt(want)) / max(mass, 0.01)) + 16
                u = rng.random(draw)
                comp = sum((u >= cut for cut in cuts), np.zeros(draw, dtype=np.intp))  # searchsorted(cuts, u, "right")
                vals = mus.take(comp) + sigmas.take(comp) * rng.standard_normal(draw)
            parts.append(vals[np.abs(vals) <= self.box])
            kept += parts[-1].size
        return np.concatenate(parts)[:n]

def sample_holder_density(model: HolderDensityModel, n: int, rng) -> np.ndarray:
    """(n, d) iid rows from the truncated product density."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.stack([model._sample_axis(n, rng) for _ in range(model.d)], axis=1)


MODEL_KINDS = {"pareto_factor": ParetoFactorModel, "holder_density": HolderDensityModel}


def model_from_json(obj):
    """Model from its ``to_json`` form; a missing field takes the class's default.  An unknown
    kind, or a key its class lacks or needs, raises a ValueError naming the kind and the keys."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls, spec = MODEL_KINDS[kind], {key: value for key, value in obj.items() if key != "kind"}
    check_keys(f"{kind} model", spec, {f.name: f for f in fields(cls)})
    return cls(**spec)
