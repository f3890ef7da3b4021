"""Locally private estimators and their rate-driven tuning formulas.

Estimators are exact arithmetic means over released values and are pure over
immutable samples.  Monte Carlo replication (in the harness) parallelizes per
replication with derived RNG streams, so outputs are bit-identical for any
parallelism degree.

Rate constants depend on unknown true moments, so acceptance checks fit
log-log slopes and never match constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .channels import (
    KernelLaplaceChannel,
    LaplaceTruncChannel,
    PrivacyBudget,
    kernel_order,
    make_kernel,
    release_array,
)
from .rules import INT, POSITIVE, POSITIVE_FINITE, at_least, check_fields, checked, each, rule

__all__ = [
    "MomentProfile",
    "PrivatizedSample",
    "HolderClass",
    "optimal_truncations",
    "private_mean",
    "private_joint_moment",
    "private_covariance_correlation",
    "covariance_correlation",
    "CovCorrEstimate",
    "corr_release_plan",
    "private_kde",
    "optimal_bandwidth",
    "BandwidthChoice",
    "release_sample",
    "RegimeError",
]


class RegimeError(ValueError):
    """No rate-optimal tuning exists at this sample size: the grid point is
    outside the rate statement's regime, not a malformed input."""


@dataclass(frozen=True)
class MomentProfile:
    """Finite-moment orders k_j > 1 per component, with sum 1/k_j < 1."""

    ks: tuple[float, ...] = rule(each(POSITIVE))

    def __post_init__(self):
        check_fields(self)
        if sum(1.0 / k for k in self.ks) >= 1.0:  # for positive orders, every k_j > 1 follows
            raise ValueError(f"sum of 1/k_j must be < 1, so every k_j must exceed 1, got {self.ks!r}")

    @property
    def d(self) -> int:
        return len(self.ks)


@dataclass(frozen=True)
class HolderClass:
    beta: float = rule(POSITIVE_FINITE)
    d: int = rule(INT, at_least(1), default=1)

    __post_init__ = check_fields


@dataclass(frozen=True, eq=False)
class PrivatizedSample:
    """Released values: (n, d) matrix, or (n, d, m) tensor in multi-level mode."""

    values: np.ndarray
    channels: tuple

    def __post_init__(self):
        # the sample keeps its own copy, so later writes to the caller's array cannot reach it
        self._hold(np.array(self.values, dtype=float, order="C"), self.channels)

    @classmethod
    def _take(cls, values: np.ndarray, channels) -> "PrivatizedSample":
        """A sample over ``values`` without the copy: for a fresh release nothing else holds."""
        sample = object.__new__(cls)
        sample._hold(values, channels)
        return sample

    def _hold(self, v: np.ndarray, channels) -> None:
        if v.ndim not in (2, 3):
            raise ValueError("values must be (n, d) or (n, d, m)")
        if v.shape[1] != len(channels):
            raise ValueError("one channel per column required")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "channels", tuple(channels))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def multi_level(self) -> bool:
        return self.values.ndim == 3


def release_sample(X: np.ndarray, channels, rng) -> PrivatizedSample:
    """The ``release_array`` of an (n, d) raw matrix through per-column channels, which the sample
    takes over: a fixed stream state yields a fixed sample."""
    return PrivatizedSample._take(release_array(X, channels, rng), channels)


def optimal_truncations(
    profile: MomentProfile, budget: PrivacyBudget, n: int, mode: str = "joint"
) -> np.ndarray:
    """Rate-optimal clamp levels.

    mode="mean":  T_j = (n alpha_j^2)^(1/(2 k_j))   (per-component mean estimation)
    mode="joint": T_j = (n prod_l alpha_l^2)^(1/(2 k_j))
    """
    checked("n", n, [at_least(1)])
    if budget.d != profile.d:
        raise ValueError("budget dimension does not match profile")
    if mode == "mean":
        base = n * np.square(np.asarray(budget.alphas))
    elif mode == "joint":
        base = np.full(profile.d, n * budget.prod_alpha_sq())
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _clamp_levels(base, profile.ks)


def _clamp_levels(base: np.ndarray, ks) -> np.ndarray:
    """Per-axis clamp levels base_j^(1/(2 k_j)) from effective sample sizes base_j >= 1."""
    if np.any(base < 1.0):
        raise RegimeError("regime violated: effective sample size below 1")
    return base ** (1.0 / (2.0 * np.asarray(ks)))


def private_mean(Z: PrivatizedSample, j: int) -> float:
    """Arithmetic mean of released column j (1-based)."""
    if Z.n == 0:
        raise ValueError("empty sample")
    if not (1 <= j <= Z.d):
        raise ValueError(f"column {j} out of range for d={Z.d}")
    if Z.multi_level:
        raise ValueError("multi-level samples need a selected level first")
    return float(Z.values[:, j - 1].mean())


def private_joint_moment(Z: PrivatizedSample) -> float:
    """Mean of row products over all d released columns."""
    if Z.n == 0:
        raise ValueError("empty sample")
    if Z.multi_level:
        raise ValueError("multi-level samples need a selected level first")
    # the columns multiplied left to right: the bits of np.prod(axis=1), without its per-row loop
    return float(functools.reduce(np.multiply, Z.values.T).mean())


@dataclass(frozen=True)
class CovCorrEstimate:
    theta: float
    corr: Optional[float]
    corr_defined: bool
    diagnostic: Optional[str] = None

    def to_json(self) -> dict:
        return asdict(self)


def private_covariance_correlation(
    Z: PrivatizedSample, Z2: Optional[PrivatizedSample] = None
) -> CovCorrEstimate:
    """``covariance_correlation`` of the means of one set of releases (d=2) and, when ``Z2``
    (releases of the squared components through their own channels) is given, of its means.

    The same releases feed the joint moment and both means: disclosing a second
    tuned release per raw value would spend extra budget.
    """
    if Z.d != 2:
        raise ValueError("covariance estimation requires d=2")
    means = (private_mean(Z, 1), private_mean(Z, 2), private_joint_moment(Z))
    if Z2 is None:
        return covariance_correlation(*means)
    if Z2.d != 2 or Z2.n != Z.n:
        raise ValueError("second-moment releases must be (n, 2)")
    return covariance_correlation(*means, private_mean(Z2, 1), private_mean(Z2, 2))


def covariance_correlation(m1: float, m2: float, gamma: float, sq1: Optional[float] = None,
                           sq2: Optional[float] = None) -> CovCorrEstimate:
    """Covariance gamma - m1 m2 of release means; given the squared components' means sq_j, the
    correlation clipped to [-1, 1], or ``corr=None`` with a diagnostic where sq_j - m_j^2 <= 0."""
    theta = gamma - m1 * m2
    if sq1 is None:
        return CovCorrEstimate(theta, None, False, None)
    v1 = sq1 - m1 * m1
    v2 = sq2 - m2 * m2
    if v1 <= 0.0 or v2 <= 0.0:
        return CovCorrEstimate(theta, None, False, "nonpositive variance estimate")
    corr = float(np.clip(theta / math.sqrt(v1 * v2), -1.0, 1.0))
    return CovCorrEstimate(theta, corr, True, None)


def corr_release_plan(profile: MomentProfile, budget: PrivacyBudget, n: int):
    """Channels for correlation: raw values and squared values, half budget each.

    |X^j|^2 has k_j/2 finite moments, so its clamp level uses the mean-mode
    formula at order k_j/2.  Halving each component's budget keeps the total
    disclosure per raw value at alpha_j.
    """
    if profile.d != 2:
        raise ValueError("correlation plan requires d=2")
    if any(k <= 2 for k in profile.ks):
        raise ValueError("correlation requires k_j > 2")
    half = PrivacyBudget([a / 2.0 for a in budget.alphas])
    t_raw = optimal_truncations(profile, half, n, mode="joint")
    # |X^j|^2 has k_j/2 finite moments and is estimated per axis (mean mode)
    t_sq = _clamp_levels(n * np.square(np.asarray(half.alphas)), [k / 2.0 for k in profile.ks])
    chans_raw = tuple(LaplaceTruncChannel(T=float(t), alpha=a) for t, a in zip(t_raw, half.alphas))
    chans_sq = tuple(LaplaceTruncChannel(T=float(t), alpha=a) for t, a in zip(t_sq, half.alphas))
    return chans_raw, chans_sq


def private_kde(Z: PrivatizedSample) -> float:
    """Density estimate at the point (x0_1, ..., x0_d) of the channels: mean of row products of kernel releases.

    May be negative because of the injected noise; values are returned raw and
    clipping at zero is left to the presentation layer.
    """
    if Z.n == 0:
        raise ValueError("empty sample")
    if Z.multi_level:
        raise ValueError("multi-level samples need a selected level first")
    hs = set()
    for ch in Z.channels:
        if not isinstance(ch, KernelLaplaceChannel):
            raise ValueError("private_kde expects kernel-laplace channels")
        hs.add(ch.h)
    if len(hs) != 1:
        raise ValueError("mismatched bandwidths across columns")
    # the columns multiplied left to right: the bits of np.prod(axis=1), without its per-row loop
    return float(functools.reduce(np.multiply, Z.values.T).mean())


@dataclass(frozen=True)
class BandwidthChoice:
    h_star: float
    regime: str  # "private" | "nonprivate"


def _bandwidth_regime(hc: HolderClass, budget: PrivacyBudget, n: int) -> str:
    """The regime: "nonprivate" for a common level alpha at or above n^(1/(2(2 beta + d))), else "private"."""
    checked("n", n, [at_least(1)])
    if budget.d != hc.d:
        raise ValueError("budget dimension does not match class")
    alphas = np.asarray(budget.alphas)
    threshold = n ** (1.0 / (2.0 * (2.0 * hc.beta + hc.d)))
    return "nonprivate" if np.all(alphas == alphas[0]) and alphas[0] >= threshold else "private"


def optimal_bandwidth(hc: HolderClass, budget: PrivacyBudget, n: int) -> BandwidthChoice:
    """Rate-optimal bandwidth with the privacy-threshold regime switch.

    With a common level alpha at or above n^(1/(2(2 beta + d))) the noise is too
    weak to change the rate and the classical bandwidth n^(-1/(2 beta + d))
    applies; otherwise (and always for unequal levels) the private bandwidth
    (n prod alpha_j^2)^(-1/(2(beta + d))) is used.
    """
    regime = _bandwidth_regime(hc, budget, n)
    if regime == "nonprivate":
        h = n ** (-1.0 / (2.0 * hc.beta + hc.d))
    else:
        base = n * budget.prod_alpha_sq()
        if base <= 1.0:
            raise RegimeError("sample too small: private bandwidth would reach 1")
        h = base ** (-1.0 / (2.0 * (hc.beta + hc.d)))
    if h >= 1.0:
        raise RegimeError("sample too small: bandwidth >= 1")
    return BandwidthChoice(h_star=float(h), regime=regime)


def kde_channels(hc: HolderClass, budget: PrivacyBudget, x0: Sequence[float], h: float):
    """Per-axis kernel-Laplace channels sharing (h, x0) and the kernel of the class's order."""
    kernel = make_kernel(kernel_order(hc.beta))
    x0 = np.asarray(x0, dtype=float)
    if x0.size != hc.d:
        raise ValueError("x0 dimension does not match class")
    return tuple(
        KernelLaplaceChannel(h=float(h), x0=float(x0[j]), kernel=kernel, alpha=float(budget.alphas[j]))
        for j in range(hc.d)
    )
