"""How much one raw component leaks through the other components' channels.

The leakage of component 1 through the full release vector is bounded by
exp(alpha_1 + alpha_max * (d - 1) * Delta_ind), where Delta_ind is the worst
total variation between the conditional laws of (X^2, ..., X^d) given two
values of X^1.  The bound is vacuous as alpha_max grows; the brute-force audit
here exists precisely to report the true finite leakage alongside it.

The audits go through the exact pushforward of ``measures``: m(z | X^1 = x1)
is built once for every x1 from the transition rows matched to P's supports.

Pure functions over immutable inputs; thread-safe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import audit_verdict
from .measures import DiscreteDist, push_axes, support_index, transition_rows

__all__ = [
    "LeakageProfile",
    "delta_ind",
    "effective_level",
    "misprediction_floor",
    "audit_marginal_leakage",
    "conditional_release_density",
]


@dataclass(frozen=True)
class LeakageProfile:
    alpha1: float
    alpha_max: float
    d: int
    delta_ind: float
    effective_alpha: float

    def __post_init__(self):
        if not (0.0 <= self.delta_ind <= 2.0 + 1e-12):
            raise ValueError(f"delta_ind out of [0, 2]: {self.delta_ind}")


def delta_ind(P: DiscreteDist) -> float:
    """Sup over pairs (x1, x1') of d_TV between conditional laws of the rest.

    Exact on the finite support; 0 iff X^1 is independent of the others.
    Conditioning points must carry positive marginal mass.
    """
    if P.d < 2:
        return 0.0
    pairs = itertools.combinations(_conditional_law(P), 2)
    return max((float(np.abs(a - b).sum()) for a, b in pairs), default=0.0)


def effective_level(alpha1: float, alpha_max: float, d: int, delta: float) -> LeakageProfile:
    """Exponent alpha_1 + alpha_max (d-1) Delta_ind bounding leakage about X^1."""
    if alpha1 < 0 or alpha_max < 0:
        raise ValueError("privacy levels must be nonnegative")
    if d < 1:
        raise ValueError("d must be >= 1")
    eff = alpha1 + alpha_max * (d - 1) * delta
    return LeakageProfile(alpha1, alpha_max, d, delta, eff)


def misprediction_floor(alpha: float) -> float:
    """Minimal average error of any binary test on an alpha-private view: 1/(1+e^a)."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return 1.0 / (1.0 + math.exp(alpha))


def _conditional_law(P: DiscreteDist) -> np.ndarray:
    """The law of (X^2, ..., X^d) given X^1 = x1 for every x1 (axis 0), each of positive mass."""
    m1 = P.probs.sum(axis=tuple(range(1, P.d)))
    if np.any(m1 <= 0.0):
        bad = P.supports[0][np.flatnonzero(m1 <= 0.0)[0]]
        raise ValueError(f"zero-mass conditioning point x1={bad!r}")
    return P.probs / m1.reshape((-1,) + (1,) * (P.d - 1))


def _release_given_x1(P: DiscreteDist, channels) -> np.ndarray:
    """m(z | X^1 = x1) for every x1: axis 0 is x1, then one axis per release component."""
    rows = transition_rows(P, channels)
    # x1 moves to the back, so it is the leading axis once the others are contracted
    cond = np.moveaxis(_conditional_law(P), 0, -1)
    rest = push_axes(cond[None], [t[None] for t in rows[1:]])[0]  # (x1, z2, ..., zd)
    return rows[0].reshape(rows[0].shape + (1,) * (P.d - 1)) * rest[:, None]


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """max over the last axis of num/den, where 0/0 reads 1 and x/0 reads inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((num == 0) & (den == 0), 1.0, num / den).max(axis=-1)


def conditional_release_density(P: DiscreteDist, channels, x1) -> np.ndarray:
    """m(z | X^1 = x1) as a dense table over the product output alphabet: the
    pushforward of the law of X given X^1 = x1 through finite channels."""
    return _release_given_x1(P, channels)[support_index(P.supports[0], x1, "the axis-1 support")]


def audit_marginal_leakage(P: DiscreteDist, channels, x1, x1p) -> float:
    """Exact sup over z of m(z|X^1=x1) / m(z|X^1=x1'), finite channels."""
    m = _release_given_x1(P, channels)
    i, j = support_index(P.supports[0], [x1, x1p], "the axis-1 support")
    return float(_sup_ratio(m[i].ravel(), m[j].ravel()))


def leakage_report(P: DiscreteDist, channels) -> dict:
    """Worst-pair audit plus the closed-form bound, JSON-ready."""
    alphas = [ch.alpha for ch in channels]
    alpha_max = max(alphas[1:]) if len(alphas) > 1 else 0.0
    dlt = delta_ind(P)
    prof = effective_level(alphas[0], alpha_max, P.d, dlt)
    m = _release_given_x1(P, channels).reshape(len(P.supports[0]), -1)  # (x1, z)
    # every ordered pair at once; a pair (x1, x1) reads 1, the floor of the sup
    worst = float(_sup_ratio(m[:, None], m[None, :]).max())
    bound, ok = audit_verdict(worst, prof.effective_alpha)
    return {
        "delta_ind": dlt,
        "effective_alpha": prof.effective_alpha,
        "audited_sup": worst,
        "floor": misprediction_floor(math.log(worst) if worst >= 1.0 else 0.0),
        "bound": bound,
        "violation": not ok,
    }
