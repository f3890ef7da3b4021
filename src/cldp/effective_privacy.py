"""How much one raw component leaks through the other components' channels.

The leakage of component 1 through the full release vector is bounded by
exp(alpha_1 + alpha_max * (d - 1) * Delta_ind), where Delta_ind is the worst
total variation between the conditional laws of (X^2, ..., X^d) given two
values of X^1.  The bound is vacuous as alpha_max grows; the brute-force audit
here exists precisely to report the true finite leakage alongside it.

The audits go through the exact pushforward of ``measures``: m(z | X^1 = x1)
is built once for every x1 from the transition rows matched to P's supports.

Audits run on stacks of laws of one support shape: the conditional laws,
Delta_ind, the release law and the worst ratio take the whole stack along a
leading axis, and the bound and verdict follow per instance.
``leakage_report`` is a stack of one.  The randomized sweep of ``cldp report``
is ``contraction.rr_sweep`` with ``_leakage_stack`` as its check: instance i
draws from its own stream (seed, 202, i), and its reports are those of
instance-by-instance audits, byte for byte and in instance order.

Pure functions over immutable inputs; thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import audit_verdict
from .contraction import Sweep, rr_sweep
from .measures import DiscreteDist, finite_axes, push_axes, stack_rows, support_index

__all__ = [
    "LeakageProfile",
    "delta_ind",
    "effective_level",
    "misprediction_floor",
    "audit_marginal_leakage",
    "conditional_release_density",
    "leakage_report",
    "run_leakage_sweep",
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
    return _delta_inds(_conditional_laws(P.supports[0][None], P.probs[None]))[0]


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


def _conditional_laws(x1s: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The law of (X^2, ..., X^d) given X^1 = x1 for every x1 of each table in a stack
    (B, s_1, ...), each x1 of positive mass; ``x1s`` holds the (B, s_1) axis-1 supports."""
    m1 = P.sum(axis=tuple(range(2, P.ndim)))
    zero = m1 <= 0.0
    if np.any(zero):
        b, i = np.argwhere(zero)[0]
        raise ValueError(f"zero-mass conditioning point x1={x1s[b, i]!r}")
    return P / m1.reshape(m1.shape + (1,) * (P.ndim - 2))


def _delta_inds(cond: np.ndarray) -> list[float]:
    """Delta_ind of each stack of conditional laws (B, s_1, ...): the largest L1 distance
    between two of its x1 rows, each summed over the row's contiguous cells."""
    B, s1 = cond.shape[:2]
    rows = cond.reshape(B, s1, 1, -1)
    dlt = np.abs(rows - rows.reshape(B, 1, s1, -1)).sum(axis=-1).max(axis=(1, 2))
    bad = ~((dlt >= 0.0) & (dlt <= 2.0 + 1e-12))
    if np.any(bad):
        raise ValueError(f"delta_ind out of [0, 2]: {float(dlt[bad][0])}")
    return dlt.tolist()


def _release_given_x1(cond: np.ndarray, rows) -> np.ndarray:
    """m(z | X^1 = x1) for every x1 of each law in a stack, shape (B, s_1, k_1, ..., k_d),
    from the conditional laws (B, s_1, ...) and each axis's stacked transition rows."""
    # x1 moves to the back, so it is the leading axis once the others are contracted
    rest = push_axes(np.moveaxis(cond, 1, -1), rows[1:])  # (B, x1, z2, ..., zd)
    return rows[0].reshape(rows[0].shape + (1,) * (cond.ndim - 2)) * rest[:, :, None]


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """max over the last axis of num/den, where 0/0 reads 1 and x/0 reads inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((num == 0) & (den == 0), 1.0, num / den).max(axis=-1)


def _release_law(P: DiscreteDist, channels) -> np.ndarray:
    """m(z | X^1 = x1) for every x1 of one law: axis 0 is x1, then one axis per release component."""
    rows = stack_rows([s[None] for s in P.supports], finite_axes(P, channels))
    return _release_given_x1(_conditional_laws(P.supports[0][None], P.probs[None]), rows)[0]


def conditional_release_density(P: DiscreteDist, channels, x1) -> np.ndarray:
    """m(z | X^1 = x1) as a dense table over the product output alphabet: the
    pushforward of the law of X given X^1 = x1 through finite channels."""
    return _release_law(P, channels)[support_index(P.supports[0], x1, "the axis-1 support")]


def audit_marginal_leakage(P: DiscreteDist, channels, x1, x1p) -> float:
    """Exact sup over z of m(z|X^1=x1) / m(z|X^1=x1'), finite channels."""
    m = _release_law(P, channels)
    i, j = support_index(P.supports[0], [x1, x1p], "the axis-1 support")
    return float(_sup_ratio(m[i].ravel(), m[j].ravel()))


def leakage_report(P: DiscreteDist, channels) -> dict:
    """Worst-pair audit plus the closed-form bound, JSON-ready: the stacked audit on a
    stack of one."""
    axes = finite_axes(P, channels)
    alphas = [tuple(ch.alpha for ch in channels)]
    return _leakage_stack([s[None] for s in P.supports], P.probs[None], axes, alphas)[0]


def _leakage_stack(supports, P: np.ndarray, axes, alphas) -> list[dict]:
    """``leakage_report`` on B instances of one support shape at once: ``supports`` holds
    one (B, s_j) array per axis, ``P`` the (B, s_1, ..., s_d) mass tables, ``axes`` one
    (tables (B, m, k), inputs (B, m), outputs (B, k)) channel stack per axis and
    ``alphas`` one tuple per instance.  Every check of the instance-by-instance audit
    runs on the whole stack; the bound and the verdict follow per instance."""
    B, d = P.shape[0], P.ndim - 1
    cond = _conditional_laws(supports[0], P)
    deltas = _delta_inds(cond)  # 0.0 at d = 1, where each conditional law is one cell of mass 1
    if np.any(np.array(alphas, dtype=float) < 0):
        raise ValueError("privacy levels must be nonnegative")
    m = _release_given_x1(cond, stack_rows(supports, axes)).reshape(B, P.shape[1], -1)  # (B, x1, z)
    # every ordered pair at once; a pair (x1, x1) reads 1, the floor of the sup
    worsts = _sup_ratio(m[:, :, None], m[:, None, :]).max(axis=(1, 2)).tolist()
    reports = []
    for a, dlt, worst in zip(alphas, deltas, worsts):
        prof = effective_level(a[0], max(a[1:]) if d > 1 else 0.0, d, dlt)
        bound, ok = audit_verdict(worst, prof.effective_alpha)
        reports.append({
            "delta_ind": dlt,
            "effective_alpha": prof.effective_alpha,
            "audited_sup": worst,
            "floor": misprediction_floor(math.log(worst) if worst >= 1.0 else 0.0),
            "bound": bound,
            "violation": not ok,
        })
    return reports


def _draw_instance(rng):
    """The draws of one sweep instance, in stream order: d in {2, 3}, 2 or 3 sorted
    support points per axis, a Gamma(1) table plus 1e-3 divided by its total once
    (the audit divides once more) and alpha_j uniform on [0.1, 1.5]."""
    d = int(rng.choice((2, 3)))
    sizes = [int(rng.integers(2, 4)) for _ in range(d)]
    supports = [np.sort(rng.normal(size=s) * 1.5) for s in sizes]
    raw = rng.gamma(1.0, 1.0, size=tuple(sizes)) + 1e-3
    return supports, raw / raw.sum(), rng.uniform(0.1, 1.5, size=d)


def run_leakage_sweep(seed: int = 7, instances: int = 200) -> dict:
    """The leakage suite of ``cldp report``: ``leakage_report`` of random joint laws
    through randomized response, JSON-ready.  Instance i draws from the stream
    (seed, 202, i); the instances of each support shape are audited as one stack and
    reported in instance order."""
    Sweep(seed, instances)
    reports = rr_sweep((seed, 202), instances, _draw_instance, _leakage_stack)
    violations = sum(rep["violation"] for rep in reports)
    return {"suite": "leakage", "seed": seed, "instances": instances, "violations": violations, "reports": reports}
