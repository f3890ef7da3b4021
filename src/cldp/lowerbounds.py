"""Two-point instances behind the minimax lower bounds, plus their verification.

Both constructions produce a pair of laws whose strict-subset marginals agree
exactly, whose targets are separated by a known closed form, and whose
privatized n-sample laws stay close in divergence.  The moment instance is a
rational table and is verified by exact pushforward; the density instance is
continuous and is verified by quadrature only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .channels import PrivacyBudget, make_rr_channel
from .contraction import tensorized_bound
from .estimators import HolderClass, MomentProfile
from .measures import DiscreteDist, divergence, pushforward, tv_distance

__all__ = [
    "MomentInstance",
    "DensityInstance",
    "moment_two_point",
    "density_two_point",
    "verify_two_point",
    "TwoPointReport",
    "check_moment_instance",
    "check_density_instance",
    "smooth_bump",
    "zero_mean_bump",
]


@dataclass(frozen=True, eq=False)
class MomentInstance:
    """The discrete pair of ``moment_two_point``: delta is the corner mass its budget sets."""

    separation: float
    kl_budget: float
    P: DiscreteDist
    P_star: DiscreteDist
    delta: float
    budget: PrivacyBudget


@dataclass(frozen=True, eq=False)
class DensityInstance:
    """The pair of ``density_two_point``: bump height 1/M_n and width h_n, envelope sharpness eta."""

    separation: float
    kl_budget: float
    M_n: float
    h_n: float
    density: Callable
    density_star: Callable
    holder: HolderClass
    eta: float


def moment_two_point(profile: MomentProfile, budget: PrivacyBudget, n: int) -> MomentInstance:
    """Discrete pair with equal sub-marginals and separated product moments.

    P keeps mass 1 - delta at the origin and spreads delta uniformly over the
    2^d sign corners (+- delta^(-1/k_j) per axis); P* perturbs each corner by
    (delta/2) 2^(-d) prod_j a_j.  With delta = (2 n prod |e^a_j - 1|^2)^(-1/2),
    the n-sample divergence budget evaluates to 1/8.
    """
    d = profile.d
    if budget.d != d:
        raise ValueError("budget dimension does not match profile")
    contrast = float(np.prod(np.abs(budget.exp_minus_one()) ** 2))
    if n * contrast < 1.0:
        raise ValueError("regime violated: n prod |e^a - 1|^2 must be >= 1")
    delta = (2.0 * n * contrast) ** -0.5
    ks = profile.ks

    supports = [np.array([-delta ** (-1.0 / k), 0.0, delta ** (-1.0 / k)]) for k in ks]
    shape = (3,) * d
    p = np.zeros(shape)
    p[(1,) * d] = 1.0 - delta  # index 1 is the origin on each axis
    h = np.zeros(shape)
    for corner in itertools.product((0, 2), repeat=d):
        signs = [1 if c == 2 else -1 for c in corner]
        p[corner] = delta / 2.0**d
        h[corner] = (delta / 2.0) * (1.0 / 2.0**d) * float(np.prod(signs))
    P = DiscreteDist(supports, p)
    P_star = DiscreteDist(supports, p + h)
    separation = 0.5 * delta ** (1.0 - sum(1.0 / k for k in ks))
    return MomentInstance(separation=separation, kl_budget=0.125, P=P, P_star=P_star, delta=delta, budget=budget)


# ---------------------------------------------------------------------------
# smooth bumps and quadrature
# ---------------------------------------------------------------------------


def smooth_bump(x: np.ndarray) -> np.ndarray:
    """The standard C-infinity bump exp(-1/(1-x^2)) on (-1, 1), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


def zero_mean_bump(x) -> np.ndarray:
    """C-infinity, support [-1, 1], value 1 at 0, integral 0.

    Built as 2e * b(2x) - e * b(x) where b is the standard bump: the narrow
    copy carries the peak, the wide copy removes the mass.
    """
    x = np.asarray(x, dtype=float)
    e = math.e
    out = 2.0 * e * smooth_bump(2.0 * x) - e * smooth_bump(x)
    return out


def _gauss_panels(f: Callable, a: float, b: float, panels: int = 40, nodes: int = 24) -> float:
    """Composite Gauss-Legendre quadrature of f over [a, b]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * float(np.sum(w * f(mid + half * x)))
    return total


def density_two_point(
    hc: HolderClass,
    budget: PrivacyBudget,
    n: int,
    eps0: float = 1.9,
    c_k: float = 4.0,
) -> DensityInstance:
    """Gaussian-envelope density plus a product bump of height 1/M_n.

    h_n = (1/M_n)^(1/beta) keeps the perturbed density in the smoothness class;
    1/M_n = (eps0 / (c_k n prod |e^a_j - 1|^2))^(beta/(2(d + beta))) keeps the
    n-sample divergence below eps0.  The separation at the origin is exactly
    1/M_n.  The constant c_k is not pinned by theory and is exposed here.

    The envelope sharpness eta is the smallest value on a dyadic ladder that
    keeps the perturbed density nonnegative (small bumps on a too-flat
    envelope would dip below zero).
    """
    if not (0.0 < eps0 < 2.0):
        raise ValueError("eps0 must lie in (0, 2)")
    if not (c_k > 0 and math.isfinite(c_k)):
        raise ValueError(f"c_k must be positive and finite, got {c_k!r}")
    d = hc.d
    if budget.d != d:
        raise ValueError("budget dimension does not match class")
    contrast = float(np.prod(np.abs(budget.exp_minus_one()) ** 2))
    inv_M = (eps0 / (c_k * n * contrast)) ** (hc.beta / (2.0 * (d + hc.beta)))
    M_n = 1.0 / inv_M
    h_n = inv_M ** (1.0 / hc.beta)
    if h_n >= 1.0:
        raise ValueError("regime violated: h_n >= 1 (n too small)")

    bump_grid = np.linspace(-1.0, 1.0, 4001)
    bump_vals = zero_mean_bump(bump_grid)
    # most negative product over the box: one negative axis, the rest at the peak
    prod_min = float(bump_vals.min()) * float(bump_vals.max()) ** (d - 1)
    eta = 0.05
    while eta <= 16.0:
        c_pi = (eta / math.pi) ** (d / 2.0)
        # envelope minimum over the bump box [-h_n, h_n]^d
        envelope_min = c_pi * math.exp(-eta * d * h_n * h_n)
        if envelope_min + inv_M * prod_min >= 0.0:
            break
        eta *= 2.0
    else:
        raise ValueError("no envelope sharpness keeps the perturbed density nonnegative")
    c_pi = (eta / math.pi) ** (d / 2.0)

    def density(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return c_pi * np.exp(-eta * np.sum(x * x, axis=1))

    def density_star(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        bump = np.prod(zero_mean_bump(x / h_n), axis=1)
        return density(x) + inv_M * bump

    return DensityInstance(separation=inv_M, kl_budget=eps0, M_n=M_n, h_n=h_n, density=density,
                           density_star=density_star, holder=hc, eta=eta)


def bump_axis_integral(inst: DensityInstance) -> float:
    """Quadrature of the zero-mean bump along one axis (should vanish)."""
    return _gauss_panels(zero_mean_bump, -1.0, 1.0, panels=80, nodes=32)


def density_star_mass_and_min(inst: DensityInstance) -> tuple[float, float]:
    """Total mass of the perturbed density by tensorized quadrature over [-25, 25]^d,
    and its minimum over a dense grid spanning the bump region."""
    d = inst.holder.d
    eta = inst.eta
    # per-axis quadrature factorization: envelope part is a product of 1-d
    # integrals, the bump part integrates to 0 along any axis
    g = _gauss_panels(lambda u: np.exp(-eta * u * u), -25.0, 25.0, panels=120, nodes=32)
    c_pi = (eta / math.pi) ** (d / 2.0)
    envelope_mass = c_pi * g**d
    bump_axis = _gauss_panels(lambda u: zero_mean_bump(u / inst.h_n), -1.0, 1.0, panels=120, nodes=32)
    mass = envelope_mass + (1.0 / inst.M_n) * bump_axis**d
    per_axis = {1: 2001, 2: 201}.get(d, 41)
    axes = [np.linspace(-1.05, 1.05, per_axis)] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    dens_min = float(np.min(inst.density_star(pts)))
    return mass, dens_min


def check_density_instance(inst: DensityInstance) -> dict:
    """The density instance's checks, JSON-ready: the perturbed density has mass
    1 (to 1e-6) and is nonnegative (to -1e-12), and the bump integrates to 0
    along an axis (to 1e-8)."""
    mass, dmin = density_star_mass_and_min(inst)
    bump = bump_axis_integral(inst)
    return {
        "M_n": inst.M_n,
        "h_n": inst.h_n,
        "separation": inst.separation,
        "mass": mass,
        "min_density": dmin,
        "bump_axis_integral": bump,
        "ok": abs(mass - 1.0) <= 1e-6 and dmin >= -1e-12 and abs(bump) <= 1e-8,
    }


@dataclass(frozen=True)
class TwoPointReport:
    per_sample_jeffreys: float
    n_times_jeffreys: float
    bound: float
    condition3_ok: bool

    def to_json(self) -> dict:
        return asdict(self)


def verify_two_point(inst: MomentInstance, channels, n: int) -> TwoPointReport:
    """Check the divergence budget of the moment instance by exact pushforward.

    The iid tensorized divergence equals n times the per-sample value, which is
    compared against n (prod (e^a - 1))^2 tv^2, which may not exceed the
    instance's budget (1/8 at the construction's delta).
    """
    if isinstance(inst, DensityInstance):
        raise ValueError("use quadrature report instead")
    M = pushforward(inst.P, channels)
    M_star = pushforward(inst.P_star, channels)
    per = divergence(M, M_star, "jeffreys")
    tv = tv_distance(inst.P, inst.P_star)
    budget = PrivacyBudget([ch.alpha for ch in channels])
    inner = float(np.prod(budget.exp_minus_one())) * tv
    bound = tensorized_bound(inner, n)
    return TwoPointReport(
        per_sample_jeffreys=per,
        n_times_jeffreys=n * per,
        bound=bound,
        condition3_ok=(n * per <= bound + 1e-9) and (bound <= inst.kl_budget + 1e-9),
    )


def default_moment_channels(inst: MomentInstance):
    """Randomized-response channels on the instance's 3-point supports."""
    return tuple(
        make_rr_channel(tuple(sup), float(a))
        for sup, a in zip(inst.P.supports, inst.budget.alphas)
    )


def check_moment_instance(inst: MomentInstance, n: int) -> dict:
    """The moment instance's divergence-budget check through the default
    randomized-response channels, JSON-ready."""
    report = verify_two_point(inst, default_moment_channels(inst), n)
    return {"delta": inst.delta, "separation": inst.separation, **report.to_json()}
