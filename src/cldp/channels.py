"""Privacy channels: construction, sampling, auditing.

Laplace parameterization: L(b) has density (1/(2b)) exp(-|x|/b).  The four
Laplace-type channels share one release, z = c(x) + b L(1), drawn once per
component (per grid level for multi-level channels), where c is a bounded
clean map and b = 2 sup|c| / level: the clamp to [-T, T] with b = 2T/level, or
(1/h) K((x - x0)/h) with b = 2 kappa/(h level).  The conditional density is
q(z|x) = (1/(2b)) exp(-|z - c(x)|/b), so sup_z q(z|x)/q(z|x') = exp(|c(x) - c(x')|/b)
and the audit is the closed form exp(range(c)/b) per level.

Channel specs are immutable and shareable.  ``privatize`` takes an explicit
per-call RNG stream (no ambient randomness): identical stream state implies an
identical release, which is the contract the experiment harness relies on for
determinism under any parallelism degree.

Every release draws its unit Laplace noise as copysign(E, U - 0.5): an Exp(1)
magnitude E with an independent fair sign, which is L(1) in law and costs
no logarithm per value, unlike numpy's ``laplace``.  For one shape all of E is
drawn first, then all of U, from the same stream.  A release
of fewer than 2^17 values (a scalar ``privatize`` included) draws from the
stream it is given.  A larger one draws one key from that stream, and its row
block b draws from a stream of its own, spawned from the key and b; the blocks
are filled on every CPU the process may use, and which thread fills which block
changes no byte.  There is no setting for it.  ``row_blocks`` cuts the rows
into blocks and runs them, and ``block_streams`` names each block's stream;
every release is one pass through them, ``release_rows``, which hands each
block's clean maps and releases to a caller: ``release_array`` writes them into
one fresh array, and the harness sums them.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import math
import os
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from numpy.polynomial import legendre

from .measures import support_index
from .rules import (
    FINITE, NONNEGATIVE, OPEN_UNIT, POSITIVE, POSITIVE_FINITE, UNIT, at_least, check_fields, check_keys, checked, each,
    rule,
)

__all__ = [
    "PrivacyBudget",
    "KernelFn",
    "make_kernel",
    "kernel_order",
    "LaplaceTruncChannel",
    "KernelLaplaceChannel",
    "MultiTruncChannel",
    "MultiBandwidthChannel",
    "RandomizedResponseChannel",
    "make_rr_channel",
    "make_identity_channel",
    "make_constant_channel",
    "privatize",
    "privacy_audit",
    "audit_verdict",
    "compose_ldp_level",
    "AuditResult",
    "channel_to_json",
    "channel_from_json",
    "derive_rng",
    "release_rows",
    "release_array",
    "ZeroNoiseRng",
]


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic stream for (master seed, stream index...)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-component privacy levels alpha = (alpha_1, ..., alpha_d), in nats."""

    alphas: tuple[float, ...] = rule(each(NONNEGATIVE))

    __post_init__ = check_fields

    @property
    def d(self) -> int:
        return len(self.alphas)

    def exp_minus_one(self) -> np.ndarray:
        """e^{alpha_j} - 1 per component."""
        return np.expm1(np.asarray(self.alphas))

    def total(self) -> float:
        """Sum of the component levels (the induced joint LDP level)."""
        return float(sum(self.alphas))

    def prod_alpha_sq(self) -> float:
        """prod_j alpha_j^2, the effective-sample-size multiplier."""
        return float(np.prod(np.square(np.asarray(self.alphas))))


def compose_ldp_level(budget: PrivacyBudget) -> float:
    """LDP level of the product channel acting on the whole vector."""
    return budget.total()


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def kernel_order(beta: float) -> int:
    """Largest integer strictly below beta (the smoothness-class derivative count).

    For beta = 2 this is 1: the class only controls derivatives of order < beta,
    so the matching kernel must keep the beta-th moment free for the bias to
    attain the h^beta law.
    """
    checked("beta", beta, [POSITIVE])
    return int(math.ceil(beta)) - 1


@dataclass(frozen=True)
class KernelFn:
    """A kernel on [-1, 1] with vanishing moments 1..order and sup bound kappa."""

    order: int
    kappa: float
    coeffs: tuple[float, ...] = ()  # monomial coefficients, low to high degree

    def __call__(self, u):
        """K(u), and 0 off [-1, 1] (NaN included): the kernel map at x0 = 0, h = 1."""
        return kernel_clean(self, u, 0.0, 1.0)

    def moment(self, l: int, nodes: int = 64) -> float:
        """Quadrature of K(u) u^l over [-1, 1] (exact for polynomial kernels)."""
        x, w = legendre.leggauss(nodes)
        return float(np.sum(w * self(x) * x**l))


@functools.cache
def make_kernel(order: int) -> KernelFn:
    """Polynomial kernel on [-1, 1] with integral 1 and moments 1..order zero.

    Built as the minimal-degree combination of Legendre polynomials solving the
    moment constraints; the sup bound is computed exactly from the polynomial's
    critical points.  One kernel is built per order and shared: it is frozen.
    """
    checked("order", order, [at_least(0)])
    m = order  # polynomial degree
    # moment matrix A[l, k] = integral of P_k(u) u^l over [-1, 1]
    A = np.zeros((m + 1, m + 1))
    for k in range(m + 1):
        ck = np.zeros(k + 1)
        ck[k] = 1.0
        poly = legendre.leg2poly(ck)  # monomial coefficients of P_k
        for l in range(m + 1):
            # integral of u^(l + j) over [-1,1]
            A[l, k] = sum(
                c * ((1.0 - (-1.0) ** (l + j + 1)) / (l + j + 1)) for j, c in enumerate(poly)
            )
    b = np.zeros(m + 1)
    b[0] = 1.0
    leg_coeffs = np.linalg.solve(A, b)
    mono = legendre.leg2poly(leg_coeffs)
    _, lo, _, hi = _poly_extremes(mono)
    return KernelFn(order=order, kappa=max(-lo, hi), coeffs=tuple(float(c) for c in mono))


def _poly_extremes(mono_coeffs) -> tuple[float, float, float, float]:
    """(u_lo, p(u_lo), u_hi, p(u_hi)): the polynomial's exact extremes on [-1, 1] and where
    they occur, from its critical points and the ends; a constant's witness is u = 0."""
    p = np.polynomial.Polynomial(mono_coeffs)
    us = [0.0]
    if len(mono_coeffs) > 1:
        roots = p.deriv().roots()
        us = [-1.0, 1.0] + [float(r.real) for r in roots if abs(r.imag) < 1e-12 and -1 <= r.real <= 1]
    vals = [float(p(u)) for u in us]
    lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
    return us[lo], vals[lo], us[hi], vals[hi]


# ---------------------------------------------------------------------------
# the Laplace mechanism
# ---------------------------------------------------------------------------


def trunc_scale(T, level):
    """Laplace scale 2T/level of the clamp to [-T, T] at privacy level ``level``."""
    return 2.0 * T / level


def kernel_clean(kernel: KernelFn, x, x0, h):
    """The kernel map (1/h) K((x - x0)/h), with the bytes of ``kernel((x - x0)/h) / h``.

    The support test is |x - x0| <= h: no double lies in (h, h (1 + 2^-53)], so
    it is |fl((x - x0)/h)| <= 1.  Off the support the map is 0; on it, u and the
    quotient by h are taken there only, and Horner's rule runs only for a kernel
    with a u-term.
    """
    diff = np.asarray(x, dtype=float) - x0
    inside = np.abs(diff) <= h
    *lower, lead = kernel.coeffs
    if lower:
        u = np.divide(diff, h, out=np.zeros(inside.shape), where=inside)
        vals = np.full(inside.shape, lead)
        for c in reversed(lower):
            vals *= u
            vals += c
    else:
        vals = lead
    k = np.divide(vals, h, out=np.zeros(inside.shape), where=inside)
    return k if k.ndim else float(k)


def kernel_scale(kernel: KernelFn, h, level):
    """Laplace scale 2 kappa/(h level) of the kernel map at privacy level ``level``."""
    return 2.0 * kernel.kappa / (h * level)


def kernel_extremes(kernel: KernelFn, x0, h):
    """(x_lo, c_lo, x_hi, c_hi): the extremes of (1/h) K((x - x0)/h) per bandwidth and their
    inputs.  K is 0 off [-1, 1], so a kernel positive on it reaches its minimum 0 at u = 2."""
    u_lo, k_lo, u_hi, k_hi = _poly_extremes(kernel.coeffs)
    if k_lo > 0.0:
        u_lo, k_lo = 2.0, 0.0
    return x0 + u_lo * h, k_lo / h, x0 + u_hi * h, k_hi / h


def laplace_release(clean, scales, rng):
    """clean + scales * L(1), one independent unit-Laplace draw copysign(E, U - 0.5) per entry
    of ``clean``: first E ~ Exp(1) for every entry, then U ~ U[0, 1) for every entry.

    The noise is drawn into a fresh array and scaled and shifted there in
    place; ``scales`` must broadcast to the shape of ``clean``.
    """
    z = np.empty(np.shape(clean))
    rng.standard_exponential(out=z)
    sign = rng.random(z.shape)
    sign -= 0.5  # exact; U = 1/2 gives +0, so each sign takes half the values of U
    np.copysign(z, sign, out=z)
    z *= scales
    z += clean
    return z


class ZeroNoiseRng:
    """Marks a release as noise-free (testing hook): ``block_streams`` gives no stream for it, so a
    release is the clean map.  It has no draws, so randomized response raises on it."""

    def __init__(self, rng):
        self.rng = rng


_BLOCK = 1 << 16  # values per row block: 512 KiB of float64, near the size of a core's cache


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _block_rng(key: int, b: int) -> np.random.Generator:
    """The stream of row block ``b`` of a release keyed ``key``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key, spawn_key=(b,))))


def row_blocks(n: int, levels: int, fill) -> list:
    """``[fill(b, rows) for every row block b]`` of n rows of ``levels`` values, in block order.

    Below two blocks of values one block holds every row and is filled on this
    thread.  From two blocks up, block b is rows b k to (b + 1) k, k =
    ``max(1, _BLOCK // levels)``, filled on one thread per CPU in any order; an
    exception in a block is raised here once every block has ended.
    """
    if n * levels < 2 * _BLOCK:
        return [fill(0, slice(0, n))]
    rows = max(1, _BLOCK // levels)
    # threads per call: a pool kept in the module would reach forked workers without its threads
    with concurrent.futures.ThreadPoolExecutor(min(_cpus(), -(-n // rows))) as pool:
        # each block runs in a copy of the caller's context (numpy's errstate lives there)
        blocks = [pool.submit(contextvars.copy_context().run, fill, b, slice(a, a + rows))
                  for b, a in enumerate(range(0, n, rows))]
        return [f.result() for f in blocks]


def block_streams(rng, n: int, levels: int, count: int):
    """``streams(j, b)``, the stream of row block b of release j of ``count`` releases of n rows
    of ``levels`` values; None for no noise (``rng`` None or a ``ZeroNoiseRng``).

    Below two blocks of values every release draws from ``rng`` in turn.  From
    two blocks up, one key ``int(rng.integers(0, 2**63))`` per release is drawn
    from ``rng`` now, in order, and block b of release j draws from
    ``_block_rng(key_j, b)``.
    """
    if rng is None or isinstance(rng, ZeroNoiseRng):
        return None
    if n * levels < 2 * _BLOCK:
        return lambda j, b: rng
    keys = [int(rng.integers(0, 2**63)) for _ in range(count)]
    return lambda j, b: _block_rng(keys[j], b)


def release_rows(X, channels, rng, keep) -> list:
    """``[keep(rows, clean, z) for every row block]`` in block order: the ``row_blocks`` of the
    (n, d) raw sample X, where clean[j] is ``channels[j].clean(X[rows, j])`` and z[j] its
    ``laplace_release`` from its stream in ``block_streams``, or clean[j] itself with no noise.
    Every channel must have the first's levels, so the blocks line up across columns."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or not 1 <= X.shape[1] == len(channels):
        raise ValueError("X must be (n, d) with one channel per column, d >= 1")
    if not np.all(np.isfinite(X)):
        raise ValueError("raw values must be finite")
    scales = [ch.scales() for ch in channels]
    if any(np.shape(s) != np.shape(scales[0]) for s in scales):
        raise ValueError("every channel must release the same number of levels")
    n, levels = X.shape[0], np.size(scales[0])
    streams = block_streams(rng, n, levels, len(channels))

    def block(b: int, rows: slice):
        clean = [ch.clean(X[rows, j]) for j, ch in enumerate(channels)]
        z = clean if streams is None else [
            laplace_release(c, s, streams(j, b)) for j, (c, s) in enumerate(zip(clean, scales))
        ]
        return keep(rows, clean, z)

    return row_blocks(n, levels, block)


def release_array(X, channels, rng) -> np.ndarray:
    """The ``release_rows`` of the (n, d) raw sample X written into one fresh array: (n, d) for
    single-level channels, (n, d, m) for channels of m levels."""
    out = np.empty(np.shape(X) + (np.shape(channels[0].scales()) if channels else ()))  # none: release_rows raises

    def keep(rows, clean, z) -> None:
        for j, zj in enumerate(z):
            out[rows, j] = zj

    release_rows(X, channels, rng, keep)
    return out


class _LaplaceRelease:
    """Release clean(x) + scales() * L(1).

    A channel supplies ``clean`` (its bounded map; multi-level channels add a
    trailing level axis), ``scales`` (one Laplace scale per level) and
    ``clean_extremes`` (per level, the inputs where the map is smallest and
    largest and those values, which the audit reads).  Its fields carry rules:
    an infinite level makes the scale 0, an infinite clamp the map unbounded,
    and a NaN or infinite x0 every kernel value 0.
    """

    __post_init__ = check_fields

    def privatize(self, x, rng):
        z = self.privatize_array(x, rng)
        return z if np.ndim(z) else float(z)

    def privatize_array(self, xs: np.ndarray, rng) -> np.ndarray:
        """Releases with shape xs.shape, plus a trailing level axis for multi-level channels: the
        ``release_array`` of xs flattened to one column."""
        xs = np.asarray(xs, dtype=float)
        return release_array(xs.reshape(-1, 1), (self,), rng).reshape(xs.shape + np.shape(self.scales()))


# ---------------------------------------------------------------------------
# channel variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceTruncChannel(_LaplaceRelease):
    """Clamp to [-T, T] and add Laplace noise of scale 2T/alpha."""

    T: float = rule(POSITIVE_FINITE, name="truncation T")
    alpha: float = rule(POSITIVE_FINITE)

    def clean(self, x):
        return np.clip(np.asarray(x, dtype=float), -self.T, self.T)

    def clean_extremes(self) -> tuple[float, float, float, float]:
        return -self.T, -self.T, self.T, self.T

    def scales(self) -> float:
        return trunc_scale(self.T, self.alpha)


@dataclass(frozen=True)
class KernelLaplaceChannel(_LaplaceRelease):
    """Release (1/h) K((x - x0)/h) plus Laplace noise of scale 2 kappa/(alpha h).

    The box kernel (orders 0 and 1) spans [0, kappa/h], half the range 2 kappa/h the
    scale covers, so with it the release is (alpha/2)-private."""

    h: float = rule(OPEN_UNIT, name="bandwidth h")
    x0: float = rule(FINITE)
    kernel: KernelFn
    alpha: float = rule(POSITIVE_FINITE)

    def clean(self, x):
        return kernel_clean(self.kernel, x, self.x0, self.h)

    def clean_extremes(self) -> tuple[float, float, float, float]:
        return kernel_extremes(self.kernel, self.x0, self.h)

    def scales(self) -> float:
        return kernel_scale(self.kernel, self.h, self.alpha)


@dataclass(frozen=True)
class MultiTruncChannel(_LaplaceRelease):
    """One clamp-plus-Laplace release per truncation level, noise scale 2T/beta_n.

    The per-level budget beta_n = alpha / card(grid), derived and not settable, keeps
    the joint release at level alpha even though every level carries information
    about the same raw value.
    """

    grid: tuple[float, ...] = rule(each(POSITIVE_FINITE, nonempty=True), name="truncation grid")
    alpha: float = rule(POSITIVE_FINITE)

    @property
    def beta_n(self) -> float:
        return self.alpha / len(self.grid)

    def clean(self, x) -> np.ndarray:
        ts = np.asarray(self.grid)
        return np.clip(np.asarray(x, dtype=float)[..., None], -ts, ts)

    def clean_extremes(self) -> tuple[np.ndarray, ...]:
        ts = np.asarray(self.grid)
        return -ts, -ts, ts, ts

    def scales(self, level: float | None = None) -> np.ndarray:
        """Per-level Laplace scales at privacy level ``level`` per release, beta_n by default."""
        return trunc_scale(np.asarray(self.grid), self.beta_n if level is None else level)


@dataclass(frozen=True)
class MultiBandwidthChannel(_LaplaceRelease):
    """One kernel-Laplace release per candidate bandwidth, noise scale 2 kappa/(h beta_n),
    with the per-level budget beta_n = alpha / card(grid) derived as for ``MultiTruncChannel``.

    As for ``KernelLaplaceChannel``, with the box kernel the release is (alpha/2)-private."""

    grid: tuple[float, ...] = rule(each(UNIT, nonempty=True), name="bandwidth grid")
    alpha: float = rule(POSITIVE_FINITE)
    x0: float = rule(FINITE)
    kernel: KernelFn

    @property
    def beta_n(self) -> float:
        return self.alpha / len(self.grid)

    def clean(self, x) -> np.ndarray:
        return kernel_clean(self.kernel, np.asarray(x, dtype=float)[..., None], self.x0, np.asarray(self.grid))

    def clean_extremes(self) -> tuple[np.ndarray, ...]:
        return kernel_extremes(self.kernel, self.x0, np.asarray(self.grid))

    def scales(self, level: float | None = None) -> np.ndarray:
        """Per-level Laplace scales at privacy level ``level`` per release, beta_n by default."""
        return kernel_scale(self.kernel, np.asarray(self.grid), self.beta_n if level is None else level)


@dataclass(frozen=True, eq=False)
class RandomizedResponseChannel:
    """Finite-alphabet channel given by an explicit row-stochastic table."""

    input_support: tuple[float, ...]
    output_support: tuple[float, ...]
    transition_table: np.ndarray
    alpha: float

    def __post_init__(self):
        table = np.asarray(self.transition_table, dtype=float)
        if table.shape != (len(self.input_support), len(self.output_support)):
            raise ValueError("transition table shape does not match supports")
        if np.any(table < 0):
            raise ValueError("transition probabilities must be nonnegative")
        if np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition rows must each sum to 1")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "transition_table", table)
        object.__setattr__(self, "input_support", tuple(float(x) for x in self.input_support))
        object.__setattr__(self, "output_support", tuple(float(z) for z in self.output_support))

    def privatize(self, x, rng) -> float:
        row = self.transition_table[support_index(self.input_support, x, "channel input support")]
        idx = rng.choice(len(self.output_support), p=row)
        return float(self.output_support[idx])

    def density(self, z, x):
        """q(z|x) read from the table; z and x broadcast, and each must be a symbol of its alphabet."""
        p = self.transition_table[
            support_index(self.input_support, x, "channel input support"),
            support_index(self.output_support, z, "channel output support"),
        ]
        return p if np.ndim(p) else float(p)


def make_rr_channel(input_support: Sequence[float], alpha: float) -> RandomizedResponseChannel:
    """Randomized response keeping the true symbol with probability e^a/(e^a + m - 1)."""
    m = len(input_support)
    if m < 2:
        raise ValueError("randomized response needs at least 2 symbols")
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha!r}")
    stay = math.exp(alpha) / (math.exp(alpha) + m - 1)
    off = 1.0 / (math.exp(alpha) + m - 1)
    table = np.full((m, m), off)
    np.fill_diagonal(table, stay)
    return RandomizedResponseChannel(tuple(input_support), tuple(input_support), table, alpha)


def make_identity_channel(support: Sequence[float]) -> RandomizedResponseChannel:
    return RandomizedResponseChannel(tuple(support), tuple(support), np.eye(len(support)), math.inf)


def make_constant_channel(support: Sequence[float], symbol_index: int = 0) -> RandomizedResponseChannel:
    m = len(support)
    table = np.zeros((m, m))
    table[:, symbol_index] = 1.0
    return RandomizedResponseChannel(tuple(support), tuple(support), table, 0.0)


def privatize(ch, x, rng):
    """Release a single raw value through ``ch`` using the supplied RNG stream."""
    return ch.privatize(x, rng)


# ---------------------------------------------------------------------------
# auditing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditResult:
    """sup q(z|x)/q(z|x') and a witness (x, x', z), one entry per level for a multi-level
    channel; ``achieved_alpha``, the log of the sup, stays finite where the ratio overflows."""

    max_ratio: float
    arg_x: object
    arg_xp: object
    arg_z: object
    achieved_alpha: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.achieved_alpha is None:
            object.__setattr__(self, "achieved_alpha", math.log(self.max_ratio))

    def to_json(self) -> dict:
        arg = {"x": self.arg_x, "xp": self.arg_xp, "z": self.arg_z}
        return {
            "max_ratio": self.max_ratio,
            "achieved_alpha": self.achieved_alpha,
            "arg": {k: [float(e) for e in v] if isinstance(v, tuple) else float(v) for k, v in arg.items()},
        }


def _exp(x: float) -> float:
    """e^x, inf where it exceeds the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def privacy_audit(ch) -> AuditResult:
    """sup over (x, x', z) of the likelihood ratio q(z|x)/q(z|x').

    Randomized response: exact, column by column over the transition table as the
    (x, z) matrix; a zero minimum reads inf, or 1 in an all-zero column, and ties
    go to the first symbol.  A Laplace-type channel: level l adds
    (max c_l - min c_l)/b_l to the log ratio, reached at the extremal inputs for
    any z_l at or beyond the larger clean value, the witness z_l = max c_l.  This
    is exact for one level, and for several when one input pair reaches every
    level's range: clamp grids and kernels with no negative lobe (the box).  For
    a multi-level kernel with a negative lobe it is the per-level composition
    bound, an upper bound on the sup and the quantity the alpha-privacy proof bounds.
    """
    if isinstance(ch, RandomizedResponseChannel):
        table = ch.transition_table
        hi, lo = table.max(axis=0), table.min(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(lo == 0.0, np.where(hi > 0.0, math.inf, 1.0), hi / lo)
        iz = int(np.argmax(ratios))
        col = table[:, iz]
        x, xp = ch.input_support[col.argmax()], ch.input_support[col.argmin()]
        return AuditResult(float(ratios[iz]), x, xp, ch.output_support[iz])
    x_lo, c_lo, x_hi, c_hi = ch.clean_extremes()
    log_ratio = sum(np.ravel((c_hi - c_lo) / ch.scales()).tolist())  # in level order
    if np.ndim(c_hi):
        x_hi, x_lo, c_hi = (tuple(v.tolist()) for v in (x_hi, x_lo, c_hi))
    return AuditResult(_exp(log_ratio), x_hi, x_lo, c_hi, log_ratio)


def audit_verdict(ratio: float, alpha: float, exact: bool = False) -> tuple[float, bool]:
    """The bound e^alpha and whether an audited ``ratio`` stays within it (to 1e-9
    relative); ``exact`` also asks that it reach the bound (to 1e-6 relative).
    The bound is inf where e^alpha exceeds the float range."""
    bound = _exp(alpha)
    ok = ratio <= bound * (1 + 1e-9) and (not exact or bound * (1 - 1e-6) <= ratio)
    return bound, ok


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


# a spec is "variant" plus the class's fields, except that the kernel is written as
# "kernel_order" and an infinite alpha (the identity channel's) as null
_VARIANTS = {
    "laplace_trunc": LaplaceTruncChannel,
    "kernel_laplace": KernelLaplaceChannel,
    "multi_trunc": MultiTruncChannel,
    "multi_bandwidth": MultiBandwidthChannel,
    "randomized_response": RandomizedResponseChannel,
}


def _spec_keys(cls) -> dict:
    """Spec key -> the field it sets."""
    return {"kernel_order" if f.name == "kernel" else f.name: f for f in fields(cls)}


def channel_to_json(ch) -> dict:
    variant = next((v for v, cls in _VARIANTS.items() if type(ch) is cls), None)
    if variant is None:
        raise TypeError(f"unknown channel type {type(ch)!r}")
    spec = {"variant": variant}
    for key, f in _spec_keys(type(ch)).items():
        value = getattr(ch, f.name)
        if isinstance(value, KernelFn):
            value = value.order
        elif isinstance(value, (tuple, np.ndarray)):
            value = np.asarray(value).tolist()
        spec[key] = None if f.name == "alpha" and value == math.inf else value
    return spec


def channel_from_json(obj: dict):
    """The channel a spec describes; an unknown variant, or a key its class lacks or needs,
    raises a ValueError naming the variant and the keys."""
    variant = obj.get("variant") if isinstance(obj, dict) else None
    if variant not in _VARIANTS:
        raise ValueError(f"unknown channel variant {variant!r}")
    keys = _spec_keys(_VARIANTS[variant])
    check_keys(f"{variant} channel spec", set(obj) - {"variant"}, keys)
    kwargs = {f.name: obj[key] for key, f in keys.items() if key in obj}
    if "kernel" in kwargs:
        kwargs["kernel"] = make_kernel(kwargs["kernel"])
    if kwargs["alpha"] is None:
        kwargs["alpha"] = math.inf
    return _VARIANTS[variant](**kwargs)
