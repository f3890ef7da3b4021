"""Data-driven truncation/bandwidth selection over multi-level releases.

The selector balances a data-driven bias proxy against a variance penalty over
dyadic grids.  Every candidate pair is evaluated from the same releases, so the
auxiliary estimators commute exactly; the (bias-proxy, penalty) tables are pure
functions of the released tensor and are returned in full as diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KernelFn, MultiBandwidthChannel, MultiTruncChannel, PrivacyBudget
from .estimators import PrivatizedSample, RegimeError

__all__ = [
    "build_truncation_grid",
    "build_bandwidth_grid",
    "GLConfig",
    "multi_trunc_channels",
    "multi_bandwidth_channels",
    "gl_select_truncation",
    "gl_select_bandwidth",
    "TruncationSelection",
    "BandwidthSelection",
]


def _dyadic_levels(n: int) -> list[float]:
    if n < 4:
        raise ValueError("n must be >= 4 (grid would be empty)")
    m = int(math.floor(math.log2(n)))
    return [n / 2.0**r for r in range(1, m + 1)]


def build_truncation_grid(n: int) -> np.ndarray:
    """Clamp levels {n/2^r : r = 1..floor(log2 n)}, decreasing."""
    return np.asarray(_dyadic_levels(n))


def build_bandwidth_grid(n: int) -> np.ndarray:
    """Bandwidths h in (0, 1] with 1/h in {n/2^r}, increasing."""
    hs = [1.0 / t for t in _dyadic_levels(n) if 1.0 / t <= 1.0]
    return np.asarray(sorted(hs))


@dataclass(frozen=True)
class GLConfig:
    """Penalty constant and the derived per-run quantities.

    The noise level per release is beta_n^j = alpha_j / floor(log2 n): every
    grid level carries information about the same raw value, so the per-level
    budget shrinks with the grid cardinality.
    """

    n: int
    budget: PrivacyBudget
    c0: float = 8.0

    def __post_init__(self):
        if self.n < 4:
            raise RegimeError("adaptive grids need n >= 4")
        if not self.c0 > 0:  # NaN fails the comparison
            raise ValueError(f"c0 must be positive, got {self.c0!r}")
        # both selectors form a_n (n/2)^(2d), then divide it by n prod beta_n^2 (0 if an alpha is 0)
        try:
            peak = self.a_n * (self.n / 2.0) ** (2 * self.budget.d)
        except OverflowError:
            peak = math.inf
        denom = self.n * float(np.prod(self.beta_n() ** 2))
        if not (math.isfinite(peak) and (denom == 0.0 or math.isfinite(peak / denom))):
            raise ValueError(f"c0 = {self.c0!r} makes the penalty a_n (n/2)^(2d) / (n prod beta_n^2), "
                             "a_n = c0 ln n, overflow")

    @property
    def grid_cardinality(self) -> int:
        return int(math.floor(math.log2(self.n)))

    @property
    def a_n(self) -> float:
        return self.c0 * math.log(self.n)

    def beta_n(self) -> np.ndarray:
        return np.asarray(self.budget.alphas) / self.grid_cardinality


def multi_trunc_channels(cfg: GLConfig) -> tuple[MultiTruncChannel, ...]:
    grid = tuple(build_truncation_grid(cfg.n))
    return tuple(MultiTruncChannel(grid=grid, alpha=a) for a in cfg.budget.alphas)


def multi_bandwidth_channels(
    cfg: GLConfig, x0: Sequence[float], kernel: KernelFn
) -> tuple[MultiBandwidthChannel, ...]:
    grid = tuple(build_bandwidth_grid(cfg.n))
    x0 = np.asarray(x0, dtype=float)
    if x0.size != cfg.budget.d:
        raise ValueError(f"x0 dimension {x0.size} does not match the budget's {cfg.budget.d}")
    return tuple(
        MultiBandwidthChannel(grid=grid, alpha=a, x0=float(x0[j]), kernel=kernel)
        for j, a in enumerate(cfg.budget.alphas)
    )


def _estimate_table(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Means of row products for every grid combination.

    columns: one (n, m) array per axis, or a (1, m) row shared by every row;
    returns an m^d table whose entry at (r_1, ..., r_d) is the mean over rows
    of prod_j columns[j][i, r_j].
    """
    d = len(columns)
    letters = "abcdefgh"
    if d > len(letters):
        raise ValueError("dimension too large")
    spec = ",".join(f"i{letters[j]}" for j in range(d)) + "->" + letters[:d]
    return np.einsum(spec, *columns) / max(c.shape[0] for c in columns)


def _diagonal_table(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The diagonal of ``_estimate_table`` on the same columns: one level shared by every axis."""
    return functools.reduce(np.multiply, columns).mean(axis=0)


@dataclass(frozen=True, eq=False)
class TruncationSelection:
    T_hat: tuple[float, ...]
    gamma_hat: float
    index: tuple[int, ...]
    B_table: np.ndarray
    V_table: np.ndarray
    gamma_table: np.ndarray


@dataclass(frozen=True, eq=False)
class BandwidthSelection:
    h_hat: float
    pi_hat: float
    index: int
    B_table: np.ndarray
    V_table: np.ndarray
    pi_table: np.ndarray


def _check_multi_sample(Zm: PrivatizedSample, cfg: GLConfig, grid_len: int):
    if not Zm.multi_level:
        raise ValueError("selector needs multi-level releases")
    if Zm.values.shape[2] != grid_len:
        raise ValueError(
            f"sample has {Zm.values.shape[2]} levels but the n={cfg.n} grid has {grid_len}"
        )
    if Zm.n != cfg.n:
        raise ValueError(f"sample size {Zm.n} does not match config n={cfg.n}")


def _gl_select(table: np.ndarray, V: np.ndarray, prefer: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The Goldenshluger-Lepski rule over a level table of any rank k.

    Each axis's levels are ordered so that the auxiliary estimate of the pair
    (I, J) is table[max(I, J)], componentwise.  Returns the index minimizing
    B + V, ties resolved to the largest ``prefer``, and the bias proxy
        B_I = max_J ((table[max(I, J)] - table[J])^2 - V_J)_+.
    """
    m, k = table.shape[0], table.ndim
    # one block per leading index i_1 holds the m^(2k-1) pairs (i_2..i_k, J),
    # axes (i_2..i_k, j_1..j_k)
    ar = np.arange(m)
    K = np.maximum(ar[:, None], ar[None, :])
    B = np.empty_like(V)
    for i in range(m):
        index = [np.maximum(i, ar).reshape((m,) + (1,) * (k - 1))]
        for j in range(1, k):
            shape = [1] * (2 * k - 1)
            shape[j - 1] = shape[k - 1 + j] = m
            index.append(K.reshape(shape))
        diff = table[tuple(index)] - table
        B[i] = np.maximum(diff * diff - V, 0.0).max(axis=tuple(range(k - 1, 2 * k - 1)))
    score = B + V
    ties = np.argwhere(score == score.min())
    best = max(ties, key=lambda I: prefer[tuple(I)])
    return tuple(int(i) for i in best), B


def gl_select_truncation(Zm: PrivatizedSample, cfg: GLConfig) -> TruncationSelection:
    """Select clamp levels by minimizing bias proxy plus variance penalty.

    Penalty:     V_T = a_n * prod_j T_j^2 / (n * prod_j beta_n_j^2)
    Bias proxy:  B_T = sup_T' ( |gamma^(T, T') - gamma^(T')|^2 - V_T' )_+,
    with gamma^(T, T') built from componentwise minima, hence commutative.
    Ties resolve to the largest prod_j T_j (the lowest-variance representative).
    """
    grid = build_truncation_grid(cfg.n)  # decreasing
    _check_multi_sample(Zm, cfg, grid.size)
    gamma = _estimate_table([Zm.values[:, j, :] for j in range(Zm.d)])  # m^d
    denom = cfg.n * float(np.prod(cfg.beta_n() ** 2))
    V = cfg.a_n * _outer_product([grid**2] * Zm.d) / denom
    # the grid is decreasing, so the componentwise minimum of (grid[i], grid[j]) is grid[max(i, j)]
    best, B = _gl_select(gamma, V, _outer_product([grid] * Zm.d))
    return TruncationSelection(
        T_hat=tuple(float(grid[i]) for i in best),
        gamma_hat=float(gamma[best]),
        index=best,
        B_table=B,
        V_table=V,
        gamma_table=gamma,
    )


def gl_select_bandwidth(Zm: PrivatizedSample, cfg: GLConfig) -> BandwidthSelection:
    """Select the bandwidth by minimizing bias proxy plus variance penalty.

    Penalty:     V_h = a_n / (n h^{2d} prod_j beta_n_j^2)
    Bias proxy:  B_h = sup_eta ( |pi_(max(h, eta)) - pi_eta|^2 - V_eta )_+,
    where the auxiliary estimate lives at the coarser scale max(h, eta).
    One bandwidth is shared by all axes; ties resolve to the largest h.

    The auxiliary scale must be the coarser one: a clamp level T plays the
    role of 1/h, so the analog of the clamp pair minimum is the
    bandwidth maximum.  Taking the minimum instead would give the largest
    bandwidth a zero proxy on top of its minimal penalty, making the
    selection constant at h_max regardless of the data.
    """
    grid = build_bandwidth_grid(cfg.n)  # increasing
    _check_multi_sample(Zm, cfg, grid.size)
    pi = _diagonal_table([Zm.values[:, j, :] for j in range(Zm.d)])  # (m,)
    denom = cfg.n * float(np.prod(cfg.beta_n() ** 2))
    V = cfg.a_n / (grid ** (2 * Zm.d)) / denom
    # the grid is increasing, so the coarser scale max(grid[i], grid[j]) is grid[max(i, j)]
    (best,), B = _gl_select(pi, V, grid)
    return BandwidthSelection(
        h_hat=float(grid[best]),
        pi_hat=float(pi[best]),
        index=best,
        B_table=B,
        V_table=V,
        pi_table=pi,
    )


def _outer_product(vectors: list[np.ndarray]) -> np.ndarray:
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out

