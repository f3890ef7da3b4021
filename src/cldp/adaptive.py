"""Data-driven truncation/bandwidth selection over multi-level releases.

The selector balances a data-driven bias proxy against a variance penalty over
dyadic grids.  Every candidate pair is evaluated from the same releases, so the
auxiliary estimators commute exactly; the (bias-proxy, penalty) tables are pure
functions of the released tensor and are returned in full as diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KernelFn, MultiBandwidthChannel, MultiTruncChannel, PrivacyBudget
from .estimators import PrivatizedSample

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
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")
        if self.n < 4:
            raise ValueError("n must be >= 4")

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


def gl_select_truncation(Zm: PrivatizedSample, cfg: GLConfig) -> TruncationSelection:
    """Select clamp levels by minimizing bias proxy plus variance penalty.

    Penalty:     V_T = a_n * prod_j T_j^2 / (n * prod_j beta_n_j^2)
    Bias proxy:  B_T = sup_T' ( |gamma^(T, T') - gamma^(T')|^2 - V_T' )_+,
    with gamma^(T, T') built from componentwise minima, hence commutative.
    Ties resolve to the largest prod_j T_j (the lowest-variance representative).
    """
    grid = build_truncation_grid(cfg.n)  # decreasing
    m = grid.size
    d = Zm.d
    _check_multi_sample(Zm, cfg, m)
    gamma = _estimate_table([Zm.values[:, j, :] for j in range(d)])  # m^d
    beta = cfg.beta_n()
    denom = cfg.n * float(np.prod(beta**2))
    t_sq = grid**2
    V = cfg.a_n * _outer_product([t_sq] * d) / denom
    prod_T = _outer_product([grid] * d)

    # componentwise minimum of (grid[i], grid[j]) is grid[max(i, j)] since the
    # grid is decreasing.  One block per leading selector index i_1 holds the
    # m^(2d-1) pairs (i_2..i_d, J), axes (i_2..i_d, j_1..j_d).
    ar = np.arange(m)
    K = np.maximum(ar[:, None], ar[None, :])
    B = np.empty_like(V)
    for i in range(m):
        index = [np.maximum(i, ar).reshape((m,) + (1,) * (d - 1))]
        for j in range(1, d):
            shape = [1] * (2 * d - 1)
            shape[j - 1] = shape[d - 1 + j] = m
            index.append(K.reshape(shape))
        diff = gamma[tuple(index)] - gamma
        B[i] = np.maximum(diff * diff - V, 0.0).max(axis=tuple(range(d - 1, 2 * d - 1)))

    score = B + V
    best = _argmin_tiebreak(score, prod_T)
    T_hat = tuple(float(grid[i]) for i in best)
    return TruncationSelection(
        T_hat=T_hat,
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
    m = grid.size
    d = Zm.d
    _check_multi_sample(Zm, cfg, m)
    # one shared bandwidth across axes: only the level diagonal is needed
    diag = np.prod(Zm.values, axis=1).mean(axis=0)  # (m,)
    beta = cfg.beta_n()
    denom = cfg.n * float(np.prod(beta**2))
    V = cfg.a_n / (grid ** (2 * d)) / denom

    ar = np.arange(m)
    K = np.maximum(ar[:, None], ar[None, :])  # coarser scale max(h, eta)
    diff = diag[K] - diag[None, :]
    B = np.maximum(diff * diff - V[None, :], 0.0).max(axis=1)

    score = B + V
    best = int(np.flatnonzero(score == score.min())[-1])  # largest h among ties
    return BandwidthSelection(
        h_hat=float(grid[best]),
        pi_hat=float(diag[best]),
        index=best,
        B_table=B,
        V_table=V,
        pi_table=np.asarray(diag),
    )


def _outer_product(vectors: list[np.ndarray]) -> np.ndarray:
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


def _argmin_tiebreak(score: np.ndarray, prefer: np.ndarray) -> tuple[int, ...]:
    """Index of the minimal score; among exact ties, the largest ``prefer``."""
    smin = score.min()
    ties = np.argwhere(score == smin)
    best = max(ties, key=lambda I: prefer[tuple(I)])
    return tuple(int(i) for i in best)
