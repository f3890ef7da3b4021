"""Reference computations for the benchmark's correctness checks.

Everything here is written from the documented definitions (README, module
docstrings) with numpy and the standard library only; nothing is imported from
``cldp``.  The benchmark compares the program's outputs against these values:

* closed-form MSE (squared bias plus release variance over n) of the private
  mean, joint-moment and pointwise-density estimators;
* closed-form per-level release means and their standard errors;
* the Goldenshluger-Lepski (GL) selectors, re-implemented as one broadcast for
  any number of axes;
* dense pushforward Jeffreys divergences and subset-sum contraction bounds;
* the exact leakage of the first component through per-axis randomized
  response, and the documented bound exp(alpha_1 + alpha_max (d-1) Delta_ind).

Model specs are the JSON dicts the benchmark hands to the program
(``kind`` = ``pareto_factor`` or ``holder_density``).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# ---------------------------------------------------------------------------
# Pareto models
# ---------------------------------------------------------------------------


def clipped_power_moment(factors) -> float:
    """E prod_j min(s_j U^p_j, T_j)^q_j for U ~ Pareto(1), density u^-2 on [1, inf).

    ``factors`` is a sequence of (s, p, T, q) with s, p, T > 0 and q >= 0.  The
    integrand is a power of u between the breakpoints u_j = (T_j/s_j)^(1/p_j),
    so the integral is a finite sum of closed-form power integrals.
    """
    breaks = sorted({max(1.0, (T / s) ** (1.0 / p)) for s, p, T, _ in factors})
    edges = [1.0] + [b for b in breaks if b > 1.0] + [math.inf]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        coef, expo = 1.0, 0.0
        for s, p, T, q in factors:
            if max(1.0, (T / s) ** (1.0 / p)) > lo:  # not clamped on [lo, hi)
                coef *= s**q
                expo += p * q
            else:
                coef *= T**q
        e = expo - 1.0  # integral of u^(expo - 2) is u^e / e
        if math.isinf(hi):
            if e >= 0:
                return math.inf
            total += coef * (-(lo**e)) / e
        elif e == 0.0:
            total += coef * math.log(hi / lo)
        else:
            total += coef * (hi**e - lo**e) / e
    return total


def pareto_scales(spec: dict) -> np.ndarray:
    """Per-axis scales s_j with E|X^j|^k_j = scale^k_j."""
    ks, a = spec["ks"], spec["a"]
    a_sh = min(a)
    out = []
    for k, aj in zip(ks, a):
        if spec["coupling"] == "power":
            m = aj / (aj - k)
        else:
            m = spec["rho"] * a_sh / (a_sh - k) + (1.0 - spec["rho"]) * aj / (aj - k)
        out.append(spec["scale"] * m ** (-1.0 / k))
    return np.asarray(out)


def _magnitude_laws(spec: dict, j: int):
    """(weight, tail) pairs of the law of |X^j| / s_j, a Pareto mixture."""
    a = spec["a"]
    if spec["coupling"] == "power":
        return [(1.0, a[j])]
    rho = spec["rho"]
    return [(rho, min(a)), (1.0 - rho, a[j])]


def pareto_clip_moment(spec: dict, j: int, T: float, q: int) -> float:
    """E clip(X^j, -T, T)^q for axis j (0-based)."""
    if spec["symmetric"] and q % 2 == 1:
        return 0.0
    s = float(pareto_scales(spec)[j])
    return sum(w * clipped_power_moment([(s, 1.0 / tail, T, q)]) for w, tail in _magnitude_laws(spec, j))


def pareto_truth(spec: dict) -> float:
    """E prod_j X^j."""
    s = pareto_scales(spec)
    d = len(s)
    if spec["symmetric"] and d % 2 == 1:
        return 0.0
    if spec["coupling"] == "power":
        return float(np.prod(s)) / (1.0 - sum(1.0 / x for x in spec["a"]))
    if not spec["symmetric"] and d > 1:
        raise NotImplementedError("one-sided mixture coupling has no reference here")
    if d == 1:
        return float(s[0]) * sum(w * t / (t - 1.0) for w, t in _magnitude_laws(spec, 0))
    a_sh = min(spec["a"])
    return float(np.prod(s)) * spec["rho"] ** d * a_sh / (a_sh - d)


def pareto_cross_moments(spec: dict, T1: float, T2: float) -> tuple[float, float]:
    """(E c1 c2, E c1^2 c2^2) for c_j = clip(X^j, -T_j, T_j), d = 2."""
    s1, s2 = pareto_scales(spec)
    a1, a2 = spec["a"]
    if spec["coupling"] == "power":
        # one shared magnitude U and one shared sign: c1 c2 >= 0
        def joint(q):
            return clipped_power_moment([(s1, 1.0 / a1, T1, q), (s2, 1.0 / a2, T2, q)])

        return joint(1), joint(2)
    if not spec["symmetric"]:
        raise NotImplementedError("one-sided mixture coupling has no reference here")
    rho, a_sh = spec["rho"], min(spec["a"])

    def shared(q):  # both axes take the shared factor W
        return clipped_power_moment([(s1, 1.0 / a_sh, T1, q), (s2, 1.0 / a_sh, T2, q)])

    def own(s, tail, T):  # E min(s P, T)^2, P ~ Pareto(tail)
        return clipped_power_moment([(s, 1.0 / tail, T, 2)])

    w1, w2 = own(s1, a_sh, T1), own(s2, a_sh, T2)
    v1, v2 = own(s1, a1, T1), own(s2, a2, T2)
    # independent symmetric factors have zero mean, so only the shared term survives
    m11 = rho * rho * shared(1)
    m22 = rho * rho * shared(2) + rho * (1 - rho) * (w1 * v2 + v1 * w2) + (1 - rho) ** 2 * v1 * v2
    return m11, m22


# ---------------------------------------------------------------------------
# box-truncated densities
# ---------------------------------------------------------------------------


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _holder_raw_cdf(spec: dict, x: float) -> float:
    if int(spec["beta"]) == 1:
        b = spec["kink_b"]
        lap = 0.5 * math.exp(x / b) if x < 0 else 1.0 - 0.5 * math.exp(-x / b)
        w = spec["kink_weight"]
        return w * lap + (1.0 - w) * _norm_cdf(x / 1.2)
    return sum(w * _norm_cdf((x - mu) / s) for w, mu, s in zip(spec["weights"], spec["mus"], spec["sigmas"]))


def _holder_raw_density(spec: dict, x: float) -> float:
    if int(spec["beta"]) == 1:
        b, w = spec["kink_b"], spec["kink_weight"]
        peak = math.exp(-abs(x) / b) / (2.0 * b)
        bg = math.exp(-0.5 * (x / 1.2) ** 2) / (1.2 * math.sqrt(2.0 * math.pi))
        return w * peak + (1.0 - w) * bg
    return sum(
        w * math.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        for w, mu, s in zip(spec["weights"], spec["mus"], spec["sigmas"])
    )


def holder_mass(spec: dict, lo: float, hi: float) -> float:
    """P(lo <= X <= hi) for one axis of the box-truncated density."""
    box = spec["box"]
    z = _holder_raw_cdf(spec, box) - _holder_raw_cdf(spec, -box)
    lo, hi = max(lo, -box), min(hi, box)
    if hi <= lo:
        return 0.0
    return (_holder_raw_cdf(spec, hi) - _holder_raw_cdf(spec, lo)) / z


def holder_truth(spec: dict, x0: float) -> float:
    """Density at x0 of the one-axis box-truncated model."""
    if spec["d"] != 1:
        raise NotImplementedError("reference covers one axis")
    box = spec["box"]
    if abs(x0) > box:
        return 0.0
    return _holder_raw_density(spec, x0) / (_holder_raw_cdf(spec, box) - _holder_raw_cdf(spec, -box))


# ---------------------------------------------------------------------------
# releases: the Laplace L(b) has variance 2 b^2
# ---------------------------------------------------------------------------

BOX_KAPPA = 0.5  # sup of the box kernel K = 1/2 on [-1, 1] (kernel orders 0 and 1)


def trunc_scale(T: float, level: float) -> float:
    """Noise scale 2T/level of a clamp-plus-Laplace release."""
    return 2.0 * T / level


def kernel_scale(h: float, level: float) -> float:
    """Noise scale 2 kappa/(level h) of a box-kernel release."""
    return 2.0 * BOX_KAPPA / (level * h)


def trunc_release_moments(spec: dict, j: int, T: float, level: float) -> tuple[float, float]:
    """(mean, variance) of one clamp-plus-Laplace release of axis j."""
    m1 = pareto_clip_moment(spec, j, T, 1)
    m2 = pareto_clip_moment(spec, j, T, 2)
    return m1, m2 - m1 * m1 + 2.0 * trunc_scale(T, level) ** 2


def box_release_moments(spec: dict, x0: float, h: float, level: float) -> tuple[float, float]:
    """(mean, variance) of one box-kernel release K((X - x0)/h)/h + Laplace."""
    p = holder_mass(spec, x0 - h, x0 + h)
    mean = p / (2.0 * h)
    return mean, p / (4.0 * h * h) - mean * mean + 2.0 * kernel_scale(h, level) ** 2


# ---------------------------------------------------------------------------
# rate-optimal tuning and closed-form MSE
# ---------------------------------------------------------------------------


def mean_truncation(k: float, alpha: float, n: int) -> float:
    return (n * alpha * alpha) ** (1.0 / (2.0 * k))


def joint_truncations(ks, alphas, n: int) -> list[float]:
    base = n * float(np.prod(np.square(alphas)))
    return [base ** (1.0 / (2.0 * k)) for k in ks]


def private_bandwidth(beta: float, alphas, n: int) -> float:
    """(n prod alpha_j^2)^(-1/(2(beta + d))); equal levels at or above
    n^(1/(2(2 beta + d))) switch to the nonprivate bandwidth instead."""
    d = len(alphas)
    if len(set(alphas)) == 1 and alphas[0] >= n ** (1.0 / (2.0 * (2.0 * beta + d))):
        raise NotImplementedError("nonprivate regime has no reference here")
    return (n * float(np.prod(np.square(alphas)))) ** (-1.0 / (2.0 * (beta + d)))


def mse_mean(spec: dict, k: float, alpha: float, n: int) -> float:
    T = mean_truncation(k, alpha, n)
    mean, var = trunc_release_moments(spec, 0, T, alpha)
    return (mean - pareto_truth(spec)) ** 2 + var / n


def mse_moment(spec: dict, ks, alphas, n: int) -> float:
    T1, T2 = joint_truncations(ks, alphas, n)
    m11, m22 = pareto_cross_moments(spec, T1, T2)
    b1, b2 = trunc_scale(T1, alphas[0]), trunc_scale(T2, alphas[1])
    e1 = pareto_clip_moment(spec, 0, T1, 2)
    e2 = pareto_clip_moment(spec, 1, T2, 2)
    # E (c1 + L1)^2 (c2 + L2)^2 with independent Laplace noise of variance 2 b^2
    second = m22 + 2 * b2 * b2 * e1 + 2 * b1 * b1 * e2 + 4 * b1 * b1 * b2 * b2
    return (m11 - pareto_truth(spec)) ** 2 + (second - m11 * m11) / n


def mse_kde(spec: dict, beta: float, alpha: float, n: int, x0: float) -> float:
    h = private_bandwidth(beta, [alpha], n)
    mean, var = box_release_moments(spec, x0, h, alpha)
    return (mean - holder_truth(spec, x0)) ** 2 + var / n


# ---------------------------------------------------------------------------
# GL selectors (README "Notes on the adaptive experiments", adaptive docstrings)
# ---------------------------------------------------------------------------


def dyadic_levels(n: int) -> list[float]:
    """{n / 2^r : r = 1..floor(log2 n)}, decreasing."""
    m = int(math.floor(math.log2(n)))
    return [n / 2.0**r for r in range(1, m + 1)]


def bandwidth_grid(n: int) -> list[float]:
    """Bandwidths h <= 1 with 1/h a dyadic level, increasing."""
    return sorted(1.0 / t for t in dyadic_levels(n) if 1.0 / t <= 1.0)


def per_level_budget(alphas, n: int) -> np.ndarray:
    """beta_n^j = alpha_j / floor(log2 n)."""
    return np.asarray(alphas, dtype=float) / math.floor(math.log2(n))


def _coarse_pairs(m: int, d: int):
    """Index arrays for I (axes 0..d-1), J (axes d..2d-1) and max(I, J)."""
    ar = np.arange(m)
    I = [ar.reshape([m if k == ax else 1 for k in range(2 * d)]) for ax in range(d)]
    J = [ar.reshape([m if k == d + ax else 1 for k in range(2 * d)]) for ax in range(d)]
    return I, J, [np.maximum(i, j) for i, j in zip(I, J)]


def gl_truncation(values: np.ndarray, n: int, alphas, c0: float):
    """GL clamp selection on releases of shape (n, d, m).

    gamma(T)  = mean_i prod_j Z[i, j, T_j]
    V_T       = c0 ln n prod_j T_j^2 / (n prod_j beta_j^2)
    B_T       = max_T' (|gamma(min(T, T')) - gamma(T')|^2 - V_T')_+
    selection = argmin B + V; ties go to the largest prod_j T_j, then to the
    first index in row-major order.  The grid decreases, so the componentwise
    minimum of two clamp levels sits at the larger index.
    Returns (index tuple, score table, gamma table).
    """
    rows, d, m = values.shape
    grid = np.asarray(dyadic_levels(n))
    cols = [values[:, j, :] for j in range(d)]
    gamma = cols[0]
    for c in cols[1:]:
        gamma = gamma[..., None] * c.reshape((rows,) + (1,) * (gamma.ndim - 1) + (m,))
    gamma = gamma.sum(axis=0) / rows
    beta = per_level_budget(alphas, n)
    prod_t = functools.reduce(np.multiply.outer, [grid] * d)
    V = c0 * math.log(n) * prod_t**2 / (n * float(np.prod(beta**2)))
    _, J, K = _coarse_pairs(m, d)
    diff = gamma[tuple(K)] - gamma[tuple(J)]
    excess = diff * diff - V.reshape((1,) * d + (m,) * d)
    B = np.maximum(excess, 0.0).max(axis=tuple(range(d, 2 * d)))
    score = B + V
    ties = np.argwhere(score == score.min())
    best = max(ties, key=lambda idx: prod_t[tuple(idx)])
    return tuple(int(i) for i in best), score, gamma


def gl_bandwidth(values: np.ndarray, n: int, alphas, c0: float):
    """GL bandwidth selection on releases of shape (n, d, m), one h for all axes.

    pi_h      = mean_i prod_j Z[i, j, h]
    V_h       = c0 ln n / (n h^(2d) prod_j beta_j^2)
    B_h       = max_eta (|pi_max(h, eta) - pi_eta|^2 - V_eta)_+
    selection = argmin B + V, ties to the largest h.
    Returns (index, score vector, pi vector).
    """
    rows, d, m = values.shape
    grid = np.asarray(bandwidth_grid(n))
    pi = np.prod(values, axis=1).sum(axis=0) / rows
    beta = per_level_budget(alphas, n)
    V = c0 * math.log(n) / (grid ** (2 * d)) / (n * float(np.prod(beta**2)))
    _, J, K = _coarse_pairs(m, 1)  # the grid increases: max index is the coarser h
    diff = pi[K[0]] - pi[J[0]]
    B = np.maximum(diff * diff - V[None, :], 0.0).max(axis=1)
    score = B + V
    return int(np.flatnonzero(score == score.min())[-1]), score, pi


def selection_agrees(chosen, ref_index, score: np.ndarray, rel: float = 1e-9) -> bool:
    """The program's choice equals the reference's, or ties it up to rounding.

    Summation order differs between the two implementations, so two scores
    equal in exact arithmetic may differ in their last bits.
    """
    chosen = tuple(np.atleast_1d(chosen).tolist())
    ref_index = tuple(np.atleast_1d(ref_index).tolist())
    if chosen == ref_index:
        return True
    return bool(score[chosen] <= score[ref_index] * (1.0 + rel))


# ---------------------------------------------------------------------------
# contraction: dense pushforward and subset-sum bound
# ---------------------------------------------------------------------------


def rr_matrix(m: int, alpha: float) -> np.ndarray:
    """Randomized response on m symbols: keep with probability e^a / (e^a + m - 1)."""
    e = math.exp(alpha)
    Q = np.full((m, m), 1.0 / (e + m - 1.0))
    np.fill_diagonal(Q, e / (e + m - 1.0))
    return Q


def dense_pushforward(probs: np.ndarray, alphas) -> np.ndarray:
    """Law of the per-axis randomized-response release of a joint table."""
    out = np.asarray(probs, dtype=float)
    for ax, a in enumerate(alphas):
        Q = rr_matrix(out.shape[ax], a)
        out = np.moveaxis(np.tensordot(out, Q, axes=([ax], [0])), -1, ax)
    return out


def jeffreys(p: np.ndarray, q: np.ndarray) -> float:
    """sum (p - q) ln(p / q) over cells; both tables strictly positive."""
    return float(np.sum((p - q) * np.log(p / q)))


def subset_sum_bound(p: np.ndarray, q: np.ndarray, alphas) -> float:
    """(sum over nonempty S of prod_{j in S} (e^a_j - 1) * ||P_S - Q_S||_1)^2."""
    d = p.ndim
    total = 0.0
    for r in range(1, d + 1):
        for S in itertools.combinations(range(d), r):
            rest = tuple(ax for ax in range(d) if ax not in S)
            tv = float(np.abs(p.sum(axis=rest) - q.sum(axis=rest)).sum())
            total += float(np.prod([math.expm1(alphas[j]) for j in S])) * tv
    return total * total


# ---------------------------------------------------------------------------
# effective privacy: leakage of X^1 through the whole release vector
# ---------------------------------------------------------------------------


def _conditionals(probs: np.ndarray) -> np.ndarray:
    """Law of (X^2, ..., X^d) given each value of X^1, one row per value."""
    p = np.asarray(probs, dtype=float)
    return p / p.sum(axis=tuple(range(1, p.ndim)), keepdims=True)


def delta_ind(probs: np.ndarray) -> float:
    """max over pairs (a, b) of ||P(. | X^1 = a) - P(. | X^1 = b)||_1."""
    cond = _conditionals(probs)
    return max(float(np.abs(cond[a] - cond[b]).sum()) for a, b in itertools.combinations(range(len(cond)), 2))


def leakage_sup(probs: np.ndarray, alphas) -> float:
    """max over (a, b, z) of m(z | X^1 = a) / m(z | X^1 = b), at least 1.

    m(. | X^1 = a) is the randomized-response row of a on axis 1 times the
    dense pushforward of the conditional law of the other axes.
    """
    cond = _conditionals(probs)
    R1 = rr_matrix(len(cond), alphas[0])
    laws = np.stack([np.multiply.outer(R1[a], dense_pushforward(cond[a], alphas[1:])) for a in range(len(cond))])
    flat = laws.reshape(len(cond), -1)
    return max(1.0, float(np.max(flat[:, None, :] / flat[None, :, :])))


def leakage_bound(probs: np.ndarray, alphas) -> float:
    """exp(alpha_1 + alpha_max (d - 1) Delta_ind), alpha_max over axes 2..d."""
    d = np.ndim(probs)
    return math.exp(alphas[0] + max(alphas[1:]) * (d - 1) * delta_ind(probs))
