"""Divergence-contraction upper bounds and brute-force verification.

The main bound controls the divergence between the privatized laws M and M~ of
two priors P and P~ released through per-component channels at levels alpha_j:

    (sum over nonempty S of prod_{h in S} (e^{alpha_h} - 1) * d_TV(marginals on S))^2

The left-hand side verified here is the symmetric (Jeffreys) divergence, which
is what the bound's derivation actually controls and which dominates both
one-directional KLs; those are reported alongside.  All verification uses
finite channels so pushforward laws are exact and the only tolerance is
floating-point (1e-9 absolute).

Verification runs on stacks of instances of one support shape: every step and
every check takes the whole stack along a leading axis, and
``verify_contraction`` is a stack of one.  ``rr_sweep``, the randomized scaffold
of this sweep and of the leakage sweep, draws instance i from its own stream
(key..., i), groups the instances by support shape and checks each group as one
stack; its reports are those of instance-by-instance checks, byte for byte and
in instance order.

Pure functions over immutable inputs, deterministic under any execution order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import PrivacyBudget, derive_rng, make_rr_channel
from .measures import (
    DiscreteDist, SubsetIndex, checked_probs, finite_axes, fl_term, kl_term, nonempty_subsets, push_axes, stack_rows,
)
from .measures import pushforward  # noqa: F401  (perfbench/tracing.py wraps it at this name)
from .rules import INT, INTS, at_least, check_fields, each, rule

__all__ = [
    "MarginalTVTable",
    "cldp_kl_bound",
    "equal_marginals_bound",
    "tensorized_bound",
    "f_divergence_bound",
    "channel_fl_epsilons",
    "verify_contraction",
    "ContractionReport",
    "random_instance",
    "Sweep",
    "rr_sweep",
    "run_contraction_sweep",
]

VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class MarginalTVTable:
    """d_TV between the S-marginals of two priors, for every nonempty S."""

    d: int
    values: dict  # SubsetIndex -> float

    def __post_init__(self):
        expected = nonempty_subsets(self.d)
        missing = [S for S in expected if S not in self.values]
        if missing:
            raise ValueError(f"missing subset entries: {missing}")
        for S, t in self.values.items():
            if not (0.0 <= t <= 2.0 + 1e-12):
                raise ValueError(f"tv entry for {S} out of [0, 2]: {t}")

    def __getitem__(self, S) -> float:
        if not isinstance(S, SubsetIndex):
            S = SubsetIndex(S)
        return self.values[S]

    @classmethod
    def _trusted(cls, d: int, values: dict) -> "MarginalTVTable":
        """A table of every subset's entry, each checked by ``_marginal_tvs``."""
        table = object.__new__(cls)
        object.__setattr__(table, "d", d)
        object.__setattr__(table, "values", values)
        return table

    @classmethod
    def from_dists(cls, P: DiscreteDist, Pt: DiscreteDist) -> "MarginalTVTable":
        """tv_distance(marginal(P, S), marginal(Pt, S)) for every S, read from the
        mass tables by ``_marginal_tvs`` on a stack of one."""
        if not P.same_support(Pt):
            raise ValueError("distributions must share the same supports")
        tvs = _marginal_tvs(P.probs[None], Pt.probs[None])
        return cls._trusted(P.d, {S: float(t[0]) for S, t in tvs.items()})


def _marginal_tvs(P: np.ndarray, Pt: np.ndarray) -> dict:
    """S -> d_TV between the S-marginals of each pair of (B, ...) mass tables, one value
    per row.  Each S-marginal is normalized by its own total, as ``marginal`` does
    through DiscreteDist, so the values are ``tv_distance``'s bit for bit."""
    B, d = len(P), P.ndim - 1
    tvs = {}
    for S in nonempty_subsets(d):
        drop = tuple(ax for ax in range(1, d + 1) if ax not in S.members)
        p, q = ((D.sum(axis=drop) if drop else D).reshape(B, -1) for D in (P, Pt))
        tv = np.abs(p / p.sum(axis=1, keepdims=True) - q / q.sum(axis=1, keepdims=True)).sum(axis=1)
        bad = ~((tv >= 0.0) & (tv <= 2.0 + 1e-12))
        if np.any(bad):
            raise ValueError(f"tv entry for {S} out of [0, 2]: {float(tv[bad][0])}")
        tvs[S] = tv
    return tvs


def _subset_sums(tvs, factors: np.ndarray) -> np.ndarray:
    """sum over nonempty S of prod_{j in S} factors[:, j-1] * tvs[S], one sum per row
    of the (B, d) factors, the terms added in subset order."""
    total = 0.0
    for S in nonempty_subsets(factors.shape[1]):
        prod = 1.0
        for j in S:
            prod = prod * factors[:, j - 1]
        total = total + prod * tvs[S]
    return total


def _subset_sum(tvs: MarginalTVTable, factors: np.ndarray) -> float:
    """sum over nonempty S of prod_{j in S} factors[j-1] * tvs[S]."""
    return _subset_sums(tvs, np.asarray(factors)[None])[0]


def cldp_kl_bound(tvs: MarginalTVTable, budget: PrivacyBudget) -> float:
    """Squared subset sum with per-component factors e^{alpha_j} - 1."""
    if budget.d != tvs.d:
        raise ValueError("budget dimension does not match table")
    return _subset_sum(tvs, budget.exp_minus_one()) ** 2


def equal_marginals_bound(tv_full: float, budget: PrivacyBudget) -> float:
    """Bound when all strict-subset marginals coincide: (prod (e^a - 1))^2 tv^2."""
    if not (0.0 <= tv_full <= 2.0 + 1e-12):
        raise ValueError(f"tv_full out of [0, 2]: {tv_full}")
    return float(np.prod(budget.exp_minus_one()) ** 2) * tv_full**2


def tensorized_bound(per_sample_terms, n: int) -> float:
    """Sum over samples of squared inner subset sums.

    ``per_sample_terms`` is either a single inner-sum value (iid case: the
    result is n times its square) or one value per sample.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if np.isscalar(per_sample_terms):
        return n * float(per_sample_terms) ** 2
    terms = [float(t) for t in per_sample_terms]
    if len(terms) != n:
        raise ValueError(f"expected {n} per-sample terms, got {len(terms)}")
    return float(sum(t * t for t in terms))


def f_divergence_bound(tvs: MarginalTVTable, eps, l: float) -> float:
    """(sum over S of prod_{j in S} eps_j * tvs[S])^l bounding D_{f_l}(M || M~)."""
    if not l > 1:
        raise ValueError(f"f_l bound requires l > 1, got {l}")
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps >= 0):
        raise ValueError(f"epsilons must be nonnegative, got {eps.tolist()}")
    if eps.size != tvs.d:
        raise ValueError("epsilon vector dimension does not match table")
    return _subset_sum(tvs, eps) ** l


def _check_orders(l_values) -> None:
    for l in l_values:
        if not l > 1:
            raise ValueError(f"f_l divergence requires l > 1, got {l}")


def channel_fl_epsilons(channels, l: float) -> np.ndarray:
    """Per-channel eps_j with sup_{x,x'} D_{f_l}(Q^j(.|x') || Q^j(.|x)) = eps_j^l.

    Exhaustive over all ordered input pairs, as one (m, m, k) table of the
    ``fl_term`` cells per channel; finite channels only.  A pair (x, x) adds
    exactly 0 and no cell is negative, so a one-row table gives 0.  The sums
    equal ``fl_term``'s bit for bit unless a row has zero cells and k >= 8,
    where the zeros shift numpy's pairwise summation (agreement to rounding).
    """
    _check_orders((l,))
    tables = (np.asarray(ch.transition_table, dtype=float)[None] for ch in channels)
    return np.array([_fl_epsilons(t, (l,))[0, 0] for t in tables], dtype=float)


def _fl_epsilons(tables: np.ndarray, l_values) -> np.ndarray:
    """``channel_fl_epsilons`` of a (B, m, k) stack of transition tables for each order
    in ``l_values``, shape (len(l_values), B): the |p/q - 1| table of every ordered
    row pair is built once and raised to every l."""
    q, p = tables[:, :, None, :], tables[:, None, :, :]
    if np.any((q == 0) & (p > 0)):
        raise ValueError("divergence undefined: P > 0 where Q = 0")
    defined = q > 0
    eps = np.empty((len(l_values), len(tables)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(p / q - 1.0)
        for i, l in enumerate(l_values):
            worst = np.where(defined, q * ratio**l, 0.0).sum(axis=-1).max(axis=(1, 2))
            eps[i] = [w ** (1.0 / l) for w in worst.tolist()]  # Python float powers: an array's may differ
    return eps


@dataclass(frozen=True)
class FlCheck:
    l: float
    lhs: float
    rhs: float
    violation: bool


@dataclass(frozen=True)
class ContractionReport:
    lhs_jeffreys: float
    lhs_kl_forward: float
    lhs_kl_reverse: float
    rhs: float
    tvs: MarginalTVTable
    alphas: tuple[float, ...]
    violation: bool
    f_checks: tuple[FlCheck, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "lhs_jeffreys": self.lhs_jeffreys,
            "lhs_kl_forward": self.lhs_kl_forward,
            "lhs_kl_reverse": self.lhs_kl_reverse,
            "rhs": self.rhs,
            "tvs": {"".join(str(j) for j in S): t for S, t in self.tvs.values.items()},
            "alphas": list(self.alphas),
            "violation": self.violation,
            "f_checks": [
                {"l": c.l, "lhs": c.lhs, "rhs": c.rhs, "violation": c.violation}
                for c in self.f_checks
            ],
        }


def verify_contraction(
    P: DiscreteDist, Pt: DiscreteDist, channels, l_values=()
) -> ContractionReport:
    """Exact pushforward check of the contraction bound on one instance: the
    stacked check on a stack of one."""
    if not P.same_support(Pt):
        raise ValueError("priors must share supports")
    axes = finite_axes(P, channels)
    alphas = [tuple(ch.alpha for ch in channels)]
    return _verify_stack([s[None] for s in P.supports], P.probs[None], Pt.probs[None], axes, alphas, l_values)[0]


def _verify_stack(supports, P, Pt, axes, alphas, l_values=()) -> list[ContractionReport]:
    """``verify_contraction`` on B instances of one support shape at once: ``supports``
    holds one (B, s_j) array per axis, ``P`` and ``Pt`` the (B, s_1, ..., s_d) mass
    tables, ``axes`` one (tables (B, m, k), inputs (B, m), outputs (B, k)) channel
    stack per axis and ``alphas`` one tuple per instance.  Every check of the
    instance-by-instance path runs on the whole stack."""
    l_values = tuple(l_values)
    _check_orders(l_values)
    a = np.array(alphas, dtype=float)
    if not np.all(a >= 0):
        PrivacyBudget(alphas[int(np.flatnonzero(~np.all(a >= 0, axis=1))[0])])  # raises its ValueError
    d = a.shape[1]
    rows = stack_rows(supports, axes)
    for ax, (_, _, outputs) in enumerate(axes):  # the release law's supports
        if np.any(np.diff(outputs, axis=-1) <= 0):
            raise ValueError(f"axis {ax + 1}: support points must be strictly increasing")
    # the flattened release laws, checked and divided as pushforward's DiscreteDist
    M, Mt = (checked_probs(push_axes(T, rows).reshape(len(T), -1)) for T in (P, Pt))
    lhs_f, lhs_r = kl_term(M, Mt), kl_term(Mt, M)
    tvs = _marginal_tvs(P, Pt)
    totals = _subset_sums(tvs, np.expm1(a))
    eps = np.stack([_fl_epsilons(tables, l_values) for tables, _, _ in axes], axis=-1)  # (L, B, d)
    ok = np.all(eps >= 0, axis=-1)
    if not np.all(ok):
        raise ValueError(f"epsilons must be nonnegative, got {eps[~ok][0].tolist()}")
    f_lhs = [fl_term(M, Mt, l).tolist() for l in l_values]
    f_totals = [_subset_sums(tvs, e) for e in eps]
    tv_rows = np.stack(list(tvs.values()), axis=1).tolist()
    reports = []
    for b, (kl_f, kl_r) in enumerate(zip(lhs_f.tolist(), lhs_r.tolist())):
        # numpy float64 scalar powers, as on one instance: an array's ** 2.0 is a square
        rhs, lhs_j = totals[b] ** 2, kl_f + kl_r
        checks = []
        for l, lhs, total in zip(l_values, f_lhs, f_totals):
            bound = total[b] ** l
            checks.append(FlCheck(l, lhs[b], bound, lhs[b] > bound + VIOLATION_TOL))
        reports.append(ContractionReport(
            lhs_jeffreys=lhs_j,
            lhs_kl_forward=kl_f,
            lhs_kl_reverse=kl_r,
            rhs=rhs,
            tvs=MarginalTVTable._trusted(d, dict(zip(tvs, tv_rows[b]))),
            alphas=alphas[b],
            violation=lhs_j > rhs + VIOLATION_TOL,
            f_checks=tuple(checks),
        ))
    return reports


def random_instance(rng, dims=(2, 3)):
    """One random (P, Pt, channels) triple for the verification sweep: d drawn from
    ``dims``, 2 or 3 support points per axis, each alpha_j uniform on [0.1, 1.5]."""
    supports, p, pt, alphas = _draw_instance(rng, dims)
    P, Pt = DiscreteDist._trusted(supports, p), DiscreteDist._trusted(supports, pt)
    return P, Pt, [make_rr_channel(tuple(s), a) for s, a in zip(supports, alphas.tolist())]


def _draw_instance(rng, dims):
    """The draws of one instance, in stream order: supports, the two prior tables
    (each divided by its total once; DiscreteDist divides once more) and alphas."""
    d = int(rng.choice(dims))
    sizes = [int(rng.integers(2, 4)) for _ in range(d)]
    supports = [np.sort(rng.normal(size=s) * 2.0) for s in sizes]
    for s_arr in supports:
        while (s_arr[1:] - s_arr[:-1] <= 1e-9).any():  # enforce strict increase
            s_arr += np.linspace(0, 1e-6, s_arr.size)
    p, pt = _random_table(rng, sizes), _random_table(rng, sizes)
    return supports, p, pt, rng.uniform(0.1, 1.5, size=d)


def _random_table(rng, sizes) -> np.ndarray:
    raw = rng.gamma(1.0, 1.0, size=tuple(sizes))
    return raw / raw.sum()


def _rr_tables(m: int, alphas) -> np.ndarray:
    """The (B, m, m) tables of ``make_rr_channel`` at each of ``alphas``, in closed form."""
    e = np.array([math.exp(a) for a in alphas])  # math.exp, as make_rr_channel: np.exp may differ in the last bit
    den = e + m - 1
    tables = np.empty((len(e), m, m))
    tables[...] = (1.0 / den)[:, None, None]
    tables[:, range(m), range(m)] = (e / den)[:, None]
    return tables


def rr_sweep(key, instances: int, draw, check) -> list:
    """The reports of ``instances`` randomized-response instances, in instance order: instance
    i is ``draw(derive_rng(*key, i))``, its supports (one sorted array per axis), mass tables
    and alphas.  Each support shape's instances are stacked and checked as ``DiscreteDist``
    checks a law (strictly increasing supports, then ``checked_probs`` on each table), and
    ``check(supports, *tables, axes, alphas)`` reports on the stack with ``make_rr_channel``
    at alpha_j on each axis j, as ``_verify_stack`` and ``_leakage_stack`` do."""
    groups: dict = {}
    for i in range(instances):
        drawn = draw(derive_rng(*key, i))
        groups.setdefault(drawn[1].shape, []).append((i, drawn))
    reports = [None] * instances
    for members in groups.values():
        index, draws = zip(*members)
        supports, *tables, alphas = zip(*draws)
        supports = [np.stack(s) for s in zip(*supports)]
        for ax, s in enumerate(supports):
            if np.any(np.diff(s, axis=-1) <= 0):
                raise ValueError(f"axis {ax + 1}: support points must be strictly increasing")
        tables = [checked_probs(np.stack(t)) for t in tables]
        alphas = [tuple(a) for a in np.stack(alphas).tolist()]
        axes = [(_rr_tables(s.shape[1], [a[j] for a in alphas]), s, s) for j, s in enumerate(supports)]
        for i, rep in zip(index, check(supports, *tables, axes, alphas)):
            reports[i] = rep
    return reports


@dataclass(frozen=True)
class Sweep:
    """A randomized suite's master seed, instance count (zero would pass vacuously) and the
    dimensions its instances draw from; each suite, and ``cldp`` before any run, builds one."""

    seed: int = rule(INT, at_least(0))
    instances: int = rule(INT, at_least(1))
    dims: tuple[int, ...] = rule(INTS, each(at_least(1), nonempty=True), default=(2, 3))

    __post_init__ = check_fields


def run_contraction_sweep(
    dims=(2, 3),
    instances: int = 500,
    seed: int = 7,
    l_values=(1.5, 2.0, 3.0),
) -> dict:
    """Randomized brute-force sweep; returns a JSON-ready report.  Instance i draws
    from the stream (seed, i); the instances of each support shape are checked as
    one stack and reported in instance order."""
    Sweep(seed, instances, dims)
    reports = rr_sweep((seed,), instances, functools.partial(_draw_instance, dims=dims),
                       functools.partial(_verify_stack, l_values=l_values))
    violations = sum(bool(rep.violation or any(c.violation for c in rep.f_checks)) for rep in reports)
    return {
        "suite": "contraction",
        "instances": instances,
        "dims": list(dims),
        "seed": seed,
        "l_values": list(l_values),
        "violations": violations,
        "reports": [rep.to_json() for rep in reports],
    }
