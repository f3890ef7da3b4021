"""Divergence-contraction upper bounds and brute-force verification.

The main bound controls the divergence between the privatized laws M and M~ of
two priors P and P~ released through per-component channels at levels alpha_j:

    (sum over nonempty S of prod_{h in S} (e^{alpha_h} - 1) * d_TV(marginals on S))^2

The left-hand side verified here is the symmetric (Jeffreys) divergence, which
is what the bound's derivation actually controls and which dominates both
one-directional KLs; those are reported alongside.  All verification uses
finite channels so pushforward laws are exact and the only tolerance is
floating-point (1e-9 absolute).

Pure functions over immutable inputs; the randomized sweep derives one RNG
stream per instance, so results are deterministic under any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import PrivacyBudget, derive_rng, make_rr_channel
from .measures import DiscreteDist, SubsetIndex, fl_term, kl_term, nonempty_subsets, pushforward

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
    "check_sweep_size",
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
    def from_dists(cls, P: DiscreteDist, Pt: DiscreteDist) -> "MarginalTVTable":
        """tv_distance(marginal(P, S), marginal(Pt, S)) for every S, read from the
        mass tables: each S-marginal is normalized by its own total, as
        ``marginal`` does through DiscreteDist, so the values are bit-identical."""
        if not P.same_support(Pt):
            raise ValueError("distributions must share the same supports")
        vals = {}
        for S in nonempty_subsets(P.d):
            drop = tuple(ax for ax in range(P.d) if ax + 1 not in S.members)
            p, q = (D.probs.sum(axis=drop) if drop else D.probs for D in (P, Pt))
            vals[S] = float(np.abs(p / float(p.sum()) - q / float(q.sum())).sum())
        return cls(P.d, vals)


def _subset_sum(tvs: MarginalTVTable, factors: np.ndarray) -> float:
    """sum over nonempty S of prod_{j in S} factors[j-1] * tvs[S]."""
    total = 0.0
    for S in nonempty_subsets(tvs.d):
        prod = 1.0
        for j in S:
            prod *= factors[j - 1]
        total += prod * tvs[S]
    return total


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


def channel_fl_epsilons(channels, l: float) -> np.ndarray:
    """Per-channel eps_j with sup_{x,x'} D_{f_l}(Q^j(.|x') || Q^j(.|x)) = eps_j^l.

    Exhaustive over all ordered input pairs, as one (m, m, k) table of the
    ``fl_term`` cells per channel; finite channels only.  A pair (x, x) adds
    exactly 0 and no cell is negative, so a one-row table gives 0.  The sums
    equal ``fl_term``'s bit for bit unless a row has zero cells and k >= 8,
    where the zeros shift numpy's pairwise summation (agreement to rounding).
    """
    return _fl_epsilons(channels, (l,))[0]


def _fl_epsilons(channels, l_values) -> np.ndarray:
    """``channel_fl_epsilons`` for each order in ``l_values``, one row per order: each
    channel's |p/q - 1| table is built once and raised to every l."""
    for l in l_values:
        if not l > 1:
            raise ValueError(f"f_l divergence requires l > 1, got {l}")
    eps = np.empty((len(l_values), len(channels)))
    for j, ch in enumerate(channels):
        rows = np.asarray(ch.transition_table, dtype=float)
        q, p = rows[:, None, :], rows[None, :, :]
        if np.any((q == 0) & (p > 0)):
            raise ValueError("divergence undefined: P > 0 where Q = 0")
        defined = q > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(p / q - 1.0)
            for i, l in enumerate(l_values):
                cells = np.where(defined, q * ratio**l, 0.0)
                eps[i, j] = float(cells.sum(axis=-1).max()) ** (1.0 / l)
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
    """Exact pushforward check of the contraction bound on one instance."""
    if not P.same_support(Pt):
        raise ValueError("priors must share supports")
    alphas = tuple(ch.alpha for ch in channels)
    budget = PrivacyBudget(alphas)
    m = pushforward(P, channels).probs.ravel()
    mt = pushforward(Pt, channels).probs.ravel()
    lhs_f = kl_term(m, mt)
    lhs_r = kl_term(mt, m)
    lhs_j = lhs_f + lhs_r
    tvs = MarginalTVTable.from_dists(P, Pt)
    rhs = cldp_kl_bound(tvs, budget)
    l_values = tuple(l_values)
    checks = []
    for l, eps in zip(l_values, _fl_epsilons(channels, l_values)):
        lhs = fl_term(m, mt, l)
        bound = f_divergence_bound(tvs, eps, l)
        checks.append(FlCheck(l, lhs, bound, lhs > bound + VIOLATION_TOL))
    return ContractionReport(
        lhs_jeffreys=lhs_j,
        lhs_kl_forward=lhs_f,
        lhs_kl_reverse=lhs_r,
        rhs=rhs,
        tvs=tvs,
        alphas=alphas,
        violation=lhs_j > rhs + VIOLATION_TOL,
        f_checks=tuple(checks),
    )


def random_instance(rng, dims=(2, 3)):
    """One random (P, Pt, channels) triple for the verification sweep: d drawn from
    ``dims``, 2 or 3 support points per axis, each alpha_j uniform on [0.1, 1.5]."""
    d = int(rng.choice(dims))
    sizes = [int(rng.integers(2, 4)) for _ in range(d)]
    supports = [np.sort(rng.normal(size=s) * 2.0) for s in sizes]
    for s_arr in supports:
        while np.any(np.diff(s_arr) <= 1e-9):  # enforce strict increase
            s_arr += np.linspace(0, 1e-6, s_arr.size)
    P = DiscreteDist._trusted(supports, _random_table(rng, sizes))
    Pt = DiscreteDist._trusted(supports, _random_table(rng, sizes))
    alphas = rng.uniform(0.1, 1.5, size=d)
    channels = [make_rr_channel(tuple(supports[j]), float(alphas[j])) for j in range(d)]
    return P, Pt, channels


def _random_table(rng, sizes) -> np.ndarray:
    raw = rng.gamma(1.0, 1.0, size=tuple(sizes))
    return raw / raw.sum()


def check_sweep_size(instances: int, dims=(1,)) -> None:
    """ValueError unless a randomized suite runs at least one instance and every
    drawn dimension is at least 1: zero instances would pass vacuously."""
    if not instances >= 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if len(dims) == 0 or not min(dims) >= 1:
        raise ValueError(f"dims must be one or more axis counts >= 1, got {list(dims)}")


def run_contraction_sweep(
    dims=(2, 3),
    instances: int = 500,
    seed: int = 7,
    l_values=(1.5, 2.0, 3.0),
) -> dict:
    """Randomized brute-force sweep; returns a JSON-ready report."""
    check_sweep_size(instances, dims)
    reports = []
    violations = 0
    for i in range(instances):
        rng = derive_rng(seed, i)
        P, Pt, channels = random_instance(rng, dims)
        rep = verify_contraction(P, Pt, channels, l_values=l_values)
        bad = rep.violation or any(c.violation for c in rep.f_checks)
        violations += int(bad)
        reports.append(rep.to_json())
    return {
        "suite": "contraction",
        "instances": instances,
        "dims": list(dims),
        "seed": seed,
        "l_values": list(l_values),
        "violations": violations,
        "reports": reports,
    }
