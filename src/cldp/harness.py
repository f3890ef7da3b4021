"""Monte Carlo rate experiments, slope fits, and verification suites.

Reproducibility contract: (config, seed) fully determines every output byte.
Replication r of grid point n draws from the stream derived as
SeedSequence(entropy=seed, spawn_key=(mode_id, n, r)); aggregation sums
per-replication results in replication order after collecting them by index,
so the CSV is identical for any parallelism degree.

The effective-sample-size axis of each experiment is fixed by the rate
statement being checked and recorded in the output metadata, so slope targets
are unambiguous:

    mean              n alpha^2
    moment, cov       n prod alpha_j^2
    kde (private)     n prod alpha_j^2      (nonprivate regime: n)
    adaptive moment   n prod alpha_j^2 / (log n)^(2d+1)
    adaptive density  n prod alpha_j^2 / (log n)^(1+2d)
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import stdtrit

from . import adaptive as ad
from . import contraction as ct
from . import effective_privacy as ep
from . import lowerbounds as lb
from .channels import (
    LaplaceTruncChannel,
    PrivacyBudget,
    kernel_order,
    make_kernel,
    make_rr_channel,
    privacy_audit,
)
from .estimators import (
    HolderClass,
    MomentProfile,
    kde_channels,
    optimal_bandwidth,
    optimal_truncations,
    private_covariance_correlation,
    private_joint_moment,
    private_kde,
    private_mean,
    release_sample,
)
from .simdata import HolderDensityModel, ParetoFactorModel, model_from_json, sample_heavy_tailed, sample_holder_density

__all__ = [
    "ExperimentConfig",
    "RatePoint",
    "RateCurve",
    "SlopeFit",
    "run_rate_experiment",
    "fit_loglog_slope",
    "run_verification_suite",
    "ZeroNoiseRng",
    "derive_rng",
    "default_workers",
]

_MODE_IDS = {
    "mean": 1,
    "moment": 2,
    "cov": 3,
    "kde": 4,
    "adaptive_moment": 5,
    "adaptive_density": 6,
}


class ZeroNoiseRng:
    """RNG proxy whose Laplace draws are zero (testing hook for noise-free channels)."""

    def __init__(self, rng):
        self._rng = rng

    def laplace(self, loc=0.0, scale=1.0, size=None):
        if size is None:
            return 0.0
        return np.zeros(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic stream for (master seed, stream index...)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def default_workers() -> int:
    env = os.environ.get("CLDP_WORKERS")
    return max(1, int(env)) if env else 1


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    n_grid: tuple[int, ...]
    alphas: tuple[float, ...]
    replications: int
    seed: int
    model: dict
    options: dict = field(default_factory=dict)
    out: Optional[str] = None
    workers: int = 1

    def __post_init__(self):
        if self.mode not in _MODE_IDS:
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.n_grid) == 0:
            raise ValueError("empty n grid")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")

    def validate_for_slope(self):
        """Invariants demanded of slope experiments (enforced at the CLI)."""
        if self.replications < 30 and not self.options.get("zero_noise"):
            raise ValueError("slope experiments need replications >= 30")
        if len(self.n_grid) < 4:
            raise ValueError("slope experiments need >= 4 grid points")
        effs = [self._n_eff_static(n) for n in self.n_grid]
        if max(effs) < 100.0 * min(effs):
            raise ValueError("n grid must span >= 2 decades of effective sample size")

    def _n_eff_static(self, n: int) -> float:
        # the log-corrected adaptive axes compress decades; the span check uses
        # the undeflated effective size so feasible sweeps remain admissible
        budget = PrivacyBudget(self.alphas)
        if self.mode in ("adaptive_moment", "adaptive_density"):
            return n * budget.prod_alpha_sq()
        return _n_eff(self.mode, n, budget, self.options)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "n_grid": list(self.n_grid),
            "alphas": list(self.alphas),
            "replications": self.replications,
            "seed": self.seed,
            "model": self.model,
            "options": self.options,
            "workers": self.workers,
        }


@dataclass(frozen=True)
class RatePoint:
    n: int
    n_eff: float
    mse: float
    stderr: float
    replications: int
    seed: int


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    slope_stderr: float
    band: tuple[float, float]  # 95% interval for the slope

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "slope_stderr": self.slope_stderr,
            "band": list(self.band),
        }


@dataclass(frozen=True, eq=False)
class RateCurve:
    points: tuple[RatePoint, ...]
    mode: str
    axis: str
    extras: dict = field(default_factory=dict)

    def valid_points(self) -> list[RatePoint]:
        return [p for p in self.points if p.replications > 0 and math.isfinite(p.mse)]

    def to_csv(self) -> str:
        lines = ["n,n_eff,mse,stderr,replications,seed"]
        for p in self.points:
            lines.append(
                f"{p.n},{p.n_eff:.17g},{p.mse:.17g},{p.stderr:.17g},{p.replications},{p.seed}"
            )
        return "\n".join(lines) + "\n"


def fit_loglog_slope(curve) -> SlopeFit:
    """OLS of log(mse) on log(n_eff) with a 95% band: slope +- t_{0.975, k-2} * stderr over k points."""
    if isinstance(curve, RateCurve):
        pts = curve.valid_points()
        xs = np.array([p.n_eff for p in pts])
        ys = np.array([p.mse for p in pts])
    else:
        xs, ys = (np.asarray(v, dtype=float) for v in curve)
    if xs.size < 4:
        raise ValueError("need at least 4 points to fit a slope")
    if np.any(ys <= 0):
        raise ValueError("nonpositive mse cannot be log-fitted")
    lx = np.log(xs)
    ly = np.log(ys)
    xbar = lx.mean()
    sxx = float(np.sum((lx - xbar) ** 2))
    slope = float(np.sum((lx - xbar) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * xbar)
    resid = ly - (intercept + slope * lx)
    dof = max(1, lx.size - 2)
    s2 = float(np.sum(resid**2) / dof)
    se = math.sqrt(s2 / sxx)
    half = float(stdtrit(dof, 0.975)) * se
    return SlopeFit(slope, intercept, se, (slope - half, slope + half))


def _n_eff(mode: str, n: int, budget: PrivacyBudget, options: dict) -> float:
    d = budget.d
    if mode == "mean":
        return n * budget.alphas[0] ** 2
    if mode in ("moment", "cov"):
        return n * budget.prod_alpha_sq()
    if mode == "kde":
        hc = HolderClass(beta=float(options.get("beta", 2.0)), d=d)
        regime = optimal_bandwidth(hc, budget, n).regime
        return float(n) if regime == "nonprivate" else n * budget.prod_alpha_sq()
    if mode == "adaptive_moment":
        return n * budget.prod_alpha_sq() / math.log(n) ** (2 * d + 1)
    if mode == "adaptive_density":
        return n * budget.prod_alpha_sq() / math.log(n) ** (1 + 2 * d)
    raise ValueError(f"unknown mode {mode!r}")


def _build_model(model_spec: dict):
    return model_from_json(model_spec)


def _sample_raw(model, n: int, rng) -> np.ndarray:
    if isinstance(model, ParetoFactorModel):
        return sample_heavy_tailed(model, n, rng)
    if isinstance(model, HolderDensityModel):
        return sample_holder_density(model, n, rng)
    raise ValueError(f"model {type(model)!r} cannot back a rate experiment")


def _truth(mode: str, model, options: dict) -> float:
    if mode == "mean":
        return model.mean(1)
    if mode in ("moment", "adaptive_moment"):
        return model.gamma()
    if mode == "cov":
        return model.covariance()
    if mode in ("kde", "adaptive_density"):
        x0 = np.atleast_1d(np.asarray(options.get("x0", 0.0), dtype=float))
        return model.density_at(x0)
    raise ValueError(f"unknown mode {mode!r}")


def _run_replication(cfg_json: dict, n: int, rep: int) -> dict:
    """One replication; returns the squared error plus mode-specific extras."""
    mode = cfg_json["mode"]
    options = cfg_json["options"]
    seed = cfg_json["seed"]
    budget = PrivacyBudget(cfg_json["alphas"])
    model = _build_model(cfg_json["model"])
    truth = _truth(mode, model, options)
    rng = derive_rng(seed, _MODE_IDS[mode], n, rep)
    if options.get("zero_noise"):
        rng = ZeroNoiseRng(rng)
    X = _sample_raw(model, n, rng)
    d = budget.d

    if mode == "mean":
        profile = MomentProfile(options["ks"])
        ts = optimal_truncations(profile, budget, n, mode="mean")
        channels = tuple(LaplaceTruncChannel(float(t), a) for t, a in zip(ts, budget.alphas))
        Z = release_sample(X, channels, rng)
        est = private_mean(Z, 1)
        return {"sq_err": (est - truth) ** 2}

    if mode in ("moment", "cov"):
        profile = MomentProfile(options["ks"])
        ts = optimal_truncations(profile, budget, n, mode="joint")
        channels = tuple(LaplaceTruncChannel(float(t), a) for t, a in zip(ts, budget.alphas))
        Z = release_sample(X, channels, rng)
        if mode == "moment":
            est = private_joint_moment(Z)
        else:
            est = private_covariance_correlation(Z).theta
        return {"sq_err": (est - truth) ** 2}

    if mode == "kde":
        hc = HolderClass(beta=float(options.get("beta", 2.0)), d=d)
        x0 = np.atleast_1d(np.asarray(options.get("x0", 0.0), dtype=float))
        h = float(options.get("h", optimal_bandwidth(hc, budget, n).h_star))
        channels = kde_channels(hc, budget, x0, h)
        Z = release_sample(X, channels, rng)
        est = private_kde(Z)
        return {"sq_err": (est - truth) ** 2}

    if mode == "adaptive_moment":
        glc = ad.GLConfig(n=n, budget=budget, c0=float(options.get("c0", 8.0)))
        channels = ad.multi_trunc_channels(glc)
        Zm = release_sample(X, channels, rng)
        sel = ad.gl_select_truncation(Zm, glc)
        out = {"sq_err": (sel.gamma_hat - truth) ** 2, "sel_index": list(sel.index)}
        if options.get("oracle", True) and rep < int(options.get("oracle_reps", 10**9)):
            grid = ad.build_truncation_grid(n)
            oracle_vals = _oracle_moment_table(X, grid, budget, rng)
            out["oracle_sq"] = ((oracle_vals - truth) ** 2).ravel().tolist()
        return out

    if mode == "adaptive_density":
        hc = HolderClass(beta=float(options.get("beta", 2.0)), d=d)
        x0 = np.atleast_1d(np.asarray(options.get("x0", 0.0), dtype=float))
        kernel = make_kernel(kernel_order(hc.beta))
        glc = ad.GLConfig(n=n, budget=budget, c0=float(options.get("c0", 8.0)))
        channels = ad.multi_bandwidth_channels(glc, x0, kernel)
        Zm = release_sample(X, channels, rng)
        sel = ad.gl_select_bandwidth(Zm, glc)
        out = {"sq_err": (sel.pi_hat - truth) ** 2, "sel_index": [sel.index]}
        if options.get("oracle", True) and rep < int(options.get("oracle_reps", 10**9)):
            grid = ad.build_bandwidth_grid(n)
            oracle_vals = _oracle_kde_per_h(X, grid, budget, x0, kernel, rng)
            out["oracle_sq"] = ((oracle_vals - truth) ** 2).ravel().tolist()
        return out

    raise ValueError(f"unknown mode {mode!r}")


def _oracle_moment_table(X: np.ndarray, grid: np.ndarray, budget: PrivacyBudget, rng) -> np.ndarray:
    """Full-budget single-release estimates for every grid combination.

    Reference only: releasing all levels at full budget is not a private
    mechanism, but each fixed level is, and sharing draws across candidates is
    the usual common-random-numbers device for oracle MSE curves.
    """
    n, d = X.shape
    m = grid.size
    cols = []
    for j in range(d):
        clean = np.clip(X[:, j][:, None], -grid, grid)
        scales = 2.0 * grid / budget.alphas[j]
        cols.append(clean + rng.laplace(0.0, 1.0, size=(n, m)) * scales)
    letters = "abcdefgh"
    spec = ",".join(f"i{letters[j]}" for j in range(d)) + "->" + letters[:d]
    return np.einsum(spec, *cols) / n


def _oracle_kde_per_h(
    X: np.ndarray, grid: np.ndarray, budget: PrivacyBudget, x0: np.ndarray, kernel, rng
) -> np.ndarray:
    """Full-budget single-release pointwise estimates for every bandwidth."""
    n, d = X.shape
    m = grid.size
    prod = np.ones((n, m))
    for j in range(d):
        clean = kernel((X[:, j][:, None] - x0[j]) / grid) / grid
        scales = 2.0 * kernel.kappa / (grid * budget.alphas[j])
        prod *= clean + rng.laplace(0.0, 1.0, size=(n, m)) * scales
    return prod.mean(axis=0)


def run_rate_experiment(cfg: ExperimentConfig) -> RateCurve:
    """Per-n MSE over replications against the model's cached ground truth."""
    budget = PrivacyBudget(cfg.alphas)
    cfg_json = cfg.to_json()
    points = []
    extras: dict = {"per_n": {}}
    for n in cfg.n_grid:
        try:
            n_eff = _n_eff(cfg.mode, n, budget, cfg.options)
            _precheck(cfg, n, budget)
        except ValueError as exc:
            # regime violation: keep a warning row, excluded from fits
            points.append(RatePoint(n, float("nan"), float("nan"), float("nan"), 0, cfg.seed))
            extras["per_n"][str(n)] = {"warning": str(exc)}
            continue
        results = _map_replications(cfg_json, n, cfg.replications, cfg.workers)
        errs = np.array([r["sq_err"] for r in results])
        mse = float(errs.mean())
        stderr = float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
        points.append(RatePoint(n, n_eff, mse, stderr, cfg.replications, cfg.seed))
        per_n: dict = {}
        oracle_rows = [r["oracle_sq"] for r in results if "oracle_sq" in r]
        if oracle_rows:
            oracle_mse = np.mean(oracle_rows, axis=0)
            per_n["oracle_mse"] = float(oracle_mse.min())
            per_n["ratio"] = mse / float(oracle_mse.min())
        if "sel_index" in results[0]:
            per_n["selections"] = [r["sel_index"] for r in results]
        if per_n:
            extras["per_n"][str(n)] = per_n
    curve = RateCurve(points=tuple(points), mode=cfg.mode, axis=_axis_name(cfg.mode), extras=extras)
    if cfg.out:
        _write_outputs(cfg, curve)
    return curve


def _precheck(cfg: ExperimentConfig, n: int, budget: PrivacyBudget):
    """Raise on regime violations before spending replication time."""
    if cfg.mode == "mean":
        optimal_truncations(MomentProfile(cfg.options["ks"]), budget, n, mode="mean")
    elif cfg.mode in ("moment", "cov"):
        optimal_truncations(MomentProfile(cfg.options["ks"]), budget, n, mode="joint")
    elif cfg.mode == "kde":
        if "h" not in cfg.options:
            optimal_bandwidth(HolderClass(beta=float(cfg.options.get("beta", 2.0)), d=budget.d), budget, n)
    elif cfg.mode in ("adaptive_moment", "adaptive_density"):
        if n < 4:
            raise ValueError("adaptive grids need n >= 4")


def _axis_name(mode: str) -> str:
    return {
        "mean": "n*alpha^2",
        "moment": "n*prod(alpha^2)",
        "cov": "n*prod(alpha^2)",
        "kde": "n*prod(alpha^2) [private regime] or n [nonprivate]",
        "adaptive_moment": "n*prod(alpha^2)/log(n)^(2d+1)",
        "adaptive_density": "n*prod(alpha^2)/log(n)^(1+2d)",
    }[mode]


def _map_replications(cfg_json: dict, n: int, reps: int, workers: int) -> list[dict]:
    if workers <= 1:
        return [_run_replication(cfg_json, n, r) for r in range(reps)]
    results: list[Optional[dict]] = [None] * reps
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futs = {pool.submit(_run_replication, cfg_json, n, r): r for r in range(reps)}
        for fut in concurrent.futures.as_completed(futs):
            results[futs[fut]] = fut.result()
    return results  # type: ignore[return-value]


def _write_outputs(cfg: ExperimentConfig, curve: RateCurve) -> None:
    with open(cfg.out, "w") as f:
        f.write(curve.to_csv())
    meta = {
        "config": cfg.to_json(),
        "axis": curve.axis,
        "extras": _json_safe(curve.extras),
    }
    try:
        fit = fit_loglog_slope(curve)
        meta["fit"] = fit.to_json()
    except ValueError as exc:
        meta["fit"] = {"error": str(exc)}
    with open(cfg.out + ".meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def run_verification_suite(which: str, seed: int = 7, instances: Optional[int] = None) -> tuple[int, dict]:
    """Dispatch to the module-level verify operations; nonzero exit on violation."""
    if which == "contraction":
        report = ct.run_contraction_sweep(instances=instances or 500, seed=seed)
        return (1 if report["violations"] else 0), report
    if which == "privacy":
        report = _privacy_suite(seed)
        return (1 if report["violations"] else 0), report
    if which == "leakage":
        report = _leakage_suite(seed, instances or 200)
        return (1 if report["violations"] else 0), report
    if which == "lowerbound":
        report = _lowerbound_suite()
        ok = all(r["condition3_ok"] and r["marginals_equal"] for r in report["cases"])
        return (0 if ok else 1), report
    raise ValueError(f"unknown suite {which!r}")


def _privacy_suite(seed: int) -> dict:
    rng = derive_rng(seed, 101)
    rows = []
    violations = 0
    for _ in range(20):
        T = float(rng.uniform(0.5, 5.0))
        alpha = float(rng.uniform(0.2, 1.5))
        audit = privacy_audit(LaplaceTruncChannel(T=T, alpha=alpha))
        bound = math.exp(alpha)
        ok = bound * (1 - 1e-6) <= audit.max_ratio <= bound * (1 + 1e-9)
        violations += int(not ok)
        rows.append({"channel": "laplace_trunc", "T": T, "alpha": alpha, "ratio": audit.max_ratio, "bound": bound, "ok": ok})
    for m in (2, 3, 5):
        alpha = 0.3 + 0.2 * m
        audit = privacy_audit(make_rr_channel(tuple(range(m)), alpha))
        bound = math.exp(alpha)
        ok = audit.max_ratio <= bound * (1 + 1e-9)
        violations += int(not ok)
        rows.append({"channel": f"rr_m{m}", "alpha": alpha, "ratio": audit.max_ratio, "bound": bound, "ok": ok})
    for n, alpha in ((64, 0.8), (256, 0.5)):
        glc = ad.GLConfig(n=n, budget=PrivacyBudget([alpha]))
        ch = ad.multi_trunc_channels(glc)[0]
        audit = privacy_audit(ch)
        bound = math.exp(alpha)
        ok = audit.max_ratio <= bound * (1 + 1e-9)
        violations += int(not ok)
        rows.append({"channel": "multi_trunc", "n": n, "alpha": alpha, "ratio": audit.max_ratio, "bound": bound, "ok": ok})
        kern = make_kernel(1)
        chb = ad.multi_bandwidth_channels(ad.GLConfig(n=n, budget=PrivacyBudget([alpha])), [0.0], kern)[0]
        audit = privacy_audit(chb)
        ok = audit.max_ratio <= bound * (1 + 1e-9)
        violations += int(not ok)
        rows.append({"channel": "multi_bandwidth", "n": n, "alpha": alpha, "ratio": audit.max_ratio, "bound": bound, "ok": ok})
    return {"suite": "privacy", "seed": seed, "violations": violations, "audits": rows}


def _random_joint_dist(rng, d: int, max_support: int = 3):
    sizes = [int(rng.integers(2, max_support + 1)) for _ in range(d)]
    supports = [np.sort(rng.normal(size=s) * 1.5) for s in sizes]
    raw = rng.gamma(1.0, 1.0, size=tuple(sizes)) + 1e-3
    from .measures import DiscreteDist

    return DiscreteDist(supports, raw / raw.sum())


def _leakage_suite(seed: int, instances: int) -> dict:
    rows = []
    violations = 0
    for i in range(instances):
        rng = derive_rng(seed, 202, i)
        d = int(rng.choice((2, 3)))
        P = _random_joint_dist(rng, d)
        alphas = rng.uniform(0.1, 1.5, size=d)
        channels = [make_rr_channel(tuple(P.supports[j]), float(alphas[j])) for j in range(d)]
        rep = ep.leakage_report(P, channels)
        violations += int(rep["violation"])
        rows.append(rep)
    return {"suite": "leakage", "seed": seed, "instances": instances, "violations": violations, "reports": rows}


def _lowerbound_suite() -> dict:
    cases = []
    for d, alphas, n in ((2, (0.5, 0.5), 64), (2, (0.8, 0.4), 256), (3, (0.6, 0.6, 0.6), 512)):
        profile = MomentProfile([4.0] * d)
        budget = PrivacyBudget(alphas)
        inst = lb.moment_two_point(profile, budget, n)
        channels = lb.default_moment_channels(inst)
        rep = lb.verify_two_point(inst, channels, n)
        worst = 0.0
        from .measures import marginal, nonempty_subsets, tv_distance

        for S in nonempty_subsets(d):
            if len(S) == d:
                continue
            worst = max(worst, tv_distance(marginal(inst.P, S), marginal(inst.P_star, S)))
        cases.append(
            {
                "d": d,
                "alphas": list(alphas),
                "n": n,
                "delta": inst.delta,
                "separation": inst.separation,
                "marginals_equal": worst <= 1e-14,
                "strict_subset_tv_max": worst,
                **rep.to_json(),
            }
        )
    return {"suite": "lowerbound", "cases": cases}
