"""Monte Carlo rate experiments, slope fits, and verification suites.

Reproducibility contract: (config, seed) fully determines every output byte.
Replication r of grid point n draws from the stream derived as
SeedSequence(entropy=seed, spawn_key=(mode_id, n, r)); aggregation sums
per-replication results in replication order after collecting them by index,
so the CSV is identical for any parallelism degree.

Every replication makes one pass over row blocks of its sample
(``Mode.level_pass``) that releases each block as ``release_sample`` would and
keeps only the sums behind the mode's table: one level for a fixed-tuning mode,
every grid level (and the oracle's sums) for an adaptive one.

The effective-sample-size axis of each experiment is fixed by the rate
statement being checked and recorded in the output metadata, so slope targets
are unambiguous:

    mean              n alpha^2
    moment, cov, corr n prod alpha_j^2
    kde (private)     n prod alpha_j^2      (nonprivate regime: n)
    adaptive moment   n prod alpha_j^2 / (log n)^(2d+1)
    adaptive density  n prod alpha_j^2 / (log n)^(1+2d)
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import adaptive as ad
from . import contraction as ct
from . import effective_privacy as ep
from . import lowerbounds as lb
from .channels import (
    LaplaceTruncChannel,
    MultiBandwidthChannel,
    MultiTruncChannel,
    PrivacyBudget,
    ZeroNoiseRng,
    audit_verdict,
    derive_rng,
    kernel_order,
    make_kernel,
    make_rr_channel,
    privacy_audit,
    release_rows,
)
from .estimators import (
    HolderClass,
    MomentProfile,
    RegimeError,
    _bandwidth_regime,
    corr_release_plan,
    covariance_correlation,
    kde_channels,
    optimal_bandwidth,
    optimal_truncations,
)
from .estimators import (  # noqa: F401  (perfbench/tracing.py wraps them at these names)
    private_covariance_correlation, private_joint_moment, private_kde, private_mean, release_sample,
)
from .rules import INT, INTS, at_least, check_fields, each, one_of, rule
from .simdata import HolderDensityModel, ParetoFactorModel, model_from_json, sample_heavy_tailed, sample_holder_density

__all__ = [
    "ExperimentConfig",
    "Mode",
    "MODES",
    "run_mode",
    "kde_bandwidth",
    "RatePoint",
    "RateCurve",
    "SlopeFit",
    "run_rate_experiment",
    "fit_loglog_slope",
    "run_verification_suite",
    "SUITES",
    "write_json",
    "ZeroNoiseRng",
    "derive_rng",
]


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
        return {**asdict(self), "band": list(self.band)}


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
    if not np.all(np.isfinite(xs) & np.isfinite(ys) & (xs > 0)):
        raise ValueError("n_eff and mse must be positive and finite to be log-fitted")
    lx = np.log(xs)
    ly = np.log(ys)
    if np.unique(lx).size < 2:
        raise ValueError("need at least 2 distinct n_eff to fit a slope")
    xbar = lx.mean()
    sxx = float(np.sum((lx - xbar) ** 2))
    slope = float(np.sum((lx - xbar) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * xbar)
    resid = ly - (intercept + slope * lx)
    dof = max(1, lx.size - 2)
    s2 = float(np.sum(resid**2) / dof)
    se = math.sqrt(s2 / sxx)
    # imported here: scipy.special is most of the package's start-up, and only the fit needs it
    from scipy.special import stdtrit

    half = float(stdtrit(dof, 0.975)) * se
    return SlopeFit(slope, intercept, se, (slope - half, slope + half))


def _n_prod(n: int, budget: PrivacyBudget, options: dict) -> float:
    return n * budget.prod_alpha_sq()


@dataclass(frozen=True)
class Mode:
    """One rate mode: stream key, axis, estimand and release-and-estimate pipeline.

    The callables look up the functions they run when they run, so replacing
    those module attributes (as a tracer does) reaches every mode: the
    samplers, ``derive_rng`` and ``release_rows`` of this module, the
    ``row_blocks``, ``block_streams`` and ``laplace_release`` of
    ``cldp.channels`` that ``release_rows`` calls, and the rules
    ``gl_truncation_rule`` and ``gl_bandwidth_rule`` of ``cldp.adaptive``.
    ``release_sample`` and the ``private_*`` estimators, still importable
    here, are the per-sample reference the pass is tested against; no mode
    calls them.
    """

    id: int  # replication r of grid point n draws from the stream (seed, id, n, r)
    axis: str
    model: type  # the data model the mode samples
    config_keys: tuple[str, ...]  # config keys the pipeline reads besides the model's
    truth: Callable  # (model, options) -> estimand
    channels: Callable  # (n, budget, options) -> channels; RegimeError outside the regime, ValueError on a bad option
    estimate: Callable  # (table, n, budget, options) -> estimate; adaptive modes: the selection
    # per-column (rows,) releases, or (rows, m) for multi-level channels -> the sums over rows behind the
    # table: over the releases that is n times the table ``estimate`` reads (and, with m levels, the oracle scores)
    level_sums: Callable
    n_eff: Callable = _n_prod  # (n, budget, options) -> effective sample size before log deflation
    point: Callable = lambda est: est  # the scalar scored against the truth
    release_input: Callable = lambda X: X  # (n, d) raw sample -> the columns the channels release

    def check_model(self, model, budget: PrivacyBudget) -> None:
        if not isinstance(model, self.model):
            raise ValueError(f"mode expects a {self.model.__name__}, got a {type(model).__name__}")
        if model.d != budget.d:
            raise ValueError(f"the model has {model.d} component(s) but the budget {budget.d} alpha(s)")
        # the sampler keeps a draw with probability the box mass: below 0.01, over 100 draws a point
        if isinstance(model, HolderDensityModel) and not model._axis_norm() >= 0.01:
            raise ValueError(f"box mass {model._axis_norm():.3g} per axis is below 0.01")

    def level_pass(self, X: np.ndarray, channels, rng, oracle: bool) -> tuple:
        """(table, oracle moments) of the (n, d) sample X through the per-axis ``channels``: the
        ``release_rows`` of X (so ``release_sample(X, channels, rng)`` gives exactly the releases
        reduced here), each block keeping the ``level_sums`` of its releases and, with ``oracle``
        (multi-level channels only), the ``_oracle_sums`` of its clean maps, added in block order.
        ``rng`` None gives no table, and no ``oracle`` no moments."""
        n = np.shape(X)[0]
        var = [2.0 * ch.scales(ch.alpha) ** 2 for ch in channels] if oracle else None

        def keep(rows: slice, clean: list, z: list) -> list:
            sums = [] if rng is None else [self.level_sums(z)]
            return sums + _oracle_sums(clean, var, self.level_sums) if oracle else sums

        blocks = release_rows(X, channels, rng, keep)
        total = functools.reduce(lambda acc, sums: [a + s for a, s in zip(acc, sums)], blocks)
        table = None if rng is None else total.pop(0) / n
        if not oracle:
            return table, None
        mean, *noise = total
        # one axis has no noise sum over rows: its noise variance is 2 b^2 / n
        noise_var = sum(s / n for s in noise) if noise else var[0]
        return table, (mean / n, noise_var / n)

    def oracle(self, X: np.ndarray, budget: PrivacyBudget, options: dict) -> tuple:
        """Mean and noise variance, given X, of the full-budget estimate at every level table entry:
        each axis's channel gives its clean map of X and its per-level scales at its full alpha.

        Reference only: releasing all levels at full budget is not a private
        mechanism, but each fixed level is.
        """
        return self.level_pass(X, self.channels(X.shape[0], budget, options), None, oracle=True)[1]


def _x0(options: dict) -> np.ndarray:
    return np.atleast_1d(np.asarray(options.get("x0", 0.0), dtype=float))


def _holder_class(budget: PrivacyBudget, options: dict) -> HolderClass:
    return HolderClass(beta=float(options.get("beta", 2.0)), d=budget.d)


def kde_bandwidth(n: int, budget: PrivacyBudget, options: dict) -> tuple[float, str]:
    """The ``h`` option, else the rate-optimal bandwidth (ValueError where none exists), and the regime."""
    hc = _holder_class(budget, options)
    if "h" in options:
        return float(options["h"]), _bandwidth_regime(hc, budget, n)
    choice = optimal_bandwidth(hc, budget, n)
    return choice.h_star, choice.regime


def _trunc_channels(n: int, budget: PrivacyBudget, options: dict, trunc_mode: str) -> tuple:
    ts = optimal_truncations(MomentProfile(options["ks"]), budget, n, mode=trunc_mode)
    return tuple(LaplaceTruncChannel(float(t), a) for t, a in zip(ts, budget.alphas))


def _gl_config(n: int, budget: PrivacyBudget, options: dict) -> ad.GLConfig:
    return ad.GLConfig(n=n, budget=budget, c0=float(options.get("c0", ad.GLConfig.c0)))


def _kernel(budget: PrivacyBudget, options: dict):
    return make_kernel(kernel_order(_holder_class(budget, options).beta))


def _selects(channels) -> bool:
    """Whether the channels release a grid of levels, one of which the mode's estimate selects."""
    return isinstance(channels[0], (MultiTruncChannel, MultiBandwidthChannel))


def _cov_sums(z: list) -> np.ndarray:
    """n times the arguments of ``covariance_correlation``: the sums of z1, z2 and z1 z2, then of
    each squared component's releases."""
    z1, z2, *sq = z
    return np.array([z1.sum(), z2.sum(), (z1 * z2).sum()] + [c.sum() for c in sq])


def _oracle_sums(clean: list, var: list, level_sums: Callable) -> list:
    """The sums over rows behind the oracle's mean and noise variance given X, for one row block.

    clean[j] is axis j's (rows, m) clean map and var[j] = 2 b_j^2 its per-level
    noise variance.  Rows and axes draw independent noise, so the noise
    variance of the full-budget estimate is
    n^-2 sum_i [prod_j (c_ij^2 + 2 b_j^2) - prod_j c_ij^2], summed here as
    sum_j 2 b_j^2 prod_{k<j} (c_k^2 + 2 b_k^2) prod_{k>j} c_k^2, which has no
    cancellation.  Returns the level sums of the clean maps and, on two or more
    axes, of each term j; on one axis the noise variance is 2 b^2 / n.
    """
    if len(clean) == 1:
        return [level_sums(clean)]
    second = [c * c + v for c, v in zip(clean[:-1], var)]  # E[z^2 | x] on every axis but the last
    clean_sq = [c * c for c in clean[1:]]
    return [level_sums(clean)] + [level_sums(second[:j] + [v[None, :]] + clean_sq[j:]) for j, v in enumerate(var)]


MODES = {
    "mean": Mode(
        id=1, axis="n*alpha^2", model=ParetoFactorModel, config_keys=("ks",),
        n_eff=lambda n, budget, options: n * budget.alphas[0] ** 2,
        truth=lambda model, options: model.mean(1),
        channels=functools.partial(_trunc_channels, trunc_mode="mean"),
        estimate=lambda table, n, budget, options: table.tolist(),
        level_sums=lambda z: np.array([c.sum() for c in z]),  # each column's sum
        point=lambda est: est[0],
    ),
    "moment": Mode(
        id=2, axis="n*prod(alpha^2)", model=ParetoFactorModel, config_keys=("ks",),
        truth=lambda model, options: model.gamma(),
        channels=functools.partial(_trunc_channels, trunc_mode="joint"),
        estimate=lambda table, n, budget, options: float(table),
        level_sums=ad._diagonal_sums,  # one level: the sum of the row products
    ),
    "cov": Mode(
        id=3, axis="n*prod(alpha^2)", model=ParetoFactorModel, config_keys=("ks",),
        truth=lambda model, options: model.covariance(),
        channels=functools.partial(_trunc_channels, trunc_mode="joint"),
        estimate=lambda table, n, budget, options: covariance_correlation(*table.tolist()),
        level_sums=_cov_sums,
        point=lambda est: est.theta,
    ),
    # a replication whose correlation is undefined scores nan, so its grid point leaves the fit
    "corr": Mode(
        id=7, axis="n*prod(alpha^2)", model=ParetoFactorModel, config_keys=("ks",),
        truth=lambda model, options: model.correlation(),
        channels=lambda n, budget, options: sum(corr_release_plan(MomentProfile(options["ks"]), budget, n), ()),
        estimate=lambda table, n, budget, options: covariance_correlation(*table.tolist()),
        level_sums=_cov_sums,
        point=lambda est: math.nan if est.corr is None else est.corr,
        release_input=lambda X: np.hstack([X, np.abs(X) ** 2]),
    ),
    "kde": Mode(
        id=4, axis="n*prod(alpha^2) [private regime] or n [nonprivate]", model=HolderDensityModel,
        config_keys=("beta", "x0", "h"),
        n_eff=lambda n, budget, options: (
            float(n) if kde_bandwidth(n, budget, options)[1] == "nonprivate" else _n_prod(n, budget, options)
        ),
        truth=lambda model, options: model.density_at(_x0(options)),
        channels=lambda n, budget, options: kde_channels(
            _holder_class(budget, options), budget, _x0(options), kde_bandwidth(n, budget, options)[0]
        ),
        estimate=lambda table, n, budget, options: float(table),
        level_sums=ad._diagonal_sums,
    ),
    "adaptive_moment": Mode(
        id=5, axis="n*prod(alpha^2)/log(n)^(2d+1)", model=ParetoFactorModel, config_keys=("c0",),
        truth=lambda model, options: model.gamma(),
        channels=lambda n, budget, options: ad.multi_trunc_channels(_gl_config(n, budget, options)),
        estimate=lambda table, n, budget, options: ad.gl_truncation_rule(table, _gl_config(n, budget, options)),
        point=lambda sel: sel.gamma_hat,
        level_sums=ad._estimate_sums,
    ),
    "adaptive_density": Mode(
        id=6, axis="n*prod(alpha^2)/log(n)^(1+2d)", model=HolderDensityModel, config_keys=("beta", "x0", "c0"),
        truth=lambda model, options: model.density_at(_x0(options)),
        channels=lambda n, budget, options: ad.multi_bandwidth_channels(
            _gl_config(n, budget, options), _x0(options), _kernel(budget, options)
        ),
        estimate=lambda table, n, budget, options: ad.gl_bandwidth_rule(table, _gl_config(n, budget, options)),
        point=lambda sel: sel.pi_hat,
        level_sums=ad._diagonal_sums,
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = rule(one_of(*MODES))
    n_grid: tuple[int, ...] = rule(INTS, each(at_least(1), nonempty=True), name="n grid entries")
    alphas: tuple[float, ...]
    replications: int = rule(INT, at_least(1))
    seed: int = rule(INT, at_least(0))
    model: dict
    options: dict = field(default_factory=dict)
    out: Optional[str] = None
    workers: int = rule(INT, at_least(1), default=1)

    def __post_init__(self):
        check_fields(self)
        MODES[self.mode].check_model(model_from_json(self.model), PrivacyBudget(self.alphas))
        self.grid()  # a malformed option raises here; a grid point outside the regime is a warning row

    def grid(self) -> list:
        """Per grid point, its effective sample size before log deflation, or the
        RegimeError that makes it a warning row of the run, outside the fit."""
        mode, budget = MODES[self.mode], PrivacyBudget(self.alphas)
        plan = []
        for n in self.n_grid:
            try:
                mode.channels(n, budget, self.options)  # the regime check
                plan.append(mode.n_eff(n, budget, self.options))
            except RegimeError as exc:
                plan.append(exc)
        return plan

    def validate_for_slope(self):
        """Invariants demanded of slope experiments (enforced at the CLI)."""
        if self.replications < 30:
            raise ValueError("slope experiments need replications >= 30")
        if len(self.n_grid) < 4:
            raise ValueError("slope experiments need >= 4 grid points")
        # the fitted points' undeflated effective sizes: the log-corrected
        # adaptive axes compress decades, and feasible sweeps must remain admissible
        effs = [n_eff for n_eff in self.grid() if not isinstance(n_eff, RegimeError)]
        if not effs or max(effs) < 100.0 * min(effs):
            raise ValueError("n grid must span >= 2 decades of effective sample size")

    def to_json(self) -> dict:
        return {key: value for key, value in asdict(self).items() if key != "out"}


def run_mode(mode: Mode, model, n: int, budget: PrivacyBudget, options: dict, rng):
    """(X, estimate): n rows of ``model`` released through the mode's channels and
    estimated; for adaptive modes the estimate is the selection.  Under the
    ``zero_noise`` option the channels draw no noise; the sampler draws as usual."""
    mode.check_model(model, budget)
    return _sample_and_estimate(mode, model, n, budget, mode.channels(n, budget, options), options, rng)[:2]


def _sample_and_estimate(mode: Mode, model, n: int, budget: PrivacyBudget, channels, options: dict, rng,
                         oracle: bool = False):
    """``run_mode`` for a model already checked and the mode's channels at n, and the oracle's
    moments from the same pass (None without ``oracle``)."""
    sample = sample_heavy_tailed if mode.model is ParetoFactorModel else sample_holder_density
    X = sample(model, n, rng)
    release_rng = ZeroNoiseRng(rng) if options.get("zero_noise") else rng
    table, moments = mode.level_pass(mode.release_input(X), channels, release_rng, oracle)
    return X, mode.estimate(table, n, budget, options), moments


def _plan(cfg_json: dict, n: int) -> tuple:
    """(model, truth, budget, channels) of grid point n: the model decoded from the config and
    checked, its truth, and the channels, built once for all the point's replications."""
    mode, options = MODES[cfg_json["mode"]], cfg_json["options"]
    model, budget = model_from_json(cfg_json["model"]), PrivacyBudget(cfg_json["alphas"])
    mode.check_model(model, budget)
    return model, mode.truth(model, options), budget, mode.channels(n, budget, options)


def _run_replication(cfg_json: dict, n: int, rep: int, plan: Optional[tuple] = None) -> dict:
    """One replication: the squared error, plus the selection and oracle row if adaptive.
    ``plan`` is ``_plan(cfg_json, n)``, computed here when not given."""
    mode, options = MODES[cfg_json["mode"]], cfg_json["options"]
    model, truth, budget, channels = plan or _plan(cfg_json, n)
    rng = derive_rng(cfg_json["seed"], mode.id, n, rep)
    selects = _selects(channels)
    oracle = selects and options.get("oracle", True) and rep < int(options.get("oracle_reps", 10**9))
    _, est, moments = _sample_and_estimate(mode, model, n, budget, channels, options, rng, oracle)
    out = {"sq_err": (mode.point(est) - truth) ** 2}
    if selects:
        out["sel_index"] = np.atleast_1d(est.index).tolist()
    if moments is not None:
        # the squared error in expectation over the full-budget noise; zero_noise releases have none
        mean, noise_var = moments
        noise_var = 0.0 if options.get("zero_noise") else noise_var
        out["oracle_sq"] = ((mean - truth) ** 2 + noise_var).ravel().tolist()
    return out


@contextlib.contextmanager
def _replicator(workers: int, reps: int):
    """A map over replication indices: the builtin one, or one process pool per run."""
    if workers <= 1:
        yield map
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        # about four chunks per worker: few round trips, some load balancing
        yield functools.partial(pool.map, chunksize=max(1, reps // (4 * workers)))


def run_rate_experiment(cfg: ExperimentConfig) -> RateCurve:
    """Per-n MSE over replications against the model's ground truth; each grid point is planned once."""
    mode = MODES[cfg.mode]
    budget = PrivacyBudget(cfg.alphas)
    cfg_json = cfg.to_json()
    points = []
    extras: dict = {"per_n": {}}
    with _replicator(cfg.workers, cfg.replications) as replicate:
        for n, n_eff in zip(cfg.n_grid, cfg.grid()):
            if isinstance(n_eff, RegimeError):
                # keep a warning row, excluded from fits
                points.append(RatePoint(n, float("nan"), float("nan"), float("nan"), 0, cfg.seed))
                extras["per_n"][str(n)] = {"warning": str(n_eff)}
                continue
            plan = _plan(cfg_json, n)
            if _selects(plan[3]):  # the CSV's adaptive axes are deflated by log(n)^(2d+1)
                n_eff /= math.log(n) ** (2 * budget.d + 1)
            replication = functools.partial(_run_replication, cfg_json, n, plan=plan)
            results = list(replicate(replication, range(cfg.replications)))
            errs = np.array([r["sq_err"] for r in results])
            mse = float(errs.mean())
            stderr = float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
            points.append(RatePoint(n, n_eff, mse, stderr, cfg.replications, cfg.seed))
            per_n: dict = {}
            undefined = int(np.isnan(errs).sum())  # replications whose estimate is undefined (corr)
            if undefined:
                per_n["undefined"] = undefined
            oracle_rows = [r["oracle_sq"] for r in results if "oracle_sq" in r]
            if oracle_rows:
                per_n["oracle_mse"] = float(np.mean(oracle_rows, axis=0).min())
                per_n["ratio"] = mse / per_n["oracle_mse"]
            if "sel_index" in results[0]:
                per_n["selections"] = [r["sel_index"] for r in results]
            if per_n:
                extras["per_n"][str(n)] = per_n
    curve = RateCurve(points=tuple(points), mode=cfg.mode, axis=mode.axis, extras=extras)
    if cfg.out:
        _write_outputs(cfg, curve)
    return curve


def _write_outputs(cfg: ExperimentConfig, curve: RateCurve) -> None:
    with open(cfg.out, "w") as f:
        f.write(curve.to_csv())
    meta = {"config": cfg.to_json(), "axis": curve.axis, "extras": curve.extras}
    try:
        meta["fit"] = fit_loglog_slope(curve).to_json()
    except ValueError as exc:
        meta["fit"] = {"error": str(exc)}
    write_json(cfg.out + ".meta.json", meta)


def _np_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_json(path: Optional[str], obj: dict) -> None:
    """Sorted, indented JSON with numpy scalars and arrays as plain values; stdout without a path."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_np_default) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


SUITES = ("contraction", "privacy", "leakage", "lowerbound")  # the suites of cldp report, in its order


def run_verification_suite(which: str, seed: int = 7, instances: Optional[int] = None) -> tuple[int, dict]:
    """Dispatch to the module-level verify operations; nonzero exit on violation."""
    if which not in SUITES:
        raise ValueError(f"unknown suite {which!r}")
    if which == "lowerbound":
        report = _lowerbound_suite()
        ok = all(r["condition3_ok"] and r["marginals_equal"] for r in report["cases"])
        return (0 if ok else 1), report
    if which == "contraction":
        report = ct.run_contraction_sweep(instances=500 if instances is None else instances, seed=seed)
    elif which == "privacy":
        report = _privacy_suite(seed)
    else:
        report = ep.run_leakage_sweep(seed, 200 if instances is None else instances)
    return (1 if report["violations"] else 0), report


def _privacy_suite(seed: int) -> dict:
    rng = derive_rng(seed, 101)
    rows = []

    def audit(name: str, ch, exact: bool = False, **fields) -> None:
        res = privacy_audit(ch)
        bound, ok = audit_verdict(res.max_ratio, ch.alpha, exact)
        rows.append({"channel": name, **fields, "alpha": ch.alpha, "ratio": res.max_ratio,
                     "achieved_alpha": res.achieved_alpha, "bound": bound, "ok": ok})

    for _ in range(20):
        T = float(rng.uniform(0.5, 5.0))
        alpha = float(rng.uniform(0.2, 1.5))
        audit("laplace_trunc", LaplaceTruncChannel(T=T, alpha=alpha), exact=True, T=T)
    for m in (2, 3, 5):
        audit(f"rr_m{m}", make_rr_channel(tuple(range(m)), 0.3 + 0.2 * m))
    for n, alpha in ((64, 0.8), (256, 0.5)):
        glc = ad.GLConfig(n=n, budget=PrivacyBudget([alpha]))
        audit("multi_trunc", ad.multi_trunc_channels(glc)[0], n=n)
        audit("multi_bandwidth", ad.multi_bandwidth_channels(glc, [0.0], make_kernel(1))[0], n=n)
    violations = sum(not row["ok"] for row in rows)
    return {"suite": "privacy", "seed": seed, "violations": violations, "audits": rows}


def _lowerbound_suite() -> dict:
    cases = []
    for d, alphas, n in ((2, (0.5, 0.5), 64), (2, (0.8, 0.4), 256), (3, (0.6, 0.6, 0.6), 512)):
        inst = lb.moment_two_point(MomentProfile([4.0] * d), PrivacyBudget(alphas), n)
        tvs = ct.MarginalTVTable.from_dists(inst.P, inst.P_star)
        worst = max(t for S, t in tvs.values.items() if len(S) < d)
        cases.append(
            {
                "d": d,
                "alphas": list(alphas),
                "n": n,
                "marginals_equal": worst <= 1e-14,
                "strict_subset_tv_max": worst,
                **lb.check_moment_instance(inst, n),
            }
        )
    return {"suite": "lowerbound", "cases": cases}
