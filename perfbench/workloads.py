"""The benchmark's workloads: inputs, one round of work, and checks.

Each workload builds its inputs from the run's seed, runs whole rounds of the
same operations through cldp's public entry points (``run_rate_experiment``
and ``run_verification_suite``, the calls behind ``cldp rates`` and
``cldp report``), and checks one round's outputs against ``reference``.
Rounds repeat the same seed, so every round must reproduce the first one.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np

import reference as ref
from cldp.adaptive import GLConfig, multi_bandwidth_channels, multi_trunc_channels
from cldp.channels import LaplaceTruncChannel, PrivacyBudget, kernel_order, make_kernel, privacy_audit
from cldp.contraction import random_instance
from cldp.estimators import release_sample
from cldp.harness import ExperimentConfig, derive_rng, run_rate_experiment, run_verification_suite
from cldp.simdata import model_from_json, sample_heavy_tailed, sample_holder_density

# Stream keys of the determinism contract: replication r of grid point n in
# mode m draws from SeedSequence(seed, spawn_key=(mode id, n, r)).
MODE_IDS = {"adaptive_moment": 5, "adaptive_density": 6}

Z_MSE = 5.0  # per-n MSE against its closed form, in standard errors of the MSE
Z_RELEASE = 6.0  # per-level release mean against its closed form, in standard errors
REL_TOL = 1e-9  # float agreement of recomputed quantities
LEAKAGE_FAULT_SEED = 84  # `cldp report --seed 84`: the leakage suite's instance 8 exceeds its bound

PARETO_C07 = {"kind": "pareto_factor", "ks": [2.0], "a": [2.1], "rho": 0.0, "scale": 16.0,
              "coupling": "power", "symmetric": False}
HOLDER_C08 = {"kind": "holder_density", "beta": 1.0, "d": 1, "box": 3.0, "weights": [0.6, 0.4],
              "mus": [0.0, 0.8], "sigmas": [0.55, 1.1], "kink_b": 0.2, "kink_weight": 0.7}
PARETO_MEAN = {"kind": "pareto_factor", "ks": [4.0], "a": [5.0], "rho": 0.0, "scale": 1.0,
               "coupling": "mixture", "symmetric": True}
PARETO_MOMENT = {"kind": "pareto_factor", "ks": [4.0, 4.0], "a": [5.0, 5.0], "rho": 0.5, "scale": 1.0,
                 "coupling": "mixture", "symmetric": True}
HOLDER_KDE = {"kind": "holder_density", "beta": 2.0, "d": 1, "box": 3.0, "weights": [0.6, 0.4],
              "mus": [0.0, 0.8], "sigmas": [0.55, 1.1], "kink_b": 0.6, "kink_weight": 0.7}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _rate_run(cfg: ExperimentConfig, tracer):
    if tracer is None:
        return run_rate_experiment(cfg)
    with tracer.span("harness.run"):
        return run_rate_experiment(cfg)


def _with(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    fields = {**cfg.__dict__, **changes}
    return ExperimentConfig(**fields)


def _leakage_instance(seed: int, i: int):
    """Joint table and levels of the leakage suite's instance i, from its stream key.

    Mirrors the suite's draws: d in {2, 3}, 2 or 3 support points per axis
    (their values do not enter randomized response), Gamma(1) masses plus 1e-3,
    and alpha_j uniform on [0.1, 1.5].
    """
    rng = derive_rng(seed, 202, i)
    d = int(rng.choice((2, 3)))
    sizes = [int(rng.integers(2, 4)) for _ in range(d)]
    for s in sizes:
        rng.normal(size=s)
    raw = rng.gamma(1.0, 1.0, size=tuple(sizes)) + 1e-3
    return raw / raw.sum(), rng.uniform(0.1, 1.5, size=d)


class Workload:
    """One round = ``ops_per_round`` operations; subclasses fill in the rest."""

    name = ""
    ops_per_round = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build the configs and run a small warm-up through the same code."""

    def run_round(self, tracer=None):
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def check(self, out) -> tuple[list[str], dict]:
        """(failures, margins) for one round's outputs."""
        raise NotImplementedError

    def failed_ops(self, out) -> int:
        """Operations of one round that the program itself reports as failed."""
        return 0

    def trace_extras(self, plain_wall: float) -> dict:
        """Per-layer metrics measured as differences of untraced rounds."""
        return {}


# ---------------------------------------------------------------------------
# adaptive sweeps
# ---------------------------------------------------------------------------


class AdaptiveD1(Workload):
    """c07 and c08 on one axis with the oracle on: release and oracle dominate.

    The code runs any adaptive configuration: ``specs`` lists
    (mode, model spec, alphas, options).
    """

    name = "adaptive_d1"
    specs = [
        ("adaptive_moment", PARETO_C07, (1.0,), {"ks": [2.0], "c0": 12.0}),
        ("adaptive_density", HOLDER_C08, (8.0,), {"beta": 1.0, "x0": [0.0], "c0": 2.5}),
    ]
    n_grid = (2**14, 2**16, 2**18)
    replications = 2

    def setup(self):
        self.configs = [
            ExperimentConfig(mode=mode, n_grid=self.n_grid, alphas=alphas, replications=self.replications,
                             seed=self.seed, model=model, options=options)
            for mode, model, alphas, options in self.specs
        ]
        for cfg in self.configs:
            run_rate_experiment(_with(cfg, n_grid=(64,), replications=1))

    @property
    def ops_per_round(self):
        return len(self.specs) * len(self.n_grid) * self.replications

    def run_round(self, tracer=None, oracle=True):
        configs = self.configs if oracle else [
            _with(c, options={**c.options, "oracle": False}) for c in self.configs
        ]
        return [_rate_run(cfg, tracer) for cfg in configs]

    def digest(self, out):
        return _digest([(c.to_csv(), c.extras) for c in out])

    def trace_extras(self, plain_wall):
        t0 = time.perf_counter()
        self.run_round(oracle=False)
        return {"harness.oracle_s": plain_wall - (time.perf_counter() - t0)}

    def _releases(self, cfg, n, rep):
        """The replication's releases, regenerated from its stream key."""
        budget = PrivacyBudget(cfg.alphas)
        model = model_from_json(cfg.model)
        rng = derive_rng(cfg.seed, MODE_IDS[cfg.mode], n, rep)
        sample = sample_heavy_tailed if cfg.model["kind"] == "pareto_factor" else sample_holder_density
        X = sample(model, n, rng)
        glc = GLConfig(n=n, budget=budget, c0=cfg.options["c0"])
        if cfg.mode == "adaptive_moment":
            channels = multi_trunc_channels(glc)
        else:
            kernel = make_kernel(kernel_order(cfg.options["beta"]))
            channels = multi_bandwidth_channels(glc, cfg.options["x0"], kernel)
        return model, release_sample(X, channels, rng).values

    def check(self, out):
        failures: list[str] = []
        worst_z, worst_rel, ties, matched, total = 0.0, 0.0, 0, 0, 0
        for cfg, curve in zip(self.configs, out):
            moment = cfg.mode == "adaptive_moment"
            x0 = cfg.options.get("x0", [0.0])[0]
            truth = ref.pareto_truth(cfg.model) if moment else ref.holder_truth(cfg.model, x0)
            for point in curve.points:
                n = point.n
                selections = curve.extras["per_n"][str(n)]["selections"]
                level_sums = 0.0
                sq_errs = []
                for rep in range(cfg.replications):
                    model, values = self._releases(cfg, n, rep)
                    program_truth = model.gamma() if moment else model.density_at(x0)
                    worst_rel = max(worst_rel, abs(program_truth - truth) / abs(truth))
                    select = ref.gl_truncation if moment else ref.gl_bandwidth
                    index, score, table = select(values, n, cfg.alphas, cfg.options["c0"])
                    chosen = tuple(np.atleast_1d(selections[rep]).tolist())
                    total += 1
                    if ref.selection_agrees(chosen, index, score):
                        matched += 1
                        ties += chosen != tuple(np.atleast_1d(index).tolist())
                    else:
                        failures.append(f"{cfg.mode} n={n} rep={rep}: selected {selections[rep]}, reference {index}")
                    sq_errs.append((float(table[chosen]) - truth) ** 2)
                    level_sums = level_sums + values.sum(axis=0)  # (d, m)
                mse_rel = abs(point.mse - float(np.mean(sq_errs))) / float(np.mean(sq_errs))
                if mse_rel > 1e-6:
                    failures.append(f"{cfg.mode} n={n}: MSE {point.mse} vs recomputed {np.mean(sq_errs)}")
                z = self._release_z(cfg, n, level_sums / (n * cfg.replications), n * cfg.replications)
                worst_z = max(worst_z, z)
                if z > Z_RELEASE:
                    failures.append(f"{cfg.mode} n={n}: release mean {z:.2f} standard errors from closed form")
        if worst_rel > REL_TOL:
            failures.append(f"truth differs from closed form by {worst_rel:.3g}")
        margins = {
            "selections_matched": f"{matched}/{total}",
            "selections_tied_within_rounding": ties,
            "release_mean_max_abs_z": round(worst_z, 3),
            "release_mean_z_limit": Z_RELEASE,
            "truth_max_rel_err": worst_rel,
        }
        return failures, margins

    @staticmethod
    def _release_z(cfg, n, means, count):
        beta_n = ref.per_level_budget(cfg.alphas, n)
        worst = 0.0
        for j in range(means.shape[0]):
            if cfg.mode == "adaptive_moment":
                moments = [ref.trunc_release_moments(cfg.model, j, T, beta_n[j]) for T in ref.dyadic_levels(n)]
            else:
                x0 = cfg.options["x0"][j]
                moments = [ref.box_release_moments(cfg.model, x0, h, beta_n[j]) for h in ref.bandwidth_grid(n)]
            for observed, (mean, var) in zip(means[j], moments):
                worst = max(worst, abs(observed - mean) / math.sqrt(var / count))
        return worst


# ---------------------------------------------------------------------------
# fixed-tuning rate sweeps
# ---------------------------------------------------------------------------


class FixedRates(Workload):
    """mean, moment (d = 2) and kde sweeps with many small replications.

    Timed rounds run one worker, the default of ``cldp rates``; the two-worker
    pool is timed in traced runs (``harness.pool_overhead_s``) and its CSV
    bytes are checked against the one-worker round.
    """

    name = "fixed_rates"
    n_grid = tuple(2**q for q in range(10, 14))
    replications = 200
    pool_workers = 2
    specs = [
        ("mean", PARETO_MEAN, (0.5,), {"ks": [4.0]}),
        ("moment", PARETO_MOMENT, (0.5, 0.5), {"ks": [4.0, 4.0]}),
        ("kde", HOLDER_KDE, (0.5,), {"beta": 2.0, "x0": [0.0]}),
    ]
    pool_round = None  # set by trace_extras in a traced run

    @property
    def ops_per_round(self):
        return len(self.specs) * len(self.n_grid) * self.replications

    def setup(self):
        self.configs = [
            ExperimentConfig(mode=mode, n_grid=self.n_grid, alphas=alphas, replications=self.replications,
                             seed=self.seed, model=model, options=options)
            for mode, model, alphas, options in self.specs
        ]
        for cfg in self.configs:
            run_rate_experiment(_with(cfg, n_grid=(1024,), replications=2))

    def run_round(self, tracer=None, workers=1):
        return [_rate_run(_with(cfg, workers=workers), tracer) for cfg in self.configs]

    def digest(self, out):
        return _digest([c.to_csv() for c in out])

    def trace_extras(self, plain_wall):
        t0 = time.perf_counter()
        self.pool_round = self.run_round(workers=self.pool_workers)
        return {"harness.pool_overhead_s": (time.perf_counter() - t0) - plain_wall / self.pool_workers}

    def expected_mse(self, mode, n):
        _, model, alphas, options = next(s for s in self.specs if s[0] == mode)
        if mode == "mean":
            return ref.mse_mean(model, options["ks"][0], alphas[0], n)
        if mode == "moment":
            return ref.mse_moment(model, options["ks"], alphas, n)
        return ref.mse_kde(model, options["beta"], alphas[0], n, options["x0"][0])

    def check(self, out):
        """MSE against closed form; CSV bytes against a two-worker round."""
        failures: list[str] = []
        worst = 0.0
        for cfg, curve in zip(self.configs, out):
            for p in curve.points:
                z = (p.mse - self.expected_mse(cfg.mode, p.n)) / p.stderr
                worst = max(worst, abs(z))
                if abs(z) > Z_MSE:
                    failures.append(f"{cfg.mode} n={p.n}: MSE {p.mse:.6g} is {z:.2f} standard errors from closed form")
        pooled = self.pool_round or self.run_round(workers=self.pool_workers)
        identical = [a.to_csv() == b.to_csv() for a, b in zip(out, pooled)]
        if not all(identical):
            failures.append("CSV bytes differ between worker counts")
        margins = {"mse_max_abs_z": round(worst, 3), "mse_z_limit": Z_MSE, "csv_identical_across_workers": all(identical)}
        return failures, margins


# ---------------------------------------------------------------------------
# cldp report suites
# ---------------------------------------------------------------------------


class VerifyReport(Workload):
    """The four suites of ``cldp report``: no Monte Carlo, exact audits and sweeps.

    The contraction, privacy and lowerbound suites run at the run's seed.  The
    leakage suite runs at ``LEAKAGE_FAULT_SEED`` whatever the run's seed: its
    documented bound exp(alpha_1 + alpha_max (d-1) Delta_ind) is below the
    exact leakage on some instances, so at some seeds it reports a violation
    and exits 1.  At ``LEAKAGE_FAULT_SEED`` it does so on instance 8, in every
    round; that suite is the round's one failed operation, and the check
    recomputes every instance to confirm that the violations it reports are
    exactly those where the exact leakage exceeds the bound.
    """

    name = "verify_report"
    suites = ("contraction", "privacy", "leakage", "lowerbound")
    ops_per_round = len(suites)
    contraction_sample = 25  # recompute every 25th contraction instance

    def setup(self):
        run_verification_suite("contraction", seed=self.seed, instances=5)
        run_verification_suite("leakage", seed=LEAKAGE_FAULT_SEED, instances=5)
        run_verification_suite("lowerbound")
        privacy_audit(LaplaceTruncChannel(T=1.0, alpha=1.0))

    def _suite_seed(self, suite):
        return LEAKAGE_FAULT_SEED if suite == "leakage" else self.seed

    def run_round(self, tracer=None):
        return [run_verification_suite(s, seed=self._suite_seed(s)) for s in self.suites]

    def digest(self, out):
        return _digest(out)

    def failed_ops(self, out):
        return sum(code != 0 for code, _ in out)

    def check(self, out):
        failures: list[str] = []
        reports = dict(zip(self.suites, (rep for _, rep in out)))
        for suite, (code, rep) in zip(self.suites, out):
            if suite != "leakage" and (code != 0 or rep.get("violations", 0) != 0):
                failures.append(f"{suite}: exit {code}, {rep.get('violations')} violations")
        lap_lo, lap_hi, audit_err = math.inf, -math.inf, 0.0
        for row in reports["privacy"]["audits"]:
            alpha = row["alpha"]
            rel = row["ratio"] / math.exp(alpha)
            if row["channel"] == "laplace_trunc":
                lap_lo, lap_hi = min(lap_lo, rel), max(lap_hi, rel)
                continue
            if row["channel"].startswith("rr_"):
                closed = math.exp(alpha)
            else:
                closed = self._multi_level_sup(row["channel"], row["n"], alpha)
            audit_err = max(audit_err, abs(row["ratio"] / closed - 1.0))
            if rel > 1.0 + REL_TOL:
                failures.append(f"{row['channel']}: audit {row['ratio']} exceeds e^alpha")
        if not (lap_lo >= 1.0 - 1e-6 and lap_hi <= 1.0 + 1e-9):
            failures.append(f"Laplace audits/e^alpha in [{lap_lo}, {lap_hi}], outside [1 - 1e-6, 1 + 1e-9]")
        if audit_err > REL_TOL:
            failures.append(f"audits differ from the closed-form sup by {audit_err:.3g}")
        contraction_err = self._contraction_error(reports["contraction"])
        if contraction_err > REL_TOL:
            failures.append(f"recomputed Jeffreys/bound differ from the report by {contraction_err:.3g}")
        leak_failures, leak_margins = self._leakage_check(*out[self.suites.index("leakage")])
        failures += leak_failures
        margins = {
            "laplace_audit_over_e_alpha": [lap_lo, lap_hi],
            "audit_closed_form_max_rel_err": audit_err,
            "contraction_recomputed_max_rel_err": contraction_err,
            "contraction_min_slack": min(r["rhs"] - r["lhs_jeffreys"] for r in reports["contraction"]["reports"]),
            **leak_margins,
        }
        return failures, margins

    def _leakage_check(self, code, report):
        """Every instance recomputed: audit, Delta_ind and bound; violations exactly where sup > bound."""
        failures: list[str] = []
        worst, expected, ratios = 0.0, [], []
        for i, row in enumerate(report["reports"]):
            probs, alphas = _leakage_instance(report["seed"], i)
            sup, bound = ref.leakage_sup(probs, alphas), ref.leakage_bound(probs, alphas)
            for got, want in ((row["audited_sup"], sup), (row["bound"], bound),
                              (row["delta_ind"], ref.delta_ind(probs))):
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
            if sup > bound * (1.0 + 1e-9):
                expected.append(i)
            ratios.append(sup / bound)
        reported = [i for i, row in enumerate(report["reports"]) if row["violation"]]
        if worst > REL_TOL:
            failures.append(f"recomputed leakage audit/bound differ from the report by {worst:.3g}")
        if reported != expected or code != (1 if expected else 0) or report["violations"] != len(expected):
            failures.append(f"leakage: exit {code}, violations at {reported}; exact leakage exceeds the bound at {expected}")
        margins = {
            "leakage_recomputed_max_rel_err": worst,
            "leakage_seed": report["seed"],
            "leakage_violations_at": reported,
            "leakage_max_exact_over_bound": max(ratios),
        }
        return failures, margins

    @staticmethod
    def _multi_level_sup(channel, n, alpha):
        """exp(sum over levels of range(clean map) / noise scale)."""
        beta_n = float(ref.per_level_budget([alpha], n)[0])
        if channel == "multi_trunc":
            return math.exp(sum(2.0 * T / ref.trunc_scale(T, beta_n) for T in ref.dyadic_levels(n)))
        return math.exp(sum(ref.BOX_KAPPA / h / ref.kernel_scale(h, beta_n) for h in ref.bandwidth_grid(n)))

    def _contraction_error(self, report):
        worst = 0.0
        for i in range(0, report["instances"], self.contraction_sample):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(i,)))
            P, Pt, _ = random_instance(rng)
            row = report["reports"][i]
            M = ref.dense_pushforward(P.probs, row["alphas"])
            Mt = ref.dense_pushforward(Pt.probs, row["alphas"])
            for got, want in ((row["lhs_jeffreys"], ref.jeffreys(M, Mt)),
                              (row["rhs"], ref.subset_sum_bound(P.probs, Pt.probs, row["alphas"]))):
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        return worst


WORKLOADS = {w.name: w for w in (AdaptiveD1, FixedRates, VerifyReport)}
