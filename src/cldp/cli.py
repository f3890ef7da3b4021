"""Command-line harness.

Subcommands: audit, contract-verify, leakage, estimate, adaptive, rates,
lowerbound, report.  Experiment configs are flat key=value text files (see
README for the key set per mode).  Exit codes: 0 ok, 1 violation, 2 config
error.  CLDP_WORKERS sets the default parallelism degree.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import adaptive as ad
from . import effective_privacy as ep
from . import lowerbounds as lb
from .channels import (
    PrivacyBudget,
    channel_from_json,
    kernel_order,
    make_kernel,
    privacy_audit,
)
from .estimators import (
    HolderClass,
    MomentProfile,
    corr_release_plan,
    kde_channels,
    optimal_bandwidth,
    optimal_truncations,
    private_covariance_correlation,
    private_joint_moment,
    private_kde,
    private_mean,
    release_sample,
)
from .harness import (
    ExperimentConfig,
    default_workers,
    derive_rng,
    fit_loglog_slope,
    run_rate_experiment,
    run_verification_suite,
)
from .estimators import LaplaceTruncChannel
from .measures import DiscreteDist
from .simdata import HolderDensityModel, ParetoFactorModel, sample_heavy_tailed, sample_holder_density

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def parse_kv_config(path: str) -> dict:
    """Flat key=value text; '#' starts a comment; values may be comma lists."""
    out: dict = {}
    try:
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                out[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _floats(val: str) -> tuple[float, ...]:
    return tuple(float(v) for v in val.split(","))


def _ints(val: str) -> tuple[int, ...]:
    return tuple(int(v) for v in val.split(","))


def _bool(val: str) -> bool:
    low = val.strip().lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ConfigError(f"expected a boolean (true/false, yes/no, 1/0), got {val!r}")


def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    return cfg[key]


def _model_from_config(cfg: dict):
    kind = cfg.get("model", "pareto_factor")
    if kind == "pareto_factor":
        ks = _floats(_require(cfg, "ks"))
        a = _floats(cfg.get("a", ",".join(str(k + 1.0) for k in ks)))
        return ParetoFactorModel(
            ks=ks,
            a=a,
            rho=float(cfg.get("rho", 0.0)),
            scale=float(cfg.get("scale", 1.0)),
            coupling=cfg.get("coupling", "mixture"),
            symmetric=_bool(cfg.get("symmetric", "true")),
        )
    if kind == "holder_density":
        kwargs = {}
        for key in ("weights", "mus", "sigmas"):
            if key in cfg:
                kwargs[key] = _floats(cfg[key])
        if "kink_b" in cfg:
            kwargs["kink_b"] = float(cfg["kink_b"])
        if "kink_weight" in cfg:
            kwargs["kink_weight"] = float(cfg["kink_weight"])
        return HolderDensityModel(
            beta=float(cfg.get("beta", 2.0)),
            d=int(cfg.get("d", 1)),
            box=float(cfg.get("box", 3.0)),
            **kwargs,
        )
    raise ConfigError(f"unknown model {kind!r}")


def _np_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: str | None, obj: dict):
    text = json.dumps(obj, indent=2, sort_keys=True, default=_np_default) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_audit(args) -> int:
    with open(args.channels) as f:
        specs = json.load(f)
    if isinstance(specs, dict):
        specs = [specs]
    rows = []
    worst = False
    for spec in specs:
        ch = channel_from_json(spec)
        res = privacy_audit(ch)
        bound = math.exp(ch.alpha) if math.isfinite(ch.alpha) else math.inf
        ok = res.max_ratio <= bound * (1 + 1e-9)
        worst = worst or not ok
        rows.append({"spec": spec, **res.to_json(), "bound": bound, "ok": ok})
    _write_json(args.out, {"audits": rows, "violations": sum(not r["ok"] for r in rows)})
    return EXIT_VIOLATION if worst else EXIT_OK


def cmd_contract_verify(args) -> int:
    from .contraction import run_contraction_sweep

    report = run_contraction_sweep(
        dims=tuple(args.dims), instances=args.instances, seed=args.seed
    )
    _write_json(args.out, report)
    return EXIT_VIOLATION if report["violations"] else EXIT_OK


def cmd_leakage(args) -> int:
    with open(args.dist) as f:
        P = DiscreteDist.from_json(json.load(f))
    with open(args.channels) as f:
        specs = json.load(f)
    channels = [channel_from_json(s) for s in specs]
    report = ep.leakage_report(P, channels)
    _write_json(args.out, report)
    return EXIT_VIOLATION if report["violation"] else EXIT_OK


def cmd_estimate(args) -> int:
    cfg = parse_kv_config(args.config)
    mode = args.mode
    n = int(_require(cfg, "n"))
    seed = int(cfg.get("seed", 0))
    alphas = _floats(_require(cfg, "alphas"))
    budget = PrivacyBudget(alphas)
    model = _model_from_config(cfg)
    rng = derive_rng(seed, 900)

    if mode in ("mean", "moment", "cov", "corr"):
        if not isinstance(model, ParetoFactorModel):
            raise ConfigError(f"mode {mode} expects a pareto_factor model")
        X = sample_heavy_tailed(model, n, rng)
        profile = MomentProfile(_floats(_require(cfg, "ks")))
        if mode == "corr":
            ch_raw, ch_sq = corr_release_plan(profile, budget, n)
            Z = release_sample(X, ch_raw, rng)
            Z2 = release_sample(np.abs(X) ** 2, ch_sq, rng)
            est = private_covariance_correlation(Z, Z2)
            out = {"mode": mode, "n": n, **est.to_json()}
        else:
            trunc_mode = "mean" if mode == "mean" else "joint"
            ts = optimal_truncations(profile, budget, n, mode=trunc_mode)
            channels = tuple(LaplaceTruncChannel(float(t), a) for t, a in zip(ts, alphas))
            Z = release_sample(X, channels, rng)
            if mode == "mean":
                out = {"mode": mode, "n": n, "estimates": [private_mean(Z, j + 1) for j in range(Z.d)]}
            elif mode == "moment":
                out = {"mode": mode, "n": n, "estimate": private_joint_moment(Z)}
            else:
                out = {"mode": mode, "n": n, **private_covariance_correlation(Z).to_json()}
    elif mode == "kde":
        if not isinstance(model, HolderDensityModel):
            raise ConfigError("mode kde expects a holder_density model")
        X = sample_holder_density(model, n, rng)
        hc = HolderClass(beta=float(cfg.get("beta", model.beta)), d=model.d)
        x0 = np.atleast_1d(np.asarray(_floats(cfg.get("x0", "0.0"))))
        choice = optimal_bandwidth(hc, budget, n)
        h = float(cfg.get("h", choice.h_star))
        channels = kde_channels(hc, budget, x0, h)
        Z = release_sample(X, channels, rng)
        out = {
            "mode": mode,
            "n": n,
            "h": h,
            "regime": choice.regime,
            "estimate": private_kde(Z),
            "truth": model.density_at(x0),
        }
    else:
        raise ConfigError(f"unknown estimate mode {mode!r}")
    _write_json(args.out, out)
    return EXIT_OK


def cmd_adaptive(args) -> int:
    cfg = parse_kv_config(args.config)
    n = int(_require(cfg, "n"))
    seed = int(cfg.get("seed", 0))
    alphas = _floats(_require(cfg, "alphas"))
    budget = PrivacyBudget(alphas)
    glc = ad.GLConfig(n=n, budget=budget, c0=float(cfg.get("c0", 8.0)))
    model = _model_from_config(cfg)
    rng = derive_rng(seed, 901)

    if args.mode == "moment":
        if not isinstance(model, ParetoFactorModel):
            raise ConfigError("adaptive moment expects a pareto_factor model")
        X = sample_heavy_tailed(model, n, rng)
        channels = ad.multi_trunc_channels(glc)
        Zm = release_sample(X, channels, rng)
        sel = ad.gl_select_truncation(Zm, glc)
        grid = ad.build_truncation_grid(n)
        bv = [
            {
                "T": [float(grid[i]) for i in idx],
                "B": float(sel.B_table[idx]),
                "V": float(sel.V_table[idx]),
            }
            for idx in np.ndindex(sel.B_table.shape)
        ]
        out = {"selected": list(sel.T_hat), "estimate": sel.gamma_hat, "bv_table": bv}
    elif args.mode == "density":
        if not isinstance(model, HolderDensityModel):
            raise ConfigError("adaptive density expects a holder_density model")
        X = sample_holder_density(model, n, rng)
        x0 = np.atleast_1d(np.asarray(_floats(cfg.get("x0", "0.0"))))
        kernel = make_kernel(kernel_order(model.beta))
        channels = ad.multi_bandwidth_channels(glc, x0, kernel)
        Zm = release_sample(X, channels, rng)
        sel = ad.gl_select_bandwidth(Zm, glc)
        grid = ad.build_bandwidth_grid(n)
        bv = [
            {"h": float(grid[i]), "B": float(sel.B_table[i]), "V": float(sel.V_table[i])}
            for i in range(grid.size)
        ]
        out = {"selected": sel.h_hat, "estimate": sel.pi_hat, "bv_table": bv}
    else:
        raise ConfigError(f"unknown adaptive mode {args.mode!r}")
    _write_json(args.out, out)
    return EXIT_OK


def cmd_rates(args) -> int:
    cfg = parse_kv_config(args.config)
    mode = _require(cfg, "mode")
    options: dict = {}
    for key in ("ks", "x0"):
        if key in cfg:
            options[key] = list(_floats(cfg[key]))
    for key in ("beta", "c0", "h"):
        if key in cfg:
            options[key] = float(cfg[key])
    if "zero_noise" in cfg:
        options["zero_noise"] = _bool(cfg["zero_noise"])
    model = _model_from_config(cfg)
    exp = ExperimentConfig(
        mode=mode,
        n_grid=_ints(_require(cfg, "n_grid")),
        alphas=_floats(_require(cfg, "alphas")),
        replications=int(_require(cfg, "replications")),
        seed=int(cfg.get("seed", 0)),
        model=model.to_json(),
        options=options,
        out=args.out or cfg.get("out"),
        workers=int(cfg.get("workers", args.workers or default_workers())),
    )
    exp.validate_for_slope()
    curve = run_rate_experiment(exp)
    sys.stdout.write(curve.to_csv())
    try:
        fit = fit_loglog_slope(curve)
        sys.stderr.write(f"slope={fit.slope:.4f} stderr={fit.slope_stderr:.4f}\n")
    except ValueError:
        pass
    return EXIT_OK


def cmd_lowerbound(args) -> int:
    cfg = parse_kv_config(args.config)
    alphas = _floats(_require(cfg, "alphas"))
    budget = PrivacyBudget(alphas)
    n = int(_require(cfg, "n"))
    if args.kind == "moment":
        profile = MomentProfile(_floats(_require(cfg, "ks")))
        inst = lb.moment_two_point(profile, budget, n)
        channels = lb.default_moment_channels(inst)
        rep = lb.verify_two_point(inst, channels, n)
        out = {
            "kind": "moment",
            "delta": inst.delta,
            "separation": inst.separation,
            **rep.to_json(),
        }
        _write_json(args.out, out)
        return EXIT_OK if rep.condition3_ok else EXIT_VIOLATION
    if args.kind == "density":
        hc = HolderClass(beta=float(_require(cfg, "beta")), L=float(cfg.get("L", 1.0)), d=len(alphas))
        inst = lb.density_two_point(
            hc, budget, n, eps0=float(cfg.get("eps0", 1.9)), c_k=float(cfg.get("c_k", 4.0))
        )
        mass, dmin = lb.density_star_mass_and_min(inst)
        bump = lb.bump_axis_integral(inst)
        ok = abs(mass - 1.0) <= 1e-6 and dmin >= -1e-12 and abs(bump) <= 1e-8
        out = {
            "kind": "density",
            "M_n": inst.M_n,
            "h_n": inst.h_n,
            "separation": inst.separation,
            "mass": mass,
            "min_density": dmin,
            "bump_axis_integral": bump,
            "ok": ok,
        }
        _write_json(args.out, out)
        return EXIT_OK if ok else EXIT_VIOLATION
    raise ConfigError(f"unknown lower bound kind {args.kind!r}")


def cmd_report(args) -> int:
    status = EXIT_OK
    combined = {}
    for suite in ("contraction", "privacy", "leakage", "lowerbound"):
        code, rep = run_verification_suite(suite, seed=args.seed, instances=args.instances)
        combined[suite] = rep
        status = max(status, code)
    _write_json(args.out, combined)
    return status


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cldp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("audit", help="likelihood-ratio audit of channel specs")
    s.add_argument("--channels", required=True, help="JSON file with channel spec(s)")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_audit)

    s = sub.add_parser("contract-verify", help="randomized contraction-bound sweep")
    s.add_argument("--dims", type=lambda v: [int(x) for x in v.split(",")], default=[2, 3])
    s.add_argument("--instances", type=int, default=500)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_contract_verify)

    s = sub.add_parser("leakage", help="side-channel leakage audit of a joint law")
    s.add_argument("--dist", required=True)
    s.add_argument("--channels", required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_leakage)

    s = sub.add_parser("estimate", help="one private estimate on synthetic data")
    s.add_argument("--mode", required=True, choices=["mean", "moment", "cov", "corr", "kde"])
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_estimate)

    s = sub.add_parser("adaptive", help="data-driven truncation/bandwidth selection")
    s.add_argument("--mode", required=True, choices=["moment", "density"])
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_adaptive)

    s = sub.add_parser("rates", help="Monte Carlo rate curve with slope fit")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.add_argument("--workers", type=int)
    s.set_defaults(fn=cmd_rates)

    s = sub.add_parser("lowerbound", help="two-point lower-bound instance checks")
    s.add_argument("--kind", required=True, choices=["moment", "density"])
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_lowerbound)

    s = sub.add_parser("report", help="run all verification suites")
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--instances", type=int, default=None)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_report)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, KeyError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
