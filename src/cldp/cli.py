"""Command-line harness.

Subcommands: audit, contract-verify, leakage, estimate, adaptive, rates,
lowerbound, report.  Experiment configs are flat key=value text files (see
README for the key set per mode).  Exit codes: 0 ok, 1 violation, 2 config
error.  CLDP_WORKERS sets the default parallelism degree.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import adaptive as ad
from . import effective_privacy as ep
from . import lowerbounds as lb
from .channels import PrivacyBudget, audit_verdict, channel_from_json, privacy_audit
from .estimators import (
    HolderClass,
    MomentProfile,
    corr_release_plan,
    private_covariance_correlation,
    release_sample,
)
from .harness import (
    MODES,
    ExperimentConfig,
    default_workers,
    derive_rng,
    fit_loglog_slope,
    kde_bandwidth,
    run_mode,
    run_rate_experiment,
    run_verification_suite,
    write_json,
)
from .measures import DiscreteDist
from .simdata import ParetoFactorModel, model_from_json, sample_heavy_tailed

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


# the config keys of each model kind, with their parsers; a missing key takes
# the constructor's default, except the required a (ks + 1) and beta (2)
_MODEL_KEYS = {
    "pareto_factor": {
        "ks": _floats, "a": _floats, "rho": float, "scale": float, "coupling": str, "symmetric": _bool,
    },
    "holder_density": {
        "beta": float, "d": int, "box": float, "weights": _floats, "mus": _floats, "sigmas": _floats,
        "kink_b": float, "kink_weight": float,
    },
}
# pipeline options, stored in the options dict (and the rates meta.json) as parsed here
_OPTION_KEYS = {"ks": _floats, "x0": _floats, "beta": float, "c0": float, "h": float, "zero_noise": _bool}


def _model_kind(cfg: dict) -> str:
    kind = cfg.get("model", "pareto_factor")
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"unknown model {kind!r}")
    return kind


def _model_from_config(cfg: dict):
    kind = _model_kind(cfg)
    spec = {key: parse(cfg[key]) for key, parse in _MODEL_KEYS[kind].items() if key in cfg}
    if kind == "pareto_factor":
        spec.setdefault("a", tuple(k + 1.0 for k in _floats(_require(cfg, "ks"))))
    else:
        spec.setdefault("beta", 2.0)
    return model_from_json({"kind": kind, **spec})


def _reject_unknown(cfg: dict, known) -> None:
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))}")


def _mode_inputs(cfg: dict, mode: str, command_keys: set) -> tuple:
    """(model, options) of a table mode from a kv config; unknown keys are errors."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    kind = _model_kind(cfg)
    _reject_unknown(cfg, command_keys | {"model"} | _MODEL_KEYS[kind].keys() | set(MODES[mode].config_keys))
    options = {key: parse(cfg[key]) for key, parse in _OPTION_KEYS.items() if key in cfg}
    return _model_from_config(cfg), options


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_audit(args) -> int:
    with open(args.channels) as f:
        specs = json.load(f)
    if isinstance(specs, dict):
        specs = [specs]
    rows = []
    for spec in specs:
        ch = channel_from_json(spec)
        res = privacy_audit(ch)
        bound, ok = audit_verdict(res.max_ratio, ch.alpha)
        rows.append({"spec": spec, **res.to_json(), "bound": bound, "ok": ok})
    violations = sum(not r["ok"] for r in rows)
    write_json(args.out, {"audits": rows, "violations": violations})
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_contract_verify(args) -> int:
    from .contraction import run_contraction_sweep

    report = run_contraction_sweep(
        dims=tuple(args.dims), instances=args.instances, seed=args.seed
    )
    write_json(args.out, report)
    return EXIT_VIOLATION if report["violations"] else EXIT_OK


def cmd_leakage(args) -> int:
    with open(args.dist) as f:
        P = DiscreteDist.from_json(json.load(f))
    with open(args.channels) as f:
        specs = json.load(f)
    channels = [channel_from_json(s) for s in specs]
    report = ep.leakage_report(P, channels)
    write_json(args.out, report)
    return EXIT_VIOLATION if report["violation"] else EXIT_OK


def _sample_inputs(args, mode: str) -> tuple:
    """(n, budget, model, options, seed) of one ``estimate`` or ``adaptive`` run."""
    cfg = parse_kv_config(args.config)
    model, options = _mode_inputs(cfg, mode, {"n", "seed", "alphas"})
    n = int(_require(cfg, "n"))
    return n, PrivacyBudget(_floats(_require(cfg, "alphas"))), model, options, int(cfg.get("seed", 0))


def cmd_estimate(args) -> int:
    mode = args.mode
    n, budget, model, options, seed = _sample_inputs(args, "cov" if mode == "corr" else mode)
    rng = derive_rng(seed, 900)
    if mode == "corr":
        if not isinstance(model, ParetoFactorModel):
            raise ConfigError("mode corr expects a pareto_factor model")
        X = sample_heavy_tailed(model, n, rng)
        ch_raw, ch_sq = corr_release_plan(MomentProfile(options["ks"]), budget, n)
        est = private_covariance_correlation(release_sample(X, ch_raw, rng), release_sample(np.abs(X) ** 2, ch_sq, rng))
    else:
        _, est = run_mode(MODES[mode], model, n, budget, options, rng)
    if mode == "mean":
        out = {"estimates": est}
    elif mode in ("cov", "corr"):
        out = est.to_json()
    elif mode == "kde":
        h, regime = kde_bandwidth(n, budget, options)
        out = {"h": h, "regime": regime, "estimate": est, "truth": MODES[mode].truth(model, options)}
    else:
        out = {"estimate": est}
    write_json(args.out, {"mode": mode, "n": n, **out})
    return EXIT_OK


def cmd_adaptive(args) -> int:
    n, budget, model, options, seed = _sample_inputs(args, "adaptive_" + args.mode)
    _, sel = run_mode(MODES["adaptive_" + args.mode], model, n, budget, options, derive_rng(seed, 901))
    if args.mode == "moment":
        grid = ad.build_truncation_grid(n)
        bv = [
            {"T": [float(grid[i]) for i in idx], "B": float(sel.B_table[idx]), "V": float(sel.V_table[idx])}
            for idx in np.ndindex(sel.B_table.shape)
        ]
        out = {"selected": list(sel.T_hat), "estimate": sel.gamma_hat, "bv_table": bv}
    else:
        grid = ad.build_bandwidth_grid(n)
        bv = [
            {"h": float(grid[i]), "B": float(sel.B_table[i]), "V": float(sel.V_table[i])}
            for i in range(grid.size)
        ]
        out = {"selected": sel.h_hat, "estimate": sel.pi_hat, "bv_table": bv}
    write_json(args.out, out)
    return EXIT_OK


def cmd_rates(args) -> int:
    cfg = parse_kv_config(args.config)
    keys = {"mode", "n_grid", "alphas", "replications", "seed", "out", "workers", "zero_noise"}
    model, options = _mode_inputs(cfg, _require(cfg, "mode"), keys)
    exp = ExperimentConfig(
        mode=cfg["mode"],
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


_LOWERBOUND_KEYS = {"moment": {"ks"}, "density": {"beta", "L", "eps0", "c_k"}}


def cmd_lowerbound(args) -> int:
    cfg = parse_kv_config(args.config)
    _reject_unknown(cfg, {"n", "alphas"} | _LOWERBOUND_KEYS.get(args.kind, set()))
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
        write_json(args.out, out)
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
        write_json(args.out, out)
        return EXIT_OK if ok else EXIT_VIOLATION
    raise ConfigError(f"unknown lower bound kind {args.kind!r}")


def cmd_report(args) -> int:
    status = EXIT_OK
    combined = {}
    for suite in ("contraction", "privacy", "leakage", "lowerbound"):
        code, rep = run_verification_suite(suite, seed=args.seed, instances=args.instances)
        combined[suite] = rep
        status = max(status, code)
    write_json(args.out, combined)
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
    except (ConfigError, FileNotFoundError, KeyError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
