"""Command-line front end over the harness.

Subcommands: audit, contract-verify, leakage, estimate, adaptive, rates,
lowerbound, report.  estimate, adaptive and rates run ``harness.MODES``;
lowerbound and report run the checks of ``lowerbounds`` and ``harness``.
Configs are flat key=value text files (see README for the key set per mode).
Exit codes: 0 ok, 1 violation, 2 malformed input only; internal faults surface
as tracebacks.  The input boundary parses text and builds the objects a run
needs, each checking its own fields (``cldp.rules``); whatever fails there, a
ValueError naming the field included, exits 2 before any run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import fields

from . import effective_privacy as ep
from . import lowerbounds as lb
from .channels import PrivacyBudget, audit_verdict, channel_from_json, derive_rng, privacy_audit
from .contraction import Sweep, run_contraction_sweep
from .estimators import HolderClass, MomentProfile
from .harness import (
    MODES,
    SUITES,
    ExperimentConfig,
    fit_loglog_slope,
    kde_bandwidth,
    run_mode,
    run_rate_experiment,
    run_verification_suite,
    write_json,
)
from .measures import DiscreteDist
from .rules import at_least, checked
from .simdata import MODEL_KINDS, model_from_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _reading_inputs():
    """The input boundary: what fails while inputs are read and built is a config error."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_kv_config(path: str) -> dict:
    """Flat key=value text; '#' starts a comment; values may be comma lists."""
    out: dict = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
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


# the config keys of each model kind: its class's fields, parsed by their annotations; a missing
# key takes the class's default, except the required a (ks + 1) and beta (2)
_PARSERS = {"tuple[float, ...]": _floats, "float": float, "int": int, "str": str, "bool": _bool}
_MODEL_KEYS = {kind: {f.name: _PARSERS[f.type] for f in fields(cls)} for kind, cls in MODEL_KINDS.items()}
# pipeline options, stored in the options dict (and the rates meta.json) as parsed here
_OPTION_KEYS = {"ks": _floats, "x0": _floats, "beta": float, "c0": float, "h": float}


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


def _load_json(path: str):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_audit(args) -> int:
    with _reading_inputs():
        specs = _load_json(args.channels)
        if isinstance(specs, dict):
            specs = [specs]
        channels = [channel_from_json(spec) for spec in specs]
    rows = []
    for spec, ch in zip(specs, channels):
        res = privacy_audit(ch)
        bound, ok = audit_verdict(res.max_ratio, ch.alpha)
        rows.append({"spec": spec, **res.to_json(), "bound": bound, "ok": ok})
    violations = sum(not r["ok"] for r in rows)
    write_json(args.out, {"audits": rows, "violations": violations})
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_contract_verify(args) -> int:
    with _reading_inputs():
        Sweep(args.seed, args.instances, args.dims)
    report = run_contraction_sweep(dims=tuple(args.dims), instances=args.instances, seed=args.seed)
    write_json(args.out, report)
    return EXIT_VIOLATION if report["violations"] else EXIT_OK


def cmd_leakage(args) -> int:
    with _reading_inputs():  # the audit's checks reject the law and channels it cannot audit
        P = DiscreteDist.from_json(_load_json(args.dist))
        report = ep.leakage_report(P, [channel_from_json(spec) for spec in _load_json(args.channels)])
    write_json(args.out, report)
    return EXIT_VIOLATION if report["violation"] else EXIT_OK


def _sample_inputs(args, mode: str) -> tuple:
    """(n, budget, model, options, seed) of one ``estimate`` or ``adaptive`` run."""
    with _reading_inputs():
        cfg = parse_kv_config(args.config)
        model, options = _mode_inputs(cfg, mode, {"n", "seed", "alphas"})
        n = int(_require(cfg, "n"))
        budget = PrivacyBudget(_floats(_require(cfg, "alphas")))
        MODES[mode].check_model(model, budget)
        MODES[mode].channels(n, budget, options)  # the regime check
        return n, budget, model, options, checked("seed", int(cfg.get("seed", 0)), [at_least(0)])


def cmd_estimate(args) -> int:
    mode = args.mode
    n, budget, model, options, seed = _sample_inputs(args, mode)
    _, est = run_mode(MODES[mode], model, n, budget, options, derive_rng(seed, 900))
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
    mode = "adaptive_" + args.mode
    n, budget, model, options, seed = _sample_inputs(args, mode)
    _, sel = run_mode(MODES[mode], model, n, budget, options, derive_rng(seed, 901))
    write_json(args.out, sel.to_json())
    return EXIT_OK


_RATES_KEYS = {"mode", "n_grid", "alphas", "replications", "seed"}


def cmd_rates(args) -> int:
    with _reading_inputs():
        cfg = parse_kv_config(args.config)
        model, options = _mode_inputs(cfg, _require(cfg, "mode"), _RATES_KEYS)
        exp = ExperimentConfig(
            mode=cfg["mode"],
            n_grid=_ints(_require(cfg, "n_grid")),
            alphas=_floats(_require(cfg, "alphas")),
            replications=int(_require(cfg, "replications")),
            seed=int(cfg.get("seed", 0)),
            model=model.to_json(),
            options=options,
            out=args.out,
            workers=args.workers,
        )
        exp.validate_for_slope()
    curve = run_rate_experiment(exp)
    sys.stdout.write(curve.to_csv())
    with contextlib.suppress(ValueError):  # fewer than 4 valid points, or a zero MSE
        fit = fit_loglog_slope(curve)
        sys.stderr.write(f"slope={fit.slope:.4f} stderr={fit.slope_stderr:.4f}\n")
    return EXIT_OK


_LOWERBOUND_KEYS = {"moment": {"n", "alphas", "ks"}, "density": {"n", "alphas", "beta", "eps0", "c_k"}}


def cmd_lowerbound(args) -> int:
    with _reading_inputs():
        cfg = parse_kv_config(args.config)
        _reject_unknown(cfg, _LOWERBOUND_KEYS[args.kind])
        alphas = _floats(_require(cfg, "alphas"))
        budget = PrivacyBudget(alphas)
        n = int(_require(cfg, "n"))
        if args.kind == "moment":
            inst = lb.moment_two_point(MomentProfile(_floats(_require(cfg, "ks"))), budget, n)
        else:
            hc = HolderClass(beta=float(_require(cfg, "beta")), d=len(alphas))
            constants = {key: float(cfg[key]) for key in ("eps0", "c_k") if key in cfg}
            inst = lb.density_two_point(hc, budget, n, **constants)
    if args.kind == "moment":
        report = lb.check_moment_instance(inst, n)
        ok = report["condition3_ok"]
    else:
        report = lb.check_density_instance(inst)
        ok = report["ok"]
    write_json(args.out, {"kind": args.kind, **report})
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_report(args) -> int:
    with _reading_inputs():
        Sweep(args.seed, 1 if args.instances is None else args.instances)  # None: each suite's own count
    status = EXIT_OK
    combined = {}
    for suite in SUITES:
        code, rep = run_verification_suite(suite, seed=args.seed, instances=args.instances)
        combined[suite] = rep
        status = max(status, code)
    write_json(args.out, combined)
    return status


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cldp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str) -> argparse.ArgumentParser:
        s = sub.add_parser(name, help=help)
        s.add_argument("--out")
        s.set_defaults(fn=fn)
        return s

    s = command("audit", cmd_audit, "likelihood-ratio audit of channel specs")
    s.add_argument("--channels", required=True, help="JSON file with channel spec(s)")

    s = command("contract-verify", cmd_contract_verify, "randomized contraction-bound sweep")
    s.add_argument("--dims", type=lambda v: [int(x) for x in v.split(",")], default=[2, 3])
    s.add_argument("--instances", type=int, default=500)
    s.add_argument("--seed", type=int, default=7)

    s = command("leakage", cmd_leakage, "side-channel leakage audit of a joint law")
    s.add_argument("--dist", required=True)
    s.add_argument("--channels", required=True)

    s = command("estimate", cmd_estimate, "one private estimate on synthetic data")
    s.add_argument("--mode", required=True, choices=[m for m in MODES if not m.startswith("adaptive_")])
    s.add_argument("--config", required=True)

    s = command("adaptive", cmd_adaptive, "data-driven truncation/bandwidth selection")
    s.add_argument("--mode", required=True,
                   choices=[m.removeprefix("adaptive_") for m in MODES if m.startswith("adaptive_")])
    s.add_argument("--config", required=True)

    s = command("rates", cmd_rates, "Monte Carlo rate curve with slope fit")
    s.add_argument("--config", required=True)
    s.add_argument("--workers", type=int, default=1)

    s = command("lowerbound", cmd_lowerbound, "two-point lower-bound instance checks")
    s.add_argument("--kind", required=True, choices=["moment", "density"])
    s.add_argument("--config", required=True)

    s = command("report", cmd_report, "run all verification suites")
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--instances", type=int, default=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
