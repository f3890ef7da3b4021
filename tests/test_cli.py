import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import cldp
from cldp.channels import LaplaceTruncChannel, channel_to_json, make_rr_channel
from cldp.cli import _LOWERBOUND_KEYS, _MODEL_KEYS, _RATES_KEYS, _model_from_config, main, parse_kv_config
from cldp.harness import MODES, RateCurve
from cldp.measures import DiscreteDist
from cldp.simdata import MODEL_KINDS, ParetoFactorModel, model_from_json


def write(path, text):
    path.write_text(text)
    return str(path)


def run_cli(*argv, timeout=None):
    """``python -m cldp.cli argv`` in a fresh interpreter, to see what reaches the terminal;
    past ``timeout`` seconds the child is killed and the test fails."""
    src = str(pathlib.Path(cldp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "cldp.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestConfigParser:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "c.txt", "n = 100\nalphas=0.5,0.5  # inline comment\n\n# comment\n")
        cfg = parse_kv_config(p)
        assert cfg == {"n": "100", "alphas": "0.5,0.5"}

    def test_malformed_line(self, tmp_path):
        p = write(tmp_path / "c.txt", "this is wrong\n")
        from cldp.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_kv_config(p)


class TestAuditCommand:
    def test_clean_channel_exit_zero(self, tmp_path):
        spec = [channel_to_json(LaplaceTruncChannel(T=1.0, alpha=0.8))]
        ch = write(tmp_path / "ch.json", json.dumps(spec))
        out = tmp_path / "audit.json"
        assert main(["audit", "--channels", ch, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["violations"] == 0
        assert rep["audits"][0]["max_ratio"] == pytest.approx(math.exp(0.8), rel=1e-9)

    def test_missing_file_exit_config(self, tmp_path):
        assert main(["audit", "--channels", str(tmp_path / "nope.json")]) == 2

    def test_nan_alpha_exit_config(self, tmp_path):
        # a NaN level is malformed input, not a privacy violation
        ch = write(tmp_path / "ch.json", '[{"variant": "laplace_trunc", "alpha": NaN, "T": 1.0}]')
        proc = run_cli("audit", "--channels", ch, "--out", str(tmp_path / "audit.json"))
        assert proc.returncode == 2
        assert "alpha must be positive" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("alpha", ["1e400", "null"])
    def test_infinite_alpha_exit_config(self, tmp_path, alpha):
        # JSON reads 1e400 as inf and null as the identity channel's inf: no Laplace scale exists
        ch = write(tmp_path / "ch.json", f'[{{"variant": "laplace_trunc", "alpha": {alpha}, "T": 1.0}}]')
        proc = run_cli("audit", "--channels", ch, "--out", str(tmp_path / "audit.json"))
        assert proc.returncode == 2
        assert "alpha must be positive and finite" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("spec, message", [
        ('{"variant": "laplace_trunc", "alpha": 1.0, "T": 1e400}', "truncation T must be positive and finite"),
        ('{"variant": "multi_trunc", "alpha": 1.0, "grid": [1e400, 1.0]}',
         "truncation grid must be nonempty, positive and finite"),
    ], ids=["laplace_trunc", "multi_trunc"])
    def test_infinite_truncation_exit_config(self, tmp_path, spec, message):
        # JSON reads 1e400 as inf: the clamp would be the identity and the scale infinite,
        # which the audit used to report as a violation with NaN ratios
        out = tmp_path / "audit.json"
        proc = run_cli("audit", "--channels", write(tmp_path / "ch.json", f"[{spec}]"), "--out", str(out))
        assert proc.returncode == 2
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_nan_x0_exit_config(self, tmp_path):
        # a NaN evaluation point is malformed input; the clean map would read 0 everywhere
        spec = '[{"variant": "kernel_laplace", "alpha": 1.0, "h": 0.5, "x0": NaN, "kernel_order": 2}]'
        out = tmp_path / "audit.json"
        proc = run_cli("audit", "--channels", write(tmp_path / "ch.json", spec), "--out", str(out))
        assert proc.returncode == 2
        assert "x0 must be finite" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_alpha_beyond_exp_range(self, tmp_path):
        # e^800 overflows a float: the bound reads inf and the exit code is the verdict's
        spec = [{"variant": "laplace_trunc", "alpha": 800.0, "T": 1.0}]
        ch = write(tmp_path / "ch.json", json.dumps(spec))
        out = tmp_path / "audit.json"
        proc = run_cli("audit", "--channels", ch, "--out", str(out))
        assert "Traceback" not in proc.stderr
        rep = json.loads(out.read_text())
        assert rep["audits"][0]["bound"] == math.inf
        assert rep["audits"][0]["achieved_alpha"] == pytest.approx(800.0, rel=1e-12)
        assert proc.returncode == (1 if rep["violations"] else 0)


    @pytest.mark.parametrize("spec, message", [
        ({"variant": "laplace_trunc", "alpha": 0.5, "T": 1.0, "alhpa": 2}, "'alhpa'"),
        ({"variant": "laplace_trunc", "T": 1.0}, "'alpha'"),
    ])
    def test_unknown_or_missing_spec_key_exit_config(self, tmp_path, spec, message):
        out = tmp_path / "audit.json"
        proc = run_cli("audit", "--channels", write(tmp_path / "ch.json", json.dumps([spec])), "--out", str(out))
        assert proc.returncode == 2
        assert "laplace_trunc" in proc.stderr and message in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()


class TestContractVerify:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(
            ["contract-verify", "--dims", "2", "--instances", "20", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["violations"] == 0
        assert len(rep["reports"]) == 20

    @pytest.mark.parametrize("argv, message", [
        (["--dims", "0"], "dims must be"),
        (["--dims", "2,-1"], "dims must be"),
        (["--instances", "0"], "instances must be >= 1, got 0"),
        (["--instances", "-3"], "instances must be >= 1, got -3"),
    ])
    def test_bad_size_exit_config(self, tmp_path, argv, message):
        out = tmp_path / "rep.json"
        proc = run_cli("contract-verify", *argv, "--out", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert not out.exists()


class TestReportInstances:
    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_nonpositive_instances_exit_config(self, tmp_path, capsys, instances):
        out = tmp_path / "report.json"
        assert main(["report", "--instances", instances, "--out", str(out)]) == 2
        assert f"instances must be >= 1, got {instances}" in capsys.readouterr().err
        assert not out.exists()


class TestLeakageCommand:
    def test_report_fields(self, tmp_path):
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.4, 0.1], [0.1, 0.4]])
        dist = write(tmp_path / "d.json", json.dumps(P.to_json()))
        chans = [channel_to_json(make_rr_channel((0.0, 1.0), a)) for a in (0.5, 0.9)]
        chp = write(tmp_path / "ch.json", json.dumps(chans))
        out = tmp_path / "leak.json"
        assert main(["leakage", "--dist", dist, "--channels", chp, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        for key in ("delta_ind", "effective_alpha", "audited_sup", "floor"):
            assert key in rep

    def test_uncovered_support_exit_config(self, tmp_path, capsys):
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.4, 0.1], [0.1, 0.4]])
        dist = write(tmp_path / "d.json", json.dumps(P.to_json()))
        chans = [channel_to_json(make_rr_channel(sup, 0.5)) for sup in ((0.0, 1.0), (0.0, 2.0))]
        chp = write(tmp_path / "ch.json", json.dumps(chans))
        assert main(["leakage", "--dist", dist, "--channels", chp]) == 2
        assert "input support" in capsys.readouterr().err

    def test_negative_level_exit_config(self, tmp_path, capsys):
        # alpha_max stays positive, so only the audit's own check sees the negative level
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], np.full((2, 2, 2), 0.125))
        dist = write(tmp_path / "d.json", json.dumps(P.to_json()))
        chans = [channel_to_json(make_rr_channel((0.0, 1.0), a)) for a in (0.5, 0.9, 0.9)]
        chans[1]["alpha"] = -0.5
        chp = write(tmp_path / "ch.json", json.dumps(chans))
        assert main(["leakage", "--dist", dist, "--channels", chp]) == 2
        assert "privacy levels must be nonnegative" in capsys.readouterr().err

    def test_malformed_dist_exit_config(self, tmp_path, capsys):
        # probs must list {"idx", "p"} entries, not a dense table
        dist = write(tmp_path / "d.json", json.dumps({"supports": [[0.0, 1.0], [0.0, 1.0]],
                                                       "probs": [[0.4, 0.1], [0.1, 0.4]]}))
        chans = [channel_to_json(make_rr_channel((0.0, 1.0), 0.5))] * 2
        chp = write(tmp_path / "ch.json", json.dumps(chans))
        assert main(["leakage", "--dist", dist, "--channels", chp]) == 2
        assert "probs" in capsys.readouterr().err

    def test_alpha_beyond_exp_range(self, tmp_path):
        # identity tables declared at alpha 800: e^800 overflows, so the bound reads inf
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.4, 0.1], [0.1, 0.4]])
        dist = write(tmp_path / "d.json", json.dumps(P.to_json()))
        spec = {"variant": "randomized_response", "alpha": 800.0, "input_support": [0.0, 1.0],
                "output_support": [0.0, 1.0], "transition_table": [[1.0, 0.0], [0.0, 1.0]]}
        chp = write(tmp_path / "ch.json", json.dumps([spec, spec]))
        out = tmp_path / "leak.json"
        proc = run_cli("leakage", "--dist", dist, "--channels", chp, "--out", str(out))
        assert "Traceback" not in proc.stderr
        rep = json.loads(out.read_text())
        assert rep["bound"] == math.inf
        assert proc.returncode == (1 if rep["violation"] else 0)


    def test_unknown_spec_key_exit_config(self, tmp_path, capsys):
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.4, 0.1], [0.1, 0.4]])
        dist = write(tmp_path / "d.json", json.dumps(P.to_json()))
        chans = [{**channel_to_json(make_rr_channel((0.0, 1.0), 0.5)), "beta_n": 0.5}] * 2
        chp = write(tmp_path / "ch.json", json.dumps(chans))
        assert main(["leakage", "--dist", dist, "--channels", chp]) == 2
        err = capsys.readouterr().err
        assert "randomized_response" in err and "'beta_n'" in err


class TestNegativeSeed:
    """A seed below 0 is malformed input: exit 2 with a message, before any stream is drawn."""

    CONFIGS = {
        "estimate": (["estimate", "--mode", "mean"], "n=256\nalphas=1\nks=4\na=5\n"),
        "adaptive": (["adaptive", "--mode", "moment"], "n=256\nalphas=1\nks=4\na=5\n"),
        "rates": (["rates"], "mode=mean\nn_grid=256,1024,4096,65536\nalphas=1\nks=4\na=5\nreplications=30\n"),
    }

    @pytest.mark.parametrize("argv", [
        ["contract-verify", "--instances", "2", "--seed", "-1"],
        ["report", "--instances", "2", "--seed", "-1"],
    ])
    def test_flag(self, tmp_path, argv):
        out = tmp_path / "out.json"
        proc = run_cli(*argv, "--out", str(out))
        assert proc.returncode == 2
        assert "seed must be >= 0, got -1" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_config_key(self, tmp_path, command):
        argv, text = self.CONFIGS[command]
        out = tmp_path / "out.json"
        proc = run_cli(*argv, "--config", write(tmp_path / "cfg.txt", text + "seed=-1\n"), "--out", str(out))
        assert proc.returncode == 2
        assert "seed must be >= 0, got -1" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()


class TestEstimateCommand:
    def test_moment(self, tmp_path):
        cfg = write(
            tmp_path / "cfg.txt",
            "n=2048\nalphas=0.5,0.5\nks=4,4\nmodel=pareto_factor\na=5,5\nrho=0.5\nseed=3\n",
        )
        out = tmp_path / "est.json"
        assert main(["estimate", "--mode", "moment", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["mode"] == "moment"
        assert math.isfinite(rep["estimate"])

    def test_corr(self, tmp_path):
        cfg = write(
            tmp_path / "cfg.txt",
            "n=4096\nalphas=0.8,0.8\nks=6,6\nmodel=pareto_factor\na=8,8\nrho=0.6\nseed=3\n",
        )
        out = tmp_path / "est.json"
        assert main(["estimate", "--mode", "corr", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["corr"] is None or -1.0 <= rep["corr"] <= 1.0

    def test_kde(self, tmp_path):
        cfg = write(
            tmp_path / "cfg.txt",
            "n=4096\nalphas=0.5\nmodel=holder_density\nbeta=2\nd=1\nx0=0.0\nseed=3\n",
        )
        out = tmp_path / "est.json"
        assert main(["estimate", "--mode", "kde", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["regime"] == "private"

    def test_kde_h_override_without_optimal_bandwidth(self, tmp_path):
        # n alpha^2 = 0.5: no rate-optimal bandwidth exists, but a given h needs none
        base = "n=2\nalphas=0.5\nmodel=holder_density\nbeta=2\nd=1\nx0=0.0\nseed=3\n"
        out = tmp_path / "est.json"
        cfg = write(tmp_path / "cfg.txt", base + "h=0.25\n")
        assert main(["estimate", "--mode", "kde", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert (rep["h"], rep["regime"]) == (0.25, "private")
        assert math.isfinite(rep["estimate"])
        assert main(["estimate", "--mode", "kde", "--config", write(tmp_path / "no_h.txt", base)]) == 2

    def test_pareto_coupling_and_symmetry_forwarded(self, tmp_path):
        # the c07 model: one-sided power coupling, true mean 6.67
        cfg = parse_kv_config(
            write(tmp_path / "cfg.txt", "ks=2\na=2.1\nscale=16\ncoupling=power\nsymmetric=false\n")
        )
        want = model_from_json(
            {"kind": "pareto_factor", "ks": [2.0], "a": [2.1], "rho": 0.0, "scale": 16.0,
             "coupling": "power", "symmetric": False}
        )
        assert _model_from_config(cfg) == want
        assert _model_from_config({"ks": "4", "a": "5"}) == model_from_json(
            {"kind": "pareto_factor", "ks": [4.0], "a": [5.0], "rho": 0.0}
        )

    def test_malformed_boolean_exit_config(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt", "n=100\nalphas=1\nks=2\na=2.1\nsymmetric=maybe\n")
        assert main(["estimate", "--mode", "mean", "--config", cfg]) == 2

    def test_missing_key_exit_config(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt", "n=100\n")
        assert main(["estimate", "--mode", "moment", "--config", cfg]) == 2

    def test_estimator_fault_not_hidden(self, tmp_path, monkeypatch):
        # only malformed input exits 2: a fault past the input boundary raises
        def broken(table, n, budget, options):
            raise ValueError("estimator fault")

        monkeypatch.setitem(MODES, "moment", dataclasses.replace(MODES["moment"], estimate=broken))
        cfg = write(tmp_path / "cfg.txt", "n=256\nalphas=0.5,0.5\nks=4,4\na=5,5\n")
        with pytest.raises(ValueError, match="estimator fault"):
            main(["estimate", "--mode", "moment", "--config", cfg])


class TestAdaptiveCommand:
    def test_moment_selection(self, tmp_path):
        cfg = write(
            tmp_path / "cfg.txt",
            "n=256\nalphas=1.0,1.0\nks=4,4\nmodel=pareto_factor\na=5,5\nrho=0.5\nseed=3\nc0=128\n",
        )
        out = tmp_path / "adapt.json"
        assert main(["adaptive", "--mode", "moment", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["selected"]) == 2
        assert len(rep["bv_table"]) == 64  # 8 levels squared

    def test_density_selection(self, tmp_path):
        cfg = write(
            tmp_path / "cfg.txt",
            "n=256\nalphas=1.0\nmodel=holder_density\nbeta=1\nd=1\nx0=0.0\nseed=3\nc0=2.5\n",
        )
        out = tmp_path / "adapt.json"
        assert main(["adaptive", "--mode", "density", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert 0.0 < rep["selected"] <= 1.0

    @pytest.mark.parametrize("mode", ["moment", "density"])
    @pytest.mark.parametrize("c0", ["nan", "1e308", "-1"])
    def test_malformed_c0_exit_config(self, tmp_path, capsys, mode, c0):
        model = "ks=2\na=2.1\n" if mode == "moment" else "model=holder_density\nbeta=1\nx0=0.0\n"
        cfg = write(tmp_path / "cfg.txt", f"n=256\nalphas=1.0\nseed=3\nc0={c0}\n" + model)
        out = tmp_path / "adapt.json"
        assert main(["adaptive", "--mode", mode, "--config", cfg, "--out", str(out)]) == 2
        assert "c0" in capsys.readouterr().err
        assert not out.exists()

    def test_c0_whose_penalty_overflows_exit_config(self, tmp_path, capsys):
        # a_n is finite at c0 = 1e300, but the finest level's penalty is not
        cfg = write(tmp_path / "cfg.txt",
                    "n=16384\nalphas=1.0\nmodel=holder_density\nbeta=1\nd=1\nx0=0.0\nc0=1e300\n")
        out = tmp_path / "adapt.json"
        assert main(["adaptive", "--mode", "density", "--config", cfg, "--out", str(out)]) == 2
        assert "c0" in capsys.readouterr().err
        assert not out.exists()


class TestRatesCommand:
    def test_rates_with_fit(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "cfg.txt",
            "mode=mean\nn_grid=256,1024,4096,16384,65536\nalphas=0.5\nks=4\n"
            "model=pareto_factor\na=5\nreplications=30\nseed=3\n",
        )
        out = tmp_path / "curve.csv"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,n_eff,mse,stderr,replications,seed"
        assert len(lines) == 6
        meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
        assert -1.0 < meta["fit"]["slope"] < -0.5

    def test_kde_point_below_the_regime_is_a_warning_row(self, tmp_path):
        # at n = 2, n alpha^2 < 1 leaves no private bandwidth: the slope check skips the
        # point and the run keeps it as a warning row, as for every other mode
        cfg = write(
            tmp_path / "cfg.txt",
            "mode=kde\nn_grid=2,256,1024,4096,16384,65536\nalphas=0.5\nbeta=2\nmodel=holder_density\n"
            "d=1\nx0=0.0\nreplications=30\nseed=3\n",
        )
        out = tmp_path / "curve.csv"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "2,nan,nan,nan,0,3"
        meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
        assert "private bandwidth" in meta["extras"]["per_n"]["2"]["warning"]

    def test_span_of_fitted_points_exit_config(self, tmp_path, capsys, monkeypatch):
        # n = 2 is a warning row of the run: the points the fit uses span 8x of n alpha^2
        monkeypatch.setattr("cldp.cli.run_rate_experiment", lambda exp: pytest.fail("the run started"))
        cfg = write(tmp_path / "cfg.txt",
                    "mode=mean\nn_grid=2,256,512,1024,2048\nalphas=0.5\nks=4\na=5\nreplications=30\n")
        assert main(["rates", "--config", cfg]) == 2
        assert "2 decades" in capsys.readouterr().err

    def test_invalid_grid_exit_config(self, tmp_path):
        cfg = write(
            tmp_path / "cfg.txt",
            "mode=mean\nn_grid=256,512\nalphas=0.5\nks=4\nmodel=pareto_factor\na=5\n"
            "replications=30\nseed=3\n",
        )
        assert main(["rates", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "mode, options, message",
        [
            ("adaptive_moment", "ks=2\na=2.1\nc0=-1\n", "c0 must be positive"),
            ("adaptive_moment", "ks=2\na=2.1\nc0=nan\n", "c0 must be positive"),
            ("adaptive_moment", "ks=2\na=2.1\nc0=1e308\n", "a_n"),
            ("kde", "model=holder_density\nbeta=2\nx0=0.0\nh=1.5\n", "bandwidth h"),
            ("adaptive_density", "model=holder_density\nbeta=1\nx0=0.0,0.0\n", "x0 dimension"),
        ],
    )
    def test_malformed_option_exit_config(self, tmp_path, capsys, mode, options, message, monkeypatch):
        # a malformed option fails at the boundary instead of turning every row into a warning
        monkeypatch.setattr("cldp.cli.run_rate_experiment", lambda exp: pytest.fail("the run started"))
        cfg = write(
            tmp_path / "cfg.txt",
            f"mode={mode}\nn_grid=256,1024,4096,16384,65536,262144\nalphas=1\n"
            f"replications=30\nseed=3\n{options}",
        )
        assert main(["rates", "--config", cfg]) == 2
        assert message in capsys.readouterr().err


class TestWorkers:
    RATES = "mode=mean\nn_grid=256,1024,4096,65536\nalphas=1\nks=4\na=5\nreplications=30\n"

    def run(self, tmp_path, monkeypatch, argv):
        seen = []

        def fake_run(exp):
            seen.append(exp)
            return RateCurve(points=(), mode=exp.mode, axis="")

        monkeypatch.setattr("cldp.cli.run_rate_experiment", fake_run)
        code = main(["rates", "--config", write(tmp_path / "cfg.txt", self.RATES), *argv])
        return code, seen

    @pytest.mark.parametrize("argv", [["--workers", "0"], ["--workers", "-2"]])
    def test_below_one_exit_config(self, tmp_path, capsys, monkeypatch, argv):
        code, seen = self.run(tmp_path, monkeypatch, argv)
        assert code == 2 and not seen
        assert "workers must be >= 1" in capsys.readouterr().err

    # the environment sets nothing: a below-one or malformed CLDP_WORKERS, which once exited 2,
    # is not read either
    @pytest.mark.parametrize("env", ["2", "0", "abc"])
    @pytest.mark.parametrize("argv, want", [([], 1), (["--workers", "3"], 3)])
    def test_flag_is_the_only_source(self, tmp_path, monkeypatch, argv, want, env):
        monkeypatch.setenv("CLDP_WORKERS", env)
        code, (exp,) = self.run(tmp_path, monkeypatch, argv)
        assert code == 0 and exp.workers == want


class TestUnknownConfigKeys:
    RATES = "mode=mean\nn_grid=256,1024,4096,65536\nalphas=1\nks=4\na=5\nreplications=30\n"

    @pytest.mark.parametrize(
        "argv, text, typo",
        [
            (["estimate", "--mode", "mean"], "n=256\nalphas=1\nks=4\na=5\n", "alpha=0.5"),
            (["adaptive", "--mode", "moment"], "n=256\nalphas=1\nks=4\na=5\n", "alpha=0.5"),
            (["rates"], RATES, "alpha=0.5"),
            # the worker count, the output path and zero_noise are set by --workers, --out and
            # ExperimentConfig only
            (["rates"], RATES, "workers=1"),
            (["rates"], RATES, "out=x.csv"),
            (["rates"], RATES, "zero_noise=true"),
            (["lowerbound", "--kind", "moment"], "n=64\nalphas=0.5,0.5\nks=4,4\n", "alpha=0.5"),
        ],
    )
    def test_typo_exits_config_and_names_key(self, tmp_path, capsys, argv, text, typo):
        cfg = write(tmp_path / "cfg.txt", text + typo + "\n")
        assert main(argv + ["--config", cfg]) == 2
        assert repr(typo.split("=")[0]) in capsys.readouterr().err

    def test_key_of_another_mode_rejected(self, tmp_path, capsys):
        # h is a kde option and box a holder_density key: neither is read here
        cfg = write(tmp_path / "cfg.txt", "n=256\nalphas=1\nks=4\na=5\nh=0.3\nbox=2\n")
        assert main(["estimate", "--mode", "mean", "--config", cfg]) == 2
        assert "'box', 'h'" in capsys.readouterr().err

    def test_readme_moment_example_parses(self, tmp_path, monkeypatch):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("cat > moment.cfg <<'EOF'\n", 1)[1].split("EOF\n", 1)[0]
        seen = []

        def fake_run(exp):
            seen.append(exp)
            return RateCurve(points=(), mode=exp.mode, axis="")

        monkeypatch.setattr("cldp.cli.run_rate_experiment", fake_run)
        assert main(["rates", "--config", write(tmp_path / "moment.cfg", text)]) == 0
        (exp,) = seen
        assert (exp.mode, exp.replications, exp.seed) == ("moment", 200, 41)
        assert exp.n_grid == tuple(2**q for q in range(10, 18))
        assert exp.options == {"ks": (4.0, 4.0)}
        assert model_from_json(exp.model) == ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5)

    def test_readme_mode_list_matches_mode_table(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        (line,) = [ln for ln in readme.splitlines() if ln.startswith("mode=") and "# rates only:" in ln]
        assert set(line.split("# rates only:", 1)[1].split()[0].split("|")) == set(MODES)


class TestModelInputs:
    """A malformed model field, or a model whose dimension is not the budget's, exits 2 with a
    specific message before any draw (a fresh interpreter under a timeout, so a hang fails)."""

    KDE = "n=256\nalphas=1\nmodel=holder_density\nbeta=2\nx0=0.0\n"
    MEAN = "n=256\nalphas=1\nks=4\n"
    CASES = {
        "box_negative": ("kde", KDE + "box=-1\n", "box must be positive"),
        "box_nan": ("kde", KDE + "box=nan\n", "box must be a finite number"),
        "short_mus": ("kde", KDE + "weights=0.5,0.5\nmus=0.0\nsigmas=1,1\n", "one mean and one scale per weight"),
        "zero_sigma": ("kde", KDE + "sigmas=1,0\n", "sigmas must be positive"),
        "negative_sigma": ("kde", KDE + "sigmas=1,-1\n", "sigmas must be positive"),
        "negative_weight": ("kde", KDE + "weights=1.5,-0.5\n", "weights must be nonnegative"),
        "kink_weight": ("kde", KDE.replace("beta=2", "beta=1") + "kink_weight=1.5\n", "kink_weight must lie in [0, 1]"),
        "kink_b": ("kde", KDE.replace("beta=2", "beta=1") + "kink_b=0\n", "kink_b must be positive"),
        "scale_nan": ("mean", MEAN + "a=5\nscale=nan\n", "scale must be a finite number"),
        "a_inf": ("mean", MEAN + "a=inf\n", "a must be a list of finite numbers"),
        "model_d": ("kde", KDE.replace("alphas=1", "alphas=0.5") + "d=2\n", "the model has 2 component(s) but the budget 1"),
        "box_mass_tiny": ("kde", KDE + "box=1e-9\n", "box mass 1.09e-09 per axis is below 0.01"),
        "box_mass_far": ("kde", KDE + "mus=50,50\n", "box mass 0 per axis is below 0.01"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_estimate_exits_config(self, tmp_path, case):
        mode, text, message = self.CASES[case]
        out = tmp_path / "out.json"
        cfg = write(tmp_path / "cfg.txt", text)
        proc = run_cli("estimate", "--mode", mode, "--config", cfg, "--out", str(out), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_rates_model_dimension_exits_config(self, tmp_path):
        text = "mode=kde\nn_grid=256,1024,4096,65536\nalphas=0.5\nreplications=30\nmodel=holder_density\nbeta=2\nd=2\n"
        proc = run_cli("rates", "--config", write(tmp_path / "cfg.txt", text), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "the model has 2 component(s) but the budget 1" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_config_keys_are_the_fields(self):
        assert set(_MODEL_KEYS) == set(MODEL_KINDS)
        for kind, cls in MODEL_KINDS.items():
            assert list(_MODEL_KEYS[kind]) == [f.name for f in dataclasses.fields(cls)]


class TestLowerboundCommand:
    def test_moment_kind(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt", "n=64\nalphas=0.5,0.5\nks=4,4\n")
        out = tmp_path / "lb.json"
        assert main(["lowerbound", "--kind", "moment", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["condition3_ok"]
        assert rep["bound"] == pytest.approx(0.125, rel=1e-9)

    def test_density_kind(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt", "n=50000\nalphas=0.5\nbeta=2\n")
        out = tmp_path / "lb.json"
        assert main(["lowerbound", "--kind", "density", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["ok"]

    def test_radius_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", "n=50000\nalphas=0.5\nbeta=2\nL=3\n")
        assert main(["lowerbound", "--kind", "density", "--config", cfg]) == 2
        assert "'L'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("beta=nan\n", "beta must be positive and finite, got nan"),
            ("beta=inf\n", "beta must be positive and finite, got inf"),
            ("beta=2\nc_k=0\n", "c_k must be positive and finite, got 0.0"),
            ("beta=2\nc_k=-1\n", "c_k must be positive and finite, got -1.0"),
            ("beta=2\nc_k=nan\n", "c_k must be positive and finite, got nan"),
        ],
    )
    def test_malformed_density_parameter_exit_config(self, tmp_path, capsys, extra, message):
        cfg = write(tmp_path / "cfg.txt", "n=50000\nalphas=0.5\n" + extra)
        assert main(["lowerbound", "--kind", "density", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_density_constants_default_in_one_place(self, tmp_path):
        outs = []
        for extra in ("", "eps0=1.9\nc_k=4.0\n"):
            cfg = write(tmp_path / "cfg.txt", "n=50000\nalphas=0.5\nbeta=2\n" + extra)
            out = tmp_path / "lb.json"
            assert main(["lowerbound", "--kind", "density", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestReadmeKeys:
    def test_every_accepted_key_is_documented(self):
        """Each key ``rates`` or ``lowerbound`` accepts is in the README's config block or Models table,
        and each key of the config block is accepted by some command."""
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config files", 1)[1].split("```\n", 2)[1]
        in_block = {line.split("=", 1)[0] for line in block.splitlines() if "=" in line}
        documented = set(in_block)
        for line in readme.splitlines():
            if line.startswith(tuple(f"| `{kind}`" for kind in MODEL_KINDS)):
                documented.update(re.findall(r"`(\w+)`", line.split("|")[3]))
        accepted = _RATES_KEYS | {"model"} | set().union(*_MODEL_KEYS.values(), *_LOWERBOUND_KEYS.values())
        accepted |= set().union(*(mode.config_keys for mode in MODES.values()))
        assert sorted(accepted - documented) == []
        assert sorted(in_block - accepted) == []
