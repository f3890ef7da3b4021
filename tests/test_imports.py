"""Cold start: the package, the CLI and every run without a slope fit load numpy
and the standard library only; scipy is imported by ``fit_loglog_slope`` alone.

Each case runs in a fresh interpreter, since this process may already hold scipy.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import cldp

SRC = str(pathlib.Path(cldp.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with this checkout's src/ on the path; its stdout."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_and_cli_import_without_scipy():
    out = fresh("""
        import sys
        import cldp, cldp.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "[]"


def test_audit_command_runs_without_scipy(tmp_path):
    spec = tmp_path / "ch.json"
    spec.write_text(json.dumps([{"variant": "laplace_trunc", "alpha": 1.0, "T": 1.0}]))
    # -X importtime logs every module the process imports to stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cldp.cli", "audit", "--channels", str(spec),
         "--out", str(tmp_path / "audit.json")],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line]
    assert "cldp.channels" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def test_rate_runs_without_out_do_not_load_scipy():
    out = fresh("""
        import sys
        from cldp.harness import ExperimentConfig, run_rate_experiment
        from cldp.simdata import HolderDensityModel

        model = HolderDensityModel(beta=2, d=1).to_json()
        for mode, options in [("kde", {"beta": 2.0, "x0": [0.0]}),
                              ("adaptive_density", {"beta": 2.0, "x0": [0.0]})]:
            cfg = ExperimentConfig(mode=mode, n_grid=(256,), alphas=(1.0,), replications=2, seed=3,
                                   model=model, options=options)
            curve = run_rate_experiment(cfg)
            assert curve.points[0].replications == 2
        print("scipy" in sys.modules)
    """)
    assert out.strip() == "False"


def test_slope_fit_loads_scipy_and_keeps_its_band():
    out = fresh("""
        import sys
        import numpy as np
        from cldp.harness import fit_loglog_slope

        before = "scipy" in sys.modules
        xs = np.array([16.0, 64.0, 256.0, 1024.0, 4096.0])
        fit = fit_loglog_slope((xs, xs**-0.5 * np.array([1.1, 0.9, 1.05, 0.97, 1.02])))
        print(before, "scipy" in sys.modules, repr(fit.slope), repr(fit.band))
    """)
    # the band is t_{0.975, 3} from scipy.special.stdtrit, the same floats as a module-level import gave
    assert out.split() == [
        "False", "True", "-0.5054904498624437", "(-0.5692585580145139,", "-0.4417223417103736)",
    ]
