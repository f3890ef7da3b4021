"""Golden outputs: sha256 of fixed-seed rate curves and CLI JSON.

Refactors of the harness, the CLI or the selectors must leave every byte of
these outputs unchanged.  Each case is a tiny configuration that still walks
the paths a change could disturb: regime-warning rows, ``zero_noise``, a
bandwidth override, replications whose correlation is undefined, the adaptive
oracle table (with and without an ``oracle_reps`` cap), and each
``cldp estimate`` / ``cldp adaptive`` mode.
At n = 2^12 and 2^14, beyond the tiny configs, c07's and c08's multi-level
releases and their oracle tables are pinned array by array.
``cldp report``, one ``cldp audit`` over every channel variant, one
``cldp leakage`` (a zero-mass cell and an identity channel walk the 0/0 and
x/0 ratio branches), one ``cldp contract-verify`` and both
``cldp lowerbound`` kinds pin the verification JSON.  A hash that moves means
an output moved; regenerate the pins only for a change that is meant to alter
outputs, and say so where the change is recorded.
"""

import hashlib
import json

import numpy as np
import pytest

from cldp.channels import PrivacyBudget, channel_to_json, make_identity_channel, make_rr_channel
from cldp.cli import main
from cldp.estimators import release_sample
from cldp.harness import MODES, ExperimentConfig, derive_rng, run_rate_experiment
from cldp.measures import DiscreteDist
from cldp.simdata import (
    HolderDensityModel,
    ParetoFactorModel,
    model_from_json,
    sample_heavy_tailed,
    sample_holder_density,
)

PARETO_1 = ParetoFactorModel(ks=[4.0], a=[5.0]).to_json()
PARETO_2 = ParetoFactorModel(ks=[4.0, 4.0], a=[5.0, 5.0], rho=0.5).to_json()
PARETO_C07 = ParetoFactorModel(ks=[2.0], a=[2.1], scale=16.0, coupling="power", symmetric=False).to_json()
PARETO_CORR = ParetoFactorModel(ks=[6.0, 6.0], a=[8.0, 8.0], rho=0.6).to_json()
HOLDER_2 = HolderDensityModel(beta=2.0).to_json()
HOLDER_C08 = HolderDensityModel(beta=1.0, kink_b=0.2).to_json()


def _rate(mode, n_grid, alphas, model, options, replications=3, seed=11, workers=1):
    return ExperimentConfig(mode=mode, n_grid=n_grid, alphas=alphas, replications=replications, seed=seed,
                            model=model, options=options, workers=workers)


RATE_CASES = {
    # n = 2 gives n alpha^2 < 1: a warning row; five valid points give a fit
    "mean": _rate("mean", (2, 256, 512, 1024, 2048), (0.5,), PARETO_1, {"ks": [4.0]}),
    "moment_zero_noise": _rate("moment", (256, 1024), (0.5, 0.5), PARETO_2, {"ks": [4.0, 4.0], "zero_noise": True}),
    "cov": _rate("cov", (1, 256, 1024), (0.5, 0.5), PARETO_2, {"ks": [4.0, 4.0]}, workers=2),
    # n = 1 is a warning row; at n = 64 some replication's correlation is undefined, so the MSE is nan
    "corr": _rate("corr", (1, 64, 4096), (0.8, 0.8), PARETO_CORR, {"ks": [6.0, 6.0]}),
    # the override needs no rate-optimal bandwidth: n = 2 (n alpha^2 < 1) is a valid row
    "kde_h": _rate("kde", (2, 512, 2048), (0.5,), HOLDER_2, {"beta": 2.0, "x0": [0.0], "h": 0.25}),
    "kde_nonprivate": _rate("kde", (1024, 4096), (4.0,), HOLDER_2, {"beta": 2.0, "x0": [0.1]}),
    "adaptive_moment": _rate("adaptive_moment", (2, 64, 128), (1.0,), PARETO_C07, {"ks": [2.0], "c0": 12.0}),
    "adaptive_moment_d2": _rate("adaptive_moment", (64,), (1.0, 1.0), PARETO_2, {"ks": [4.0, 4.0], "c0": 128.0},
                                replications=2),
    "adaptive_density": _rate("adaptive_density", (2, 64, 256), (8.0,), HOLDER_C08,
                              {"beta": 1.0, "x0": [0.0], "c0": 2.5, "oracle_reps": 2}),
}

RATE_GOLDEN = {
    "mean": (
        "597e0b177833f31695177a1080395f928e64738c34077e5d2852e063aad37358",
        "81467971103028ef12e337a8755d2cf3c3b8835a0980e20e352908f3ef125453",
    ),
    "moment_zero_noise": (
        "0a1f864db5777028d6e223725f73fced9d2f155c4e737541374af5441f60bb05",
        "2e0f241913d2b7469bcc752a8acaa702819b04b980c920b91713e1c23002d2c6",
    ),
    "cov": (
        "7d065c3dd93e6113c41129b04cd2809cc0dd1f45665f9acfa7d8810569fc9eda",
        "00287aed9a7ab2e7fa83a7ba3369c5f1f74ddb4b3fc76ce87b9eaf9b3188b513",
    ),
    "corr": (
        "61cc85b4c884e0e5f00afc979a5daa2a4e562a9b3dd44f57b272bf81d4d7875f",
        "39217a642ac064d9f22db38b2e01a32fa491f209c111afd7b78f1ac6371d65ee",
    ),
    "kde_h": (
        "87b4bb53f1a340df7809223507c1a33917ebc0e2fd5584f6f018b34e1ee9c876",
        "3e967939b0ef5d54a16835c7245fdf87f644fbb71c94d6d4ae886df608435222",
    ),
    "kde_nonprivate": (
        "526e24c4a694c7a13959f05e3911f46aa876c0c77c04f8b749f94dd2f88c3c16",
        "71257bd1acede3d4c9a0c544c5387446b98723b13f9e52e9f1bd1ee7c92cef58",
    ),
    "adaptive_moment": (
        "3a15f88b93b75494272711f66a0906cd3609428939256da44bf2fc7c23c92472",
        "4a007447a263f0056202e3a44326900d4adb455480dbc5c691a7406d496d4e2e",
    ),
    "adaptive_moment_d2": (
        "cea956657e421af461c89c6d1cc125658fb26fa1ad228dc41f4aa01587b82dcb",
        "97e9525becbd26f318833cf469160565eb01a3931dd42817f6332cb5a0e1411f",
    ),
    "adaptive_density": (
        "2bdcf214ff5b4b44ea90553c9dc83d14d03ae1bf0ef7c86cc66d34ebec04b10f",
        "45275467cc3ae05f470e4a21ba5e4a158f90727d26928c19d59e336c21f13859",
    ),
}

# c07's and c08's gate configurations at n = 2^12: the multi-level release
# (12 clamp levels, 12 bandwidths) and the oracle's per-level mean and noise variance
ARRAY_N = 2**12
ARRAY_CASES = {
    "c07": ("adaptive_moment", PARETO_C07, (1.0,), {"ks": [2.0], "c0": 12.0}),
    "c08": ("adaptive_density", HOLDER_C08, (8.0,), {"beta": 1.0, "x0": [0.0], "c0": 2.5}),
}

ARRAY_GOLDEN = {  # (release, oracle mean, oracle noise variance)
    "c07": (
        "eca1de9a40ba1abbd06d1c1e2f35c611fd23632ff436269176d604f264102913",
        "c3d5450c03c9534a939f439eb41afc2f1d2875db10a78b728d9c3958a8a5fc26",
        "6923931471d4594c7dbf73deefc32f2f7a01438985e14aabe88acd9e7dc196da",
    ),
    "c08": (
        "d8730a4ef8c34acd2875aed024ff4f1c7f0f8bb3054117dd7fea20bb90a5cf02",
        "bb41b2a2eb664a3eeb8988e02e1d6c3a2388ad83699025c64cbefb6dc55bb676",
        "80893be24bd9b55830608f530f0d407e10375ec70e2e741b026512e2eea0cea2",
    ),
}


def _array_sha(a) -> str:
    return hashlib.sha256(np.asarray(a).tobytes()).hexdigest()


def _release_and_oracle_shas(name, n):
    mode_name, model_json, alphas, options = ARRAY_CASES[name]
    mode, budget, model = MODES[mode_name], PrivacyBudget(alphas), model_from_json(model_json)
    rng = derive_rng(11, mode.id, n, 0)
    X = (sample_heavy_tailed if isinstance(model, ParetoFactorModel) else sample_holder_density)(model, n, rng)
    Z = release_sample(X, mode.channels(n, budget, options), rng)
    mean, noise_var = mode.oracle(X, budget, options)
    return _array_sha(Z.values), _array_sha(mean), _array_sha(noise_var)


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_multi_level_release_and_oracle_unchanged(name):
    assert _release_and_oracle_shas(name, ARRAY_N) == ARRAY_GOLDEN[name]


# the same at n = 2^14: 14 levels make 229,376 draws per release, above the size
# from which releases and the oracle's clean maps are filled in row blocks
SPLIT_N = 2**14
SPLIT_GOLDEN = {
    "c07": (
        "40d248edf174af863b903a552dd9b37b5b664de1b93da9d441621568217afd62",
        "3fc53eb526b4ec1632529e2f98f58479de438d6b1714716e089e7db78ec6a8d7",
        "26e2010916022e9d90a6cf22dd2b85bd00448d8963c1bf23ee4a47dc9d2346a5",
    ),
    "c08": (
        "c9d6101bee202721790dbbe05ad6ba988a2e996349a78304226e399126fa7970",
        "c6cbbe976706d2411400453f1b62b2ae6a8e39bf715c869949b387acdd1f5780",
        "fe7575ce52e3ae211c8b488c5deef3f79352254c9a9c7b028d8f6637e1157ede",
    ),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_split_release_and_oracle_unchanged(name):
    assert _release_and_oracle_shas(name, SPLIT_N) == SPLIT_GOLDEN[name]


PARETO_CFG = "alphas=0.5,0.5\nks=4,4\nmodel=pareto_factor\na=5,5\nrho=0.5\nseed=3\n"
HOLDER_CFG = "alphas=0.5\nmodel=holder_density\nbeta=2\nd=1\nx0=0.0\nseed=3\n"

CLI_CASES = {
    "estimate_mean": (["estimate", "--mode", "mean"], "n=2048\n" + PARETO_CFG),
    "estimate_moment": (["estimate", "--mode", "moment"], "n=2048\n" + PARETO_CFG),
    "estimate_cov": (["estimate", "--mode", "cov"], "n=2048\n" + PARETO_CFG),
    "estimate_corr": (["estimate", "--mode", "corr"],
                      "n=4096\nalphas=0.8,0.8\nks=6,6\nmodel=pareto_factor\na=8,8\nrho=0.6\nseed=3\n"),
    "estimate_kde": (["estimate", "--mode", "kde"], "n=4096\n" + HOLDER_CFG),
    "estimate_kde_h": (["estimate", "--mode", "kde"], "n=4096\nh=0.3\n" + HOLDER_CFG),
    "adaptive_moment": (["adaptive", "--mode", "moment"],
                        "n=256\nalphas=1.0,1.0\nks=4,4\nmodel=pareto_factor\na=5,5\nrho=0.5\nseed=3\nc0=128\n"),
    "adaptive_density": (["adaptive", "--mode", "density"],
                         "n=256\nalphas=1.0\nmodel=holder_density\nbeta=1\nd=1\nx0=0.0\nseed=3\nc0=2.5\n"),
}

CLI_GOLDEN = {
    "estimate_mean": "cd8ed3d11f2e146053a884b77609ee13f91accb002481ca9834a36fd52a43b72",
    "estimate_moment": "822743d60844d4d72aefc5304ab8c9f16d204f63fd8237b29d608ebf8c763699",
    "estimate_cov": "a277c0646ae4b34d62e779fb9b585fb5d90066b78b6ba72b44ea5424749be58c",
    "estimate_corr": "21847d5587268b5e9a5236525cbc09a680a620f991716fb70e9da4a35c2beff4",
    "estimate_kde": "a9642badd7df333df8124d9500de3c7ee0bc8661a77cc878750faa4820a500aa",
    "estimate_kde_h": "8cdabef383dc6b24897738f2d44684188231f6fd8e575c759fad307b33bc114c",
    "adaptive_moment": "bf28b8235d9a141061b63925c450fccc88d5a60facdb3f561a22a1cf555e359a",
    "adaptive_density": "f5e7c679d3454f0a9142ccfb03d16a34d3b56ba83a5bceb489a5e5d06f4cdd8f",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RATE_CASES))
def test_rate_outputs_unchanged(name, tmp_path):
    out = tmp_path / "curve.csv"
    cfg = RATE_CASES[name]
    run_rate_experiment(ExperimentConfig(**{**cfg.__dict__, "out": str(out)}))
    assert (_sha(out), _sha(tmp_path / "curve.csv.meta.json")) == RATE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_outputs_unchanged(name, tmp_path):
    argv, text = CLI_CASES[name]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    out = tmp_path / "out.json"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    assert _sha(out) == CLI_GOLDEN[name]


# every channel variant; the identity channel's alpha is null, so its bound is inf
AUDIT_SPECS = [
    {"variant": "laplace_trunc", "alpha": 0.7, "T": 2.0},
    {"variant": "kernel_laplace", "alpha": 1.0, "h": 0.5, "x0": 0.1, "kernel_order": 2},
    {"variant": "multi_trunc", "alpha": 0.8, "grid": [16.0, 8.0, 4.0, 2.0]},
    {"variant": "multi_bandwidth", "alpha": 0.5, "grid": [0.125, 0.25, 0.5, 1.0], "x0": 0.2, "kernel_order": 3},
    channel_to_json(make_rr_channel((0.0, 1.0, 2.0), 0.9)),
    channel_to_json(make_identity_channel((0.0, 1.0))),
]

VERIFY_GOLDEN = {
    "audit": "e113b8957c795b29979d04f40d77a63b8814126ec7c1fc962e9d68e80d95a894",
    "report": "acaf651067dd557f674a946b3751562060ce87d538d3a8123c10026dce68f177",
}


def test_audit_output_unchanged(tmp_path):
    specs = tmp_path / "channels.json"
    specs.write_text(json.dumps(AUDIT_SPECS))
    out = tmp_path / "audit.json"
    assert main(["audit", "--channels", str(specs), "--out", str(out)]) == 0
    assert _sha(out) == VERIFY_GOLDEN["audit"]


def test_report_output_unchanged(tmp_path):
    out = tmp_path / "report.json"
    assert main(["report", "--seed", "7", "--out", str(out)]) == 0
    assert _sha(out) == VERIFY_GOLDEN["report"]


# axis-2 cell (0, 1) is empty and x2 = 2 never occurs: through the identity
# channel one conditional release law is 0 where the other is not, and both are
# 0 at z2 = 2
LEAKAGE_DIST = DiscreteDist([[0.0, 1.0], [0.0, 1.0, 2.0]], [[0.5, 0.0, 0.0], [0.2, 0.3, 0.0]])
LEAKAGE_CHANNELS = [make_rr_channel((0.0, 1.0), 0.7), make_identity_channel((0.0, 1.0, 2.0))]

VERIFY_CASES = {
    "leakage": ["leakage", "--dist", "{dist}", "--channels", "{channels}"],
    "contract_verify": ["contract-verify", "--dims", "2,3", "--instances", "40", "--seed", "5"],
    "lowerbound_moment": ["lowerbound", "--kind", "moment", "--config", "{moment_cfg}"],
    "lowerbound_density": ["lowerbound", "--kind", "density", "--config", "{density_cfg}"],
}

VERIFY_CASE_GOLDEN = {
    "leakage": "64f688916045c8e2bb6df728e8f38c51a0e5d423c16793c25b5178eb1aa4116f",
    "contract_verify": "f5e1cd641e52f665514057534b4027f75153620e159eb33aac22da392a12ca34",
    "lowerbound_moment": "81e4bcd5f040dd7153928a3a9518736783386a5e04002d34885292b276d30b8b",
    "lowerbound_density": "ec86d95724fa2fcab194208bc00ed6c35a2c4f43483cb0da5dbf817604900770",
}


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_command_output_unchanged(name, tmp_path):
    files = {
        "dist": json.dumps(LEAKAGE_DIST.to_json()),
        "channels": json.dumps([channel_to_json(ch) for ch in LEAKAGE_CHANNELS]),
        "moment_cfg": "n=512\nalphas=0.6,0.6,0.6\nks=4,4,4\n",
        "density_cfg": "n=50000\nalphas=0.5\nbeta=2\n",
    }
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / key
        paths[key].write_text(text)
    out = tmp_path / "out.json"
    argv = [arg.format(**paths) for arg in VERIFY_CASES[name]]
    assert main(argv + ["--out", str(out)]) == 0
    assert _sha(out) == VERIFY_CASE_GOLDEN[name]
