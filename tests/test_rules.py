"""The field-rule layer (``cldp.rules``).

Every dataclass in ``cldp`` whose fields declare rules is found here by
itself, so a new config class is covered once it declares them: each ruled
field rejects NaN, the infinities its rule excludes, the rule's edge values and,
for an integer, ``True`` and 2.5, with a ValueError naming the field, and stores
an in-rule value coerced.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cldp
from cldp.channels import release_array, release_rows
from cldp.estimators import HolderClass, release_sample
from cldp.harness import ExperimentConfig
from cldp.rules import check_fields
from cldp.simdata import ParetoFactorModel

NAN, INF, UP = math.nan, math.inf, math.nextafter(1.0, 2.0)
TINY = 5e-324
# per rule, as its message reads: the in-rule values, and the values at its edges, each rejected
SCALAR = {
    "finite": (st.floats(allow_nan=False, allow_infinity=False), [NAN, INF, -INF, "x", None]),
    "a finite number": (st.floats(allow_nan=False, allow_infinity=False), [NAN, INF, -INF, "x", None]),
    "positive": (st.floats(min_value=TINY), [0.0, -0.0, -TINY, NAN, -INF]),
    "positive and finite": (st.floats(min_value=TINY, allow_infinity=False), [0.0, -0.0, NAN, INF, -INF]),
    "nonnegative": (st.floats(min_value=0.0), [-TINY, NAN, -INF]),
    "in (0, 1)": (st.floats(TINY, 1.0, exclude_max=True), [0.0, 1.0, NAN, INF, -INF]),
    "in (0, 1]": (st.floats(TINY, 1.0), [0.0, UP, NAN, INF, -INF]),
    "in [0, 1]": (st.floats(0.0, 1.0), [-TINY, UP, NAN, INF, -INF]),
    # from 4 up: GLConfig reads an n below 4 as outside the regime before its rules
    "an integer": (st.integers(4, 2**40), [True, 2.5, NAN, INF, -INF, "1", None]),
    "a boolean": (st.sampled_from([True, False, 0, 1]), [2, -1, NAN, "false"]),
}
ENTRY = {"a list of finite numbers": "a finite number", "a list of integers": "an integer"}
RESULT_RECORDS = {"ContractionReport", "FlCheck", "AuditResult", "LeakageProfile", "MarginalTVTable"}


def ruled_classes() -> dict:
    found = {}
    for info in pkgutil.iter_modules(cldp.__path__):
        module = importlib.import_module(f"cldp.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                    and any("rules" in f.metadata for f in dataclasses.fields(cls))):
                found[name] = cls
    return found


CLASSES = ruled_classes()
FIELDS = [(cls, f) for cls in CLASSES.values() for f in dataclasses.fields(cls) if "rules" in f.metadata]


def scalar(what: str):
    """(in-rule values, edge values) of one scalar rule."""
    if what.startswith(">= "):
        k = int(what[3:])
        return st.integers(k, k + 2**40), [k - 1, *SCALAR["an integer"][1]]
    if what.startswith("one of "):
        choices = ast.literal_eval(f"({what[7:]},)")
        return st.sampled_from(choices), [NAN, 2.5, "nope", None]
    return SCALAR[what]


def spec(f):
    """(in-rule values, edge values) of a field: the last rule's values (finite ones after a rule
    for a finite number), and every rule's edges.  A tuple field's rules hold for each entry;
    with "nonempty" it has one entry or more."""
    whats = [r.what for r in f.metadata["rules"]]
    entries = [ENTRY.get(w, w).removeprefix("nonempty, ") for w in whats]
    values = scalar(entries[-1])[0]
    if "a finite number" in entries[:-1]:
        values = values.filter(math.isfinite)
    if not f.type.startswith("tuple"):
        return values, [e for w in whats for e in scalar(w)[1]]
    nonempty = any(w.startswith("nonempty") for w in whats)
    edges = [(e,) for w in entries for e in scalar(w)[1]] + [None, 5.0] + ([()] if nonempty else [])
    return st.lists(values, min_size=int(nonempty), max_size=4), edges


def label(f) -> str:
    return f.metadata["name"] or f.name


def test_discovery_finds_the_config_classes_and_no_result_record():
    assert set(CLASSES) == {
        "PrivacyBudget", "LaplaceTruncChannel", "KernelLaplaceChannel", "MultiTruncChannel", "MultiBandwidthChannel",
        "MomentProfile", "HolderClass", "GLConfig", "ExperimentConfig", "ParetoFactorModel", "HolderDensityModel",
        "Sweep",
    }
    assert not RESULT_RECORDS & set(CLASSES)


@pytest.mark.parametrize("cls, f", FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in FIELDS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_edge_values_rejected_at_construction_naming_the_field(cls, f, data):
    # the fields before f hold in-rule values (a field without rules holds None), so the first
    # failure is f's: the rules run in field order, before anything that reads several fields
    kwargs = {}
    for g in dataclasses.fields(cls):
        if g.name == f.name:
            break
        kwargs[g.name] = data.draw(spec(g)[0]) if "rules" in g.metadata else None
    values, edges = spec(f)
    bad = data.draw(st.sampled_from(edges))
    required = {g.name: None for g in dataclasses.fields(cls)
                if g.default is dataclasses.MISSING and g.default_factory is dataclasses.MISSING}
    with pytest.raises(ValueError) as err:
        cls(**{**required, **kwargs, f.name: bad})
    assert str(err.value).startswith(f"{label(f)} must "), str(err.value)
    assert str(err.value).endswith(f", got {bad!r}")


def coercion(what: str):
    """What a field's first rule, the one that reads its type, makes of an in-rule value."""
    if what == "a boolean":
        return bool
    if what == "an integer" or what.startswith(">= "):
        return int
    return (lambda value: value) if what.startswith("one of ") else float


@pytest.mark.parametrize("cls", CLASSES.values(), ids=list(CLASSES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_in_rule_values_stored_coerced(cls, data):
    obj, expected = object.__new__(cls), {}
    for f in (f for f in dataclasses.fields(cls) if "rules" in f.metadata):
        first = f.metadata["rules"][0].what
        value = data.draw(spec(f)[0])
        if f.type.startswith("tuple"):  # drawn as a list
            expected[f.name] = tuple(map(coercion(ENTRY.get(first, first).removeprefix("nonempty, ")), value))
        else:
            expected[f.name] = coercion(first)(value)
            if type(value) is float:  # numpy scalars, and an int for an integral float
                integral = [int(value)] if value.is_integer() and abs(value) < 2**53 else []
                value = data.draw(st.sampled_from([value, np.float64(value), *integral]))
            elif type(value) is int:
                value = data.draw(st.sampled_from([value, np.int64(value)]))
        object.__setattr__(obj, f.name, value)
    check_fields(obj)
    for name, want in expected.items():
        stored = getattr(obj, name)
        assert stored == want and type(stored) is type(want)
        if isinstance(want, tuple):
            assert [type(s) for s in stored] == [type(w) for w in want]


@pytest.mark.parametrize("changes, name", [
    ({"replications": True}, "replications"),
    ({"replications": 2.5}, "replications"),
    ({"n_grid": (1024.5,)}, "n grid entries"),
    ({"seed": 1.5}, "seed"),
    ({"workers": 1.5}, "workers"),
])
def test_experiment_config_rejects_non_integers(changes, name):
    base = dict(mode="mean", n_grid=(256, 512), alphas=(0.5,), replications=40, seed=5,
                model=ParetoFactorModel(ks=[4.0], a=[5.0]).to_json(), options={"ks": [4.0]})
    with pytest.raises(ValueError, match=f"^{name} must be (an integer|a list of integers), got "):
        ExperimentConfig(**{**base, **changes})


@pytest.mark.parametrize("d", [1.5, True])
def test_holder_class_rejects_a_non_integer_dimension(d):
    with pytest.raises(ValueError, match="^d must be an integer"):
        HolderClass(beta=2.0, d=d)


def test_zero_column_sample_rejected():
    X, rng = np.ones((3, 0)), np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"X must be \(n, d\) with one channel per column, d >= 1"):
        release_sample(X, (), rng)
    with pytest.raises(ValueError, match=r"d >= 1"):
        release_rows(X, (), rng, lambda rows, clean, z: None)
    with pytest.raises(ValueError, match=r"d >= 1"):
        release_array(X, (), rng)
