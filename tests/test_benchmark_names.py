"""The benchmark under ``perfbench/`` imports cldp names and its tracer wraps cldp functions at the
names their callers look them up by.  A refactor that drops or moves one of those names breaks
the benchmark; this test breaks with it.  It reads ``perfbench/`` and changes nothing there."""

import pathlib

import cldp.harness

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_workloads_import_and_tracer_wraps_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (the import is the check: every name it takes from cldp exists)

    before = dict(vars(cldp.harness))
    with tracing.Tracer():  # raises where a name it wraps is missing
        assert cldp.harness.release_sample is not before["release_sample"]
    assert vars(cldp.harness) == before
