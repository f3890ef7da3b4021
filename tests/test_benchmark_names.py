"""The benchmark under ``perfbench/`` imports cldp names and its tracer wraps cldp functions at the
names their callers look them up by.  A refactor that drops or moves one of those names breaks
the benchmark; this test breaks with it.  An import kept in ``cldp`` only for the benchmark
(a ``# noqa: F401`` line naming a ``perfbench/`` file) must name only what that file still uses.
It reads ``perfbench/`` and changes nothing there."""

import ast
import pathlib
import re

import pytest

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


def _keep_alive_imports():
    """(module path, line, perfbench file, imported names) of each ``# noqa: F401`` import in
    src/cldp whose comment names a ``perfbench/`` file: an import kept only for the benchmark."""
    src = pathlib.Path(cldp.harness.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                match = re.search(r"# noqa: F401.*perfbench/(\w+\.py)", lines[node.lineno - 1])
                if match:
                    found.append((path.name, node.lineno, match.group(1), [a.asname or a.name for a in node.names]))
    return found


KEEP_ALIVE = _keep_alive_imports()


@pytest.mark.parametrize("module, lineno, perf, names", KEEP_ALIVE, ids=[f"{m}-{p}" for m, _, p, _ in KEEP_ALIVE])
def test_keep_alive_import_is_still_used(module, lineno, perf, names):
    text = (PERFBENCH / perf).read_text()
    unused = [name for name in names if not re.search(rf"\b{name}\b", text)]
    assert unused == [], f"{module}:{lineno} keeps {unused} for perfbench/{perf}, which no longer names them"
