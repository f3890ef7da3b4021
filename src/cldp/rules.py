"""Field rules: each input dataclass checks its own fields when it is built.

A field declares its rules with ``rule(...)``.  ``check_fields``, run from the
class's ``__post_init__``, stores what they return (a float, an int, a bool or
a tuple of them) and raises the first failure in one form,
``ValueError("<field> must be <what>, got <value!r>")``, with "lie in" for an
interval.  Invariants across fields follow in ``__post_init__``; result records
declare no rules.  Stdlib only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, field, fields
from typing import Any, Callable, NamedTuple


class Rule(NamedTuple):
    """``test`` returns what the field stores, raising TypeError or ValueError outside the rule."""

    test: Callable[[Any], Any]
    what: str


def _require(ok: bool, value):
    if not ok:
        raise ValueError
    return value


def _number(check: Callable[[float], bool], what: str) -> Rule:
    """The value as a float, which ``check`` must accept (NaN fails every comparison)."""
    return Rule(lambda value: _require(check(x := float(value)), x), what)


FINITE = _number(math.isfinite, "finite")
POSITIVE = _number(lambda x: x > 0.0, "positive")
POSITIVE_FINITE = _number(lambda x: 0.0 < x < math.inf, "positive and finite")
NONNEGATIVE = _number(lambda x: x >= 0.0, "nonnegative")
OPEN_UNIT = _number(lambda x: 0.0 < x < 1.0, "in (0, 1)")
UNIT = _number(lambda x: 0.0 < x <= 1.0, "in (0, 1]")
CLOSED_UNIT = _number(lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
# the models' field types, as the CLI parses them; a bool is not an integer
FLOAT = FINITE._replace(what="a finite number")
FLOATS = Rule(lambda value: tuple(map(FINITE.test, value)), "a list of finite numbers")
INT = Rule(lambda value: operator.index(_require(not isinstance(value, bool), value)), "an integer")
INTS = Rule(lambda value: tuple(map(INT.test, value)), "a list of integers")
BOOL = Rule(lambda value: bool(_require(value in (0, 1), value)), "a boolean")


def at_least(k: int) -> Rule:
    return Rule(lambda value: _require(value >= k, value), f">= {k}")


def one_of(*choices) -> Rule:
    return Rule(lambda value: _require(value in choices, value), "one of " + ", ".join(map(repr, choices)))


def each(entry: Rule, nonempty: bool = False) -> Rule:
    """``entry`` on every entry of a sequence, stored as a tuple; ``nonempty`` asks for one entry or more."""

    def test(value) -> tuple:
        out = tuple(map(entry.test, value))
        return _require(out or not nonempty, out)

    return Rule(test, f"nonempty, {entry.what}" if nonempty else entry.what)


def rule(*rules: Rule, name: str | None = None, **kwargs):
    """A dataclass field whose value must pass ``rules`` in order; messages call it ``name`` (its
    field name by default).  Other keywords, such as ``default``, go to ``dataclasses.field``."""
    return field(metadata={"rules": rules, "name": name}, **kwargs)


def checked(name: str, value, rules) -> Any:
    """``value`` through each of ``rules`` in turn; the first failure raises the one message form."""
    out = value
    for r in rules:
        try:
            out = r.test(out)
        except (TypeError, ValueError):
            verb = "lie" if r.what.startswith("in ") else "be"
            raise ValueError(f"{name} must {verb} {r.what}, got {value!r}") from None
    return out


def check_keys(spec: str, given, keys: dict) -> None:
    """ValueError naming ``spec`` and each key of ``given`` that ``keys`` (key -> the dataclass field it
    sets) lacks, or needs for a field with no default."""
    unknown = sorted(set(given) - set(keys))
    missing = [key for key, f in keys.items() if key not in given and f.default is MISSING]
    problems = [f"{what} key(s) {', '.join(map(repr, ks))}"
                for what, ks in (("unknown", unknown), ("missing", missing)) if ks]
    if problems:
        raise ValueError(f"{spec}: {'; '.join(problems)}")


def check_fields(obj) -> None:
    """Set each ruled field of the frozen dataclass ``obj`` to what its rules return."""
    for f in fields(obj):
        if "rules" in f.metadata:
            value = checked(f.metadata["name"] or f.name, getattr(obj, f.name), f.metadata["rules"])
            object.__setattr__(obj, f.name, value)
