"""Finite discrete distributions on product spaces, marginals, and divergences.

Conventions used throughout the package:

* Total variation is the **unnormalized** L1 distance ``sum |p - q|``, with
  values in [0, 2].  Halving it to the "probability of distinguishing"
  convention would silently change every contraction bound downstream by a
  factor of 4, so the L1 convention is fixed here and documented prominently.
* KL divergence uses natural logarithms (nats).
* Zero-mass handling: ``0 * log(0/0) = 0``; positive mass where the reference
  measure vanishes raises instead of returning ``inf`` so modeling mistakes
  surface in tests.
* Finite channels: a raw value selects its transition-table row by one support
  match, ``support_index``, and every exact release law is one ``push_axes``
  contraction of those rows (``pushforward``, and the leakage audits).

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DiscreteDist",
    "checked_probs",
    "SubsetIndex",
    "marginal",
    "tv_distance",
    "divergence",
    "pushforward",
    "nonempty_subsets",
    "support_index",
    "finite_axes",
    "stack_rows",
    "push_axes",
    "fl_term",
    "kl_term",
]


@dataclass(frozen=True)
class SubsetIndex:
    """A nonempty subset of axis indices, 1-based as in {1, ..., d}."""

    members: tuple[int, ...]

    def __init__(self, members: Iterable[int]):
        mem = tuple(int(m) for m in members)
        if len(mem) == 0:
            raise ValueError("empty marginal")
        if any(m < 1 for m in mem):
            raise ValueError(f"axis indices are 1-based, got {mem}")
        if any(b <= a for a, b in zip(mem, mem[1:])):
            raise ValueError(f"members must be strictly increasing, got {mem}")
        object.__setattr__(self, "members", mem)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


@functools.cache
def nonempty_subsets(d: int) -> tuple[SubsetIndex, ...]:
    """All 2^d - 1 nonempty subsets of {1, ..., d}, sorted by (size, members)."""
    return tuple(
        SubsetIndex(combo)
        for size in range(1, d + 1)
        for combo in itertools.combinations(range(1, d + 1), size)
    )


class DiscreteDist:
    """Probability table over a finite product support.

    ``supports`` holds one strictly increasing array of real support points per
    axis; ``probs`` is the dense mass table with one axis per component.
    Masses must be nonnegative and sum to 1; a total within 1e-9 of 1 is
    renormalized once at construction, anything further off is rejected.
    """

    __slots__ = ("supports", "probs")

    def __init__(self, supports: Sequence[Sequence[float]], probs):
        sups = tuple(np.asarray(s, dtype=float) for s in supports)
        for ax, s in enumerate(sups):
            if s.ndim != 1 or s.size == 0:
                raise ValueError(f"axis {ax + 1}: support must be a nonempty 1-d array")
            if np.any(np.diff(s) <= 0):
                raise ValueError(f"axis {ax + 1}: support points must be strictly increasing")
        p = np.asarray(probs, dtype=float)
        shape = tuple(s.size for s in sups)
        if p.shape != shape:
            raise ValueError(f"probs shape {p.shape} does not match supports {shape}")
        if np.any(p < 0):
            raise ValueError("negative mass")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {total!r}, not 1")
        self._take(sups, p)

    @classmethod
    def _trusted(cls, supports, probs) -> "DiscreteDist":
        """The law of strictly increasing float ``supports`` and a nonnegative table whose total
        is 1 up to rounding, both by construction: no checks, but the table is divided by its
        total as ``__init__`` divides it, so the bytes are the same."""
        law = object.__new__(cls)
        law._take(tuple(supports), np.asarray(probs, dtype=float))
        return law

    def _take(self, sups: tuple, p: np.ndarray) -> None:
        p = p / float(p.sum())
        p.flags.writeable = False
        for s in sups:
            s.flags.writeable = False
        object.__setattr__(self, "supports", sups)
        object.__setattr__(self, "probs", p)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("DiscreteDist is immutable")

    @property
    def d(self) -> int:
        return len(self.supports)

    def same_support(self, other: "DiscreteDist") -> bool:
        return self.d == other.d and all(
            a.shape == b.shape and np.array_equal(a, b)
            for a, b in zip(self.supports, other.supports)
        )

    def __eq__(self, other):
        return (
            isinstance(other, DiscreteDist)
            and self.same_support(other)
            and np.array_equal(self.probs, other.probs)
        )

    def __repr__(self):
        return f"DiscreteDist(d={self.d}, shape={self.probs.shape})"

    # --- serialization (documented JSON shape) ---

    def to_json(self) -> dict:
        """{"supports": [[...], ...], "probs": [{"idx": [...], "p": ...}, ...]}

        ``idx`` entries are 0-based indices into the per-axis support arrays;
        zero-mass cells are omitted.
        """
        entries = []
        for idx in np.ndindex(self.probs.shape):
            p = float(self.probs[idx])
            if p != 0.0:
                entries.append({"idx": [int(i) for i in idx], "p": p})
        return {"supports": [list(map(float, s)) for s in self.supports], "probs": entries}

    @classmethod
    def from_json(cls, obj) -> "DiscreteDist":
        if isinstance(obj, str):
            obj = json.loads(obj)
        supports = obj["supports"]
        shape = tuple(len(s) for s in supports)
        table = np.zeros(shape)
        for entry in obj["probs"]:
            if not isinstance(entry, dict):
                raise ValueError(f'probs entries must be {{"idx": [...], "p": ...}} objects, got {entry!r}')
            table[tuple(entry["idx"])] = entry["p"]
        return cls(supports, table)


def checked_probs(tables: np.ndarray) -> np.ndarray:
    """DiscreteDist's mass checks and its one division on a stack of tables (B, ...):
    nonnegative masses whose total is within 1e-9 of 1, each divided by that total."""
    if np.any(tables < 0):
        raise ValueError("negative mass")
    total = tables.sum(axis=tuple(range(1, tables.ndim)), keepdims=True)
    off = np.abs(total - 1.0) > 1e-9
    if np.any(off):
        raise ValueError(f"masses sum to {float(total[off][0])!r}, not 1")
    return tables / total


def _as_subset(S, d: int) -> SubsetIndex:
    if not isinstance(S, SubsetIndex):
        S = SubsetIndex(S)
    if S.members[-1] > d:
        raise ValueError(f"axis {S.members[-1]} out of range for d={d}")
    return S


def marginal(P: DiscreteDist, S) -> DiscreteDist:
    """Marginal law of the subvector with (1-based) axes in ``S``."""
    S = _as_subset(S, P.d)
    keep = [m - 1 for m in S.members]
    drop = tuple(ax for ax in range(P.d) if ax not in keep)
    table = P.probs.sum(axis=drop) if drop else P.probs
    return DiscreteDist([P.supports[ax] for ax in keep], table)


def _check_same_support(P: DiscreteDist, Q: DiscreteDist):
    if not P.same_support(Q):
        raise ValueError("distributions must share the same supports")


def tv_distance(P: DiscreteDist, Q: DiscreteDist) -> float:
    """Unnormalized total variation sum |p - q|, in [0, 2]."""
    _check_same_support(P, Q)
    return float(np.abs(P.probs - Q.probs).sum())


def divergence(P: DiscreteDist, Q: DiscreteDist, kind: str = "kl", l: float | None = None) -> float:
    """Divergence between P and Q.

    kind="kl":       sum P log(P/Q)                 (natural log)
    kind="jeffreys": kl(P,Q) + kl(Q,P)
    kind="fl":       sum Q |P/Q - 1|^l  for l > 1
    """
    _check_same_support(P, Q)
    p = P.probs.ravel()
    q = Q.probs.ravel()
    if kind == "kl":
        return kl_term(p, q)
    if kind == "jeffreys":
        return kl_term(p, q) + kl_term(q, p)
    if kind == "fl":
        return fl_term(p, q, l)
    raise ValueError(f"unknown divergence kind {kind!r}")


def fl_term(p: np.ndarray, q: np.ndarray, l: float | None):
    """sum q |p/q - 1|^l along the last axis, over the cells where q > 0, for l > 1:
    a float for 1-d p and q, one sum per row otherwise.  P must be absolutely
    continuous with respect to Q."""
    if l is None or not l > 1:
        raise ValueError(f"f_l divergence requires l > 1, got {l}")
    if np.any(q[p > 0] == 0):
        raise ValueError("divergence undefined: P > 0 where Q = 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _masked_sum(q * np.abs(p / q - 1.0) ** l, q > 0)


def kl_term(p: np.ndarray, q: np.ndarray):
    """sum p log(p/q) along the last axis, over the cells where p > 0: a float for
    1-d p and q, one sum per row otherwise.  P must be absolutely continuous with
    respect to Q."""
    mask = p > 0
    if np.any(q[mask] == 0):
        raise ValueError("divergence undefined: P > 0 where Q = 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _masked_sum(p * np.log(p / q), mask)


def _masked_sum(cells: np.ndarray, mask: np.ndarray):
    """Per row of ``cells``, ``np.sum`` of the cells where ``mask`` holds.  A row with a
    masked cell is summed compressed: zeros left in place would shift numpy's pairwise
    summation from 8 cells on."""
    rows, keep = np.atleast_2d(cells), np.atleast_2d(mask)
    sums = rows.sum(axis=-1)
    for b in np.flatnonzero(~keep.all(axis=-1)):
        sums[b] = rows[b][keep[b]].sum()
    return float(sums[0]) if cells.ndim == 1 else sums


def support_index(support, values, where: str):
    """Index into ``support`` of each of ``values`` (any shape): the one point
    within 1e-12 absolute; a (B, m) stack of supports matches each row of (B, n)
    values against its own.  ValueError naming ``where`` for a value that matches
    no point or several."""
    vals = np.asarray(values, dtype=float)
    s = np.asarray(support, dtype=float)
    if s.ndim == 2:  # a stack of supports, one per row of values
        s = s[:, None, :]
    with np.errstate(invalid="ignore"):  # inf - inf; the == term matches equal infinities
        hits = (np.abs(s - vals[..., None]) <= 1e-12) | (s == vals[..., None])
    unmatched = hits.sum(axis=-1) != 1
    if np.any(unmatched):
        raise ValueError(f"value {float(vals[unmatched].flat[0])!r} not in {where}")
    return hits.argmax(axis=-1)


def finite_axes(P: DiscreteDist, channels) -> list[tuple]:
    """P's channels, one finite-output channel per axis, each as a stack of one:
    (table (1, m, k), inputs (1, m), outputs (1, k)), the form ``stack_rows`` reads."""
    if len(channels) != P.d:
        raise ValueError(f"need {P.d} channels, got {len(channels)}")
    if any(getattr(ch, "transition_table", None) is None for ch in channels):
        raise ValueError("exact laws require finite output channels")
    return [
        tuple(np.asarray(x, dtype=float)[None] for x in (ch.transition_table, ch.input_support, ch.output_support))
        for ch in channels
    ]


def stack_rows(supports, axes) -> list[np.ndarray]:
    """Per axis, the transition-table rows of its finite channel at the support points, in
    support order, for B instances of one support shape: ``supports`` holds one (B, s_j)
    array per axis and ``axes`` one (tables (B, m, k), inputs (B, m), outputs (B, k))
    channel stack per axis.  Each table is checked as a finite channel checks its own, and
    each instance's rows are matched to its supports."""
    rows = []
    for ax, (sup, (tables, inputs, outputs)) in enumerate(zip(supports, axes)):
        if tables.shape != (*inputs.shape, outputs.shape[1]):
            raise ValueError("transition table shape does not match supports")
        if np.any(tables < 0):
            raise ValueError("transition probabilities must be nonnegative")
        if np.any(np.abs(tables.sum(axis=-1) - 1.0) > 1e-12):
            raise ValueError("transition rows must each sum to 1")
        idx = support_index(inputs, sup, f"the axis-{ax + 1} channel's input support")
        rows.append(np.take_along_axis(tables, idx[..., None], axis=1))
    return rows


def push_axes(tables: np.ndarray, rows) -> np.ndarray:
    """Contract axes 1, 2, ... of a stack of tables (B, ...) against stacked rows
    (B, a, k), one axis at a time; each output axis goes to the back, so contracting
    every axis keeps the axis order.  Each step is one ``np.matmul`` over the stack,
    which gives every table the bits of ``np.tensordot``'s BLAS product; a
    broadcast multiply-add would not."""
    B = len(tables)
    for t in rows:
        rest = tables.shape[2:]
        flat = np.moveaxis(tables, 1, -1).reshape(B, -1, t.shape[1])
        tables = np.matmul(flat, t).reshape(B, *rest, t.shape[2])
    return tables


def pushforward(P: DiscreteDist, channels) -> DiscreteDist:
    """Exact law of Z = (Z^1, ..., Z^d) with Z^j ~ Q^j(.|X^j), conditionally
    independent across axes given X.  Finite-output channels only."""
    out = push_axes(P.probs[None], stack_rows([s[None] for s in P.supports], finite_axes(P, channels)))[0]
    return DiscreteDist([np.asarray(ch.output_support, dtype=float) for ch in channels], out)
