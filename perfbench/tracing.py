"""Spans and counts around the calls into each cldp layer, for traced runs.

The tracer replaces public functions of the cldp modules, at the names the
callers look them up by, with wrappers that record a span (name, start, end,
parent) and restores them on exit.  Laplace draws are counted at the source:
the replication's RNG stream is handed out wrapped, and every ``laplace`` call
is booked to the span that made it (a release, or the harness's oracle table).
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

import cldp.adaptive
import cldp.channels
import cldp.contraction
import cldp.effective_privacy
import cldp.harness
import cldp.lowerbounds

RUN = "harness.run"  # one run_rate_experiment call, opened by the workload itself
RELEASE = "channels.release"
MULTI_LEVEL = (cldp.channels.MultiTruncChannel, cldp.channels.MultiBandwidthChannel)


def _select_pairs(args, result):
    values = args[0].values
    d, m = values.shape[1], values.shape[2]
    # truncation compares every pair of grid tuples, bandwidth every pair of levels
    pairs = m ** (2 * d) if isinstance(result, cldp.adaptive.TruncationSelection) else m * m
    return {"adaptive.select_pairs": pairs}


def _audit_name(args):
    return "channels.audit_multi_level" if isinstance(args[0], MULTI_LEVEL) else "channels.audit"


class _CountingRng:
    """Generator proxy that books each Laplace draw to the innermost open span."""

    def __init__(self, rng, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer

    def laplace(self, loc=0.0, scale=1.0, size=None):
        out = self._rng.laplace(loc, scale, size)
        self._tracer.book_draws(int(np.size(out)))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Context manager: patches the layers on entry, restores them on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []
        self.round = 0

    # --- recording ---

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "round": self.round, "parent": parent, "start": time.perf_counter()})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _innermost(self):
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def book_draws(self, k: int) -> None:
        where = self._innermost()
        if where == RELEASE:
            self.counts[(self.round, "channels.laplace_draws")] += k
        elif where == RUN:  # harness self time: the oracle tables
            self.counts[(self.round, "harness.oracle_draws")] += k

    # --- patching ---

    def _wrap(self, owner, attr: str, name, count=None, only_inside=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if only_inside is not None and tracer._innermost() != only_inside:
                return orig(*args, **kwargs)
            idx = tracer._open(name(args) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                for key, k in count(args, result).items():
                    tracer.counts[(tracer.round, key)] += k
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def __enter__(self):
        h = cldp.harness
        for attr in ("sample_heavy_tailed", "sample_holder_density"):
            self._wrap(h, attr, "simdata.sample")
        self._wrap(h, "release_sample", RELEASE)
        self._wrap(cldp.channels.KernelFn, "__call__", "channels.kernel_eval", only_inside=RELEASE)
        for attr in ("gl_select_truncation", "gl_select_bandwidth"):
            self._wrap(cldp.adaptive, attr, "adaptive.select", count=_select_pairs)
        for attr in ("private_mean", "private_joint_moment", "private_covariance_correlation", "private_kde"):
            self._wrap(h, attr, "estimators.estimate")
        self._wrap(h, "privacy_audit", _audit_name)
        self._wrap(cldp.contraction, "verify_contraction", "contraction.verify")
        self._wrap(cldp.contraction, "pushforward", "measures.pushforward")
        self._wrap(cldp.lowerbounds, "pushforward", "measures.pushforward")
        self._wrap(cldp.effective_privacy, "leakage_report", "effective_privacy.leakage")
        self._wrap(cldp.lowerbounds, "verify_two_point", "lowerbounds.verify")
        derive = h.derive_rng
        setattr(h, "derive_rng", lambda *a: _CountingRng(derive(*a), self))
        self._patches.append((h, "derive_rng", derive))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # --- summaries ---

    def layer_totals(self, rnd: int) -> dict:
        """Seconds per span name, harness self time, and counts for one round."""
        spans = [s for s in self.spans if s["round"] == rnd]
        total: dict = defaultdict(float)
        for s in spans:
            total[s["name"]] += s["end"] - s["start"]
        children_of_runs = sum(
            s["end"] - s["start"]
            for s in spans
            if s["parent"] is not None and self.spans[s["parent"]]["name"] == RUN
        )
        out = {
            "simdata.sample_s": total["simdata.sample"],
            "channels.release_s": total[RELEASE],
            "channels.kernel_eval_s": total["channels.kernel_eval"],
            "adaptive.select_s": total["adaptive.select"],
            "estimators.estimate_s": total["estimators.estimate"],
            "harness.replication_s": total[RUN],
            "harness.overhead_s": total[RUN] - children_of_runs,
            "channels.audit_s": total["channels.audit"] + total["channels.audit_multi_level"],
            "channels.audit_multi_level_s": total["channels.audit_multi_level"],
            "contraction.verify_s": total["contraction.verify"],
            "measures.pushforward_s": total["measures.pushforward"],
            "effective_privacy.leakage_s": total["effective_privacy.leakage"],
            "lowerbounds.verify_s": total["lowerbounds.verify"],
        }
        for key in ("channels.laplace_draws", "harness.oracle_draws", "adaptive.select_pairs"):
            out[key] = self.counts.get((rnd, key), 0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
