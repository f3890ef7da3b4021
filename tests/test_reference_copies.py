"""Reference copies of code that had a second copy in the package: the per-channel and per-sample
release writers, the kernel's own Horner loop, and the two randomized-response sweeps' draw, group
and stack scaffolds.  Each copy below is the deleted code as it ran, and each test asserts that the
one copy left gives the same bytes, the same stream state after it, and the same report text."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cldp.channels
from cldp.channels import (
    KernelLaplaceChannel,
    LaplaceTruncChannel,
    MultiBandwidthChannel,
    MultiTruncChannel,
    ZeroNoiseRng,
    derive_rng,
    make_kernel,
    privatize,
    release_rows,
)
from cldp.contraction import _draw_instance as _contraction_draw
from cldp.contraction import _rr_tables, _verify_stack, run_contraction_sweep
from cldp.effective_privacy import _draw_instance as _leakage_draw
from cldp.effective_privacy import _leakage_stack, run_leakage_sweep
from cldp.estimators import release_sample
from cldp.harness import _np_default
from cldp.measures import checked_probs

SPLIT = 2 * cldp.channels._BLOCK  # values from which a release is filled in row blocks


# ---------------------------------------------------------------------------
# the reference copies
# ---------------------------------------------------------------------------


def _privatize_array_ref(ch, xs, rng):
    """The per-channel writer: the release of xs flattened to one column, written row block by
    row block into a view of one fresh array of shape xs.shape plus the levels."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.shape + np.shape(ch.scales()))
    rows_out = out.reshape((xs.size,) + np.shape(ch.scales()))

    def keep(rows, clean, z) -> None:
        rows_out[rows] = z[0]

    release_rows(xs.reshape(-1, 1), (ch,), rng, keep)
    return out


def _privatize_ref(ch, x, rng):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"raw value must be finite, got {x!r}")
    z = _privatize_array_ref(ch, x, rng)
    return z if np.ndim(z) else float(z)


def _release_sample_ref(X, channels, rng):
    """The per-sample writer: column j of every row block into column j of one fresh array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(channels):
        raise ValueError("X must be (n, d) with one channel per column")
    values = np.empty(X.shape + np.shape(channels[0].scales()))

    def keep(rows, clean, z) -> None:
        for j, zj in enumerate(z):
            values[rows, j] = zj

    release_rows(X, channels, rng, keep)
    return values


def _kernel_ref(kernel, u):
    """K(u) by Horner's rule over the whole array, then 0 off [-1, 1] (NaN included)."""
    u = np.asarray(u, dtype=float)
    vals = np.abs(u, out=np.empty_like(u))
    outside = ~(vals <= 1.0)
    *lower, lead = kernel.coeffs
    vals.fill(lead)
    with np.errstate(all="ignore"):  # inf and NaN run through the loop before they are zeroed
        for c in reversed(lower):
            vals *= u
            vals += c
    np.copyto(vals, 0.0, where=outside)
    return vals if vals.ndim else float(vals)


def _verify_group_ref(sizes, rows, l_values):
    B, d, K = len(rows), len(sizes), math.prod(sizes)
    parts = [np.ascontiguousarray(x) for x in np.split(np.stack(rows), np.cumsum([*sizes, K, K]), axis=1)]
    supports, alphas = parts[:d], [tuple(a) for a in parts[d + 2].tolist()]
    P, Pt = (T.reshape(B, *sizes) for T in parts[d:d + 2])
    P, Pt = (T / T.sum(axis=tuple(range(1, d + 1)), keepdims=True) for T in (P, Pt))
    axes = [(_rr_tables(s.shape[1], [a[j] for a in alphas]), s, s) for j, s in enumerate(supports)]
    return _verify_stack(supports, P, Pt, axes, alphas, l_values)


def _contraction_sweep_ref(dims, instances, seed, l_values):
    groups: dict = {}
    for i in range(instances):
        supports, p, pt, alphas = _contraction_draw(derive_rng(seed, i), dims)
        groups.setdefault(p.shape, []).append((i, np.concatenate([*supports, p.ravel(), pt.ravel(), alphas])))
    reports, violations = [None] * instances, 0
    while groups:
        sizes, members = groups.popitem()
        for (i, _), rep in zip(members, _verify_group_ref(sizes, [row for _, row in members], l_values)):
            violations += bool(rep.violation or any(c.violation for c in rep.f_checks))
            reports[i] = rep.to_json()
    return {
        "suite": "contraction",
        "instances": instances,
        "dims": list(dims),
        "seed": seed,
        "l_values": list(l_values),
        "violations": violations,
        "reports": reports,
    }


def _audit_group_ref(draws):
    supports, probs, alphas = zip(*draws)
    supports = [np.stack(s) for s in zip(*supports)]
    for ax, s in enumerate(supports):
        if np.any(np.diff(s, axis=-1) <= 0):
            raise ValueError(f"axis {ax + 1}: support points must be strictly increasing")
    P = checked_probs(np.stack(probs))
    alphas = np.stack(alphas).tolist()
    axes = [(_rr_tables(s.shape[1], [a[j] for a in alphas]), s, s) for j, s in enumerate(supports)]
    return _leakage_stack(supports, P, axes, [tuple(a) for a in alphas])


def _leakage_sweep_ref(seed, instances):
    groups: dict = {}
    for i in range(instances):
        draw = _leakage_draw(derive_rng(seed, 202, i))
        groups.setdefault(draw[1].shape, []).append((i, draw))
    reports = [None] * instances
    for members in groups.values():
        for (i, _), rep in zip(members, _audit_group_ref([draw for _, draw in members])):
            reports[i] = rep
    violations = sum(rep["violation"] for rep in reports)
    return {"suite": "leakage", "seed": seed, "instances": instances, "violations": violations, "reports": reports}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _same_bytes(a, b) -> bool:
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _channels(levels: int, order: int) -> list:
    """The four Laplace-type channels; the multi-level two with ``levels`` levels."""
    grid = tuple(2.0 ** -k for k in range(levels))
    return [
        LaplaceTruncChannel(T=1.5, alpha=0.7),
        KernelLaplaceChannel(h=0.4, x0=0.1, kernel=make_kernel(order), alpha=1.3),
        MultiTruncChannel(grid=tuple(4.0 * g for g in grid), alpha=0.9),
        MultiBandwidthChannel(grid=grid, alpha=2.0, x0=-0.2, kernel=make_kernel(order)),
    ]


def _streams(seed: int):
    """Two equal fresh streams and two equal zero-noise markers over fresh streams."""
    return [(np.random.default_rng(seed), np.random.default_rng(seed)),
            (ZeroNoiseRng(np.random.default_rng(seed)), ZeroNoiseRng(np.random.default_rng(seed)))]


def _same_state(a, b) -> bool:
    a, b = (r.rng if isinstance(r, ZeroNoiseRng) else r for r in (a, b))
    return a.bit_generator.state == b.bit_generator.state


def _text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_np_default)


# ---------------------------------------------------------------------------
# one release writer
# ---------------------------------------------------------------------------


class TestReleaseWriter:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
        which=st.integers(0, 3),
        levels=st.sampled_from([1, 2, 5]),
        order=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_privatize_array_small_shapes(self, shape, which, levels, order, seed):
        ch = _channels(levels, order)[which]
        xs = 2.0 * np.random.default_rng(seed).standard_normal(shape)
        for rng, ref_rng in _streams(seed):
            assert _same_bytes(ch.privatize_array(xs, rng), _privatize_array_ref(ch, xs, ref_rng))
            assert _same_state(rng, ref_rng)

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("extra", [-1, 0, 3])
    def test_privatize_array_across_the_split(self, which, extra):
        ch = _channels(3, 2)[which]
        n = SPLIT // np.size(ch.scales()) + extra  # below, at and past the row-block split, 2^17 + 3 at most
        xs = 2.0 * np.random.default_rng(extra + 5).standard_normal(n)
        for shape in ((n,), (1, n, 1)):
            for rng, ref_rng in _streams(which):
                got, ref = ch.privatize_array(xs.reshape(shape), rng), _privatize_array_ref(ch, xs.reshape(shape), ref_rng)
                assert _same_bytes(got, ref) and _same_state(rng, ref_rng)

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(-5.0, 5.0) | st.sampled_from([-1.0, 0.0, -0.0, 1.0, 0.1]),
        which=st.integers(0, 3),
        levels=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_privatize_scalar(self, x, which, levels, seed):
        ch = _channels(levels, seed % 6)[which]
        for rng, ref_rng in _streams(seed):
            assert _same_bytes(privatize(ch, x, rng), _privatize_ref(ch, x, ref_rng))
            assert _same_state(rng, ref_rng)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_privatize_rejects_nonfinite(self, x):
        ch = LaplaceTruncChannel(T=1.0, alpha=1.0)
        with pytest.raises(ValueError, match="raw value"):
            _privatize_ref(ch, x, np.random.default_rng(0))
        with pytest.raises(ValueError, match="raw value"):
            privatize(ch, x, np.random.default_rng(0))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 40),
        d=st.integers(1, 3),
        which=st.sampled_from([(0, 1), (2, 3)]),  # the single-level pair and the multi-level pair
        levels=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_release_sample_small(self, n, d, which, levels, seed):
        pool = [_channels(levels, seed % 6)[k] for k in which]
        channels = tuple(pool[j % 2] for j in range(d))
        X = 2.0 * np.random.default_rng(seed).standard_normal((n, d))
        for rng, ref_rng in _streams(seed):
            assert _same_bytes(release_sample(X, channels, rng).values, _release_sample_ref(X, channels, ref_rng))
            assert _same_state(rng, ref_rng)

    @pytest.mark.parametrize("multi", [False, True])
    @pytest.mark.parametrize("extra", [-1, 3])
    def test_release_sample_across_the_split(self, multi, extra):
        pool = _channels(3, 1)[2:] if multi else _channels(3, 1)[:2]
        n = SPLIT // np.size(pool[0].scales()) + extra
        X = 2.0 * np.random.default_rng(extra + 5).standard_normal((n, 2))
        for rng, ref_rng in _streams(11):
            got = release_sample(X, tuple(pool), rng).values
            assert _same_bytes(got, _release_sample_ref(X, tuple(pool), ref_rng)) and _same_state(rng, ref_rng)
            assert not got.flags.writeable


# ---------------------------------------------------------------------------
# one kernel map
# ---------------------------------------------------------------------------

EDGES = [-1.0, 1.0, np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), np.nextafter(-1.0, 0.0),
         np.nextafter(1.0, 0.0), 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308]


class TestKernelMap:
    @settings(max_examples=80, deadline=None)
    @given(
        order=st.integers(0, 5),
        u=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=8),
                     elements=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGES)),
    )
    def test_arrays(self, order, u):
        k = make_kernel(order)
        assert _same_bytes(k(u), _kernel_ref(k, u))

    @pytest.mark.parametrize("order", range(6))
    @pytest.mark.parametrize("u", EDGES + [0.5, -0.3, 2])
    def test_scalars(self, order, u):
        k = make_kernel(order)
        assert _same_bytes(k(u), _kernel_ref(k, u))
        assert _same_bytes(k(np.array([u])), _kernel_ref(k, np.array([u])))

    @pytest.mark.parametrize("order", range(6))
    def test_dense_grid(self, order):
        k = make_kernel(order)
        u = np.linspace(-1.5, 1.5, 30001)
        assert _same_bytes(k(u), _kernel_ref(k, u))


# ---------------------------------------------------------------------------
# one randomized-response sweep
# ---------------------------------------------------------------------------

SEEDS = [*range(12), 79, 84, 146]


@pytest.mark.parametrize("dims", [(2, 3), (1,), (1, 2, 3)])
@pytest.mark.parametrize("seed", SEEDS)
def test_contraction_sweep_matches_reference(seed, dims):
    l_values = (1.5, 2.0, 3.0)
    got = run_contraction_sweep(dims=dims, instances=150, seed=seed, l_values=l_values)
    assert _text(got) == _text(_contraction_sweep_ref(dims, 150, seed, l_values))


@pytest.mark.parametrize("seed", SEEDS)
def test_leakage_sweep_matches_reference(seed):
    assert _text(run_leakage_sweep(seed, 200)) == _text(_leakage_sweep_ref(seed, 200))
