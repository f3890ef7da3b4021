import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldp.channels import (
    PrivacyBudget,
    RandomizedResponseChannel,
    derive_rng,
    make_constant_channel,
    make_identity_channel,
    make_rr_channel,
)
from cldp.contraction import (
    VIOLATION_TOL,
    MarginalTVTable,
    channel_fl_epsilons,
    cldp_kl_bound,
    equal_marginals_bound,
    f_divergence_bound,
    random_instance,
    run_contraction_sweep,
    tensorized_bound,
    verify_contraction,
)
from cldp.harness import _np_default
from cldp.measures import (
    DiscreteDist,
    SubsetIndex,
    divergence,
    fl_term,
    marginal,
    nonempty_subsets,
    pushforward,
    tv_distance,
)


def table_d2(t1, t2, t12):
    return MarginalTVTable(
        2, {SubsetIndex([1]): t1, SubsetIndex([2]): t2, SubsetIndex([1, 2]): t12}
    )


class TestKLBound:
    def test_zero_tvs(self):
        assert cldp_kl_bound(table_d2(0, 0, 0), PrivacyBudget([0.3, 0.9])) == 0.0

    def test_d2_expansion_identity(self):
        # hand expansion of the two-axis bound
        a1, a2 = 0.5, 0.5
        t1, t2, t12 = 0.2, 0.3, 0.4
        e1, e2 = math.expm1(a1), math.expm1(a2)
        by_hand = (e1 * t1 + e2 * t2 + e1 * e2 * t12) ** 2
        got = cldp_kl_bound(table_d2(t1, t2, t12), PrivacyBudget([a1, a2]))
        assert got == pytest.approx(by_hand, abs=1e-12)

    def test_binomial_collapse(self):
        # equal alphas and all-equal tvs entries t collapse to ((e^(a d) - 1) t)^2
        for d in (2, 3):
            alpha, t = 0.4, 0.15
            tvs = MarginalTVTable(d, {S: t for S in nonempty_subsets(d)})
            got = cldp_kl_bound(tvs, PrivacyBudget([alpha] * d))
            assert got == pytest.approx((math.expm1(alpha * d) * t) ** 2, rel=1e-12)

    def test_monotone_in_entries_and_alphas(self):
        base = cldp_kl_bound(table_d2(0.2, 0.3, 0.4), PrivacyBudget([0.5, 0.5]))
        assert cldp_kl_bound(table_d2(0.25, 0.3, 0.4), PrivacyBudget([0.5, 0.5])) >= base
        assert cldp_kl_bound(table_d2(0.2, 0.3, 0.4), PrivacyBudget([0.6, 0.5])) >= base

    def test_missing_entry_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            MarginalTVTable(2, {SubsetIndex([1]): 0.1})


class TestEqualMarginalsBound:
    def test_zero(self):
        assert equal_marginals_bound(0.0, PrivacyBudget([1.0, 1.0])) == 0.0

    def test_direct_value(self):
        got = equal_marginals_bound(0.1, PrivacyBudget([1.0, 1.0]))
        assert got == pytest.approx(((math.e - 1) ** 2 * 0.1) ** 2, rel=1e-12)

    def test_coincides_with_full_bound_when_strict_subsets_vanish(self):
        budget = PrivacyBudget([0.7, 0.4])
        assert equal_marginals_bound(0.3, budget) == pytest.approx(
            cldp_kl_bound(table_d2(0.0, 0.0, 0.3), budget), rel=1e-12
        )


class TestTensorizedBound:
    def test_n1_reduces_to_single(self):
        assert tensorized_bound(0.37, 1) == pytest.approx(0.37**2)

    def test_identical_terms_scale_linearly(self):
        assert tensorized_bound(0.2, 10) == pytest.approx(10 * 0.04)
        assert tensorized_bound([0.2] * 10, 10) == pytest.approx(10 * 0.04)

    def test_heterogeneous_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        terms = rng.uniform(0, 1, size=7)
        expected = 0.0
        for t in terms:
            expected += t * t
        assert tensorized_bound(list(terms), 7) == pytest.approx(expected, rel=1e-14)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            tensorized_bound([0.1, 0.2], 3)


class TestFDivergenceBound:
    def test_zero_tvs(self):
        assert f_divergence_bound(table_d2(0, 0, 0), [0.5, 0.5], 2.0) == 0.0

    def test_d1_reduction(self):
        tvs = MarginalTVTable(1, {SubsetIndex([1]): 0.3})
        assert f_divergence_bound(tvs, [0.7], 1.5) == pytest.approx((0.7 * 0.3) ** 1.5)

    def test_matches_subset_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        d = 3
        tvs = MarginalTVTable(d, {S: float(rng.uniform(0, 1)) for S in nonempty_subsets(d)})
        eps = rng.uniform(0, 2, size=d)
        l = 2.5
        # independent oracle: explicit loop over index subsets
        total = 0.0
        for size in range(1, d + 1):
            for combo in itertools.combinations(range(1, d + 1), size):
                prod = 1.0
                for j in combo:
                    prod *= eps[j - 1]
                total += prod * tvs[SubsetIndex(combo)]
        assert f_divergence_bound(tvs, eps, l) == pytest.approx(total**l, rel=1e-12)

    def test_l_must_exceed_one(self):
        with pytest.raises(ValueError):
            f_divergence_bound(table_d2(0.1, 0.1, 0.1), [0.5, 0.5], 1.0)


def test_sweep_instance_streams():
    # instance i of the sweep draws from the stream (seed, i)
    rep = run_contraction_sweep(dims=(2,), instances=3, seed=11, l_values=())
    for i, row in enumerate(rep["reports"]):
        P, Pt, channels = random_instance(derive_rng(11, i), (2,))
        assert verify_contraction(P, Pt, channels, l_values=()).to_json() == row


class TestVerifyContraction:
    def test_identical_priors(self):
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], np.full((2, 2), 0.25))
        chans = [make_rr_channel((0.0, 1.0), 0.5) for _ in range(2)]
        rep = verify_contraction(P, P, chans, l_values=(2.0,))
        assert rep.lhs_jeffreys == 0.0
        assert rep.rhs == 0.0
        assert not rep.violation
        assert not rep.f_checks[0].violation

    def test_equal_marginals_case_matches_reduced_bound(self):
        # two binary priors with matching one-dim marginals
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.3, 0.2], [0.2, 0.3]])
        Pt = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.25, 0.25], [0.25, 0.25]])
        budget = PrivacyBudget([0.5, 0.5])
        chans = [make_rr_channel((0.0, 1.0), 0.5) for _ in range(2)]
        rep = verify_contraction(P, Pt, chans)
        from cldp.measures import tv_distance

        assert rep.rhs == pytest.approx(
            equal_marginals_bound(tv_distance(P, Pt), budget), rel=1e-12
        )
        assert rep.lhs_jeffreys <= rep.rhs + 1e-9

    def test_epsilons_exhaustive(self):
        ch = make_rr_channel((0.0, 1.0, 2.0), 0.8)
        eps = channel_fl_epsilons([ch], 2.0)
        # oracle: direct max over ordered row pairs of the chi-square-style sum
        t = ch.transition_table
        worst = 0.0
        for a in range(3):
            for b in range(3):
                if a != b:
                    worst = max(worst, float(np.sum(t[a] * (t[b] / t[a] - 1.0) ** 2)))
        assert eps[0] == pytest.approx(worst**0.5, rel=1e-12)

    def test_sweep_no_violations(self):
        report = run_contraction_sweep(instances=100, seed=3)
        assert report["violations"] == 0

    def test_tensorization_on_product_laws(self):
        # the two-sample product law's divergence is exactly twice the
        # single-sample value and stays below the tensorized bound
        rng = np.random.default_rng(12)
        sup = [np.array([0.0, 1.0])] * 2
        raw1 = rng.gamma(1.0, 1.0, size=(2, 2)) + 0.05
        raw2 = rng.gamma(1.0, 1.0, size=(2, 2)) + 0.05
        P = DiscreteDist(sup, raw1 / raw1.sum())
        Pt = DiscreteDist(sup, raw2 / raw2.sum())
        alphas = (0.6, 0.9)
        chans = [make_rr_channel((0.0, 1.0), a) for a in alphas]
        from cldp.measures import pushforward

        single = divergence(pushforward(P, chans), pushforward(Pt, chans), "jeffreys")
        # two iid samples: 4-axis product law through the repeated channels
        P2 = DiscreteDist(sup * 2, np.tensordot(P.probs, P.probs, axes=0))
        Pt2 = DiscreteDist(sup * 2, np.tensordot(Pt.probs, Pt.probs, axes=0))
        pair = divergence(pushforward(P2, chans * 2), pushforward(Pt2, chans * 2), "jeffreys")
        assert pair == pytest.approx(2.0 * single, rel=1e-10)
        budget = PrivacyBudget(alphas)
        tvs = MarginalTVTable.from_dists(P, Pt)
        inner = math.sqrt(cldp_kl_bound(tvs, budget))
        assert pair <= tensorized_bound(inner, 2) + 1e-9

    def test_sweep_deterministic(self):
        a = run_contraction_sweep(instances=5, seed=5)
        b = run_contraction_sweep(instances=5, seed=5)
        assert a == b


# ---------------------------------------------------------------------------
# the table paths against the per-distribution loops they replace
# ---------------------------------------------------------------------------


def _reference_tvs(P, Pt):
    """One marginal DiscreteDist per side and subset, compared by tv_distance."""
    return {S: tv_distance(marginal(P, S), marginal(Pt, S)) for S in nonempty_subsets(P.d)}


def _reference_fl_epsilons(channels, l):
    """fl_term over every ordered pair of distinct transition rows, one pair at a time."""
    out = []
    for ch in channels:
        rows = np.asarray(ch.transition_table, dtype=float)
        worst = max((fl_term(p, q, l) for q, p in itertools.permutations(rows, 2)), default=0.0)
        out.append(worst ** (1.0 / l))
    return np.asarray(out)


def _reference_report(P, Pt, channels, l_values):
    """verify_contraction's JSON through DiscreteDist divergences, each checking supports."""
    M, Mt = pushforward(P, channels), pushforward(Pt, channels)
    tvs = MarginalTVTable(P.d, _reference_tvs(P, Pt))
    rhs = cldp_kl_bound(tvs, PrivacyBudget([ch.alpha for ch in channels]))
    lhs_j = divergence(M, Mt, "jeffreys")
    checks = []
    for l in l_values:
        lhs = divergence(M, Mt, "fl", l=l)
        bound = f_divergence_bound(tvs, _reference_fl_epsilons(channels, l), l)
        checks.append({"l": l, "lhs": lhs, "rhs": bound, "violation": lhs > bound + VIOLATION_TOL})
    return {
        "lhs_jeffreys": lhs_j,
        "lhs_kl_forward": divergence(M, Mt, "kl"),
        "lhs_kl_reverse": divergence(Mt, M, "kl"),
        "rhs": rhs,
        "tvs": {"".join(str(j) for j in S): t for S, t in tvs.values.items()},
        "alphas": [ch.alpha for ch in channels],
        "violation": lhs_j > rhs + VIOLATION_TOL,
        "f_checks": checks,
    }


@st.composite
def prior_pair(draw):
    """Two laws on one product support: d in 1..4, 1-3 points per axis, zero-mass cells."""
    d = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(d)]
    supports = [np.arange(k, dtype=float) for k in sizes]
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    laws = []
    for _ in range(2):
        raw = np.array(draw(st.lists(cell, min_size=math.prod(sizes), max_size=math.prod(sizes))))
        raw[0] += raw.sum() == 0.0
        laws.append(DiscreteDist(supports, raw.reshape(sizes) / raw.sum()))
    return laws


rr_channels = st.lists(
    st.builds(lambda m, a: make_rr_channel(tuple(range(m)), a), st.integers(2, 5), st.floats(0.0, 3.0)),
    min_size=1,
    max_size=3,
)


class TestTablesMatchLoopReference:
    @settings(max_examples=150, deadline=None)
    @given(laws=prior_pair())
    def test_marginal_tvs_bit_exact(self, laws):
        P, Pt = laws
        tvs = MarginalTVTable.from_dists(P, Pt)
        ref = _reference_tvs(P, Pt)
        assert list(tvs.values) == list(ref)
        assert tvs.values == ref

    def test_marginal_tvs_reject_mismatched_supports(self):
        P = DiscreteDist([[0.0, 1.0]], [0.5, 0.5])
        Pt = DiscreteDist([[0.0, 2.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match="share the same supports"):
            MarginalTVTable.from_dists(P, Pt)

    @settings(max_examples=150, deadline=None)
    @given(channels=rr_channels, l=st.sampled_from([1.5, 2.0, 3.0]))
    def test_fl_epsilons_bit_exact(self, channels, l):
        eps = channel_fl_epsilons(channels, l)
        ref = _reference_fl_epsilons(channels, l)
        assert eps.dtype == ref.dtype and eps.shape == ref.shape
        assert np.array_equal(eps, ref)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 4),
        k=st.integers(1, 10),
        l=st.floats(1.05, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fl_epsilons_with_shared_zero_columns(self, m, k, l, seed):
        # rows that vanish on the same outputs: every pair is defined.  Below
        # 8 outputs the zero cells do not move the summation order, so the
        # result is bit-exact; from 8 on it agrees to rounding
        rng = np.random.default_rng(seed)
        raw = rng.gamma(1.0, 1.0, size=(m, k)) * (rng.uniform(size=k) < 0.7)
        raw[:, 0] += 0.1
        ch = RandomizedResponseChannel(tuple(range(m)), tuple(range(k)), raw / raw.sum(1, keepdims=True), 1.0)
        eps, ref = channel_fl_epsilons([ch], l), _reference_fl_epsilons([ch], l)
        if k < 8:
            assert np.array_equal(eps, ref)
        else:
            np.testing.assert_allclose(eps, ref, rtol=1e-14, atol=0)

    def test_fl_epsilons_identity_channel_raises_as_reference(self):
        ch = make_identity_channel((0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="P > 0 where Q = 0") as ref:
            _reference_fl_epsilons([ch], 2.0)
        with pytest.raises(ValueError, match="P > 0 where Q = 0") as got:
            channel_fl_epsilons([make_rr_channel((0.0, 1.0), 0.5), ch], 2.0)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_fl_epsilons_constant_channel_is_zero(self, m):
        ch = make_constant_channel(tuple(range(m)))
        assert np.array_equal(channel_fl_epsilons([ch], 2.0), _reference_fl_epsilons([ch], 2.0))
        assert channel_fl_epsilons([ch], 2.0).tolist() == [0.0]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(1,), (2,), (3,), (1, 2, 3)]))
    def test_verify_contraction_bit_exact(self, seed, dims):
        P, Pt, channels = random_instance(np.random.default_rng(seed), dims)
        l_values = (1.5, 2.0, 3.0)
        got = verify_contraction(P, Pt, channels, l_values=l_values).to_json()
        assert got == _reference_report(P, Pt, channels, l_values)


class TestRejectsMalformedArguments:
    @pytest.mark.parametrize("l", [math.nan, 1.0, 0.5])
    def test_order_must_exceed_one(self, l):
        with pytest.raises(ValueError, match="l > 1"):
            f_divergence_bound(table_d2(0.1, 0.1, 0.1), [0.5, 0.5], l)
        with pytest.raises(ValueError, match="l > 1"):
            channel_fl_epsilons([make_rr_channel((0.0, 1.0), 0.5)], l)
        with pytest.raises(ValueError, match="l > 1"):  # no row pair to reach fl_term
            channel_fl_epsilons([make_constant_channel((0.0,))], l)

    @pytest.mark.parametrize("eps", [[math.nan, 1.0], [1.0, -0.5]])
    def test_epsilons_must_be_nonnegative_numbers(self, eps):
        with pytest.raises(ValueError, match="nonnegative"):
            f_divergence_bound(table_d2(0.1, 0.1, 0.1), eps, 2.0)

    def test_nan_check_cannot_pass_silently(self):
        # with eps = NaN the bound was NaN and lhs > NaN read as "no violation"
        P = DiscreteDist([[0.0, 1.0]], [0.3, 0.7])
        Pt = DiscreteDist([[0.0, 1.0]], [0.6, 0.4])
        with pytest.raises(ValueError, match="l > 1"):
            verify_contraction(P, Pt, [make_rr_channel((0.0, 1.0), 0.5)], l_values=(math.nan,))

    @pytest.mark.parametrize("kwargs, message", [
        ({"instances": 0}, "instances"),
        ({"instances": -1}, "instances"),
        ({"dims": (0,)}, "dims"),
        ({"dims": (2, -1)}, "dims"),
        ({"dims": ()}, "dims"),
    ])
    def test_sweep_size(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_contraction_sweep(**kwargs)

    def test_one_axis_sweep(self):
        report = run_contraction_sweep(dims=(1,), instances=3, seed=2)
        assert report["violations"] == 0
        assert all(len(r["alphas"]) == 1 for r in report["reports"])


# ---------------------------------------------------------------------------
# the stacked check against a pinned copy of the instance-by-instance check
# ---------------------------------------------------------------------------


def _pinned_random_instance(rng, dims=(2, 3)):
    """random_instance as it was before the sweep was stacked."""
    d = int(rng.choice(dims))
    sizes = [int(rng.integers(2, 4)) for _ in range(d)]
    supports = [np.sort(rng.normal(size=s) * 2.0) for s in sizes]
    for s_arr in supports:
        while np.any(np.diff(s_arr) <= 1e-9):
            s_arr += np.linspace(0, 1e-6, s_arr.size)
    tables = []
    for _ in range(2):
        raw = rng.gamma(1.0, 1.0, size=tuple(sizes))
        tables.append(raw / raw.sum())
    P, Pt = (DiscreteDist._trusted(supports, t) for t in tables)
    alphas = rng.uniform(0.1, 1.5, size=d)
    return P, Pt, [make_rr_channel(tuple(supports[j]), float(alphas[j])) for j in range(d)]


def _pinned_kl(p, q):
    mask = p > 0
    if np.any(q[mask] == 0):
        raise ValueError("divergence undefined: P > 0 where Q = 0")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _pinned_fl(p, q, l):
    if np.any(q[p > 0] == 0):
        raise ValueError("divergence undefined: P > 0 where Q = 0")
    mask = q > 0
    return float(np.sum(q[mask] * np.abs(p[mask] / q[mask] - 1.0) ** l))


def _pinned_push(P, channels):
    """pushforward as it was: rows matched by support_index, one np.tensordot per axis."""
    from cldp.measures import support_index

    table = P.probs
    for ax, (ch, sup) in enumerate(zip(channels, P.supports)):
        rows = ch.transition_table[support_index(ch.input_support, sup, f"the axis-{ax + 1} channel's input support")]
        table = np.tensordot(table, rows, axes=([0], [0]))
    return DiscreteDist([np.asarray(ch.output_support, dtype=float) for ch in channels], table).probs.ravel()


def _pinned_subset_sum(tvs, factors):
    total = 0.0
    for S in nonempty_subsets(tvs.d):
        prod = 1.0
        for j in S:
            prod *= factors[j - 1]
        total += prod * tvs[S]
    return total


def _pinned_verify_contraction(P, Pt, channels, l_values=()):
    """verify_contraction's JSON as it was computed one instance at a time."""
    if not P.same_support(Pt):
        raise ValueError("priors must share supports")
    alphas = tuple(ch.alpha for ch in channels)
    factors = PrivacyBudget(alphas).exp_minus_one()
    m, mt = _pinned_push(P, channels), _pinned_push(Pt, channels)
    lhs_f, lhs_r = _pinned_kl(m, mt), _pinned_kl(mt, m)
    vals = {}
    for S in nonempty_subsets(P.d):
        drop = tuple(ax for ax in range(P.d) if ax + 1 not in S.members)
        p, q = (D.probs.sum(axis=drop) if drop else D.probs for D in (P, Pt))
        vals[S] = float(np.abs(p / float(p.sum()) - q / float(q.sum())).sum())
    tvs = MarginalTVTable(P.d, vals)
    rhs = _pinned_subset_sum(tvs, factors) ** 2
    eps = np.empty((len(l_values), len(channels)))
    for j, ch in enumerate(channels):  # every channel's row pairs are checked, even with no order l
        rows = np.asarray(ch.transition_table, dtype=float)
        q, p = rows[:, None, :], rows[None, :, :]
        if np.any((q == 0) & (p > 0)):
            raise ValueError("divergence undefined: P > 0 where Q = 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, l in enumerate(l_values):
                cells = np.where(q > 0, q * np.abs(p / q - 1.0) ** l, 0.0)
                eps[i, j] = float(cells.sum(axis=-1).max()) ** (1.0 / l)
    checks = []
    for l, e in zip(l_values, eps):
        lhs, bound = _pinned_fl(m, mt, l), _pinned_subset_sum(tvs, e) ** l
        checks.append({"l": l, "lhs": lhs, "rhs": bound, "violation": lhs > bound + VIOLATION_TOL})
    lhs_j = lhs_f + lhs_r
    return {
        "lhs_jeffreys": lhs_j,
        "lhs_kl_forward": lhs_f,
        "lhs_kl_reverse": lhs_r,
        "rhs": rhs,
        "tvs": {"".join(str(j) for j in S): t for S, t in tvs.values.items()},
        "alphas": list(alphas),
        "violation": lhs_j > rhs + VIOLATION_TOL,
        "f_checks": checks,
    }


def _text(obj) -> str:
    """The bytes the CLI writes for obj."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_np_default)


def _report_or_error(check, *args):
    try:
        return _text(check(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestStackedSweepMatchesPinnedCheck:
    @pytest.mark.parametrize("dims", [(1,), (2,), (3,), (2, 3)])
    @pytest.mark.parametrize("l_values", [(), (1.5, 2, 3)])
    @pytest.mark.parametrize("seed", [0, 19, 4242])
    def test_sweep_rows_are_pinned_reports(self, dims, l_values, seed):
        report = run_contraction_sweep(dims=dims, instances=40, seed=seed, l_values=l_values)
        for i, row in enumerate(report["reports"]):
            P, Pt, channels = _pinned_random_instance(derive_rng(seed, i), dims)
            assert _text(row) == _text(_pinned_verify_contraction(P, Pt, channels, l_values))
            assert _text(row) == _text(_reference_report(P, Pt, channels, l_values))
            assert _text(row) == _text(verify_contraction(P, Pt, channels, l_values).to_json())

    @pytest.mark.parametrize("dims", [(1,), (2, 3)])
    def test_random_instance_keeps_its_draws(self, dims):
        for i in range(30):
            rng, pinned_rng = derive_rng(3, i), derive_rng(3, i)
            P, Pt, channels = random_instance(rng, dims)
            Q, Qt, pinned = _pinned_random_instance(pinned_rng, dims)
            assert P == Q and Pt == Qt and rng.random() == pinned_rng.random()
            for ch, ref in zip(channels, pinned):
                assert (ch.alpha, ch.input_support, ch.output_support) == (ref.alpha, ref.input_support, ref.output_support)
                assert np.array_equal(ch.transition_table, ref.transition_table)


@pytest.fixture(scope="module")
def full_sweep():
    return run_contraction_sweep(instances=500, seed=7)


@pytest.mark.parametrize("k", [1, 2, 13, 64, 250])
def test_sweep_prefix_rows(full_sweep, k):
    # grouping by shape and scattering back keeps instance order: a shorter sweep is a prefix
    short = run_contraction_sweep(instances=k, seed=7)
    assert _text(short["reports"]) == _text(full_sweep["reports"][:k])
    assert short["violations"] == sum(
        r["violation"] or any(c["violation"] for c in r["f_checks"]) for r in full_sweep["reports"][:k]
    )


def _finite_channel(inputs, outputs, table, alpha=1.0):
    table = np.asarray(table, dtype=float)
    return RandomizedResponseChannel(tuple(inputs), tuple(outputs), table / table.sum(axis=1, keepdims=True), alpha)


def _law(supports, seed, zero=None):
    rng = np.random.default_rng(seed)
    raw = rng.gamma(1.0, 1.0, size=tuple(len(s) for s in supports))
    if zero is not None:
        raw[zero] = 0.0
    return DiscreteDist(supports, raw / raw.sum())


class TestGeneralChannels:
    """verify_contraction on inputs the sweep never draws, against the pinned check."""

    L = (1.5, 2.0, 3.0)

    def _same(self, P, Pt, channels, l_values=L):
        got = _report_or_error(lambda *a: verify_contraction(*a).to_json(), P, Pt, channels, l_values)
        assert got == _report_or_error(_pinned_verify_contraction, P, Pt, channels, l_values)
        return got

    def test_zero_cells_sum_compressed_rows(self):
        # 12 outputs, 4 of them never released: the laws have zero cells, summed as compressed rows
        rng = np.random.default_rng(31)
        table = rng.gamma(1.0, 1.0, size=(3, 12)) * (np.arange(12) % 3 != 0)
        ch = _finite_channel((0.0, 1.0, 2.0), tuple(range(12)), table)
        P, Pt = _law([[0.0, 1.0, 2.0]], 1), _law([[0.0, 1.0, 2.0]], 2)
        got = json.loads(self._same(P, Pt, [ch]))
        assert got["lhs_jeffreys"] > 0 and len(got["f_checks"]) == 3

    def test_unequal_alphabets(self):
        rng = np.random.default_rng(32)
        chans = [
            _finite_channel((0.0, 1.0), (-1.0, 0.0, 2.0, 3.0, 7.0), rng.gamma(1.0, 1.0, size=(2, 5)), 0.8),
            _finite_channel((0.0, 1.0, 2.0), (0.0, 1.0), rng.gamma(1.0, 1.0, size=(3, 2)), 1.3),
        ]
        sup = [[0.0, 1.0], [0.0, 1.0, 2.0]]
        self._same(_law(sup, 3), _law(sup, 4), chans)

    @pytest.mark.parametrize("inputs", [(2.0, 0.0, 1.0), (-1.0, 0.0, 1.0, 2.0, 5.0), (5.0, 2.0, -1.0, 1.0, 0.0)])
    def test_input_support_permuted_or_larger(self, inputs):
        rng = np.random.default_rng(33)
        ch = _finite_channel(inputs, (0.0, 1.0, 2.0, 3.0), rng.gamma(1.0, 1.0, size=(len(inputs), 4)), 0.6)
        rr = make_rr_channel((-2.0, 4.0), 0.9)
        sup = [[0.0, 1.0, 2.0], [-2.0, 4.0]]
        self._same(_law(sup, 5), _law(sup, 6), [ch, rr])

    def test_released_mass_where_the_other_law_has_none(self):
        # output 3 comes only from input 2, which P never takes: KL(Mt || M) is undefined
        table = [[1.0, 1.0, 1.0, 0.0], [1.0, 2.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]]
        ch = _finite_channel((0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0), table)
        P, Pt = _law([[0.0, 1.0, 2.0]], 7, zero=2), _law([[0.0, 1.0, 2.0]], 8)
        assert self._same(P, Pt, [ch], ()) == "ValueError: divergence undefined: P > 0 where Q = 0"
        assert self._same(P, Pt, [ch]) == "ValueError: divergence undefined: P > 0 where Q = 0"

    def test_value_without_a_support_match(self):
        ch = make_rr_channel((0.0, 1.0), 0.5)
        P, Pt = _law([[0.0, 1.0, 2.0]], 9), _law([[0.0, 1.0, 2.0]], 10)
        assert self._same(P, Pt, [ch]) == "ValueError: value 2.0 not in the axis-1 channel's input support"

    def test_identity_channel_epsilons_undefined(self):
        ch = make_identity_channel((0.0, 1.0))
        P, Pt = _law([[0.0, 1.0]], 11), _law([[0.0, 1.0]], 12)
        # the channel's row pairs are checked even when no order l is asked for
        for l_values in ((), self.L):
            assert self._same(P, Pt, [ch], l_values) == "ValueError: divergence undefined: P > 0 where Q = 0"
