import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldp.channels import make_constant_channel, make_identity_channel, make_rr_channel
from cldp.measures import (
    DiscreteDist,
    SubsetIndex,
    divergence,
    fl_term,
    kl_term,
    marginal,
    nonempty_subsets,
    push_axes,
    pushforward,
    support_index,
    tv_distance,
)


def bern(p, support=(0.0, 1.0)):
    return DiscreteDist([list(support)], [1.0 - p, p])


def rand_dist(rng, sizes):
    supports = [np.sort(rng.normal(size=s)) for s in sizes]
    raw = rng.gamma(1.0, 1.0, size=tuple(sizes))
    return DiscreteDist(supports, raw / raw.sum())


class TestDiscreteDist:
    def test_normalizes_small_drift(self):
        d = DiscreteDist([[0.0, 1.0]], [0.5, 0.5 + 5e-10])
        assert abs(d.probs.sum() - 1.0) <= 1e-12

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDist([[0.0, 1.0]], [0.5, 0.6])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDist([[0.0, 1.0]], [1.1, -0.1])

    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError, match="increasing"):
            DiscreteDist([[1.0, 0.0]], [0.5, 0.5])

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        d = rand_dist(rng, [2, 3])
        back = DiscreteDist.from_json(d.to_json())
        assert back.same_support(d)
        assert np.allclose(back.probs, d.probs, atol=1e-15)

    def test_immutable(self):
        d = bern(0.5)
        with pytest.raises(AttributeError):
            d.probs = None
        with pytest.raises(ValueError):
            d.probs[0] = 0.3

    def test_trusted_law_is_the_checked_law(self):
        # a table off 1 by rounding, as a normalized random table is, is divided by its total alike
        rng = np.random.default_rng(3)
        for shape in [(2,), (3, 2), (2, 3, 3)] * 5:
            supports = [np.cumsum(rng.uniform(0.1, 1.0, size=k)) for k in shape]
            raw = rng.gamma(1.0, 1.0, size=shape)
            table = raw / raw.sum()
            trusted, checked = DiscreteDist._trusted(supports, table), DiscreteDist(supports, table)
            assert trusted == checked and trusted.probs.tobytes() == checked.probs.tobytes()
            assert not trusted.probs.flags.writeable and not any(s.flags.writeable for s in trusted.supports)


class TestMarginal:
    def test_uniform_square_axis1(self):
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], np.full((2, 2), 0.25))
        m = marginal(P, SubsetIndex([1]))
        assert np.allclose(m.probs, [0.5, 0.5])

    def test_diagonal_axis2(self):
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]])
        m = marginal(P, [2])
        assert np.allclose(m.probs, [0.5, 0.5])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        P = rand_dist(rng, [3, 3, 3])
        m = marginal(P, [1, 3])
        # independent brute-force summation
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    expected[i, k] += P.probs[i, j, k]
        assert np.allclose(m.probs, expected, atol=1e-15)
        assert np.array_equal(m.supports[0], P.supports[0])
        assert np.array_equal(m.supports[1], P.supports[2])

    def test_empty_subset_rejected(self):
        P = bern(0.5)
        with pytest.raises(ValueError, match="empty marginal"):
            marginal(P, [])

    def test_out_of_range_axis(self):
        P = bern(0.5)
        with pytest.raises(ValueError, match="out of range"):
            marginal(P, [2])


class TestTV:
    def test_identity(self):
        P = bern(0.3)
        assert tv_distance(P, P) == 0.0

    def test_disjoint_masses(self):
        P = DiscreteDist([[0.0, 1.0]], [1.0, 0.0])
        Q = DiscreteDist([[0.0, 1.0]], [0.0, 1.0])
        assert tv_distance(P, Q) == 2.0

    def test_bernoulli_value(self):
        # |0.5-0.75| + |0.5-0.25| = 0.5 under the unnormalized convention
        assert tv_distance(bern(0.5), bern(0.75)) == pytest.approx(0.5, abs=1e-15)

    def test_mismatched_supports(self):
        with pytest.raises(ValueError, match="supports"):
            tv_distance(bern(0.5), bern(0.5, support=(0.0, 2.0)))

    def test_metric_properties_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            sizes = [int(rng.integers(2, 4))]
            sup = [np.sort(rng.normal(size=sizes[0]))]
            dists = []
            for _ in range(3):
                raw = rng.gamma(1.0, 1.0, size=sizes[0])
                dists.append(DiscreteDist(sup, raw / raw.sum()))
            P, Q, R = dists
            assert tv_distance(P, Q) == pytest.approx(tv_distance(Q, P), abs=1e-15)
            assert tv_distance(P, Q) <= tv_distance(P, R) + tv_distance(R, Q) + 1e-12
            assert tv_distance(P, P) == 0.0


class TestDivergence:
    def test_zero_on_identical(self):
        P = bern(0.3)
        for kind, l in (("kl", None), ("jeffreys", None), ("fl", 2.0)):
            assert divergence(P, P, kind, l=l) == pytest.approx(0.0, abs=1e-15)

    def test_kl_bernoulli_hand_value(self):
        # 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75), computed by hand
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert divergence(bern(0.5), bern(0.25), "kl") == pytest.approx(expected, rel=1e-14)

    def test_f2_matches_chi_square_sum(self):
        P, Q = bern(0.5), bern(0.25)
        expected = (0.5 - 0.75) ** 2 / 0.75 + (0.5 - 0.25) ** 2 / 0.25
        assert divergence(P, Q, "fl", l=2.0) == pytest.approx(expected, rel=1e-14)

    def test_absolute_continuity_violation(self):
        P = DiscreteDist([[0.0, 1.0]], [0.5, 0.5])
        Q = DiscreteDist([[0.0, 1.0]], [1.0, 0.0])
        with pytest.raises(ValueError, match="divergence undefined"):
            divergence(P, Q, "kl")
        with pytest.raises(ValueError, match="divergence undefined"):
            divergence(P, Q, "fl", l=2.0)

    def test_fl_requires_l_above_one(self):
        P = bern(0.5)
        with pytest.raises(ValueError, match="l > 1"):
            divergence(P, bern(0.4), "fl", l=1.0)

    def test_jeffreys_dominates_both_kls(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            raw1 = rng.gamma(1.0, 1.0, size=3) + 0.05
            raw2 = rng.gamma(1.0, 1.0, size=3) + 0.05
            sup = [np.array([-1.0, 0.0, 1.0])]
            P = DiscreteDist(sup, raw1 / raw1.sum())
            Q = DiscreteDist(sup, raw2 / raw2.sum())
            j = divergence(P, Q, "jeffreys")
            assert j >= divergence(P, Q, "kl") - 1e-15
            assert j >= divergence(Q, P, "kl") - 1e-15


class TestPushforward:
    def test_identity_channels(self):
        rng = np.random.default_rng(4)
        P = rand_dist(rng, [2, 3])
        chans = [make_identity_channel(tuple(s)) for s in P.supports]
        M = pushforward(P, chans)
        assert np.allclose(M.probs, P.probs, atol=1e-15)

    def test_rr_full_flip_gives_uniform(self):
        # alpha=0 randomized response outputs uniformly regardless of the prior
        P = bern(0.9)
        M = pushforward(P, [make_rr_channel((0.0, 1.0), 0.0)])
        assert np.allclose(M.probs, [0.5, 0.5], atol=1e-15)

    def test_matches_exhaustive_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        P = rand_dist(rng, [2, 2])
        c1 = make_rr_channel(tuple(P.supports[0]), 0.7)
        c2 = make_rr_channel(tuple(P.supports[1]), 1.1)
        M = pushforward(P, [c1, c2])
        expected = np.zeros((2, 2))
        for x1 in range(2):
            for x2 in range(2):
                for z1 in range(2):
                    for z2 in range(2):
                        expected[z1, z2] += (
                            P.probs[x1, x2]
                            * c1.transition_table[x1, z1]
                            * c2.transition_table[x2, z2]
                        )
        assert np.allclose(M.probs, expected, atol=1e-15)

    def test_continuous_channel_rejected(self):
        from cldp.channels import LaplaceTruncChannel

        P = bern(0.5)
        with pytest.raises(ValueError, match="finite output"):
            pushforward(P, [LaplaceTruncChannel(T=1.0, alpha=0.5)])

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            sup = [np.sort(rng.normal(size=3))]
            raw1 = rng.gamma(1.0, 1.0, size=3) + 0.02
            raw2 = rng.gamma(1.0, 1.0, size=3) + 0.02
            P = DiscreteDist(sup, raw1 / raw1.sum())
            Q = DiscreteDist(sup, raw2 / raw2.sum())
            ch = [make_rr_channel(tuple(sup[0]), float(rng.uniform(0.1, 2.0)))]
            assert divergence(pushforward(P, ch), pushforward(Q, ch), "kl") <= divergence(
                P, Q, "kl"
            ) + 1e-12

    def test_marginal_commutes_with_pushforward(self):
        rng = np.random.default_rng(7)
        P = rand_dist(rng, [2, 3, 2])
        chans = [make_rr_channel(tuple(s), 0.5 + 0.2 * i) for i, s in enumerate(P.supports)]
        for S in nonempty_subsets(3):
            left = marginal(pushforward(P, chans), S)
            right = pushforward(marginal(P, S), [chans[j - 1] for j in S])
            assert left.same_support(right)
            assert np.allclose(left.probs, right.probs, atol=1e-14)


def _reference_support_index(support, values, where):
    """The np.isclose(rtol=0, atol=1e-12) match, one row of hits per value."""
    vals = np.asarray(values, dtype=float)
    hits = np.isclose(np.asarray(support, dtype=float), vals[..., None], rtol=0.0, atol=1e-12)
    unmatched = hits.sum(axis=-1) != 1
    if np.any(unmatched):
        raise ValueError(f"value {float(vals[unmatched].flat[0])!r} not in {where}")
    return hits.argmax(axis=-1)


POINTS = [-math.inf, -2.5, -1.0, 0.0, 1e-13, 5e-13, 0.3, 1.0, 1e12, math.inf]
OFFSETS = [0.0, 5e-13, -5e-13, 1e-12, -1e-12, 1.5e-12, -1.5e-12, 1e-9]


@st.composite
def support_and_values(draw):
    support = sorted(draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=5, unique=True)))
    near = st.builds(lambda s, o: s + o, st.sampled_from(support), st.sampled_from(OFFSETS))
    value = st.one_of(near, st.sampled_from([math.inf, -math.inf, math.nan]), st.floats(-3.0, 3.0))
    shape = draw(st.sampled_from([(), (4,), (2, 3)]))
    values = np.array(draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    return support, values


class TestSupportIndex:
    @settings(max_examples=300, deadline=None)
    @given(case=support_and_values())
    def test_matches_isclose_rule_without_warnings(self, case):
        support, values = case
        try:
            expected = _reference_support_index(support, values, "the support")
        except ValueError as exc:
            expected = exc
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                got = support_index(support, values, "the support")
            except ValueError as exc:
                got = exc
        if isinstance(expected, ValueError):
            assert isinstance(got, ValueError) and str(got) == str(expected)
        else:
            assert not isinstance(got, ValueError)
            assert got.shape == expected.shape and np.array_equal(got, expected)

    def test_offsets_at_the_tolerance(self):
        assert support_index([0.0, 1.0], [1e-12, 1.0 - 1e-12], "s").tolist() == [0, 1]
        with pytest.raises(ValueError, match="not in s"):
            support_index([0.0, 1.0], [2e-12], "s")
        with pytest.raises(ValueError, match="not in s"):
            support_index([0.0, 1e-13], [0.0], "s")  # two points match
        assert support_index([-math.inf, 0.0, math.inf], [math.inf, -math.inf], "s").tolist() == [2, 0]
        with pytest.raises(ValueError, match="nan"):
            support_index([0.0, 1.0], [math.nan], "s")


class TestNonemptySubsets:
    def test_shared_tuple_in_size_then_member_order(self):
        subsets = nonempty_subsets(3)
        assert isinstance(subsets, tuple)
        assert nonempty_subsets(3) is subsets
        assert [S.members for S in subsets] == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


class TestNonFiniteOrder:
    @pytest.mark.parametrize("l", [math.nan, 1.0, -math.inf])
    def test_fl_term_rejects_order(self, l):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="l > 1"):
            fl_term(p, np.array([0.25, 0.75]), l)
        with pytest.raises(ValueError, match="l > 1"):
            divergence(bern(0.5), bern(0.25), "fl", l=l)


# ---------------------------------------------------------------------------
# the stacked forms against one table at a time
# ---------------------------------------------------------------------------


def _reference_push_axes(table, rows):
    """The per-table contraction: one np.tensordot per axis."""
    for t in rows:
        table = np.tensordot(table, t, axes=([0], [0]))
    return table


def _reference_kl_term(p, q):
    mask = p > 0
    if np.any(q[mask] == 0):
        raise ValueError("divergence undefined: P > 0 where Q = 0")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _reference_fl_term(p, q, l):
    if np.any(q[p > 0] == 0):
        raise ValueError("divergence undefined: P > 0 where Q = 0")
    mask = q > 0
    return float(np.sum(q[mask] * np.abs(p[mask] / q[mask] - 1.0) ** l))


class TestStackedForms:
    @settings(max_examples=120, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        outs=st.lists(st.integers(1, 4), min_size=3, max_size=3),
        B=st.sampled_from([1, 2, 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_push_axes_is_tensordot_per_table(self, sizes, outs, B, seed):
        rng = np.random.default_rng(seed)
        tables = rng.gamma(1.0, 1.0, size=(B, *sizes))
        rows = [rng.random((B, s, k)) for s, k in zip(sizes, outs)]
        got = push_axes(tables, rows)
        for b in range(B):
            want = _reference_push_axes(tables[b], [t[b] for t in rows])
            assert got[b].shape == want.shape and np.array_equal(got[b], want)

    @settings(max_examples=120, deadline=None)
    @given(k=st.integers(1, 27), B=st.integers(1, 6), l=st.sampled_from([1.5, 2.0, 3.0]), seed=st.integers(0, 2**32 - 1))
    def test_row_sums_are_the_one_row_sums(self, k, B, l, seed):
        # rows with zero cells are summed compressed, as the one-row terms sum them
        rng = np.random.default_rng(seed)
        zeros = rng.uniform(size=(B, k)) < 0.3
        q = rng.gamma(1.0, 1.0, size=(B, k)) * ~(zeros & (rng.uniform(size=(B, 1)) < 0.5))
        p = rng.gamma(1.0, 1.0, size=(B, k)) * (q > 0) * (rng.uniform(size=(B, k)) < 0.8)
        kl, fl = kl_term(p, q), fl_term(p, q, l)
        assert kl.shape == fl.shape == (B,)
        for b in range(B):
            assert kl[b] == _reference_kl_term(p[b], q[b]) == kl_term(p[b], q[b])
            assert fl[b] == _reference_fl_term(p[b], q[b], l) == fl_term(p[b], q[b], l)
        assert isinstance(kl_term(p[0], q[0]), float) and isinstance(fl_term(p[0], q[0], l), float)

    def test_row_terms_reject_undefined_rows(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        q = np.array([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValueError, match="P > 0 where Q = 0"):
            kl_term(p, q)
        with pytest.raises(ValueError, match="P > 0 where Q = 0"):
            fl_term(p, q, 2.0)

    def test_support_index_on_a_stack_of_supports(self):
        supports = np.array([[0.0, 1.0, 2.0], [2.0, -1.0, 0.5]])
        values = np.array([[2.0, 0.0], [0.5, 2.0 + 1e-13]])
        got = support_index(supports, values, "s")
        assert got.tolist() == [support_index(s, v, "s").tolist() for s, v in zip(supports, values)] == [[2, 0], [2, 0]]
        with pytest.raises(ValueError, match=r"value 1\.0 not in s"):
            support_index(supports, np.array([[0.0, 1.0], [1.0, 2.0]]), "s")
