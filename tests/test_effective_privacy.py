import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldp.channels import RandomizedResponseChannel, make_identity_channel, make_rr_channel
from cldp.contraction import channel_fl_epsilons
from cldp.effective_privacy import (
    audit_marginal_leakage,
    conditional_release_density,
    delta_ind,
    effective_level,
    leakage_report,
    misprediction_floor,
)
from cldp.harness import derive_rng
from cldp.measures import DiscreteDist, divergence, pushforward


def product_dist():
    p1 = np.array([0.4, 0.6])
    p2 = np.array([0.7, 0.3])
    return DiscreteDist([[0.0, 1.0], [0.0, 1.0]], np.outer(p1, p2))


def copy_dist():
    return DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]])


def mixture_dist(rho):
    # rho * (perfect copy) + (1 - rho) * (independent uniform)
    copy = np.array([[0.5, 0.0], [0.0, 0.5]])
    indep = np.full((2, 2), 0.25)
    return DiscreteDist([[0.0, 1.0], [0.0, 1.0]], rho * copy + (1 - rho) * indep)


class TestDeltaInd:
    def test_product_is_zero(self):
        assert delta_ind(product_dist()) == pytest.approx(0.0, abs=1e-15)

    def test_copy_is_two(self):
        assert delta_ind(copy_dist()) == pytest.approx(2.0)

    def test_mixture_matches_pairwise_enumeration(self):
        for rho in (0.0, 0.3, 0.8, 1.0):
            P = mixture_dist(rho)
            # oracle: loop over conditioning pairs
            m1 = P.probs.sum(axis=1)
            worst = 0.0
            for a, b in itertools.combinations(range(2), 2):
                worst = max(
                    worst, np.abs(P.probs[a] / m1[a] - P.probs[b] / m1[b]).sum()
                )
            assert delta_ind(P) == pytest.approx(worst, abs=1e-14)
            assert delta_ind(P) == pytest.approx(2.0 * rho / (rho + (1 - rho)), abs=1e-12)

    def test_zero_mass_conditioning_rejected(self):
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-mass"):
            delta_ind(P)

    def test_axis_relabel_symmetry(self):
        rng = derive_rng(31, 0)
        raw = rng.gamma(1.0, 1.0, size=(2, 2, 2)) + 0.05
        P = DiscreteDist([[0.0, 1.0]] * 3, raw / raw.sum())
        swapped = DiscreteDist([[0.0, 1.0]] * 3, np.swapaxes(raw / raw.sum(), 1, 2))
        assert delta_ind(P) == pytest.approx(delta_ind(swapped), abs=1e-14)


class TestEffectiveLevel:
    def test_independence_collapses(self):
        prof = effective_level(0.7, 1.2, 4, 0.0)
        assert prof.effective_alpha == pytest.approx(0.7)

    def test_single_axis(self):
        prof = effective_level(0.7, 9.0, 1, 2.0)
        assert prof.effective_alpha == pytest.approx(0.7)

    def test_direct_arithmetic(self):
        prof = effective_level(0.5, 0.5, 3, 2.0)
        assert prof.effective_alpha == pytest.approx(2.5)

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            effective_level(0.5, 0.5, 2, 2.5)


class TestMispredictionFloor:
    def test_values(self):
        assert misprediction_floor(0.0) == pytest.approx(0.5)
        assert misprediction_floor(math.log(3.0)) == pytest.approx(0.25)

    def test_monotone_to_zero(self):
        grid = np.linspace(0, 20, 50)
        vals = [misprediction_floor(a) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 1e-8


class TestAuditLeakage:
    def test_independent_components_leak_only_own_channel(self):
        P = product_dist()
        chans = [make_rr_channel((0.0, 1.0), a) for a in (0.6, 1.4)]
        sup = audit_marginal_leakage(P, chans, 0.0, 1.0)
        # side channel uninformative: equals the channel-1 row ratio
        t = chans[0].transition_table
        expected = max(t[0, 0] / t[1, 0], t[0, 1] / t[1, 1])
        assert sup == pytest.approx(expected, rel=1e-12)
        assert sup <= math.exp(0.6) * (1 + 1e-9)

    def test_fully_dependent_bounded_by_sum(self):
        P = copy_dist()
        a1, a2 = 0.5, 0.8
        chans = [make_rr_channel((0.0, 1.0), a) for a in (a1, a2)]
        sup = audit_marginal_leakage(P, chans, 0.0, 1.0)
        assert sup <= math.exp(a1 + 2.0 * a2) * (1 + 1e-9)

    def test_random_instances_never_violate(self):
        violations = 0
        for i in range(50):
            rng = derive_rng(77, i)
            raw = rng.gamma(1.0, 1.0, size=(2, 2)) + 1e-3
            P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], raw / raw.sum())
            alphas = rng.uniform(0.1, 1.5, size=2)
            chans = [make_rr_channel((0.0, 1.0), float(a)) for a in alphas]
            rep = leakage_report(P, chans)
            violations += int(rep["violation"])
        assert violations == 0

    def test_bayes_floor_by_rule_enumeration(self):
        # every binary decision rule on the 2x2 release alphabet errs at least
        # 1/(1 + audited sup) on average
        P = mixture_dist(0.6)
        chans = [make_rr_channel((0.0, 1.0), a) for a in (0.7, 0.9)]
        sup = audit_marginal_leakage(P, chans, 0.0, 1.0)
        m0 = conditional_release_density(P, chans, 0.0).ravel()
        m1 = conditional_release_density(P, chans, 1.0).ravel()
        floor = 1.0 / (1.0 + sup)
        best = math.inf
        for bits in itertools.product((0, 1), repeat=m0.size):
            rule = np.array(bits)
            err = 0.5 * m0[rule == 1].sum() + 0.5 * m1[rule == 0].sum()
            best = min(best, err)
        assert best >= floor - 1e-12
        # and the MAP rule attains the minimum over all rules
        assert best == pytest.approx(0.5 * np.minimum(m0, m1).sum(), abs=1e-12)


def point_conditioned(P, i):
    """The law of X given X^1 = the i-th axis-1 point: mass only on row i."""
    table = np.zeros_like(P.probs)
    table[i] = P.probs[i] / P.probs[i].sum()
    return DiscreteDist(P.supports, table)


class TestSupportMatching:
    """Transition rows are matched to P's supports by value, never by position."""

    P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.4, 0.1], [0.15, 0.35]])

    def reversed_channels(self):
        # both channels list their input support as (1.0, 0.0): row 0 is x = 1
        t1 = np.array([[0.3, 0.7], [0.6, 0.4]])
        t2 = np.array([[0.2, 0.8], [0.9, 0.1]])
        return [
            RandomizedResponseChannel((1.0, 0.0), (0.0, 1.0), t1, math.log(0.7 / 0.4)),
            RandomizedResponseChannel((1.0, 0.0), (0.0, 1.0), t2, math.log(0.8 / 0.1)),
        ]

    def test_reordered_input_support_equals_pushforward(self):
        chans = self.reversed_channels()
        (xs1, xs2), (c1, c2) = self.P.supports, chans
        for i, x1 in enumerate(xs1):
            expected = pushforward(point_conditioned(self.P, i), chans).probs
            np.testing.assert_allclose(conditional_release_density(self.P, chans, x1), expected, rtol=0, atol=1e-15)
            # the same law summed by hand, each density read by value
            cond = self.P.probs[i] / self.P.probs[i].sum()
            by_hand = [
                [c1.density(z1, x1) * sum(w * c2.density(z2, x2) for w, x2 in zip(cond, xs2)) for z2 in (0.0, 1.0)]
                for z1 in (0.0, 1.0)
            ]
            np.testing.assert_allclose(expected, by_hand, rtol=0, atol=1e-15)

    def test_reordered_audit_and_report(self):
        chans = self.reversed_channels()
        m0, m1 = (pushforward(point_conditioned(self.P, i), chans).probs for i in range(2))
        sup = max(float(np.max(m0 / m1)), float(np.max(m1 / m0)))
        assert audit_marginal_leakage(self.P, chans, 0.0, 1.0) == pytest.approx(float(np.max(m0 / m1)), rel=1e-14)
        assert leakage_report(self.P, chans)["audited_sup"] == pytest.approx(sup, rel=1e-14)

    def test_uncovered_support_rejected(self):
        # right row count, wrong points: axis 2 takes values 0 and 1, the channel 0 and 2
        chans = [make_rr_channel((0.0, 1.0), 0.5), make_rr_channel((0.0, 2.0), 0.5)]
        with pytest.raises(ValueError, match="1.0"):
            conditional_release_density(self.P, chans, 0.0)
        with pytest.raises(ValueError, match="input support"):
            leakage_report(self.P, chans)

    def test_conditioning_point_off_support_rejected(self):
        chans = [make_rr_channel((0.0, 1.0), 0.5)] * 2
        with pytest.raises(ValueError, match="axis-1 support"):
            conditional_release_density(self.P, chans, 0.5)

    def test_zero_mass_cells_read_zero_and_inf(self):
        # x2 = 1 never occurs with x1 = 0, so through the identity channel the
        # release z2 = 1 rules x1 = 0 out: ratio inf one way, 0 the other
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.0], [0.2, 0.3]])
        chans = [make_rr_channel((0.0, 1.0), 0.7), make_identity_channel((0.0, 1.0))]
        assert audit_marginal_leakage(P, chans, 1.0, 0.0) == math.inf
        t = chans[0].transition_table
        assert audit_marginal_leakage(P, chans, 0.0, 1.0) == pytest.approx(max(t[0] / t[1]) / 0.4, rel=1e-14)
        assert leakage_report(P, chans)["audited_sup"] == math.inf


@st.composite
def joint_law_and_channels(draw, positive_rows=False):
    """A random joint law (d = 2-3, at most 3 points per axis) and one random
    row-stochastic channel per axis, listing its input support in a random order."""
    d = draw(st.integers(2, 3))
    sizes = [draw(st.integers(1, 3)) for _ in range(d)]
    supports = [
        sorted(float(v) for v in draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k, unique=True)))
        for k in sizes
    ]
    masses = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=math.prod(sizes), max_size=math.prod(sizes))))
    P = DiscreteDist(supports, masses.reshape(sizes) / masses.sum())
    entry = st.floats(0.05, 1.0) if positive_rows else st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
    channels = []
    for sup in supports:
        order = draw(st.permutations(range(len(sup))))
        width = draw(st.integers(1, 3))
        rows = [draw(st.lists(entry, min_size=width, max_size=width).filter(lambda r: sum(r) > 0)) for _ in sup]
        table = np.array(rows) / np.sum(rows, axis=1, keepdims=True)
        channels.append(
            RandomizedResponseChannel(tuple(sup[i] for i in order), tuple(float(z) for z in range(width)), table, 1.0)
        )
    return P, channels


class TestFiniteChannelProperties:
    @settings(max_examples=80, deadline=None)
    @given(case=joint_law_and_channels())
    def test_conditional_release_is_pushforward_of_point_law(self, case):
        P, chans = case
        for i, x1 in enumerate(P.supports[0]):
            expected = pushforward(point_conditioned(P, i), chans).probs
            np.testing.assert_allclose(conditional_release_density(P, chans, x1), expected, rtol=0, atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(case=joint_law_and_channels(positive_rows=True), l=st.floats(1.05, 4.0))
    def test_fl_epsilons_are_largest_row_divergence(self, case, l):
        _, chans = case
        eps = channel_fl_epsilons(chans, l)
        for ch, e in zip(chans, eps):
            rows = [DiscreteDist([ch.output_support], row) for row in ch.transition_table]
            worst = max(
                (divergence(p, q, "fl", l=l) for q, p in itertools.permutations(rows, 2)), default=0.0
            )
            # DiscreteDist renormalizes each row, so agreement is to rounding, not
            # bitwise; identical rows give 0 on one side and ~1e-17 on the other
            assert e**l == pytest.approx(worst, rel=1e-12, abs=1e-15)
