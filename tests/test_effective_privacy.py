import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldp.channels import RandomizedResponseChannel, audit_verdict, make_identity_channel, make_rr_channel
from cldp.contraction import _rr_tables, channel_fl_epsilons, rr_sweep
from cldp.effective_privacy import (
    _draw_instance,
    _leakage_stack,
    audit_marginal_leakage,
    conditional_release_density,
    delta_ind,
    effective_level,
    leakage_report,
    misprediction_floor,
    run_leakage_sweep,
)
from cldp.harness import derive_rng, run_verification_suite
from cldp.measures import DiscreteDist, divergence, finite_axes, push_axes, pushforward, support_index


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
def joint_law_and_channels(draw, positive_rows=False, sizes=None, widths=None):
    """A random joint law (d = 2-3, at most 3 points per axis) and one random
    row-stochastic channel per axis, listing its input support in a random order.
    ``sizes`` and ``widths`` fix the support sizes and the output widths."""
    if sizes is None:
        sizes = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(2, 3)))]
    supports = [
        sorted(float(v) for v in draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k, unique=True)))
        for k in sizes
    ]
    masses = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=math.prod(sizes), max_size=math.prod(sizes))))
    P = DiscreteDist(supports, masses.reshape(sizes) / masses.sum())
    entry = st.floats(0.05, 1.0) if positive_rows else st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
    channels = []
    for ax, sup in enumerate(supports):
        order = draw(st.permutations(range(len(sup))))
        width = draw(st.integers(1, 3)) if widths is None else widths[ax]
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


# ---------------------------------------------------------------------------
# the stacked audit against the instance-by-instance one it replaced
# ---------------------------------------------------------------------------


def _pinned_conditional_law(P):
    m1 = P.probs.sum(axis=tuple(range(1, P.d)))
    if np.any(m1 <= 0.0):
        bad = P.supports[0][np.flatnonzero(m1 <= 0.0)[0]]
        raise ValueError(f"zero-mass conditioning point x1={bad!r}")
    return P.probs / m1.reshape((-1,) + (1,) * (P.d - 1))


def _pinned_leakage_report(P, channels):
    """leakage_report as it was computed one instance at a time."""
    alphas = [ch.alpha for ch in channels]
    alpha_max = max(alphas[1:]) if len(alphas) > 1 else 0.0
    pairs = itertools.combinations(_pinned_conditional_law(P), 2) if P.d >= 2 else ()
    dlt = max((float(np.abs(a - b).sum()) for a, b in pairs), default=0.0)
    prof = effective_level(alphas[0], alpha_max, P.d, dlt)
    rows = [
        ch.transition_table[support_index(ch.input_support, sup, f"the axis-{ax + 1} channel's input support")]
        for ax, (ch, sup) in enumerate(zip(channels, P.supports))
    ]
    cond = np.moveaxis(_pinned_conditional_law(P), 0, -1)
    rest = push_axes(cond[None], [t[None] for t in rows[1:]])[0]
    m = (rows[0].reshape(rows[0].shape + (1,) * (P.d - 1)) * rest[:, None]).reshape(len(P.supports[0]), -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = float(np.where((m[:, None] == 0) & (m[None, :] == 0), 1.0, m[:, None] / m[None, :]).max())
    bound, ok = audit_verdict(worst, prof.effective_alpha)
    return {
        "delta_ind": dlt,
        "effective_alpha": prof.effective_alpha,
        "audited_sup": worst,
        "floor": misprediction_floor(math.log(worst) if worst >= 1.0 else 0.0),
        "bound": bound,
        "violation": not ok,
    }


def _pinned_instance(seed, i):
    """The sweep's instance i as it was built: a DiscreteDist and one RR channel per axis."""
    rng = derive_rng(seed, 202, i)
    d = int(rng.choice((2, 3)))
    sizes = [int(rng.integers(2, 4)) for _ in range(d)]
    supports = [np.sort(rng.normal(size=s) * 1.5) for s in sizes]
    raw = rng.gamma(1.0, 1.0, size=tuple(sizes)) + 1e-3
    P = DiscreteDist(supports, raw / raw.sum())
    alphas = rng.uniform(0.1, 1.5, size=d)
    return P, [make_rr_channel(tuple(P.supports[j]), float(alphas[j])) for j in range(d)]


def _pinned_leakage_suite(seed, instances):
    rows = [_pinned_leakage_report(*_pinned_instance(seed, i)) for i in range(instances)]
    violations = sum(int(r["violation"]) for r in rows)
    return {"suite": "leakage", "seed": seed, "instances": instances, "violations": violations, "reports": rows}


class TestStackedSweepMatchesPinnedAudit:
    @pytest.mark.parametrize("seed", [*range(40), 79, 84, 146])
    def test_suite_bytes(self, seed):
        code, report = run_verification_suite("leakage", seed=seed)
        assert json.dumps(report) == json.dumps(_pinned_leakage_suite(seed, 200))
        assert code == (1 if report["violations"] else 0)

    def test_seed_84_fails_at_instance_8_only(self):
        code, report = run_verification_suite("leakage", seed=84)
        assert code == 1 and [i for i, r in enumerate(report["reports"]) if r["violation"]] == [8]

    @pytest.mark.parametrize("seed", [0, 84])
    def test_rows_are_stacks_of_one(self, seed):
        report = run_leakage_sweep(seed, 30)
        for i, row in enumerate(report["reports"]):
            assert json.dumps(row) == json.dumps(leakage_report(*_pinned_instance(seed, i)))


def _bits(report):
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.items()}


@st.composite
def one_shape_stack(draw):
    """Two to five (law, channels) cases of one support shape and output widths, each
    channel at its own level."""
    P, channels = draw(joint_law_and_channels())
    sizes, widths = list(P.probs.shape), [len(ch.output_support) for ch in channels]
    cases = [(P, channels)] + [
        draw(joint_law_and_channels(sizes=sizes, widths=widths)) for _ in range(draw(st.integers(1, 4)))
    ]
    level = st.floats(0.0, 3.0)
    return [(P, [dataclasses.replace(ch, alpha=draw(level)) for ch in chans]) for P, chans in cases]


def _stack(cases):
    """(supports, tables, axes, alphas) of cases of one shape, stacked along a leading axis."""
    supports = [np.stack(s) for s in zip(*(P.supports for P, _ in cases))]
    axes = [tuple(np.concatenate(x) for x in zip(*a)) for a in zip(*(finite_axes(P, chans) for P, chans in cases))]
    alphas = [tuple(ch.alpha for ch in chans) for _, chans in cases]
    return supports, np.stack([P.probs for P, _ in cases]), axes, alphas


class TestStackIndependence:
    @settings(max_examples=120, deadline=None)
    @given(cases=one_shape_stack())
    def test_each_instance_reads_its_stack_of_one(self, cases):
        for (P, chans), got in zip(cases, _leakage_stack(*_stack(cases))):
            assert _bits(got) == _bits(leakage_report(P, chans)) == _bits(_pinned_leakage_report(P, chans))

    def test_inf_and_zero_over_zero_branches(self):
        # z2 = 1 never follows x1 = 0 through the identity channel: the ratio reads inf
        P = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.5, 0.0], [0.2, 0.3]])
        Q = DiscreteDist([[0.0, 1.0], [0.0, 1.0]], [[0.25, 0.25], [0.2, 0.3]])
        chans = [make_rr_channel((0.0, 1.0), 0.7), make_identity_channel((0.0, 1.0))]
        cases = [(Q, chans), (P, chans), (Q, chans)]
        reports = _leakage_stack(*_stack(cases))
        assert reports[1]["audited_sup"] == math.inf and reports[0]["audited_sup"] < math.inf
        for (law, ch), got in zip(cases, reports):
            assert _bits(got) == _bits(leakage_report(law, ch)) == _bits(_pinned_leakage_report(law, ch))


class TestStackBoundaryErrors:
    """Each check of the instance-by-instance audit raises on a stack whose faulty
    instance is the last of three."""

    def draws(self):
        # three of the sweep's own instances of one three-axis shape, as _draw_instance returns them
        found = {}
        for i in range(200):
            draw = _draw_instance(derive_rng(5, 202, i))
            found.setdefault(draw[1].shape, []).append(draw)
        return next(members[:3] for shape, members in found.items() if len(shape) == 3 and len(members) >= 3)

    def stack(self):
        supports, probs, alphas = zip(*self.draws())
        supports = [np.stack(s) for s in zip(*supports)]
        a = np.stack(alphas)
        axes = [(_rr_tables(s.shape[1], a[:, j].tolist()), s, s) for j, s in enumerate(supports)]
        return supports, np.stack(probs), axes, [tuple(x) for x in a.tolist()]

    @staticmethod
    def sweep(draws):
        """``rr_sweep`` of the given draws, in order, each audited as the leakage suite audits it."""
        feed = iter(draws)
        return rr_sweep((5, 202), len(draws), lambda rng: next(feed), _leakage_stack)

    def test_clean_stack_audits(self):
        assert len(self.sweep(self.draws())) == 3
        assert len(_leakage_stack(*self.stack())) == 3

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda sup, p: ([sup[0], sup[1][::-1], *sup[2:]], p), "axis 2: support points must be strictly increasing"),
            (lambda sup, p: (sup, np.where(p == p.max(), -p, p)), "negative mass"),
            (lambda sup, p: (sup, p * 1.1), "masses sum to 1.1"),
        ],
    )
    def test_draw_checks(self, fault, message):
        draws = self.draws()
        supports, probs = fault(*draws[2][:2])
        with pytest.raises(ValueError, match=re.escape(message)):
            self.sweep([*draws[:2], (supports, probs, draws[2][2])])

    def test_zero_mass_point_named(self):
        supports, P, axes, alphas = self.stack()
        P = P.copy()
        P[2, 1] = 0.0
        with pytest.raises(ValueError, match=re.escape(f"zero-mass conditioning point x1={supports[0][2, 1]!r}")):
            _leakage_stack(supports, P, axes, alphas)

    def test_delta_ind_out_of_range(self):
        supports, P, axes, alphas = self.stack()
        P = P.copy()
        P[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match=re.escape("delta_ind out of [0, 2]: nan")):
            _leakage_stack(supports, P, axes, alphas)

    def test_negative_level(self):
        supports, P, axes, alphas = self.stack()
        # alpha_max stays positive, so the per-instance bound alone would not see it
        alphas[2] = (alphas[2][0], -0.5, alphas[2][2])
        with pytest.raises(ValueError, match="privacy levels must be nonnegative"):
            _leakage_stack(supports, P, axes, alphas)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda t: t.__setitem__((2, 0, 0), -0.1), "transition probabilities must be nonnegative"),
            (lambda t: t.__setitem__((2, 0, 0), t[2, 0, 0] + 1e-9), "transition rows must each sum to 1"),
        ],
    )
    def test_table_checks(self, change, message):
        supports, P, axes, alphas = self.stack()
        tables = axes[1][0].copy()
        change(tables)
        axes[1] = (tables, *axes[1][1:])
        with pytest.raises(ValueError, match=message):
            _leakage_stack(supports, P, axes, alphas)

    def test_uncovered_support(self):
        supports, P, axes, alphas = self.stack()
        inputs = axes[1][1].copy()
        inputs[2, 0] += 0.5
        axes[1] = (axes[1][0], inputs, axes[1][2])
        message = f"value {float(supports[1][2, 0])!r} not in the axis-2 channel's input support"
        with pytest.raises(ValueError, match=re.escape(message)):
            _leakage_stack(supports, P, axes, alphas)
