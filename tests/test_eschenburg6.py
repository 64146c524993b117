"""Tests for the 6-dimensional torus-quotient singular-locus analysis."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from su3orbifolds.eschenburg6 import (
    EDGE_ORDER,
    GL2Z,
    Permute,
    Scale,
    Shift,
    Swap,
    TorusAction6,
    VERTEX_ORDER,
    _stabilizer_rows,
    apply_equivalence,
    cohom1_params,
    cohom1_tables,
    effectivize,
    effectivize_cohom1,
    gamma6,
    kernel_of_action,
    lgroup6,
    singular_report,
    classify_family_member,
    validate6,
    vertex_order_formula,
)
from su3orbifolds.eschenburg7 import (
    ALL_PERMS,
    CYCLE_123,
    CYCLE_132,
    IDENTITY,
    SWAP_12,
    SWAP_13,
    SWAP_23,
    Validity,
)
from su3orbifolds.lattice import AbelianGroup2

from oracles import effectivize_cohom1_scan, torsion_profile_matches


def _random_action6(rng, span=4):
    """Random orbifold torus action (its kernel is finite, see
    TestKernelOfAction)."""
    while True:
        a = tuple(rng.randint(-span, span) for _ in range(3))
        b2 = [rng.randint(-span, span) for _ in range(2)]
        b = (b2[0], b2[1], sum(a) - sum(b2))
        p = tuple(rng.randint(-span, span) for _ in range(3))
        q2 = [rng.randint(-span, span) for _ in range(2)]
        q = (q2[0], q2[1], sum(p) - sum(q2))
        if max(abs(b[2]), abs(q[2])) > 3 * span:
            continue
        act = TorusAction6(a=a, b=b, p=p, q=q)
        if validate6(act) is not Validity.ORBIFOLD:
            continue
        return act


@st.composite
def orbifold_actions6(draw, span=4):
    """Orbifold torus actions drawn as by _random_action6."""
    w = st.integers(-span, span)
    a, p = draw(st.tuples(w, w, w)), draw(st.tuples(w, w, w))
    b0, b1, q0, q1 = draw(st.tuples(w, w, w, w))
    b, q = (b0, b1, sum(a) - b0 - b1), (q0, q1, sum(p) - q0 - q1)
    assume(max(abs(b[2]), abs(q[2])) <= 3 * span)
    act = TorusAction6(a=a, b=b, p=p, q=q)
    assume(validate6(act) is Validity.ORBIFOLD)
    return act


def _gl2z(shears):
    """Unimodular matrix from shears (s, first_row): add s times the other
    row to the first row or to the second."""
    m = [[1, 0], [0, 1]]
    for s, first_row in shears:
        if first_row:
            m[0] = [m[0][0] + s * m[1][0], m[0][1] + s * m[1][1]]
        else:
            m[1] = [m[1][0] + s * m[0][0], m[1][1] + s * m[0][1]]
    return GL2Z((tuple(m[0]), tuple(m[1])))


def _random_move(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return Swap()
    if kind == 1:
        return Shift(c=rng.randint(-3, 3), d=rng.randint(-3, 3))
    if kind == 2:
        return Permute(sigma=rng.choice(ALL_PERMS), tau=rng.choice(ALL_PERMS))
    if kind == 3:
        return Scale(lam=Fraction(rng.choice((1, -1))), mu=Fraction(rng.choice((1, -1))))
    return _gl2z([(rng.randint(-2, 2), rng.random() < 0.5) for _ in range(3)])


PERMS = st.sampled_from(ALL_PERMS)
UNIT = st.sampled_from((1, -1)).map(Fraction)
# the moves of _random_move
MOVES = st.one_of(
    st.just(Swap()),
    st.builds(Shift, c=st.integers(-3, 3), d=st.integers(-3, 3)),
    st.builds(Permute, sigma=PERMS, tau=PERMS),
    st.builds(Scale, lam=UNIT, mu=UNIT),
    st.lists(st.tuples(st.integers(-2, 2), st.booleans()), min_size=3, max_size=3).map(_gl2z),
)
HUGE = st.integers(10**29, 10**40 - 1) | st.integers(-(10**40 - 1), -(10**29))


class TestGamma6:
    def test_noncyclic_identity_vertex(self):
        # relation rows at the identity vertex are (-2,-2), (-2,-4), (4,6)
        act = TorusAction6(a=(0, 0, 0), b=(2, 2, -4), p=(1, 1, 1), q=(3, 5, -5))
        assert gamma6(act, IDENTITY) == AbelianGroup2(2, 2)

    def test_order_matches_determinant_formula(self):
        rng = random.Random(31)
        for _ in range(100):
            act = _random_action6(rng)
            for sigma in ALL_PERMS:
                g = gamma6(act, sigma)
                assert g.order == vertex_order_formula(act, sigma)

    @settings(max_examples=60, deadline=None)
    @given(orbifold_actions6(), PERMS)
    def test_torsion_oracle(self, act, sigma):
        g = gamma6(act, sigma)
        assert torsion_profile_matches(_stabilizer_rows(act, sigma), g.d1, g.d2)

    def test_degenerate_vertex_raises(self):
        act = TorusAction6(a=(0, 0, 0), b=(0, 0, 0), p=(1, 2, 3), q=(1, 2, 3))
        with pytest.raises(ValueError):
            gamma6(act, IDENTITY)


class TestLgroup6:
    def test_divides_endpoint_vertices(self):
        rng = random.Random(41)
        for _ in range(60):
            act = _random_action6(rng)
            for e in EDGE_ORDER:
                group, (sigma, tau) = lgroup6(act, *e)
                assert gamma6(act, sigma).order % group.order == 0
                assert gamma6(act, tau).order % group.order == 0

    @settings(max_examples=40, deadline=None)
    @given(orbifold_actions6(), st.sampled_from(EDGE_ORDER))
    def test_torsion_oracle(self, act, e):
        group, (sigma, tau) = lgroup6(act, *e)
        rows = _stabilizer_rows(act, sigma) + _stabilizer_rows(act, tau)
        assert torsion_profile_matches(rows, group.d1, group.d2)

    def test_unknown_stratum_raises(self):
        act = TorusAction6(a=(1, 2, 0), b=(0, 0, 3), p=(0, 1, 1), q=(2, 0, 0))
        with pytest.raises(ValueError):
            lgroup6(act, 4, 1)


class TestSingularReport:
    @settings(max_examples=50, deadline=None)
    @given(orbifold_actions6(), st.lists(MOVES, min_size=1, max_size=4))
    def test_multiset_move_invariance(self, act, moves):
        base = singular_report(act).group_multiset()
        cur = act
        for move in moves:
            cur = apply_equivalence(cur, move)
        assert singular_report(cur).group_multiset() == base

    def test_effective_flag(self):
        act = TorusAction6(a=(1, 2, 0), b=(0, 0, 3), p=(0, 1, 1), q=(2, 0, 0))
        assert singular_report(act).effective
        doubled = apply_equivalence(act, Scale(lam=Fraction(2), mu=Fraction(1)))
        rep = singular_report(doubled)
        assert not rep.effective
        assert rep.group_multiset() == singular_report(act).group_multiset()

    def test_not_orbifold_raises(self):
        act = TorusAction6(a=(0, 0, 0), b=(0, 0, 0), p=(1, 2, 3), q=(1, 2, 3))
        with pytest.raises(ValueError):
            singular_report(act)


@st.composite
def torus_actions6(draw, entries):
    """Torus actions with entries drawn from `entries`; with equal chance
    the (a, b) circle is a multiple of (p, q) plus a shift, which gives an
    infinite kernel, possibly with one entry moved off it."""
    a, p = draw(st.tuples(entries, entries, entries)), draw(st.tuples(entries, entries, entries))
    b0, b1, q0, q1 = draw(st.tuples(entries, entries, entries, entries))
    b, q = (b0, b1, sum(a) - b0 - b1), (q0, q1, sum(p) - q0 - q1)
    if draw(st.booleans()):
        k, c, nudge = draw(entries), draw(entries), draw(st.sampled_from((0, 0, 1, -1)))
        a = (k * p[0] + c + nudge, k * p[1] + c, k * p[2] + c)
        b = (k * q[0] + c + nudge, k * q[1] + c, k * q[2] + c)
    return TorusAction6(a=a, b=b, p=p, q=q)


class TestKernelOfAction:
    # each vertex row is a difference of two kernel rows, so a kernel of
    # rank at most one (an infinite kernel) forces every vertex order to 0
    @settings(max_examples=300, deadline=None)
    @given(torus_actions6(st.integers(-4, 4)) | torus_actions6(HUGE | st.integers(-4, 4)))
    def test_orbifold_kernel_is_finite(self, act):
        assert validate6(act) is not Validity.ORBIFOLD or kernel_of_action(act).is_finite


class TestEffectivize:
    def test_removes_scaled_kernel(self):
        rng = random.Random(53)
        for _ in range(40):
            act = _random_action6(rng)
            n = rng.choice((2, 3, 4))
            scaled = apply_equivalence(act, Scale(lam=Fraction(n), mu=Fraction(1)))
            assert kernel_of_action(scaled).order % n == 0
            eff, moves = effectivize(scaled)
            assert kernel_of_action(eff).is_trivial
            assert moves
            # replaying the moves reproduces the effective action
            cur = scaled
            for mv in moves:
                cur = apply_equivalence(cur, mv)
            assert cur == eff

    def test_noop_on_effective(self):
        act = TorusAction6(a=(1, 2, 0), b=(0, 0, 3), p=(0, 1, 1), q=(2, 0, 0))
        eff, moves = effectivize(act)
        assert eff == act and moves == []

    def test_infinite_kernel_raises(self):
        act = TorusAction6(a=(1, 1, 1), b=(1, 1, 1), p=(0, 0, 0), q=(0, 0, 0))
        with pytest.raises(ValueError):
            effectivize(act)


class TestCohom1Tables:
    # expected vertex orders in VERTEX_ORDER = (id, (12), (13), (123), (132), (23))
    # and nontrivial edge orders, per second-circle case and parameter d
    CASES = {
        "ii": (
            lambda d: ((0, -1, 1), (0, 0, 0)),
            lambda d: (1, 1, d + 1, 1, d + 1, 1),
            lambda d: {(1, 3): d + 1},
        ),
        "iii": (
            lambda d: ((0, 1, 1), (2, 0, 0)),
            lambda d: (3, 1, d + 1, 1, d + 1, 2 * d + 1),
            lambda d: {
                (2, 2): gcd(3, d + 1),
                (1, 1): gcd(3, 2 * d + 1),
                (1, 3): gcd(2, d + 1),
            },
        ),
        "iv": (
            lambda d: ((0, 1, 1), (0, 0, 2)),
            lambda d: (1, 1, d - 1, 1, d - 1, 1),
            lambda d: {(1, 3): d - 1},
        ),
        "v": (
            lambda d: ((0, d - 1, 0), (1, d - 1, -1)),
            lambda d: (1, 2 * d - 3, 1, d * d - d - 1, d * d - d - 1, 1),
            lambda d: {},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_family_tables(self, case):
        weights, vertices, edges = self.CASES[case]
        for d in range(3, 13):
            a, b = weights(d)
            tab = cohom1_tables(cohom1_params(d, a, b))
            assert tab.vertex_orders == vertices(d)
            expected_edges = edges(d)
            for e in EDGE_ORDER:
                assert tab.edge_orders[e] == expected_edges.get(e, 1)

    def test_matches_structural_report(self):
        rng = random.Random(59)
        checked = 0
        while checked < 40:
            d = rng.randint(3, 8)
            a = tuple(rng.randint(-4, 4) for _ in range(3))
            b2 = [rng.randint(-4, 4) for _ in range(2)]
            b = (b2[0], b2[1], sum(a) - sum(b2))
            try:
                tab = cohom1_tables(cohom1_params(d, a, b))
            except ValueError:
                continue
            act = cohom1_params(d, a, b).action()
            for i, sigma in enumerate(VERTEX_ORDER):
                assert gamma6(act, sigma).order == tab.vertex_orders[i]
            checked += 1


class TestFamilyClassification:
    def test_two_singular_points_joined(self):
        rep = classify_family_member(5, (0, -1, 1), (0, 0, 0))
        sing = rep.report.singular_vertices()
        assert set(sing) == {SWAP_13, CYCLE_132}
        assert all(g.order == 6 for g in sing.values())
        assert any("joined by a singular 2-sphere" in n for n in rep.notes)

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            classify_family_member(2, (0, -1, 1), (0, 0, 0))

    def test_nonempty_locus_random(self):
        rng = random.Random(61)
        checked = 0
        while checked < 60:
            d = rng.randint(3, 8)
            a = tuple(rng.randint(-4, 4) for _ in range(3))
            b2 = [rng.randint(-4, 4) for _ in range(2)]
            b = (b2[0], b2[1], sum(a) - sum(b2))
            try:
                rep = classify_family_member(d, a, b)
            except ValueError:
                continue
            assert rep.report.singular_vertices() or rep.report.singular_edges()
            checked += 1


class TestEffectivizeCohom1:
    def test_results_are_effective(self):
        rng = random.Random(67)
        checked = 0
        while checked < 60:
            d = rng.randint(3, 8)
            a = tuple(rng.randint(-5, 5) for _ in range(3))
            b2 = [rng.randint(-5, 5) for _ in range(2)]
            b = (b2[0], b2[1], sum(a) - sum(b2))
            try:
                na, nb = effectivize_cohom1(d, a, b)
            except ValueError:
                continue
            act = TorusAction6(a=na, b=nb, p=(1, 1, d), q=(0, 0, d + 2))
            assert kernel_of_action(act).is_trivial
            checked += 1

    def test_preserves_quotient(self):
        # scaling the second circle by 3 is undone by effectivization
        d = 4
        a, b = (0, 1, 1), (2, 0, 0)
        base = cohom1_params(d, a, b).action()
        a3 = tuple(3 * x for x in a)
        b3 = tuple(3 * x for x in b)
        na, nb = effectivize_cohom1(d, a3, b3)
        act = TorusAction6(a=na, b=nb, p=(1, 1, d), q=(0, 0, d + 2))
        assert singular_report(act).group_multiset() == singular_report(base).group_multiset()

    @staticmethod
    def _outcome(d, a, b):
        """(result or exception type) of the implementation and the scan."""
        out = []
        for f in (effectivize_cohom1, effectivize_cohom1_scan):
            try:
                out.append(f(d, a, b))
            except (ValueError, RuntimeError) as exc:
                out.append(type(exc))
        return out

    @given(
        st.integers(0, 8),
        st.lists(st.integers(-5, 5), min_size=5, max_size=5),
        st.integers(1, 12),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    def test_matches_scan(self, d, w, k, shear, shift):
        # plant a kernel of order k: scale a second circle by k, then shear
        # it by the first circle p = (1,1,d), q = (0,0,d+2) and shift
        a0 = (w[0], w[1], w[2])
        b0 = (w[3], w[4], sum(a0) - w[3] - w[4])
        a = tuple(k * x + shear * y + shift for x, y in zip(a0, (1, 1, d)))
        b = tuple(k * x + shear * y + shift for x, y in zip(b0, (0, 0, d + 2)))
        impl, ref = self._outcome(d, a, b)
        assert impl == ref

    def test_thirty_digit_kernel(self):
        # a kernel of order about 10^30 that a scan over r could not finish
        d, k = 4, 10**30 + 7
        a, b = (0, 1, 1), (2, 0, 0)
        base = cohom1_params(d, a, b).action()
        ak = tuple(k * x + 3 * y for x, y in zip(a, (1, 1, d)))
        bk = tuple(k * x + 3 * y for x, y in zip(b, (0, 0, d + 2)))
        assert not kernel_of_action(cohom1_params(d, ak, bk).action()).is_trivial
        na, nb = effectivize_cohom1(d, ak, bk)
        act = TorusAction6(a=na, b=nb, p=(1, 1, d), q=(0, 0, d + 2))
        assert kernel_of_action(act).is_trivial
        assert singular_report(act).group_multiset() == singular_report(base).group_multiset()
