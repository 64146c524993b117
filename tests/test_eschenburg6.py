"""Tests for the 6-dimensional torus-quotient singular-locus analysis."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

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
    """Random valid (orbifold, finite-kernel) torus action."""
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
        if not kernel_of_action(act).is_finite:
            continue
        return act


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
    # random unimodular matrix from shears
    m = [[1, 0], [0, 1]]
    for _ in range(3):
        s = rng.randint(-2, 2)
        if rng.random() < 0.5:
            m[0] = [m[0][0] + s * m[1][0], m[0][1] + s * m[1][1]]
        else:
            m[1] = [m[1][0] + s * m[0][0], m[1][1] + s * m[0][1]]
    return GL2Z((tuple(m[0]), tuple(m[1])))


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

    def test_torsion_oracle(self):
        rng = random.Random(37)
        for _ in range(60):
            act = _random_action6(rng)
            sigma = rng.choice(ALL_PERMS)
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

    def test_torsion_oracle(self):
        rng = random.Random(43)
        for _ in range(40):
            act = _random_action6(rng)
            e = EDGE_ORDER[rng.randrange(len(EDGE_ORDER))]
            group, (sigma, tau) = lgroup6(act, *e)
            rows = _stabilizer_rows(act, sigma) + _stabilizer_rows(act, tau)
            assert torsion_profile_matches(rows, group.d1, group.d2)

    def test_unknown_stratum_raises(self):
        act = TorusAction6(a=(1, 2, 0), b=(0, 0, 3), p=(0, 1, 1), q=(2, 0, 0))
        with pytest.raises(ValueError):
            lgroup6(act, 4, 1)


class TestSingularReport:
    def test_multiset_move_invariance(self):
        rng = random.Random(47)
        for _ in range(50):
            act = _random_action6(rng)
            base = singular_report(act).group_multiset()
            cur = act
            for _ in range(rng.randint(1, 4)):
                cur = apply_equivalence(cur, _random_move(rng))
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
