"""Tests for the 7-dimensional circle-quotient analysis."""

from __future__ import annotations

import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from su3orbifolds.eschenburg7 import (
    ALL_PERMS,
    IDENTITY,
    CircleAction7,
    Validity,
    almost_positive7,
    cohom1_match,
    gamma7,
    permute,
    positive7,
    validate7,
)

from test_eschenburg6 import HUGE


def _random_action(rng, span=6):
    while True:
        p = tuple(rng.randint(-span, span) for _ in range(3))
        q = [rng.randint(-span, span) for _ in range(2)]
        q.append(sum(p) - sum(q))
        if abs(q[2]) <= 3 * span:
            return CircleAction7(p=p, q=tuple(q))


@st.composite
def circle_actions7(draw, entries):
    """Circle actions with entries drawn from `entries`, q not a
    permutation of p; the first entry of q is often an entry of p, as the
    chains of almost_positive7 need."""
    p = draw(st.tuples(entries, entries, entries))
    q0, q1 = draw(st.sampled_from(p) | entries), draw(entries)
    q = (q0, q1, sum(p) - q0 - q1)
    assume(sorted(p) != sorted(q))
    return CircleAction7(p=p, q=q)


CIRCLE_ACTIONS = circle_actions7(st.integers(-6, 6)) | circle_actions7(HUGE | st.integers(-6, 6))


class TestValidate7:
    def test_free_manifold(self):
        assert validate7(CircleAction7(p=(1, 1, 0), q=(0, 0, 2))) is Validity.FREE_MANIFOLD

    def test_orbifold(self):
        assert validate7(CircleAction7(p=(0, 0, 1), q=(2, 4, -5))) is Validity.ORBIFOLD

    def test_not_orbifold_on_permutation(self):
        assert validate7(CircleAction7(p=(1, 2, 3), q=(3, 1, 2))) is Validity.NOT_ORBIFOLD

    def test_rejects_unbalanced_sums(self):
        with pytest.raises(ValueError):
            CircleAction7(p=(1, 1, 1), q=(0, 0, 1))


class TestGamma7:
    def test_identity_vertex_order_two(self):
        act = CircleAction7(p=(0, 0, 1), q=(2, 4, -5))
        g = gamma7(act, IDENTITY)
        assert g.is_cyclic and g.order == 2

    def test_free_action_trivial(self):
        act = CircleAction7(p=(1, 1, 0), q=(0, 0, 2))
        assert gamma7(act, IDENTITY).is_trivial

    def test_common_factor(self):
        act = CircleAction7(p=(3, 3, -6), q=(0, 0, 0))
        assert gamma7(act, IDENTITY).order == 3

    def test_degenerate_raises(self):
        # q = p after applying the matching permutation, so that vertex
        # has an infinite stabilizer
        from su3orbifolds.eschenburg7 import CYCLE_123

        act = CircleAction7(p=(1, 2, 3), q=(3, 1, 2))
        with pytest.raises(ValueError):
            gamma7(act, CYCLE_123)

    def test_matches_gcd_formula(self):
        rng = random.Random(4)
        for _ in range(200):
            act = _random_action(rng)
            if validate7(act) is Validity.NOT_ORBIFOLD:
                continue
            for sigma in ALL_PERMS:
                qs = permute(act.q, sigma)
                expected = abs(gcd(act.p[0] - qs[0], act.p[1] - qs[1]))
                assert gamma7(act, sigma).order == expected

    def test_free_iff_all_trivial(self):
        rng = random.Random(8)
        for _ in range(200):
            act = _random_action(rng)
            v = validate7(act)
            if v is Validity.NOT_ORBIFOLD:
                continue
            trivial = all(gamma7(act, s).is_trivial for s in ALL_PERMS)
            assert trivial == (v is Validity.FREE_MANIFOLD)


class TestPositive7:
    def test_cohom1_d3_positive(self):
        assert positive7(CircleAction7(p=(1, 1, 3), q=(0, 0, 5)))

    def test_e0_not_positive(self):
        assert not positive7(CircleAction7(p=(1, 1, 0), q=(0, 0, 2)))

    def test_example_circle_positive(self):
        assert positive7(CircleAction7(p=(0, 0, 2), q=(-1, -1, 4)))

    def test_shift_invariance(self):
        rng = random.Random(15)
        for _ in range(150):
            act = _random_action(rng)
            if validate7(act) is Validity.NOT_ORBIFOLD:
                continue
            c = rng.randint(-4, 4)
            shifted = CircleAction7(
                p=tuple(x + c for x in act.p), q=tuple(x + c for x in act.q)
            )
            assert positive7(act) == positive7(shifted)


class TestAlmostPositive7:
    def test_chain_match(self):
        assert almost_positive7(CircleAction7(p=(1, 2, 3), q=(0, 1, 5)))

    def test_cohom1_family_not_matching(self):
        assert not almost_positive7(CircleAction7(p=(1, 1, 3), q=(0, 0, 5)))

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            almost_positive7(CircleAction7(p=(1, 2, 3), q=(3, 1, 2)))

    @settings(max_examples=300, deadline=None)
    @given(CIRCLE_ACTIONS)
    def test_swap_invariance(self, act):
        assert almost_positive7(act) == almost_positive7(CircleAction7(p=act.q, q=act.p))

    @settings(max_examples=300, deadline=None)
    @given(CIRCLE_ACTIONS)
    def test_negation_invariance(self, act):
        negated = CircleAction7(p=tuple(-x for x in act.p), q=tuple(-x for x in act.q))
        assert almost_positive7(act) == almost_positive7(negated)


class TestCohom1Match:
    def test_normal_form(self):
        assert cohom1_match(CircleAction7(p=(1, 1, 3), q=(0, 0, 5))) == 3

    def test_shifted_form(self):
        assert cohom1_match(CircleAction7(p=(2, 2, 4), q=(1, 1, 6))) == 3

    def test_non_member(self):
        assert cohom1_match(CircleAction7(p=(0, 0, 1), q=(2, 4, -5))) is None

    def test_swapped_and_permuted(self):
        act = CircleAction7(p=(0, 5, 0), q=(3, 1, 1))
        assert cohom1_match(act) == 3
