"""Tests for weighted projective planes, Wu-manifold quotients, and the
constant 5-dimensional quotient descriptor."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from su3orbifolds.lattice import AbelianGroup2
from su3orbifolds.special import (
    NotPrimitiveError,
    ZeroWeightError,
    o5_descriptor,
    weighted_cp,
    wu_quotient,
)


class TestWeightedCP:
    def test_unweighted(self):
        assert weighted_cp(1, 1, 1).weights == (1, 1, 1)

    def test_basic_weighted(self):
        assert weighted_cp(1, 1, 3).weights == (2, 2, 1)

    def test_zero_pairwise_sum(self):
        with pytest.raises(ZeroWeightError):
            weighted_cp(1, 1, -1)

    def test_non_primitive(self):
        with pytest.raises(NotPrimitiveError):
            weighted_cp(2, 4, 6)

    def test_output_invariants_random(self):
        rng = random.Random(103)
        checked = 0
        while checked < 100:
            p, q, r = (rng.randint(-9, 9) for _ in range(3))
            try:
                w = weighted_cp(p, q, r).weights
            except (ZeroWeightError, NotPrimitiveError):
                continue
            # independent recomputation of the pairwise-sum formula
            raw = sorted((abs(q + r), abs(p + r), abs(p + q)), reverse=True)
            g = gcd(gcd(raw[0], raw[1]), raw[2])
            assert w == tuple(x // g for x in raw)
            assert all(x > 0 for x in w)
            assert gcd(gcd(w[0], w[1]), w[2]) == 1
            checked += 1

    def test_permutation_and_sign_invariance(self):
        rng = random.Random(107)
        checked = 0
        while checked < 60:
            p, q, r = (rng.randint(-9, 9) for _ in range(3))
            try:
                base = weighted_cp(p, q, r).weights
            except (ZeroWeightError, NotPrimitiveError):
                continue
            perm = [p, q, r]
            rng.shuffle(perm)
            assert weighted_cp(*perm).weights == base
            assert weighted_cp(-p, -q, -r).weights == base
            checked += 1


class TestWuQuotient:
    def test_weight_2_1(self):
        rep = wu_quotient(2, 1)
        assert rep.valid
        assert rep.isolated_points == (3,)
        assert rep.rp2.generic_order == 2
        assert rep.rp2.distinguished_point_order == 2
        assert not rep.rp2.larger

    def test_weight_1_1(self):
        rep = wu_quotient(1, 1)
        assert rep.valid
        assert rep.isolated_points == ()
        assert rep.rp2.distinguished_point_order == 2

    def test_weight_3_1(self):
        rep = wu_quotient(3, 1)
        assert rep.valid
        assert rep.isolated_points == (3,)
        assert rep.rp2.distinguished_point_order == 4
        assert rep.rp2.larger

    def test_weight_5_2(self):
        rep = wu_quotient(5, 2)
        assert rep.valid
        assert rep.isolated_points == (5, 7)
        assert rep.rp2.distinguished_point_order == 2

    def test_weight_3_2(self):
        rep = wu_quotient(3, 2)
        assert rep.isolated_points == (3, 5)
        assert rep.rp2.distinguished_point_order == 2

    def test_zero_weight_invalid(self):
        rep = wu_quotient(1, 0)
        assert not rep.valid

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            wu_quotient(4, 2)

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            wu_quotient(1, 2)

    @pytest.mark.parametrize("p, q", [(3.9, 1), (3, 1.0), (Fraction(7, 2), 1), ("3", 1)])
    def test_non_integer_rejected(self, p, q):
        # int() would answer 3.9 for p = 3
        with pytest.raises(ValueError, match="^weights must be integers"):
            wu_quotient(p, q)

    def test_parity_structure_random(self):
        rng = random.Random(109)
        checked = 0
        while checked < 80:
            q = rng.randint(1, 20)
            p = rng.randint(q, 25)
            if gcd(p, q) != 1:
                continue
            rep = wu_quotient(p, q)
            # exactly one of p, q, p+q is even; it decorates the RP^2 point
            evens = [o for o in (p, q, p + q) if o % 2 == 0]
            assert len(evens) == 1
            assert rep.rp2.distinguished_point_order == evens[0]
            assert rep.isolated_points == tuple(
                sorted(o for o in (p, q, p + q) if o > 1 and o % 2 == 1)
            )
            checked += 1


class TestO5Descriptor:
    def test_constant_descriptor(self):
        d = o5_descriptor()
        assert d.locus == "circle"
        assert d.locus_dimension == 1
        assert d.group == AbelianGroup2(1, 3)
        assert d.group.order == 3 and d.group.is_cyclic
        assert d.normal_link == "L(3;1)"
