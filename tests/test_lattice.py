"""Exact integer kernel tests against brute-force oracles."""

from __future__ import annotations

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from su3orbifolds.lattice import (
    AbelianGroup2,
    TRIVIAL_GROUP,
    kernel_generator,
    kernel_group,
    snf2,
    snf2x2,
)

from su3orbifolds.curvature import flat_witness
from su3orbifolds.eschenburg6 import TorusAction6, Validity, validate6

from oracles import grid_feasible, torsion_profile_matches


class TestSnf2:
    def test_identity(self):
        assert snf2([(1, 0), (0, 1)]) == (1, 1)

    def test_noncyclic_example(self):
        assert snf2([(-2, -2), (-2, -4)]) == (2, 2)

    def test_diagonal_mixed(self):
        assert snf2([(2, 0), (0, 3)]) == (1, 6)

    def test_rank_one(self):
        assert snf2([(1, 1)]) == (1, 0)

    def test_zero_matrix(self):
        assert snf2([(0, 0)]) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(-3, 3), st.booleans()), min_size=3, max_size=3),
        st.data(),
    )
    def test_unimodular_invariance(self, rows, shears, data):
        base = snf2(rows)
        # left-multiply by a unimodular matrix built from shears
        a, b, c, d = 1, 0, 0, 1
        for s, first_row in shears:
            if first_row:
                a, b = a + s * c, b + s * d
            else:
                c, d = c + s * a, d + s * b
        if len(rows) == 2:
            mixed = [
                (a * rows[0][0] + b * rows[1][0], a * rows[0][1] + b * rows[1][1]),
                (c * rows[0][0] + d * rows[1][0], c * rows[0][1] + d * rows[1][1]),
            ]
            assert snf2(mixed) == base
        assert snf2(data.draw(st.permutations(rows))) == base


SMALL = st.integers(-12, 12)
HUGE = st.integers(10**29, 10**40 - 1) | st.integers(-(10**40 - 1), -(10**29))
ENTRIES = SMALL | HUGE | st.just(0)  # 30-40 digit entries, mixed with small ones
MATRICES = st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=2, max_size=2)
POSITIVE = st.integers(1, 12) | st.integers(10**29, 10**40 - 1)


def _matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


class TestSnf2x2:
    @given(MATRICES)
    def test_factorization_property(self, m):
        u, d, v = snf2x2(m)
        assert d[0][1] == 0 and d[1][0] == 0
        assert _det(u) in (1, -1) and _det(v) in (1, -1)
        assert _matmul(_matmul(u, d), v) == m

    @given(POSITIVE, SMALL | HUGE, POSITIVE)
    def test_smith_completion(self, a, b, c):
        # kernel_generator completes the Smith form of the Hermite basis
        rows = [(a, b), (0, c)]
        _d1, d2 = snf2(rows)
        gen = kernel_generator(rows)
        if d2 == 1:
            assert gen is None
            return
        k, l, n = gen
        assert n == d2
        assert gcd(k, l) == 1
        for r in rows:
            assert (r[0] * k + r[1] * l) % n == 0


class TestKernelGroup:
    def test_paper_noncyclic(self):
        assert kernel_group([(-2, -2), (-2, -4)]) == AbelianGroup2(2, 2)

    def test_identity_trivial(self):
        assert kernel_group([(1, 0), (0, 1)]) == TRIVIAL_GROUP

    def test_rank_one_infinite(self):
        g = kernel_group([(1, 1)])
        assert not g.is_finite
        # all-zero rows leave two infinite factors; rank one keeps d1
        assert kernel_group([(0, 0), (0, 0)]) == AbelianGroup2(0, 0)
        assert kernel_group([(2, 4), (-4, -8)]) == AbelianGroup2(2, 0)

    def test_oracle_profile_random(self):
        rng = random.Random(5)
        for _ in range(120):
            rows = [
                (rng.randint(-6, 6), rng.randint(-6, 6))
                for _ in range(rng.randint(1, 4))
            ]
            g = kernel_group(rows)
            assert torsion_profile_matches(rows, g.d1, g.d2)

    def test_generator_consistency(self):
        rng = random.Random(13)
        for _ in range(80):
            rows = [
                (rng.randint(-5, 5), rng.randint(-5, 5))
                for _ in range(rng.randint(1, 3))
            ]
            g = kernel_group(rows)
            if not g.is_finite:
                with pytest.raises(ValueError):
                    kernel_generator(rows)
                continue
            gen = kernel_generator(rows)
            if g.is_trivial:
                assert gen is None
                continue
            k, l, n = gen
            assert n == g.d2
            # the generator really lies in the kernel
            for r1, r2 in rows:
                assert (r1 * k + r2 * l) % n == 0


def _flat_action(eqs):
    # the torus action whose Condition 1 rows are the two equalities
    # (c0, ct, c1, c2, c3), c0 + ct*t + c1*eta1 + c2*eta2 + c3*eta3 = 0;
    # the third weights come from the sum conditions
    (c0, ct, *c), (d0, dt, *d) = eqs
    a = tuple(-x for x in c)
    p = tuple(-x for x in d)
    b = (c0, c0 + ct, sum(a) - 2 * c0 - ct)
    q = (d0, d0 + dt, sum(p) - 2 * d0 - dt)
    return TorusAction6(a=a, b=b, p=p, q=q)


def _random_flat_systems(seed, bound, count):
    # orbifold actions only: flat_witness rejects the rest
    rng = random.Random(seed)
    for _ in range(count):
        eqs = [tuple(rng.randint(-bound, bound) for _ in range(5)) for _ in range(2)]
        act = _flat_action(eqs)
        if validate6(act) is Validity.ORBIFOLD:
            yield eqs, act


class TestFeasibility:
    """The flat-plane system, which curvature.flat_witness solves, drawn
    as generic integer equalities and written as the action they encode."""

    def test_zero_row(self):
        # a row with no coefficients and a nonzero constant is infeasible,
        # in either position and with either sign
        nonzero = (-3, 1, 3, 3, 0)
        for zero in ((1, 0, 0, 0, 0), (-2, 0, 0, 0, 0)):
            for eqs in ([zero, nonzero], [nonzero, zero]):
                act = _flat_action(eqs)
                assert validate6(act) is Validity.ORBIFOLD
                assert flat_witness(act) is None

    def test_witness_satisfies_equalities(self):
        hits = 0
        for eqs, act in _random_flat_systems(3, 4, 200):
            w = flat_witness(act)
            if w is None:
                continue
            assert 0 <= w.t <= 1
            assert all(e >= 0 for e in w.eta) and sum(w.eta) == 1
            for c0, ct, c1, c2, c3 in eqs:
                val = c0 + ct * w.t + sum(c * e for c, e in zip((c1, c2, c3), w.eta))
                assert val == 0
            hits += 1
        assert hits > 10

    def test_grid_oracle_agreement(self):
        for eqs, act in _random_flat_systems(17, 3, 60):
            exact = flat_witness(act)
            if grid_feasible(eqs):
                assert exact is not None
            if exact is None:
                assert not grid_feasible(eqs)
