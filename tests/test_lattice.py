"""Exact integer/rational kernel tests against brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from su3orbifolds.lattice import (
    AbelianGroup2,
    TRIVIAL_GROUP,
    _solution_lattice,
    feasibility,
    kernel_elements,
    kernel_generator,
    kernel_group,
    snf2,
    snf2x2,
)

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
        rows = [(a, b), (0, c)]
        d1, d2, t = _solution_lattice(rows)
        assert d2 % d1 == 0
        assert (d1, d2) == snf2(rows)
        # the solutions of M x in Z^2 are exactly T (k/d1, l/d2)
        assert _det(t) in (1, -1)
        for r in rows:
            assert (r[0] * t[0][0] + r[1] * t[1][0]) % d1 == 0
            assert (r[0] * t[0][1] + r[1] * t[1][1]) % d2 == 0


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


class TestKernelElements:
    def test_all_elements_lie_in_kernel(self):
        rng = random.Random(21)
        for _ in range(40):
            rows = [
                (rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 3))
            ]
            g = kernel_group(rows)
            if not g.is_finite:
                continue
            elems = kernel_elements(rows)
            assert len(elems) == g.order
            assert len(set(elems)) == g.order
            for u, s in elems:
                for r1, r2 in rows:
                    assert (r1 * u + r2 * s) % 1 == 0


class TestFeasibility:
    def test_trivial_equality(self):
        w = feasibility([(Fraction(0),) * 5])
        assert w is not None
        assert sum(w.eta) == 1 and all(e >= 0 for e in w.eta)
        assert 0 <= w.t <= 1

    def test_forced_half_t(self):
        # 2(1-t) = eta2 + eta3 and 0 = eta1 + eta2 forces t=1/2, eta=(0,0,1)
        eqs = [
            (Fraction(2), Fraction(-2), Fraction(0), Fraction(-1), Fraction(-1)),
            (Fraction(0), Fraction(0), Fraction(-1), Fraction(-1), Fraction(0)),
        ]
        w = feasibility(eqs)
        assert w is not None
        assert w.t == Fraction(1, 2)
        assert w.eta == (Fraction(0), Fraction(0), Fraction(1))

    def test_interval_separation_infeasible(self):
        # (1-t)*2 + 3t in [2,3] while the eta side stays in [0,1]
        eqs = [
            (Fraction(2), Fraction(1), Fraction(0), Fraction(-1), Fraction(-1)),
        ]
        assert feasibility(eqs) is None

    def test_witness_satisfies_equalities(self):
        rng = random.Random(3)
        for _ in range(200):
            eqs = [
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(5))
                for _ in range(rng.randint(1, 3))
            ]
            w = feasibility(eqs)
            if w is None:
                continue
            assert 0 <= w.t <= 1
            assert all(e >= 0 for e in w.eta) and sum(w.eta) == 1
            for c0, ct, c1, c2, c3 in eqs:
                val = c0 + ct * w.t + sum(c * e for c, e in zip((c1, c2, c3), w.eta))
                assert val == 0

    def test_grid_oracle_agreement(self):
        rng = random.Random(17)
        for _ in range(60):
            eqs = [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(5))
                for _ in range(2)
            ]
            exact = feasibility(eqs)
            if grid_feasible(eqs):
                assert exact is not None
            if exact is None:
                assert not grid_feasible(eqs)
