"""Exact integer/rational kernel tests against brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from su3orbifolds.lattice import (
    AbelianGroup2,
    TRIVIAL_GROUP,
    feasibility,
    kernel_generator,
    kernel_group,
    snf2,
    snf2x2,
)

from oracles import feasibility as reference_feasibility, grid_feasible, torsion_profile_matches


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


FLAT_SMALL = st.integers(-6, 6)
FLAT_HUGE = st.integers(10**29, 10**40 - 1) | st.integers(-(10**40 - 1), -(10**29))


@st.composite
def flat_systems(draw, entries):
    """The flat-plane equalities (1-t)B1 + t*B2 = sum(eta_i A_i) of
    curvature.flat_witness, for points A_i = (a_i, p_i) and B_j = (b_j, q_j)
    with equal coordinate sums.  A third of the draws put B3 at the
    centroid of the triangle conv{A_i}, a third put a point of the
    triangle on the segment [B1, B2]; both are feasible."""
    pair = st.tuples(entries, entries)
    x = [draw(pair) for _ in range(3)]
    b1 = draw(pair)
    plant = draw(st.sampled_from(("none", "centroid", "segment")))
    if plant == "none":
        a, b2 = x, draw(pair)
    elif plant == "centroid":
        a = [(3 * u, 3 * v) for u, v in x]
        b3 = (sum(u for u, _ in x), sum(v for _, v in x))
        b2 = tuple(sum(c) - s - t for c, s, t in zip(zip(*a), b1, b3))
    else:
        w = draw(st.tuples(*[st.integers(0, 3)] * 3).filter(any))
        a = [(sum(w) * u, sum(w) * v) for u, v in x]
        pt = tuple(sum(wi * c for wi, c in zip(w, col)) for col in zip(*x))
        k = draw(st.integers(1, 4))  # pt = (1 - 1/k) B1 + (1/k) B2
        b2 = tuple(s + k * (c - s) for s, c in zip(b1, pt))
    return [
        (b1[i], b2[i] - b1[i], -a[0][i], -a[1][i], -a[2][i]) for i in range(2)
    ]


@st.composite
def tie_heavy_systems(draw):
    """Small systems of repeated and rescaled rows over {-2, ..., 2}, where
    the ratio test ties often and Bland's rule decides the pivot."""
    base = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 5), min_size=1, max_size=3))
    picks = st.tuples(st.sampled_from(base), st.sampled_from((1, -1, 2)))
    return [tuple(r * c for c in row) for row, r in draw(st.lists(picks, min_size=1, max_size=5))]


class TestFeasibility:
    @settings(max_examples=400, deadline=None)
    @given(flat_systems(FLAT_SMALL) | flat_systems(FLAT_HUGE) | tie_heavy_systems())
    def test_equals_full_tableau_reference(self, eqs):
        assert feasibility(eqs) == reference_feasibility(eqs)

    def test_zero_row(self):
        assert feasibility([(1, 0, 0, 0, 0)]) is None
        assert feasibility([(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)]) is None

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
