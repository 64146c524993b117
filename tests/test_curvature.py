"""Tests for the exact positive-curvature decision and circle search."""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from su3orbifolds import curvature
from su3orbifolds.curvature import (
    CircleCombo,
    ExhaustedBound,
    FlatWitness,
    find_circle,
    flat_witness,
    repar_normal_form,
    search_circle,
)
from su3orbifolds.eschenburg6 import (
    GL2Z,
    Scale,
    Shift,
    TorusAction6,
    apply_equivalence,
    validate6,
)
from su3orbifolds.eschenburg7 import Validity, positive7
from oracles import (
    circle_candidates,
    condition1_system,
    condition2_system,
    feasibility as reference_feasibility,
    grid_feasible,
)
from test_eschenburg6 import HUGE, _random_action6


EXAMPLE = TorusAction6(a=(-2, 0, 2), b=(-3, 1, 2), p=(-4, 0, 2), q=(-5, 3, 0))


def _check_witness(act, w):
    """The witness really solves the paper's Condition 1."""
    assert w.kind == "Condition1"
    assert all(e >= 0 for e in w.eta) and sum(w.eta) == 1
    assert 0 <= w.t <= 1
    for c0, ct, c1, c2, c3 in condition1_system(act):
        assert c0 + ct * w.t + sum(c * e for c, e in zip((c1, c2, c3), w.eta)) == 0


@st.composite
def centroid_actions6(draw, entries):
    """Torus actions with entries drawn from `entries`.  In half the draws
    B3 = (b3, q3) is the centroid of the triangle conv{(a_i, p_i)}, so the
    paper's Condition 2 holds."""
    a, p = draw(st.tuples(entries, entries, entries)), draw(st.tuples(entries, entries, entries))
    b0, b1, q0, q1 = draw(st.tuples(entries, entries, entries, entries))
    if draw(st.booleans()):
        a = (a[0], a[1], 3 * b1 - a[0] - a[1])
        p = (p[0], p[1], 3 * q1 - p[0] - p[1])
        b1, q1 = 2 * b1 - b0, 2 * q1 - q0
    b, q = (b0, b1, sum(a) - b0 - b1), (q0, q1, sum(p) - q0 - q1)
    return TorusAction6(a=a, b=b, p=p, q=q)


@st.composite
def flat_actions(draw, entries):
    """Torus actions with points A_i = (a_i, p_i), B_1 and B_2 drawn from
    `entries` and B_3 = sum(A_i) - B_1 - B_2.  A quarter of the draws put
    B_3 at the centroid of the triangle conv{A_i} and a quarter put a
    point of the triangle on the segment [B_1, B_2]; both are flat.  The
    last quarter sets one coordinate of every A_i to 0 and B_1 = B_2 there,
    so that flat-plane row has no coefficients."""
    pair = st.tuples(entries, entries)
    x = [draw(pair) for _ in range(3)]
    b1 = draw(pair)
    plant = draw(st.sampled_from(("none", "centroid", "segment", "zero_row")))
    if plant == "centroid":
        a = [(3 * u, 3 * v) for u, v in x]
        b3 = (sum(u for u, _ in x), sum(v for _, v in x))
        b2 = tuple(sum(c) - s - t for c, s, t in zip(zip(*a), b1, b3))
    elif plant == "segment":
        w = draw(st.tuples(*[st.integers(0, 3)] * 3).filter(any))
        a = [(sum(w) * u, sum(w) * v) for u, v in x]
        pt = tuple(sum(wi * c for wi, c in zip(w, col)) for col in zip(*x))
        k = draw(st.integers(1, 4))  # pt = (1 - 1/k) B1 + (1/k) B2
        b2 = tuple(s + k * (c - s) for s, c in zip(b1, pt))
    elif plant == "zero_row":
        i = draw(st.sampled_from((0, 1)))
        a = [tuple(0 if j == i else c for j, c in enumerate(u)) for u in x]
        b2 = tuple(b1[i] if j == i else c for j, c in enumerate(draw(pair)))
    else:
        a, b2 = x, draw(pair)
    b3 = tuple(sum(c) - s - t for c, s, t in zip(zip(*a), b1, b2))
    (a1, p1), (a2, p2), (a3, p3) = a
    return TorusAction6(
        a=(a1, a2, a3), b=(b1[0], b2[0], b3[0]), p=(p1, p2, p3), q=(b1[1], b2[1], b3[1])
    )


class TestFlatWitness:
    def test_example_positively_curved(self):
        assert flat_witness(EXAMPLE) is None

    def test_zero_flat_row(self):
        # b1 = b2 = 1 with a = 0: the first flat-plane equality reads 1 = 0
        act = TorusAction6(a=(0, 0, 0), b=(1, 1, -2), p=(-3, -3, 0), q=(-3, -2, -1))
        assert flat_witness(act) is None

    def test_not_orbifold_raises(self):
        act = TorusAction6(a=(0, 0, 0), b=(0, 0, 0), p=(1, 2, 3), q=(1, 2, 3))
        with pytest.raises(ValueError):
            flat_witness(act)

    def test_witness_is_exact(self):
        rng = random.Random(71)
        hits = 0
        for _ in range(150):
            act = _random_action6(rng)
            w = flat_witness(act)
            if w is None:
                continue
            _check_witness(act, w)
            hits += 1
        assert hits > 10

    def test_grid_oracle_agreement(self):
        rng = random.Random(73)
        for _ in range(60):
            act = _random_action6(rng)
            w = flat_witness(act)
            hit = grid_feasible(condition1_system(act)) or grid_feasible(condition2_system(act))
            if hit:
                assert w is not None
            if w is None:
                assert not hit

    @settings(max_examples=400, deadline=None)
    @given(flat_actions(st.integers(-2, 2)) | flat_actions(HUGE))
    def test_equals_full_tableau_reference(self, act):
        # witness for witness: every pivot and Bland tie-break of the
        # simplex agrees with the full-tableau solver; [-2, 2] makes ties
        # in the ratio test frequent
        assume(validate6(act) is Validity.ORBIFOLD)
        w = flat_witness(act)
        assert (None if w is None else (w.t, w.eta)) == reference_feasibility(
            condition1_system(act)
        )

    @settings(max_examples=300, deadline=None)
    @given(flat_actions(st.integers(-2, 2)), st.integers(10**29, 10**40 - 1))
    def test_scaled_by_huge_factor(self, act, k):
        # scaling every weight by k > 0 scales each flat-plane row, so the
        # LP and Bland's path are the same; at 40 digits the ratio-test ties
        # of [-2, 2] are decided by cross-multiplied 40-digit products.  A
        # negative k would flip the sign of a row with zero right-hand side,
        # which changes the tableau and may change the path.
        assume(validate6(act) is Validity.ORBIFOLD)
        big = TorusAction6(*([k * x for x in w] for w in (act.a, act.b, act.p, act.q)))
        w = flat_witness(big)
        assert w == flat_witness(act)
        assert (None if w is None else (w.t, w.eta)) == reference_feasibility(
            condition1_system(big)
        )

    def test_forced_half_t(self):
        # 2(1-t) = eta2 + eta3 and 0 = eta1 + eta2 force t = 1/2, eta = (0, 0, 1)
        act = TorusAction6(a=(0, 1, 1), b=(2, 0, 0), p=(1, 1, 0), q=(0, 0, 2))
        w = flat_witness(act)
        assert (w.t, w.eta) == (Fraction(1, 2), (Fraction(0), Fraction(0), Fraction(1)))

    def test_interval_separation_infeasible(self):
        # (1-t)*2 + 3t lies in [2, 3] while eta2 + eta3 stays in [0, 1]
        act = TorusAction6(a=(0, 1, 1), b=(2, 3, -3), p=(0, 0, 1), q=(0, -1, 2))
        assert flat_witness(act) is None

    def test_witness_postcondition(self):
        with pytest.raises(ValueError):
            FlatWitness("Condition1", Fraction(3, 2), (Fraction(1), Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            FlatWitness("Condition1", Fraction(0), (Fraction(1), Fraction(1), Fraction(-1)))

    @settings(max_examples=300, deadline=None)
    @given(centroid_actions6(st.integers(-4, 4)) | centroid_actions6(HUGE | st.integers(-4, 4)))
    def test_matches_two_condition_criterion(self, act):
        assume(validate6(act) is Validity.ORBIFOLD)
        flat = any(
            reference_feasibility(system(act)) is not None
            for system in (condition1_system, condition2_system)
        )
        assert (flat_witness(act) is not None) == flat

    def test_condition2_point_is_condition1_point(self):
        # equal sums give the triangle conv{A_i} and the B_j one centroid,
        # so B3 = sum(eta_i A_i) puts (B1 + B2)/2 in the triangle at
        # eta' = (1 - eta)/2: Condition 2 implies Condition 1 at t = 1/2
        a = sympy.symbols("a1:4")
        p = sympy.symbols("p1:4")
        b1, b2, q1, q2 = sympy.symbols("b1 b2 q1 q2")
        eta = sympy.symbols("eta1:4", nonnegative=True)
        on_simplex = {eta[2]: 1 - eta[0] - eta[1]}
        b3 = sum(e * x for e, x in zip(eta, a))
        q3 = sum(e * x for e, x in zip(eta, p))
        sums = {b2: sum(a) - b1 - b3, q2: sum(p) - q1 - q3}
        act = SimpleNamespace(a=a, b=(b1, b2, b3), p=p, q=(q1, q2, q3))
        t = sympy.Rational(1, 2)
        eta_half = [(1 - e) / 2 for e in eta]
        for c0, ct, c1, c2, c3 in condition1_system(act):
            residual = c0 + ct * t + c1 * eta_half[0] + c2 * eta_half[1] + c3 * eta_half[2]
            assert sympy.simplify(residual.subs(sums).subs(on_simplex)) == 0
        assert sympy.simplify(sum(eta_half).subs(on_simplex)) == 1
        for i, e in enumerate(eta_half):
            others = sum(eta) - eta[i]
            assert sympy.simplify((e - others / 2).subs(on_simplex)) == 0
            assert (others / 2).is_nonnegative

    def test_move_invariance(self):
        # positivity is a property of the quotient, preserved by the moves
        rng = random.Random(79)
        for _ in range(60):
            act = _random_action6(rng)
            base = flat_witness(act) is None
            mv = rng.choice(
                [
                    Shift(c=rng.randint(-3, 3), d=rng.randint(-3, 3)),
                    GL2Z(((1, rng.randint(-2, 2)), (0, 1))),
                    GL2Z(((1, 0), (rng.randint(-2, 2), 1))),
                    Scale(lam=Fraction(-1), mu=Fraction(1)),
                ]
            )
            moved = apply_equivalence(act, mv)
            assert (flat_witness(moved) is None) == base


class TestFindCircle:
    def test_example_circle(self):
        combo = find_circle(EXAMPLE)
        assert (combo.lam, combo.mu) == (-1, 2)
        circ = combo.circle(EXAMPLE)
        assert circ.p == (0, 0, 2) and circ.q == (-1, -1, 4)
        assert positive7(circ)

    def test_example_input_circles_not_positive(self):
        assert not positive7(CircleCombo(1, 0).circle(EXAMPLE))
        assert not positive7(CircleCombo(0, 1).circle(EXAMPLE))

    def test_none_without_positivity(self):
        rng = random.Random(83)
        found = 0
        for _ in range(80):
            act = _random_action6(rng)
            if flat_witness(act) is not None:
                assert find_circle(act) is None
                found += 1
        assert found > 10

    def test_deterministic(self):
        rng = random.Random(89)
        for _ in range(40):
            act = _random_action6(rng)
            try:
                c1 = find_circle(act, bound=20)
                c2 = find_circle(act, bound=20)
            except ExhaustedBound:
                continue
            assert c1 == c2
            if c1 is not None:
                assert positive7(c1.circle(act))

    def test_search_is_find_circle_on_positive_quotients(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(60):
            act = _random_action6(rng)
            if flat_witness(act) is not None:
                continue
            try:
                expected = find_circle(act, bound=20)
            except ExhaustedBound:
                with pytest.raises(ExhaustedBound):
                    search_circle(act, bound=20)
                continue
            assert search_circle(act, bound=20) == expected
            checked += 1
        assert checked > 5

    def test_exhausted_bound(self):
        # the example's first positive circle is (-1, 2), at level 2
        with pytest.raises(ExhaustedBound) as exc:
            search_circle(EXAMPLE, bound=1)
        assert exc.value.bound == 1

    def test_search_bound_below_one(self):
        with pytest.raises(ValueError):
            search_circle(EXAMPLE, bound=0)
        with pytest.raises(ValueError):
            find_circle(EXAMPLE, bound=0)

    def test_coprimality_enforced(self):
        with pytest.raises(ValueError):
            CircleCombo(2, 4)

    def test_candidate_order_matches_scan(self):
        # each level only appends, so every smaller bound is a prefix
        assert list(curvature._candidates(120)) == list(circle_candidates(120))


class TestReparNormalForm:
    def test_block_form_example(self):
        res = repar_normal_form(EXAMPLE)
        assert res.case == "BlockForm"
        assert res.transformed.p == (0, res.n, 0)
        assert res.transformed.a == (0, res.n, res.n)
        assert res.n > 0

    def test_moves_replay(self):
        rng = random.Random(101)
        for _ in range(60):
            act = _random_action6(rng)
            res = repar_normal_form(act)
            cur = act
            for mv in res.moves:
                cur = apply_equivalence(cur, mv)
            assert cur == res.transformed
            if res.case == "AllZeroP":
                assert res.transformed.p == (0, 0, 0)
            else:
                n = res.n
                assert res.transformed.p == (0, n, 0)
                assert res.transformed.a == (0, n, n)

    def test_all_zero_p_branch(self):
        act = TorusAction6(a=(1, 2, 0), b=(0, 0, 3), p=(0, 0, 0), q=(0, 0, 0))
        if validate6(act) is Validity.ORBIFOLD:
            res = repar_normal_form(act)
            assert res.case == "AllZeroP"
