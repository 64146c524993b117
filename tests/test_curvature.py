"""Tests for the exact positive-curvature decision and circle search."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from su3orbifolds.curvature import (
    CircleCombo,
    ExhaustedBound,
    FlatWitness,
    _system1,
    _system2,
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

from oracles import grid_feasible
from test_eschenburg6 import _random_action6


EXAMPLE = TorusAction6(a=(-2, 0, 2), b=(-3, 1, 2), p=(-4, 0, 2), q=(-5, 3, 0))


def _check_witness(act, w):
    """The witness really solves the exact defining system."""
    eqs = _system1(act) if w.kind == "Condition1" else _system2(act)
    t = w.t if w.t is not None else Fraction(0)
    assert all(e >= 0 for e in w.eta) and sum(w.eta) == 1
    if w.t is not None:
        assert 0 <= w.t <= 1
    for c0, ct, c1, c2, c3 in eqs:
        assert c0 + ct * t + sum(c * e for c, e in zip((c1, c2, c3), w.eta)) == 0


class TestFlatWitness:
    def test_example_positively_curved(self):
        assert flat_witness(EXAMPLE) is None

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
            hit = grid_feasible(_system1(act)) or grid_feasible(_system2(act))
            if hit:
                assert w is not None
            if w is None:
                assert not hit

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

    def test_search_bound_below_one(self):
        with pytest.raises(ValueError):
            search_circle(EXAMPLE, bound=0)
        with pytest.raises(ValueError):
            find_circle(EXAMPLE, bound=0)

    def test_coprimality_enforced(self):
        with pytest.raises(ValueError):
            CircleCombo(2, 4)


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
