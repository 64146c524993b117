"""Tests for the 6-dimensional torus-quotient singular-locus analysis."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from su3orbifolds.eschenburg6 import (
    Cohom1Params,
    Cohom1Tables,
    EDGE_ENDPOINTS,
    EDGE_ORDER,
    GL2Z,
    EdgeReport,
    Permute,
    Scale,
    Shift,
    Swap,
    TorusAction6,
    VERTEX_ORDER,
    _edge_formulas,
    _kernel_formulas,
    _kernel_rows,
    _scale_triple,
    _shear,
    _stabilizer_rows,
    _vertex_formulas,
    apply_equivalence,
    cohom1_params,
    cohom1_tables,
    effectivize,
    effectivize_cohom1,
    gamma6,
    kernel_of_action,
    lgroup6,
    singular_report,
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
    permute,
)
from su3orbifolds.lattice import AbelianGroup2, kernel_group
from su3orbifolds.special import WeightedCP

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


@st.composite
def huge_orbifold_actions6(draw):
    """Orbifold torus actions with 30-40 digit weights, all scaled by a
    small common factor so that noncyclic vertex groups occur."""
    c = draw(st.integers(1, 6))
    a, p = draw(st.tuples(HUGE, HUGE, HUGE)), draw(st.tuples(HUGE, HUGE, HUGE))
    b0, b1, q0, q1 = draw(st.tuples(HUGE, HUGE, HUGE, HUGE))
    b, q = (b0, b1, sum(a) - b0 - b1), (q0, q1, sum(p) - q0 - q1)
    act = TorusAction6(*([c * x for x in w] for w in (a, b, p, q)))
    assume(validate6(act) is Validity.ORBIFOLD)
    return act


@st.composite
def ineffective_or_not(draw, actions):
    """An orbifold action, with its (p, q) circle scaled by k = 1..4, which
    puts Z_k in the kernel."""
    k = draw(st.integers(1, 4))
    return apply_equivalence(draw(actions), Scale(lam=Fraction(k), mu=Fraction(1)))


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

    @settings(max_examples=300, deadline=None)
    @given(orbifold_actions6() | huge_orbifold_actions6(), PERMS)
    def test_equals_kernel_group(self, act, sigma):
        # gamma6 reads the group off the first two rows; kernel_group takes
        # the Smith normal form of all three
        assert gamma6(act, sigma) == kernel_group(_stabilizer_rows(act, sigma))

    def test_zero_sum_rows_have_one_minor(self):
        # the weight sums agree, so the relation rows sum to zero, and then
        # every 2 x 2 minor of the 3 x 2 relation matrix is +-det(row0, row1)
        a1, a2, a3, b1, b2, p1, p2, p3, q1, q2 = sympy.symbols("a1:4 b1:3 p1:4 q1:3", integer=True)
        a, p = (a1, a2, a3), (p1, p2, p3)
        b, q = (b1, b2, sum(a) - b1 - b2), (q1, q2, sum(p) - q1 - q2)
        for sigma in ALL_PERMS:
            bs, qs = permute(b, sigma), permute(q, sigma)
            rows = sympy.Matrix([[a[i] - bs[i], p[i] - qs[i]] for i in range(3)])
            assert sympy.expand(rows[0, :] + rows[1, :] + rows[2, :]) == sympy.zeros(1, 2)
            det = rows.extract([0, 1], [0, 1]).det()
            for i, j in ((0, 2), (1, 2)):
                minor = rows.extract([i, j], [0, 1]).det()
                assert sympy.expand(minor - det) == 0 or sympy.expand(minor + det) == 0


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

    @settings(max_examples=300, deadline=None)
    @given(orbifold_actions6() | huge_orbifold_actions6(), st.sampled_from(EDGE_ORDER))
    def test_equals_kernel_group_of_six_rows(self, act, e):
        # lgroup6 stacks the first two rows of each endpoint; the third
        # row of each is minus the sum of the other two
        group, (sigma, tau) = lgroup6(act, *e)
        assert group == kernel_group(_stabilizer_rows(act, sigma) + _stabilizer_rows(act, tau))


class TestSingularReport:
    @settings(max_examples=50, deadline=None)
    @given(orbifold_actions6(), st.lists(MOVES, min_size=1, max_size=4))
    def test_multiset_move_invariance(self, act, moves):
        base = singular_report(act).group_multiset()
        cur = act
        for move in moves:
            cur = apply_equivalence(cur, move)
        assert singular_report(cur).group_multiset() == base

    @settings(max_examples=100, deadline=None)
    @given(orbifold_actions6() | huge_orbifold_actions6())
    def test_strata_divide_endpoints(self, act):
        # a stratum group is the kernel of both endpoints' rows stacked, so
        # it is a subgroup of each endpoint's vertex group (the kernel of
        # that endpoint's rows alone), and its order divides theirs
        rep = singular_report(act)
        for e in rep.edges.values():
            for s in e.endpoints:
                assert rep.vertices[s].order % e.group.order == 0

    @settings(max_examples=150, deadline=None)
    @given(ineffective_or_not(orbifold_actions6() | huge_orbifold_actions6()))
    def test_groups_equal_gamma6_and_lgroup6(self, act):
        # the report builds each matching's rows once; the per-stratum
        # functions build their own
        rep = singular_report(act)
        assert rep.vertices == {s: gamma6(rep.action, s) for s in ALL_PERMS}
        assert rep.edges == {e: EdgeReport(*lgroup6(rep.action, *e)) for e in EDGE_ORDER}

    def test_effective_flag(self):
        act = TorusAction6(a=(1, 2, 0), b=(0, 0, 3), p=(0, 1, 1), q=(2, 0, 0))
        rep = singular_report(act)
        assert rep.moves == () and rep.action == act
        doubled = apply_equivalence(act, Scale(lam=Fraction(2), mu=Fraction(1)))
        rep = singular_report(doubled)
        eff, moves = effectivize(doubled)
        assert rep.moves == tuple(moves) != ()
        assert rep.action == eff
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


def _scale_by_fraction(w, f):
    """Scaling as Fraction arithmetic: f * x for each weight x."""
    scaled = [f * x for x in w]
    if any(v.denominator != 1 for v in scaled):
        raise ValueError(f"scale by {f} does not keep weights integral")
    return tuple(int(v) for v in scaled)


SCALE_WEIGHTS = st.integers(-6, 6) | HUGE


class TestScaleTriple:
    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(SCALE_WEIGHTS, SCALE_WEIGHTS, SCALE_WEIGHTS),
        st.integers(-6, 6) | HUGE,
        st.integers(1, 12) | st.integers(10**29, 10**40),
        st.booleans(),
    )
    def test_equals_fraction_form(self, w, num, den, divisible):
        # divisible weights make the scale integral for any denominator
        if divisible:
            w = tuple(x * den for x in w)
        f = Fraction(num, den)
        try:
            expected = _scale_by_fraction(w, f)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                _scale_triple(w, f)
        else:
            scaled = _scale_triple(w, f)
            assert scaled == expected and all(type(x) is int for x in scaled)


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 12) | st.integers(10**29, 10**40),
        st.tuples(*[st.integers(-6, 6) | HUGE] * 5),
    )
    def test_equals_structural_groups(self, d, w):
        # the tables read the same orders as gamma6 and lgroup6 on the
        # family member's action, and every stratum is cyclic
        a, b = w[:3], (w[3], w[4], sum(w[:3]) - w[3] - w[4])
        params = cohom1_params(d, a, b)
        act = params.action()
        if validate6(act) is not Validity.ORBIFOLD:
            with pytest.raises(ValueError, match="^degenerate second circle"):
                cohom1_tables(params)
            return
        edges = {e: lgroup6(act, *e)[0] for e in EDGE_ORDER}
        assert cohom1_tables(params) == Cohom1Tables(
            vertex_orders=tuple(gamma6(act, s).order for s in VERTEX_ORDER),
            edge_orders={e: g.order for e, g in edges.items()},
        )
        assert all(g.is_cyclic for g in edges.values())

    @pytest.mark.parametrize("a, b", [((0, 1, 1, 5), (2, 0, 0, 5)), ((0, 1), (1, 0))])
    def test_weights_must_be_triples(self, a, b):
        with pytest.raises(ValueError, match="^weights must be triples$"):
            cohom1_params(3, a, b)


@pytest.mark.parametrize(
    "construct",
    [
        lambda: cohom1_params(3.5, (0, 1, 1), (2, 0, 0)),
        lambda: cohom1_params(Fraction(3), (0, 1, 1), (2, 0, 0)),
        lambda: GL2Z(((1.5, 0), (0, 1))),
        lambda: GL2Z(((1, 0), (0, "1"))),
        lambda: WeightedCP((3.7, 2, 1)),
        lambda: WeightedCP((3, 2.0, 1)),
    ],
)
def test_constructors_refuse_non_integers(construct):
    # int() would truncate 3.5 to 3 and 1.5 to 1 and build a valid object
    with pytest.raises(ValueError, match="must be integers|must be an integer"):
        construct()


D, ALPHA, BETA, GAMMA, DELTA = sympy.symbols("d alpha beta gamma delta", integer=True)
SYMBOLIC_FAMILY = Cohom1Params(d=D, alpha=ALPHA, beta=BETA, gamma=GAMMA, delta=DELTA)
# the weights of SYMBOLIC_FAMILY.action(), which TorusAction6 cannot hold
SYMBOLIC_ACTION = SimpleNamespace(
    a=(ALPHA, BETA, 0),
    b=(GAMMA, DELTA, SYMBOLIC_FAMILY.epsilon),
    p=(1, 1, D),
    q=(0, 0, D + 2),
)


def _in_zd(c):
    """c is a polynomial in d with integer coefficients."""
    num, den = sympy.fraction(sympy.cancel(c))
    return den == 1 and sympy.Poly(num, D).domain == sympy.ZZ


def _cofactors(forms, gens):
    """The matrix C over Z[d] with forms = C * gens, for linear forms in
    alpha, beta, gamma, delta with coefficients in Z[d] and gens linearly
    independent over Q(d); fails when C leaves Z[d]."""
    cs = sympy.symbols(f"c0:{len(gens)}")
    rows = []
    for f in forms:
        residual = sympy.expand(f - sum(c * g for c, g in zip(cs, gens)))
        eqs = sympy.Poly(residual, ALPHA, BETA, GAMMA, DELTA).coeffs()
        (sol,) = sympy.linsolve(eqs, cs)
        assert not sol.free_symbols & set(cs), "generators are dependent"
        rows.append([sympy.cancel(c) for c in sol])
        assert all(_in_zd(c) for c in rows[-1]), (f, gens, rows[-1])
    return sympy.Matrix(rows)


def _assert_same_ideal(forms, gens):
    """forms and gens generate one ideal of Z[d, alpha, beta, gamma, delta].

    forms = C * gens with C over Z[d] puts the forms in the ideal of gens.
    Some square block of C, on rows S, has determinant +-1, so its inverse
    E is over Z[d] too and gens = E * forms[S]: the explicit cofactors of
    the converse."""
    C = _cofactors(forms, gens)
    n = len(gens)
    for rows in itertools.combinations(range(len(forms)), n):
        block = C.extract(list(rows), list(range(n)))
        if sympy.expand(block.det()) in (1, -1):
            inverse = block.inv()
            assert all(_in_zd(c) for c in inverse)
            for g, combo in zip(gens, inverse * sympy.Matrix([forms[i] for i in rows])):
                assert sympy.expand(g - combo) == 0
            return
    raise AssertionError(f"no unimodular block of cofactors for {gens}")


def _minors(rows):
    return [x0 * y1 - y0 * x1 for (x0, y0), (x1, y1) in itertools.combinations(rows, 2)]


def _has_unit_entry(rows):
    return any(x in (1, -1) for row in rows for x in row)


def _relations(forms):
    """A basis over Q(d) of the vectors c with sum(c_i * forms_i) == 0,
    for linear forms in alpha, beta, gamma, delta, each scaled to
    polynomials in d without a common factor."""
    weights = (ALPHA, BETA, GAMMA, DELTA)
    m = sympy.Matrix([[sympy.expand(f).coeff(x) for x in weights] for f in forms])
    out = []
    for row in DomainMatrix.from_Matrix(m.T).to_field().nullspace().to_Matrix().tolist():
        c = sympy.Matrix(row) * sympy.lcm([sympy.denom(x) for x in row])
        c = (c / sympy.gcd_list(list(c))).applyfunc(sympy.cancel)
        assert sympy.expand(c.dot(forms)) == 0
        out.append(c)
    return out


def _integer_roots(poly):
    """The integer roots d of a nonzero polynomial in d."""
    return {r for r in sympy.Poly(poly, D).real_roots() if r.is_integer}


def _value_given(form, forms):
    """The value of form, as a function of the values of forms, valid at
    every integer d >= 3: from a relation e0 * form + e . forms == 0 with
    e0 nonzero at every such d."""
    e = next(r for r in _relations([form, *forms]) if r[0] != 0)
    assert max(_integer_roots(e[0]), default=2) < 3
    return lambda values: sympy.cancel(-e[1:, 0].dot(values) / e[0])


class TestCohom1Proofs:
    """The closed forms of cohom1_tables and effectivize_cohom1, proved once
    over Z[d, alpha, beta, gamma, delta] for the family p = (1,1,d),
    q = (0,0,d+2), a = (alpha, beta, 0), b = (gamma, delta, epsilon).

    A group's order is the gcd of the 2 x 2 minors of its relation matrix,
    and its first invariant factor the gcd of the entries; identities of
    polynomials therefore hold at every integer member."""

    def test_vertex_forms_are_determinants(self):
        # gamma6's order is |det| of the matching's first two rows
        forms = _vertex_formulas(SYMBOLIC_FAMILY)
        for sigma in VERTEX_ORDER:
            (det,) = _minors(_stabilizer_rows(SYMBOLIC_ACTION, sigma)[:2])
            assert sympy.expand(forms[sigma] - det) == 0 or sympy.expand(forms[sigma] + det) == 0

    @pytest.mark.parametrize("edge", EDGE_ORDER, ids=lambda e: f"L{e[0]}{e[1]}")
    def test_edge_pair_generates_the_minor_ideal(self, edge):
        # lgroup6's order is the gcd of the minors of the four stacked rows
        ends = EDGE_ENDPOINTS[edge]
        stacked = [r for s in ends for r in _stabilizer_rows(SYMBOLIC_ACTION, s)[:2]]
        _assert_same_ideal(_minors(stacked), _edge_formulas(SYMBOLIC_FAMILY)[edge])

    def test_every_group_is_cyclic(self):
        # an entry +-1 makes the gcd of the entries, the first invariant
        # factor, 1: each vertex matrix, stratum matrix and the kernel
        # matrix has one, in the row of a first two entries p_i = 1
        rows = {s: _stabilizer_rows(SYMBOLIC_ACTION, s)[:2] for s in VERTEX_ORDER}
        for sigma in VERTEX_ORDER:
            assert _has_unit_entry(rows[sigma])
        for sigma, tau in EDGE_ENDPOINTS.values():
            assert _has_unit_entry(rows[sigma] + rows[tau])
        assert _has_unit_entry(_kernel_rows(SYMBOLIC_ACTION))

    def test_kernel_order(self):
        # kernel_of_action's order is the gcd of the kernel matrix's minors
        _assert_same_ideal(_minors(_kernel_rows(SYMBOLIC_ACTION)), _kernel_formulas(SYMBOLIC_FAMILY))

    def test_shear_divides_by_the_kernel_order(self):
        # the shear keeps the kernel forms, so it keeps k; with r = gamma -
        # alpha every sheared weight is a Z[d]-combination of the forms, and
        # a change of r by a multiple of k changes it by a multiple of k.
        # So k divides every weight, and dividing by k divides the forms by
        # k: their gcd, the new kernel order, is 1.
        r = sympy.Symbol("r", integer=True)
        forms = _kernel_formulas(SYMBOLIC_FAMILY)
        na, nb = _shear(SYMBOLIC_FAMILY, r)
        assert na[2] == 0 and sympy.expand(sum(na) - sum(nb)) == 0
        sheared = Cohom1Params(d=D, alpha=na[0], beta=na[1], gamma=nb[0], delta=nb[1])
        for f, g in zip(forms, _kernel_formulas(sheared)):
            assert sympy.expand(f - g) == 0
        at_r0 = [sympy.expand(sympy.sympify(w).subs(r, GAMMA - ALPHA)) for w in na + nb]
        _cofactors(at_r0, forms)
        for w, w0 in zip(na + nb, at_r0):
            assert _in_zd(sympy.cancel((w - w0) / (r - (GAMMA - ALPHA))))

    def test_no_manifold_member_beyond_d2(self):
        # for d >= 3 some vertex order exceeds 1.  Two orders 1 are forms
        # +-1, which differ by 0 or +-2.  (13) - (123) = d(beta - alpha)
        # then forces alpha = beta; id then reads -(gamma - delta), so
        # gamma - delta = +-1; and (123) - (23) = (1 + d)(gamma - delta) =
        # +-(1 + d), which is neither 0 nor +-2.  effectivize_cohom1 returns
        # a family member that acts effectively, so every quotient of the
        # family with d >= 3 has a singular point.
        v = _vertex_formulas(SYMBOLIC_FAMILY)
        assert sympy.expand(v[SWAP_13] - v[CYCLE_123] - D * (BETA - ALPHA)) == 0
        assert sympy.expand(v[IDENTITY].subs(ALPHA, BETA) + (GAMMA - DELTA)) == 0
        assert sympy.expand(v[CYCLE_123] - v[SWAP_23] - (1 + D) * (GAMMA - DELTA)) == 0

    def test_two_singular_vertices_are_joined(self):
        # the vertex groups are cyclic, so a member with exactly two
        # singular vertices has the other four vertex forms +-1.  The six
        # forms have rank 3 over Q(d), so the other four satisfy one
        # relation c, which with their signs s reads c . s = 0 at the
        # member's d.  For each of the 15 pairs and 16 sign patterns, c . s
        # is either a polynomial with no integer root d >= 3, so no member
        # has the pattern (every integer root lies in [-3, 2], and d = 2 is
        # one), or it vanishes identically.  In the 22 cases where it
        # vanishes, the pair is joined by a stratum, and the other forms
        # fix the pair's two forms and the stratum's edge pair:
        # - at id and (12) the forms are 0, +-2/d or +-2/(d+1), which for
        #   d >= 3 are 0 (not an orbifold) or no integer;
        # - at every other pair both forms are +-n, n one of d-1, d, d+1,
        #   d+2, and the edge pair is (0, +-n): the vertices have order n
        #   and are joined by a sphere of order n.
        # effectivize_cohom1 makes any member effective within the family,
        # so this holds for every quotient of the family with d >= 3.
        vertex = _vertex_formulas(SYMBOLIC_FAMILY)
        edge = _edge_formulas(SYMBOLIC_FAMILY)
        joins = {frozenset(ends): e for e, ends in EDGE_ENDPOINTS.items()}
        consistent, integer_roots = 0, set()
        for pair in itertools.combinations(VERTEX_ORDER, 2):
            others = [vertex[s] for s in VERTEX_ORDER if s not in pair]
            (c,) = _relations(others)
            joining = joins.get(frozenset(pair))
            targets = [vertex[s] for s in pair] + list(edge[joining] if joining else ())
            value_of = [_value_given(f, others) for f in targets]
            for signs in itertools.product((1, -1), repeat=4):
                condition = sympy.expand(c.dot(signs))
                if condition != 0:
                    integer_roots |= _integer_roots(condition)
                    continue
                consistent += 1
                assert joining is not None, pair
                n, m, *edge_values = (value(signs) for value in value_of)
                if pair == (IDENTITY, SWAP_12):
                    assert {n, m} <= {0, 2 / D, -2 / D, 2 / (D + 1), -2 / (D + 1)}
                    continue
                assert n == m and {n, -n} & {D - 1, D, D + 1, D + 2}
                assert edge_values[0] == 0 and edge_values[1] in (n, -n)
        assert consistent == 22
        assert integer_roots == set(range(-3, 3))


class TestFamilyClassification:
    """The singular loci of family quotients (d >= 3), read off
    singular_report; TestCohom1Proofs proves the structure for all
    members."""

    def test_two_singular_points_joined(self):
        rep = singular_report(cohom1_params(5, (0, -1, 1), (0, 0, 0)).action())
        sing = rep.singular_vertices()
        assert set(sing) == {SWAP_13, CYCLE_132}
        assert all(g.order == 6 for g in sing.values())
        # TestCohom1Proofs::test_two_singular_vertices_are_joined
        assert {e: r.group.order for e, r in rep.singular_edges().items()} == {(1, 3): 6}
        assert set(rep.edges[(1, 3)].endpoints) == set(sing)

    def test_d2_member_without_singular_locus(self):
        # the d >= 3 bound is sharp: at d = 2 all 15 orders can be 1
        # (TestCohom1Proofs::test_no_manifold_member_beyond_d2)
        a, b = (-2, -1, 0), (-3, -3, 3)
        params = cohom1_params(2, a, b)
        assert (params.alpha, params.beta, params.gamma, params.delta) == (-2, -1, -3, -3)
        tab = cohom1_tables(params)
        assert set(tab.vertex_orders) == set(tab.edge_orders.values()) == {1}
        assert singular_report(params.action()).group_multiset() == ((1, 1),) * 15

    def test_nonempty_locus_random(self):
        rng = random.Random(61)
        checked = 0
        while checked < 60:
            d = rng.randint(3, 8)
            a = tuple(rng.randint(-4, 4) for _ in range(3))
            b2 = [rng.randint(-4, 4) for _ in range(2)]
            b = (b2[0], b2[1], sum(a) - sum(b2))
            try:
                rep = singular_report(cohom1_params(d, a, b).action())
            except ValueError:
                continue
            # some vertex, not only some stratum, is singular
            # (TestCohom1Proofs::test_no_manifold_member_beyond_d2)
            assert rep.singular_vertices()
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
                params = cohom1_params(d, a, b)
                eff = effectivize_cohom1(params)
            except ValueError:
                continue
            # None: the input already acts effectively
            na, nb = eff or (a, b)
            act = TorusAction6(a=na, b=nb, p=(1, 1, d), q=(0, 0, d + 2))
            assert kernel_of_action(act).is_trivial
            assert (eff is None) == kernel_of_action(params.action()).is_trivial
            checked += 1

    def test_preserves_quotient(self):
        # scaling the second circle by 3 is undone by effectivization
        d = 4
        a, b = (0, 1, 1), (2, 0, 0)
        base = cohom1_params(d, a, b).action()
        a3 = tuple(3 * x for x in a)
        b3 = tuple(3 * x for x in b)
        na, nb = effectivize_cohom1(cohom1_params(d, a3, b3))
        act = TorusAction6(a=na, b=nb, p=(1, 1, d), q=(0, 0, d + 2))
        assert singular_report(act).group_multiset() == singular_report(base).group_multiset()

    @staticmethod
    def _outcome(d, a, b):
        """(result or exception type) of the implementation and the scan."""
        out = []
        for f in (lambda *w: effectivize_cohom1(cohom1_params(*w)), effectivize_cohom1_scan):
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
        na, nb = effectivize_cohom1(cohom1_params(d, ak, bk))
        act = TorusAction6(a=na, b=nb, p=(1, 1, d), q=(0, 0, d + 2))
        assert kernel_of_action(act).is_trivial
        assert singular_report(act).group_multiset() == singular_report(base).group_multiset()
