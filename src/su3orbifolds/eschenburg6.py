"""Two-torus actions on SU(3) and their 6-dimensional orbifold quotients.

A 2-torus acts on SU(3) through two weighted circles: (z, w) sends g to
diag(z^{a_i} w^{p_i}) g diag(z^{b_j} w^{q_j})^{-1}.  The singular locus
of the quotient consists of at most six isolated circle images C_s (one
for each permutation s matching the two diagonal tori) and at most nine
2-sphere strata L_{ij} joining them in a hexagonal incidence pattern.
This module computes all of those isotropy groups exactly, implements
the quotient-preserving moves on weight data, removes ineffective
kernels, and specializes to the cohomogeneity-one family
p = (1,1,d), q = (0,0,d+2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index
from typing import Optional, Union

from .lattice import AbelianGroup2, ext_gcd, kernel_group, kernel_generator
from .eschenburg7 import (
    ALL_PERMS,
    CYCLE_123,
    CYCLE_132,
    IDENTITY,
    Permutation3,
    SWAP_12,
    SWAP_13,
    SWAP_23,
    Validity,
    Weight3,
    permute,
    weight3,
)

# Vertex listing order used by all tables and reports.
VERTEX_ORDER: tuple[Permutation3, ...] = (
    IDENTITY, SWAP_12, SWAP_13, CYCLE_123, CYCLE_132, SWAP_23,
)

# Hexagon incidence: each 2-sphere stratum L_{ij} joins two vertices.
EDGE_ENDPOINTS: dict[tuple[int, int], tuple[Permutation3, Permutation3]] = {
    (3, 3): (IDENTITY, SWAP_12),
    (2, 1): (SWAP_12, CYCLE_132),
    (1, 3): (CYCLE_132, SWAP_13),
    (3, 1): (SWAP_13, CYCLE_123),
    (2, 3): (CYCLE_123, SWAP_23),
    (1, 1): (SWAP_23, IDENTITY),
    (2, 2): (IDENTITY, SWAP_13),
    (1, 2): (SWAP_12, CYCLE_123),
    (3, 2): (CYCLE_132, SWAP_23),
}

EDGE_ORDER: tuple[tuple[int, int], ...] = tuple(sorted(EDGE_ENDPOINTS))


@dataclass(frozen=True)
class TorusAction6:
    """Torus action generated by the circles (p, q) and (a, b)."""

    a: Weight3
    b: Weight3
    p: Weight3
    q: Weight3

    def __post_init__(self):
        for name in ("a", "b", "p", "q"):
            object.__setattr__(self, name, weight3(getattr(self, name)))
        if sum(self.a) != sum(self.b):
            raise ValueError("weight sums must agree: sum(a) != sum(b)")
        if sum(self.p) != sum(self.q):
            raise ValueError("weight sums must agree: sum(p) != sum(q)")


def _stabilizer_rows(act: TorusAction6, sigma: Permutation3) -> list[tuple[int, int]]:
    """Relation rows (on the angles of the (a,b) and (p,q) circles) whose
    kernel is the isotropy group of the diagonal torus matched by sigma."""
    bs = permute(act.b, sigma)
    qs = permute(act.q, sigma)
    return [(act.a[i] - bs[i], act.p[i] - qs[i]) for i in range(3)]


def _vertex_order(rows: list[tuple[int, int]]) -> int:
    """|det| of a matching's first two relation rows."""
    (x0, y0), (x1, y1) = rows[:2]
    return abs(x0 * y1 - y0 * x1)


def vertex_order_formula(act: TorusAction6, sigma: Permutation3) -> int:
    """Closed-form order of the isotropy at the sigma vertex (0 = invalid)."""
    return _vertex_order(_stabilizer_rows(act, sigma))


def validate6(act: TorusAction6) -> Validity:
    """Orbifold iff the two weight-difference vectors are independent for
    every one of the six matchings, i.e. all six vertex orders are nonzero."""
    for sigma in ALL_PERMS:
        if vertex_order_formula(act, sigma) == 0:
            return Validity.NOT_ORBIFOLD
    return Validity.ORBIFOLD


def _vertex_group(rows: list[tuple[int, int]]) -> AbelianGroup2:
    """Vertex group of a matching from its relation rows (see gamma6)."""
    n = _vertex_order(rows)
    if n == 0:
        raise ValueError("vertex order 0: not an orbifold action")
    (x0, y0), (x1, y1) = rows[:2]
    r = gcd(x0, y0, x1, y1)
    return AbelianGroup2(r, n // r)


def gamma6(act: TorusAction6, sigma: Permutation3) -> AbelianGroup2:
    """Isotropy group at the vertex matched by sigma, as Z_d1 + Z_d2.

    The relation rows sum to zero (sum a = sum b, sum p = sum q), so the
    Smith invariants of all three come from the first two: d1 is their gcd
    r, and d1 * d2, the gcd of the 2 x 2 minors, their order n = |det|.
    """
    return _vertex_group(_stabilizer_rows(act, sigma))


def _stratum_group(
    rows: dict[Permutation3, list[tuple[int, int]]], sigma: Permutation3, tau: Permutation3
) -> AbelianGroup2:
    """Group of the stratum joining the sigma and tau vertices, from the
    relation rows of each matching (see lgroup6)."""
    group = kernel_group(rows[sigma][:2] + rows[tau][:2])
    if not group.is_finite:
        raise ValueError("infinite stratum isotropy: not an orbifold action")
    return group


def lgroup6(
    act: TorusAction6, i: int, j: int
) -> tuple[AbelianGroup2, tuple[Permutation3, Permutation3]]:
    """Isotropy group along the 2-sphere stratum L_{ij}.

    Computed structurally as the intersection of the two endpoint vertex
    groups: the kernel of the stacked relation rows of both matchings.
    Each matching's rows sum to zero, so only its first two are stacked.
    """
    if (i, j) not in EDGE_ENDPOINTS:
        raise ValueError(f"no stratum L_{i}{j}")
    ends = EDGE_ENDPOINTS[(i, j)]
    return _stratum_group({s: _stabilizer_rows(act, s) for s in ends}, *ends), ends


@dataclass(frozen=True)
class EdgeReport:
    group: AbelianGroup2
    endpoints: tuple[Permutation3, Permutation3]


@dataclass(frozen=True)
class SingularLocusReport:
    """Isotropy groups at the six vertices and nine sphere strata."""

    vertices: dict[Permutation3, AbelianGroup2]
    edges: dict[tuple[int, int], EdgeReport]
    action: TorusAction6
    moves: tuple[EquivalenceMove, ...]

    def singular_vertices(self) -> dict[Permutation3, AbelianGroup2]:
        return {s: g for s, g in self.vertices.items() if not g.is_trivial}

    def singular_edges(self) -> dict[tuple[int, int], EdgeReport]:
        return {e: r for e, r in self.edges.items() if not r.group.is_trivial}

    def group_multiset(self) -> tuple[tuple[int, int], ...]:
        """Sorted invariant-factor pairs of all 15 strata (for comparisons)."""
        gs = [self.vertices[s] for s in VERTEX_ORDER]
        gs += [self.edges[e].group for e in EDGE_ORDER]
        return tuple(sorted((g.d1, g.d2) for g in gs))


def singular_report(act: TorusAction6) -> SingularLocusReport:
    """Full singular-locus report for the quotient of the torus action.

    The report describes the quotient, so an ineffective kernel is
    removed first: `action` is the effective action whose isotropy groups
    it lists, and `moves` the effectivize moves that led there (empty when
    the input already acted effectively).  Raises ValueError if not an orbifold.
    """
    eff, moves = effectivize(act)
    rows = {s: _stabilizer_rows(eff, s) for s in ALL_PERMS}
    vertices = {s: _vertex_group(rows[s]) for s in ALL_PERMS}
    edges = {
        e: EdgeReport(_stratum_group(rows, *EDGE_ENDPOINTS[e]), EDGE_ENDPOINTS[e])
        for e in EDGE_ORDER
    }
    return SingularLocusReport(vertices=vertices, edges=edges, action=eff, moves=tuple(moves))


# ---------------------------------------------------------------------------
# Quotient-preserving moves on weight data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Swap:
    """Exchange left and right in both circles: (a,b,p,q) -> (b,a,q,p),
    the action transported by g -> g^{-1}."""


@dataclass(frozen=True)
class Scale:
    """Scale the (p,q) circle by lam and the (a,b) circle by mu."""

    lam: Fraction
    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "mu", Fraction(self.mu))
        if self.lam == 0 or self.mu == 0:
            raise ValueError("scale factors must be nonzero")


@dataclass(frozen=True)
class Shift:
    """Add c to every entry of a and b, and d to every entry of p and q."""

    c: int
    d: int


@dataclass(frozen=True)
class Permute:
    """Apply sigma to the left weights (a, p) and tau to the right (b, q)."""

    sigma: Permutation3
    tau: Permutation3


@dataclass(frozen=True)
class GL2Z:
    """Replace the generating circles by unimodular integer combinations.

    New (p,q) circle = m[0][0]*(p,q) + m[0][1]*(a,b); new (a,b) circle =
    m[1][0]*(p,q) + m[1][1]*(a,b).
    """

    m: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        try:
            m = tuple(tuple(map(index, row)) for row in self.m)
        except TypeError:
            raise ValueError(f"matrix entries must be integers, got {self.m!r}") from None
        object.__setattr__(self, "m", m)
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) != 1:
            raise ValueError("matrix must be unimodular")


EquivalenceMove = Union[Swap, Scale, Shift, Permute, GL2Z]


def _scale_triple(w: Weight3, f: Fraction) -> Weight3:
    out = []
    for x in w:
        v, r = divmod(f.numerator * x, f.denominator)
        if r:
            raise ValueError(f"scale by {f} does not keep weights integral")
        out.append(v)
    return tuple(out)


def apply_equivalence(act: TorusAction6, move: EquivalenceMove) -> TorusAction6:
    """Apply one quotient-preserving move to the weight data."""
    if isinstance(move, Swap):
        return TorusAction6(a=act.b, b=act.a, p=act.q, q=act.p)
    if isinstance(move, Scale):
        return TorusAction6(
            a=_scale_triple(act.a, move.mu),
            b=_scale_triple(act.b, move.mu),
            p=_scale_triple(act.p, move.lam),
            q=_scale_triple(act.q, move.lam),
        )
    if isinstance(move, Shift):
        return TorusAction6(
            a=tuple(x + move.c for x in act.a),
            b=tuple(x + move.c for x in act.b),
            p=tuple(x + move.d for x in act.p),
            q=tuple(x + move.d for x in act.q),
        )
    if isinstance(move, Permute):
        return TorusAction6(
            a=permute(act.a, move.sigma),
            b=permute(act.b, move.tau),
            p=permute(act.p, move.sigma),
            q=permute(act.q, move.tau),
        )
    if isinstance(move, GL2Z):
        (x, y), (z, w) = move.m

        def combo(u: Weight3, v: Weight3, c1: int, c2: int) -> Weight3:
            return tuple(c1 * ui + c2 * vi for ui, vi in zip(u, v))

        return TorusAction6(
            p=combo(act.p, act.a, x, y),
            q=combo(act.q, act.b, x, y),
            a=combo(act.p, act.a, z, w),
            b=combo(act.q, act.b, z, w),
        )
    raise TypeError(f"unknown move {move!r}")


# ---------------------------------------------------------------------------
# Effectiveness
# ---------------------------------------------------------------------------


def _kernel_rows(act: TorusAction6) -> list[tuple[int, int]]:
    # (u, s) acts trivially iff all exponents u*a_i + s*p_i and
    # u*b_j + s*q_j agree modulo 1 (both diagonals equal the same scalar)
    a, b, p, q = act.a, act.b, act.p, act.q
    rows = [(a[i] - a[0], p[i] - p[0]) for i in (1, 2)]
    rows += [(b[j] - a[0], q[j] - p[0]) for j in range(3)]
    return rows


def kernel_of_action(act: TorusAction6) -> AbelianGroup2:
    """Subgroup of the acting torus that acts trivially on SU(3).

    A zero invariant factor signals a degenerate (positive-dimensional)
    kernel.
    """
    return kernel_group(_kernel_rows(act))


def effectivize(act: TorusAction6) -> tuple[TorusAction6, list[EquivalenceMove]]:
    """Rewrite the action so the torus acts effectively.

    Repeatedly absorbs a maximal-order kernel element into the circle
    basis (unimodular change of generators), then shifts and divides the
    first circle's weights.  Returns the new action and the move list.
    Raises for an infinite kernel.
    """
    moves: list[EquivalenceMove] = []
    current = act
    while True:
        ker = kernel_of_action(current)
        if not ker.is_finite:
            raise ValueError("degenerate action: infinite kernel")
        if ker.is_trivial:
            return current, moves
        k, l, n = kernel_generator(_kernel_rows(current))
        # (u, s) = (k/n, l/n); pick new circle generators so this element
        # becomes a 1/n rotation of the first circle alone
        g, x, y = ext_gcd(l, k)
        assert g == 1
        move: EquivalenceMove = GL2Z(((l, k), (-y, x)))
        current = apply_equivalence(current, move)
        moves.append(move)
        # now all of p, q are congruent mod n; shift them to multiples of n
        move = Shift(c=0, d=-current.p[0])
        current = apply_equivalence(current, move)
        moves.append(move)
        if any(w % n for w in current.p + current.q):
            raise RuntimeError("kernel absorption failed: weights not divisible")
        move = Scale(lam=Fraction(1, n), mu=Fraction(1))
        current = apply_equivalence(current, move)
        moves.append(move)


# ---------------------------------------------------------------------------
# The cohomogeneity-one family p = (1,1,d), q = (0,0,d+2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cohom1Params:
    """Second-circle weights a=(alpha,beta,0), b=(gamma,delta,epsilon) on
    the d-th member of the one-parameter family."""

    d: int
    alpha: int
    beta: int
    gamma: int
    delta: int

    @property
    def epsilon(self) -> int:
        return self.alpha + self.beta - self.gamma - self.delta

    def action(self) -> TorusAction6:
        return TorusAction6(
            a=(self.alpha, self.beta, 0),
            b=(self.gamma, self.delta, self.epsilon),
            p=(1, 1, self.d),
            q=(0, 0, self.d + 2),
        )


def cohom1_params(d: int, a: Weight3, b: Weight3) -> Cohom1Params:
    """Normalize arbitrary second-circle weights to the a_3 = 0 gauge.

    The family is indexed by d >= 0; a d that is not a non-negative
    integer, weights that are not integer triples and unequal weight sums
    raise ValueError.
    """
    try:
        d = index(d)
    except TypeError:
        raise ValueError(f"d must be an integer, got {d!r}") from None
    if d < 0:
        raise ValueError(f"the family requires d >= 0, got d={d}")
    a, b = weight3(a), weight3(b)
    if sum(a) != sum(b):
        raise ValueError("weight sums must agree: sum(a) != sum(b)")
    c = a[2]
    return Cohom1Params(
        d=d, alpha=a[0] - c, beta=a[1] - c, gamma=b[0] - c, delta=b[1] - c
    )


@dataclass(frozen=True)
class Cohom1Tables:
    """Closed-form vertex and stratum orders for the family; every group is
    cyclic (tests/test_eschenburg6.py::TestCohom1Proofs)."""

    vertex_orders: tuple[int, int, int, int, int, int]  # in VERTEX_ORDER
    edge_orders: dict[tuple[int, int], int]


def _vertex_formulas(p: Cohom1Params) -> dict[Permutation3, int]:
    """Signed vertex orders: +-det of each matching's first two relation rows."""
    al, be, ga, de, d = p.alpha, p.beta, p.gamma, p.delta, p.d
    return {
        IDENTITY: (al - be) - (ga - de),
        SWAP_12: (al - be) + (ga - de),
        SWAP_13: ga + d * (be - de),
        CYCLE_123: ga + d * (al - de),
        CYCLE_132: de + d * (be - ga),
        SWAP_23: de + d * (al - ga),
    }


def _edge_formulas(p: Cohom1Params) -> dict[tuple[int, int], tuple[int, int]]:
    """Two linear forms per stratum whose gcd is its order: they generate
    the ideal of the 2 x 2 minors of the stacked endpoint rows."""
    al, be, ga, de, d = p.alpha, p.beta, p.gamma, p.delta, p.d
    return {
        (1, 1): ((al - be) - (ga - de), de + d * (al - ga)),
        (1, 2): ((al - be) + (ga - de), ga + d * (al - de)),
        (1, 3): (de - ga, de + d * (be - ga)),
        (2, 1): ((al - be) + (ga - de), de + d * (be - ga)),
        (2, 2): ((al - be) - (ga - de), ga + d * (be - de)),
        (2, 3): (de - ga, de + d * (al - ga)),
        (3, 1): (al - be, ga + d * (al - de)),
        (3, 2): (al - be, de + d * (al - ga)),
        (3, 3): (al - be, ga - de),
    }


def _kernel_formulas(p: Cohom1Params) -> tuple[int, int, int]:
    """Linear forms whose gcd is the order of the family action's kernel."""
    return (p.gamma - p.delta, p.alpha - p.beta, p.alpha * p.d - p.gamma * (p.d - 1))


def _shear(p: Cohom1Params, r: int) -> tuple[Weight3, Weight3]:
    """The second circle plus r times the first, shifted by -r*d."""
    s = r - r * p.d
    return (
        (p.alpha + s, p.beta + s, 0),
        (p.gamma - r * p.d, p.delta - r * p.d, p.epsilon + 2 * r),
    )


def cohom1_tables(params: Cohom1Params) -> Cohom1Tables:
    """Vertex and stratum orders from closed forms, which equal those of
    gamma6 and lgroup6 on params.action() by the sympy proofs in
    tests/test_eschenburg6.py::TestCohom1Proofs."""
    vertices = {s: abs(n) for s, n in _vertex_formulas(params).items()}
    if not all(vertices.values()):
        raise ValueError("degenerate second circle: not an orbifold action")
    return Cohom1Tables(
        vertex_orders=tuple(vertices[s] for s in VERTEX_ORDER),
        edge_orders={e: gcd(*pair) for e, pair in _edge_formulas(params).items()},
    )


def effectivize_cohom1(params: Cohom1Params) -> Optional[tuple[Weight3, Weight3]]:
    """Make the second circle act effectively on the d-th family member,
    without disturbing the first circle p=(1,1,d), q=(0,0,d+2).

    Shears the second circle by r = gamma - alpha (mod k) times the first,
    shifts, and divides by the kernel order k = gcd(gamma-delta,
    alpha-beta, alpha*d - gamma*(d-1)); the shear keeps those forms and
    makes every weight divisible by k, so the result acts effectively
    (proved in tests/test_eschenburg6.py::TestCohom1Proofs).  Returns
    None for k = 1, as lattice.kernel_generator does for a trivial kernel.
    """
    k = gcd(*_kernel_formulas(params))
    if k == 0:
        raise ValueError("degenerate second circle")
    if k == 1:
        return None
    na, nb = _shear(params, (params.gamma - params.alpha) % k)
    return tuple(x // k for x in na), tuple(x // k for x in nb)
