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
from typing import Union

from .lattice import AbelianGroup2, ext_gcd, kernel_group, kernel_generator
from .eschenburg7 import (
    ALL_PERMS,
    CYCLE_123,
    CYCLE_132,
    IDENTITY,
    PERM_NAMES,
    Permutation3,
    SWAP_12,
    SWAP_13,
    SWAP_23,
    Validity,
    Weight3,
    permute,
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
            object.__setattr__(self, name, tuple(int(x) for x in getattr(self, name)))
            if len(getattr(self, name)) != 3:
                raise ValueError("weights must be triples")
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


def vertex_order_formula(act: TorusAction6, sigma: Permutation3) -> int:
    """Closed-form order of the isotropy at the sigma vertex (0 = invalid)."""
    (x0, y0), (x1, y1), _ = _stabilizer_rows(act, sigma)
    return abs(x0 * y1 - y0 * x1)


def validate6(act: TorusAction6) -> Validity:
    """Orbifold iff the two weight-difference vectors are independent for
    every one of the six matchings, i.e. all six vertex orders are nonzero."""
    for sigma in ALL_PERMS:
        if vertex_order_formula(act, sigma) == 0:
            return Validity.NOT_ORBIFOLD
    return Validity.ORBIFOLD


def gamma6(act: TorusAction6, sigma: Permutation3) -> AbelianGroup2:
    """Isotropy group at the vertex matched by sigma, as Z_d1 + Z_d2.

    Cross-checked against the determinant order formula and against the
    gcd of the two single-circle isotropy orders (which gives d1).
    """
    n = vertex_order_formula(act, sigma)
    if n == 0:
        raise ValueError("vertex order 0: not an orbifold action")
    rows = _stabilizer_rows(act, sigma)
    group = kernel_group(rows)
    r = gcd(*rows[0], *rows[1])
    if group.order != n or group.d1 != r:
        raise RuntimeError(
            f"isotropy cross-check failed at {PERM_NAMES[sigma]}: "
            f"snf gives {group}, formulas give order {n}, d1 {r}"
        )
    return group


def lgroup6(
    act: TorusAction6, i: int, j: int
) -> tuple[AbelianGroup2, tuple[Permutation3, Permutation3]]:
    """Isotropy group along the 2-sphere stratum L_{ij}.

    Computed structurally as the intersection of the two endpoint vertex
    groups: the kernel of the stacked relation rows of both matchings.
    """
    if (i, j) not in EDGE_ENDPOINTS:
        raise ValueError(f"no stratum L_{i}{j}")
    sigma, tau = EDGE_ENDPOINTS[(i, j)]
    rows = _stabilizer_rows(act, sigma) + _stabilizer_rows(act, tau)
    group = kernel_group(rows)
    if not group.is_finite:
        raise ValueError("infinite stratum isotropy: not an orbifold action")
    return group, (sigma, tau)


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
    vertices = {s: gamma6(eff, s) for s in ALL_PERMS}
    edges = {}
    for e in EDGE_ORDER:
        group, endpoints = lgroup6(eff, *e)
        if any(vertices[s].order % group.order != 0 for s in endpoints):
            raise RuntimeError(f"stratum group does not divide endpoints at L_{e}")
        edges[e] = EdgeReport(group, endpoints)
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
        m = tuple(tuple(int(x) for x in row) for row in self.m)
        object.__setattr__(self, "m", m)
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) != 1:
            raise ValueError("matrix must be unimodular")


EquivalenceMove = Union[Swap, Scale, Shift, Permute, GL2Z]


def _scale_triple(w: Weight3, f: Fraction) -> Weight3:
    out = []
    for x in w:
        v = f * x
        if v.denominator != 1:
            raise ValueError(f"scale by {f} does not keep weights integral")
        out.append(int(v))
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

    The family is indexed by d >= 0; a negative d raises ValueError.
    """
    if d < 0:
        raise ValueError(f"the family requires d >= 0, got d={d}")
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if sum(a) != sum(b):
        raise ValueError("weight sums must agree: sum(a) != sum(b)")
    c = a[2]
    return Cohom1Params(
        d=int(d), alpha=a[0] - c, beta=a[1] - c, gamma=b[0] - c, delta=b[1] - c
    )


@dataclass(frozen=True)
class Cohom1Tables:
    """Closed-form vertex and stratum orders for the family."""

    vertex_orders: tuple[int, int, int, int, int, int]  # in VERTEX_ORDER
    edge_orders: dict[tuple[int, int], int]
    noncyclic_edges: tuple[tuple[int, int], ...]  # structural check results


def _vertex_formulas(p: Cohom1Params) -> dict[Permutation3, int]:
    al, be, ga, de, d = p.alpha, p.beta, p.gamma, p.delta, p.d
    return {
        IDENTITY: abs((al - be) - (ga - de)),
        SWAP_12: abs((al - be) + (ga - de)),
        SWAP_13: abs(ga + d * (be - de)),
        CYCLE_123: abs(ga + d * (al - de)),
        CYCLE_132: abs(de + d * (be - ga)),
        SWAP_23: abs(de + d * (al - ga)),
    }


def _edge_formulas(p: Cohom1Params) -> dict[tuple[int, int], int]:
    al, be, ga, de, d = p.alpha, p.beta, p.gamma, p.delta, p.d
    return {
        (1, 1): gcd((al - be) - (ga - de), de + d * (al - ga)),
        (1, 2): gcd((al - be) + (ga - de), ga + d * (al - de)),
        (1, 3): gcd(de - ga, de + d * (be - ga)),
        (2, 1): gcd((al - be) + (ga - de), de + d * (be - ga)),
        (2, 2): gcd((al - be) - (ga - de), ga + d * (be - de)),
        (2, 3): gcd(de - ga, de + d * (al - ga)),
        (3, 1): gcd(al - be, ga + d * (al - de)),
        (3, 2): gcd(al - be, de + d * (al - ga)),
        (3, 3): gcd(al - be, ga - de),
    }


def cohom1_tables(params: Cohom1Params) -> Cohom1Tables:
    """Vertex and stratum orders via closed formulas, cross-checked against
    the structural isotropy computation on the assembled torus action."""
    act = params.action()
    if validate6(act) is not Validity.ORBIFOLD:
        raise ValueError("degenerate second circle: not an orbifold action")
    vf = _vertex_formulas(params)
    ef = _edge_formulas(params)
    noncyclic = []
    for sigma in VERTEX_ORDER:
        if gamma6(act, sigma).order != vf[sigma]:
            raise RuntimeError(f"vertex formula mismatch at {PERM_NAMES[sigma]}")
    for e in EDGE_ORDER:
        group, _ = lgroup6(act, *e)
        if group.order != ef[e]:
            raise RuntimeError(f"stratum formula mismatch at L_{e}")
        if not group.is_cyclic:
            noncyclic.append(e)
    return Cohom1Tables(
        vertex_orders=tuple(vf[s] for s in VERTEX_ORDER),
        edge_orders=ef,
        noncyclic_edges=tuple(noncyclic),
    )


def effectivize_cohom1(d: int, a: Weight3, b: Weight3) -> tuple[Weight3, Weight3]:
    """Make the second circle act effectively on the d-th family member,
    without disturbing the first circle p=(1,1,d), q=(0,0,d+2).

    Shears the second circle by a multiple of the first, shifts, and
    divides by the kernel order k = gcd(gamma-delta, alpha-beta,
    alpha*d - gamma*(d-1)).
    """
    params = cohom1_params(d, a, b)
    al, be, ga, de = params.alpha, params.beta, params.gamma, params.delta
    k = gcd(gcd(ga - de, al - be), al * d - ga * (d - 1))
    if k == 0:
        raise ValueError("degenerate second circle")
    if k == 1:
        return tuple(a), tuple(b)
    # shear by r times the first circle, then shift by -r*d; the first
    # entries of a and b are both divisible by k only if r = gamma - alpha
    # mod k, so that r is the only candidate
    r = (ga - al) % k
    na = (al + r - r * d, be + r - r * d, 0)
    nb = (ga - r * d, de - r * d, params.epsilon + 2 * r)
    if all(x % k == 0 for x in na + nb):
        na = tuple(x // k for x in na)
        nb = tuple(x // k for x in nb)
        act = TorusAction6(a=na, b=nb, p=(1, 1, d), q=(0, 0, d + 2))
        if kernel_of_action(act).is_trivial:
            return na, nb
    raise RuntimeError("effectivization of the family action failed")


@dataclass(frozen=True)
class FamilyClassification:
    """Singular-locus report for a family member, with classification notes."""

    params: Cohom1Params
    report: SingularLocusReport
    notes: tuple[str, ...]


def classify_family_member(d: int, a: Weight3, b: Weight3) -> FamilyClassification:
    """Classify the singular locus of a family quotient (d >= 3).

    Also asserts the structural facts: the singular locus is never
    empty, and when exactly two vertices are singular the stratum
    joining them is singular too.
    """
    if d < 3:
        raise ValueError("family classification requires d >= 3")
    params = cohom1_params(d, a, b)
    report = singular_report(params.action())
    notes = []
    sing_v = report.singular_vertices()
    sing_e = report.singular_edges()
    if not sing_v and not sing_e:
        raise RuntimeError("empty singular locus: contradicts the classification")
    for s in VERTEX_ORDER:
        g = report.vertices[s]
        if not g.is_trivial:
            notes.append(f"singular point C_{PERM_NAMES[s]} with group {g}")
    for e in EDGE_ORDER:
        r = report.edges[e]
        if not r.group.is_trivial:
            names = ", ".join(PERM_NAMES[s] for s in r.endpoints)
            notes.append(f"singular 2-sphere L_{e[0]}{e[1]} ({names}) with group {r.group}")
    if len(sing_v) == 2:
        pair = set(sing_v)
        connecting = [
            e for e, r in report.edges.items() if set(r.endpoints) == pair
        ]
        if not connecting or all(
            report.edges[e].group.is_trivial for e in connecting
        ):
            raise RuntimeError(
                "exactly two singular points but no singular connecting sphere"
            )
        notes.append(
            "the two singular points are joined by a singular 2-sphere"
        )
    return FamilyClassification(params=params, report=report, notes=tuple(notes))
