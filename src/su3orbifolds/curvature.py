"""Exact positive-curvature decision for the 6-dimensional torus quotients.

The metric obtained by shrinking along the U(2) block that fixes the
third coordinate is positively curved iff one exact rational system in
(t, eta) is infeasible.  A simplex that pivots on integers decides it,
and a feasible point is returned as a flat witness.  When the quotient
is positively curved, a bounded search finds a circle inside the torus
whose 7-dimensional quotient is itself positively curved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .lattice import ext_gcd, snf2x2
from .eschenburg7 import CircleAction7, Validity, positive7
from .eschenburg6 import (
    GL2Z,
    EquivalenceMove,
    Scale,
    Shift,
    TorusAction6,
    apply_equivalence,
    validate6,
)


@dataclass(frozen=True)
class FlatWitness:
    """Exact parameters of a flat plane for the block-shrunk metric.

    Solves (1-t)b1 + t*b2 = sum(eta*a) together with
    (1-t)q1 + t*q2 = sum(eta*p), with t in [0, 1] and eta in the
    standard 2-simplex.  kind is always "Condition1", the paper's name
    for this system, which the reports carry.
    """

    kind: str
    t: Fraction
    eta: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        if not (0 <= self.t <= 1):
            raise ValueError("t out of [0, 1]")
        if any(e < 0 for e in self.eta) or sum(self.eta) != 1:
            raise ValueError("eta not in the standard simplex")


def flat_witness(act: TorusAction6) -> Optional[FlatWitness]:
    """Exact flat-plane witness, or None when positively curved.

    With A_i = (a_i, p_i) and B_j = (b_j, q_j), the paper's criterion
    asks whether the segment [B_1, B_2] meets the triangle
    T = conv{A_i} (Condition 1), or B_3 lies in T (Condition 2).  The
    second implies the first: sum(a) = sum(b) and sum(p) = sum(q) give T
    and the B_j the same centroid, so B_3 = sum(eta_i A_i) makes
    (B_1 + B_2)/2 = sum(((1 - eta_i)/2) A_i), a Condition 1 point with
    t = 1/2.  One exact rational linear program therefore decides
    positive curvature of the block-shrunk metric.

    It is an exact phase-1 simplex (Bland's rule) over the non-negative
    variables (t, s, eta1, eta2, eta3) with t + s = 1 and
    eta1 + eta2 + eta3 = 1; fully deterministic.  The tableau rows are
    [t, s, eta1, eta2, eta3 | rhs] with rhs >= 0: the two sum
    constraints, then (b2 - b1)t - sum(eta*a) = -b1 and the same in
    (q, p).  They hold integers over one common denominator d > 0, first
    1 (Edmonds, Bareiss): a pivot on p = T[r][c] > 0 maps every other row
    v, and the cost row, to (p*v - v[c]*T[r]) // d, also where v[c] = 0,
    and sets d = p.  The division is exact, since the tableau is
    |det B| B^-1 [A | I] for the basis B (Sylvester's identity); the ratio
    test cross-multiplies, so the pivots are those of the same simplex
    over Fraction, and the witness is rhs / d.  Row i starts with its own
    artificial variable basic, labelled 5 + i; the artificial columns are
    not stored, since no pivot reads them, and the labels stay in the
    basis only for Bland's tie-break.  A row with no coefficients needs
    no special case: if its rhs is nonzero its artificial never leaves
    the basis, and if it is zero, a = 0 and b = 0 (or p = q = 0), which
    validate6 rejects.  Raises RuntimeError on the two exits that the
    algebra rules out: an unbounded entering column (the phase-1
    objective, a sum of non-negative artificials, is bounded below) and
    a positive basic artificial at objective 0.
    """
    if validate6(act) is not Validity.ORBIFOLD:
        raise ValueError("not an orbifold action")
    tab = [[1, 1, 0, 0, 0, 1], [0, 0, 1, 1, 1, 1]]
    for b, a in ((act.b, act.a), (act.q, act.p)):
        row = [b[1] - b[0], 0, *(-x for x in a), -b[0]]
        tab.append(row if row[-1] >= 0 else [-v for v in row])
    n = 5
    basis = [n + i for i in range(len(tab))]
    # phase-1 reduced costs: each artificial costs 1, so the column sums
    cost = [sum(col) for col in zip(*tab)]
    d = 1  # the tableau and cost row stand for tab / d and cost / d

    while True:
        # entering: first column with positive reduced cost (Bland)
        enter = next((j for j in range(n) if cost[j] > 0), None)
        if enter is None:
            break
        # ratio test by cross-multiplication; ties go to the smallest label
        rows = [i for i, row in enumerate(tab) if row[enter] > 0]
        if not rows:
            raise RuntimeError("phase-1 simplex: unbounded entering column")
        leave = rows[0]
        for i in rows[1:]:
            lhs, rhs = tab[i][n] * tab[leave][enter], tab[leave][n] * tab[i][enter]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        # every other row moves to the new denominator p, exactly
        prow, p = tab[leave], tab[leave][enter]
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                tab[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
        f = cost[enter]
        cost = [(p * v - f * w) // d for v, w in zip(cost, prow)]
        d = p
        basis[leave] = enter

    if cost[n] != 0:
        return None
    x = [Fraction(0)] * n
    for label, row in zip(basis, tab):
        if label < n:
            x[label] = Fraction(row[n], d)
        elif row[n] != 0:
            raise RuntimeError("phase-1 simplex: positive artificial at objective 0")
    return FlatWitness(kind="Condition1", t=x[0], eta=tuple(x[2:]))


@dataclass(frozen=True)
class CircleCombo:
    """Coprime integer combination of the two generating circles."""

    lam: int
    mu: int

    def __post_init__(self):
        if gcd(self.lam, self.mu) != 1:
            raise ValueError("lam and mu must be coprime")

    def circle(self, act: TorusAction6) -> CircleAction7:
        p = tuple(self.lam * x + self.mu * y for x, y in zip(act.p, act.a))
        q = tuple(self.lam * x + self.mu * y for x, y in zip(act.q, act.b))
        return CircleAction7(p=p, q=q)


class ExhaustedBound(RuntimeError):
    """The search bound was exhausted without finding a circle."""

    def __init__(self, bound: int):
        super().__init__(f"no positively curved circle with coefficients up to {bound}")
        self.bound = bound


CIRCLE_BOUND = 100  # default |coefficient| bound of the circle search and of poscurv


def _candidates(bound: int):
    # canonical representatives: mu > 0, or (lam, mu) = (1, 0); ordered by
    # level m = max(|lam|, |mu|), then |lam|, with positive lam first on
    # ties, then mu; below |lam| = m only mu = m reaches level m
    for m in range(1, bound + 1):
        for a in range(m + 1):
            for lam in (a, -a) if a else (0,):
                for mu in range(0 if lam == 1 else 1, m + 1) if a == m else (m,):
                    if gcd(lam, mu) == 1:
                        yield lam, mu


def search_circle(act: TorusAction6, bound: int = CIRCLE_BOUND) -> CircleCombo:
    """The first coprime combination (lam, mu), in a deterministic order
    up to |coefficient| bound, whose circle has a positively curved 7-D
    quotient.

    Raises ExhaustedBound if none works within the bound, and ValueError
    for a bound below 1.  It does not decide the 6-D quotient first: a
    flat witness (flat_witness) already proves that no such circle
    exists, and find_circle checks for one.
    """
    if bound < 1:
        raise ValueError(f"circle search bound must be at least 1, got {bound}")
    for lam, mu in _candidates(bound):
        combo = CircleCombo(lam, mu)
        if positive7(combo.circle(act)):
            return combo
    raise ExhaustedBound(bound)


def find_circle(act: TorusAction6, bound: int = CIRCLE_BOUND) -> Optional[CircleCombo]:
    """A coprime circle combination with positively curved 7-D quotient.

    Returns None (provably none exists) when the 6-D quotient itself is
    not positively curved: any positively curved circle inside the torus
    would force positivity of the quotient by Riemannian submersion.
    Otherwise returns search_circle(act, bound), which raises
    ExhaustedBound if no circle works within the bound and ValueError
    for a bound below 1.
    """
    if flat_witness(act) is not None:
        return None
    return search_circle(act, bound)


# ---------------------------------------------------------------------------
# Reparametrization normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReparCase:
    """Normal form of the generating circles after reparametrization.

    case "AllZeroP": the first circle has left weights p' = (0,0,0).
    case "BlockForm": p' = (0,n,0) and a' = (0,n,n) with n > 0.
    Both are reached by quotient-preserving moves (possibly including
    integer circle scalings, which may leave the action ineffective).
    """

    case: str
    n: Optional[int]
    transformed: TorusAction6
    moves: tuple[EquivalenceMove, ...]


def _apply_integer_matrix(
    act: TorusAction6, m
) -> tuple[TorusAction6, list[EquivalenceMove]]:
    """Replace the circles by the integer combinations given by m
    (nonzero determinant), decomposed into unimodular moves and integer
    circle scalings.  The subgroup generated is unchanged."""
    u, d, v = snf2x2(m)
    moves: list[EquivalenceMove] = [
        GL2Z((tuple(v[0]), tuple(v[1]))),
        Scale(Fraction(d[0][0]), Fraction(d[1][1])),
        GL2Z((tuple(u[0]), tuple(u[1]))),
    ]
    for mv in moves:
        act = apply_equivalence(act, mv)
    return act, moves


def repar_normal_form(act: TorusAction6) -> ReparCase:
    """Bring the generating circles to one of two normal forms.

    After gauging p_1 = a_1 = 0, the branch is decided by
    delta = a_2*p_3 - a_3*p_2: zero yields a combination killing p
    entirely (case AllZeroP), nonzero yields the block form
    p' = (0,n,0), a' = (0,n,n) with n = |delta|.
    """
    if validate6(act) is not Validity.ORBIFOLD:
        raise ValueError("not an orbifold action")
    moves: list[EquivalenceMove] = []
    cur = act
    mv = Shift(c=-cur.a[0], d=-cur.p[0])
    cur = apply_equivalence(cur, mv)
    moves.append(mv)
    p, a = cur.p, cur.a
    delta = a[1] * p[2] - a[2] * p[1]
    if delta == 0:
        # p and a are proportional in the last two slots; kill p
        if p == (0, 0, 0):
            mn = (1, 0)
        elif a[1] == 0 and a[2] == 0:
            mn = (0, 1)
        else:
            i = 1 if (a[1], p[1]) != (0, 0) else 2
            g = gcd(a[i], p[i])
            mn = (a[i] // g, -p[i] // g)
        g, x, y = ext_gcd(mn[0], mn[1])
        assert g == 1
        mv = GL2Z(((mn[0], mn[1]), (-y, x)))
        cur = apply_equivalence(cur, mv)
        moves.append(mv)
        if cur.p != (0, 0, 0):
            raise RuntimeError("normal form failed: p not eliminated")
        return ReparCase(case="AllZeroP", n=None, transformed=cur, moves=tuple(moves))
    s = 1 if delta > 0 else -1
    n = abs(delta)
    # rows: new p = (0, n, 0); new a = new p - (combination giving (0,0,-n))
    m = (
        (-s * a[2], s * p[2]),
        (-s * (a[2] - a[1]), s * (p[2] - p[1])),
    )
    cur, more = _apply_integer_matrix(cur, m)
    moves.extend(more)
    if cur.p != (0, n, 0) or cur.a != (0, n, n):
        raise RuntimeError("normal form failed: block shape not reached")
    return ReparCase(case="BlockForm", n=n, transformed=cur, moves=tuple(moves))
