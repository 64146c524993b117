"""Weighted circle actions on SU(3) and their 7-dimensional quotients.

A circle acts on SU(3) by g -> diag(z^{p_1}, z^{p_2}, z^{p_3}) g
diag(z^{q_1}, z^{q_2}, z^{q_3})^{-1} for integer weight triples p, q with
equal sums.  This module decides validity of the quotient (manifold /
orbifold / neither), computes the cyclic isotropy along the six families
of diagonal tori, and evaluates the positivity criteria for the metric
obtained by shrinking along the U(2) block that fixes the third
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Optional

from .lattice import AbelianGroup2

Weight3 = tuple[int, int, int]

# A permutation of {1,2,3}, stored as the image tuple (s(1), s(2), s(3)).
Permutation3 = tuple[int, int, int]

IDENTITY: Permutation3 = (1, 2, 3)
SWAP_12: Permutation3 = (2, 1, 3)
SWAP_13: Permutation3 = (3, 2, 1)
SWAP_23: Permutation3 = (1, 3, 2)
CYCLE_123: Permutation3 = (2, 3, 1)  # 1 -> 2 -> 3 -> 1
CYCLE_132: Permutation3 = (3, 1, 2)  # 1 -> 3 -> 2 -> 1

ALL_PERMS: tuple[Permutation3, ...] = (
    IDENTITY, SWAP_12, SWAP_13, SWAP_23, CYCLE_123, CYCLE_132,
)

PERM_NAMES: dict[Permutation3, str] = {
    IDENTITY: "id",
    SWAP_12: "(12)",
    SWAP_13: "(13)",
    SWAP_23: "(23)",
    CYCLE_123: "(123)",
    CYCLE_132: "(132)",
}


def permute(w: Weight3, sigma: Permutation3) -> Weight3:
    """The triple (w_{s(1)}, w_{s(2)}, w_{s(3)})."""
    return (w[sigma[0] - 1], w[sigma[1] - 1], w[sigma[2] - 1])


class Validity(Enum):
    NOT_ORBIFOLD = "NotOrbifold"
    ORBIFOLD = "Orbifold"
    FREE_MANIFOLD = "FreeManifold"


@dataclass(frozen=True)
class CircleAction7:
    """Circle action by weights (p, q) with sum(p) = sum(q)."""

    p: Weight3
    q: Weight3

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(int(x) for x in self.p))
        object.__setattr__(self, "q", tuple(int(x) for x in self.q))
        if len(self.p) != 3 or len(self.q) != 3:
            raise ValueError("weights must be triples")
        if sum(self.p) != sum(self.q):
            raise ValueError("weight sums must agree: sum(p) != sum(q)")


def validate7(act: CircleAction7) -> Validity:
    """Classify the quotient of the weighted circle action.

    NotOrbifold when q is a permutation of p (the action has fixed
    tori of positive dimension); FreeManifold when the two leading
    weight differences are coprime for all six permutations; Orbifold
    otherwise.
    """
    if sorted(act.p) == sorted(act.q):
        return Validity.NOT_ORBIFOLD
    for sigma in ALL_PERMS:
        qs = permute(act.q, sigma)
        if gcd(act.p[0] - qs[0], act.p[1] - qs[1]) != 1:
            return Validity.ORBIFOLD
    return Validity.FREE_MANIFOLD


def gamma7(act: CircleAction7, sigma: Permutation3) -> AbelianGroup2:
    """Cyclic isotropy group along the diagonal torus matched by sigma.

    The group is Z_g with g = gcd(p_1 - q_{s(1)}, p_2 - q_{s(2)}).
    Raises when both differences vanish (infinite stabilizer: the input
    is not an orbifold action).
    """
    qs = permute(act.q, sigma)
    d1 = act.p[0] - qs[0]
    d2 = act.p[1] - qs[1]
    if d1 == 0 and d2 == 0:
        raise ValueError("infinite stabilizer: q is a permutation of p")
    return AbelianGroup2(1, gcd(d1, d2))


def positive7(act: CircleAction7) -> bool:
    """Positivity criterion for the block-shrunk metric.

    True iff every q_i lies strictly outside the closed interval
    [min(p), max(p)].  Endpoint hits count as failure.
    """
    lo, hi = min(act.p), max(act.p)
    return all(qi < lo or qi > hi for qi in act.q)


def almost_positive7(act: CircleAction7) -> bool:
    """Almost-positivity: some equivalent presentation matches a chain.

    Sorting both triples (and optionally swapping p with q, a
    quotient-preserving move), the criterion is one of
        q1 < q2 = p1 < p2 <= p3 < q3
        q1 < p1 <= p2 < p3 = q2 < q3
    Negating both triples, the other such move, swaps the two chains, so
    it needs no pass of its own.  Raises on degenerate input (q a
    permutation of p).
    """
    if sorted(act.p) == sorted(act.q):
        raise ValueError("degenerate action: q is a permutation of p")
    for base_p, base_q in ((act.p, act.q), (act.q, act.p)):
        p = sorted(base_p)
        q = sorted(base_q)
        if q[0] < q[1] == p[0] < p[1] <= p[2] < q[2]:
            return True
        if q[0] < p[0] <= p[1] < p[2] == q[1] < q[2]:
            return True
    return False


def cohom1_match(act: CircleAction7) -> Optional[int]:
    """Recognize the one-parameter family p=(1,1,d), q=(0,0,d+2), d >= 0.

    Searches over the quotient-preserving moves (common shift, common
    rational scaling, swap of p and q, independent permutations of each
    triple) for a presentation equal to ((1,1,d), (0,0,d+2)); returns d,
    or None when no such presentation exists.
    """
    for base_p, base_q in ((act.p, act.q), (act.q, act.p)):
        for v in set(base_q):
            if base_q.count(v) < 2:
                continue
            # shift so the repeated value of q becomes 0
            p2 = [x - v for x in base_p]
            q2 = [x - v for x in base_q]
            w = sum(q2)  # the remaining entry of the shifted q
            for e in set(p2):
                if p2.count(e) < 2 or e == 0:
                    continue
                f = sum(p2) - 2 * e  # the remaining entry of the shifted p
                d = Fraction(f, e)
                if d.denominator != 1 or d < 0:
                    continue
                if Fraction(w, e) == d + 2:
                    return int(d)
    return None
