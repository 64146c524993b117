"""Singular-locus descriptors for the remaining quotient families.

Covers weighted projective planes SU(3)//(SU(2) x S^1), circle quotients
of the 5-manifold SU(3)/SO(3), and the constant descriptor of the
5-dimensional quotient SU(3)//SU(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .lattice import AbelianGroup2


class ZeroWeightError(ValueError):
    """A pairwise weight sum vanished, so the quotient is not well formed."""


class NotPrimitiveError(ValueError):
    """The input weight triple has a common factor."""


@dataclass(frozen=True)
class WeightedCP:
    """Weighted projective plane with normalized weights.

    Weights are positive, coprime as a triple, sorted descending.
    """

    weights: tuple[int, int, int]

    def __post_init__(self):
        w = tuple(int(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if any(x <= 0 for x in w):
            raise ValueError("weights must be positive")
        if gcd(gcd(w[0], w[1]), w[2]) != 1:
            raise ValueError("weights must be coprime as a triple")
        if list(w) != sorted(w, reverse=True):
            raise ValueError("weights must be sorted descending")


def weighted_cp(p: int, q: int, r: int) -> WeightedCP:
    """The weighted projective plane quotient for circle weights (p, q, r).

    The projective weights are the pairwise sums (q+r, p+r, p+q), with
    signs and common factors normalized away.
    """
    if gcd(gcd(p, q), r) != 1:
        raise NotPrimitiveError(f"gcd{(p, q, r)} != 1")
    sums = (q + r, p + r, p + q)
    if any(s == 0 for s in sums):
        raise ZeroWeightError(f"pairwise sum vanishes for {(p, q, r)}")
    w = [abs(s) for s in sums]
    g = gcd(gcd(w[0], w[1]), w[2])
    w = sorted((x // g for x in w), reverse=True)
    return WeightedCP(weights=tuple(w))


@dataclass(frozen=True)
class Rp2Stratum:
    """The projective-plane stratum of a 4-dimensional circle quotient."""

    generic_order: int  # 2 everywhere away from the distinguished point
    distinguished_point_order: int
    larger: bool  # distinguished order exceeds the generic 2


@dataclass(frozen=True)
class WuReport:
    """Singular locus of the circle quotient of SU(3)/SO(3)."""

    isolated_points: tuple[int, ...]  # cyclic orders > 1 (odd members)
    rp2: Rp2Stratum
    valid: bool


def wu_quotient(p: int, q: int) -> WuReport:
    """Singular data of the weight-(p, q) circle quotient of SU(3)/SO(3).

    Requires coprime p >= q >= 0.  The candidate isotropy orders are
    {p, q, p+q}; exactly one is even and that one sits at a distinguished
    point of the RP^2 stratum (generic group of order 2), while the odd
    orders exceeding 1 appear at isolated points.
    """
    p, q = int(p), int(q)
    if gcd(p, q) != 1:
        raise ValueError("weights must be coprime for an effective action")
    if not p >= q >= 0:
        raise ValueError("normalization requires p >= q >= 0")
    valid = p >= q > 0
    orders = (p, q, p + q)
    evens = [o for o in orders if o % 2 == 0]
    if valid and len(evens) != 1:
        raise RuntimeError(f"expected exactly one even order among {orders}")
    even = evens[0] if evens else 0
    isolated = tuple(sorted(o for o in orders if o > 1 and o % 2 == 1))
    return WuReport(
        isolated_points=isolated,
        rp2=Rp2Stratum(
            generic_order=2,
            distinguished_point_order=even,
            larger=even > 2,
        ),
        valid=valid,
    )


@dataclass(frozen=True)
class O5Descriptor:
    """Constant singular-locus description of the 5-dimensional quotient."""

    locus: str
    locus_dimension: int
    group: AbelianGroup2
    normal_link: str


def o5_descriptor() -> O5Descriptor:
    """Singular locus of SU(3)//SU(2): a closed geodesic circle whose
    points carry a cyclic group of order 3, with normal space of
    directions the lens space L(3;1).

    The order 3 is a theorem.  h fixes g iff psi1(h) = g psi2(h) g^{-1}, so
    the spectra {l, 1/l, 1} and {l^2, 1/l^2, 1} agree: l = 1 or l^3 = 1.
    Every other closed subgroup of SU(2) has an element of another order
    (Z_n one of order n, the binary dihedral and polyhedral groups -1, an
    infinite one a circle), so every stabilizer is trivial or Z_3, and
    exp((2 pi/3) I1) fixes o5.g_z.  tests/test_o5.py::TestIsotropyTheorem
    proves both steps in sympy.
    """
    return O5Descriptor(
        locus="circle",
        locus_dimension=1,
        group=AbelianGroup2(1, 3),
        normal_link="L(3;1)",
    )
