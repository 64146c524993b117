"""Exact integer kernels.

Everything in this module is exact: arbitrary-precision integers for the
Smith-normal-form / torus-kernel computations.  No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence


Row = tuple[int, int]


@dataclass(frozen=True)
class AbelianGroup2:
    """Finite abelian group on at most two generators, Z_d1 + Z_d2 with d1 | d2.

    d1 = d2 = 1 encodes the trivial group.  d2 = 0 encodes an infinite
    (circle) factor, which callers treat as a degenerate action.
    """

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("invariant factors must be non-negative")
        if self.d1 and self.d2 and self.d2 % self.d1 != 0:
            raise ValueError(f"d1={self.d1} must divide d2={self.d2}")

    @property
    def order(self) -> int:
        """Group order; 0 means infinite."""
        return self.d1 * self.d2

    @property
    def is_trivial(self) -> bool:
        return self.d1 == 1 and self.d2 == 1

    @property
    def is_finite(self) -> bool:
        return self.d2 != 0

    @property
    def is_cyclic(self) -> bool:
        return self.d1 == 1

    def __str__(self) -> str:
        if not self.is_finite:
            return "infinite"
        if self.is_trivial:
            return "trivial"
        if self.is_cyclic:
            return f"Z_{self.d2}"
        return f"Z_{self.d1}+Z_{self.d2}"


TRIVIAL_GROUP = AbelianGroup2(1, 1)


def snf2(rows: Sequence[Row]) -> tuple[int, int]:
    """Invariant factors (d1, d2) of an integer matrix with two columns.

    d1 is the gcd of all entries; d1*d2 is the gcd of all 2x2 minors
    (d2 = 0 when every minor vanishes, i.e. rank <= 1).
    """
    rows = [(int(a), int(b)) for a, b in rows]
    if not rows:
        raise ValueError("matrix must have at least one row")
    d1 = 0
    for a, b in rows:
        d1 = gcd(d1, gcd(a, b))
    minors = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            m = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            minors = gcd(minors, m)
    if minors == 0:
        return d1, 0
    return d1, minors // d1


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def row_lattice_basis(rows: Sequence[Row]) -> tuple[int, int, int]:
    """Hermite basis [[a, b], [0, c]] (a, c >= 0) of the lattice spanned by rows."""
    a = b = c = 0
    for x, y in rows:
        x, y = int(x), int(y)
        if x == 0:
            # the row only constrains the second coordinate
            c = gcd(c, y)
        elif a == 0:
            a, b = x, y
        else:
            g, u, v = ext_gcd(a, x)
            leftover = (a * y - x * b) // g
            a, b = g, u * b + v * y
            c = gcd(c, leftover)
    if a < 0:
        a, b = -a, -b
    return a, b, abs(c)


Matrix2 = list[list[int]]


def _unimodular_inverse(m: Matrix2) -> Matrix2:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]  # +-1, its own inverse
    return [[det * m[1][1], -det * m[0][1]], [-det * m[1][0], det * m[0][0]]]


def snf2x2(m: Sequence[Sequence[int]]) -> tuple[Matrix2, Matrix2, Matrix2]:
    """Diagonalize a 2x2 integer matrix: m = U @ D @ V.

    U and V are unimodular and D is diagonal.  The entries of D keep their
    signs and need not divide each other; `kernel_generator` completes
    the Smith form.  Column steps clear D[0][1] and row steps clear
    D[1][0] (a swap, an exact shear, or an extended-gcd rotation), in
    alternation until both vanish.
    """
    a = [[int(m[0][0]), int(m[0][1])], [int(m[1][0]), int(m[1][1])]]
    rops = [[1, 0], [0, 1]]  # a == rops @ m @ cops throughout
    cops = [[1, 0], [0, 1]]

    def colop(al, be, ga, de):
        # (col0, col1) <- (al*col0 + be*col1, ga*col0 + de*col1)
        for mat in (a, cops):
            for row in mat:
                r0, r1 = row
                row[0] = al * r0 + be * r1
                row[1] = ga * r0 + de * r1

    def rowop(t00, t01, t10, t11):
        for mat in (a, rops):
            r0 = [t00 * mat[0][0] + t01 * mat[1][0], t00 * mat[0][1] + t01 * mat[1][1]]
            r1 = [t10 * mat[0][0] + t11 * mat[1][0], t10 * mat[0][1] + t11 * mat[1][1]]
            mat[0], mat[1] = r0, r1

    for _ in range(200):
        if a[0][1] != 0:
            if a[0][0] == 0:
                colop(0, 1, 1, 0)
            elif a[0][1] % a[0][0] == 0:
                # shear keeps the pivot and cannot regrow cleared entries
                colop(1, 0, -(a[0][1] // a[0][0]), 1)
            else:
                g, x, y = ext_gcd(a[0][0], a[0][1])
                colop(x, y, -(a[0][1] // g), a[0][0] // g)
        if a[1][0] != 0:
            if a[0][0] == 0:
                rowop(0, 1, 1, 0)
            elif a[1][0] % a[0][0] == 0:
                rowop(1, 0, -(a[1][0] // a[0][0]), 1)
            else:
                g, x, y = ext_gcd(a[0][0], a[1][0])
                rowop(x, y, -(a[1][0] // g), a[0][0] // g)
        if a[0][1] == 0 and a[1][0] == 0:
            return _unimodular_inverse(rops), a, _unimodular_inverse(cops)
    raise RuntimeError("SNF reduction did not terminate")  # pragma: no cover


def kernel_group(rows: Sequence[Row]) -> AbelianGroup2:
    """Structure of {(z, w) in T^2 : z^{m1} w^{m2} = 1 for every row (m1, m2)}.

    Returns Z_d1 + Z_d2 via the invariant factors of the relation matrix;
    d2 = 0 signals an infinite kernel, and (0, 0) all-zero rows.
    """
    return AbelianGroup2(*snf2(rows))


def kernel_generator(rows: Sequence[Row]) -> Optional[tuple[int, int, int]]:
    """A maximal-order generator (k, l, n) of a finite kernel, gcd(k, l) = 1.

    The element is (e^{2 pi i k/n}, e^{2 pi i l/n}) of exact order n = d2.
    Returns None for a trivial kernel; raises for an infinite one.

    The kernel is { T (k/d1, l/d2) } modulo Z^2, T unimodular: the column
    operations of `snf2x2` on the Hermite basis of the rows, accumulated.
    """
    a, b, c = row_lattice_basis(rows)
    if a == 0 or c == 0:
        raise ValueError("kernel is infinite")
    m = [[a, b], [0, c]]
    t = [[1, 0], [0, 1]]
    while True:
        _u, d, v = snf2x2(m)
        cops = _unimodular_inverse(v)
        t = [[sum(t[i][k] * cops[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        d1, d2 = abs(d[0][0]), abs(d[1][1])
        if d2 % d1 == 0:
            break
        # couple the diagonal entries (row op) and reduce again; the new d1
        # is gcd(d1, d2) < d1, so the loop ends
        m = [[d[0][0], d[1][1]], [0, d[1][1]]]
    if d2 == 1:
        return None
    # second SNF coordinate has the maximal order d2; its image under the
    # unimodular T is a primitive vector, so gcd(k, l) = 1 automatically
    return t[0][1], t[1][1], d2
