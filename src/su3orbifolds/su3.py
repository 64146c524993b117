"""Floating-point su(3) engine for the 5-dimensional quotient checks.

Inner product convention: <X, Y> = -Re tr(XY) (so the norm of
diag(i,-i,0) squared is 2).  The shrunk subalgebra K is a nonstandard
so(3) copy spanned by I2, J2, K2 below; the deformed metric scales the
K component by nu in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt

import numpy as np

# su(2)-block basis (upper-left), and the so(3)-type triple spanning K.
I1 = np.array([[1j, 0, 0], [0, -1j, 0], [0, 0, 0]], dtype=complex)
J1 = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
K1 = np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)

_S2 = sqrt(2.0)
I2 = np.array([[2j, 0, 0], [0, -2j, 0], [0, 0, 0]], dtype=complex)
J2 = np.array([[0, 0, _S2], [0, 0, -_S2], [-_S2, _S2, 0]], dtype=complex)
K2 = np.array(
    [[0, 0, 1j * _S2], [0, 0, 1j * _S2], [1j * _S2, 1j * _S2, 0]], dtype=complex
)

K_BASIS = (I2, J2, K2)  # each has squared norm 8

# Distinguished direction: the block-circle generator diag(i,i,-2i).
Y3 = np.array([[1j, 0, 0], [0, 1j, 0], [0, 0, -2j]], dtype=complex)


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Bi-invariant inner product -Re tr(XY)."""
    return float(-np.trace(x @ y).real)


def norm2(x: np.ndarray) -> float:
    return inner(x, x)


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def combine(coeffs, mats) -> np.ndarray:
    """The linear combination sum_i coeffs[i] * mats[i], summed in order."""
    out = np.zeros((3, 3), dtype=complex)
    for c, m in zip(coeffs, mats):
        out += c * m
    return out


def project_K(x: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto K = span{I2, J2, K2}."""
    out = np.zeros((3, 3), dtype=complex)
    for e in K_BASIS:
        out += (inner(x, e) / 8.0) * e
    return out


def _split_K(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x - project_K(x), project_K(x)): the two parts that inner_nu weighs."""
    xk = project_K(x)
    return x - xk, xk


def _inner_split(x, y, nu: float) -> float:
    """inner_nu of two vectors given as their _split_K pairs."""
    return inner(x[0], y[0]) + nu * inner(x[1], y[1])


@dataclass(frozen=True)
class CheegerMetric:
    """Deformed metric scaling the K component by nu in (0, 1)."""

    nu: float = 0.5

    def __post_init__(self):
        if not 0 < self.nu < 1:
            raise ValueError("nu must lie strictly between 0 and 1")

    def gram(self, xs, ys) -> np.ndarray:
        """The matrix [[inner_nu(x, y, self) for y in ys] for x in xs],
        projecting each vector onto K once."""
        xs, ys = [_split_K(x) for x in xs], [_split_K(y) for y in ys]
        return np.array([[_inner_split(x, y, self.nu) for y in ys] for x in xs])

    @cached_property
    def _basis_gram(self) -> np.ndarray:
        """The inner_nu Gram of SU3_BASIS, built on first use (read-only)."""
        return _frozen(
            np.array([[_inner_split(e, f, self.nu) for f in _BASIS_SPLIT] for e in _BASIS_SPLIT])
        )


def inner_nu(x: np.ndarray, y: np.ndarray, m: CheegerMetric) -> float:
    return _inner_split(_split_K(x), _split_K(y), m.nu)


def is_su3(x: np.ndarray, tol: float = 1e-12) -> bool:
    return (
        np.abs(x + x.conj().T).max() < tol and abs(np.trace(x)) < tol
    )


# entrywise tolerance of is_special_unitary
UNITARY_TOL = 1e-12
# horizontal_basis_O5 raises when the vertical frame has a singular value below this
VERTICAL_RANK_TOL = 1e-9


def is_special_unitary(g: np.ndarray) -> bool:
    return (
        np.abs(g @ g.conj().T - np.eye(3)).max() < UNITARY_TOL
        and abs(np.linalg.det(g) - 1) < UNITARY_TOL
    )


def su3_basis() -> list[np.ndarray]:
    """Orthonormal basis of su(3) under the bi-invariant product."""
    basis = [
        np.diag([1j, -1j, 0]) / _S2,
        np.diag([1j, 1j, -2j]) / sqrt(6.0),
    ]
    for r, s in ((0, 1), (0, 2), (1, 2)):
        m = np.zeros((3, 3), dtype=complex)
        m[r, s], m[s, r] = 1, -1
        basis.append(m / _S2)
        m = np.zeros((3, 3), dtype=complex)
        m[r, s], m[s, r] = 1j, 1j
        basis.append(m / _S2)
    return basis


def _frozen(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


# The su3_basis() vectors and their _split_K parts, built once per process
# and read-only; su3_basis() itself still returns a fresh list.
SU3_BASIS = tuple(_frozen(e) for e in su3_basis())
_BASIS_SPLIT = tuple(tuple(_frozen(p) for p in _split_K(e)) for e in SU3_BASIS)


def coords(x: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Coefficients of x in an inner-orthonormal basis."""
    return np.array([inner(x, e) for e in basis])


def haar_su3(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(3) element (QR of a Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / _S2
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    q = q / np.linalg.det(q) ** (1 / 3)
    return q


def random_su3_element(rng: np.random.Generator) -> np.ndarray:
    """Random element of su(3) with independent normal coefficients."""
    return combine(rng.standard_normal(8), SU3_BASIS)


def vertical_basis_O5(g: np.ndarray) -> list[np.ndarray]:
    """Spanning set of the vertical space of the two-sided SU(2) action.

    The vectors are psi(C) - Ad(g^{-1})C for C in (I1, J1, K1), where
    psi maps the su(2)-block basis to the K triple.  Rank is 3 for
    every g (all stabilizers are finite).
    """
    gi = g.conj().T
    return [k2 - gi @ k1 @ g for k1, k2 in ((I1, I2), (J1, J2), (K1, K2))]


def horizontal_basis_O5(
    g: np.ndarray, m: CheegerMetric
) -> tuple[list[np.ndarray], np.ndarray]:
    """inner_nu-orthonormal basis of the horizontal space at g.

    Returns the five matrices and their coefficient frame (8 x 5) in the
    su3_basis coordinates.  Raises when the vertical space degenerates.
    The basis, its K splits and the metric's Gram of it are built once;
    each call projects its three vertical vectors once.
    """
    vert = [_split_K(v) for v in vertical_basis_O5(g)]
    a = np.array([[_inner_split(e, v, m.nu) for e in _BASIS_SPLIT] for v in vert])
    u, s, vt = np.linalg.svd(a)
    if s.min() < VERTICAL_RANK_TOL:
        raise RuntimeError("vertical space degenerated: broken invariant")
    null = vt[3:].T  # 8 x 5, Euclidean-orthonormal columns
    # re-orthonormalize under inner_nu
    gram = null.T @ m._basis_gram @ null
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        # a LinAlgError is a ValueError, which would read as malformed input
        raise RuntimeError("horizontal Gram matrix degenerated: broken invariant") from exc
    frame = null @ np.linalg.inv(chol).T  # inner_nu-orthonormal coefficients
    return [combine(frame[:, k], SU3_BASIS) for k in range(5)], frame


def flatness(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-curvature functional of the plane spanned by a and b.

    Vanishes exactly on planes that are flat for every deformed metric:
    both the full bracket and the bracket of the K components must be
    zero.
    """
    return norm2(bracket(a, b)) + norm2(bracket(project_K(a), project_K(b)))
