"""Independent brute-force oracles used to validate the exact kernels.

Kept deliberately naive in structure (full enumeration over torsion
points of the torus and over a dense rational grid) with no shared code
paths with the implementations under test.  The flat-plane reference is
the paper's criterion with both of its conditions; curvature.flat_witness
solves only the first, which the second implies.  The reference
feasibility solver is the full-tableau simplex that the simplex of
curvature.flat_witness replaced, kept to pin its pivots and witnesses;
it takes generic equalities and returns a plain (t, eta) pair, so it
shares no type with the package.  circle_candidates is the
scan-filter-sort form of the circle-search order.  The numeric oracles,
distance_to_torus_fd and the per-call horizontal_basis_O5, import scipy
and the numeric modules when called, so loading this module costs neither.
stabilizer_check is the float count of the 5-D isotropy that the theorem
in special.o5_descriptor replaced.

The benchmark (perfbench/workloads.py) loads this file for its torsion
check, so it may import only names that the package keeps.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

import numpy as np

from su3orbifolds.eschenburg6 import TorusAction6, cohom1_params, kernel_of_action


def torsion_count(rows, m: int) -> int:
    """Number of m-torsion points (z, w) of T^2 fixed by all relation rows.

    Counts pairs (j, k) mod m with row . (j, k) = 0 mod m for every row,
    i.e. pairs of m-th roots of unity satisfying z^r1 w^r2 = 1.
    """
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    ok = np.ones((m, m), dtype=bool)
    for r1, r2 in rows:
        ok &= (r1 * j + r2 * k) % m == 0
    return int(ok.sum())


def expected_torsion(d1: int, d2: int, m: int) -> int:
    """m-torsion count of the group Z_d1 + Z_d2 (0 factors are infinite)."""
    f1 = gcd(m, d1) if d1 else m
    f2 = gcd(m, d2) if d2 else m
    return f1 * f2


def torsion_profile_matches(rows, d1: int, d2: int, max_order: int = 60) -> bool:
    """Check the m-torsion counts of the row kernel against Z_d1 + Z_d2.

    Verifies every order m up to max_order dividing the group order,
    plus all m up to 12 (catching wrong structures that share the
    order); the profile m -> count determines the pair (d1, d2).
    """
    order = d1 * d2
    orders = set(range(1, 13))
    if order:
        orders |= {m for m in range(1, max_order + 1) if order % m == 0}
    else:
        orders |= set(range(1, 25))
    return all(
        torsion_count(rows, m) == expected_torsion(d1, d2, m) for m in sorted(orders)
    )


def grid_feasible(eqs, step_denominator: int = 127) -> bool:
    """Dense-grid feasibility for equalities over [0,1] x 2-simplex.

    The grid has t = i/n and eta = (j, k, n-j-k)/n; all arithmetic is
    exact integer after clearing the denominator n, so a hit is an
    exact rational solution.  Equalities are 5-tuples
    (c0, ct, c1, c2, c3) meaning c0 + ct*t + c1*eta1 + c2*eta2 +
    c3*eta3 = 0.  Enumerates the simplex once and probes each t value
    against the resulting set of equation values.
    """
    n = step_denominator
    coeffs = [tuple(int(c) for c in eq) for eq in eqs]
    seen = set()
    for j in range(n + 1):
        for k in range(n + 1 - j):
            seen.add(
                tuple(
                    c0 * n + c1 * j + c2 * k + c3 * (n - j - k)
                    for c0, _, c1, c2, c3 in coeffs
                )
            )
    for i in range(n + 1):
        if tuple(-ct * i for _, ct, _, _, _ in coeffs) in seen:
            return True
    return False


def condition1_system(act: TorusAction6):
    """The paper's Condition 1 as equalities for grid_feasible: the segment
    [B1, B2] meets the triangle conv{A_i}, where A_i = (a_i, p_i) and
    B_j = (b_j, q_j); (1-t)*B1 + t*B2 = sum(eta_i * A_i)."""
    a, b, p, q = act.a, act.b, act.p, act.q
    return [
        (b[0], b[1] - b[0], -a[0], -a[1], -a[2]),
        (q[0], q[1] - q[0], -p[0], -p[1], -p[2]),
    ]


def condition2_system(act: TorusAction6):
    """The paper's Condition 2 as equalities for grid_feasible: B3 lies in
    the triangle conv{A_i}; B3 = sum(eta_i * A_i), with no t involved."""
    a, b, p, q = act.a, act.b, act.p, act.q
    return [
        (b[2], 0, -a[0], -a[1], -a[2]),
        (q[2], 0, -p[0], -p[1], -p[2]),
    ]


# Reference for the simplex of su3orbifolds.curvature.flat_witness: the
# full-tableau phase-1 simplex it replaced, copied as it was.  It carries
# the m artificial columns through every pivot and returns None on the two
# exits that the algebra rules out; the implementation drops the columns
# and raises there.


def feasibility(eqs: Iterable[tuple]) -> Optional[tuple[Fraction, tuple[Fraction, ...]]]:
    """Exact feasibility of affine equalities over [0,1] x simplex.

    Equalities are 5-tuples (c0, ct, c1, c2, c3) meaning c0 + ct*t +
    c1*eta1 + c2*eta2 + c3*eta3 = 0.  Returns a witness (t, eta)
    satisfying every equality exactly, or None if the system is
    infeasible.  Decided by an exact phase-1 simplex (Bland's
    rule) over the non-negative variables (t, s, eta1, eta2, eta3) with
    t + s = 1 and eta1 + eta2 + eta3 = 1; fully deterministic.
    """
    # columns: t, s, e1, e2, e3
    rows: list[list[Fraction]] = [
        [Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(1)],
    ]
    rhs: list[Fraction] = [Fraction(1), Fraction(1)]
    for c0, ct, c1, c2, c3 in eqs:
        row = [Fraction(ct), Fraction(0), Fraction(c1), Fraction(c2), Fraction(c3)]
        b = -Fraction(c0)
        if all(v == 0 for v in row):
            if b != 0:
                return None
            continue
        rows.append(row)
        rhs.append(b)

    sol = _phase1_simplex(rows, rhs)
    if sol is None:
        return None
    t, _s, e1, e2, e3 = sol
    return t, (e1, e2, e3)


def _phase1_simplex(a: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """Solve A x = b, x >= 0 exactly; return x or None.  Bland's rule."""
    m = len(a)
    n = len(a[0]) if m else 0
    # normalize b >= 0
    tab = []
    for i in range(m):
        row = list(a[i])
        bi = b[i]
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        tab.append(row + [Fraction(0)] * m + [bi])
    # artificial identity
    for i in range(m):
        tab[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]
    total = n + m
    # objective: minimize sum of artificials -> reduced cost row
    cost = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            cost[j] += tab[i][j]
    # cost of artificial basics is 1; reduced costs = sum of rows over
    # non-artificial part minus ... (standard phase-1 tableau)
    for i in range(m):
        cost[n + i] = Fraction(0)

    while True:
        # entering: first structural column with positive reduced cost (Bland);
        # artificial columns never re-enter
        enter = -1
        for j in range(n):
            if cost[j] > 0:
                enter = j
                break
        if enter == -1:
            break
        # ratio test, Bland tie-break on smallest basis index
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave == -1:
            # unbounded phase-1 objective cannot happen; treat as infeasible
            return None
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        f = cost[enter]
        if f != 0:
            cost = [v - f * w for v, w in zip(cost, tab[leave])]
        basis[leave] = enter

    if cost[total] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
        elif tab[i][total] != 0:
            return None  # artificial stuck at positive level
    return x


def effectivize_cohom1_scan(d: int, a, b):
    """Reference for eschenburg6.effectivize_cohom1: tries every shear
    multiple r in range(k) for the kernel order k, in order.

    Linear in k, so only usable for small weights.  It shares the gauge
    normalization with the implementation, and it keeps the divisibility
    test and the kernel check that the implementation replaced by the
    proofs in tests/test_eschenburg6.py::TestCohom1Proofs.  Raises
    ValueError for k = 0, as the implementation does, and RuntimeError
    when no r works, which those proofs rule out.
    """
    params = cohom1_params(d, a, b)
    al, be, ga, de = params.alpha, params.beta, params.gamma, params.delta
    k = gcd(gcd(ga - de, al - be), al * d - ga * (d - 1))
    if k == 0:
        raise ValueError("degenerate second circle")
    if k == 1:
        return tuple(a), tuple(b)
    for r in range(k):
        shift = -r * d
        na = (al + r + shift, be + r + shift, r * d + shift)
        nb = (ga + shift, de + shift, params.epsilon + r * (d + 2) + shift)
        if all(x % k == 0 for x in na + nb):
            na = tuple(x // k for x in na)
            nb = tuple(x // k for x in nb)
            act = TorusAction6(a=na, b=nb, p=(1, 1, d), q=(0, 0, d + 2))
            if kernel_of_action(act).is_trivial:
                return na, nb
    raise RuntimeError("effectivization of the family action failed")


def circle_candidates(bound: int):
    """Reference for curvature._candidates: scans every pair of each level,
    filters the canonical coprime ones and sorts them."""
    # canonical representatives: mu > 0, or (lam, mu) = (1, 0); ordered by
    # max(|lam|, |mu|), then |lam|, with positive lam first on ties
    for m in range(1, bound + 1):
        level = []
        for lam in range(-m, m + 1):
            for mu in range(0, m + 1):
                if max(abs(lam), mu) != m:
                    continue
                if mu == 0 and lam != 1:
                    continue
                if gcd(lam, mu) != 1:
                    continue
                level.append((lam, mu))
        level.sort(key=lambda c: (abs(c[0]), c[0] < 0, c[1]))
        yield from level


def distance_to_torus_fd(g) -> float:
    """Reference for o5.distance_to_torus: the same grid, starts and
    L-BFGS-B runs, with the gradient left to finite differences.

    Evaluates the 12 x 12 coarse grid one call at a time and sorts it
    stably on the value, so ties keep the (s, theta) order.
    """
    from math import cos, pi, sin, sqrt

    from scipy.optimize import minimize

    from su3orbifolds.o5 import SMALL_ANGLE, TORUS_STARTS, torus_point
    from su3orbifolds.su3 import I1, I2, J1, J2, K1, K2

    def psi_pair(v):
        n = np.linalg.norm(v)
        if n < SMALL_ANGLE:
            return np.eye(3, dtype=complex), np.eye(3, dtype=complex)
        m1 = v[0] * I1 + v[1] * J1 + v[2] * K1
        psi1 = np.eye(3, dtype=complex) + (sin(n) / n) * m1 + ((1 - cos(n)) / n**2) * (m1 @ m1)
        m2 = v[0] * I2 + v[1] * J2 + v[2] * K2
        w = 2 * n
        psi2 = np.eye(3, dtype=complex) + (sin(w) / w) * m2 + ((1 - cos(w)) / w**2) * (m2 @ m2)
        return psi1, psi2

    def objective(params):
        psi1, psi2 = psi_pair(params[2:5])
        d = psi1 @ torus_point(params[0], params[1]) @ psi2.conj().T - g
        return float(np.sum(np.abs(d) ** 2))

    grid = np.linspace(0, 2 * pi, 12, endpoint=False)
    coarse = [(objective([s, theta, 0, 0, 0]), s, theta) for s in grid for theta in grid]
    coarse.sort(key=lambda c: c[0])
    best = coarse[0][0]
    for _, s, theta in coarse[:TORUS_STARTS]:
        res = minimize(
            objective,
            x0=np.array([s, theta, 0.0, 0.0, 0.0]),
            method="L-BFGS-B",
            options={"maxiter": 200},
        )
        best = min(best, float(res.fun))
    return sqrt(max(best, 0.0))


def horizontal_basis_O5(g, m):
    """Reference for su3.horizontal_basis_O5: the per-call form it replaced,
    which rebuilds su3_basis() and the inner_nu Gram of the basis on every
    call and projects each vector onto K once per inner product.  The
    frame must agree bit for bit.
    """
    from su3orbifolds.su3 import (
        VERTICAL_RANK_TOL,
        combine,
        inner,
        project_K,
        su3_basis,
        vertical_basis_O5,
    )

    def inner_nu(x, y, m):
        xk, yk = project_K(x), project_K(y)
        return inner(x - xk, y - yk) + m.nu * inner(xk, yk)

    basis = su3_basis()
    vert = vertical_basis_O5(g)
    a = np.array([[inner_nu(e, v, m) for e in basis] for v in vert])
    u, s, vt = np.linalg.svd(a)
    if s.min() < VERTICAL_RANK_TOL:
        raise RuntimeError("vertical space degenerated: broken invariant")
    null = vt[3:].T  # 8 x 5, Euclidean-orthonormal columns
    # re-orthonormalize under inner_nu
    gram_b = np.array([[inner_nu(e, f, m) for f in basis] for e in basis])
    gram = null.T @ gram_b @ null
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        # a LinAlgError is a ValueError, which would read as malformed input
        raise RuntimeError("horizontal Gram matrix degenerated: broken invariant") from exc
    frame = null @ np.linalg.inv(chol).T  # inner_nu-orthonormal coefficients
    return [combine(frame[:, k], basis) for k in range(5)], frame


def stabilizer_check(g) -> int:
    """Count torus elements of the acting SU(2) that fix g.

    Enumerates h = exp(t I) for t = 2 pi k/n in lowest terms with
    n <= STABILIZER_MAX_ORDER (including t = 0) and counts those with
    psi1(h) g psi2(h)^{-1} = g within STABILIZER_MATCH_TOL.
    """
    from math import pi

    STABILIZER_MAX_ORDER = 12
    STABILIZER_MATCH_TOL = 1e-9
    count = 0
    for n in range(1, STABILIZER_MAX_ORDER + 1):
        for k in range(n):
            if gcd(k, n) != 1:
                continue
            t = 2 * pi * k / n
            psi1 = np.diag([np.exp(1j * t), np.exp(-1j * t), 1.0])
            psi2 = np.diag([np.exp(2j * t), np.exp(-2j * t), 1.0])
            if np.abs(psi1 @ g @ psi2.conj().T - g).max() < STABILIZER_MATCH_TOL:
                count += 1
    return count
