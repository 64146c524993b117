"""Flat-plane verification for the 5-dimensional quotient SU(3)//SU(2).

The deformed metric has an explicit 2-torus of points carrying exactly
one zero-curvature horizontal plane each; everywhere else the metric is
positively curved.  This module constructs the torus, the analytic flat
plane at each torus point, a seeded randomized minimizer of the
flatness functional over horizontal planes, a quotient distance to the
torus, and the singular circle g_z.

o5_verify runs one job per sample (a flatness search, then the distance
to the torus only where the search is not positive) and per torus point,
in worker processes that it forks over the usable CPUs (in the calling
process on one CPU or beside another Python thread); the jobs are seeded
by counter and folded in index order, so a report does not depend on the
number of workers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from math import cos, pi, sin, sqrt

import numpy as np
from scipy.linalg import subspace_angles
from scipy.optimize import minimize

from .su3 import (
    CheegerMetric,
    I1,
    I2,
    J1,
    J2,
    K1,
    K2,
    SU3_BASIS,
    Y3,
    combine,
    coords,
    flatness,
    haar_su3,
    horizontal_basis_O5,
    inner_nu,
    norm2,
    project_K,
    vertical_basis_O5,
)


class CertificateError(RuntimeError):
    """An analytic certificate failed its residual tolerance."""


# Residual bounds of the analytic flat-plane certificate: exceeding them
# raises in flat_plane_at_torus and fails the torus gate of o5_verify.
CERT_FLATNESS_BOUND = 1e-18
CERT_HORIZONTALITY_BOUND = 1e-10

# Gate thresholds of o5_verify (see its docstring for their roles).
OFF_TORUS_DISTANCE = 0.05
TORUS_FLATNESS_BOUND = 1e-12
NEAR_ZERO_RESTART = 1e-10
UNIQUENESS_ANGLE_BOUND = 1e-3
TANGENCY_ANGLE_BOUND = 1e-4
CONTAINMENT_BOUND = 1e-10

# Fixed effort: alternating sweeps per restart of min_flatness, local
# starts of distance_to_torus.
FLATNESS_SWEEPS = 40
TORUS_STARTS = 4

# Inner tolerances: min_flatness's null-space eigenvalue cut, Pfaffian pivot,
# exact-flat candidate and snap threshold; _psi_pair's small angle.
NULL_EIGENVALUE_TOL = 1e-9
PFAFFIAN_PIVOT_TOL = 1e-12
FLAT_CANDIDATE_TOL = 1e-14
SNAP_THRESHOLD = 1e-8
SMALL_ANGLE = 1e-14


def torus_point(s: float, theta: float) -> np.ndarray:
    """Point of the 2-torus carrying a zero-curvature plane."""
    w = np.exp(1j * theta)
    r = np.array(
        [
            [sqrt(3.0) / 2, 0.5 * np.exp(1j * s), 0],
            [-0.5 * np.exp(-1j * s), sqrt(3.0) / 2, 0],
            [0, 0, 1],
        ],
        dtype=complex,
    )
    return r @ np.diag([w, w, w.conjugate() ** 2])


def _torus_ds(s: float, theta: float) -> np.ndarray:
    """d/ds of torus_point(s, theta); d/dtheta is torus_point(s, theta) @ Y3."""
    dr = np.array(
        [
            [0, 0.5j * np.exp(1j * s), 0],
            [0.5j * np.exp(-1j * s), 0, 0],
            [0, 0, 0],
        ],
        dtype=complex,
    )
    w = np.exp(1j * theta)
    return dr @ np.diag([w, w, w.conjugate() ** 2])


def torus_tangents(s: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Left-translated tangents of the torus parametrization.

    The theta tangent is exactly diag(i,i,-2i); the s tangent is
    g^{-1} (d/ds g).
    """
    g = torus_point(s, theta)
    return Y3.copy(), g.conj().T @ _torus_ds(s, theta)


@dataclass(frozen=True)
class FlatPlaneCertificate:
    """Analytic flat horizontal plane at a torus point."""

    g: np.ndarray
    a: np.ndarray
    b: np.ndarray
    flatness_residual: float
    horizontality_residual: float


def _vertical_component_norm(x: np.ndarray, g: np.ndarray, m: CheegerMetric) -> float:
    """inner_nu-norm of the vertical component of x at g."""
    vert = vertical_basis_O5(g)
    rhs, *gram = np.array([[inner_nu(y, v, m) for v in vert] for y in (x, *vert)])
    c = np.linalg.solve(gram, rhs)
    return float(sqrt(max(0.0, c @ rhs)))


def flat_plane_at_torus(
    s: float, theta: float, m: CheegerMetric
) -> FlatPlaneCertificate:
    """The unique zero-curvature horizontal plane at torus_point(s, theta).

    The plane is spanned by A = diag(i,i,-2i) and an explicit block
    matrix B; the certificate records the flatness and horizontality
    residuals and raises if they reach CERT_FLATNESS_BOUND and
    CERT_HORIZONTALITY_BOUND respectively.
    """
    g = torus_point(s, theta)
    # block entries of g and the solution of aa*z + 3*bb^2*conj(z) = 0
    aa, bb = sqrt(3.0) / 2, 0.5 * np.exp(1j * s)
    z = 1j * np.exp(1j * s)
    r = -2 * np.imag(np.conj(aa * z) * bb) / (m.nu * (abs(aa) ** 2 + 3 * abs(bb) ** 2))
    a = Y3.copy()
    b = np.array(
        [[r * 1j, z, 0], [-z.conjugate(), -r * 1j, 0], [0, 0, 0]], dtype=complex
    )
    flat = flatness(a, b)
    horiz = max(
        _vertical_component_norm(a, g, m) / sqrt(norm2(a)),
        _vertical_component_norm(b, g, m) / sqrt(norm2(b)),
    )
    if flat >= CERT_FLATNESS_BOUND or horiz >= CERT_HORIZONTALITY_BOUND:
        raise CertificateError(
            f"flat-plane certificate failed: flatness {flat}, horizontality {horiz}"
        )
    return FlatPlaneCertificate(
        g=g, a=a, b=b, flatness_residual=flat, horizontality_residual=horiz
    )


# ---------------------------------------------------------------------------
# Flatness minimization over horizontal planes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatnessSearch:
    """Result of the flatness minimization at one point.

    The restart arrays contain the randomized restarts followed by the
    deterministic spectral candidates (when the quadratic form on
    2-vectors is near-singular).  lower_bound is the smallest eigenvalue
    of that form: a certified lower bound for the flatness of every
    horizontal 2-plane at the point.
    """

    value: float
    a: np.ndarray
    b: np.ndarray
    restart_values: np.ndarray  # final value reached by every restart
    restart_planes: np.ndarray  # (restarts, 2, 5) coefficients in basis
    basis: list[np.ndarray]  # the inner_nu-orthonormal horizontal basis
    lower_bound: float


# index pairs (a < b) for coordinates of 2-vectors on R^5
_PAIRS = tuple((a, b) for a in range(5) for b in range(a + 1, 5))


def _omega(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """2-vector x wedge y in the _PAIRS coordinates."""
    return np.array([x[a] * y[b] - x[b] * y[a] for a, b in _PAIRS])


def _omega_matrix(omega: np.ndarray) -> np.ndarray:
    out = np.zeros((5, 5))
    for i, (a, b) in enumerate(_PAIRS):
        out[a, b] = omega[i]
        out[b, a] = -omega[i]
    return out


def _nearest_plane(omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair spanning the dominant plane of a 2-vector."""
    u, _, _ = np.linalg.svd(_omega_matrix(omega))
    x, y = u[:, 0], u[:, 1]
    y = y - (x @ y) * x
    return x, y / np.linalg.norm(y)


def _pfaffian_minors(omega: np.ndarray) -> np.ndarray:
    """The five 4x4 Pfaffians; all vanish iff the 2-vector is decomposable."""
    m = _omega_matrix(omega)
    out = []
    for i in range(5):
        idx = [j for j in range(5) if j != i]
        s = m[np.ix_(idx, idx)]
        out.append(s[0, 1] * s[2, 3] - s[0, 2] * s[1, 3] + s[0, 3] * s[1, 2])
    return np.array(out)


def _decomposable_in_span(null: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Candidate decomposable 2-vectors inside a given null space.

    Dimension 1: the vector itself.  Dimension 2: roots of the
    componentwise Pfaffian quadratics in the mixing ratio.  Higher
    dimensions (not expected): random unit combinations as fallback.
    """
    dim = null.shape[1]
    if dim == 1:
        return [null[:, 0]]
    if dim == 2:
        w1, w2 = null[:, 0], null[:, 1]
        pa = _pfaffian_minors(w1)
        pc = _pfaffian_minors(w2)
        pb = (_pfaffian_minors(w1 + w2) - pa - pc) / 2
        cands = [w2]
        for i in range(5):
            # pa[i] + 2 pb[i] tau + pc[i] tau^2 = 0; the common root is a
            # tangency (double root), so the parabola vertex -pb/pc locates
            # it with full precision while the quadratic formula would lose
            # half the digits; also try the reversed parametrization in
            # case the root sits near infinity in tau
            if abs(pc[i]) > PFAFFIAN_PIVOT_TOL:
                cands.append(w1 + (-pb[i] / pc[i]) * w2)
            if abs(pa[i]) > PFAFFIAN_PIVOT_TOL:
                cands.append(w2 + (-pb[i] / pa[i]) * w1)
        return cands
    combos = rng.standard_normal((16, dim))
    return [null @ c for c in combos]


def min_flatness(
    g: np.ndarray,
    m: CheegerMetric,
    restarts: int = 64,
    seed: "int | np.random.SeedSequence" = 0,
) -> FlatnessSearch:
    """Minimize the flatness functional over horizontal 2-planes at g.

    Planes are parametrized by orthonormal coefficient pairs in an
    inner_nu-orthonormal horizontal frame; each restart alternates exact
    eigenvector minimization in one leg while the other is fixed.  The
    functional is a quadratic form on 2-vectors, so its eigenvalues give
    a certified lower bound, and near-null decomposable 2-vectors
    (found by Pfaffian root solving) are appended as deterministic
    candidates.  Deterministic for a fixed seed (counter-based
    generator).
    """
    h, _ = horizontal_basis_O5(g, m)
    t = [[(h[i] @ h[j] - h[j] @ h[i]) for j in range(5)] for i in range(5)]
    hk = [project_K(x) for x in h]
    tk = [[(hk[i] @ hk[j] - hk[j] @ hk[i]) for j in range(5)] for i in range(5)]
    tf, tkf = np.array(t).reshape(5, 5, 9), np.array(tk).reshape(5, 5, 9)
    # g4[a,b,c,d] = <[h_a,h_b],[h_c,h_d]> + (K-part term), exploiting
    # <X,Y> = Re tr(X Y^*) for skew-Hermitian X, Y
    g4 = np.einsum("abi,cdi->abcd", tf.conj(), tf).real
    g4 += np.einsum("abi,cdi->abcd", tkf.conj(), tkf).real

    rng = np.random.Generator(np.random.Philox(seed))
    xy = rng.standard_normal((restarts, 2, 5))
    x = xy[:, 0, :]
    y = xy[:, 1, :]
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y -= np.einsum("ri,ri->r", x, y)[:, None] * x
    y /= np.linalg.norm(y, axis=1, keepdims=True)

    big = float(np.abs(g4).sum()) + 1.0
    eye = np.eye(5)

    def best_orthogonal(fixed):
        mm = np.einsum("abcd,rb,rd->rac", g4, fixed, fixed)
        mm = 0.5 * (mm + mm.transpose(0, 2, 1))
        outer = np.einsum("ri,rj->rij", fixed, fixed)
        proj = eye[None] - outer
        mm = proj @ mm @ proj + big * outer
        vals, vecs = np.linalg.eigh(mm)
        return vecs[:, :, 0]

    for _ in range(FLATNESS_SWEEPS):
        x = best_orthogonal(y)
        y = best_orthogonal(x)

    # spectral stage: the functional is omega^T Q omega on unit 2-vectors
    q = np.array([[g4[a, b, c, d] for (c, d) in _PAIRS] for (a, b) in _PAIRS])
    eigvals, eigvecs = np.linalg.eigh(q)
    lower_bound = float(eigvals[0])
    null = eigvecs[:, eigvals < NULL_EIGENVALUE_TOL]
    if null.shape[1]:
        extra = []
        for omega in _decomposable_in_span(null, rng):
            xc, yc = _nearest_plane(omega / np.linalg.norm(omega))
            extra.append((xc, yc))
        xe = np.array([e[0] for e in extra])
        ye = np.array([e[1] for e in extra])
        for _ in range(5):
            xe = best_orthogonal(ye)
            ye = best_orthogonal(xe)
        x = np.concatenate([x, xe])
        y = np.concatenate([y, ye])

    values = np.einsum("abcd,ra,rb,rc,rd->r", g4, x, y, x, y)
    values = np.maximum(values, 0.0)
    if null.shape[1]:
        # snap near-flat restarts to the nearest exact decomposable null
        # direction: the valley of the functional is quartic, so the
        # alternating scheme can stall well away from its bottom
        flats = []
        for xc, yc in zip(x[restarts:], y[restarts:]):
            om = _omega(xc, yc)
            v = float(np.einsum("abcd,a,b,c,d->", g4, xc, yc, xc, yc))
            if v < FLAT_CANDIDATE_TOL:
                flats.append((om, (xc, yc)))
        if flats:
            for i in range(len(values)):
                if values[i] >= SNAP_THRESHOLD:
                    continue
                om = _omega(x[i], y[i])
                snap = max(flats, key=lambda f: abs(f[0] @ om))
                xs, ys = snap[1]
                v = float(np.einsum("abcd,a,b,c,d->", g4, xs, ys, xs, ys))
                # ties included: the quartic valley can underflow to zero
                # away from the true minimizer, while the snapped candidate
                # is exact
                if v <= values[i]:
                    x[i], y[i], values[i] = xs, ys, max(v, 0.0)
    best = int(np.argmin(values))
    return FlatnessSearch(
        value=float(values[best]),
        a=combine(x[best], h),
        b=combine(y[best], h),
        restart_values=values,
        restart_planes=np.stack([x, y], axis=1),
        basis=h,
        lower_bound=lower_bound,
    )


def plane_angle(pair1, pair2) -> float:
    """Largest principal angle between two planes of su(3)."""
    m1 = np.stack([coords(x, SU3_BASIS) for x in pair1], axis=1)
    m2 = np.stack([coords(x, SU3_BASIS) for x in pair2], axis=1)
    angles = subspace_angles(m1, m2)
    return float(angles.max()) if len(angles) else 0.0


def plane_contains(pair, x: np.ndarray) -> float:
    """Relative residual of x against the span of the pair."""
    m1 = np.stack([coords(p, SU3_BASIS) for p in pair], axis=1)
    q, _ = np.linalg.qr(m1)
    v = coords(x, SU3_BASIS)
    res = v - q @ (q.T @ v)
    return float(np.linalg.norm(res) / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Verification driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class O5Verification:
    """Outcome of the sampled curvature verification at one metric."""

    nu: float
    samples: int
    restarts: int
    seed: int
    off_torus_count: int  # samples counted: all but the exempt ones
    # smallest search minimum and certified spectral lower bound over the
    # counted samples, None when none is counted
    off_torus_floor: "float | None"
    off_torus_lower_bound: "float | None"
    off_torus_positive: bool
    torus_points: int
    torus_max_flatness: float
    torus_max_cert_flatness: float
    torus_max_horizontality: float
    torus_max_plane_angle: float  # search plane vs certificate plane
    torus_flat: bool
    uniqueness_checked: int
    uniqueness_max_angle: float
    uniqueness_ok: bool
    tangency_max_angle: float
    tangency_ok: bool
    contains_max_residual: float
    contains_ok: bool
    passed: bool


def _horizontal_projection(x, h, m: CheegerMetric) -> np.ndarray:
    return combine([inner_nu(x, hi, m) for hi in h], h)


def _sample(seed: int, i: int) -> tuple[np.ndarray, np.random.SeedSequence]:
    """Sample i of o5_verify at this seed: its Haar point and search seed."""
    c_draw, c_search = np.random.SeedSequence(entropy=seed, spawn_key=(0, i)).spawn(2)
    return haar_su3(np.random.Generator(np.random.Philox(c_draw))), c_search


# The metric at nu, one per process: the jobs of o5_verify at one nu share
# its inner_nu Gram, in this process and in each worker.
_metric = lru_cache(maxsize=1, typed=True)(CheegerMetric)


def _off_torus_search(nu: float, restarts: int, seed: int, i: int) -> "tuple[float, float] | None":
    """Job of o5_verify at sample i: min_flatness's value and spectral lower
    bound there, or None when the sample is exempt.  A sample is exempt when
    its search is not positive (value and lower bound both above 0) and it
    lies within OFF_TORUS_DISTANCE of the torus; the distance is tested only
    then, and a NaN distance counts as off the torus.
    """
    g, c_search = _sample(seed, i)
    res = min_flatness(g, _metric(nu), restarts=restarts, seed=c_search)
    if not (res.value > 0 and res.lower_bound > 0) and distance_to_torus(g) <= OFF_TORUS_DISTANCE:
        return None
    return res.value, res.lower_bound


def _torus_check(nu: float, restarts: int, seed: int, j: int, s: float, theta: float):
    """Job of o5_verify at torus point j, torus_point(s, theta).

    Returns the search minimum, the certificate's flatness and
    horizontality residuals, the angle between the search and certificate
    planes, the angles to the certificate plane of the restarts ending
    below NEAR_ZERO_RESTART (one per such restart, in restart order), the
    angle of the projected torus tangents to it, and the containment
    residuals of Y3 in the certificate and search planes.
    """
    m = _metric(nu)
    cert = flat_plane_at_torus(s, theta, m)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(2, j))
    res = min_flatness(cert.g, m, restarts=restarts, seed=ss)
    h = res.basis
    near_zero = []
    for k in np.nonzero(res.restart_values < NEAR_ZERO_RESTART)[0]:
        xc, yc = res.restart_planes[k]
        near_zero.append(plane_angle((combine(xc, h), combine(yc, h)), (cert.a, cert.b)))
    t_theta, t_s = torus_tangents(s, theta)
    pair = (
        _horizontal_projection(t_theta, h, m),
        _horizontal_projection(t_s, h, m),
    )
    return (
        res.value,
        cert.flatness_residual,
        cert.horizontality_residual,
        plane_angle((res.a, res.b), (cert.a, cert.b)),
        near_zero,
        plane_angle(pair, (cert.a, cert.b)),
        (plane_contains((cert.a, cert.b), Y3), plane_contains((res.a, res.b), Y3)),
    )


@contextmanager
def _cpu_map(jobs: int):
    """A map function that spreads `jobs` independent calls over the usable CPUs.

    With more than one usable CPU (os.sched_getaffinity) and more than one
    job, it is pool.map of a ProcessPoolExecutor with min(CPUs, jobs)
    workers forked from this process, which inherit its modules as they
    are.  It is the builtin map in this process instead where fork is
    unavailable, and while this process runs a second Python thread: a
    forked child gets only the forking thread, so a lock that another
    thread holds at the fork stays held in the child.  Leaving the block,
    also by an exception, cancels the jobs not yet started and joins
    every worker.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, jobs)
    if (
        workers <= 1
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        yield map
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def o5_verify(
    nu: float,
    samples: int = 1000,
    restarts: int = 64,
    seed: int = 42,
    torus_points: int = 50,
) -> O5Verification:
    """Sampled verification that the deformed metric is almost positively
    curved with flat planes exactly along the parametrized torus.

    Every sample must have strictly positive minimal flatness and spectral
    lower bound, except that a sample whose search is not positive is
    exempt when it lies within OFF_TORUS_DISTANCE of the torus (quotient
    distance; a NaN distance counts as off the torus).  Torus points must
    carry a flat plane (search value < TORUS_FLATNESS_BOUND) that matches
    the analytic certificate and is tangent to the torus directions (both
    angles < TANGENCY_ANGLE_BOUND), is unique among the restarts ending
    below NEAR_ZERO_RESTART (angle < UNIQUENESS_ANGLE_BOUND), and contains
    diag(i,i,-2i) (residual < CONTAINMENT_BOUND).  Deterministic given
    the seed: per-sample generators are split by counter so evaluation
    order does not matter.  Fewer than one sample, restart or torus point,
    or a nu that CheegerMetric refuses (below su3.NU_FLOOR), raises
    ValueError.

    The inner_nu Gram of the su(3) basis is built once per nu in each
    process (_metric); nothing else outlives a call.

    Only the torus parameters (s, theta), drawn in point order, stay in
    this process.  Each sample is one job (_off_torus_search): it runs the
    flatness search and tests the sample's distance to the torus only
    when the search is not positive, so a passing run tests no distance.
    Each torus point is one job (_torus_check).  _cpu_map
    spreads all the jobs of a call over the usable CPUs: this call forks
    one worker per usable CPU (at most one per job), or runs the jobs in
    this process when one CPU is usable (taskset -c 0), fork is
    unavailable, or another Python thread is running.  The results are
    folded in index order with the same min and max calls either way, so
    the report is bit-identical.  An exception in a job reaches the
    caller with its type and message, and no worker outlives the call.

    The worker count follows the CPU affinity only: it ignores a cgroup
    CPU quota, and each worker runs its own BLAS threads, so set
    OPENBLAS_NUM_THREADS=1 when the CPUs are many.  The speed-up and the
    memory of the workers (a resident peak of about 60 MB each, shared
    pages included) were measured only on a 2-core Xeon with one BLAS
    thread; the resident total grows with the worker count.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if torus_points < 1:
        raise ValueError(f"torus_points must be at least 1, got {torus_points}")
    _metric(nu)  # refuses a nu below su3.NU_FLOOR

    rng_t = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
    torus_s, torus_theta = zip(*(rng_t.uniform(0, 2 * pi, 2) for _ in range(torus_points)))

    off_floor = float("inf")
    off_lb = float("inf")
    max_flat = max_cert_flat = max_horiz = max_angle = 0.0
    off_count = uniq_checked = 0
    uniq_max = tang_max = cont_max = 0.0
    with _cpu_map(samples + torus_points) as run:
        off_results = run(partial(_off_torus_search, nu, restarts, seed), range(samples))
        torus_results = run(
            partial(_torus_check, nu, restarts, seed), range(torus_points), torus_s, torus_theta
        )
        for result in off_results:
            if result is None:
                continue
            off_count += 1
            value, lower_bound = result
            off_floor = min(off_floor, value)
            off_lb = min(off_lb, lower_bound)
        for flat, cert_flat, horiz, angle, near_zero, tang, cont in torus_results:
            max_flat = max(max_flat, flat)
            max_cert_flat = max(max_cert_flat, cert_flat)
            max_horiz = max(max_horiz, horiz)
            max_angle = max(max_angle, angle)
            for a in near_zero:
                uniq_checked += 1
                uniq_max = max(uniq_max, a)
            tang_max = max(tang_max, tang)
            cont_max = max(cont_max, *cont)
    if not off_count:  # no floor to report, and no Infinity in a JSON report
        off_floor = off_lb = None
    off_positive = off_count > 0 and off_floor > 0 and off_lb > 0
    torus_flat = (
        max_flat < TORUS_FLATNESS_BOUND
        and max_cert_flat < CERT_FLATNESS_BOUND
        and max_horiz < CERT_HORIZONTALITY_BOUND
    )
    uniq_ok = uniq_checked > 0 and uniq_max < UNIQUENESS_ANGLE_BOUND
    tang_ok = tang_max < TANGENCY_ANGLE_BOUND and max_angle < TANGENCY_ANGLE_BOUND
    cont_ok = cont_max < CONTAINMENT_BOUND
    return O5Verification(
        nu=nu,
        samples=samples,
        restarts=restarts,
        seed=seed,
        off_torus_count=off_count,
        off_torus_floor=off_floor,
        off_torus_lower_bound=off_lb,
        off_torus_positive=off_positive,
        torus_points=torus_points,
        torus_max_flatness=max_flat,
        torus_max_cert_flatness=max_cert_flat,
        torus_max_horizontality=max_horiz,
        torus_max_plane_angle=max_angle,
        torus_flat=torus_flat,
        uniqueness_checked=uniq_checked,
        uniqueness_max_angle=uniq_max,
        uniqueness_ok=uniq_ok,
        tangency_max_angle=tang_max,
        tangency_ok=tang_ok,
        contains_max_residual=cont_max,
        contains_ok=cont_ok,
        passed=off_positive and torus_flat and uniq_ok and tang_ok and cont_ok,
    )


# ---------------------------------------------------------------------------
# Quotient distance to the torus
# ---------------------------------------------------------------------------


# Generators of psi1 (the su(2) block) and psi2 (the K triple), indexed
# [j, k] for generator k of psi_j, and the rates r_j: v.gens[j] has
# spectrum {0, +-i r_j |v|}, so (v.gens[j])^3 = -(r_j |v|)^2 v.gens[j].
_PSI_GENS = np.array([[I1, J1, K1], [I2, J2, K2]])
_PSI_GENS.setflags(write=False)
_PSI_GENS_BY_V = _PSI_GENS.transpose(1, 0, 2, 3).reshape(3, 18)
_PSI_RATES = (1.0, 2.0)
_EYE3 = np.eye(3, dtype=complex)
_PSI_AT_ZERO = np.stack([_EYE3, _EYE3])
_PSI_AT_ZERO.setflags(write=False)


def _psi_pair(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group pair psi = (exp(v.su2 block), exp(v.K triple)) and its
    derivatives dpsi[j, k] = d psi[j] / d v_k.

    Both exponentials have the closed Rodrigues form
    exp(m) = 1 + a(n) m + b(n) m^2 with n = r|v|, a = sin(n)/n and
    b = (1 - cos(n))/n^2, so d exp(m)/dv_k = (a' m + b' m^2) dn/dv_k
    + a X_k + b (X_k m + m X_k) for the generator X_k.  Below
    SMALL_ANGLE the pair is the identity and the derivative its first
    order term X_k, the limit of the same formula at v = 0.
    """
    norm = sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if norm < SMALL_ANGLE:
        return _PSI_AT_ZERO, _PSI_GENS
    m = (v @ _PSI_GENS_BY_V).reshape(2, 3, 3)
    m2 = m @ m
    coef = []
    for rate in _PSI_RATES:
        n = rate * norm
        a = sin(n) / n
        b = 2 * (sin(n / 2) / n) ** 2  # (1 - cos(n))/n^2 without cancellation
        # a' and b' times dn/dv_k = rate v_k / norm, short of the factor v_k
        dn = rate / norm
        coef.append((a, b, (cos(n) - a) / n * dn, (a - 2 * b) / n * dn))
    a, b, da, db = np.array(coef).T[:, :, None, None]
    psi = _EYE3 + a * m + b * m2
    dpsi = (
        v[:, None, None] * (da * m + db * m2)[:, None]
        + a[:, None] * _PSI_GENS
        + b[:, None] * (_PSI_GENS @ m[:, None] + m[:, None] @ _PSI_GENS)
    )
    return psi, dpsi


# The coarse grid of distance_to_torus, 12 x 12 values of (s, theta), and
# its torus points in s-major order.
_GRID = np.linspace(0, 2 * pi, 12, endpoint=False)
_GRID_POINTS = np.array([torus_point(s, theta) for s in _GRID for theta in _GRID])
_GRID_POINTS.setflags(write=False)


def _torus_objective(params: np.ndarray, g: np.ndarray) -> tuple[float, np.ndarray]:
    """|psi1 t(s,theta) psi2^{-1} - g|^2 and its exact gradient in
    params = (s, theta, v).

    With A = psi1 t psi2^{-1} and d = A - g, the derivative along any
    parameter is 2 Re <d, dA> in the Frobenius product.
    """
    s, theta = params[0], params[1]
    psi, dpsi = _psi_pair(params[2:5])
    t = torus_point(s, theta)
    dt = np.stack([_torus_ds(s, theta), t @ Y3])
    psi2_inv = psi[1].conj().T
    left = psi[0] @ t
    d = left @ psi2_inv - g
    da = np.concatenate(
        [
            psi[0] @ dt @ psi2_inv,
            dpsi[0] @ (t @ psi2_inv) + left @ dpsi[1].conj().transpose(0, 2, 1),
        ]
    )
    grad = 2 * (da.reshape(5, 9).conj() @ d.ravel()).real
    return float(np.vdot(d, d).real), grad


def distance_to_torus(g: np.ndarray) -> float:
    """Frobenius distance, in the quotient, from g to the flat torus.

    Minimizes |psi1(h) t(s,theta) psi2(h)^{-1} - g| over the torus
    parameters and the acting group, from the TORUS_STARTS best points
    of a 12 x 12 coarse grid in (s, theta) at h = 1 (a stable sort, so
    ties keep the s-major grid order).  The grid is one numpy expression
    over precomputed torus points.  Each L-BFGS-B run gets the exact
    gradient: psi1 and psi2 are Rodrigues exponentials with closed-form
    derivatives in the coordinates v of h (_psi_pair), and the torus
    derivatives are d/ds t and t diag(i,i,-2i).  In four traced runs of
    the o5-gate benchmark (2-core Xeon, one BLAS thread) the median call
    took 12-18 ms and 84.75 objective evaluations, against 36-47 ms and
    508.5 evaluations when L-BFGS-B took finite differences
    (tests/oracles.py keeps that version).
    """
    values = (np.abs(_GRID_POINTS - g) ** 2).reshape(-1, 9).sum(axis=1)
    order = np.argsort(values, kind="stable")
    best = float(values[order[0]])
    for k in order[:TORUS_STARTS]:
        i, j = divmod(k, len(_GRID))
        res = minimize(
            _torus_objective,
            x0=np.array([_GRID[i], _GRID[j], 0.0, 0.0, 0.0]),
            args=(g,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 200},
        )
        best = min(best, float(res.fun))
    return sqrt(max(best, 0.0))


# ---------------------------------------------------------------------------
# The singular circle
# ---------------------------------------------------------------------------


def g_z(z: complex) -> np.ndarray:
    """Point of the singular circle, parametrized by |z| = 1; its
    isotropy is Z_3 (see special.o5_descriptor)."""
    z = complex(z)
    return np.array(
        [[0, 1, 0], [-z.conjugate(), 0, 0], [0, 0, z]], dtype=complex
    )
