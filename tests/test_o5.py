"""Tests for the 5-dimensional quotient flat-plane verification."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from math import pi
from pathlib import Path

import numpy as np
import pytest
import sympy
from scipy.linalg import expm

from su3orbifolds import o5
from su3orbifolds.o5 import (
    OFF_TORUS_DISTANCE,
    SMALL_ANGLE,
    flat_plane_at_torus,
    distance_to_torus,
    g_z,
    min_flatness,
    o5_verify,
    plane_angle,
    plane_contains,
    torus_point,
    torus_tangents,
    _horizontal_projection,
    _psi_pair,
    _torus_objective,
)
from su3orbifolds.su3 import (
    CheegerMetric,
    I1,
    I2,
    J1,
    J2,
    K1,
    K2,
    Y3,
    combine,
    haar_su3,
    horizontal_basis_O5,
    is_special_unitary,
)

from oracles import distance_to_torus_fd, stabilizer_check

M = CheegerMetric(0.5)


def _torus_params(n, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(0, 2 * pi, 2)) for _ in range(n)]


def _exact_generators():
    """Exact sympy copies of (I1, J1, K1) and of the K triple (I2, J2, K2)."""
    i, r = sympy.I, sympy.sqrt(2)
    su2 = (
        sympy.Matrix([[i, 0, 0], [0, -i, 0], [0, 0, 0]]),
        sympy.Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        sympy.Matrix([[0, i, 0], [i, 0, 0], [0, 0, 0]]),
    )
    k = (
        sympy.Matrix([[2 * i, 0, 0], [0, -2 * i, 0], [0, 0, 0]]),
        sympy.Matrix([[0, 0, r], [0, 0, -r], [-r, r, 0]]),
        sympy.Matrix([[0, 0, i * r], [0, 0, i * r], [i * r, i * r, 0]]),
    )
    return su2, k


def _vanishes(exact) -> bool:
    """The sympy expression or matrix exact simplifies to zero."""
    value = sympy.simplify(exact)
    return value == (sympy.zeros(*value.shape) if isinstance(value, sympy.MatrixBase) else 0)


def _agrees(exact, subs, approx) -> bool:
    """The sympy matrix exact, evaluated at subs, is the float matrix approx."""
    value = np.array(exact.subs(subs).evalf(), dtype=complex)
    return np.abs(value - approx).max() < 1e-14


class TestTorus:
    def test_points_in_group(self):
        for s, theta in _torus_params(10):
            assert is_special_unitary(torus_point(s, theta))

    def test_theta_tangent_is_distinguished(self):
        for s, theta in _torus_params(5, seed=1):
            t_theta, t_s = torus_tangents(s, theta)
            assert np.abs(t_theta - Y3).max() < 1e-12
            # finite-difference check of the s tangent
            eps = 1e-6
            g = torus_point(s, theta)
            num = (torus_point(s + eps, theta) - torus_point(s - eps, theta)) / (
                2 * eps
            )
            assert np.abs(g.conj().T @ num - t_s).max() < 1e-8

    def test_distance_zero_on_torus(self):
        for s, theta in _torus_params(4, seed=2):
            assert distance_to_torus(torus_point(s, theta)) < 1e-4

    def test_distance_positive_off_torus(self):
        rng = np.random.default_rng(3)
        count = 0
        for _ in range(6):
            g = haar_su3(rng)
            if distance_to_torus(g) > 0.05:
                count += 1
        assert count >= 4


def _verify_sample(i, seed=42):
    """The i-th Haar sample that o5_verify draws at this seed."""
    c_draw, _ = np.random.SeedSequence(entropy=seed, spawn_key=(0, i)).spawn(2)
    return haar_su3(np.random.Generator(np.random.Philox(c_draw)))


def _central_differences(f, x, h=1e-6):
    """d f / d x_k for every k, stacked on the first axis."""
    return np.array([(f(x + e) - f(x - e)) / (2 * h) for e in h * np.eye(len(x))])


class TestTorusDistance:
    def test_psi_pair_is_the_exponential(self):
        rng = np.random.default_rng(12)
        for v in (*rng.normal(size=(5, 3)), np.zeros(3)):
            psi, _ = _psi_pair(v)
            assert np.abs(psi[0] - expm(v[0] * I1 + v[1] * J1 + v[2] * K1)).max() < 1e-13
            assert np.abs(psi[1] - expm(v[0] * I2 + v[1] * J2 + v[2] * K2)).max() < 1e-13

    def test_psi_pair_derivatives(self):
        rng = np.random.default_rng(13)
        tiny = rng.normal(size=3)
        tiny *= 0.5 * SMALL_ANGLE / np.linalg.norm(tiny)
        for v in (*rng.normal(size=(5, 3)), np.zeros(3), tiny):
            _, dpsi = _psi_pair(v)
            num = _central_differences(lambda u: _psi_pair(u)[0], v)
            assert np.abs(num - dpsi.transpose(1, 0, 2, 3)).max() < 1e-8

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(15)
        tiny = rng.normal(size=3)
        tiny *= 0.5 * SMALL_ANGLE / np.linalg.norm(tiny)
        for j in range(12):
            g = haar_su3(rng) if j % 2 else torus_point(*rng.uniform(0, 2 * pi, 2))
            v = (rng.normal(size=3), np.zeros(3), tiny)[j % 3]
            x = np.concatenate([rng.uniform(0, 2 * pi, 2), v])
            _, grad = _torus_objective(x, g)
            num = _central_differences(lambda p: _torus_objective(p, g)[0], x)
            assert np.abs(grad - num).max() < 1e-6

    def test_matches_finite_difference_oracle(self):
        points = [_verify_sample(i) for i in range(10)]
        points += [torus_point(s, theta) for s, theta in _torus_params(3, seed=16)]
        for g in points:
            d, ref = distance_to_torus(g), distance_to_torus_fd(g)
            assert abs(d - ref) < 1e-6
            assert (d > OFF_TORUS_DISTANCE) == (ref > OFF_TORUS_DISTANCE)

    def test_runs_converge_with_the_exact_gradient(self, monkeypatch):
        # finite differences cost about 508 evaluations per call, so the
        # evaluation count catches a silent fallback to them
        minimize, runs = o5.minimize, []

        def recording(*args, **kwargs):
            runs.append(minimize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(o5, "minimize", recording)
        samples = [_verify_sample(i, seed=7) for i in range(8)]
        off = [distance_to_torus(g) > OFF_TORUS_DISTANCE for g in samples]
        assert sum(off) >= 6
        assert len(runs) == len(samples) * o5.TORUS_STARTS
        assert all(res.success for res in runs)
        assert sum(res.nfev for res in runs) / len(samples) < 150


class TestCertificate:
    def test_residuals(self):
        for nu in (0.25, 0.5, 0.75):
            m = CheegerMetric(nu)
            for s, theta in _torus_params(8, seed=4):
                cert = flat_plane_at_torus(s, theta, m)
                assert cert.flatness_residual < 1e-18
                assert cert.horizontality_residual < 1e-10

    def test_contains_distinguished_direction(self):
        for s, theta in _torus_params(8, seed=5):
            cert = flat_plane_at_torus(s, theta, M)
            assert plane_contains((cert.a, cert.b), Y3) < 1e-10

    def test_tangent_to_torus(self):
        for s, theta in _torus_params(5, seed=6):
            cert = flat_plane_at_torus(s, theta, M)
            h, _ = horizontal_basis_O5(cert.g, M)
            t_theta, t_s = torus_tangents(s, theta)
            pair = (
                _horizontal_projection(t_theta, h, M),
                _horizontal_projection(t_s, h, M),
            )
            assert plane_angle(pair, (cert.a, cert.b)) < 1e-4

    def test_flat_and_horizontal_identically(self):
        # B as flat_plane_at_torus builds it, for symbolic s, theta and nu:
        # flatness(Y3, B) and the six inner_nu products with the vertical
        # vectors vanish identically, not only to the CERT_*_BOUND residuals
        i, sq3 = sympy.I, sympy.sqrt(3)
        s, theta = sympy.symbols("s theta", real=True)
        nu = sympy.Symbol("nu", positive=True)
        (i1, j1, k1), (i2, j2, k2) = _exact_generators()
        y3 = sympy.diag(i, i, -2 * i)
        w = sympy.exp(i * theta)
        aa, bb = sq3 / 2, sympy.exp(i * s) / 2
        g = sympy.Matrix([[aa, bb, 0], [-sympy.conjugate(bb), aa, 0], [0, 0, 1]])
        g *= sympy.diag(w, w, sympy.conjugate(w) ** 2)
        z = i * sympy.exp(i * s)
        r = -2 * sympy.im(sympy.conjugate(aa * z) * bb) / (
            nu * (sympy.Abs(aa) ** 2 + 3 * sympy.Abs(bb) ** 2)
        )
        b = sympy.Matrix([[r * i, z, 0], [-sympy.conjugate(z), -r * i, 0], [0, 0, 0]])

        def inner(x, y):
            return -sympy.re((x * y).trace())

        def project_k(x):
            return sum((inner(x, e) / 8 * e for e in (i2, j2, k2)), sympy.zeros(3))

        def inner_nu(x, y):
            xk, yk = project_k(x), project_k(y)
            return inner(x - xk, y - yk) + nu * inner(xk, yk)

        def bracket(x, y):
            return x * y - y * x

        ya, ba = project_k(y3), project_k(b)
        flat = inner(bracket(y3, b), bracket(y3, b)) + inner(bracket(ya, ba), bracket(ya, ba))
        assert _vanishes(flat)
        vert = [q2 - g.H * q1 * g for q1, q2 in ((i1, i2), (j1, j2), (k1, k2))]
        for x in (y3, b):
            for v in vert:
                assert _vanishes(inner_nu(x, v))
        for sv, tv, nv in ((0.3, 1.2, 0.25), (4.0, 2.2, 0.75)):
            cert = flat_plane_at_torus(sv, tv, CheegerMetric(nv))
            at = {s: sv, theta: tv, nu: nv}
            assert _agrees(g, at, cert.g) and _agrees(b, at, cert.b)
            assert np.array_equal(cert.a, Y3)


class TestMinFlatness:
    def test_zero_at_torus_and_matches_certificate(self):
        for j, (s, theta) in enumerate(_torus_params(5, seed=7)):
            cert = flat_plane_at_torus(s, theta, M)
            res = min_flatness(cert.g, M, restarts=24, seed=j)
            assert res.value < 1e-12
            assert plane_angle((res.a, res.b), (cert.a, cert.b)) < 1e-4
            assert plane_contains((res.a, res.b), Y3) < 1e-10
            # near-zero restarts all land on the same plane
            for k in np.nonzero(res.restart_values < 1e-10)[0]:
                xc, yc = res.restart_planes[k]
                pair = (combine(xc, res.basis), combine(yc, res.basis))
                assert plane_angle(pair, (cert.a, cert.b)) < 1e-3

    def test_basis_is_the_horizontal_basis(self):
        rng = np.random.default_rng(11)
        for g in (haar_su3(rng), torus_point(0.7, 1.9)):
            res = min_flatness(g, M, restarts=4, seed=0)
            assert np.array_equal(res.basis, horizontal_basis_O5(g, M)[0])
            xb, yb = res.restart_planes[np.argmin(res.restart_values)]
            assert np.array_equal(res.a, combine(xb, res.basis))
            assert np.array_equal(res.b, combine(yb, res.basis))

    def test_positive_off_torus(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 4:
            g = haar_su3(rng)
            if distance_to_torus(g) <= 0.05:
                continue
            res = min_flatness(g, M, restarts=24, seed=checked)
            assert res.value > 1e-6
            assert res.lower_bound > 1e-8
            assert res.value >= res.lower_bound - 1e-12
            checked += 1

    def test_deterministic(self):
        g = torus_point(0.7, 1.9)
        r1 = min_flatness(g, M, restarts=16, seed=5)
        r2 = min_flatness(g, M, restarts=16, seed=5)
        assert r1.value == r2.value
        assert np.array_equal(r1.restart_values, r2.restart_values)
        assert np.array_equal(r1.restart_planes, r2.restart_planes)


class TestIsotropyTheorem:
    """Every stabilizer of the two-sided action is trivial or Z_3
    (special.o5_descriptor).  h fixes g iff psi1(h) = g psi2(h) g^{-1}, so
    psi1(h) and psi2(h) share a spectrum; the tests prove the two exact
    steps, and TestStabilizer counts the same in floats."""

    def test_spectra_agree_only_at_order_three(self):
        su2, k = _exact_generators()
        # psi2 maps su2 onto k generator by generator; it is a Lie algebra
        # map iff the bracket table of su2 carries over to k
        c = sympy.symbols("c1:4")

        def table_residual(gens, a, b, coef):
            """[gens[a], gens[b]] minus its expansion coef . gens."""
            span = sum((ci * e for ci, e in zip(coef, gens)), sympy.zeros(3))
            return gens[a] * gens[b] - gens[b] * gens[a] - span

        for a in range(3):
            for b in range(a + 1, 3):
                (sol,) = sympy.solve(list(table_residual(su2, a, b, c)), c, dict=True)
                assert _vanishes(table_residual(k, a, b, [sol[ci] for ci in c]))
        for x, approx in zip(su2 + k, (I1, J1, K1, I2, J2, K2)):
            assert _agrees(x, {}, approx)
        # every h in SU(2) is conjugate to exp(t I1), whose images are
        # exp(t I1) and exp(t I2); write lam = exp(i t)
        t = sympy.Symbol("t", real=True)
        lam, x = sympy.Symbol("lam", nonzero=True), sympy.Symbol("x")
        e = sympy.exp(sympy.I * t)
        assert _vanishes((t * su2[0]).exp() - sympy.diag(e, 1 / e, 1))
        assert _vanishes((t * k[0]).exp() - sympy.diag(e**2, e**-2, 1))

        def charpoly(gen):
            return (t * gen).exp().charpoly(x).as_expr().subs(t, -sympy.I * sympy.log(lam))

        # {lam, 1/lam, 1} = {lam^2, 1/lam^2, 1} splits into lam^2 = lam and
        # lam^3 = 1 (lam = 1/lam^2)
        branches = (lam**2 - lam) * (lam**3 - 1)
        diff = charpoly(su2[0]) - charpoly(k[0])
        assert _vanishes(lam**3 * diff - x * (x - 1) * branches)
        roots = [rt for rt in sympy.roots(branches, lam) if rt != 0]
        assert roots and all(_vanishes(rt**3 - 1) for rt in roots)
        assert -1 not in roots

    def test_singular_circle_is_fixed_by_z3(self):
        su2, k = _exact_generators()
        i = sympy.I
        omega = sympy.exp(2 * sympy.pi * i / 3)
        p1 = (2 * sympy.pi / 3 * su2[0]).exp()
        p2 = (2 * sympy.pi / 3 * k[0]).exp()
        assert _vanishes(p1 - sympy.diag(omega, sympy.conjugate(omega), 1))
        assert _vanishes(p2 - sympy.diag(sympy.conjugate(omega), omega, 1))
        # the solutions of psi1(h0) X = X psi2(h0) are [[0, x, 0], [y, 0, 0], [0, 0, z]]
        xs = sympy.Matrix(3, 3, sympy.symbols("x0:9"))
        (sol,) = sympy.solve(list(p1 * xs - xs * p2), list(xs), dict=True)
        free = [xs[0, 1], xs[1, 0], xs[2, 2]]
        assert xs.subs(sol) == sympy.Matrix([[0, free[0], 0], [free[1], 0, 0], [0, 0, free[2]]])
        phi = sympy.Symbol("phi", real=True)
        z = sympy.exp(i * phi)
        gz = sympy.Matrix([[0, 1, 0], [-sympy.conjugate(z), 0, 0], [0, 0, z]])
        assert _vanishes(p1 * gz - gz * p2)
        assert _vanishes(gz * gz.H - sympy.eye(3)) and _vanishes(gz.det() - 1)
        for v in (0.3, 2.0, 5.1):
            assert _agrees(gz, {phi: v}, g_z(np.exp(1j * v)))


class TestStabilizer:
    def test_singular_circle_order_three(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            z = np.exp(1j * rng.uniform(0, 2 * pi))
            assert stabilizer_check(g_z(z)) == 3

    def test_identity_regular(self):
        assert stabilizer_check(np.eye(3, dtype=complex)) == 1

    def test_random_points_regular(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            assert stabilizer_check(haar_su3(rng)) == 1


class TestVerificationDriver:
    def test_small_scale_passes(self):
        res = o5_verify(0.5, samples=30, restarts=16, seed=42, torus_points=5)
        assert res.passed
        assert res.off_torus_positive and res.off_torus_count > 0
        assert res.torus_flat and res.uniqueness_ok
        assert res.tangency_ok and res.contains_ok

    def test_deterministic(self):
        r1 = o5_verify(0.5, samples=10, restarts=8, seed=7, torus_points=3)
        r2 = o5_verify(0.5, samples=10, restarts=8, seed=7, torus_points=3)
        assert r1 == r2

    @pytest.mark.parametrize("torus_points", [0, -2])
    def test_no_torus_points_raises(self, torus_points):
        message = f"^torus_points must be at least 1, got {torus_points}$"
        with pytest.raises(ValueError, match=message):
            o5_verify(0.5, samples=1, restarts=1, torus_points=torus_points)


class TestOffTorusFilter:
    """A sample's distance to the torus is tested only when its flatness
    search is not positive; such a sample is exempt within
    OFF_TORUS_DISTANCE, and every other sample is counted."""

    SMALL = dict(samples=6, restarts=4, torus_points=1)
    SEED = 11

    @pytest.fixture
    def distance(self, monkeypatch, tmp_path):
        """Stub distance_to_torus by a function of the sample index (None
        for the real distance); returns the number of calls so far, in this
        process and in its forked workers: each call appends a line to one
        file."""
        log = tmp_path / "calls"
        log.touch()
        real = o5.distance_to_torus

        def stub(of_index):
            def counting(g):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                d = of_index(self.index(g))
                return real(g) if d is None else d

            monkeypatch.setattr(o5, "distance_to_torus", counting)
            return lambda: len(log.read_text().splitlines())

        return stub

    def index(self, g):
        """The index of sample g at SEED, None for a point that is no sample."""
        samples = range(self.SMALL["samples"])
        return next((i for i in samples if np.array_equal(o5._sample(self.SEED, i)[0], g)), None)

    def test_no_distance_when_every_search_is_positive(self, distance):
        calls = distance(lambda i: None)
        for nu in (0.25, 0.5, 0.75):
            res = o5_verify(nu, seed=self.SEED, **self.SMALL)
            assert res.passed and res.off_torus_count == self.SMALL["samples"]
        assert calls() == 0

    def test_positive_samples_on_the_torus_are_counted(self, distance):
        calls = distance(lambda i: 0.0)
        res = o5_verify(0.5, seed=self.SEED, **self.SMALL)
        assert res.passed and res.off_torus_count == self.SMALL["samples"]
        assert calls() == 0

    def test_exempt_samples_are_skipped(self, monkeypatch, distance):
        # samples 0, 2 and 4 find a flat plane; sample 0 lies on the torus
        # (exempt), sample 2 has a NaN distance and sample 4 its real one,
        # which is off the torus (both counted)
        failing = (0, 2, 4)
        real = o5.min_flatness

        def planted(g, m, restarts, seed):
            res = real(g, m, restarts=restarts, seed=seed)
            return dataclasses.replace(res, value=0.0) if self.index(g) in failing else res

        monkeypatch.setattr(o5, "min_flatness", planted)
        calls = distance({0: 0.0, 2: float("nan")}.get)
        res = o5_verify(0.25, seed=self.SEED, **self.SMALL)
        assert calls() == len(failing)
        searches = [
            planted(g, CheegerMetric(0.25), restarts=self.SMALL["restarts"], seed=c)
            for g, c in (o5._sample(self.SEED, i) for i in range(1, self.SMALL["samples"]))
        ]
        assert res.off_torus_count == len(searches) == 5
        assert res.off_torus_floor == min(r.value for r in searches) == 0.0
        assert res.off_torus_lower_bound == min(r.lower_bound for r in searches)
        assert not res.off_torus_positive and not res.passed


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _bits(report):
    """The report's fields, floats as float.hex, so equal means bit-identical."""
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in dataclasses.asdict(report).items()
    }


class TestWorkSpread:
    """o5_verify's flatness searches run in forked workers, one per usable
    CPU, or in this process on one CPU; the report is the same bits."""

    CALL = dict(nu=0.5, samples=6, restarts=8, seed=5, torus_points=3)
    # the same call in a fresh interpreter pinned to one CPU, where no
    # worker pool may be built
    ONE_CPU = """
import dataclasses, json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from su3orbifolds import o5

def no_pool(*args, **kwargs):
    raise AssertionError("a worker pool on one CPU")

o5.ProcessPoolExecutor = no_pool
report = o5.o5_verify(**json.loads(sys.argv[1]))
print(json.dumps({
    name: value.hex() if isinstance(value, float) else value
    for name, value in dataclasses.asdict(report).items()
}))
"""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker pools that o5_verify builds."""
        built = []
        real = o5.ProcessPoolExecutor

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(o5, "ProcessPoolExecutor", recording)
        return built

    @pytest.mark.skipif(_usable_cpus() < 2, reason="one usable CPU: no workers to compare")
    def test_one_cpu_gives_the_same_bits(self, pools):
        src = str(Path(o5.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", self.ONE_CPU, json.dumps(self.CALL)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        first = o5_verify(**self.CALL)
        second = o5_verify(**self.CALL)
        assert len(pools) == 2  # this side ran in workers
        assert json.loads(proc.stdout) == _bits(first) == _bits(second)

    def test_no_worker_left_after_return(self, pools):
        o5_verify(**self.CALL)
        assert len(pools) == (_usable_cpus() > 1)
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_a_job_raises(self, monkeypatch, pools):
        def breach(*args, **kwargs):
            raise o5.CertificateError("planted residual")

        monkeypatch.setattr(o5, "flat_plane_at_torus", breach)
        with pytest.raises(o5.CertificateError, match="^planted residual$"):
            o5_verify(**self.CALL)
        assert len(pools) == (_usable_cpus() > 1)
        assert multiprocessing.active_children() == []

    def test_no_fork_beside_another_thread(self, pools):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            o5_verify(**self.CALL)
        finally:
            release.set()
            other.join()
        assert pools == []
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(_usable_cpus() < 2, reason="one usable CPU: no workers")
    def test_worker_error_keeps_type_and_message(self, monkeypatch):
        def breach(*args, **kwargs):
            raise o5.CertificateError(f"planted residual in process {os.getpid()}")

        monkeypatch.setattr(o5, "flat_plane_at_torus", breach)
        with pytest.raises(o5.CertificateError, match=r"^planted residual in process \d+$") as err:
            o5_verify(**self.CALL)
        assert str(err.value) != f"planted residual in process {os.getpid()}"
