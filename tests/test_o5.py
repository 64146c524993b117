"""Tests for the 5-dimensional quotient flat-plane verification."""

from __future__ import annotations

from math import pi

import numpy as np
import pytest
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
    stabilizer_check,
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

from oracles import distance_to_torus_fd

M = CheegerMetric(0.5)


def _torus_params(n, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(0, 2 * pi, 2)) for _ in range(n)]


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
