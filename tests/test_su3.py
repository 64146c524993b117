"""Tests for the floating-point su(3) engine."""

from __future__ import annotations

from math import pi

import numpy as np
import pytest

import oracles
from su3orbifolds.o5 import torus_point
from su3orbifolds.su3 import (
    SU3_BASIS,
    CheegerMetric,
    I1,
    I2,
    J1,
    J2,
    K1,
    K2,
    K_BASIS,
    Y3,
    bracket,
    combine,
    coords,
    flatness,
    haar_su3,
    horizontal_basis_O5,
    inner,
    inner_nu,
    is_special_unitary,
    is_su3,
    norm2,
    project_K,
    random_su3_element,
    su3_basis,
    vertical_basis_O5,
)


class TestBasis:
    def test_orthonormal(self):
        basis = su3_basis()
        assert len(basis) == 8
        for i, e in enumerate(basis):
            assert is_su3(e)
            for j, f in enumerate(basis):
                assert inner(e, f) == pytest.approx(float(i == j), abs=1e-12)

    def test_coords_roundtrip(self):
        rng = np.random.default_rng(7)
        basis = su3_basis()
        x = random_su3_element(rng)
        c = coords(x, basis)
        assert np.abs(x - combine(c, basis)).max() < 1e-12


class TestShrunkTriple:
    def test_quaternionic_relations(self):
        for triple in ((I1, J1, K1), (I2, J2, K2)):
            i, j, k = triple
            assert np.abs(bracket(i, j) - 2 * k).max() < 1e-12
            assert np.abs(bracket(j, k) - 2 * i).max() < 1e-12
            assert np.abs(bracket(k, i) - 2 * j).max() < 1e-12

    def test_norms_and_orthogonality(self):
        for e in K_BASIS:
            assert is_su3(e)
            assert norm2(e) == pytest.approx(8.0, abs=1e-12)
        for i, e in enumerate(K_BASIS):
            for f in K_BASIS[i + 1 :]:
                assert inner(e, f) == pytest.approx(0.0, abs=1e-12)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_su3_element(rng)
            p = project_K(x)
            assert np.abs(project_K(p) - p).max() < 1e-12
            # self-adjoint: <Px, y> = <x, Py>
            y = random_su3_element(rng)
            assert inner(p, y) == pytest.approx(inner(x, project_K(y)), abs=1e-10)

    def test_y3_orthogonal_to_K(self):
        assert np.abs(project_K(Y3)).max() < 1e-12


class TestMetric:
    def test_nu_range(self):
        with pytest.raises(ValueError):
            CheegerMetric(0.0)
        with pytest.raises(ValueError):
            CheegerMetric(1.0)

    def test_scaling_on_K(self):
        m = CheegerMetric(0.25)
        for e in K_BASIS:
            assert inner_nu(e, e, m) == pytest.approx(0.25 * 8.0, abs=1e-12)
        assert inner_nu(Y3, Y3, m) == pytest.approx(norm2(Y3), abs=1e-12)


class TestGroupSampling:
    def test_haar_is_special_unitary(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            assert is_special_unitary(haar_su3(rng))

    def test_random_element_in_algebra(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            assert is_su3(random_su3_element(rng))


class TestQuotientSpaces:
    def test_vertical_rank_three(self):
        rng = np.random.default_rng(19)
        basis = su3_basis()
        for _ in range(20):
            g = haar_su3(rng)
            vert = vertical_basis_O5(g)
            mat = np.stack([coords(v, basis) for v in vert])
            s = np.linalg.svd(mat, compute_uv=False)
            assert s.min() > 1e-6

    def test_horizontal_frame_orthonormal(self):
        rng = np.random.default_rng(23)
        m = CheegerMetric(0.5)
        for _ in range(10):
            g = haar_su3(rng)
            h, frame = horizontal_basis_O5(g, m)
            assert len(h) == 5 and frame.shape == (8, 5)
            for i, x in enumerate(h):
                assert is_su3(x, tol=1e-10)
                for j, y in enumerate(h):
                    assert inner_nu(x, y, m) == pytest.approx(
                        float(i == j), abs=1e-9
                    )
            for x in h:
                for v in vertical_basis_O5(g):
                    assert inner_nu(x, v, m) == pytest.approx(0.0, abs=1e-9)


class TestFrameConstants:
    """The basis, its K splits and the per-metric Gram are built once;
    the frames must equal the per-call construction bit for bit."""

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
    def test_frame_equals_per_call_reference(self, nu):
        rng = np.random.default_rng(29)
        m = CheegerMetric(nu)
        points = [haar_su3(rng) for _ in range(50)]
        points += [torus_point(s, theta) for s, theta in rng.uniform(0, 2 * pi, (5, 2))]
        for g in points:
            h, frame = horizontal_basis_O5(g, m)
            h_ref, frame_ref = oracles.horizontal_basis_O5(g, CheegerMetric(nu))
            assert np.array_equal(frame, frame_ref)
            assert len(h) == len(h_ref)
            assert all(np.array_equal(x, y) for x, y in zip(h, h_ref))

    def test_gram_equals_inner_nu(self):
        rng = np.random.default_rng(37)
        m = CheegerMetric(0.3)
        xs = [random_su3_element(rng) for _ in range(3)]
        ys = [random_su3_element(rng) for _ in range(4)]
        expected = np.array([[inner_nu(x, y, m) for y in ys] for x in xs])
        assert np.array_equal(m.gram(xs, ys), expected)

    def test_constants_are_read_only(self):
        m = CheegerMetric(0.5)
        assert m._basis_gram is m._basis_gram
        assert not m._basis_gram.flags.writeable
        assert all(not e.flags.writeable for e in SU3_BASIS)
        fresh = su3_basis()
        assert all(np.array_equal(e, f) for e, f in zip(fresh, SU3_BASIS))
        fresh[0][0, 0] = 7.0
        assert fresh[0] is not SU3_BASIS[0] and SU3_BASIS[0][0, 0] != 7.0
        assert m == CheegerMetric(0.5) and hash(m) == hash(CheegerMetric(0.5))


class TestFlatness:
    def test_zero_on_commuting_diagonal_plane(self):
        a = np.diag([1j, -1j, 0])
        assert flatness(a, Y3) == pytest.approx(0.0, abs=1e-24)

    def test_positive_on_noncommuting_plane(self):
        assert flatness(I1, J1) > 1.0

    def test_symmetric_and_scaling(self):
        rng = np.random.default_rng(29)
        a, b = random_su3_element(rng), random_su3_element(rng)
        assert flatness(a, b) == pytest.approx(flatness(b, a), rel=1e-12)
        assert flatness(2 * a, b) == pytest.approx(4 * flatness(a, b), rel=1e-12)
