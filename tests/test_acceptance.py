"""Acceptance gate: ten end-to-end checks, one printed line each.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
the captured-output section) and fails loudly on any mismatch.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout
from math import gcd, pi

import numpy as np
import pytest

from su3orbifolds.cli import run as cli_run
from su3orbifolds.curvature import find_circle, flat_witness
from su3orbifolds.eschenburg6 import (
    EDGE_ORDER,
    TorusAction6,
    VERTEX_ORDER,
    _stabilizer_rows,
    apply_equivalence,
    cohom1_params,
    effectivize,
    effectivize_cohom1,
    gamma6,
    kernel_of_action,
    lgroup6,
    singular_report,
)
from su3orbifolds.eschenburg7 import positive7
from su3orbifolds.lattice import AbelianGroup2
from su3orbifolds.o5 import g_z
from su3orbifolds.special import (
    NotPrimitiveError,
    ZeroWeightError,
    weighted_cp,
    wu_quotient,
)
from su3orbifolds.su3 import haar_su3

from oracles import (
    condition1_system,
    condition2_system,
    grid_feasible,
    stabilizer_check,
    torsion_profile_matches,
)
from test_eschenburg6 import _random_action6, _random_move


def _gate(index: int, label: str):
    """Print the per-criterion verdict even when the body raises."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            # write to the real stdout so the verdicts survive output capture
            print(f"[{index:2d}/10] {label}: {verdict}", file=sys.__stdout__)
            return False

    return _Ctx()


def _cli_json(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run([*argv, "--json"])
    return code, json.loads(buf.getvalue())


def test_noncyclic_vertex_group():
    with _gate(1, "non-cyclic identity vertex group"):
        start = time.perf_counter()
        code, rep = _cli_json(
            "analyze6", "--a", "0,1,1", "--b", "2,3,-3", "--p", "0,0,1", "--q", "2,4,-5"
        )
        assert code == 0
        gid = rep["result"]["vertex_groups"]["id"]
        assert (gid["d1"], gid["d2"]) == ("2", "2")
        act = TorusAction6(a=(0, 1, 1), b=(2, 3, -3), p=(0, 0, 1), q=(2, 4, -5))
        assert gamma6(act, VERTEX_ORDER[0]) == AbelianGroup2(2, 2)
        assert time.perf_counter() - start < 1.0


def _family_report(d, a, b):
    """Singular-locus report of the d-th family member's quotient."""
    return singular_report(cohom1_params(d, a, b).action())


def test_family_classification_tables():
    with _gate(2, "one-parameter family singular-locus tables"):
        start = time.perf_counter()
        for d in range(3, 13):
            # single sphere of order d+1
            rep = _family_report(d, (0, -1, 1), (0, 0, 0))
            orders = {e: r.group.order for e, r in rep.singular_edges().items()}
            assert set(orders.values()) == {d + 1}
            # three points + conditional spheres
            rep = _family_report(d, (0, 1, 1), (2, 0, 0))
            v = {s: g.order for s, g in rep.singular_vertices().items()}
            assert sorted(v.values()) == sorted(
                x for x in (3, d + 1, d + 1, 2 * d + 1) if x > 1
            )
            e = {e: r.group.order for e, r in rep.singular_edges().items()}
            expected = {
                (2, 2): gcd(3, d + 1),
                (1, 1): gcd(3, 2 * d + 1),
                (1, 3): gcd(2, d + 1),
            }
            assert e == {k: n for k, n in expected.items() if n > 1}
            # single sphere of order d-1
            rep = _family_report(d, (0, 1, 1), (0, 0, 2))
            orders = {e: r.group.order for e, r in rep.singular_edges().items()}
            assert set(orders.values()) == {d - 1}
            # three isolated points, no spheres
            rep = _family_report(d, (0, d - 1, 0), (1, d - 1, -1))
            v = sorted(g.order for g in rep.singular_vertices().values())
            assert v == sorted((2 * d - 3, d * d - d - 1, d * d - d - 1))
            assert not rep.singular_edges()
        assert time.perf_counter() - start < 5.0


def test_group_oracle_equivalence():
    with _gate(3, "isotropy groups match torsion-point enumeration"):
        rng = random.Random(2024)
        for _ in range(200):
            act = _random_action6(rng, span=6)
            for sigma in VERTEX_ORDER:
                g = gamma6(act, sigma)
                assert torsion_profile_matches(
                    _stabilizer_rows(act, sigma), g.d1, g.d2
                )
            for e in EDGE_ORDER:
                group, (sigma, tau) = lgroup6(act, *e)
                rows = _stabilizer_rows(act, sigma) + _stabilizer_rows(act, tau)
                assert torsion_profile_matches(rows, group.d1, group.d2)


def test_curvature_oracle_equivalence():
    with _gate(4, "flat-plane decision matches rational grid search"):
        start = time.perf_counter()
        rng = random.Random(4096)
        for _ in range(500):
            act = _random_action6(rng, span=5)
            w = flat_witness(act)
            hit = grid_feasible(condition1_system(act)) or grid_feasible(condition2_system(act))
            if hit:
                assert w is not None
            if w is None:
                assert not hit
        assert time.perf_counter() - start < 120.0


def test_positive_curvature_example():
    with _gate(5, "positively curved example with embedded circle"):
        act = TorusAction6(a=(-2, 0, 2), b=(-3, 1, 2), p=(-4, 0, 2), q=(-5, 3, 0))
        assert flat_witness(act) is None
        combo = find_circle(act)
        assert (combo.lam, combo.mu) == (-1, 2)
        circ = combo.circle(act)
        assert circ.p == (0, 0, 2) and circ.q == (-1, -1, 4)
        assert positive7(circ)
        from su3orbifolds.curvature import CircleCombo

        assert not positive7(CircleCombo(1, 0).circle(act))
        assert not positive7(CircleCombo(0, 1).circle(act))


def test_family_singular_structure():
    with _gate(6, "family quotients: locus never empty, pairs joined"):
        rng = random.Random(6006)
        checked = 0
        while checked < 300:
            d = rng.choice((3, 4, 5))
            a = tuple(rng.randint(-5, 5) for _ in range(3))
            b2 = [rng.randint(-5, 5) for _ in range(2)]
            b = (b2[0], b2[1], sum(a) - sum(b2))
            try:
                rep = _family_report(d, a, b)
            except ValueError:
                continue
            # proved for every member in tests/test_eschenburg6.py::
            # TestCohom1Proofs (test_no_manifold_member_beyond_d2 and
            # test_two_singular_vertices_are_joined)
            sing_v = rep.singular_vertices()
            assert sing_v
            if len(sing_v) == 2:
                (n,) = {g.order for g in sing_v.values()}
                assert n in (d - 1, d, d + 1, d + 2)
                assert any(
                    set(r.endpoints) == set(sing_v) and r.group.order == n
                    for r in rep.edges.values()
                )
            checked += 1


# about 1.5 minutes: 76-93 s in two runs on a 2-core Xeon, one BLAS thread
@pytest.mark.slow  # pytest -m "not slow" skips it
def test_almost_positive_5d_quotient():
    with _gate(7, "5-dimensional quotient flat-plane verification"):
        start = time.perf_counter()
        for nu in ("0.5", "0.25", "0.75"):
            code, rep = _cli_json(
                "o5-verify",
                "--nu", nu,
                "--samples", "1000",
                "--restarts", "64",
                "--seed", "42",
            )
            assert code == 0
            res = rep["result"]
            assert res["passed"] is True
            assert res["off_torus"]["positive"] is True
            assert res["off_torus"]["min_flatness_floor"] > 0
            assert res["torus"]["flat"] is True
            assert res["uniqueness"]["ok"] is True
            assert res["tangency"]["ok"] is True
            assert res["contains_distinguished_direction"]["ok"] is True
        assert time.perf_counter() - start < 600.0


def test_singular_circle_stabilizer():
    with _gate(8, "order-3 stabilizer along the singular circle"):
        start = time.perf_counter()
        rng = np.random.default_rng(88)
        for _ in range(20):
            z = np.exp(1j * rng.uniform(0, 2 * pi))
            assert stabilizer_check(g_z(z)) == 3
        for _ in range(20):
            assert stabilizer_check(haar_su3(rng)) == 1
        assert time.perf_counter() - start < 10.0


def test_equivalence_and_effectivization():
    with _gate(9, "move invariance and kernel removal"):
        rng = random.Random(909)
        for _ in range(500):
            act = _random_action6(rng)
            base = singular_report(act).group_multiset()
            cur = act
            for _ in range(rng.randint(1, 3)):
                cur = apply_equivalence(cur, _random_move(rng))
            assert singular_report(cur).group_multiset() == base
        for _ in range(200):
            act = _random_action6(rng)
            eff, _ = effectivize(act)
            assert kernel_of_action(eff).is_trivial
        checked = 0
        while checked < 50:
            d = rng.randint(3, 8)
            a = tuple(rng.randint(-5, 5) for _ in range(3))
            b2 = [rng.randint(-5, 5) for _ in range(2)]
            b = (b2[0], b2[1], sum(a) - sum(b2))
            try:
                na, nb = effectivize_cohom1(cohom1_params(d, a, b)) or (a, b)
            except ValueError:
                continue
            eff = TorusAction6(a=na, b=nb, p=(1, 1, d), q=(0, 0, d + 2))
            assert kernel_of_action(eff).is_trivial
            assert eff.p == (1, 1, d) and eff.q == (0, 0, d + 2)
            checked += 1


def test_wu_and_weighted_projective():
    with _gate(10, "Wu-manifold quotients and weighted projective planes"):
        expected = {
            (2, 1): ((3,), 2, False),
            (1, 1): ((), 2, False),
            (3, 1): ((3,), 4, True),
            (5, 2): ((5, 7), 2, False),
        }
        for (p, q), (iso, even, larger) in expected.items():
            rep = wu_quotient(p, q)
            assert rep.valid
            assert rep.isolated_points == iso
            assert rep.rp2.generic_order == 2
            assert rep.rp2.distinguished_point_order == even
            assert rep.rp2.larger == larger
        rng = random.Random(1010)
        checked = 0
        while checked < 100:
            p, q, r = (rng.randint(-9, 9) for _ in range(3))
            if gcd(gcd(p, q), r) != 1:
                try:
                    weighted_cp(p, q, r)
                    raise AssertionError("non-primitive input accepted")
                except NotPrimitiveError:
                    continue
            if 0 in (q + r, p + r, p + q):
                try:
                    weighted_cp(p, q, r)
                    raise AssertionError("zero pairwise sum accepted")
                except ZeroWeightError:
                    continue
            w = weighted_cp(p, q, r).weights
            raw = sorted((abs(q + r), abs(p + r), abs(p + q)), reverse=True)
            g = gcd(gcd(raw[0], raw[1]), raw[2])
            assert w == tuple(x // g for x in raw)
            checked += 1
