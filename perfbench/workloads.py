"""Workload generators, operations and output checks of the benchmark.

Three closed-loop workloads, one client each:

- ``cli-exact``: in-process ``su3orbifolds.cli.run([..., "--json"])`` over a
  seeded mix of the seven exact subcommands with small weights.
- ``api-exact-huge``: direct calls of the exact public API on seeded torus
  and circle actions with 30-40 digit weights.
- ``o5-gate``: ``o5_verify`` at nu = 1/4, 1/2, 3/4 with one shared seed per
  job.

A workload hands out operations in fixed batches.  ``execute`` is the timed
part; ``check`` runs outside the timed region and returns the problems it
found plus the canonical bytes of the output for the golden digest.

Library functions are always looked up through their module at call time
(``es6.validate6``, not a local alias), so the traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from su3orbifolds import curvature as curv, eschenburg6 as es6, eschenburg7 as es7

ROOT = Path(__file__).resolve().parent.parent

# permutation image tuples (s(1), s(2), s(3)) and their report names
PERMS = {
    (1, 2, 3): "id",
    (2, 1, 3): "(12)",
    (3, 2, 1): "(13)",
    (1, 3, 2): "(23)",
    (2, 3, 1): "(123)",
    (3, 1, 2): "(132)",
}
NAME_TO_PERM = {v: k for k, v in PERMS.items()}


def _load_oracles():
    """The brute-force torsion oracle kept with the repository's tests."""
    spec = importlib.util.spec_from_file_location(
        "su3orbifolds_oracles", ROOT / "tests" / "oracles.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks (definitions, not the library)
# ---------------------------------------------------------------------------


def _permute(w, sigma):
    return tuple(w[i - 1] for i in sigma)


def _vertex_rows(act, sigma):
    """Relation rows of the isotropy at the sigma vertex of a torus action."""
    a, b, p, q = act
    bs, qs = _permute(b, sigma), _permute(q, sigma)
    return [(a[i] - bs[i], p[i] - qs[i]) for i in range(3)]


def _vertex_order(act, sigma):
    rows = _vertex_rows(act, sigma)
    return abs(rows[0][1] * rows[1][0] - rows[0][0] * rows[1][1])


def _is_orbifold6(act):
    return all(_vertex_order(act, s) for s in PERMS)


def _kernel_rows(act):
    """(u, s) in T^2 acts trivially iff u*a_i + s*p_i and u*b_j + s*q_j all
    agree mod 1; the rows are the differences to u*a_1 + s*p_1."""
    a, b, p, q = act
    rows = [(a[i] - a[0], p[i] - p[0]) for i in (1, 2)]
    return rows + [(b[j] - a[0], q[j] - p[0]) for j in range(3)]


def _minors_gcd(rows):
    """gcd of the 2x2 minors: 0 iff the rows have rank < 2."""
    return _gcd_all(
        r[0] * s[1] - r[1] * s[0] for i, r in enumerate(rows) for s in rows[i + 1 :]
    )


def _positive7(p, q):
    lo, hi = min(p), max(p)
    return all(x < lo or x > hi for x in q)


def _gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def _witness_holds(act, kind, t, eta):
    """Exact check of a flat-plane witness against its defining system."""
    a, b, p, q = act
    if any(e < 0 for e in eta) or sum(eta) != 1:
        return False
    ea = sum(e * x for e, x in zip(eta, a))
    ep = sum(e * x for e, x in zip(eta, p))
    if kind == "Condition1":
        return 0 <= t <= 1 and (1 - t) * b[0] + t * b[1] == ea and (
            (1 - t) * q[0] + t * q[1] == ep
        )
    return kind == "Condition2" and t is None and b[2] == ea and q[2] == ep


def _circle_within(act, bound):
    """Some coprime (lam, mu) with max(|lam|, |mu|) <= bound gives a
    positively curved circle lam*(p, q) + mu*(a, b); (lam, mu) and
    (-lam, -mu) give the same circle."""
    a, b, p, q = act
    for mu in range(0, bound + 1):
        for lam in range(-bound, bound + 1):
            if gcd(lam, mu) != 1 or (mu == 0 and lam != 1):
                continue
            cp = [lam * x + mu * y for x, y in zip(p, a)]
            cq = [lam * x + mu * y for x, y in zip(q, b)]
            if _positive7(cp, cq):
                return True
    return False


def _normal_form_ok(case, n, p, a):
    if case == "BlockForm":
        return n is not None and n > 0 and tuple(p) == (0, n, 0) and tuple(a) == (0, n, n)
    return case == "AllZeroP" and tuple(p) == (0, 0, 0)


class TorsionCheck:
    """Seeded subsample cross-check of group results against the oracle.

    Mirrors ``torsion_profile_matches`` from the test oracles, with the
    relation rows reduced mod m so that 40-digit weights fit the oracle's
    fixed-width integer grid (the m-torsion count only depends on the
    rows mod m).
    """

    def __init__(self, seed, share):
        self.oracles = _load_oracles()
        self.rng = random.Random(f"oracle:{seed}")
        self.share = share
        self.checked = 0

    def pick(self):
        return self.rng.random() < self.share

    def matches(self, rows, d1, d2):
        self.checked += 1
        order = d1 * d2
        ms = set(range(1, 13))
        if order:
            ms |= {m for m in range(1, 61) if order % m == 0}
        else:
            ms |= set(range(1, 25))
        return all(
            self.oracles.torsion_count([(x % m, y % m) for x, y in rows], m)
            == self.oracles.expected_torsion(d1, d2, m)
            for m in sorted(ms)
        )


def _check_hexagon(problems, act, vertices, edges, torsion):
    """Vertex orders against the determinant formula, edge orders dividing
    their endpoint vertex orders, and (on a subsample) group structures
    against the torsion oracle.  vertices: name -> (d1, d2); edges:
    name -> ((d1, d2), (endpoint name, endpoint name))."""
    for name, (d1, d2) in vertices.items():
        sigma = NAME_TO_PERM[name]
        if d1 * d2 != _vertex_order(act, sigma):
            problems.append(f"vertex {name} order {d1 * d2} != determinant")
    for name, ((d1, d2), ends) in edges.items():
        n = d1 * d2
        for e in ends:
            v1, v2 = vertices[e]
            if n == 0 or (v1 * v2) % n:
                problems.append(f"edge {name} order {n} does not divide vertex {e}")
    if torsion.pick():
        for name, (d1, d2) in vertices.items():
            if not torsion.matches(_vertex_rows(act, NAME_TO_PERM[name]), d1, d2):
                problems.append(f"vertex {name} group fails the torsion oracle")
        for name, ((d1, d2), ends) in edges.items():
            rows = sum((_vertex_rows(act, NAME_TO_PERM[e]) for e in ends), [])
            if not torsion.matches(rows, d1, d2):
                problems.append(f"edge {name} group fails the torsion oracle")


# ---------------------------------------------------------------------------
# cli-exact
# ---------------------------------------------------------------------------

SCHEMA_SHARE = 0.25  # seeded share of cli-exact reports validated against the schema
SUBCOMMANDS = ("analyze7", "analyze6", "cohom1", "poscurv", "normalize", "wu", "wcp")
SMALL = 6


def _small_triple(rng):
    return tuple(rng.randint(-SMALL, SMALL) for _ in range(3))


def _matched(rng, t, span):
    x, y = rng.randint(-span, span), rng.randint(-span, span)
    return (x, y, sum(t) - x - y)


def _fmt(t):
    return ",".join(str(x) for x in t)


class CliExact:
    """Seeded mix of the seven exact subcommands through ``cli.run``."""

    name = "cli-exact"
    batch = 500
    trace_batches = 2
    golden_ops = 1000

    def __init__(self, seed, smoke=False):
        import jsonschema
        from su3orbifolds import cli

        self.cli = cli
        schema_path = ROOT / "src" / "su3orbifolds" / "report_schema.json"
        self.validator = jsonschema.Draft202012Validator(
            json.loads(schema_path.read_text())
        )
        self.rng = random.Random(f"cli-exact:{seed}")
        self.torsion = TorsionCheck(seed, share=0.05)
        # a schema validation costs about half the query it checks
        self.schema_rng = random.Random(f"cli-exact-schema:{seed}")
        self.schema_checks = 0
        if smoke:
            self.batch = 25

    def next_input(self):
        """(argv, weights, expected exit code) of one generated query.

        Weights obey the documented sum conditions; exit 1 and exit 2 cases
        arise where the drawn numbers violate the remaining preconditions.
        """
        rng = self.rng
        cmd = rng.choice(SUBCOMMANDS)
        if cmd == "analyze7":
            p = _small_triple(rng)
            q = _matched(rng, p, SMALL)
            argv = [cmd, "--p", _fmt(p), "--q", _fmt(q)]
            return argv, (p, q), 2 if sorted(p) == sorted(q) else 0
        if cmd in ("analyze6", "poscurv", "normalize"):
            a, p = _small_triple(rng), _small_triple(rng)
            b, q = _matched(rng, a, SMALL), _matched(rng, p, SMALL)
            argv = [cmd, "--a", _fmt(a), "--b", _fmt(b), "--p", _fmt(p), "--q", _fmt(q)]
            act = (a, b, p, q)
            ok = _is_orbifold6(act) and _minors_gcd(_kernel_rows(act)) != 0
            return argv, act, 0 if ok else 2
        if cmd == "cohom1":
            d = rng.randint(0, SMALL)
            a = _small_triple(rng)
            b = _matched(rng, a, SMALL)
            act = (a, b, (1, 1, d), (0, 0, d + 2))
            argv = [cmd, "--d", str(d), "--a", _fmt(a), "--b", _fmt(b)]
            return argv, act, 0 if _is_orbifold6(act) else 2
        if cmd == "wu":
            p, q = rng.randint(0, 2 * SMALL), rng.randint(0, 2 * SMALL)
            if gcd(p, q) != 1 or p < q:
                code = 1
            else:
                code = 2 if q == 0 else 0
            return [cmd, "--p", str(p), "--q", str(q)], (p, q), code
        p, q, r = (rng.randint(-SMALL, SMALL) for _ in range(3))
        bad = _gcd_all((p, q, r)) != 1 or 0 in (q + r, p + r, p + q)
        return [cmd, "--p", str(p), "--q", str(q), "--r", str(r)], (p, q, r), 1 if bad else 0

    def execute(self, inp):
        buf = io.StringIO()
        saved, sys.stdout = sys.stdout, buf
        try:
            code = self.cli.run([*inp[0], "--json"])
        finally:
            sys.stdout = saved
        return code, buf.getvalue()

    def check(self, inp, out):
        argv, weights, expected = inp
        code, text = out
        canon = f"{code}\n{text}".encode()
        if code == 3:
            return ["exit code 3"], canon
        problems = []
        report = json.loads(text)
        if self.schema_rng.random() < SCHEMA_SHARE:
            self.schema_checks += 1
            problems += [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        if report.get("exit_code") != code:
            problems.append("exit_code field disagrees with the return code")
        if code != expected:
            problems.append(f"exit code {code}, expected {expected}")
        if code == 0 and not problems:
            getattr(self, "_check_" + argv[0])(problems, weights, report["result"])
        return [f"{' '.join(argv)}: {p}" for p in problems], canon

    def _check_analyze7(self, problems, weights, res):
        p, q = weights
        for name, g in res["vertex_groups"].items():
            qs = _permute(q, NAME_TO_PERM[name])
            if int(g["order"]) != gcd(p[0] - qs[0], p[1] - qs[1]):
                problems.append(f"vertex {name} order != gcd of differences")
        if res["positively_curved"] != _positive7(p, q):
            problems.append("positively_curved disagrees with the interval test")

    def _check_analyze6(self, problems, act, res):
        eff = res.get("effectivized_action")
        if eff is not None:
            act = tuple(tuple(int(x) for x in eff[k]) for k in "abpq")
        pair = lambda g: (int(g["d1"]), int(g["d2"]))  # noqa: E731
        vertices = {k: pair(g) for k, g in res["vertex_groups"].items()}
        edges = {
            k: (pair(e["group"]), tuple(e["endpoints"])) for k, e in res["edge_groups"].items()
        }
        _check_hexagon(problems, act, vertices, edges, self.torsion)

    def _check_cohom1(self, problems, act, res):
        vertices = {k: int(v) for k, v in res["vertex_orders"].items()}
        for name, n in vertices.items():
            if n != _vertex_order(act, NAME_TO_PERM[name]):
                problems.append(f"vertex {name} order != determinant")
        for line in res["hexagon"]["edges"]:
            # "L11: order 3 joins C_(23) -- C_id"
            label, rest = line.split(": ", 1)
            ends = [e.strip()[2:] for e in rest.split(" joins ")[1].split(" -- ")]
            n = int(res["edge_orders"][label])
            if any(n == 0 or vertices[e] % n for e in ends):
                problems.append(f"edge {label} order does not divide its endpoints")

    def _check_poscurv(self, problems, act, res):
        a, b, p, q = act
        if not res["positively_curved"]:
            w = res["flat_witness"]
            t = None if w["t"] is None else Fraction(w["t"])
            if not _witness_holds(act, w["kind"], t, [Fraction(e) for e in w["eta"]]):
                problems.append("flat witness does not solve its system")
            return
        c = res["circle"]
        if c is None:
            problems.append("no circle found (search bound exhausted)")
            return
        lam, mu = int(c["lam"]), int(c["mu"])
        cp = tuple(int(x) for x in c["p"])
        cq = tuple(int(x) for x in c["q"])
        if gcd(lam, mu) != 1:
            problems.append("circle coefficients not coprime")
        if cp != tuple(lam * x + mu * y for x, y in zip(p, a)) or cq != tuple(
            lam * x + mu * y for x, y in zip(q, b)
        ):
            problems.append("circle weights are not the stated combination")
        if not (c["positively_curved_7d"] and _positive7(cp, cq)):
            problems.append("circle quotient is not positively curved")

    def _check_normalize(self, problems, act, res):
        nf = res["normal_form"]
        n = None if nf["n"] is None else int(nf["n"])
        p = [int(x) for x in nf["action"]["p"]]
        a = [int(x) for x in nf["action"]["a"]]
        if not _normal_form_ok(nf["case"], n, p, a):
            problems.append(f"normal form {nf['case']} has the wrong shape")

    def _check_wu(self, problems, weights, res):
        p, q = weights
        orders = (p, q, p + q)
        odd = sorted(o for o in orders if o > 1 and o % 2)
        even = [o for o in orders if o % 2 == 0]
        if [int(x) for x in res["isolated_point_orders"]] != odd or [
            int(res["rp2"]["distinguished_point_order"])
        ] != even:
            problems.append("isotropy orders disagree with {p, q, p+q}")

    def _check_wcp(self, problems, weights, res):
        p, q, r = weights
        sums = [abs(q + r), abs(p + r), abs(p + q)]
        g = _gcd_all(sums)
        if [int(x) for x in res["weights"]] != sorted((s // g for s in sums), reverse=True):
            problems.append("weights are not the normalized pairwise sums")


# ---------------------------------------------------------------------------
# api-exact-huge
# ---------------------------------------------------------------------------

HUGE_LO, HUGE_HI = 10**29, 10**40


def _huge(rng):
    return rng.choice((-1, 1)) * rng.randrange(HUGE_LO, HUGE_HI)


def _huge_triple(rng):
    return tuple(_huge(rng) for _ in range(3))


def _huge_matched(rng, t):
    x, y = _huge(rng), _huge(rng)
    return (x, y, sum(t) - x - y)


CIRCLE_BOUND = 100  # the default search bound of find_circle


def torus_query(act):
    """validate6, kernel_of_action, effectivize, singular_report,
    flat_witness, find_circle and repar_normal_form on one torus action.

    An exhausted circle search is reported as circle "exhausted"; the check
    then verifies the claim that no circle within the bound exists.
    """
    validity = es6.validate6(act)
    out = {"kind": "torus", "validity": validity.value}
    if validity is not es7.Validity.ORBIFOLD:
        return out
    kernel = es6.kernel_of_action(act)
    eff, _moves = es6.effectivize(act)
    rep = es6.singular_report(act)
    witness = curv.flat_witness(act)
    try:
        combo = curv.find_circle(act, bound=CIRCLE_BOUND)
        circle = None if combo is None else [combo.lam, combo.mu]
    except getattr(curv, "ExhaustedBound", ()):
        circle = "exhausted"
    nf = curv.repar_normal_form(eff)
    out.update(
        kernel=[kernel.d1, kernel.d2],
        effective=[list(eff.a), list(eff.b), list(eff.p), list(eff.q)],
        vertices={PERMS[s]: [g.d1, g.d2] for s, g in rep.vertices.items()},
        edges={
            f"L{i}{j}": [e.group.d1, e.group.d2, [PERMS[s] for s in e.endpoints]]
            for (i, j), e in rep.edges.items()
        },
        witness=None
        if witness is None
        else [witness.kind, None if witness.t is None else str(witness.t), [str(e) for e in witness.eta]],
        circle=circle,
        normal_form=[nf.case, nf.n, list(nf.transformed.p), list(nf.transformed.a)],
    )
    return out


def circle_query(act):
    """validate7, gamma7 at all six vertices, positive7, almost_positive7
    and cohom1_match on one circle action."""
    validity = es7.validate7(act)
    out = {"kind": "circle", "validity": validity.value}
    if validity is es7.Validity.NOT_ORBIFOLD:
        return out
    out.update(
        gamma={PERMS[s]: es7.gamma7(act, s).d2 for s in es7.ALL_PERMS},
        positive=es7.positive7(act),
        almost_positive=es7.almost_positive7(act),
        cohom1=es7.cohom1_match(act),
    )
    return out


class ApiExactHuge:
    """Three torus queries, then one circle query, with 30-40 digit weights.

    A circle query costs about 1/40 of a torus query, so a 1:1 mix would put
    the median latency in the gap between the two.  Every third torus action
    has a planted Z_n kernel (all (p, q) weights congruent mod n), and every
    third circle action a planted Z_n vertex group, so the effectivization
    and non-trivial SNF paths run as well.

    find_circle's search up to |coefficient| 100 can come back exhausted on
    these weights (2 of 7014 and 4 of 36059 positively curved actions in two
    sweeps).  That is counted in ``exhausted`` and its claim is verified,
    not scored as a failed operation.
    """

    name = "api-exact-huge"
    batch = 50
    trace_batches = 20
    golden_ops = 100

    def __init__(self, seed, smoke=False):
        self.rng = random.Random(f"api-exact-huge:{seed}")
        self.torsion = TorsionCheck(seed, share=0.02)
        self.count = {"torus": 0, "circle": 0}
        self.exhausted = 0
        if smoke:
            self.batch = 8

    def next_input(self):
        rng = self.rng
        kind = "circle" if sum(self.count.values()) % 4 == 3 else "torus"
        plant = rng.randint(2, 12) if self.count[kind] % 3 == 2 else None
        self.count[kind] += 1
        if kind == "torus":
            a = _huge_triple(rng)
            b = _huge_matched(rng, a)
            if plant is None:
                p = _huge_triple(rng)
                q = _huge_matched(rng, p)
            else:
                c, x = _huge(rng), _huge_triple(rng)
                y = _huge_matched(rng, x)
                p = tuple(c + plant * v for v in x)
                q = tuple(c + plant * v for v in y)
            return "torus", (a, b, p, q), plant
        p = _huge_triple(rng)
        if plant is None:
            q = _huge_matched(rng, p)
        else:
            r = _huge_matched(rng, (0, 0, 0))
            q = tuple(x + plant * v for x, v in zip(p, r))
        return "circle", (p, q), plant

    def execute(self, inp):
        kind, w, _plant = inp
        if kind == "torus":
            return torus_query(es6.TorusAction6(*w))
        return circle_query(es7.CircleAction7(*w))

    def check(self, inp, out):
        kind, w, plant = inp
        canon = json.dumps(out, sort_keys=True).encode()
        problems = []
        if kind == "torus":
            self._check_torus(problems, w, plant, out)
        else:
            self._check_circle(problems, w, plant, out)
        return [f"{kind} query: {p}" for p in problems], canon

    def _check_torus(self, problems, act, plant, out):
        orbifold = _is_orbifold6(act)
        if (out["validity"] == "Orbifold") != orbifold:
            problems.append("validity disagrees with the vertex determinants")
        if not orbifold:
            return
        d1, d2 = out["kernel"]
        if plant is not None and (d1 * d2) % plant:
            problems.append(f"kernel order {d1 * d2} misses the planted Z_{plant}")
        if self.torsion.pick() and not self.torsion.matches(_kernel_rows(act), d1, d2):
            problems.append("kernel group fails the torsion oracle")
        eff = tuple(tuple(t) for t in out["effective"])
        if _minors_gcd(_kernel_rows(eff)) != 1:
            problems.append("effectivized action still has a kernel")
        vertices = {k: tuple(v) for k, v in out["vertices"].items()}
        edges = {k: ((e[0], e[1]), tuple(e[2])) for k, e in out["edges"].items()}
        for name, (v1, _v2) in vertices.items():
            if v1 != _gcd_all(x for row in _vertex_rows(eff, NAME_TO_PERM[name]) for x in row):
                problems.append(f"vertex {name} d1 is not the gcd of its rows")
        _check_hexagon(problems, eff, vertices, edges, self.torsion)
        witness, circle = out["witness"], out["circle"]
        if witness is not None:
            kind, t, eta = witness
            t = None if t is None else Fraction(t)
            if not _witness_holds(act, kind, t, [Fraction(e) for e in eta]):
                problems.append("flat witness does not solve its system")
            if circle is not None:
                problems.append("circle reported for a quotient with a flat plane")
        elif circle is None:
            problems.append("positively curved but no circle returned")
        elif circle == "exhausted":
            self.exhausted += 1
            if _circle_within(act, CIRCLE_BOUND):
                problems.append(f"search exhausted but a circle within {CIRCLE_BOUND} exists")
        else:
            lam, mu = circle
            a, b, p, q = act
            cp = [lam * x + mu * y for x, y in zip(p, a)]
            cq = [lam * x + mu * y for x, y in zip(q, b)]
            if gcd(lam, mu) != 1 or not _positive7(cp, cq):
                problems.append("circle quotient is not positively curved")
        case, n, p_nf, a_nf = out["normal_form"]
        if not _normal_form_ok(case, n, p_nf, a_nf):
            problems.append(f"normal form {case} has the wrong shape")

    def _check_circle(self, problems, w, plant, out):
        p, q = w
        if sorted(p) == sorted(q):
            expected = "NotOrbifold"
        elif all(
            gcd(p[0] - qs[0], p[1] - qs[1]) == 1 for qs in (_permute(q, s) for s in PERMS)
        ):
            expected = "FreeManifold"
        else:
            expected = "Orbifold"
        if out["validity"] != expected:
            problems.append(f"validity {out['validity']}, expected {expected}")
        if expected == "NotOrbifold":
            return
        for name, n in out["gamma"].items():
            qs = _permute(q, NAME_TO_PERM[name])
            if n != gcd(p[0] - qs[0], p[1] - qs[1]):
                problems.append(f"vertex {name} order != gcd of differences")
        if plant is not None and out["gamma"]["id"] % plant:
            problems.append(f"identity vertex misses the planted Z_{plant}")
        if out["positive"] != _positive7(p, q):
            problems.append("positive7 disagrees with the interval test")
        d = out["cohom1"]
        if d is not None and not (isinstance(d, int) and d >= 0):
            problems.append("cohom1_match returned an invalid parameter")


# ---------------------------------------------------------------------------
# o5-gate
# ---------------------------------------------------------------------------

NUS = (0.25, 0.5, 0.75)


class O5Gate:
    """Three-nu ``o5_verify`` jobs, one shared seed per job.

    Gate 7 of the acceptance tests runs 1000 samples and 50 torus points per
    nu; a job here keeps that 20:1 ratio at 20 samples and 1 torus point,
    with the same 64 restarts.
    """

    name = "o5-gate"
    batch = len(NUS)
    trace_batches = 1
    golden_ops = len(NUS)

    def __init__(self, seed, smoke=False):
        from su3orbifolds import o5

        self.o5 = o5
        self.rng = random.Random(f"o5-gate:{seed}")
        self.samples, self.torus_points, self.restarts = (4, 1, 8) if smoke else (20, 1, 64)
        self.job_seed = None
        self.count = 0

    def next_input(self):
        if self.count % len(NUS) == 0:
            self.job_seed = self.rng.randrange(2**31)
        nu = NUS[self.count % len(NUS)]
        self.count += 1
        return nu, self.job_seed

    def execute(self, inp):
        nu, seed = inp
        return self.o5.o5_verify(
            nu,
            samples=self.samples,
            restarts=self.restarts,
            seed=seed,
            torus_points=self.torus_points,
        )

    def check(self, inp, out):
        nu, seed = inp
        fields = dataclasses.asdict(out)
        canon = json.dumps(fields, sort_keys=True).encode()
        problems = []
        if not out.passed:
            problems.append(f"o5_verify(nu={nu}, seed={seed}) reports passed: false")
        if (out.nu, out.samples, out.restarts, out.seed) != (nu, self.samples, self.restarts, seed):
            problems.append("report does not echo its parameters")
        return problems, canon


WORKLOADS = {w.name: w for w in (CliExact, ApiExactHuge, O5Gate)}
