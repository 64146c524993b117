"""Command-line front end.

Subcommands analyze exact weight data (7-D circle quotients, 6-D torus
quotients, the cohomogeneity-one family), decide positive curvature,
normalize actions, describe the special quotient families, and run the
sampled curvature verification for the 5-dimensional quotient.  Reports
are emitted as text or JSON (--json) under a versioned schema; integers
that may exceed 53-bit float precision are serialized as decimal
strings.

Exit codes: 0 success, 1 malformed input, 2 not an orbifold, 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from enum import Enum
from fractions import Fraction
from typing import get_args

from .curvature import ExhaustedBound, flat_witness, repar_normal_form, search_circle
from .eschenburg6 import (
    EDGE_ENDPOINTS,
    EDGE_ORDER,
    VERTEX_ORDER,
    EquivalenceMove,
    Permute,
    TorusAction6,
    cohom1_params,
    cohom1_tables,
    effectivize,
    effectivize_cohom1,
    kernel_of_action,
    singular_report,
    validate6,
)
from .eschenburg7 import (
    PERM_NAMES,
    CircleAction7,
    Validity,
    almost_positive7,
    cohom1_match,
    gamma7,
    positive7,
    validate7,
)
from .lattice import AbelianGroup2
from .special import NotPrimitiveError, ZeroWeightError, weighted_cp, wu_quotient

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_NOT_ORBIFOLD = 2
EXIT_INVARIANT = 3


class Stop(Exception):
    """Ends a run early with a nonzero exit code, the report's one warning
    and the partial result (already in JSON form) to print."""

    def __init__(self, code: int, warning: str, result: dict | None = None):
        super().__init__(warning)
        self.code = code
        self.warning = warning
        self.result = result or {}


def _malformed(message) -> Stop:
    return Stop(EXIT_MALFORMED, f"malformed input: {message}")


def _not_orbifold(result: dict) -> Stop:
    return Stop(EXIT_NOT_ORBIFOLD, "not an orbifold or degenerate action", _json(result))


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise _malformed(f"expected three comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise _malformed(f"bad integer in {text!r}: {exc}") from exc


_MOVES = get_args(EquivalenceMove)


def _json(value):
    """JSON form of a result value.

    Integers become decimal strings and fractions "p/q", so nothing is
    rounded through a float; enums become their value, groups
    d1/d2/order/name, and other dataclasses the dict of their fields, with
    a "kind" tag on moves and permutations by name.  None, bool, str and
    float pass through; containers are mapped.
    """
    if value is None or isinstance(value, (bool, str, float)):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if isinstance(value, AbelianGroup2):
        return {
            "d1": _json(value.d1),
            "d2": _json(value.d2),
            "order": _json(value.order),
            "name": str(value),
        }
    if isinstance(value, Permute):
        return {
            "kind": "Permute",
            "sigma": PERM_NAMES[value.sigma],
            "tau": PERM_NAMES[value.tau],
        }
    if dataclasses.is_dataclass(value):
        fields = {f.name: _json(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {"kind": type(value).__name__, **fields} if isinstance(value, _MOVES) else fields
    raise TypeError(f"no JSON form for {value!r}")


_EDGE_ART = r"""
          C_id ------ L33 ------ C_(12)
         /    \                 /     \
      L11      L22           L12       L21
       /         \           /           \
  C_(23) -------- L32 ----------------- C_(132)
       \           \       /             /
      L23           \     /           L13
         \           \   /             /
          C_(123) ---- L31 ---- C_(13)
"""


def _hexagon(vertices: dict, edges: dict) -> dict:
    """Listing of the singular-locus incidence hexagon.

    Six vertex lines and nine edge lines; the three chord strata join
    opposite vertices through the interior.
    """
    vlines = [
        f"C_{PERM_NAMES[sig]}: {vertices[sig]}" for sig in VERTEX_ORDER
    ]
    elines = []
    for ij in EDGE_ORDER:
        s, t = EDGE_ENDPOINTS[ij]
        elines.append(
            f"L{ij[0]}{ij[1]}: {edges[ij]}"
            f" joins C_{PERM_NAMES[s]} -- C_{PERM_NAMES[t]}"
        )
    return {
        "art": _EDGE_ART.strip("\n").split("\n"),
        "vertices": vlines,
        "edges": elines,
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result dict, trace list, warnings list)
# in JSON form, or raises Stop
# ---------------------------------------------------------------------------


def _run_analyze7(args) -> tuple[dict, list, list]:
    try:
        act = CircleAction7(p=_triple(args.p), q=_triple(args.q))
    except ValueError as exc:
        raise _malformed(exc) from exc
    validity = validate7(act)
    if validity is Validity.NOT_ORBIFOLD:
        raise _not_orbifold({"validity": validity})
    result = {
        "validity": validity,
        "vertex_groups": {PERM_NAMES[sig]: gamma7(act, sig) for sig in VERTEX_ORDER},
        "positively_curved": positive7(act),
        "almost_positively_curved": almost_positive7(act),
        "cohomogeneity_one_d": cohom1_match(act),
    }
    return _json(result), [], []


def _orbifold_action6(args) -> TorusAction6:
    """The torus action of --a --b --p --q: exit 1 if malformed, exit 2 if
    not an orbifold action.  An orbifold action has a finite kernel: each
    vertex row is a difference of two kernel rows, so a kernel of rank at
    most one would give every vertex order 0."""
    try:
        act = TorusAction6(
            a=_triple(args.a), b=_triple(args.b), p=_triple(args.p), q=_triple(args.q)
        )
    except ValueError as exc:
        raise _malformed(exc) from exc
    if validate6(act) is not Validity.ORBIFOLD:
        raise _not_orbifold({"validity": Validity.NOT_ORBIFOLD})
    return act


def _run_analyze6(args) -> tuple[dict, list, list]:
    act = _orbifold_action6(args)
    kernel = kernel_of_action(act)
    result = {"validity": Validity.ORBIFOLD, "action_kernel": kernel}
    moves = []
    warnings = []
    if not kernel.is_trivial:
        act, moves = effectivize(act)
        warnings.append("action was ineffective; analyzed the effectivized action")
        result["effectivized_action"] = act
    rep = singular_report(act)
    result["vertex_groups"] = {PERM_NAMES[sig]: rep.vertices[sig] for sig in VERTEX_ORDER}
    result["edge_groups"] = {
        f"L{i}{j}": {
            "group": rep.edges[(i, j)].group,
            "endpoints": [PERM_NAMES[s] for s in rep.edges[(i, j)].endpoints],
        }
        for (i, j) in EDGE_ORDER
    }
    result["singular_vertices"] = [
        PERM_NAMES[sig] for sig in VERTEX_ORDER if sig in rep.singular_vertices()
    ]
    result["singular_edges"] = [
        f"L{i}{j}" for (i, j) in EDGE_ORDER if (i, j) in rep.singular_edges()
    ]
    result["group_multiset"] = [{"d1": d1, "d2": d2} for d1, d2 in rep.group_multiset()]
    result["hexagon"] = _hexagon(
        {sig: str(rep.vertices[sig]) for sig in VERTEX_ORDER},
        {ij: str(rep.edges[ij].group) for ij in EDGE_ORDER},
    )
    return _json(result), _json(moves), warnings


def _run_cohom1(args) -> tuple[dict, list, list]:
    a, b = _triple(args.a), _triple(args.b)
    try:
        params = cohom1_params(args.d, a, b)
    except ValueError as exc:
        raise _malformed(exc) from exc
    try:
        tables = cohom1_tables(params)
        eff_a, eff_b = effectivize_cohom1(args.d, a, b)
    except ValueError as exc:
        raise _not_orbifold({"validity": Validity.NOT_ORBIFOLD, "detail": str(exc)}) from exc
    result = {
        "d": params.d,
        "parameters": {
            "alpha": params.alpha,
            "beta": params.beta,
            "gamma": params.gamma,
            "delta": params.delta,
            "epsilon": params.epsilon,
        },
        "vertex_orders": {
            PERM_NAMES[sig]: n for sig, n in zip(VERTEX_ORDER, tables.vertex_orders)
        },
        "edge_orders": {f"L{i}{j}": tables.edge_orders[(i, j)] for (i, j) in EDGE_ORDER},
        "noncyclic_edges": [f"L{i}{j}" for (i, j) in tables.noncyclic_edges],
        "effectivized": {"a": eff_a, "b": eff_b},
        "hexagon": _hexagon(
            {
                sig: f"order {n}"
                for sig, n in zip(VERTEX_ORDER, tables.vertex_orders)
            },
            {ij: f"order {tables.edge_orders[ij]}" for ij in EDGE_ORDER},
        ),
    }
    return _json(result), [], []


def _run_poscurv(args) -> tuple[dict, list, list]:
    act = _orbifold_action6(args)
    # checked before the flat witness, so a flat quotient rejects it too
    if args.bound < 1:
        raise _malformed(f"circle search bound must be at least 1, got {args.bound}")
    witness = flat_witness(act)
    if witness is not None:
        result = {"positively_curved": False, "flat_witness": witness, "circle": None}
        return _json(result), [], []
    result = {"positively_curved": True, "flat_witness": None}
    try:
        combo = search_circle(act, bound=args.bound)
    except ExhaustedBound as exc:
        result["circle"] = None
        return _json(result), [], [str(exc)]
    circle = combo.circle(act)
    result["circle"] = {
        "lam": combo.lam,
        "mu": combo.mu,
        "p": circle.p,
        "q": circle.q,
        "positively_curved_7d": positive7(circle),
    }
    result["input_circles_positive_7d"] = {
        "pq": positive7(CircleAction7(p=act.p, q=act.q)),
        "ab": positive7(CircleAction7(p=act.a, q=act.b)),
    }
    return _json(result), [], []


def _run_normalize(args) -> tuple[dict, list, list]:
    act = _orbifold_action6(args)
    kernel = kernel_of_action(act)
    eff, moves = effectivize(act)
    repar = repar_normal_form(eff)
    result = {
        "action_kernel": kernel,
        "effectivized_action": eff,
        "normal_form": {
            "case": repar.case,
            "n": repar.n,
            "action": repar.transformed,
            "moves": repar.moves,
        },
    }
    return _json(result), _json(moves), []


def _run_wu(args) -> tuple[dict, list, list]:
    try:
        rep = wu_quotient(args.p, args.q)
    except ValueError as exc:
        raise _malformed(exc) from exc
    result = {"valid": rep.valid, "isolated_point_orders": rep.isolated_points, "rp2": rep.rp2}
    if not rep.valid:
        raise _not_orbifold(result)
    return _json(result), [], []


def _run_wcp(args) -> tuple[dict, list, list]:
    try:
        w = weighted_cp(args.p, args.q, args.r)
    except (ZeroWeightError, NotPrimitiveError) as exc:
        raise _malformed(f"{type(exc).__name__}: {exc}") from exc
    return _json(w), [], []


def _run_o5_verify(args) -> tuple[dict, list, list]:
    # numpy and scipy take about 0.6 s to load and only this subcommand needs them
    from .o5 import o5_verify

    try:
        rep = o5_verify(
            args.nu, samples=args.samples, restarts=args.restarts, seed=args.seed
        )
    except ValueError as exc:
        raise _malformed(exc) from exc
    result = {
        "nu": rep.nu,
        "samples": rep.samples,
        "restarts": rep.restarts,
        "seed": rep.seed,
        "off_torus": {
            "count": rep.off_torus_count,
            "min_flatness_floor": rep.off_torus_floor,
            "certified_lower_bound": rep.off_torus_lower_bound,
            "positive": rep.off_torus_positive,
        },
        "torus": {
            "points": rep.torus_points,
            "max_search_flatness": rep.torus_max_flatness,
            "max_certificate_flatness": rep.torus_max_cert_flatness,
            "max_horizontality_residual": rep.torus_max_horizontality,
            "max_plane_angle": rep.torus_max_plane_angle,
            "flat": rep.torus_flat,
        },
        "uniqueness": {
            "near_zero_restarts": rep.uniqueness_checked,
            "max_angle": rep.uniqueness_max_angle,
            "ok": rep.uniqueness_ok,
        },
        "tangency": {"max_angle": rep.tangency_max_angle, "ok": rep.tangency_ok},
        "contains_distinguished_direction": {
            "max_residual": rep.contains_max_residual,
            "ok": rep.contains_ok,
        },
        "passed": rep.passed,
    }
    if not rep.passed:
        raise Stop(EXIT_INVARIANT, "verification failed", result)
    return result, [], []


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # flags are spelled in full: a prefix such as --js would otherwise
        # parse as --json, which the pre-parse scan in run cannot see
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _malformed(message)


_WEIGHT_FLAGS = ("--a", "--b", "--p", "--q")


def _build_parser() -> _Parser:
    parser = _Parser(prog="su3orbi", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument(
        "--tol", type=float, default=1e-10, help="numeric tolerance recorded in reports"
    )
    # the global flags are also accepted after the subcommand; SUPPRESS
    # keeps the trailing copies from clobbering values given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, handler, help):
        p = sub.add_parser(name, help=help, parents=[common])
        p.set_defaults(handler=handler)
        return p

    p7 = add_parser("analyze7", _run_analyze7, help="orbifold analysis of a 7-D circle quotient")
    p7.add_argument("--p", required=True)
    p7.add_argument("--q", required=True)

    p6 = add_parser("analyze6", _run_analyze6, help="orbifold analysis of a 6-D torus quotient")

    pc = add_parser("cohom1", _run_cohom1, help="cohomogeneity-one family tables")
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--a", required=True)
    pc.add_argument("--b", required=True)

    pp = add_parser("poscurv", _run_poscurv, help="positive-curvature decision and circle search")
    pn = add_parser("normalize", _run_normalize, help="effectivize and bring to normal form")
    for p in (p6, pp, pn):
        for flag in _WEIGHT_FLAGS:
            p.add_argument(flag, required=True)
    pp.add_argument("--bound", type=int, default=100)

    pw = add_parser("wu", _run_wu, help="circle quotient of the 5-manifold SU(3)/SO(3)")
    pw.add_argument("--p", type=int, required=True)
    pw.add_argument("--q", type=int, required=True)

    px = add_parser("wcp", _run_wcp, help="weighted projective plane weights")
    px.add_argument("--p", type=int, required=True)
    px.add_argument("--q", type=int, required=True)
    px.add_argument("--r", type=int, required=True)

    po = add_parser(
        "o5-verify", _run_o5_verify, help="sampled curvature verification of SU(3)//SU(2)"
    )
    po.add_argument("--nu", type=float, default=0.5)
    po.add_argument("--samples", type=int, default=1000)
    po.add_argument("--restarts", type=int, default=64)
    po.add_argument("--seed", type=int, default=42)

    return parser


_PARSER = _build_parser()


def _join_weights(argv) -> list[str]:
    """Join each weight flag to its value (--a -2,0,2 -> --a=-2,0,2), so
    argparse does not mistake the leading minus sign for an option."""
    joined, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _WEIGHT_FLAGS else None
        joined.append(tok if value is None else f"{tok}={value}")
    return joined


def _render_text(report: dict, out) -> None:
    def emit(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            print(f"{pad}{key}:", file=out)
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{pad}{key}:", file=out)
            for i, v in enumerate(value):
                emit(str(i), v, indent + 1)
        elif isinstance(value, list) and key in ("art", "vertices", "edges"):
            print(f"{pad}{key}:", file=out)
            for line in value:
                print(f"{pad}  {line}", file=out)
        else:
            print(f"{pad}{key}: {value}", file=out)

    for key, value in report.items():
        emit(key, value, 0)


def run(argv) -> int:
    """Execute one invocation; print the report; return the exit code."""
    out = sys.stdout
    report = {
        "schema_version": "1",
        "command": None,
        "input": {},
        "tol": None,
        "normalization_trace": [],
        "warnings": [],
        "result": {},
    }
    code = EXIT_OK
    as_json = "--json" in argv
    try:
        args = _PARSER.parse_args(_join_weights(argv))
        as_json = args.json
        if not math.isfinite(args.tol):
            raise _malformed(f"argument --tol: must be finite, got {args.tol}")
        report["command"] = args.command
        report["tol"] = args.tol
        report["input"] = {
            k: v
            for k, v in vars(args).items()
            if k not in ("json", "tol", "command", "handler") and v is not None
        }
        result, trace, warnings = args.handler(args)
        report["result"] = result
        report["normalization_trace"] = trace
        report["warnings"] = warnings
    except (Stop, RuntimeError, AssertionError) as exc:
        if not isinstance(exc, Stop):
            exc = Stop(EXIT_INVARIANT, f"internal invariant breach: {exc}")
        report["result"] = exc.result
        report["warnings"] = [exc.warning]
        code = exc.code
    report["exit_code"] = code
    if as_json:
        json.dump(report, out, indent=2)
        print(file=out)
    else:
        _render_text(report, out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
