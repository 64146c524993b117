"""End-to-end tests of the command-line interface and its JSON reports."""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

import su3orbifolds
from su3orbifolds import cli, curvature, eschenburg6
from su3orbifolds.cli import _dumps, _json, run
from su3orbifolds.curvature import FlatWitness
from su3orbifolds.eschenburg6 import GL2Z, Permute, Scale, Shift, Swap, TorusAction6
from su3orbifolds.eschenburg7 import CYCLE_123, SWAP_12, Validity

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "su3orbifolds" / "report_schema.json").read_text()
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["exit_code"] == code
    return code, report


class TestAnalyze7:
    def test_free_manifold(self):
        code, rep = run_json("analyze7", "--p", "1,1,3", "--q", "0,0,5")
        assert code == 0
        res = rep["result"]
        assert res["validity"] == "FreeManifold"
        assert res["positively_curved"] is True
        assert res["almost_positively_curved"] is False
        assert res["cohomogeneity_one_d"] == "3"
        assert len(res["vertex_groups"]) == 6

    def test_orbifold_groups(self):
        code, rep = run_json("analyze7", "--p", "0,0,1", "--q", "2,4,-5")
        assert code == 0
        assert rep["result"]["vertex_groups"]["id"]["order"] == "2"

    def test_not_orbifold_exit2(self):
        code, rep = run_json("analyze7", "--p", "1,2,3", "--q", "3,1,2")
        assert code == 2

    def test_malformed_sum_exit1(self):
        code, rep = run_json("analyze7", "--p", "1,1,1", "--q", "0,0,1")
        assert code == 1

    def test_malformed_syntax_exit1(self):
        code, _ = run_cli("analyze7", "--p", "1,1", "--q", "0,0,2")
        assert code == 1


class TestAnalyze6:
    ARGS = ("analyze6", "--a", "0,1,1", "--b", "2,3,-3", "--p", "0,0,1", "--q", "2,4,-5")

    def test_noncyclic_identity_group(self):
        code, rep = run_json(*self.ARGS)
        assert code == 0
        gid = rep["result"]["vertex_groups"]["id"]
        assert (gid["d1"], gid["d2"]) == ("2", "2")

    def test_hexagon_shape(self):
        _, rep = run_json(*self.ARGS)
        hexa = rep["result"]["hexagon"]
        assert len(hexa["vertices"]) == 6
        assert len(hexa["edges"]) == 9
        assert any("C_id" in line for line in hexa["vertices"])

    def test_edge_groups_divide_vertices(self):
        _, rep = run_json(*self.ARGS)
        res = rep["result"]
        for name, edge in res["edge_groups"].items():
            order = int(edge["group"]["order"])
            for v in edge["endpoints"]:
                assert int(res["vertex_groups"][v]["order"]) % order == 0

    def test_text_output_agrees(self):
        code, out = run_cli(*self.ARGS)
        assert code == 0
        assert "Z_2+Z_2" in out

    def test_degenerate_exit2(self):
        code, _ = run_json(
            "analyze6", "--a", "0,0,0", "--b", "0,0,0", "--p", "1,2,3", "--q", "1,2,3"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "weights, kernel, kernel_calls",
        [
            (ARGS[1:], "trivial", 1),
            (("--a", "-2,0,2", "--b", "-3,1,2", "--p", "-4,0,2", "--q", "-5,3,0"), "Z_2", 3),
        ],
    )
    def test_effectivized_once(self, monkeypatch, weights, kernel, kernel_calls):
        # singular_report effectivizes; the CLI asks for the kernel only
        # when that made a move
        calls = {"kernel_of_action": 0, "effectivize": 0}

        def counting(name):
            inner = getattr(eschenburg6, name)

            def wrapper(act):
                calls[name] += 1
                return inner(act)

            monkeypatch.setattr(cli, name, wrapper)
            monkeypatch.setattr(eschenburg6, name, wrapper)

        counting("kernel_of_action")
        counting("effectivize")
        code, rep = run_json("analyze6", *weights)
        assert code == 0
        assert rep["result"]["action_kernel"]["name"] == kernel
        assert calls == {"kernel_of_action": kernel_calls, "effectivize": 1}


class TestCohom1:
    def test_family_orders(self):
        code, rep = run_json("cohom1", "--d", "3", "--a", "0,1,1", "--b", "2,0,0")
        assert code == 0
        res = rep["result"]
        assert res["d"] == "3"
        vo = res["vertex_orders"]
        assert vo["id"] == "3"
        assert vo["(13)"] == "4"
        assert vo["(132)"] == "4"
        assert vo["(23)"] == "7"
        assert res["edge_orders"]["L13"] == "2"
        assert len(res["hexagon"]["edges"]) == 9

    def test_degenerate_exit2(self):
        code, _ = run_json("cohom1", "--d", "3", "--a", "0,0,0", "--b", "0,0,0")
        assert code == 2

    def test_negative_d_exit1(self):
        code, rep = run_json("cohom1", "--d", "-3", "--a", "3,1,0", "--b", "0,0,4")
        assert code == 1
        assert rep["warnings"] == ["malformed input: the family requires d >= 0, got d=-3"]


class TestPoscurv:
    ARGS = (
        "poscurv",
        "--a", "-2,0,2", "--b", "-3,1,2", "--p", "-4,0,2", "--q", "-5,3,0",
    )

    def test_positively_curved_with_circle(self):
        code, rep = run_json(*self.ARGS)
        assert code == 0
        res = rep["result"]
        assert res["positively_curved"] is True
        assert res["flat_witness"] is None
        circ = res["circle"]
        assert (circ["lam"], circ["mu"]) == ("-1", "2")
        assert circ["p"] == ["0", "0", "2"]
        assert circ["q"] == ["-1", "-1", "4"]
        assert circ["positively_curved_7d"] is True
        assert res["input_circles_positive_7d"] == {"pq": False, "ab": False}

    def test_flat_witness_reported(self):
        code, rep = run_json(
            "poscurv", "--a", "1,2,0", "--b", "0,0,3", "--p", "0,1,1", "--q", "2,0,0"
        )
        assert code == 0
        res = rep["result"]
        if not res["positively_curved"]:
            w = res["flat_witness"]
            assert w["kind"] == "Condition1"
            assert len(w["eta"]) == 3
            assert res["circle"] is None

    @pytest.mark.parametrize("field, value", [("kind", "Condition2"), ("t", None)])
    def test_schema_rejects_other_witness(self, field, value):
        _, rep = run_json(
            "poscurv", "--a", "1,2,0", "--b", "0,0,3", "--p", "0,1,1", "--q", "2,0,0"
        )
        rep["result"]["flat_witness"][field] = value
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(rep, SCHEMA)

    def test_one_flat_witness_per_query(self, monkeypatch):
        calls = []

        def counting(act, _inner=curvature.flat_witness):
            calls.append(act)
            return _inner(act)

        monkeypatch.setattr(cli, "flat_witness", counting)
        monkeypatch.setattr(curvature, "flat_witness", counting)
        flat = ("poscurv", "--a", "1,2,0", "--b", "0,0,3", "--p", "0,1,1", "--q", "2,0,0")
        for argv, positive in ((self.ARGS, True), (flat, False)):
            calls.clear()
            code, rep = run_json(*argv)
            assert code == 0 and rep["result"]["positively_curved"] is positive
            assert len(calls) == 1

    def test_exhausted_bound(self):
        # the example's first positive circle is (-1, 2), beyond bound 1
        code, rep = run_json(*self.ARGS, "--bound", "1")
        assert code == 0
        assert rep["warnings"] == ["no positively curved circle with coefficients up to 1"]
        res = rep["result"]
        assert res["positively_curved"] is True and res["circle"] is None
        assert "input_circles_positive_7d" not in res

    def test_negative_bound_exit1(self):
        code, rep = run_json(*self.ARGS, "--bound", "-1")
        assert code == 1
        assert rep["warnings"] == [
            "malformed input: circle search bound must be at least 1, got -1"
        ]

    def test_negative_bound_exit1_when_flat(self):
        # the quotient has a flat witness, so the circle search never runs
        code, rep = run_json(
            "poscurv", "--a", "1,2,0", "--b", "0,0,3", "--p", "0,1,1", "--q", "2,0,0",
            "--bound", "-1",
        )
        assert code == 1
        assert rep["warnings"] == [
            "malformed input: circle search bound must be at least 1, got -1"
        ]

    def test_zero_flat_row(self):
        # the first flat-plane equality reads 1 = 0 (TestFlatWitness)
        code, rep = run_json(
            "poscurv", "--a", "0,0,0", "--b", "1,1,-2", "--p", "-3,-3,0", "--q", "-3,-2,-1"
        )
        assert code == 0
        res = rep["result"]
        assert res["positively_curved"] is True and res["flat_witness"] is None
        assert (res["circle"]["lam"], res["circle"]["mu"]) == ("0", "1")


class TestNormalize:
    def test_one_kernel_call_when_effective(self, monkeypatch):
        calls = []

        def counting(act, _inner=eschenburg6.kernel_of_action):
            calls.append(act)
            return _inner(act)

        monkeypatch.setattr(cli, "kernel_of_action", counting)
        monkeypatch.setattr(eschenburg6, "kernel_of_action", counting)
        code, rep = run_json(
            "normalize", "--a", "0,1,1", "--b", "2,3,-3", "--p", "0,0,1", "--q", "2,4,-5"
        )
        assert code == 0
        assert rep["result"]["action_kernel"]["name"] == "trivial"
        assert rep["normalization_trace"] == []
        assert len(calls) == 1

    def test_block_form(self):
        code, rep = run_json(
            "normalize", "--a", "-2,0,2", "--b", "-3,1,2", "--p", "-4,0,2", "--q", "-5,3,0"
        )
        assert code == 0
        res = rep["result"]
        assert res["action_kernel"]["order"] == "2"
        nf = res["normal_form"]
        assert nf["case"] == "BlockForm"
        n = nf["n"]
        assert nf["action"]["p"] == ["0", n, "0"]
        assert nf["action"]["a"] == ["0", n, n]
        assert nf["moves"]


class TestWu:
    def test_weight_3_1(self):
        code, rep = run_json("wu", "--p", "3", "--q", "1")
        assert code == 0
        res = rep["result"]
        assert res["valid"] is True
        assert res["isolated_point_orders"] == ["3"]
        assert res["rp2"]["distinguished_point_order"] == "4"
        assert res["rp2"]["larger"] is True

    def test_invalid_zero_weight_exit2(self):
        code, rep = run_json("wu", "--p", "1", "--q", "0")
        assert code == 2

    def test_non_coprime_exit1(self):
        code, _ = run_json("wu", "--p", "4", "--q", "2")
        assert code == 1


class TestWcp:
    def test_basic(self):
        code, rep = run_json("wcp", "--p", "1", "--q", "1", "--r", "3")
        assert code == 0
        assert rep["result"]["weights"] == ["2", "2", "1"]

    def test_zero_weight_exit1(self):
        code, _ = run_json("wcp", "--p", "1", "--q", "1", "--r", "-1")
        assert code == 1

    def test_non_primitive_exit1(self):
        code, _ = run_json("wcp", "--p", "2", "--q", "4", "--r", "6")
        assert code == 1


class TestO5Verify:
    ARGS = (
        "o5-verify", "--nu", "0.5", "--samples", "12", "--restarts", "12", "--seed", "3",
    )

    def test_passes_at_small_scale(self):
        code, rep = run_json(*self.ARGS)
        assert code == 0
        assert rep["result"]["passed"] is True
        assert rep["result"]["off_torus"]["positive"] is True

    def test_byte_identical_determinism(self):
        _, out1 = run_cli(*self.ARGS, "--json")
        _, out2 = run_cli(*self.ARGS, "--json")
        assert out1 == out2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_exit1(self, samples):
        code, rep = run_json("o5-verify", "--samples", samples)
        assert code == 1
        assert rep["warnings"] == [f"malformed input: samples must be at least 1, got {samples}"]

    def test_no_restarts_exit1(self):
        code, rep = run_json("o5-verify", "--restarts", "0")
        assert code == 1
        assert rep["warnings"] == ["malformed input: restarts must be at least 1, got 0"]

    def test_certificate_error_exit3(self, monkeypatch):
        from su3orbifolds import o5

        def breach(*args, **kwargs):
            raise o5.CertificateError("planted residual")

        monkeypatch.setattr(o5, "flat_plane_at_torus", breach)
        code, rep = run_json("o5-verify", "--samples", "1", "--restarts", "1")
        assert code == 3
        assert rep["warnings"] == ["internal invariant breach: planted residual"]

    def test_nu_below_floor_exit1(self):
        # CheegerMetric refuses these nu: at 1e-300 the float frame breaks
        # down, and at 5e-4 the torus gates fail
        for nu in ("1e-300", "5e-4"):
            code, rep = run_json("o5-verify", "--nu", nu, "--samples", "1", "--restarts", "1")
            assert code == 1
            assert rep["warnings"] == [
                f"malformed input: nu must be at least NU_FLOOR = 0.001, got {float(nu)}"
            ]

    @pytest.mark.parametrize("nu", ["nan", "inf", "-inf"])
    def test_non_finite_nu_exit1(self, nu):
        # refused while parsing, before the report's input is filled, so the
        # report stays strict JSON: no NaN or Infinity leaks into it
        code, out = run_cli("o5-verify", f"--nu={nu}", "--samples", "1", "--json")
        assert code == 1

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(out, parse_constant=reject)
        assert report["warnings"] == [
            f"malformed input: argument --nu: invalid finite value: '{nu}'"
        ]
        assert report["input"] == {}

    def test_no_sample_counted_reports_null(self, monkeypatch):
        # every search flat and every sample on the torus: every sample is
        # exempt, so there is no floor, and the report stays strict JSON
        from su3orbifolds import o5

        real = o5.min_flatness

        def flat(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), value=0.0)

        monkeypatch.setattr(o5, "min_flatness", flat)
        monkeypatch.setattr(o5, "distance_to_torus", lambda g: 0.0)
        code, out = run_cli("o5-verify", "--samples", "2", "--restarts", "1", "--json")
        assert code == 3

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(out, parse_constant=reject)
        jsonschema.validate(report, SCHEMA)
        off = report["result"]["off_torus"]
        assert off["count"] == 0
        assert off["min_flatness_floor"] is None and off["certified_lower_bound"] is None
        assert off["positive"] is False

    def test_failed_verification_exit3(self, monkeypatch):
        from su3orbifolds import o5

        failed = o5.O5Verification(
            nu=0.5, samples=1, restarts=1, seed=0,
            off_torus_count=1, off_torus_floor=-1.0, off_torus_lower_bound=-1.0,
            off_torus_positive=False,
            torus_points=0, torus_max_flatness=0.0, torus_max_cert_flatness=0.0,
            torus_max_horizontality=0.0, torus_max_plane_angle=0.0, torus_flat=True,
            uniqueness_checked=0, uniqueness_max_angle=0.0, uniqueness_ok=True,
            tangency_max_angle=0.0, tangency_ok=True,
            contains_max_residual=0.0, contains_ok=True,
            passed=False,
        )
        monkeypatch.setattr(o5, "o5_verify", lambda *args, **kwargs: failed)
        code, rep = run_json("o5-verify", "--samples", "1", "--restarts", "1")
        assert code == 3
        assert rep["warnings"] == ["verification failed"]
        assert rep["result"]["passed"] is False
        assert rep["result"]["off_torus"]["positive"] is False


def test_exact_half_loads_neither_numpy_nor_scipy():
    script = """
import io, sys
from contextlib import redirect_stdout
from su3orbifolds import cli, curvature, eschenburg6, eschenburg7, lattice, special
with redirect_stdout(io.StringIO()):
    code = cli.run(["wcp", "--p", "1", "--q", "1", "--r", "3", "--json"])
assert code == 0, code
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""
    src = str(Path(su3orbifolds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_private_names_imported_across_modules():
    for path in sorted(Path(su3orbifolds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from .{node.module}"


class TestParsing:
    def test_global_flag_after_subcommand(self):
        code, out = run_cli("wcp", "--p", "1", "--q", "1", "--r", "3", "--json")
        assert code == 0
        json.loads(out)

    def test_negative_triple_values(self):
        code, _ = run_json("analyze7", "--p", "-1,-1,0", "--q", "0,0,-2")
        assert code == 0

    def test_unknown_subcommand_exit1(self):
        code, _ = run_cli("frobnicate")
        assert code == 1

    def test_missing_argument_exit1(self):
        code, _ = run_cli("analyze7", "--p", "1,1,0")
        assert code == 1

    @pytest.mark.parametrize(
        "q, warning",
        [("2", "unrecognized arguments: --js"), ("x", "argument --q: invalid int value: 'x'")],
    )
    def test_abbreviated_flag_exit1(self, q, warning):
        # a prefix of --json is not --json, whether or not the rest parses,
        # so both reports are text
        code, out = run_cli("wcp", "--p", "1", "--q", q, "--r", "3", "--js")
        assert code == 1
        assert out.startswith("schema_version: 1\n")
        assert f"malformed input: {warning}" in out

    @pytest.mark.parametrize(
        "argv, rest",
        [
            (("--tol=0.5", "wcp", "--p", "1", "--q", "1", "--r", "3"), "--tol=0.5"),
            (("wcp", "--p", "1", "--q", "1", "--r", "3", "--tol", "0.5"), "--tol 0.5"),
        ],
        ids=["global", "trailing"],
    )
    def test_tol_flag_exit1(self, argv, rest):
        # no subcommand reads a tolerance, so there is no flag for it; the
        # report's "tol" field stays null until the arguments parse
        code, rep = run_json(*argv)
        assert code == 1
        assert rep["warnings"] == [f"malformed input: unrecognized arguments: {rest}"]
        assert rep["tol"] is None

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_exit1(self, tol):
        # a non-finite --tol is refused like any other --tol, and the report
        # stays strict JSON: no NaN or Infinity leaks into it
        code, out = run_cli(f"--tol={tol}", "wcp", "--p", "1", "--q", "1", "--r", "3", "--json")
        assert code == 1

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(out, parse_constant=reject)
        assert report["warnings"] == [f"malformed input: unrecognized arguments: --tol={tol}"]
        assert report["tol"] is None

    def test_parser_is_built_once(self, monkeypatch):
        monkeypatch.setattr(cli, "_build_parser", None)
        code, _ = run_json("wcp", "--p", "1", "--q", "1", "--r", "3")
        assert code == 0

    def test_no_state_between_runs(self):
        wcp = ("wcp", "--p", "1", "--q", "1", "--r", "3")
        assert run_cli(*wcp, "--json")[1].startswith("{")
        assert run_cli(*wcp)[1].startswith("schema_version: 1\n")
        poscurv = TestPoscurv.ARGS
        assert run_json(*poscurv, "--bound", "1")[1]["input"]["bound"] == 1
        assert run_json(*poscurv)[1]["input"]["bound"] == 100
        assert run_json(*wcp)[1]["tol"] == 1e-10
        golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
        for case in golden[:4]:
            assert run_cli("analyze7", "--p", "1,1", "--q", "0,0,2", "--json")[0] == 1
            assert run_cli(*case["argv"]) == (case["exit_code"], case["stdout"])


class TestReportValues:
    def test_move_forms(self):
        # Swap and Permute are never emitted by the subcommands; pin their
        # report form with the others
        assert _json(Swap()) == {"kind": "Swap"}
        assert _json(Scale(Fraction(-1, 2), 3)) == {"kind": "Scale", "lam": "-1/2", "mu": "3"}
        assert _json(Shift(2, -5)) == {"kind": "Shift", "c": "2", "d": "-5"}
        assert _json(Permute(SWAP_12, CYCLE_123)) == {
            "kind": "Permute",
            "sigma": "(12)",
            "tau": "(123)",
        }
        assert _json(GL2Z(((1, 0), (-3, 1)))) == {
            "kind": "GL2Z",
            "m": [["1", "0"], ["-3", "1"]],
        }

    def test_dataclasses_and_enums(self):
        assert _json(Validity.NOT_ORBIFOLD) == "NotOrbifold"
        act = TorusAction6(a=(0, 1, 1), b=(2, 3, -3), p=(0, 0, 1), q=(2, 4, -5))
        assert _json(act) == {
            "a": ["0", "1", "1"],
            "b": ["2", "3", "-3"],
            "p": ["0", "0", "1"],
            "q": ["2", "4", "-5"],
        }
        witness = FlatWitness(
            "Condition1", Fraction(1, 2), (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        )
        assert _json(witness) == {"kind": "Condition1", "t": "1/2", "eta": ["1/2", "1/2", "0"]}

    def test_scalars(self):
        assert _json([None, True, "x", 0.5, -(10**40), Fraction(4, 2)]) == [
            None, True, "x", 0.5, "-1" + "0" * 40, "2"
        ]
        with pytest.raises(TypeError):
            _json(object())


# text with control characters, non-ASCII and lone surrogates
JSON_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ("", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "\u00e9\u2028\U0001f600", "\ud800")
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | JSON_TEXT
    | st.floats()
    | st.sampled_from((float("nan"), float("inf"), float("-inf"), -0.0, 0.0))
    | st.integers()
    | st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from((n, -n)))
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=30,
)


class TestReportWriter:
    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_one_write_per_report(self, mode):
        # the README analyze6 example; its text report has 189 lines
        class Counting(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        out = Counting()
        with redirect_stdout(out):
            code = run([*TestAnalyze6.ARGS, *mode])
        assert code == 0
        assert out.writes == 1
        assert out.getvalue().count("\n") > 100

    @settings(max_examples=400, deadline=None)
    @given(JSON_TREES)
    @example((1, [2]))
    @example({"": [[], {}, ()], "x": {"y": [{}]}})
    def test_equals_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    def test_subclasses_as_json_takes_them(self):
        class Text(str):
            pass

        class Count(int):
            def __repr__(self):
                return "Count"

        class Real(float):
            def __repr__(self):
                return "Real"

        value = {Text("k"): [Text("v"), Count(3), Real(0.25), Real("nan")], "t": (True, None)}
        assert _dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [{1: "x"}, {None: 1}, {(1, 2): []}, object(), {1, 2}, b"x", Fraction(1, 2)]
    )
    def test_rejects_what_is_not_json_form(self, value):
        with pytest.raises(TypeError):
            _dumps(value)
        with pytest.raises(TypeError):
            _dumps([{"a": value}])
