import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import circfun as cf
from circfun import cli
from circfun.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "expected"
FUNCTION_FIXTURES = (
    "poly_z2_minus_i_d2",
    "poly_no_solution_d2",
    "poly_infinite_family_d2",
    "rational_mixed_d2",
    "exppoly_iz_d2",
    "meromorphic_d2",
)
#: Every subcommand on every committed fixture it takes, including the
#: function kinds that solve and divisor reject.  The meromorphic fixture
#: holds all three parts, and eval takes it at a point where Q vanishes on a
#: channel.  The d = 3 solves pin the solver's root kernels: at d = 2 every
#: kernel gives the same bits.  Quadratic channels take the quadratic
#: formula, and the cubic fixture's channels Cardano's closed form.
#: Their goldens were recorded with numpy 2.4.6, so they also pin
#: pocketfft's rounding of the two half tables whose outer sums are the
#: roots.  A degree-5 and a degree-6 solve at d = 2 pin the rest of the
#: scalar solver: the clustered fixture's discs touch, so its channels stall
#: into companion eigenvalues, the one LAPACK call of any solve golden, and
#: go through the component pass; the distinct fixture's channels keep
#: Ehrlich-Aberth's iterates (5 and 7 iterations), and none of its discs
#: touch.
GOLDEN_CASES = [
    ("spectrum", "circ_2_1"),
    ("pinv", "circ_2_1"),
    ("eval", "eval_reciprocal"),
    ("eval", "eval_meromorphic"),
    *[(command, stem) for command in ("solve", "divisor", "degree") for stem in FUNCTION_FIXTURES],
    ("solve", "poly_integer_roots_d3"),
    ("solve", "poly_cubic_roots_d3"),
    ("solve", "poly_clustered_d2"),
    ("solve", "poly_distinct_deg6_d2"),
]

ROW_2 = [[1, 0], [0, 0]]
I_2 = {"d": 2, "row": ROW_2}
I_3 = {"d": 3, "row": [[1, 0], [0, 0], [0, 0]]}


def run_to_file(tmp_path, argv_head, input_name, extra=()):
    out = tmp_path / "out.json"
    code = run([*argv_head, "--input", str(FIXTURES / input_name), "--output", str(out), *extra])
    return code, (json.loads(out.read_text()) if out.exists() else None)


class TestSpectrumAndPinv:
    def test_spectrum(self, tmp_path):
        code, doc = run_to_file(tmp_path, ["spectrum"], "circ_2_1.json")
        assert code == 0
        assert doc["d"] == 2
        np.testing.assert_allclose(doc["values"], [[3, 0], [1, 0]], atol=1e-12)

    def test_pinv(self, tmp_path):
        code, doc = run_to_file(tmp_path, ["pinv"], "circ_2_1.json")
        assert code == 0
        np.testing.assert_allclose(doc["row"], [[2 / 3, 0], [-1 / 3, 0]], atol=1e-12)

    def test_stdin_stdout(self, monkeypatch, capsys):
        payload = json.dumps({"d": 2, "row": [[1, 0], [1, 0]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert run(["spectrum"]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["values"], [[2, 0], [0, 0]], atol=1e-12)


class TestEval:
    def test_reciprocal_at_point(self, tmp_path):
        code, doc = run_to_file(tmp_path, ["eval"], "eval_reciprocal.json")
        assert code == 0
        np.testing.assert_allclose(doc["value"]["row"], [[2 / 3, 0], [-1 / 3, 0]], atol=1e-12)
        assert doc["zeroed_channels"] == []

    def test_missing_point_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"function": {"kind": "poly"}}))
        code = run(["eval", "--input", str(bad), "--output", str(tmp_path / "o.json")])
        assert code == 1
        assert "point" in capsys.readouterr().err

    def test_exp_overflow_names_the_channels(self, tmp_path, capsys):
        # P = I, G = 1000 Z at circ(2, 1): exp(3000) and exp(1000) overflow.
        # The value was inf and NaN, and the JSON writer refused it unnamed.
        identity, zero = {"d": 2, "row": [[1, 0], [0, 0]]}, {"d": 2, "row": [[0, 0], [0, 0]]}
        g = [{"d": 2, "row": [[1000, 0], [0, 0]]}, zero]
        doc = tmp_path / "overflow.json"
        doc.write_text(json.dumps({
            "function": {"kind": "exppoly", "d": 2, "P": [identity], "G": g},
            "point": {"d": 2, "row": [[2, 0], [1, 0]]},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["eval", "--input", str(doc), "--output", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exp(G) overflows at channel(s) [1, 2]\n"

    def test_product_overflow_names_the_channels(self, tmp_path, capsys):
        # P = 1e300 I, G = 700 Z at circ(1, 0): exp(700) is finite on both
        # channels, 1e300 exp(700) is not.  The value was inf, and the JSON
        # writer refused it unnamed.
        zero = {"d": 2, "row": [[0, 0], [0, 0]]}
        doc = tmp_path / "overflow.json"
        doc.write_text(json.dumps({
            "function": {
                "kind": "exppoly", "d": 2,
                "P": [{"d": 2, "row": [[1e300, 0], [0, 0]]}],
                "G": [{"d": 2, "row": [[700, 0], [0, 0]]}, zero],
            },
            "point": {"d": 2, "row": [[1, 0], [0, 0]]},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["eval", "--input", str(doc), "--output", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: P exp(G) overflows at channel(s) [1, 2]\n"

    def test_finite_values_near_the_float_limit_recombine(self, tmp_path, capsys):
        # P = 1e300 I, G = Z + 17.6 I at circ(1, 0): both channel values are
        # 1.196e308, finite, and the inverse transform overflowed summing
        # them, though the value circ(1.196e308, 0) is representable.
        zero = {"d": 2, "row": [[0, 0], [0, 0]]}
        doc = tmp_path / "near-limit.json"
        doc.write_text(json.dumps({
            "function": {
                "kind": "exppoly", "d": 2,
                "P": [{"d": 2, "row": [[1e300, 0], [0, 0]]}],
                "G": [{"d": 2, "row": [[1, 0], [0, 0]]}, {"d": 2, "row": [[17.6, 0], [0, 0]]}],
            },
            "point": {"d": 2, "row": [[1, 0], [0, 0]]},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["eval", "--input", str(doc), "--output", "-"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]["row"]
        expected = 1e300 * np.exp(18.6)
        assert abs(value[0][0] - expected) <= 1e-15 * expected
        assert value[0][1] == value[1][0] == value[1][1] == 0.0

    @pytest.mark.parametrize("d", [16, 64])
    def test_ring_horner_value_near_the_float_limit(self, monkeypatch, capsys, d):
        # P = 3e306 Z at I: each of the d channel values is 3e306, and at
        # FFT orders ring Horner's inverse transform overflowed summing 64
        # of them, though the value 3e306 I is representable.
        def circ(first):
            return {"d": d, "row": [[first, 0]] + [[0, 0]] * (d - 1)}

        doc = {"function": {"kind": "poly", "d": d, "P": [circ(3e306), circ(0)]}, "point": circ(1)}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["eval"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]["row"]
        assert value == [[3e306, 0.0]] + [[0.0, 0.0]] * (d - 1)

    @pytest.mark.parametrize("d", [16, 64])
    def test_ring_product_near_the_float_limit(self, monkeypatch, capsys, d):
        # P = circ(1e307, ..., 1e307), Q = I at I: the value is P itself.  At
        # FFT orders the product P Q^+ overflowed in the forward transform,
        # where P's eigenvalue 6.4e308 is not a float.
        identity = {"d": d, "row": [[1, 0]] + [[0, 0]] * (d - 1)}
        p = {"d": d, "row": [[1e307, 0]] * d}
        doc = {"function": {"kind": "rational", "d": d, "P": [p], "Q": [identity]}, "point": identity}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["eval"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]["row"]
        np.testing.assert_allclose(value, [[1e307, 0.0]] * d, rtol=0, atol=1e-14 * 1e307)


    def test_ring_horner_forward_overflow_at_fft_orders(self, monkeypatch, capsys):
        # P = [circ(1e307, ..., 1e307), 0] at I: the value is P's constant
        # row, but P's eigenvalue 6.4e308 is not a float.  The forward
        # transform overflowed with warnings, and the JSON writer refused
        # the NaN value.
        d = 64
        identity = {"d": d, "row": [[1, 0]] + [[0, 0]] * (d - 1)}
        p, zero = {"d": d, "row": [[1e307, 0]] * d}, {"d": d, "row": [[0, 0]] * d}
        doc = {"function": {"kind": "poly", "d": d, "P": [p, zero]}, "point": identity}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["eval"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]["row"]
        np.testing.assert_allclose(value, [[1e307, 0.0]] * d, rtol=0, atol=1e-12 * 1e307)

    @pytest.mark.parametrize("d", [2, 64])
    @pytest.mark.parametrize("kind", ["poly", "rational"])
    def test_poly_and_rational_value_overflow_names_the_channels(self, monkeypatch, capsys, d, kind):
        # P = 1e308 I Z at Z = 10 I: every F_i is 1e309.  The JSON writer
        # refused the value unnamed, after numpy warnings at d = 64, where
        # exppoly named it.  P = Z^2 at C = circ(1e307, ..., 1e307): C's
        # eigenvalue 1e307 d is not a float at d = 64, where the value
        # printed a RuntimeWarning and then "Out of range float values are
        # not JSON compliant".  Channel 1 overflows; the transform's
        # inf - inf may spoil others.
        def circ(first):
            return {"d": d, "row": [[first, 0]] + [[0, 0]] * (d - 1)}

        c = {"d": d, "row": [[1e307, 0]] * d}
        every = re.escape(str(list(range(1, d + 1))))
        for p, point, channels in (
            ([circ(1e308), circ(0)], circ(10), every),
            ([circ(1), circ(0), circ(0)], c, r"\[1(, \d+)*\]"),
        ):
            function = {"kind": kind, "d": d, "P": p}
            if kind == "rational":
                function["Q"] = [circ(1)]
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"function": function, "point": point})))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run(["eval"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(rf"error: F overflows at channel\(s\) {channels}\n", captured.err)

    def test_exppoly_value_overflow_names_the_channels(self, monkeypatch, capsys):
        # P = circ(1e307, ..., 1e307), G = 0 at I: at d = 64 P's eigenvalue
        # 6.4e308 is not a float.  The forward transform overflowed with a
        # warning, and the JSON writer refused the value unnamed.
        d = 64
        identity = {"d": d, "row": [[1, 0]] + [[0, 0]] * (d - 1)}
        p, zero = {"d": d, "row": [[1e307, 0]] * d}, {"d": d, "row": [[0, 0]] * d}
        doc = {"function": {"kind": "exppoly", "d": d, "P": [p], "G": [zero]}, "point": identity}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["eval"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # Channel 1 overflows; the transform's inf - inf may spoil others.
        assert re.fullmatch(r"error: F overflows at channel\(s\) \[1(, \d+)*\]\n", captured.err)

class TestSolve:
    def test_finite_case(self, tmp_path):
        code, doc = run_to_file(tmp_path, ["solve"], "poly_z2_minus_i_d2.json")
        assert code == 0
        assert doc["status"] == "finite"
        assert len(doc["roots"]) == 4
        assert max(doc["residuals"]) <= 1e-10

    def test_no_solution_exit_code(self, tmp_path):
        code, doc = run_to_file(tmp_path, ["solve"], "poly_no_solution_d2.json")
        assert code == 2
        assert doc["status"] == "no-solution"
        assert doc["roots"] == []

    def test_infinite_family_exit_code(self, tmp_path):
        code, doc = run_to_file(tmp_path, ["solve"], "poly_infinite_family_d2.json")
        assert code == 3
        assert doc["status"] == "infinite-family"
        assert doc["free_channels"] == [2]

    def test_clustered_roots(self, tmp_path):
        # (Z - 2I)^3 (Z + I)^2: each channel has the double root -1 and the
        # triple root 2, so there are 2^2 roots.
        code, doc = run_to_file(tmp_path, ["solve"], "poly_clustered_d2.json")
        assert code == 0
        assert [sorted(c["multiplicities"]) for c in doc["channels"]] == [[2, 3], [2, 3]]
        assert len(doc["roots"]) == 4

    def test_channel_root_whose_cube_overflows_is_one_error_line(self, monkeypatch, capsys):
        # Z^3 + 1e120 Z^2 + Z + I at d = 2: each channel has a root near
        # -1e120.  Four numpy warnings were printed before the error.
        p = cf.CircPoly.from_scalars([1, 1e120, 1, 1], 2)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cf.serialize.function_to_obj(cf.PolyFunction(p)))))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["solve"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: channel 1: inclusion disc radii are not finite\n"

    @pytest.mark.parametrize("constant, code", [(ROW_2, 2), ([[0, 0], [0, 0]], 3)], ids=["identity", "zero"])
    def test_degree_zero_polynomial_solves_as_zero_times_z_plus_it(self, monkeypatch, capsys, constant, code):
        # [C] was refused with "polynomial degree must be >= 1" (exit 1),
        # while [0 Z, C] solved.  Both now give the same bytes: no solution
        # for C = I, and every channel free for C = 0.
        outputs = []
        for coeffs in ([constant], [[[0, 0], [0, 0]], constant]):
            doc = {"kind": "poly", "d": 2, "P": [{"d": 2, "row": row} for row in coeffs]}
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
            assert run(["solve"]) == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
        doc = json.loads(outputs[0].out)
        assert (doc["status"], doc["free_channels"]) == (("no-solution", []) if code == 2 else ("infinite-family", [1, 2]))

    def test_rejects_non_poly_kind(self, tmp_path, capsys):
        code, _ = run_to_file(tmp_path, ["solve"], "rational_mixed_d2.json")
        assert code == 1
        assert "kind" in capsys.readouterr().err


class TestDivisorAndDegree:
    def test_divisor_mixed_instance(self, tmp_path):
        code, doc = run_to_file(tmp_path, ["divisor"], "rational_mixed_d2.json")
        assert code == 0
        assert doc["status"] == "rational"
        assert [c["k"] for c in doc["channels"]] == [1, -1]
        assert doc["k"] is None

    def test_degree_polynomial(self, tmp_path):
        code, doc = run_to_file(tmp_path, ["degree"], "poly_z2_minus_i_d2.json")
        assert code == 0
        assert doc["is_polynomial"] and doc["degree"] == 2

    def test_degree_not_polynomial_exit_4(self, tmp_path):
        code, doc = run_to_file(tmp_path, ["degree"], "exppoly_iz_d2.json")
        assert code == 4
        assert not doc["is_polynomial"]

    def test_degree_overflowing_extrapolation_exit_4(self, tmp_path):
        # (Z + I) exp(1e294 Z): finite estimates whose extrapolation overflows
        i, o = cf.identity(2), cf.zero(2)
        f = cf.ExpPolyFunction(cf.CircPoly([i, i]), cf.CircPoly([cf.scale(1e294, i), o]))
        document = tmp_path / "overflow.json"
        from circfun import serialize as ser

        document.write_text(json.dumps(ser.function_to_obj(f)))
        out = tmp_path / "out.json"
        code = run(["degree", "--input", str(document), "--output", str(out)])
        assert code == 4
        doc = json.loads(out.read_text())
        assert not doc["is_polynomial"]
        assert [c["final_error"] for c in doc["channels"]] == [None, None]

    @pytest.mark.parametrize("command", ["divisor", "degree"])
    def test_overflowing_estimates_are_null(self, tmp_path, capsys, command):
        # P = I, G = 1e301 Z: u G' reaches 1e309 at the largest scales.  Both
        # commands printed overflow warnings and wrote no document.  With
        # G = 1e308 Z^2, G' = 2e308 Z overflows itself, and every estimate
        # is null.
        i, o = cf.identity(2), cf.zero(2)
        from circfun import serialize as ser

        for g, first_finite in (([cf.scale(1e301, i), o], True), ([cf.scale(1e308, i), o, o], False)):
            f = cf.ExpPolyFunction(cf.CircPoly([i]), cf.CircPoly(g))
            document = tmp_path / "exppoly.json"
            document.write_text(json.dumps(ser.function_to_obj(f)))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run([command, "--input", str(document), "--output", "-"]) == 4
            doc = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(f"{name} in the output"))
            assert doc.get("status", "not-rational") == "not-rational" and not doc.get("is_polynomial")
            for c in doc["channels"]:
                assert c["flag"] == "diverged" and c["final_estimate"] is None and c["final_error"] is None
                assert (c["estimates"][0] is not None) == first_finite and c["estimates"][-1] is None

    @pytest.mark.parametrize("d", [2, 64])
    @pytest.mark.parametrize("part", ["P", "Q", "G"])
    @pytest.mark.parametrize("command", ["divisor", "degree"])
    def test_coefficient_eigenvalues_that_overflow_are_refused(self, monkeypatch, capsys, command, part, d):
        # circ(1e308, ..., 1e308), whose eigenvalue 1e308 d is not a float, in
        # P = c Z, Q = Z + c or G = c Z.  The scan printed overflow warnings
        # and exited 1 with "every channel is degenerate" (P, Q), or read
        # channels where G_i = 0 as diverged (G).
        i, o, c = cf.identity(d), cf.zero(d), cf.Circulant(np.full(d, 1e308))
        f = {
            "P": cf.PolyFunction(cf.CircPoly([c, o])),
            "Q": cf.RationalFunction(cf.CircPoly([i]), cf.CircPoly([i, c])),
            "G": cf.ExpPolyFunction(cf.CircPoly([i]), cf.CircPoly([c, o])),
        }[part]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cf.serialize.function_to_obj(f))))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run([command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {part}: coefficient eigenvalues must be finite\n"

    def test_path_flags_accepted(self, tmp_path):
        code, doc = run_to_file(
            tmp_path, ["divisor"], "rational_mixed_d2.json",
            extra=["--t-min", "1e4", "--t-max", "1e7", "--t-points", "9", "--seed", "5"],
        )
        assert code == 0
        assert len(doc["scales"]) == 9

    @pytest.mark.parametrize("command", ["divisor", "degree"])
    def test_unset_path_flags_take_the_default_path(self, command):
        # The path is the library's own memoized default, not a second one
        # built from restated defaults; a flag given overrides only its value.
        parser = cli.build_parser()
        assert cli._path_from_args(parser.parse_args([command]), 4) is cf.PathSpec.default(4)
        given = parser.parse_args([command, "--t-points", "9", "--seed", "5"])
        assert cli._path_from_args(given, 4) is cf.PathSpec.default(4, points=9, seed=5)


class TestErrorsAndDeterminism:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["spectrum", "--input", str(bad), "--output", "-"]) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_schema_error_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"d": 2, "row": [[1, 0]]}))
        assert run(["spectrum", "--input", str(bad), "--output", "-"]) == 1
        assert "row" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, row, field",
        [("spectrum", "[[NaN, 0], [1, 0]]", "row[0]"), ("pinv", "[[1, 0], [0, -Infinity]]", "row[1]")],
    )
    def test_non_finite_entry_names_field(self, tmp_path, capsys, command, row, field):
        # json.loads accepts NaN and Infinity, which are not JSON numbers.
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"d": 2, "row": {row}}}')
        assert run([command, "--input", str(bad), "--output", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"circulant.{field}: expected finite numbers" in captured.err

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("spectrum", [1, 2], "circulant: expected an object"),
            ("spectrum", {"row": ROW_2}, "circulant.d: missing"),
            ("spectrum", {"d": 2}, "circulant.row: missing"),
            ("spectrum", {"d": True, "row": ROW_2}, "circulant.d: expected an integer >= 2"),
            ("spectrum", {"d": 2, "row": [[1], [0, 0]]}, "circulant.row[0]: expected a [re, im] number pair"),
            ("spectrum", {"d": 2, "row": [[10**400, 0], [0, 0]]}, "circulant.row[0]: expected finite numbers"),
            ("divisor", [1], "function: expected an object"),
            ("divisor", {"kind": "foo", "d": 2, "P": [I_2]}, "function.kind: expected 'poly', 'rational', 'exppoly' or 'meromorphic'"),
            ("divisor", {"kind": "poly", "d": 0, "P": [I_2]}, "function.d"),
            ("divisor", {"kind": "poly", "d": 2, "P": []}, "function.P: expected a nonempty list"),
            ("divisor", {"kind": "poly", "d": 2, "P": [I_3]}, "function.P[0].d: expected order 2, got 3"),
            ("divisor", {"kind": "rational", "d": 2, "P": [I_2]}, "function.Q: missing"),
            ("eval", [], "document: expected an object with 'function' and 'point'"),
            ("eval", {"point": I_2}, "function: missing"),
        ],
    )
    def test_input_check_names_field(self, monkeypatch, capsys, command, doc, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert run([command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["divisor", "degree"])
    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--t-min", "nan"], "t_min"),
            (["--t-max", "inf"], "t_max"),
            (["--t-min", "-5"], "t_min"),
            (["--t-max", "1e308"], "t_max"),  # finite, but the scan points overflow at d = 2
            (["--seed", "-1"], "seed"),  # accepted before, and failed only on a retry
            (["--t-points", "3"], "points"),
        ],
    )
    def test_bad_path_scale_names_field(self, capsys, command, flags, field):
        # Checked before any scale is computed: no output, no numpy warning.
        argv = [command, "--input", str(FIXTURES / "rational_mixed_d2.json"), "--output", "-", *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be {'finite' if field.startswith('t_') else '>='}")

    @pytest.mark.parametrize("command", ["divisor", "degree"])
    def test_scan_point_cap_names_points(self, capsys, command):
        # 10**9 scan points at d = 2 allocated gigabytes before the cap.
        argv = [command, "--input", str(FIXTURES / "rational_mixed_d2.json"), "--output", "-"]
        assert run([*argv, "--t-points", "1000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: points must be <= ")

    def test_overflowing_spectrum_names_the_row(self, tmp_path, capsys):
        # The eigenvalue 2e308 is not a float: refused, naming the field.
        doc = tmp_path / "huge.json"
        doc.write_text('{"d": 2, "row": [[1e308, 0], [1e308, 0]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["spectrum", "--input", str(doc), "--output", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: circulant.row: ")

    def test_pinv_of_an_overflowing_spectrum(self, tmp_path, capsys):
        # It printed the zero matrix; channel 1 holds 1/(2e308).
        doc = tmp_path / "huge.json"
        doc.write_text('{"d": 2, "row": [[1e308, 0], [1e308, 0]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["pinv", "--input", str(doc), "--output", "-"]) == 0
        np.testing.assert_allclose(json.loads(capsys.readouterr().out)["row"], [[2.5e-309, 0]] * 2, rtol=1e-12)

    @pytest.mark.parametrize(
        "command, stem, field", [("pinv", "circ_2_1", "tol"), ("solve", "poly_z2_minus_i_d2", "tol")]
    )
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_names_field(self, capsys, command, stem, field, tol):
        argv = [command, "--input", str(FIXTURES / f"{stem}.json"), "--output", "-", f"--tol={tol}"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be")

    @pytest.mark.parametrize("tol", ["1", "2", "1e300"])
    def test_pinv_tol_of_one_or_more_names_field(self, capsys, tol):
        # circ(2, 1) has eigenvalues 3 and 1; at tol >= 1 both fell under
        # the rank threshold, and pinv printed the zero matrix with exit 0.
        argv = ["pinv", "--input", str(FIXTURES / "circ_2_1.json"), "--output", "-", f"--tol={tol}"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tol must be in [0, 1), got {float(tol)}\n"

    @pytest.mark.parametrize("tol", ["1e308", "6e307", "1.0"])
    def test_solve_tol_of_one_or_more_names_field(self, capsys, tol):
        # 1e308 overflowed the gate's bounds with a warning, and 6e307 failed
        # the exact roots in the ring check; at tol >= 1 every gate passes.
        argv = ["solve", "--input", str(FIXTURES / "poly_z2_minus_i_d2.json"), "--output", "-", f"--tol={tol}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tol must be in (0, 1), got {float(tol)}\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["spectrum", "--bogus"]) == 1

    @pytest.mark.parametrize(
        "command, stem, flag",
        [("eval", "eval_reciprocal", ["--seed", "1"]), ("spectrum", "circ_2_1", ["--tol", "1e-3"])],
    )
    def test_flag_of_another_subcommand_is_usage_error(self, capsys, command, stem, flag):
        # --tol belongs to pinv and solve, --seed to divisor and degree.
        assert run([command, "--input", str(FIXTURES / f"{stem}.json"), *flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: unrecognized arguments: {flag[0]}")

    def test_missing_input_file(self, capsys):
        assert run(["spectrum", "--input", "/nonexistent.json", "--output", "-"]) == 1

    def test_non_finite_output_is_an_error(self, monkeypatch, capsys):
        # Infinity is not JSON: nothing is written, and the exit code is 1.
        help_text, _ = cli._COMMANDS["spectrum"]
        monkeypatch.setitem(cli._COMMANDS, "spectrum", (help_text, lambda args: ({"values": [float("inf")]}, 0)))
        assert run(["spectrum", "--input", str(FIXTURES / "circ_2_1.json"), "--output", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Out of range float values are not JSON compliant")

    def test_scaled_polynomial_solves_to_strict_json(self, capsys):
        # Coefficients near 1e200: the squared residuals overflowed, and the
        # document carried Infinity.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["solve", "--input", str(FIXTURES / "poly_scaled_1e200_d3.json"), "--output", "-"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(f"{name} in the output"))
        assert len(doc["roots"]) == 8
        assert all(0 < r < float("inf") for r in doc["residuals"])

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["divisor", "--input", str(FIXTURES / "rational_mixed_d2.json"), "--seed", "7"]
        assert run([*args, "--output", str(out1)]) == 0
        assert run([*args, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestRoundTrips:
    @pytest.mark.parametrize(
        "name", ["rational_mixed_d2.json", "poly_z2_minus_i_d2.json", "exppoly_iz_d2.json", "meromorphic_d2.json"]
    )
    def test_function_roundtrip(self, name):
        from circfun import serialize as ser

        doc = json.loads((FIXTURES / name).read_text())
        f = ser.function_from_obj(doc)
        assert ser.function_to_obj(f) == doc

    def test_function_with_all_three_parts_round_trips(self):
        # It had no JSON form: the kind lived on the subclasses, and the
        # base class with P, Q and G had none.
        from circfun import serialize as ser

        p = cf.CircPoly([cf.identity(2)])
        obj = ser.function_to_obj(cf.CircFunction(p, p, p))
        assert obj["kind"] == "meromorphic" and list(obj) == ["kind", "d", "P", "Q", "G"]
        assert ser.function_to_obj(ser.function_from_obj(obj)) == obj

    def test_denominator_without_invertible_coefficient_names_q(self):
        from circfun import serialize as ser

        doc = json.loads((FIXTURES / "rational_mixed_d2.json").read_text())
        doc["Q"] = [ser.circulant_to_obj(cf.ones(2))]
        with pytest.raises(ser.SchemaError) as err:
            ser.function_from_obj(doc)
        assert err.value.field == "function.Q"

    def test_circulant_roundtrip(self):
        from circfun import serialize as ser

        x = cf.Circulant([1 + 2j, 3, -0.5j])
        assert ser.circulant_from_obj(ser.circulant_to_obj(x)).isclose(x, 0)

    def test_batched_pairs_match_per_entry_pairs(self, rng):
        from circfun import serialize as ser

        row = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        row[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e-310 - 1e300j]
        x = cf.Circulant(row)
        per_entry = {"d": 12, "row": [[float(z.real), float(z.imag)] for z in row]}
        assert json.dumps(ser.circulant_to_obj(x)) == json.dumps(per_entry)
        assert json.dumps(ser.spectrum_to_obj(row)) == json.dumps({"d": 12, "values": per_entry["row"]})

    def test_solution_set_serialization(self):
        from circfun import serialize as ser

        p = cf.CircPoly([cf.ones(2), cf.ones(2)])
        obj = ser.solution_set_to_obj(cf.solve_circ_poly(p))
        assert obj["status"] == "infinite-family"
        assert obj["free_channels"] == [2]
        assert obj["channels"][0]["roots"] == [[-1.0, 0.0]]


class TestGoldenOutput:
    """CLI bytes pinned against files recorded from an earlier build: stdout
    in ``expected/<command>/<fixture>.stdout``, exit code and stderr in
    ``expected/status.json``."""

    @pytest.mark.parametrize("command, stem", GOLDEN_CASES, ids=[f"{c}-{s}" for c, s in GOLDEN_CASES])
    def test_cli_output_is_unchanged(self, capsysbinary, command, stem):
        self.assert_unchanged(capsysbinary, command, stem)

    @staticmethod
    def assert_unchanged(capsysbinary, command, stem):
        code = run([command, "--input", str(FIXTURES / f"{stem}.json")])
        captured = capsysbinary.readouterr()
        status = json.loads((EXPECTED / "status.json").read_text())[f"{command}/{stem}"]
        assert captured.out == (EXPECTED / command / f"{stem}.stdout").read_bytes()
        assert captured.err.decode() == status["stderr"]
        assert code == status["exit"]

    def test_solve_goldens_make_no_lapack_call(self, monkeypatch, capsysbinary):
        # With np.linalg.eigvals made to raise, every solve golden keeps its
        # bytes but the clustered one, whose channels stall Aberth into the
        # companion-matrix fallback, which then names channel 1.
        def refuse(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for command, stem in GOLDEN_CASES:
            if command == "solve" and stem != "poly_clustered_d2":
                self.assert_unchanged(capsysbinary, command, stem)
        assert run(["solve", "--input", str(FIXTURES / "poly_clustered_d2.json")]) == 1
        assert capsysbinary.readouterr().err == b"error: channel 1: companion-matrix fallback failed to converge\n"
