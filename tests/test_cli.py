import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramloci
from ramloci import formulas
from ramloci.cli import (
    MAX_DEGREE,
    MAX_TWIST,
    MAX_VERIFY_G,
    MAX_VERIFY_I,
    _Parser,
    main,
    parse_curve,
    _parse_place,
)
from ramloci.errors import (
    ConfigError,
    CurveSyntaxError,
    EvenDegreeError,
    NotMonicError,
)
from ramloci.formulas import CLOSED_FORMS, ClosedForm
from ramloci.numeric import UniPoly


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_module(*argv, timeout=120):
    """Run ``python -m ramloci`` in a fresh interpreter on this source tree."""
    src = str(Path(ramloci.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "ramloci", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=timeout,
    )


DATA = Path(__file__).resolve().parent / "data"

# verify golden file -> argv after "verify".
VERIFY_GOLDEN = (
    *((f"verify_default.{fmt}", ("--format", fmt)) for fmt in ("json", "tsv", "pretty")),
    *(
        (f"verify_g1-16_i0-16.{fmt}", ("--g", "1..16", "--i", "0..16", "--format", fmt))
        for fmt in ("json", "tsv")
    ),
    ("verify_filter_SW_degree.json", ("--filter", "SW_degree", "--format", "json")),
    ("verify_filter_star_degree.tsv", ("--filter", "*_degree", "--format", "tsv")),
    ("verify_filter_DE_degree.pretty", ("--filter", "[DE]_degree", "--format", "pretty")),
)

# Curves of the benchmark workloads plus y^2 = x^3 - x: golden file -> argv.
GOLDEN_CURVES = {
    "split-genus2": "y^2 = x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 24*x",
    "nonsplit-genus3": "y^2 = x^7 - x + 1",
    "nonsplit-elliptic": "y^2 = x^3 - 2*x + 5",
    "two-torsion": "y^2 = x^3 - x",
}
# Every rational branch place of two curves, including x0 = 0 and, on
# the second, branch places where f'(x0) < 0.
BRANCH_GOLDEN = {
    "split-genus2": ("0", "1", "2", "3", "4"),
    "half-roots": ("-1/2", "0", "1/2"),
}
HALF_ROOTS = "y^2 = x^3 - 1/4*x"
# Ordinary places of y^2 = x^3 + 1 with both signs of y0: (0, +-1) is
# 3-torsion (weight 1 at i = 2) and (2, +-3) is 6-torsion (weight 1 at
# i = 5); plus its place at infinity.
CUBIC_PLUS_ONE = "y^2 = x^3 + 1"
CUBIC_PLUS_ONE_PLACES = ("0,1", "0,-1", "2,3", "2,-3", "inf")
CURVE_GOLDEN = (
    [
        (f"curve_weights_{name}_i{i}.json", ("weights", model, "--i", str(i), "--format", "json"))
        for name, model in GOLDEN_CURVES.items()
        for i in range(9)
    ]
    + [
        # a model with non-integer coefficients and branch places x0 = p/q, q = 2
        (f"curve_weights_half-roots_i{i}.json", ("weights", HALF_ROOTS, "--i", str(i), "--format", "json"))
        for i in range(9)
    ]
    + [
        (f"curve_torsion_nonsplit-elliptic_i{i}.json",
         ("torsion", GOLDEN_CURVES["nonsplit-elliptic"], "--i", str(i), "--format", "json"))
        for i in range(1, 7)
    ]
    + [
        ("curve_orders_nonsplit-elliptic_i3_place1,2.pretty",
         ("orders", GOLDEN_CURVES["nonsplit-elliptic"], "--i", "3", "--place", "1,2")),
    ]
    + [
        (f"curve_orders_{name}_i{i}_place{x0.replace('/', '_')}.json",
         ("orders", GOLDEN_CURVES.get(name, HALF_ROOTS), "--i", str(i), f"--place={x0}",
          "--format", "json"))
        for name, places in BRANCH_GOLDEN.items()
        for x0 in places
        for i in range(5)
    ]
    + [
        (f"curve_orders_cubic-plus-one_i{i}_place{place}.json",
         ("orders", CUBIC_PLUS_ONE, "--i", str(i), f"--place={place}", "--format", "json"))
        for place in CUBIC_PLUS_ONE_PLACES
        for i in range(6)
    ]
    # every subcommand in every format: basis in all three, the rest in
    # the text formats the tables above leave out
    + [
        (f"curve_basis_{name}_i{i}.{fmt}", ("basis", GOLDEN_CURVES[name], "--i", str(i), "--format", fmt))
        for name in ("split-genus2", "nonsplit-genus3")
        for i in (0, 2)
        for fmt in ("json", "tsv", "pretty")
    ]
    + [
        (f"curve_weights_{name}_i{i}.{fmt}", ("weights", model, "--i", str(i), "--format", fmt))
        for name, model in GOLDEN_CURVES.items()
        for i in range(3)
        for fmt in ("tsv", "pretty")
    ]
    + [
        (f"curve_torsion_nonsplit-elliptic_i{j}.{fmt}",
         ("torsion", GOLDEN_CURVES["nonsplit-elliptic"], "--i", str(j), "--format", fmt))
        for j in (1, 2)
        for fmt in ("tsv", "pretty")
    ]
    + [
        # a branch place, the place at infinity and an ordinary place
        (f"curve_orders_{name}_i2_place{place}.tsv",
         ("orders", model, "--i", "2", f"--place={place}", "--format", "tsv"))
        for name, model, place in (
            ("split-genus2", GOLDEN_CURVES["split-genus2"], "0"),
            ("cubic-plus-one", CUBIC_PLUS_ONE, "inf"),
            ("cubic-plus-one", CUBIC_PLUS_ONE, "0,1"),
        )
    ]
)


def _assert_one_error_line(proc, code):
    """The CLI contract: exit 2, a single error[code] line, no traceback
    and no partial report."""
    assert proc.returncode == 2
    assert proc.stdout in ("", None)  # None: stdout was a pipe, not captured
    assert proc.stderr.startswith(f"error[{code}]: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


class TestParseCurve:
    def test_simple(self):
        model = parse_curve("y^2 = x^3 - x")
        assert model.genus == 1
        assert model.branch_x == (Fraction(-1), Fraction(0), Fraction(1))

    def test_even_degree_rejected(self):
        with pytest.raises(EvenDegreeError):
            parse_curve("y^2 = x^4 - 1")

    def test_quintic(self):
        model = parse_curve("y^2 = x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 24*x")
        assert model.genus == 2
        assert model.branch_x == tuple(Fraction(k) for k in range(5))

    def test_star_optional_and_fractions(self):
        a = parse_curve("y^2 = x^3 - 2x + 1/1")
        b = parse_curve("y^2 = x^3 - 2*x + 1")
        assert a.f == b.f

    def test_syntax_error_carries_position(self):
        with pytest.raises(CurveSyntaxError) as err:
            parse_curve("y^2 = x^3 - !")
        assert err.value.position == 12

    @pytest.mark.parametrize(
        "equation, coeffs",
        [
            ("y^2 = x^3 + x^3 - x + 1/2*x", [0, Fraction(-1, 2), 0, 2]),
            ("y^2 = -x + x^5 + 2*x - x^5 + 3/4", [Fraction(3, 4), 1]),
            ("y^2 = x^2 - x^2", []),
            ("y^2 = 1/3*x^7 + 1 - 1/3*x^7 + x^7", [1, 0, 0, 0, 0, 0, 0, 1]),
        ],
    )
    def test_repeated_exponents_are_summed(self, equation, coeffs):
        assert _Parser(equation).parse_equation() == UniPoly(coeffs)

    @pytest.mark.parametrize(
        "equation, message",
        [
            ("y^2 = x^3 - !", "unexpected character '!' (at position 12)"),
            ("y^2 = x^3 - x extra", "unexpected character 'e' (at position 14)"),
            ("y^2 = x^3 - y", "y may only appear on the left side (at position 12)"),
            ("x^3 - x", "expected 'y', found 'x' (at position 0)"),
            ("y^3 = x^3", "the left side must be y^2 (at position 2)"),
            ("y^2 = ", "expected a coefficient or x, found 'end of input' (at position 6)"),
            ("y^2 = x^3 + 1/0", "zero denominator (at position 14)"),
            ("y^2 = x^99 + 1", "exponent 99 exceeds the degree cap 31 (at position 8)"),
            ("y^2 = x^3 + * x", "expected a coefficient or x, found '*' (at position 12)"),
            ("y^2 = x^3 +", "expected a coefficient or x, found 'end of input' (at position 11)"),
            ("y^2 = x^ + 1", "expected num, found '+' (at position 9)"),
            ("y^2 = x^3 - x + 1/2*x^3 x", "trailing input 'x' (at position 24)"),
            ("y^2 = x^3 + 3*", "expected x after '*', found 'end of input' (at position 14)"),
            ("y^2 = x^3 + 2*+1", "expected x after '*', found '+' (at position 14)"),
            ("y^2 = x^3 + 2*1", "expected x after '*', found '1' (at position 14)"),
            ("y^2 = x^3 - 1/2**x", "expected x after '*', found '*' (at position 16)"),
            ("y^2 = x^3 + 2*y", "y may only appear on the left side (at position 14)"),
            # only ASCII digits make a number
            ("y^2 = x^³ + 1", "unexpected character '³' (at position 8)"),
            ("y^2 = x^3 + ²*x + 1", "unexpected character '²' (at position 12)"),
            ("y^2 = x^3 + ٣", "unexpected character '٣' (at position 12)"),
        ],
    )
    def test_syntax_error_messages(self, equation, message):
        with pytest.raises(CurveSyntaxError) as err:
            _Parser(equation).parse_equation()
        assert str(err.value) == message

    def test_trailing_garbage(self):
        with pytest.raises(CurveSyntaxError):
            parse_curve("y^2 = x^3 - x extra")

    def test_y_on_right_side(self):
        with pytest.raises(CurveSyntaxError):
            parse_curve("y^2 = x^3 - y")

    def test_missing_left_side(self):
        with pytest.raises(CurveSyntaxError):
            parse_curve("x^3 - x")

    def test_non_monic(self):
        with pytest.raises(NotMonicError):
            parse_curve("y^2 = 3*x^3 - x")

    def test_parse_curve_takes_the_text_alone(self):
        with pytest.raises(TypeError):
            parse_curve("y^2 = x^3 + 1", require_split=True)

    def test_parse_place(self):
        assert _parse_place("inf").kind == "infinity"
        assert _parse_place("-1").kind == "branch"
        place = _parse_place("2, 3")
        assert place.kind == "ordinary" and place.y == 3
        with pytest.raises(ConfigError):
            _parse_place("nonsense")

    @pytest.mark.parametrize(
        "place", ["1e5000", "1e200000000", "1" * 1001], ids=["1e5000", "1e200000000", "1001-digits"]
    )
    def test_place_outside_the_documented_grammar_is_config_error(self, place):
        proc = run_module("curve", "orders", "y^2=x^3-x", "--i", "1", "--place", place, timeout=20)
        _assert_one_error_line(proc, "config")

    def test_place_fractions_and_signs(self):
        assert _parse_place("+1").x == 1
        assert _parse_place("-2/2, 0").x == -1
        for text in ("1.5", "1/0", "1,2,3", "0x10"):
            with pytest.raises(ConfigError):
                _parse_place(text)

    @pytest.mark.parametrize(
        "place, message",
        [
            ("2,5", "(2, 5) does not satisfy y^2 = f(x)"),
            ("1/2,3", "(1/2, 3) does not satisfy y^2 = f(x)"),
            ("2", "(2, 0) is not a branch place: f(x0) != 0"),
        ],
    )
    def test_place_off_the_curve_is_one_error_line(self, place, message):
        # the parser reads the place; the engine checks it before expanding
        proc = run_module("curve", "orders", "y^2 = x^3 + 1", "--i", "2", f"--place={place}", timeout=20)
        _assert_one_error_line(proc, "not-on-curve")
        assert proc.stderr == f"error[not-on-curve]: {message}\n"

    @pytest.mark.parametrize(
        "model, place",
        [
            (HALF_ROOTS, "-1/2"),
            (HALF_ROOTS, "-1/2,0"),
            ("y^2 = x^3 + 11/16", "-1/2,3/4"),
            ("y^2 = x^3 + 11/16", "-1/2,-3/4"),
            ("y^2 = x^3 + 11/16", "-1/2,1"),
        ],
    )
    def test_negative_place_as_separate_argument(self, model, place):
        # argparse would take "-1/2" for an option; both spellings agree
        separate = run_module("curve", "orders", model, "--i", "1", "--place", place)
        joined = run_module("curve", "orders", model, "--i", "1", f"--place={place}")
        assert (separate.returncode, separate.stdout, separate.stderr) == (
            joined.returncode,
            joined.stdout,
            joined.stderr,
        )
        assert separate.returncode == (2 if place.endswith(",1") else 0)

    def test_negative_twist_is_still_config_error(self):
        proc = run_module("curve", "orders", HALF_ROOTS, "--i", "-1", "--place", "-1/2")
        _assert_one_error_line(proc, "config")


class TestVerifySpans:
    @pytest.mark.parametrize(
        "option, span",
        [("--g", "0..3"), ("--g", "5..2"), ("--i", "4..1")],
    )
    def test_bad_span_is_config_error(self, option, span, capsys):
        code, text = run_cli("verify", option, span)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error[config]: need ")

    def test_unknown_format_is_usage_error(self, capsys):
        assert run_cli("verify", "--format", "xml") == (2, "")
        assert capsys.readouterr().err.startswith("error[usage]: ")


class TestCommandLineNumbers:
    """Every number on the command line follows one rule: an optional sign
    and the ASCII digits 0-9, after stripping surrounding spaces."""

    @pytest.mark.parametrize(
        "option, span", [("--g", "١..٣"), ("--g", " 1_0 .. 1_1"), ("--i", "٠..2")]
    )
    def test_other_digits_in_a_span_are_config_error(self, option, span):
        proc = run_module("verify", option, span, timeout=20)
        _assert_one_error_line(proc, "config")
        assert proc.stderr == f"error[config]: cannot parse {option} span {span!r}; use A or A..B\n"

    @pytest.mark.parametrize("i", ["١", "1_0", "²"])
    def test_other_digits_in_curve_twist_are_usage_error(self, i):
        proc = run_module("curve", "weights", "y^2 = x^3 - x", "--i", i, "--format", "tsv", timeout=20)
        _assert_one_error_line(proc, "usage")
        assert proc.stderr == f"error[usage]: argument --i: invalid int value: {i!r}\n"

    def test_ascii_spellings_read_as_before(self, capsys):
        assert run_cli("verify", "--g", "+1..9", "--format", "tsv") == run_cli("verify", "--format", "tsv")
        weights = ("curve", "weights", "y^2 = x^3 - x", "--format", "tsv")
        assert run_cli(*weights, "--i", " 2") == run_cli(*weights, "--i", "+2") == run_cli(*weights, "--i", "2")
        capsys.readouterr()
        assert run_cli("verify", "--i=-1..3") == (2, "")
        assert capsys.readouterr().err == "error[config]: need 0 <= i_min <= i_max, got -1..3\n"


class TestVerifyCommand:
    def test_full_suite_json(self):
        code, text = run_cli("verify", "--g", "1..9", "--i", "0..8", "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert doc["schema"] == 1
        assert doc["passed"] is True
        names = [c["name"] for c in doc["cases"]]
        for expected in (
            "SW_degree",
            "E_plus_degree",
            "D_degree",
            "E_degree",
            "W_delta_transversality",
            "identity_a",
            "identity_b",
        ):
            assert expected in names
        assert all(c["verdict"] == "pass" for c in doc["cases"])

    def test_filter_single_case(self):
        code, text = run_cli("verify", "--filter", "SW_degree", "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert [c["name"] for c in doc["cases"]] == ["SW_degree"]

    def test_insufficient_grid_is_config_error(self):
        code, _ = run_cli("verify", "--g", "1..2", "--i", "0..1")
        assert code == 2

    def test_unknown_filter_is_config_error(self):
        code, _ = run_cli("verify", "--filter", "no_such_case")
        assert code == 2

    def test_byte_determinism(self):
        runs = [run_cli("verify", "--format", "json")[1] for _ in range(2)]
        assert runs[0] == runs[1]
        runs_tsv = [run_cli("verify", "--format", "tsv")[1] for _ in range(2)]
        assert runs_tsv[0] == runs_tsv[1]

    @pytest.mark.parametrize(
        "g, i",
        [
            (f"1..{MAX_VERIFY_G + 1}", "0..8"),
            ("1..9", f"0..{MAX_VERIFY_I + 1}"),
            ("1..60", "0..60"),
            ("1..1000000000", "0..8"),
        ],
        ids=["g-over-cap", "i-over-cap", "both-60", "g-1e9"],
    )
    def test_span_over_cap_is_config_error(self, g, i):
        proc = run_module("verify", "--g", g, "--i", i, timeout=20)
        _assert_one_error_line(proc, "config")
        assert "cap" in proc.stderr

    def test_verification_failure_exit_code(self, monkeypatch):
        broken = ClosedForm("SW_degree", CLOSED_FORMS["SW_degree"].expr + 1, "control case")
        monkeypatch.setitem(formulas.CLOSED_FORMS, "SW_degree", broken)
        code, text = run_cli("verify", "--format", "json")
        assert code == 1
        doc = json.loads(text)
        case = next(c for c in doc["cases"] if c["name"] == "SW_degree")
        assert case["verdict"] == "fail"
        assert case["failures"][0] == {
            "g": 1,
            "i": 0,
            "engine": "0",
            "closed_form": "1",
        }

    def test_failing_identity_in_every_format(self, monkeypatch):
        lhs, rhs, anchor = formulas.IDENTITIES["identity_a"]
        monkeypatch.setitem(formulas.IDENTITIES, "identity_a", (lhs, rhs + 1, anchor))
        code, text = run_cli("verify", "--format", "json")
        assert code == 1
        doc = json.loads(text)
        assert doc["passed"] is False
        case = next(c for c in doc["cases"] if c["name"] == "identity_a")
        assert case["verdict"] == "fail"
        assert case["grid_size"] is None and case["degree_bound"] is None
        assert case["failures"] == []
        code, text = run_cli("verify", "--format", "tsv")
        assert code == 1
        assert [line for line in text.splitlines() if "fail" in line] == [
            "identity_a\tfail\tsymbolic\t0"
        ]
        code, text = run_cli("verify")
        assert code == 1
        assert [line.split() for line in text.splitlines() if "FAIL" in line] == [
            ["[FAIL]", "identity_a", "symbolic"]
        ]
        assert text.endswith("12/13 cases passed\n")

    @pytest.mark.parametrize("golden, argv", VERIFY_GOLDEN, ids=[name for name, _ in VERIFY_GOLDEN])
    def test_output_matches_golden_bytes(self, golden, argv):
        code, text = run_cli("verify", *argv)
        assert code == 0
        assert text.encode() == (DATA / golden).read_bytes()

    def test_no_match_error_matches_golden_bytes(self, capsys):
        code, text = run_cli("verify", "--filter", "nomatch")
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.encode() == (DATA / "verify_filter_nomatch.err").read_bytes()

    @pytest.mark.parametrize("golden, argv", CURVE_GOLDEN, ids=[name for name, _ in CURVE_GOLDEN])
    def test_curve_output_matches_golden_bytes(self, golden, argv):
        code, text = run_cli("curve", *argv)
        assert code == 0
        assert text.encode() == (DATA / golden).read_bytes()

    def test_pretty_output_mentions_every_case(self):
        code, text = run_cli("verify")
        assert code == 0
        for name in formulas.CASES:
            assert name in text
        assert f"{len(formulas.CASES)}/{len(formulas.CASES)} cases passed" in text


class TestCurveCommand:
    def test_weights_two_torsion(self):
        code, text = run_cli(
            "curve", "weights", "y^2 = x^3 - x", "--i", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["total"] == 4
        assert [e["weight"] for e in doc["entries"]] == [1, 1, 1, 1]

    def test_orders_at_infinity(self):
        code, text = run_cli(
            "curve",
            "orders",
            "y^2 = x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 24*x",
            "--i",
            "1",
            "--place",
            "inf",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["orders"] == [0, 2, 4]
        assert doc["weight"] == 3

    def test_orders_requires_place(self):
        code, _ = run_cli("curve", "orders", "y^2 = x^3 - x", "--i", "1")
        assert code == 2

    def test_basis(self):
        code, text = run_cli(
            "curve",
            "basis",
            "y^2 = x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 24*x",
            "--i",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["monomials"] == ["1", "x", "x^2", "y"]
        assert doc["dimension"] == 4

    def test_torsion_pass_and_genus_guard(self):
        code, text = run_cli(
            "curve", "torsion", "y^2 = x^3 + 1", "--i", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(text)["verdict"] == "pass"
        code, _ = run_cli(
            "curve", "torsion", "y^2 = x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 24*x", "--i", "1"
        )
        assert code == 2  # unsupported model

    def test_parse_error_exit_code(self):
        code, _ = run_cli("curve", "weights", "y^2 = x^4 - 1", "--i", "0")
        assert code == 2

    def test_usage_error(self):
        code, _ = run_cli("curve", "nonsense", "y^2 = x^3 - x")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("curve", "weights", "y^2 = x^3 - x", "--i", "abc"), ("frobnicate",), ()],
        ids=["non-integer-i", "unknown-subcommand", "no-subcommand"],
    )
    def test_usage_error_is_one_line(self, argv):
        proc = run_module(*argv, timeout=20)
        _assert_one_error_line(proc, "usage")

    def test_split_only_option_is_gone(self):
        proc = run_module("curve", "weights", "y^2 = x^3 + 1", "--require-split", timeout=20)
        _assert_one_error_line(proc, "usage")
        assert proc.stdout == ""

    def test_help_exits_zero(self):
        proc = run_module("curve", "--help", timeout=20)
        assert proc.returncode == 0 and "usage:" in proc.stdout

    @pytest.mark.parametrize(
        "sub, i",
        [
            ("basis", "-1"),
            ("orders", "-1"),
            ("weights", "-1"),
            ("torsion", "0"),
            ("weights", str(MAX_TWIST + 1)),
            ("torsion", "1000000000"),
        ],
    )
    def test_twist_below_range_is_config_error(self, sub, i):
        proc = run_module("curve", sub, "y^2 = x^3 - x", "--i", i, "--place", "inf")
        _assert_one_error_line(proc, "config")
        assert "--i" in proc.stderr

    @pytest.mark.parametrize("sub, i", [("basis", "0"), ("weights", "1"), ("torsion", "1")])
    def test_place_outside_orders_is_config_error(self, sub, i):
        proc = run_module("curve", sub, "y^2 = x^3 + 1", "--i", i, "--place", "inf", timeout=20)
        _assert_one_error_line(proc, "config")
        assert proc.stderr == "error[config]: --place applies only to curve orders\n"

    @pytest.mark.parametrize(
        "equation",
        [
            "y^2 = x^999999999 + 1",
            f"y^2 = x^{MAX_DEGREE + 2} + 1",
            "y^2 = x^3 + " + "7" * 5000,
            "y^2 = x^" + "1" * 5000 + " + 1",
            "y^2 = x^3 + 1/" + "3" * 4400,
        ],
        ids=[
            "exponent-1e9",
            "exponent-over-cap",
            "coeff-5000-digits",
            "exponent-5000-digits",
            "denominator-4400-digits",
        ],
    )
    def test_oversized_curve_is_syntax_error(self, equation):
        proc = run_module("curve", "weights", equation, "--i", "1")
        _assert_one_error_line(proc, "syntax")

    @pytest.mark.parametrize("equation", ["y^2 = x^3 + 3*", "y^2 = x^3 + 2*+1"])
    def test_dangling_star_is_syntax_error(self, equation):
        # a '*' never stands alone: dropping it would read both as x^3 + 3
        proc = run_module("curve", "weights", equation)
        _assert_one_error_line(proc, "syntax")
        assert proc.stderr.startswith("error[syntax]: expected x after '*', found ")

    @pytest.mark.parametrize("equation", ["y^2 = x^³ + 1", "y^2 = x^3 + ²*x + 1"])
    def test_non_ascii_digit_is_syntax_error(self, equation):
        proc = run_module("curve", "weights", equation)
        _assert_one_error_line(proc, "syntax")
        assert proc.stderr.startswith("error[syntax]: unexpected character ")

    @pytest.mark.parametrize("equation", ["y^2 = 0", "y^2 = x^3 - x^3"])
    def test_zero_right_side_is_invalid_curve(self, equation):
        proc = run_module("curve", "weights", equation)
        _assert_one_error_line(proc, "invalid-curve")
        assert proc.stderr == "error[invalid-curve]: f is the zero polynomial\n"

    def test_large_constant_term_validates_fast(self):
        # a divisor scan of the constant term 10^30 + 1 is ~10^15 steps
        proc = run_module(
            "curve", "weights", "y^2 = x^3 + 1000000000000000000000000000001",
            "--i", "1", "--format", "json", timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["total"] == 4

    def test_degree_31_curve_weights_fast(self):
        # g = 15, i = 0: the 15 basis monomials are all powers of x, so
        # the wronskian needs no determinant at all
        proc = run_module(
            "curve", "weights", "y^2 = x^31 - x + 1",
            "--i", "0", "--format", "json", timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["total"] == 3375  # g(g+i)^2

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_output_error(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        src = str(Path(ramloci.__file__).resolve().parents[1])
        # Buffered stdout fails only at a flush, unbuffered at the first write.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ramloci", "curve", "weights", "y^2 = x^3 - x",
                 "--i", "1", "--format", "json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        _assert_one_error_line(proc, "output")
        assert "Exception ignored" not in proc.stderr

    def test_weights_json_deterministic(self):
        args = ("curve", "weights", "y^2 = x^3 + 1", "--i", "2", "--format", "json")
        assert run_cli(*args)[1] == run_cli(*args)[1]


def test_one_process_matches_fresh_processes(capsys):
    # the parser is built once per process; reusing it for a usage error,
    # then verify, then curve weights must not change any call's output
    from ramloci import cli

    calls = [
        ("curve", "weights", "y^2 = x^3 - x", "--i", "abc"),
        ("verify",),
        ("curve", "weights", "y^2 = x^3 - 2*x + 5", "--i", "2", "--format", "json"),
    ]
    for argv in calls:
        code = main(list(argv))
        captured = capsys.readouterr()
        fresh = run_module(*argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli._build_parser() is cli._build_parser()


class TestExitCodeMapping:
    def test_inconclusive_maps_to_three(self, monkeypatch):
        import ramloci.cli as cli_mod
        from ramloci.errors import InconclusiveError

        def boom(model, i):
            raise InconclusiveError("precision cap reached")

        monkeypatch.setattr(cli_mod, "total_weight", boom)
        code, _ = run_cli("curve", "weights", "y^2 = x^3 - x", "--i", "1")
        assert code == 3


@settings(deadline=None, max_examples=300)
@given(prefix=st.booleans(), body=st.text(alphabet="xy^=+-*/0123456789 ()", max_size=40))
def test_curve_text_fuzz_keeps_the_exit_contract(prefix, body):
    """Random equation text never raises: it succeeds, or exits 2 or 3
    with exactly one error[code] line on stderr."""
    text = ("y^2 = " if prefix else "") + body
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("curve", "weights", text, "--i", "1")
    if code:
        assert code in (2, 3)
        assert err.getvalue().startswith("error[") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def test_python_dash_m_entry_point():
    proc = run_module("verify", "--filter", "identity_a")
    assert proc.returncode == 0, proc.stderr
    assert "1/1 cases passed" in proc.stdout


# The lines of README's CLI block, without the program name and comments.
README_CLI_BLOCK = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## CLI")[1].split("```")[1]
README_COMMANDS = [
    shlex.split(line, comments=True)[1:] for line in README_CLI_BLOCK.splitlines() if line.startswith("ramloci ")
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a[:2]) for a in README_COMMANDS])
def test_readme_commands_run(argv):
    code, text = run_cli(*argv)
    assert code == 0 and text
