import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ramloci
from ramloci import formulas
from ramloci.cli import (
    MAX_DEGREE,
    MAX_TWIST,
    MAX_VERIFY_G,
    MAX_VERIFY_I,
    RunConfig,
    main,
    parse_curve,
    _parse_place,
)
from ramloci.errors import (
    ConfigError,
    CurveSyntaxError,
    EvenDegreeError,
    IrrationalBranchError,
    NotMonicError,
)
from ramloci.formulas import CLOSED_FORMS, ClosedForm, certify


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


def _assert_one_error_line(proc, code):
    """The CLI contract: exit 2 and a single error[code] line, no traceback."""
    assert proc.returncode == 2
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

    def test_require_split(self):
        parse_curve("y^2 = x^3 + 1")
        with pytest.raises(IrrationalBranchError):
            parse_curve("y^2 = x^3 + 1", require_split=True)

    def test_parse_place(self):
        model = parse_curve("y^2 = x^3 + 1")
        assert _parse_place(model, "inf").kind == "infinity"
        assert _parse_place(model, "-1").kind == "branch"
        place = _parse_place(model, "2, 3")
        assert place.kind == "ordinary" and place.y == 3
        with pytest.raises(ConfigError):
            _parse_place(model, "nonsense")


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(g_min=0)
        with pytest.raises(ConfigError):
            RunConfig(g_min=5, g_max=2)
        with pytest.raises(ConfigError):
            RunConfig(fmt="xml")


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
        broken_form = ClosedForm(
            "SW_degree", CLOSED_FORMS["SW_degree"].expr + 1, (8, 8), "control case"
        )

        def broken_runner(g_range, i_range):
            return certify(
                "SW_degree",
                lambda g, i: formulas.engine_values(g, i)["SW_degree"],
                broken_form,
                g_range,
                i_range,
            )

        patched = dict(formulas.CASES)
        patched["SW_degree"] = broken_runner
        monkeypatch.setattr(formulas, "CASES", patched)
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

    def test_large_constant_term_validates_fast(self):
        # a divisor scan of the constant term 10^30 + 1 is ~10^15 steps
        proc = run_module(
            "curve", "weights", "y^2 = x^3 + 1000000000000000000000000000001",
            "--i", "1", "--format", "json", timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["total"] == 4

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


class TestExitCodeMapping:
    def test_inconclusive_maps_to_three(self, monkeypatch):
        import ramloci.cli as cli_mod
        from ramloci.errors import InconclusiveError

        def boom(model, i):
            raise InconclusiveError("precision cap reached")

        monkeypatch.setattr(cli_mod, "total_weight", boom)
        code, _ = run_cli("curve", "weights", "y^2 = x^3 - x", "--i", "1")
        assert code == 3


def test_python_dash_m_entry_point():
    proc = run_module("verify", "--filter", "identity_a")
    assert proc.returncode == 0, proc.stderr
    assert "1/1 cases passed" in proc.stdout
