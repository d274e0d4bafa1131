import json

import pytest

from ramloci import formulas
from ramloci.errors import GridInsufficientError
from ramloci.formulas import (
    CASES,
    CLOSED_FORMS,
    ClosedForm,
    certify,
    engine_values,
    run_suite,
)
from ramloci.numeric import ParamPoly, poly_eval

G = ParamPoly.g()
I = ParamPoly.i()


def _sw_degree(g, i):
    return engine_values(g, i)["SW_degree"]


class TestClosedForms:
    def test_degree_bounds_dominate(self):
        for form in CLOSED_FORMS.values():
            dg, di = form.expr.degrees()
            assert dg <= form.degree_bound[0]
            assert di <= form.degree_bound[1]

    def test_declared_bound_is_enforced(self):
        with pytest.raises(ValueError):
            ClosedForm("too_tight", G**3, (2, 2), "control case")

    def test_counts_nonnegative_on_grid(self):
        for name in ("D_degree", "E_degree", "SW_degree", "E_plus_degree"):
            form = CLOSED_FORMS[name]
            for g in range(1, 10):
                for i in range(0, 9):
                    assert form(g, i) >= 0

    def test_effective_and_moving_counts_vanish_at_i0(self):
        assert CLOSED_FORMS["D_degree"].expr.subs_i(0).is_zero()
        assert CLOSED_FORMS["E_degree"].expr.subs_i(0).is_zero()

    def test_brill_segre_equals_weight_formula(self):
        assert CLOSED_FORMS["brill_segre"].expr == CLOSED_FORMS["total_weight"].expr


class TestCertify:
    def test_sw_degree_passes(self):
        report = certify(
            "SW_degree",
            _sw_degree,
            CLOSED_FORMS["SW_degree"],
            range(1, 10),
            range(0, 9),
        )
        assert report.verdict
        assert report.grid_size == (9, 9)
        assert not report.failures
        assert len(report.grid) == 81

    def test_broken_form_fails_at_origin_corner(self):
        broken = ClosedForm(
            "broken", CLOSED_FORMS["SW_degree"].expr + 1, (8, 8), "control case"
        )
        report = certify("broken", _sw_degree, broken, range(1, 10), range(0, 9))
        assert not report.verdict
        g, i, engine, closed = report.failures[0]
        assert (g, i) == (1, 0)
        assert engine == 0 and closed == 1

    def test_insufficient_grid_refused(self):
        with pytest.raises(GridInsufficientError):
            certify(
                "SW_degree",
                _sw_degree,
                CLOSED_FORMS["SW_degree"],
                range(1, 3),
                range(0, 2),
            )

    def test_grid_must_exceed_bound_even_when_engine_agrees(self):
        with pytest.raises(GridInsufficientError):
            certify(
                "SW_degree",
                _sw_degree,
                CLOSED_FORMS["SW_degree"],
                range(1, 9),  # 8 points: not more than the declared bound 8
                range(0, 9),
            )


class TestIdentitySuite:
    def test_all_pass(self):
        names = ["identity_a", "identity_b", "W_class_K1", "W_class_K2", "W_class_Delta"]
        for name in names:
            (report,) = run_suite(name_filter=name)
            assert report.verdict, report.name

    def test_identity_a_evaluated(self):
        me1 = CLOSED_FORMS["SW_degree"].expr
        ex0 = CLOSED_FORMS["D_degree"].expr
        ex6b0 = CLOSED_FORMS["E_degree"].expr
        assert poly_eval(me1, 2, 1) == 140
        assert poly_eval(ex0, 2, 1) == 30
        assert poly_eval(ex6b0, 2, 1) == 110
        assert me1 == ex0 + ex6b0

    def test_identity_b_evaluated(self):
        e_plus = CLOSED_FORMS["E_plus_degree"].expr
        ex6b0 = CLOSED_FORMS["E_degree"].expr
        assert poly_eval(e_plus, 2, 1) == 128
        assert poly_eval(ex6b0, 2, 1) + 3 * 6 == 128
        assert e_plus == ex6b0 + (G + 1) * (G**3 - G)

    def test_genus_one_degenerates_to_zero(self):
        me1 = CLOSED_FORMS["SW_degree"].expr
        ex0 = CLOSED_FORMS["D_degree"].expr
        ex6b0 = CLOSED_FORMS["E_degree"].expr
        for i in range(0, 9):
            assert poly_eval(me1, 1, i) == 0
            assert poly_eval(ex0, 1, i) == 0
            assert poly_eval(ex6b0, 1, i) == 0


class TestSuiteRunner:
    def test_full_suite_passes_in_canonical_order(self):
        reports = run_suite()
        assert [r.name for r in reports] == list(CASES)
        assert all(r.verdict for r in reports)

    def test_filter(self):
        reports = run_suite(name_filter="SW_degree")
        assert [r.name for r in reports] == ["SW_degree"]

    def test_glob_filter(self):
        reports = run_suite(name_filter="identity_*")
        assert [r.name for r in reports] == ["identity_a", "identity_b"]

    def test_report_json_shape(self):
        report = run_suite(name_filter="E_degree")[0]
        doc = report.to_json_dict()
        assert set(doc) == {
            "name",
            "verdict",
            "grid_size",
            "degree_bound",
            "anchor",
            "failures",
        }
        assert doc["verdict"] == "pass"
        assert doc["grid_size"] == [9, 9]
        assert doc["degree_bound"] == [8, 8]
        assert doc["failures"] == []
        json.dumps(doc)  # serialisable

    def test_symbolic_report_json_shape(self):
        report = run_suite(name_filter="identity_a")[0]
        doc = report.to_json_dict()
        assert doc["grid_size"] is None
        assert doc["degree_bound"] is None
        assert doc["verdict"] == "pass"


class TestEngineRecord:
    def test_one_jet_chern_call_per_grid_point_across_runs(self, monkeypatch):
        calls = []
        real = formulas.jet_chern

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(formulas, "jet_chern", counting)
        engine_values.cache_clear()
        run_suite()
        run_suite()
        assert len(calls) == 81

    def test_cache_holds_the_largest_verify_grid(self):
        from ramloci.cli import MAX_VERIFY_G, MAX_VERIFY_I

        assert formulas.ENGINE_CACHE_SIZE >= MAX_VERIFY_G * (MAX_VERIFY_I + 1)

    def test_record_is_read_only(self):
        with pytest.raises(TypeError):
            engine_values(2, 1)["SW_degree"] = 0

    def test_degree_audit(self):
        """Every engine quantity has per-variable degree at most 6 (the
        audit in the module docstring): its 7th finite differences in g
        and in i vanish on g 1..14 x i 0..13."""

        def diff(values, order):
            for _ in range(order):
                values = [b - a for a, b in zip(values, values[1:])]
            return values

        for name in engine_values(1, 0):
            for i in range(14):
                column = [engine_values(g, i)[name] for g in range(1, 15)]
                assert not any(diff(column, 7)), (name, "g", i)
            for g in range(1, 15):
                row = [engine_values(g, i)[name] for i in range(14)]
                assert not any(diff(row, 7)), (name, "i", g)
