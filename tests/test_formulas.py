import fnmatch
import json
from fractions import Fraction

import pytest

from ramloci import formulas
from ramloci.bundles import ChernPoly, jet_chern
from ramloci.chow import DELTA, K1, K2, ChowRing, chow_integrate, chow_mul
from ramloci.errors import GridInsufficientError
from ramloci.formulas import (
    CASES,
    CLOSED_FORMS,
    ClosedForm,
    certify,
    engine_polys,
    run_suite,
)
from ramloci.numeric import ParamPoly

G = ParamPoly.g()
I = ParamPoly.i()


def _sw_degree():
    return engine_polys()["SW_degree"]


@pytest.fixture
def evaluated(monkeypatch):
    """The polynomials ``ParamPoly.grid_values`` is called on."""
    calls = []
    real = ParamPoly.grid_values

    def counting(poly, g_points, i_points):
        calls.append(poly)
        return real(poly, g_points, i_points)

    monkeypatch.setattr(ParamPoly, "grid_values", counting)
    return calls


class TestClosedForms:
    def test_degree_bounds_dominate(self):
        for form in CLOSED_FORMS.values():
            dg, di = form.expr.degrees()
            assert dg <= formulas._BOUND[0]
            assert di <= formulas._BOUND[1]

    def test_declared_bound_is_enforced(self):
        with pytest.raises(ValueError, match="does not dominate"):
            formulas._register("too_tight", G**9, "control case")
        assert "too_tight" not in CLOSED_FORMS

    def test_counts_nonnegative_on_grid(self):
        for name in ("D_degree", "E_degree", "SW_degree", "E_plus_degree"):
            form = CLOSED_FORMS[name]
            for g in range(1, 10):
                for i in range(0, 9):
                    assert form.expr(g, i) >= 0

    def test_effective_and_moving_counts_vanish_at_i0(self):
        # every term carries a positive power of i
        for name in ("D_degree", "E_degree"):
            assert all(ei > 0 for _, ei in CLOSED_FORMS[name].expr.terms)

    def test_brill_segre_equals_weight_formula(self):
        assert CLOSED_FORMS["brill_segre"].expr == CLOSED_FORMS["total_weight"].expr


class TestThetaPullback:
    """A second derivation of the counts, through the Jacobian.

    For psi(P, Q) = aQ - bP from C x C to the Jacobian, (2g-2) psi*theta
    is theta_ab = (g b^2 - ab) K1 + (g a^2 - ab) K2 + (2g-2) ab Delta.
    W_{g-2} and W^1_g both have class theta^2/2 (Poincare's formula;
    ACGH I, Ch. I section 5 and Ch. VII-VIII), so the number of points
    psi sends into a translate of either is theta_ab^2 / (8 (g-1)^2).
    """

    @staticmethod
    def _theta_square(a, b):
        theta = (G * b * b - a * b) * K1 + (G * a * a - a * b) * K2 + (2 * G - 2) * a * b * DELTA
        return chow_mul(ChowRing(G), theta, theta).cPt

    def test_moving_counts_from_w1g(self):
        # (a, b) = (g+i+1, i+1): E_plus, which is E plus (g+1) times the
        # g^3 - g Weierstrass points on the diagonal
        square = self._theta_square(G + I + 1, I + 1)
        assert square == 8 * (G - 1) ** 2 * CLOSED_FORMS["E_plus_degree"].expr
        assert square == 8 * (G - 1) ** 2 * (CLOSED_FORMS["E_degree"].expr + (G + 1) * (G**3 - G))

    def test_effective_count_from_w_g_minus_2(self):
        # (a, b) = (g+i-1, i+1): D plus g(g-1)^3, because psi maps the
        # whole diagonal into W_{g-2}
        square = self._theta_square(G + I - 1, I + 1)
        assert square == 8 * (G - 1) ** 2 * (CLOSED_FORMS["D_degree"].expr + G * (G - 1) ** 3)

    def test_effective_count_in_genus_two(self):
        d = CLOSED_FORMS["D_degree"].expr
        assert [d(2, i) for i in range(17)] == [2 * ((i + 1) ** 4 - 1) for i in range(17)]


class TestCertify:
    def test_sw_degree_passes(self, evaluated):
        form = CLOSED_FORMS["SW_degree"]
        report = certify("SW_degree", _sw_degree(), form, range(1, 10), range(0, 9))
        assert report.verdict
        assert report.grid_size == (9, 9)
        assert not report.failures
        assert len(report.grid) == 81
        # a passing case evaluates only the engine polynomial
        assert evaluated == [_sw_degree()]
        closed = [form.expr(g, i) for g in range(1, 10) for i in range(0, 9)]
        assert [row[2] for row in report.grid] == [row[3] for row in report.grid] == closed

    def test_broken_form_fails_at_origin_corner(self, evaluated):
        broken = ClosedForm("broken", CLOSED_FORMS["SW_degree"].expr + 1, "control case")
        report = certify("broken", _sw_degree(), broken, range(1, 10), range(0, 9))
        assert not report.verdict
        assert len(evaluated) == 2
        assert report.failures[0] == (1, 0, 0, 1)
        assert report.failures == report.grid

    def test_insufficient_grid_refused(self):
        with pytest.raises(GridInsufficientError):
            certify(
                "SW_degree",
                _sw_degree(),
                CLOSED_FORMS["SW_degree"],
                range(1, 3),
                range(0, 2),
            )

    def test_grid_must_exceed_bound_even_when_engine_agrees(self):
        with pytest.raises(GridInsufficientError):
            certify(
                "SW_degree",
                _sw_degree(),
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
        assert me1(2, 1) == 140
        assert ex0(2, 1) == 30
        assert ex6b0(2, 1) == 110
        assert me1 == ex0 + ex6b0

    def test_identity_b_evaluated(self):
        e_plus = CLOSED_FORMS["E_plus_degree"].expr
        ex6b0 = CLOSED_FORMS["E_degree"].expr
        assert e_plus(2, 1) == 128
        assert ex6b0(2, 1) + 3 * 6 == 128
        assert e_plus == ex6b0 + (G + 1) * (G**3 - G)

    def test_genus_one_degenerates_to_zero(self):
        me1 = CLOSED_FORMS["SW_degree"].expr
        ex0 = CLOSED_FORMS["D_degree"].expr
        ex6b0 = CLOSED_FORMS["E_degree"].expr
        for i in range(0, 9):
            assert me1(1, i) == 0
            assert ex0(1, i) == 0
            assert ex6b0(1, i) == 0


FILTERS = [None, *CASES, "W_*", "*_degree", "[DE]_degree", "?_degree", "identity_?"]
FILTERS += ["w_class_k1", "nomatch"]


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

    def test_case_names_hold_no_glob_character(self):
        assert not [n for n in CASES if set(n) & set("*?[")]

    @pytest.mark.parametrize("name", list(CASES))
    def test_case_name_selects_without_glob_matching(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("fnmatchcase called")

        monkeypatch.setattr(fnmatch, "fnmatchcase", refuse)
        assert [r.name for r in run_suite(name_filter=name)] == [name]

    @pytest.mark.parametrize("pattern", FILTERS)
    def test_selection_matches_fnmatchcase(self, pattern):
        expected = [n for n in CASES if pattern is None or fnmatch.fnmatchcase(n, pattern)]
        assert [r.name for r in run_suite(name_filter=pattern)] == expected

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
    def test_every_engine_polynomial_equals_its_closed_form(self):
        polys = engine_polys()
        assert list(polys) == [n for n in CASES if n in CLOSED_FORMS]
        for name, poly in polys.items():
            assert isinstance(poly, ParamPoly), name
            assert poly == CLOSED_FORMS[name].expr, name

    def test_engine_degrees_within_bound(self):
        for name, poly in engine_polys().items():
            dg, di = poly.degrees()
            assert dg <= formulas._BOUND[0] and di <= formulas._BOUND[1], name

    def test_two_suite_runs_build_the_engine_once(self, monkeypatch):
        calls = []
        real = formulas.jet_chern

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(formulas, "jet_chern", counting)
        engine_polys.cache_clear()
        run_suite()
        run_suite()
        assert 1 <= len(calls) <= 2

    def test_engine_build_skips_zero_operands(self, monkeypatch):
        """A zero operand is neither added nor multiplied as a polynomial:
        one build of the engine normalises at most 250 polynomials, where
        sending every zero ChowClass coordinate through the generic
        product and sum took 556."""
        stores = []
        real = ParamPoly._store

        def counting(poly, parts):
            stores.append(parts)
            real(poly, parts)

        monkeypatch.setattr(ParamPoly, "_store", counting)
        engine_polys.cache_clear()
        try:
            polys = engine_polys()
        finally:
            # no other test may see the build made under the counter
            engine_polys.cache_clear()
        assert 0 < len(stores) <= 250
        assert all(polys[name] == CLOSED_FORMS[name].expr for name in polys)

    def test_record_is_read_only(self):
        with pytest.raises(TypeError):
            engine_polys()["SW_degree"] = 0

    def test_engine_does_no_fraction_arithmetic(self, monkeypatch):
        # the certifier runs on integer numerators; a Fraction operator
        # that only declines a ParamPoly operand does no arithmetic
        done = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            real = getattr(Fraction, name)

            def spy(a, b, real=real, name=name):
                out = real(a, b)
                if out is not NotImplemented:
                    done.append((name, a, b))
                return out

            monkeypatch.setattr(Fraction, name, spy)
        polys = engine_polys.__wrapped__()
        assert done == []
        assert polys["D_degree"] == CLOSED_FORMS["D_degree"].expr

    @pytest.mark.parametrize("g, i", [(1, 0), (2, 1), (3, 4), (9, 8), (5, 0)])
    def test_power_sums_match_the_filtration_product(self, g, i):
        """The factor-by-factor product of the g+i+1 line-bundle factors
        of the jet bundle, in the ring of genus g, agrees with the power
        sums of jet_chern, both concrete and formal."""
        ring = ChowRing(g)
        product = ChernPoly(ring)
        for m in range(1, g + i + 2):
            product = product * ChernPoly(ring, c1=m * K2 + (i + 1) * DELTA)
        assert jet_chern(ring, i, g + i) == product
        polys = engine_polys()
        assert product.c1.cK2 == polys["jet_c1_K2"](g, i)
        assert product.c1.cDelta == polys["jet_c1_Delta"](g, i)
        assert chow_integrate(ring, product.c2) == polys["jet_c2_point"](g, i)

    def test_form_agreeing_on_the_whole_grid_still_fails(self):
        """A closed form off by (g-1)(g-2)...(g-9) agrees with the engine
        on every point of the 9 x 9 grid, but is a different polynomial.
        Registration rejects a degree-9 expression under the bound (8, 8),
        so the form is built directly, as a mistaken form would be."""
        vanishing = ParamPoly.const(1)
        for root in range(1, 10):
            vanishing = vanishing * (G - root)
        wrong = ClosedForm("SW_degree", CLOSED_FORMS["SW_degree"].expr + vanishing, "control case")
        report = certify("SW_degree", _sw_degree(), wrong, range(1, 10), range(0, 9))
        assert len(report.grid) == 81 and not report.failures
        assert not report.verdict
