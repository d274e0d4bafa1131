import io
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ramloci
from ramloci.cli import main, parse_curve
from ramloci.curves import (
    DX_OVER_Y,
    CurveFunction,
    HyperellipticModel,
    MonomialBasis,
    Place,
    _exact_frame,
    _local_frame,
    _series_orders,
    _strip_branch_factors,
    _wronskian_parts,
    affine_wronskian,
    branch_ord_total,
    build_basis,
    division_polynomial,
    expand_at,
    ord_at_branch,
    ord_at_infinity,
    order_sequence_at,
    staircase_valuations,
    start_precision,
    torsion_check,
    total_weight,
)
from ramloci.errors import (
    CurveValidationError,
    EvenDegreeError,
    InconclusiveError,
    InternalCheckError,
    NotMonicError,
    NotOnCurveError,
    NotSquarefreeError,
    UnsupportedModelError,
)
from ramloci.numeric import Series, UniPoly, bareiss_det, poly_on_series

from _reference import cofactor_det, monomial_sections, order_sequence_by_monomials

X = UniPoly.x()

E1 = HyperellipticModel.from_poly(X**3 - X)  # y^2 = x^3 - x
E2 = HyperellipticModel.from_poly(X**3 + 1)  # y^2 = x^3 + 1, non-split
G2 = HyperellipticModel.from_poly(
    X**5 - 10 * X**4 + 35 * X**3 - 50 * X**2 + 24 * X
)  # y^2 = x(x-1)(x-2)(x-3)(x-4)
G3 = HyperellipticModel.from_poly(X**7 - X + 1)  # non-split genus 3


class TestModelValidation:
    def test_even_degree(self):
        with pytest.raises(EvenDegreeError):
            HyperellipticModel.from_poly(X**4 - 1)

    def test_low_degree(self):
        with pytest.raises(CurveValidationError):
            HyperellipticModel.from_poly(X)

    def test_not_monic(self):
        with pytest.raises(NotMonicError):
            HyperellipticModel.from_poly(2 * X**3 - X)

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefreeError):
            HyperellipticModel.from_poly(X**3 - 2 * X**2 + X)

    def test_one_gcd_and_no_division_per_root(self, monkeypatch):
        # a regression guard: f is squarefree once gcd(f, f') is 1, so every
        # rational root is simple and one evaluation settles each candidate
        calls = {"gcd": 0}
        real_gcd = UniPoly.gcd

        def gcd_spy(self, other):
            calls["gcd"] += 1
            return real_gcd(self, other)

        def refuse(*args):
            raise AssertionError("validation divided f by a linear factor")

        monkeypatch.setattr(UniPoly, "gcd", gcd_spy)
        monkeypatch.setattr(UniPoly, "root_multiplicity", refuse)
        for model in (E1, E2, G2, G3):
            calls["gcd"] = 0
            again = HyperellipticModel.from_poly(model.f)
            assert again.branch_x == model.branch_x and calls["gcd"] == 1

    def test_branch_points(self):
        assert E1.branch_x == (Fraction(-1), Fraction(0), Fraction(1))
        assert E1.splits
        assert E2.branch_x == (Fraction(-1),)
        assert not E2.splits
        assert G2.genus == 2 and G2.branch_x == tuple(Fraction(k) for k in range(5))

    def test_place_validation(self):
        with pytest.raises(NotOnCurveError):
            E1.check_place(Place.branch(2))
        with pytest.raises(NotOnCurveError):
            E1.check_place(Place.ordinary(2, 1))
        with pytest.raises(NotOnCurveError):
            E1.check_place(Place.ordinary(0, 0))
        E2.check_place(Place.ordinary(2, 3))
        E2.check_place(Place.branch(-1))

    @pytest.mark.parametrize("x0", ["-1/2", "0", "1/2"])
    def test_branch_place_with_denominator_passes(self, x0):
        # y^2 = x^3 - x/4: the integer test at x0 = p/q reads q^3 f(p/q)
        place = Place.branch(Fraction(x0))
        HALF_ROOTS.check_place(place)
        assert order_sequence_at(HALF_ROOTS, build_basis(HALF_ROOTS, 2), place).orders == (0, 1, 2)

    @pytest.mark.parametrize("x0", ["1/3", "-3/2", "2"])
    def test_branch_place_off_the_roots_is_refused(self, x0):
        place = Place.branch(Fraction(x0))
        message = f"({x0}, 0) is not a branch place: f(x0) != 0"
        with pytest.raises(NotOnCurveError) as direct:
            HALF_ROOTS.check_place(place)
        with pytest.raises(NotOnCurveError) as raised:
            order_sequence_at(HALF_ROOTS, build_basis(HALF_ROOTS, 2), place)
        assert str(direct.value) == str(raised.value) == message


class TestBasis:
    def test_g2_i2(self):
        basis = build_basis(G2, 2)
        assert basis.monomial_names() == ("1", "x", "x^2", "y")
        assert basis.pole_orders == (0, 2, 4, 5)

    def test_g1_i0(self):
        basis = build_basis(E1, 0)
        assert basis.monomial_names() == ("1",)

    def test_g2_i0(self):
        basis = build_basis(G2, 0)
        assert basis.monomial_names() == ("1", "x")

    def test_dimension_is_g_plus_i(self):
        for model in (E1, E2, G2):
            for i in range(0, 9):
                basis = build_basis(model, i)
                assert len(basis) == model.genus + i
                orders = basis.pole_orders
                assert len(set(orders)) == len(orders)
                assert list(orders) == sorted(orders)


class TestExpansion:
    def test_x_at_branch_has_valuation_two(self):
        # t^2 = c (x - x0) with c = f'(x0): x - x0 is the exact t^2/c,
        # and y^2 = f(x(t)) holds through the window of y
        for model, x0 in ((E1, 0), (E1, 1), (G2, 3)):
            c = model.f.derivative().evaluate(x0)
            prec = 16
            x = expand_at(model, model.monomial(1, 0), Place.branch(x0), prec)
            y = expand_at(model, model.monomial(0, 1), Place.branch(x0), prec)
            assert x - x0 == Series.monomial(2, 1 / c)
            assert y.valuation == 1 and y.coefficient(1) == 1
            assert y.known_up_to == prec + 1
            residual = y * y - poly_on_series(model.f, x)
            assert residual.known_up_to == prec + 2 and not residual.nums

    def test_constant_expands_to_one(self):
        for place in (Place.branch(0), Place.infinity()):
            s = expand_at(E1, E1.monomial(0, 0), place, 8)
            assert s.valuation == 0 and s.coefficient(0) == 1

    def test_x_at_infinity(self):
        s = expand_at(G2, G2.monomial(1, 0), Place.infinity(), 12)
        assert s.valuation == -2
        assert s.exact

    def test_y_at_infinity(self):
        s = expand_at(G2, G2.monomial(0, 1), Place.infinity(), 20)
        assert s.valuation == -5
        assert s.coefficient(-5) == 1

    def test_curve_equation_holds_at_ordinary_place(self):
        place = Place.ordinary(2, 3)
        y = expand_at(E2, E2.monomial(0, 1), place, 24)
        x = expand_at(E2, E2.monomial(1, 0), place, 24)
        lhs = y * y
        rhs = x * x * x + 1
        for e in range(0, 20):
            assert lhs.coefficient(e) == rhs.coefficient(e)
        assert y.coefficient(0) == 3

    def test_differential_at_branch_is_unit(self):
        s = expand_at(E1, DX_OVER_Y, Place.branch(1), 12)
        assert s.valuation == 0

    def test_differential_at_infinity(self):
        s = expand_at(G2, DX_OVER_Y, Place.infinity(), 12)
        assert s.valuation == 2 * G2.genus - 2

    def test_place_not_on_curve(self):
        with pytest.raises(NotOnCurveError):
            expand_at(E1, E1.monomial(1, 0), Place.branch(5), 8)

    def test_local_frames_match_sympy(self):
        # (x, dx/dt, y) on y^2 = x^3 - 2x + 5 at the ordinary places
        # (2, 3) and (2, -3), where x = 2 + t, at infinity, where x = t^-2,
        # and on y^2 = x^3 - 2x + 4 at the branch place (-2, 0), where
        # x = -2 + t^2/f'(-2) = -2 + t^2/10, with t positive throughout
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t", positive=True)
        prec = 8
        cases = [
            (X**3 - 2 * X + 5, Place.ordinary(2, 3), 2 + t, 1),
            (X**3 - 2 * X + 5, Place.ordinary(2, -3), 2 + t, -1),
            (X**3 - 2 * X + 5, Place.infinity(), t**-2, 1),
            (X**3 - 2 * X + 4, Place.branch(-2), -2 + t**2 / 10, 1),
        ]
        for f, place, xt, sign in cases:
            model = HyperellipticModel.from_poly(f)
            y = sign * sympy.sqrt(sympy.expand(sum(c * xt**k for k, c in enumerate(f.coeffs))))
            expected = (xt, sympy.diff(xt, t), y)
            frame = (*_exact_frame(model, place), _local_frame(model, place, prec))
            assert frame[0].exact and frame[1].exact
            for ours, sym in zip(frame, expected, strict=True):
                hi = ours.known_up_to if not ours.exact else ours.lead + prec
                sym = sympy.expand(sympy.series(sym, t, 0, hi).removeO())
                for e in range(ours.lead - 2, hi):
                    want = sym.coeff(t, e)
                    assert ours.coefficient(e) == Fraction(int(want.p), int(want.q)), (place.kind, e)


class TestOrderSequences:
    def test_g2_canonical_at_branch(self):
        seq = order_sequence_at(G2, build_basis(G2, 0), Place.branch(0))
        assert seq.orders == (0, 2)
        assert seq.weight == 1

    def test_g2_twisted_at_infinity(self):
        seq = order_sequence_at(G2, build_basis(G2, 1), Place.infinity())
        assert seq.orders == (0, 2, 4)
        assert seq.weight == 3  # g + canonical weight of the branch point

    def test_ordinary_place_is_unramified(self):
        seq = order_sequence_at(E2, build_basis(E2, 1), Place.ordinary(2, 3))
        assert seq.orders == (0, 1)
        assert seq.weight == 0

    def test_simple_ramification_at_ordinary_torsion_point(self):
        # (0, 1) on y^2 = x^3 + 1 is 3-torsion, so V(2, infinity) ramifies there
        seq = order_sequence_at(E2, build_basis(E2, 2), Place.ordinary(0, 1))
        assert seq.orders == (0, 1, 3)
        assert seq.weight == 1

    def test_pattern_of_twisted_orders_at_infinity(self):
        # twisted orders at infinity are 0..i-1 then (i+1) + canonical orders
        for model in (E1, E2, G2):
            eps = [
                o - 1
                for o in order_sequence_at(
                    model, build_basis(model, 0), Place.infinity()
                ).orders
            ]
            for i in range(0, 5):
                seq = order_sequence_at(model, build_basis(model, i), Place.infinity())
                expected = list(range(i)) + [i + 1 + e for e in eps]
                assert list(seq.orders) == expected
                canonical_weight = sum(e - k for k, e in enumerate(eps))
                assert seq.weight == model.genus + canonical_weight


# Places of every kind: the split genus-2 branch places and infinity, on
# y^2 = x^3 + 1 its rational branch place, infinity and an ordinary place,
# and infinity on the non-split genus-3 curve.
PRECISION_PLACES = [(G2, Place.branch(x0)) for x0 in range(5)] + [
    (G2, Place.infinity()),
    (E2, Place.branch(-1)),
    (E2, Place.infinity()),
    (E2, Place.ordinary(2, 3)),
    (G3, Place.infinity()),
]


def _spy_y_precision(monkeypatch):
    """Record the precision of every y expansion _series_orders asks
    of the local frame."""
    import ramloci.curves as curves_mod

    seen = []
    real = curves_mod._local_frame

    def spy(model, place, prec):
        seen.append(prec)
        return real(model, place, prec)

    monkeypatch.setattr(curves_mod, "_local_frame", spy)
    return seen


def _y_monomials(basis):
    return sum(b for _, b in basis.exponents)


class TestPrecision:
    @pytest.mark.parametrize("i", range(0, 5))
    def test_doubling_from_tiny_start_matches_default(self, monkeypatch, i):
        import ramloci.curves as curves_mod

        default = [
            _series_orders(model, build_basis(model, i), place).orders
            for model, place in PRECISION_PLACES
        ]
        seen = _spy_y_precision(monkeypatch)
        monkeypatch.setattr(curves_mod, "start_precision", lambda g, i: 1)
        for (model, place), orders in zip(PRECISION_PLACES, default):
            basis = build_basis(model, i)
            seen.clear()
            assert _series_orders(model, basis, place).orders == orders
            if not _y_monomials(basis):
                # the x-ladder is exact: no precision is ever requested
                assert seen == []
                continue
            assert seen[0] == 1
            # at infinity the pole orders of the basis are distinct, so the
            # leading terms alone separate the orders.  At a branch place
            # the exact x-ladder has odd orders and y dx/dt an even one, so
            # one y-rung needs no doubling, two or more do, except over
            # x0 = 0 of G2, where x = t^2/24 is a monomial, as at infinity.
            # At an ordinary place one coefficient of y cannot tell its
            # rung from the x-ladder.
            if place.kind == "infinity" or (model, place) == (G2, Place.branch(0)):
                assert max(seen) == 1
            elif place.kind == "branch":
                assert (max(seen) > 1) == (_y_monomials(basis) > 1)
            else:
                assert max(seen) > 1

    def test_each_place_checked_once(self, monkeypatch):
        # from a tiny start every place with a y-monomial doubles through
        # several precisions, one y frame each; only a new place checks
        import collections

        import ramloci.curves as curves_mod

        checked = []
        real_check = HyperellipticModel.check_place

        def spy_check(model, place):
            checked.append((model, place))
            return real_check(model, place)

        monkeypatch.setattr(HyperellipticModel, "check_place", spy_check)
        seen = _spy_y_precision(monkeypatch)
        monkeypatch.setattr(curves_mod, "start_precision", lambda g, i: 1)
        _exact_frame.cache_clear()
        _local_frame.cache_clear()
        for i in (0, 2):
            for model, place in PRECISION_PLACES:
                _series_orders(model, build_basis(model, i), place)
        assert len(seen) > len(PRECISION_PLACES)
        assert collections.Counter(checked) == collections.Counter(PRECISION_PLACES)
        # a place off the curve raises on every call and is never cached
        bad = Place.ordinary(2, 5)
        with pytest.raises(NotOnCurveError) as direct:
            real_check(E2, bad)
        cached = (_exact_frame.cache_info().currsize, _local_frame.cache_info().currsize)
        for _ in range(2):
            for call in (
                lambda: expand_at(E2, DX_OVER_Y, bad, 8),
                lambda: _series_orders(E2, build_basis(E2, 0), bad),
                lambda: order_sequence_at(E2, build_basis(E2, 0), bad),
            ):
                with pytest.raises(NotOnCurveError) as raised:
                    call()
                assert str(raised.value) == str(direct.value)
        assert (_exact_frame.cache_info().currsize, _local_frame.cache_info().currsize) == cached

    def test_model_hash_is_computed_once(self, monkeypatch):
        # every expand_at looks the model up in the _local_frame cache
        model = HyperellipticModel.from_poly(X**3 - 2 * X + 5)
        twin = HyperellipticModel.from_poly(X**3 - 2 * X + 5)
        assert model == twin and hash(model) == hash(twin)
        hashed = []
        real_hash = UniPoly.__hash__

        def spy_hash(p):
            hashed.append(p)
            return real_hash(p)

        monkeypatch.setattr(UniPoly, "__hash__", spy_hash)
        for _ in range(10):
            expand_at(model, DX_OVER_Y, Place.infinity(), 8)
        assert hashed == []

    def test_place_hash_is_computed_once(self, monkeypatch):
        # the _local_frame cache hashes the place on every expand_at
        place = Place.ordinary(Fraction(2), Fraction(3))
        assert hash(place) == hash(Place.ordinary(2, 3))
        expand_at(E2, DX_OVER_Y, place, 8)
        hashed = []
        real_hash = Fraction.__hash__

        def spy_hash(q):
            hashed.append(q)
            return real_hash(q)

        monkeypatch.setattr(Fraction, "__hash__", spy_hash)
        for _ in range(10):
            expand_at(E2, DX_OVER_Y, place, 8)
        assert hashed == []

    @pytest.mark.parametrize("i", range(0, 9))
    def test_default_start_needs_no_doubling(self, monkeypatch, i):
        seen = _spy_y_precision(monkeypatch)
        for model, place in PRECISION_PLACES:
            basis = build_basis(model, i)
            seen.clear()
            _series_orders(model, basis, place)
            if _y_monomials(basis):
                assert seen == [start_precision(model.genus, i)]
            else:
                assert seen == []


class TestSectionLadder:
    """_series_orders builds y times the sections x^a y^b dx/y as
    x-ladders over the local frame; the reference expands each monomial
    by Horner's rule and multiplies by dx/y."""

    @pytest.mark.parametrize("i", range(0, 5))
    def test_rungs_match_monomial_expansions(self, monkeypatch, i):
        import ramloci.curves as curves_mod

        seen = []
        real = curves_mod.staircase_valuations

        def spy(series_list):
            seen.append(list(series_list))
            return real(series_list)

        monkeypatch.setattr(curves_mod, "staircase_valuations", spy)
        for model, place in PRECISION_PLACES:
            basis = build_basis(model, i)
            prec = start_precision(model.genus, i)
            seen.clear()
            _series_orders(model, basis, place)
            [rungs] = seen
            reference = monomial_sections(model, basis, place, prec)
            assert len(rungs) == len(reference) == len(basis)
            # in the sections' own orders: rung t^(twist - v(y)) against
            # reference * y t^-v(y), y over its leading power being a unit
            y = expand_at(model, model.monomial(0, 1), place, prec)
            twist = i + 1 if place.kind == "infinity" else 0
            unit = y.shift(-y.valuation)
            for rung, ref in zip(rungs, reference):
                rung = rung.shift(twist - y.valuation)
                ref = ref * unit
                top = min(rung.known_up_to, ref.known_up_to)
                assert top >= prec
                for e in range(min(rung.lead, ref.lead), top):
                    assert rung.coefficient(e) == ref.coefficient(e)

    @settings(deadline=None, max_examples=30)
    @given(
        degree=st.sampled_from([3, 5]),
        roots=st.lists(
            st.fractions(-4, 4, max_denominator=3), min_size=0, max_size=5, unique=True
        ),
        coeffs=st.lists(st.integers(-9, 9), min_size=5, max_size=5),
        i=st.integers(0, 4),
    )
    def test_orders_match_monomial_expansions(self, degree, roots, coeffs, i):
        """Random monic squarefree f with some rational roots: at every
        rational branch place and at infinity the ladder gives the orders
        of the per-monomial expansions."""
        roots = roots[:degree]
        f = UniPoly(coeffs[: degree - len(roots)] + [1])
        for r in roots:
            f = f * (X - r)
        try:
            model = HyperellipticModel.from_poly(f)
        except NotSquarefreeError:
            assume(False)
        basis = build_basis(model, i)
        places = [Place.branch(x0) for x0 in model.branch_x] + [Place.infinity()]
        for place in places:
            orders = _series_orders(model, basis, place).orders
            assert orders == order_sequence_by_monomials(model, basis, place), place
            assert order_sequence_at(model, basis, place).orders == orders, place

    @settings(deadline=None, max_examples=30)
    @given(
        degree=st.sampled_from([3, 5]),
        coeffs=st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        x0=st.fractions(-3, 3, max_denominator=3),
        y0=st.fractions(1, 4, max_denominator=3),
        i=st.integers(0, 5),
    )
    def test_orders_match_monomial_expansions_at_ordinary_places(
        self, degree, coeffs, x0, y0, i
    ):
        """Random monic squarefree f through (x0, y0), its constant term
        shifted so that f(x0) = y0^2: at (x0, y0) and (x0, -y0) the ladder
        gives the orders of the per-monomial expansions."""
        f = UniPoly([0] + coeffs[: degree - 1] + [1])
        f = f + (y0 * y0 - f.evaluate(x0))
        try:
            model = HyperellipticModel.from_poly(f)
        except NotSquarefreeError:
            assume(False)
        basis = build_basis(model, i)
        for place in (Place.ordinary(x0, y0), Place.ordinary(x0, -y0)):
            orders = _series_orders(model, basis, place).orders
            assert orders == order_sequence_by_monomials(model, basis, place), place
            assert order_sequence_at(model, basis, place).orders == orders, place

    @pytest.mark.parametrize("i", [0, 1])
    def test_no_root_and_no_inverse_without_a_y_monomial(self, monkeypatch, i):
        # a regression guard: at i <= 1 the basis is 1, x, ..., and every
        # section times y is the exact x^a dx/dt
        import ramloci.curves as curves_mod

        expected = {
            (model, place): _series_orders(model, build_basis(model, i), place)
            for model, place in PRECISION_PLACES
        }

        def refuse(*args, **kwargs):
            raise AssertionError("_series_orders expanded y or inverted a series")

        for name in ("series_sqrt", "_solve_branch_parameter", "series_invert"):
            monkeypatch.setattr(curves_mod, name, refuse)
        seen = []
        real = curves_mod.staircase_valuations

        def spy(series_list):
            seen.extend(series_list)
            return real(series_list)

        monkeypatch.setattr(curves_mod, "staircase_valuations", spy)
        _exact_frame.cache_clear()
        _local_frame.cache_clear()
        for (model, place), seq in expected.items():
            assert _series_orders(model, build_basis(model, i), place) == seq
        assert seen and all(s.exact for s in seen)

    def test_builds_no_curve_function(self, monkeypatch):
        # a regression guard: the sections are series products only
        expected = {
            (model, place, i): _series_orders(model, build_basis(model, i), place)
            for model, place in [
                (G2, Place.branch(1)),
                (E2, Place.ordinary(2, 3)),
                (G3, Place.infinity()),
            ]
            for i in range(0, 5)
        }

        def refuse(self, *args):
            raise AssertionError("_series_orders built a CurveFunction")

        monkeypatch.setattr(CurveFunction, "__init__", refuse)
        _local_frame.cache_clear()
        for (model, place, i), seq in expected.items():
            assert _series_orders(model, build_basis(model, i), place) == seq


class TestClosedForms:
    """order_sequence_at reads the orders at rational branch places and
    at infinity off closed forms in the basis exponents; the series
    ladder, _series_orders, is their oracle."""

    @settings(deadline=None, max_examples=60)
    @given(
        g=st.integers(1, 4),
        roots=st.lists(st.integers(-4, 4), max_size=9, unique=True),
        coeffs=st.lists(st.integers(-9, 9), min_size=9, max_size=9),
        i=st.integers(0, 12),
    )
    def test_closed_forms_match_series(self, g, roots, coeffs, i):
        """Random odd monic squarefree f of genus 1..4, split over small
        integer roots times a random monic factor."""
        degree = 2 * g + 1
        roots = roots[:degree]
        f = UniPoly(coeffs[: degree - len(roots)] + [1])
        for r in roots:
            f = f * (X - r)
        try:
            model = HyperellipticModel.from_poly(f)
        except NotSquarefreeError:
            assume(False)
        basis = build_basis(model, i)
        for place in [Place.branch(x0) for x0 in model.branch_x] + [Place.infinity()]:
            assert _series_orders(model, basis, place) == order_sequence_at(model, basis, place), place

    def test_weights_expand_no_series(self, monkeypatch):
        # a regression guard: total_weight and curve weights read located
        # orders off the closed forms, with no local frame and no staircase
        import ramloci.curves as curves_mod

        cases = [(model, i) for model in (E1, E2, G2, G3) for i in range(9)]
        expected = [total_weight(model, i) for model, i in cases]
        split = "y^2 = x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 24*x"
        argv = ["curve", "weights", split, "--i", "4", "--format", "json"]
        plain = io.StringIO()
        assert main(argv, out=plain) == 0

        def refuse(*args):
            raise AssertionError("the weights expanded a series")

        monkeypatch.setattr(curves_mod, "_local_frame", refuse)
        monkeypatch.setattr(curves_mod, "staircase_valuations", refuse)
        assert [total_weight(model, i) for model, i in cases] == expected
        patched = io.StringIO()
        assert main(argv, out=patched) == 0
        assert patched.getvalue() == plain.getvalue()

    @pytest.mark.parametrize(
        "model, factor, where",
        [(G2, X - 1, "(1, 0)"), (E2, X - 5, "infinity")],
    )
    def test_wronskian_cross_check_catches_a_wrong_determinant(self, monkeypatch, model, factor, where):
        # one extra root at a branch place, or one extra degree, must not
        # pass as the weight of a located place
        import ramloci.curves as curves_mod

        real = curves_mod._wronskian_parts

        def wrong(model, basis):
            det, k, e, c = real(model, basis)
            return curves_mod._WronskianParts(det * factor, k, e, c)

        monkeypatch.setattr(curves_mod, "_wronskian_parts", wrong)
        with pytest.raises(InternalCheckError, match=rf"weight at {re.escape(where)}: order sequence gave"):
            total_weight(model, 2)

    def test_basis_of_another_model_is_a_caller_error(self):
        basis = build_basis(E1, 3)
        for place in (Place.branch(0), Place.infinity(), Place.ordinary(5, 10)):
            with pytest.raises(ValueError, match="another model"):
                order_sequence_at(G2, basis, place)
        # an equal model built again is the same model
        again = HyperellipticModel.from_poly(G2.f)
        assert order_sequence_at(again, build_basis(G2, 3), Place.branch(0)).orders == (0, 1, 2, 4, 6)

    def test_place_and_range_checks_hold_on_the_closed_forms(self):
        with pytest.raises(NotOnCurveError) as raised:
            order_sequence_at(E1, build_basis(E1, 2), Place.branch(2))
        with pytest.raises(NotOnCurveError) as direct:
            E1.check_place(Place.branch(2))
        assert str(raised.value) == str(direct.value)
        # a located place is checked without building its local frame
        misses = _exact_frame.cache_info().misses
        model = HyperellipticModel.from_poly(X**3 - 4 * X)
        for place in (Place.branch(2), Place.infinity()):
            order_sequence_at(model, build_basis(model, 3), place)
        assert _exact_frame.cache_info().misses == misses
        # a basis whose exponents leave the system's degree is an engine bug
        bad = MonomialBasis(G2, 0, ((0, 0), (5, 0)))
        for place in (Place.branch(1), Place.infinity()):
            with pytest.raises(InternalCheckError, match="out of range"):
                order_sequence_at(G2, bad, place)


def _staircase_by_ratios(series_list):
    """Staircase elimination by one Fraction ratio per clash."""
    work = list(series_list)
    while True:
        by_val = {}
        for idx, s in enumerate(work):
            if not s.nums:
                raise InconclusiveError("vanished")
            if s.lead in by_val:
                pivot, other = work[by_val[s.lead]], s
                ratio = other.coefficient(s.lead) / pivot.coefficient(s.lead)
                work[idx] = other - pivot.scale(ratio)
                break
            by_val[s.lead] = idx
        else:
            return sorted(by_val)


class TestStaircase:
    def test_distinct_valuations(self):
        a = Series(0, [1, 2, 3, 4])
        b = Series(1, [5, 6, 7])
        assert staircase_valuations([a, b]) == [0, 1]

    def test_elimination(self):
        a = Series(0, [1, 1, 0, 0, 0, 0])
        b = Series(0, [1, 1, 1, 0, 0, 0])
        assert staircase_valuations([a, b]) == [0, 2]

    def test_dependent_series_inconclusive(self):
        s = Series(0, [1, 2, 3])
        with pytest.raises(InconclusiveError):
            staircase_valuations([s, s])

    def test_mixed_denominators(self):
        a = Series(0, [Fraction(1, 2), Fraction(1, 3), 0, 1])
        b = Series(0, [Fraction(2, 3), Fraction(4, 9), Fraction(1, 5), 0])
        assert staircase_valuations([a, b]) == [0, 2]

    def test_runs_without_fractions(self, monkeypatch):
        import ramloci.curves as curves_mod
        import ramloci.numeric as numeric_mod

        seen = []
        real = curves_mod.staircase_valuations

        def spy(series_list):
            seen.append(list(series_list))
            return real(series_list)

        monkeypatch.setattr(curves_mod, "staircase_valuations", spy)
        for model in (G2, G3):
            _series_orders(model, build_basis(model, 4), Place.infinity())
        _series_orders(G2, build_basis(G2, 4), Place.branch(2))
        expected = [real(sers) for sers in seen]

        def no_fractions(*args):
            raise AssertionError("staircase_valuations built a Fraction")

        monkeypatch.setattr(curves_mod, "Fraction", no_fractions)
        monkeypatch.setattr(numeric_mod, "Fraction", no_fractions)
        assert [real(sers) for sers in seen] == expected
        assert [len(vals) for vals in expected] == [6, 7, 6]  # g + i sections each

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_elimination_by_fraction_ratios(self, specs):
        series = [Series(lead, coeffs) for lead, coeffs in specs]
        try:
            expected = _staircase_by_ratios(series)
        except InconclusiveError:
            with pytest.raises(InconclusiveError):
                staircase_valuations(series)
            return
        assert staircase_valuations(series) == expected

    def test_precision_cap_path(self, monkeypatch):
        import ramloci.curves as curves_mod

        def always_inconclusive(series_list):
            raise InconclusiveError("forced")

        monkeypatch.setattr(curves_mod, "staircase_valuations", always_inconclusive)
        monkeypatch.setattr(curves_mod, "PRECISION_CAP", 64)
        with pytest.raises(InconclusiveError, match="precision cap"):
            _series_orders(E1, build_basis(E1, 1), Place.infinity())


def _full_matrix_wronskian(model, basis):
    """Reference: Bareiss on the whole n x n matrix (R_m), then the
    canonical form by a gcd against the whole denominator (2f)^(n(n-1)/2)."""
    n = len(basis)
    f = model.f
    fp = f.derivative()
    columns = []
    for a_exp, b_exp in basis.exponents:
        entry = X**a_exp
        col = [entry]
        for m in range(n - 1):
            entry = 2 * f * entry.derivative() + (b_exp - 2 * m) * fp * entry
            col.append(entry)
        columns.append(col)
    det = bareiss_det([[columns[k][m] for k in range(n)] for m in range(n)])
    y_columns = sum(b for _, b in basis.exponents)
    num = det * f ** (y_columns // 2)
    den = (2 * f) ** (n * (n - 1) // 2)
    common = num.gcd(den)
    num, den = num / common, den / common
    num = num * (1 / den.lead)
    return num, y_columns % 2, den.monic()


# y^2 = x^3 - x/4: 2f and f' have a denominator, which the integer
# column recursion carries as a power of D (id suffix q)
HALF_ROOTS = HyperellipticModel.from_poly(X**3 - X / 4)
REFERENCE_CASES = [
    (model, i) for model, i_max in [(E1, 8), (E2, 8), (G2, 6), (G3, 6), (HALF_ROOTS, 6)]
    for i in range(i_max + 1)
]


class TestWronskian:
    @pytest.mark.parametrize(
        "model, i", REFERENCE_CASES,
        ids=[
            f"g{m.genus}{'' if m.splits else 'ns'}{'' if m.f.den == 1 else 'q'}-i{i}"
            for m, i in REFERENCE_CASES
        ],
    )
    def test_matches_full_matrix_reference(self, model, i):
        # covers bases with two to four y-columns (i >= 4), which the
        # series and sympy oracles do not reach
        w = affine_wronskian(model, build_basis(model, i))
        assert (w.num, w.k, w.den) == _full_matrix_wronskian(model, build_basis(model, i))

    def test_two_dim_basis_gives_one(self):
        w = affine_wronskian(E1, build_basis(E1, 1))
        assert w == E1.monomial(0, 0)

    def test_one_dim_basis_gives_one(self):
        assert affine_wronskian(E1, build_basis(E1, 0)) == E1.monomial(0, 0)

    def test_second_derivative_case(self):
        # basis {1, x, y}: the wronskian is the second x-derivative of y,
        # y'' = (2 f f'' - f'^2) y / (4 f^2)
        w = affine_wronskian(E2, build_basis(E2, 2))
        f = E2.f
        fp, fpp = f.derivative(), f.derivative().derivative()
        y2 = CurveFunction(E2, 2 * f * fpp - fp * fp, 1, 4 * f * f)
        assert w == y2
        # verify against the local expansion at an ordinary place: t = x - x0
        place = Place.ordinary(2, 3)
        direct = expand_at(E2, w, place, 16)
        y_series = expand_at(E2, E2.monomial(0, 1), place, 18)
        via_series = y_series.derivative().derivative()
        for e in range(0, 12):
            assert direct.coefficient(e) == via_series.coefficient(e)

    def test_valuation_bookkeeping_matches_series(self):
        # the wronskian, and psi_1..psi_8: y^k with k = 1 for even n
        w = affine_wronskian(E1, build_basis(E1, 2))
        psis = [division_polynomial(E1, n) for n in range(1, 9)]
        for fn in [w, *psis]:
            for x0 in E1.branch_x:
                by_series = expand_at(E1, fn, Place.branch(x0), 40).valuation
                assert by_series == ord_at_branch(E1, fn, x0)
            # infinity
            s = expand_at(E1, fn, Place.infinity(), 40)
            assert s.valuation == ord_at_infinity(E1, fn)
        # psi_n has a pole of order n^2 - 1 at the origin of the group law
        for n, psi in enumerate(psis, start=1):
            assert ord_at_infinity(E1, psi) == -(n * n - 1)

    @pytest.mark.parametrize(
        "f, x0, y0",
        [(X**3 + 1, 2, 3), (X**7 - X + 1, 1, 1), (X**5 + 1, 0, 1)],
        ids=["x^3+1", "x^7-x+1", "x^5+1"],
    )
    @pytest.mark.parametrize("i", range(0, 4))
    def test_matches_series_at_ordinary_place(self, f, x0, y0, i):
        # t = x - x0 at an ordinary place, so d/dx = d/dt on expansions
        model = HyperellipticModel.from_poly(f)
        place = Place.ordinary(x0, y0)
        basis = build_basis(model, i)
        n = len(basis)
        fns = [model.monomial(a, b) for a, b in basis.exponents]
        rows = [[expand_at(model, fn, place, 12 + n) for fn in fns]]
        for _ in range(n - 1):
            rows.append([s.derivative() for s in rows[-1]])
        via_series = cofactor_det(rows)
        direct = expand_at(model, affine_wronskian(model, basis), place, 12 + n)
        for e in range(12):
            assert via_series.coefficient(e) == direct.coefficient(e)

    @pytest.mark.parametrize(
        "model, i_max", [(E1, 3), (E2, 3), (G2, 2)], ids=["x^3-x", "x^3+1", "g2"]
    )
    def test_matches_sympy_wronskian(self, model, i_max):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def expr(p):
            return sum(
                sympy.Rational(c.numerator, c.denominator) * x**k
                for k, c in enumerate(p.coeffs)
            )

        sqrt_f = sympy.sqrt(expr(model.f))
        for i in range(i_max + 1):
            basis = build_basis(model, i)
            funcs = [x**a * sqrt_f**b for a, b in basis.exponents]
            w = affine_wronskian(model, basis)
            ours = expr(w.num) * sqrt_f**w.k / expr(w.den)
            assert sympy.simplify(sympy.wronskian(funcs, x) - ours) == 0

    def test_branch_ord_total_matches_rational_roots_when_split(self):
        for i in (1, 2, 3):
            w = affine_wronskian(E1, build_basis(E1, i))
            per_root = sum(ord_at_branch(E1, w, x0) for x0 in E1.branch_x)
            assert branch_ord_total(E1, w) == per_root
        # psi_n = p y for even n, with p prime to f: a simple zero at each
        # of the three 2-torsion points; psi_n avoids them for odd n
        for n in range(1, 9):
            psi = division_polynomial(E1, n)
            per_root = sum(ord_at_branch(E1, psi, x0) for x0 in E1.branch_x)
            assert branch_ord_total(E1, psi) == per_root == (3 if n % 2 == 0 else 0)

    def test_stripping_the_zero_polynomial_raises(self):
        # 0.gcd(f) is f, so a strip loop without a guard never ends: the
        # call runs in a subprocess first, so that a hang fails the test
        code = (
            "from ramloci.curves import _strip_branch_factors\n"
            "from ramloci.numeric import UniPoly\n"
            "try:\n"
            "    _strip_branch_factors(UniPoly(), UniPoly([0, -1, 0, 1]))\n"
            "except ValueError:\n"
            "    print('ValueError')\n"
        )
        src = str(Path(ramloci.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=30,
        )
        assert proc.stdout.strip() == "ValueError", proc.stderr
        with pytest.raises(ValueError):
            _strip_branch_factors(UniPoly(), E1.f)

    @settings(max_examples=60, deadline=None)
    @given(
        split=st.booleans(),
        degree=st.sampled_from([3, 5]),
        roots=st.lists(st.integers(-6, 6), min_size=5, max_size=5, unique=True),
        coeffs=st.lists(st.fractions(-9, 9, max_denominator=2), min_size=5, max_size=5),
        i=st.integers(0, 8),
    )
    def test_parts_valuations_match_canonical_wronskian(self, split, degree, roots, coeffs, i):
        if split:
            f = UniPoly.const(1)
            for r in roots[:degree]:
                f = f * (X - r)
        else:
            f = X**degree + UniPoly(coeffs[:degree])
        assume(f.is_squarefree())
        model = HyperellipticModel.from_poly(f)
        basis = build_basis(model, i)
        parts = _wronskian_parts(model, basis)
        wron = affine_wronskian(model, basis)
        # W = c det y^(k%2) / f^e, uncancelled
        assert wron.k == parts.k % 2
        assert wron.num * f**parts.e == parts.det * parts.c * wron.den
        for x0 in model.branch_x:
            assert parts.branch_ord(x0) == ord_at_branch(model, wron, x0)
        assert parts.infinity_ord(model) == ord_at_infinity(model, wron)
        stripped = _strip_branch_factors(parts.det, f)
        assert parts.branch_total(f, stripped) == branch_ord_total(model, wron)

    def test_bookkeeping_never_divides_by_a_power_of_f(self, monkeypatch):
        # a regression guard: total_weight and torsion_check read every
        # wronskian valuation off the uncancelled parts
        import ramloci.curves as curves_mod

        weights = {(m, i): total_weight(m, i) for m in (E1, E2, G2, G3) for i in range(0, 7)}
        torsion = {(m, j): torsion_check(m, j) for m in (E1, E2) for j in range(1, 7)}
        fs = {m.f for m in (E1, E2, G2, G3)}
        calls = {"root_multiplicity": 0}
        real_mult, real_pow = UniPoly.root_multiplicity, UniPoly.__pow__

        def mult_spy(self, x0):
            calls["root_multiplicity"] += 1
            return real_mult(self, x0)

        def pow_spy(self, e):
            if self.monic() in fs:
                raise AssertionError("the bookkeeping raised f to a power")
            return real_pow(self, e)

        def refuse(*args):
            raise AssertionError("the bookkeeping built the canonical wronskian")

        monkeypatch.setattr(UniPoly, "root_multiplicity", mult_spy)
        monkeypatch.setattr(UniPoly, "__pow__", pow_spy)
        monkeypatch.setattr(curves_mod, "affine_wronskian", refuse)
        for (model, i), report in weights.items():
            calls["root_multiplicity"] = 0
            assert total_weight(model, i) == report
            assert calls["root_multiplicity"] == len(model.branch_x), (model.f, i)
        for (model, j), verdict in torsion.items():
            assert torsion_check(model, j) is verdict

    @pytest.mark.parametrize("model", [E1, E2], ids=["x^3-x", "x^3+1"])
    def test_ordinary_locus_matches_norm(self, model):
        # off the branch places a zero of num y^k / den is a zero of the
        # norm num^2 (-f)^k, so both give the same squarefree locus
        f = model.f
        for j in range(1, 7):
            wron = affine_wronskian(model, build_basis(model, j))
            norm = wron.num * wron.num * (-f) ** wron.k
            while (shared := norm.gcd(f)).degree > 0:
                norm = norm.exact_div(shared)
            ordinary = _strip_branch_factors(wron.num, f).squarefree_part()
            assert ordinary.monic() == norm.squarefree_part().monic(), j


class TestTotalWeight:
    def test_elliptic_two_torsion(self):
        report = total_weight(E1, 1)
        assert report.total == 4
        weights = [(str(p), seq.weight) for p, seq in report.entries]
        assert weights == [
            ("(-1, 0)", 1),
            ("(0, 0)", 1),
            ("(1, 0)", 1),
            ("infinity", 1),
        ]
        assert report.remainder == 0

    def test_genus2_canonical(self):
        report = total_weight(G2, 0)
        assert report.total == 8  # g(g+i)^2
        branch_weights = [seq.weight for p, seq in report.entries if p.kind == "branch"]
        assert branch_weights == [1, 1, 1, 1, 1]
        inf_weight = report.entries[-1][1].weight
        assert inf_weight == 3
        # classical count: subtracting the base twist g at infinity leaves
        # six simple points of total weight g^3 - g = 6
        assert sum(branch_weights) + (inf_weight - G2.genus) == 6

    def test_genus2_i1(self):
        assert total_weight(G2, 1).total == 18

    def test_nonsplit_model_bookkeeping(self):
        report = total_weight(E2, 1)
        assert report.total == 4
        located = [(str(p), seq.weight) for p, seq in report.entries]
        assert located == [("(-1, 0)", 1), ("infinity", 1)]
        assert report.remainder_branch == 2  # the two conjugate branch places
        assert report.remainder_ordinary == 0

    @pytest.mark.parametrize("model", [E1, E2], ids=["x^3-x", "x^3+1"])
    @pytest.mark.parametrize("i", range(0, 6))
    def test_brill_segre_elliptic(self, model, i):
        g = model.genus
        report = total_weight(model, i)
        r, d = g + i - 1, 2 * g - 1 + i
        assert report.total == (r + 1) * (d + (g - 1) * r)
        assert report.total == g * (g + i) ** 2
        assert report.remainder >= 0

    @pytest.mark.parametrize("i", range(0, 9))
    def test_brill_segre_genus2(self, i):
        g = G2.genus
        report = total_weight(G2, i)
        r, d = g + i - 1, 2 * g - 1 + i
        assert report.total == (r + 1) * (d + (g - 1) * r)
        assert report.total == g * (g + i) ** 2
        assert report.remainder >= 0

    @pytest.mark.parametrize("i", range(0, 9))
    def test_brill_segre_genus3(self, i):
        g = G3.genus
        report = total_weight(G3, i)
        r, d = g + i - 1, 2 * g - 1 + i
        assert report.total == (r + 1) * (d + (g - 1) * r)
        assert report.total == g * (g + i) ** 2
        assert report.remainder >= 0

    @settings(deadline=None, max_examples=40)
    @given(
        degree=st.sampled_from([3, 5, 7]),
        split=st.booleans(),
        roots=st.lists(st.integers(-6, 6), min_size=7, max_size=7, unique=True),
        coeffs=st.lists(st.integers(-9, 9), min_size=7, max_size=7),
        i=st.integers(0, 4),
    )
    def test_weight_bookkeeping_on_random_curves(self, degree, split, roots, coeffs, i):
        """Random monic squarefree odd f, split over small integer roots
        or with random coefficients: the located weights and the
        nonnegative remainders add up to g(g+i)^2."""
        if split:
            f = UniPoly([1])
            for r in roots[:degree]:
                f = f * (X - r)
        else:
            f = UniPoly(coeffs[:degree] + [1])
        try:
            model = HyperellipticModel.from_poly(f)
        except NotSquarefreeError:
            assume(False)
        g = model.genus
        report = total_weight(model, i)
        located = sum(seq.weight for _, seq in report.entries)
        assert report.total == g * (g + i) ** 2
        assert located + report.remainder == report.total
        assert report.remainder_branch >= 0 and report.remainder_ordinary >= 0
        assert report.remainder == report.remainder_branch + report.remainder_ordinary

    def test_start_precision_policy(self):
        # d + 1 for the degree d = 2g - 1 + i of the twisted system
        assert start_precision(2, 3) == 7
        for g in range(1, 5):
            for i in range(0, 9):
                assert start_precision(g, i) == 2 * g + i


class TestDivisionPolynomials:
    def test_bases(self):
        assert division_polynomial(E1, 1) == E1.monomial(0, 0)
        psi2 = division_polynomial(E1, 2)
        assert psi2.k == 1
        assert psi2.num == 2
        psi3 = division_polynomial(E1, 3)
        assert psi3.k == 0
        assert psi3.num == 3 * X**4 - 6 * X**2 - 1

    def test_psi4_matches_short_weierstrass_formula(self):
        # y^2 = x^3 + a x + b: psi4 = 4y(x^6 + 5a x^4 + 20b x^3 - 5a^2 x^2 - 4ab x - 8b^2 - a^3)
        for model, a, b in ((E1, Fraction(-1), Fraction(0)), (E2, Fraction(0), Fraction(1))):
            psi4 = division_polynomial(model, 4)
            expected = 4 * (
                X**6
                + 5 * a * X**4
                + 20 * b * X**3
                - 5 * a**2 * X**2
                - 4 * a * b * X
                - (8 * b**2 + a**3)
            )
            assert psi4.k == 1
            assert psi4.num == expected

    def test_psi5_vanishes_exactly_on_five_torsion(self):
        psi5 = division_polynomial(E1, 5)
        assert psi5.k == 0
        assert psi5.num.degree == 12  # (25 - 1) / 2
        assert psi5.num.gcd(E1.f).degree == 0  # 5-torsion avoids 2-torsion

    @pytest.mark.parametrize("model", [E1, E2], ids=["x^3-x", "x^3+1"])
    def test_norm_degree(self, model):
        # psi_n^2 = p^2 f^k has degree n^2 - 1 in x for odd and even n alike
        for n in range(1, 13):
            psi = division_polynomial(model, n)
            assert 2 * psi.num.degree + 3 * psi.k == n * n - 1

    def test_needs_genus_one(self):
        with pytest.raises(UnsupportedModelError):
            division_polynomial(G2, 2)

    def test_vanishes_on_sympy_torsion_points(self):
        # y^2 = x^3 + 1 has torsion Z/6: psi_m vanishes at a point of
        # exact order n >= 3 iff n divides m
        ell = pytest.importorskip("sympy.ntheory.elliptic_curve")
        points = [
            (Fraction(str(p.x)), Fraction(str(p.y)), int(p.order()))
            for p in ell.EllipticCurve(0, 1).torsion_points()
        ]
        points = [(px, py, n) for px, py, n in points if n >= 3]
        assert sorted(n for _, _, n in points) == [3, 3, 6, 6]
        for px, py, n in points:
            for m in range(1, 13):
                psi = division_polynomial(E2, m)
                value = psi.num.evaluate(px) * py**psi.k
                assert (value == 0) == (m % n == 0), (px, py, m)


class TestTorsionOracle:
    @pytest.mark.parametrize("model", [E1, E2], ids=["x^3-x", "x^3+1"])
    @pytest.mark.parametrize("j", range(1, 7))
    def test_ramification_is_torsion(self, model, j):
        assert torsion_check(model, j)
        assert total_weight(model, j).total == (j + 1) ** 2

    @settings(deadline=None, max_examples=25)
    @given(a=st.integers(-6, 6), b=st.integers(-6, 6))
    def test_ramification_is_torsion_on_random_curves(self, a, b):
        """y^2 = x^3 + a x + b with nonzero discriminant: for j = 1..4
        the ramification of the j-twisted system is the (j+1)-torsion."""
        assume(4 * a**3 + 27 * b**2 != 0)
        model = HyperellipticModel.from_poly(X**3 + a * X + b)
        for j in range(1, 5):
            assert torsion_check(model, j), j
            assert total_weight(model, j).total == (j + 1) ** 2

    def test_two_torsion_locus_explicitly(self):
        # j = 1: the x-locus is exactly the roots of f
        assert torsion_check(E1, 1)
        assert torsion_check(E2, 1)

    def test_needs_genus_one(self):
        with pytest.raises(UnsupportedModelError):
            torsion_check(G2, 1)

    def test_rejects_j_zero(self):
        with pytest.raises(ValueError):
            torsion_check(E1, 0)
