import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramloci import _kernels
from ramloci.errors import (
    CannotDetermineValuationError,
    NotASquareError,
    PrecisionExhaustedError,
    RamlociError,
)
from ramloci.numeric import (
    ParamPoly,
    Series,
    UniPoly,
    _bareiss,
    _certified_coprime,
    _long_div,
    _pack,
    _primitive,
    bareiss_det,
    poly_on_series,
    rat_sqrt,
    series_invert,
    series_sqrt,
)

from _reference import cofactor_det, long_div_by_fractions

G = ParamPoly.g()
I = ParamPoly.i()

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=20
)


def _triple(s: Series):
    return (s.lead, s.coeffs, s.exact)


def _assert_canonical(s):
    """The stored form of a Series or UniPoly: integer numerators over a
    positive denominator with no common content, stripped, and equal to
    its rebuild from coeffs."""
    assert type(s.den) is int and s.den > 0
    assert type(s.nums) is tuple and all(type(v) is int for v in s.nums)
    assert math.gcd(s.den, *s.nums) == 1
    if isinstance(s, UniPoly):
        assert not s.nums or s.nums[-1]
        rebuilt = UniPoly(s.coeffs)
    else:
        if s.nums:
            assert s.nums[0] and (s.nums[-1] or not s.exact)
        rebuilt = Series(s.lead, s.coeffs, s.exact)
    assert s == rebuilt and hash(s) == hash(rebuilt)


def _convolve_frac(a, b, n_out):
    """Reference: truncated product of Fraction lists through the int kernel."""
    pa, da = _pack(a)
    pb, db = _pack(b)
    return [Fraction(c, da * db) for c in _kernels.convolve(pa, pb, n_out)]


def _divmod_by_fractions(p: UniPoly, d: UniPoly):
    """Reference: schoolbook long division over Q on Fraction lists."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quo, rem = long_div_by_fractions(p.coeffs, d.coeffs)
    return UniPoly(quo), UniPoly(rem)


def _exact_div_by_fractions(p: UniPoly, d: UniPoly) -> UniPoly:
    q, r = _divmod_by_fractions(p, d)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def _gcd_by_fractions(p: UniPoly, q: UniPoly) -> UniPoly:
    """Reference: Euclid's algorithm over Q, made monic."""
    while q:
        p, q = q, _divmod_by_fractions(p, q)[1]
    return p if p.is_zero() else p * (1 / p.lead)


def _horner_on_series_objects(p: UniPoly, x: Series) -> Series:
    """Reference: Horner's rule on the coefficientwise product and sum."""
    acc = Series.zero()
    for c in reversed(p.coeffs):
        acc = _add_by_coefficients(_mul_by_coefficients(acc, x), Series.monomial(0, c))
    return acc


def _mul_by_coefficients(a: Series, b: Series) -> Series:
    """Reference product: each coefficient of the justified window is a sum
    of Fraction products of coefficient() lookups."""
    if a.is_zero() or b.is_zero():
        return Series.zero()
    base = a.lead + b.lead
    k = min(a.lead + b.known_up_to, b.lead + a.known_up_to)
    exact = math.isinf(k)
    top = base + len(a.coeffs) + len(b.coeffs) - 1 if exact else k
    cs = [
        sum((a.coefficient(j) * b.coefficient(e - j) for j in range(a.lead, e - b.lead + 1)), Fraction(0))
        for e in range(base, top)
    ]
    return Series(base, cs, exact)


def _add_by_coefficients(a: Series, b: Series) -> Series:
    """Reference sum: one coefficient() lookup per exponent of the window."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    k = min(a.known_up_to, b.known_up_to)
    if math.isinf(k):
        base = min(a.lead, b.lead)
        top = max(a.lead + len(a.coeffs), b.lead + len(b.coeffs))
        return Series(base, [a.coefficient(e) + b.coefficient(e) for e in range(base, top)], True)
    base = min(a.lead, b.lead, k)
    return Series(base, [a.coefficient(e) + b.coefficient(e) for e in range(base, k)])


def _evaluate_by_fractions(p: UniPoly, v) -> Fraction:
    """Reference: Horner's rule on Fractions."""
    v = Fraction(v)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def _root_multiplicity_by_division(p: UniPoly, x0) -> int:
    """Reference: divide by x - x0 over Q while the value at x0 vanishes."""
    if p.is_zero():
        raise ValueError("every point is a root of the zero polynomial")
    x0 = Fraction(x0)
    lin = UniPoly([-x0, 1])
    m = 0
    while _evaluate_by_fractions(p, x0) == 0:
        p = _exact_div_by_fractions(p, lin)
        m += 1
    return m


def _series_invert_by_fractions(s: Series, prec: int | None = None) -> Series:
    """Reference: series_invert with its Newton loop on Fraction lists."""
    if not s.coeffs:
        raise CannotDetermineValuationError(
            "cannot invert a series whose known coefficients are all zero"
        )
    if s.exact and len(s.coeffs) == 1:
        return Series.monomial(-s.lead, 1 / s.coeffs[0])
    if s.exact:
        if prec is None:
            raise ValueError("precision required to invert an exact series")
        p = prec
    else:
        p = len(s.coeffs) if prec is None else min(prec, len(s.coeffs))
    c0 = s.coeffs[0]
    u = [c / c0 for c in s.coeffs[:p]]
    x = [Fraction(1)]
    m = 1
    while m < p:
        m = min(2 * m, p)
        ux = _convolve_frac(u[:m], x, m)
        two_minus = [2 - ux[0]] + [-c for c in ux[1:]]
        x = _convolve_frac(x, two_minus, m)
    return Series(-s.lead, [c / c0 for c in x])


def _series_sqrt_by_fractions(s: Series, prec: int | None = None) -> Series:
    """Reference: series_sqrt with its Newton loop on Fraction lists."""
    if s.is_zero():
        return s
    if not s.coeffs:
        raise CannotDetermineValuationError(
            "cannot take the root of a series whose known coefficients are all zero"
        )
    if s.lead % 2:
        raise NotASquareError(f"odd valuation {s.lead}")
    c0 = s.coeffs[0]
    r0 = rat_sqrt(c0)
    if r0 is None:
        raise NotASquareError(f"leading coefficient {c0} is not a square in Q")
    if s.exact and len(s.coeffs) == 1:
        return Series.monomial(s.lead // 2, r0)
    if s.exact:
        if prec is None:
            raise ValueError("precision required for the root of an exact series")
        p = prec
    else:
        p = len(s.coeffs) if prec is None else min(prec, len(s.coeffs))
    u = [c / c0 for c in s.coeffs[:p]]
    if len(u) < p:
        u = u + [Fraction(0)] * (p - len(u))
    z = [Fraction(1)]
    m = 1
    while m < p:
        m = min(2 * m, p)
        zz = _convolve_frac(z, z, m)
        uzz = _convolve_frac(u[:m], zz, m)
        corr = [Fraction(3) - uzz[0]] + [-c for c in uzz[1:]]
        z = [c / 2 for c in _convolve_frac(z, corr, m)]
    root = _convolve_frac(u, z, p)
    return Series(s.lead // 2, [r0 * c for c in root])


def _outcome(fn, *args):
    """The result ((lead, coeffs, exact) for a Series), or the type and
    text of the error."""
    try:
        out = fn(*args)
    except (RamlociError, ValueError) as exc:
        return type(exc), str(exc)
    return _triple(out) if isinstance(out, Series) else out


def _kernel_calls(fn, *args):
    """Outcome of fn plus the shape of every _kernels.convolve call it
    makes: operand lengths, output length and the zero pattern of the
    first operand, which together fix the traced call and mult counts."""
    calls = []
    convolve = _kernels.convolve

    def spy(a, b, n_out):
        calls.append((len(a), len(b), n_out, [bool(v) for v in a]))
        return convolve(a, b, n_out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "convolve", spy)
        out = _outcome(fn, *args)
    return out, calls


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# degree 0..8, the zero polynomial included (an empty or all-zero list)
polys = st.lists(small_rationals, max_size=9).map(UniPoly)
series_values = st.one_of(
    st.just(Series.zero()),
    st.integers(-3, 3).map(lambda lead: Series(lead, ())),  # empty window
    st.builds(
        lambda lead, cs, exact: Series(lead, cs, exact=exact),
        st.integers(-3, 3),
        st.lists(small_rationals, max_size=6),
        st.booleans(),
    ),
)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
param_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small_fractions, max_size=6
).map(ParamPoly)


class TestRational:
    def test_rat_sqrt(self):
        assert rat_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rat_sqrt(Fraction(2)) is None
        assert rat_sqrt(Fraction(-1)) is None
        assert rat_sqrt(Fraction(0)) == 0


class TestParamPoly:
    def test_eval_weight_formula(self):
        # g(g+i)^2 at (2, 1)
        p = G * (G + I) ** 2
        assert p(2, 1) == 18

    def test_eval_cubic_root(self):
        p = G**3 - G
        assert p(1, 0) == 0

    def test_eval_moving_count_vanishes(self):
        p = G * (G - 1) * ((G + I + 1) ** 2 * (I + 1) ** 2 - (G + 1) ** 2)
        assert p(2, 0) == 0

    def test_equality_is_term_map_equality(self):
        assert (G + I) * (G - I) == G**2 - I**2
        assert G * I != I

    def test_degrees(self):
        assert (G**2 * I + I**3).degrees() == (2, 3)
        assert ParamPoly().degrees() == (0, 0)

    def test_constant_hashes_as_its_value(self):
        three = ParamPoly.const(3)
        assert three == 3 and hash(three) == hash(3)
        assert len({three, 3}) == 1
        assert G * 0 == 0 and len({G * 0, 0}) == 1
        half = ParamPoly.const(Fraction(1, 2))
        assert len({half, Fraction(1, 2)}) == 1

    @given(param_polys, param_polys, small_fractions.filter(bool))
    def test_stored_form_is_canonical(self, p, q, c):
        """Equal polynomials store equal (nums, den): integer numerators
        over a positive denominator with no common content."""
        for a in ((p + q) - q, (p * c) * (1 / c), ParamPoly(p.terms), -(-p)):
            assert (a.nums, a.den) == (p.nums, p.den)
            assert hash(a) == hash(p)
        for r in (p, p * q, p - q, p**2):
            assert type(r.den) is int and r.den > 0
            assert all(type(v) is int and v for v in r.nums.values())
            assert math.gcd(r.den, *r.nums.values()) == 1

    def test_repr(self):
        assert repr(Fraction(1, 2) * G * I**2 - G + 3) == "1/2*g*i^2 - g + 3"
        assert repr(-Fraction(2, 3) * I + Fraction(3, 4)) == "-2/3*i + 3/4"
        assert repr(ParamPoly()) == "0"

    def test_terms_is_a_read_only_view(self):
        p = Fraction(3, 4) * G**2 * I - 2
        assert dict(p.terms) == {(2, 1): Fraction(3, 4), (0, 0): Fraction(-2)}
        with pytest.raises(TypeError):
            p.terms[(0, 0)] = 1

    @pytest.mark.parametrize(
        "exponents", [(1.5, 0), (0.9, 2), (-0.5, 0), ("2", 0), (0, Fraction(2)), (-1, 0), (0, -3)]
    )
    def test_exponents_must_be_nonnegative_integers(self, exponents):
        with pytest.raises(ValueError, match="nonnegative integers"):
            ParamPoly({exponents: 3})

    def test_integer_like_exponents_are_accepted(self):
        assert ParamPoly({(True, 2): 3}) == 3 * G * I**2

    @pytest.mark.parametrize("e", [2.0, Fraction(2), "2"])
    def test_power_needs_an_int_exponent(self, e):
        with pytest.raises(TypeError, match="exponent must be an int"):
            G**e
        with pytest.raises(ValueError, match="negative power"):
            G**-1

    def test_grid_values_at_edge_points(self):
        """The zero polynomial, constants and polynomials at negative and
        repeated points: integer points give the values at the same
        points as Fractions, and p(g, i) at each point."""
        points = [-3, 0, 2, 2, -1, 5]
        for p in (ParamPoly(), ParamPoly.const(7), ParamPoly.const(Fraction(-2, 3)),
                  G**3 - G, Fraction(1, 2) * I**2 * G - I + Fraction(3, 4)):
            got = p.grid_values(points, points[::-1])
            assert got == p.grid_values([Fraction(g) for g in points],
                                        [Fraction(i) for i in points[::-1]])
            assert got == [p(g, i) for g in points for i in points[::-1]]
            assert all(type(v) is Fraction for v in got)
            assert p.grid_values([], points) == p.grid_values(points, []) == []
        assert ParamPoly().grid_values([1, 2], [3]) == [0, 0]
        assert ParamPoly.const(7).grid_values([-1], [0, 4]) == [7, 7]

    @given(param_polys, st.lists(st.integers(-6, 6), max_size=4),
           st.lists(st.integers(-6, 6), max_size=4))
    def test_grid_values_integer_points(self, p, g_points, i_points):
        got = p.grid_values(g_points, i_points)
        assert got == p.grid_values([Fraction(g) for g in g_points],
                                    [Fraction(i) for i in i_points])
        assert got == [p(g, i) for g in g_points for i in i_points]

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_sum_of_evaluations(self, g, i):
        p = 2 * G**2 - I + 3
        q = G * I - Fraction(1, 2)
        assert (p + q)(g, i) == p(g, i) + q(g, i)
        assert (p * q)(g, i) == p(g, i) * q(g, i)


class TestUniPoly:
    @pytest.mark.parametrize("e", [2.0, Fraction(2), "2"])
    def test_power_needs_an_int_exponent(self, e):
        x = UniPoly.x()
        with pytest.raises(TypeError, match="exponent must be an int"):
            x**e
        with pytest.raises(ValueError, match="negative power"):
            x**-1
        assert x**True == x and x**0 == 1

    def test_truediv_is_exact(self):
        x = UniPoly.x()
        assert ((x**2 - 1) * (x + 3)) / (x + 3) == x**2 - 1
        assert (4 * x + 2) / 2 == 2 * x + 1
        with pytest.raises(ValueError):
            (x**2 + 1) / (x + 1)

    def test_squarefree_part(self):
        x = UniPoly.x()
        p = (x - 1) ** 3 * (x + 2)
        assert p.squarefree_part() == ((x - 1) * (x + 2)).monic()

    def test_rational_roots(self):
        x = UniPoly.x()
        p = x**5 - 10 * x**4 + 35 * x**3 - 50 * x**2 + 24 * x
        assert _rational_roots(p) == [(Fraction(k), 1) for k in range(5)]

    def test_rational_roots_with_fraction(self):
        x = UniPoly.x()
        p = (x - Fraction(1, 2)) ** 2 * (x + 3)
        assert _rational_roots(p) == [(Fraction(-3), 1), (Fraction(1, 2), 2)]

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(-30, 30), min_size=2, max_size=8).filter(lambda cs: cs[-1]),
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=3),
    )
    def test_rational_roots_match_divisor_scan(self, cs, planted):
        # plant some rational roots so that the property is not vacuous
        p = UniPoly(cs)
        for r in planted:
            p = p * UniPoly([-r, 1])
        assert _rational_roots(p) == _rational_roots_by_divisors(p)

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=6).filter(lambda cs: cs[-1]),
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=4, unique=True),
        st.integers(-5, 5).filter(bool),
    )
    def test_simple_rational_roots_of_squarefree(self, cs, planted, scale):
        # planted roots and a non-monic lead of either sign
        p = UniPoly(cs) * scale
        for r in planted:
            p = p * UniPoly([-r, 1])
        if p.degree < 1 or not p.is_squarefree():
            return
        assert p.simple_rational_roots() == [r for r, _ in _rational_roots(p)]
        assert p.simple_rational_roots() == [r for r, _ in _rational_roots_by_divisors(p)]

    def test_simple_rational_roots_refuse_a_repeated_root(self):
        # no prime makes a repeated rational root simple, so the prime
        # search alone would never end
        x = UniPoly.x()
        for p in ((x + 1) ** 2, x * (x - 1) ** 2, (x - Fraction(1, 2)) ** 2 * (x + 3)):
            with pytest.raises(ValueError, match="repeated root"):
                p.simple_rational_roots()

    def test_rational_roots_large_constant_term(self):
        x = UniPoly.x()
        c = 10**30 + 1
        assert _rational_roots(x**3 + c) == []
        assert _rational_roots(x**3 - c**3) == [(Fraction(c), 1)]
        p = (x - Fraction(c, 7)) ** 2 * (x + Fraction(3, c)) * (x**2 + c)
        assert _rational_roots(p) == [(Fraction(-3, c), 1), (Fraction(c, 7), 2)]

    @pytest.mark.parametrize("seed", range(4))
    def test_rational_roots_match_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(seed)
        for _ in range(25):
            factors = [
                (Fraction(rng.randint(-40, 40), rng.randint(1, 9)), rng.randint(1, 3))
                for _ in range(rng.randint(0, 3))
            ]
            p = UniPoly([rng.randint(-50, 50) or 1 for _ in range(rng.randint(1, 4))])
            for r, m in factors:
                p = p * UniPoly([-r, 1]) ** m
            if p.degree < 1:
                continue
            expr = sum(
                sympy.Rational(c.numerator, c.denominator) * x**k
                for k, c in enumerate(p.coeffs)
            )
            expected = sorted(
                (Fraction(int(r.p), int(r.q)), m)
                for r, m in sympy.Poly(expr, x).ground_roots().items()
            )
            assert _rational_roots(p) == expected

    def test_root_multiplicity(self):
        x = UniPoly.x()
        p = (x - 1) ** 2 * (x + 1)
        assert p.root_multiplicity(1) == 2
        assert p.root_multiplicity(5) == 0

    @given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6))
    def test_mul_matches_evaluation(self, a, b):
        p, q = UniPoly(a), UniPoly(b)
        at = Fraction(3, 7)
        assert (p * q).evaluate(at) == p.evaluate(at) * q.evaluate(at)


class TestSeries:
    def test_repr_follows_the_polynomial_printers(self):
        # unit coefficients dropped, a constant as its value, + - as -
        assert repr(Series(-1, [1, 0, -1, Fraction(-5, 2)], exact=True)) == "Series(t^-1 - t - 5/2*t^2)"
        assert repr(Series(0, [-1, 2])) == "Series(-1 + 2*t + O(t^2))"
        assert repr(Series.zero()) == "Series(0)"

    def test_invert_geometric(self):
        s = Series(0, [1, -1], exact=True)  # 1 - t
        inv = series_invert(s, prec=5)
        assert [inv.coefficient(k) for k in range(5)] == [1, 1, 1, 1, 1]

    def test_invert_monomial(self):
        s = Series.monomial(2, 1)
        inv = series_invert(s)
        assert inv.lead == -2 and inv.exact

    def test_invert_two_plus_t(self):
        s = Series(0, [2, 1], exact=True)
        inv = series_invert(s, prec=3)
        assert [inv.coefficient(k) for k in range(3)] == [
            Fraction(1, 2),
            Fraction(-1, 4),
            Fraction(1, 8),
        ]
        # multiply back: must be 1 within the justified window
        prod = inv * Series(0, [2, 1, 0], exact=False)
        assert prod.coefficient(0) == 1
        assert prod.coefficient(1) == 0
        assert prod.coefficient(2) == 0

    @pytest.mark.parametrize("prec", [0, -1])
    @pytest.mark.parametrize("exact", [False, True])
    def test_newton_rejects_a_precision_below_one(self, prec, exact):
        # no window of fewer than one coefficient is taken, exact input or not
        s = Series(0, [1, 2, 3], exact=exact)
        for fn in (series_invert, series_sqrt):
            with pytest.raises(ValueError, match="^precision must be positive$"):
                fn(s, prec)

    def test_invert_zero_window_errors(self):
        with pytest.raises(CannotDetermineValuationError):
            series_invert(Series(3, ()))

    def test_sqrt_one_plus_t(self):
        s = Series(0, [1, 1], exact=True)
        r = series_sqrt(s, prec=4)
        assert r.coefficient(0) == 1
        assert r.coefficient(1) == Fraction(1, 2)
        assert r.coefficient(2) == Fraction(-1, 8)
        assert r.coefficient(3) == Fraction(1, 16)

    def test_sqrt_identity_and_monomial(self):
        assert series_sqrt(Series.monomial(0, 1)) == Series.monomial(0, 1)
        r = series_sqrt(Series.monomial(2, 1))
        assert r == Series.monomial(1, 1)

    def test_sqrt_odd_valuation(self):
        with pytest.raises(NotASquareError):
            series_sqrt(Series.monomial(1, 1))

    def test_sqrt_nonsquare_lead(self):
        with pytest.raises(NotASquareError):
            series_sqrt(Series(0, [2, 1], exact=True), prec=3)

    def test_sqrt_square_lead_scales(self):
        r = series_sqrt(Series(0, [Fraction(9, 4), 1], exact=True), prec=3)
        assert r.coefficient(0) == Fraction(3, 2)

    def test_precision_exhaustion_is_an_error(self):
        s = Series(0, [1, 2, 3])
        assert s.precision == 3
        with pytest.raises(PrecisionExhaustedError):
            s.coefficient(3)

    def test_add_tracks_min_window(self):
        a = Series(0, [1, 1, 1])  # known below t^3
        b = Series(0, [1, 1], exact=False)  # known below t^2
        c = a + b
        assert c.known_up_to == 2

    def test_cancellation_narrows_window(self):
        a = Series(0, [1, 5, 7])
        b = Series(0, [1, 4])
        c = a - b
        assert c.lead == 1 and c.coefficient(1) == 1
        with pytest.raises(PrecisionExhaustedError):
            c.coefficient(2)

    def test_zero_within_window(self):
        a = Series(0, [1, 5])
        d = a - a
        assert not d.coeffs and d.known_up_to == 2

    @given(
        st.lists(rationals, min_size=1, max_size=8),
        st.integers(-3, 3),
    )
    @settings(deadline=None, max_examples=60)
    def test_invert_roundtrip(self, coeffs, lead):
        s = Series(lead, coeffs)
        if not s.coeffs:
            return
        inv = series_invert(s)
        prod = inv * s
        for e in range(prod.lead, int(prod.known_up_to)):
            assert prod.coefficient(e) == (1 if e == 0 else 0)

    @given(st.lists(rationals, min_size=1, max_size=8), st.integers(0, 2))
    @settings(deadline=None, max_examples=60)
    def test_sqrt_roundtrip(self, coeffs, half_lead):
        s = Series(2 * half_lead, [Fraction(1)] + coeffs)
        r = series_sqrt(s)
        sq = r * r
        for e in range(sq.lead, int(sq.known_up_to)):
            assert sq.coefficient(e) == s.coefficient(e)

    def test_poly_on_series(self):
        x = UniPoly.x()
        p = x**2 - 2
        s = Series(1, [1, 1], exact=True)  # t + t^2
        out = poly_on_series(p, s)
        # (t + t^2)^2 - 2
        assert out.coefficient(0) == -2
        assert out.coefficient(2) == 1
        assert out.coefficient(3) == 2
        assert out.coefficient(4) == 1

    @given(polys, series_values)
    @settings(deadline=None, max_examples=200)
    def test_poly_on_series_matches_series_horner(self, p, x):
        assert _triple(poly_on_series(p, x)) == _triple(_horner_on_series_objects(p, x))

    @given(
        polys,
        small_rationals.filter(bool),
        st.lists(small_rationals, max_size=6),
        st.booleans(),
        st.lists(small_rationals, max_size=2),
    )
    @settings(deadline=None, max_examples=100)
    def test_poly_on_series_cancelling_lead(self, q, x0, cs, exact, low):
        # p(X) = q(X) (X - x0) X^s + low(X) with deg low < s: the Horner
        # step that adds p_s cancels the constant term of acc * x, and s
        # more steps follow.  Every operand handed to the kernel must be
        # stripped as Series would strip it.
        x = Series(0, [x0] + cs, exact=exact)
        p = q * UniPoly([-x0, 1]) * UniPoly([0] * len(low) + [1]) + UniPoly(low)
        seen = []
        convolve = _kernels.convolve

        def spy(a, b, n_out):
            seen.append((a, b))
            return convolve(a, b, n_out)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "convolve", spy)
            out = poly_on_series(p, x)
        assert _triple(out) == _triple(_horner_on_series_objects(p, x))
        for a, b in seen:
            assert a[0] and b[0]
            assert not x.exact or (a[-1] and b[-1])

    @given(series_values, series_values)
    @settings(deadline=None, max_examples=200)
    def test_add_matches_coefficientwise(self, a, b):
        assert _triple(a + b) == _triple(_add_by_coefficients(a, b))

    @given(series_values, series_values)
    @settings(deadline=None, max_examples=200)
    def test_mul_matches_coefficientwise(self, a, b):
        assert _triple(a * b) == _triple(_mul_by_coefficients(a, b))

    def test_constructors_store_fractions(self):
        half = Fraction(1, 2)
        for values in ([1, True, half, 0], [False, 3, -2, half], [half]):
            s = Series(-1, values, exact=False)
            u = UniPoly(values)
            for coeffs in (s.coeffs, u.coeffs):
                assert all(type(c) is Fraction for c in coeffs)
            _assert_canonical(s)
            _assert_canonical(u)
        _assert_canonical(Series(0, [half]))
        assert UniPoly([0, half]).coeffs[1] == half

    @pytest.mark.parametrize("seed", range(3))
    def test_kernels_match_sympy_series(self, seed):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t", positive=True)
        rng = random.Random(seed)

        def rat():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

        def expr(lead, cs):
            return sum(sympy.Rational(c.numerator, c.denominator) * t ** (lead + k)
                       for k, c in enumerate(cs))

        def agrees(ours, sym):
            sym = sympy.expand(sym)
            for e in range(ours.lead - 2, ours.known_up_to):
                want = sym.coeff(t, e)
                assert ours.coefficient(e) == Fraction(int(want.p), int(want.q)), e

        prec = 6
        # inverse of t^lead * (unit), a Laurent series
        lead = rng.randint(-2, 2)
        cs = [Fraction(rng.randint(1, 9), rng.randint(1, 5))] + [rat() for _ in range(4)]
        inv = series_invert(Series(lead, cs, exact=True), prec=prec)
        want = sympy.series(1 / expr(lead, cs), t, 0, inv.known_up_to).removeO()
        agrees(inv, want)
        # square root with a square leading coefficient and even valuation
        half = rng.randint(0, 2)
        r0 = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        cs = [r0 * r0] + [rat() for _ in range(4)]
        root = series_sqrt(Series(2 * half, cs, exact=True), prec=prec)
        want = sympy.series(sympy.sqrt(expr(2 * half, cs)), t, 0, root.known_up_to).removeO()
        agrees(root, want)
        # a polynomial on an inexact window of a longer series
        full = [rat() or Fraction(1)] + [rat() for _ in range(7)]
        x = Series(1, full[:prec])
        p = UniPoly([rat() for _ in range(4)] + [rat() or Fraction(1)])
        out = poly_on_series(p, x)
        xs = sympy.Symbol("xs")
        p_expr = sum(sympy.Rational(c.numerator, c.denominator) * xs**k
                     for k, c in enumerate(p.coeffs))
        want = sympy.series(p_expr.subs(xs, expr(1, full)), t, 0, out.known_up_to).removeO()
        agrees(out, want)


# Integer-numerator kernels against their Fraction references.
kernel_coeffs = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**15)),
)
# degree 0..12, the zero polynomial included
kernel_polys = st.lists(kernel_coeffs, max_size=13).map(UniPoly)
nonzero_polys = st.lists(kernel_coeffs, min_size=1, max_size=9).map(UniPoly).filter(bool)
points = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
windows = st.builds(
    lambda lead, cs, exact: Series(lead, cs, exact=exact),
    st.integers(-3, 3),
    st.lists(kernel_coeffs, max_size=9),
    st.booleans(),
)
square_windows = st.builds(
    lambda half, r0, cs, exact: Series(2 * half, [r0 * r0] + cs, exact=exact),
    st.integers(-2, 2),
    kernel_coeffs.filter(bool),
    st.lists(kernel_coeffs, max_size=8),
    st.booleans(),
)
precs = st.one_of(st.none(), st.integers(1, 12))


class TestIntegerKernels:
    @given(kernel_polys, points)
    @settings(deadline=None, max_examples=150)
    def test_evaluate_matches_fractions(self, p, x0):
        value = p.evaluate(x0)
        assert type(value) is Fraction and value == _evaluate_by_fractions(p, x0)
        if x0.denominator == 1:
            assert p.evaluate(int(x0)) == value

    @given(nonzero_polys, points, st.integers(0, 4))
    @settings(deadline=None, max_examples=150)
    def test_root_multiplicity_of_planted_roots(self, base, x0, m):
        # (q x - p)^m with x0 = p/q, on top of whatever base contributes
        p = base * UniPoly([-x0.numerator, x0.denominator]) ** m
        got = p.root_multiplicity(x0)
        assert got >= m and got == _root_multiplicity_by_division(p, x0)
        assert p.root_multiplicity(x0 + 1) == _root_multiplicity_by_division(p, x0 + 1)

    @pytest.mark.parametrize("x0", ["1/2", "-1/2", "1/3", "-2/3", "3/2", "-5/4"])
    def test_root_multiplicity_with_denominator_on_small_coefficients(self, x0):
        # small carries are where a remainder of the division by q hides:
        # 2x + 1 is not divisible by 3x - 1 although floor(2/3) = floor(1/3) = 0
        x0 = Fraction(x0)
        lin = UniPoly([-x0.numerator, x0.denominator])
        for cs in itertools.product(range(-2, 3), repeat=4):
            if cs[-1]:
                for p in (UniPoly(cs), UniPoly(cs) * lin):
                    assert p.root_multiplicity(x0) == _root_multiplicity_by_division(p, x0)

    @given(
        st.lists(kernel_coeffs, min_size=40, max_size=47).map(lambda cs: UniPoly(cs + [1])),
        points.filter(lambda x0: x0.denominator > 1),
        st.integers(0, 6),
    )
    @settings(deadline=None, max_examples=40)
    def test_root_multiplicity_with_denominator_on_long_polys(self, base, x0, m):
        # a root p/q with q >= 2 takes the divmod branch of the synthetic
        # division on every pass, on degree 40 and up
        p = base * UniPoly([-x0.numerator, x0.denominator]) ** m
        assert p.degree >= 40
        got = p.root_multiplicity(x0)
        assert got >= m and got == _root_multiplicity_by_division(p, x0)
        assert p.root_multiplicity(x0 + 1) == _root_multiplicity_by_division(p, x0 + 1)

    @given(polys, polys.filter(bool), polys, kernel_polys, points, st.integers(0, 2))
    @settings(deadline=None, max_examples=100)
    def test_division_matches_fractions(self, a, b, c, big, x0, m):
        # b carries (q x - p)^m for x0 = p/q; a * b is divisible by b and
        # a * b + c usually is not; big has wide coefficients
        lin = UniPoly([-x0.numerator, x0.denominator])
        b = b * lin**m
        for p in (a, a * b, a * b + c, c * lin**m, big, big * b):
            assert _outcome(operator.truediv, p, b) == _outcome(_exact_div_by_fractions, p, b)
            assert p.gcd(b) == b.gcd(p) == _gcd_by_fractions(p, b)
            for out in (p.gcd(b), p.derivative(), p.monic(), -p, p + c):
                _assert_canonical(out)
            if p:
                assert p.root_multiplicity(x0) == _root_multiplicity_by_division(p, x0)
                assert p / p == 1

    @given(
        st.sampled_from([1, -1, 2, -3, 6]),
        st.one_of(
            st.lists(st.integers(-30, 30).filter(bool), max_size=7),
            st.lists(st.sampled_from([0, 0, 0, 1, -2, 17]), max_size=7),
        ),
        st.lists(st.integers(-10**6, 10**6), max_size=8),
        st.lists(st.integers(-5, 5), max_size=3),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=300)
    def test_long_div_matches_fractions(self, lead, lower, q, r, planted):
        # dense and sparse divisors with unit and non-unit leads, degree 0
        # included; a planted q * divisor + r divides with remainder r
        divisor = [*lower, lead]
        nums = list(q)
        if planted:
            nums = _naive_convolve(q, divisor, len(q) + len(lower)) if q else []
            nums[: len(r)] = [a + b for a, b in zip(nums, r)]
        ref_q, ref_r = long_div_by_fractions(nums, divisor)
        got = _long_div(tuple(nums), tuple(divisor))
        if any(c.denominator != 1 for c in ref_q):
            assert got is None
        else:
            assert got == ([int(c) for c in ref_q], [int(c) for c in ref_r])
        if planted and len(r) <= len(lower) and q:
            assert got is not None and got[0] == q

    def test_zero_polynomial(self):
        zero = UniPoly()
        for divide in (operator.truediv, _divmod_by_fractions):
            with pytest.raises(ZeroDivisionError):
                divide(UniPoly.x(), zero)
        assert zero.evaluate(Fraction(3, 7)) == 0
        with pytest.raises(ValueError) as ours:
            zero.root_multiplicity(1)
        with pytest.raises(ValueError) as ref:
            _root_multiplicity_by_division(zero, 1)
        assert str(ours.value) == str(ref.value)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiplicity_matches_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(seed)
        for _ in range(20):
            x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            m = rng.randint(0, 4)
            p = UniPoly([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))] + [1])
            p = p * UniPoly([-x0.numerator, x0.denominator]) ** m
            poly = sympy.Poly(
                [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x, domain="QQ"
            )
            roots = {Fraction(int(r.p), int(r.q)): k for r, k in poly.ground_roots().items()}
            assert p.root_multiplicity(x0) == roots.get(x0, 0) >= m

    @given(windows, precs)
    @settings(deadline=None, max_examples=150)
    def test_series_invert_matches_fractions(self, s, prec):
        assert _kernel_calls(series_invert, s, prec) == _kernel_calls(_series_invert_by_fractions, s, prec)

    @given(st.one_of(square_windows, windows), precs)
    @settings(deadline=None, max_examples=150)
    def test_series_sqrt_matches_fractions(self, s, prec):
        assert _kernel_calls(series_sqrt, s, prec) == _kernel_calls(_series_sqrt_by_fractions, s, prec)

    @given(
        st.one_of(series_values, windows, square_windows),
        st.one_of(series_values, windows),
        kernel_coeffs,
        st.integers(-3, 3),
        polys,
        precs,
    )
    @settings(deadline=None, max_examples=150)
    def test_every_operation_returns_the_canonical_form(self, a, b, c, k, p, prec):
        out = [a + b, a - b, a * b, a.scale(c), a.shift(k), a.derivative(), poly_on_series(p, a)]
        for fn in (series_invert, series_sqrt):
            try:
                out.append(fn(a, prec))
            except (RamlociError, ValueError):
                pass
        for s in out:
            _assert_canonical(s)

    @pytest.mark.parametrize(
        "s, prec",
        [
            (Series(0, [4, 1, 3], exact=True), 9),  # exact, prec above len(coeffs)
            (Series(-2, [Fraction(9, 4), -5, 0, Fraction(1, 3)], exact=True), 12),
            (Series(2, [Fraction(1, 9), 0, 7, 1, 1, 2, 3]), None),  # inexact window
            (Series(2, [Fraction(1, 9), 0, 7, 1, 1, 2, 3]), 4),
            (Series(2, [Fraction(1, 9), 0, 7, 1, 1, 2, 3]), 11),  # above the window
            (Series(0, [10**30 + 1, Fraction(3, 10**20), -(10**25), 1]), None),
            (Series(0, [3, 1], exact=True), 6),  # not a square
            (Series(0, [-4, 1]), None),  # negative, not a square
            (Series(1, [4, 1]), None),  # odd valuation
            (Series(4, ()), 5),  # zero window
            (Series(0, [2, 1], exact=True), None),  # exact needs prec
        ],
    )
    def test_series_newton_cases(self, s, prec):
        for ours, ref in ((series_invert, _series_invert_by_fractions), (series_sqrt, _series_sqrt_by_fractions)):
            assert _kernel_calls(ours, s, prec) == _kernel_calls(ref, s, prec)
        if not s.coeffs:
            with pytest.raises(CannotDetermineValuationError):
                series_invert(s, prec)
            with pytest.raises(CannotDetermineValuationError):
                series_sqrt(s, prec)
        elif rat_sqrt(s.coeffs[0]) is None or s.lead % 2:
            with pytest.raises(NotASquareError):
                series_sqrt(s, prec)


def _squarefree_part_by_sympy(sympy, x, p: UniPoly):
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p.coeffs))
    part = sympy.Poly(sympy.sqf_part(expr), x, domain="QQ").monic()
    return UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(part.all_coeffs())])


@pytest.mark.parametrize("seed", range(3))
def test_squarefree_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(seed)
    for _ in range(15):
        p = UniPoly([Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(rng.randint(2, 5))])
        if not p or p.degree < 1:
            continue
        # plant repeated linear and quadratic factors in about half the cases
        for _ in range(rng.randint(0, 2)):
            factor = UniPoly([rng.randint(-5, 5), rng.randint(-3, 3), rng.choice([0, 1])])
            if factor.degree >= 1:
                p = p * factor ** rng.randint(1, 3)
        want = _squarefree_part_by_sympy(sympy, x, p)
        assert p.squarefree_part() == want
        is_sqf = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x).is_sqf
        assert p.is_squarefree() is is_sqf
        assert p.is_squarefree() is (want.degree == p.degree)


def _to_sympy(sympy, x, p: UniPoly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x, domain="QQ")


# integer and rational coefficients, degree 0..6
gcd_coeffs = st.one_of(st.integers(-(10**6), 10**6), small_rationals)
gcd_polys = st.lists(gcd_coeffs, min_size=1, max_size=7).map(UniPoly).filter(bool)


class TestGcdCertificate:
    @given(gcd_polys, gcd_polys, st.lists(st.integers(-20, 20), max_size=4))
    @settings(deadline=None, max_examples=300)
    def test_gcd_matches_sympy_oracle(self, a, b, planted):
        # planted: a common factor of degree up to 3 (none when empty)
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        common = UniPoly(planted)
        if common:
            a, b = a * common, b * common
        want = _to_sympy(sympy, x, a).gcd(_to_sympy(sympy, x, b)).monic()
        got = a.gcd(b)
        assert _to_sympy(sympy, x, got) == want
        _assert_canonical(got)
        if _certified_coprime(_primitive(a.nums, 0)[0], _primitive(b.nums, 0)[0]):
            assert want.degree() == 0 and got == 1

    def test_fallback_when_the_values_share_a_large_factor(self):
        # x and x^2 + 16 are coprime, but their values 16 and 272 at
        # xi = 2^4 share 16 >= xi - M with M = 4, so the sequence decides
        assert not _certified_coprime([0, 1], [16, 0, 1])
        x = UniPoly.x()
        assert x.gcd(x**2 + 16) == 1 and (x**2 + 16).gcd(x) == 1
        assert (x * (x**2 + 16)).gcd(x**2 * (x**2 + 16)) == x**3 + 16 * x

    def test_constant_input(self):
        x = UniPoly.x()
        assert _certified_coprime([1], [1, 2, 3])
        for c in (UniPoly.const(6), UniPoly.const(Fraction(-2, 3))):
            assert c.gcd(x**2 + 1) == (x**2 + 1).gcd(c) == 1
            assert c.gcd(UniPoly()) == UniPoly().gcd(c) == 1


def _rational_roots(p: UniPoly):
    """The rational roots of p (degree >= 1) with multiplicity, sorted: the
    simple roots of the squarefree part, each with its multiplicity in p,
    as the curve engine finds the branch places and their orders."""
    return [(r, p.root_multiplicity(r)) for r in p.squarefree_part().simple_rational_roots()]


def _rational_roots_by_divisors(p: UniPoly):
    """Reference: rational root theorem, trying every +-num/den with num
    dividing the constant term and den the leading coefficient."""

    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    roots = []
    k = 0
    while p.coeffs[0] == 0:
        p = UniPoly(p.coeffs[1:])
        k += 1
    if k:
        roots.append((Fraction(0), k))
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    for num in divisors(abs(ints[0])):
        for d in divisors(abs(ints[-1])):
            for cand in {Fraction(num, d), Fraction(-num, d)}:
                m = p.root_multiplicity(cand)
                if m and (cand, m) not in roots:
                    roots.append((cand, m))
    return sorted(roots)


def _random_matrix(rng, n):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(n)
    ]


class TestBareiss:
    def test_2x2(self):
        assert bareiss_det([[1, 2], [3, 4]]) == -2

    def test_identity_5(self):
        m = [[Fraction(int(r == c)) for c in range(5)] for r in range(5)]
        assert bareiss_det(m) == 1

    def test_vandermonde(self):
        pts = [1, 2, 3]
        m = [[Fraction(p) ** k for k in range(3)] for p in pts]
        expected = Fraction(1)
        for a in range(3):
            for b in range(a):
                expected *= pts[a] - pts[b]
        assert bareiss_det(m) == expected == 2

    def test_singular(self):
        assert bareiss_det([[1, 2], [2, 4]]) == 0

    def test_integer_matrix_stays_integral(self):
        m = [[2, 4, 1], [6, 3, 9], [1, 1, 1]]
        det = bareiss_det(m)
        assert det == 3
        assert isinstance(det, Fraction) and det.denominator == 1

    def test_against_cofactor_all_sizes(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            for _ in range(25):
                m = _random_matrix(rng, n)
                assert bareiss_det(m) == cofactor_det(m)
                ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                det = bareiss_det(ints)
                assert det == cofactor_det(ints)
                assert not isinstance(det, float)

    def test_polynomial_entries(self):
        # exact division in Q[x] at every elimination step
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(10):
                m = [
                    [UniPoly(_random_matrix(rng, 3)[0]) for _ in range(n)]
                    for _ in range(n)
                ]
                assert bareiss_det(m) == cofactor_det(m)

    def test_result_types(self):
        X = UniPoly.x()
        assert isinstance(bareiss_det([[Fraction(1, 2)]]), Fraction)
        assert bareiss_det([[UniPoly([1, 2])]]) == UniPoly([1, 2])
        det = bareiss_det([[X, 1], [Fraction(1, 2), X]])
        assert isinstance(det, UniPoly) and det == X * X - Fraction(1, 2)
        with pytest.raises(TypeError):
            bareiss_det([[1.5]])
        with pytest.raises(ValueError):
            bareiss_det([[1, 2]])

    def test_pivots_with_zero_inner_coefficients(self):
        # the first pivot x^4 - 2 and the second (x^4 - 2)(x^2 + 3) are
        # sparse, so every exact division skips their zero terms
        X = UniPoly.x()
        rng = random.Random(41)
        for _ in range(10):
            m = [[UniPoly([rng.randint(-4, 4) for _ in range(3)]) for _ in range(4)] for _ in range(4)]
            m[0][0], m[1][0], m[1][1] = X**4 - 2, UniPoly(), X**2 + 3
            assert bareiss_det(m) == cofactor_det(m)

    def test_integer_loop_against_cofactor(self):
        # entries in Z[x] as integer lists; zeros make pivots vanish (row
        # swaps) and repeated or zero rows make the matrix singular
        rng = random.Random(29)

        def entry():
            if rng.random() < 0.3:
                return []
            return [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.choice([-3, -1, 1, 2])]

        for n in (1, 2, 3, 4):
            for trial in range(40):
                m = [[entry() for _ in range(n)] for _ in range(n)]
                if trial % 4 == 1:
                    m[0][0] = []  # a zero first pivot
                if trial % 4 == 2 and n > 1:
                    m[-1] = list(m[0])  # a repeated row
                if trial % 8 == 3:
                    m[rng.randrange(n)] = [[] for _ in range(n)]  # a zero row
                want = cofactor_det([[UniPoly.from_numerators(e, 1) for e in row] for row in m])
                got = _bareiss(m)
                assert UniPoly.from_numerators(got, 1) == want
                assert not got or got[-1], got  # no trailing zero
        assert _bareiss([[[], [1]], [[1], []]]) == [-1]
        assert _bareiss([[[0, 1], [1]], [[0, 2], [2]]]) == []


def _naive_convolve(a, b, n_out):
    return [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(n_out)
    ]


def test_convolve_matches_reference():
    rng = random.Random(3)
    for _ in range(50):
        a = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 40))]
        b = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 40))]
        full = len(a) + len(b) - 1
        for n_out in (1, full // 2, full, full + 7):
            assert _kernels.convolve(a, b, n_out) == _naive_convolve(a, b, n_out)
    # empty operands give an all-zero output of the requested length
    assert _kernels.convolve([], [1, 2], 5) == [0] * 5
    assert _kernels.convolve([3, 4], [], 3) == [0] * 3
    assert _kernels.convolve([], [], 0) == []
    # leading zeros shift the product
    assert _kernels.convolve([0, 0, 2], [0, 3, 5], 6) == [0, 0, 0, 6, 10, 0]



def test_param_poly_matches_sympy():
    """Ring operations, evaluation and repr of random ParamPolys agree
    with sympy.Poly in (g, i) over QQ."""
    sympy = pytest.importorskip("sympy")
    g, i = sympy.symbols("g i")

    def rat(v):
        return sympy.Rational(v.numerator, v.denominator)

    def to_sympy(p):
        return sympy.Poly.from_dict({k: rat(c) for k, c in p.terms.items()}, g, i, domain="QQ")

    points = st.lists(
        st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=5)),
        min_size=1,
        max_size=3,
    )

    @settings(deadline=None, max_examples=60)
    @given(param_polys, param_polys, st.integers(0, 3), points, points)
    def check(p, q, e, g_points, i_points):
        sp, sq = to_sympy(p), to_sympy(q)
        assert to_sympy(p + q) == sp + sq
        assert to_sympy(p - q) == sp - sq
        assert to_sympy(p * q) == sp * sq
        assert to_sympy(p**e) == sp**e
        expr = sp.as_expr()
        want = [expr.subs({g: rat(gv), i: rat(iv)}) for gv in g_points for iv in i_points]
        got = p.grid_values(g_points, i_points)
        assert got == [Fraction(int(v.p), int(v.q)) for v in want]
        assert p(g_points[0], i_points[0]) == got[0]
        parsed = sympy.parse_expr(repr(p).replace("^", "**"), local_dict={"g": g, "i": i})
        assert sympy.Poly(parsed, g, i, domain="QQ") == sp

    check()


def test_param_poly_scalar_operands_match_sympy():
    """A zero or scalar operand, on either side, which the operators
    handle without the generic sum or product, gives sympy's result in
    the canonical stored form."""
    sympy = pytest.importorskip("sympy")
    g, i = sympy.symbols("g i")

    def to_sympy(x):
        terms = x.terms if isinstance(x, ParamPoly) else {(0, 0): Fraction(x)}
        return sympy.Poly.from_dict(
            {k: sympy.Rational(c.numerator, c.denominator) for k, c in terms.items()},
            g, i, domain="QQ",
        )

    scalars = st.one_of(
        st.sampled_from([0, 1, -1, ParamPoly()]),
        st.integers(-10**6, 10**6),
        st.fractions(-100, 100, max_denominator=50),
    )

    @settings(deadline=None, max_examples=150)
    @given(param_polys, scalars)
    def check(p, s):
        sp, ss = to_sympy(p), to_sympy(s)
        for got, want in (
            (p + s, sp + ss), (s + p, ss + sp),
            (p - s, sp - ss), (s - p, ss - sp),
            (p * s, sp * ss), (s * p, ss * sp),
        ):
            assert isinstance(got, ParamPoly)
            assert to_sympy(got) == want
            rebuilt = ParamPoly(dict(got.terms))
            assert (got.nums, got.den, hash(got), repr(got)) == (
                rebuilt.nums, rebuilt.den, hash(rebuilt), repr(rebuilt)
            )

    check()


@pytest.mark.parametrize("x", [G, UniPoly.x(), Series.monomial(1)])
def test_unsupported_operand_raises_type_error(x):
    # the reflected subtraction used to recurse until RecursionError
    for op in (lambda: object() - x, lambda: x - object(), lambda: object() * x):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()
    assert 1 - x == -(x - 1) and Fraction(1, 2) - x == -(x - Fraction(1, 2))


def test_unipoly_division_rejects_other_operand_types():
    x = UniPoly.x()
    assert x.__truediv__("a") is NotImplemented
    with pytest.raises(TypeError, match="unsupported operand.*'str'"):
        x / "a"
    with pytest.raises(TypeError, match="'float'"):
        x / 1.5
    with pytest.raises(TypeError, match="str"):
        x.gcd("a")


# per type: values, the constant built through _pack, and from_numerators' arguments
_EXACT_TYPES = {
    "ParamPoly": (param_polys, ParamPoly.const, lambda a: (dict(a.nums), a.den)),
    "UniPoly": (polys, UniPoly.const, lambda a: (a.nums, a.den)),
    "Series": (series_values, lambda c: Series.monomial(0, c), lambda a: (a.lead, a.nums, a.den, a.exact)),
}
protocol_scalars = st.one_of(st.sampled_from([0, 1, -1]), st.integers(), st.fractions())


@pytest.mark.parametrize("name", sorted(_EXACT_TYPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_exact_protocol(name, data):
    """The rules ParamPoly, UniPoly and Series share: subtraction is
    adding the negation, a scalar operand is the constant, and
    from_numerators rebuilds the stored form."""
    values, const, parts = _EXACT_TYPES[name]
    a, b, s = data.draw(values), data.draw(values), data.draw(protocol_scalars)
    assert a - b == a + (-b)
    assert s - a == -(a - s)
    c = a._coerce(s)
    assert type(c) is type(a) and c == const(s) and hash(c) == hash(const(s))
    rebuilt = type(a).from_numerators(*parts(a))
    assert type(rebuilt) is type(a) and parts(rebuilt) == parts(a)
    for bad in ("a", 1.5, None):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, bad)
            with pytest.raises(TypeError):
                op(bad, a)
