import math
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
)
from ramloci.numeric import (
    ParamPoly,
    Series,
    UniPoly,
    bareiss_det,
    cofactor_det,
    poly_eval,
    poly_on_series,
    rat_sqrt,
    series_invert,
    series_sqrt,
)

G = ParamPoly.g()
I = ParamPoly.i()

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=20
)


def _triple(s: Series):
    return (s.lead, s.coeffs, s.exact)


def _horner_on_series_objects(p: UniPoly, x: Series) -> Series:
    """Reference: Horner's rule on Series objects, one Series.__mul__ and
    one Series.__add__ per coefficient."""
    acc = Series.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + Series.constant(c)
    return acc


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
        assert poly_eval(p, 2, 1) == 18

    def test_eval_cubic_root(self):
        p = G**3 - G
        assert poly_eval(p, 1, 0) == 0

    def test_eval_moving_count_vanishes(self):
        p = G * (G - 1) * ((G + I + 1) ** 2 * (I + 1) ** 2 - (G + 1) ** 2)
        assert poly_eval(p, 2, 0) == 0

    def test_equality_is_term_map_equality(self):
        assert (G + I) * (G - I) == G**2 - I**2
        assert G * I != I

    def test_subs_i(self):
        p = (G + I) ** 2
        assert p.subs_i(0) == G**2
        assert p.subs_i(2) == G**2 + 4 * G + 4

    def test_degrees(self):
        assert (G**2 * I + I**3).degrees() == (2, 3)
        assert ParamPoly().degrees() == (0, 0)

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_sum_of_evaluations(self, g, i):
        p = 2 * G**2 - I + 3
        q = G * I - Fraction(1, 2)
        assert poly_eval(p + q, g, i) == poly_eval(p, g, i) + poly_eval(q, g, i)
        assert poly_eval(p * q, g, i) == poly_eval(p, g, i) * poly_eval(q, g, i)


class TestUniPoly:
    def test_divmod_roundtrip(self):
        x = UniPoly.x()
        p = x**4 - 3 * x + 1
        d = x**2 + 1
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.degree < d.degree

    def test_exact_div_raises_on_remainder(self):
        x = UniPoly.x()
        with pytest.raises(ValueError):
            (x**2 + 1).exact_div(x + 1)

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

    def test_shift(self):
        x = UniPoly.x()
        p = x**3 - x
        assert p.shift(2) == (x + 2) ** 3 - (x + 2)

    def test_rational_roots(self):
        x = UniPoly.x()
        p = x**5 - 10 * x**4 + 35 * x**3 - 50 * x**2 + 24 * x
        assert p.rational_roots() == [(Fraction(k), 1) for k in range(5)]

    def test_rational_roots_with_fraction(self):
        x = UniPoly.x()
        p = (x - Fraction(1, 2)) ** 2 * (x + 3)
        assert p.rational_roots() == [(Fraction(-3), 1), (Fraction(1, 2), 2)]

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
        assert p.rational_roots() == _rational_roots_by_divisors(p)

    def test_rational_roots_large_constant_term(self):
        x = UniPoly.x()
        c = 10**30 + 1
        assert (x**3 + c).rational_roots() == []
        assert (x**3 - c**3).rational_roots() == [(Fraction(c), 1)]
        p = (x - Fraction(c, 7)) ** 2 * (x + Fraction(3, c)) * (x**2 + c)
        assert p.rational_roots() == [(Fraction(-3, c), 1), (Fraction(c, 7), 2)]

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
            assert p.rational_roots() == expected

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
        assert series_sqrt(Series.constant(1)) == Series.constant(1)
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

    def test_constructors_store_fractions(self):
        half = Fraction(1, 2)
        for values in ([1, True, half, 0], [False, 3, -2, half], [half]):
            s = Series(-1, values, exact=False)
            u = UniPoly(values)
            for coeffs in (s.coeffs, u.coeffs):
                assert all(type(c) is Fraction for c in coeffs)
        # a Fraction is kept as it is, not rebuilt
        assert Series(0, [half]).coeffs[0] is half
        assert UniPoly([0, half]).coeffs[1] is half

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
