"""Exact scalar, polynomial, series, and determinant kernels.

Everything is computed over Q with ``fractions.Fraction`` as the scalar;
there are no floating-point modes and no algebraic extensions.  The four
value types are:

* ``Fraction``        -- the base scalar (re-exported as ``Rational``),
* ``ParamPoly``       -- sparse polynomial in the two formal parameters
                         (g, i), used for closed-form counting formulas,
* ``UniPoly``         -- dense univariate polynomial over Q,
* ``Series``          -- truncated Laurent series in a local parameter.

Series precision contract
-------------------------
A ``Series`` knows its coefficients exactly for every exponent below
``known_up_to`` and nothing above it.  Every operation computes the
largest window it can justify from its operands; reading a coefficient
at or above ``known_up_to`` raises ``PrecisionExhaustedError`` rather
than silently returning a truncated value.  Series built from finite
data (polynomials, monomials) are marked ``exact`` and behave as if the
window were infinite.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernels
from .errors import (
    CannotDetermineValuationError,
    NotASquareError,
    PrecisionExhaustedError,
)

Rational = Fraction

_INF = math.inf


def rat_sqrt(q: Fraction):
    """Exact square root of a rational, or None when q is not a square in Q."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _pack(coeffs):
    """Scale rationals to a common denominator: returns (int list, den)."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


_ZERO = Fraction(0)


def _convolve_frac(a, b, n_out):
    """Truncated product of rational coefficient lists via the int kernel."""
    pa, da = _pack(a)
    pb, db = _pack(b)
    dd = da * db
    if dd == 1:
        return [Fraction(c) if c else _ZERO for c in _kernels.convolve(pa, pb, n_out)]
    return [Fraction(c, dd) if c else _ZERO for c in _kernels.convolve(pa, pb, n_out)]


# ---------------------------------------------------------------------------
# ParamPoly: polynomials in the formal parameters (g, i)


class ParamPoly:
    """Polynomial in the formal parameters (g, i) with rational coefficients.

    Stored sparsely as a map from exponent pairs (e_g, e_i) to nonzero
    coefficients; two polynomials are equal iff the maps are equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (eg, ei), c in terms.items():
                c = Fraction(c)
                if c:
                    eg = int(eg)
                    ei = int(ei)
                    if eg < 0 or ei < 0:
                        raise ValueError("exponents must be nonnegative")
                    clean[(eg, ei)] = clean.get((eg, ei), Fraction(0)) + c
        object.__setattr__(self, "terms", {k: v for k, v in clean.items() if v})

    def __setattr__(self, *a):
        raise AttributeError("ParamPoly is immutable")

    @classmethod
    def const(cls, c) -> "ParamPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def g(cls) -> "ParamPoly":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def i(cls) -> "ParamPoly":
        return cls({(0, 1): Fraction(1)})

    @staticmethod
    def _coerce(other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return ParamPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for (ag, ai), av in self.terms.items():
            for (bg, bi), bv in other.terms.items():
                k = (ag + bg, ai + bi)
                terms[k] = terms.get(k, Fraction(0)) + av * bv
        return ParamPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = ParamPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        """Per-variable degrees (d_g, d_i); (0, 0) for the zero polynomial."""
        dg = max((eg for eg, _ in self.terms), default=0)
        di = max((ei for _, ei in self.terms), default=0)
        return dg, di

    def __call__(self, g, i) -> Fraction:
        return poly_eval(self, g, i)

    def subs_i(self, value) -> "ParamPoly":
        """Substitute a constant for i, leaving a polynomial in g."""
        value = Fraction(value)
        terms = {}
        for (eg, ei), c in self.terms.items():
            terms[(eg, 0)] = terms.get((eg, 0), Fraction(0)) + c * value**ei
        return ParamPoly(terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (eg, ei) in sorted(self.terms, key=lambda k: (-(k[0] + k[1]), -k[0])):
            c = self.terms[(eg, ei)]
            mono = "*".join(
                ([f"g^{eg}" if eg > 1 else "g"] if eg else [])
                + ([f"i^{ei}" if ei > 1 else "i"] if ei else [])
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def poly_eval(p: ParamPoly, g, i) -> Fraction:
    """Exact value of p at integer (or rational) arguments."""
    g = Fraction(g)
    i = Fraction(i)
    total = Fraction(0)
    for (eg, ei), c in p.terms.items():
        total += c * g**eg * i**ei
    return total


# ---------------------------------------------------------------------------
# UniPoly: dense univariate polynomials over Q


class UniPoly:
    """Dense univariate polynomial over Q; the zero polynomial has no terms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls([c])

    @classmethod
    def x(cls) -> "UniPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly([other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly()
        n = len(self.coeffs) + len(other.coeffs) - 1
        return UniPoly(_convolve_frac(list(self.coeffs), list(other.coeffs), n))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / other.lead
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quo[k] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] -= c * oc
        return UniPoly(quo), UniPoly(rem)

    def exact_div(self, other) -> "UniPoly":
        """Quotient self/other, raising if the division is not exact."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    __truediv__ = exact_div

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = 1 / self.lead
        return UniPoly([c * inv for c in self.coeffs])

    def _int_coeffs(self):
        """Primitive integer coefficient list (content removed)."""
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        content = 0
        for c in ints:
            content = math.gcd(content, c)
        return [c // content for c in ints] if content > 1 else ints

    def gcd(self, other) -> "UniPoly":
        """Monic greatest common divisor, via a primitive pseudo-remainder
        sequence over the integers to keep coefficient growth in check."""
        other = self._coerce(other)
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        a = self._int_coeffs()
        b = other._int_coeffs()
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            # primitive pseudo-remainder of a by b
            r = list(a)
            db = len(b) - 1
            lb = b[-1]
            while r and len(r) - 1 >= db:
                c = r.pop()
                if lb != 1:
                    r = [lb * x for x in r]
                if c:
                    shift = len(r) - db
                    for j in range(db):
                        r[shift + j] -= c * b[j]
                while r and r[-1] == 0:
                    r.pop()
            if not r:
                return UniPoly(b).monic()
            content = 0
            for c in r:
                content = math.gcd(content, c)
            if content > 1:
                r = [x // content for x in r]
            a, b = b, r
        return UniPoly.const(1)

    def squarefree_part(self) -> "UniPoly":
        """Monic product of the distinct irreducible factors."""
        if self.degree <= 0:
            return UniPoly.const(1) if not self.is_zero() else self
        return self.exact_div(self.gcd(self.derivative())).monic()

    def is_squarefree(self) -> bool:
        return self.degree <= 0 or self.gcd(self.derivative()).degree == 0

    def evaluate(self, v) -> Fraction:
        v = Fraction(v)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def shift(self, x0) -> "UniPoly":
        """Taylor shift: the polynomial p(x0 + x)."""
        x0 = Fraction(x0)
        acc = UniPoly()
        lin = UniPoly([x0, 1])
        for c in reversed(self.coeffs):
            acc = acc * lin + UniPoly.const(c)
        return acc

    def root_multiplicity(self, x0) -> int:
        """Multiplicity of x0 as a root (0 when p(x0) != 0)."""
        if self.is_zero():
            raise ValueError("every point is a root of the zero polynomial")
        x0 = Fraction(x0)
        lin = UniPoly([-x0, 1])
        m = 0
        p = self
        while p.evaluate(x0) == 0:
            p = p.exact_div(lin)
            m += 1
        return m

    def rational_roots(self):
        """All rational roots, with multiplicity, as a sorted list of
        pairs (root, multiplicity).

        Let s be the squarefree part of p, made primitive over Z, of
        degree n and leading coefficient c.  Then q(z) = c^(n-1) s(z/c)
        is monic over Z, so z = c x is an integer for every rational
        root x of p.  The integer roots of q come from p-adic lifting,
        at a cost that grows with the bit size of the coefficients, not
        with their number of divisors.
        """
        if self.is_zero():
            raise ValueError("zero polynomial")
        p = self
        roots = []
        # factor out x^k first
        k = 0
        while p.coeffs and p.coeffs[0] == 0:
            p = UniPoly(p.coeffs[1:])
            k += 1
        if k:
            roots.append((Fraction(0), k))
        if p.degree >= 1:
            ints = p.squarefree_part()._int_coeffs()
            n, lead = len(ints) - 1, ints[-1]
            q = [c * lead ** (n - 1 - j) for j, c in enumerate(ints[:-1])] + [1]
            for z in _integer_root_candidates(q):
                cand = Fraction(z, lead)
                m = p.root_multiplicity(cand)
                if m:
                    roots.append((cand, m))
        return sorted(roots)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    parts.append(xs)
                elif c == -1:
                    parts.append("-" + xs)
                else:
                    parts.append(f"{c}*{xs}")
        return " + ".join(parts).replace("+ -", "- ")


def _eval_mod(cs, z: int, m: int) -> int:
    """Value mod m at z of the integer polynomial with coefficients cs."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * z + c) % m
    return acc


def _integer_root_candidates(cs):
    """At most n integers among which are all the integer roots of the
    monic squarefree q over Z of degree n with coefficients ``cs``
    (constant term first).

    p-adic lifting (Loos 1983): pick a prime P at which every root of q
    mod P is simple, and lift each of those roots by Newton's method to
    a modulus M above twice Fujiwara's root bound
    2^(1 + max_k ceil(bits(q_(n-k)) / k)).  An integer root z of q
    reduces to a simple root mod P whose lift is z mod M, so z is the
    symmetric residue of one lift.  Such a P exists because q is
    squarefree: every prime not dividing its discriminant qualifies.
    """
    dcs = [k * c for k, c in enumerate(cs)][1:]
    n = len(cs) - 1
    exp = max((abs(cs[n - k]).bit_length() + k - 1) // k for k in range(1, n + 1))
    bound = 2 ** (exp + 1)
    prime = 1
    while True:
        prime += 1
        if any(prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
            continue
        residues = [r for r in range(prime) if _eval_mod(cs, r, prime) == 0]
        if all(_eval_mod(dcs, r, prime) for r in residues):
            break
    candidates = []
    for r in residues:
        m = prime
        while m <= 2 * bound:
            m *= m
            r = (r - _eval_mod(cs, r, m) * pow(_eval_mod(dcs, r, m), -1, m)) % m
        candidates.append(r - m if 2 * r > m else r)
    return candidates


# ---------------------------------------------------------------------------
# Series: truncated Laurent series


class Series:
    """Truncated Laurent series in a local parameter t.

    ``lead`` is an exact lower bound for the valuation and the first
    stored coefficient is nonzero whenever any coefficient is stored, so
    ``lead`` is the valuation itself for a visibly nonzero series.  The
    coefficients are known exactly for every exponent below
    ``known_up_to``; an empty inexact series represents "zero modulo
    t^lead" and an empty exact series is the true zero.
    """

    __slots__ = ("lead", "coeffs", "exact")

    def __init__(self, lead: int, coeffs=(), exact: bool = False):
        cs = [Fraction(c) for c in coeffs]
        k = 0
        while k < len(cs) and cs[k] == 0:
            k += 1
        lead += k
        cs = cs[k:]
        if exact:
            while cs and cs[-1] == 0:
                cs.pop()
            if not cs:
                lead = 0
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "exact", bool(exact))

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    # -- constructors

    @classmethod
    def zero(cls) -> "Series":
        return cls(0, (), exact=True)

    @classmethod
    def constant(cls, c) -> "Series":
        return cls(0, [c], exact=True)

    @classmethod
    def monomial(cls, e: int, c=1) -> "Series":
        return cls(e, [c], exact=True)

    # -- structure

    @property
    def known_up_to(self):
        return _INF if self.exact else self.lead + len(self.coeffs)

    @property
    def valuation(self) -> int:
        if not self.coeffs:
            raise CannotDetermineValuationError(
                "all known coefficients are zero"
            )
        return self.lead

    @property
    def precision(self) -> int:
        """Number of known coefficients starting at the valuation."""
        return len(self.coeffs)

    def is_zero(self) -> bool:
        """True only for the exact zero series."""
        return self.exact and not self.coeffs

    def coefficient(self, e: int) -> Fraction:
        if e < self.lead:
            return Fraction(0)
        if e < self.known_up_to:
            idx = e - self.lead
            return self.coeffs[idx] if idx < len(self.coeffs) else Fraction(0)
        raise PrecisionExhaustedError(
            f"coefficient of t^{e} requested but series is only known below t^{self.known_up_to}"
        )

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.lead, self.coeffs, self.exact) == (
            other.lead,
            other.coeffs,
            other.exact,
        )

    def __hash__(self):
        return hash((self.lead, self.coeffs, self.exact))

    # -- arithmetic

    @staticmethod
    def _coerce(other):
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        k = min(self.known_up_to, other.known_up_to)
        if math.isinf(k):
            base = min(self.lead, other.lead)
            top = max(self.lead + len(self.coeffs), other.lead + len(other.coeffs))
            return Series(
                base,
                [self.coefficient(e) + other.coefficient(e) for e in range(base, top)],
                exact=True,
            )
        base = min(self.lead, other.lead, k)
        return Series(
            base,
            [self.coefficient(e) + other.coefficient(e) for e in range(base, k)],
        )

    __radd__ = __add__

    def __neg__(self):
        return Series(self.lead, [-c for c in self.coeffs], self.exact)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Series.zero()
        base = self.lead + other.lead
        k = min(self.lead + other.known_up_to, other.lead + self.known_up_to)
        if math.isinf(k):
            n = len(self.coeffs) + len(other.coeffs) - 1
            exact = True
        else:
            n = int(k) - base
            exact = False
        if n <= 0 or not self.coeffs or not other.coeffs:
            return Series(0 if math.isinf(k) else int(k), (), exact=exact)
        return Series(
            base,
            _convolve_frac(list(self.coeffs), list(other.coeffs), n),
            exact=exact,
        )

    __rmul__ = __mul__

    def scale(self, c) -> "Series":
        c = Fraction(c)
        if not c:
            return Series.zero()
        return Series(self.lead, [c * a for a in self.coeffs], self.exact)

    def shift(self, k: int) -> "Series":
        """Multiply by t^k."""
        return Series(self.lead + k, self.coeffs, self.exact)

    def derivative(self) -> "Series":
        cs = [(self.lead + k) * c for k, c in enumerate(self.coeffs)]
        return Series(self.lead - 1, cs, self.exact)

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs[:8]):
            if not c:
                continue
            e = self.lead + k
            ts = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
            parts.append(ts if c == 1 and e != 0 else (f"{c}" if e == 0 else f"{c}*{ts}"))
        body = " + ".join(parts) if parts else "0"
        if self.exact:
            return f"Series({body})"
        return f"Series({body} + O(t^{self.known_up_to}))"


def series_invert(s: Series, prec: int | None = None) -> Series:
    """Multiplicative inverse of a series, to the justified precision.

    For an inexact input the result carries min(prec, s.precision)
    coefficients; exact monomials invert exactly.  Exact multi-term
    inputs need an explicit ``prec`` since their inverse is infinite.
    """
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
    # Newton iteration x <- x(2 - u x), doubling the correct window
    x = [Fraction(1)]
    m = 1
    while m < p:
        m = min(2 * m, p)
        ux = _convolve_frac(u[:m], x, m)
        two_minus = [2 - ux[0]] + [-c for c in ux[1:]]
        x = _convolve_frac(x, two_minus, m)
    return Series(-s.lead, [c / c0 for c in x])


def series_sqrt(s: Series, prec: int | None = None) -> Series:
    """Square root with positive leading coefficient.

    Requires an even valuation and a leading coefficient that is a
    square in Q; otherwise raises ``NotASquareError``.  Uses Newton
    iteration (on the inverse square root, so only multiplications are
    needed), doubling the correct window each step.
    """
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


def poly_on_series(p: UniPoly, x: Series) -> Series:
    """Evaluate a polynomial on a series by Horner's rule."""
    acc = Series.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + Series.constant(c)
    return acc


# ---------------------------------------------------------------------------
# Determinants


def bareiss_det(matrix):
    """Exact determinant by fraction-free Bareiss elimination.

    Entries may live in any exact integral domain whose elements support
    ring operations and exact division (``/``) by earlier pivots; the
    divisions performed are exact by construction.  Python ints are taken
    as ``Fraction`` so that ``/`` stays exact.  Zero is a valid result.
    """
    m = [[Fraction(e) if isinstance(e, int) else e for e in row] for row in matrix]
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    if n == 1:
        return m[0][0]
    sign = 1
    prev = None
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            z = m[0][0] - m[0][0]
            return z
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                num = m[r][c] * pivot - m[r][k] * m[k][c]
                m[r][c] = num if prev is None else num / prev
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def cofactor_det(matrix):
    """Reference determinant by cofactor expansion (exponential; tests only)."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total
