"""Exact scalar, polynomial, series, and determinant kernels.

Everything is computed over Q with ``fractions.Fraction`` as the scalar;
there are no floating-point modes and no algebraic extensions.  The four
value types are:

* ``Fraction``        -- the base scalar,
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

``ParamPoly``, ``UniPoly`` and ``Series`` all store integer numerators
over one positive denominator, with their common content removed: a
``ParamPoly`` keys its numerators by exponent pair, the other two keep
a list.  The mixin ``_Exact`` defines once what the three share:
``from_numerators``, the coercion of int and Fraction operands,
subtraction and the reflected operators, and for the two polynomial
types equality and ``is_zero``.  ``_pack`` is the one way in from
rationals and ``_primitive`` the one normaliser, so the stored form is
canonical, and ``terms`` and ``coeffs`` build ``Fraction`` objects only
when asked; the three print through one ``_format_terms``.  The certifier's
Chow-ring and bundle calculus therefore runs on integers, and
``ParamPoly.grid_values`` builds one ``Fraction`` per grid point.  A
``UniPoly`` or ``Series`` product is one call of the integer kernel
``_kernels.convolve`` on the stored numerators.  Polynomial division
(``/`` and the pseudo-remainders of ``gcd``) is one integer
long-division loop, ``_long_div``; ``/`` is exact division, by the
primitive part of the divisor, which stays over Z by Gauss's lemma, and
its core ``_quotient`` returns None where the divisor does not divide.
Determinants have one fraction-free Bareiss loop, ``_bareiss``, over
Z[x] on integer lists: ``convolve`` for the products and ``_long_div``
for the exact divisions by the previous pivot.  The wronskian's y-block
enters it as integer lists; ``bareiss_det`` packs a matrix of int,
Fraction and ``UniPoly`` entries into it, one denominator per row.
``root_multiplicity`` divides by
the primitive q x - p for x0 = p/q with ``_divide_linear``, a synthetic
division over Z with one carry and no list slices.  ``gcd`` runs its
pseudo-remainder sequence only when the integer gcd of the inputs'
values at a large power of two does not prove them coprime.
``poly_on_series`` serves ``expand_at`` and ``curves._local_frame``: it
composes a polynomial with an exact series by Horner's rule on ``Series``
objects with the polynomial's integer numerators.  The Newton loops of
``series_invert`` and ``series_sqrt`` carry one integer list over one
denominator, removing its content at every step.

All values are immutable after construction and safe to share between
threads and caches: ``ParamPoly``, ``UniPoly``, ``Series``, every other
value type of the package and every record (order sequences, weight and
certification reports, closed forms) derive from ``Value``, which sets
the fields once, makes assigning or deleting one raise, compares and
hashes by value, and prints ``Name(field=value, ...)`` by default.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from types import MappingProxyType

from . import _kernels
from .errors import (
    CannotDetermineValuationError,
    NotASquareError,
    PrecisionExhaustedError,
)

_INF = math.inf


class Value:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__`` and sets them once with
    ``_init``; afterwards assignment and deletion raise.  Two values are
    equal iff they have the same type and equal ``_key()``, by default
    the tuple of slot values, and hash as that key.  A value is not a
    tuple: it neither unpacks nor equals one.
    """

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


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
    """Scale rationals (anything ``Fraction`` accepts) to a common
    denominator: returns (int list, den)."""
    cs = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
    den = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def _primitive(nums, den):
    """(nums, den) with the common content of the numerators and den
    removed and den made positive; with den = 0 the primitive part of nums."""
    if den == 1:
        return nums, den
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return ([c // g for c in nums], den // g) if g != 1 else (nums, den)


def _trim(nums):
    """The integer list ``nums`` without its trailing zeros."""
    hi = len(nums)
    while hi and not nums[hi - 1]:
        hi -= 1
    return nums[:hi]


def _long_div(nums, divisor):
    """Long division over Z of the integer list ``nums`` by ``divisor``:
    (quotient, remainder) as integer lists, or None as soon as a quotient
    coefficient is not an integer.  Each step is one exact ``divmod`` by
    the lead of the divisor; a caller that needs every step to succeed
    scales ``nums`` by a power of that lead first."""
    rem = list(nums)
    n = len(divisor) - 1
    lead = divisor[-1]
    quo = [0] * max(len(rem) - n, 0)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + n], lead)
        if r:
            return None
        quo[k] = c
        if c:
            rem[k : k + n] = [a - c * b for a, b in zip(rem[k : k + n], divisor)]
    return quo, rem[:n]


def _divide_linear(nums, p: int, q: int):
    """Quotient of the integer list ``nums`` by the primitive q x - p
    (q > 0), or None when q x - p does not divide it.  Synthetic division
    from the top: each carry is the next coefficient plus p times the
    last quotient coefficient, the next quotient coefficient is the carry
    over q, and the carry past the constant term is the remainder."""
    quo, b = [], 0
    if q == 1:
        for a in reversed(nums):
            b = a + b * p
            quo.append(b)
    else:
        for a in reversed(nums):
            b, r = divmod(a + b * p, q)
            if r:
                return None
            quo.append(b)
    return None if b else quo[-2::-1]


def _homogeneous_value(nums, p: int, q: int) -> int:
    """q^n times the value at p/q of the integer polynomial ``nums``
    (degree n): Horner's rule on sum nums[k] p^k q^(n-k)."""
    acc = 0
    qk = 1
    for c in reversed(nums):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _at_power_of_two(nums, k: int) -> int:
    """The integer polynomial ``nums`` at 2^k: Horner's rule on shifts."""
    acc = 0
    for c in reversed(nums):
        acc = (acc << k) + c
    return acc


def _certified_coprime(a, b) -> bool:
    """True only if the primitive integer polynomials a and b (nonzero
    lists) are coprime; False proves nothing.

    A common factor of degree d >= 1 has a primitive multiple G in Z[x]
    dividing a and b (Gauss), so ||G||_1 <= M = 2^deg P ||P||_2 for either
    input P (Mignotte, Landau).  For xi = 2^k > 2M, |G(xi)| >= xi^(d-1)
    (xi - (M - 1)) >= xi - M > 0, and G(xi) divides h = gcd(a(xi), b(xi));
    so 0 < h < xi - M proves a and b coprime."""
    bound = min((math.isqrt(sum(c * c for c in p)) + 1) << (len(p) - 1) for p in (a, b))
    k = (2 * bound).bit_length()
    return 0 < math.gcd(_at_power_of_two(a, k), _at_power_of_two(b, k)) < (1 << k) - bound


def _power(base, e: int):
    """``__pow__`` of ``ParamPoly`` and ``UniPoly``: base**e by repeated
    squaring, for an int e >= 0."""
    if not isinstance(e, int):
        raise TypeError(f"polynomial exponent must be an int, not {type(e).__name__}")
    if e < 0:
        raise ValueError("negative power of a polynomial")
    out = type(base).const(1)
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


class _Exact:
    """Rules shared by ``ParamPoly``, ``UniPoly`` and ``Series``, which store
    integer numerators ``nums`` over one denominator ``den``.  Each type's
    ``_store`` normalises a stored form given as one tuple, and its
    ``_scalar`` makes an int or Fraction operand a constant."""

    __slots__ = ()

    @classmethod
    def from_numerators(cls, *parts):
        """The value stored as ``parts``, normalised: (nums, den) for a
        polynomial, (lead, nums, den, exact) for a series; den is nonzero."""
        new = object.__new__(cls)
        new._store(parts)
        return new

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self._scalar(other)
        return NotImplemented

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def is_zero(self) -> bool:
        return not self.nums


def _monomial(names: str, exponents) -> str:
    """The monomial with these exponents in one-letter variables; "" for 1."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exponents) if e)


def _format_terms(pairs) -> str:
    """Text of a sum of (coefficient, monomial) terms, the monomial ""
    for a constant: a unit coefficient is dropped, a constant prints as
    its value, "+ -" becomes "- ", and no terms at all print as 0."""
    parts = []
    for c, mono in pairs:
        if not mono:
            parts.append(str(c))
        elif c == 1 or c == -1:
            parts.append(mono if c == 1 else "-" + mono)
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


# ---------------------------------------------------------------------------
# ParamPoly: polynomials in the formal parameters (g, i)


class _Numerators(dict):
    """The numerator map of a ``ParamPoly``: a dict whose item
    assignment and deletion raise, so a shared polynomial cannot change.
    A subclass rather than a mappingproxy over a dict, so a polynomial
    still holds one map object and compares it with dict equality."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("ParamPoly numerators are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


class ParamPoly(_Exact, Value):
    """Polynomial in the formal parameters (g, i) with rational coefficients.

    Stored as sum(nums[(e_g, e_i)] g^e_g i^e_i) / den: a read-only map
    from exponent pairs to nonzero integer numerators over one positive
    denominator, with the common content of numerators and denominator
    removed.  The stored form is canonical, so two polynomials are equal
    iff their (nums, den) are.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        terms = terms or {}
        try:
            keys = [(operator.index(eg), operator.index(ei)) for eg, ei in terms]
        except TypeError:
            keys = None
        if keys is None or any(eg < 0 or ei < 0 for eg, ei in keys):
            raise ValueError("exponents must be nonnegative integers")
        nums, den = _pack(terms.values())
        self._store((dict(zip(keys, nums)), den))

    def _store(self, parts):
        """Drop zero numerators, remove the content and make den positive."""
        nums, den = parts
        nums = {k: c for k, c in nums.items() if c}
        vals = list(nums.values())
        prim, den = _primitive(vals, den)
        object.__setattr__(self, "nums", _Numerators(nums if prim is vals else zip(nums, prim)))
        object.__setattr__(self, "den", den)

    @classmethod
    def const(cls, c) -> "ParamPoly":
        return cls({(0, 0): c})

    @classmethod
    def g(cls) -> "ParamPoly":
        return cls({(1, 0): 1})

    @classmethod
    def i(cls) -> "ParamPoly":
        return cls({(0, 1): 1})

    @property
    def terms(self) -> MappingProxyType:
        """Read-only map from exponent pairs to the coefficients as
        Fractions."""
        return MappingProxyType({k: Fraction(c, self.den) for k, c in self.nums.items()})

    @staticmethod
    def _scalar(c):
        return ParamPoly.from_numerators({(0, 0): c.numerator}, c.denominator) if c else _ZERO

    # a zero operand (mostly a zero ChowClass coordinate) returns the other
    # operand or the shared zero, and a scalar factor scales the numerators

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.nums:
            return self
        if not self.nums:
            return other
        den = math.lcm(self.den, other.den)
        scale = den // self.den
        nums = {k: c * scale for k, c in self.nums.items()}
        scale = den // other.den
        for k, c in other.nums.items():
            nums[k] = nums.get(k, 0) + c * scale
        return ParamPoly.from_numerators(nums, den)

    def __neg__(self):
        return ParamPoly.from_numerators({k: -c for k, c in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not (other and self.nums):
                return _ZERO
            n = other.numerator
            return ParamPoly.from_numerators(
                {k: c * n for k, c in self.nums.items()}, self.den * other.denominator
            )
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if not (self.nums and other.nums):
            return _ZERO
        nums = {}
        for (ag, ai), av in self.nums.items():
            for (bg, bi), bv in other.nums.items():
                k = (ag + bg, ai + bi)
                nums[k] = nums.get(k, 0) + av * bv
        return ParamPoly.from_numerators(nums, self.den * other.den)

    __pow__ = _power

    def __hash__(self):
        # a constant hashes as its value, since it equals that int or Fraction
        c = self.nums.get((0, 0), 0)
        if len(self.nums) == (1 if c else 0):
            return hash(Fraction(c, self.den))
        return hash((frozenset(self.nums.items()), self.den))

    def __bool__(self):
        return bool(self.nums)

    def degrees(self):
        """Per-variable degrees (d_g, d_i); (0, 0) for the zero polynomial."""
        dg = max((eg for eg, _ in self.nums), default=0)
        di = max((ei for _, ei in self.nums), default=0)
        return dg, di

    def __call__(self, g, i) -> Fraction:
        """Exact value at integer (or rational) arguments."""
        return self.grid_values([Fraction(g)], [Fraction(i)])[0]

    def grid_values(self, g_points, i_points) -> list[Fraction]:
        """Exact values at every (g, i) of the grid, g-major, by one inline
        Horner loop for integer and rational points alike: per g = p/q, on
        whole rows of integer numerators, for q^dg times the coefficients
        of a polynomial in i; per i = r/s, for s^di times its value.  At
        integer points q = s = 1, and a value over 1 is Fraction(numerator)."""
        dg, di = self.degrees()
        rows = [[0] * (di + 1) for _ in range(dg + 1)]
        for (eg, ei), c in self.nums.items():
            rows[dg - eg][di - ei] = c
        i_points = [(i.numerator, i.denominator) for i in i_points]
        out = []
        for g in g_points:
            p, q = g.numerator, g.denominator
            col, qk = rows[0], 1
            for row in rows[1:]:
                qk *= q
                col = [a * p + c * qk for a, c in zip(col, row)]
            lead, tail = col[0], col[1:]
            for r, s in i_points:
                acc, sk = lead, 1
                for c in tail:
                    sk *= s
                    acc = acc * r + c * sk
                den = self.den * qk * sk
                out.append(Fraction(acc, den) if den != 1 else Fraction(acc))
        return out

    def __repr__(self):
        keys = sorted(self.nums, key=lambda k: (-(k[0] + k[1]), -k[0]))
        return _format_terms((Fraction(self.nums[k], self.den), _monomial("gi", k)) for k in keys)


_ZERO = ParamPoly()


# ---------------------------------------------------------------------------
# UniPoly: dense univariate polynomials over Q


class UniPoly(_Exact, Value):
    """Dense univariate polynomial over Q; the zero polynomial has no terms.

    Stored as sum(nums[k] x^k) / den: integer numerators over one positive
    denominator, with the common content of numerators and denominator
    removed and no trailing zero numerator.  The stored form is
    canonical, so two polynomials are equal iff their (nums, den) are.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        self._store(_pack(coeffs))

    def _store(self, parts):
        """Strip trailing zero numerators, remove the content and make den positive."""
        nums, den = _primitive(_trim(parts[0]), parts[1])
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls([c])

    @classmethod
    def x(cls) -> "UniPoly":
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients as Fractions, lowest exponent first."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def __bool__(self):
        return bool(self.nums)

    @property
    def lead(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __getitem__(self, k) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    @staticmethod
    def _scalar(c):
        return UniPoly.from_numerators([c.numerator], c.denominator)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        a[: len(b)] = [x + y for x, y in zip(a, b)]
        return UniPoly.from_numerators(a, den)

    def __neg__(self):
        return UniPoly.from_numerators([-c for c in self.nums], self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return UniPoly.from_numerators(_product(self.nums, other.nums), self.den * other.den)

    __pow__ = _power

    def __truediv__(self, other):
        """Quotient self/other, raising if the division is not exact.  The
        numerators are divided by the primitive part of other's, which by
        Gauss's lemma leaves an integer quotient whenever it divides."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo = self._quotient(other)
        if quo is None:
            raise ValueError("inexact polynomial division")
        return quo

    def _quotient(self, other: "UniPoly"):
        """The core of ``/``: self/other for a nonzero UniPoly other, or
        None when other does not divide self."""
        content = math.gcd(*other.nums)
        out = _long_div(self.nums, [c // content for c in other.nums])
        if out is None or any(out[1]):
            return None
        return UniPoly.from_numerators([c * other.den for c in out[0]], self.den * content)

    def __hash__(self):
        # a constant hashes as its value, since it equals that int or Fraction
        if len(self.nums) <= 1:
            return hash(Fraction(self.nums[0] if self.nums else 0, self.den))
        return hash((self.nums, self.den))

    def derivative(self) -> "UniPoly":
        return UniPoly.from_numerators([k * c for k, c in enumerate(self.nums)][1:], self.den)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return UniPoly.from_numerators(self.nums, self.nums[-1])

    def gcd(self, other) -> "UniPoly":
        """Monic greatest common divisor: ``_certified_coprime`` first,
        then a primitive pseudo-remainder sequence over the integers, the
        only path that returns a nontrivial gcd."""
        if (q := self._coerce(other)) is NotImplemented:
            raise TypeError(f"gcd of a UniPoly and a {type(other).__name__}")
        other = q
        if self.is_zero():
            return other.monic()
        if other.is_zero():
            return self.monic()
        a = _primitive(self.nums, 0)[0]
        b = _primitive(other.nums, 0)[0]
        if _certified_coprime(a, b):
            return UniPoly.const(1)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            # primitive pseudo-remainder of a by b
            scale = b[-1] ** (len(a) - len(b) + 1)
            r = _long_div([c * scale for c in a], b)[1]
            while r and not r[-1]:
                r.pop()
            if not r:
                return UniPoly.from_numerators(b, b[-1])
            a, b = b, _primitive(r, 0)[0]
        return UniPoly.const(1)

    def squarefree_part(self) -> "UniPoly":
        """Monic product of the distinct irreducible factors."""
        if self.degree <= 0:
            return UniPoly.const(1) if not self.is_zero() else self
        shared = self.gcd(self.derivative())
        return (self if shared.degree == 0 else self / shared).monic()

    def is_squarefree(self) -> bool:
        return self.degree <= 0 or self.gcd(self.derivative()).degree == 0

    def evaluate(self, v) -> Fraction:
        v = Fraction(v)
        acc = _homogeneous_value(self.nums, v.numerator, v.denominator)
        return Fraction(acc, self.den * v.denominator ** max(len(self.nums) - 1, 0))

    def root_multiplicity(self, x0) -> int:
        """Multiplicity of x0 = p/q as a root (0 when p(x0) != 0): how many
        times the numerators divide by the primitive q x - p, exactly over
        Z by Gauss's lemma, each time by ``_divide_linear``."""
        if self.is_zero():
            raise ValueError("every point is a root of the zero polynomial")
        x0 = Fraction(x0)
        p, q = x0.numerator, x0.denominator
        nums, m = self.nums, 0
        while len(nums) > 1 and (quo := _divide_linear(nums, p, q)) is not None:
            nums, m = quo, m + 1
        return m

    def simple_rational_roots(self) -> list[Fraction]:
        """Sorted rational roots of a squarefree polynomial of positive
        degree.  A repeated rational root raises ``ValueError`` instead of
        a search without end (``_integer_root_candidates``).

        With numerators of degree n and lead c, q(z) = c^(n-1) p(z/c) is
        monic and squarefree over Z, so z = c x is an integer for every
        rational root x.  The integer roots of q come from p-adic lifting,
        at a cost that grows with the bit size of the coefficients, and
        each candidate is settled by one exact evaluation.
        """
        ints, lead = self.nums, self.nums[-1]
        q = [c * lead ** (len(ints) - 2 - j) for j, c in enumerate(ints[:-1])] + [1]
        cands = _integer_root_candidates(q)
        return sorted(Fraction(z, lead) for z in cands if not _homogeneous_value(ints, z, lead))

    def __repr__(self):
        return _format_terms(
            (Fraction(c, self.den), _monomial("x", (k,))) for k, c in reversed(list(enumerate(self.nums))) if c
        )


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
    No prime does when q has a repeated integer root, so once eight
    primes are rejected q is tested once and, if not squarefree, refused.
    """
    dcs = [k * c for k, c in enumerate(cs)][1:]
    n = len(cs) - 1
    exp = max((abs(cs[n - k]).bit_length() + k - 1) // k for k in range(1, n + 1))
    bound = 2 ** (exp + 1)
    prime, rejected = 1, 0
    while True:
        prime += 1
        if any(prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
            continue
        residues = [r for r in range(prime) if _eval_mod(cs, r, prime) == 0]
        if all(_eval_mod(dcs, r, prime) for r in residues):
            break
        rejected += 1
        if rejected == 8 and not UniPoly(cs).is_squarefree():
            raise ValueError("the polynomial has a repeated root")
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


class Series(_Exact, Value):
    """Truncated Laurent series in a local parameter t.

    Stored as t^lead * sum(nums[k] t^k) / den: integer numerators over
    one positive denominator, with the common content of numerators and
    denominator removed.  ``lead`` is an exact lower bound for the
    valuation and the first numerator is nonzero whenever any is stored,
    so ``lead`` is the valuation itself for a visibly nonzero series.
    The coefficients are known exactly for every exponent below
    ``known_up_to``; an empty inexact series represents "zero modulo
    t^lead" and an empty exact series is the true zero.  The stored form
    is canonical, so two series are equal iff their (lead, nums, den,
    exact) are.
    """

    __slots__ = ("lead", "nums", "den", "exact")

    def __init__(self, lead: int, coeffs=(), exact: bool = False):
        self._store((lead, *_pack(coeffs), exact))

    def _store(self, parts):
        """Strip zero numerators (trailing ones only when exact), remove the
        content and make den positive."""
        lead, nums, den, exact = parts
        lo, hi = 0, len(nums)
        while lo < hi and not nums[lo]:
            lo += 1
        if exact:
            while hi > lo and not nums[hi - 1]:
                hi -= 1
        nums, den = _primitive(nums[lo:hi], den)
        object.__setattr__(self, "lead", 0 if exact and not nums else lead + lo)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "exact", bool(exact))

    # -- constructors

    @classmethod
    def zero(cls) -> "Series":
        return cls.from_numerators(0, (), 1, True)

    @classmethod
    def monomial(cls, e: int, c=1) -> "Series":
        return cls(e, [c], exact=True)

    # -- structure

    coeffs = UniPoly.coeffs

    @property
    def known_up_to(self):
        return _INF if self.exact else self.lead + len(self.nums)

    @property
    def valuation(self) -> int:
        if not self.nums:
            raise CannotDetermineValuationError(
                "all known coefficients are zero"
            )
        return self.lead

    @property
    def precision(self) -> int:
        """Number of known coefficients starting at the valuation."""
        return len(self.nums)

    def is_zero(self) -> bool:
        """True only for the exact zero series."""
        return self.exact and not self.nums

    # a series equals only a series with the same stored form, never a scalar
    __eq__, __hash__ = Value.__eq__, Value.__hash__

    def coefficient(self, e: int) -> Fraction:
        if e < self.lead:
            return Fraction(0)
        if e < self.known_up_to:
            idx = e - self.lead
            return Fraction(self.nums[idx], self.den) if idx < len(self.nums) else Fraction(0)
        raise PrecisionExhaustedError(
            f"coefficient of t^{e} requested but series is only known below t^{self.known_up_to}"
        )

    # -- arithmetic

    @staticmethod
    def _scalar(c):
        return Series.from_numerators(0, [c.numerator], c.denominator, True)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        k = min(self.known_up_to, other.known_up_to)
        exact = math.isinf(k)
        if exact:
            base = min(self.lead, other.lead)
            top = max(self.lead + len(self.nums), other.lead + len(other.nums))
        else:
            base = min(self.lead, other.lead, k)
            top = k
        den = math.lcm(self.den, other.den)
        out = [0] * (top - base)
        sc = self.nums[: max(0, top - self.lead)]
        scale = den // self.den
        out[self.lead - base : self.lead - base + len(sc)] = [c * scale for c in sc]
        scale = den // other.den
        off = other.lead - base
        for j, c in enumerate(other.nums[: max(0, top - other.lead)]):
            out[off + j] += c * scale
        return Series.from_numerators(base, out, den, exact)

    def __neg__(self):
        return Series.from_numerators(self.lead, [-c for c in self.nums], self.den, self.exact)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Series.zero()
        base = self.lead + other.lead
        k = min(self.lead + other.known_up_to, other.lead + self.known_up_to)
        if math.isinf(k):
            n = len(self.nums) + len(other.nums) - 1
            exact = True
        else:
            n = int(k) - base
            exact = False
        if n <= 0 or not self.nums or not other.nums:
            return Series(0 if math.isinf(k) else int(k), (), exact=exact)
        return Series.from_numerators(
            base, _kernels.convolve(self.nums, other.nums, n), self.den * other.den, exact
        )

    def scale(self, c) -> "Series":
        """c times the series, for an int or a Fraction c."""
        if not c:
            return Series.zero()
        return Series.from_numerators(
            self.lead, [c.numerator * a for a in self.nums], self.den * c.denominator, self.exact
        )

    def shift(self, k: int) -> "Series":
        """Multiply by t^k."""
        return Series.from_numerators(self.lead + k, self.nums, self.den, self.exact)

    def derivative(self) -> "Series":
        nums = [(self.lead + k) * c for k, c in enumerate(self.nums)]
        return Series.from_numerators(self.lead - 1, nums, self.den, self.exact)

    def __repr__(self):
        body = _format_terms(
            (Fraction(c, self.den), _monomial("t", (self.lead + k,))) for k, c in enumerate(self.nums[:8]) if c
        )
        if self.exact:
            return f"Series({body})"
        return f"Series({body} + O(t^{self.known_up_to}))"


def _newton_window(s: Series, prec, what: str) -> int:
    """Coefficients a Newton loop on s can justify: prec, which must be
    positive and is required when s is exact."""
    if prec is not None and prec < 1:
        raise ValueError("precision must be positive")
    if not s.exact:
        return len(s.nums) if prec is None else min(prec, len(s.nums))
    if prec is None:
        raise ValueError(f"precision required {what} an exact series")
    return prec


def series_invert(s: Series, prec: int | None = None) -> Series:
    """Multiplicative inverse of a series, to the justified precision.

    For an inexact input the result carries min(prec, s.precision)
    coefficients; exact monomials invert exactly.  Exact multi-term
    inputs need an explicit ``prec`` since their inverse is infinite.
    """
    if not s.nums:
        raise CannotDetermineValuationError(
            "cannot invert a series whose known coefficients are all zero"
        )
    if s.exact and len(s.nums) == 1:
        return Series.from_numerators(-s.lead, [s.den], s.nums[0], True)
    p = _newton_window(s, prec, "to invert")
    # u = s / c0 is u_k = nums[k] / nums[0]; x = 1/u is xs / dx.
    nums = s.nums[:p]
    du = nums[0]
    # Newton iteration x <- x(2 - u x), doubling the correct window
    xs, dx = [1], 1
    m = 1
    while m < p:
        m = min(2 * m, p)
        d = du * dx
        ux = _kernels.convolve(nums[:m], xs, m)
        two_minus = [2 * d - ux[0]] + [-c for c in ux[1:]]
        xs, dx = _primitive(_kernels.convolve(xs, two_minus, m), dx * d)
    # 1/s = (1/u) / c0 with c0 = du / den
    return Series.from_numerators(-s.lead, [c * s.den for c in xs], dx * du, False)


def series_sqrt(s: Series, prec: int | None = None) -> Series:
    """Square root with positive leading coefficient.

    Requires an even valuation and a leading coefficient that is a
    square in Q; otherwise raises ``NotASquareError``.  Uses Newton
    iteration (on the inverse square root, so only multiplications are
    needed), doubling the correct window each step.
    """
    if s.is_zero():
        return s
    if not s.nums:
        raise CannotDetermineValuationError(
            "cannot take the root of a series whose known coefficients are all zero"
        )
    if s.lead % 2:
        raise NotASquareError(f"odd valuation {s.lead}")
    c0 = Fraction(s.nums[0], s.den)
    r0 = rat_sqrt(c0)
    if r0 is None:
        raise NotASquareError(f"leading coefficient {c0} is not a square in Q")
    if s.exact and len(s.nums) == 1:
        return Series.monomial(s.lead // 2, r0)
    p = _newton_window(s, prec, "for the root of")
    # u = s / c0 is u_k = nums[k] / nums[0]; z = u^(-1/2) is zs / dz.
    nums = list(s.nums[:p])
    du = nums[0]
    nums += [0] * (p - len(nums))
    zs, dz = [1], 1
    m = 1
    while m < p:
        m = min(2 * m, p)
        d = du * dz * dz
        zz = _kernels.convolve(zs, zs, m)
        uzz = _kernels.convolve(nums[:m], zz, m)
        corr = [3 * d - uzz[0]] + [-c for c in uzz[1:]]
        zs, dz = _primitive(_kernels.convolve(zs, corr, m), 2 * dz * d)
    # sqrt(s) = r0 * u * z
    root = _kernels.convolve(nums, zs, p)
    return Series.from_numerators(
        s.lead // 2, [c * r0.numerator for c in root], du * dz * r0.denominator, False
    )


def poly_on_series(p: UniPoly, x: Series) -> Series:
    """Evaluate a polynomial on a series by Horner's rule on its integer
    numerators, dividing by its denominator once.  Zero coefficients,
    most of them for a monomial, are skipped rather than added."""
    acc = Series.zero()
    for c in reversed(p.nums):
        acc = acc * x
        if c:
            acc = acc + c
    return acc if p.den == 1 else acc.scale(Fraction(1, p.den))


# ---------------------------------------------------------------------------
# Determinants


def _product(a, b):
    """Product of two integer polynomials as lists; [] is zero."""
    return _kernels.convolve(a, b, len(a) + len(b) - 1) if a and b else []


def _bareiss(matrix):
    """Determinant over Z[x] by fraction-free Bareiss elimination
    (Bareiss 1968): the entries are integer lists, constant term first,
    and so is the result, without trailing zeros; [] is zero.

    Step k swaps a row with a nonzero pivot into place (the determinant
    is zero when there is none) and replaces every later entry by
    (m[r][c] m[k][k] - m[r][k] m[k][c]) / p, p the previous pivot.  Each
    new entry is a minor of the matrix, so every division is exact in
    Z[x] and one integer long division does it; products are
    ``_kernels.convolve``."""
    m = [[_trim(e) for e in row] for row in matrix]
    n = len(m)
    sign, prev = 1, None
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return []
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for c in range(k + 1, n):
                a, b = _product(row[c], pivot), _product(lead, top[c])
                if len(a) < len(b):
                    a += [0] * (len(b) - len(a))
                a[: len(b)] = [u - v for u, v in zip(a, b)]
                a = _trim(a)
                row[c] = a if prev is None else _long_div(a, prev)[0]
        prev = pivot
    det = m[-1][-1]
    return det if sign > 0 else [-c for c in det]


def bareiss_det(matrix):
    """Exact determinant of a square matrix of ints, Fractions and
    UniPolys, by the Bareiss loop ``_bareiss`` over Z[x].

    Each row is packed as integer numerators over one denominator, the
    lcm of its entries'; the determinant of the numerators over the
    product of those denominators is a ``Fraction`` when every entry is
    a scalar and a ``UniPoly`` otherwise.  Zero is a valid result.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    entries = [e for row in matrix for e in row]
    if not all(isinstance(e, (int, Fraction, UniPoly)) for e in entries):
        raise TypeError("determinant entries must be int, Fraction or UniPoly")
    rows, den = [], 1
    for row in matrix:
        row = [e if isinstance(e, UniPoly) else UniPoly._scalar(e) for e in row]
        d = math.lcm(*[e.den for e in row])
        rows.append([[c * (d // e.den) for c in e.nums] for e in row])
        den *= d
    det = _bareiss(rows)
    if any(isinstance(e, UniPoly) for e in entries):
        return UniPoly.from_numerators(det, den)
    return Fraction(det[0] if det else 0, den)
