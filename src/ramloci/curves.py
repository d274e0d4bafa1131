"""Explicit odd hyperelliptic models y^2 = f(x) and their ramification data.

A model is y^2 = f(x) with f monic, squarefree, of odd degree 2g+1, so
there is a single place at infinity and it is a branch place.  The
differentials dx/y, x dx/y, ... give an explicit monomial basis of the
sections of the (i+1)-fold twist of the canonical bundle at infinity,
and local expansions in local parameters turn vanishing orders into
exact integer data:

* ordinary place (x0, y0), y0 != 0:   x = x0 + t
* branch place  (x0, 0):              x = x0 + t^2/c with c = f'(x0)
* infinity:                           x = t^-2

so x and dx/dt are exact everywhere, and at every place y is the square
root of the exact series f(x(t)) for that x, with the sign of y0 at an
ordinary place and leading term t at a branch place.

Located order sequences, at rational branch places and at infinity, are
closed forms in the basis exponents, cross-checked against the
wronskian.  The series ladder expands y times the sections, x^a y^b
dx/dt, as two ladders from dx/dt and y dx/dt, each multiplied by the
exact x once per rung, and reads the orders off by valuation-staircase
elimination; it serves ordinary places (``curve orders --place``) and is
the tests' oracle for the closed forms.  A place is checked where it is
expanded, in ``_exact_frame``, which the y frame builds on; a located
branch place is checked by ``order_sequence_at``.  The weight carried by
places the engine cannot expand exactly (ordinary points with irrational
coordinates, branch points over irrational roots of f) is recovered
without any root-finding from the valuations of the affine wronskian,
whose divisor has degree zero.

The affine wronskian and the division polynomials are computed in Q[x]
and only the result is wrapped as a ``CurveFunction`` num y^k/den with
k in {0, 1}, a canonical-form value type with no arithmetic of its own.
The torsion oracle compares the block determinant, stripped of f's
factors, with the division polynomial as they are.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from . import _kernels
from .errors import (
    CurveValidationError,
    DegenerateSystemError,
    EvenDegreeError,
    InconclusiveError,
    InternalCheckError,
    NotMonicError,
    NotOnCurveError,
    NotSquarefreeError,
    UnsupportedModelError,
)
from .numeric import (
    Series,
    UniPoly,
    Value,
    _bareiss,
    _certified_coprime,
    _homogeneous_value,
    _monomial,
    _primitive,
    bareiss_det,  # unused here; perfbench/tracer.py wraps it under this module
    poly_on_series,
    series_invert,
    series_sqrt,
)

PRECISION_CAP = 2**14

ORDINARY = "ordinary"
BRANCH = "branch"
INFINITY = "infinity"


class _DxOverY:
    """Sentinel for the distinguished differential dx/y in expand_at."""

    def __repr__(self):
        return "dx/y"


DX_OVER_Y = _DxOverY()


def start_precision(g: int, i: int) -> int:
    """Initial expansion precision, d + 1 with d = 2g - 1 + i.

    Every vanishing order of the system is at most its degree d, so the
    staircase needs each series known through t^d, and y times each
    section, moved back by v(y), is known below t^prec.  The loop in
    ``_series_orders`` keeps any start correct; this one never needs
    a doubling, since each nonzero section has an order at most d.
    """
    return 2 * g + i


# ---------------------------------------------------------------------------
# Places and models


class Place(Value):
    """A place of a model: its kind, with (x, y) at an affine place."""

    __slots__ = ("kind", "x", "y")

    def __init__(self, kind: str, x: Fraction | None = None, y: Fraction | None = None):
        self._init(kind, x, y)

    def __repr__(self):
        return f"Place({self.kind!r}, {self.x!r}, {self.y!r})"

    @classmethod
    def ordinary(cls, x, y) -> "Place":
        return cls(ORDINARY, Fraction(x), Fraction(y))

    @classmethod
    def branch(cls, x) -> "Place":
        return cls(BRANCH, Fraction(x), Fraction(0))

    @classmethod
    def infinity(cls) -> "Place":
        return cls(INFINITY)

    def __str__(self):
        if self.kind == INFINITY:
            return "infinity"
        return f"({self.x}, {self.y})"


class HyperellipticModel(Value):
    """Odd hyperelliptic model y^2 = f(x), built from f alone: the
    constructor validates f and derives the genus and branch abscissae."""

    __slots__ = ("f", "genus", "branch_x")

    def __init__(self, f: UniPoly):
        if f.is_zero():
            raise CurveValidationError("f is the zero polynomial")
        if f.degree < 3:
            raise CurveValidationError(f"degree must be at least 3, got {f.degree}")
        if f.degree % 2 == 0:
            raise EvenDegreeError(f"degree {f.degree} is even; an odd model is required")
        if f.lead != 1:
            raise NotMonicError(f"leading coefficient {f.lead} is not 1")
        if not f.is_squarefree():
            raise NotSquarefreeError("f has a repeated root; the curve would be singular")
        self._init(f, (f.degree - 1) // 2, tuple(f.simple_rational_roots()))

    def _key(self) -> tuple:
        return (self.f,)

    def __repr__(self):
        return f"HyperellipticModel(y^2 = {self.f})"

    @classmethod
    def from_poly(cls, f: UniPoly) -> "HyperellipticModel":
        """``cls(f)``, under the name the CLI and the benchmark tracer call."""
        return cls(f)

    def monomial(self, a: int, b: int) -> "CurveFunction":
        return CurveFunction(self, UniPoly.x() ** a, b, UniPoly.const(1))

    def check_place(self, place: Place) -> None:
        if place.kind == INFINITY:
            return
        if place.kind == BRANCH:
            # q^n f(p/q) for x0 = p/q: one integer Horner pass, no Fraction
            if _homogeneous_value(self.f.nums, place.x.numerator, place.x.denominator):
                raise NotOnCurveError(f"{place} is not a branch place: f(x0) != 0")
            return
        fx = self.f.evaluate(place.x)
        if place.y == 0:
            raise NotOnCurveError(f"{place} has y = 0; use a branch place")
        if place.y * place.y != fx:
            raise NotOnCurveError(f"{place} does not satisfy y^2 = f(x)")


# ---------------------------------------------------------------------------
# Function field elements: num(x) y^k / den(x) with y^2 = f and k in {0, 1}


class CurveFunction(Value):
    """Element num(x) y^k / den(x) of the function field of a model.

    Every function the engine builds has this shape, with k in {0, 1}:
    a basis monomial x^a y^b, the affine wronskian and a division
    polynomial.  Canonical form: gcd(num, den) = 1 and den monic, so two
    elements are equal iff their (num, k, den) are.  This is a value
    type: the wronskian and the division polynomials are computed in
    Q[x] and wrapped once.  The caller passes num and den with no common
    factor (the wronskian cancels its own, against f); the constructor
    makes den monic.
    """

    __slots__ = ("model", "num", "k", "den")

    def __init__(self, model, num: UniPoly, k: int, den: UniPoly):
        if k not in (0, 1):
            raise ValueError(f"the power of y must be 0 or 1, got {k}")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        scale = 1 / den.lead
        self._init(model, num * scale if scale != 1 else num, k, den.monic())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        body = f"({self.num})*y" if self.k else f"{self.num}"
        if self.den == UniPoly.const(1):
            return body
        return f"({body})/({self.den})"


# ---------------------------------------------------------------------------
# Monomial bases of the twisted canonical systems


class MonomialBasis(Value):
    """Monomials x^a y^b with 2a + (2g+1)b <= 2g+i-1, by pole order.

    Multiplying by dx/y (whose divisor is (2g-2) times the place at
    infinity) identifies them with a basis of the sections of the
    (i+1)-fold twist of the canonical bundle at infinity; there are
    exactly g+i of them and their pole orders are pairwise distinct.
    Built from (model, i) alone: the wronskian reads the x-monomials as
    1, x, ..., x^A, so exponents from a caller could skew it silently.
    """

    __slots__ = ("model", "i", "exponents")

    def __init__(self, model: HyperellipticModel, i: int):
        i = operator.index(i)
        if i < 0:
            raise ValueError("i must be nonnegative")
        g = model.genus
        w = 2 * g + 1
        limit = 2 * g + i - 1
        exps = []
        for b in (0, 1):
            a = 0
            while 2 * a + w * b <= limit:
                exps.append((a, b))
                a += 1
        exps.sort(key=lambda ab: 2 * ab[0] + w * ab[1])
        if len(exps) != g + i:
            raise InternalCheckError(
                f"basis staircase produced {len(exps)} monomials, expected {g + i}"
            )
        self._init(model, i, tuple(exps))

    def __repr__(self):
        return f"MonomialBasis(i={self.i}, {self.monomial_names()})"

    def __len__(self):
        return len(self.exponents)

    @property
    def pole_orders(self) -> tuple[int, ...]:
        w = 2 * self.model.genus + 1
        return tuple(2 * a + w * b for a, b in self.exponents)

    def monomial_names(self) -> tuple[str, ...]:
        return tuple(_monomial("xy", ab) or "1" for ab in self.exponents)


def build_basis(model: HyperellipticModel, i: int) -> MonomialBasis:
    """``MonomialBasis(model, i)``, under the name the CLI and the tests call."""
    return MonomialBasis(model, i)


# ---------------------------------------------------------------------------
# Local expansions


def _solve_branch_parameter(fx: Series, prec: int) -> Series:
    """y to prec coefficients at every kind of place: the square root of
    the exact fx = f(x(t)) with positive leading coefficient.  The name
    predates the exact frame; ``perfbench/tracer.py`` times this function
    as the ``curves.branch_newton`` layer."""
    return series_sqrt(fx, prec=prec)


def _exact_frame(model: HyperellipticModel, place: Place):
    """Exact series for (x, dx/dt) in the local parameter at a place:
    x0 + t, x0 + t^2/f'(x0) or t^-2, none of which needs y.

    The place is checked here: a place that is not on the curve raises
    before anything is expanded.
    """
    model.check_place(place)
    if place.kind == INFINITY:
        x = Series.monomial(-2, 1)
    elif place.kind == BRANCH:
        x = Series(0, [place.x, 0, 1 / model.f.derivative().evaluate(place.x)], exact=True)
    else:
        x = Series(0, [place.x, 1], exact=True)
    return x, x.derivative()


@functools.lru_cache(maxsize=256)
def _local_frame(model: HyperellipticModel, place: Place, prec: int):
    """y at a place, the inexact part of the local frame: the square root
    of f(x(t)) for the x of ``_exact_frame``, which checks the place, so
    one off the curve raises and is never cached.  f(x(t)) leads with y0^2
    at an ordinary place, where y takes the sign of y0, and with 1 at the
    others; ``_solve_branch_parameter`` keeps the root under a traced name."""
    x, _ = _exact_frame(model, place)
    y = _solve_branch_parameter(poly_on_series(model.f, x), prec)
    return -y if place.kind == ORDINARY and place.y < 0 else y


def expand_at(model: HyperellipticModel, fn, place: Place, precision: int) -> Series:
    """Laurent expansion in the local parameter of the place.

    ``fn`` is a CurveFunction, or the sentinel ``DX_OVER_Y`` for the
    distinguished differential expanded against dt.  x is exact at every
    place, so only y and 1/y limit the known window; each section of a
    twisted system, fn times dx/y, comes out known below t^precision.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    x, dxdt = _exact_frame(model, place)
    if fn is DX_OVER_Y:
        return dxdt * series_invert(_local_frame(model, place, precision), prec=precision)
    if not isinstance(fn, CurveFunction):
        raise TypeError(f"cannot expand {fn!r}")
    if fn.is_zero():
        return Series.zero()
    num = poly_on_series(fn.num, x)
    if fn.k:
        num = num * _local_frame(model, place, precision)
    if fn.den.degree == 0:
        return num
    den = poly_on_series(fn.den, x)
    return num * series_invert(den, prec=precision)


# ---------------------------------------------------------------------------
# Order sequences via valuation-staircase elimination


class OrderSequence(Value):
    """Strictly increasing vanishing orders and the weight they sum to."""

    __slots__ = ("orders", "weight")

    def __init__(self, orders):
        orders = tuple(map(operator.index, orders))
        if list(orders) != sorted(set(orders)):
            raise ValueError("orders must be strictly increasing")
        self._init(orders, sum(o - k for k, o in enumerate(orders)))


def staircase_valuations(series_list) -> list[int]:
    """Distinct valuations attainable by nonzero linear combinations.

    Gaussian elimination on the valuation staircase: while two series
    share a valuation, cancel the leading coefficient of one against the
    other, which strictly raises its valuation.  Raises
    ``InconclusiveError`` when a combination becomes zero within its
    known window, since its true valuation is then undetermined.
    """
    work = list(series_list)
    while True:
        by_val: dict[int, int] = {}
        clash = None
        for idx, s in enumerate(work):
            if not s.nums:
                raise InconclusiveError(
                    "a combination vanished to the full known precision"
                )
            v = s.lead
            if v in by_val:
                clash = (by_val[v], idx)
                break
            by_val[v] = idx
        if clash is None:
            return sorted(by_val)
        pivot = work[clash[0]]
        other = work[clash[1]]
        # the leading coefficients over one denominator, made coprime
        p0, o0 = pivot.nums[0] * other.den, other.nums[0] * pivot.den
        common = math.gcd(p0, o0)
        work[clash[1]] = other.scale(p0 // common) + pivot.scale(-(o0 // common))


def order_sequence_at(model: HyperellipticModel, basis: MonomialBasis, place: Place) -> OrderSequence:
    """Vanishing orders of the twisted canonical system at the place.

    At a located place they are closed forms in the basis exponents,
    which ``total_weight`` cross-checks against the wronskian: at a
    branch place x^a has the even orders 0..2A and y x^a the odd ones,
    so nothing cancels and the orders are sorted{2a + b}; at infinity
    they are the degree d = 2g-1+i minus the pole orders, which are
    distinct.  An ordinary place goes through the series ladder,
    ``_series_orders``, which the tests hold against both closed forms.
    """
    if basis.model is not model and basis.model != model:
        raise ValueError("the basis was built for another model")
    g, d = model.genus, 2 * model.genus - 1 + basis.i
    if place.kind == BRANCH:
        model.check_place(place)  # refuses an x0 that is not a root of f
        seq = OrderSequence(sorted(2 * a + b for a, b in basis.exponents))
    elif place.kind == INFINITY:
        seq = OrderSequence(sorted(d - p for p in basis.pole_orders))
    else:
        seq = _series_orders(model, basis, place)  # checks the place in _exact_frame
    orders = seq.orders
    if len(orders) != g + basis.i or orders[0] < 0 or orders[-1] > d:
        raise InternalCheckError(
            f"order sequence {list(orders)} at {place} is out of range for a "
            f"system of rank {g + basis.i - 1} and degree {d}"
        )
    return seq


def _series_orders(model: HyperellipticModel, basis: MonomialBasis, place: Place) -> OrderSequence:
    """Vanishing orders at any place, by expansion and elimination.

    y times each section x^a y^b dx/y is x^a y^b dx/dt.  In the pole
    order of the basis these are two ladders from dx/dt and y dx/dt,
    each rung the one below times the exact x, so y is expanded only
    when the basis has a y-monomial and no series is inverted.  The
    orders are the staircase valuations minus v(y), which is 0, 1 or
    -(2g+1) at an ordinary place, a branch place or infinity, plus the
    twist i+1 at infinity.

    y is expanded from ``start_precision(g, i)``, which sets only the
    cost: when a combination vanishes within its known window the
    precision doubles, and reaching the cap is an explicit error, never
    a wrong answer.
    """
    g, i = model.genus, basis.i
    x, dxdt = _exact_frame(model, place)
    shift = {ORDINARY: 0, BRANCH: -1, INFINITY: i + 2 * g + 2}[place.kind]  # twist - v(y)
    prec = start_precision(g, i)
    while True:
        try:
            rung, sers = {}, []  # rung[b]: the last x^a y^b dx/dt, a = 0, 1, ...
            for a, b in basis.exponents:
                rung[b] = x * rung[b] if a else (_local_frame(model, place, prec) * dxdt if b else dxdt)
                sers.append(rung[b])
            return OrderSequence([v + shift for v in staircase_valuations(sers)])
        except InconclusiveError:
            prec *= 2
            if prec > PRECISION_CAP:
                raise InconclusiveError(
                    f"order sequence at {place} inconclusive at the "
                    f"precision cap {PRECISION_CAP}"
                ) from None


# ---------------------------------------------------------------------------
# Wronskians and weight bookkeeping


class _WronskianParts(Value):
    """The affine wronskian W = c det y^(k%2) / f^e before anything
    cancels, det being the Bareiss determinant of the y-block over Z[x].
    f is squarefree, so f^e has multiplicity e at each root of f and
    every valuation of W is exponent arithmetic on det."""

    __slots__ = ("det", "k", "e", "c")

    def __init__(self, det: UniPoly, k: int, e: int, c: Fraction):
        self._init(det, k, e, c)

    def branch_ord(self, x0) -> int:  # at the branch place over a rational root x0
        return 2 * (self.det.root_multiplicity(x0) - self.e) + self.k % 2

    def infinity_ord(self, model: HyperellipticModel) -> int:  # poles 2 and 2g+1 of x, y
        return 2 * (self.e * model.f.degree - self.det.degree) - self.k % 2 * (2 * model.genus + 1)

    def branch_total(self, f: UniPoly, stripped: UniPoly) -> int:
        """Sum over all 2g+1 branch places; stripped is det without f's factors."""
        return 2 * (self.det.degree - stripped.degree - self.e * f.degree) + self.k % 2 * f.degree


def _wronskian_parts(model: HyperellipticModel, basis: MonomialBasis) -> _WronskianParts:
    """Determinant of the derivative matrix (d/dx)^m applied to the basis
    monomials, as uncancelled ``_WronskianParts``.

    Since y' = f' y / (2f), the m-th derivative of x^a y^b (b in {0, 1})
    is R_m y^b / (2f)^m with R_m in Q[x]:

        R_0 = x^a,    R_{m+1} = 2f R_m' + (b - 2m) f' R_m.

    Pulling y^b out of each column and (2f)^-m out of each row leaves the
    polynomial matrix (R_m); with n = g+i rows and k y-columns the
    wronskian is det(R_m) y^k / (2f)^(n(n-1)/2), and y^k = f^(k//2) y^(k%2).

    The x-monomials of a basis are exactly 1, x, ..., x^A, and for x^j
    the recursion gives R_m = (2f)^m (d/dx)^m x^j, which vanishes for
    m > j.  Moving the x-columns ahead of the y-columns (a shuffle whose
    sign is the parity of its inversions) makes the matrix block upper
    triangular, with diagonal j! (2f)^j in the x-block, so

        det(R_m) = sign * prod_{j<=A} j! (2f)^j * det(Y),

    where Y is the k x k block of y-columns on rows A+1..n-1.  Only Y
    goes through fraction-free Bareiss, and (2f)^(A(A+1)/2) cancels
    against the denominator by exponent arithmetic, as does f^(k//2).

    The recursion runs on integer lists: with 2f = F2/D and f' = F1/D
    over Z, S_m = D^m R_m has S_{m+1} = F2 S_m' + (1 - 2m) F1 S_m.  The
    k x k entries of Y stay integer lists S_m through the Bareiss loop
    over Z[x], and only det(S) is wrapped: row m carries D^m, so
    det(Y) = det(S) / D^(k (x_count + n - 1) / 2).
    """
    n = len(basis)
    f = model.f
    fp = f.derivative()
    two_f = 2 * f
    D = math.lcm(two_f.den, fp.den)
    F2, F1 = ([c * (D // p.den) for c in p.nums] for p in (two_f, fp))
    x_count = n - sum(b for _, b in basis.exponents)
    y_columns = []
    sign = 1
    for a_exp, b_exp in basis.exponents:
        if not b_exp:
            # every y-column before this x-column is one inversion
            sign *= (-1) ** len(y_columns)
            continue
        s, col = [0] * a_exp + [1], []
        for m in range(n):
            if m >= x_count:
                col.append(s)
            if m < n - 1:
                n_out = len(s) + len(F2) - 2
                ds = _kernels.convolve(F2, [j * c for j, c in enumerate(s)][1:], n_out)
                s = [u + (1 - 2 * m) * v for u, v in zip(ds, _kernels.convolve(F1, s, n_out))]
        y_columns.append(col)
    k = len(y_columns)
    # rows x_count..n-1 carry (2f)^power, and y^k brings f^(k//2) upstairs
    power = k * (x_count + n - 1) // 2
    det = UniPoly.const(1)
    if k:
        block = [[col[r] for col in y_columns] for r in range(k)]
        det = UniPoly.from_numerators(_bareiss(block), D**power)
        if det.is_zero():
            raise DegenerateSystemError("wronskian of a monomial basis vanished")
    c = Fraction(sign * math.prod(map(math.factorial, range(x_count))), 2**power)
    return _WronskianParts(det, k, power - k // 2, c)


def affine_wronskian(model: HyperellipticModel, basis: MonomialBasis) -> CurveFunction:
    """The affine wronskian as a canonical ``CurveFunction``: the parts
    of ``_wronskian_parts``, cancelled.  At places where x is a local
    parameter its valuation is the local ramification weight.

    f is squarefree, so every irreducible factor of f^e divides f once,
    and at most e rounds of dividing det by gcd(det, f) leave num prime
    to the denominator, with no gcd against f^e.
    """
    parts = _wronskian_parts(model, basis)
    num, e, f = parts.det, parts.e, model.f
    den = UniPoly.const(1)
    while e:
        shared = num.gcd(f)
        if shared.degree == 0:
            break
        num = num / shared
        den = den * (f / shared)
        e -= 1
    return CurveFunction(model, num * parts.c, parts.k % 2, den * f**e)


def ord_at_infinity(model: HyperellipticModel, fn: CurveFunction) -> int:
    """Valuation at the place at infinity, from pole orders 2 and 2g+1 of
    x and y."""
    if fn.is_zero():
        raise ValueError("the zero function has no valuation")
    return 2 * (fn.den.degree - fn.num.degree) - fn.k * (2 * model.genus + 1)


def ord_at_branch(model: HyperellipticModel, fn: CurveFunction, x0) -> int:
    """Valuation at the branch place over a rational root x0 of f, where
    x - x0 has valuation 2 and y valuation 1."""
    if fn.is_zero():
        raise ValueError("the zero function has no valuation")
    x0 = Fraction(x0)
    return 2 * (fn.num.root_multiplicity(x0) - fn.den.root_multiplicity(x0)) + fn.k


def branch_ord_total(model: HyperellipticModel, fn: CurveFunction) -> int:
    """Sum of the valuations of fn over all 2g+1 branch places, rational
    or not, using only gcd arithmetic over Q."""
    if fn.is_zero():
        raise ValueError("the zero function has no valuation")
    f = model.f
    # f is squarefree, so the degree that stripping f's factors removes
    # from a polynomial is the sum of the multiplicities of f's roots in it
    total = 2 * (fn.num.degree - _strip_branch_factors(fn.num, f).degree) + fn.k * f.degree
    if fn.den.degree > 0:
        total -= 2 * (fn.den.degree - _strip_branch_factors(fn.den, f).degree)
    return total


class WeightReport(Value):
    """Ramification bookkeeping for one twisted canonical system.

    ``entries`` lists the places with exact expansions (rational branch
    places in ascending x order, then infinity).  ``remainder`` is the
    weight at all other places, recovered from the degree-zero divisor
    of the affine wronskian; it is the sum of the parts at ordinary
    affine points and at branch places over irrational roots of f.  The
    constructor derives ``remainder`` and ``total`` from those parts and
    the entries' weights.
    """

    __slots__ = ("i", "entries", "remainder", "remainder_ordinary", "remainder_branch", "total")

    def __init__(self, i: int, entries, remainder_ordinary: int, remainder_branch: int):
        entries = tuple(entries)
        remainder = remainder_ordinary + remainder_branch
        total = sum(seq.weight for _, seq in entries) + remainder
        self._init(i, entries, remainder, remainder_ordinary, remainder_branch, total)


def total_weight(model: HyperellipticModel, i: int) -> WeightReport:
    """Total ramification weight of the system of sections of the
    (i+1)-fold twist of the canonical bundle at infinity.

    Located weights come from order sequences; everything else comes
    from the wronskian valuation bookkeeping, with the two methods
    cross-checked wherever both apply.  The wronskian valuations are
    read off its uncancelled parts: one root multiplicity per rational
    branch root, a degree at infinity, one strip by gcds with f for the
    sum over all branch places.
    """
    g = model.genus
    r = g + i - 1
    shift = r * (r + 1) // 2
    basis = build_basis(model, i)
    wron = _wronskian_parts(model, basis)

    ord_inf = wron.infinity_ord(model)
    located = [(Place.branch(x0), wron.branch_ord(x0) + shift) for x0 in model.branch_x]
    located.append((Place.infinity(), (g + i) * (2 * g + i - 1) - 3 * shift + ord_inf))
    entries = []
    for place, expected in located:
        seq = order_sequence_at(model, basis, place)
        if seq.weight != expected:
            raise InternalCheckError(
                f"weight at {place}: order sequence gave {seq.weight}, "
                f"wronskian bookkeeping gave {expected}"
            )
        entries.append((place, seq))
    located_branch = sum(seq.weight for _, seq in entries[:-1])

    branch_ords = wron.branch_total(model.f, _strip_branch_factors(wron.det, model.f))
    branch_weight_all = branch_ords + (2 * g + 1) * shift
    remainder_branch = branch_weight_all - located_branch
    remainder_ordinary = -ord_inf - branch_ords
    if remainder_branch < 0 or remainder_ordinary < 0:
        raise InternalCheckError(
            f"negative unlocated weight: branch {remainder_branch}, "
            f"ordinary {remainder_ordinary}"
        )
    return WeightReport(i, entries, remainder_ordinary, remainder_branch)


# ---------------------------------------------------------------------------
# Elliptic torsion oracle


@functools.lru_cache(maxsize=512, typed=True)
def division_polynomial(model: HyperellipticModel, n: int) -> CurveFunction:
    """n-th division polynomial psi_n of a genus-1 model, as a curve function.

    n is read through ``operator.index``, and the cache is typed, so a
    float n raises ``TypeError`` even after its integer was cached.
    Vanishes exactly at the nontrivial affine n-torsion points.  The
    recursion runs in Q[x] on p_n, where psi_n = p_n for odd n and
    psi_n = y p_n for even n; every y^4 it meets becomes f^2.
    """
    n = operator.index(n)
    if model.genus != 1:
        raise UnsupportedModelError("division polynomials need a genus-1 model")
    if n < 1:
        raise ValueError("n must be at least 1")
    f = model.f
    if n <= 2:
        pn = UniPoly.const(n)
    elif n <= 4:
        a2, a4, a6 = f[2], f[1], f[0]
        b2 = 4 * a2
        b4 = 2 * a4
        b6 = 4 * a6
        b8 = 4 * a2 * a6 - a4 * a4
        if n == 3:
            # 3x^4 + b2 x^3 + 3 b4 x^2 + 3 b6 x + b8
            pn = UniPoly([b8, 3 * b6, 3 * b4, b2, 3])
        else:
            # 2 (2x^6 + b2 x^5 + 5 b4 x^4 + 10 b6 x^3 + 10 b8 x^2
            #    + (b2 b8 - b4 b6) x + b4 b8 - b6^2)
            pn = UniPoly([
                2 * (b4 * b8 - b6 * b6), 2 * (b2 * b8 - b4 * b6),
                20 * b8, 20 * b6, 10 * b4, 2 * b2, 4,
            ])
    else:

        def p(k: int) -> UniPoly:
            return division_polynomial(model, k).num

        m, odd = divmod(n, 2)
        if odd:
            first = p(m + 2) * p(m) ** 3
            second = p(m - 1) * p(m + 1) ** 3
            pn = first - f * f * second if m % 2 else f * f * first - second
        else:
            pn = p(m) * (p(m + 2) * p(m - 1) ** 2 - p(m - 2) * p(m + 1) ** 2) / 2
    return CurveFunction(model, pn, 1 - n % 2, UniPoly.const(1))


def _strip_branch_factors(p: UniPoly, f: UniPoly) -> UniPoly:
    """Remove every irreducible factor shared with f.

    A p that the coprimality certificate clears is returned as it is.
    Otherwise p is divided by monic f while f divides it, the usual case
    for a wronskian determinant, and only what is left runs the gcd
    loop, which a p sharing a proper factor of f needs."""
    if p.is_zero():
        # 0.gcd(f) is f, so stripping the zero polynomial never ends
        raise ValueError("zero polynomial")
    if _certified_coprime(_primitive(p.nums, 0)[0], _primitive(f.nums, 0)[0]):
        return p
    q, f = p, f.monic()
    while (quo := q._quotient(f)) is not None:
        q = quo
    while True:
        shared = q.gcd(f)
        if shared.degree <= 0:
            return q
        q = q / shared


def torsion_check(model: HyperellipticModel, j: int) -> bool:
    """Genus-1 oracle: the affine ramification points of the j-twisted
    system at infinity are exactly the affine (j+1)-torsion points.

    Both sides are compared as they are, made monic, with no squarefree
    part taken.  The ordinary part of the ramification locus is the
    wronskian's block determinant with branch-supported factors removed.
    By Riemann-Roch every ramification point of the system has weight 1,
    so on a smooth model that stripped determinant is squarefree already.
    Branch places (the 2-torsion) are ramified iff their common weight
    is positive, which exponent arithmetic on that same stripped
    determinant decides without root-finding.  The torsion side, p_n or
    p_n f, is squarefree on a smooth model over Q.  A repeated factor on
    either side therefore fails the check.
    """
    if model.genus != 1:
        raise UnsupportedModelError("torsion check needs a genus-1 model")
    if j < 1:
        raise ValueError("j must be at least 1")
    n = j + 1
    f = model.f
    wron = _wronskian_parts(model, build_basis(model, j))
    stripped = _strip_branch_factors(wron.det, f)

    shift = j * (j + 1) // 2
    branch_weight_all = wron.branch_total(f, stripped) + 3 * shift
    # each branch place is a 2-torsion point, so the three weights agree
    if branch_weight_all % 3:
        raise InternalCheckError("branch weights of a genus-1 system must agree")
    ram = stripped if branch_weight_all == 0 else stripped * f

    # psi_n = p y^k: p f^k is the squarefree part of the norm p^2 (-f)^k
    psi = division_polynomial(model, n)
    torsion = psi.num * f if psi.k else psi.num
    return ram.monic() == torsion.monic()
