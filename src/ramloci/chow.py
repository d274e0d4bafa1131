"""Intersection ring of the square C x C of a curve of genus g.

Classes are stored by their five coordinates in the basis

    degree 0:  1            (fundamental class)
    degree 1:  K1, K2       (pullbacks of the canonical class), Delta
    degree 2:  pt           (point class)

with products reduced by the relations that hold on the square of a
curve of genus g:

    K1^2 = K2^2 = 0
    K1*K2 = 4(g-1)^2 pt
    K1*Delta = K2*Delta = (2g-2) pt
    Delta^2 = -(2g-2) pt

Degree-3 parts vanish identically on a surface, so the type has no slot
for them.  ``ChowClass`` and ``ChowRing`` are immutable ``Value``s.

The coefficients may come from any commutative ring that mixes with the
integers: ``int``/``Fraction`` for a concrete genus, or ``ParamPoly``
for the generic ring whose genus is the formal parameter g, where every
coefficient and intersection number is a polynomial in (g, i).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .numeric import Value

_HALF = Fraction(1, 2)


class ChowClass(Value):
    """Graded class c0*1 + cK1*K1 + cK2*K2 + cDelta*Delta + cPt*pt."""

    __slots__ = ("c0", "cK1", "cK2", "cDelta", "cPt")

    def __init__(self, c0: Any = 0, cK1: Any = 0, cK2: Any = 0, cDelta: Any = 0, cPt: Any = 0):
        self._init(c0, cK1, cK2, cDelta, cPt)

    def coords(self) -> tuple:
        return (self.c0, self.cK1, self.cK2, self.cDelta, self.cPt)

    _key = coords

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return ChowClass(*(a + b for a, b in zip(self.coords(), other.coords())))

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __neg__(self) -> "ChowClass":
        return self.scale(-1)

    def scale(self, c) -> "ChowClass":
        return ChowClass(*(c * v for v in self.coords()))

    def __rmul__(self, c):
        if isinstance(c, ChowClass):
            return NotImplemented
        return self.scale(c)

    def degree1_part(self) -> "ChowClass":
        return ChowClass(0, self.cK1, self.cK2, self.cDelta, 0)

    def is_zero(self) -> bool:
        return not any(self.coords())

    def __repr__(self):
        parts = []
        for coeff, name in zip(self.coords(), ("1", "K1", "K2", "Delta", "pt")):
            if coeff:
                parts.append(f"{coeff}*{name}" if coeff != 1 else name)
        return " + ".join(parts) if parts else "0"


K1 = ChowClass(cK1=1)
K2 = ChowClass(cK2=1)
DELTA = ChowClass(cDelta=1)
PT = ChowClass(cPt=1)


class ChowRing(Value):
    """The intersection ring for a concrete genus g >= 1, or for the
    formal genus ``ParamPoly.g()``."""

    __slots__ = ("genus",)

    def __init__(self, genus: Any):
        if isinstance(genus, int) and genus < 1:
            raise ValueError("genus must be at least 1")
        self._init(genus)

    def __repr__(self):
        return f"ChowRing({self.genus!r})"


def check_nonnegative(**indices) -> None:
    """Reject a negative concrete index; formal indices pass."""
    for name, value in indices.items():
        if isinstance(value, int) and value < 0:
            raise ValueError(f"{name} must be nonnegative")


def chow_mul(ring: ChowRing, a: ChowClass, b: ChowClass) -> ChowClass:
    """Bilinear product reduced by the genus-g intersection relations."""
    g = ring.genus
    kk = 4 * (g - 1) ** 2
    kd = 2 * g - 2
    deg2 = (
        (a.cK1 * b.cK2 + a.cK2 * b.cK1) * kk
        + (a.cK1 * b.cDelta + a.cDelta * b.cK1) * kd
        + (a.cK2 * b.cDelta + a.cDelta * b.cK2) * kd
        - a.cDelta * b.cDelta * kd
    )
    return ChowClass(
        c0=a.c0 * b.c0,
        cK1=a.c0 * b.cK1 + b.c0 * a.cK1,
        cK2=a.c0 * b.cK2 + b.c0 * a.cK2,
        cDelta=a.c0 * b.cDelta + b.c0 * a.cDelta,
        cPt=a.c0 * b.cPt + b.c0 * a.cPt + deg2,
    )


def chow_integrate(ring: ChowRing, a: ChowClass):
    """Degree of the 0-cycle part: the coefficient of the point class."""
    return a.cPt


def power_sum(n):
    """1 + 2 + ... + n, for a concrete or a formal n."""
    return n * (n + 1) * _HALF


def pushforward_c1(ring: ChowRing, j) -> ChowClass:
    """First Chern class (pulled back to C x C) of the pushforward of the
    j-twisted relative canonical bundle.

    The recursion steps c1 -> c1 - m K1, m = 1..j, from the free bundle
    at j = 0 sum to -(1/2)j(j+1) K1.
    """
    check_nonnegative(j=j)
    return -power_sum(j) * K1


def jet_c1(i, ell) -> ChowClass:
    """First Chern class of the order-ell relative jet bundle of the
    (i+1)-fold diagonal twist of the relative canonical bundle: the sum
    of its n = ell+1 filtration factors m*K2 + (i+1)*Delta, m = 1..n."""
    n = ell + 1
    return power_sum(n) * K2 + (n * (i + 1)) * DELTA


def weierstrass_class(ring: ChowRing, j) -> ChowClass:
    """Class of the j-th Weierstrass divisor of the family of twisted
    canonical systems, as a divisor on C x C.

    Derived as W_j = c1(J^{g+j-1}) - c1(E_j) - g*Delta: the wronskian of
    the evaluation map from the pushforward E_j to the jet bundle of
    order g+j-1, which vanishes on the diagonal with weight exactly g.
    """
    g = ring.genus
    return jet_c1(j, g + j - 1) - pushforward_c1(ring, j) - g * DELTA
