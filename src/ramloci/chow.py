"""Intersection ring of the square C x C of a curve of fixed genus.

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
for them.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ChowClass:
    """Graded class c0*1 + cK1*K1 + cK2*K2 + cDelta*Delta + cPt*pt."""

    c0: Fraction = Fraction(0)
    cK1: Fraction = Fraction(0)
    cK2: Fraction = Fraction(0)
    cDelta: Fraction = Fraction(0)
    cPt: Fraction = Fraction(0)

    def __post_init__(self):
        for f in ("c0", "cK1", "cK2", "cDelta", "cPt"):
            v = getattr(self, f)
            if type(v) is not Fraction:
                object.__setattr__(self, f, Fraction(v))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return ChowClass(
            self.c0 + other.c0,
            self.cK1 + other.cK1,
            self.cK2 + other.cK2,
            self.cDelta + other.cDelta,
            self.cPt + other.cPt,
        )

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __neg__(self) -> "ChowClass":
        return self.scale(-1)

    def scale(self, c) -> "ChowClass":
        c = Fraction(c)
        return ChowClass(
            c * self.c0, c * self.cK1, c * self.cK2, c * self.cDelta, c * self.cPt
        )

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def degree1_part(self) -> "ChowClass":
        return ChowClass(0, self.cK1, self.cK2, self.cDelta, 0)

    def is_zero(self) -> bool:
        return not any((self.c0, self.cK1, self.cK2, self.cDelta, self.cPt))

    def __repr__(self):
        parts = []
        for coeff, name in (
            (self.c0, "1"),
            (self.cK1, "K1"),
            (self.cK2, "K2"),
            (self.cDelta, "Delta"),
            (self.cPt, "pt"),
        ):
            if coeff:
                parts.append(f"{coeff}*{name}" if coeff != 1 else name)
        return " + ".join(parts) if parts else "0"


ZERO = ChowClass()
ONE = ChowClass(c0=1)
K1 = ChowClass(cK1=1)
K2 = ChowClass(cK2=1)
DELTA = ChowClass(cDelta=1)
PT = ChowClass(cPt=1)


@dataclass(frozen=True)
class ChowRing:
    """The intersection ring for a concrete genus g >= 1."""

    genus: int

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be at least 1")


def chow_mul(ring: ChowRing, a: ChowClass, b: ChowClass) -> ChowClass:
    """Bilinear product reduced by the genus-g intersection relations."""
    g = ring.genus
    kk = Fraction(4 * (g - 1) ** 2)
    kd = Fraction(2 * g - 2)
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


def chow_integrate(ring: ChowRing, a: ChowClass) -> Fraction:
    """Degree of the 0-cycle part: the coefficient of the point class."""
    return a.cPt


def _pushforward_c1_coeff(j: int) -> Fraction:
    """K1-coefficient of c1 of the pushforward of the j-twisted relative
    canonical bundle, built by iterating the short-exact-sequence
    recursion step c1 -> c1 + (1-(m+1)) K1 from the free case at m=0."""
    c = Fraction(0)
    for m in range(1, j + 1):
        c += 1 - (m + 1)
    return c


def weierstrass_class(ring: ChowRing, j: int) -> ChowClass:
    """Class of the j-th Weierstrass divisor of the family of twisted
    canonical systems, as a divisor on C x C.

    Equals (1/2)(g+j)(g+j+1) K2 + j(g+j+1) Delta + (1/2)j(j+1) K1; the
    K1 part enters through the recursion-derived first Chern class of
    the pushforward bundle, not by quoting the closed form.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    g = ring.genus
    return ChowClass(
        cK2=Fraction((g + j) * (g + j + 1), 2),
        cDelta=Fraction(j * (g + j + 1)),
        cK1=-_pushforward_c1_coeff(j),
    )
