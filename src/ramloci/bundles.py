"""Chern-class calculus for the bundles living on C x C.

Covers the three ingredients the counting formulas need: first Chern
classes of the pushforwards of the twisted relative canonical bundles
(``pushforward_c1``, defined in ``chow`` next to the Weierstrass class
that uses it), total Chern classes of the relative jet bundles (as
power sums over their truncation filtration), and the Porteous class of
an expected-codimension-2, rank-drop-1 degeneracy locus.  Everything is
specialised through a ``ChowRing``, either to a concrete genus or to
the formal genus g, with the twist i and the jet order concrete or
formal to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chow import (
    DELTA,
    K2,
    ChowClass,
    ChowRing,
    check_nonnegative,
    chow_mul,
    jet_c1,
    power_sum,
    pushforward_c1,
    weierstrass_class,
)


@dataclass(frozen=True)
class ChernPoly:
    """Total Chern class 1 + c1 + c2 truncated in degree 2.

    ``c1`` holds only degree-1 coordinates and ``c2`` only the point
    coordinate; higher degrees vanish on a surface, so multiplication
    and formal inversion stay within this truncation.
    """

    ring: ChowRing
    c1: ChowClass = ChowClass()
    c2: ChowClass = ChowClass()

    def __post_init__(self):
        if self.c1.c0 or self.c1.cPt:
            raise ValueError("c1 must be purely of degree 1")
        if self.c2.c0 or self.c2.cK1 or self.c2.cK2 or self.c2.cDelta:
            raise ValueError("c2 must be purely of degree 2")

    @classmethod
    def of_line_bundle(cls, ring: ChowRing, c1: ChowClass) -> "ChernPoly":
        return cls(ring, c1=c1.degree1_part())

    def __mul__(self, other: "ChernPoly") -> "ChernPoly":
        if self.ring != other.ring:
            raise ValueError("mixed rings")
        c2 = self.c2 + other.c2 + chow_mul(self.ring, self.c1, other.c1)
        return ChernPoly(self.ring, c1=self.c1 + other.c1, c2=c2)

    def inverse(self) -> "ChernPoly":
        """Formal inverse 1 - c1 + (c1^2 - c2) in the truncated ring."""
        sq = chow_mul(self.ring, self.c1, self.c1)
        return ChernPoly(self.ring, c1=-self.c1, c2=sq - self.c2)


def jet_chern(ring: ChowRing, i, ell) -> ChernPoly:
    """Total Chern class of the order-ell relative jet bundle of the
    (i+1)-fold diagonal twist of the relative canonical bundle.

    The truncation filtration has n = ell+1 line-bundle factors
    a_m = m*K2 + (i+1)*Delta, m = 1..n, so c1 = sum a_m and
    c2 = (c1^2 - sum a_m^2)/2.  With S1 = n(n+1)/2, c1 = S1*K2 +
    n*(i+1)*Delta, and as K2^2 = 0 the squares sum to
    (i+1)*Delta*(2*S1*K2 + n*(i+1)*Delta) = (i+1)*Delta*(c1 + S1*K2),
    which holds for a formal length n as well.
    """
    check_nonnegative(i=i, ell=ell)
    c1 = jet_c1(i, ell)
    squares = chow_mul(ring, (i + 1) * DELTA, c1 + power_sum(ell + 1) * K2)
    c2 = (chow_mul(ring, c1, c1) - squares).scale(Fraction(1, 2))
    return ChernPoly(ring, c1=c1, c2=c2)


def porteous_c2(a: ChernPoly, b: ChernPoly) -> ChowClass:
    """Degree-2 part of a * b^(-1): the class of the locus where a map
    from the bundle with Chern class b to the one with class a drops
    rank by one in expected codimension 2."""
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    return (a * b.inverse()).c2


def moving_locus_class(ring: ChowRing, i, jets: ChernPoly | None = None) -> ChowClass:
    """Porteous class of the pairs (P, Q), diagonal included, where the
    twisted system at P has extra sections vanishing to high order at Q
    (a moving effective divisor condition).  ``jets`` is the caller's
    jet_chern(ring, i, g+i), if it already has it."""
    check_nonnegative(i=i)
    if jets is None:
        jets = jet_chern(ring, i, ring.genus + i)
    pulled_back = ChernPoly.of_line_bundle(ring, pushforward_c1(ring, i))
    return porteous_c2(jets, pulled_back)


def special_ramification_class(ring: ChowRing, i: int) -> ChowClass:
    """Class of the special-ramification locus: c2 of the rank-2 bundle
    of first-order relative jets with coefficients in the i-th
    Weierstrass divisor, i.e. W * (K2 + W)."""
    w = weierstrass_class(ring, i)
    return chow_mul(ring, w, K2 + w)
