"""Chern-class calculus for the bundles living on C x C.

Covers the three ingredients the counting formulas need: first Chern
classes of the pushforwards of the twisted relative canonical bundles
(by the short-exact-sequence recursion), total Chern classes of the
relative jet bundles (as explicit truncation-filtration products), and
the Porteous class of an expected-codimension-2, rank-drop-1 degeneracy
locus.  Everything is specialised to a concrete genus through a
``ChowRing``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chow import (
    DELTA,
    K1,
    K2,
    ChowClass,
    ChowRing,
    chow_mul,
    weierstrass_class,
    _pushforward_c1_coeff,
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
    def trivial(cls, ring: ChowRing) -> "ChernPoly":
        return cls(ring)

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


def pushforward_c1(ring: ChowRing, j: int) -> ChowClass:
    """First Chern class (pulled back to C x C) of the pushforward of the
    j-twisted relative canonical bundle.

    Built by iterating the recursion step c1 -> c1 + (1-(j+1)) K1 from
    the free bundle at j = 0; comes out as -(1/2)j(j+1) K1.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    return _pushforward_c1_coeff(j) * K1


def jet_chern(ring: ChowRing, i: int, ell: int) -> ChernPoly:
    """Total Chern class of the order-ell relative jet bundle of the
    (i+1)-fold diagonal twist of the relative canonical bundle.

    Computed as the truncation-filtration product of ell+1 line-bundle
    factors with first Chern classes m*K2 + (i+1)*Delta, m = 1..ell+1.
    """
    if i < 0 or ell < 0:
        raise ValueError("i and ell must be nonnegative")
    total = ChernPoly.trivial(ring)
    for m in range(1, ell + 2):
        factor = ChernPoly.of_line_bundle(ring, m * K2 + (i + 1) * DELTA)
        total = total * factor
    return total


def porteous_c2(a: ChernPoly, b: ChernPoly) -> ChowClass:
    """Degree-2 part of a * b^(-1): the class of the locus where a map
    from the bundle with Chern class b to the one with class a drops
    rank by one in expected codimension 2."""
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    return (a * b.inverse()).c2


def moving_locus_class(ring: ChowRing, i: int) -> ChowClass:
    """Porteous class of the pairs (P, Q), diagonal included, where the
    twisted system at P has extra sections vanishing to high order at Q
    (a moving effective divisor condition)."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    g = ring.genus
    jets = jet_chern(ring, i, g + i)
    pulled_back = ChernPoly.of_line_bundle(ring, pushforward_c1(ring, i))
    return porteous_c2(jets, pulled_back)


def special_ramification_class(ring: ChowRing, i: int) -> ChowClass:
    """Class of the special-ramification locus: c2 of the rank-2 bundle
    of first-order relative jets with coefficients in the i-th
    Weierstrass divisor, i.e. W * (K2 + W)."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    w = weierstrass_class(ring, i)
    return chow_mul(ring, w, K2 + w)
