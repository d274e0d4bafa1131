"""Chern-class calculus for the bundles and divisors living on C x C.

Covers the four ingredients the counting formulas need: first Chern
classes of the pushforwards of the twisted relative canonical bundles,
total Chern classes of the relative jet bundles (as power sums over
their truncation filtration m*K2 + (i+1)*Delta), the Weierstrass
divisor class built from both, and the Porteous class of an
expected-codimension-2, rank-drop-1 degeneracy locus.  Everything is
specialised through a ``ChowRing``, either to a concrete genus or to
the formal genus g, with the twist i and the jet order concrete or
formal to match.  A class formula takes the classes it is built from
as required arguments, so a caller builds each of them once.
"""

from __future__ import annotations

from fractions import Fraction

from .chow import DELTA, K1, K2, ChowClass, ChowRing, chow_mul
from .numeric import Value

_HALF = Fraction(1, 2)
_ZERO = ChowClass()


class ChernPoly(Value):
    """Total Chern class 1 + c1 + c2 truncated in degree 2.

    ``c1`` holds only degree-1 coordinates and ``c2`` only the point
    coordinate; higher degrees vanish on a surface, so multiplication
    and formal inversion stay within this truncation.
    """

    __slots__ = ("ring", "c1", "c2")

    def __init__(self, ring: ChowRing, c1: ChowClass = _ZERO, c2: ChowClass = _ZERO):
        if c1.c0 or c1.cPt:
            raise ValueError("c1 must be purely of degree 1")
        if c2.c0 or c2.cK1 or c2.cK2 or c2.cDelta:
            raise ValueError("c2 must be purely of degree 2")
        self._init(ring, c1, c2)

    def __repr__(self):
        return f"ChernPoly({self.ring!r}, c1={self.c1!r}, c2={self.c2!r})"

    def __mul__(self, other: "ChernPoly") -> "ChernPoly":
        if self.ring != other.ring:
            raise ValueError("mixed rings")
        c2 = self.c2 + other.c2 + chow_mul(self.ring, self.c1, other.c1)
        return ChernPoly(self.ring, c1=self.c1 + other.c1, c2=c2)

    def inverse(self) -> "ChernPoly":
        """Formal inverse 1 - c1 + (c1^2 - c2) in the truncated ring."""
        sq = chow_mul(self.ring, self.c1, self.c1)
        return ChernPoly(self.ring, c1=-self.c1, c2=sq - self.c2)


def check_nonnegative(**indices) -> None:
    """Reject a negative concrete index; formal indices pass."""
    for name, value in indices.items():
        if isinstance(value, int) and value < 0:
            raise ValueError(f"{name} must be nonnegative")


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
    c2 = (chow_mul(ring, c1, c1) - squares).scale(_HALF)
    return ChernPoly(ring, c1=c1, c2=c2)


def weierstrass_class(ring: ChowRing, j) -> ChowClass:
    """Class of the j-th Weierstrass divisor of the family of twisted
    canonical systems, as a divisor on C x C.

    Derived as W_j = c1(J^{g+j-1}) - c1(E_j) - g*Delta: the wronskian of
    the evaluation map from the pushforward E_j to the jet bundle of
    order g+j-1, which vanishes on the diagonal with weight exactly g.
    """
    g = ring.genus
    return jet_c1(j, g + j - 1) - pushforward_c1(ring, j) - g * DELTA


def porteous_c2(a: ChernPoly, b: ChernPoly) -> ChowClass:
    """Degree-2 part of a * b^(-1): the class of the locus where a map
    from the bundle with Chern class b to the one with class a drops
    rank by one in expected codimension 2."""
    return (a * b.inverse()).c2


def moving_locus_class(ring: ChowRing, i, jets: ChernPoly) -> ChowClass:
    """Porteous class of the pairs (P, Q), diagonal included, where the
    twisted system at P has extra sections vanishing to high order at Q
    (a moving effective divisor condition), from the jet bundle
    ``jets`` = jet_chern(ring, i, g+i)."""
    return porteous_c2(jets, ChernPoly(ring, c1=pushforward_c1(ring, i)))


def special_ramification_class(ring: ChowRing, w: ChowClass) -> ChowClass:
    """Class of the special-ramification locus of the Weierstrass divisor
    ``w`` = weierstrass_class(ring, i): c2 of the rank-2 bundle of
    first-order relative jets with coefficients in O(w), i.e.
    w * (K2 + w)."""
    return chow_mul(ring, w, K2 + w)
