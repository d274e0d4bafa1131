"""Reference implementations shared by the tests: slow, obviously
correct versions of what the library computes a faster way."""

from ramloci.curves import (
    DX_OVER_Y,
    INFINITY,
    PRECISION_CAP,
    expand_at,
    staircase_valuations,
    start_precision,
)
from ramloci.errors import InconclusiveError


def cofactor_det(matrix):
    """Reference determinant by cofactor expansion (exponential)."""
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


def strip_by_gcds(p, f):
    """Reference strip of f's factors from p: divide by gcd(p, f) until
    it is constant."""
    q = p
    while True:
        shared = q.gcd(f)
        if shared.degree <= 0:
            return q
        q = q / shared


def monomial_sections(model, basis, place, prec):
    """The sections x^a y^b dx/y of a twisted canonical system at a place,
    one Horner expansion of each monomial times dx/y, twisted by t^(i+1)
    at infinity."""
    dxy = expand_at(model, DX_OVER_Y, place, prec)
    twist = basis.i + 1 if place.kind == INFINITY else 0
    return [
        (expand_at(model, model.monomial(a, b), place, prec) * dxy).shift(twist)
        for a, b in basis.exponents
    ]


def order_sequence_by_monomials(model, basis, place):
    """Vanishing orders of the system at the place from monomial_sections,
    doubling the precision until the staircase is conclusive."""
    prec = start_precision(model.genus, basis.i)
    while True:
        try:
            return tuple(staircase_valuations(monomial_sections(model, basis, place, prec)))
        except InconclusiveError:
            prec *= 2
            if prec > PRECISION_CAP:
                raise
