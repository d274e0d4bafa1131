"""Closed-form counts in (g, i) and the certification machinery.

Each counting formula is stored fully expanded as a ``ParamPoly``.  The
engine side runs the Chow-ring and bundle calculus once over the generic
ring, whose genus is the formal parameter g and whose coefficients are
polynomials in (g, i), so every engine quantity comes out as a
``ParamPoly`` too.  A ``certify`` run proves engine == closed form by
exact equality of the two expanded polynomials.  Its report keeps the
grid view: the values of both at every grid point, with the points
where they differ listed as failures.  Equal polynomials have equal
values, so the closed form is evaluated only when the verdict fails.
``CASES`` names every case in report order; the symbolic identities
are data in ``IDENTITIES``, and every other case is one ``certify``.
"""

from __future__ import annotations

import fnmatch
import functools
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .bundles import jet_chern, moving_locus_class, special_ramification_class, weierstrass_class
from .chow import DELTA, ChowRing, chow_integrate, chow_mul
from .errors import GridInsufficientError
from .numeric import ParamPoly

_G = ParamPoly.g()
_I = ParamPoly.i()
_HALF = Fraction(1, 2)


class ClosedForm(NamedTuple):
    """A named closed-form count; its degrees in (g, i) are within _BOUND."""

    name: str
    expr: ParamPoly
    anchor: str


_BOUND = (8, 8)  # per-variable degree bound of every closed form

CLOSED_FORMS: dict[str, ClosedForm] = {}


def _register(name: str, expr: ParamPoly, anchor: str) -> ClosedForm:
    dg, di = expr.degrees()
    if dg > _BOUND[0] or di > _BOUND[1]:
        raise ValueError(f"degree bound {_BOUND} does not dominate ({dg}, {di})")
    form = ClosedForm(name, expr, anchor)
    CLOSED_FORMS[name] = form
    return form


_register(
    "W_class_K1",
    _HALF * _I * (_I + 1),
    "K1 coefficient of the Weierstrass divisor class",
)
_register(
    "W_class_K2",
    _HALF * (_G + _I) * (_G + _I + 1),
    "K2 coefficient of the Weierstrass divisor class",
)
_register(
    "W_class_Delta",
    _I * (_G + _I + 1),
    "diagonal coefficient of the Weierstrass divisor class",
)
_register(
    "jet_c1_K2",
    _HALF * (_G + _I + 1) * (_G + _I + 2),
    "K2 coefficient of c1 of the order-(g+i) relative jet bundle",
)
_register(
    "jet_c1_Delta",
    (_I + 1) * (_G + _I + 1),
    "diagonal coefficient of c1 of the order-(g+i) relative jet bundle",
)
_register(
    "jet_c2_point",
    (_G - 1) * (_G + 1) * (_I + 1) * (_G + _I) * (_G + _I + 1),
    "integral of c2 of the order-(g+i) relative jet bundle",
)
_register(
    "SW_degree",
    2 * _I * _G * (_G - 1) * ((_I + 2) * (_G + _I) ** 2 + 2 * (_G + _I) + 2),
    "degree of the special-ramification locus off the diagonal",
)
_register(
    "E_plus_degree",
    (_I + 1) ** 2 * _G * (_G - 1) * (_G + _I + 1) ** 2,
    "degree of the moving-pairs Porteous class, diagonal included",
)
_register(
    "E_degree",
    _G * (_G - 1) * ((_G + _I + 1) ** 2 * (_I + 1) ** 2 - (_G + 1) ** 2),
    "number of moving pairs off the diagonal",
)
_register(
    "D_degree",
    _G * (_G - 1) * ((_G + _I - 1) ** 2 * (_I + 1) ** 2 - (_G - 1) ** 2),
    "number of effective pairs off the diagonal",
)
_register(
    "W_delta_transversality",
    _G**3 - _G,
    "intersection number of the Weierstrass divisor with the diagonal",
)
_register(
    "total_weight",
    _G * (_G + _I) ** 2,
    "total ramification weight of a twisted canonical system",
)
_register(
    "brill_segre",
    (_G + _I) * ((2 * _G - 1 + _I) + (_G - 1) * (_G + _I - 1)),
    "total weight (r+1)(d+(g-1)r) for rank g+i-1 and degree 2g-1+i",
)


class CertificationReport(NamedTuple):
    """Outcome of one certification case.

    For grid cases the verdict is exact equality of the engine
    polynomial and the closed form, and ``grid`` holds both evaluated
    on a grid that exceeds the declared degree bound; for symbolic
    cases it is exact equality of the two closed forms.
    """

    name: str
    verdict: bool
    method: str
    anchor: str
    degree_bound: tuple[int, int] | None = None
    grid_size: tuple[int, int] | None = None
    grid: tuple = ()
    failures: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": "pass" if self.verdict else "fail",
            "grid_size": list(self.grid_size) if self.grid_size else None,
            "degree_bound": list(self.degree_bound) if self.degree_bound else None,
            "anchor": self.anchor,
            "failures": [
                {
                    "g": g,
                    "i": i,
                    "engine": str(engine),
                    "closed_form": str(closed),
                }
                for (g, i, engine, closed) in self.failures
            ],
        }


def certify(
    name: str,
    engine_fn: ParamPoly,
    form: ClosedForm,
    g_range: Sequence[int],
    i_range: Sequence[int],
) -> CertificationReport:
    """Certify engine_fn == form as a polynomial identity in (g, i).

    The verdict is equality of the expanded polynomials; the grid only
    sizes the report rows.  The engine polynomial is evaluated on the
    grid once; a passing case reuses those values as the closed-form
    column, and only a failing one evaluates the closed form too.  A
    range that does not exceed the declared per-variable degree bound is
    still refused, as a configuration error rather than a failed verdict.
    """
    g_points = sorted(set(g_range))
    i_points = sorted(set(i_range))
    if len(g_points) <= _BOUND[0] or len(i_points) <= _BOUND[1]:
        raise GridInsufficientError(
            f"case {name}: grid {len(g_points)}x{len(i_points)} insufficient "
            f"for degree bound {_BOUND}"
        )
    verdict = engine_fn == form.expr
    engine_values = engine_fn.grid_values(g_points, i_points)
    # equal polynomials agree at every point: only a failure evaluates
    # the closed form, and only a failure has failure rows
    closed_values = engine_values if verdict else form.expr.grid_values(g_points, i_points)
    grid = tuple(
        (g, i, engine_value, closed_value)
        for (g, i), engine_value, closed_value in zip(
            product(g_points, i_points), engine_values, closed_values
        )
    )
    return CertificationReport(
        name=name,
        verdict=verdict,
        method="grid",
        anchor=form.anchor,
        degree_bound=_BOUND,
        grid_size=(len(g_points), len(i_points)),
        grid=grid,
        failures=() if verdict else tuple(row for row in grid if row[2] != row[3]),
    )


# ---------------------------------------------------------------------------
# Engine quantities: derived once over the generic ring from the Chow ring
# and the bundle calculus, independently of the closed forms


@functools.cache
def engine_polys() -> Mapping[str, ParamPoly]:
    """Every engine quantity as a polynomial in (g, i), keyed by its
    closed-form name.

    Built on first use and kept for the process; the mapping is
    read-only because every caller shares it.
    """
    ring = ChowRing(_G)
    w = weierstrass_class(ring, _I)
    jets = jet_chern(ring, _I, _G + _I)
    w_delta = chow_integrate(ring, chow_mul(ring, w, DELTA))
    sw = chow_integrate(ring, special_ramification_class(ring, w))
    e_plus = chow_integrate(ring, moving_locus_class(ring, _I, jets))
    # moving pairs off the diagonal: the Porteous count minus the weight
    # (g+1) carried by each of the transversal diagonal intersections
    e = e_plus - (_G + 1) * w_delta
    return MappingProxyType(
        {
            "W_class_K1": w.cK1,
            "W_class_K2": w.cK2,
            "W_class_Delta": w.cDelta,
            "W_delta_transversality": w_delta,
            "jet_c1_K2": jets.c1.cK2,
            "jet_c1_Delta": jets.c1.cDelta,
            "jet_c2_point": chow_integrate(ring, jets.c2),
            "E_plus_degree": e_plus,
            "SW_degree": sw,
            "E_degree": e,
            "D_degree": sw - e,
        }
    )


# ---------------------------------------------------------------------------
# Case table, in canonical report order: a name in IDENTITIES is an exact
# equality of two closed forms, any other name certifies its engine
# polynomial against its closed form

CASES = (
    "W_class_K1",
    "W_class_K2",
    "W_class_Delta",
    "W_delta_transversality",
    "jet_c1_K2",
    "jet_c1_Delta",
    "jet_c2_point",
    "E_plus_degree",
    "SW_degree",
    "E_degree",
    "D_degree",
    "identity_a",
    "identity_b",
)

IDENTITIES: dict[str, tuple[ParamPoly, ParamPoly, str]] = {
    "identity_a": (
        CLOSED_FORMS["SW_degree"].expr,
        CLOSED_FORMS["D_degree"].expr + CLOSED_FORMS["E_degree"].expr,
        "special-ramification count splits as effective plus moving pairs",
    ),
    "identity_b": (
        CLOSED_FORMS["E_plus_degree"].expr,
        CLOSED_FORMS["E_degree"].expr + (_G + 1) * (_G**3 - _G),
        "Porteous count exceeds the moving-pair count by (g+1)(g^3-g)",
    ),
}


def _run_case(name: str, g_range: Sequence[int], i_range: Sequence[int]) -> CertificationReport:
    if name in IDENTITIES:
        lhs, rhs, anchor = IDENTITIES[name]
        return CertificationReport(name=name, verdict=lhs == rhs, method="symbolic", anchor=anchor)
    return certify(name, engine_polys()[name], CLOSED_FORMS[name], g_range, i_range)


DEFAULT_G_RANGE = range(1, 10)
DEFAULT_I_RANGE = range(0, 9)


def run_suite(
    g_range: Sequence[int] = DEFAULT_G_RANGE,
    i_range: Sequence[int] = DEFAULT_I_RANGE,
    name_filter: str | None = None,
) -> list[CertificationReport]:
    """Run all (or the filtered) certification cases, serially and in
    the canonical case order.  A filter that is a case name selects that
    case directly: no name holds a glob character, so it matches only
    itself."""
    if name_filter is None:
        names = CASES
    elif name_filter in CASES:
        names = [name_filter]
    else:
        names = [n for n in CASES if fnmatch.fnmatchcase(n, name_filter)]
    return [_run_case(n, g_range, i_range) for n in names]
