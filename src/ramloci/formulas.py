"""Closed-form counts in (g, i) and the certification machinery.

Each counting formula is stored fully expanded as a ``ParamPoly``.  The
engine side runs the Chow-ring and bundle calculus once over the generic
ring, whose genus is the formal parameter g and whose coefficients are
polynomials in (g, i), so every engine quantity comes out as a
``ParamPoly`` too.  A ``certify`` run proves engine == closed form by
exact equality of the two expanded polynomials.  Its report keeps the
grid view: both polynomials evaluated at every grid point, with the
points where they differ listed as failures.
"""

from __future__ import annotations

import fnmatch
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .bundles import jet_chern, moving_locus_class, special_ramification_class
from .chow import DELTA, ChowRing, chow_integrate, chow_mul, weierstrass_class
from .errors import GridInsufficientError
from .numeric import ParamPoly

_G = ParamPoly.g()
_I = ParamPoly.i()
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ClosedForm:
    """A named closed-form count with its per-variable degree bound."""

    name: str
    expr: ParamPoly
    degree_bound: tuple[int, int]
    anchor: str

    def __post_init__(self):
        dg, di = self.expr.degrees()
        bg, bi = self.degree_bound
        if dg > bg or di > bi:
            raise ValueError(
                f"degree bound {self.degree_bound} does not dominate ({dg}, {di})"
            )

    def __call__(self, g, i) -> Fraction:
        return self.expr(g, i)


_BOUND = (8, 8)

CLOSED_FORMS: dict[str, ClosedForm] = {}


def _register(name: str, expr: ParamPoly, anchor: str) -> ClosedForm:
    form = ClosedForm(name, expr, _BOUND, anchor)
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


@dataclass(frozen=True)
class CertificationReport:
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
    sizes the report rows.  A range that does not exceed the declared
    per-variable degree bound is still refused, as a configuration
    error rather than a failed verdict.
    """
    g_points = sorted(set(g_range))
    i_points = sorted(set(i_range))
    bg, bi = form.degree_bound
    if len(g_points) <= bg or len(i_points) <= bi:
        raise GridInsufficientError(
            f"case {name}: grid {len(g_points)}x{len(i_points)} insufficient "
            f"for degree bound {form.degree_bound}"
        )
    grid = tuple(
        (g, i, engine_value, closed_value)
        for (g, i), engine_value, closed_value in zip(
            product(g_points, i_points),
            engine_fn.grid_values(g_points, i_points),
            form.expr.grid_values(g_points, i_points),
        )
    )
    # equal polynomials agree at every point: only a failure has rows
    verdict = engine_fn == form.expr
    return CertificationReport(
        name=name,
        verdict=verdict,
        method="grid",
        anchor=form.anchor,
        degree_bound=form.degree_bound,
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
    sw = chow_integrate(ring, special_ramification_class(ring, _I))
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
# Case registry: name -> runner(g_range, i_range), in canonical report order

Runner = Callable[[Sequence[int], Sequence[int]], CertificationReport]


def _grid_case(name: str) -> Runner:
    def run(g_range, i_range):
        return certify(name, engine_polys()[name], CLOSED_FORMS[name], g_range, i_range)

    return run


def _symbolic_case(name: str, lhs: ParamPoly, rhs: ParamPoly, anchor: str) -> Runner:
    """Exact equality of two fully expanded closed forms; no grid needed."""
    report = CertificationReport(name=name, verdict=lhs == rhs, method="symbolic", anchor=anchor)
    return lambda g_range, i_range: report


_GRID_CASES = (
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
)

CASES: dict[str, Runner] = {name: _grid_case(name) for name in _GRID_CASES}
CASES["identity_a"] = _symbolic_case(
    "identity_a",
    CLOSED_FORMS["SW_degree"].expr,
    CLOSED_FORMS["D_degree"].expr + CLOSED_FORMS["E_degree"].expr,
    "special-ramification count splits as effective plus moving pairs",
)
CASES["identity_b"] = _symbolic_case(
    "identity_b",
    CLOSED_FORMS["E_plus_degree"].expr,
    CLOSED_FORMS["E_degree"].expr + (_G + 1) * (_G**3 - _G),
    "Porteous count exceeds the moving-pair count by (g+1)(g^3-g)",
)

DEFAULT_G_RANGE = range(1, 10)
DEFAULT_I_RANGE = range(0, 9)


def run_suite(
    g_range: Sequence[int] = DEFAULT_G_RANGE,
    i_range: Sequence[int] = DEFAULT_I_RANGE,
    name_filter: str | None = None,
) -> list[CertificationReport]:
    """Run all (or the filtered) certification cases, serially and in
    the canonical case order."""
    names = [
        n for n in CASES if name_filter is None or fnmatch.fnmatchcase(n, name_filter)
    ]
    return [CASES[n](g_range, i_range) for n in names]
