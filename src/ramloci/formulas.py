"""Closed-form counts in (g, i) and the certification machinery.

Each counting formula is stored fully expanded as a ``ParamPoly``; a
``certify`` run proves that an engine-computed quantity equals a closed
form *as a polynomial identity* by deterministic grid evaluation: two
polynomials of per-variable degree at most d that agree on a grid with
more than d points per variable are equal.

The engine side is one memoised record per grid point
(``engine_values``): the ring, the Weierstrass class, the jet Chern
class, the Porteous class and the special-ramification class are built
once, and every grid case reads its value from that record.

Degree audit
------------
Every engine quantity certified here is an integral of a product of at
most two degree-1 classes on the square of the curve.  The class
coefficients are built from index sums of length at most g+i+2 whose
summands are quadratic in the index (jet truncation products, the
pushforward-c1 recursion), so each coefficient is a polynomial in
(g, i) of per-variable degree at most 4; the intersection relations
contribute another factor quadratic in g.  Hence every certified
quantity is a polynomial of per-variable degree at most 6.  All closed
forms declare the safe bound 8, so certification demands at least a
9 x 9 grid.  A test pins the audit empirically: finite differences of
every engine quantity over g 1..14 x i 0..13 vanish from order 7 on
(the measured degree is at most 4).
"""

from __future__ import annotations

import fnmatch
import functools
from dataclasses import dataclass, field
from fractions import Fraction
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

    For grid cases the verdict is pass iff every grid point agrees
    exactly and the grid exceeded the declared degree bound; for
    symbolic cases it is exact equality of the two closed forms.
    """

    name: str
    verdict: bool
    method: str
    anchor: str
    degree_bound: tuple[int, int] | None = None
    grid_size: tuple[int, int] | None = None
    grid: tuple = ()
    failures: tuple = field(default=())

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
    engine_fn: Callable[[int, int], Fraction],
    form: ClosedForm,
    g_range: Sequence[int],
    i_range: Sequence[int],
) -> CertificationReport:
    """Certify engine_fn == form as a polynomial identity in (g, i).

    Refuses to certify when a range does not exceed the declared
    per-variable degree bound; that is a configuration error, not a
    failed verdict.
    """
    g_points = sorted(set(g_range))
    i_points = sorted(set(i_range))
    bg, bi = form.degree_bound
    if len(g_points) <= bg or len(i_points) <= bi:
        raise GridInsufficientError(
            f"case {name}: grid {len(g_points)}x{len(i_points)} insufficient "
            f"for degree bound {form.degree_bound}"
        )
    grid = []
    failures = []
    for g in g_points:
        for i in i_points:
            engine_value = Fraction(engine_fn(g, i))
            closed_value = form(g, i)
            row = (g, i, engine_value, closed_value)
            grid.append(row)
            if engine_value != closed_value:
                failures.append(row)
    return CertificationReport(
        name=name,
        verdict=not failures,
        method="grid",
        anchor=form.anchor,
        degree_bound=form.degree_bound,
        grid_size=(len(g_points), len(i_points)),
        grid=tuple(grid),
        failures=tuple(failures),
    )


def certify_symbolic(name: str, lhs: ParamPoly, rhs: ParamPoly, anchor: str) -> CertificationReport:
    """Exact equality of two fully expanded closed forms; no grid needed."""
    return CertificationReport(
        name=name,
        verdict=(lhs == rhs),
        method="symbolic",
        anchor=anchor,
    )


# ---------------------------------------------------------------------------
# Engine quantities: one exact record per grid point, derived from the
# Chow ring and the bundle calculus independently of the closed forms

# Largest verify grid (16 x 17 points), so a full run never evicts.
ENGINE_CACHE_SIZE = 272


@functools.lru_cache(maxsize=ENGINE_CACHE_SIZE)
def engine_values(g: int, i: int) -> Mapping[str, Fraction]:
    """Every engine quantity at (g, i), keyed by its closed-form name.

    The record is memoised across suite runs, so each grid point builds
    its classes once; it is read-only because the cache shares it.
    """
    ring = ChowRing(g)
    w = weierstrass_class(ring, i)
    jets = jet_chern(ring, i, g + i)
    w_delta = chow_integrate(ring, chow_mul(ring, w, DELTA))
    sw = chow_integrate(ring, special_ramification_class(ring, i))
    e_plus = chow_integrate(ring, moving_locus_class(ring, i))
    # moving pairs off the diagonal: the Porteous count minus the weight
    # (g+1) carried by each of the transversal diagonal intersections
    e = e_plus - (g + 1) * w_delta
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
        return certify(
            name, lambda g, i: engine_values(g, i)[name], CLOSED_FORMS[name], g_range, i_range
        )

    return run


def _symbolic_case(name: str, lhs: ParamPoly, rhs: ParamPoly, anchor: str) -> Runner:
    def run(g_range, i_range):
        return certify_symbolic(name, lhs, rhs, anchor)

    return run


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
