"""Closed-form counts in (g, i) and the certification machinery.

Each counting formula is stored fully expanded as a ``ParamPoly``; a
``certify`` run proves that an engine-computed quantity equals a closed
form *as a polynomial identity* by deterministic grid evaluation: two
polynomials of per-variable degree at most d that agree on a grid with
more than d points per variable are equal.

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
9 x 9 grid.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

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
# Engine quantities: every callable maps concrete (g, i) to an exact value


def engine_w_class_k1(g: int, i: int) -> Fraction:
    return weierstrass_class(ChowRing(g), i).cK1


def engine_w_class_k2(g: int, i: int) -> Fraction:
    return weierstrass_class(ChowRing(g), i).cK2


def engine_w_class_delta(g: int, i: int) -> Fraction:
    return weierstrass_class(ChowRing(g), i).cDelta


def engine_jet_c1_k2(g: int, i: int) -> Fraction:
    ring = ChowRing(g)
    return jet_chern(ring, i, g + i).c1.cK2


def engine_jet_c1_delta(g: int, i: int) -> Fraction:
    ring = ChowRing(g)
    return jet_chern(ring, i, g + i).c1.cDelta


def engine_jet_c2_point(g: int, i: int) -> Fraction:
    ring = ChowRing(g)
    return chow_integrate(ring, jet_chern(ring, i, g + i).c2)


def engine_sw_degree(g: int, i: int) -> Fraction:
    ring = ChowRing(g)
    return chow_integrate(ring, special_ramification_class(ring, i))


def engine_e_plus_degree(g: int, i: int) -> Fraction:
    ring = ChowRing(g)
    return chow_integrate(ring, moving_locus_class(ring, i))


def engine_w_delta(g: int, i: int) -> Fraction:
    ring = ChowRing(g)
    return chow_integrate(ring, chow_mul(ring, weierstrass_class(ring, i), DELTA))


def engine_e_degree(g: int, i: int) -> Fraction:
    """Moving pairs off the diagonal: the Porteous count minus the weight
    (g+1) carried by each of the transversal diagonal intersections."""
    return engine_e_plus_degree(g, i) - (g + 1) * engine_w_delta(g, i)


def engine_d_degree(g: int, i: int) -> Fraction:
    return engine_sw_degree(g, i) - engine_e_degree(g, i)


# ---------------------------------------------------------------------------
# Case registry (order is the canonical report order)


@dataclass(frozen=True)
class Case:
    name: str
    kind: str  # "grid" | "symbolic"
    runner: Callable[[Sequence[int], Sequence[int]], CertificationReport]


def _grid_case(name: str, engine_fn, form_name: str) -> Case:
    form = CLOSED_FORMS[form_name]

    def run(g_range, i_range):
        return certify(name, engine_fn, form, g_range, i_range)

    return Case(name, "grid", run)


def _symbolic_case(name: str, lhs_fn, rhs_fn, anchor: str) -> Case:
    def run(g_range, i_range):
        return certify_symbolic(name, lhs_fn(), rhs_fn(), anchor)

    return Case(name, "symbolic", run)


def _identity_a_sides():
    lhs = CLOSED_FORMS["SW_degree"].expr
    rhs = CLOSED_FORMS["D_degree"].expr + CLOSED_FORMS["E_degree"].expr
    return lhs, rhs


def _identity_b_sides():
    lhs = CLOSED_FORMS["E_plus_degree"].expr
    rhs = CLOSED_FORMS["E_degree"].expr + (_G + 1) * (_G**3 - _G)
    return lhs, rhs


CASES: dict[str, Case] = {
    c.name: c
    for c in [
        _grid_case("W_class_K1", engine_w_class_k1, "W_class_K1"),
        _grid_case("W_class_K2", engine_w_class_k2, "W_class_K2"),
        _grid_case("W_class_Delta", engine_w_class_delta, "W_class_Delta"),
        _grid_case("W_delta_transversality", engine_w_delta, "W_delta_transversality"),
        _grid_case("jet_c1_K2", engine_jet_c1_k2, "jet_c1_K2"),
        _grid_case("jet_c1_Delta", engine_jet_c1_delta, "jet_c1_Delta"),
        _grid_case("jet_c2_point", engine_jet_c2_point, "jet_c2_point"),
        _grid_case("E_plus_degree", engine_e_plus_degree, "E_plus_degree"),
        _grid_case("SW_degree", engine_sw_degree, "SW_degree"),
        _grid_case("E_degree", engine_e_degree, "E_degree"),
        _grid_case("D_degree", engine_d_degree, "D_degree"),
        _symbolic_case(
            "identity_a",
            lambda: _identity_a_sides()[0],
            lambda: _identity_a_sides()[1],
            "special-ramification count splits as effective plus moving pairs",
        ),
        _symbolic_case(
            "identity_b",
            lambda: _identity_b_sides()[0],
            lambda: _identity_b_sides()[1],
            "Porteous count exceeds the moving-pair count by (g+1)(g^3-g)",
        ),
    ]
}

DEFAULT_G_RANGE = range(1, 10)
DEFAULT_I_RANGE = range(0, 9)


def identity_suite(
    g_range: Sequence[int] = DEFAULT_G_RANGE,
    i_range: Sequence[int] = DEFAULT_I_RANGE,
) -> list[CertificationReport]:
    """The two symbolic splitting identities plus the coefficientwise
    certification of the derived Weierstrass divisor class."""
    names = ["identity_a", "identity_b", "W_class_K1", "W_class_K2", "W_class_Delta"]
    return [CASES[n].runner(g_range, i_range) for n in names]


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
    return [CASES[n].runner(g_range, i_range) for n in names]
