"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion asserts exact values and its stated time budget.
"""

import random
import time
from fractions import Fraction

import pytest

from ramloci.chow import DELTA, ChowClass, ChowRing, chow_integrate, chow_mul
from ramloci.cli import parse_curve
from ramloci.curves import (
    Place,
    build_basis,
    order_sequence_at,
    staircase_valuations,
    torsion_check,
    total_weight,
)
from ramloci.errors import GridInsufficientError, InconclusiveError
from ramloci.formulas import CLOSED_FORMS, certify, engine_values, run_suite
from ramloci.numeric import (
    Series,
    bareiss_det,
    cofactor_det,
    series_invert,
    series_sqrt,
)

G_RANGE = range(1, 10)
I_RANGE = range(0, 9)


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(criterion, description, timer):
    ok = timer.elapsed < timer.budget
    print(
        f"ACCEPTANCE {criterion} {description}: "
        f"{'PASS' if ok else 'FAIL (over budget)'} "
        f"({timer.elapsed:.2f}s < {timer.budget:.0f}s)"
    )
    assert ok, f"{criterion} exceeded its {timer.budget}s budget: {timer.elapsed:.2f}s"


def _case(reports, name):
    return next(r for r in reports if r.name == name)


def test_c1_weierstrass_class_certification():
    with _Timer(1.0) as t:
        reports = run_suite(G_RANGE, I_RANGE, name_filter="W_class_*")
        assert [r.name for r in reports] == ["W_class_K1", "W_class_K2", "W_class_Delta"]
        for r in reports:
            assert r.verdict and r.grid_size == (9, 9) and not r.failures
    _report("C1", "Weierstrass divisor class, coefficientwise on the 9x9 grid", t)


def test_c2_special_ramification_degree():
    with _Timer(1.0) as t:
        report = certify(
            "SW_degree",
            lambda g, i: engine_values(g, i)["SW_degree"],
            CLOSED_FORMS["SW_degree"],
            G_RANGE,
            I_RANGE,
        )
        assert report.verdict and report.degree_bound == (8, 8)
        assert len(report.grid) == 81 and not report.failures
    _report("C2", "special-ramification degree equals its closed form", t)


def test_c3_porteous_and_jet_chern_classes():
    with _Timer(1.0) as t:
        reports = run_suite(G_RANGE, I_RANGE, name_filter="jet_c*")
        assert [r.name for r in reports] == ["jet_c1_K2", "jet_c1_Delta", "jet_c2_point"]
        assert all(r.verdict for r in reports)
        e_plus = run_suite(G_RANGE, I_RANGE, name_filter="E_plus_degree")[0]
        assert e_plus.verdict
        # spot value: (i+1)^2 g (g-1) (g+i+1)^2 at (2, 1)
        assert dict(((g, i), v) for g, i, v, _ in e_plus.grid)[(2, 1)] == 128
    _report("C3", "jet Chern classes and the Porteous degree", t)


def test_c4_degree_split_and_symbolic_identities():
    with _Timer(1.0) as t:
        reports = run_suite(G_RANGE, I_RANGE, name_filter="[DE]_degree")
        assert sorted(r.name for r in reports) == ["D_degree", "E_degree"]
        assert all(r.verdict for r in reports)
        identity_a = run_suite(G_RANGE, I_RANGE, name_filter="identity_a")[0]
        identity_b = run_suite(G_RANGE, I_RANGE, name_filter="identity_b")[0]
        assert identity_a.verdict and identity_a.method == "symbolic"
        assert identity_b.verdict and identity_b.method == "symbolic"
    _report("C4", "moving/effective degree split plus both symbolic identities", t)


def test_c5_transversality_count():
    with _Timer(1.0) as t:
        report = run_suite(G_RANGE, I_RANGE, name_filter="W_delta_transversality")[0]
        assert report.verdict
        values = dict(((g, i), v) for g, i, v, _ in report.grid)
        for g in G_RANGE:
            for i in I_RANGE:
                assert values[(g, i)] == g**3 - g
    _report("C5", "Weierstrass divisor meets the diagonal in g^3 - g points", t)


def test_c6_elliptic_torsion_oracle():
    with _Timer(30.0) as t:
        for equation in ("y^2 = x^3 - x", "y^2 = x^3 + 1"):
            model = parse_curve(equation)
            for j in range(1, 5):
                assert total_weight(model, j).total == (j + 1) ** 2
                assert torsion_check(model, j)
    _report("C6", "elliptic ramification points are the (j+1)-torsion", t)


def test_c7_genus2_weight_suite():
    with _Timer(60.0) as t:
        model = parse_curve("y^2 = x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 24*x")
        canonical = order_sequence_at(model, build_basis(model, 0), Place.infinity())
        eps = [o - 1 for o in canonical.orders]
        assert eps == [0, 2]
        for i in range(0, 4):
            report = total_weight(model, i)
            assert report.total == 2 * (2 + i) ** 2
            seq = order_sequence_at(model, build_basis(model, i), Place.infinity())
            assert list(seq.orders) == list(range(i)) + [i + 1 + e for e in eps]
            assert seq.weight == 3  # g + canonical weight at infinity
        # canonical case: six simple points once the base twist at infinity
        # is removed, totalling g^3 - g = 6
        report0 = total_weight(model, 0)
        weights = [seq.weight for _, seq in report0.entries]
        assert weights == [1, 1, 1, 1, 1, 3]
        assert sum(weights) - model.genus == 6
        assert report0.remainder == 0
    _report("C7", "genus-2 weights, orders at infinity, canonical count", t)


def test_c8_property_suites():
    with _Timer(60.0) as t:
        rng = random.Random(2024)

        # Brill-Segre on every system the other criteria compute
        for equation, i_max in (
            ("y^2 = x^3 - x", 5),
            ("y^2 = x^3 + 1", 5),
            ("y^2 = x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 24*x", 3),
        ):
            model = parse_curve(equation)
            g = model.genus
            for i in range(0, i_max + 1):
                total = total_weight(model, i).total
                r, d = g + i - 1, 2 * g - 1 + i
                assert total == (r + 1) * (d + (g - 1) * r) == g * (g + i) ** 2

        # chow ring axioms on random classes
        for g in (1, 2, 5, 9):
            ring = ChowRing(g)
            for _ in range(30):
                a, b, c = (
                    ChowClass(*(Fraction(rng.randint(-9, 9)) for _ in range(5)))
                    for _ in range(3)
                )
                assert chow_mul(ring, a, b) == chow_mul(ring, b, a)
                assert chow_mul(ring, chow_mul(ring, a, b), c) == chow_mul(
                    ring, a, chow_mul(ring, b, c)
                )
        assert chow_integrate(ChowRing(3), chow_mul(ChowRing(3), DELTA, DELTA)) == -4

        # series round trips
        for _ in range(40):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(10)]
            s = Series(0, [Fraction(rng.randint(1, 5))] + coeffs)
            inv = series_invert(s)
            prod = inv * s
            assert prod.coefficient(0) == 1
            assert all(
                prod.coefficient(e) == 0 for e in range(1, int(prod.known_up_to))
            )
            sq_in = Series(0, [Fraction(1)] + coeffs)
            root = series_sqrt(sq_in)
            back = root * root
            assert all(
                back.coefficient(e) == sq_in.coefficient(e)
                for e in range(0, int(back.known_up_to))
            )

        # bareiss against cofactor expansion, all sizes up to 4
        for n in (1, 2, 3, 4):
            for _ in range(20):
                m = [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)
                ]
                assert bareiss_det(m) == cofactor_det(m)

        # error paths: insufficient grid, inconclusive elimination, precision cap
        with pytest.raises(GridInsufficientError):
            certify(
                "SW_degree",
                lambda g, i: engine_values(g, i)["SW_degree"],
                CLOSED_FORMS["SW_degree"],
                range(1, 3),
                range(0, 2),
            )
        s = Series(0, [1, 2, 3])
        with pytest.raises(InconclusiveError):
            staircase_valuations([s, s])
        model = parse_curve("y^2 = x^3 - x")
        import ramloci.curves as curves_mod

        original = curves_mod.staircase_valuations
        try:
            curves_mod.staircase_valuations = lambda _: (_ for _ in ()).throw(
                InconclusiveError("forced")
            )
            with pytest.raises(InconclusiveError, match="precision cap"):
                order_sequence_at(
                    model, build_basis(model, 1), Place.infinity(), precision_cap=64
                )
        finally:
            curves_mod.staircase_valuations = original
    _report("C8", "property suites and error paths", t)
