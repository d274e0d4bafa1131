"""The package's value and record types, and what importing it costs.

Value types with arithmetic or validation and records (order sequences,
reports, closed forms) alike are ``__slots__`` classes derived from
``numeric.Value``, which makes them immutable, compares and hashes them
by value, and prints a record as ``Name(field=value, ...)``.  A record
derives every field that sums up its inputs, and none is a tuple.  No
value type needs ``dataclasses``, so a fresh interpreter that imports
ramloci and runs a command never loads it.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ramloci
from ramloci.bundles import ChernPoly
from ramloci.chow import K1, ChowClass, ChowRing
from ramloci.cli import parse_curve
from ramloci.curves import (
    HyperellipticModel,
    MonomialBasis,
    OrderSequence,
    Place,
    WeightReport,
    _local_frame,
    _wronskian_parts,
    affine_wronskian,
    build_basis,
    division_polynomial,
    total_weight,
)
from ramloci.formulas import CLOSED_FORMS, CertificationReport, ClosedForm, engine_polys, run_suite
from ramloci.numeric import ParamPoly, Series, UniPoly, Value

X = UniPoly.x()

# Run in a fresh interpreter: import the package, then run `python -m
# ramloci curve weights` through runpy in the same process, and print
# which of the watched modules each step added to sys.modules.
_FRESH = """
import json, runpy, sys
WATCHED = ("dataclasses", "inspect")
before = set(sys.modules)
import ramloci, ramloci.cli, ramloci.curves, ramloci.formulas
after_import = set(sys.modules)
sys.argv = ["ramloci", "curve", "weights", "y^2 = x^3 - x"]
try:
    runpy.run_module("ramloci", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
after_run = set(sys.modules)
print(json.dumps({
    "code": code,
    "import": sorted(m for m in after_import - before if m in WATCHED),
    "run": sorted(m for m in after_run - before if m in WATCHED),
}))
"""


def test_fresh_import_and_command_load_no_dataclasses_or_inspect():
    src = str(Path(ramloci.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *report_lines, last = proc.stdout.strip().splitlines()
    assert any(line.startswith("(") for line in report_lines)  # the weights report
    result = json.loads(last)
    assert result == {"code": 0, "import": [], "run": []}


E1 = HyperellipticModel.from_poly(X**3 - X)

# one sample and one field per value type; a new subclass of Value fails
# the tests below until it has a sample here
VALUES = {
    "ParamPoly": (ParamPoly.g() + 1, "nums"),
    "UniPoly": (X**2 - 1, "nums"),
    "Series": (Series(1, [1, 2]), "lead"),
    "ChowClass": (ChowClass(cK1=1), "cK1"),
    "ChowRing": (ChowRing(3), "genus"),
    "ChernPoly": (ChernPoly(ChowRing(3), c1=K1), "c1"),
    "Place": (Place.branch(0), "x"),
    "HyperellipticModel": (E1, "f"),
    "MonomialBasis": (build_basis(E1, 2), "i"),
    "CurveFunction": (affine_wronskian(E1, build_basis(E1, 2)), "num"),
    "OrderSequence": (OrderSequence([0, 1, 3]), "weight"),
    "_WronskianParts": (_wronskian_parts(E1, build_basis(E1, 2)), "det"),
    "WeightReport": (total_weight(E1, 1), "total"),
    "ClosedForm": (CLOSED_FORMS["D_degree"], "expr"),
    "CertificationReport": (run_suite(name_filter="identity_a")[0], "verdict"),
}


def _all_subclasses(cls):
    """Every subclass of cls, however deep, so an intermediate base hides none."""
    return [c for sub in cls.__subclasses__() for c in (sub, *_all_subclasses(sub))]


VALUE_TYPES = sorted(cls.__name__ for cls in _all_subclasses(Value))


def test_every_value_type_has_a_sample():
    assert VALUE_TYPES == sorted(VALUES)
    for name, (value, _) in VALUES.items():
        assert type(value).__name__ == name


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_fields_cannot_be_assigned(name):
    value, field = VALUES[name]
    old = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, old)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is old


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_keep_no_instance_dict(name):
    value, _ = VALUES[name]
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        del value.not_a_field


# each record's repr, exactly as it printed when records were NamedTuples
RECORD_REPRS = {
    "OrderSequence": "OrderSequence(orders=(0, 1, 3), weight=1)",
    "_WronskianParts": "_WronskianParts(det=3*x^4 - 6*x^2 - 1, k=1, e=2, c=Fraction(1, 4))",
    "WeightReport": "WeightReport(i=1, entries=("
    + "".join(
        f"(Place('branch', Fraction({x}, 1), Fraction(0, 1)), OrderSequence(orders=(0, 2), weight=1)), "
        for x in (-1, 0, 1)
    )
    + "(Place('infinity', None, None), OrderSequence(orders=(0, 2), weight=1))), "
    "remainder=0, remainder_ordinary=0, remainder_branch=0, total=4)",
    "ClosedForm": "ClosedForm(name='D_degree', expr=g^4*i^2 + 2*g^3*i^3 + g^2*i^4 + 2*g^4*i "
    "+ g^3*i^2 - 2*g^2*i^3 - g*i^4 - 4*g^3*i - 4*g^2*i^2 + 2*g^2*i + 2*g*i^2, "
    "anchor='number of effective pairs off the diagonal')",
    "CertificationReport": "CertificationReport(name='identity_a', verdict=True, "
    "method='symbolic', anchor='special-ramification count splits as effective plus moving "
    "pairs', degree_bound=None, grid_size=None, grid=(), failures=())",
}


@pytest.mark.parametrize("name", list(RECORD_REPRS))
def test_records_print_as_before_and_are_not_tuples(name):
    value, _ = VALUES[name]
    assert repr(value) == RECORD_REPRS[name]
    assert not isinstance(value, tuple) and value != value._key()
    assert not hasattr(value, "_replace")
    with pytest.raises(TypeError):
        _, *_ = value


class TestRecordsDeriveWhatTheySum:
    def test_order_sequence_derives_its_weight(self):
        assert OrderSequence((0, 1, 3)).weight == 1 and OrderSequence(range(4)).weight == 0
        assert OrderSequence([0, 2, 4]) == OrderSequence((0, 2, 4))
        for bad in ((0, 2, 1), (0, 1, 1)):
            with pytest.raises(ValueError, match="strictly increasing"):
                OrderSequence(bad)
        with pytest.raises(TypeError):
            OrderSequence((0, 1, 2), 99)
        with pytest.raises(TypeError):
            OrderSequence((0, 1.5))
        assert not hasattr(OrderSequence, "from_orders")

    def test_weight_report_derives_remainder_and_total(self):
        entries = (
            (Place.branch(0), OrderSequence((0, 1, 3))),
            (Place.infinity(), OrderSequence((0, 2, 4))),
        )
        report = WeightReport(2, entries, 5, 7)
        assert (report.remainder, report.total) == (12, 3 + 1 + 12)
        assert report.entries == entries
        with pytest.raises(TypeError):
            WeightReport(2, entries, 12, 5, 7, 16)
        real = total_weight(E1, 3)
        assert real == WeightReport(3, real.entries, real.remainder_ordinary, real.remainder_branch)

    def test_certification_report_derives_its_failures(self):
        rows = ((1, 0, 2, 2), (1, 1, 3, 4), (2, 0, 5, 5))
        report = CertificationReport("c", False, "grid", "a", (8, 8), (2, 2), rows)
        assert report.failures == ((1, 1, 3, 4),)
        with pytest.raises(TypeError):
            CertificationReport("c", True, "grid", "a", (8, 8), (2, 2), rows, ())
        assert CertificationReport("c", True, "symbolic", "a").failures == ()

    def test_closed_form_is_a_plain_record(self):
        form = CLOSED_FORMS["D_degree"]
        assert ClosedForm(form.name, form.expr, form.anchor) == form


def test_a_cached_division_polynomial_keeps_its_fields():
    psi = division_polynomial(E1, 3)
    with pytest.raises(AttributeError):
        del division_polynomial(E1, 3).num
    assert division_polynomial(E1, 3) is psi and psi.num == 3 * X**4 - 6 * X**2 - 1


@pytest.mark.parametrize("source", ["closed form", "engine"])
def test_param_poly_numerators_are_read_only(source):
    poly = CLOSED_FORMS["D_degree"].expr if source == "closed form" else engine_polys()["D_degree"]
    nums = poly.nums
    before, key = dict(nums), next(iter(nums))
    with pytest.raises(TypeError):
        nums[(0, 0)] = 7
    with pytest.raises(TypeError):
        del nums[key]
    for mutate in (
        nums.clear,
        nums.popitem,
        lambda: nums.pop(key),
        lambda: nums.update({}),
        lambda: nums.setdefault((0, 0), 7),
    ):
        with pytest.raises(TypeError):
            mutate()
    with pytest.raises(TypeError):
        nums |= {}
    assert poly.nums is nums and dict(nums) == before
    (report,) = run_suite(name_filter="D_degree")
    assert report.verdict and not report.failures


class TestEqualityAndHash:
    def test_places_built_apart_are_one_cache_key(self):
        a, b = Place.ordinary(2, 3), Place.ordinary(Fraction(4, 2), 3)
        assert a is not b and a == b and hash(a) == hash(b)
        assert Place.branch(0) != Place.ordinary(0, 0) and Place.infinity() == Place.infinity()

    def test_models_built_apart_are_one_cache_key(self):
        a = HyperellipticModel.from_poly(X**3 + 1)
        b = parse_curve("y^2 = x^3 + 1")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != E1

    def test_equal_keys_hit_one_local_frame_entry(self):
        _local_frame.cache_clear()
        model_a, model_b = parse_curve("y^2 = x^3 + 1"), parse_curve("y^2 = x^3 + 1")
        place_a, place_b = Place.ordinary(2, 3), Place("ordinary", Fraction(2), Fraction(3))
        first = _local_frame(model_a, place_a, 8)
        second = _local_frame(model_b, place_b, 8)
        info = _local_frame.cache_info()
        assert second is first and (info.hits, info.misses) == (1, 1)

    def test_value_types_compare_by_value(self):
        assert ChowClass(1, 2, 3, 4, 5) == ChowClass(c0=1, cK1=2, cK2=3, cDelta=4, cPt=5)
        assert hash(ChowClass(cK1=1)) == hash(K1)
        assert ChowRing(2) == ChowRing(2) != ChowRing(3)
        assert ChernPoly(ChowRing(2), c1=K1) == ChernPoly(ChowRing(2), c1=ChowClass(cK1=1))
        assert build_basis(E1, 2) == MonomialBasis(E1, 2)
        assert len({build_basis(E1, 2), build_basis(parse_curve("y^2 = x^3 - x"), 2)}) == 1

    @pytest.mark.parametrize("c", [0, 3, Fraction(1, 2)])
    def test_constant_polynomials_hash_as_their_value(self, c):
        for p in (UniPoly.const(c), ParamPoly.const(c)):
            assert p == c and hash(p) == hash(c) and len({p, c}) == 1


def test_from_poly_stays_settable_on_the_class(monkeypatch):
    calls = []
    real = HyperellipticModel.from_poly.__func__

    def traced(cls, f):
        calls.append(f)
        return real(cls, f)

    monkeypatch.setattr(HyperellipticModel, "from_poly", classmethod(traced))
    assert parse_curve("y^2 = x^3 - x") == E1 and calls == [X**3 - X]


class TestChowClass:
    def test_is_not_a_tuple(self):
        assert not isinstance(K1, tuple)
        with pytest.raises(TypeError):
            len(K1)

    def test_right_scalar_only(self):
        assert 2 * K1 == ChowClass(cK1=2)
        with pytest.raises(TypeError):
            ChowClass(cK1=1) * 2


def test_chern_poly_checks_its_degrees():
    with pytest.raises(ValueError):
        ChernPoly(ChowRing(2), c1=ChowClass(c0=1))
    with pytest.raises(ValueError):
        ChernPoly(ChowRing(2), c2=K1)


PUBLIC_NAMES = [
    "ChernPoly",
    "jet_chern",
    "moving_locus_class",
    "porteous_c2",
    "pushforward_c1",
    "special_ramification_class",
    "ChowClass",
    "ChowRing",
    "chow_integrate",
    "chow_mul",
    "weierstrass_class",
    "DX_OVER_Y",
    "HyperellipticModel",
    "MonomialBasis",
    "OrderSequence",
    "Place",
    "WeightReport",
    "affine_wronskian",
    "build_basis",
    "division_polynomial",
    "expand_at",
    "order_sequence_at",
    "torsion_check",
    "total_weight",
    "CLOSED_FORMS",
    "CertificationReport",
    "ClosedForm",
    "certify",
    "run_suite",
    "ParamPoly",
    "Series",
    "UniPoly",
    "bareiss_det",
    "series_invert",
    "series_sqrt",
    "parse_curve",
    "__version__",
]


def test_public_names_are_pinned_and_resolve():
    assert ramloci.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ramloci, name) is not None
