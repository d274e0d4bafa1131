"""Exact verification of special ramification counts on C x C.

Two halves share one exact-rational kernel:

* an intersection-ring engine that re-derives the closed-form counts of
  special ramification pairs on the square of a curve (Chern classes of
  relative jet bundles, a Porteous degeneracy class, and the Weierstrass
  divisor class) and certifies them as polynomial identities in (g, i);

* an explicit-curve engine for odd hyperelliptic models y^2 = f(x) that
  computes order sequences, wronskians, and ramification weights at
  concrete places, with an elliptic division-polynomial oracle for the
  torsion description of the ramification points.
"""

from .bundles import (
    ChernPoly,
    jet_chern,
    moving_locus_class,
    porteous_c2,
    pushforward_c1,
    special_ramification_class,
)
from .chow import ChowClass, ChowRing, chow_integrate, chow_mul, weierstrass_class
from .curves import (
    DX_OVER_Y,
    HyperellipticModel,
    MonomialBasis,
    OrderSequence,
    Place,
    WeightReport,
    affine_wronskian,
    build_basis,
    division_polynomial,
    expand_at,
    order_sequence_at,
    torsion_check,
    total_weight,
)
from .formulas import (
    CLOSED_FORMS,
    CertificationReport,
    ClosedForm,
    certify,
    run_suite,
)
from .numeric import (
    ParamPoly,
    Series,
    UniPoly,
    bareiss_det,
    series_invert,
    series_sqrt,
)
from .cli import parse_curve

__version__ = "0.1.0"

__all__ = [
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
