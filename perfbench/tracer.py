"""Outside-in tracing of ramloci's layers.

``Tracer.install()`` replaces module and class attributes of ramloci with
wrappers that record one span per call (name, parent span, start, end)
and a few exact counters computed from the call arguments.  Nothing in
``src/`` is edited: a wrapper sits where the caller looks the name up, so
a function imported by name into another module is wrapped there too.
A target that no longer exists raises ``LookupError`` instead of quietly
reporting zero.

Per-layer metrics are named ``<module>.<function>.<stat>``.  Self time is
a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import time
from array import array

# (layer, owner, attribute): the owner is where callers look the name up.
TARGETS = (
    ("chow.chow_mul", "ramloci.chow", "chow_mul"),
    ("chow.chow_mul", "ramloci.bundles", "chow_mul"),
    ("chow.chow_mul", "ramloci.formulas", "chow_mul"),
    ("bundles.jet_chern", "ramloci.bundles", "jet_chern"),
    ("bundles.jet_chern", "ramloci.formulas", "jet_chern"),
    ("bundles.moving_locus_class", "ramloci.formulas", "moving_locus_class"),
    ("formulas.certify", "ramloci.formulas", "certify"),
    ("formulas.run_suite", "ramloci.formulas", "run_suite"),
    ("kernels.convolve", "ramloci._kernels", "convolve"),
    ("numeric.series_invert", "ramloci.curves", "series_invert"),
    ("numeric.series_sqrt", "ramloci.curves", "series_sqrt"),
    ("numeric.bareiss_det", "ramloci.curves", "bareiss_det"),
    ("numeric.unipoly_gcd", "ramloci.numeric:UniPoly", "gcd"),
    ("curves.from_poly", "ramloci.curves:HyperellipticModel", "from_poly"),
    ("curves.total_weight", "ramloci.curves", "total_weight"),
    ("curves.total_weight", "ramloci.cli", "total_weight"),
    ("curves.torsion_check", "ramloci.curves", "torsion_check"),
    ("curves.order_sequence_at", "ramloci.curves", "order_sequence_at"),
    ("curves.expand_at", "ramloci.curves", "expand_at"),
    ("curves.local_frame", "ramloci.curves", "_local_frame"),
    ("curves.branch_newton", "ramloci.curves", "_solve_branch_parameter"),
    ("curves.staircase", "ramloci.curves", "staircase_valuations"),
    ("curves.affine_wronskian", "ramloci.curves", "affine_wronskian"),
    ("curves.branch_bookkeeping", "ramloci.curves", "ord_at_branch"),
    ("curves.branch_bookkeeping", "ramloci.curves", "ord_at_infinity"),
    ("curves.branch_bookkeeping", "ramloci.curves", "branch_ord_total"),
    ("curves.branch_bookkeeping", "ramloci.curves", "_strip_branch_factors"),
    ("curves.division_polynomial", "ramloci.curves", "division_polynomial"),
    ("cli.parse_curve", "ramloci.cli", "parse_curve"),
    ("cli.main", "ramloci.cli", "main"),
)

# Cached functions whose hit counts come from their cache_info().
CACHES = (
    ("curves.local_frame", "ramloci.curves", "_local_frame"),
    ("curves.division_polynomial", "ramloci.curves", "division_polynomial"),
)

# Per-layer metrics: (name, unit, exact).  Exact metrics are counts that
# must repeat exactly between runs on the same inputs.
LAYER_METRICS = (
    ("chow.chow_mul.calls", "count", True),
    ("chow.chow_mul.self_s", "s", False),
    ("bundles.jet_chern.calls", "count", True),
    ("bundles.jet_chern.self_s", "s", False),
    ("bundles.moving_locus_class.self_s", "s", False),
    ("formulas.certify.self_s", "s", False),
    ("formulas.grid_points", "count", True),
    ("curves.order_sequence_at.calls", "count", True),
    ("curves.order_sequence_at.total_s", "s", False),
    ("curves.precision_start", "count", True),
    ("curves.precision_reached", "count", True),
    ("curves.precision_doublings", "count", True),
    ("kernels.convolve.calls", "count", True),
    ("kernels.convolve.mults", "count", True),
    ("kernels.convolve.self_s", "s", False),
    ("curves.branch_newton.self_s", "s", False),
    ("curves.local_frame.self_s", "s", False),
    ("curves.local_frame.hits", "count", True),
    ("curves.expand_at.self_s", "s", False),
    ("curves.staircase.self_s", "s", False),
    ("numeric.series_invert.self_s", "s", False),
    ("numeric.series_sqrt.self_s", "s", False),
    ("curves.affine_wronskian.total_s", "s", False),
    ("curves.affine_wronskian.self_s", "s", False),
    ("curves.wronskian_n", "count", True),
    ("numeric.bareiss_det.self_s", "s", False),
    ("numeric.unipoly_gcd.calls", "count", True),
    ("numeric.unipoly_gcd.self_s", "s", False),
    ("curves.branch_bookkeeping.self_s", "s", False),
    ("curves.division_polynomial.calls", "count", True),
    ("curves.division_polynomial.hits", "count", True),
    ("cli.parse_curve.self_s", "s", False),
    ("curves.from_poly.self_s", "s", False),
    ("cli.main.self_s", "s", False),
)


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def self_times(names, parents, starts, ends) -> dict:
    """Sum of self time per span name; parents[k] is the index of span
    k's parent span, or -1 for a root."""
    child = [0.0] * len(names)
    for k, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[k] - starts[k]
    out: dict = {}
    for k, name in enumerate(names):
        out[name] = out.get(name, 0.0) + (ends[k] - starts[k]) - child[k]
    return out


def convolve_mults(a, b, n_out) -> int:
    """Multiplications done by the truncated convolution kernel."""
    nb = len(b)
    if not nb:
        return 0
    return sum(min(nb, n_out - k) for k in range(min(len(a), n_out)) if a[k])


class Tracer:
    def __init__(self):
        self.layers = sorted({layer for layer, _, _ in TARGETS})
        self.span_layer = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.layers)
        self.inclusive = [0.0] * len(self.layers)
        self.counts = {"formulas.grid_points": 0, "kernels.convolve.mults": 0, "curves.wronskian_n": 0}
        self.places = []  # [start, reached] precision per order_sequence_at call
        self._active = [0] * len(self.layers)
        self._stack = []
        self._patches = []
        self._caches = {}

    def install(self) -> None:
        hooks = {
            "formulas.certify": self._note_certify,
            "kernels.convolve": self._note_convolve,
            "curves.affine_wronskian": self._note_wronskian,
            "curves.order_sequence_at": self._note_sequence,
            "curves.expand_at": self._note_expand,
        }
        try:
            for layer, owner, attr in CACHES:
                cached = getattr(resolve(owner), attr)
                if not hasattr(cached, "cache_info"):
                    raise LookupError(f"{owner}.{attr} is no longer an lru_cache")
                self._caches[layer] = (cached, cached.cache_info().hits)
            for layer, owner, attr in TARGETS:
                self._wrap(resolve(owner), attr, layer, hooks.get(layer))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr, layer, hook) -> None:
        where = vars(owner)
        if attr not in where:
            raise LookupError(f"traced name {getattr(owner, '__name__', owner)}.{attr} no longer exists")
        original = where[attr]
        func = original.__func__ if isinstance(original, classmethod) else original
        lid = self.layers.index(layer)
        stack, active, parents = self._stack, self._active, self.span_parent
        starts, ends, ids = self.span_start, self.span_end, self.span_layer
        calls, inclusive = self.calls, self.inclusive
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            sid = len(starts)
            ids.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            active[lid] += 1
            calls[lid] += 1
            t0 = clock()
            starts.append(t0)
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                stack.pop()
                active[lid] -= 1
                if not active[lid]:
                    inclusive[lid] += t1 - t0

        traced.__wrapped__ = func
        setattr(owner, attr, classmethod(traced) if isinstance(original, classmethod) else traced)
        self._patches.append((owner, attr, original))

    def _note_certify(self, name, engine_fn, form, g_range, i_range):
        self.counts["formulas.grid_points"] += len(set(g_range)) * len(set(i_range))

    def _note_convolve(self, a, b, n_out):
        self.counts["kernels.convolve.mults"] += convolve_mults(a, b, n_out)

    def _note_wronskian(self, model, basis):
        self.counts["curves.wronskian_n"] += len(basis)

    def _note_sequence(self, *args, **kwargs):
        self.places.append([0, 0])

    def _note_expand(self, model, fn, place, precision):
        """Precision of an expansion made directly by order_sequence_at: the
        first one is where the place started, the largest where it ended."""
        if self._stack and self.layers[self.span_layer[self._stack[-1]]] == "curves.order_sequence_at":
            place_rec = self.places[-1]
            if not place_rec[0]:
                place_rec[0] = precision
            place_rec[1] = max(place_rec[1], precision)

    def metrics(self) -> dict:
        """Every per-layer metric of LAYER_METRICS, by name; times are in
        unscaled seconds."""
        names = [self.layers[k] for k in self.span_layer]
        self_s = self_times(names, self.span_parent, self.span_start, self.span_end)
        values = dict(self.counts)
        for lid, layer in enumerate(self.layers):
            values[f"{layer}.calls"] = self.calls[lid]
            values[f"{layer}.total_s"] = self.inclusive[lid]
            values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        for layer, (cached, base) in self._caches.items():
            values[f"{layer}.hits"] = cached.cache_info().hits - base
        values["curves.precision_start"] = sum(start for start, _ in self.places)
        values["curves.precision_reached"] = sum(reached for _, reached in self.places)
        values["curves.precision_doublings"] = sum(
            (reached // start).bit_length() - 1 for start, reached in self.places if start
        )
        return {name: values[name] for name, _, _ in LAYER_METRICS}
