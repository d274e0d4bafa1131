"""Tests of the benchmark itself: inputs, oracle, tracer and metric specs.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402
import sample  # noqa: E402  (puts src/ on the path)
import tracer  # noqa: E402
import workloads  # noqa: E402
from ramloci.cli import parse_curve  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_items_are_byte_identical_per_seed(workload):
    first = workloads.item_lines(workloads.make_items(workload, 7))
    again = workloads.item_lines(workloads.make_items(workload, 7))
    assert first == again


def test_cli_items_depend_on_the_seed_and_keep_the_mix():
    a = workloads.make_items("cli_many_curves", 1)
    b = workloads.make_items("cli_many_curves", 2)
    assert workloads.item_lines(a) != workloads.item_lines(b)
    assert sorted(it.degree for it in a) == sorted(it.degree for it in b)
    for items in (a, b):
        assert len(items) == workloads.CLI_ITEMS
        assert sum(it.index for it in items) == len(items) // 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_generated_curve_is_a_valid_model(seed):
    for item in workloads.make_items("cli_many_curves", seed):
        model = parse_curve(item.target)  # raises unless monic, odd and squarefree
        assert model.f.degree == item.degree
        assert model.f.degree % 2 == 1 and model.f.lead == 1


def test_equation_round_trips_through_the_parser():
    coeffs = [24, -50, 35, -10, 1, 1]
    model = parse_curve(workloads.equation(coeffs))
    assert list(model.f.coeffs) == [Fraction(c) for c in coeffs]
    assert workloads.equation(workloads.poly_from_roots([0, 1, 2, 3, 4])) == workloads.SPLIT_GENUS2


def test_squarefree_check():
    assert workloads.is_squarefree([0, -1, 0, 1])  # x^3 - x
    assert not workloads.is_squarefree(workloads.poly_from_roots([1, 1, 2]))


def test_self_time_of_a_synthetic_span_tree():
    # a [0, 10] has children b [1, 4] and c [5, 9]; b has child d [2, 3]
    names = ["a", "b", "d", "c"]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(names, parents, starts, ends) == {"a": 3.0, "b": 2.0, "d": 1.0, "c": 4.0}
    # spans of one name add up
    assert tracer.self_times(["x", "x"], [-1, 0], [0.0, 1.0], [4.0, 2.0]) == {"x": 4.0}


def test_convolve_mult_count_matches_the_loop():
    a, b = [1, 0, 3, 4], [5, 6, 7]
    for n_out in range(0, 8):
        brute = sum(1 for i in range(min(len(a), n_out)) if a[i] for j in range(len(b)) if i + j < n_out)
        assert tracer.convolve_mults(a, b, n_out) == brute


SPLIT_I0 = workloads.Item("weights", workloads.SPLIT_GENUS2, 0, 5)
CLI_ITEM = workloads.Item("cli", "y^2 = x^3 - x", 1, 3)


def test_oracle_accepts_real_outputs():
    models = {SPLIT_I0.target: parse_curve(SPLIT_I0.target)}
    for item in (SPLIT_I0, CLI_ITEM, workloads.Item("case", "W_class_K1", 0, 0)):
        assert oracle.check(item, sample.run_item(item, models)) == []


def test_oracle_flags_an_injected_wrong_total():
    models = {SPLIT_I0.target: parse_curve(SPLIT_I0.target)}
    record = sample.run_item(SPLIT_I0, models)
    record["total"] += 1
    assert any("total" in p for p in oracle.check(SPLIT_I0, record))

    cli_record = sample.run_item(CLI_ITEM, models)
    doc = json.loads(cli_record["stdout"])
    doc["total"] -= 1
    cli_record["stdout"] = json.dumps(doc)
    assert oracle.check(CLI_ITEM, cli_record)


def test_oracle_flags_a_wrong_grid_value_and_errors():
    item = workloads.Item("case", "W_class_K1", 0, 0)
    record = sample.run_item(item, {})
    record["reports"][0]["grid"][5][2] = "12345"
    assert oracle.check(item, record)
    assert oracle.check(item, {"error": "ValueError: boom"}) == ["raised ValueError: boom"]


def test_traced_outputs_and_counts_match_untraced():
    models = {SPLIT_I0.target: parse_curve(SPLIT_I0.target)}
    plain = sample.run_item(SPLIT_I0, models)
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install()
        try:
            traced = sample.run_item(SPLIT_I0, models)
        finally:
            t.uninstall()
        assert traced == plain
        metrics = t.metrics()
        counts.append({name: metrics[name] for name in run.EXACT_LAYER_METRICS if name != "curves.local_frame.hits"})
    assert counts[0] == counts[1]
    assert counts[0]["curves.order_sequence_at.calls"] == 6
    assert counts[0]["kernels.convolve.calls"] > 0


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("curves.gone", "ramloci.curves", "no_such_function"),))
    t = tracer.Tracer()
    with pytest.raises(LookupError):
        t.install()
    import ramloci.curves

    assert not hasattr(ramloci.curves.total_weight, "__wrapped__")  # install rolled back


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
