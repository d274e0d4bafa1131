"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N --mode setup|run|trace

``setup`` imports ramloci from ``src/`` and parses the workload's inputs,
then prints when it was ready and the host slowdown.  ``run`` also
executes every item and prints one JSON line: per-item latencies and CPU
times, the host slowdown, peak RSS, oracle failures and a digest of the
outputs.  ``trace`` does the same under the layer tracer and adds the
per-layer metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# The reference slice takes this long when the host runs at reference speed.
REFERENCE_SLICE_S = 0.005
SLICE_EVERY_S = 0.1

import ramloci  # noqa: E402
from ramloci import cli, curves, formulas  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def case_record(report) -> dict:
    return {
        "name": report.name,
        "verdict": report.verdict,
        "grid": [[g, i, str(engine), str(closed)] for g, i, engine, closed in report.grid],
    }


def weights_record(report) -> dict:
    return {
        "entries": [[str(place), list(seq.orders), seq.weight] for place, seq in report.entries],
        "remainder": report.remainder,
        "remainder_ordinary": report.remainder_ordinary,
        "remainder_branch": report.remainder_branch,
        "total": report.total,
    }


def run_item(item, models) -> dict:
    """Call ramloci's public entry point for one item.  Names are looked
    up on their modules at call time, so the tracer's wrappers apply."""
    if item.kind == "case":
        reports = formulas.run_suite(name_filter=item.target)
        return {"reports": [case_record(r) for r in reports]}
    if item.kind == "weights":
        return weights_record(curves.total_weight(models[item.target], item.index))
    if item.kind == "torsion":
        return {"verdict": curves.torsion_check(models[item.target], item.index)}
    argv = ["curve", "weights", item.target, "--i", str(item.index), "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


_BIG = [(k * 7919) ** 7 + 1 for k in range(40)]


def reference_slice() -> float:
    """Time a fixed mix of the work ramloci does: rational arithmetic, a
    big-integer convolution and an integer loop.  The mix never changes,
    so its time measures how fast this host runs Python at the moment."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for k in range(1, 800):
        acc += Fraction(k % 13 + 1, k % 17 + 1)
        table[k % 101] = table.get(k % 101, 0) + k * k
    out = [0] * (2 * len(_BIG))
    for i, a in enumerate(_BIG):
        for j, b in enumerate(_BIG):
            out[i + j] += a * b
    quotients = [Fraction(c, 6) for c in out]
    x = 0
    for k in range(15000):
        x = (x + k * 3) % 1000003
    return time.perf_counter() - t0


def run(items, models) -> dict:
    """Run every item, with a reference slice before the first, after the
    last and between items after every SLICE_EVERY_S of item time."""
    records, latencies, cpu_times = [], [], []
    slices = [reference_slice()]
    since_slice = 0.0
    for item in items:
        if since_slice >= SLICE_EVERY_S:
            slices.append(reference_slice())
            since_slice = 0.0
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            record = run_item(item, models)
        except Exception as exc:  # an item that raises is a counted failure
            record = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - t0)
        cpu_times.append(time.process_time() - c0)
        since_slice += latencies[-1]
        records.append(record)
    slices.append(reference_slice())
    problems = [(item, oracle.check(item, record)) for item, record in zip(items, records)]
    failed = [f"{item.kind} {item.target} i={item.index}: {p[0]}" for item, p in problems if p]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    return {
        "item_s": latencies,
        "item_cpu_s": cpu_times,
        "slowdown": statistics.fmean(slices) / REFERENCE_SLICE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(items),
        "failed": len(failed),
        "problems": failed[:5],
        "digest": digest,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    items = workloads.make_items(args.workload, args.seed)
    models = {
        item.target: cli.parse_curve(item.target)
        for item in items
        if item.kind in ("weights", "torsion")
    }
    if args.mode == "setup":
        ready = time.perf_counter()
        slowdown = statistics.fmean(reference_slice() for _ in range(3)) / REFERENCE_SLICE_S
        print(json.dumps({"ready": ready, "slowdown": slowdown}))
        return 0
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = run(items, models)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["layers"] = tracer.metrics()
    result["env"] = {
        "python": platform.python_version(),
        "kernel_backend": getattr(ramloci, "kernel_backend", "none"),
        "ramloci_env": {k: v for k, v in os.environ.items() if k.startswith("RAMLOCI_")},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
