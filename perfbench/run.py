"""ramloci benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run from the root of a source checkout; nothing needs to be installed,
because every sample imports ramloci from ``src/``.  One client runs one
sample at a time (a closed loop): each sample is a fresh interpreter that
executes the whole workload once, since a command-line user pays for a
cold process and a cache left warm by an earlier sample must not count.

With ``--trace 0`` the run alternates set-up-only interpreters
(``setup_s``: start until ramloci is imported and the inputs are parsed)
with full samples until the time is spent, and reports medians over
samples.  With ``--trace 1`` it alternates traced and untraced samples and
reports the per-layer metrics of the traced ones.  Every item is checked
by an oracle independent of ramloci; the last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` prints every end-to-end metric of every workload.

Times are in seconds at reference speed.  A shared virtual machine runs
the same Python code up to twice as fast at one moment as at another, in
phases of seconds to minutes, so raw times of identical runs spread by
20-40%.  Each sample therefore also times a fixed reference computation
(``sample.reference_slice``) between its items, and every time the sample
reports is divided by the sample's slowdown: the mean reference time over
its nominal 5 ms.  The unscaled wall time and the slowdown are printed on
the comment lines.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple((name, unit) for name, unit, _ in LAYER_METRICS) + (("trace.overhead_s", "s"),)
EXACT_LAYER_METRICS = tuple(name for name, _, exact in LAYER_METRICS if exact)

MIN_SETUPS = 7
SAMPLE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def sample_env() -> dict:
    """The caller's environment with every RAMLOCI_* variable pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAMLOCI_")}
    env["RAMLOCI_JOBS"] = "1"
    return env


def spawn(workload: str, seed: int, mode: str) -> tuple[float, dict]:
    """Run one sample interpreter; return its wall time and its result."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=sample_env(), capture_output=True,
                          text=True, timeout=SAMPLE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample of {workload} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode == "setup":  # both clocks are CLOCK_MONOTONIC
        result["setup_s"] = result["ready"] - t0
    return elapsed, result


def scaled(result: dict, key: str) -> list[float]:
    """Per-item times of one sample, divided by the host slowdown."""
    return [t / result["slowdown"] for t in result[key]]


def deciles(values) -> tuple[float, float]:
    """(p50, p90) of one sample's item latencies, interpolated linearly
    between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def environment(results) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": results[0]["env"]["kernel_backend"],
        "ramloci_env": results[0]["env"]["ramloci_env"],
        "commit": commit(),
    }


def commit() -> str:
    """The checked-out commit, read from .git when the checkout has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def check_results(results) -> list[str]:
    """Run-level checks: every sample produced the same outputs."""
    digests = {r["digest"] for r in results}
    return [] if len(digests) == 1 else [f"samples disagree: {len(digests)} output digests"]


def measure(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    spawn(workload, seed, "setup")  # untimed: lets bytecode caches fill
    by_mode = sample_loop(workload, seed, start + seconds, ("setup", "run"), 2)
    setups = by_mode["setup"]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup")[1])
    results = by_mode["run"]
    percentiles = [deciles(scaled(r, "item_s")) for r in results]
    values = {
        "wall_s": statistics.median(sum(scaled(r, "item_s")) for r in results),
        "cpu_s": statistics.median(sum(scaled(r, "item_cpu_s")) for r in results),
        "item_p50_ms": statistics.median(p50 for p50, _ in percentiles) * 1000,
        "item_p90_ms": statistics.median(p90 for _, p90 in percentiles) * 1000,
        "setup_s": statistics.median(r["setup_s"] / r["slowdown"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    notes = [
        f"{len(results)} samples of {results[0]['attempted']} items, {len(setups)} set-ups",
        f"host slowdown {statistics.median(r['slowdown'] for r in results):.4f}",
        f"unscaled wall_s {statistics.median(sum(r['item_s']) for r in results):.4f}",
        f"unscaled setup_s {statistics.median(r['setup_s'] for r in setups):.4f}",
    ]
    return outcome(results, values, END_TO_END, check_results(results), notes)


def measure_layers(workload: str, seed: int, seconds: float) -> dict:
    """Alternate traced and untraced samples; at least two traced ones, so
    the exact counts can be compared between interpreters."""
    start = time.perf_counter()
    spawn(workload, seed, "setup")
    by_mode = sample_loop(workload, seed, start + seconds, ("trace", "run"), 3)
    traced, plain = by_mode["trace"], by_mode["run"]
    problems = check_results(traced + plain)
    values = {}
    for name, _ in PER_LAYER[:-1]:
        if name in EXACT_LAYER_METRICS:
            seen = sorted({r["layers"][name] for r in traced})
            if len(seen) != 1:
                problems.append(f"{name} differs between traced samples: {seen}")
            values[name] = seen[0]
        else:
            values[name] = statistics.median(r["layers"][name] / r["slowdown"] for r in traced)
    values["trace.overhead_s"] = (statistics.median(sum(scaled(r, "item_s")) for r in traced)
                                  - statistics.median(sum(scaled(r, "item_s")) for r in plain))
    notes = [f"{len(traced)} traced and {len(plain)} untraced samples"]
    return outcome(traced + plain, values, PER_LAYER, problems, notes)


def sample_loop(workload, seed, deadline, modes, minimum):
    """Cycle through ``modes`` until the deadline.  A spawn starts only if
    the median earlier spawn of its mode would end before the deadline,
    and the first ``minimum`` spawns always run."""
    by_mode = {mode: [] for mode in modes}
    durations = {mode: [] for mode in modes}
    for k in itertools.count():
        mode = modes[k % len(modes)]
        past = durations[mode]
        if k >= minimum and past and time.perf_counter() + statistics.median(past) > deadline:
            return by_mode
        elapsed, result = spawn(workload, seed, mode)
        past.append(elapsed)
        by_mode[mode].append(result)


def outcome(results, values, specs, problems, notes) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        problems += r["problems"]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
        "problems": problems,
        "notes": notes,
        "env": environment(results),
    }


def report(workload: str, result: dict) -> None:
    for problem in result["problems"][:10]:
        print(f"# {workload}: problem: {problem}")
    print(f"# {workload}: {'; '.join(result['notes'])}")
    print(f"# env: {json.dumps(result['env'], sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"{workload}\t{name}\t{metric['value']:.6g}\t{metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{workload}\tfail_share\t{share:.6g}\t{result['failed']}/{result['attempted']} items")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ramloci", "__init__.py")):
        print(f"error: no ramloci sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    run_one = measure_layers if args.trace else measure
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_one(name, args.seed, args.seconds) for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        report(name, result)
    if args.workload == "all":
        last = {name: {"correct": r["correct"], "metrics": r["metrics"]} for name, r in results.items()}
    else:
        result = results[args.workload]
        last = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
