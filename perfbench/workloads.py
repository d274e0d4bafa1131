"""Benchmark workloads: seeded item lists, built without importing ramloci.

An item is one unit of user-visible work and one latency sample: a
certification case, one (curve, i) weight system, one torsion check, or
one ``ramloci curve weights`` command.  The same (workload, seed) always
gives the same list, byte for byte.  The seed draws the curves of
``cli_many_curves``; the other workloads are fixed and run in canonical
order, because their items share caches (division polynomials, local
frames) and a reordering would move single item latencies between runs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple

SPLIT_GENUS2 = "y^2 = x^5 - 10*x^4 + 35*x^3 - 50*x^2 + 24*x"
NONSPLIT_GENUS3 = "y^2 = x^7 - x + 1"
NONSPLIT_ELLIPTIC = "y^2 = x^3 - 2*x + 5"

# The default ``ramloci verify`` suite, in its canonical report order.
CERTIFY_CASES = (
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
    "identity_a",
    "identity_b",
)

WORKLOADS = ("certify_grid", "split_weights", "nonsplit_wronskian", "cli_many_curves")

CLI_ITEMS = 96
SPLIT_ROOTS = range(-5, 6)
RANDOM_COEFFS = range(-9, 10)


class Item(NamedTuple):
    kind: str  # "case", "weights", "torsion" or "cli"
    target: str  # certification case name, or curve equation
    index: int  # twist i (j for torsion); 0 for cases
    degree: int  # degree of f; 0 for cases


def make_items(workload: str, seed: int) -> list[Item]:
    if workload == "certify_grid":
        return [Item("case", name, 0, 0) for name in CERTIFY_CASES]
    if workload == "split_weights":
        return [Item("weights", SPLIT_GENUS2, i, 5) for i in range(5)]
    if workload == "nonsplit_wronskian":
        return [Item("weights", NONSPLIT_GENUS3, i, 7) for i in range(5)] + [
            Item("torsion", NONSPLIT_ELLIPTIC, j, 3) for j in range(1, 7)
        ]
    if workload == "cli_many_curves":
        return cli_items(random.Random(f"{workload}:{seed}"), CLI_ITEMS)
    raise ValueError(f"unknown workload {workload!r}")


def item_lines(items) -> bytes:
    """Canonical byte form of an item list, one JSON array per line."""
    return "".join(json.dumps(list(item)) + "\n" for item in items).encode()


def cli_items(rng: random.Random, count: int) -> list[Item]:
    """Stratified random curves: every block of four items holds one
    degree-3 and one degree-5 curve split over small integer roots and
    one of each degree with random coefficients, so every seed carries
    the same mix of cheap and expensive requests; i alternates 0, 1."""
    items = []
    for k in range(count):
        degree = 3 if k % 4 < 2 else 5
        if k % 2 == 0:
            coeffs = poly_from_roots(rng.sample(SPLIT_ROOTS, degree))
        else:
            coeffs = random_squarefree(rng, degree)
        items.append(Item("cli", equation(coeffs), (k // 4) % 2, degree))
    return items


def poly_from_roots(roots) -> list[int]:
    """Coefficients, constant term first, of the product of (x - r)."""
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] -= r * c
        coeffs = shifted
    return coeffs


def random_squarefree(rng: random.Random, degree: int) -> list[int]:
    while True:
        coeffs = [rng.choice(RANDOM_COEFFS) for _ in range(degree)] + [1]
        if is_squarefree(coeffs):
            return coeffs


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, bc in enumerate(b):
            a[shift + k] -= c * bc
        _trim(a)
    return a


def is_squarefree(coeffs) -> bool:
    """gcd(f, f') is constant, by Euclid over Q."""
    a = [Fraction(c) for c in coeffs]
    b = _trim([k * c for k, c in enumerate(a)][1:])
    while b:
        a, b = b, _rem(a, b)
    return len(a) == 1


def equation(coeffs) -> str:
    """Render coefficients (constant first, monic) as "y^2 = f(x)"."""
    text = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        mag = abs(c)
        body = mono if mag == 1 and k else (f"{mag}*{mono}" if k else str(mag))
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += (" - " if c < 0 else " + ") + body
    return "y^2 = " + text
