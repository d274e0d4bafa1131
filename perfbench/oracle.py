"""Independent correctness checks on plain output records.

Nothing here imports ramloci or uses ``ParamPoly``: closed forms are
recomputed with Python integers, and curve results are checked against
the Brill-Segre count and the bookkeeping identities every weight report
must satisfy.  ``check(item, record)`` returns a list of problems; an
empty list means the item is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import SPLIT_GENUS2


def _half(n: int) -> int:
    if n % 2:
        raise ArithmeticError(f"{n} is odd")
    return n // 2


CLOSED_FORMS = {
    "W_class_K1": lambda g, i: _half(i * (i + 1)),
    "W_class_K2": lambda g, i: _half((g + i) * (g + i + 1)),
    "W_class_Delta": lambda g, i: i * (g + i + 1),
    "W_delta_transversality": lambda g, i: g**3 - g,
    "jet_c1_K2": lambda g, i: _half((g + i + 1) * (g + i + 2)),
    "jet_c1_Delta": lambda g, i: (i + 1) * (g + i + 1),
    "jet_c2_point": lambda g, i: (g - 1) * (g + 1) * (i + 1) * (g + i) * (g + i + 1),
    "E_plus_degree": lambda g, i: (i + 1) ** 2 * g * (g - 1) * (g + i + 1) ** 2,
    "SW_degree": lambda g, i: 2 * i * g * (g - 1) * ((i + 2) * (g + i) ** 2 + 2 * (g + i) + 2),
    "E_degree": lambda g, i: g * (g - 1) * ((g + i + 1) ** 2 * (i + 1) ** 2 - (g + 1) ** 2),
    "D_degree": lambda g, i: g * (g - 1) * ((g + i - 1) ** 2 * (i + 1) ** 2 - (g - 1) ** 2),
}

GRID_G = range(1, 10)
GRID_I = range(0, 9)


def total_weight(g: int, i: int) -> int:
    """g(g+i)^2, after checking it against (r+1)(d+(g-1)r)."""
    r, d = g + i - 1, 2 * g - 1 + i
    total = g * (g + i) ** 2
    if total != (r + 1) * (d + (g - 1) * r):
        raise ArithmeticError(f"Brill-Segre mismatch at g={g}, i={i}")
    return total


def check(item, record) -> list[str]:
    if "error" in record:
        return [f"raised {record['error']}"]
    checker = {
        "case": _check_case,
        "weights": _check_weights,
        "torsion": _check_torsion,
        "cli": _check_cli,
    }[item.kind]
    return checker(item, record)


def _check_case(item, record) -> list[str]:
    reports = record["reports"]
    if len(reports) != 1 or reports[0]["name"] != item.target:
        return [f"expected one report named {item.target}, got {len(reports)}"]
    report = reports[0]
    problems = [] if report["verdict"] else ["verdict is fail"]
    form = CLOSED_FORMS.get(item.target)
    if form is None:  # symbolic identity: the verdict is the whole result
        return problems
    expected = {(g, i) for g in GRID_G for i in GRID_I}
    seen = set()
    for g, i, engine, closed in report["grid"]:
        seen.add((g, i))
        want = form(g, i)
        if Fraction(engine) != want or Fraction(closed) != want:
            problems.append(f"at (g={g}, i={i}): engine {engine}, closed {closed}, oracle {want}")
    if seen != expected:
        problems.append(f"grid covers {len(seen)} of the {len(expected)} default points")
    return problems


def _check_weights(item, record) -> list[str]:
    g = (item.degree - 1) // 2
    i = item.index
    problems = _check_bookkeeping(g, i, record)
    if item.target == SPLIT_GENUS2:
        problems += _check_split_genus2(i, record)
    return problems


def _check_bookkeeping(g, i, report) -> list[str]:
    problems = []
    total = total_weight(g, i)
    if report["total"] != total:
        problems.append(f"total {report['total']} != g(g+i)^2 = {total}")
    located = sum(entry[2] for entry in report["entries"])
    if located + report["remainder"] != report["total"]:
        problems.append(f"located {located} + remainder {report['remainder']} != total")
    ordinary, branch = report["remainder_ordinary"], report["remainder_branch"]
    if ordinary < 0 or branch < 0 or ordinary + branch != report["remainder"]:
        problems.append(f"remainders ordinary {ordinary}, branch {branch} are inconsistent")
    return problems


def _check_split_genus2(i, record) -> list[str]:
    """The genus-2 orders at infinity: 0..i-1, then i+1 and i+3."""
    places = [entry[0] for entry in record["entries"]]
    if len(places) != 6 or places[-1] != "infinity":
        return [f"expected five branch places and infinity, got {places}"]
    orders = record["entries"][-1][1]
    want = list(range(i)) + [i + 1, i + 3]
    if orders != want:
        return [f"orders at infinity {orders} != {want}"]
    if i == 0 and [entry[2] for entry in record["entries"]] != [1, 1, 1, 1, 1, 3]:
        return ["canonical weights are not [1, 1, 1, 1, 1, 3]"]
    return []


def _check_torsion(item, record) -> list[str]:
    return [] if record["verdict"] is True else ["torsion verdict is not true"]


def _check_cli(item, record) -> list[str]:
    if record["code"] != 0:
        return [f"exit {record['code']}: {record['stderr'].strip()}"]
    doc = json.loads(record["stdout"])
    if doc.get("schema") != 1:
        return [f"schema {doc.get('schema')!r} != 1"]
    entries = [(e["place"], e["orders"], e["weight"]) for e in doc["entries"]]
    return _check_bookkeeping((item.degree - 1) // 2, item.index, dict(doc, entries=entries))
