"""Command-line front end: parse curves, run suites, emit reports.

Each command (``cmd_verify``, ``cmd_curve``) computes and writes
nothing: it returns ``(record, rows, exit_code)``, where ``record`` is
the JSON document and ``rows`` the lines of the text formats.  ``main``
hands both to ``_render``, the one writer of a report, which prints
indented JSON or joins each row by a tab (tsv) or a space (pretty).

Exit codes: 0 all checks passed, 1 verification failure, 2 usage or
configuration error or a closed standard output, 3 inconclusive
(precision cap or an internal consistency stop).  Output is
byte-deterministic for a fixed configuration: stable case order,
canonical "p/q" rationals, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import formulas
from .curves import (
    HyperellipticModel,
    Place,
    build_basis,
    order_sequence_at,
    torsion_check,
    total_weight,
)
from .errors import (
    ConfigError,
    CurveSyntaxError,
    InconclusiveError,
    InternalCheckError,
    IrrationalBranchError,
    RamlociError,
)
from .numeric import UniPoly

SCHEMA_VERSION = 1

_FORMATS = ("json", "tsv", "pretty")

# Input caps, checked before anything is sized by the input.  Exact
# weight computations grow fast with degree and twist, so the caps sit
# far above what finishes in reasonable time and far below what could
# exhaust memory.  A number literal is also kept below Python's limit
# on int conversion from a string (4300 digits).
MAX_DEGREE = 31  # largest exponent of x in a curve equation (genus 15)
MAX_TWIST = 32  # largest curve --i
MAX_DIGITS = 1000  # longest integer literal in a curve equation
# Largest verify --g and --i.  The identities are proved symbolically;
# the grid only sizes the report rows, and the full 1..16 x 0..16 grid
# runs in about 0.01 s in-process after import, engine build included
# (Python 3.11, 2 vCPU).
MAX_VERIFY_G = 16
MAX_VERIFY_I = 16


# ---------------------------------------------------------------------------
# Curve equation parser: "y^2 = <monic odd polynomial in x>"


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: int() would read other digits too
            start = pos
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            if pos - start > MAX_DIGITS:
                raise CurveSyntaxError(
                    f"number literal longer than {MAX_DIGITS} digits", start
                )
            tokens.append(("num", text[start:pos], start))
            continue
        if ch in "xy":
            tokens.append(("name", ch, pos))
            pos += 1
            continue
        if ch in "^*+-=/":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise CurveSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.idx]
        found = repr(tok[1]) if tok[1] else "end of input"
        if kind is not None and tok[0] != kind:
            raise CurveSyntaxError(f"expected {value or kind}, found {found}", tok[2])
        if value is not None and tok[1] != value:
            raise CurveSyntaxError(f"expected {value!r}, found {found}", tok[2])
        self.idx += 1
        return tok

    def parse_equation(self) -> UniPoly:
        self.take("name", "y")
        self.take("^")
        tok = self.take("num")
        if tok[1] != "2":
            raise CurveSyntaxError("the left side must be y^2", tok[2])
        self.take("=")
        poly = self.parse_poly()
        end = self.peek()
        if end[0] != "end":
            raise CurveSyntaxError(f"trailing input {end[1]!r}", end[2])
        return poly

    def parse_poly(self) -> UniPoly:
        coeffs = {}  # exponent -> summed coefficient
        sign = 1
        tok = self.peek()
        if tok[0] in "+-":
            sign = -1 if tok[0] == "-" else 1
            self.take(tok[0])
        while True:
            exponent, coeff = self.parse_term()
            coeffs[exponent] = coeffs.get(exponent, 0) + sign * coeff
            tok = self.peek()
            if tok[0] in "+-":
                sign = -1 if tok[0] == "-" else 1
                self.take(tok[0])
                continue
            return UniPoly([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])

    def parse_number(self) -> Fraction:
        tok = self.take("num")
        value = Fraction(int(tok[1]))
        if self.peek()[0] == "/":
            self.take("/")
            dtok = self.take("num")
            if int(dtok[1]) == 0:
                raise CurveSyntaxError("zero denominator", dtok[2])
            value /= int(dtok[1])
        return value

    def parse_term(self) -> tuple[int, Fraction]:
        tok = self.peek()
        coeff = None
        if tok[0] == "num":
            coeff = self.parse_number()
            if self.peek()[0] == "*":
                self.take("*")
                if (tok := self.peek())[0] != "name":  # a '*' is always followed by x
                    raise CurveSyntaxError(
                        f"expected x after '*', found {tok[1] or 'end of input'!r}", tok[2]
                    )
        tok = self.peek()
        exponent = 0
        if tok[0] == "name":
            if tok[1] == "y":
                raise CurveSyntaxError("y may only appear on the left side", tok[2])
            self.take("name", "x")
            if self.peek()[0] == "^":
                self.take("^")
                etok = self.take("num")
                exponent = int(etok[1])
                if exponent > MAX_DEGREE:
                    raise CurveSyntaxError(
                        f"exponent {exponent} exceeds the degree cap {MAX_DEGREE}", etok[2]
                    )
            else:
                exponent = 1
        elif coeff is None:
            raise CurveSyntaxError(
                f"expected a coefficient or x, found {tok[1] or 'end of input'!r}", tok[2]
            )
        return exponent, Fraction(1) if coeff is None else coeff


def parse_curve(text: str, require_split: bool = False) -> HyperellipticModel:
    """Parse and validate "y^2 = f(x)" into a hyperelliptic model.

    With ``require_split`` the model must have all branch x-coordinates
    rational; weight bookkeeping itself handles non-split f, so this is
    only a strictness switch.
    """
    poly = _Parser(text).parse_equation()
    model = HyperellipticModel.from_poly(poly)
    if require_split and not model.splits:
        raise IrrationalBranchError(
            "f does not split over Q; rerun without --require-split"
        )
    return model


# A place coordinate: optional sign, digits, optional /digits, each
# literal capped like a curve literal.
_COORDINATE = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?")


def _parse_place(model: HyperellipticModel, text: str) -> Place:
    text = text.strip()
    if text in ("inf", "infinity", "oo"):
        return Place.infinity()
    parts = [p.strip() for p in text.split(",")]
    if not all(_COORDINATE.fullmatch(p) for p in parts):
        raise ConfigError(
            f"cannot parse place {text!r}: coordinates are integers or p/q "
            f"of at most {MAX_DIGITS} digits each"
        )
    try:
        coords = [Fraction(p) for p in parts]
    except ZeroDivisionError:
        raise ConfigError(f"zero denominator in place {text!r}") from None
    if len(coords) == 1:
        place = Place.branch(coords[0])
    elif len(coords) == 2:
        place = Place.branch(coords[0]) if coords[1] == 0 else Place.ordinary(*coords)
    else:
        raise ConfigError(f"cannot parse place {text!r}")
    model.check_place(place)
    return place


# ---------------------------------------------------------------------------
# Run configuration


def _parse_span(text: str, name: str):
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(f"cannot parse --{name} span {text!r}; use A or A..B") from None
    return lo, hi


# ---------------------------------------------------------------------------
# Commands: each returns (record, rows, exit_code) and writes nothing


def cmd_verify(args):
    g_min, g_max = _parse_span(args.g, "g")
    i_min, i_max = _parse_span(args.i, "i")
    if not 1 <= g_min <= g_max:
        raise ConfigError(f"need 1 <= g_min <= g_max, got {g_min}..{g_max}")
    if not 0 <= i_min <= i_max:
        raise ConfigError(f"need 0 <= i_min <= i_max, got {i_min}..{i_max}")
    if g_max > MAX_VERIFY_G or i_max > MAX_VERIFY_I:
        raise ConfigError(
            f"grid {g_min}..{g_max} x {i_min}..{i_max} exceeds "
            f"the cap g <= {MAX_VERIFY_G}, i <= {MAX_VERIFY_I}"
        )
    reports = formulas.run_suite(
        g_range=range(g_min, g_max + 1),
        i_range=range(i_min, i_max + 1),
        name_filter=args.filter,
    )
    if not reports:
        raise ConfigError(f"no cases match filter {args.filter!r}")
    passed = all(r.verdict for r in reports)
    record = {
        "schema": SCHEMA_VERSION,
        "suite": "verify",
        "grid": {"g": [g_min, g_max], "i": [i_min, i_max]},
        "cases": [r.to_json_dict() for r in reports],
        "passed": passed,
    }
    if args.format == "tsv":
        rows = [
            (r.name, "pass" if r.verdict else "fail",
             "x".join(map(str, r.grid_size)) if r.grid_size else "symbolic", len(r.failures))
            for r in reports
        ]
    else:  # pretty, one cell a row; json reads only the record
        width = max(len(r.name) for r in reports)
        rows = []
        for r in reports:
            size = f"grid {r.grid_size[0]}x{r.grid_size[1]}" if r.grid_size else "symbolic"
            rows.append((f"[{'PASS' if r.verdict else 'FAIL'}] {r.name:<{width}}  {size}",))
            rows += [
                (f"       at (g={g}, i={i}): engine {engine} != closed {closed}",)
                for g, i, engine, closed in r.failures[:5]
            ]
        rows.append((f"{sum(1 for r in reports if r.verdict)}/{len(reports)} cases passed",))
    return record, rows, 0 if passed else 1


def cmd_curve(args):
    min_i = 1 if args.curve_cmd == "torsion" else 0
    if not min_i <= args.i <= MAX_TWIST:
        raise ConfigError(
            f"curve {args.curve_cmd} needs {min_i} <= --i <= {MAX_TWIST}, got {args.i}"
        )
    if args.place is not None and args.curve_cmd != "orders":
        raise ConfigError("--place applies only to curve orders")
    model = parse_curve(args.model, require_split=args.require_split)
    i, code = args.i, 0
    record = {"schema": SCHEMA_VERSION, "command": args.curve_cmd, "model": f"y^2 = {model.f}"}
    if args.curve_cmd == "basis":
        basis = build_basis(model, i)
        names = list(basis.monomial_names())
        record.update(
            genus=model.genus,
            i=i,
            dimension=len(basis),
            monomials=names,
            pole_orders=list(basis.pole_orders),
        )
        rows = [("monomial", "pole_order")] if args.format == "tsv" else []
        rows += zip(names, basis.pole_orders)
    elif args.curve_cmd == "orders":
        if not args.place:
            raise ConfigError("orders needs --place")
        place = _parse_place(model, args.place)
        seq = order_sequence_at(model, build_basis(model, i), place)
        record.update(i=i, place=str(place), orders=list(seq.orders), weight=seq.weight)
        rows = [("place", place), ("orders", ", ".join(map(str, seq.orders))), ("weight", seq.weight)]
    elif args.curve_cmd == "weights":
        report = total_weight(model, i)
        entries = [
            {"place": str(place), "orders": list(seq.orders), "weight": seq.weight}
            for place, seq in report.entries
        ]
        record.update(
            i=i,
            entries=entries,
            remainder=report.remainder,
            remainder_ordinary=report.remainder_ordinary,
            remainder_branch=report.remainder_branch,
            total=report.total,
        )
        rows = [(e["place"], f"orders ({', '.join(map(str, e['orders']))})", f"weight {e['weight']}") for e in entries]
        rows += [("remainder", report.remainder, ""), ("total", report.total, "")]
    else:  # torsion: argparse admits no other subcommand
        verdict = "pass" if torsion_check(model, i) else "fail"
        code = 0 if verdict == "pass" else 1
        record.update(j=i, torsion_order=i + 1, verdict=verdict)
        rows = [("torsion_order", i + 1), ("verdict", verdict)]
    return record, rows, code


def _render(record: dict, rows, fmt: str, out) -> None:
    """Write a command's report: the record as JSON, or its rows as text."""
    if fmt == "json":
        out.write(json.dumps(record, indent=2) + "\n")
    else:
        sep = "\t" if fmt == "tsv" else " "
        out.write("".join(sep.join(map(str, row)) + "\n" for row in rows))


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors honour the exit contract: one error[usage] line, exit 2."""

    def error(self, message):
        self.exit(2, f"error[usage]: {' '.join(message.split())}\n")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it unchanged."""
    parser = _ArgumentParser(
        prog="ramloci",
        description="Exact verification of ramification counts on explicit curves "
        "and of the enumerative identities behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the certification suite")
    verify.add_argument("--g", default="1..9", metavar="A..B", help="genus span")
    verify.add_argument("--i", default="0..8", metavar="A..B", help="twist span")
    verify.add_argument("--format", choices=_FORMATS, default="pretty")
    verify.add_argument("--filter", default=None, help="case name glob")

    curve = sub.add_parser("curve", help="compute on an explicit curve")
    # An argument that starts with "-" and a digit or a point is a value,
    # such as --place -1/2,3/4, never an option: argparse's own pattern
    # admits only integers and decimals.  _parse_place checks the value.
    curve._negative_number_matcher = re.compile(r"^-[\d.]")
    curve.add_argument("curve_cmd", choices=("basis", "orders", "weights", "torsion"))
    curve.add_argument("model", help='curve equation, e.g. "y^2 = x^3 - x"')
    curve.add_argument("--i", type=int, default=0, help="twist index (torsion order minus one for torsion)")
    curve.add_argument("--place", default=None, help='place: "inf", "x0" (branch), or "x0,y0"')
    curve.add_argument("--format", choices=_FORMATS, default="pretty")
    curve.add_argument("--require-split", action="store_true")
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        record, rows, code = (cmd_verify if args.command == "verify" else cmd_curve)(args)
        _render(record, rows, args.format, out)
        out.flush()
        return code
    except RamlociError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        if isinstance(exc, (InconclusiveError, InternalCheckError)):
            return 3
        return 2
    except BrokenPipeError:
        print("error[output]: the reader closed standard output", file=sys.stderr)
        if out is sys.stdout:
            # The interpreter flushes stdout again at exit; send that
            # flush to devnull so it cannot raise a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
