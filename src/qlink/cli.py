"""Command-line surface: qrat | inv | sweep | table.

Exit codes: 0 success, 2 parse/usage error or a cap exceeded (MAX_STEPS,
MAX_EXPONENT, `braid.MAX_STRANDS`, `qnum.MAX_QDEGREE`), 3 specialization pole,
4 unwritable output path.  All output is deterministic; table entries are
evaluated in order and the groups are sorted before the report is assembled.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .braid import BraidWord, mirror, parse_braid
from .exactalg import PoleError, RatFun2, format_ratfun, format_ratfun2, format_nu
from .exactalg.textio import quote_input
from .homfly import homfly
from .qnum import left_qrational, qrational
from .xinv import flat_context, numeric_sweep, specialize_closure, x_context

__all__ = ["main", "KnotTable", "CollisionReport", "load_knot_table", "builtin_mini_table"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_POLE = 3
EXIT_UNWRITABLE = 4

# The largest `sweep --steps`: the steps + 1 rows are all held in memory.
MAX_STEPS = 1000

# The largest decimal exponent of a rational (the interpreter's default digit
# limit): `Fraction` would expand 1e<huge> before any cap looks at the value.
MAX_EXPONENT = 4300


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class KnotTable:
    """Named braid words, typically loaded from a `name,braid` CSV."""

    entries: tuple[tuple[str, BraidWord], ...]
    source: str

    def __post_init__(self) -> None:
        names = [n for n, _ in self.entries]
        if len(names) != len(set(names)):
            raise ValueError("duplicate knot names in table")


@dataclass(frozen=True)
class CollisionReport:
    invariant: str
    groups: tuple[tuple[str, ...], ...]
    errors: tuple[tuple[str, str], ...]

    def to_json(self) -> str:
        doc = {
            "invariant": self.invariant,
            "groups": [list(g) for g in self.groups],
            "errors": [{"name": n, "message": m} for n, m in self.errors],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> CollisionReport:
        doc = json.loads(text)
        return CollisionReport(
            invariant=doc["invariant"],
            groups=tuple(tuple(g) for g in doc["groups"]),
            errors=tuple((e["name"], e["message"]) for e in doc["errors"]),
        )


def load_knot_table(path: str) -> KnotTable:
    """Load a `name,braid` CSV; `#` lines are comments, braids are quoted
    space-separated letter lists."""
    entries = []
    with open(path, newline="") as fh:
        filtered = (line for line in fh if line.strip() and not line.lstrip().startswith("#"))
        for row in csv.reader(filtered):
            if len(row) < 2:
                raise ValueError(f"bad knot table row: {row!r}")
            name = row[0].strip()
            entries.append((name, parse_braid(row[1])))
    return KnotTable(tuple(entries), source=path)


def builtin_mini_table() -> KnotTable:
    """Small bundled table with textbook braid words."""
    data = {"3_1": "1 1 1", "4_1": "1 -2 1 -2", "5_1": "1 1 1 1 1"}
    return KnotTable(tuple((n, parse_braid(b)) for n, b in data.items()), source="<builtin>")


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


@contextmanager
def _exact_output():
    """Lift the interpreter's limit on int -> str digits while exact values are
    printed: a value at q = Q0, or at a sweep point, may have any length.
    Parsing keeps the limit, so an over-long number on input stays a usage
    error."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _parse_rational(text: str) -> Fraction:
    s = text.strip()
    exponent = re.search(r"e[-+]?([\d_]+)$", s, re.IGNORECASE)
    # five leading digits, after any leading zeros, decide the comparison
    if exponent and int(exponent[1].replace("_", "").lstrip("0")[:5] or 0) > MAX_EXPONENT:
        raise CliError(f"bad rational {quote_input(text)}: exponent magnitude over {MAX_EXPONENT}", EXIT_PARSE)
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise CliError(f"bad rational {quote_input(text)}: zero denominator", EXIT_PARSE) from None
    except ValueError as exc:
        # Fraction's own message repeats the input
        reason = str(exc).replace(repr(s), quote_input(s))
        raise CliError(f"bad rational {quote_input(text)}: {reason}", EXIT_PARSE) from None


def _parse_mode(text: str) -> tuple[str, Fraction | None]:
    if text == "homfly":
        return "homfly", None
    for prefix, kind in (("x:", "x"), ("flat:", "flat")):
        if text.startswith(prefix):
            return kind, _parse_rational(text[len(prefix) :])
    raise CliError(f"bad mode {quote_input(text)} (expected homfly, x:RAT or flat:RAT)", EXIT_PARSE)


def _braid_from_args(args: argparse.Namespace) -> BraidWord:
    try:
        w = parse_braid(args.braid, args.strands)
    except ValueError as exc:
        raise CliError(f"bad braid: {exc}", EXIT_PARSE) from None
    if getattr(args, "mirror", False):
        w = mirror(w)
    return w


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_qrat(args: argparse.Namespace) -> int:
    x = _parse_rational(args.x)
    try:
        f = qrational(x) if args.flavor == "right" else left_qrational(x)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from None
    print(format_ratfun(f))
    if args.at is not None:
        q0 = _parse_rational(args.at)
        try:
            with _exact_output():
                print(f.evaluate(q0))
        except PoleError as exc:
            raise CliError(str(exc), EXIT_POLE) from None
    return EXIT_OK


def _invariant_text(h: RatFun2, writhe: int, kind: str, x: Fraction | None, normalized: bool) -> str:
    """Canonical text of the invariant of a closure of value h; `normalized` removes the framing."""
    if kind == "homfly":
        if normalized:
            # each positive kink carries q^-1 a
            h = h * RatFun2.monomial(1, -1, 1) ** writhe
        return format_ratfun2(h)
    ctx = x_context(x) if kind == "x" else flat_context(x)
    value = specialize_closure(h, ctx, writhe if normalized else 0)
    return format_ratfun(value.nu_free_part()) if normalized else format_nu(value.value)


def _cmd_inv(args: argparse.Namespace) -> int:
    w = _braid_from_args(args)
    kind, x = _parse_mode(args.mode)
    try:
        print(_invariant_text(homfly(w), w.writhe, kind, x, args.normalized))
    except PoleError as exc:
        raise CliError(f"specialization pole: {exc}", EXIT_POLE) from None
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from None
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    w = _braid_from_args(args)
    q0 = _parse_rational(args.q0)
    lo = _parse_rational(getattr(args, "from"))
    hi = _parse_rational(args.to)
    if args.steps < 1:
        raise CliError("steps must be >= 1", EXIT_PARSE)
    if args.steps > MAX_STEPS:
        raise CliError(f"steps must be <= {MAX_STEPS}", EXIT_PARSE)
    if not lo < hi:
        raise CliError("empty sweep range (need from < to)", EXIT_PARSE)
    if q0 == 0:
        raise CliError("q0 must be nonzero", EXIT_PARSE)
    xs = [lo + (hi - lo) * Fraction(i, args.steps) for i in range(args.steps + 1)]
    buf = io.StringIO()
    with _exact_output():
        rows, diagnostics = numeric_sweep(w, q0, xs, normalized=args.normalized)
        for line in diagnostics:
            print(f"sweep: skipped {line}", file=sys.stderr)
        writer = csv.writer(buf)
        writer.writerow(["x", "value", "flag"])
        for row in rows:
            writer.writerow([str(row.x), str(row.value), row.flag])
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise CliError(f"cannot write {args.out!r}: {exc}", EXIT_UNWRITABLE) from None
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    if args.file is None:
        table = builtin_mini_table()
    else:
        try:
            table = load_knot_table(args.file)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load table: {exc}", EXIT_PARSE) from None
    kind, x = _parse_mode(args.mode)
    by_value: dict[str, list[str]] = {}
    errors = []
    for name, w in table.entries:
        h = None
        for n, sign in ((name, 1), (name + "!", -1)) if args.with_mirrors else ((name, 1),):
            try:
                h = homfly(w) if h is None else h
                # the mirror's value is h under a -> a^-1, q -> q^-1; its writhe is -writhe
                text = _invariant_text(h if sign == 1 else h.subs_bar(), sign * w.writhe, kind, x, True)
            except Exception as exc:  # per-entry failures land in the report
                errors.append((n, str(exc)))
            else:
                by_value.setdefault(text, []).append(n)
    groups = sorted(tuple(sorted(g)) for g in by_value.values())
    if args.collisions:
        groups = [g for g in groups if len(g) > 1]
    mode_label = args.mode + (" normalized" if kind != "homfly" else "")
    report = CollisionReport(mode_label, tuple(groups), tuple(sorted(errors)))
    print(report.to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads every argument that starts with `-` and a digit, or `-.` and a
    digit, as a value: negative rationals such as -1/2 or -2e1, and braid
    words such as -1,2.  No qlink option is spelled that way.  Its "invalid
    int value" and "invalid choice" errors quote a bounded prefix of the value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d.*", re.DOTALL)

    def _get_values(self, action, arg_strings):
        try:
            return super()._get_values(action, arg_strings)
        except argparse.ArgumentError as exc:
            message = exc.message
            for text in arg_strings:
                message = message.replace(repr(text), quote_input(text))
            raise argparse.ArgumentError(action, message) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qlink",
        description="Exact q-rational numbers and link invariants of braid closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qrat", help="print the q-deformation of a rational number")
    p.add_argument("x", help="rational number, e.g. 5/2")
    p.add_argument("--flavor", choices=["right", "left"], default="right")
    p.add_argument("--at", metavar="Q0", help="also evaluate exactly at q = Q0")
    p.set_defaults(func=_cmd_qrat)

    p = sub.add_parser("inv", help="invariant of a braid closure")
    p.add_argument("braid", help="braid word, e.g. '1 1 1'")
    p.add_argument("--mode", default="homfly", help="homfly | x:RAT | flat:RAT")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--normalized", action="store_true", help="remove the framing factor")
    p.add_argument("--mirror", action="store_true", help="use the mirror image")
    p.set_defaults(func=_cmd_inv)

    p = sub.add_parser("sweep", help="evaluate the x-invariant over a range of x")
    p.add_argument("braid")
    p.add_argument("--q0", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--mirror", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table", help="group knot-table entries by invariant value")
    p.add_argument("file", nargs="?", default=None, help="knot table CSV (built-in mini table if omitted)")
    p.add_argument("--mode", default="flat:2", help="homfly | x:RAT | flat:RAT")
    p.add_argument("--with-mirrors", action="store_true", dest="with_mirrors")
    p.add_argument("--collisions", action="store_true", help="only report groups of size > 1")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"qlink: {exc}", file=sys.stderr)
        return exc.code
    except PoleError as exc:
        print(f"qlink: specialization pole: {exc}", file=sys.stderr)
        return EXIT_POLE


if __name__ == "__main__":
    sys.exit(main())
