"""Command-line surface: qrat | inv | sweep | table.

Exit codes: 0 success, 2 parse/usage error or a cap exceeded (MAX_STEPS,
MAX_DIGITS, MAX_EXPONENT, `braid.MAX_STRANDS`, `qnum.MAX_QDEGREE`, the Hecke-term
budget `homfly.MAX_HECKE_TERMS`), 3 a pole of `qrat --at`, 4 unwritable output path.
All output is deterministic; table entries are evaluated in order and the
groups are sorted before the report is assembled.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from ._record import Record, setfield
from .braid import BraidWord, mirror, parse_braid
from .exactalg import PoleError, RatFun2, format_ratfun, format_ratfun2, format_nu
from .exactalg.textio import QUOTE_LIMIT, quote_input
from .homfly import _markov_pieces, homfly
from .qnum import left_qrational, qrational
from .xinv import XContext, _x_value, flat_context, numeric_sweep, x_context

__all__ = ["main", "KnotTable", "CollisionReport", "load_knot_table", "builtin_mini_table"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_POLE = 3
EXIT_UNWRITABLE = 4

# The largest `sweep --steps`: the steps + 1 rows are all held in memory.
MAX_STEPS = 1000

# The most decimal digits of `qrat --at`'s value, bounded before it is evaluated as the
# q-span of {x} times the digits of max(|r|, |s|) at Q0 = r/s: evaluating and printing
# the value take time quadratic in its length.
MAX_DIGITS = 200_000

# The largest decimal exponent of a rational (the interpreter's default digit
# limit): `Fraction` would expand 1e<huge> before any cap looks at the value.
MAX_EXPONENT = 4300


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class KnotTable(Record):
    """Named braid words, typically loaded from a `name,braid` CSV."""

    __slots__ = ("entries", "source")

    def __init__(self, entries: tuple[tuple[str, BraidWord], ...], source: str) -> None:
        if len({n for n, _ in entries}) != len(entries):
            raise ValueError("duplicate knot names in table")
        setfield(self, "entries", entries)
        setfield(self, "source", source)


class CollisionReport(Record):
    __slots__ = ("invariant", "groups", "errors")

    def __init__(self, invariant: str, groups: tuple[tuple[str, ...], ...], errors: tuple[tuple[str, str], ...]) -> None:
        setfield(self, "invariant", invariant)
        setfield(self, "groups", groups)
        setfield(self, "errors", errors)

    def to_json(self) -> str:
        import json  # json and csv are imported where used, off the start-up path
        doc = {
            "invariant": self.invariant,
            "groups": [list(g) for g in self.groups],
            "errors": [{"name": n, "message": m} for n, m in self.errors],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def load_knot_table(path: str) -> KnotTable:
    """Load a `name,braid` CSV; `#` lines are comments, braids are quoted
    space-separated letter lists."""
    import csv
    entries = []
    with open(path, newline="") as fh:
        filtered = (line for line in fh if line.strip() and not line.lstrip().startswith("#"))
        for row in csv.reader(filtered):
            if len(row) < 2:
                raise ValueError(f"bad knot table row: {quote_input(','.join(row))}")
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
    f = qrational(x) if args.flavor == "right" else left_qrational(x)
    print(format_ratfun(f))
    if args.at is not None:
        q0 = _parse_rational(args.at)
        exps = [e for p in (f.num, f.den) for e, _ in p.items()]
        with _exact_output():
            digits = len(str(max(abs(q0.numerator), q0.denominator)))
            if (max(exps) - min(exps)) * digits > MAX_DIGITS:
                raise CliError(f"value at q = {quote_input(args.at)} too large: it may exceed {MAX_DIGITS} digits",
                               EXIT_PARSE)
            try:
                print(f.evaluate(q0))
            except PoleError as exc:
                raise CliError(str(exc), EXIT_POLE) from None
    return EXIT_OK


def _context(kind: str, x: Fraction | None) -> XContext | Exception | None:
    """The specialization context of a mode; None for homfly, and the exception where it
    cannot be built, which each word's invariant raises once the word is traced."""
    try:
        return None if kind == "homfly" else x_context(x) if kind == "x" else flat_context(x)
    except Exception as exc:
        return exc


def _invariant_text(w: BraidWord, ctx: XContext | Exception | None, normalized: bool, h: RatFun2 | None = None) -> str:
    """Canonical text of the invariant of w's closure in context ctx (None: the HOMFLY-PT
    value itself, h = homfly(w) where given); `normalized` removes the framing.  An x-value
    traces w and folds its pieces at {x} (`xinv._x_value`); no HOMFLY-PT value is built."""
    if ctx is None:
        h = homfly(w) if h is None else h
        if normalized:
            # each positive kink carries q^-1 a
            h = h * RatFun2.monomial(1, -1, 1) ** w.writhe
        return format_ratfun2(h)
    pieces = _markov_pieces(w)  # first: a word's own error comes before its context's
    if isinstance(ctx, Exception):
        raise ctx
    value = _x_value(w, ctx, w.writhe if normalized else 0, pieces)
    return format_ratfun(value.nu_free_part()) if normalized else format_nu(value)


def _cmd_inv(args: argparse.Namespace) -> int:
    w = _braid_from_args(args)
    kind, x = _parse_mode(args.mode)
    print(_invariant_text(w, _context(kind, x), args.normalized))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    import csv
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
        raise CliError(f"cannot write {quote_input(args.out)}: {exc.strerror}", EXIT_UNWRITABLE) from None
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    import csv  # for csv.Error from load_knot_table
    if args.file is None:
        table = builtin_mini_table()
    else:
        try:
            table = load_knot_table(args.file)
        except OSError as exc:
            raise CliError(f"cannot load table {quote_input(args.file)}: {exc.strerror}", EXIT_PARSE) from None
        except (ValueError, csv.Error) as exc:
            raise CliError(f"cannot load table: {exc}", EXIT_PARSE) from None
    kind, x = _parse_mode(args.mode)
    ctx = _context(kind, x)  # one context for every entry; a failure is each entry's error
    by_value: dict[str, list[str]] = {}
    errors = []
    for name, w in table.entries:
        h = None
        for n, v in ((name, w), (name + "!", mirror(w))) if args.with_mirrors else ((name, w),):
            try:
                if ctx is None:  # one trace per entry: the mirror's value is h under a -> a^-1, q -> q^-1
                    h = homfly(w) if h is None else h.subs_bar()
                text = _invariant_text(v, ctx, True, h)
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
    int value", "invalid choice" and "unrecognized arguments" errors quote a
    bounded prefix of each value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d.*", re.DOTALL)

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            extras = (t if len(t) <= QUOTE_LIMIT else quote_input(t) for t in extras)
            self.error("unrecognized arguments: " + " ".join(extras))
        return args

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
    except ValueError as exc:  # a cap exceeded, or q0 = 0
        print(f"qlink: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
