"""Shared polynomial text grammar.

Terms are printed `c*q^e` (one variable) or `c*a^d*q^e` (two variables),
exponents ascending, joined by `+`/`-`; a coefficient of 1 is elided, an
exponent of 1 is printed without `^1`, and exponent-0 variables are
omitted.  Fractions print as `(num)/(den)` with a trivial denominator
elided; quadratic-extension values print `(even) + (odd)*v`.  Parsing
accepts the same grammar with arbitrary whitespace.
"""

from __future__ import annotations

import re

from .laurent import IntLaurent, IntLaurent2
from .nu import NuValue
from .ratfun import RatFun, RatFun2

__all__ = [
    "format_laurent",
    "format_laurent2",
    "format_ratfun",
    "format_ratfun2",
    "format_nu",
    "parse_ratfun",
    "parse_ratfun2",
    "parse_nu",
    "quote_input",
]

# Characters of user input that an error message repeats.
QUOTE_LIMIT = 40


def quote_input(text: str) -> str:
    """repr of user input for an error message: past QUOTE_LIMIT characters,
    the repr of a prefix and the input's length."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _format_term(coeff: int, vars_part: str) -> str:
    if not vars_part:
        return str(coeff)
    if coeff == 1:
        return vars_part
    if coeff == -1:
        return "-" + vars_part
    return f"{coeff}*{vars_part}"


def _var_str(name: str, exp: int) -> str:
    if exp == 0:
        return ""
    if exp == 1:
        return name
    return f"{name}^{exp}"


def _join(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def _format_laurent(p: IntLaurent | IntLaurent2) -> str:
    """Terms by ascending exponent key; a one-variable key e is the term a^0 q^e."""
    terms = []
    for key, c in sorted(p.items()):
        d, e = key if isinstance(key, tuple) else (0, key)
        terms.append(_format_term(c, "*".join(s for s in (_var_str("a", d), _var_str("q", e)) if s)))
    return _join(terms)


def _format_ratfun(f: RatFun | RatFun2) -> str:
    if f.den.is_one():
        return _format_laurent(f.num)
    return f"({_format_laurent(f.num)})/({_format_laurent(f.den)})"


format_laurent = format_laurent2 = _format_laurent
format_ratfun = format_ratfun2 = _format_ratfun


def format_nu(u: NuValue) -> str:
    return f"({format_ratfun(u.even)}) + ({format_ratfun(u.odd)})*v"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<coeff>[+-]?\d+)?"
    r"(?:\*?(?P<a>a)(?:\^(?P<aexp>[+-]?\d+))?)?"
    r"(?:\*?(?P<q>q)(?:\^(?P<qexp>[+-]?\d+))?)?$"
)


class GrammarError(ValueError):
    """Input does not match the polynomial text grammar."""


def _split_terms(s: str) -> list[str]:
    terms = []
    current = ""
    for i, ch in enumerate(s):
        if ch in "+-" and current and current[-1] not in "^+-*":
            terms.append(current)
            current = ch
        else:
            current += ch
    if current:
        terms.append(current)
    return terms


def _parse_terms(s: str) -> list[tuple[int, int, int]]:
    """Parse a polynomial body into (coeff, a_exp, q_exp) triples."""
    s = re.sub(r"\s+", "", s)
    if not s:
        raise GrammarError("empty polynomial")
    out = []
    for raw in _split_terms(s):
        body = raw
        sign = 1
        if body and body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or not body:
            raise GrammarError(f"bad term {raw!r}")
        coeff = m.group("coeff")
        if coeff is None and not m.group("a") and not m.group("q"):
            raise GrammarError(f"bad term {raw!r}")
        c = sign * (int(coeff) if coeff is not None else 1)
        d = int(m.group("aexp")) if m.group("aexp") else (1 if m.group("a") else 0)
        e = int(m.group("qexp")) if m.group("qexp") else (1 if m.group("q") else 0)
        out.append((c, d, e))
    return out


def _parse_laurent(s: str, poly: type) -> IntLaurent | IntLaurent2:
    """A polynomial of type `poly`; an a in a one-variable term is rejected
    before the terms merge, so `a - a + q` is not read as q."""
    one_var = poly is IntLaurent
    c: dict = {}
    for coeff, d, e in _parse_terms(s):
        if d and one_var:
            raise GrammarError("unexpected variable a in a one-variable polynomial")
        key = e if one_var else (d, e)
        c[key] = c.get(key, 0) + coeff
    return poly(c)


def _split_fraction(s: str) -> tuple[str, str | None]:
    """Split `(num)/(den)` at the top level; returns (num, den-or-None)."""
    s = s.strip()
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GrammarError("unbalanced parentheses")
        elif ch == "/" and depth == 0:
            return s[:i], s[i + 1 :]
    if depth:
        raise GrammarError("unbalanced parentheses")
    return s, None


def _strip_parens(s: str) -> str:
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        closes_at_end = True
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    closes_at_end = False
                    break
        if not closes_at_end:
            break
        s = s[1:-1].strip()
    return s


def _parse_ratfun(s: str, frac: type) -> RatFun | RatFun2:
    num_s, den_s = _split_fraction(s)
    num = _parse_laurent(_strip_parens(num_s), frac._POLY)
    return frac(num, None if den_s is None else _parse_laurent(_strip_parens(den_s), frac._POLY))


def parse_ratfun(s: str) -> RatFun:
    return _parse_ratfun(s, RatFun)


def parse_ratfun2(s: str) -> RatFun2:
    return _parse_ratfun(s, RatFun2)


def _read_group(s: str, start: int) -> tuple[str, int]:
    """Read a balanced (...) group starting at index `start`; returns the
    inner text and the index just past the closing parenthesis."""
    if start >= len(s) or s[start] != "(":
        raise GrammarError("expected '('")
    depth = 0
    for i in range(start, len(s)):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
            if depth == 0:
                return s[start + 1 : i], i + 1
    raise GrammarError("unbalanced parentheses")


def parse_nu(s: str, delta: RatFun) -> NuValue:
    """Parse `(even) + (odd)*v` against a given delta context."""
    s = s.strip()
    even_s, pos = _read_group(s, 0)
    rest = s[pos:].lstrip()
    if not rest.startswith("+"):
        raise GrammarError("expected the form (even) + (odd)*v")
    rest = rest[1:].lstrip()
    odd_s, pos = _read_group(rest, 0)
    tail = rest[pos:].replace(" ", "")
    if tail != "*v":
        raise GrammarError("expected the form (even) + (odd)*v")
    return NuValue(parse_ratfun(even_s), parse_ratfun(odd_s), delta)
