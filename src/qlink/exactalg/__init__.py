"""Exact commutative-algebra substrate: integer Laurent polynomials,
canonical fractions, truncated series and the quadratic v-extension."""

from .laurent import IntLaurent, IntLaurent2, laurent_gcd
from .nu import NuValue, nu_power, specialize_a
from .ratfun import (
    PoleError,
    RatFun,
    RatFun2,
    normalize,
)
from .series import TruncSeries, series_expand
from .textio import (
    format_laurent,
    format_laurent2,
    format_nu,
    format_ratfun,
    format_ratfun2,
    parse_nu,
    parse_ratfun,
    parse_ratfun2,
)

__all__ = [
    "IntLaurent",
    "IntLaurent2",
    "laurent_gcd",
    "NuValue",
    "nu_power",
    "specialize_a",
    "PoleError",
    "RatFun",
    "RatFun2",
    "normalize",
    "TruncSeries",
    "series_expand",
    "format_laurent",
    "format_laurent2",
    "format_nu",
    "format_ratfun",
    "format_ratfun2",
    "parse_nu",
    "parse_ratfun",
    "parse_ratfun2",
]
