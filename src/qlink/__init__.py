"""qlink: exact q-rational numbers and quantum link invariants.

Everything is exact: values are canonical fractions of integer Laurent
polynomials (in q, or in a and q over q), elements of the quadratic extension
generated by v with v^2 = delta^-1, or truncated series with rational
coefficients.  Floating point never appears; numeric output is an exact
rational produced at the command-line boundary.
"""

from .braid import BraidWord, mirror, parse_braid
from .exactalg import (
    IntLaurent,
    IntLaurent2,
    NuValue,
    PoleError,
    RatFun,
    RatFun2,
    TruncSeries,
    normalize,
    nu_power,
    series_expand,
    specialize_a,
)
from .homfly import (
    HeckeElement,
    hecke_mul_gen,
    homfly,
    homfly_twist_coeff,
    mu_colored,
    ocneanu_trace,
    rt_invariant,
)
from .qnum import (
    EvenCF,
    even_cf,
    left_qdelta,
    left_qrational,
    q_adic_limit,
    qbinomial,
    qdelta,
    qfactorial,
    qint,
    qrational,
)
from .xinv import (
    XContext,
    colored_stab_unknot,
    colored_unknot_u,
    digon_specialize,
    flat_context,
    flat_invariant,
    normalized_invariant,
    numeric_sweep,
    twist_coeff_x,
    verify_uniqueness_constraint,
    x_context,
    x_invariant,
)

__version__ = "0.1.0"
