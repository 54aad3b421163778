"""Exact rational scalars.

Every coordinate in this package is a rational number in lowest terms with
positive denominator, a ``fractions.Fraction``.  Plain ``int`` values mix
freely with it under arithmetic, and certification runs the exact predicates
on ints: each mesh or multicurve is scaled by the common denominator of its
coordinates.

The rule that keeps this exact: no code divides one int by another, since
``int / int`` is a float.  A quotient whose operands may both be ints is
built with :func:`rat`, which takes ints or rationals.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rat

# the bench's machine fingerprint records which rational type ran; it is
# always Fraction
GMPY2 = False


def rat(num, den=1):
    """Exact quotient ``num/den`` (ints or rationals) as a canonical rational."""
    return Rat(num, den)


ZERO = rat(0)
ONE = rat(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str):
    """Parse ``p`` or ``p/q`` into a rational; reject anything else.

    Raises ValueError for malformed text and for zero denominators, with a
    message beginning ``invalid rational`` so parsers can cite the input.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"invalid rational {text!r}")
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"invalid rational {text!r}: zero denominator")
        return rat(int(p), int(q))
    return rat(int(s))


def format_rational(q) -> str:
    """Render a rational as ``p`` or ``p/q`` (lowest terms, q > 0)."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def format_point(p) -> str:
    """Render a point as ``(x, y[, z])`` with :func:`format_rational` entries."""
    return "(" + ", ".join(format_rational(c) for c in p) + ")"


def rfloor(q) -> int:
    """Floor of a rational as a plain int."""
    return int(q.numerator // q.denominator)


__all__ = [
    "Rat",
    "GMPY2",
    "rat",
    "ZERO",
    "ONE",
    "parse_rational",
    "format_rational",
    "format_point",
    "rfloor",
]
