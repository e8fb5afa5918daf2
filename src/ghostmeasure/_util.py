"""Small numeric helpers used by several modules."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def frac_to_float(q: Fraction) -> float:
    """Convert an exact rational to float, surviving operands beyond 1e308.

    Plain float(q) raises OverflowError once numerator or denominator exceeds
    the double range even when the quotient itself is moderate; here the
    quotient is rescaled by a power of two first (80 guard bits).
    """
    try:
        return float(q)
    except OverflowError:
        num, den = q.numerator, q.denominator
        sign = -1.0 if num < 0 else 1.0
        num = abs(num)
        e = num.bit_length() - den.bit_length()
        if e >= 0:
            m = (num << 80) // (den << e)
        else:
            m = (num << (80 - e)) // den
        try:
            return sign * math.ldexp(m, e - 80)
        except OverflowError:
            return sign * math.inf


def parse_bits(bits) -> tuple[int, ...]:
    """Normalise a bit-string argument ('0110', b'…', or iterable of 0/1)."""
    if isinstance(bits, str):
        seq = [c for c in bits]
        bad = [c for c in seq if c not in ("0", "1")]
        if bad:
            raise DomainError(f"bit string may contain only 0 and 1, got {bits!r}")
        return tuple(int(c) for c in seq)
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise DomainError(f"bits must be 0/1, got {bits!r}")
    return out
