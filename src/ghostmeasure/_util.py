"""Small numeric helpers used by several modules."""

from __future__ import annotations

import os

from .errors import DomainError, ResourceCapError


def int_from_env(name: str, default: int) -> int:
    """The integer in environment variable `name`, or `default` when it is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ResourceCapError(f"{name} must be an integer, got {raw!r}")


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
