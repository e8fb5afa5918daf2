"""Small numeric helpers used by several modules.

numpy() is the one way the package reaches numpy: every function that
computes with it calls numpy() (most start with np = numpy()), so numpy
loads on the first such call, and importing the package or running an
exact command never loads it.
"""

from __future__ import annotations

import operator
import os

from .errors import DomainError, ResourceCapError


def numpy():
    """The numpy module, imported on the first call (later calls hit sys.modules)."""
    import numpy

    return numpy


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
    """Normalise a bit-string argument: a str of 0/1 such as '0110', or an
    iterable of the ints 0 and 1."""
    if isinstance(bits, str):
        if bits.strip("01"):
            raise DomainError(f"bit string may contain only 0 and 1, got {bits!r}")
        return tuple(map(int, bits))
    try:
        out = tuple(map(operator.index, bits))  # ints only: no '1', no 1.5
    except TypeError:
        out = None
    if out is None or any(b not in (0, 1) for b in out):
        raise DomainError(f"bits must be 0/1, got {bits!r}")
    return out
