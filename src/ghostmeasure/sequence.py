"""Exact evaluation of affine 2-regular sequences and their region sums.

An affine 2-regular sequence is determined by the pair of relations

    f(2n) = A0*f(n) + b0,      f(2n+1) = A1*f(n) + b1,

with non-negative integer coefficients, not all zero, together with the
initial value f(1) (the relations may be inconsistent at n = 0, so the
domain starts at n = 1).

The self-similar behaviour lives on the fundamental regions, the index
blocks [2^N, 2^{N+1}).  With A = A0 + A1 and b = b0 + b1 the region sum
Sigma(N) = sum over the Nth region has the closed form

    Sigma(N) = f(1)                                 N = 0
             = b * 2^(N-1)                          A = 0, N >= 1
             = f(1) + b * (2^N - 1)                 A = 1
             = 2^N * f(1) + b * N * 2^(N-1)         A = 2
             = A^N * f(1) + b * (A^N - 2^N)/(A-2)   A > 2

obtained by iterating Sigma(N) = A*Sigma(N-1) + b*2^(N-1).  The same
recurrence governs every block of the comb: the 2^c values c digits below
an index where f = F sum to the closed form above with f(1) replaced by F
and N by c, so every dyadic block sum costs O(1) big-integer operations.
The normalised sum sigma(N) = Sigma(N)/A^N converges for A > 2 to
f(1) + b/(A-2).

All values are exact: big integers for f and Sigma, Fraction for sigma.
The values below a node are affine in the node's value: one table (_subtree)
feeds the chunks of _below (regions, density grids) and the cdf's prefix sums.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import Iterator

from ._util import int_from_env
from .errors import CatalogError, DomainError, ResourceCapError

DEFAULT_MAX_LEVEL = 26
_ENV_MAX_LEVEL = "GHOSTMEASURE_MAX_LEVEL"


def max_region_level() -> int:
    """Configured cap on the region level N (2^N values are materialised)."""
    return int_from_env(_ENV_MAX_LEVEL, DEFAULT_MAX_LEVEL)


def _make_checked(cls, iterable):
    """A record's _make, and so its _replace, through __new__, which checks the fields."""
    return cls(*iterable)


class AffineParams(namedtuple("AffineParams", "a0 a1 b0 b1 f1")):
    """Coefficients (A0, A1, b0, b1) plus the initial value f(1), non-negative ints."""

    __slots__ = ()

    def __new__(cls, a0: int, a1: int, b0: int, b1: int, f1: int = 1):
        self = super().__new__(cls, a0, a1, b0, b1, f1)
        for name, v in zip(cls._fields, self):
            if not isinstance(v, int) or v < 0:
                raise DomainError(f"{name} must be a non-negative integer, got {v!r}")
        if a0 == a1 == b0 == b1 == 0:
            raise DomainError("coefficients A0, A1, b0, b1 must not all be zero")
        return self

    _make = classmethod(_make_checked)

    @property
    def a(self) -> int:
        """A = A0 + A1."""
        return self.a0 + self.a1

    @property
    def b(self) -> int:
        """b = b0 + b1."""
        return self.b0 + self.b1

    @property
    def homogeneous(self) -> bool:
        return self.b == 0

    @property
    def is_null_sequence(self) -> bool:
        """True when f is identically zero (homogeneous with f(1) = 0)."""
        return self.homogeneous and self.f1 == 0

    def branch(self, bit: int) -> tuple[int, int]:
        """(A_bit, b_bit) for one digit step."""
        return (self.a1, self.b1) if bit else (self.a0, self.b0)


def eval_f(params: AffineParams, n: int) -> int:
    """f(n), by descending the binary digits of n down to the base case f(1).

    Writing n = (1 x1 x2 ... xl)_2, each digit below the leading one applies
    its branch of the recurrence: f -> A_x * f + b_x, most significant digit
    first.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    a0, a1, b0, b1, v = params
    for i in range(n.bit_length() - 2, -1, -1):
        if (n >> i) & 1:
            v = a1 * v + b1
        else:
            v = a0 * v + b0
    return v


def _check_level(level: int) -> None:
    """Reject a negative region level or one above the cap (2^N values)."""
    if level < 0:
        raise DomainError("region level must be >= 0")
    cap = max_region_level()
    if level > cap:
        raise ResourceCapError(f"region level {level} exceeds cap {cap} (override with {_ENV_MAX_LEVEL})")


def _subtree(params: AffineParams, k: int) -> tuple[list[int], list[int]]:
    """(P, Q): the 2^k values k digits below an index where f = v are
    P[j] v + Q[j], j = 0..2^k-1 in index order.

    Built level by level: the child of entry j by digit d is entry 2j + d,
    with P <- A_d P and Q <- A_d Q + b_d.
    """
    a0, a1, b0, b1 = params.a0, params.a1, params.b0, params.b1
    P, Q = [1], [0]
    for _ in range(k):
        P = [a * x for x in P for a in (a0, a1)]
        Q = [a * x + b for x in Q for a, b in ((a0, b0), (a1, b1))]
    return P, Q


def _below(params: AffineParams, v: int, depth: int) -> Iterator[list[int]]:
    """The 2^depth values `depth` digits below an index where f = v, in order:
    the depth-k table, k = ceil(depth/2), at each value of the depth-(depth-k)
    table below v.  Both are built before this returns; depth is unchecked."""
    k = (depth + 1) // 2
    P, Q = _subtree(params, k)
    outer = zip(*_subtree(params, depth - k))
    return ([p * u + q for p, q in zip(P, Q)] for u in (a * v + b for a, b in outer))


def _region_chunks(params: AffineParams, level: int) -> Iterator[list[int]]:
    """Region N = level as _below(f(1), N) gives it, the level checked first."""
    _check_level(level)
    return _below(params, params.f1, level)


def eval_region(params: AffineParams, level: int) -> list[int]:
    """[f(2^N), ..., f(2^{N+1}-1)] for N = level, as Python integers, under the level cap."""
    return [x for chunk in _region_chunks(params, level) for x in chunk]


def _block_sum(params: AffineParams, value: int, depth: int) -> int:
    """Sum of f over the 2^depth indices `depth` digits below an index where f = value.

    Iterates S(0) = value, S(c) = A*S(c-1) + b*2^(c-1) in closed form, exact
    for A = 0 and 1 too (0**0 == 1; the floor division by -2 or -1 is exact).
    """
    a, b, c = params.a, params.b, depth
    if a == 2:
        return (value << c) + ((b * c << c) >> 1)
    ac = a**c
    return ac * value + b * (ac - (1 << c)) // (a - 2)


def big_sigma(params: AffineParams, level: int) -> int:
    """Sigma(N): the exact sum of f over the Nth fundamental region."""
    if level < 0:
        raise DomainError("region level must be >= 0")
    return _block_sum(params, params.f1, level)


def sigma_norm(params: AffineParams, level: int) -> Fraction:
    """sigma(N) = Sigma(N) / (A0+A1)^N, exact."""
    if params.a < 1:
        raise DomainError("sigma(N) requires A0+A1 >= 1")
    return Fraction(big_sigma(params, level), params.a**level)


def sigma_inf(params: AffineParams) -> Fraction:
    """lim_N sigma(N) = f(1) + b/(A-2); exists only for A0+A1 > 2."""
    if params.a <= 2:
        raise DomainError("sigma(inf) requires A0+A1 > 2")
    return Fraction(params.f1) + Fraction(params.b, params.a - 2)


# ----------------------------------------------------------------------
# Named example catalog
# ----------------------------------------------------------------------

class CatalogEntry(namedtuple("CatalogEntry", "name params summary case kind sigma_closed",
                              defaults=(None,))):
    """A named sequence (name, AffineParams, summary) plus the facts used as
    test fixtures.

    sigma_closed, when present, is the known closed form of Sigma(N) for
    N >= 1; case/kind are the expected classification.
    """

    __slots__ = ()


_CATALOG: dict[str, CatalogEntry] = {}


def _register(name, params, summary, case, kind, sigma_closed=None):
    _CATALOG[name] = CatalogEntry(name, AffineParams(*params), summary, case, kind, sigma_closed)


# f(1) values: where a Sigma(N) closed form is known, f(1) is pinned by it
# (Gould G needs f(1)=2 to give Sigma(N) = 2*3^N, ruler r needs f(1)=0 for
# Sigma(N) = 2^N - 1); entries without such an anchor default to f(1)=1.
_register("constant", (0, 0, 1, 1, 1),
          "f(n) = 1", "2A", "lebesgue",
          lambda n: 2**n)
_register("identity", (2, 2, 0, 1, 1),
          "f(n) = n", "2B", "absolutely-continuous",
          lambda n: (3 * 4**n - 2**n) // 2)
_register("gould_g", (1, 1, 0, 1, 1),
          "number of ones in the binary digits of n", "2A", "lebesgue",
          lambda n: 2**(n - 1) * (n + 2))
_register("gould_G", (1, 2, 0, 0, 2),
          "2^(number of binary ones); odd entries in row n of Pascal's triangle",
          "1B", "singular-continuous",
          lambda n: 2 * 3**n)
_register("ruler_r", (1, 0, 1, 0, 0),
          "2-adic valuation of n", "2A", "lebesgue",
          lambda n: 2**n - 1)
_register("ruler_R", (2, 0, 0, 1, 1),
          "largest power of two dividing n", "2A", "lebesgue",
          lambda n: 2**(n - 1) * (n + 2))
_register("cantor", (3, 3, 0, 2, 1),
          "missing-digit family d=3, j=2 (no ones in ternary digits)",
          "2B", "absolutely-continuous")
_register("no_ap", (3, 3, 0, 1, 1),
          "greedy sequence avoiding 3-term arithmetic progressions",
          "2B", "absolutely-continuous")
_register("moser_de_bruijn", (4, 4, 0, 1, 1),
          "sums of distinct powers of 4", "2B", "absolutely-continuous")
_register("trivial_pp", (1, 0, 0, 0, 1),
          "indicator of the powers of two", "1C", "pure-point")

_MISSING_DIGIT = re.compile(r"^missing_digit\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


def catalog_names() -> list[str]:
    return sorted(_CATALOG) + ["missing_digit(d,j)"]


def catalog_lookup(name: str) -> CatalogEntry:
    """Look up a named sequence; accepts missing_digit(d,j) with d>=2, 1<=j<d."""
    entry = _CATALOG.get(name)
    if entry is not None:
        return entry
    m = _MISSING_DIGIT.match(name.strip())
    if m:
        d, j = int(m.group(1)), int(m.group(2))
        if d < 2 or not (1 <= j <= d - 1):
            raise CatalogError(f"missing_digit requires d >= 2 and 1 <= j <= d-1, got d={d}, j={j}")
        return CatalogEntry(
            f"missing_digit({d},{j})", AffineParams(d, d, 0, j, 1),
            f"numbers whose base-{d} digits are only 0 and {j}",
            "2B", "absolutely-continuous")
    raise CatalogError(f"unknown catalog name {name!r}; valid names: {', '.join(catalog_names())}")
