"""Level-N Dirac-comb approximants and their functionals.

The level-N approximant of a non-negative sequence f places an atom of
weight f(2^N + n) at position n/2^N on the torus [0,1), normalised by the
region sum Sigma(N):

    mu_N = (1/Sigma(N)) * sum_n f(2^N + n) delta_{n/2^N}.

Everything that can be exact is exact: weights and totals are big
integers, interval masses and distribution values are Fractions.

Interval masses and distribution values never materialise the 2^N atoms.
The atoms below a dyadic prefix form a block whose sum has a closed form
in the value of f at the prefix (sequence._block_sum), so a dyadic mass
is one block sum.  F_N at an atom is one descent of the N digits of the
atom's index with a block sum at every 1-digit; a grid of values is one
sweep (_masses_through) in which each index resumes the descent of the one
before at the highest digit where the two differ, and reads its low digits
from one table of the atoms below a node, affine in the node's value
(sequence._subtree).  The exact atoms (Approximant.weights) are region N,
sequence.eval_region, from the same table; they are built only when read,
by tests that use them as the brute-force oracle.  The module uses no
numpy.  The comb's Fourier coefficients mu_N^(t) come from
fourier.coeff_table at level N, which builds no atoms.

DyadicInterval names the half-open interval left-closed at its bit prefix:
bits x1..xi stand for [(0.x1..xi00...)_2, (0.x1..xi11...)_2), of Lebesgue
measure 2^-i.  Dyadic rationals are always written with trailing zeros,
i.e. by their terminating bit string.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Union

from .errors import DomainError
from .sequence import (AffineParams, _block_sum, _check_level, _make_checked, _subtree, big_sigma, eval_f,
                       eval_region)
from ._util import parse_bits


class DyadicInterval(namedtuple("DyadicInterval", "bits")):
    """E(x1..xi) = [(0.x1..xi)_2, (0.x1..xi)_2 + 2^-i), the whole torus for i=0;
    bits takes whatever parse_bits accepts and holds its 0/1 int tuple."""

    __slots__ = ()

    def __new__(cls, bits=()):
        return super().__new__(cls, parse_bits(bits))

    _make = classmethod(_make_checked)

    @classmethod
    def from_bits(cls, bits) -> "DyadicInterval":
        return cls(bits)

    @property
    def depth(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """The prefix read as an integer: left endpoint is index/2^depth."""
        k = 0
        for b in self.bits:
            k = (k << 1) | b
        return k

    @property
    def left(self) -> Fraction:
        return Fraction(self.index, 1 << self.depth)

    @property
    def length(self) -> Fraction:
        return Fraction(1, 1 << self.depth)

    def child(self, bit: int) -> "DyadicInterval":
        return DyadicInterval(self.bits + (bit,))

    def __str__(self):
        return "".join(str(b) for b in self.bits) or "(torus)"


class Approximant(namedtuple("Approximant", "params level total")):
    """Immutable level-N comb mu_N: the sequence, the level and total = Sigma(N).
    It keeps a __dict__, for the cached weights."""

    def __new__(cls, params: AffineParams, level: int, total: int):
        if total <= 0:
            raise DomainError("approximant total must be positive")
        return super().__new__(cls, params, level, total)

    _make = classmethod(_make_checked)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """weights[n] = f(2^N + n): all 2^N atoms, built on first read and kept."""
        return tuple(eval_region(self.params, self.level))


def build_comb(params: AffineParams, level: int) -> Approximant:
    """Construct mu_N, its total from the closed form; the atoms are built only when read.

    The level cap applies here, as if the 2^N atoms were built now.
    """
    if params.is_null_sequence:
        raise DomainError("sequence is identically zero (homogeneous with f(1)=0)")
    _check_level(level)
    return Approximant(params, level, big_sigma(params, level))


# ----------------------------------------------------------------------
# Distribution function and interval masses
# ----------------------------------------------------------------------

def _masses_through(comb: Approximant, idxs: Iterable[int], count: int) -> Iterator[int]:
    """weights[0] + ... + weights[i] for each i of the count indices idxs, in
    order, from one shared descent: read lazily, yielded one by one.

    Each index splits into its high N - k digits and its low k digits, with
    k = min(floor(log2 G) - 1, ceil(N/2)) for G indices (0 for G < 4).  The
    high digits are descended from the top: at every 1-digit the block under
    the left sibling lies below the index, and the node reached has value v
    with the mass acc of every atom before its block.  The state before
    every high digit is kept, so each index resumes the descent of the one
    before at the highest digit where the two differ (any order is correct;
    a repeated high part costs nothing).  The low digits are one base-2^k
    digit: the 2^k atoms k digits below a node where f = v are
    P[j] v + Q[j] (_subtree, built once per sweep), so the mass is
    acc + C[low] v + D[low] with C, D the prefix sums of P, Q.  Sorted G
    indices thus cost about max(N - 2 log2 G + 2, 0) big-integer steps each
    plus that one read, over a table of about G/2 entries; k = 0 is the
    plain descent.  Past 2^(N/2+1) indices consecutive ones share their
    high digits anyway, so k stops at ceil(N/2): the table and the high
    nodes then number about 2^(N/2) each, not G/2 table entries.

    The block under the left child of a node where f = v, c digits deep,
    sums to _block_sum(p, a0 v + b0, c), affine in v: alpha_c v + beta_c
    with alpha_c = a0 A^c and beta_c = S(c) from S(0) = b0, S(c) = A S(c-1)
    + b 2^(c-1), the recursion that _block_sum closes, run once per sweep.
    """
    p = comb.params
    a0, b0, a1, b1 = p.a0, p.b0, p.a1, p.b1
    k = max(min(count.bit_length() - 2, (comb.level + 1) // 2), 0)
    high = comb.level - k
    alpha, beta = [], []
    slope, const = a0, b0
    for c in range(comb.level):
        if c >= k:
            alpha.append(slope)
            beta.append(const)
        slope, const = p.a * slope, p.a * const + (p.b << c)
    C, D = (list(accumulate(t)) for t in _subtree(p, k))
    # (v, acc) before high digit d of the previous index, for every d.
    vs, accs = [0] * high, [0] * high
    v, acc, top = p.f1, 0, high - 1
    low_mask = (1 << k) - 1
    prev = None
    for idx in idxs:
        h = idx >> k
        if h != prev:
            if prev is not None:
                top = (prev ^ h).bit_length() - 1
                v, acc = vs[top], accs[top]
            for d in range(top, -1, -1):
                vs[d], accs[d] = v, acc
                if h >> d & 1:
                    acc += alpha[d] * v + beta[d]
                    v = a1 * v + b1
                else:
                    v = a0 * v + b0
            prev = h
        low = idx & low_mask
        yield acc + C[low] * v + D[low]


def cdf(comb: Approximant, x: Union[float, Fraction, int]) -> Fraction:
    """F_N(x) = mu_N([0, x]), closed right endpoint: the atom at x is included."""
    xf = Fraction(x)
    if xf < 0 or xf > 1:
        raise DomainError(f"cdf argument must lie in [0, 1], got {x!r}")
    size = 1 << comb.level
    idx = min(int(xf * size), size - 1)
    return Fraction(next(_masses_through(comb, [idx], 1)), comb.total)


def _grid_masses(comb: Approximant, grid_size: int) -> Iterator[int]:
    """The numerators of F_N(k/(grid_size-1)), k = 0..grid_size-1, over
    comb.total, yielded in order; DomainError at the call for a grid below 2."""
    if grid_size < 2:
        raise DomainError("grid_size must be >= 2")
    size, last = 1 << comb.level, grid_size - 1
    return _masses_through(comb, (min(k * size // last, size - 1) for k in range(grid_size)), grid_size)


def cdf_series(comb: Approximant, grid_size: int) -> list[tuple[Fraction, Fraction]]:
    """grid_size equally spaced samples (x, F_N(x)), x = k/(grid_size-1)."""
    masses = _grid_masses(comb, grid_size)
    return [(Fraction(k, grid_size - 1), Fraction(m, comb.total)) for k, m in enumerate(masses)]


def interval_mass(comb: Approximant, interval: DyadicInterval) -> Fraction:
    """mu_N(E) for a dyadic interval E, half-open: left atom in, right out.

    The atoms in E are the block below index 2^i + prefix, i = depth of E.
    """
    i = interval.depth
    if comb.level < i:
        raise DomainError(f"comb level {comb.level} is coarser than the interval; need level >= {i}")
    top = eval_f(comb.params, (1 << i) | interval.index)
    return Fraction(_block_sum(comb.params, top, comb.level - i), comb.total)
