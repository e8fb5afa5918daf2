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
is one block sum and F_N at an atom is at most N of them, one per 1-digit
of the atom's index.  The atoms themselves (Approximant.weights) are built
only when read, by direct_fourier and by tests that use them as the
brute-force oracle.  direct_fourier works in floating point, with
compensated summation (math.fsum), since 2^N-term phasor sums lose roughly
N/2 bits when accumulated naively.

DyadicInterval names the half-open interval left-closed at its bit prefix:
bits x1..xi stand for [(0.x1..xi00...)_2, (0.x1..xi11...)_2), of Lebesgue
measure 2^-i.  Dyadic rationals are always written with trailing zeros,
i.e. by their terminating bit string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import DomainError
from .sequence import AffineParams, _block_sum, _check_level, big_sigma, eval_f, eval_region
from ._util import parse_bits


@dataclass(frozen=True)
class DyadicInterval:
    """E(x1..xi) = [(0.x1..xi)_2, (0.x1..xi)_2 + 2^-i), the whole torus for i=0."""

    bits: tuple[int, ...] = ()

    @classmethod
    def from_bits(cls, bits) -> "DyadicInterval":
        return cls(parse_bits(bits))

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
        if bit not in (0, 1):
            raise DomainError("child bit must be 0 or 1")
        return DyadicInterval(self.bits + (bit,))

    def __str__(self):
        return "".join(str(b) for b in self.bits) or "(torus)"


@dataclass(frozen=True)
class Approximant:
    """Immutable level-N comb mu_N: the sequence, the level and total = Sigma(N)."""

    params: AffineParams
    level: int
    total: int

    def __post_init__(self):
        if self.total <= 0:
            raise DomainError("approximant total must be positive")

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """weights[n] = f(2^N + n): all 2^N atoms, built on first read and kept."""
        # build_comb has applied the level cap already.
        return tuple(eval_region(self.params, self.level, max_level=self.level))

    @cached_property
    def _float_weights(self) -> tuple[np.ndarray, float]:
        """Weights and total as doubles, pre-shifted when beyond the double range.

        Weights stay exact integers up to this point; the common right shift
        preserves the normalised ratios to ~2^-850.
        """
        shift = max(self.total.bit_length() - 900, 0)
        if shift:
            w = np.fromiter(((x >> shift) for x in self.weights), dtype=float, count=len(self.weights))
            t = float(self.total >> shift)
        else:
            w = np.fromiter(self.weights, dtype=float, count=len(self.weights))
            t = float(self.total)
        return w, t


def build_comb(params: AffineParams, level: int, max_level: Optional[int] = None) -> Approximant:
    """Construct mu_N, its total from the closed form; the atoms are built only when read.

    The level cap applies here, as if the 2^N atoms were built now.
    """
    if params.is_null_sequence:
        raise DomainError("sequence is identically zero (homogeneous with f(1)=0)")
    _check_level(level, max_level)
    return Approximant(params, level, big_sigma(params, level))


# ----------------------------------------------------------------------
# Fourier coefficients by direct summation
# ----------------------------------------------------------------------

def direct_fourier(comb: Approximant, t: int) -> complex:
    """mu_N^(t) = (1/Sigma(N)) * sum_n f(2^N+n) e^{-2 pi i t n / 2^N}.

    The angle of atom n is built from the exact residue (t*n mod 2^N), so no
    range-reduction error enters; the real and imaginary accumulations use
    math.fsum.  t = 0 (mod 2^N) returns exactly 1.
    """
    size = 1 << comb.level
    r = t % size
    if r == 0:
        return complex(1.0, 0.0)
    n = np.arange(size, dtype=np.int64)
    frac = (r * n) % size
    ang = frac * (2.0 * np.pi / size)
    w, total = comb._float_weights
    re = math.fsum(w * np.cos(ang))
    im = -math.fsum(w * np.sin(ang))
    return complex(re / total, im / total)


# ----------------------------------------------------------------------
# Distribution function and interval masses
# ----------------------------------------------------------------------

def _mass_through(comb: Approximant, idx: int) -> int:
    """weights[0] + ... + weights[idx], from N block sums instead of idx+1 atoms.

    Descends the N digits of idx from the top; at every 1-digit the whole
    block under the left sibling lies below idx.  The last value reached is
    the atom at idx itself.
    """
    p = comb.params
    v, acc = p.f1, 0
    for d in range(comb.level - 1, -1, -1):
        left = p.a0 * v + p.b0
        if (idx >> d) & 1:
            acc += _block_sum(p, left, d)
            v = p.a1 * v + p.b1
        else:
            v = left
    return acc + v


def cdf(comb: Approximant, x: Union[float, Fraction, int]) -> Fraction:
    """F_N(x) = mu_N([0, x]), closed right endpoint: the atom at x is included."""
    xf = Fraction(x)
    if xf < 0 or xf > 1:
        raise DomainError(f"cdf argument must lie in [0, 1], got {x!r}")
    size = 1 << comb.level
    idx = min(int(xf * size), size - 1)
    return Fraction(_mass_through(comb, idx), comb.total)


def cdf_series(comb: Approximant, grid_size: int) -> list[tuple[Fraction, Fraction]]:
    """grid_size equally spaced samples (x, F_N(x)), x = k/(grid_size-1)."""
    if grid_size < 2:
        raise DomainError("grid_size must be >= 2")
    size = 1 << comb.level
    out = []
    for k in range(grid_size):
        idx = min(k * size // (grid_size - 1), size - 1)
        out.append((Fraction(k, grid_size - 1), Fraction(_mass_through(comb, idx), comb.total)))
    return out


def interval_mass(comb: Approximant, interval: DyadicInterval) -> Fraction:
    """mu_N(E) for a dyadic interval E, half-open: left atom in, right out.

    The atoms in E are the block below index 2^i + prefix, i = depth of E.
    """
    i = interval.depth
    if comb.level < i:
        raise DomainError(f"comb level {comb.level} is finer than required; need level >= {i}")
    top = eval_f(comb.params, (1 << i) | interval.index)
    return Fraction(_block_sum(comb.params, top, comb.level - i), comb.total)
