"""Exact properties of the limit measure of an affine 2-regular sequence.

The normalised combs of sequence.py always converge vaguely; the limit
measure mu is of pure Lebesgue type, decided entirely by the coefficient
tuple.  With b = b0 + b1:

  homogeneous (b = 0):   1A  A0 = A1 != 0        mu = Lebesgue measure
                         1B  A0 != A1, both > 0  singular continuous
                         1C  some A_i = 0        pure point, mu = delta_0
  inhomogeneous (b != 0): 2A  A0 + A1 <= 2        mu = Lebesgue measure
                         2B  A0 = A1 > 1         absolutely continuous
                         2C  A0 != A1, both > 0  singular continuous
                         2D  some A_i = 0,       pure point on the dyadic
                             the other >= 3      rationals

For A0, A1 > 0 and A = A0 + A1 >= 3 the measure of the dyadic interval
E(x1..xi) has the exact closed form

    mu(E) = (F + b/(A-2)) / (sigma_inf * A^i),    F = f((1 x1 .. xi)_2),

evaluated as the integer pair ((F (A-2) + b) 2^i, p A^i) of the ratio
mu(E)/lambda(E) = 2^i mu(E), p = f(1)(A-2) + b = sigma_inf (A-2), by one
fold over the digits (_dyadic_fold), which both ratio sequences read and
interval_measure divides by 2^i.  It specialises to the
Radon-Nikodym density in case 2B,

    g(x) = (f(1) + sum_j b_{x_j} A^-j) / (f(1) + b/(2A-2)),   A = A0 = A1,

truncated after d digits (its Horner numerator is f((1 x1 .. xd)_2), read by
density from eval_f and by _density_grid from sequence._below), and drives
the concentration diagnostics in case 2C.  In case 2D (say
A1 = 0, A = A0) the measure is purely atomic with weights

    mu({0})  = (f(1) + b0/(A-1)) / sigma_inf,
    mu({x})  = (b1 + b0/(A-1)) / (A^n * sigma_inf),

where n is the position of the last 1 in x's terminating binary expansion.
Over the one denominator (A-1) p they are the integers

    mu({0}) = (f(1)(A-1) + b0)(A-2) / ((A-1) p),
    mu({x}) = (b1 (A-1) + b0)(A-2) / ((A-1) p A^n).

The weights depend on n only (_atoms_2d), so one per-level fold over n
(_levels_2d) gives every level's weight, mass and running total.  The
mirrored orientation A0 = 0 follows by swapping the branch roles and
reflecting atom locations x -> 1-x (mod 1), which maps terminating
expansions to terminating expansions of the same last-one position; the
mirrored weights are validated against combs in the test suite.

Every closed form above is an integer fold over the digits or levels.
Exact answers are Fractions of it; float answers (ratio_sequence, and the
CLI's density grid and points tables) are one int/int division of its
numerator and denominator, correctly rounded as float(Fraction) is, with
no Fraction built.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterator, Optional

from .approximant import DyadicInterval
from .errors import DomainError
from .sequence import AffineParams, _below, eval_f
from ._util import parse_bits

#: Seed used by the reproducible randomised diagnostics in the test suite.
DEFAULT_WITNESS_SEED = 20250810


class MeasureKind(enum.Enum):
    LEBESGUE = "lebesgue"
    ABSOLUTELY_CONTINUOUS = "absolutely-continuous"
    SINGULAR_CONTINUOUS = "singular-continuous"
    PURE_POINT = "pure-point"


class LebesgueClass(namedtuple("LebesgueClass", "kind case support", defaults=(None,))):
    """A MeasureKind, the case label, and for pure point the support:
    "delta-at-0" or "dyadic-rationals" (None otherwise)."""

    __slots__ = ()

    def describe(self) -> str:
        if self.kind is MeasureKind.PURE_POINT:
            tag = "dyadic" if self.support == "dyadic-rationals" else "delta-at-0"
            return f"pure-point({tag})"
        return self.kind.value


class ConcentrationThreshold(namedtuple("ConcentrationThreshold", "lambda_cap minority_digit")):
    """Minority-digit density cutoff Lambda in the singular continuous cases."""

    __slots__ = ()


class DensityEstimate(namedtuple("DensityEstimate", "value tail_bound exact")):
    """Truncated density value with its tail bound, and the truncation as a Fraction."""

    __slots__ = ()


_1A = LebesgueClass(MeasureKind.LEBESGUE, "1A")
_1B = LebesgueClass(MeasureKind.SINGULAR_CONTINUOUS, "1B")
_1C = LebesgueClass(MeasureKind.PURE_POINT, "1C", "delta-at-0")
_2A = LebesgueClass(MeasureKind.LEBESGUE, "2A")
_2B = LebesgueClass(MeasureKind.ABSOLUTELY_CONTINUOUS, "2B")
_2C = LebesgueClass(MeasureKind.SINGULAR_CONTINUOUS, "2C")
_2D = LebesgueClass(MeasureKind.PURE_POINT, "2D", "dyadic-rationals")


def classify(params: AffineParams) -> LebesgueClass:
    """Case label and Lebesgue type of the limit measure (total on valid params);
    one of the seven constants above, shared by every call."""
    a0, a1, b0, b1, _ = params
    if b0 == b1 == 0:
        if a0 == a1:
            return _1A
        if a0 > 0 and a1 > 0:
            return _1B
        return _1C
    if a0 + a1 <= 2:
        return _2A
    if a0 == a1:
        return _2B
    if a0 > 0 and a1 > 0:
        return _2C
    return _2D


def interval_measure(params: AffineParams, interval: DyadicInterval) -> Fraction:
    """mu(E) for a dyadic interval, exact: the Fraction of _dyadic_fold's
    last pair over 2^depth, 1 for the torus.

    The module's closed form for A0, A1 > 0 with A0+A1 >= 3 (cases 1B, 2B,
    2C); cases 1A and 2A are Lebesgue measure, 2^-depth.  The pure-point
    cases have no interval closed form here and raise.
    """
    num = den = 1
    for num, den in _dyadic_fold(params, interval.bits, "interval closed form"):
        pass
    return Fraction(num, den << interval.depth)


def _require_2b(params: AffineParams) -> None:
    """Raise DomainError unless params are in case 2B, the only case with a density."""
    cls = classify(params)
    if cls.case != "2B":
        raise DomainError(f"density requires case 2B (A0=A1>1, b!=0), got case {cls.case}")


def density(params: AffineParams, bits, depth: Optional[int] = None) -> DensityEstimate:
    """Radon-Nikodym density in case 2B, truncated after `depth` digits.

    bits supplies the leading binary digits of x; digits past the given
    prefix are taken to be 0 (terminating-expansion convention).  The tail
    of the series is bounded by max(b0,b1) / ((A-1) A^d) over the same
    denominator, reported in tail_bound.

    The Horner fold v = f(1) A^d + sum_j b_{x_j} A^(d-j) is f((1 x1 .. xd)_2),
    one eval_f, over the denominator of _density_terms; the exact value is its
    Fraction, the float value and tail bound one int/int division each.
    """
    _require_2b(params)
    xs = parse_bits(bits)
    d = len(xs) if depth is None else depth
    if d < 0:
        raise DomainError("depth must be >= 0")
    n = int("".join(map(str, (1, *xs[:d]))), 2) << max(d - len(xs), 0)
    scale, den, tail = _density_terms(params, d)
    num = eval_f(params, n) * scale
    return DensityEstimate(num / den, tail / den, Fraction(num, den))


def _density_grid(params: AffineParams, width: int, depth: int) -> tuple[Iterator[int], int, int]:
    """(nums, den, tail): density(params, format(k, f"0{width}b"), depth) is
    nums[k] / den for k = 0..2^width-1 in order, every tail bound tail / den.

    The Horner folds of all 2^m prefixes of m = min(width, depth) digits are
    region m, built chunk by chunk as read from sequence._below (no cap).  For
    depth <= width every point reads its first `depth` digits (2^(width-depth)
    points per prefix); otherwise the c = depth - width trailing 0 digits
    extend each fold in closed form, v A^c + b0 (A^c - 1)/(A - 1).
    """
    _require_2b(params)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    chunks = _below(params, params.f1, min(width, depth))
    scale, den, tail = _density_terms(params, depth)
    if depth <= width:
        repeat = 1 << (width - depth)
        return (v * scale for chunk in chunks for v in chunk for _ in range(repeat)), den, tail
    ac = params.a0**(depth - width)
    zeros = params.b0 * (ac - 1) // (params.a0 - 1)
    return ((v * ac + zeros) * scale for chunk in chunks for v in chunk), den, tail


def _density_terms(params: AffineParams, depth: int) -> tuple[int, int, int]:
    """(2A-2, den, 2 max(b0,b1)), den = A^d (f(1) (2A-2) + b): the depth-d
    truncation of fold v is v (2A-2) / den, its tail bound 2 max(b0,b1) / den."""
    scale = 2 * params.a0 - 2
    den = params.a0**depth * (params.f1 * scale + params.b)
    return scale, den, 2 * max(params.b0, params.b1)


def lambda_threshold(params: AffineParams) -> ConcentrationThreshold:
    """Concentration cutoff for A0 != A1, both positive (cases 1B and 2C).

    Lambda = log(2 A_max / (A0+A1)) / log(A_max / A_min) lies in (0, 1/2);
    the derivative ratio mu(E_i(x))/lambda(E_i(x)) collapses to zero as soon
    as the minority digit (the branch with the smaller A) has lower density
    above Lambda in x's binary expansion.
    """
    a0, a1 = params.a0, params.a1
    if a0 == a1:
        raise DomainError("threshold requires A0 != A1")
    if a0 == 0 or a1 == 0:
        raise DomainError("threshold requires A0 > 0 and A1 > 0")
    amax, amin = max(a0, a1), min(a0, a1)
    cap = math.log(2 * amax / (a0 + a1)) / math.log(amax / amin)
    return ConcentrationThreshold(cap, 0 if a0 < a1 else 1)


def ratio_sequence(params: AffineParams, bits) -> list[float]:
    """mu(E_j(x)) / lambda(E_j(x)) for j = 1..len(bits).

    The float of each ratio of ratio_sequence_exact, from the same integer
    fold: one int/int division, correctly rounded as float(Fraction) is,
    whether or not the pair is reduced.  A ratio below the double range
    becomes 0.0, one above it inf (every ratio is positive).  In case 2B
    the ratios converge to the density at x; in case 2C they collapse to
    zero or blow up according to the digit densities against
    lambda_threshold.
    """
    out = []
    for num, den in _dyadic_fold(params, bits, "ratio sequence"):
        try:
            out.append(num / den)
        except OverflowError:
            out.append(math.inf)
    return out


def ratio_sequence_exact(params: AffineParams, bits) -> list[Fraction]:
    """2^j interval_measure(E(x1..xj)) for j = 1..len(bits), exact."""
    return [Fraction(num, den) for num, den in _dyadic_fold(params, bits, "ratio sequence")]


def _dyadic_fold(params: AffineParams, bits, what: str) -> Iterator[tuple[int, int]]:
    """The ratios 2^j mu(E(x1..xj)) for j = 1..len(bits) as unreduced integer
    pairs ((f_j (A-2) + b) 2^j, p A^j), f_j = f((1 x1 .. xj)_2), p = f(1)(A-2)
    + b: the module's closed form, one fold over the digits (eval_f's step,
    kept here as eval_f per prefix would be quadratic).  Cases 1A and 2A
    (Lebesgue measure) yield (1, 1): every ratio is exactly 1, and no j-bit
    integer is made.

    The checks on bits, then the guard, run at the first next(): the null
    sequence and the pure-point cases raise DomainError, naming `what`.  A > 2
    in every other case, so p > 0.
    """
    xs = parse_bits(bits)
    if params.is_null_sequence:
        raise DomainError("sequence is identically zero (homogeneous with f(1)=0)")
    cls = classify(params)
    if cls.case in ("1A", "2A"):
        yield from itertools.repeat((1, 1), len(xs))
        return
    if cls.kind is MeasureKind.PURE_POINT:
        raise DomainError(f"{what} requires A0>0 and A1>0 (case {cls.case} is pure point)")
    a0, a1, b0, b1, v = params
    a, b = a0 + a1, b0 + b1
    den = v * (a - 2) + b
    for j, x in enumerate(xs, start=1):
        v = a1 * v + b1 if x else a0 * v + b0
        den *= a
        yield (v * (a - 2) + b) << j, den


# ----------------------------------------------------------------------
# Case 2D: pure point weights
# ----------------------------------------------------------------------

def _atoms_2d(params: AffineParams) -> tuple[int, int, int, int]:
    """(A, zero, each, den) in case 2D, the module's weights over the one
    integer denominator den = (A-1) p: mu({0}) = zero / den, and the atom
    whose last 1 digit sits at position n >= 1 weighs each / (den A^n).

    For A1 = 0, b_keep = b0 rides the trailing-zero steps and b_last = b1
    enters at the last 1 digit; for A0 = 0 the roles swap, and atom
    locations reflect through x -> 1-x, preserving last-one positions.
    """
    cls = classify(params)
    if cls.case != "2D":
        raise DomainError(f"pure-point weights require case 2D, got case {cls.case}")
    a, b_keep, b_last = ((params.a0, params.b0, params.b1) if params.a1 == 0
                         else (params.a1, params.b1, params.b0))
    zero = (params.f1 * (a - 1) + b_keep) * (a - 2)
    each = (b_last * (a - 1) + b_keep) * (a - 2)
    return a, zero, each, (a - 1) * (params.f1 * (a - 2) + params.b)


def point_mass(params: AffineParams, bits) -> Fraction:
    """mu({x}) in case 2D; x given by its terminating binary expansion.

    The weight depends only on the position n of the last 1 digit:
    each / (den A^n), and zero / den for x = 0 (see _atoms_2d).
    """
    a, zero, each, den = _atoms_2d(params)
    xs = parse_bits(bits)
    n = max((j for j, x in enumerate(xs, start=1) if x), default=0)
    return Fraction(each, den * a**n) if n else Fraction(zero, den)


def point_mass_tail(params: AffineParams, n_max: int) -> Fraction:
    """Total mass of atoms whose last 1 digit sits beyond position n_max.

    Level n carries 2^(n-1) atoms of weight each / (den A^n); the geometric
    sum gives each / ((A-2) den) * (2/A)^n_max exactly.
    """
    a, _, each, den = _atoms_2d(params)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    return Fraction(each << n_max, (a - 2) * den * a**n_max)


def point_mass_total(params: AffineParams, n_max: int) -> tuple[Fraction, Fraction]:
    """(partial, 1): partial sums mu({0}) and all levels n <= n_max, the
    last running total of _levels_2d.

    The atoms exhaust the measure: partial + point_mass_tail(n_max) == 1
    exactly, for every n_max.
    """
    for _, _, cumulative, den in _levels_2d(params, n_max):
        pass
    return Fraction(cumulative, den), Fraction(1)


def _levels_2d(params: AffineParams, n_max: int) -> Iterator[tuple[int, int, int, int]]:
    """(count, each, cumulative, den) for the levels n = 0..n_max in case 2D:
    the 2^(n-1) atoms of level n (mu({0}) alone at n = 0) weigh each / den
    apiece, and all levels up to n together cumulative / den, exactly; den
    grows by A per level.  One _atoms_2d call, then integer steps; the
    checks run at the first next()."""
    a, cumulative, each, den = _atoms_2d(params)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    yield 1, cumulative, cumulative, den
    for n in range(1, n_max + 1):
        count = 1 << (n - 1)
        den *= a
        cumulative = a * cumulative + count * each
        yield count, each, cumulative, den
