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

which specialises to the Radon-Nikodym density in case 2B,

    g(x) = (f(1) + sum_j b_{x_j} A^-j) / (f(1) + b/(2A-2)),   A = A0 = A1,

and drives the concentration diagnostics in case 2C.  In case 2D (say
A1 = 0, A = A0) the measure is purely atomic with weights

    mu({0})  = (f(1) + b0/(A-1)) / sigma_inf,
    mu({x})  = (b1 + b0/(A-1)) / (A^n * sigma_inf),

where n is the position of the last 1 in x's terminating binary expansion;
the weights depend on n only.  The mirrored orientation A0 = 0 follows by
swapping the branch roles and reflecting atom locations x -> 1-x (mod 1),
which maps terminating expansions to terminating expansions of the same
last-one position; the mirrored weights are validated against combs in the
test suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .approximant import DyadicInterval
from .errors import DomainError
from .sequence import AffineParams, eval_f, sigma_inf
from ._util import parse_bits

#: Seed used by the reproducible randomised diagnostics in the test suite.
DEFAULT_WITNESS_SEED = 20250810


class MeasureKind(enum.Enum):
    LEBESGUE = "lebesgue"
    ABSOLUTELY_CONTINUOUS = "absolutely-continuous"
    SINGULAR_CONTINUOUS = "singular-continuous"
    PURE_POINT = "pure-point"


@dataclass(frozen=True)
class LebesgueClass:
    kind: MeasureKind
    case: str
    support: Optional[str] = None  # for pure point: "delta-at-0" | "dyadic-rationals"

    def describe(self) -> str:
        if self.kind is MeasureKind.PURE_POINT:
            tag = "dyadic" if self.support == "dyadic-rationals" else "delta-at-0"
            return f"pure-point({tag})"
        return self.kind.value


@dataclass(frozen=True)
class ConcentrationThreshold:
    """Minority-digit density cutoff Lambda in the singular continuous cases."""

    lambda_cap: float
    minority_digit: int


@dataclass(frozen=True)
class DensityEstimate:
    """Truncated density value with its exact tail bound."""

    value: float
    tail_bound: float
    exact: Fraction  # the depth-d truncation as an exact rational


def classify(params: AffineParams) -> LebesgueClass:
    """Case label and Lebesgue type of the limit measure (total on valid params)."""
    if params.homogeneous:
        if params.a0 == params.a1:
            return LebesgueClass(MeasureKind.LEBESGUE, "1A")
        if params.a0 > 0 and params.a1 > 0:
            return LebesgueClass(MeasureKind.SINGULAR_CONTINUOUS, "1B")
        return LebesgueClass(MeasureKind.PURE_POINT, "1C", "delta-at-0")
    if params.a <= 2:
        return LebesgueClass(MeasureKind.LEBESGUE, "2A")
    if params.a0 == params.a1:
        return LebesgueClass(MeasureKind.ABSOLUTELY_CONTINUOUS, "2B")
    if params.a0 > 0 and params.a1 > 0:
        return LebesgueClass(MeasureKind.SINGULAR_CONTINUOUS, "2C")
    return LebesgueClass(MeasureKind.PURE_POINT, "2D", "dyadic-rationals")


def interval_measure(params: AffineParams, interval: DyadicInterval) -> Fraction:
    """mu(E) for a dyadic interval, exact.

    Closed form for A0, A1 > 0 with A0+A1 >= 3 (cases 1B, 2B, 2C); cases
    1A and 2A are Lebesgue measure, answered as 2^-depth directly.  The
    pure-point cases have no interval closed form here and raise.
    """
    if params.is_null_sequence:
        raise DomainError("sequence is identically zero (homogeneous with f(1)=0)")
    cls = classify(params)
    if cls.case in ("1A", "2A"):
        return interval.length
    if cls.kind is MeasureKind.PURE_POINT:
        raise DomainError(
            f"interval closed form requires A0>0 and A1>0 (case {cls.case} is pure point)")
    f_lead = eval_f(params, (1 << interval.depth) | interval.index)
    shift = Fraction(params.b, params.a - 2)
    return (f_lead + shift) / (sigma_inf(params) * params.a**interval.depth)


def density(params: AffineParams, bits, depth: Optional[int] = None) -> DensityEstimate:
    """Radon-Nikodym density in case 2B, truncated after `depth` digits.

    bits supplies the leading binary digits of x; digits past the given
    prefix are taken to be 0 (terminating-expansion convention).  The tail
    of the series is bounded by max(b0,b1) / ((A-1) A^d) over the same
    denominator, reported in tail_bound.
    """
    cls = classify(params)
    if cls.case != "2B":
        raise DomainError(f"density requires case 2B (A0=A1>1, b!=0), got case {cls.case}")
    xs = parse_bits(bits)
    d = len(xs) if depth is None else depth
    if d < 0:
        raise DomainError("depth must be >= 0")
    a = params.a0
    num = Fraction(params.f1)
    for j in range(1, d + 1):
        x = xs[j - 1] if j <= len(xs) else 0
        num += Fraction(params.b1 if x else params.b0, a**j)
    den = Fraction(params.f1) + Fraction(params.b, 2 * a - 2)
    exact = num / den
    tail = Fraction(max(params.b0, params.b1), (a - 1) * a**d) / den
    return DensityEstimate(float(exact), float(tail), exact)


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

    All intermediates are exact rationals, converted once and correctly
    rounded at the end: a ratio below the double range becomes 0.0, one
    above it inf.  In case 2B the ratios converge to the density at x;
    in case 2C they collapse to zero or blow up according to the digit
    densities against lambda_threshold.
    """
    out = []
    for r in ratio_sequence_exact(params, bits):
        try:
            out.append(float(r))
        except OverflowError:
            out.append(math.inf if r > 0 else -math.inf)
    return out


def ratio_sequence_exact(params: AffineParams, bits) -> list[Fraction]:
    xs = parse_bits(bits)
    if params.is_null_sequence:
        raise DomainError("sequence is identically zero (homogeneous with f(1)=0)")
    cls = classify(params)
    if cls.case in ("1A", "2A"):
        return [Fraction(1)] * len(xs)
    if cls.kind is MeasureKind.PURE_POINT:
        raise DomainError(
            f"ratio sequence requires A0>0 and A1>0 (case {cls.case} is pure point)")
    a = params.a
    shift = Fraction(params.b, a - 2)
    s_inf = sigma_inf(params)
    out = []
    v = params.f1
    apow = 1
    for j, x in enumerate(xs, start=1):
        ab, bb = params.branch(x)
        v = ab * v + bb
        apow *= a
        out.append(Fraction(2**j) * (v + shift) / (s_inf * apow))
    return out


# ----------------------------------------------------------------------
# Case 2D: pure point weights
# ----------------------------------------------------------------------

def _orient_2d(params: AffineParams) -> tuple[int, int, int]:
    """(A, b_keep, b_last) with the zero branch normalised away.

    For A1 = 0 the roles are (A0, b0, b1): b0 rides the trailing-zero steps,
    b1 enters at the last 1 digit.  For A0 = 0 the branch roles swap; atom
    locations reflect through x -> 1-x, preserving last-one positions.
    """
    cls = classify(params)
    if cls.case != "2D":
        raise DomainError(f"pure-point weights require case 2D, got case {cls.case}")
    if params.a1 == 0:
        return params.a0, params.b0, params.b1
    return params.a1, params.b1, params.b0


def _last_one_position(bits: tuple[int, ...]) -> int:
    pos = 0
    for j, x in enumerate(bits, start=1):
        if x:
            pos = j
    return pos


def point_mass(params: AffineParams, bits) -> Fraction:
    """mu({x}) in case 2D; x given by its terminating binary expansion.

    The weight depends only on the position n of the last 1 digit:
    (b_last + b_keep/(A-1)) / (A^n sigma_inf), and for x = 0 it is
    (f(1) + b_keep/(A-1)) / sigma_inf.
    """
    a, b_keep, b_last = _orient_2d(params)
    xs = parse_bits(bits)
    n = _last_one_position(xs)
    s_inf = sigma_inf(params)
    if n == 0:
        return (params.f1 + Fraction(b_keep, a - 1)) / s_inf
    return (b_last + Fraction(b_keep, a - 1)) / (s_inf * a**n)


def point_mass_tail(params: AffineParams, n_max: int) -> Fraction:
    """Total mass of atoms whose last 1 digit sits beyond position n_max.

    Level n carries 2^(n-1) atoms of equal weight; the geometric sum gives
    (b_last + b_keep/(A-1)) / (A-2) * (2/A)^n_max / sigma_inf exactly.
    """
    a, b_keep, b_last = _orient_2d(params)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    return ((b_last + Fraction(b_keep, a - 1)) / (a - 2)
            * Fraction(2, a)**n_max / sigma_inf(params))


def point_mass_total(params: AffineParams, n_max: int) -> tuple[Fraction, Fraction]:
    """(partial, 1): partial sums mu({0}) and all levels n <= n_max.

    The atoms exhaust the measure: partial + point_mass_tail(n_max) == 1
    exactly, for every n_max.
    """
    a, b_keep, b_last = _orient_2d(params)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    s_inf = sigma_inf(params)
    partial = (params.f1 + Fraction(b_keep, a - 1)) / s_inf
    level = (b_last + Fraction(b_keep, a - 1)) / s_inf
    for n in range(1, n_max + 1):
        partial += 2**(n - 1) * level / a**n
    return partial, Fraction(1)
