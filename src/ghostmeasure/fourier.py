"""Fourier coefficients of the comb approximants and of their limit measure.

Splitting the level-N comb by parity of the atom index turns the defining
recurrence into a coefficient recursion whose closed solution is, for
A = A0 + A1 >= 1 and sigma(N) = Sigma(N)/A^N,

    mu_N^(t) = (sigma(0)/sigma(N)) * prod_{n=1..N} w_n(t)
             + (1/sigma(N)) * sum_{n=1..N} [ 2^(n-1) 1{2^(n-1) | t}
                 * (b0 + b1 e^{-2 pi i t/2^n}) / A^n * prod_{j=n+1..N} w_j(t) ],

    w_n(t) = (A0 + A1 e^{-2 pi i t/2^n}) / A.

For t = 2^a * b with b odd the indicator kills every summand past
n = a+1, so the N -> infinity limit needs only the infinite products,
truncated here at a depth D with the geometric tail bound
sum_{n>D} max(A0,A1) * 2 pi |t| / (A 2^n) reported on the result.  The
limit specialises by case: a single convergent product when b0 = b1 = 0,
identically zero off t = 0 when b != 0 and A <= 2, and for A0 = A1 = A' > 1
(case 2B) the fully closed form

    mu^(2^a b) = (b0 - b1) / (2 sigma_inf A'^(a+1)) * (-2i / (pi b)),

where the product collapses via the half-angle identity
prod_{j>=1} cos(x/2^j) = sin(x)/x applied at x = pi b/2 together with the
accumulated phase e^{-i pi b/2}.

The averaged squares W_N = 2^-N sum_{n=1..2^N} |mu^(n)|^2 decide the
pure-point question: W_N -> sum of squared atom masses, which is zero
exactly when the measure is continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from ._util import int_from_env
from .errors import DomainError, ResourceCapError
from .ghost import classify
from .sequence import AffineParams, sigma_inf, sigma_norm

DEFAULT_MAX_WIENER_LEVEL = 14
_ENV_MAX_WIENER = "GHOSTMEASURE_MAX_WIENER_LEVEL"

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class CoeffValue:
    """A coefficient value plus the truncation error bound of the product."""

    value: complex
    tail_bound: float
    depth: int


def _v2(t: int) -> int:
    """2-adic valuation of t != 0."""
    t = abs(t)
    return (t & -t).bit_length() - 1


def _unit_phase(t: int, n: int) -> complex:
    """e^{-2 pi i t / 2^n}, exact at the quarter points.

    The residue t mod 2^n is exact integer arithmetic, so multiples of
    2^n give exactly 1, half-multiples exactly -1: the cancellations the
    closed forms rely on happen exactly in floating point too.
    """
    r = t % (1 << n)
    if r == 0:
        return complex(1.0, 0.0)
    den = 1 << n
    if 2 * r == den:
        return complex(-1.0, 0.0)
    if 4 * r == den:
        return complex(0.0, -1.0)
    if 4 * r == 3 * den:
        return complex(0.0, 1.0)
    ang = TAU * (r / den)
    return complex(math.cos(ang), -math.sin(ang))


def _suffix_products(params: AffineParams, t: int, depth: int) -> list[complex]:
    """suffix[n] = prod_{j=n+1..depth} w_j(t), so suffix[0] is the full product."""
    suffix = [complex(1.0)] * (depth + 1)
    for n in range(depth, 0, -1):
        suffix[n - 1] = (params.a0 + params.a1 * _unit_phase(t, n)) / params.a * suffix[n]
    return suffix


def _indicator_sum(params: AffineParams, t: int, suffix: list[complex], k: int) -> complex:
    """f(1) P_0 + sum_{n=1..k} 2^(n-1) (b0 + b1 e^{-2 pi i t/2^n}) / A^n * P_n.

    P_n = suffix[n] is the suffix product; k is the last n the indicator
    1{2^(n-1) | t} leaves alive (v2(t) + 1, capped by the level).
    """
    acc = params.f1 * suffix[0]
    for n in range(1, k + 1):
        coef = (1 << (n - 1)) * (params.b0 + params.b1 * _unit_phase(t, n)) / params.a**n
        acc += coef * suffix[n]
    return acc


def coeff_recursive(params: AffineParams, level: int, t: int) -> complex:
    """mu_N^(t) by the closed recursion at level N (exact finite formula).

    For A0 + A1 = 0 the comb alternates b0, b1 and the coefficient reduces
    to (b0 + b1 e^{-2 pi i t/2^N})/(b0+b1) on 2^(N-1)Z and 0 elsewhere.
    """
    if level < 1:
        raise DomainError("level must be >= 1")
    if params.is_null_sequence:
        raise DomainError("sequence is identically zero (homogeneous with f(1)=0)")
    if params.a == 0:
        if t % (1 << (level - 1)):
            return complex(0.0)
        return (params.b0 + params.b1 * _unit_phase(t, level)) / params.b
    if t == 0:
        return complex(1.0)
    acc = _indicator_sum(params, t, _suffix_products(params, t, level), min(level, _v2(t) + 1))
    return acc / float(sigma_norm(params, level))


def _product_depth(params: AffineParams, t: int, tol: float) -> tuple[int, float]:
    """Depth D and tail bound with sum_{n>D} amax 2 pi |t| / (A 2^n) < min(tol, 1)/2.

    DomainError when D or the bound leaves the double range (D > ~1000).
    """
    amax = max(params.a0, params.a1)
    depth = max(_v2(t) + 8, 16)
    try:
        target = 4.0 * math.pi * amax * abs(t) / (params.a * min(tol, 1.0))
        if target > 1.0:
            depth = max(depth, int(math.log2(target)) + 2)
        tail = amax * TAU * abs(t) / (params.a * math.ldexp(1.0, depth))
    except OverflowError:
        raise DomainError("|t|/tol too large: the product depth leaves the double range") from None
    return depth, math.expm1(tail)


def coeff_limit(params: AffineParams, t: int, tol: float = 1e-12) -> CoeffValue:
    """mu^(t), the limit coefficient, with reported truncation bound.

    Case routing: t = 0 is exactly 1 (probability measure); b != 0 with
    A <= 2 is exactly 0 off t = 0; homogeneous parameters give the bare
    product; the remaining inhomogeneous A >= 3 cases take the product
    plus the finite sum that the indicator leaves alive.

    tail_bound bounds the truncation of the infinite product only; the
    floating-point rounding of the D factors and of the finite sum is not
    included in it.
    """
    if not tol > 0:
        raise DomainError("tol must be > 0")
    if params.is_null_sequence:
        raise DomainError("sequence is identically zero (homogeneous with f(1)=0)")
    if t == 0:
        return CoeffValue(complex(1.0), 0.0, 0)
    if not params.homogeneous and params.a <= 2:
        return CoeffValue(complex(0.0), 0.0, 0)
    depth, tail = _product_depth(params, t, tol)
    suffix = _suffix_products(params, t, depth)
    if params.homogeneous:
        return CoeffValue(suffix[0], tail, depth)
    acc = _indicator_sum(params, t, suffix, _v2(t) + 1)
    return CoeffValue(acc / float(sigma_inf(params)), tail, depth)


def coeff_limit_2b(params: AffineParams, t: int) -> CoeffValue:
    """Fully closed coefficient in case 2B (no truncation: tail_bound = 0).

    Writing t = 2^a b, b odd, the remaining product collapses to
    e^{-i pi b/2} sin(pi b/2)/(pi b/2) = -2i/(pi b), leaving a purely
    imaginary value (b0 - b1)/(2 sigma_inf A^(a+1)) * (-2i/(pi b)).
    """
    if classify(params).case != "2B":
        raise DomainError("closed 2B coefficient requires case 2B (A0=A1>1, b!=0)")
    if t == 0:
        raise DomainError("t must be nonzero (the t=0 coefficient is 1)")
    a_val = _v2(t)
    b_odd = t >> a_val
    pref = Fraction(params.b0 - params.b1, 2) / (sigma_inf(params) * params.a0**(a_val + 1))
    return CoeffValue(complex(0.0, -2.0 * float(pref) / (math.pi * b_odd)), 0.0, 0)


# ----------------------------------------------------------------------
# Squared magnitudes, kappa, Wiener averages
# ----------------------------------------------------------------------

def magnitude_sq_1b(params: AffineParams, t: Union[int, float], depth: int = 64) -> float:
    """|prod_n (A0 + A1 e^{-2 pi i t/2^n})/A|^2 at real argument t.

    Only the branch factors A0, A1 enter (the same product serves as the
    homogeneous comparison coefficient for the 2C parameters).  Equals

        prod_{k=1..depth} (A0^2 + A1^2 + 2 A0 A1 cos(2 pi t / 2^k)) / A^2,

    strictly decreasing on [0, 1] and decreasing in depth toward the limit.
    """
    a0, a1 = params.a0, params.a1
    if a0 == 0 or a1 == 0 or a0 == a1:
        raise DomainError("magnitude product requires A0 != A1, both positive")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    d0 = a0 * a0 + a1 * a1
    c = 2 * a0 * a1
    a_sq = (a0 + a1) ** 2
    out = 1.0
    for k in range(1, depth + 1):
        if isinstance(t, int):
            arg = TAU * math.ldexp(t % (1 << k), -k)
        else:
            arg = TAU * math.ldexp(t, -k)
        out *= (d0 + c * math.cos(arg)) / a_sq
    return out


def kappa_1b(params: AffineParams, grid_size: int = 512, depth: int = 64) -> float:
    """max |mu^(1-s)|^2 / min |mu^(s)|^2 over s in [0, 2/5] (case 1B).

    Strict decrease of the magnitude on [0, 1] makes this ratio < 1; it
    feeds the contraction envelope of the Wiener averages.
    """
    if classify(params).case != "1B":
        raise DomainError("kappa requires case 1B (A0 != A1 both > 0, b0=b1=0)")
    if grid_size < 2:
        raise DomainError("grid_size must be >= 2")
    hi = 0.0
    lo = math.inf
    for i in range(grid_size):
        s = 0.4 * i / (grid_size - 1)
        hi = max(hi, magnitude_sq_1b(params, 1.0 - s, depth))
        lo = min(lo, magnitude_sq_1b(params, s, depth))
    return hi / lo


def max_wiener_level() -> int:
    return int_from_env(_ENV_MAX_WIENER, DEFAULT_MAX_WIENER_LEVEL)


def wiener_profile(params: AffineParams, levels: Iterable[int], tol: float = 1e-12) -> dict[int, float]:
    """W_N = 2^-N sum_{n=1..2^N} |mu^(n)|^2 for each requested N, one pass.

    Homogeneous parameters reuse mu^(2t) = mu^(t) through the odd part of n;
    otherwise every coefficient is evaluated.
    """
    levels = sorted(set(int(l) for l in levels))
    cap = max_wiener_level()
    if levels and levels[-1] > cap:
        raise ResourceCapError(
            f"Wiener level {levels[-1]} exceeds cap {cap} "
            f"(override with {_ENV_MAX_WIENER})")
    if any(l < 0 for l in levels):
        raise DomainError("Wiener levels must be >= 0")
    out: dict[int, float] = {}
    if not levels:
        return out
    top = levels[-1]
    odd_cache: dict[int, float] = {}
    running = 0.0
    want = set(levels)
    n = 1
    for level in range(top + 1):
        while n <= (1 << level):
            if params.homogeneous:
                b = n >> _v2(n)
                if b not in odd_cache:
                    odd_cache[b] = abs(coeff_limit(params, b, tol).value) ** 2
                running += odd_cache[b]
            else:
                running += abs(coeff_limit(params, n, tol).value) ** 2
            n += 1
        if level in want:
            out[level] = running / (1 << level)
    return out


def wiener_average(params: AffineParams, level: int, tol: float = 1e-12) -> float:
    return wiener_profile(params, [level], tol)[level]


# ----------------------------------------------------------------------
# Case 2B: L2 identity; case 2C: domination by the homogeneous product
# ----------------------------------------------------------------------

def l2_norm_2b(params: AffineParams) -> Fraction:
    """||g||_2^2 = 1 + (b0-b1)^2 / (4 sigma_inf^2 (A^2-1)) in case 2B, exact."""
    if classify(params).case != "2B":
        raise DomainError("L2 identity requires case 2B (A0=A1>1, b!=0)")
    a = params.a0
    return 1 + Fraction((params.b0 - params.b1) ** 2, 4) / (sigma_inf(params) ** 2 * (a * a - 1))


def coefficient_bracket(params: AffineParams, a_val: int) -> Fraction:
    """Exact real factor linking a 2C coefficient to the homogeneous product.

    For t = 2^a b (b odd):  mu^(t) = nu^(t) * bracket(a) / sigma_inf with
    bracket(a) = sigma(a) + (2/A)^a (b0-b1)/(A0-A1), where nu is the
    coefficient product of the homogenised parameters.
    """
    if classify(params).case != "2C":
        raise DomainError("bracket requires case 2C (A0 != A1 both > 0, b != 0)")
    if a_val < 0:
        raise DomainError("a_val must be >= 0")
    return (sigma_norm(params, a_val)
            + Fraction(2, params.a) ** a_val * Fraction(params.b0 - params.b1,
                                                        params.a0 - params.a1))


def domination_constant(params: AffineParams) -> float:
    """K with |mu^(t)| <= K |nu^(t)| for all t != 0 in case 2C.

    sup over a of |bracket(a)|/sigma_inf is at most
    1 + |b0-b1| / (sigma_inf |A0-A1|).
    """
    if classify(params).case != "2C":
        raise DomainError("domination constant requires case 2C")
    return 1.0 + abs(params.b0 - params.b1) / (float(sigma_inf(params)) * abs(params.a0 - params.a1))
