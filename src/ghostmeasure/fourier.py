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

Limit, recursive and Wiener tables all go through one batched kernel,
coeff_table, in split real/imaginary float64 arrays that reproduce
CPython's complex arithmetic bit for bit, so every value equals the scalar
formula for that t alone.  Where an operand is a known zero (the
imaginary part of an int parameter or of an exact sign, or the 0.0/A of a
division by a real), the operations it enters are left out wherever the
IEEE rules show that no bit changes (_factor, _signs): a trig level of the
kernel takes 17 array operations (5 to the phase, 6 to the factor, 6 to
the product in place), a level of the per-t pass 15 (3 to pick its factor
and indicator coefficient, 6 to the term, 6 to the product).  _held alone
holds t, as int64 whenever every t fits and as Python ints otherwise.  The
2-adic valuation v2(t) of every t, read once, decides which t run, the
atoms of the A = 0 comb (v2(t) = N - 1) and the keys below.

w_n depends on t only through t mod 2^n: for t = 2^a b with b odd,
w_n(t) = w_{n-a}(b) for n > a+1, and the phase is exactly -1 at n = a+1
and exactly 1 below.  One per-level loop, _kernel, carries a depth-sorted
block's products down to a bottom level, fed by one of two factor
sources, and runs twice.  The keyed pass
runs the bare suffix products once per distinct key (b, D - a), D the
product depth of t, from level D - a down to level 2, with the trig
phases of _phases.  The per-t pass takes each t on from its key's product
through its last min(a+1, D) levels down to level 1, with the exact signs
-1 and 1 and no trig.  These are the levels n <= a+1 where the indicator
1{2^(n-1) | t} is 1, so that pass alone adds the indicator sum.
The phases e^{-2 pi i b/2^n} of a block of keys come from one source,
_phases, which serves only odd b at levels n >= 2.  At n = 2 an odd b is a
quarter point, and the phase is exactly -i or +i by b mod 4; at n >= 3 no
odd b is one, so the phase is plain cos and sin of the residue b mod 2^n,
read off the int64 low = b & (2^63 - 1): low & (2^n - 1) for n <= 63, low
itself for 64 <= n <= 1022 when b lies in [0, 2^63), and the scalar
_unit_phase for every other (b, n), so negative and beyond-int64 keys need
no path of their own.
A limit table's tail_bound covers only the truncation of the product, not
rounding.  A level-N table's tail_bound is one a-priori rounding bound,
_level_bound(N), for every t != 0 (mod 2^N); where 2^N divides t the
coefficient is exactly 1 with bound 0, and at N = 0 (mu_0 = delta_0) that
is every t.  The 2^N atoms of the comb are never built: a comb sum over
them is the tests' oracle.  The tables are this module's only numpy code,
reached through _util.numpy, so the closed forms (coeff_limit_2b,
magnitude_sq_1b, the 2B and 2C identities) run without loading numpy.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Union

from ._util import int_from_env, numpy
from .errors import DomainError, ResourceCapError
from .ghost import classify
from .sequence import AffineParams, sigma_inf, sigma_norm

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_WIENER_LEVEL = 14
_ENV_MAX_WIENER = "GHOSTMEASURE_MAX_WIENER_LEVEL"

TAU = 2.0 * math.pi


class CoeffValue(namedtuple("CoeffValue", "value tail_bound depth")):
    """A coefficient value plus the truncation error bound and depth of the product."""

    __slots__ = ()


def _v2(t: int) -> int:
    """2-adic valuation of t, -1 at t = 0."""
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


# ----------------------------------------------------------------------
# The batched coefficient kernel
# ----------------------------------------------------------------------
#
# Every coefficient is evaluated in float64 re/im arrays to the bits of
# the operations CPython's complex arithmetic performs on the scalar
# formula: an int operand is complex(v, 0.0), a product is _Py_c_prod and a
# division by an int is _Py_c_quot.  numpy's complex128 is not used: its
# multiply is FMA-contracted and its division differs from CPython's, so
# the values would not be bit-identical to the scalar formula.

# t per kernel call.  Unblocked, a table of 8192 t ran 5-10% faster, one of
# 131071 t about 30% slower, and peak RSS grew with the table: by 2.2 MiB on
# `wiener --params 1 2 0 1 1 --n-max 14` and by 34 MiB (328 to 361 MiB) on
# `fourier --params 1 2 0 1 1 --t 1..1000000` (2-core x86-64).
_BLOCK = 2048

# t & _LOW_BITS, the low 63 bits of t, is an int64 for every int t.
_LOW_BITS = (1 << 63) - 1

_DEPTH_RANGE = "|t|/tol too large: the product depth leaves the double range"
_PARAM_RANGE = "a parameter (A0, A1, A, b0, b1 or f(1)) leaves the double range"
_NORM_RANGE = "the normalising sum leaves the double range"
_SCALE_RANGE = "the indicator sum leaves the double range (2^(n-1)/A^n for n up to v2(t)+1)"
_TERM_RANGE = "the indicator sum leaves the double range (2^(n-1) (b0 + b1 e_n) before its division by A^n)"


class CoeffTable(namedtuple("CoeffTable", "re im abs tail_bound depth")):
    """Coefficients of a batch of t as float64 arrays: value parts, modulus and
    truncation bound, with the int64 product depth of each t.  A table
    equals only itself, as its fields are arrays.

    Limit tables carry coeff_limit's tail_bound and depth (0 and 0 where no
    product is truncated).  Level-N tables carry the rounding bound
    _level_bound(N) and depth N where t != 0 (mod 2^N), bound 0 and depth 0
    where 2^N divides t (value exactly 1); the A = 0 comb has depth 0
    throughout.
    """

    __slots__ = ()
    __ne__, __hash__ = object.__ne__, object.__hash__

    def __eq__(self, other):
        return self is other


class _Floats(namedtuple("_Floats", "a0 a1 a b0 b1 f1 scales")):
    """The parameters as doubles, and (2^(n-1), A^n) for n = 1..kmax, or
    (2^(n-1)/A^n, 1.0) where either leaves the double range, in a list."""

    __slots__ = ()


def _doubles(values: Iterable, message: str = _PARAM_RANGE) -> list[float]:
    """[float(v) for v in values], or DomainError(message) where a value
    leaves the double range: every scalar exact-to-double step of this module."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise DomainError(message) from None


def _floats(params: AffineParams, kmax: int) -> _Floats:
    """DomainError where a parameter, or a scale 2^(n-1)/A^n, leaves the
    double range.

    Where 2^(n-1) or A^n has no double, the one correctly rounded scale
    2^(n-1)/A^n stands for the pair, so the kernel's term is
    scale (b0 + b1 e_n)/1.0.  The scale is below 1 in limit tables (A >= 3)
    and at most sigma(N)/b at level N.  With b = 0 every term is a zero of
    the same sign whatever its positive scale, so those levels take 1.0.
    """
    values = _doubles((params.a0, params.a1, params.a, params.b0, params.b1, params.f1))
    scales = []
    for n in range(1, kmax + 1):
        two, apow = 1 << (n - 1), params.a**n
        try:
            scales.append((float(two), float(apow)))
        except OverflowError:
            scale = Fraction(two, apow) if params.b else 1
            scales.append((*_doubles([scale], _SCALE_RANGE), 1.0))
    return _Floats(*values, scales)


def _mul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as CPython's _Py_c_prod computes it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _mul_into(wr, wi, pr: np.ndarray, pi: np.ndarray) -> None:
    """(pr + i pi) *= (wr + i wi) in place, as _Py_c_prod computes it
    (wr pr - wi pi, wr pi + wi pr): six operations, two temporaries."""
    np = numpy()
    b, c = wi * pi, wr * pi
    np.multiply(wi, pr, out=pi)
    pi += c
    pr *= wr
    pr -= b


def _div(xr, xi, d: float):
    """(xr + i xi) / complex(d, 0.0) as CPython's _Py_c_quot computes it."""
    ratio = 0.0 / d
    denom = d + 0.0 * ratio
    return (xr + xi * ratio) / denom, (xi - xr * ratio) / denom


def _phases(odd: np.ndarray):
    """The one phase source: e^{-2 pi i b/2^n} for the first m odd b at level
    n >= 2, equal to _unit_phase(b, n) bit for bit.

    odd holds the odd keys in the dtype _held gave the table.  At n = 2 the
    phase is exactly (b mod 4) - 2 times i, read off low = b & (2^63 - 1),
    an int64 for any int b.  At n >= 3 no odd b is a quarter point:
    r = b mod 2^n is low & (2^n - 1) for n <= 63 and low itself for b in
    [0, 2^63), and the angle is one int64 by double product r (TAU 2^-n):
    the scaling by 2^-n is exact while the product stays a normal double,
    which n <= 1022 ensures, so it equals the scalar TAU (r/2^n) bit for
    bit.  The other (b, n) pairs, n > 63 with b outside [0, 2^63) and every
    b at n > 1022, take _unit_phase.  Five array operations per trig level:
    the mask, the angle, cos, sin and the sign of sin.
    """
    np = numpy()
    low = (odd & _LOW_BITS).astype(np.int64)
    # Positions of the b outside [0, 2^63), where low is not b itself.
    other = np.flatnonzero(low != odd).tolist()

    def phase(n: int, m: int):
        if n == 2:
            return np.zeros(m), (low[:m] & 3) - 2.0
        r = low[:m] & ((1 << n) - 1) if n <= 63 else low[:m]
        ang = r * math.ldexp(TAU, -n)
        re, im = np.cos(ang), np.sin(ang, out=ang)
        np.negative(im, out=im)
        if n > 63:
            for i in range(m) if n > 1022 else other:
                if i >= m:
                    break
                z = _unit_phase(int(odd[i]), n)
                re[i], im[i] = z.real, z.imag
        return re, im

    return phase


def _factor(c: _Floats, er, ei):
    """w_n = (A0 + A1 e_n)/A at the phases e_n = er + i ei, in 6 operations
    done in place on er and ei: ((A0 + A1 er)/A, (0.0 + A1 ei)/A).

    This is CPython's complex (A0 + A1 e_n)/A bit for bit, that is
    _div(A0 + ur, 0.0 + ui, A) with (ur, ui) = _mul(A1, 0.0, er, ei).  Every
    operand is finite, A0 and A1 are >= +0 and A > 0 (the A = 0 comb and
    the zero limits never reach the kernel).  Rounding to nearest,
    x + (+-0) and x - (+-0) are x for every x != 0, and a sum or difference
    of two zeros is -0 only as -0 + (-0) or -0 - (+0).  So ur = A1 er - 0.0 ei
    differs from A1 er at most in the sign of a zero, which A0 + ur erases
    (A0 >= +0); A0 + A1 er is never -0, so the quotient's real part
    (xr + xi (0.0/A))/A is xr/A.  0.0 + ui, with ui = A1 ei + 0.0 er, is
    A1 ei where that is nonzero and +0 where it is a zero, as 0.0 + A1 ei
    is; the quotient's imaginary part (xi - xr (0.0/A))/A keeps xi, since a
    nonzero xi absorbs the zero and +0 - (+-0) = +0.  The divisor
    A + 0.0 (0.0/A) is A.
    """
    er *= c.a1
    er += c.a0
    er /= c.a
    ei *= c.a1
    ei += 0.0
    ei /= c.a
    return er, ei


def _signs(c: _Floats, v: np.ndarray, indicator: bool):
    """The per-t pass's step: at level n the phase of the first m t is exactly
    -1 where v2(t) = n - 1 and 1 where v2(t) > n - 1, imaginary part +0.

    So w_n is one of two doubles w+- = _factor(c, +-1.0, 0.0) with +0
    imaginary part, picked per t.  With indicator, the level's indicator
    coefficient 2^(n-1) (b0 + b1 e_n)/A^n is one of the two doubles
    2^(n-1) (b0 +- b1)/A^n with +0 imaginary part: in CPython's complex
    arithmetic b1 e_n is (b1 e, +0), b0 + it is never -0 (b0 >= +0), the
    product by 2^(n-1) > 0 and the quotient by A^n > 0 (or 1.0 beside a
    gap scale, _floats) then leave the real part as it is and the
    imaginary part +0.  Three array operations per level: the sign mask
    and the two picks.
    """
    np = numpy()
    w_plus, w_minus = (_factor(c, s, 0.0)[0] for s in (1.0, -1.0))

    def step(n: int, m: int):
        minus = v[:m] == n - 1
        wr = np.where(minus, w_minus, w_plus)
        if not indicator:
            return wr, 0.0, None
        two, apow = c.scales[n - 1]
        t_plus, t_minus = (two * (c.b0 + c.b1 * s) / apow for s in (1.0, -1.0))
        return wr, 0.0, np.where(minus, t_minus, t_plus)

    return step


def _kernel(c: _Floats, step, depth: np.ndarray, bottom: int, sr: np.ndarray,
            si: np.ndarray, norm: Optional[float] = None):
    """Carry the products (sr, si) of one block sorted by decreasing depth down
    through levels n = depth..bottom, in place, and return them as (re, im).

    At level n the m entries whose depth is at least n take the factor
    w_n = wr + i wi, with (wr, wi, tr) = step(n, m), through _mul_into: the
    keyed pass's step is _factor at the phases of _phases (11 array
    operations to w_n), the per-t pass's is _signs (3).  With norm given,
    every level run is one where the indicator 1{2^(n-1) | t} is 1, tr is
    the real part of the level's indicator coefficient (its imaginary part
    is +0), and the result is (f1 P_0 + sum_n tr_n P_n)/norm, summed in
    increasing n, where P_n is the product before level n's factor.
    """
    np = numpy()
    levels = range(int(depth[0]), bottom - 1, -1)
    active = np.searchsorted(-depth, -np.array(levels), side="right").tolist()
    terms = []
    for n, m in zip(levels, active):
        wr, wi, tr = step(n, m)
        p_re, p_im = sr[:m], si[:m]
        if norm is not None:
            terms.append(_mul(tr, 0.0, p_re, p_im))
        _mul_into(wr, wi, p_re, p_im)
    if norm is None:
        return sr, si
    acc_r, acc_i = _mul(c.f1, 0.0, sr, si)
    for tr, ti in reversed(terms):
        acc_r[:tr.size] += tr
        acc_i[:ti.size] += ti
    return _div(acc_r, acc_i, norm)


def _level_bound(level: int, norm: float) -> float:
    """B(N): a bound on |printed - exact mu_N^(t)| for every t != 0 (mod 2^N)
    of a level-N table whose normaliser rounds to norm.

    After Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 3 (gamma_k = k u/(1 - k u), u = 2^-53; |fl(xy) - xy| <= sqrt(2)
    gamma_2 |x||y| for CPython's complex product) and ch. 4 (recursive
    summation).  Every |w_n| <= 1, so every product P_n of the factors
    above level n has |P_n| <= 1, and f(1) + sum_{n<=N} 2^(n-1) (b0+b1)/A^n
    = sigma(N): the indicator terms and their sum stay within sigma.
      * Phase: the angle TAU * (r 2^-n) < 2 pi carries three relative
        roundings (TAU, r as a double, the product), so it is within
        2 pi gamma_3 of the exact angle; numpy's and libm's cos and sin are
        assumed within 1 ulp, so each part within u (exact |cos|, |sin| < 1).
        e = 2 pi gamma_3 + sqrt(2) u.  The quarter points and the signs of
        the last levels are exact.
      * Factor: (A0 + A1 e_n)/A from rounded A0, A1 and A: within
        d = e + gamma_5 (1 + e) of w_n.
      * Products: each level's complex product adds c = d + sqrt(2) gamma_2
        (1 + d) (plus 2^-1070 for underflow) relative to 1 + error, so every
        computed P_n is within g = (1 + c)^N - 1 of P_n.
      * Terms: 2^(n-1) (b0 + b1 e_n)/A^n (or its scale) is within gamma_4
        of 2^(n-1) b/A^n, and its product with P_n adds u; f(1) P_0 adds
        gamma_2.  Each is within phi = (1 + g)(1 + gamma_5) - 1 of its
        share of sigma.
      * Sum: at most N + 1 terms in increasing n, gamma_N of the sum of
        their moduli (Minkowski joins the parts): the numerator is within
        psi = (1 + phi)(1 + gamma_N) - 1 of sigma.
      * Division: norm is sigma correctly rounded and |mu| <= 1, so the
        quotient adds u/(1 - u), and rounding it adds u (1 + psi)/(1 - u).
    Underflow adds at most 2^-1075 per rounding of the numerator, about
    4N + 4 of them over norm, and 2^-1073 for the quotient.  B is raised by
    a relative 2^-40 to cover its own evaluation.  The A = 0 comb's value
    (b0 - b1)/b is within gamma_4 of exact, far inside B(N) with norm = b.
    B is 4.2e-15 at N = 1, 4.0e-14 at N = 12 and 5.9e-14 at N = 18 (with
    norm >= 1): about (29 N + 9) u.
    """
    u = 2.0**-53

    def gamma(k: int) -> float:
        return k * u / (1 - k * u)

    phase = TAU * gamma(3) + math.sqrt(2.0) * u
    factor = phase + gamma(5) * (1 + phase)
    c = factor + math.sqrt(2.0) * gamma(2) * (1 + factor) + 2.0**-1070
    g = math.expm1(level * math.log1p(c))
    phi = (1 + g) * (1 + gamma(5)) - 1
    psi = (1 + phi) * (1 + gamma(level)) - 1
    rel = (psi * (1 + u) + 2 * u) / (1 - u)
    return (rel + math.ldexp(4 * level + 4, -1075) / norm + 2.0**-1073) * (1 + 2.0**-40)


def _product_depths(params: AffineParams, tabs: np.ndarray, v2: np.ndarray, tol: float):
    """Depth D and tail bound per t (|t| as float64) with
    sum_{n>D} amax 2 pi |t| / (A 2^n) < min(tol, 1)/2.

    DomainError when D or the bound leaves the double range (D > ~1000).
    """
    np = numpy()
    amax, a = _doubles((max(params.a0, params.a1), params.a))
    depth = np.maximum(v2 + 8, 16)
    target = 4.0 * math.pi * amax * tabs / (a * min(tol, 1.0))
    big = np.flatnonzero(target > 1.0)
    if big.size:
        lg = np.log2(target[big])
        if not np.isfinite(lg).all():
            raise DomainError(_DEPTH_RANGE)
        whole = lg.astype(np.int64)
        # np.log2 may differ from math.log2 in the last bit; near an integer
        # that moves the integer part, so take it from math.log2 there.
        near = np.flatnonzero(np.abs(lg - np.rint(lg)) < 1e-9)
        exact = np.fromiter(map(math.log2, memoryview(target[big[near]])), np.float64, near.size)
        whole[near] = exact.astype(np.int64)
        depth[big] = np.maximum(depth[big], whole + 2)
    if depth.max() > 1023:
        raise DomainError(_DEPTH_RANGE)
    tail = amax * TAU * tabs / (a * np.ldexp(1.0, depth))
    # math.expm1 once per distinct argument (t and 2^a t at one key share
    # theirs bit for bit), fed as floats by a memoryview, not a list:
    # np.expm1 differs from it in the last bit for some arguments, which
    # would change the printed bounds.
    args, where = np.unique(tail, return_inverse=True)
    return depth, np.fromiter(map(math.expm1, memoryview(args)), np.float64, args.size)[where]


def _held(ts) -> np.ndarray:
    """The t of ts in order as one array: int64 where numpy holds every t as
    one, Python ints (dtype object) otherwise: the one choice of dtype,
    which every later step of coeff_table keeps.

    ts is a range, or an iterable of ints and ranges, a range standing for
    its ints in order.  A range whose ends fit in int64 is one int64 array
    (np.arange where it counts exactly) and each run of loose ints one
    np.array, so the int64 path makes no list of the t.  A float t is held
    too, and raises TypeError at coeff_table's first &.
    """
    np = numpy()
    parts, loose = [], []
    for item in [ts] if isinstance(ts, range) else ts:
        if isinstance(item, range):
            parts += [loose, item]
            loose = []
        else:
            loose.append(item)
    parts = [p for p in [*parts, loose] if len(p)]
    int64 = np.iinfo(np.int64)

    def array(p):
        if not isinstance(p, range):
            return np.array(p)
        if not (int64.min <= min(p[0], p[-1]) and max(p[0], p[-1]) <= int64.max):
            return None  # past int64
        # np.arange counts its elements as (stop - start) / step in doubles,
        # which is exact while |stop - start| < 2^53.
        if abs(p.stop - p.start) < 1 << 53:
            return np.arange(p.start, p.stop, p.step, dtype=np.int64)
        return np.fromiter(p, np.int64, len(p))

    held = [array(p) for p in parts]
    if held and all(h is not None and h.dtype == np.int64 for h in held):
        return held[0] if len(held) == 1 else np.concatenate(held)
    return np.fromiter(itertools.chain.from_iterable(parts), object, sum(map(len, parts)))


def coeff_table(params: AffineParams, ts: Iterable, tol: float = 1e-12,
                level: Optional[int] = None) -> CoeffTable:
    """mu^(t) (level None, truncated at tol) or mu_N^(t) at level N, for every t.

    One batched pass over the t that run, of any size or sign: the t with
    0 <= v2(t) < N at level N, every t != 0 in limit tables, as the one
    array of v2(t) (-1 at t = 0) says, which also picks the A = 0 atoms.
    The product runs once per distinct key (odd part b, depth D - v2(t)),
    keys sorted by depth into blocks of _BLOCK, and then each t runs its
    last min(v2(t) + 1, D) levels with the indicator sum, both passes
    through one split re/im kernel with the trig phases of _phases or the
    exact signs of the last levels.  ts is a range, or an iterable of ints and ranges
    (see _held).  Every value is bit-identical to the scalar complex
    formula of coeff_limit or coeff_recursive for that t alone.  In limit
    tables tail_bound covers the truncation of the infinite product only,
    not floating-point rounding; in level-N tables it is the rounding bound
    _level_bound(N), and mu_N^(t) is exactly 1 with bound 0 where 2^N
    divides t (every t at N = 0).
    """
    np = numpy()
    if level is None and not tol > 0:
        raise DomainError("tol must be > 0")
    if level is not None and level < 0:
        raise DomainError("level must be >= 0")
    if params.is_null_sequence:
        raise DomainError("sequence is identically zero (homogeneous with f(1)=0)")
    if level == 0 and params.f1 == 0:
        raise DomainError("the level-0 comb has total f(1) = 0")
    ts = _held(ts)
    size = ts.size
    re, im = np.zeros(size), np.zeros(size)
    tail, depth = np.zeros(size), np.zeros(size, dtype=np.int64)
    with np.errstate(all="ignore"):
        # v2(t) of every t, -1 at t = 0: t and low = t mod 2^63 share it
        # unless low = 0.
        low = (ts & _LOW_BITS).astype(np.int64)
        v2 = np.frexp((low & -low).astype(np.float64))[1].astype(np.int64) - 1
        for j in np.flatnonzero(low == 0).tolist():
            v2[j] = _v2(int(ts[j]))
        # t runs where t != 0 (mod 2^N), that is 0 <= v2(t) < N; every t != 0
        # in limit tables.
        run = v2 >= 0 if level is None else (v2 >= 0) & (v2 < level)
        re[~run] = 1.0
        idx = np.flatnonzero(run)
        # b != 0 with A <= 2: the limit is exactly 0 off t = 0.
        zero_limit = level is None and not params.homogeneous and params.a <= 2
        if idx.size and level is not None and params.a == 0:
            # The comb alternates b0, b1: (b0 + b1 e^{-2 pi i t/2^N})/b on
            # 2^(N-1) Z, where the phase is exactly -1 off 2^N Z, and 0 elsewhere:
            # the atoms are the t that run with v2(t) = N - 1.
            b0, b1, b = _doubles((params.b0, params.b1, params.b))
            minus = (b0 + b1 * complex(-1.0, 0.0)) / b
            on = v2[idx] == level - 1
            re[idx] = np.where(on, minus.real, 0.0)
            im[idx] = np.where(on, minus.imag, 0.0)
            tail[idx] = _level_bound(level, b)
        elif idx.size and not zero_limit:
            tn, v2 = ts[idx], v2[idx]
            if level is None:
                try:
                    tabs = np.abs(tn.astype(np.float64))
                except OverflowError:
                    raise DomainError(_DEPTH_RANGE) from None
                depth[idx], tail[idx] = _product_depths(params, tabs, v2, tol)
                total = None if params.homogeneous else sigma_inf(params)
            else:
                depth[idx] = level
                total = sigma_norm(params, level)
            norm = None if total is None else _doubles([total], _NORM_RANGE)[0]
            re[idx], im[idx] = _evaluate(params, tn, depth[idx], v2, norm)
            if not np.isfinite((re, im)).all():
                raise DomainError(_TERM_RANGE)
            if level is not None:
                tail[idx] = _level_bound(level, norm)
        return CoeffTable(re, im, np.hypot(re, im), tail, depth)


def _evaluate(params, tn, d, v2, norm):
    """(re, im) of the nonzero t (tn, with depths d and valuations v2).

    The product of levels v2+2..d of t = 2^v2 b is that of levels 2..d-v2
    of b, so the kernel runs once per distinct key (b, d - v2) with
    d - v2 >= 2 down to level 2, and _phases sees only odd b at levels
    n >= 2, in the dtype _held gave tn.  The kernel then takes each t from
    its key's product, or from 1 without a key, through its last
    min(v2 + 1, d) levels down to level 1, at the phase -1 at n = v2 + 1
    and 1 below.
    """
    np = numpy()
    last = np.minimum(v2 + 1, d)
    c = _floats(params, int(last.max()) if norm is not None else 0)
    reduced = d - v2
    keyed = np.flatnonzero(reduced >= 2)
    # The exact odd parts b, in tn's dtype, so t that agree on their low 63
    # bits never share a key.  Sorting by decreasing depth, then b, puts
    # equal keys side by side and the keys in kernel order.
    odd = tn[keyed] >> v2[keyed]
    kdepth = reduced[keyed]
    order = np.lexsort((odd, -kdepth))
    odd, kdepth = odd[order], kdepth[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (odd[1:] != odd[:-1]) | (kdepth[1:] != kdepth[:-1])
    slot = np.empty(order.size, dtype=np.int64)
    slot[order] = np.cumsum(new) - 1
    odd, kdepth = odd[new], kdepth[new]
    pr, pi = np.ones(odd.size), np.zeros(odd.size)
    for lo in range(0, odd.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        phase = _phases(odd[blk])
        step = lambda n, m, phase=phase: (*_factor(c, *phase(n, m)), None)
        _kernel(c, step, kdepth[blk], 2, pr[blk], pi[blk])
    sr, si = np.ones(d.size), np.zeros(d.size)
    sr[keyed], si[keyed] = pr[slot], pi[slot]
    re, im = np.empty(d.size), np.empty(d.size)
    order = np.argsort(-last, kind="stable")
    for lo in range(0, order.size, _BLOCK):
        blk = order[lo:lo + _BLOCK]
        step = _signs(c, v2[blk], norm is not None)
        re[blk], im[blk] = _kernel(c, step, last[blk], 1, sr[blk], si[blk], norm)
    return re, im


def coeff_recursive(params: AffineParams, level: int, t: int) -> complex:
    """mu_N^(t) by the closed recursion at level N (exact finite formula),
    exactly 1 where 2^N divides t (every t at N = 0).

    For A0 + A1 = 0 the comb alternates b0, b1 and the coefficient reduces
    to (b0 + b1 e^{-2 pi i t/2^N})/(b0+b1) on 2^(N-1)Z and 0 elsewhere.
    One t through coeff_table (call that once for many t).
    """
    tab = coeff_table(params, [t], level=level)
    return complex(float(tab.re[0]), float(tab.im[0]))


def coeff_limit(params: AffineParams, t: int, tol: float = 1e-12) -> CoeffValue:
    """mu^(t), the limit coefficient, with reported truncation bound.

    Case routing: t = 0 is exactly 1 (probability measure); b != 0 with
    A <= 2 is exactly 0 off t = 0; homogeneous parameters give the bare
    product; the remaining inhomogeneous A >= 3 cases take the product
    plus the finite sum that the indicator leaves alive.  One t through
    coeff_table, the batched kernel that every coefficient table uses; for
    many t call coeff_table once, since each call pays the kernel's
    per-level array overhead (about 1 ms at depth 50 on a 2-core x86-64).

    tail_bound bounds the truncation of the infinite product only; the
    floating-point rounding of the D factors and of the finite sum is not
    included in it.
    """
    tab = coeff_table(params, [t], tol)
    return CoeffValue(complex(float(tab.re[0]), float(tab.im[0])),
                      float(tab.tail_bound[0]), int(tab.depth[0]))


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
    pref = Fraction(params.b0 - params.b1, 2) / (sigma_inf(params) * params.a0**(a_val + 1))
    # |pref| < 1 (sigma_inf >= b/(A-2)), so only the odd part can overflow.
    pref, b_odd = _doubles((pref, t >> a_val), "the odd part of t is beyond the double range")
    return CoeffValue(complex(0.0, -2.0 * pref / (math.pi * b_odd)), 0.0, 0)


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
    d0, c, a_sq = _doubles((a0 * a0 + a1 * a1, 2 * a0 * a1, (a0 + a1) ** 2),
                           "A^2 leaves the double range")
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
    """W_N = 2^-N sum_{n=1..2^N} |mu^(n)|^2 for each requested N, from one
    coeff_table call and one running sum.

    Homogeneous parameters reuse mu^(2t) = mu^(t) through the odd part of n;
    otherwise every coefficient is evaluated.
    """
    np = numpy()
    levels = sorted(set(int(l) for l in levels))
    if any(l < 0 for l in levels):
        raise DomainError("Wiener levels must be >= 0")
    cap = max_wiener_level()
    if levels and levels[-1] > cap:
        raise ResourceCapError(
            f"Wiener level {levels[-1]} exceeds cap {cap} "
            f"(override with {_ENV_MAX_WIENER})")
    if not levels:
        return {}
    size = 1 << levels[-1]
    mods = coeff_table(params, range(1, size + 1, 2 if params.homogeneous else 1), tol).abs
    # |mu|^2 as Python's ** computes it: float_power calls the C library's
    # pow too, while x*x and np.power(x, 2) square, which differs in the
    # last bit for some x.
    sq = np.float_power(mods, 2.0)
    if params.homogeneous:
        n = np.arange(1, size + 1)
        sq = sq[(n // (n & -n)) >> 1]  # the odd part of n indexes the odd-n table
    # cumsum adds in increasing n, as the definition does; np.sum would add
    # pairwise and change the last bits.
    running = np.cumsum(sq)
    return {level: float(running[(1 << level) - 1]) / (1 << level) for level in levels}


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
    db, sig, da = _doubles((abs(params.b0 - params.b1), sigma_inf(params), abs(params.a0 - params.a1)))
    return 1.0 + db / (sig * da)
