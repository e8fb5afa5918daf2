"""Reference values computed apart from the program's own code paths.

Nothing here imports ghostmeasure.  Parameters are plain tuples
(A0, A1, b0, b1, f1).  Each oracle follows a different route than the
function it checks:

* prefix masses of the level-N comb come from the block-sum recurrence
  S(c) = A*S(c-1) + b*2^(c-1), S(0) = F, summed over the 1-bits of the
  prefix length, never from a materialised region;
* level-N Fourier coefficients come from one numpy FFT of a region this
  module builds itself;
* limit and finite-level coefficients come from a vectorised suffix-product
  kernel over an array of t;
* case-2B coefficients come from the closed form
  -2i (b0-b1) / (2 sigma_inf A^(a+1) pi b), t = 2^a b with b odd;
* densities, dyadic-interval measures and point masses are exact
  Fractions, obtained as N -> infinity limits of the block sums.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TAU = 2.0 * math.pi
# Values of t per block of the coefficient kernel, so its arrays stay small.
CHUNK = 1024


class CheckError(AssertionError):
    """An output or an oracle that disagrees with what it is held to."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def leading_value(p, bits) -> int:
    """f((1 x1 .. xi)_2): the node value reached by the digit prefix."""
    a0, a1, b0, b1, v = p
    for x in bits:
        v = a1 * v + b1 if x else a0 * v + b0
    return v


def block_sum(p, value: int, c: int) -> int:
    """Sum over the 2^c leaves below a node of the given value, c levels down."""
    a, b = p[0] + p[1], p[2] + p[3]
    s = value
    for k in range(1, c + 1):
        s = a * s + b * (1 << (k - 1))
    return s


def prefix_weight(p, level: int, m: int) -> int:
    """Sum of the first m atoms of the level-N comb, 0 <= m <= 2^N.

    Descends from the root along the bits of m: every 1-bit adds the whole
    left sibling block, every step moves to the child the prefix continues in.
    """
    if m == 1 << level:
        return block_sum(p, p[4], level)
    a0, a1, b0, b1, v = p
    total = 0
    for c in range(level - 1, -1, -1):
        left = a0 * v + b0
        if (m >> c) & 1:
            total += block_sum(p, left, c)
            v = a1 * v + b1
        else:
            v = left
    return total


def region_total(p, level: int) -> int:
    """Sigma(N), the total weight of the level-N comb."""
    return prefix_weight(p, level, 1 << level)


def cdf_value(p, level: int, x: Fraction) -> Fraction:
    """F_N(x) = mu_N([0, x]) with the atom at x included."""
    size = 1 << level
    idx = min(math.floor(x * size), size - 1)
    return Fraction(prefix_weight(p, level, idx + 1), region_total(p, level))


def dyadic_mass_level(p, level: int, bits) -> Fraction:
    """mu_N(E(bits)), the level-N comb mass of a dyadic interval."""
    return Fraction(block_sum(p, leading_value(p, bits), level - len(bits)),
                    region_total(p, level))


def sigma_limit(p) -> Fraction:
    """lim Sigma(N)/A^N = f1 + b/(A-2), for A > 2."""
    a, b = p[0] + p[1], p[2] + p[3]
    return p[4] + Fraction(b, a - 2)


def dyadic_mass_limit(p, bits) -> Fraction:
    """mu(E(bits)) for A > 2: the N -> infinity limit of dyadic_mass_level.

    The block sum below a node of value F is A^c F + b (A^c - 2^c)/(A-2),
    so the ratio tends to (F + b/(A-2)) / (sigma_inf A^i).
    """
    a, b = p[0] + p[1], p[2] + p[3]
    return (leading_value(p, bits) + Fraction(b, a - 2)) / (sigma_limit(p) * a ** len(bits))


def density_limit(p, bits) -> Fraction:
    """Case-2B density g(x) at the terminating x = (0.bits)_2, exact.

    Digits past the prefix are all 0, so the infinite series closes to
    b0 A^-w / (A-1) after the w given digits.
    """
    a, _, b0, b1, f1 = p
    # A^w (f1 + sum_j b_{x_j} A^-j), by Horner over the digits.
    num = f1
    for x in bits:
        num = a * num + (b1 if x else b0)
    scale = a ** len(bits)
    series = Fraction(num * (a - 1) + b0, (a - 1) * scale)
    return series / (f1 + Fraction(b0 + b1, 2 * a - 2))


def ratio_limits(p, bits) -> list[Fraction]:
    """2^j mu(E_j(x)) for j = 1..len(bits), the derivative ratios of the limit."""
    a, b = p[0] + p[1], p[2] + p[3]
    shift = Fraction(b, a - 2)
    s_inf = sigma_limit(p)
    out = []
    v = p[4]
    for j, x in enumerate(bits, start=1):
        v = p[1] * v + p[3] if x else p[0] * v + p[2]
        out.append((v + shift) * Fraction(2, a) ** j / s_inf)
    return out


def point_mass_level(p, n: int) -> Fraction:
    """Case-2D weight of each atom whose last 1 digit sits at position n.

    Taken as lim_i mu(E_i(x)) along x = 0.0..01 (n digits) padded with
    zeros, with the zero branch on the side of the majority digit.
    """
    a0, a1, b0, b1, f1 = p
    a_keep, b_keep = (a0, b0) if a1 == 0 else (a1, b1)
    a = a0 + a1
    if n == 0:
        lead = f1
    else:
        bits = [0] * (n - 1) + [1] if a1 == 0 else [1] * (n - 1) + [0]
        lead = leading_value(p, bits)
    return (lead + Fraction(b_keep, a_keep - 1)) / (sigma_limit(p) * a ** n)


def point_mass_tail(p, n_max: int) -> Fraction:
    """Mass of all atoms past position n_max: sum_{n>n_max} 2^(n-1) w(n), geometric."""
    a = p[0] + p[1]
    w1 = point_mass_level(p, 1)
    # 2^(n-1) w(n) = w1 (2/A)^(n-1); summed from n = n_max+1 to infinity.
    return w1 * Fraction(2, a) ** n_max / (1 - Fraction(2, a))


# ----------------------------------------------------------------------
# Floating-point coefficient oracles
# ----------------------------------------------------------------------

def region_floats(p, level: int) -> tuple[np.ndarray, float]:
    """Level-N weights as doubles plus the total, built here by interleaving.

    Uses int64 while the max-branch bound on the values fits, Python
    integers otherwise; both are scaled by a common power of two before the
    conversion so huge values stay in range.
    """
    a0, a1, b0, b1, f1 = p
    bound = f1
    for _ in range(level):
        bound = max(a0, a1) * bound + max(b0, b1)
    if bound < 1 << 62:
        r = np.array([f1], dtype=np.int64)
        for _ in range(level):
            nxt = np.empty(2 * r.size, dtype=np.int64)
            nxt[0::2] = a0 * r + b0
            nxt[1::2] = a1 * r + b1
            r = nxt
        w = r.astype(float)
    else:
        vals = [f1]
        for _ in range(level):
            nxt = [0] * (2 * len(vals))
            nxt[0::2] = [a0 * v + b0 for v in vals]
            nxt[1::2] = [a1 * v + b1 for v in vals]
            vals = nxt
        shift = max(bound.bit_length() - 900, 0)
        w = np.array([float(v >> shift) for v in vals])
        return w, float(region_total(p, level) >> shift)
    return w, float(region_total(p, level))


def fft_coeffs(p, level: int) -> np.ndarray:
    """All 2^N level-N coefficients mu_N^(t), t = 0..2^N-1, by one FFT."""
    w, total = region_floats(p, level)
    return np.fft.fft(w) / total


def _v2(t: np.ndarray) -> np.ndarray:
    """2-adic valuation of each nonzero entry."""
    low = t & -t
    return np.round(np.log2(low.astype(float))).astype(np.int64)


def _kernel_chunk(p, t: np.ndarray, depth: int, sigma: float) -> np.ndarray:
    a0, a1, b0, b1, f1 = p
    a = a0 + a1
    n = np.arange(1, depth + 1)
    # t mod 2^n exactly; past n = 62 the residue is t itself, since t < 2^62.
    r = t[:, None] % np.left_shift(np.int64(1), np.minimum(n, 62))[None, :]
    phase = np.exp(-1j * TAU * np.ldexp(r.astype(float), -n[None, :]))
    factors = (a0 + a1 * phase) / a
    suffix = np.ones((t.size, depth + 1), dtype=complex)
    suffix[:, :depth] = np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]
    acc = f1 * suffix[:, 0]
    if b0 or b1:
        alive = (n[None, :] - 1) <= _v2(t)[:, None]
        scale = 0.5 * (2.0 / a) ** n
        terms = scale[None, :] * (b0 + b1 * phase) * suffix[:, 1:]
        acc = acc + np.where(alive, terms, 0).sum(axis=1)
    return acc / sigma


def kernel_coeffs(p, ts, level: int | None = None) -> np.ndarray:
    """Coefficients by the suffix-product kernel for an array of nonzero t.

    level=None gives the limit mu^(t): products run to a depth where the
    truncation is below 1e-16 and the normaliser is sigma_inf.  An integer
    level gives the finite mu_N^(t) with sigma(N) = Sigma(N)/A^N.  Works in
    blocks of CHUNK values of t.
    """
    t = np.asarray(ts, dtype=np.int64)
    a = p[0] + p[1]
    if level is None:
        tmax = int(np.abs(t).max())
        depth = max(64, math.ceil(math.log2(TAU * max(p[0], p[1]) * tmax / a)) + 56)
        sigma = float(sigma_limit(p))
    else:
        depth = level
        sigma = float(Fraction(region_total(p, level), a ** level))
    out = np.empty(t.size, dtype=complex)
    for lo in range(0, t.size, CHUNK):
        out[lo:lo + CHUNK] = _kernel_chunk(p, t[lo:lo + CHUNK], depth, sigma)
    return out


def coeff_2b(p, t: int) -> complex:
    """Case-2B limit coefficient, fully closed: no product, no truncation."""
    a_val = (t & -t).bit_length() - 1
    b_odd = t >> a_val
    pref = Fraction(p[2] - p[3], 2) / (sigma_limit(p) * p[0] ** (a_val + 1))
    return complex(0.0, -2.0 * float(pref) / (math.pi * b_odd))


def wiener_levels(p, n_max: int) -> list[float]:
    """W_N = 2^-N sum_{n=1..2^N} |mu^(n)|^2 for N = 0..n_max, from the kernel."""
    sq = np.abs(kernel_coeffs(p, np.arange(1, (1 << n_max) + 1))) ** 2
    cum = np.cumsum(sq)
    return [float(cum[(1 << n) - 1]) / (1 << n) for n in range(n_max + 1)]


# ----------------------------------------------------------------------
# Classification table and spectral radii
# ----------------------------------------------------------------------

def expected_case(a0: int, a1: int, b0: int, b1: int) -> str:
    """Case label 1A-2D read off the coefficient table of the paper."""
    if b0 + b1 == 0:
        if a0 == a1:
            return "1A"
        return "1B" if a0 and a1 else "1C"
    if a0 + a1 <= 2:
        return "2A"
    if a0 == a1:
        return "2B"
    return "2C" if a0 and a1 else "2D"


def spectral_radii(a0: int, a1: int, b0: int, b1: int) -> tuple[float, float]:
    """(rho(C0 + C1), max(rho(C0), rho(C1))) by numpy eigenvalues.

    For the triangular representation the joint spectral radius equals the
    larger of the two single spectral radii.
    """
    if b0 + b1 == 0:
        c0, c1 = np.array([[a0]]), np.array([[a1]])
    else:
        c0 = np.array([[a0, b0], [0, 1]])
        c1 = np.array([[a1, b1], [0, 1]])

    def rho(m):
        return float(np.max(np.abs(np.linalg.eigvals(m.astype(float)))))

    return rho(c0 + c1), max(rho(c0), rho(c1))
