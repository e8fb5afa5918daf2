"""Check the benchmark's oracles against brute force on small combs.

The brute force is the program's materialised level-N comb (build_comb)
summed by plain Python loops, so each oracle is held to an answer it
shares no arithmetic with.  Runs in well under a second; every benchmark
run calls it before measuring.  Standalone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

import numpy as np

import oracles
from oracles import expect

# (A0, A1, b0, b1, f1): 1B, 2A, 2B, 2C both ways round, 2D, a big-valued 2C.
PARAMS = [
    (1, 2, 0, 0, 2),
    (1, 1, 0, 1, 1),
    (2, 2, 0, 1, 1),
    (3, 3, 0, 2, 1),
    (1, 2, 0, 1, 1),
    (2, 1, 1, 3, 2),
    (3, 0, 0, 1, 1),
    (6, 9, 1, 2, 1),
]
LEVEL = 7


def _brute_coeff(weights, total, t: int) -> complex:
    size = len(weights)
    return sum(w * cmath.exp(-2j * math.pi * ((t * n) % size) / size)
               for n, w in enumerate(weights)) / total


def check_params(p, build_comb, affine) -> None:
    comb = build_comb(affine(*p), LEVEL)
    w, total = list(comb.weights), comb.total
    size = 1 << LEVEL
    expect(oracles.region_total(p, LEVEL) == total == sum(w), f"{p}: Sigma({LEVEL})")
    running = 0
    for m in range(size + 1):
        expect(oracles.prefix_weight(p, LEVEL, m) == running, f"{p}: prefix weight {m}")
        if m < size:
            running += w[m]
    for k in range(9):
        x = Fraction(k, 8)
        idx = min(k * size // 8, size - 1)
        expect(oracles.cdf_value(p, LEVEL, x) == Fraction(sum(w[:idx + 1]), total), f"{p}: cdf({x})")
    for depth in range(4):
        for idx in range(1 << depth):
            bits = [int(c) for c in format(idx, f"0{depth}b")] if depth else []
            lo = idx << (LEVEL - depth)
            hi = lo + (1 << (LEVEL - depth))
            expect(oracles.dyadic_mass_level(p, LEVEL, bits) == Fraction(sum(w[lo:hi]), total),
                    f"{p}: interval {bits}")
    fft = oracles.fft_coeffs(p, LEVEL)
    ts = [1, 2, 3, 5, 12, 64, 127]
    kern = oracles.kernel_coeffs(p, ts, level=LEVEL)
    for t, k in zip(ts, kern):
        ref = _brute_coeff(w, total, t)
        expect(abs(fft[t] - ref) < 1e-12, f"{p}: fft coefficient {t}")
        expect(abs(k - ref) < 1e-12, f"{p}: level kernel coefficient {t}")


def check_limits() -> None:
    # Limit interval masses: the level-N masses close in at rate (2/A)^N.
    for p in [(1, 2, 0, 1, 1), (2, 2, 0, 1, 1), (6, 9, 1, 2, 1), (3, 0, 0, 1, 1)]:
        for bits in ([], [1], [0, 1, 1], [1, 0, 0, 1]):
            gap = abs(oracles.dyadic_mass_level(p, 80, bits) - oracles.dyadic_mass_limit(p, bits))
            expect(gap < 1e-9, f"{p}: limit mass {bits}")
    # Ratios: 2^j mu(E_j(x)) for every prefix of x, against the limit mass
    # and against the level-80 comb mass, in 2B and 2C both ways round.
    for p in [(2, 2, 0, 1, 1), (3, 3, 0, 2, 1), (1, 2, 0, 1, 1), (1, 2, 1, 0, 1), (2, 1, 1, 3, 2)]:
        bits = [1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1]
        for j, ratio in enumerate(oracles.ratio_limits(p, bits), start=1):
            expect(ratio == 2 ** j * oracles.dyadic_mass_limit(p, bits[:j]), f"{p}: ratio {j} against limit mass")
            level = 2 ** j * oracles.dyadic_mass_level(p, 80, bits[:j])
            expect(abs(ratio - level) < 1e-9, f"{p}: ratio {j} against level-80 mass")
    # The limit kernel is the level kernel at a deep level with sigma_inf.
    p = (1, 2, 0, 1, 1)
    ts = [1, 6, 40, 1000]
    gap = np.max(np.abs(oracles.kernel_coeffs(p, ts) - oracles.kernel_coeffs(p, ts, level=120)))
    expect(gap < 1e-12, "limit kernel against level 120")
    # 2B: the closed coefficient against the kernel.
    for p in [(2, 2, 0, 1, 1), (3, 3, 0, 2, 1)]:
        ts = [1, 2, 3, 8, 96, 1023]
        kern = oracles.kernel_coeffs(p, ts)
        for t, k in zip(ts, kern):
            expect(abs(oracles.coeff_2b(p, t) - k) < 1e-13, f"{p}: closed 2B coefficient {t}")
    # Density: 2^i mu(E_i(x)) tends to g(x) along the zero-padded prefix.
    for p in [(2, 2, 0, 1, 1), (3, 3, 0, 2, 1), (2, 2, 3, 1, 2)]:
        for bits in ([], [1], [0, 1, 1, 0, 1]):
            deep = bits + [0] * 60
            gap = abs(2 ** len(deep) * oracles.dyadic_mass_limit(p, deep) - oracles.density_limit(p, bits))
            expect(gap < 1e-15, f"{p}: density at {bits}")
    # 2D: atom weights against the comb's atom values, and full mass.
    p = (3, 0, 0, 1, 1)
    for n in range(6):
        x = [0] * (n - 1) + [1] if n else []
        atom = Fraction(oracles.leading_value(p, x + [0] * (40 - len(x))), oracles.region_total(p, 40))
        expect(abs(atom / oracles.point_mass_level(p, n) - 1) < 1e-6, f"{p}: atom weight {n}")
    for n_max in (0, 3, 20):
        partial = oracles.point_mass_level(p, 0) + sum(
            (1 << (n - 1)) * oracles.point_mass_level(p, n) for n in range(1, n_max + 1))
        expect(partial + oracles.point_mass_tail(p, n_max) == 1, f"{p}: mass accounting {n_max}")


def run() -> None:
    """Raise oracles.CheckError on the first oracle that disagrees with brute force."""
    from ghostmeasure.approximant import build_comb
    from ghostmeasure.sequence import AffineParams

    for p in PARAMS:
        check_params(p, build_comb, AffineParams)
    check_limits()


if __name__ == "__main__":
    import checkout
    checkout.use_source()
    run()
    print("oracles agree with brute force", file=sys.stderr)
