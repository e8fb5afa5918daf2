"""Acceptance suite: one test per criterion, with a printed pass/fail line.

Run `pytest tests/test_acceptance.py -s` to see every line.  Criterion 9a
is kept exactly as specified and fails by design of the numbers, not of
the code: at j = 64 the almost-sure collapse of the derivative ratios has
not set in numerically (the log-ratio drift for (1,2,1,0) is -ln(9/8)/2
per digit, so balanced strings sit near 3.5e-2 and only ~40 of 100 land
below 1e-2; a 95/100 count needs j around 200 or more).  The identical
witness at j = 256 reaches 97/100 and passes in tests/test_ghost.py.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from ghostmeasure import (
    AffineParams,
    DyadicInterval,
    big_sigma,
    build_comb,
    catalog_lookup,
    classify,
    coeff_limit,
    coeff_limit_2b,
    coeff_recursive,
    density,
    eval_region,
    kappa_1b,
    interval_mass,
    interval_measure,
    lambda_threshold,
    l2_norm_2b,
    point_mass,
    point_mass_tail,
    point_mass_total,
    ratio_sequence_exact,
    sigma_norm,
    spectral_diagnostic,
    wiener_profile,
)
from ghostmeasure.ghost import DEFAULT_WITNESS_SEED

from comb_fft import comb_fft

IDENTITY = catalog_lookup("identity").params

CATALOG_NAMES = [
    "constant", "identity", "gould_g", "gould_G", "ruler_r",
    "ruler_R", "cantor", "no_ap", "moser_de_bruijn", "trivial_pp",
]


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    return ok


# ----------------------------------------------------------------------

def test_c01_catalog_sigma_identities():
    """Closed Sigma(N) forms against direct region summation, N = 1..20."""
    start = time.perf_counter()
    expected = {
        "gould_G": lambda n: 2 * 3**n,
        "gould_g": lambda n: 2**(n - 1) * (n + 2),
        "ruler_r": lambda n: 2**n - 1,
        "ruler_R": lambda n: 2**(n - 1) * (n + 2),
    }
    ok = True
    for name, closed in expected.items():
        entry = catalog_lookup(name)
        for level in range(1, 21):
            s = big_sigma(entry.params, level)
            ok &= s == closed(level)
            ok &= s == sum(eval_region(entry.params, level))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert report("C1 catalog Sigma identities",
                  ok, f"4 sequences x N=1..20 exact, {elapsed:.2f}s (< 10s)")


def test_c02_fourier_oracle_equivalence():
    """coeff_recursive vs direct comb sums (one FFT of the atoms) on every catalog entry."""
    start = time.perf_counter()
    worst = 0.0
    for name in CATALOG_NAMES:
        p = catalog_lookup(name).params
        for level in (6, 10, 12):
            fft, _ = comb_fft(p, level)
            for t in range(-32, 33):
                err = abs(coeff_recursive(p, level, t) - fft[t % (1 << level)])
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    assert report("C2 Fourier oracle equivalence",
                  ok, f"10 entries x N in (6,10,12) x t in [-32,32], "
                      f"max err {worst:.2e} (<= 1e-10), {elapsed:.1f}s (< 60s)")


def test_c03_identity_density_and_l2():
    """Density of f(n)=n is (2+2x)/3; L2 norm 28/27 exact and by quadrature."""
    worst = 0.0
    for k in range(1024):
        est = density(IDENTITY, format(k, "010b"), 40)
        worst = max(worst, abs(est.value - (2 + 2 * k / 1024) / 3))
    l2 = l2_norm_2b(IDENTITY)
    ok = worst <= 1e-9 and l2 == Fraction(28, 27)
    # trapezoid integration of g^2 over 4096 cells (g is linear here)
    n = 4096
    samples = [density(IDENTITY, format(k, "012b"), 40).value ** 2 for k in range(n)]
    samples.append(density(IDENTITY, "1" * 40, 40).value ** 2)  # x -> 1
    integral = (samples[0] / 2 + sum(samples[1:-1]) + samples[-1] / 2) / n
    gap = abs(integral - float(l2))
    ok &= gap <= 1e-6
    assert report("C3 identity-sequence density",
                  ok, f"1024 points max err {worst:.2e} (<= 1e-9), "
                      f"l2 = 28/27 exact, quadrature gap {gap:.2e} (<= 1e-6)")


def test_c04_2b_closed_coefficient():
    """Closed 2B coefficient: i/(3 pi) at t=1 and the magnitude law."""
    got = coeff_limit_2b(IDENTITY, 1).value
    err1 = abs(got - complex(0.0, 1.0 / (3.0 * math.pi)))
    worst = 0.0
    for a in range(0, 7):
        for b in range(1, 32, 2):
            mag = abs(coeff_limit_2b(IDENTITY, 2**a * b).value)
            law = (1.0 / (6.0 * 2**a)) * (2.0 / (math.pi * b))
            worst = max(worst, abs(mag - law))
    ok = err1 <= 1e-10 and worst <= 1e-10
    assert report("C4 2B coefficient closed form",
                  ok, f"|mu^(1) - i/(3pi)| = {err1:.2e}, magnitude law "
                      f"max err {worst:.2e} over a<=6, odd b<=31 (<= 1e-10)")


def _oracle_case(a0, a1, b0, b1):
    """Hand-encoded decision table, written independently of classify()."""
    homogeneous = (b0 + b1 == 0)
    table = [
        ("1A", homogeneous and a0 == a1 and a0 != 0),
        ("1B", homogeneous and 0 not in (a0, a1) and a0 != a1),
        ("1C", homogeneous and 0 in (a0, a1)),
        ("2A", not homogeneous and a0 + a1 <= 2),
        ("2B", not homogeneous and a0 == a1 and a0 > 1),
        ("2C", not homogeneous and 0 not in (a0, a1) and a0 != a1 and a0 + a1 >= 3),
        ("2D", not homogeneous and 0 in (a0, a1) and max(a0, a1) >= 3),
    ]
    hits = [case for case, cond in table if cond]
    assert len(hits) == 1, (a0, a1, b0, b1)
    return hits[0]


_ORACLE_KIND = {
    "1A": "lebesgue", "1B": "singular-continuous", "1C": "pure-point",
    "2A": "lebesgue", "2B": "absolutely-continuous",
    "2C": "singular-continuous", "2D": "pure-point",
}


def test_c05_classification_sweep():
    """classify() vs the decision table and the spectral-ratio pattern."""
    mismatches = 0
    ratio_violations = 0
    count = 0
    for a0 in range(6):
        for a1 in range(6):
            for b0 in range(6):
                for b1 in range(6):
                    if a0 == a1 == b0 == b1 == 0:
                        continue
                    count += 1
                    p = AffineParams(a0, a1, b0, b1, 1)
                    cls = classify(p)
                    case = _oracle_case(a0, a1, b0, b1)
                    if cls.case != case or cls.kind.value != _ORACLE_KIND[case]:
                        mismatches += 1
                        continue
                    r = spectral_diagnostic(p).log_ratio
                    if cls.kind.value in ("lebesgue", "absolutely-continuous"):
                        exceptional = (b0 + b1 > 0 and {a0, a1} == {0, 2})
                        good = r == (0.0 if exceptional else 1.0)
                    elif cls.kind.value == "singular-continuous":
                        good = 0.0 < r < 1.0
                    else:
                        good = r == 0.0
                    ratio_violations += not good
    ok = mismatches == 0 and ratio_violations == 0
    assert report("C5 classification sweep",
                  ok, f"{count} tuples: {mismatches} table mismatches, "
                      f"{ratio_violations} spectral-pattern violations")


def test_c06_interval_measure_convergence():
    """Comb -> limit convergence carries the proof's exact remainder.

    At N = i + c the difference is exactly
        (b/(A-2)) (2/A)^c / (A^i sigma(N)) * (1 - 2^i mu(E)),
    asserted as an identity of rationals for 20 seeded 2B/2C draws, plus
    the geometric decay in c.  The |1 - 2^i mu(E)| factor is part of the
    remainder; the plainer envelope without it holds whenever
    2^i mu(E) <= 2, which covers every 2B draw.
    """
    rng = random.Random(DEFAULT_WITNESS_SEED)
    identity_ok = True
    decay_ok = True
    envelope_hits = 0
    envelope_eligible = 0
    for k in range(20):
        if k % 2 == 0:
            a = rng.randint(2, 4)
            p = AffineParams(a, a, rng.randint(0, 3), rng.randint(1, 3), 1)
        else:
            a0, a1 = rng.sample([1, 2, 3, 4], 2)
            p = AffineParams(a0, a1, rng.randint(0, 3), rng.randint(1, 3), 1)
        i = rng.randint(1, 8)
        e = DyadicInterval(tuple(rng.randint(0, 1) for _ in range(i)))
        mu = interval_measure(p, e)
        ratio = 2**i * mu
        diffs = {}
        for c in range(8, 15):
            level = i + c
            diff = mu - interval_mass(build_comb(p, level), e)
            remainder = (Fraction(p.b, p.a - 2) * Fraction(2, p.a) ** c
                         / (p.a**i * sigma_norm(p, level)) * (1 - ratio))
            identity_ok &= diff == remainder
            diffs[c] = abs(diff)
            if ratio <= 2:
                envelope_eligible += 1
                envelope_hits += abs(diff) <= (Fraction(p.b, 1) / sigma_norm(p, level)
                                               * Fraction(2, p.a) ** c
                                               / (p.a - 2) / p.a**i)
        if diffs[8] > 0:
            decay_ok &= diffs[14] <= diffs[8] * Fraction(2, p.a) ** 6
    ok = identity_ok and decay_ok and envelope_hits == envelope_eligible
    assert report("C6 interval-measure convergence",
                  ok, f"20 draws, c=8..14: exact remainder identity {identity_ok}, "
                      f"(2/A)^c decay {decay_ok}, plain envelope "
                      f"{envelope_hits}/{envelope_eligible} where applicable")


def test_c07_wiener_dichotomy():
    """W_N contraction for the 1B pair (1,2); a positive floor for 2D."""
    start = time.perf_counter()
    p1b = AffineParams(1, 2, 0, 0, 1)
    kappa = kappa_1b(p1b, 512)
    prof = wiener_profile(p1b, range(0, 13))
    top = max(prof[0], prof[1])
    decreasing = all(prof[n] < prof[n - 1] for n in range(6, 13))
    envelope = all(prof[n] <= ((3 + kappa) / 4) ** (n / 2) * top for n in range(6, 13))
    p2d = AffineParams(3, 0, 0, 1, 1)
    prof2d = wiener_profile(p2d, range(1, 13))
    floor = all(v >= 0.2 for v in prof2d.values())
    elapsed = time.perf_counter() - start
    ok = kappa < 1 and decreasing and envelope and floor and elapsed < 300.0
    assert report("C7 Wiener dichotomy",
                  ok, f"kappa={kappa:.4f} (<1), W_6..12 decreasing={decreasing}, "
                      f"envelope={envelope}, 2D floor (N=1..12)={floor}, "
                      f"{elapsed:.1f}s (< 5min)")


def test_c08_2d_mass_completeness():
    """Atoms exhaust the measure; weights match comb atoms at N = 16.

    The partial sum is inclusive of level n_max (partial(0) = mu({0}),
    partial(1) = 2/3 for these parameters), so the exact geometric tail
    left over is (3/4)(2/3)^(n_max+1).
    """
    p = AffineParams(3, 0, 0, 1, 1)
    sums_ok = True
    for n_max in range(0, 31):
        partial, total = point_mass_total(p, n_max)
        tail = Fraction(3, 4) * Fraction(2, 3) ** (n_max + 1)
        sums_ok &= partial + tail == total == 1
        sums_ok &= point_mass_tail(p, n_max) == tail
    comb = build_comb(p, 16)
    worst = 0.0
    for bits in ("", "1", "01", "11", "001", "111", "0101", "110011"):
        e = DyadicInterval.from_bits(bits) if bits else DyadicInterval()
        idx = e.index << (16 - e.depth)
        got = Fraction(comb.weights[idx], comb.total)
        want = point_mass(p, bits)
        worst = max(worst, abs(float(got / want) - 1.0))
    ok = sums_ok and worst <= 1e-3
    assert report("C8 2D mass completeness",
                  ok, f"partial + (3/4)(2/3)^(n+1) == 1 exactly for n <= 30: {sums_ok}; "
                      f"comb atom weights at N=16 rel err {worst:.2e} (<= 1e-3)")


def test_c09a_2c_singularity_witness_fair_strings():
    """As specified: 95+ of 100 fair strings below 1e-2 at j = 64.

    Known red (see the module docstring): the asymptotic collapse has not
    set in at j = 64, and the count is deterministic for the documented
    seed.  The identical witness at j = 256 passes in test_ghost.py.
    """
    p = AffineParams(1, 2, 1, 0, 1)
    rng = random.Random(DEFAULT_WITNESS_SEED)
    hits = 0
    for _ in range(100):
        bits = [rng.randint(0, 1) for _ in range(64)]
        if ratio_sequence_exact(p, bits)[-1] < Fraction(1, 100):
            hits += 1
    ok = hits >= 95
    assert report("C9a 2C singularity witness (fair strings, j=64)",
                  ok, f"{hits}/100 below 1e-2, target 95+ "
                      f"(the collapse needs j around 200+; see module docstring)")


def test_c09b_2c_singularity_witness_all_ones():
    """The all-ones string grows like (4/3)^j: rate within 5% at j = 32."""
    p = AffineParams(1, 2, 1, 0, 1)
    exact = ratio_sequence_exact(p, [1] * 33)
    step = exact[32] / exact[31]
    geo_mean = float(exact[31]) ** (1 / 32.0)
    rate_err = abs(float(step) - 4 / 3) / (4 / 3)
    mean_err = abs(geo_mean - 4 / 3) / (4 / 3)
    closed_ok = exact[31] == Fraction(4, 3) ** 32 * (1 + Fraction(1, 2**32)) / 2
    ok = rate_err <= 0.05 and mean_err <= 0.05 and closed_ok
    assert report("C9b 2C singularity witness (all-ones growth)",
                  ok, f"step rate off 4/3 by {rate_err:.2e}, geometric mean by "
                      f"{mean_err:.2%} (<= 5%), closed form exact: {closed_ok}")


def test_c10_lambda_bound():
    """Lambda < 1/2 exhaustively for distinct positive pairs up to 64."""
    worst = 0.0
    for a0 in range(1, 65):
        for a1 in range(1, 65):
            if a0 == a1:
                continue
            worst = max(worst, lambda_threshold(AffineParams(a0, a1, 1, 0, 1)).lambda_cap)
    ok = worst < 0.5
    assert report("C10 Lambda bound", ok,
                  f"max Lambda over (1..64)^2 pairs = {worst:.6f} (< 0.5)")
