"""Coefficient recursion, limit products, 2B closed forms, Wiener averages."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ghostmeasure import (
    AffineParams,
    DomainError,
    ResourceCapError,
    big_sigma,
    catalog_lookup,
    coeff_limit,
    coeff_limit_2b,
    coeff_recursive,
    coeff_table,
    coefficient_bracket,
    domination_constant,
    kappa_1b,
    l2_norm_2b,
    magnitude_sq_1b,
    sigma_inf,
    sigma_norm,
    wiener_average,
    wiener_profile,
)
from ghostmeasure.fourier import TAU, _held

from comb_fft import comb_fft

CATALOG_NAMES = [
    "constant", "identity", "gould_g", "gould_G", "ruler_r",
    "ruler_R", "cantor", "no_ap", "moser_de_bruijn", "trivial_pp",
]

IDENTITY = catalog_lookup("identity").params


def odd_part(t):
    t = abs(t)
    while t % 2 == 0:
        t //= 2
    return t


# ----------------------------------------------------------------------
# coeff_recursive against the comb oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_recursive_matches_direct(name):
    p = catalog_lookup(name).params
    for level in (6, 10):
        fft, _ = comb_fft(p, level)
        for t in range(-8, 9):
            got = coeff_recursive(p, level, t)
            want = fft[t % (1 << level)]
            assert abs(got - want) <= 1e-10, (name, level, t)


def test_recursive_normalisation_and_indicator():
    for name in CATALOG_NAMES:
        assert coeff_recursive(catalog_lookup(name).params, 8, 0) == 1 + 0j
    uniform = AffineParams(2, 2, 0, 0, 1)
    for level in (4, 7):
        for t in range(-20, 21):
            v = coeff_recursive(uniform, level, t)
            if t % 2**level == 0:
                assert v == 1 + 0j
            else:
                assert abs(v) <= 1e-14


def test_recursive_level_guard():
    with pytest.raises(DomainError):
        coeff_recursive(IDENTITY, -1, 1)
    # mu_0 = delta_0: every coefficient is exactly 1, with bound 0
    tab = coeff_table(IDENTITY, [0, 1, -7, 2**70 + 1], level=0)
    assert tab.re.tolist() == [1.0] * 4 and tab.im.tolist() == [0.0] * 4
    assert tab.tail_bound.tolist() == [0.0] * 4
    for p in (AffineParams(1, 2, 0, 1, 0), AffineParams(0, 0, 1, 2, 0)):
        with pytest.raises(DomainError, match="total f\\(1\\) = 0"):
            coeff_table(p, [1], level=0)  # Sigma(0) = f(1) = 0: no comb
        assert abs(coeff_recursive(p, 1, 1)) <= 1  # Sigma(1) = b0 + b1 > 0


SMALL_PARAMS = [AffineParams(*c, 1) for c in itertools.product(range(3), repeat=4) if any(c)]


@pytest.mark.parametrize("level", [None, 3, 70])
def test_table_takes_ranges_as_their_ints(level):
    # A range stands for its ints, as an int64 np.arange where its ends fit
    # and as Python ints past int64: the same bits as the flat list of t.
    edge = 2**63
    for spans in ([range(1, 40)], [range(-50, -20), 7, 8, range(100, 90, -1), 0],
                  [3, range(edge - 5, edge + 5), range(-edge - 3, -edge + 3)], [], [range(0)],
                  [range(edge - 3, edge), range(-edge + 2, -edge - 1, -1)],
                  # Steps whose element count np.arange would round in doubles.
                  [range(-edge, edge - 1, edge - 1), range(edge - 1, -edge, 1 - edge),
                   range(-6, 2**62 + 6, 2**55)]):
        flat = [t for s in spans for t in ([s] if isinstance(s, int) else s)]
        for p in (catalog_lookup("gould_G").params, AffineParams(1, 2, 0, 1, 1), AffineParams(0, 0, 2, 1, 3)):
            got, want = coeff_table(p, spans, level=level), coeff_table(p, flat, level=level)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (spans, p, level)
    assert coeff_table(IDENTITY, range(5)).re.size == 5
    assert _held(range(edge - 3, edge)).dtype == np.int64


def test_level_tables_are_exactly_one_on_multiples_of_two_to_the_n():
    # mu_N^(t) = 1 wherever 2^N divides t, printed as exactly 1 with bound 0;
    # every other t of the table carries the one bound _level_bound(N, norm)
    entries = [catalog_lookup(name).params for name in CATALOG_NAMES] + SMALL_PARAMS
    for p in entries:
        for level in range(1, 30):
            ts = [1 << level, 3 << level, -(1 << level), 1, (1 << level) + 1]
            tab = coeff_table(p, ts, level=level)
            assert tab.re[:3].tolist() == [1.0] * 3 and tab.im[:3].tolist() == [0.0] * 3, (p, level)
            assert tab.tail_bound[:3].tolist() == [0.0] * 3
            assert tab.tail_bound[3] == tab.tail_bound[4] > 0


def mp_level_coeff(p, level, t):
    """mu_N^(t) by the closed formula of the fourier module at 50 digits:
    f(1) P_0 + sum_{2^(n-1) | t} 2^(n-1) (b0 + b1 e_n)/A^n P_n over sigma(N)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        prod, acc = mpmath.mpf(1), mpmath.mpf(0)
        for n in range(level, 0, -1):
            e = mpmath.expjpi(-2 * mpmath.mpf(t % (1 << n)) / (1 << n))
            if t % (1 << (n - 1)) == 0:
                acc += mpmath.mpf(2)**(n - 1) * (p.b0 + p.b1 * e) / mpmath.mpf(p.a)**n * prod
            prod *= (p.a0 + p.a1 * e) / p.a
        acc += p.f1 * prod
        return acc * mpmath.mpf(p.a)**level / big_sigma(p, level)


def test_level_tables_within_bound_of_50_digit_formula():
    # Levels whose comb no sum could reach, t beyond 2^63, and the 2^80 set
    # whose A^n leaves the double range from n = 13 on (one scale 2^(n-1)/A^n)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(23)
    cases = [(p, level, [rng.randrange(1, 1 << 70) for _ in range(8)]
              + [rng.randrange(1, 1 << 20) << rng.randrange(0, min(level, 40)) for _ in range(8)])
             for p in (AffineParams(1, 2, 0, 0, 2), AffineParams(2, 2, 0, 1, 1),
                       AffineParams(1, 2, 0, 1, 1), AffineParams(6, 9, 1, 2, 1),
                       AffineParams(2**80, 2**80 - 1, 0, 1, 1))
             for level in (6, 12, 18, 40, 200)]
    cases.append((AffineParams(2**80, 2**80 - 1, 0, 1, 1), 18, [4096, 8192, 3]))
    cases.append((AffineParams(2**80, 2**80 - 1, 0, 1, 1), 1100, [2**64, 3 * 2**65, -(2**70)]))
    cases.append((AffineParams(1, 2, 0, 1, 1), 1100, [2**1000, 3 * 2**700]))
    worst = 0.0
    for p, level, ts in cases:
        tab = coeff_table(p, ts, level=level)
        for i, t in enumerate(ts):
            exact = mp_level_coeff(p, level, t)
            err = float(abs(mpmath.mpc(tab.re[i], tab.im[i]) - exact))
            # 1e-40 covers the 50-digit formula's own rounding
            assert err <= tab.tail_bound[i] + 1e-40, (p, level, t, err, tab.tail_bound[i])
            worst = max(worst, err / 2.0**-53)
    print(f"largest error against the 50-digit formula: {worst:.2f} u")


def test_trig_within_one_ulp():
    """The phase assumption of _level_bound: numpy's and libm's cos and sin are
    within 1 ulp at the angles TAU * (r 2^-n) the kernel forms, r odd."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(11)
    angles = []
    for _ in range(3000):
        n = rng.randint(3, 1022)
        r = rng.randrange(1, 1 << min(n, 63)) | 1
        angles.append(TAU * (float(r) * math.ldexp(1.0, -n)))
    angles += [TAU * (r / 8) for r in (1, 3, 5, 7)] + [TAU * math.ldexp(1.0, -1022)]
    a = np.array(angles)
    with mpmath.workprec(200):
        for x, c, s in zip(angles, np.cos(a).tolist(), np.sin(a).tolist()):
            exact_c, exact_s = mpmath.cos(x), mpmath.sin(x)
            for got, exact in ((c, exact_c), (math.cos(x), exact_c), (s, exact_s), (math.sin(x), exact_s)):
                assert abs(got - exact) <= math.ulp(float(exact)), x


def parseval_sum(p, level) -> Fraction:
    """sum_{t mod 2^N} |mu_N^(t)|^2 = 2^N S2(N)/Sigma(N)^2, exactly, with
    S2(N) = (A0^2 + A1^2) S2(N-1) + 2 (A0 b0 + A1 b1) Sigma(N-1)
    + (b0^2 + b1^2) 2^(N-1) the sum of the squared atoms, S2(0) = f(1)^2."""
    s2 = p.f1**2
    for n in range(1, level + 1):
        s2 = ((p.a0**2 + p.a1**2) * s2 + 2 * (p.a0 * p.b0 + p.a1 * p.b1) * big_sigma(p, n - 1)
              + (p.b0**2 + p.b1**2) * 2**(n - 1))
    return Fraction(2**level * s2, big_sigma(p, level)**2)


@pytest.mark.parametrize("p", [AffineParams(1, 2, 0, 1, 1), AffineParams(6, 9, 1, 2, 1),
                               AffineParams(2, 2, 0, 1, 1), AffineParams(3, 0, 0, 1, 1),
                               AffineParams(0, 0, 2, 1, 3)], ids=str)
def test_full_period_within_summed_bounds_of_parseval(p):
    # |sum |mu^|^2 - sum |mu|^2| <= sum B (2 |mu^| + B), plus u of the sum
    # for the rounded squares fsum adds exactly
    for level in (8, 14, 18):
        tab = coeff_table(p, range(1 << level), level=level)
        got = math.fsum(np.concatenate([tab.re**2, tab.im**2]).tolist())
        b = tab.tail_bound
        slack = math.fsum((b * (2 * tab.abs + b)).tolist()) + got * 2.0**-52 + 2.0**-1000
        assert abs(Fraction(got) - parseval_sum(p, level)) <= Fraction(slack * (1 + 2.0**-30)), level


# ----------------------------------------------------------------------
# coeff_limit
# ----------------------------------------------------------------------

def test_numpy_transcendentals_match_libm():
    # The batched kernel takes its phases from np.cos/np.sin and its moduli
    # from np.hypot; the scalar formula takes them from math.cos/math.sin and
    # abs(complex).  A numpy build whose SIMD versions differ in the last bit
    # would change printed coefficients.
    rng = random.Random(20250810)
    angles = [TAU * (r / (1 << n)) for n in range(1, 63)
              for r in (rng.randrange(1, 1 << n) for _ in range(64))]
    a = np.array(angles)
    for name, vec, scalar in (("cos", np.cos, math.cos), ("sin", np.sin, math.sin)):
        bad = [x for x, v in zip(angles, vec(a).tolist()) if v.hex() != scalar(x).hex()]
        assert not bad, f"np.{name} differs from math.{name} at {len(bad)} phase angles, e.g. {bad[0]!r}"
    parts = [(rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 0),
              rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 0)) for _ in range(4000)]
    re, im = np.array(parts).T
    bad = [z for z, h in zip(parts, np.hypot(re, im).tolist()) if h.hex() != abs(complex(*z)).hex()]
    assert not bad, f"np.hypot differs from abs(complex) at {len(bad)} points, e.g. {bad[0]!r}"


def test_limit_at_zero_and_2a():
    for name in CATALOG_NAMES:
        cv = coeff_limit(catalog_lookup(name).params, 0)
        assert cv.value == 1 + 0j and cv.tail_bound == 0.0
    for name in ("constant", "gould_g", "ruler_r", "ruler_R"):
        cv = coeff_limit(catalog_lookup(name).params, 5)
        assert cv.value == 0j and cv.tail_bound == 0.0


def test_limit_tolerance_guard():
    with pytest.raises(DomainError):
        coeff_limit(IDENTITY, 1, tol=0.0)


def test_limit_value_magnitude_invariant():
    for name in ("identity", "gould_G", "cantor", "trivial_pp"):
        p = catalog_lookup(name).params
        for t in (1, 2, 3, 7, -5):
            cv = coeff_limit(p, t)
            assert abs(cv.value) <= 1 + cv.tail_bound + 1e-12


def test_limit_1b_scaling_relation():
    p = catalog_lookup("gould_G").params
    for t in list(range(1, 65)):
        a = coeff_limit(p, t, 1e-13).value
        b = coeff_limit(p, 2 * t, 1e-13).value
        assert abs(a - b) <= 1e-10, t


def test_limit_1c_is_delta_at_zero():
    for p in (catalog_lookup("trivial_pp").params, AffineParams(0, 3, 0, 0, 2)):
        for t in (1, 5, -12):
            cv = coeff_limit(p, t, 1e-11)
            assert abs(cv.value - 1) <= cv.tail_bound + 1e-11


def test_limit_agrees_with_deep_recursion():
    # A > 2: the level-24 recursion is within the sigma(24) offset plus the
    # two product truncations (its own stops at factor 24) of the limit
    for name in ("identity", "gould_G", "cantor", "no_ap", "moser_de_bruijn"):
        p = catalog_lookup(name).params
        slack = 2 * abs(float(sigma_norm(p, 24) / sigma_inf(p)) - 1)
        for t in (1, 3, 8, 21):
            cv = coeff_limit(p, t, 1e-12)
            deep = coeff_recursive(p, 24, t)
            depth_term = max(p.a0, p.a1) * 2 * math.pi * t / (p.a * 2**24)
            assert abs(cv.value - deep) <= cv.tail_bound + slack + depth_term + 1e-9, (name, t)


def test_limit_levy_convergence_witness():
    # comb coefficients are Cauchy in N and land on the limit
    for name in CATALOG_NAMES:
        p = catalog_lookup(name).params
        for t in (1, 7, 32):
            seq = [comb_fft(p, n)[0][t] for n in range(8, 17)]
            diffs = [abs(b - a) for a, b in zip(seq, seq[1:])]
            assert max(diffs[-3:]) <= max(diffs[:3]) + 1e-12, (name, t)
            dist = abs(seq[-1] - coeff_limit(p, t, 1e-12).value)
            first = abs(seq[0] - coeff_limit(p, t, 1e-12).value)
            assert dist <= 1e-10 or dist < first / 1.5, (name, t)


# ----------------------------------------------------------------------
# case 2B closed form
# ----------------------------------------------------------------------

def test_2b_identity_coefficient_values():
    # analytic integration of (2+2x)/3 e^{-2 pi i t x}: i/(3 pi t') at t = 2^a
    cv1 = coeff_limit_2b(IDENTITY, 1)
    assert abs(cv1.value - complex(0, 1 / (3 * math.pi))) <= 1e-14
    assert cv1.tail_bound == 0.0
    cv2 = coeff_limit_2b(IDENTITY, 2)
    assert abs(cv2.value - complex(0, 1 / (6 * math.pi))) <= 1e-14
    # conjugate symmetry through negative t
    cvm = coeff_limit_2b(IDENTITY, -1)
    assert abs(cvm.value - cv1.value.conjugate()) <= 1e-15


def test_2b_identity_against_quadrature():
    # Simpson quadrature of g(x) e^{-2 pi i t x} with g = (2+2x)/3
    n = 1 << 12
    h = 1.0 / n
    for t in (1, 2, 5):
        def f(x):
            return (2 + 2 * x) / 3 * cmath.exp(-2j * math.pi * t * x)
        acc = f(0) + f(1)
        acc += 4 * sum(f((2 * k + 1) * h) for k in range(n // 2))
        acc += 2 * sum(f((2 * k) * h) for k in range(1, n // 2))
        integral = acc * h / 3
        assert abs(coeff_limit_2b(IDENTITY, t).value - integral) <= 1e-10, t


def test_2b_viete_magnitude_law():
    # |mu^(2^a b)| = (1/(6 2^a)) * (2/(pi |b|)) for the identity parameters
    for a in range(0, 7):
        for b in range(1, 32, 2):
            t = 2**a * b
            got = abs(coeff_limit_2b(IDENTITY, t).value)
            want = (1 / (6 * 2**a)) * (2 / (math.pi * b))
            assert abs(got - want) <= 1e-10, (a, b)


def test_2b_matches_general_limit_product():
    for name in ("identity", "cantor", "no_ap"):
        p = catalog_lookup(name).params
        for t in (1, 2, 3, 6, 11, 28):
            closed = coeff_limit_2b(p, t).value
            product = coeff_limit(p, t, 1e-13).value
            assert abs(closed - product) <= 1e-10, (name, t)


def test_2b_equal_offsets_vanish():
    p = AffineParams(2, 2, 1, 1, 1)
    for t in (1, 2, 7):
        assert coeff_limit_2b(p, t).value == 0j
    with pytest.raises(DomainError):
        coeff_limit_2b(catalog_lookup("gould_G").params, 1)
    with pytest.raises(DomainError):
        coeff_limit_2b(IDENTITY, 0)


def test_2b_odd_part_beyond_double_range():
    # the value underflows towards zero, but the odd part itself has no double
    assert coeff_limit_2b(IDENTITY, 3**600).value.imag > 0
    for t in (3**700, -(3**700), 2**5 * 3**700):
        with pytest.raises(DomainError):
            coeff_limit_2b(IDENTITY, t)


def test_2b_riemann_lebesgue_decay():
    # the decay envelope along both the a and b directions
    p = catalog_lookup("cantor").params
    bound = lambda a, b: (abs(p.b0 - p.b1) / (2 * float(sigma_inf(p)))) \
        * (1 / p.a0 ** (a + 1)) * (2 / (math.pi * b))
    vals_a = [abs(coeff_limit_2b(p, 2**a).value) for a in range(8)]
    vals_b = [abs(coeff_limit_2b(p, b).value) for b in range(1, 64, 2)]
    assert all(x > y for x, y in zip(vals_a, vals_a[1:]))
    assert all(x > y for x, y in zip(vals_b, vals_b[1:]))
    for a in range(8):
        for b in range(1, 64, 2):
            assert abs(coeff_limit_2b(p, 2**a * b).value) <= bound(a, b) + 1e-15


def test_2b_parseval_partial_sums():
    # 1 + 2 sum_{t<=T} |mu^(t)|^2 increases to ||g||_2^2; at T = 2^14 the gap
    # is below the analytic tail bound
    p = IDENTITY
    target = float(l2_norm_2b(p))
    c = (p.b0 - p.b1) ** 2 / (math.pi ** 2 * float(sigma_inf(p)) ** 2)
    a_val = p.a0
    T = 1 << 14
    partial = 1.0
    checkpoints = {}
    for t in range(1, T + 1):
        b = odd_part(t)
        a = (t // b).bit_length() - 1
        partial += 2 * c / (a_val ** (2 * a + 2) * b * b)
        if t in (1 << 6, 1 << 10, T):
            checkpoints[t] = partial
    assert checkpoints[1 << 6] < checkpoints[1 << 10] < checkpoints[T] < target
    # tail: odd b > T/2^a for a <= log2 T, everything for larger a; the
    # factor 2 covers the symmetric negative frequencies
    log_t = T.bit_length() - 1
    tail = 0.0
    for a in range(log_t + 1):
        m = T >> a
        tail += c / a_val ** (2 * a + 2) * (1 / (2 * (m - 1)) if m > 1 else math.pi**2 / 8)
    tail += c * (math.pi ** 2 / 8) / (a_val ** (2 * log_t + 4)) / (1 - 1 / a_val**2)
    assert target - checkpoints[T] <= 2 * tail


def test_l2_norm_values():
    assert l2_norm_2b(IDENTITY) == Fraction(28, 27)
    assert l2_norm_2b(AffineParams(2, 2, 1, 1, 1)) == 1
    assert l2_norm_2b(catalog_lookup("cantor").params) == Fraction(19, 18)
    with pytest.raises(DomainError):
        l2_norm_2b(catalog_lookup("gould_G").params)


def test_l2_norm_cantor_against_grid_integration():
    # cell average of the truncated density squared over 4096 cells
    p = catalog_lookup("cantor").params
    from ghostmeasure import density
    d = 12
    total = Fraction(0)
    for k in range(1 << d):
        e = density(p, format(k, f"0{d}b"), 20).exact
        total += e * e
    grid = total / (1 << d)
    assert abs(float(grid) - float(l2_norm_2b(p))) <= 1e-4


def viete_square_sum(terms: int = 8192, depth: int = 52) -> float:
    """sum_{c=0}^{terms-1} prod_{j=1..depth} cos^2(pi (c+1/2)/2^j).

    Numeric witness for the identity behind the L2 computation: the full
    sum equals 1/2, with tail below 1/(pi^2 * terms).
    """
    total = 0.0
    for c in range(terms):
        x = math.pi * (c + 0.5)
        p = 1.0
        for j in range(1, depth + 1):
            p *= math.cos(math.ldexp(x, -j)) ** 2
            if p == 0.0:
                break
        total += p
    return total


def test_viete_square_sum_is_half():
    s = viete_square_sum(terms=8192, depth=52)
    assert abs(s - 0.5) <= 1 / (math.pi**2 * 8192) + 1e-9


# ----------------------------------------------------------------------
# magnitude products, kappa, domination (cases 1B / 2C)
# ----------------------------------------------------------------------

def test_magnitude_sq_basics():
    p = catalog_lookup("gould_G").params
    assert magnitude_sq_1b(p, 0, 64) == 1.0
    m1 = magnitude_sq_1b(p, 1, 64)
    assert 0.0 < m1 < 1.0
    assert abs(m1 - abs(coeff_limit(p, 1, 1e-13).value) ** 2) <= 1e-8
    assert magnitude_sq_1b(p, 0.2, 64) > magnitude_sq_1b(p, 0.8, 64)
    grid = [magnitude_sq_1b(p, k / 50, 64) for k in range(51)]
    assert all(x > y for x, y in zip(grid, grid[1:]))
    with pytest.raises(DomainError):
        magnitude_sq_1b(AffineParams(2, 2, 0, 0, 1), 1)


def test_magnitude_sq_decreasing_in_depth():
    p = catalog_lookup("gould_G").params
    vals = [magnitude_sq_1b(p, 1, d) for d in (4, 8, 16, 32, 64)]
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


def test_kappa_below_one():
    assert 0.0 < kappa_1b(AffineParams(1, 2, 0, 0, 1), 512) < 1.0
    assert 0.0 < kappa_1b(AffineParams(1, 3, 0, 0, 1), 512) < 1.0
    k = kappa_1b(AffineParams(1, 2, 0, 0, 1), 512)
    assert k >= magnitude_sq_1b(AffineParams(1, 2, 0, 0, 1), 1.0, 64) - 1e-12
    with pytest.raises(DomainError):
        kappa_1b(AffineParams(2, 2, 0, 0, 1))
    with pytest.raises(DomainError):
        kappa_1b(AffineParams(1, 2, 1, 0, 1))  # inhomogeneous: case 2C


def test_domination_by_homogeneous_product():
    # |mu^(t)| <= K |nu^(t)| with the explicit constant, checked to |t| = 2^12
    for p in (AffineParams(1, 2, 1, 0, 1), AffineParams(2, 1, 0, 3, 1),
              AffineParams(1, 4, 2, 1, 1), AffineParams(3, 2, 1, 1, 0)):
        hom = AffineParams(p.a0, p.a1, 0, 0, 1)
        K = domination_constant(p)
        cache = {}
        mus = coeff_table(p, range(1, (1 << 12) + 1), 1e-12).abs.tolist()
        for t, mu in enumerate(mus, start=1):
            b = odd_part(t)
            if b not in cache:
                cache[b] = math.sqrt(magnitude_sq_1b(hom, b, 64))
            assert mu <= K * cache[b] + 1e-9, (p, t)


def test_parameters_beyond_double_range_are_domain_errors():
    # A0 = 10^400 or b0 = 10^400 has no double: a DomainError, not an
    # OverflowError, from the closed forms and from the A = 0 recursion
    big = 10**400
    for call in (lambda: magnitude_sq_1b(AffineParams(big, 1, 0, 0, 1), 1),
                 lambda: kappa_1b(AffineParams(big, 1, 0, 0, 1)),
                 lambda: domination_constant(AffineParams(big, 1, 0, 1, 1)),
                 lambda: coeff_recursive(AffineParams(0, 0, big, 1, 1), 3, 4)):
        with pytest.raises(DomainError, match="leaves the double range"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: magnitude_sq_1b(AffineParams(1, 2, 0, 0, 1), 1, 0), "depth must be >= 1"),
    (lambda: kappa_1b(AffineParams(1, 2, 0, 0, 1), 1), "grid_size must be >= 2"),
    (lambda: coefficient_bracket(AffineParams(1, 2, 1, 0, 1), -1), "a_val must be >= 0"),
    (lambda: domination_constant(AffineParams(1, 2, 0, 0, 1)), "domination constant requires case 2C"),
    (lambda: wiener_profile(AffineParams(1, 2, 0, 0, 1), [-1]), "Wiener levels must be >= 0"),
], ids=["magnitude_depth", "kappa_grid", "bracket_a", "domination_1b", "wiener_level"])
def test_arguments_out_of_domain_are_domain_errors(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_2c_bracket_identity():
    # mu^(2^a b) = nu^(2^a b) * bracket(a) / sigma_inf, exactly in structure
    p = AffineParams(1, 2, 1, 0, 1)
    hom = AffineParams(1, 2, 0, 0, 1)
    s_inf = float(sigma_inf(p))
    for a in range(0, 7):
        for b in (1, 3, 5, 9):
            t = 2**a * b
            nu = coeff_limit(hom, t, 1e-13).value
            want = nu * float(coefficient_bracket(p, a)) / s_inf
            got = coeff_limit(p, t, 1e-13).value
            assert abs(got - want) <= 1e-9, (a, b)
    with pytest.raises(DomainError):
        coefficient_bracket(IDENTITY, 1)


# ----------------------------------------------------------------------
# Wiener averages
# ----------------------------------------------------------------------

def test_wiener_1a_vanishes():
    prof = wiener_profile(AffineParams(2, 2, 0, 0, 1), range(1, 9))
    assert all(v == 0.0 for v in prof.values())


def test_wiener_1b_decreasing_with_envelope():
    p = AffineParams(1, 2, 0, 0, 1)
    prof = wiener_profile(p, range(0, 13))
    kappa = kappa_1b(p, 512)
    top = max(prof[0], prof[1])
    for n in range(6, 13):
        assert prof[n] < prof[n - 1]
        assert prof[n] <= ((3 + kappa) / 4) ** (n / 2) * top


def test_wiener_2d_bounded_below():
    # atoms persist: W_N tends to the sum of squared masses, 2/7 for (3,0,0,1)
    p = AffineParams(3, 0, 0, 1, 1)
    prof = wiener_profile(p, [6, 10, 12])
    for v in prof.values():
        assert v >= 0.2
    assert abs(prof[12] - 2 / 7) < 5e-3


def test_wiener_caps_and_average():
    with pytest.raises(ResourceCapError):
        wiener_average(AffineParams(1, 2, 0, 0, 1), 15)
    w = wiener_average(AffineParams(1, 2, 0, 0, 1), 4)
    assert w == wiener_profile(AffineParams(1, 2, 0, 0, 1), [4])[4]


def test_float_power_squares_as_python_pow():
    """wiener_profile squares the moduli with np.float_power(x, 2.0), which
    must equal Python's x ** 2 (the C library's pow) bit for bit; x*x and
    np.power(x, 2) square instead and differ in the last bit for some x.
    A fixed-seed sample of 10^6 doubles spread over every binade whose
    square is finite (subnormal squares included), plus [0, 1), where every
    modulus lies, and the signed zeros and the smallest subnormal."""
    rng = np.random.default_rng(20260)
    spread = (1.0 + rng.random(10**6)) * np.ldexp(1.0, rng.integers(-1075, 511, 10**6))
    xs = np.concatenate([spread, rng.random(10**5), [0.0, -0.0, 5e-324, 1.0]])
    got = np.float_power(xs, 2.0).tolist()
    want = [x ** 2 for x in xs.tolist()]
    assert [x.hex() for x in got] == [x.hex() for x in want]
