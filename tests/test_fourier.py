"""Coefficient recursion, limit products, 2B closed forms, Wiener averages."""

import cmath
import math
from fractions import Fraction

import pytest

from ghostmeasure import (
    AffineParams,
    DomainError,
    ResourceCapError,
    build_comb,
    catalog_lookup,
    coeff_limit,
    coeff_limit_2b,
    coeff_recursive,
    coefficient_bracket,
    direct_fourier,
    domination_constant,
    kappa_1b,
    l2_norm_2b,
    magnitude_sq_1b,
    sigma_inf,
    sigma_norm,
    wiener_average,
    wiener_profile,
)

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
        comb = build_comb(p, level)
        for t in range(-8, 9):
            got = coeff_recursive(p, level, t)
            want = direct_fourier(comb, t)
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
        coeff_recursive(IDENTITY, 0, 1)


# ----------------------------------------------------------------------
# coeff_limit
# ----------------------------------------------------------------------

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
            seq = [direct_fourier(build_comb(p, n), t) for n in range(8, 17)]
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
        for t in range(1, (1 << 12) + 1):
            b = odd_part(t)
            if b not in cache:
                cache[b] = math.sqrt(magnitude_sq_1b(hom, b, 64))
            mu = abs(coeff_limit(p, t, 1e-12).value)
            assert mu <= K * cache[b] + 1e-9, (p, t)


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
