"""Comb construction, the comb's coefficients against comb sums, its region,
CDFs and interval masses."""

import cmath
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ghostmeasure import (
    AffineParams,
    DomainError,
    DyadicInterval,
    ResourceCapError,
    build_comb,
    catalog_lookup,
    cdf,
    cdf_series,
    coeff_recursive,
    coeff_table,
    eval_region,
    interval_mass,
)
from ghostmeasure import approximant
from ghostmeasure.cli import main

from comb_fft import comb_fft

CATALOG_NAMES = [
    "constant", "identity", "gould_g", "gould_G", "ruler_r",
    "ruler_R", "cantor", "no_ap", "moser_de_bruijn", "trivial_pp",
]


def fourier_oracle(weights, total, t):
    """Slow exact-phase reference sum (Fraction positions, cmath phases) over
    the comb's exact atoms."""
    size = len(weights)
    acc = 0j
    for n, w in enumerate(weights):
        acc += w * cmath.exp(-2j * cmath.pi * ((t * n) % size) / size)
    return acc / total


# ----------------------------------------------------------------------
# build_comb
# ----------------------------------------------------------------------

def test_comb_totals_and_weights():
    weights = build_comb(catalog_lookup("trivial_pp").params, 5).weights
    assert weights[0] == 1 and sum(weights) == 1
    uniform = build_comb(AffineParams(2, 2, 0, 0, 1), 3)
    assert set(uniform.weights) == {8}
    ident = build_comb(catalog_lookup("identity").params, 2)
    assert ident.weights == (4, 5, 6, 7) and ident.total == 22


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_comb_total_is_weight_sum(name):
    for level in (1, 4, 9):
        comb = build_comb(catalog_lookup(name).params, level)
        assert comb.total == sum(comb.weights)


def test_comb_rejects_null_sequence():
    with pytest.raises(DomainError):
        build_comb(AffineParams(1, 2, 0, 0, 0), 3)


# ----------------------------------------------------------------------
# The comb's coefficients mu_N^(t) (coeff_recursive) against comb sums
# ----------------------------------------------------------------------

def test_fourier_normalisation_exact():
    for name in CATALOG_NAMES:
        p = catalog_lookup(name).params
        assert coeff_recursive(p, 6, 0) == 1 + 0j
        assert coeff_recursive(p, 6, 64) == 1 + 0j  # t = 2^N


def test_fourier_uniform_comb_is_indicator():
    uniform = AffineParams(2, 2, 0, 0, 1)
    assert coeff_recursive(uniform, 4, 16) == 1 + 0j
    assert abs(coeff_recursive(uniform, 4, 5)) <= 1e-12


def test_fourier_matches_slow_oracle():
    rng = random.Random(7)
    for name in ("identity", "gould_G", "ruler_r", "cantor"):
        p = catalog_lookup(name).params
        comb = build_comb(p, 7)
        weights = comb.weights
        for t in [rng.randrange(-200, 200) for _ in range(12)]:
            assert abs(coeff_recursive(p, 7, t) - fourier_oracle(weights, comb.total, t)) < 1e-12


def test_fourier_hermitian_symmetry():
    for name in ("identity", "gould_G", "ruler_R"):
        p = catalog_lookup(name).params
        for t in range(1, 9):
            assert abs(coeff_recursive(p, 8, -t) - coeff_recursive(p, 8, t).conjugate()) < 1e-12


def test_fourier_magnitude_bounded():
    for name in CATALOG_NAMES:
        p = catalog_lookup(name).params
        for t in range(-16, 17):
            assert abs(coeff_recursive(p, 8, t)) <= 1 + 1e-12


def test_fourier_huge_weights_stay_normalised():
    # totals beyond the double range: the comb sum pre-shifts its atoms
    small, big = AffineParams(3, 0, 0, 1, 1), AffineParams(2**80, 2**80 - 1, 0, 1, 1)
    assert build_comb(big, 12).total.bit_length() > 900
    for p in (small, big):
        fft, bound = comb_fft(p, 12)
        assert abs(coeff_recursive(p, 12, 3)) <= 1 + 1e-12
        assert abs(coeff_recursive(p, 12, 3) - fft[3]) <= 1e-12
        assert coeff_recursive(p, 12, 0) == 1 + 0j
    uni = AffineParams(2**80, 2**80, 0, 0, 1)
    assert abs(coeff_recursive(uni, 12, 17)) <= 1e-9


# 1B, 2B, 2C, 2D both ways, values past 2^63 from N = 17 on, Cantor, and a
# total past 2^900 (pre-shifted atoms in the FFT).
SPECTRUM_PARAMS = [AffineParams(1, 2, 0, 0, 2), AffineParams(2, 2, 0, 1, 1), AffineParams(1, 2, 0, 1, 1),
                   AffineParams(3, 0, 0, 1, 1), AffineParams(0, 3, 1, 0, 1), AffineParams(6, 9, 1, 2, 1),
                   AffineParams(3, 3, 0, 2, 1), AffineParams(2**80, 2**80 - 1, 0, 1, 1)]

LONG_DOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                                 reason="np.longdouble is plain double here")


def longdouble_errors(p, level):
    """(|computed - reference| for t = 0..2^N-1, reported bounds), the reference
    a complex long-double FFT of the exact atoms over the exact total."""
    comb = build_comb(p, level)
    atoms = np.array(eval_region(p, level), dtype=np.longdouble)
    ref = np.fft.fft(atoms.astype(np.clongdouble)) / np.longdouble(comb.total)
    tab = coeff_table(p, range(1 << level), level=level)
    re, im, bound = tab.re, tab.im, tab.tail_bound
    assert re[0] == 1 and im[0] == 0 and bound[0] == 0
    return np.abs((re + 1j * im).astype(np.clongdouble) - ref).astype(float), bound


@LONG_DOUBLE
@pytest.mark.parametrize("p", SPECTRUM_PARAMS, ids=str)
def test_spectrum_within_bound_of_long_double_fft(p):
    for level in (1, 2, 5, 12, 18):
        if p.a0 >= 2**80 and level > 12:
            continue
        err, bound = longdouble_errors(p, level)
        assert (err[1:] <= bound[1:]).all(), (level, err.max(), bound.max())


@LONG_DOUBLE
def test_spectrum_bound_is_not_vacuous():
    errors, bounds = zip(*(longdouble_errors(p, 12) for p in SPECTRUM_PARAMS))
    ratio = max(b.max() for b in bounds) / max(e.max() for e in errors)
    print(f"largest bound / largest observed error at N = 12: {ratio:.0f}")
    assert ratio <= 1e3


@pytest.mark.parametrize("p", SPECTRUM_PARAMS, ids=str)
def test_level_table_within_bounds_of_comb_fft(p):
    """Over one full period, the level-N table lies within its own bound plus
    the FFT's of the comb's FFT (comb_fft); both bounds are a priori."""
    for level in (0, 1, 5, 12):
        fft, fft_bound = comb_fft(p, level)
        tab = coeff_table(p, range(1 << level), level=level)
        err = np.abs(tab.re + 1j * tab.im - fft)
        assert (err <= tab.tail_bound + fft_bound).all(), (level, err.max())


def region_step(p, region):
    """Region N+1 from region N by the Python-int list recurrence, independent
    of the sub-tree table."""
    nxt = [0] * (2 * len(region))
    nxt[0::2] = [p.a0 * v + p.b0 for v in region]
    nxt[1::2] = [p.a1 * v + p.b1 for v in region]
    return nxt


def region_oracle(p, level):
    region = [p.f1]
    for _ in range(level):
        region = region_step(p, region)
    return region


def test_region_values_past_2_63_are_exact_ints():
    # Values that reach 2^63 - 1 exactly, pass it by 2^20 - 1, and pass it
    # from N = 20 on: every atom is an exact Python int either way (an int64
    # sum(w[lo:hi]) would wrap silently).
    below = AffineParams(2, 2, 0, 1, 2**43 - 1)  # f(2^21 - 1) = 2^63 - 1
    above = AffineParams(2, 2, 0, 1, 2**43)      # f(2^21 - 1) = 2^63 + 2^20 - 1
    big = AffineParams(6, 9, 1, 2, 1)            # past 2^63 from N = 20 on
    top = {}
    for p in (below, above, big):
        exact = [p.f1]
        for level in range(21):
            if level:
                exact = region_step(p, exact)
            region = eval_region(p, level)
            assert region == exact, (p, level)
        for values in (region, build_comb(p, 20).weights):
            assert list(values) == exact and all(type(x) is int for x in values)
        top[p] = max(region)
    assert top[below] == 2**63 - 1
    assert top[above] == 2**63 + 2**20 - 1
    wide = AffineParams(2**63, 1, 1, 0, 0)  # f(1) = 0: a coefficient, not a value, passes 2^63
    for level in range(4):
        assert eval_region(wide, level) == region_oracle(wide, level)


def test_direct_table_does_not_keep_exact_atoms():
    # a level-N table runs the O(N) product per t and builds no atoms
    p = AffineParams(1, 2, 0, 1, 1)
    tracemalloc.start()
    try:
        tab = coeff_table(p, range(1000, 1016), level=18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (tab.tail_bound > 0).all() and (tab.abs <= 1).all()


# ----------------------------------------------------------------------
# cdf / cdf_series
# ----------------------------------------------------------------------

def test_cdf_examples():
    ident = build_comb(catalog_lookup("identity").params, 2)
    # closed right endpoint: the atom at 1/2 is included
    assert cdf(ident, 0.5) == Fraction(15, 22)
    assert cdf(ident, 1) == 1
    assert cdf(ident, 0) == Fraction(4, 22)
    trivial = build_comb(catalog_lookup("trivial_pp").params, 6)
    assert cdf(trivial, 0) == 1
    with pytest.raises(DomainError):
        cdf(ident, -0.1)
    with pytest.raises(DomainError):
        cdf(ident, 1.0000001)


def test_cdf_series_grid_two_and_monotone():
    comb = build_comb(catalog_lookup("identity").params, 4)
    rows = cdf_series(comb, 2)
    assert rows[0] == (0, Fraction(comb.weights[0], comb.total))
    assert rows[1] == (1, 1)
    rows = cdf_series(comb, 97)
    assert all(rows[i][1] <= rows[i + 1][1] for i in range(len(rows) - 1))
    assert rows[-1][1] == 1
    with pytest.raises(DomainError):
        cdf_series(comb, 1)


def test_cdf_series_uniform_comb_close_to_x():
    comb = build_comb(AffineParams(2, 2, 0, 0, 1), 9)
    rows = cdf_series(comb, 256)
    assert max(abs(f - x) for x, f in rows) <= Fraction(1, 256)


def test_cdf_series_strictly_increasing_for_gould_G():
    comb = build_comb(catalog_lookup("gould_G").params, 16)
    rows = cdf_series(comb, 1024)
    assert all(rows[i][1] < rows[i + 1][1] for i in range(len(rows) - 1))


# ----------------------------------------------------------------------
# interval_mass
# ----------------------------------------------------------------------

def test_interval_mass_whole_torus():
    comb = build_comb(catalog_lookup("cantor").params, 6)
    assert interval_mass(comb, DyadicInterval()) == 1


def test_interval_mass_identity_upper_half():
    # mu([1/2, 1)) -> integral of (2+2x)/3 over [1/2, 1) = 7/12
    comb = build_comb(catalog_lookup("identity").params, 20)
    mass = interval_mass(comb, DyadicInterval.from_bits("1"))
    assert abs(mass - Fraction(7, 12)) < Fraction(1, 2**17)


def test_interval_mass_2d_lower_half():
    # mu([0,1/2)) = mu({0}) + sum over dyadic atoms below 1/2 = 2/3
    comb = build_comb(AffineParams(3, 0, 0, 1, 1), 12)
    mass = interval_mass(comb, DyadicInterval.from_bits("0"))
    assert abs(mass - Fraction(2, 3)) < Fraction(1, 100)


def test_interval_mass_refinement_exact():
    rng = random.Random(20250810)
    for name in ("identity", "gould_G", "cantor", "ruler_R", "no_ap"):
        comb = build_comb(catalog_lookup(name).params, 10)
        for _ in range(20):
            depth = rng.randint(0, 9)
            e = DyadicInterval(tuple(rng.randint(0, 1) for _ in range(depth)))
            assert interval_mass(comb, e) == (interval_mass(comb, e.child(0))
                                              + interval_mass(comb, e.child(1)))


def test_interval_mass_depth_guard():
    comb = build_comb(catalog_lookup("identity").params, 3)
    with pytest.raises(DomainError):
        interval_mass(comb, DyadicInterval.from_bits("0101"))


def test_dyadic_interval_basics():
    e = DyadicInterval.from_bits("011")
    assert e.index == 3 and e.depth == 3
    assert e.left == Fraction(3, 8) and e.length == Fraction(1, 8)
    assert str(e) == "011" and str(DyadicInterval()) == "(torus)"
    with pytest.raises(ValueError):
        DyadicInterval.from_bits("012")
    with pytest.raises(DomainError, match="bits must be 0/1"):
        DyadicInterval.from_bits(b"0110")


def test_dyadic_interval_validates_its_bits():
    # (0, 2) once printed as "02" and took E(10)'s mass; ("1", "0") raised a
    # TypeError in .index.
    for bad in ((0, 2), ("1", "0"), (1.0, 0)):
        with pytest.raises(DomainError, match="bits must be 0/1"):
            DyadicInterval(bad)
    e = DyadicInterval([True, 0, np.int64(1)])
    assert e.bits == (1, 0, 1) and all(type(x) is int for x in e.bits)
    assert e == DyadicInterval("101") == DyadicInterval.from_bits("101") == DyadicInterval((1,)).child(0).child(1)
    assert hash(e) == hash(DyadicInterval.from_bits("101"))
    with pytest.raises(DomainError):
        e.child(2)


# ----------------------------------------------------------------------
# closed forms against the materialised comb
# ----------------------------------------------------------------------

# Every coefficient tuple with entries 0..3 (A = 0, 1, 2 and > 2), plus
# coefficients far beyond the double range.
ORACLE_PARAMS = [AffineParams(*c, 1) for c in itertools.product(range(4), repeat=4) if any(c)] + [
    AffineParams(2**80, 2**80 - 1, 0, 1, 1), AffineParams(2**80, 2**80, 0, 0, 1)]


def test_closed_forms_match_materialised_comb():
    for p in ORACLE_PARAMS:
        for level in range(9):
            comb = build_comb(p, level)
            w, total, size = comb.weights, comb.total, 1 << level
            assert total == sum(w)
            prefix = [0, *itertools.accumulate(w)]  # prefix[i] = sum(w[:i])
            brute = [Fraction(prefix[idx + 1], total) for idx in range(size)]
            assert [cdf(comb, Fraction(idx, size)) for idx in range(size)] == brute
            assert cdf(comb, 1) == 1
            for grid in (2, 3, 7, 30):
                want = [(Fraction(k, grid - 1), brute[min(k * size // (grid - 1), size - 1)])
                        for k in range(grid)]
                assert cdf_series(comb, grid) == want
            for depth in range(level + 1):
                for idx in range(1 << depth):
                    e = DyadicInterval.from_bits(format(idx, f"0{depth}b") if depth else "")
                    lo = idx << (level - depth)
                    hi = lo + (1 << (level - depth))
                    assert interval_mass(comb, e) == Fraction(prefix[hi] - prefix[lo], total)


def test_comb_functionals_do_not_materialise_atoms(monkeypatch, capsys):
    monkeypatch.setenv("GHOSTMEASURE_MAX_LEVEL", "26")
    comb = build_comb(catalog_lookup("identity").params, 26)
    tracemalloc.start()
    try:
        rows = cdf_series(comb, 1024)
        masses = [interval_mass(comb, DyadicInterval.from_bits(b)) for b in ("", "1", "0110", "1" * 26)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not hasattr(comb, "__dict__")
    assert peak < 4 << 20
    assert rows[-1][1] == 1 and masses[0] == 1
    # f(n) = n: the last atom is f(2^27 - 1)
    assert masses[3] == Fraction((1 << 27) - 1, comb.total)
    with pytest.raises(ResourceCapError):
        build_comb(catalog_lookup("identity").params, 27)
    # The CLI table too: same cap, same bound, no atoms on the comb it builds.
    combs = []

    def recording_build_comb(*args):
        combs.append(build_comb(*args))
        return combs[-1]

    monkeypatch.setattr(approximant, "build_comb", recording_build_comb)
    tracemalloc.start()
    try:
        code = main(["cdf", "--catalog", "identity", "--N", "26", "--grid", "1024"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and len(combs) == 1 and not hasattr(combs[0], "__dict__")
    assert peak < 4 << 20
    assert out.startswith("x,F\n0,") and out.endswith("\n1,1\n") and out.count("\n") == 1025
