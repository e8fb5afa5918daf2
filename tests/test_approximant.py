"""Comb construction, direct Fourier sums, CDFs and interval masses."""

import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

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
    direct_fourier,
    interval_mass,
)

CATALOG_NAMES = [
    "constant", "identity", "gould_g", "gould_G", "ruler_r",
    "ruler_R", "cantor", "no_ap", "moser_de_bruijn", "trivial_pp",
]


def fourier_oracle(comb, t):
    """Slow exact-phase reference sum (Fraction positions, cmath phases)."""
    size = 2**comb.level
    acc = 0j
    for n, w in enumerate(comb.weights):
        acc += w * cmath.exp(-2j * cmath.pi * ((t * n) % size) / size)
    return acc / comb.total


# ----------------------------------------------------------------------
# build_comb
# ----------------------------------------------------------------------

def test_comb_totals_and_weights():
    trivial = build_comb(catalog_lookup("trivial_pp").params, 5)
    assert trivial.weights[0] == 1 and sum(trivial.weights) == 1
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
# direct_fourier
# ----------------------------------------------------------------------

def test_fourier_normalisation_exact():
    for name in CATALOG_NAMES:
        comb = build_comb(catalog_lookup(name).params, 6)
        assert direct_fourier(comb, 0) == 1 + 0j
        assert direct_fourier(comb, 64) == 1 + 0j  # t = 2^N


def test_fourier_uniform_comb_is_indicator():
    comb = build_comb(AffineParams(2, 2, 0, 0, 1), 4)
    assert direct_fourier(comb, 16) == 1 + 0j
    assert abs(direct_fourier(comb, 5)) <= 1e-12


def test_fourier_matches_slow_oracle():
    rng = random.Random(7)
    for name in ("identity", "gould_G", "ruler_r", "cantor"):
        comb = build_comb(catalog_lookup(name).params, 7)
        for t in [rng.randrange(-200, 200) for _ in range(12)]:
            assert abs(direct_fourier(comb, t) - fourier_oracle(comb, t)) < 1e-12


def test_fourier_hermitian_symmetry():
    for name in ("identity", "gould_G", "ruler_R"):
        comb = build_comb(catalog_lookup(name).params, 8)
        for t in range(1, 9):
            assert abs(direct_fourier(comb, -t) - direct_fourier(comb, t).conjugate()) < 1e-12


def test_fourier_magnitude_bounded():
    for name in CATALOG_NAMES:
        comb = build_comb(catalog_lookup(name).params, 8)
        for t in range(-16, 17):
            assert abs(direct_fourier(comb, t)) <= 1 + 1e-12


def test_fourier_huge_weights_stay_normalised():
    # totals beyond the double range force the pre-shift branch
    comb = build_comb(AffineParams(3, 0, 0, 1, 1), 12)
    big = build_comb(AffineParams(2**80, 2**80 - 1, 0, 1, 1), 12)
    assert big.total.bit_length() > 900
    for c in (comb, big):
        assert abs(direct_fourier(c, 3)) <= 1 + 1e-12
        assert direct_fourier(c, 0) == 1 + 0j
    # shifted sum still matches the uniform-comb structure at a coarse level
    uni = build_comb(AffineParams(2**80, 2**80, 0, 0, 1), 12)
    assert abs(direct_fourier(uni, 17)) <= 1e-9


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
            brute = [Fraction(sum(w[: idx + 1]), total) for idx in range(size)]
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
                    assert interval_mass(comb, e) == Fraction(sum(w[lo:hi]), total)


def test_comb_functionals_do_not_materialise_atoms():
    comb = build_comb(catalog_lookup("identity").params, 26, max_level=26)
    tracemalloc.start()
    try:
        rows = cdf_series(comb, 1024)
        masses = [interval_mass(comb, DyadicInterval.from_bits(b)) for b in ("", "1", "0110", "1" * 26)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "weights" not in vars(comb)
    assert peak < 4 << 20
    assert rows[-1][1] == 1 and masses[0] == 1
    # f(n) = n: the last atom is f(2^27 - 1)
    assert masses[3] == Fraction((1 << 27) - 1, comb.total)
    with pytest.raises(ResourceCapError):
        build_comb(catalog_lookup("identity").params, 27, max_level=26)
