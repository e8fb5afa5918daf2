"""Sequence evaluation, region sums and the catalog fixtures."""

from fractions import Fraction

import pytest

from ghostmeasure import (
    AffineParams,
    CatalogError,
    DomainError,
    ResourceCapError,
    big_sigma,
    catalog_lookup,
    catalog_names,
    eval_f,
    eval_region,
    sigma_inf,
    sigma_norm,
)
from ghostmeasure.sequence import _region_chunks, _subtree

CATALOG_NAMES = [
    "constant", "identity", "gould_g", "gould_G", "ruler_r",
    "ruler_R", "cantor", "no_ap", "moser_de_bruijn", "trivial_pp",
]


def f_naive(p: AffineParams, n: int) -> int:
    """Direct recursion straight off the defining relations (test oracle)."""
    if n == 1:
        return p.f1
    half = f_naive(p, n // 2)
    return p.a1 * half + p.b1 if n % 2 else p.a0 * half + p.b0


def valid_sweep(limit):
    for a0 in range(limit + 1):
        for a1 in range(limit + 1):
            for b0 in range(limit + 1):
                for b1 in range(limit + 1):
                    if a0 == a1 == b0 == b1 == 0:
                        continue
                    yield AffineParams(a0, a1, b0, b1, 1)


# ----------------------------------------------------------------------
# eval_f
# ----------------------------------------------------------------------

def test_eval_f_identity_sequence():
    p = catalog_lookup("identity").params
    for n in range(1, 4097):
        assert eval_f(p, n) == n


def test_eval_f_gould_G_counts_binary_ones():
    # G(n) = 2^(number of ones); G(7) = 8 since 7 = 111_2
    p = catalog_lookup("gould_G").params
    assert eval_f(p, 7) == 8
    for n in range(1, 513):
        assert eval_f(p, n) == 2 ** bin(n).count("1")


def test_eval_f_spec_recurrence_unrolled():
    # f(5) = A1*f(2) + b1 = 0*f(2) + 1 for (3,0,0,1), f(1)=1
    p = AffineParams(3, 0, 0, 1, 1)
    assert eval_f(p, 5) == 1
    assert eval_f(p, 2) == 3


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_eval_f_matches_naive_recursion(name):
    p = catalog_lookup(name).params
    for n in range(1, 257):
        assert eval_f(p, n) == f_naive(p, n)


def test_eval_f_known_sequences():
    g = catalog_lookup("gould_g").params
    r = catalog_lookup("ruler_r").params
    R = catalog_lookup("ruler_R").params
    m = catalog_lookup("moser_de_bruijn").params
    for n in range(1, 300):
        assert eval_f(g, n) == bin(n).count("1")
        assert eval_f(r, n) == (n & -n).bit_length() - 1
        assert eval_f(R, n) == n & -n
        assert eval_f(m, n) == int(bin(n)[2:], 4)


def test_eval_f_rejects_zero():
    with pytest.raises(DomainError):
        eval_f(catalog_lookup("identity").params, 0)


def test_eval_f_non_negative_on_sweep():
    for p in valid_sweep(3):
        for n in range(1, 40):
            assert eval_f(p, n) >= 0


# ----------------------------------------------------------------------
# eval_region
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_region_matches_digit_descent(name):
    p = catalog_lookup(name).params
    for level in (0, 1, 2, 5, 8, 12):
        region = eval_region(p, level)
        assert len(region) == 2**level
        base = 2**level
        for n in sorted({0, 1, base // 3, base // 2, base - 1} & set(range(base))):
            assert region[n] == eval_f(p, base + n)


def test_subtree_table_matches_digit_descent():
    # The 2^k values k digits below an index n are P[j] f(n) + Q[j], in index order.
    for p in (AffineParams(1, 2, 0, 1, 1), AffineParams(6, 9, 1, 2, 3), AffineParams(0, 3, 2, 0, 1),
              AffineParams(2**80, 1, 0, 5, 2)):
        for k in range(6):
            P, Q = _subtree(p, k)
            for n in (1, 2, 5, 12):
                v = f_naive(p, n)
                assert [a * v + b for a, b in zip(P, Q)] == [f_naive(p, (n << k) + j)
                                                             for j in range(1 << k)], (p, k, n)


def test_region_chunks_split_the_region_at_half_its_depth():
    # 2^(N-k) chunks of 2^k values, k = ceil(N/2), that join to the region.
    p = AffineParams(1, 2, 0, 1, 1)
    for level in range(10):
        chunks = list(_region_chunks(p, level))
        k = (level + 1) // 2
        assert [len(c) for c in chunks] == [1 << k] * (1 << (level - k)), level
        assert [x for c in chunks for x in c] == [f_naive(p, n) for n in range(1 << level, 2 << level)]


def test_region_examples():
    assert eval_region(catalog_lookup("gould_G").params, 2) == [2, 4, 4, 8]
    assert eval_region(catalog_lookup("identity").params, 3) == list(range(8, 16))
    trivial = eval_region(catalog_lookup("trivial_pp").params, 4)
    assert trivial == [1] + [0] * 15


def test_region_cap(monkeypatch):
    p = catalog_lookup("identity").params
    monkeypatch.delenv("GHOSTMEASURE_MAX_LEVEL", raising=False)
    with pytest.raises(ResourceCapError):
        eval_region(p, 27)
    monkeypatch.setenv("GHOSTMEASURE_MAX_LEVEL", "4")
    with pytest.raises(ResourceCapError):
        eval_region(p, 5)
    assert len(eval_region(p, 4)) == 16


def test_region_rejects_negative_level():
    with pytest.raises(DomainError):
        eval_region(catalog_lookup("identity").params, -1)


# ----------------------------------------------------------------------
# big_sigma / sigma_norm / sigma_inf
# ----------------------------------------------------------------------

def test_big_sigma_equals_region_sum_on_sweep():
    for p in valid_sweep(4):
        for level in range(0, 9):
            if p.a == 0 and level == 0:
                continue
            assert big_sigma(p, level) == sum(eval_region(p, level))


def test_big_sigma_large_level_spot_checks():
    for p in (AffineParams(3, 1, 2, 0, 1), AffineParams(0, 4, 1, 3, 2),
              AffineParams(1, 1, 0, 1, 1), AffineParams(1, 0, 1, 0, 0)):
        assert big_sigma(p, 14) == sum(eval_region(p, 14))


def test_sigma_recurrence():
    for p in valid_sweep(3):
        for level in range(2, 21):
            assert big_sigma(p, level) == p.a * big_sigma(p, level - 1) + p.b * 2**(level - 1)


def test_big_sigma_examples():
    assert big_sigma(catalog_lookup("gould_G").params, 5) == 486
    assert big_sigma(catalog_lookup("ruler_r").params, 6) == 63
    assert big_sigma(catalog_lookup("identity").params, 3) == 92


def test_big_sigma_a_zero_level_zero_is_f1():
    # A0 + A1 = 0: Sigma(0) is the lone value f(1), not b * 2^-1
    p = catalog_lookup("constant").params
    assert big_sigma(p, 0) == p.f1 == sum(eval_region(p, 0))


def test_sigma_norm_and_limit():
    ident = catalog_lookup("identity").params
    assert sigma_inf(ident) == Fraction(3, 2)
    assert sigma_inf(AffineParams(3, 0, 0, 1, 1)) == 2
    # A = 1: sigma equals Sigma
    p1 = AffineParams(1, 0, 0, 1, 1)
    assert sigma_norm(p1, 4) == big_sigma(p1, 4) == 16
    for p in (ident, AffineParams(3, 0, 0, 1, 1), AffineParams(2, 3, 1, 2, 2)):
        vals = [sigma_norm(p, n) for n in range(1, 21)]
        lim = sigma_inf(p)
        assert all(abs(v - lim) <= abs(vals[0] - lim) for v in vals)


def test_sigma_gap_is_exact_geometric():
    # sigma(inf) - sigma(N) = b (2/A)^N / (A-2) exactly, for A > 2
    for p in (catalog_lookup("identity").params, AffineParams(3, 0, 0, 1, 1),
              AffineParams(2, 3, 1, 2, 2), AffineParams(4, 4, 0, 3, 1)):
        lim = sigma_inf(p)
        for n in range(0, 31):
            gap = Fraction(p.b, p.a - 2) * Fraction(2, p.a) ** n
            assert lim - sigma_norm(p, n) == gap
            assert abs(sigma_norm(p, n) - lim) <= gap


def test_sigma_inf_rejects_small_a():
    with pytest.raises(DomainError):
        sigma_inf(catalog_lookup("gould_g").params)  # A = 2
    with pytest.raises(DomainError):
        sigma_norm(catalog_lookup("constant").params, 3)  # A = 0


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def test_catalog_sigma_closed_forms():
    for name in CATALOG_NAMES:
        entry = catalog_lookup(name)
        if entry.sigma_closed is None:
            continue
        for level in range(1, 21):
            assert big_sigma(entry.params, level) == entry.sigma_closed(level), name


def test_catalog_params_pinned():
    assert catalog_lookup("cantor").params == AffineParams(3, 3, 0, 2, 1)
    assert catalog_lookup("moser_de_bruijn").params == AffineParams(4, 4, 0, 1, 1)
    assert catalog_lookup("ruler_R").params == AffineParams(2, 0, 0, 1, 1)
    assert catalog_lookup("gould_G").params == AffineParams(1, 2, 0, 0, 2)
    assert catalog_lookup("ruler_r").params == AffineParams(1, 0, 1, 0, 0)


def test_catalog_missing_digit():
    entry = catalog_lookup("missing_digit(3,2)")
    assert entry.params.a0 == entry.params.a1 == 3
    assert entry.params.b1 == 2
    assert entry.case == "2B"
    with pytest.raises(CatalogError):
        catalog_lookup("missing_digit(3,3)")


def test_catalog_unknown_name_lists_valid():
    with pytest.raises(CatalogError) as err:
        catalog_lookup("nope")
    msg = str(err.value)
    for name in CATALOG_NAMES:
        assert name in msg
    assert "nope" in msg
    assert "missing_digit" in " ".join(catalog_names())


# ----------------------------------------------------------------------
# AffineParams validation
# ----------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(DomainError):
        AffineParams(0, 0, 0, 0, 1)
    with pytest.raises(DomainError):
        AffineParams(-1, 0, 0, 1, 1)
    with pytest.raises(DomainError):
        AffineParams(1, 0, 0, 1, -2)
    p = AffineParams(1, 2, 3, 4, 5)
    assert (p.a, p.b) == (3, 7)
