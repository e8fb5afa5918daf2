"""Linear representations, spectral diagnostics, JSR certificate."""

import itertools
import math

import pytest

from ghostmeasure import (
    AffineParams,
    DomainError,
    build_linrep,
    catalog_lookup,
    classify,
    eval_f,
    eval_via_linrep,
    spectral_diagnostic,
)

CATALOG_NAMES = [
    "constant", "identity", "gould_g", "gould_G", "ruler_r",
    "ruler_R", "cantor", "no_ap", "moser_de_bruijn", "trivial_pp",
]


def matmul2(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def test_build_shapes():
    G = build_linrep(catalog_lookup("gould_G").params)
    assert (G.dim, G.c0, G.c1) == (1, ((1,),), ((2,),))
    ident = build_linrep(catalog_lookup("identity").params)
    assert ident.dim == 2
    assert ident.c0 == ((2, 0), (0, 1))
    assert ident.c1 == ((2, 1), (0, 1))
    assert ident.left == (1, 0)
    assert ident.right == (1, 1)
    pp = build_linrep(AffineParams(3, 0, 0, 1, 1))
    assert pp.c0 == ((3, 0), (0, 1))
    assert pp.c1 == ((0, 1), (0, 1))


def test_matrix_product_oracle():
    # digits below the leading one, least significant first:
    # C1 C0 C1 consumes digit string (1,0,1), i.e. n = (1 101)_2 = 13,
    # while n = 11 = (1011)_2 takes C1 C1 C0.
    rep = build_linrep(catalog_lookup("identity").params)
    p = catalog_lookup("identity").params
    prod = matmul2(rep.c1, matmul2(rep.c0, rep.c1))
    val = sum(rep.left[i] * sum(prod[i][j] * rep.right[j] for j in range(2)) for i in range(2))
    assert val == eval_f(p, 13) == 13
    assert eval_via_linrep(rep, 11) == eval_f(p, 11) == 11


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_representation_faithful(name):
    p = catalog_lookup(name).params
    rep = build_linrep(p)
    for n in range(1, 2**12 + 1):
        assert eval_via_linrep(rep, n) == eval_f(p, n)


def test_eval_via_linrep_examples():
    ident = build_linrep(catalog_lookup("identity").params)
    assert eval_via_linrep(ident, 6) == 6
    G = build_linrep(catalog_lookup("gould_G").params)
    assert eval_via_linrep(G, 15) == 16  # row 15 of Pascal's triangle: 16 odd entries
    cantor = build_linrep(catalog_lookup("cantor").params)
    assert eval_via_linrep(cantor, 4) == 9
    with pytest.raises(DomainError):
        eval_via_linrep(ident, 0)


def test_spectral_closed_forms():
    d = spectral_diagnostic(AffineParams(1, 2, 0, 0, 1))
    assert (d.rho, d.rho_star) == (3, 2)
    assert abs(d.log_ratio - math.log2(1.5)) < 1e-15
    assert spectral_diagnostic(AffineParams(2, 2, 0, 1, 1)).log_ratio == 1.0
    assert spectral_diagnostic(AffineParams(3, 0, 0, 1, 1)).log_ratio == 0.0
    # inhomogeneous with one branch 0 and the other 2: the exceptional 0
    assert spectral_diagnostic(AffineParams(0, 2, 1, 0, 1)).log_ratio == 0.0
    assert spectral_diagnostic(AffineParams(2, 0, 0, 1, 1)).log_ratio == 0.0
    # other small inhomogeneous pairs still give 1
    assert spectral_diagnostic(AffineParams(1, 1, 1, 0, 1)).log_ratio == 1.0
    assert spectral_diagnostic(AffineParams(0, 0, 1, 1, 1)).log_ratio == 1.0
    assert spectral_diagnostic(AffineParams(0, 1, 2, 1, 1)).log_ratio == 1.0
    # homogeneous pure point
    assert spectral_diagnostic(AffineParams(5, 0, 0, 0, 1)).log_ratio == 0.0


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


def jsr_norm_bounds(params: AffineParams, max_depth: int = 8) -> list[float]:
    """Certificate bounds: max over depth-D products of ||P||_inf^(1/D).

    Each entry upper-bounds rho*; by submultiplicativity the subsequence at
    doubling depths is non-increasing and tends to rho*.  Exponential in
    depth, so only suitable as a small-depth test certificate.
    """
    if max_depth < 1:
        raise DomainError("max_depth must be >= 1")
    rep = build_linrep(params)
    bounds = []
    level = [rep.c0, rep.c1]
    for depth in range(1, max_depth + 1):
        norm = max(max(sum(abs(x) for x in row) for row in m) for m in level)
        bounds.append(norm ** (1.0 / depth))
        if depth < max_depth:
            level = [_matmul(m, c) for m in level for c in (rep.c0, rep.c1)]
    return bounds


def test_jsr_bounds_bracket_closed_form():
    params = [catalog_lookup(n).params for n in CATALOG_NAMES]
    params += [AffineParams(1, 4, 2, 3, 1), AffineParams(5, 2, 0, 1, 1)]
    for p in params:
        diag = spectral_diagnostic(p)
        bounds = jsr_norm_bounds(p, max_depth=8)
        assert all(b >= diag.rho_star - 1e-9 for b in bounds), p
        # submultiplicativity: doubling the depth cannot raise the bound
        assert bounds[1] <= bounds[0] + 1e-9
        assert bounds[3] <= bounds[1] + 1e-9
        assert bounds[7] <= bounds[3] + 1e-9


def test_log_ratio_groups_match_types_on_sweep():
    for a0 in range(6):
        for a1 in range(6):
            for b0 in range(6):
                for b1 in range(6):
                    if a0 == a1 == b0 == b1 == 0:
                        continue
                    p = AffineParams(a0, a1, b0, b1, 1)
                    cls = classify(p)
                    r = spectral_diagnostic(p).log_ratio
                    if cls.kind.value in ("lebesgue", "absolutely-continuous"):
                        footnote = (b0 + b1 > 0 and {a0, a1} == {0, 2})
                        assert r == (0.0 if footnote else 1.0), p
                    elif cls.kind.value == "singular-continuous":
                        assert 0.0 < r < 1.0, p
                    else:
                        assert r == 0.0, p


LOG_RATIO_COEFFS = [*range(10), 2**40, 2**80, 10**30, 3**50]


def test_log_ratio_within_stated_bound_of_mpmath():
    # rho/rho* lies in [1, 2], so log_ratio lies in [0, 1].  The correctly
    # rounded int/int quotient adds at most u/ln 2 (u = 2^-53) and a log2
    # within 1 ulp at most u more: below 2.5 u, absolute.
    mpmath = pytest.importorskip("mpmath")
    ratios = {}
    for a0, a1, b0, b1 in itertools.product(LOG_RATIO_COEFFS, repeat=4):
        if a0 == a1 == b0 == b1 == 0:
            continue
        d = spectral_diagnostic(AffineParams(a0, a1, b0, b1, 1))
        assert d.rho_star <= d.rho <= 2 * d.rho_star and 0.0 <= d.log_ratio <= 1.0
        ratios[d.rho, d.rho_star] = d.log_ratio
    assert len(ratios) == 104  # distinct (rho, rho*) pairs of the 38,415 sets
    with mpmath.workdps(60):
        for (rho, rho_star), r in ratios.items():
            err = abs(r - mpmath.log(mpmath.mpf(rho) / rho_star, 2))
            assert err <= 2.5 * 2**-53, (rho, rho_star, r)
