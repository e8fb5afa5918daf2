"""Classification, interval measures, densities, concentration, point weights."""

import math
import random
from fractions import Fraction

import pytest

from ghostmeasure import (
    AffineParams,
    DomainError,
    DyadicInterval,
    MeasureKind,
    build_comb,
    catalog_lookup,
    classify,
    density,
    eval_f,
    interval_mass,
    interval_measure,
    lambda_threshold,
    point_mass,
    point_mass_tail,
    point_mass_total,
    ratio_sequence,
    ratio_sequence_exact,
    sigma_inf,
    sigma_norm,
)
from ghostmeasure.ghost import DEFAULT_WITNESS_SEED

CATALOG_NAMES = [
    "constant", "identity", "gould_g", "gould_G", "ruler_r",
    "ruler_R", "cantor", "no_ap", "moser_de_bruijn", "trivial_pp",
]


def valid_sweep(limit):
    for a0 in range(limit + 1):
        for a1 in range(limit + 1):
            for b0 in range(limit + 1):
                for b1 in range(limit + 1):
                    if a0 == a1 == b0 == b1 == 0:
                        continue
                    yield AffineParams(a0, a1, b0, b1, 1)


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------

def test_classify_named_examples():
    assert classify(catalog_lookup("gould_g").params).case == "2A"
    assert classify(catalog_lookup("gould_g").params).kind is MeasureKind.LEBESGUE
    G = classify(catalog_lookup("gould_G").params)
    assert (G.case, G.kind) == ("1B", MeasureKind.SINGULAR_CONTINUOUS)
    c = classify(catalog_lookup("cantor").params)
    assert (c.case, c.kind) == ("2B", MeasureKind.ABSOLUTELY_CONTINUOUS)
    t = classify(catalog_lookup("trivial_pp").params)
    assert (t.case, t.kind, t.support) == ("1C", MeasureKind.PURE_POINT, "delta-at-0")
    d = classify(AffineParams(3, 0, 0, 1, 1))
    assert (d.case, d.kind, d.support) == ("2D", MeasureKind.PURE_POINT, "dyadic-rationals")
    assert classify(AffineParams(0, 0, 1, 1, 1)).case == "2A"
    assert classify(AffineParams(1, 1, 0, 0, 1)).case == "1A"


def test_classify_catalog_expected_kinds():
    for name in CATALOG_NAMES:
        entry = catalog_lookup(name)
        cls = classify(entry.params)
        assert cls.case == entry.case, name
        assert cls.kind.value == entry.kind, name


def test_classify_partitions_parameter_space():
    # each tuple satisfies exactly one of the seven case predicates
    for p in valid_sweep(5):
        preds = {
            "1A": p.b == 0 and p.a0 == p.a1 != 0,
            "1B": p.b == 0 and p.a0 != p.a1 and p.a0 > 0 and p.a1 > 0,
            "1C": p.b == 0 and (p.a0 == 0 or p.a1 == 0) and p.a0 != p.a1,
            "2A": p.b != 0 and p.a <= 2,
            "2B": p.b != 0 and p.a0 == p.a1 and p.a0 > 1,
            "2C": p.b != 0 and p.a0 != p.a1 and p.a0 > 0 and p.a1 > 0 and p.a >= 3,
            "2D": p.b != 0 and (p.a0 == 0 or p.a1 == 0) and max(p.a0, p.a1) >= 3,
        }
        hits = [case for case, ok in preds.items() if ok]
        assert len(hits) == 1, p
        assert classify(p).case == hits[0], p


# ----------------------------------------------------------------------
# interval_measure
# ----------------------------------------------------------------------

def test_interval_measure_whole_torus_is_one():
    for p in (catalog_lookup("identity").params, catalog_lookup("gould_G").params,
              AffineParams(1, 2, 1, 0, 1), AffineParams(1, 1, 0, 1, 1)):
        assert interval_measure(p, DyadicInterval()) == 1


def test_interval_measure_identity_upper_half():
    p = catalog_lookup("identity").params
    assert interval_measure(p, DyadicInterval.from_bits("1")) == Fraction(7, 12)


def test_interval_measure_lebesgue_cases():
    for p in (AffineParams(1, 1, 0, 0, 3), AffineParams(1, 0, 1, 0, 0),
              AffineParams(0, 0, 2, 1, 1)):
        e = DyadicInterval.from_bits("011")
        assert interval_measure(p, e) == Fraction(1, 8)


def test_interval_measure_homogeneous_product_form():
    # in case 1B the mass of E(x) is the product of branch weights over A^i
    p = catalog_lookup("gould_G").params
    for bits in ("0", "1", "01", "110", "0101"):
        e = DyadicInterval.from_bits(bits)
        expected = Fraction(math.prod(2 if b == "1" else 1 for b in bits), 3 ** len(bits))
        assert interval_measure(p, e) == expected
        # and the combs agree to the geometric remainder
        comb = build_comb(p, len(bits) + 12)
        assert interval_mass(comb, e) == expected  # exact: no offsets when b = 0


def test_interval_measure_2c_matches_comb_at_depth():
    # skew inhomogeneous case: the level-20 comb carries the closed form to
    # within twice the geometric factor (2/3)^19
    p = AffineParams(1, 2, 1, 0, 1)
    e = DyadicInterval.from_bits("0")
    mu = interval_measure(p, e)
    got = interval_mass(build_comb(p, 20), e)
    assert abs(got - mu) <= 2 * Fraction(2, 3) ** 19


def test_interval_measure_pure_point_rejected():
    with pytest.raises(DomainError):
        interval_measure(AffineParams(3, 0, 0, 1, 1), DyadicInterval.from_bits("0"))
    with pytest.raises(DomainError):
        interval_measure(catalog_lookup("trivial_pp").params, DyadicInterval.from_bits("0"))


def test_interval_measure_additive_exactly():
    rng = random.Random(3)
    params = [catalog_lookup("identity").params, catalog_lookup("cantor").params,
              AffineParams(1, 2, 1, 0, 1), AffineParams(4, 1, 0, 3, 2),
              catalog_lookup("gould_G").params]
    for p in params:
        for _ in range(25):
            e = DyadicInterval(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 10))))
            assert interval_measure(p, e) == (interval_measure(p, e.child(0))
                                              + interval_measure(p, e.child(1)))


def test_interval_measure_comb_remainder_identity():
    """The comb mass differs from the limit by the exact geometric remainder.

    mu(E) - mu_N(E) = (b/(A-2)) (2/A)^c / (A^i sigma(N)) * (1 - 2^i mu(E))
    at N = i + c; both sides exact rationals computed through different paths.
    """
    rng = random.Random(DEFAULT_WITNESS_SEED)
    for _ in range(12):
        if rng.random() < 0.5:
            a = rng.randint(2, 4)
            p = AffineParams(a, a, rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 2))
        else:
            a0, a1 = rng.sample([1, 2, 3, 4], 2)
            p = AffineParams(a0, a1, rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 2))
        i = rng.randint(1, 6)
        e = DyadicInterval(tuple(rng.randint(0, 1) for _ in range(i)))
        mu = interval_measure(p, e)
        for c in (4, 7, 10):
            comb = build_comb(p, i + c)
            lhs = mu - interval_mass(comb, e)
            rhs = (Fraction(p.b, p.a - 2) * Fraction(2, p.a) ** c
                   / (p.a ** i * sigma_norm(p, i + c)) * (1 - 2 ** i * mu))
            assert lhs == rhs, (p, e, c)


# ----------------------------------------------------------------------
# density (case 2B)
# ----------------------------------------------------------------------

def test_density_identity_matches_linear_form():
    p = catalog_lookup("identity").params
    for k in range(64):
        bits = format(k, "06b")
        x = Fraction(k, 64)
        est = density(p, bits, 40)
        assert est.exact == Fraction(2 + 2 * x, 3)
    assert density(p, "1", 40).exact == 1          # x = 1/2
    assert density(p, "0", 40).exact == Fraction(2, 3)  # x = 0


def test_density_cantor_at_zero():
    est = density(catalog_lookup("cantor").params, "0", 30)
    assert est.exact == Fraction(2, 3)


def test_density_trailing_zero_digits_carry_their_offset():
    # digits past the prefix are zeros, and the zero branch offset b0
    # keeps contributing: for (2,2,3,1) the numerator at x = 1/2 is
    # 1 + 1/2 + sum_{j=2..d} 3/2^j = 3 - 3/2^d, denominator 3
    p = AffineParams(2, 2, 3, 1, 1)
    for d in (1, 2, 10, 30):
        est = density(p, "1", d)
        assert est.exact == (3 - Fraction(3, 2**d)) / 3
    # and the ratio sequence along x = 1/2 truncations agrees in the limit
    ratios = ratio_sequence_exact(p, [1] + [0] * 30)
    assert abs(ratios[-1] - density(p, "1", 40).exact) < Fraction(1, 2**25)


def test_density_matches_interval_ratio():
    # 2^i mu(E_i(x)) converges to g(x) within the reported tail bound scale
    for name in ("identity", "cantor", "moser_de_bruijn"):
        p = catalog_lookup(name).params
        bits = "0110101101001011"
        est = density(p, bits, len(bits))
        ratio = 2 ** len(bits) * interval_measure(p, DyadicInterval.from_bits(bits))
        # the interval ratio carries one extra A^-i shift term
        slack = Fraction(p.b, (p.a - 2)) / (p.a0 ** len(bits)) / sigma_inf(p)
        assert abs(ratio - est.exact) <= est.tail_bound + slack


def test_density_average_is_one():
    # averaging the depth-d numerator over all bit strings recovers the
    # denominator up to the geometric tail: |avg - 1| <= tail bound
    for name in ("identity", "cantor", "no_ap"):
        p = catalog_lookup(name).params
        a = p.a0
        d = 20
        avg_num = Fraction(p.f1) + Fraction(p.b, 2) * sum(Fraction(1, a**j) for j in range(1, d + 1))
        den = Fraction(p.f1) + Fraction(p.b, 2 * a - 2)
        avg = avg_num / den
        tail = Fraction(max(p.b0, p.b1), (a - 1) * a**d) / den
        assert abs(avg - 1) <= tail
    # small-depth enumeration agrees with the analytic average
    p = catalog_lookup("identity").params
    d = 10
    total = sum(density(p, format(k, f"0{d}b"), d).exact for k in range(2**d))
    avg_num = Fraction(p.f1) + Fraction(p.b, 2) * sum(Fraction(1, 2**j) for j in range(1, d + 1))
    den = Fraction(p.f1) + Fraction(p.b, 2)
    assert total / 2**d == avg_num / den


def test_density_requires_case_2b():
    with pytest.raises(DomainError):
        density(catalog_lookup("gould_G").params, "01", 10)
    with pytest.raises(DomainError):
        density(AffineParams(1, 2, 1, 0, 1), "01", 10)


# ----------------------------------------------------------------------
# lambda_threshold / ratio_sequence
# ----------------------------------------------------------------------

def test_lambda_threshold_values():
    t12 = lambda_threshold(AffineParams(1, 2, 1, 0, 1))
    assert abs(t12.lambda_cap - math.log(4 / 3) / math.log(2)) < 1e-15
    assert t12.minority_digit == 0
    t21 = lambda_threshold(AffineParams(2, 1, 0, 1, 1))
    assert abs(t21.lambda_cap - t12.lambda_cap) < 1e-15
    assert t21.minority_digit == 1
    t13 = lambda_threshold(AffineParams(1, 3, 0, 0, 1))
    assert abs(t13.lambda_cap - math.log(3 / 2) / math.log(3)) < 1e-15


def test_lambda_threshold_below_half_exhaustive():
    for a0 in range(1, 65):
        for a1 in range(1, 65):
            if a0 == a1:
                continue
            t = lambda_threshold(AffineParams(a0, a1, 1, 0, 1))
            assert 0.0 < t.lambda_cap < 0.5, (a0, a1)


def test_lambda_threshold_guards():
    with pytest.raises(DomainError):
        lambda_threshold(AffineParams(2, 2, 1, 0, 1))
    with pytest.raises(DomainError):
        lambda_threshold(AffineParams(0, 3, 1, 0, 1))


def test_ratio_sequence_2b_converges_to_density():
    p = catalog_lookup("identity").params
    bits = "01" * 20  # x = 0.010101... = 1/3
    ratios = ratio_sequence(p, bits)
    g = density(p, bits, 40)
    # g(1/3) = (2 + 2/3)/3 = 8/9
    assert abs(g.value - 8 / 9) < 1e-9
    assert abs(ratios[-1] - 8 / 9) < 1e-9


def test_ratio_sequence_2c_all_ones_exact_growth():
    p = AffineParams(1, 2, 1, 0, 1)
    exact = ratio_sequence_exact(p, [1] * 40)
    for j in (1, 8, 32, 40):
        assert exact[j - 1] == Fraction(4, 3) ** j * (1 + Fraction(1, 2**j)) / 2
    # per-step growth locks onto 4/3
    assert abs(exact[32] / exact[31] - Fraction(4, 3)) < Fraction(1, 10**9)


@pytest.mark.parametrize("params", [(1, 1, 0, 1, 1), (2, 2, 0, 0, 1), (1, 0, 3, 0, 0)])
def test_ratio_sequence_lebesgue_cases_are_exactly_one(params):
    # Cases 1A and 2A (Lebesgue measure): every ratio is exactly 1, also over
    # 10^5 digits, where a j-bit division per digit would take seconds.
    p = AffineParams(*params)
    bits = "0" * 10**5
    ratios = ratio_sequence(p, bits)
    assert len(ratios) == 10**5 and set(map(float.hex, ratios)) == {(1.0).hex()}
    exact = ratio_sequence_exact(p, bits)
    assert len(exact) == 10**5 and set(exact) == {Fraction(1)}
    assert ratio_sequence(p, "") == ratio_sequence_exact(p, "") == []


def test_ratio_sequence_2c_alternating_bits_value():
    # frozen from the exact closed form; decreasing by 8/9 per digit pair
    p = AffineParams(1, 2, 1, 0, 1)
    ratios = ratio_sequence(p, [0, 1] * 32)
    assert ratios[-1] == pytest.approx(0.034610712570515324, rel=1e-12)
    assert ratios[-1] < ratios[31] < ratios[15]


def test_ratio_sequence_2c_fair_strings_witness():
    # minority-digit density 1/2 sits above Lambda ~ 0.415, so almost every
    # string collapses; at j = 256 the seeded sample is 97/100 below 1e-2
    p = AffineParams(1, 2, 1, 0, 1)
    rng = random.Random(DEFAULT_WITNESS_SEED)
    hits = 0
    for _ in range(100):
        bits = [rng.randint(0, 1) for _ in range(256)]
        if ratio_sequence_exact(p, bits)[-1] < Fraction(1, 100):
            hits += 1
    assert hits == 97


def test_ratio_sequence_lebesgue_cases_are_flat():
    assert ratio_sequence(AffineParams(1, 1, 0, 0, 1), "0110") == [1.0] * 4
    assert ratio_sequence(AffineParams(1, 0, 1, 0, 0), "01") == [1.0] * 2


def test_ratio_sequence_overflow_safe():
    # the ratio grows like (2*A1/A)^j, which leaves the double range for
    # long skewed strings; the exact-rational path must survive both ends
    p = AffineParams(1, 99, 1, 0, 1)
    vals = ratio_sequence(p, [1] * 1200)
    assert vals[-1] == math.inf or vals[-1] > 1e300
    down = ratio_sequence(p, [0] * 1200)
    assert 0.0 <= down[-1] < 1e-250


# ----------------------------------------------------------------------
# point masses (case 2D)
# ----------------------------------------------------------------------

def test_point_mass_values():
    p = AffineParams(3, 0, 0, 1, 1)
    assert point_mass(p, "") == Fraction(1, 2)
    assert point_mass(p, "0") == Fraction(1, 2)
    assert point_mass(p, "1") == Fraction(1, 6)
    assert point_mass(p, "1000") == Fraction(1, 6)  # trailing zeros ignored
    assert point_mass(p, "01") == Fraction(1, 18)
    assert point_mass(p, "11") == Fraction(1, 18)


def test_point_mass_matches_comb_weights():
    p = AffineParams(3, 0, 0, 1, 1)
    comb = build_comb(p, 16)
    weights = comb.weights
    for bits in ("", "1", "01", "11", "101", "0001", "110101"):
        e = DyadicInterval.from_bits(bits) if bits else DyadicInterval()
        idx = e.index << (16 - e.depth)
        got = Fraction(weights[idx], comb.total)
        want = point_mass(p, bits)
        assert abs(got / want - 1) < Fraction(1, 1000)


def test_point_mass_mirror_orientation():
    # A0 = 0: same weights, atom locations reflected through x -> 1-x,
    # which shifts the comb index by one slot
    p = AffineParams(0, 3, 1, 0, 1)
    assert point_mass(p, "") == Fraction(1, 2)
    assert point_mass(p, "1") == Fraction(1, 6)
    assert point_mass(p, "011") == Fraction(1, 54)
    comb = build_comb(p, 16)
    weights = comb.weights
    for bits in ("", "1", "01", "11", "101"):
        e = DyadicInterval.from_bits(bits) if bits else DyadicInterval()
        idx = ((e.index << (16 - e.depth)) - 1) % 2**16
        got = Fraction(weights[idx], comb.total)
        want = point_mass(p, bits)
        assert abs(got / want - 1) < Fraction(1, 1000)


def test_point_mass_total_and_tail():
    p = AffineParams(3, 0, 0, 1, 1)
    partial0, total = point_mass_total(p, 0)
    assert (partial0, total) == (Fraction(1, 2), 1)
    partial1, _ = point_mass_total(p, 1)
    assert partial1 == Fraction(2, 3)
    for n_max in range(0, 31):
        partial, total = point_mass_total(p, n_max)
        tail = point_mass_tail(p, n_max)
        assert partial + tail == total == 1
        assert tail == Fraction(1, 2) * Fraction(2, 3) ** n_max
    # mirrored orientation sums to one as well
    q = AffineParams(0, 4, 2, 1, 1)
    for n_max in (0, 3, 9):
        partial, total = point_mass_total(q, n_max)
        assert partial + point_mass_tail(q, n_max) == total == 1


def test_point_mass_requires_case_2d():
    with pytest.raises(DomainError):
        point_mass(catalog_lookup("identity").params, "1")
    with pytest.raises(DomainError):
        point_mass_total(catalog_lookup("trivial_pp").params, 3)
    with pytest.raises(DomainError):
        point_mass(AffineParams(2, 0, 0, 1, 1), "1")  # other branch only 2: case 2A
