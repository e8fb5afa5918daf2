"""Property tests: independent evaluation paths agree, exact folds equal their
term-by-term sums, the shared-prefix density grid equals its per-point
folds, the shared cdf descent equals prefix sums of the atoms, the
batched coefficient kernel equals the scalar complex loops bit for bit
whether t is held as int64 or as Python ints, level-N coefficients lie
within their rounding bound of comb sums, the dyadic and 2D closed forms
equal their Fraction chains, 2D atoms exhaust the mass, the CLI exit-code
contract holds and its JSON tables are strict JSON, and the row-template
table writer prints the bytes of a per-value writer or refuses the column.

Hypothesis runs derandomized with small bounded strategies, so every run
draws the same examples and the suite's time barely moves.
"""

import cmath
import contextlib
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ghostmeasure import (
    AffineParams,
    big_sigma,
    build_comb,
    build_linrep,
    catalog_names,
    DomainError,
    DyadicInterval,
    MeasureKind,
    classify,
    coeff_limit,
    coeff_recursive,
    coeff_table,
    density,
    eval_f,
    eval_region,
    eval_via_linrep,
    interval_measure,
    point_mass,
    point_mass_tail,
    point_mass_total,
    ratio_sequence,
    ratio_sequence_exact,
    sigma_inf,
    sigma_norm,
    wiener_profile,
)
from ghostmeasure import cli
from ghostmeasure.approximant import _masses_through
from ghostmeasure.cli import _emit, main
from ghostmeasure.fourier import (_BLOCK, TAU, _factor, _floats, _held, _level_bound, _mul_into,
                                  _phases, _signs, _unit_phase, _v2)
from ghostmeasure.ghost import _density_grid
from ghostmeasure.sequence import _block_sum

from oracles import emit_oracle

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)
FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)
KERNEL = settings(derandomize=True, max_examples=200, deadline=None, database=None)

COEFF = st.one_of(st.integers(0, 4), st.just(2**80))


@st.composite
def affine_params(draw):
    """Valid, non-null AffineParams with small or 2^80-sized coefficients."""
    a0, a1, b0, b1, f1 = (draw(COEFF) for _ in range(5))
    if a0 == a1 == b0 == b1 == 0:
        b1 = 1
    if b0 == b1 == 0 and f1 == 0:
        f1 = 1
    return AffineParams(a0, a1, b0, b1, f1)


@PROPERTY
@given(affine_params(), st.integers(0, 6))
def test_three_evaluations_agree_on_a_region(p, level):
    region = eval_region(p, level)
    rep = build_linrep(p)
    for n, v in enumerate(region, start=1 << level):
        assert eval_f(p, n) == v
        assert eval_via_linrep(rep, n) == v


@PROPERTY
@given(affine_params(), st.integers(0, 8))
def test_big_sigma_is_region_sum(p, level):
    assert big_sigma(p, level) == sum(eval_region(p, level))


# ----------------------------------------------------------------------
# Exact ghost folds against term-by-term Fraction sums
# ----------------------------------------------------------------------

def density_oracle(p: AffineParams, bits: str, depth) -> tuple[Fraction, Fraction]:
    """(exact, tail) of the 2B density as the series sum_j b_{x_j} A^-j, one Fraction per term."""
    xs = [int(c) for c in bits]
    d = len(xs) if depth is None else depth
    a = p.a0
    num = Fraction(p.f1)
    for j in range(1, d + 1):
        x = xs[j - 1] if j <= len(xs) else 0
        num += Fraction(p.b1 if x else p.b0, a**j)
    den = Fraction(p.f1) + Fraction(p.b, 2 * a - 2)
    return num / den, Fraction(max(p.b0, p.b1), (a - 1) * a**d) / den


def ratio_sequence_oracle(p: AffineParams, bits: str) -> list[Fraction]:
    """2^j (F_j + b/(A-2)) / (sigma_inf A^j), with every step a Fraction."""
    a = p.a
    shift = Fraction(p.b, a - 2)
    s_inf = sigma_inf(p)
    out = []
    v = p.f1
    apow = 1
    for j, c in enumerate(bits, start=1):
        ab, bb = p.branch(int(c))
        v = ab * v + bb
        apow *= a
        out.append(Fraction(2**j) * (v + shift) / (s_inf * apow))
    return out


@st.composite
def params_2b(draw):
    """Case 2B parameters: A in 2..6 or 2^80, each b in 0..5 or up to 2^70."""
    a = draw(st.one_of(st.integers(2, 6), st.just(2**80)))
    coef = st.one_of(st.integers(0, 5), st.integers(0, 2**70))
    b0, b1 = draw(coef), draw(coef)
    if b0 == b1 == 0:
        b1 = 1
    return AffineParams(a, a, b0, b1, draw(st.integers(0, 5)))


@PROPERTY
@given(params_2b(), st.text(alphabet="01", max_size=20), st.one_of(st.none(), st.integers(0, 80)))
def test_density_fold_matches_series(p, bits, depth):
    est = density(p, bits, depth)
    exact, tail = density_oracle(p, bits, depth)
    assert est.exact == exact
    assert (est.value, est.tail_bound) == (float(exact), float(tail))


@st.composite
def grid_and_depth(draw):
    """(w, d) with w in 1..10 and d below, equal to or above w, up to 80."""
    w = draw(st.integers(1, 10))
    d = draw(st.one_of(st.integers(0, w - 1), st.just(w), st.integers(w + 1, 80)))
    return w, d


@PROPERTY
@given(params_2b(), grid_and_depth())
def test_density_grid_fold_matches_per_point_density(p, grid):
    width, depth = grid
    nums, den, tail = _density_grid(p, width, depth)
    nums = list(nums)
    assert len(nums) == 1 << width
    for k, num in enumerate(nums):
        one = density(p, format(k, f"0{width}b"), depth)
        assert Fraction(num, den) == one.exact, k
        assert num / den == one.value, k
        assert tail / den == one.tail_bound, k


def mass_through_oracle(comb, idx: int) -> int:
    """weights[0] + ... + weights[idx] by its own N-digit descent: one block
    sum under the left sibling of every 1-digit, then the atom at idx."""
    p = comb.params
    v, acc = p.f1, 0
    for d in range(comb.level - 1, -1, -1):
        left = p.a0 * v + p.b0
        if (idx >> d) & 1:
            acc += _block_sum(p, left, d)
            v = p.a1 * v + p.b1
        else:
            v = left
    return acc + v


def grid_indices(level: int, grid: int) -> list[int]:
    """The atom indices of a grid of `grid` equally spaced points, as cdf_series reads them."""
    size = 1 << level
    return [min(k * size // (grid - 1), size - 1) for k in range(grid)]


@st.composite
def comb_indices(draw):
    """(params, level, idxs): A = 0, 1, 2 and above, levels 0..14; the indices
    of a grid (2 to 2^N + 10 points, so repeats, ending at the clamp to
    2^N - 1) or a list drawn with repeats, either one as drawn, sorted or
    shuffled.  G indices split at k = min(log2 G - 1, ceil(N/2)) low
    digits, so grids and lists run the high-digit descent, the low-digit
    table or both."""
    p = draw(st.one_of(affine_params(), st.just(AffineParams(2**80, 2**80 - 1, 0, 1, 1))))
    level = draw(st.integers(0, 14))
    if draw(st.booleans()):
        idxs = grid_indices(level, draw(st.integers(2, (1 << level) + 10)))
    else:
        idxs = draw(st.lists(st.integers(0, (1 << level) - 1), max_size=80))
    order = draw(st.sampled_from(["as drawn", "sorted", "shuffled"]))
    if order == "sorted":
        idxs.sort()
    elif order == "shuffled":
        draw(st.randoms(use_true_random=False)).shuffle(idxs)
    return p, level, idxs


@PROPERTY
@given(comb_indices())
@example((AffineParams(2**80, 2**80 - 1, 0, 1, 1), 10, grid_indices(10, 1030)))
@example((AffineParams(0, 0, 1, 1, 1), 0, [0, 0, 0]))
@example((AffineParams(1, 0, 0, 1, 1), 3, [0, 3, 3, 4, 7, 7]))
@example((AffineParams(6, 9, 1, 2, 1), 4, [9, 3, 15, 0, 9, 8]))
# k = 0 (three indices) at level 14 with 2^80 coefficients, and with A = 0.
@example((AffineParams(2**80, 3, 2**80, 0, 1), 14, [16383, 5, 8192]))
@example((AffineParams(0, 0, 2, 1, 3), 14, [7, 16383, 0]))
# 0 < k < N: a grid of 100 points (k = 5) with A = 0, a reversed one with
# 2^80 (k = 7), and a dense grid (k = ceil(N/2) = 7) with shuffled indices.
@example((AffineParams(0, 0, 2, 1, 3), 12, grid_indices(12, 100)))
@example((AffineParams(2**80, 2**80 - 1, 0, 1, 1), 13, grid_indices(13, 300)[::-1]))
@example((AffineParams(6, 9, 1, 2, 1), 13, [(4097 * k) % 8192 for k in range(8192 + 10)]))
# k = N, which ceil(N/2) allows at N <= 1: with A = 0, and with 2^80
# coefficients and enough indices (9) that log2 G - 1 alone would exceed N.
@example((AffineParams(0, 0, 1, 0, 4), 1, [1, 0, 1, 1, 0]))
@example((AffineParams(2**80, 2**80 - 1, 0, 1, 1), 1, [0, 1, 1, 0, 0, 1, 1, 0, 1]))
def test_shared_descent_matches_prefix_sums(case):
    p, level, idxs = case
    assume(big_sigma(p, level) > 0)  # no comb has total 0
    comb = build_comb(p, level)
    prefix = list(itertools.accumulate(comb.weights))
    got = list(_masses_through(comb, idxs, len(idxs)))
    assert got == [prefix[i] for i in idxs]
    assert got == [mass_through_oracle(comb, i) for i in idxs]


@PROPERTY
@given(affine_params().filter(lambda p: classify(p).case in ("1B", "2B", "2C")),
       st.text(alphabet="01", max_size=40))
def test_ratio_sequence_fold_matches_per_step_fractions(p, bits):
    assert ratio_sequence_exact(p, bits) == ratio_sequence_oracle(p, bits)


@st.composite
def params_2d(draw):
    """Case 2D in either orientation: one branch factor 0, the other >= 3
    (2^80 among them); b0, b1 small or up to 2^70."""
    a = draw(st.one_of(st.integers(3, 7), st.just(2**80)))
    coeff = st.one_of(st.integers(0, 5), st.integers(0, 2**70))
    b0, b1 = draw(coeff), draw(coeff)
    if b0 == b1 == 0:
        b0 = 1
    a0, a1 = (a, 0) if draw(st.booleans()) else (0, a)
    return AffineParams(a0, a1, b0, b1, draw(st.integers(0, 5)))


@PROPERTY
@given(params_2d(), st.integers(0, 40))
def test_2d_atoms_and_tail_exhaust_the_mass(p, n):
    partial, total = point_mass_total(p, n)
    assert total == 1
    assert partial + point_mass_tail(p, n) == 1


# The closed forms as Fraction chains, with their case guards: the dyadic
# mass (F + b/(A-2)) / (sigma_inf A^i) and the 2D atom weights from the
# oriented (A, b_keep, b_last).

def dyadic_guard_oracle(p: AffineParams, what: str) -> bool:
    """True for the Lebesgue cases 1A/2A; raises for null and pure-point sequences."""
    if p.is_null_sequence:
        raise DomainError("sequence is identically zero (homogeneous with f(1)=0)")
    cls = classify(p)
    if cls.case in ("1A", "2A"):
        return True
    if cls.kind is MeasureKind.PURE_POINT:
        raise DomainError(f"{what} requires A0>0 and A1>0 (case {cls.case} is pure point)")
    return False


def interval_measure_oracle(p: AffineParams, interval: DyadicInterval) -> Fraction:
    if dyadic_guard_oracle(p, "interval closed form"):
        return interval.length
    f_lead = eval_f(p, (1 << interval.depth) | interval.index)
    shift = Fraction(p.b, p.a - 2)
    return (f_lead + shift) / (sigma_inf(p) * p.a**interval.depth)


def ratio_sequence_exact_oracle(p: AffineParams, bits: str) -> list[Fraction]:
    if bits.strip("01"):
        raise DomainError(f"bit string may contain only 0 and 1, got {bits!r}")
    if dyadic_guard_oracle(p, "ratio sequence"):
        return [Fraction(1)] * len(bits)
    return ratio_sequence_oracle(p, bits)


def orient_2d_oracle(p: AffineParams) -> tuple[int, int, int]:
    """(A, b_keep, b_last): A1 = 0 gives (A0, b0, b1), A0 = 0 swaps the roles."""
    cls = classify(p)
    if cls.case != "2D":
        raise DomainError(f"pure-point weights require case 2D, got case {cls.case}")
    if p.a1 == 0:
        return p.a0, p.b0, p.b1
    return p.a1, p.b1, p.b0


def last_one_position_oracle(bits: str) -> int:
    pos = 0
    for j, x in enumerate(bits, start=1):
        if x == "1":
            pos = j
    return pos


def point_mass_oracle(p: AffineParams, bits: str) -> Fraction:
    a, b_keep, b_last = orient_2d_oracle(p)
    if bits.strip("01"):
        raise DomainError(f"bit string may contain only 0 and 1, got {bits!r}")
    n = last_one_position_oracle(bits)
    s_inf = sigma_inf(p)
    if n == 0:
        return (p.f1 + Fraction(b_keep, a - 1)) / s_inf
    return (b_last + Fraction(b_keep, a - 1)) / (s_inf * a**n)


def point_mass_sum_oracle(p: AffineParams, n_max: int) -> tuple[Fraction, Fraction]:
    """(point_mass_tail, point_mass_total's partial) from the oriented weights."""
    a, b_keep, b_last = orient_2d_oracle(p)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    s_inf = sigma_inf(p)
    level = (b_last + Fraction(b_keep, a - 1)) / s_inf
    partial = (p.f1 + Fraction(b_keep, a - 1)) / s_inf + sum(
        (2**(n - 1) * level / a**n for n in range(1, n_max + 1)), Fraction(0))
    return level / (a - 2) * Fraction(2, a)**n_max, partial


def value_or_message(fn):
    """fn()'s result, or the message of the DomainError it raises."""
    try:
        return fn()
    except DomainError as e:
        return f"DomainError: {e}"


POSITIVE = st.sampled_from([1, 2, 3, 4, 2**80])
NONZERO_B = st.tuples(COEFF, COEFF).filter(any)
UNEQUAL = st.tuples(POSITIVE, POSITIVE).filter(lambda a: a[0] != a[1])
# Cases 1A, 1B, 2A, 2B and 2C; f(1) = 0 is drawn wherever b != 0 keeps f non-null.
DYADIC_PARAMS = st.one_of(
    st.builds(lambda a, f1: AffineParams(a, a, 0, 0, f1), POSITIVE, POSITIVE),
    st.builds(lambda a, f1: AffineParams(*a, 0, 0, f1), UNEQUAL, POSITIVE),
    st.builds(lambda a, b, f1: AffineParams(*a, *b, f1),
              st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]), NONZERO_B, COEFF),
    st.builds(lambda a, b, f1: AffineParams(a, a, *b, f1),
              st.sampled_from([2, 3, 4, 2**80]), NONZERO_B, COEFF),
    st.builds(lambda a, b, f1: AffineParams(*a, *b, f1), UNEQUAL, NONZERO_B, COEFF),
)
DIGITS = st.text(alphabet="01", max_size=64)


@PROPERTY
@given(DYADIC_PARAMS, DIGITS)
def test_dyadic_closed_form_matches_fraction_chain(p, bits):
    ratios = ratio_sequence_exact(p, bits)
    assert ratios == ratio_sequence_exact_oracle(p, bits)
    for j in range(len(bits) + 1):
        e = DyadicInterval.from_bits(bits[:j])
        mass = interval_measure(p, e)
        assert mass == interval_measure_oracle(p, e)
        if j:
            assert ratios[j - 1] == 2**j * mass


@PROPERTY
@given(params_2d(), st.integers(1, 64), st.data())
def test_2d_point_mass_matches_oriented_weights(p, n, data):
    prefix = data.draw(st.text(alphabet="01", min_size=n - 1, max_size=n - 1))
    x_n = prefix + "1" + "0" * data.draw(st.integers(0, 3))  # last 1 digit at position n
    for bits in ("", "0" * n, x_n):
        assert point_mass(p, bits) == point_mass_oracle(p, bits)
        assert point_mass(p, tuple(map(int, bits))) == point_mass_oracle(p, bits)
    assert point_mass(p, "") == point_mass_total(p, 0)[0]
    assert 2**(n - 1) * point_mass(p, x_n) == point_mass_total(p, n)[0] - point_mass_total(p, n - 1)[0]
    assert (point_mass_tail(p, n), point_mass_total(p, n)[0]) == point_mass_sum_oracle(p, n)


@st.composite
def dyadic_params_long_digits(draw) -> tuple[AffineParams, str]:
    """DYADIC_PARAMS with digits that may leave the double range: random
    digits, or a run of one digit (up to 1100) then random digits.

    A run multiplies the ratio by about 2 A_x / A per digit: 2x for the
    2^80 digit of (2^80, 1), inf past j = 1024; 2^-79x for the 1 digit, 0.0
    from j = 14; 2/5x for the 1 digit of (4, 1), subnormals and then 0.0 past
    j = 800.  A 2^80 branch factor adds 80 bits per digit to the exact
    ratios, whose Fractions take seconds past 1000 digits, so such params
    draw runs of at most 64 digits; the examples reach inf.
    """
    p = draw(DYADIC_PARAMS)
    run = draw(st.integers(0, 64 if p.a > 2**40 else 1100))
    return p, draw(st.sampled_from("01")) * run + draw(DIGITS)


@PROPERTY
@given(dyadic_params_long_digits())
@example((AffineParams(2**20, 1, 0, 0, 1), "0" * 1100))  # inf from j = 1025
@example((AffineParams(2**80, 1, 0, 0, 1), "1" * 20))  # 0.0 from j = 14
@example((AffineParams(4, 1, 1, 0, 1), "1" * 850))  # subnormals, then 0.0
@example((AffineParams(3, 3, 0, 2**80, 2**80), "01" * 50))
def test_ratio_sequence_is_each_exact_ratio_rounded(case):
    p, bits = case
    want = []
    for r in ratio_sequence_exact(p, bits):
        try:
            want.append(float(r))
        except OverflowError:
            want.append(math.inf)
    assert ratio_sequence(p, bits) == want


NULL_PARAMS = st.tuples(COEFF, COEFF).filter(any).map(lambda a: AffineParams(*a, 0, 0, 0))


@PROPERTY
@given(st.one_of(affine_params(), DYADIC_PARAMS, params_2d(), NULL_PARAMS),
       st.one_of(DIGITS, st.sampled_from(["012", " 1", "2"])), st.integers(-2, 6))
def test_closed_forms_raise_where_the_fraction_chains_do(p, bits, n):
    if not bits.strip("01"):
        e = DyadicInterval.from_bits(bits)
        assert value_or_message(lambda: interval_measure(p, e)) == value_or_message(
            lambda: interval_measure_oracle(p, e))
    assert value_or_message(lambda: ratio_sequence_exact(p, bits)) == value_or_message(
        lambda: ratio_sequence_exact_oracle(p, bits))
    assert value_or_message(lambda: point_mass(p, bits)) == value_or_message(
        lambda: point_mass_oracle(p, bits))
    want = value_or_message(lambda: point_mass_sum_oracle(p, n))
    got_tail = value_or_message(lambda: point_mass_tail(p, n))
    got_total = value_or_message(lambda: point_mass_total(p, n))
    if isinstance(want, str):
        assert got_tail == got_total == want
    else:
        assert (got_tail, got_total) == (want[0], (want[1], 1))


# ----------------------------------------------------------------------
# CLI fuzz: every invocation exits 0, 2 (domain), 3 (resource cap) or 4 (I/O),
# and a JSON table that exits 0 is strict JSON
# ----------------------------------------------------------------------

EXTREME_INT = st.one_of(
    st.integers(-300, 300),
    st.sampled_from([2**53 + 1, 2**1000, 2**1100 + 1, -(10**400), 10**400]),
)
TOL = st.one_of(
    st.sampled_from(["1e-12", "0", "-1", "nan", "inf", "-inf", "1e-320", "5e-324", "1e300"]),
    st.floats(min_value=1e-30, max_value=10.0).map(repr),
)
SMALL = st.integers(-4, 8)


def _ints(*values) -> st.SearchStrategy:
    return st.one_of(SMALL, *map(st.just, values)).map(str)


HUGE = str(10**400)
# Sets of case 2B, 2D and 2C with a 10^400 coefficient: exact values past
# CPython's 4,300-digit int-to-str cap.
HUGE_PARAMS = [[HUGE, HUGE, "0", "1", "1"], [HUGE, "0", "0", "1", "1"], ["1", HUGE, "0", "1", "1"]]
SOURCE = st.one_of(
    st.sampled_from(catalog_names()).map(lambda name: ["--catalog", name]),
    st.lists(st.integers(-1, 4), min_size=5, max_size=5).map(lambda p: ["--params", *map(str, p)]),
    st.sampled_from(HUGE_PARAMS).map(lambda p: ["--params", *p]),
)
TABLES = {"cdf", "fourier", "wiener", "density", "points", "jsr-table"}


@st.composite
def t_spec(draw) -> str:
    lo = draw(EXTREME_INT)
    if draw(st.booleans()):
        return str(lo)
    return f"{lo}..{lo + draw(st.integers(-1, 3))}"


BITS = st.text(alphabet="01", max_size=70) | st.sampled_from(["012", "1x", " 1"])


@st.composite
def argv(draw) -> list[str]:
    cmd = draw(st.sampled_from(["eval", "classify", "cdf", "fourier", "wiener", "density",
                                "interval", "points", "jsr-table"]))
    if cmd == "jsr-table":
        args = [cmd, "--sweep", draw(st.integers(-3, 3).map(str))]
    else:
        args = [cmd, *draw(SOURCE)]
    if cmd == "eval":
        if draw(st.booleans()):
            # f(n) gains up to 400 digits per binary digit of n at a 10^400
            # coefficient, and printing is quadratic in the digit count: small n.
            small = st.one_of(st.integers(-300, 300), st.just(2**12 - 1))  # 4,400 digits
            args += ["--n", str(draw(small if HUGE in args else EXTREME_INT))]
        else:
            args += ["--region", draw(_ints(27, 40))]
    elif cmd == "cdf":
        args += ["--N", draw(_ints(26, 27, 30)), "--grid", draw(_ints(1024))]
    elif cmd == "fourier":
        mode = draw(st.sampled_from(["limit", "recursive", "direct"]))
        args += ["--mode", mode, "--t", draw(t_spec()), "--tol", draw(TOL)]
        if mode != "limit" or draw(st.booleans()):
            args += ["--N", draw(_ints(27, 1100))]
    elif cmd == "wiener":
        args += ["--n-min", draw(_ints()), "--n-max", draw(_ints(15, 40)), "--tol", draw(TOL)]
    elif cmd == "density":
        if draw(st.booleans()):
            args += ["--bits", draw(BITS)]
        else:
            args += ["--grid", draw(_ints(64, 100))]
        args += ["--depth", draw(st.integers(-3, 80).map(str))]
    elif cmd == "interval":
        args += ["--bits", draw(BITS)]
        if draw(st.booleans()):
            args += ["--N", draw(_ints(26, 27, 30))]
    elif cmd == "points":
        args += ["--nmax", draw(st.integers(-5, 60).map(str))]
    if cmd in TABLES:
        args += draw(st.sampled_from([[], ["--format", "json"]]))
    return args


def _run(argv_: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv_)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue()


def _refuse_constant(name: str):
    raise ValueError(f"{name} in a JSON table")


@FUZZ
@given(argv())
@example(["fourier", "--params", "1", "2", "0", "1", "1", "--mode", "recursive", "--N", "1100",
          "--t", str(2**1000)])
@example(["fourier", "--params", "3", "5", "1", "1", "1", "--mode", "limit", "--tol", "1e-3",
          "--t", str(2**400)])
@example(["eval", "--params", "1", HUGE, "0", "1", "1", "--n", str(2**12 - 1)])
@example(["cdf", "--catalog", "cantor", "--N", "8", "--grid", "100", "--format", "json"])
@example(["wiener", "--catalog", "gould_G", "--n-max", "8", "--format", "json"])
@example(["density", "--params", HUGE, HUGE, "0", "1", "1", "--grid", "64", "--depth", "80",
          "--format", "json"])
@example(["points", "--params", HUGE, "0", "0", "1", "1", "--nmax", "60", "--format", "json"])
def test_cli_exit_codes(argv_):
    code, out = _run(argv_)
    assert code in (0, 2, 3, 4), argv_
    if code == 0 and argv_[-2:] == ["--format", "json"]:
        assert isinstance(json.loads(out, parse_constant=_refuse_constant), list), argv_


# ----------------------------------------------------------------------
# Table writer against a per-value writer
# ----------------------------------------------------------------------

def emit_refuses(cols: list[list], fmt: str) -> bool:
    """The writer's contract: each column holds only ints, only floats or
    only strs, and a JSON table no non-finite float."""
    kinds = [set(map(type, col)) for col in cols]
    floats = [v for col in cols for v in col if type(v) is float]
    return (any(len(k) > 1 or not k <= {int, float, str} for k in kinds)
            or fmt == "json" and not all(map(math.isfinite, floats)))


FINITE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 2.0**-1070, 2.2250738585072014e-308, 2.0**53 + 2,
                     2.0**53 - 1, float(2**53 + 1), sys.float_info.max, -sys.float_info.max, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False))
CELL_FLOATS = st.one_of(FINITE_FLOATS, st.sampled_from([math.nan, math.inf, -math.inf]), st.floats())
CELL_INTS = st.one_of(st.integers(), st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, -(2**63) - 1,
                                                     2**100, -(2**100), 10**400]))
CELL_STRINGS = st.one_of(st.text(max_size=6),
                         st.sampled_from(['"', "\\", 'a"b\\c', "\u00e9", "\u2028", "\U0001f600",
                                          "%", "%s", "%(x)d", ",", "\n", "\x00"]))


@st.composite
def tables(draw) -> tuple[list[str], list[list], str]:
    """A format, a header of 1-4 distinct keys and as many columns of 0-6
    values, each column all ints, all strs or all floats (finite in JSON)."""
    fmt = draw(st.sampled_from(["csv", "json"]))
    header = draw(st.lists(st.one_of(CELL_STRINGS, st.sampled_from(["t", "re", "a%b", 'k"'])),
                           min_size=1, max_size=4, unique=True))
    n = draw(st.sampled_from([0, 1, 2, 6]))
    kinds = [CELL_INTS, CELL_STRINGS, FINITE_FLOATS if fmt == "json" else CELL_FLOATS]
    cols = [draw(st.lists(draw(st.sampled_from(kinds)), min_size=n, max_size=n)) for _ in header]
    return header, cols, fmt


@PROPERTY
@given(tables())
@example((["t", "re"], [[-(2**100), 2**63 - 1], [math.nan, -0.0]], "csv"))
@example((["t", "re"], [[-(2**100), 10**400], [5e-324, -0.0]], "json"))
@example((["x"], [[sys.float_info.max, sys.float_info.max]], "json"))  # the sum overflows
@example((["x", "y"], [[], []], "json"))
@example((["x", "y"], [], "csv"))  # zip(*rows) of no rows
@example((["x"], [[1, 2.0]], "csv"))  # refused: a mixed column
@example((["x"], [["1", 2]], "csv"))  # refused: a mixed column
@example((["x"], [[True, False]], "json"))  # refused: a bool column
@example((["x"], [[Fraction(1, 3)]], "csv"))  # refused: a Fraction column
@example((["x", "y"], [[1, 2], [1.0, math.inf]], "json"))  # refused: inf in JSON
def test_emit_matches_per_value_writer(table):
    header, cols, fmt = table
    rows, out = list(zip(*cols)), io.StringIO()
    if emit_refuses(cols, fmt):
        with pytest.raises(ValueError):
            _emit(header, rows, fmt, out)
        assert out.getvalue() == ""
        return
    _emit(header, rows, fmt, out)
    assert out.getvalue() == emit_oracle(header, rows, fmt)


@st.composite
def chunked_tables(draw) -> tuple[list[str], list[tuple], str, int]:
    """The rows of a table of tables(), half the time followed by 1-3 rows
    whose columns draw their kinds afresh, so that a column may change its
    kind there, and a chunk size of 1-4 rows to write them in."""
    header, cols, fmt = draw(tables())
    rows = list(zip(*cols))
    if draw(st.booleans()):
        kinds = [CELL_INTS, CELL_STRINGS, FINITE_FLOATS if fmt == "json" else CELL_FLOATS]
        m = draw(st.integers(1, 3))
        rows += zip(*[draw(st.lists(draw(st.sampled_from(kinds)), min_size=m, max_size=m))
                      for _ in header])
    return header, rows, fmt, draw(st.integers(1, 4))


@PROPERTY
@given(chunked_tables())
@example((["x", "y"], [], "json", 1))  # no rows: an empty table
@example((["x"], [(1.0,), (math.inf,), (2.0,)], "json", 2))  # refused in the first chunk
@example((["x"], [("a",), (1,), ("b",)], "csv", 2))  # refused in the first chunk
@example((["x"], [(1,), (2,), (3.0,)], "csv", 2))  # refused in the second chunk
@example((["x", "y"], [(1, "a"), (2, 'b"'), (3, "\u00e9")], "json", 2))  # strs across a chunk edge
def test_emit_over_chunks_matches_the_whole_table(table):
    header, rows, fmt, size = table
    out = io.StringIO()
    # Patched here, not by a fixture: a fixture is not reset between examples.
    with mock.patch.object(cli, "_CHUNK", size):
        if not emit_refuses(list(zip(*rows)), fmt):
            _emit(header, rows, fmt, out)
            assert out.getvalue() == emit_oracle(header, rows, fmt)
            return
        with pytest.raises(ValueError):
            _emit(header, rows, fmt, out)
    # A chunk is checked whole before any of its rows is written, so the rows
    # of every chunk before the refused one, and only those, are written.
    done = next(hi for hi in range(0, len(rows), size) if emit_refuses(list(zip(*rows[:hi + size])), fmt))
    want = emit_oracle(header, rows[:done], fmt) if done else ""
    assert out.getvalue() == (want[:-len("\n]\n")] if done and fmt == "json" else want)


def cli_output(argv_: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv_) == 0, argv_
    return out.getvalue()


def points_rows_oracle(p: AffineParams, n_max: int) -> list[tuple]:
    """The rows of `points` as the per-row loop built them: one point_mass
    call per level, on the bit string whose last 1 sits at position n."""
    rows = []
    cumulative = Fraction(0)
    for n in range(n_max + 1):
        count = 1 if n == 0 else 1 << (n - 1)
        each = point_mass(p, "0" * (n - 1) + "1" if n else "")
        cumulative += count * each
        rows.append((n, count, each, count * each, cumulative))
    return rows


def density_grid_rows_oracle(p: AffineParams, grid: int, depth: int) -> list[tuple]:
    """The rows of `density --grid` point by point: the series value and
    tail bound of density_oracle at each grid point's digits."""
    width = grid.bit_length() - 1
    return [(k / grid, *density_oracle(p, format(k, f"0{width}b"), depth)) for k in range(grid)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("params, n_max", [
    ((3, 0, 0, 1, 1), 0), ((3, 0, 0, 1, 1), 1), ((3, 0, 0, 1, 1), 1000),
    ((0, 3, 0, 1, 1), 0), ((0, 3, 0, 1, 1), 1), ((0, 3, 0, 1, 1), 1000),
    ((5, 0, 2, 3, 0), 9), ((0, 4, 1, 0, 2), 9),
])
def test_points_table_matches_per_row_point_mass(params, n_max, fmt):
    argv_ = ["points", "--params", *map(str, params), "--nmax", str(n_max), "--format", fmt]
    want = emit_oracle(["n", "count", "mass_each", "mass_level", "cumulative"],
                       points_rows_oracle(AffineParams(*params), n_max), fmt)
    assert cli_output(argv_) == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("params", [(2, 2, 0, 1, 1), (3, 3, 1, 0, 0), (4, 4, 2, 5, 3)])
@pytest.mark.parametrize("grid, depth", [(8, 0), (8, 2), (8, 3), (8, 4), (64, 6), (64, 40)])
def test_density_grid_table_matches_per_point_series(params, grid, depth, fmt):
    argv_ = ["density", "--params", *map(str, params), "--grid", str(grid), "--depth", str(depth),
             "--format", fmt]
    want = emit_oracle(["x", "g", "tail_bound"],
                       density_grid_rows_oracle(AffineParams(*params), grid, depth), fmt)
    assert cli_output(argv_) == want


# ----------------------------------------------------------------------
# Batched coefficient kernel against the scalar complex loops
# ----------------------------------------------------------------------

def suffix_products(p: AffineParams, t: int, depth: int) -> list[complex]:
    """suffix[n] = prod_{j=n+1..depth} w_j(t), so suffix[0] is the full product."""
    suffix = [complex(1.0)] * (depth + 1)
    for n in range(depth, 0, -1):
        suffix[n - 1] = (p.a0 + p.a1 * _unit_phase(t, n)) / p.a * suffix[n]
    return suffix


def indicator_sum(p: AffineParams, t: int, suffix: list[complex], k: int) -> complex:
    """f(1) P_0 + sum_{n=1..k} 2^(n-1) (b0 + b1 e^{-2 pi i t/2^n}) / A^n * P_n;
    where 2^(n-1) or A^n has no double, one correctly rounded scale
    2^(n-1)/A^n stands for the pair (over 1), or 1 where b = 0 (z is then a
    zero, and so is the term whatever its positive scale).  OverflowError
    where the sum is not finite (2^(n-1) z may overflow before the division)."""
    acc = p.f1 * suffix[0]
    for n in range(1, k + 1):
        z = p.b0 + p.b1 * _unit_phase(t, n)
        try:
            coef = (1 << (n - 1)) * z / p.a**n
        except OverflowError:
            coef = float(Fraction(1 << (n - 1), p.a**n) if p.b else 1) * z / 1
        acc += coef * suffix[n]
    if not cmath.isfinite(acc):
        raise OverflowError("the indicator sum is not finite")
    return acc


def product_depth(p: AffineParams, t: int, tol: float) -> tuple[int, float]:
    """Depth D and tail bound with sum_{n>D} amax 2 pi |t| / (A 2^n) < min(tol, 1)/2."""
    amax = max(p.a0, p.a1)
    depth = max(_v2(t) + 8, 16)
    try:
        target = 4.0 * math.pi * amax * abs(t) / (p.a * min(tol, 1.0))
        if target > 1.0:
            depth = max(depth, int(math.log2(target)) + 2)
        tail = amax * TAU * abs(t) / (p.a * math.ldexp(1.0, depth))
    except OverflowError:
        raise DomainError("|t|/tol too large") from None
    return depth, math.expm1(tail)


def limit_oracle(p: AffineParams, t: int, tol: float) -> tuple[complex, float, int]:
    """(value, tail_bound, depth) of mu^(t), one t at a time in Python complex arithmetic."""
    if not tol > 0:
        raise DomainError("tol must be > 0")
    if p.is_null_sequence:
        raise DomainError("null sequence")
    if t == 0:
        return complex(1.0), 0.0, 0
    if not p.homogeneous and p.a <= 2:
        return complex(0.0), 0.0, 0
    depth, tail = product_depth(p, t, tol)
    suffix = suffix_products(p, t, depth)
    if p.homogeneous:
        return suffix[0], tail, depth
    return indicator_sum(p, t, suffix, _v2(t) + 1) / float(sigma_inf(p)), tail, depth


def recursive_oracle(p: AffineParams, level: int, t: int) -> complex:
    """mu_N^(t), one t at a time in Python complex arithmetic: exactly 1 where
    2^N divides t (every t at N = 0, unless Sigma(0) = f(1) = 0)."""
    if level < 0:
        raise DomainError("level must be >= 0")
    if p.is_null_sequence:
        raise DomainError("null sequence")
    if level == 0 and p.f1 == 0:
        raise DomainError("empty level-0 comb")
    if t % (1 << level) == 0:
        return complex(1.0)
    if p.a == 0:
        if t % (1 << (level - 1)):
            return complex(0.0)
        return (p.b0 + p.b1 * _unit_phase(t, level)) / p.b
    acc = indicator_sum(p, t, suffix_products(p, t, level), min(level, _v2(t) + 1))
    return acc / float(sigma_norm(p, level))


def recursive_row(p: AffineParams, level: int, t: int) -> tuple[complex, float, int]:
    """(value, tail_bound, depth) of a level-N table row: bound 0 and depth 0
    where 2^N divides t; elsewhere the table's one rounding bound (over the
    normaliser sigma(N), or b for A = 0) and depth N where the product runs
    (A != 0), else 0."""
    value = recursive_oracle(p, level, t)
    if t % (1 << level) == 0:
        return value, 0.0, 0
    norm = float(p.b) if p.a == 0 else float(sigma_norm(p, level))
    return value, _level_bound(level, norm), level if p.a else 0


def wiener_oracle(p: AffineParams, top: int, tol: float) -> list[float]:
    """W_0..W_top with one running Python float sum over n = 1..2^top."""
    out, running, n = [], 0.0, 1
    for level in range(top + 1):
        while n <= (1 << level):
            b = n >> _v2(n) if p.homogeneous else n
            running += abs(limit_oracle(p, b, tol)[0]) ** 2
            n += 1
        out.append(running / (1 << level))
    return out


def outcome(fn, errors=(DomainError,)):
    """fn()'s result, or "error" when it raises one of errors."""
    try:
        return fn()
    except errors:
        return "error"


def oracle_outcome(fn):
    """outcome() of an oracle, which also raises a bare OverflowError beyond
    the double range (the program raises DomainError there)."""
    return outcome(fn, (DomainError, OverflowError))


def bits(x: float) -> str:
    return float(x).hex()


KERNEL_T = st.one_of(
    st.integers(-300, 300),
    st.builds(lambda k, m, s: s * m * 2**k, st.integers(0, 70), st.sampled_from([1, 3]),
              st.sampled_from([1, -1])),
    st.sampled_from([2**62, -(2**62), 2**63 - 1, -(2**63), 2**64 + 1, -(2**70) - 3,
                     2**100 + 3, 3**90]),
    st.integers(-(2**40), 2**40),
)


@st.composite
def kernel_params(draw):
    """affine_params(), made homogeneous (b0 = b1 = 0) half of the time."""
    p = draw(affine_params())
    if p.a and draw(st.booleans()):
        return AffineParams(p.a0, p.a1, 0, 0, p.f1 or 1)
    return p


def assert_table_matches(tab, want: list) -> None:
    for i, (value, tail, depth) in enumerate(want):
        got = (tab.re[i], tab.im[i], tab.abs[i], tab.tail_bound[i])
        assert [bits(x) for x in got] == [bits(x) for x in (value.real, value.imag, abs(value), tail)], i
        assert tab.depth[i] == depth, i


def check_batch(table, oracle, ts) -> None:
    """table(ts) raises DomainError iff the oracle fails on some t; table on the
    other t equals the oracle bit for bit."""
    want = [oracle_outcome(lambda t=t: oracle(t)) for t in ts]
    if "error" in want:
        assert outcome(lambda: table(ts)) == "error"
    kept = [(t, w) for t, w in zip(ts, want) if w != "error"]
    if kept:
        assert_table_matches(table([t for t, _ in kept]), [w for _, w in kept])


# A^n past the double range in the indicator sum: one scale 2^(n-1)/A^n.
GAP_PARAMS = AffineParams(2**80, 2**80 - 1, 0, 1, 1)
BIG_EVEN = [2**64, 3 * 2**65, -(2**70)]


@KERNEL
@given(kernel_params(), st.lists(KERNEL_T, min_size=1, max_size=6), TOL.map(float))
@example(GAP_PARAMS, BIG_EVEN, 1e-12)
@example(AffineParams(3, 5, 1, 1, 1), [2**400, 3], 1e-3)
@example(AffineParams(1, 2, 10**300, 0, 1), [2**40, 3], 1e-12)  # 2^(n-1) b0 has no double
@example(AffineParams(0, 3, 0, 1, 1), [1, 2, 12, -5, 2**63 - 1, 2**64 + 1], 1e-12)  # A0 = 0
@example(AffineParams(3, 0, 0, 0, 1), [1, 6, -7, 2**63 - 1, -(2**63)], 1e-12)  # A1 = 0
@example(AffineParams(0, 3, 2, 0, 1), [1, 3, 8, -6], 1e-3)  # A0 = 0 and b1 = 0
@example(AffineParams(2, 5, 3, 0, 1), [1, 2, 3, 96, -(2**40) - 1], 1e-12)  # b1 = 0
def test_limit_kernel_matches_scalar_loops(p, ts, tol):
    check_batch(lambda ts: coeff_table(p, ts, tol), lambda t: limit_oracle(p, t, tol), ts)
    want = oracle_outcome(lambda: limit_oracle(p, ts[0], tol))
    got = outcome(lambda: coeff_limit(p, ts[0], tol))
    assert want == got if want == "error" else (got.value, got.tail_bound, got.depth) == want


@PROPERTY
@given(kernel_params(), st.integers(0, 1100), st.lists(KERNEL_T, min_size=1, max_size=4))
@example(GAP_PARAMS, 18, [4096, 8192, 3])
@example(GAP_PARAMS, 1100, BIG_EVEN)
@example(AffineParams(1, 2, 0, 1, 1), 1100, [2**1000, 3 * 2**700])
@example(AffineParams(1, 0, 0, 0, 1), 1100, [2**1024, 3])  # b = 0, A = 1: 2^1024 has no double
@example(AffineParams(1, 1, 10**300, 0, 1), 40, [2**30, 3])  # 2^(n-1) b0 has no double
@example(AffineParams(1, 2, 0, 1, 0), 0, [1])  # Sigma(0) = f(1) = 0
@example(AffineParams(0, 0, 2, 1, 3), 3, [0, 4, 8, -4, 12, 1])
@example(AffineParams(0, 3, 0, 1, 1), 40, [1, 2, 12, -5, 2**63 - 1])  # A0 = 0
@example(AffineParams(3, 0, 0, 1, 1), 70, [1, 6, -7, 2**64 + 1])  # A1 = 0
@example(AffineParams(3, 0, 0, 0, 1), 40, [3, 2**20, -(2**63)])  # A1 = 0, homogeneous
@example(AffineParams(2, 5, 3, 0, 1), 40, [1, 2, 3, 96, -(2**40) - 1])  # b1 = 0
def test_recursive_kernel_matches_scalar_loops(p, level, ts):
    check_batch(lambda ts: coeff_table(p, ts, level=level), lambda t: recursive_row(p, level, t), ts)
    want = oracle_outcome(lambda: recursive_oracle(p, level, ts[0]))
    got = outcome(lambda: coeff_recursive(p, level, ts[0]))
    assert want == got if want == "error" else bits(got.real) + bits(got.imag) == bits(want.real) + bits(want.imag)


PHASE_T = st.one_of(KERNEL_T, st.sampled_from([2**53 + 1, 2**62 + 1, 2**63 - 3]),
                    st.integers(2**53, 2**63 - 1))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(PHASE_T, min_size=1, max_size=8))
def test_phases_match_unit_phase(ts):
    """Every phase of the kernel's one phase source equals _unit_phase bit for
    bit for the odd keys it is fed (the odd parts of ts, 1 for t = 0) at
    every level n >= 2 a limit or recursive table can reach, for each
    prefix, with the keys held as Python ints and, when every key fits, as
    int64 too."""
    odd = [t >> _v2(t) if t else 1 for t in ts]
    held = [np.array(odd, dtype=object)]
    if all(-(2**63) <= b < 2**63 for b in odd):
        held.append(np.array(odd, dtype=np.int64))
    for keys in held:
        phase = _phases(keys)
        for n in range(2, 1101):
            m = len(odd) - n % len(odd)
            re, im = phase(n, m)
            assert len(re) == len(im) == m
            for b, x, y in zip(odd, re.tolist(), im.tolist()):
                z = _unit_phase(b, n)
                assert (bits(x), bits(y)) == (bits(z.real), bits(z.imag)), (b, n, keys.dtype)


# Phase parts and products: signed zeros, +-1, subnormals, general values.
PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 5e-324, -5e-324, 0.7071067811865476, -1e-300, 3.5]


@pytest.mark.parametrize("p", [AffineParams(1, 2, 0, 1, 1), AffineParams(0, 3, 0, 1, 1),
                               AffineParams(3, 0, 0, 0, 1), AffineParams(3, 0, 2, 0, 1),
                               AffineParams(2**80, 2**80 - 1, 0, 1, 1)], ids=str)
def test_lean_steps_match_complex_arithmetic(p):
    """The kernel's reduced operations equal CPython's complex arithmetic bit
    for bit, with A0 = 0, A1 = 0 and b1 = 0 among the sets: _factor against
    (A0 + A1 e)/A at every pair of phase parts, _mul_into against the
    complex product at every pair of factor and product parts, and the
    per-t pass's _signs against (A0 + A1 s)/A and 2^(n-1) (b0 + b1 s)/A^n
    at the exact signs s = -1 and 1."""
    c = _floats(p, 3)
    pairs = list(itertools.product(PARTS, repeat=2))
    er, ei = (np.array(part) for part in zip(*pairs))
    wr, wi = _factor(c, er.copy(), ei.copy())
    for (x, y), u, v in zip(pairs, wr.tolist(), wi.tolist()):
        want = (p.a0 + p.a1 * complex(x, y)) / p.a
        assert (bits(u), bits(v)) == (bits(want.real), bits(want.imag)), (x, y)
    for wr, wi in pairs:
        pr, pi = er.copy(), ei.copy()
        _mul_into(np.full(len(pairs), wr), np.full(len(pairs), wi), pr, pi)
        for (x, y), u, v in zip(pairs, pr.tolist(), pi.tolist()):
            want = complex(wr, wi) * complex(x, y)
            assert (bits(u), bits(v)) == (bits(want.real), bits(want.imag)), (wr, wi, x, y)
    v2 = np.array([0, 1, 2, 0])
    step = _signs(c, v2, True)
    for n in (3, 2, 1):
        wr, wi, tr = step(n, 4)
        assert bits(wi) == bits(0.0)
        for v, u, t in zip(v2.tolist(), wr.tolist(), tr.tolist()):
            e = complex(-1.0 if v == n - 1 else 1.0, 0.0)
            want_w = (p.a0 + p.a1 * e) / p.a
            want_t = (float(2 ** (n - 1)) * (p.b0 + p.b1 * e)) / float(p.a**n)
            assert [bits(u), bits(t)] == [bits(want_w.real), bits(want_t.real)], (n, v)
            assert bits(want_w.imag) == bits(want_t.imag) == bits(0.0), (n, v)


def test_kernel_asks_phases_only_for_odd_keys_from_level_two(monkeypatch):
    """The contract test_phases_match_unit_phase relies on: over a table of
    even, negative, 2^63-multiple and beyond-2^64 t, in limit mode and at
    recursive N = 2, 70 and 1100, every key the kernel hands _phases is odd
    and every level it asks for is >= 2.  The keys come in the dtype the
    table is held in: Python ints for that table, and int64 for the same
    calls over its int64 t alone."""
    served, dtypes = [], set()

    def spy(odd):
        dtypes.add(odd.dtype)
        phase = _phases(odd)

        def serve(n, m):
            served.append((n, odd[:m].tolist()))
            return phase(n, m)

        return serve

    monkeypatch.setattr("ghostmeasure.fourier._phases", spy)
    ts = (list(range(-40, 41)) + [j * 2**63 for j in (1, -1, 2, 3, -5)]
          + [2**64 + 2, 3 * 2**65, -(2**70) - 6, 2**100 + 4, 3**90 * 8])
    p = AffineParams(1, 2, 0, 1, 1)
    for table in (ts, [t for t in ts if -(2**63) <= t < 2**63]):
        coeff_table(p, table)
        for level in (2, 70, 1100):
            coeff_table(p, table, level=level)
    levels = {n for n, _ in served}
    assert min(levels) == 2 and max(levels) == 1100
    assert all(b % 2 for _, keys in served for b in keys)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


# int64 t: 0, negatives, powers of two up to 2^62 and the int64 edges among
# them; and one t past int64 to add to a table so that it is held as ints.
INT64_T = st.one_of(
    st.integers(-300, 300),
    st.builds(lambda k, m, s: s * m * 2**k, st.integers(0, 62), st.sampled_from([1, 3]),
              st.sampled_from([1, -1])).filter(lambda t: -(2**63) <= t < 2**63),
    st.sampled_from([0, 2**62, -(2**62), -(2**63), 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)
PAST_INT64 = st.sampled_from([2**63, -(2**63) - 1, 2**64, -(2**64) + 2, 3 * 2**70 + 1])
A_ZERO = AffineParams(0, 0, 2, 1, 3)
EDGES = [0, 1, -1, 2, -6, 2**61, 2**62, -(2**62), 3 * 2**61, -3 * 2**61, -(2**63), 2**63 - 1, 2**63 - 2]


@PROPERTY
@given(st.one_of(kernel_params(), st.just(A_ZERO)), st.sampled_from([None, 0, 1, 2, 62, 63, 64, 70]),
       st.lists(INT64_T, min_size=1, max_size=8), PAST_INT64)
@example(A_ZERO, None, EDGES, 2**64)
@example(A_ZERO, 0, EDGES, 2**64)
@example(A_ZERO, 1, EDGES, 2**64)
@example(A_ZERO, 2, EDGES, -(2**63) - 1)
@example(A_ZERO, 62, EDGES, 2**63)
@example(A_ZERO, 63, EDGES, 3 * 2**70 + 1)
@example(A_ZERO, 64, EDGES, 2**64)
@example(A_ZERO, 70, EDGES, -(2**64) + 2)
@example(AffineParams(1, 2, 0, 1, 1), None, EDGES, 2**64)
@example(AffineParams(1, 2, 0, 1, 1), 63, EDGES, 2**63)
@example(AffineParams(1, 2, 0, 1, 1), 64, EDGES, -(2**63) - 1)
def test_dtype_does_not_change_a_value(p, level, ts, past):
    """A table of int64 t equals, row for row and bit for bit (re, im,
    tail_bound as float.hex, and depth), the same t held as Python ints by
    one more t past int64, whose row is then dropped: in limit mode and at
    levels 0 to 70, the A = 0 comb among the sets.  Where one table is a
    domain error, so is the other with the same message, unless the added t
    alone is one."""
    def table(ts):
        try:
            return coeff_table(p, ts, level=level)
        except DomainError as exc:
            return str(exc)

    assert _held(ts).dtype == np.int64 and _held([*ts, past]).dtype == object
    int64, ints = table(ts), table([*ts, past])
    if isinstance(ints, str) and not isinstance(int64, str):
        assert isinstance(table([past]), str)
        return
    if isinstance(int64, str):
        assert ints == int64
        return
    for field in ("re", "im", "tail_bound"):
        want = list(map(bits, getattr(int64, field).tolist()))
        assert list(map(bits, getattr(ints, field)[:len(ts)].tolist())) == want, field
    assert ints.depth[:len(ts)].tolist() == int64.depth.tolist()


def kernel_keys(ts, depth_of) -> set:
    """The kernel's keys (odd part, D - v2) of the nonzero t with D - v2 >= 2."""
    keys = {(t >> _v2(t), depth_of(t) - _v2(t)) for t in ts if t}
    return {key for key in keys if key[1] >= 2}


def test_table_across_blocks_matches_scalar_loops():
    """One table of more than _BLOCK t, mixing small positive t, negative t
    deeper than 63, t beyond int64, nonzero multiples of 2^63, and more than
    _BLOCK kernel keys each shared by several t (b 2^a for a = 0, 3, some of
    them repeated), equals the scalar loops bit for bit in limit and
    recursive mode."""
    rng = random.Random(5)
    shared = [b << a for b in range(1, 2 * _BLOCK + 200, 2) for a in (0, 3)]
    ts = (list(range(1, 1400)) + [2**40 + 3 * j for j in range(200)]
          + [-(2**30) - 7 * j for j in range(400)] + [2**100 + 3 + 2 * j for j in range(60)]
          + [j * 2**63 for j in (1, -1, 2, 3, -5, 7)] + [3**60, -(2**90), 2**63 - 1, -(2**63) - 1]
          + shared + shared[::3])
    rng.shuffle(ts)
    assert len(ts) > _BLOCK
    p = AffineParams(1, 2, 0, 1, 1)
    limit_keys = kernel_keys(ts, lambda t: product_depth(p, t, 1e-12)[0])
    recursive_keys = kernel_keys(ts, lambda t: 70)
    assert len(ts) > 1.5 * len(limit_keys) and len(limit_keys) > _BLOCK
    assert len(ts) > 1.1 * len(recursive_keys) and len(recursive_keys) > _BLOCK
    assert_table_matches(coeff_table(p, ts), [limit_oracle(p, t, 1e-12) for t in ts])
    want = [recursive_row(p, 70, t) for t in ts]
    assert_table_matches(coeff_table(p, ts, level=70), want)


ODD = st.one_of(
    st.integers(-40, 40).map(lambda k: 2 * k + 1),
    st.integers(-4, 4).map(lambda k: 2**53 + 2 * k + 1),
    st.integers(0, 3).map(lambda k: 2**64 + 2 * k + 1),
    st.sampled_from([3, 3 + 2**64, -(3 + 2**64), 2**100 + 1, -(2**63) + 1]),
)


@st.composite
def doubling_tables(draw) -> list[int]:
    """{s b 2^a}: a few odd b, each at a run of consecutive a in 0..70, both
    signs, with t = 0 and repeated t drawn in; 3 and 3 + 2^64 share their
    low 63 bits."""
    ts = []
    for b in draw(st.lists(ODD, min_size=1, max_size=3)):
        lo = draw(st.integers(0, 70))
        for a in range(lo, min(lo + draw(st.integers(1, 5)), 71)):
            ts += [s * (b << a) for s in draw(st.sampled_from([(1,), (-1,), (1, -1)]))]
    ts += draw(st.lists(st.sampled_from(ts), max_size=3)) + draw(st.sampled_from([[], [0]]))
    return draw(st.permutations(ts))


@KERNEL
@given(kernel_params(), doubling_tables(), st.sampled_from([1e-12, 1e-3, 1e-20]),
       st.integers(1, 80))
@example(AffineParams(1, 2, 0, 1, 1), [3, 3 + 2**64, 6, 6 + 2**65], 1e-3, 40)
@example(AffineParams(3, 5, 0, 0, 1), [5 << 70, 5 << 69, -5, 0, 5 << 70], 1e-3, 70)
def test_tables_closed_under_doubling_match_scalar_loops(p, ts, tol, level):
    """t and 2^a t share a kernel key (odd part, reduced depth); every table
    of such t equals the scalar loops bit for bit, in limit mode (at
    tol = 1e-3 the depth floors make D(t) - a differ from D(b)) and in
    recursive mode, levels at or below v2(t) included."""
    check_batch(lambda ts: coeff_table(p, ts, tol), lambda t: limit_oracle(p, t, tol), ts)
    check_batch(lambda ts: coeff_table(p, ts, level=level), lambda t: recursive_row(p, level, t), ts)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(kernel_params(), st.integers(0, 10), st.sampled_from([1e-12, 1e-3, 1e-20]))
def test_wiener_profile_matches_running_sum(p, top, tol):
    want = oracle_outcome(lambda: wiener_oracle(p, top, tol))
    got = outcome(lambda: wiener_profile(p, range(top + 1), tol))
    if want == "error":
        assert got == "error"
        return
    assert [bits(got[n]) for n in range(top + 1)] == [bits(w) for w in want]


# ----------------------------------------------------------------------
# Level-N coefficients against comb sums
# ----------------------------------------------------------------------

def fsum_direct(weights, total: int, t: int) -> complex:
    """mu_N^(t) by compensated direct summation over the exact atoms weights
    of a comb with that total.

    The angle of atom n is built from the exact residue (t*n mod 2^N), so no
    range-reduction error enters; the real and imaginary accumulations use
    math.fsum.  t = 0 (mod 2^N) returns exactly 1.  Atoms and total share a
    right shift when the total is beyond the double range.
    """
    size = len(weights)
    r = t % size
    if r == 0:
        return complex(1.0, 0.0)
    shift = max(total.bit_length() - 900, 0)
    w = np.fromiter((x >> shift for x in weights), dtype=float, count=size)
    total = float(total >> shift)
    n = np.arange(size, dtype=np.int64)
    frac = (r * n) % size
    ang = frac * (2.0 * np.pi / size)
    re = math.fsum(w * np.cos(ang))
    im = -math.fsum(w * np.sin(ang))
    return complex(re / total, im / total)


def mp_error(weights, total: int, t: int, value: complex) -> float:
    """|value - mu_N^(t)|, the coefficient as a plain DFT at 40 digits over
    the exact atoms weights of a comb with that total."""
    mpmath = pytest.importorskip("mpmath")
    size = len(weights)
    with mpmath.workdps(40):
        acc = mpmath.fsum(w * mpmath.expjpi(mpmath.mpf(-2 * (t * n % size)) / size)
                          for n, w in enumerate(weights))
        return float(abs(mpmath.mpc(value.real, value.imag) - acc / total))


@st.composite
def comb_params(draw):
    """affine_params(), case 2D in either orientation, or A = 0."""
    kind = draw(st.sampled_from(["any", "2d", "a0"]))
    if kind == "2d":
        return draw(params_2d())
    if kind == "a0":
        b0, b1 = draw(COEFF), draw(COEFF)
        return AffineParams(0, 0, b0, b1 if b0 or b1 else 1, draw(COEFF))
    return draw(affine_params())


@st.composite
def comb_case(draw):
    """(params, N, ts): N in 0..12; t near 0, near multiples of 2^N and of
    2^(N-1), negative, and beyond the int64 range.  Combs with total 0
    (f(1) = 0 at N = 0) take f(1) = 1."""
    p, level = draw(comb_params()), draw(st.integers(0, 12))
    if big_sigma(p, level) == 0:
        p = AffineParams(p.a0, p.a1, p.b0, p.b1, 1)
    size = 1 << level
    near = st.builds(lambda m, h, d: m * size + h + d, st.integers(-3, 3),
                     st.sampled_from([0, size >> 1]), st.sampled_from([0, 0, -1, 1]))
    t = st.one_of(st.integers(-300, 300), near, st.sampled_from([2**100 + 3, -(2**90)]))
    return p, level, draw(st.lists(t, min_size=1, max_size=4))


def check_direct_case(case, error) -> None:
    """coeff_table at level N and coeff_recursive agree, and error(weights,
    total, t, value) <= the reported bound for every t (0 exactly where
    t = 0 mod 2^N), the comb's exact atoms built once for every t."""
    p, level, ts = case
    comb = build_comb(p, level)
    weights = comb.weights
    tab = coeff_table(p, ts, level=level)
    for i, t in enumerate(ts):
        value = complex(tab.re[i], tab.im[i])
        assert bits(coeff_recursive(p, level, t).real) == bits(value.real)
        assert bits(coeff_recursive(p, level, t).imag) == bits(value.imag)
        if t % (1 << level) == 0:
            assert value == 1 and tab.tail_bound[i] == 0
        else:
            assert 0 < tab.tail_bound[i] < 1e-13
            assert error(weights, comb.total, t, value) <= tab.tail_bound[i], t


@PROPERTY
@given(comb_case())
def test_direct_table_within_bound_of_fsum(case):
    check_direct_case(case, lambda weights, total, t, value:
                      abs(value - fsum_direct(weights, total, t)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(comb_case())
def test_direct_table_within_bound_of_mpmath(case):
    check_direct_case(case, mp_error)
