"""Property tests: independent evaluation paths agree, exact folds equal their
term-by-term sums, 2D atoms exhaust the mass, and the CLI exit-code contract holds.

Hypothesis runs derandomized with small bounded strategies, so every run
draws the same examples and the suite's time barely moves.
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ghostmeasure import (
    AffineParams,
    big_sigma,
    build_linrep,
    catalog_names,
    classify,
    density,
    eval_f,
    eval_region,
    eval_via_linrep,
    point_mass_tail,
    point_mass_total,
    ratio_sequence_exact,
    sigma_inf,
)
from ghostmeasure.cli import main

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)
FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)

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
    a = draw(st.integers(2, 6))
    b0, b1 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
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


@PROPERTY
@given(affine_params().filter(lambda p: classify(p).case in ("1B", "2B", "2C")),
       st.text(alphabet="01", max_size=40))
def test_ratio_sequence_fold_matches_per_step_fractions(p, bits):
    assert ratio_sequence_exact(p, bits) == ratio_sequence_oracle(p, bits)


@st.composite
def params_2d(draw):
    """Case 2D in either orientation: one branch factor 0, the other >= 3."""
    a = draw(st.integers(3, 7))
    b0, b1 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
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


# ----------------------------------------------------------------------
# CLI fuzz: every invocation exits 0, 2 (domain), 3 (resource cap) or 4 (I/O)
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


SOURCE = st.one_of(
    st.sampled_from(catalog_names()).map(lambda name: ["--catalog", name]),
    st.lists(st.integers(-1, 4), min_size=5, max_size=5).map(lambda p: ["--params", *map(str, p)]),
)


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
        return [cmd, "--sweep", draw(st.integers(-3, 3).map(str))]
    args = [cmd, *draw(SOURCE)]
    if cmd == "eval":
        if draw(st.booleans()):
            args += ["--n", str(draw(EXTREME_INT))]
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
    return args


def _exit_code(argv_: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv_)
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code


@FUZZ
@given(argv())
def test_cli_exit_codes(argv_):
    assert _exit_code(argv_) in (0, 2, 3, 4), argv_
