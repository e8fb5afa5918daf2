"""Property tests: independent evaluation paths agree, and the CLI exit-code contract.

Hypothesis runs derandomized with small bounded strategies, so every run
draws the same examples and the suite's time barely moves.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from ghostmeasure import AffineParams, big_sigma, build_linrep, catalog_names, eval_f, eval_region, eval_via_linrep
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
