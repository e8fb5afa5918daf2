"""The three workloads: operation lists built from a seed, and their checks.

An operation is one CLI argv (run through ghostmeasure.cli.main with --out
into the run's scratch directory) or one library call.  Every operation
carries a check that holds its output to an oracle from oracles.py or to a
property the method must have; no check compares against stored output.
The seed only picks inputs that leave the cost of a pass unchanged
(interval prefixes, t offsets, random digit strings), so runs on different
seeds measure the same work.  Import after checkout.use_source().
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from ghostmeasure import ghost
from ghostmeasure.sequence import AffineParams

import oracles
from oracles import expect

IDENTITY = (2, 2, 0, 1, 1)
GOULD_G = (1, 2, 0, 0, 2)
CANTOR = (3, 3, 0, 2, 1)
TWO_C = (1, 2, 0, 1, 1)          # case 2C; its odd-t coefficients are nonzero
TWO_C_RATIO = (1, 2, 1, 0, 1)    # case 2C, minority digit 0
BIG = (6, 9, 1, 2, 1)            # level-20 values exceed 2^63
TWO_D = (3, 0, 0, 1, 1)
# Rounding slack allowed on top of a coefficient's own tail_bound.
SLACK = 1e-12


@dataclass
class Op:
    key: str
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None
    check: Optional[Callable[[object], None]] = None
    # Fails on every run because of a known program fault; counted in `failed`.
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Checks over several operations' outputs, given as {key: output}.
    cross_checks: list[Callable[[dict], None]] = field(default_factory=list)


def _params(p) -> list[str]:
    return ["--params", *map(str, p)]


def _rows(text: str, header: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    expect(lines and lines[0].split(",") == header, f"header {lines[:1]} != {header}")
    return [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_cdf(p, level: int, grid: int, text) -> None:
    rows = _rows(text, ["x", "F"])
    expect(len(rows) == grid, f"cdf rows {len(rows)} != {grid}")
    for k, (x, f) in enumerate(rows):
        xq = Fraction(k, grid - 1)
        want = oracles.cdf_value(p, level, xq)
        expect(float(x) == float(xq), f"cdf x[{k}] = {x}")
        expect(float(f) == float(want), f"cdf F({xq}) = {f}, oracle {float(want)!r}")


def check_unit_cdf(text) -> None:
    """The level-0 comb of a constant sequence is one atom at 0: F = 1 everywhere."""
    rows = _rows(text, ["x", "F"])
    expect([float(f) for _, f in rows] == [1.0, 1.0], f"constant cdf {rows}")


def _parse_mass(text: str) -> Fraction:
    # "mu_N(E_bits) = num/den = float" or "mu(E_bits) = num/den = float"
    ratio = text.split(" = ")[1]
    num, den = ratio.split("/")
    return Fraction(int(num), int(den))


def check_interval_level(p, level: int, bits: str, text) -> None:
    want = oracles.dyadic_mass_level(p, level, [int(c) for c in bits])
    expect(_parse_mass(text) == want, f"mu_{level}(E_{bits}) = {text.strip()}, oracle {want}")


def check_interval_limit(p, bits: str, text) -> None:
    want = oracles.dyadic_mass_limit(p, [int(c) for c in bits])
    expect(_parse_mass(text) == want, f"mu(E_{bits}) = {text.strip()}, oracle {want}")


def check_additivity(keys: dict[str, str], outputs: dict) -> None:
    """mu(E0) + mu(E1) = mu(E) for every prefix, and mu(torus) = 1, exactly."""
    mass = {bits: _parse_mass(outputs[key]) for bits, key in keys.items() if key in outputs}
    expect(mass.get("", 1) == 1, "mu(torus) != 1")
    for bits, m in mass.items():
        if bits + "0" in mass and bits + "1" in mass:
            expect(mass[bits + "0"] + mass[bits + "1"] == m, f"additivity fails at {bits!r}")


def _coeff_rows(text, fmt: str):
    header = ["t", "re", "im", "abs", "tail_bound"]
    if fmt == "json":
        return [(int(r["t"]), complex(r["re"], r["im"]), r["abs"], r["tail_bound"]) for r in json.loads(text)]
    return [(int(t), complex(float(re), float(im)), float(a), float(tb))
            for t, re, im, a, tb in _rows(text, header)]


def check_coeffs(ts: list[int], reference, text, fmt: str = "csv") -> None:
    """Each coefficient within its own tail_bound (plus rounding slack) of the reference."""
    rows = _coeff_rows(text, fmt)
    expect([r[0] for r in rows] == ts, "coefficient rows out of order")
    for (t, value, mag, tail), ref in zip(rows, reference):
        expect(tail >= 0, f"negative tail_bound at t={t}")
        expect(abs(value - ref) <= tail + SLACK, f"t={t}: {value} vs oracle {ref} (tail {tail})")
        expect(_close(mag, abs(value), 1e-15, 1e-300), f"t={t}: abs column {mag}")


def check_direct(p, level: int, ts: list[int], text) -> None:
    fft = oracles.fft_coeffs(p, level)
    check_coeffs(ts, [fft[t % (1 << level)] for t in ts], text)


def check_limit(p, ts: list[int], text, fmt: str = "csv") -> None:
    check_coeffs(ts, oracles.kernel_coeffs(p, ts), text, fmt)


def check_limit_2b(p, ts: list[int], text) -> None:
    check_coeffs(ts, [oracles.coeff_2b(p, t) for t in ts], text)


def check_recursive(p, level: int, ts: list[int], text) -> None:
    check_coeffs(ts, oracles.kernel_coeffs(p, ts, level=level), text)


def check_wiener(p, n_max: int, text) -> None:
    rows = _rows(text, ["N", "W"])
    want = oracles.wiener_levels(p, n_max)
    expect([int(n) for n, _ in rows] == list(range(n_max + 1)), "wiener levels")
    for (n, w), ref in zip(rows, want):
        expect(_close(float(w), ref, 1e-10, 1e-15), f"W_{n} = {w}, oracle {ref!r}")


def check_density(p, grid: int, text) -> None:
    """Every density value lies within its own tail_bound of the exact limit g(x)."""
    rows = _rows(text, ["x", "g", "tail_bound"])
    expect(len(rows) == grid, f"density rows {len(rows)} != {grid}")
    width = grid.bit_length() - 1
    for k, (x, g, tail) in enumerate(rows):
        exact = oracles.density_limit(p, [int(c) for c in format(k, f"0{width}b")])
        g, tail = float(g), float(tail)
        expect(float(x) == k / grid, f"density x[{k}] = {x}")
        expect(tail >= 0, f"density tail_bound {tail} at k={k}")
        expect(abs(g - float(exact)) <= tail + 4 * math.ulp(g),
                f"g({k}/{grid}) = {g}, limit {float(exact)!r}, tail {tail}")


def check_points(p, n_max: int, text) -> None:
    """Atom weights match the oracle; cumulative mass plus the geometric tail is 1."""
    rows = _rows(text, ["n", "count", "mass_each", "mass_level", "cumulative"])
    expect(len(rows) == n_max + 1, "points rows")
    cumulative = Fraction(0)
    for n, (n_s, count, each, level, cum) in enumerate(rows):
        want_each = oracles.point_mass_level(p, n)
        want_count = 1 if n == 0 else 1 << (n - 1)
        cumulative += want_count * want_each
        expect(int(n_s) == n and int(count) == want_count, f"points row {n}")
        expect(_close(float(each), float(want_each), 4e-16), f"mass_each[{n}] = {each}")
        expect(_close(float(level), float(want_count * want_each), 4e-16), f"mass_level[{n}] = {level}")
        expect(_close(float(cum), float(cumulative), 4e-16), f"cumulative[{n}] = {cum}")
    tail = oracles.point_mass_tail(p, n_max)
    expect(cumulative + tail == 1, "exact mass accounting: partial + tail != 1")
    expect(abs(float(rows[-1][4]) + float(tail) - 1.0) <= 4e-16, "printed cumulative + tail != 1")


def check_jsr_table(sweep: int, text) -> None:
    rows = _rows(text, ["a0", "a1", "b0", "b1", "case", "kind", "rho", "rho_star", "log_ratio"])
    expect(len(rows) == (sweep + 1) ** 4 - 1, "jsr-table rows")
    for a0, a1, b0, b1, case, kind, rho, rho_star, ratio in rows:
        a0, a1, b0, b1 = int(a0), int(a1), int(b0), int(b1)
        rho, rho_star, ratio = int(rho), int(rho_star), float(ratio)
        want_rho, want_star = oracles.spectral_radii(a0, a1, b0, b1)
        tag = (a0, a1, b0, b1)
        expect(case == oracles.expected_case(a0, a1, b0, b1), f"{tag}: case {case}")
        expect(abs(rho - want_rho) < 1e-9 and abs(rho_star - want_star) < 1e-9, f"{tag}: rho {rho}, {rho_star}")
        expect(_close(ratio, math.log2(rho / rho_star), 1e-15, 1e-15), f"{tag}: log_ratio {ratio}")
        if kind.startswith("pure-point"):
            expect(ratio == 0, f"{tag}: pure point with log_ratio {ratio}")
        elif kind == "singular-continuous":
            expect(0 < ratio < 1, f"{tag}: singular with log_ratio {ratio}")
        else:
            expect(ratio in (0.0, 1.0), f"{tag}: {kind} with log_ratio {ratio}")


def check_ratios(p, bits: str, values) -> None:
    want = oracles.ratio_limits(p, [int(c) for c in bits])
    expect(len(values) == len(want), "ratio sequence length")
    for j, (v, w) in enumerate(zip(values, want), start=1):
        expect(_close(v, float(w), 4e-16, 1e-300), f"ratio {j} of {bits[:16]}..: {v} vs {float(w)!r}")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def comb(seed: int) -> Workload:
    """Level-N comb tables: cdf, interval --N and direct Fourier sums."""
    rng = random.Random(seed)
    bits = _bits(rng, 6)
    t0 = rng.randrange(1, 1 << 17)
    ts = list(range(t0, t0 + 16))
    ops = [
        Op("cdf-identity", ["cdf", "--catalog", "identity", "--N", "22", "--grid", "1024"],
           check=functools.partial(check_cdf, IDENTITY, 22, 1024)),
        Op("cdf-2c", ["cdf", *_params(TWO_C), "--N", "21", "--grid", "1024"],
           check=functools.partial(check_cdf, TWO_C, 21, 1024)),
        Op("cdf-big", ["cdf", *_params(BIG), "--N", "20", "--grid", "1024"],
           check=functools.partial(check_cdf, BIG, 20, 1024)),
        Op("interval-identity", ["interval", "--catalog", "identity", "--N", "22", "--bits", bits],
           check=functools.partial(check_interval_level, IDENTITY, 22, bits)),
        Op("direct-2c", ["fourier", *_params(TWO_C), "--mode", "direct", "--N", "18", "--t", f"{ts[0]}..{ts[-1]}"],
           check=functools.partial(check_direct, TWO_C, 18, ts)),
        # Sigma(0) = f(1) = 1, but big_sigma raises for A0+A1 = 0 at N = 0.
        Op("cdf-constant-N0", ["cdf", "--catalog", "constant", "--N", "0", "--grid", "2"],
           check=check_unit_cdf, known_fault=True),
    ]
    return Workload("comb", ops)


def spectral(seed: int) -> Workload:
    """Coefficient tables with no comb: limit products, recursion, Wiener averages."""
    rng = random.Random(seed)
    t0 = rng.randrange(1, 1 << 20)
    rec_ts = list(range(t0, t0 + 2048))
    t8k, t4k = list(range(1, 8193)), list(range(1, 4097))
    ops = [
        Op("limit-1b", ["fourier", "--catalog", "gould_G", "--mode", "limit", "--t", "1..8192", "--threads", "2"],
           check=functools.partial(check_limit, GOULD_G, t8k)),
        Op("limit-2c", ["fourier", *_params(TWO_C), "--mode", "limit", "--t", "1..8192", "--format", "json"],
           check=functools.partial(check_limit, TWO_C, t8k, fmt="json")),
        Op("limit-2b", ["fourier", "--catalog", "cantor", "--mode", "limit", "--t", "1..4096"],
           check=functools.partial(check_limit_2b, CANTOR, t4k)),
        Op("recursive-2c", ["fourier", *_params(TWO_C), "--mode", "recursive", "--N", "40",
                            "--t", f"{rec_ts[0]}..{rec_ts[-1]}"],
           check=functools.partial(check_recursive, TWO_C, 40, rec_ts)),
        Op("wiener-1b", ["wiener", "--catalog", "gould_G", "--n-max", "14"],
           check=functools.partial(check_wiener, GOULD_G, 14)),
        Op("wiener-2c", ["wiener", *_params(TWO_C), "--n-max", "14"],
           check=functools.partial(check_wiener, TWO_C, 14)),
    ]
    return Workload("spectral", ops)


def _ratio_sequence(params, bits: str):
    # Looked up at call time, so a traced run sees the wrapped function.
    return ghost.ratio_sequence(params, bits)


def exact(seed: int) -> Workload:
    """Rational answers: densities, point masses, interval measures, ratios."""
    rng = random.Random(seed)
    ops = [
        Op("density-identity", ["density", "--catalog", "identity", "--grid", "8192", "--depth", "64"],
           check=functools.partial(check_density, IDENTITY, 8192)),
        Op("density-cantor", ["density", "--catalog", "cantor", "--grid", "8192", "--depth", "64", "--threads", "2"],
           check=functools.partial(check_density, CANTOR, 8192)),
        Op("points-2d", ["points", *_params(TWO_D), "--nmax", "600"],
           check=functools.partial(check_points, TWO_D, 600)),
        Op("jsr-table", ["jsr-table", "--sweep", "9"], check=functools.partial(check_jsr_table, 9)),
    ]
    prefixes = {}
    for depth in range(9):
        for idx in range(1 << depth):
            bits = format(idx, f"0{depth}b") if depth else ""
            key = f"interval-{bits or 'torus'}"
            prefixes[bits] = key
            ops.append(Op(key, ["interval", *_params(TWO_C), "--bits", bits],
                          check=functools.partial(check_interval_limit, TWO_C, bits)))
    ratio_params = AffineParams(*TWO_C_RATIO)
    for i in range(100):
        bits = _bits(rng, 256)
        ops.append(Op(f"ratio-{i}", call=functools.partial(_ratio_sequence, ratio_params, bits),
                      check=functools.partial(check_ratios, TWO_C_RATIO, bits)))
    return Workload("exact", ops, cross_checks=[functools.partial(check_additivity, prefixes)])


WORKLOADS = {"comb": comb, "spectral": spectral, "exact": exact}
