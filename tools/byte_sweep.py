"""Byte check of two source trees: every output of a fixed list of CLI runs.

    python3 tools/byte_sweep.py OLD_SRC NEW_SRC
    python3 tools/byte_sweep.py OLD_SRC NEW_SRC --argvs runs.json

OLD_SRC and NEW_SRC are `src/` directories, each holding a `ghostmeasure`
package (say, one from `git archive` of the parent commit and the working
tree's).  Each tree runs every argv in its own subprocess with only that
tree on PYTHONPATH, through ghostmeasure.cli.main in process, and reports a
sha256 of the run's stdout, stderr, exit code and `--out` file.  An argv
that names `--out` writes into the worker's temporary directory instead.  An
exception that escapes main counts as exit 1 with `Type: message` as its
stderr, so no traceback path differs between the trees.

The fixed list holds the README's CLI examples and a sweep of `eval
--region`, `cdf`, `fourier`, `wiener` and `density` runs in CSV and JSON,
domain and cap errors included.  Its `eval --region` runs take every `cdf`
parameter set at levels 0, 1, 2, 5, 12 and 13, to stdout and to `--out`,
level 20 for three sets whose values reach or pass 2^63, and levels 27
(past the cap) and -1.  Its `fourier` runs take recursive levels at and below
v2(t), levels past 63 and 1022, A = 0, tol 1e-20, even t beyond int64 and
the int64 edges -2^63, -(2^63-1) and 2^63-1, each also for a zero branch
factor (A1 = 0 in `3 0 0 1 1`, A0 = 0 in `0 3 0 1 1` and the homogeneous
`0 3 0 0 1`) in limit, recursive (N = 40, 70 and 1100) and direct mode
and in `wiener`; its level-N runs take both
modes (direct is the recursive table) at N = 0 and at N = 27, past the
region cap, the 2^80 set at N = 18 with v2(t) >= 12 (A^n past the double
range in the indicator sum), parameters of 10^400 at N = 4, b0 = 10^300,
whose 2^(n-1) b0 has no double, and the homogeneous `1 0 0 0 1` at
t = 2^1024, past the double range of 2^(n-1).  Its `density` runs take
five parameter sets (2^80 and f(1) = 0 among them) through every grid
path (depth above, below and equal to the grid's width, and depth 0), and
`--bits` empty, shorter than, equal to and longer than `--depth`.  Values
past CPython's 4,300-digit int-to-str cap are printed by `eval --n`,
`eval --region 11` and `interval` (limit and `--N 12`) with a 10^400
parameter.  Its `interval` limit runs take cases 1B, 2B and 2C (2^80 and
f(1) = 0 among them), 1A, 2A, 2D and a null sequence at depths 0, 1, 9 and
64.  In CSV and JSON, it also runs `points` over six case-2D sets (2^80
among them, and A0 = 0 with f(1) = 0 and b_keep = 0) at `--nmax` 0, 1, 10
and 300, `jsr-table` at `--sweep` 0
(an empty table), 1, 3 and 9, one-row `density --bits` tables over three
case-2B sets at depths 0 to 64, `wiener` with `--n-min` equal to
`--n-max`, and `fourier --t 0`.  The tables that are written in chunks of
1024 rows run at the chunk's edges, in CSV and JSON: `fourier` (limit and
recursive) and `cdf` at 1023, 1024, 1025 and 5121 rows, `fourier` also
over a negative `--t` range, a range across 2^63 and a comma list of ranges
and single `t`; `points` at 1023, 1024, 1025 and 4097 rows; `density` at
grids 512 to 8192 (powers of two) and `jsr-table` at `--sweep` 4, 5 and 7
(624, 1295 and 4095 rows); and one run of each with `--out`.  Then, in
CSV and JSON, `fourier` runs the A = 0 comb (two sets, b1 = 2^80 in one)
at N = 1, 2, 63, 64 and 65 over t at and beside the multiples of 2^(N-1),
inside and past int64; level-N tables (N = 1, 5, 40 and 63) whose `--t`
mixes multiples of 2^N past int64 with int64 t, so the table is held as
Python ints while every t that runs fits in int64; and t = 0 inside
ranges in limit mode and at N = 0, 1 and 64.  Last come `interval` and
`classify`, each with and without `--out`.  `--argvs`
replaces the list with a JSON list of argv lists.

Some runs are expected mismatches against older trees: A = 0 with
b0 = 10^400 at N = 3 (exit 1 with `OverflowError` where the A = 0 branch
converts b0 unguarded), the two b0 = 10^300 runs (exit 0 with `nan` where
a non-finite coefficient is printed, and a stderr that names the scale
2^(n-1)/A^n where the unscaled 2^(n-1) (b0 + b1 e_n) is refused), the
t = 2^1024 run (exit 2 where a homogeneous scale past the double range is
refused), the four runs past the int-to-str cap (exit 1 with
`ValueError` where the cap is not lifted) and `wiener` at `--n-min -1`
with `--n-max` past the cap (exit 3 where the cap is checked before the
sign).  Every mismatch is printed with its argv and the parts that differ;
the exit code is 1 on any mismatch, 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

WORKER = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
from ghostmeasure import cli

def digest(data):
    return hashlib.sha256(data).hexdigest()

results = []
with tempfile.TemporaryDirectory() as tmp:
    target = os.path.join(tmp, "out")
    for argv in json.load(sys.stdin):
        if "--out" in argv:
            argv = list(argv)
            argv[argv.index("--out") + 1] = target
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        written = None
        if os.path.exists(target):
            with open(target, "rb") as fh:
                written = digest(fh.read())
            os.unlink(target)
        results.append({"stdout": digest(out.getvalue().encode()),
                        "stderr": digest(err.getvalue().encode()),
                        "exit": code, "out": written})
json.dump(results, sys.stdout)
"""

BIG = str(2**80)
BIG_1 = str(2**80 - 1)

README = [
    ["eval", "--catalog", "gould_G", "--n", "7"],
    ["eval", "--params", "2", "2", "0", "1", "1", "--region", "3"],
    ["classify", "--catalog", "gould_G"],
    ["classify", "--params", "3", "0", "0", "1", "1"],
    ["cdf", "--catalog", "ruler_R", "--N", "14", "--grid", "2048", "--out", "cdf.csv"],
    ["fourier", "--catalog", "gould_G", "--t", "1..64", "--mode", "limit"],
    ["fourier", "--params", "2", "2", "0", "1", "1", "--t", "1..32", "--mode", "direct", "--N", "12"],
    ["fourier", "--catalog", "gould_G", "--t=-4,-2,7"],
    ["wiener", "--params", "1", "2", "0", "0", "1", "--n-max", "12"],
    ["density", "--params", "2", "2", "0", "1", "1", "--grid", "1024", "--depth", "40"],
    ["interval", "--params", "2", "2", "0", "1", "1", "--bits", "1"],
    ["points", "--params", "3", "0", "0", "1", "1", "--nmax", "10"],
    ["jsr-table", "--sweep", "5"],
]

# Parameter sets: catalog names and inline A0 A1 b0 b1 f1, with A = 0 and
# 2^80-sized coefficients.
CDF_PARAMS = [
    ["--catalog", "identity"], ["--catalog", "ruler_R"], ["--catalog", "gould_G"],
    ["--catalog", "cantor"], ["--catalog", "constant"],
    ["--params", "1", "2", "0", "1", "1"], ["--params", "6", "9", "1", "2", "1"],
    ["--params", "0", "0", "2", "1", "3"], ["--params", "0", "3", "1", "0", "1"],
    ["--params", BIG, BIG_1, "0", "1", "1"], ["--params", BIG, BIG, "0", "0", "1"],
]
FOURIER_PARAMS = [
    ["--catalog", "gould_G"], ["--catalog", "cantor"], ["--catalog", "identity"],
    ["--params", "1", "2", "0", "1", "1"], ["--params", "3", "0", "0", "1", "1"],
    ["--params", "0", "3", "0", "1", "1"], ["--params", "0", "3", "0", "0", "1"],
    ["--params", BIG, BIG_1, "0", "1", "1"],
]
FORMATS = [[], ["--format", "json"]]
# t whose recursive levels N = 1..3 all lie at or below v2(t), and even t
# beyond int64.
MULTIPLES = ",".join(str(t) for t in sorted({8 * k for k in range(-16, 17)}
                                              | {64 * k for k in range(-16, 17)}))
BIG_EVEN = f"{2**64},{3 * 2**65},{-(2**70)}"
INT64_EDGES = f"{-(2**63)},{-(2**63 - 1)},{2**63 - 1}"
# Region values that reach 2^63 - 1 exactly, pass it, and pass it from N = 20 on.
INT64_REGION_PARAMS = [
    ["--params", "2", "2", "0", "1", str(2**43 - 1)], ["--params", "2", "2", "0", "1", str(2**43)],
    ["--params", "6", "9", "1", "2", "1"],
]
# Case 2B sets (gould_G is 1B, a domain error), 2^80 and f(1) = 0 included;
# grids (G, d) with d > w, d < w (each prefix repeated), d = w and d = 0 for
# G = 2^w; --bits of no digits, and shorter than, equal to and longer than
# --depth.
DENSITY_PARAMS = [
    ["--catalog", "cantor"], ["--params", "2", "2", "0", "1", "1"], ["--catalog", "gould_G"],
    ["--params", BIG, BIG, "0", "1", "1"], ["--params", "3", "3", "4", "0", "0"],
]
DENSITY_GRIDS = [("64", "10"), ("256", "64"), ("64", "3"), ("64", "6"), ("8", "0")]
DENSITY_BITS = [("", "0"), ("", "5"), ("0110", "4"), ("0110", "9"), ("011011101", "4")]
# Case 2D sets for `points`, both orientations, f(1) = 0 and 2^80 among them,
# and A0 = 0 sets with f(1) = 0 and b_keep = b1 = 0 (no mass at 0).
POINTS_PARAMS = [
    ["--params", "3", "0", "0", "1", "1"], ["--params", "0", "3", "0", "1", "1"],
    ["--params", "5", "0", "2", "3", "0"], ["--params", BIG, "0", "0", "1", "1"],
    ["--params", "0", "3", "1", "0", "0"], ["--params", "0", BIG, str(2**70), "0", "0"],
]
# `interval` limit runs: cases 1B, 2B and 2C (2^80 and f(1) = 0 among them),
# then 1A, 2A, 2D and the null sequence (Lebesgue measure or a domain error),
# each at depths 0, 1, 9 and 64.
INTERVAL_LIMIT_PARAMS = [
    ["--params", "1", "2", "0", "0", "1"], ["--params", BIG, "1", "0", "0", "1"],
    ["--params", "2", "2", "0", "1", "1"], ["--params", "3", "3", "4", "0", "0"],
    ["--params", BIG, BIG, "0", "1", "1"],
    ["--params", "1", "2", "0", "1", "1"], ["--params", "1", "2", "1", "0", "0"],
    ["--params", BIG, BIG_1, "0", "1", "1"],
    ["--params", "2", "2", "0", "0", "1"], ["--params", "1", "1", "0", "1", "1"],
    ["--params", "3", "0", "0", "1", "1"], ["--params", "1", "2", "0", "0", "0"],
]
INTERVAL_BITS = ["", "1", "011011101", "0110" * 16]
# One-row `density --bits` tables: depth 0, shorter and longer than the bits.
DENSITY_BITS_TABLES = [("0110", "0"), ("0110", "1"), ("", "20"), ("011011101", "64")]
INTERVALS = [["--params", "2", "2", "0", "1", "1", "--bits", "1"],
             ["--catalog", "gould_G", "--bits", "0110"],
             ["--params", "2", "2", "0", "1", "1", "--bits", "01", "--N", "6"]]
CLASSIFY_PARAMS = [["--catalog", "gould_G"], ["--params", "3", "0", "0", "1", "1"],
                   ["--params", "1", BIG, "0", "1", "1"]]
# Streamed tables at the writer's chunk edges: 1023, 1024 and 1025 rows, and
# several chunks (4097 or more rows).  `density` grids are powers of two and
# `jsr-table` has (s+1)^4 - 1 rows, so they take the sizes they can.
CHUNK_T = ["1..1023", "1..1024", "1..1025", "1..5121", "-2100..-1",
           f"{2**63 - 600}..{2**63 + 600}", f"-3..3,1..1023,{2**63},-1100..-1090"]
CHUNK_CDF = ["1023", "1024", "1025", "5121"]
CHUNK_DENSITY = [("512", "40"), ("1024", "40"), ("2048", "10"), ("8192", "40")]
CHUNK_POINTS = ["1022", "1023", "1024", "4096"]
CHUNK_SWEEPS = ["4", "5", "7"]
# The A = 0 comb, whose atoms are the t with v2(t) = N - 1, at levels either
# side of 63; level-N tables held as Python ints whose t that run all fit in
# int64 (multiples of 2^N past int64 among int64 t); and t = 0 inside ranges.
A_ZERO_PARAMS = [["--params", "0", "0", "2", "1", "3"], ["--params", "0", "0", "0", BIG, "1"]]
A_ZERO_LEVELS = ["1", "2", "63", "64", "65"]
PAST_INT64_MULTIPLES = [("1", f"1..20,{2**64},{-3 * 2**70}"), ("5", f"-40..40,{2**64 + 32}"),
                        ("40", f"{2**63 - 9}..{2**63 - 1},{2**80}"),
                        ("63", f"-9..9,{2**63},{-(2**64)},{2**63 - 1}")]
ZERO_IN_RANGES = ["-70..70", f"-5..5,{2**64 - 2}..{2**64 + 2}"]


def a_zero_ts(level: int) -> str:
    """t at and beside the multiples k 2^(N-1) of the A = 0 comb: small k,
    k next to the int64 edges, and k past them."""
    step = 1 << (level - 1)
    ks = [*range(-3, 4), (2**63 - 1) // step, -(2**63) // step, 2**70 // step + 1,
          -(2**72 // step) - 1]
    return ",".join(str(k * step + d) for k in ks for d in (-1, 0, 1))


def sweep() -> list[list[str]]:
    """The README examples, then the eval --region, cdf, fourier, wiener and
    density runs, then the points and jsr-table runs, the streamed tables at
    the chunk edges, the fourier runs by 2-adic valuation, and the interval
    and classify runs."""
    runs = list(README)
    for params in CDF_PARAMS:
        for level in ("0", "1", "2", "5", "12", "13"):
            for out in ([], ["--out", "region.csv"]):
                runs.append(["eval", *params, "--region", level, *out])
    for params in INT64_REGION_PARAMS:
        runs.append(["eval", *params, "--region", "20"])
    for level in ("27", "-1"):
        runs.append(["eval", "--catalog", "identity", "--region", level])
    for params in CDF_PARAMS:
        for level in (0, 1, 2, 3, 5, 8, 12, 17, 22):
            grids = [2, 3, 7, 1024] + ([(1 << level) + 10] if level <= 12 else [])
            for grid in grids:
                for fmt in FORMATS:
                    runs.append(["cdf", *params, "--N", str(level), "--grid", str(grid), *fmt])
        runs.append(["cdf", *params, "--N", "5", "--grid", "1"])
    runs.append(["cdf", "--catalog", "identity", "--N", "30", "--grid", "8"])
    runs.append(["cdf", "--catalog", "identity", "--N", "-1", "--grid", "8"])
    for params in FOURIER_PARAMS:
        for fmt in FORMATS:
            runs.append(["fourier", *params, "--t", "1..64", "--mode", "limit", *fmt])
            runs.append(["fourier", *params, f"--t=-300,-7,0,5,{2**63 + 1},{3 * 2**64 + 3}",
                         "--mode", "limit", "--tol", "1e-3", *fmt])
            runs.append(["fourier", *params, "--t", "1..48", "--mode", "recursive", "--N", "40", *fmt])
            runs.append(["fourier", *params, "--t", "0..40", "--mode", "direct", "--N", "8", *fmt])
            runs.append(["wiener", *params, "--n-max", "8", *fmt])
            for level in ("1", "2", "3"):
                runs.append(["fourier", *params, f"--t={MULTIPLES}", "--mode", "recursive",
                             "--N", level, *fmt])
            for level in ("70", "1100"):
                runs.append(["fourier", *params, "--t=-64..64", "--mode", "recursive",
                             "--N", level, *fmt])
            runs.append(["fourier", *params, "--t=-64..64", "--mode", "limit", "--tol", "1e-20", *fmt])
            runs.append(["fourier", *params, f"--t={BIG_EVEN}", "--mode", "limit", *fmt])
            runs.append(["fourier", *params, f"--t={BIG_EVEN}", "--mode", "recursive", "--N", "1100",
                         *fmt])
            runs.append(["fourier", *params, f"--t={INT64_EDGES}", "--mode", "limit", *fmt])
            for level in ("2", "70"):
                runs.append(["fourier", *params, f"--t={INT64_EDGES}", "--mode", "recursive",
                             "--N", level, *fmt])
    for fmt in FORMATS:
        for level in ("1", "2", "3", "70"):
            runs.append(["fourier", "--params", "0", "0", "2", "1", "3", f"--t={MULTIPLES}",
                         "--mode", "recursive", "--N", level, *fmt])
    runs.append(["fourier", "--params", "0", "0", str(10**400), "1", "1", "--mode", "recursive",
                 "--N", "3", "--t", "1..4"])
    runs.append(["fourier", "--params", "1", "1", str(10**300), "0", "1", "--mode", "recursive",
                 "--N", "40", "--t", str(2**30)])
    runs.append(["fourier", "--params", "1", "2", str(10**300), "0", "1", "--t", str(2**40)])
    runs.append(["fourier", "--params", "1", "0", "0", "0", "1", "--mode", "recursive",
                 "--N", "1100", "--t", str(2**1024)])
    runs.append(["wiener", "--params", "1", "2", "0", "1", "1", "--n-min", "-1", "--n-max", "15"])
    for mode in ("recursive", "direct"):
        for params in FOURIER_PARAMS:
            for level in ("0", "27"):
                runs.append(["fourier", *params, f"--t=-3..8,{2**27}", "--mode", mode, "--N", level])
        runs.append(["fourier", "--params", "1", "2", "0", "1", "0", "--t", "1", "--mode", mode,
                     "--N", "0"])
        for fmt in FORMATS:
            runs.append(["fourier", "--params", BIG, BIG_1, "0", "1", "1",
                         "--t=4096,8192,12288,-4096,3", "--mode", mode, "--N", "18", *fmt])
        runs.append(["fourier", "--params", str(10**400), "1", "0", "1", "1", "--t", "0..3",
                     "--mode", mode, "--N", "4"])
    for params in DENSITY_PARAMS:
        for fmt in FORMATS:
            for grid, depth in DENSITY_GRIDS:
                runs.append(["density", *params, "--grid", grid, "--depth", depth, *fmt])
        runs.append(["density", *params, "--bits", "0110"])
        for bits, depth in DENSITY_BITS:
            runs.append(["density", *params, "--bits", bits, "--depth", depth])
    runs.append(["eval", "--params", "9", "9", "0", "0", "1", "--n", str(2**14000)])
    for level in ([], ["--N", "12"]):
        runs.append(["interval", "--params", "1", str(10**400), "0", "0", "1", "--bits", "1" * 12,
                     *level])
    runs.append(["eval", "--params", "1", str(10**400), "0", "0", "1", "--region", "11"])
    for params in INTERVAL_LIMIT_PARAMS:
        for bits in INTERVAL_BITS:
            runs.append(["interval", *params, "--bits", bits])
    for fmt in FORMATS:
        for params in POINTS_PARAMS:
            for n_max in ("0", "1", "10", "300"):
                runs.append(["points", *params, "--nmax", n_max, *fmt])
        for size in ("0", "1", "3", "9"):
            runs.append(["jsr-table", "--sweep", size, *fmt])
        for params in (DENSITY_PARAMS[0], DENSITY_PARAMS[1], DENSITY_PARAMS[3]):  # case 2B
            for bits, depth in DENSITY_BITS_TABLES:
                runs.append(["density", *params, "--bits", bits, "--depth", depth, *fmt])
        for params in (["--catalog", "gould_G"], ["--params", "1", "2", "0", "1", "1"]):
            for level in ("0", "5"):
                runs.append(["wiener", *params, "--n-min", level, "--n-max", level, *fmt])
            runs.append(["fourier", *params, "--t", "0", *fmt])
            runs.append(["fourier", *params, "--t", "0", "--mode", "recursive", "--N", "5", *fmt])
    for fmt in FORMATS:
        for t in CHUNK_T:
            runs.append(["fourier", "--params", "1", "2", "0", "1", "1", f"--t={t}", *fmt])
            runs.append(["fourier", "--catalog", "gould_G", f"--t={t}", "--mode", "recursive",
                         "--N", "40", *fmt])
        for grid in CHUNK_CDF:
            runs.append(["cdf", "--params", "1", "2", "0", "1", "1", "--N", "14", "--grid", grid, *fmt])
        for grid, depth in CHUNK_DENSITY:
            runs.append(["density", "--catalog", "cantor", "--grid", grid, "--depth", depth, *fmt])
        for n_max in CHUNK_POINTS:
            runs.append(["points", "--params", "3", "0", "0", "1", "1", "--nmax", n_max, *fmt])
        for size in CHUNK_SWEEPS:
            runs.append(["jsr-table", "--sweep", size, *fmt])
    for fmt in FORMATS:
        for params in A_ZERO_PARAMS:
            for level in A_ZERO_LEVELS:
                runs.append(["fourier", *params, f"--t={a_zero_ts(int(level))}", "--mode",
                             "recursive", "--N", level, *fmt])
        for params in (FOURIER_PARAMS[0], FOURIER_PARAMS[3], FOURIER_PARAMS[5]):
            for level, t in PAST_INT64_MULTIPLES:
                runs.append(["fourier", *params, f"--t={t}", "--mode", "recursive", "--N", level,
                             *fmt])
        for params in (FOURIER_PARAMS[0], FOURIER_PARAMS[3], A_ZERO_PARAMS[0]):
            for t in ZERO_IN_RANGES:
                runs.append(["fourier", *params, f"--t={t}", *fmt])
                for level in ("0", "1", "64"):
                    runs.append(["fourier", *params, f"--t={t}", "--mode", "recursive",
                                 "--N", level, *fmt])
    for argv in (["fourier", "--params", "1", "2", "0", "1", "1", "--t", CHUNK_T[3]],
                 ["cdf", "--catalog", "identity", "--N", "20", "--grid", CHUNK_CDF[3]],
                 ["density", "--catalog", "cantor", "--grid", CHUNK_DENSITY[3][0], "--depth", "40"],
                 ["points", "--params", "0", "3", "0", "1", "1", "--nmax", CHUNK_POINTS[3]],
                 ["jsr-table", "--sweep", CHUNK_SWEEPS[2]]):
        runs.append([*argv, "--out", "table.csv"])
    for out in ([], ["--out", "result.txt"]):
        for args in INTERVALS:
            runs.append(["interval", *args, *out])
        for params in CLASSIFY_PARAMS:
            runs.append(["classify", *params, *out])
    return runs


def run_tree(src: Path, argvs: list[list[str]]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(argvs), env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"worker for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="src/ directory of the reference tree")
    ap.add_argument("new", type=Path, help="src/ directory of the tree under test")
    ap.add_argument("--argvs", type=Path, help="JSON list of argv lists to run instead")
    args = ap.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "ghostmeasure" / "cli.py").is_file():
            ap.error(f"{src} holds no ghostmeasure/cli.py")
    argvs = json.loads(args.argvs.read_text()) if args.argvs else sweep()
    with ThreadPoolExecutor(2) as pool:
        old, new = pool.map(lambda src: run_tree(src.resolve(), argvs), (args.old, args.new))
    mismatches = 0
    for argv, a, b in zip(argvs, old, new):
        parts = [k for k in a if a[k] != b[k]]
        if parts:
            mismatches += 1
            print(f"MISMATCH {' '.join(argv)}: {', '.join(parts)}"
                  + (f" (exit {a['exit']} -> {b['exit']})" if "exit" in parts else ""))
    print(f"{len(argvs)} runs, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
