"""Command-line surface: outputs, formats, exit codes, round-trips."""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ghostmeasure
from ghostmeasure import AffineParams, _util, ghost, build_comb, cdf_series, eval_f
from ghostmeasure.cli import build_parser, main

from oracles import emit_oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ----------------------------------------------------------------------
# eval / classify
# ----------------------------------------------------------------------

def test_eval_single_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "--catalog", "gould_G", "--n", "7")
    assert code == 0 and out == "8\n"


def test_eval_region_dump(capsys):
    code, out, _ = run_cli(capsys, "eval", "--params", "2", "2", "0", "1", "1", "--region", "3")
    assert code == 0 and out == "8,9,10,11,12,13,14,15\n"


def test_eval_region_dump_beyond_int64(capsys):
    # 2^80 coefficients: the region is built from Python ints, not int64.
    params = AffineParams(2**80, 2**80 - 1, 0, 1, 1)
    argv = [str(x) for x in (params.a0, params.a1, params.b0, params.b1, params.f1)]
    code, out, _ = run_cli(capsys, "eval", "--params", *argv, "--region", "3")
    assert code == 0
    assert out == ",".join(str(eval_f(params, n)) for n in range(8, 16)) + "\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str cap")
def test_exact_integers_print_in_full(capsys):
    # Values past CPython's default 4,300-digit int-to-str cap print in full,
    # and main gives the caller its own cap back.
    big = str(10**400)
    ones = "1" * 12  # the interval holds the one atom f(2^13 - 1) = (10^400)^12
    mu = "{}/{} = 1\n".format
    runs = [(["eval", "--params", "9", "9", "0", "0", "1", "--n", str(2**14000)],
             lambda: str(9**14000) + "\n"),
            (["interval", "--params", "1", big, "0", "0", "1", "--bits", ones],
             lambda: f"mu(E_{ones}) = " + mu(10**4800, (10**400 + 1)**12)),
            (["interval", "--params", "1", big, "0", "0", "1", "--bits", ones, "--N", "12"],
             lambda: f"mu_12(E_{ones}) = " + mu(10**4800, (10**400 + 1)**12)),
            (["eval", "--params", "1", big, "0", "0", "1", "--region", "11"],
             lambda: ",".join(str(10**(400 * bin(j).count("1"))) for j in range(2048)) + "\n")]
    cap = sys.get_int_max_str_digits()
    for argv, expected in runs:
        code, out, err = run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == cap
        assert code == 0 and err == "", argv[:2]
        sys.set_int_max_str_digits(0)
        try:
            assert out == expected(), argv[:2]
        finally:
            sys.set_int_max_str_digits(cap)


def test_eval_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "--params", "2", "2", "0", "1", "1", "--n", "0")
    assert code == 2
    assert "domain error" in err and "n must be >= 1" in err


def test_eval_unknown_catalog(capsys):
    code, _, err = run_cli(capsys, "eval", "--catalog", "nope", "--n", "3")
    assert code == 2 and "unknown catalog name" in err


def test_classify_lines(capsys):
    code, out, _ = run_cli(capsys, "classify", "--catalog", "gould_G")
    assert code == 0 and out == "1B singular-continuous log_ratio=0.58496\n"
    code, out, _ = run_cli(capsys, "classify", "--params", "3", "0", "0", "1", "1")
    assert code == 0 and out == "2D pure-point(dyadic) log_ratio=0\n"
    code, out, _ = run_cli(capsys, "classify", "--params", "0", "0", "1", "1", "1")
    assert code == 0 and out.startswith("2A lebesgue")
    code, out, _ = run_cli(capsys, "classify", "--catalog", "trivial_pp")
    assert code == 0 and out == "1C pure-point(delta-at-0) log_ratio=0\n"


# ----------------------------------------------------------------------
# cdf
# ----------------------------------------------------------------------

def test_cdf_monotone_and_ends_at_one(capsys):
    code, out, _ = run_cli(capsys, "cdf", "--catalog", "ruler_R", "--N", "14", "--grid", "512")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "F"]
    vals = [float(r[1]) for r in rows]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


def test_cdf_identity_matches_antiderivative(capsys):
    # F(x) -> (2x + x^2)/3 for f(n) = n
    code, out, _ = run_cli(capsys, "cdf", "--params", "2", "2", "0", "1", "1",
                           "--N", "16", "--grid", "256")
    assert code == 0
    _, rows = parse_csv(out)
    worst = max(abs(float(f) - (2 * float(x) + float(x) ** 2) / 3) for x, f in rows)
    assert worst <= 0.01


def test_cdf_gould_G_strictly_increasing(capsys):
    code, out, _ = run_cli(capsys, "cdf", "--catalog", "gould_G", "--N", "16", "--grid", "2048")
    assert code == 0
    _, rows = parse_csv(out)
    vals = [float(r[1]) for r in rows]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cdf_level_zero_constant(capsys):
    # one atom of weight f(1) = 1 at 0, also when A0 + A1 = 0
    code, out, _ = run_cli(capsys, "cdf", "--catalog", "constant", "--N", "0", "--grid", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(f) for _, f in rows] == [1.0, 1.0]


# (source, params, level, grid): A = 0, 1, 2 and above, totals near 2^64 and
# past the double range (2^1052 at the last); grids below, at and past 2^N + 1.
CDF_CASES = [
    (["--catalog", "identity"], AffineParams(2, 2, 0, 1, 1), 12, 1025),
    (["--params", "1", "2", "0", "1", "1"], AffineParams(1, 2, 0, 1, 1), 9, 1023),
    (["--params", "6", "9", "1", "2", "1"], AffineParams(6, 9, 1, 2, 1), 16, 4096),
    (["--params", "3", "0", "0", "1", "1"], AffineParams(3, 0, 0, 1, 1), 3, 7),
    (["--params", "0", "0", "1", "1", "1"], AffineParams(0, 0, 1, 1, 1), 5, 3),
    (["--params", "1", "0", "0", "1", "1"], AffineParams(1, 0, 0, 1, 1), 0, 2),
    (["--params", str(2**80), str(2**80 - 1), "0", "1", "1"],
     AffineParams(2**80, 2**80 - 1, 0, 1, 1), 11, 2053),
    (["--params", str(2**80), str(2**80 - 1), "0", "1", "1"],
     AffineParams(2**80, 2**80 - 1, 0, 1, 1), 13, 1025),
]


def test_cdf_prints_the_floats_of_cdf_series(capsys):
    # The table divides the integer masses itself; int / int and
    # float(Fraction) are both correctly rounded, so it prints what a
    # per-value writer prints of cdf_series' Fractions, each through float().
    for source, params, level, grid in CDF_CASES:
        rows = cdf_series(build_comb(params, level), grid)
        for fmt in ("csv", "json"):
            got = run_cli(capsys, "cdf", *source, "--N", str(level), "--grid", str(grid), "--format", fmt)
            assert got == (0, emit_oracle(["x", "F"], rows, fmt), ""), (source, level, grid, fmt)


def test_cdf_resource_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "cdf", "--params", "2", "2", "0", "1", "1",
                           "--N", "30", "--grid", "4")
    assert code == 3 and "resource cap" in err


# ----------------------------------------------------------------------
# fourier / wiener
# ----------------------------------------------------------------------

def test_fourier_limit_scaling_column(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--catalog", "gould_G", "--t", "1..64",
                           "--mode", "limit")
    assert code == 0
    _, rows = parse_csv(out)
    by_t = {int(r[0]): complex(float(r[1]), float(r[2])) for r in rows}
    for t in range(1, 33):
        assert abs(by_t[t] - by_t[2 * t]) <= 1e-10


def test_fourier_t_help_example_runs(capsys):
    # A --t value that starts with '-' reads as an option unless joined by '='.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    t_help = next(a.help for a in sub.choices["fourier"]._actions if "--t" in a.option_strings)
    assert "--t=-4,-2,7" in t_help
    code, out, _ = run_cli(capsys, "fourier", "--catalog", "gould_G", "--t=-4,-2,7")
    assert code == 0 and [r[0] for r in parse_csv(out)[1]] == ["-4", "-2", "7"]
    with pytest.raises(SystemExit) as exc:
        main(["fourier", "--catalog", "gould_G", "--t", "-4,-2,7"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err


def test_fourier_modes_agree(capsys):
    # direct is the recursive table, byte for byte
    args = ["--params", "2", "2", "0", "1", "1", "--t=-4,7,1024", "--N", "10"]
    code, out_rec, _ = run_cli(capsys, "fourier", *args, "--mode", "recursive")
    assert code == 0
    code, out_dir, _ = run_cli(capsys, "fourier", *args, "--mode", "direct")
    assert code == 0 and out_dir == out_rec
    _, rows = parse_csv(out_rec)
    # the level-N rounding bound, about 3.3e-14 at N = 10; t = 2^N is exactly 1
    assert all(1e-15 < float(r[4]) < 1e-13 for r in rows[:2])
    assert rows[2][1:] == ["1", "0", "1", "0"]


def test_fourier_level_zero_and_levels_past_the_region_cap(capsys):
    # mu_0 = delta_0 in both modes; Sigma(0) = f(1) = 0 has no comb; a level-N
    # table builds no atoms, so the region cap does not hold it
    for mode in ("recursive", "direct"):
        code, out, _ = run_cli(capsys, "fourier", "--catalog", "gould_G", "--mode", mode, "--N", "0",
                               "--t=-1..2")
        assert code == 0 and [r[1:] for r in parse_csv(out)[1]] == [["1", "0", "1", "0"]] * 4
        code, out, err = run_cli(capsys, "fourier", "--params", "1", "2", "0", "1", "0", "--mode", mode,
                                 "--N", "0", "--t", "1")
        assert code == 2 and out == "" and "total f(1) = 0" in err
        code, out, _ = run_cli(capsys, "fourier", "--params", "1", "2", "0", "1", "1", "--mode", mode,
                               "--N", "27", "--t", f"1,{2**27}")
        assert code == 0
        (_, re, im, mag, bound), last = parse_csv(out)[1]
        assert 0 < float(mag) <= 1 and 0 < float(bound) < 1e-13 and last[1:] == ["1", "0", "1", "0"]


def run_fresh(code, *args):
    """Run `python -c code *args` on this checkout's package; return its stdout."""
    src = str(Path(ghostmeasure.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_numpy_fft_unloaded():
    # numpy loads on first use (_util.numpy); start-up of a command that never
    # computes with it does not pay for it.  numpy.fft never loads: see
    # test_numpy_loads_only_for_the_commands_that_compute_with_it.
    code = "import sys, ghostmeasure.cli; print('numpy.fft' in sys.modules, 'numpy' in sys.modules)"
    assert run_fresh(code).split() == ["False", "False"]


# The modules of WATCHED that `import ghostmeasure.cli` adds to a fresh
# interpreter, beyond what the bare interpreter (and site) already loaded;
# then whether json is loaded after a CSV run to --out sys.argv[1], and after
# a JSON run.
ADDED_MODULES_PROBE = """
import contextlib, io, sys
WATCHED = {"dataclasses", "inspect", "json", "tempfile"}
before = set(sys.modules)
import ghostmeasure.cli
seen = [sorted(WATCHED & (set(sys.modules) - before))]
cdf = ["cdf", "--catalog", "identity", "--N", "4", "--grid", "4"]
with contextlib.redirect_stdout(io.StringIO()):
    seen.append(ghostmeasure.cli.main([*cdf, "--out", sys.argv[1]]))
    seen.append("json" in set(sys.modules) - before)
    seen.append(ghostmeasure.cli.main([*cdf, "--format", "json"]))
seen.append("json" in sys.modules)
print(seen)
"""


def test_import_and_csv_runs_load_no_record_or_json_modules(tmp_path):
    # The records are named tuples: dataclasses (and inspect, which it
    # imports) stay unloaded; json loads for the first JSON table only, and
    # --out makes its temporary file without tempfile.
    out = tmp_path / "g.csv"
    assert run_fresh(ADDED_MODULES_PROBE, str(out)).split("\n")[0] == "[[], 0, False, 0, True]"
    assert out.read_text().startswith("x,F\n")


# After `import ghostmeasure`, `import ghostmeasure.cli` and each argv in turn,
# print whether numpy is loaded, with the argv's exit code and whether
# numpy.fft is loaded.
NUMPY_PROBE = """
import contextlib, io, json, sys
import ghostmeasure
seen = ["numpy" in sys.modules]
import ghostmeasure.cli
seen.append("numpy" in sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ghostmeasure.cli.main(argv)
    seen.append([code, "numpy" in sys.modules, "numpy.fft" in sys.modules])
print(json.dumps(seen))
"""

EXACT_ARGVS = [
    ["eval", "--catalog", "gould_G", "--n", "7"],
    ["eval", "--params", "2", "2", "0", "1", "1", "--region", "3"],
    ["classify", "--params", "3", "0", "0", "1", "1"],
    ["cdf", "--catalog", "ruler_R", "--N", "10", "--grid", "64"],
    ["cdf", "--catalog", "identity", "--N", "22", "--grid", "1024"],
    ["interval", "--params", "2", "2", "0", "1", "1", "--bits", "01"],
    ["interval", "--params", "2", "2", "0", "1", "1", "--bits", "01", "--N", "8"],
    ["density", "--params", "2", "2", "0", "1", "1", "--bits", "0110"],
    ["density", "--catalog", "cantor", "--grid", "64", "--depth", "20"],
    ["points", "--params", "3", "0", "0", "1", "1", "--nmax", "6"],
    ["jsr-table", "--sweep", "2"],
]

NUMPY_ARGVS = [
    ["fourier", "--catalog", "gould_G", "--t", "1..8", "--mode", "limit"],
    ["fourier", "--catalog", "gould_G", "--t", "1..8", "--mode", "recursive", "--N", "6"],
    ["fourier", "--catalog", "gould_G", "--t", "1..8", "--mode", "direct", "--N", "6"],
    ["wiener", "--params", "1", "2", "0", "0", "1", "--n-max", "4"],
]


def test_numpy_loads_only_for_the_commands_that_compute_with_it():
    seen = json.loads(run_fresh(NUMPY_PROBE, json.dumps(EXACT_ARGVS)))
    assert seen == [False, False] + [[0, False, False]] * len(EXACT_ARGVS)
    # every command that loads numpy leaves numpy.fft unloaded
    for argv in NUMPY_ARGVS:
        seen = json.loads(run_fresh(NUMPY_PROBE, json.dumps([argv])))
        assert seen == [False, False, [0, True, False]], argv


# Run one argv through main in a fresh process, tracemalloc started after
# import; print the exit code, the stdout and the traced peak in bytes.
PEAK_PROBE = """
import contextlib, io, json, sys, tracemalloc
import ghostmeasure.cli
out = io.StringIO()
tracemalloc.start()
with contextlib.redirect_stdout(out):
    code = ghostmeasure.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(), tracemalloc.get_traced_memory()[1]]))
"""


def test_eval_region_streams_in_bounded_memory(tmp_path):
    # Region 20 of 6 9 1 2 1 is 2^20 values past 2^63 (about 20 MiB of text):
    # it is written chunk by chunk, so the peak stays far below the region.
    target = tmp_path / "region.csv"
    argv = ["eval", "--params", "6", "9", "1", "2", "1", "--region", "20", "--out", str(target)]
    code, out, peak = json.loads(run_fresh(PEAK_PROBE, json.dumps(argv)))
    assert code == 0 and out == ""
    assert peak < 8 * 2**20, peak
    values = target.read_text().split(",")
    assert len(values) == 2**20 and values[-1].endswith("\n")
    p = AffineParams(6, 9, 1, 2, 1)
    for n in (0, 1, 2**19 - 1, 2**19, 2**20 - 1):
        assert int(values[n]) == eval_f(p, 2**20 + n)
    # Past the cap nothing is written: the check runs before the first chunk.
    code, out, _ = json.loads(run_fresh(PEAK_PROBE, json.dumps(argv[:7] + ["--region", "27"])))
    assert code == 3 and out == ""


TABLE_PEAKS = """
import json, os, sys, tempfile, tracemalloc
import ghostmeasure.cli
ghostmeasure._util.numpy()  # loading numpy is not the table's memory
ghostmeasure.cli.build_parser()
peaks = []
with tempfile.TemporaryDirectory() as tmp:
    for argv in json.loads(sys.argv[1]):
        tracemalloc.start()
        code = ghostmeasure.cli.main([*argv, "--out", os.path.join(tmp, "table")])
        peaks.append([code, tracemalloc.get_traced_memory()[1]])
        tracemalloc.stop()
print(json.dumps(peaks))
"""


def test_tables_stream_in_bounded_memory():
    # The writer draws every table 2^10 rows at a time, so what its peak
    # holds per row is fourier's coefficient arrays (about 190 bytes per t)
    # and one chunk's Python values and text spread over 2^16 rows.  Measured
    # peaks per row: 195, 4, 4 and 6 bytes; whole-table lists gave 234, 110,
    # 74 and 288 bytes.
    cases = [(["fourier", "--params", "1", "2", "0", "1", "1", "--t", "1..65536"], 65536, 215),
             (["cdf", "--catalog", "identity", "--N", "20", "--grid", "65536"], 65536, 5),
             (["density", "--params", "2", "2", "0", "1", "1", "--grid", "65536", "--depth", "40"],
              65536, 5),
             (["jsr-table", "--sweep", "15"], 16**4 - 1, 9)]
    peaks = json.loads(run_fresh(TABLE_PEAKS, json.dumps([argv for argv, _, _ in cases])))
    for (argv, rows, bound), (code, peak) in zip(cases, peaks):
        assert code == 0 and peak / rows < bound, (argv[0], peak / rows)


@pytest.mark.parametrize("signum, code, err", [(signal.SIGTERM, 143, ""),
                                               (signal.SIGINT, 130, "interrupted\n")])
def test_signal_during_out_leaves_no_file(tmp_path, signum, code, err):
    # The console entry point, signalled once --out's temporary file exists,
    # removes it and exits 128 + the signal number, with no traceback.
    src = str(Path(ghostmeasure.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["fourier", "--params", "1", "2", "0", "1", "1", "--t", "1..1000000", "--out", "t.csv"]
    proc = subprocess.Popen([sys.executable, "-m", "ghostmeasure.cli", *argv], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not any(tmp_path.glob(".ghostmeasure-*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signum)
        out, got = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, got) == (code, "", err)
    assert list(tmp_path.iterdir()) == []


MISSING_NUMPY = r"""
import contextlib, io, json, sys
sys.modules["numpy"] = None  # import numpy now raises ModuleNotFoundError
from ghostmeasure.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_missing_numpy_is_exit_1_with_one_line(tmp_path):
    # Without numpy, fourier and wiener (also with --out) exit 1 with one line
    # on stderr and leave no file; classify, which loads no numpy, still runs.
    src = str(Path(ghostmeasure.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argvs = [["fourier", "--params", "1", "2", "0", "1", "1", "--t", "1..8"],
             ["wiener", "--params", "1", "2", "0", "1", "1", "--n-max", "4", "--out", "w.csv"],
             ["classify", "--params", "3", "0", "0", "1", "1"]]
    proc = subprocess.run([sys.executable, "-c", MISSING_NUMPY, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    fourier, wiener, classify = json.loads(proc.stdout)
    line = "missing module: numpy, which this command needs\n"
    assert fourier == wiener == [1, "", line]
    assert classify[0] == 0 and classify[1].startswith("2D ") and classify[2] == ""
    assert list(tmp_path.iterdir()) == []


def test_other_missing_module_is_not_caught(monkeypatch):
    def fail(*args, **kwargs):
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

    monkeypatch.setattr("ghostmeasure.fourier.coeff_table", fail)
    with pytest.raises(ModuleNotFoundError):
        main(["fourier", "--params", "1", "2", "0", "1", "1", "--t", "1..8"])


def test_threads_do_not_change_output(capsys):
    for args in (["fourier", "--catalog", "cantor", "--t", "1..32", "--mode", "limit"],
                 ["density", "--params", "2", "2", "0", "1", "1", "--grid", "64"]):
        _, single, _ = run_cli(capsys, *args)
        _, multi, _ = run_cli(capsys, *args, "--threads", "4")
        assert single == multi


def test_fourier_limit_extreme_t_and_tol_exit_codes(capsys):
    big_t = str(10**400)
    for extra in (["--t", big_t], ["--t", "5", "--tol", "1e-320"], ["--t", "5", "--tol", "nan"],
                  ["--t", "5", "--tol", "-1"], ["--t", str(2**1000)]):
        code, out, err = run_cli(capsys, "fourier", "--catalog", "gould_G", "--mode", "limit", *extra)
        assert code == 2 and out == "" and "domain error" in err, extra


def test_fourier_limit_loose_tol_gives_finite_bound(capsys):
    # a tol above 1 is taken as 1: the depth still covers |t| and the bound stays finite
    t = str(10**10)
    code, out, _ = run_cli(capsys, "fourier", "--catalog", "gould_G", "--t", t, "--tol", "1e300")
    assert code == 0
    _, ((_, re_loose, im_loose, _, bound),) = parse_csv(out)
    assert 0.0 < float(bound) <= 0.5
    code, out, _ = run_cli(capsys, "fourier", "--catalog", "gould_G", "--t", t)
    _, ((_, re_tight, im_tight, _, _),) = parse_csv(out)
    assert abs(complex(float(re_loose), float(im_loose))
               - complex(float(re_tight), float(im_tight))) <= 2 * float(bound) + 1e-12


def test_fourier_recursive_beyond_double_range_t(capsys):
    # level 1100 phases have residues above 2^1024, which no double holds
    code, out, _ = run_cli(capsys, "fourier", "--catalog", "identity", "--mode", "recursive",
                           "--N", "1100", "--t", f"{3**700},{2**1099 + 1}")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
    assert all(math.isfinite(float(r[3])) and float(r[3]) <= 1 + 1e-9 for r in rows)


def test_indicator_sum_beyond_double_range_exit_code(capsys):
    # Where A^n or 2^(n-1) has no double, one scale 2^(n-1)/A^n stands for
    # the pair: every row prints
    big = ["--params", str(2**80), str(2**80 - 1), "0", "1", "1"]
    for argv in (["--params", "1", "2", "0", "1", "1", "--mode", "recursive", "--N", "1100",
                  "--t", str(2**1000)],
                 ["--params", "3", "5", "1", "1", "1", "--mode", "limit", "--tol", "1e-3",
                  "--t", str(2**400)],
                 [*big, "--mode", "recursive", "--N", "18", "--t", "4096,8192,3"],
                 [*big, "--mode", "recursive", "--N", "1100", f"--t={2**64},{3 * 2**65},{-(2**70)}"],
                 [*big, "--mode", "limit", f"--t={2**64},{3 * 2**65},{-(2**70)}"]):
        code, out, err = run_cli(capsys, "fourier", *argv)
        assert code == 0 and err == "", argv
        assert all(math.isfinite(float(x)) for r in parse_csv(out)[1] for x in r[1:]), argv
    # b = 0 with A = 1 takes the scale 2^(n-1) itself past the double range
    # for n > 1024, but its terms are exact zeros: the row is that of 2^1023
    rows = []
    for t in (2**1023, 2**1024):
        code, out, err = run_cli(capsys, "fourier", "--params", "1", "0", "0", "0", "1",
                                 "--mode", "recursive", "--N", "1100", "--t", str(t))
        assert code == 0 and err == "", t
        rows.append(out.split("\n")[1].split(",", 1)[1])
    assert rows[0] == rows[1] == "1,0,1,3.5538239018283589e-12"


def test_parameter_beyond_double_range_exit_code(capsys):
    # A0 = A1 = 10^400, or b0 = 10^400 with A = 0, has no double: the message
    # names the parameters, not the product depth or the indicator sum
    catalog = ["--catalog", f"missing_digit({10**400},1)"]
    for argv in (["fourier", *catalog, "--t", "1"],
                 ["fourier", *catalog, "--mode", "recursive", "--N", "3", "--t", "1"],
                 ["wiener", *catalog, "--n-max", "2"],
                 ["fourier", "--params", "0", "0", str(10**400), "1", "1", "--mode", "recursive",
                  "--N", "3", "--t", "1..4"],
                 ["fourier", *catalog, "--mode", "direct", "--N", "4", "--t", "1..3"],
                 ["fourier", "--params", str(10**400), "1", "0", "1", "1", "--mode", "direct",
                  "--N", "4", "--t", "1..3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == "domain error: a parameter (A0, A1, A, b0, b1 or f(1)) leaves the double range\n", argv
    # b0 = 10^300 has a double, but 2^(n-1) b0 does not: the coefficient is
    # not finite, and the table is refused rather than printed as nan
    for argv in (["--params", "1", "1", str(10**300), "0", "1", "--mode", "recursive", "--N", "40",
                  "--t", str(2**30)],
                 ["--params", "1", "2", str(10**300), "0", "1", "--t", str(2**40)]):
        code, out, err = run_cli(capsys, "fourier", *argv)
        assert code == 2 and out == "", argv
        assert err == ("domain error: the indicator sum leaves the double range "
                       "(2^(n-1) (b0 + b1 e_n) before its division by A^n)\n"), argv


def test_level_modes_require_N(capsys):
    for mode in ("direct", "recursive"):
        code, out, err = run_cli(capsys, "fourier", "--catalog", "gould_G", "--mode", mode, "--t", "1")
        assert (code, out, err) == (2, "", f"domain error: --mode {mode} requires --N\n")


def test_malformed_cap_variable_exit_code(capsys, monkeypatch):
    for var, argv in (("GHOSTMEASURE_MAX_LEVEL", ["cdf", "--catalog", "identity", "--N", "4"]),
                      ("GHOSTMEASURE_MAX_WIENER_LEVEL", ["wiener", "--catalog", "gould_G", "--n-max", "4"])):
        monkeypatch.setenv(var, "abc")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", f"resource cap: {var} must be an integer, got 'abc'\n")


def test_wiener_table(capsys):
    code, out, _ = run_cli(capsys, "wiener", "--params", "2", "2", "0", "0", "1",
                           "--n-min", "1", "--n-max", "6")
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(r[1]) == 0.0 for r in rows)  # uniform comb: no mass off zero


def test_wiener_negative_level_is_a_domain_error_before_the_cap(capsys):
    code, out, err = run_cli(capsys, "wiener", "--params", "1", "2", "0", "1", "1",
                             "--n-min", "-1", "--n-max", "15")
    assert (code, out, err) == (2, "", "domain error: Wiener levels must be >= 0\n")


# ----------------------------------------------------------------------
# density / interval / points / jsr-table
# ----------------------------------------------------------------------

def test_density_grid(capsys):
    code, out, _ = run_cli(capsys, "density", "--params", "2", "2", "0", "1", "1",
                           "--grid", "8", "--depth", "30")
    assert code == 0
    _, rows = parse_csv(out)
    for x, g, _bound in rows:
        assert abs(float(g) - (2 + 2 * float(x)) / 3) < 1e-8
    code, _, err = run_cli(capsys, "density", "--params", "2", "2", "0", "1", "1", "--grid", "7")
    assert code == 2 and "power of two" in err


def test_density_has_no_level_cap(capsys, monkeypatch):
    # The density grid reads region min(w, d) through the unchecked sub-tree
    # chunks: the region cap binds eval --region, not density.
    argv = ["density", "--params", "2", "2", "0", "1", "1", "--grid", "64", "--depth", "10"]
    monkeypatch.delenv("GHOSTMEASURE_MAX_LEVEL", raising=False)
    code, uncapped, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("GHOSTMEASURE_MAX_LEVEL", "3")
    assert run_cli(capsys, *argv) == (0, uncapped, "")
    code, out, err = run_cli(capsys, "eval", "--params", "2", "2", "0", "1", "1", "--region", "4")
    assert (code, out) == (3, "") and err.startswith("resource cap: region level 4 exceeds cap 3")


def test_density_wrong_case_exit(capsys):
    code, _, err = run_cli(capsys, "density", "--catalog", "gould_G", "--bits", "01")
    assert code == 2 and "2B" in err


def test_interval_exact_output(capsys):
    code, out, _ = run_cli(capsys, "interval", "--params", "2", "2", "0", "1", "1",
                           "--bits", "1")
    assert code == 0 and "7/12" in out
    code, out, _ = run_cli(capsys, "interval", "--params", "2", "2", "0", "1", "1",
                           "--bits", "1", "--N", "14")
    assert code == 0 and out.startswith("mu_14(")


def test_interval_coarser_comb_exit_code(capsys):
    code, out, err = run_cli(capsys, "interval", "--catalog", "identity", "--bits", "0101", "--N", "2")
    assert code == 2 and out == ""
    assert err == "domain error: comb level 2 is coarser than the interval; need level >= 4\n"


def test_malformed_bits_and_t_exit_code(capsys):
    for bits in ("012", "0x1", "01 0", "0\u06611"):  # U+0661 is a non-ASCII digit one
        code, _, err = run_cli(capsys, "interval", "--params", "2", "2", "0", "1", "1",
                               "--bits", bits)
        assert code == 2 and "domain error" in err, bits
    code, _, err = run_cli(capsys, "fourier", "--catalog", "identity", "--t", "1..x")
    assert code == 2 and "domain error" in err


def test_points_cumulative(capsys):
    code, out, _ = run_cli(capsys, "points", "--params", "3", "0", "0", "1", "1",
                           "--nmax", "10")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "count", "mass_each", "mass_level", "cumulative"]
    assert len(rows) == 11
    final = float(rows[-1][4])
    assert abs(final - (1 - 0.5 * (2 / 3) ** 10)) < 1e-12
    counts = [int(r[1]) for r in rows]
    assert counts == [1] + [2 ** (n - 1) for n in range(1, 11)]


def test_points_does_no_per_row_work(capsys, monkeypatch):
    # One case check for the whole table and no bit string per row: a
    # per-row point_mass would classify and parse 2001 times.
    calls = {"classify": 0, "parse_bits": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ghost, "classify", counting("classify", ghost.classify))
    parse_bits = counting("parse_bits", _util.parse_bits)
    monkeypatch.setattr(_util, "parse_bits", parse_bits)
    monkeypatch.setattr(ghost, "parse_bits", parse_bits)
    code, out, _ = run_cli(capsys, "points", "--params", "3", "0", "0", "1", "1", "--nmax", "2000")
    assert code == 0 and out.count("\n") == 2002
    assert calls["classify"] <= 1 and calls["parse_bits"] == 0, calls


def test_points_wrong_case(capsys):
    code, _, err = run_cli(capsys, "points", "--catalog", "identity", "--nmax", "4")
    assert code == 2 and "2D" in err


def test_negative_counts_exit_code(capsys):
    code, out, err = run_cli(capsys, "points", "--params", "3", "0", "0", "1", "1", "--nmax", "-3")
    assert code == 2 and out == "" and "--nmax" in err
    code, out, err = run_cli(capsys, "jsr-table", "--sweep", "-2")
    assert code == 2 and out == "" and "--sweep" in err


def test_jsr_table_pattern(capsys):
    code, out, _ = run_cli(capsys, "jsr-table", "--sweep", "5")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 6**4 - 1
    for a0, a1, b0, b1, case, kind, rho, rho_star, log_ratio in rows:
        r = float(log_ratio)
        if kind in ("lebesgue", "absolutely-continuous"):
            exceptional = int(b0) + int(b1) > 0 and {int(a0), int(a1)} == {0, 2}
            assert r == (0.0 if exceptional else 1.0)
        elif kind == "singular-continuous":
            assert 0.0 < r < 1.0
        else:
            assert r == 0.0


# ----------------------------------------------------------------------
# output files, byte-stable round trips, io errors
# ----------------------------------------------------------------------

# Every table command; between them they print ints past 2^63 (fourier's t),
# Fractions (points), strings (jsr-table) and floats of every mode.
TABLE_ARGVS = [
    ["fourier", "--catalog", "identity", f"--t=-3,0,1,2,{2**63 - 1},{2**100}", "--mode", "limit"],
    ["fourier", "--params", "1", "2", "0", "1", "1", "--t=-4..40", "--mode", "recursive", "--N", "12"],
    ["fourier", "--params", "1", "2", "0", "1", "1", "--t=-4..40", "--mode", "direct", "--N", "9"],
    ["wiener", "--catalog", "gould_G", "--n-max", "8"],
    ["cdf", "--catalog", "ruler_R", "--N", "10", "--grid", "33"],
    ["density", "--catalog", "cantor", "--grid", "64", "--depth", "20"],
    ["points", "--params", "3", "0", "0", "1", "1", "--nmax", "12"],
    ["jsr-table", "--sweep", "2"],
]


def test_csv_and_json_agree(capsys):
    # Both formats hold the same table: the JSON keys are the CSV header,
    # one record per row, ints and strings equal and floats equal bit for
    # bit, since %.17g and repr both round-trip a double.
    for argv in TABLE_ARGVS:
        code, csv_text, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        code, json_text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        header, rows = parse_csv(csv_text)
        records = json.loads(json_text)
        assert len(records) == len(rows) > 0, argv
        for row, record in zip(rows, records):
            assert list(record) == header, argv
            for field, value in zip(row, record.values()):
                if isinstance(value, float):
                    assert float(field).hex() == value.hex(), (argv, field, value)
                else:
                    assert type(value) in (int, str) and field == str(value), (argv, field, value)


def test_csv_round_trip_bytes(tmp_path, capsys):
    out_path = tmp_path / "cdf.csv"
    code, _, _ = run_cli(capsys, "cdf", "--catalog", "gould_G", "--N", "10",
                         "--grid", "64", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    header, rows = parse_csv(text)
    regenerated = ",".join(header) + "\n"
    for row in rows:
        regenerated += ",".join(format(float(v), ".17g") for v in row) + "\n"
    assert regenerated == text


def test_out_file_gets_the_mode_open_would_give(tmp_path, capsys):
    out_path = tmp_path / "g.csv"
    umask = os.umask(0o027)
    try:
        code, _, _ = run_cli(capsys, "cdf", "--catalog", "gould_G", "--N", "4",
                             "--grid", "4", "--out", str(out_path))
    finally:
        os.umask(umask)
    assert code == 0
    assert out_path.stat().st_mode & 0o777 == 0o640


def test_out_file_leaves_the_process_umask_alone(tmp_path, capsys, monkeypatch):
    # os.umask both reads and sets the mask of the whole process: a thread
    # creating a file in between would get umask 0.  --out never calls it,
    # and steps past a temporary name that is taken.
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    taken = tmp_path / f".ghostmeasure-{os.getpid()}-0.tmp"
    taken.write_bytes(b"taken\n")
    out_path = tmp_path / "g.csv"
    code, _, _ = run_cli(capsys, "cdf", "--catalog", "gould_G", "--N", "4", "--grid", "4",
                         "--out", str(out_path))
    assert code == 0 and out_path.read_text().startswith("x,F\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "g.csv"]
    assert taken.read_bytes() == b"taken\n"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    interval = ["interval", "--params", "1", "2", "0", "1", "1", "--bits", "0110"]
    usage_error = ["density", "--catalog", "cantor"]  # neither --grid nor --bits
    out_failure = ["cdf", "--catalog", "identity", "--N", "5", "--grid", "1",
                   "--out", str(tmp_path / "g.csv")]
    density = ["density", "--catalog", "cantor", "--grid", "16", "--depth", "20"]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def on_fresh_parser(argv):
        build_parser.cache_clear()
        return outcome(argv)

    sequence = [interval, usage_error, out_failure, density, interval]
    fresh = [on_fresh_parser(argv) for argv in sequence]
    build_parser.cache_clear()
    reused = [outcome(argv) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 2, 0, 0]
    assert reused[0][1] and reused[3][1].startswith("x,g,tail_bound\n")
    assert list(tmp_path.iterdir()) == []


def test_io_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "cdf", "--catalog", "gould_G", "--N", "6",
                           "--grid", "4", "--out", "/nonexistent-dir/x.csv")
    assert code == 4 and "io error" in err


def test_empty_out_is_an_io_error(tmp_path, capsys, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for argv in (["classify", "--params", "1", "2", "0", "1", "1"], ["jsr-table", "--sweep", "0"]):
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert (code, out, err) == (4, "", "io error: [Errno 2] No such file or directory: ''\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["cwd"]


def test_failed_command_leaves_out_untouched(tmp_path, capsys):
    existing = tmp_path / "e.csv"
    existing.write_bytes(b"keep\n")
    for name, argv in (("g.csv", ["--catalog", "identity", "--N", "5"]),
                       ("e.csv", ["--catalog", "constant", "--N", "0"])):
        code, _, _ = run_cli(capsys, "cdf", *argv, "--grid", "1", "--out", str(tmp_path / name))
        assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv"]
    assert existing.read_bytes() == b"keep\n"
