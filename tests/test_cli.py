"""Command-line surface: outputs, formats, exit codes, round-trips."""

import json
import math

import pytest

from ghostmeasure.cli import main


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


def test_fourier_modes_agree(capsys):
    args = ["--params", "2", "2", "0", "1", "1", "--t=-4,7", "--N", "10"]
    code, out_rec, _ = run_cli(capsys, "fourier", *args, "--mode", "recursive")
    assert code == 0
    code, out_dir, _ = run_cli(capsys, "fourier", *args, "--mode", "direct")
    assert code == 0
    _, rec = parse_csv(out_rec)
    _, direct = parse_csv(out_dir)
    for r, d in zip(rec, direct):
        assert abs(float(r[1]) - float(d[1])) <= 1e-10
        assert abs(float(r[2]) - float(d[2])) <= 1e-10


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


def test_fourier_json_format(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--catalog", "identity", "--t", "1,2",
                           "--mode", "limit", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["t"] for r in records] == [1, 2]
    assert abs(records[0]["im"] - 1 / (3 * math.pi)) < 1e-9


def test_wiener_table(capsys):
    code, out, _ = run_cli(capsys, "wiener", "--params", "2", "2", "0", "0", "1",
                           "--n-min", "1", "--n-max", "6")
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(r[1]) == 0.0 for r in rows)  # uniform comb: no mass off zero


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


def test_malformed_bits_and_t_exit_code(capsys):
    code, _, err = run_cli(capsys, "interval", "--params", "2", "2", "0", "1", "1",
                           "--bits", "012")
    assert code == 2 and "domain error" in err
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


def test_io_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "cdf", "--catalog", "gould_G", "--N", "6",
                           "--grid", "4", "--out", "/nonexistent-dir/x.csv")
    assert code == 4 and "io error" in err


def test_failed_command_leaves_out_untouched(tmp_path, capsys):
    existing = tmp_path / "e.csv"
    existing.write_bytes(b"keep\n")
    for name, argv in (("g.csv", ["--catalog", "identity", "--N", "5"]),
                       ("e.csv", ["--catalog", "constant", "--N", "0"])):
        code, _, _ = run_cli(capsys, "cdf", *argv, "--grid", "1", "--out", str(tmp_path / name))
        assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv"]
    assert existing.read_bytes() == b"keep\n"
