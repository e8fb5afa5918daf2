"""Command-line surface.

    ghostmeasure eval      --catalog gould_G --n 7
    ghostmeasure eval      --params 2 2 0 1 1 --region 3
    ghostmeasure classify  --params 3 0 0 1 1
    ghostmeasure cdf       --catalog ruler_R --N 14 --grid 2048 --out cdf.csv
    ghostmeasure fourier   --catalog gould_G --t 1..64 --mode limit
    ghostmeasure wiener    --params 1 2 0 0 1 --n-max 10
    ghostmeasure density   --params 2 2 0 1 1 --grid 16 --depth 40
    ghostmeasure interval  --params 2 2 0 1 1 --bits 1
    ghostmeasure points    --params 3 0 0 1 1 --nmax 10
    ghostmeasure jsr-table --sweep 5

Tables go to stdout or --out as CSV (17 significant digits, stable bytes)
or JSON records.  Exit codes: 0 ok, 2 domain error, 3 resource cap, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import approximant, fourier, ghost, linrep, sequence
from .errors import DomainError, ResourceCapError


def _fmt(v) -> str:
    if isinstance(v, (str, int)):
        return str(v)
    return format(float(v), ".17g")


def _fmt_ratio(x: float) -> str:
    s = format(x, ".5f").rstrip("0").rstrip(".")
    return s if s else "0"


def _emit(header: list[str], rows: list[tuple], fmt: str, out) -> None:
    if fmt == "json":
        records = [dict(zip(header, [float(v) if isinstance(v, Fraction) else v for v in row]))
                   for row in rows]
        out.write(json.dumps(records, indent=2))
        out.write("\n")
        return
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _add_params_opts(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--params", nargs=5, type=int, metavar=("A0", "A1", "B0", "B1", "F1"),
                   help="inline coefficients A0 A1 b0 b1 f(1)")
    g.add_argument("--catalog", metavar="NAME", help="named sequence from the catalog")


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")


def _add_threads_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect (rows are computed in order)")


def _resolve_params(args) -> sequence.AffineParams:
    if getattr(args, "catalog", None):
        return sequence.catalog_lookup(args.catalog).params
    return sequence.AffineParams(*args.params)


def _parse_t_spec(spec: str) -> list[int]:
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        try:
            if ".." in part:
                lo, hi = part.split("..", 1)
                out.extend(range(int(lo), int(hi) + 1))
            elif part:
                out.append(int(part))
        except ValueError:
            raise DomainError(f"t specification {spec!r}: {part!r} is not an integer or lo..hi range")
    if not out:
        raise DomainError(f"empty t specification {spec!r}")
    return out


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_eval(args, out) -> int:
    params = _resolve_params(args)
    if args.region is not None:
        values = sequence.eval_region(params, args.region)
        out.write(",".join(str(v) for v in values) + "\n")
    else:
        out.write(str(sequence.eval_f(params, args.n)) + "\n")
    return 0


def _cmd_classify(args, out) -> int:
    params = _resolve_params(args)
    cls = ghost.classify(params)
    diag = linrep.spectral_diagnostic(params)
    out.write(f"{cls.case} {cls.describe()} log_ratio={_fmt_ratio(diag.log_ratio)}\n")
    return 0


def _cmd_cdf(args, out) -> int:
    params = _resolve_params(args)
    comb = approximant.build_comb(params, args.N)
    rows = approximant.cdf_series(comb, args.grid)
    _emit(["x", "F"], [(float(x), float(f)) for x, f in rows], args.format, out)
    return 0


def _cmd_fourier(args, out) -> int:
    params = _resolve_params(args)
    ts = _parse_t_spec(args.t)
    if args.mode == "limit":
        cvs = [fourier.coeff_limit(params, t, args.tol) for t in ts]
        rows = [(t, cv.value.real, cv.value.imag, abs(cv.value), cv.tail_bound)
                for t, cv in zip(ts, cvs)]
    else:
        if args.N is None:
            raise DomainError(f"--mode {args.mode} requires --N")
        if args.mode == "recursive":
            vs = [fourier.coeff_recursive(params, args.N, t) for t in ts]
        else:
            comb = approximant.build_comb(params, args.N)
            vs = [approximant.direct_fourier(comb, t) for t in ts]
        rows = [(t, v.real, v.imag, abs(v), 0.0) for t, v in zip(ts, vs)]
    _emit(["t", "re", "im", "abs", "tail_bound"], rows, args.format, out)
    return 0


def _cmd_wiener(args, out) -> int:
    params = _resolve_params(args)
    if args.n_max < args.n_min:
        raise DomainError("--n-max must be >= --n-min")
    levels = list(range(args.n_min, args.n_max + 1))
    prof = fourier.wiener_profile(params, levels, args.tol)
    _emit(["N", "W"], [(l, prof[l]) for l in levels], args.format, out)
    return 0


def _cmd_density(args, out) -> int:
    params = _resolve_params(args)
    if args.bits is not None:
        est = ghost.density(params, args.bits, args.depth)
        iv = approximant.DyadicInterval.from_bits(args.bits)
        _emit(["x", "g", "tail_bound"], [(float(iv.left), est.value, est.tail_bound)],
              args.format, out)
        return 0
    grid = args.grid
    if grid < 2 or grid & (grid - 1):
        raise DomainError("--grid must be a power of two >= 2")
    width = grid.bit_length() - 1
    ests = (ghost.density(params, format(k, f"0{width}b"), args.depth) for k in range(grid))
    rows = [(k / grid, est.value, est.tail_bound) for k, est in enumerate(ests)]
    _emit(["x", "g", "tail_bound"], rows, args.format, out)
    return 0


def _cmd_interval(args, out) -> int:
    params = _resolve_params(args)
    iv = approximant.DyadicInterval.from_bits(args.bits)
    if args.N is not None:
        m = approximant.interval_mass(approximant.build_comb(params, args.N), iv)
        label = f"mu_{args.N}"
    else:
        m = ghost.interval_measure(params, iv)
        label = "mu"
    out.write(f"{label}(E_{iv}) = {m.numerator}/{m.denominator} = {_fmt(m)}\n")
    return 0


def _cmd_points(args, out) -> int:
    params = _resolve_params(args)
    if args.nmax < 0:
        raise DomainError("--nmax must be >= 0")
    rows = []
    cumulative = Fraction(0)
    for n in range(args.nmax + 1):
        count = 1 if n == 0 else 1 << (n - 1)
        each = ghost.point_mass(params, "0" * (n - 1) + "1" if n else "")
        cumulative += count * each
        rows.append((n, count, each, count * each, cumulative))
    _emit(["n", "count", "mass_each", "mass_level", "cumulative"], rows, args.format, out)
    return 0


def _cmd_jsr_table(args, out) -> int:
    if args.sweep < 0:
        raise DomainError("--sweep must be >= 0")
    rows = []
    for a0 in range(args.sweep + 1):
        for a1 in range(args.sweep + 1):
            for b0 in range(args.sweep + 1):
                for b1 in range(args.sweep + 1):
                    if a0 == a1 == b0 == b1 == 0:
                        continue
                    params = sequence.AffineParams(a0, a1, b0, b1, 1)
                    cls = ghost.classify(params)
                    diag = linrep.spectral_diagnostic(params)
                    rows.append((a0, a1, b0, b1, cls.case, cls.describe(),
                                 diag.rho, diag.rho_star, diag.log_ratio))
    _emit(["a0", "a1", "b0", "b1", "case", "kind", "rho", "rho_star", "log_ratio"],
          rows, args.format, out)
    return 0


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ghostmeasure", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate f(n) or dump a fundamental region")
    _add_params_opts(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int, help="evaluate f(n)")
    g.add_argument("--region", type=int, help="dump region level N")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("classify", help="case label, Lebesgue type, spectral ratio")
    _add_params_opts(p)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("cdf", help="distribution function of the level-N comb")
    _add_params_opts(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", type=int, default=1024)
    _add_output_opts(p)
    p.set_defaults(fn=_cmd_cdf)

    p = sub.add_parser("fourier", help="coefficients: limit, recursion, or comb sum")
    _add_params_opts(p)
    p.add_argument("--t", required=True, help="e.g. 5 or 1..64 or -4,-2,7")
    p.add_argument("--mode", choices=("limit", "recursive", "direct"), default="limit")
    p.add_argument("--N", type=int, help="level for recursive/direct modes")
    p.add_argument("--tol", type=float, default=1e-12)
    _add_output_opts(p)
    _add_threads_opt(p)
    p.set_defaults(fn=_cmd_fourier)

    p = sub.add_parser("wiener", help="averaged squared coefficients W_N")
    _add_params_opts(p)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_output_opts(p)
    p.set_defaults(fn=_cmd_wiener)

    p = sub.add_parser("density", help="Radon-Nikodym density (case 2B)")
    _add_params_opts(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--bits", help="binary digits of x")
    g.add_argument("--grid", type=int, help="power-of-two dyadic grid size")
    p.add_argument("--depth", type=int, default=40)
    _add_output_opts(p)
    _add_threads_opt(p)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("interval", help="measure of a dyadic interval")
    _add_params_opts(p)
    p.add_argument("--bits", required=True, help="interval bit prefix, '' for the torus")
    p.add_argument("--N", type=int, help="use the level-N comb instead of the limit")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_interval)

    p = sub.add_parser("points", help="pure-point weights by last-one position (case 2D)")
    _add_params_opts(p)
    p.add_argument("--nmax", type=int, required=True)
    _add_output_opts(p)
    p.set_defaults(fn=_cmd_points)

    p = sub.add_parser("jsr-table", help="spectral ratio against Lebesgue type, swept")
    p.add_argument("--sweep", type=int, default=5)
    _add_output_opts(p)
    p.set_defaults(fn=_cmd_jsr_table)

    return top


def _run_to_file(args) -> int:
    """Run the command into a temporary file beside --out, renamed over it on success.

    A failing command leaves neither a partial file nor a changed one.
    """
    target = os.path.abspath(args.out)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".ghostmeasure-", suffix=".tmp")
    try:
        with open(fd, "w") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            code = args.fn(args, fh)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            return _run_to_file(args)
        return args.fn(args, sys.stdout)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
