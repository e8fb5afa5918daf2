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
or JSON records, streamed in chunks of rows.  Exit codes: 0 ok, 1 numpy
missing for a command that needs it, 2 domain error, 3 resource cap, 4 I/O;
from the console script also 130 on SIGINT and 143 on SIGTERM.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import math
import os
import sys

from . import approximant, fourier, ghost, linrep, sequence
from .errors import DomainError, ResourceCapError


def _fmt_ratio(x: float) -> str:
    s = format(x, ".5f").rstrip("0").rstrip(".")
    return s if s else "0"


def _column(col, fmt: str) -> tuple[str, list | tuple]:
    """The % conversion for one column of a chunk and the values that fill it,
    chosen from the column's value type once.

    `%d` prints an int of any size (and serves an empty column); `%.17g` a
    float as format(x, ".17g") does, and `%r` a finite float as json does
    (float.__repr__); `%s` a str as it is in CSV, JSON-encoded once in JSON.
    Any other column (bool, Fraction, numpy scalar, mixed types, a
    non-finite float in JSON) raises ValueError.
    """
    kinds = set(map(type, col))
    if kinds <= {int}:
        return "%d", col
    if kinds == {float} and fmt == "csv":
        return "%.17g", col
    # A finite sum means finite terms; a sum of finite terms may overflow, so
    # a non-finite sum is checked term by term.
    if kinds == {float} and (math.isfinite(sum(col)) or all(map(math.isfinite, col))):
        return "%r", col
    if kinds == {str} and fmt == "csv":
        return "%s", col
    if kinds == {str}:
        import json

        return "%s", list(map(json.encoder.encode_basestring_ascii, col))
    raise ValueError(f"a {fmt} table column must hold only ints, only floats (finite in json) "
                     f"or only strs, not {sorted(k.__name__ for k in kinds)}")


# Rows per chunk of a streamed table: the most that a table command holds
# as Python values at once.  Below 2^10 rows the peak RSS of a run of
# tables barely falls further, while the per-chunk work grows.
_CHUNK = 1 << 10


def _chunks(rows):
    """The column chunks of a table given as an iterable of rows: _CHUNK rows
    each, the last one shorter, and none for no rows.  It keeps no chunk it
    has returned, so the writer holds one chunk at a time."""
    rows = iter(rows)
    return iter(lambda: list(zip(*itertools.islice(rows, _CHUNK))), [])


def _emit(header: list[str], chunks, fmt: str, out) -> None:
    """Write a table, given as an iterable of chunks of rows, each chunk one
    column of equal length per header key, as CSV or JSON.  A chunk of no
    rows (no columns, or empty ones) writes nothing; a table of none is an
    empty table.

    Every row is one % template (see _column), fixed by the first chunk with
    rows.  Each chunk's columns are checked before any of its rows is
    written: a column that the first chunk refuses writes nothing at all, and
    one that later takes another template raises ValueError after the rows
    before it.  CSV is the header line and one line per row; JSON is byte for
    byte json.dumps(records, indent=2) plus a newline.
    """
    convs = None
    for chunk in chunks:
        if not (chunk and len(chunk[0])):
            continue
        kinds, cols = zip(*(_column(col, fmt) for col in chunk))
        rows = zip(*cols)
        if convs is None:
            convs = kinds
            if fmt == "csv":
                row = ",".join(convs) + "\n"
                first = ",".join(header).replace("%", "%%") + "\n" + row
            else:
                import json

                keys = [json.encoder.encode_basestring_ascii(k).replace("%", "%%") for k in header]
                record = "  {\n" + ",\n".join(f"    {k}: {c}" for k, c in zip(keys, convs)) + "\n  }"
                first, row = "[\n" + record, ",\n" + record
            out.write(first % next(rows))
        elif kinds != convs:
            raise ValueError(f"a {fmt} table column changes its kind between chunks: "
                             f"{','.join(convs)} then {','.join(kinds)}")
        out.writelines(map(row.__mod__, rows))
        # Let this chunk go before the producer makes the next one.
        del chunk, cols, rows
    if convs is None:
        out.write(",".join(header) + "\n" if fmt == "csv" else "[]\n")
    elif fmt == "json":
        out.write("\n]\n")


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


def _parse_t_spec(spec: str) -> list[range]:
    """The t of spec in order, one nonempty range per lo..hi part or integer.

    DomainError for the first part that is neither; once every part is read,
    for a spec of no t at all.
    """
    spans = []
    for part in spec.split(","):
        part = part.strip()
        try:
            if ".." in part:
                lo, hi = part.split("..", 1)
                span = range(int(lo), int(hi) + 1)
            else:
                span = range(int(part), int(part) + 1) if part else range(0)
        except ValueError:
            raise DomainError(f"t specification {spec!r}: {part!r} is not an integer or lo..hi range")
        if span:
            spans.append(span)
    if not spans:
        raise DomainError(f"empty t specification {spec!r}")
    return spans


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_eval(args, out) -> int:
    params = _resolve_params(args)
    if args.region is not None:
        sep = ""
        for chunk in sequence._region_chunks(params, args.region):
            out.write(sep + ",".join(map(str, chunk)))
            sep = ","
        out.write("\n")
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
    masses = approximant._grid_masses(comb, args.grid)
    # int / int is correctly rounded, as float(Fraction) is: the same doubles.
    last, total = args.grid - 1, comb.total
    chunks = ([[k / last for k in range(lo, min(lo + _CHUNK, args.grid))],
               [m / total for m in itertools.islice(masses, _CHUNK)]]
              for lo in range(0, args.grid, _CHUNK))
    _emit(["x", "F"], chunks, args.format, out)
    return 0


def _cmd_fourier(args, out) -> int:
    params = _resolve_params(args)
    spans = _parse_t_spec(args.t)
    if args.mode != "limit" and args.N is None:
        raise DomainError(f"--mode {args.mode} requires --N")
    tab = fourier.coeff_table(params, spans, args.tol, None if args.mode == "limit" else args.N)
    ts, cols = itertools.chain.from_iterable(spans), (tab.re, tab.im, tab.abs, tab.tail_bound)
    chunks = ([list(itertools.islice(ts, _CHUNK)), *(c[lo:lo + _CHUNK].tolist() for c in cols)]
              for lo in range(0, tab.re.size, _CHUNK))
    _emit(["t", "re", "im", "abs", "tail_bound"], chunks, args.format, out)
    return 0


def _cmd_wiener(args, out) -> int:
    params = _resolve_params(args)
    if args.n_max < args.n_min:
        raise DomainError("--n-max must be >= --n-min")
    levels = list(range(args.n_min, args.n_max + 1))
    prof = fourier.wiener_profile(params, levels, args.tol)
    _emit(["N", "W"], [[levels, [prof[l] for l in levels]]], args.format, out)
    return 0


def _cmd_density(args, out) -> int:
    params = _resolve_params(args)
    if args.bits is not None:
        est = ghost.density(params, args.bits, args.depth)
        iv = approximant.DyadicInterval.from_bits(args.bits)
        _emit(["x", "g", "tail_bound"], [[[float(iv.left)], [est.value], [est.tail_bound]]],
              args.format, out)
        return 0
    grid = args.grid
    if grid < 2 or grid & (grid - 1):
        raise DomainError("--grid must be a power of two >= 2")
    nums, den, tail = ghost._density_grid(params, grid.bit_length() - 1, args.depth)
    # int / int is correctly rounded, as float(Fraction) is: the same doubles.
    # grid and _CHUNK are powers of two, so every chunk has min(grid, _CHUNK) rows.
    size, bound = min(grid, _CHUNK), tail / den
    chunks = ([[k / grid for k in range(lo, lo + size)], [v / den for v in itertools.islice(nums, size)],
               [bound] * size] for lo in range(0, grid, size))
    _emit(["x", "g", "tail_bound"], chunks, args.format, out)
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
    out.write(f"{label}(E_{iv}) = {m.numerator}/{m.denominator} = {float(m):.17g}\n")
    return 0


def _cmd_points(args, out) -> int:
    params = _resolve_params(args)
    if args.nmax < 0:
        raise DomainError("--nmax must be >= 0")
    rows = ((n, count, each / den, count * each / den, cumulative / den)
            for n, (count, each, cumulative, den) in enumerate(ghost._levels_2d(params, args.nmax)))
    _emit(["n", "count", "mass_each", "mass_level", "cumulative"], _chunks(rows), args.format, out)
    return 0


def _cmd_jsr_table(args, out) -> int:
    if args.sweep < 0:
        raise DomainError("--sweep must be >= 0")

    def rows():
        for a0, a1, b0, b1 in itertools.product(range(args.sweep + 1), repeat=4):
            if a0 == a1 == b0 == b1 == 0:
                continue
            params = sequence.AffineParams(a0, a1, b0, b1, 1)
            cls = ghost.classify(params)
            diag = linrep.spectral_diagnostic(params)
            yield (a0, a1, b0, b1, cls.case, cls.describe(), diag.rho, diag.rho_star, diag.log_ratio)

    _emit(["a0", "a1", "b0", "b1", "case", "kind", "rho", "rho_star", "log_ratio"], _chunks(rows()),
          args.format, out)
    return 0


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    parse_args keeps no state between calls (each returns a fresh
    Namespace), so one parser serves any number of main() calls.
    """
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

    p = sub.add_parser("fourier", help="coefficients: limit or level-N recursion")
    _add_params_opts(p)
    p.add_argument("--t", required=True,
                   help="e.g. 5 or 1..64 or --t=-4,-2,7 (a value that starts with '-' "
                        "needs the = form)")
    p.add_argument("--mode", choices=("limit", "recursive", "direct"), default="limit",
                   help="limit, or the level-N coefficients (recursive; direct is the same table)")
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

    The temporary file takes the pid and the first free counter value as its
    name.  A failing command leaves neither a partial file nor a changed one.
    An empty --out is refused, as open("") refuses it, before any file is
    made: its abspath is the working directory.
    """
    if not args.out:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    target = os.path.abspath(args.out)
    for n in itertools.count():
        tmp = os.path.join(os.path.dirname(target), f".ghostmeasure-{os.getpid()}-{n}.tmp")
        try:
            # Mode 0666 less the umask, which the kernel applies: as open() would.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
    try:
        with open(fd, "w") as fh:
            code = args.fn(args, fh)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    return code


def main(argv=None) -> int:
    # Exact integers print in full: lift CPython's int-to-str cap (3.10.7+) for this call.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "out", None) is not None:
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
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print("missing module: numpy, which this command needs", file=sys.stderr)
        return 1
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def run() -> None:
    """The console entry point: main() under the process's own signal policy.

    SIGINT and SIGTERM raise SystemExit wherever the run is, so --out's
    temporary file is removed on the way out (_run_to_file), and the process
    exits 128 + the signal number: 130 after one line on stderr for SIGINT,
    143 for SIGTERM, even where the exception was turned into another on its
    way (a C extension's import turns it into ImportError).  main() itself
    leaves a calling program's handlers alone.
    """
    import signal

    caught = []

    def stop(signum, frame):
        caught.append(signum)
        raise SystemExit(128 + signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, stop)
    try:
        code = main()
    except BaseException:
        if not caught:
            raise
    if caught:
        if caught[0] == signal.SIGINT:
            print("interrupted", file=sys.stderr)
        code = 128 + caught[0]
    sys.exit(code)


if __name__ == "__main__":
    run()
