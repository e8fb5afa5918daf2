"""Oracles shared by the test files: independent ways to compute what the
program prints, written for plainness rather than speed.

emit_oracle is the table writer value by value: json.dumps for JSON, str and
format(x, ".17g") for CSV.  The program's writer fills one % template per
chunk of rows instead, so the two share no formatting code.
"""

import json
from fractions import Fraction


def emit_oracle(header: list[str], rows: list[tuple], fmt: str) -> str:
    """The table as a per-value writer prints it: json.dumps of the records,
    or each value through str (int, str) or format(x, ".17g") (float).  A
    Fraction (the exact rows of the table oracles) stands for its float."""
    rows = [[float(v) if isinstance(v, Fraction) else v for v in row] for row in rows]
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    cells = [",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
             for row in rows]
    return "".join(line + "\n" for line in [",".join(header), *cells])
