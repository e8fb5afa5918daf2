"""Locate the checkout the benchmark runs in and import the program from it."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source() -> None:
    """Put the checkout's src/ first on sys.path; exit if the program is not there.

    An installed copy elsewhere must never stand in for the source under
    test, so the imported package's location is verified too.
    """
    if not (SRC / "ghostmeasure" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'ghostmeasure'}")
    sys.path.insert(0, str(SRC))
    import ghostmeasure

    where = Path(ghostmeasure.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: imported ghostmeasure from {where}, not from {SRC}")
