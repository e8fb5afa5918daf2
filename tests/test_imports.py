"""Import lint: every name a module imports is used in it.

pyflakes would do this, but it is not a dependency, so the check is a small
ast walk.  The package __init__ is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghostmeasure"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source and never read (string annotations count)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_lint_finds_an_unused_import():
    source = ("from typing import Iterable, Optional\nimport numpy as np\nimport os.path\n"
              "def f(x: Optional[int]) -> 'np.ndarray':\n    return os.sep\n")
    assert unused_imports(source) == ["Iterable"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
