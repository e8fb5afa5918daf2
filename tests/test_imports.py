"""Import lints: every name a module imports is used in it; numpy is
imported only by _util.numpy, the accessor that loads it on first use; json
only by cli's JSON branches; dataclasses by no module (the records are named
tuples, and dataclasses would load inspect and ast at import).  An
FFT lint: no module imports numpy.fft or reads an `fft` attribute (the
comb's FFT is a test oracle only).  A trig lint: numpy's cos and sin appear only in fourier._phases, the
coefficient kernel's one phase source.  A dead-name lint: every module-level
private name bound in the package is read somewhere in it.

pyflakes would do the first, but it is not a dependency, so the checks are
small ast walks.  The package __init__ is exempt from the first: its imports
are re-exports.
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


def imports_of(source: str, module: str) -> list[str]:
    """Where source imports `module` (or a submodule of it) outside `if
    TYPE_CHECKING:`: "module" for an import that runs when the module loads,
    else the enclosing function's name."""
    found = []

    def visit(nodes, where):
        for node in nodes:
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, node.name)
            elif isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                visit(node.orelse, where)
            elif any(m.split(".")[0] == module for m in modules):
                found.append(where)
            else:
                visit(ast.iter_child_nodes(node), where)

    visit(ast.parse(source).body, "module")
    return found


def test_lint_finds_a_numpy_import():
    assert imports_of("import os\nimport numpy as np\n", "numpy") == ["module"]
    planted = "try:\n    from numpy.fft import rfft\nexcept ImportError:\n    rfft = None\n"
    assert imports_of(planted, "numpy") == ["module"]
    assert imports_of("class C:\n    import numpy\n", "numpy") == ["module"]
    assert imports_of("def f():\n    import numpy.fft\n    return numpy\n", "numpy") == ["f"]
    typing_only = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np\n"
    assert imports_of(typing_only, "numpy") == []
    assert imports_of("import numpyx\n", "numpy") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_only_by_the_accessor(path):
    assert imports_of(path.read_text(), "numpy") == (["numpy"] if path.name == "_util.py" else [])


def test_lint_finds_a_dataclasses_or_json_import():
    source = ("from dataclasses import dataclass\nimport json.encoder\n"
              "def f():\n    import json\n    if True:\n        import dataclasses as dc\n")
    assert imports_of(source, "dataclasses") == ["module", "f"]
    assert imports_of(source, "json") == ["module", "f"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert imports_of(path.read_text(), "dataclasses") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_json_is_imported_only_by_the_json_branches(path):
    assert imports_of(path.read_text(), "json") == (["_column", "_emit"] if path.name == "cli.py" else [])


def fft_uses(source: str) -> list[int]:
    """Line numbers of each import of numpy.fft (or of a name from it) and of
    each `fft` attribute read (np.fft.rfft, numpy().fft, ...)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(m == "numpy.fft" or m.startswith("numpy.fft.") for m in modules):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
                a.name == "fft" for a in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "fft":
            found.append(node.lineno)
    return found


def test_lint_finds_numpy_fft():
    source = ("import numpy.fft\nfrom numpy.fft import rfft\nfrom numpy import fft, pi\n"
              "def f(x):\n    return numpy().fft.rfft(x)\nfft = 1\nimport numpy\n")
    assert fft_uses(source) == [1, 2, 3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_numpy_fft(path):
    assert fft_uses(path.read_text()) == []


def array_trig(source: str) -> list[str]:
    """The outermost function around each use of a cos or sin attribute not
    taken from math (np.cos, numpy().sin, ...), or "module" outside any."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and where == "module":
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in ("cos", "sin")
                    and getattr(child.value, "id", None) != "math"):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "module")
    return found


def test_lint_finds_array_trig():
    source = ("import math\nz = math.cos(1.0)\ndef f(np, x):\n    return np.sin(x) + math.sin(x)\n"
              "def g(x):\n    def h():\n        return numpy().cos(x)\n    return h\nw = np.cos\n")
    assert array_trig(source) == ["f", "g", "module"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_array_trig_only_in_the_phase_source(path):
    allowed = "_phases" if path.name == "fourier.py" else None
    assert [where for where in array_trig(path.read_text()) if where != allowed] == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each module-level _name bound in one of sources (by
    def, class or assignment) that no source reads: an ast Name or Attribute
    load, or an import.  A mention in a docstring or comment is no read."""
    bound, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
                names = [n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)]
            bound += [(module, name) for name in names
                      if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                read |= {a.name.split(".")[-1] for a in node.names}
    return [f"{module}:{name}" for module, name in bound if name not in read]


def test_lint_finds_a_dead_private_name():
    sources = {
        "a": ("_USED = 1\n_DEAD = (1, 2)\n_MENTIONED = 3\n__all__ = []\n"
              "def _helper():\n    \"Not _MENTIONED.\"\n    return _USED  # _DEAD\n"
              "class _Gone:\n    pass\n_x, _y = 1, 2\n_z: int = _y\n"),
        "b": "from a import _helper\nimport a\nw = a._x\na._z = 0\n",
    }
    assert dead_private_names(sources) == ["a:_DEAD", "a:_MENTIONED", "a:_Gone", "a:_z"]


def test_private_names_are_read():
    assert dead_private_names({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []
