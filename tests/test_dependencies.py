"""Imports in src/artipose, including imports inside functions: numpy is
the only runtime dependency (every absolute import names the standard
library, numpy or artipose itself), and every imported name is used."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "artipose"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "artipose"}


def absolute_imports(source: str) -> list:
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_finds_imports_inside_functions():
    source = "import os\nfrom . import nn\ndef f():\n    from scipy.spatial import cKDTree\n"
    assert absolute_imports(source) == ["os", "scipy.spatial"]


def test_only_stdlib_numpy_and_artipose():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    outside = [
        f"{path.relative_to(SRC)}: {name}"
        for path in files
        for name in absolute_imports(path.read_text(encoding="utf-8"))
        if name.split(".")[0] not in ALLOWED
    ]
    assert outside == []


def unused_imports(source: str) -> list:
    """Names an import binds that the module never reads. A read is a Name
    node anywhere in the module, including annotations, or a string in
    `__all__` (a re-export)."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return [name for name in bound if name not in read]


def test_finds_unused_imports():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .errors import A, B as C\nfrom . import nn\n__all__ = ['nn']\n"
        "def f(x: A) -> None:\n    import json\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "C", "json"]


def test_every_import_is_used():
    unused = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []
