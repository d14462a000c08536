"""numpy is the only runtime dependency: every absolute import in
src/artipose, including imports inside functions, names the standard
library, numpy or artipose itself."""

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
