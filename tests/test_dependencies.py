"""Imports in src/artipose, including imports inside functions: numpy is
the only runtime dependency (every absolute import names the standard
library, numpy or artipose itself), and every imported name is used. Every
error type in errors.py is raised somewhere in src/artipose. Only the
rot6d_to_matrix oracle uses numpy's cross product; everything else goes
through geometry.cross. Parameter updates take one path: the steps of
nn.descend are called nowhere else, but for gradcheck's probe. The names of
a scene's dataset files are written only in synth.io.SCENE_FILES. A
checkpoint's group names and the meta key that rebuilds the diffuser are
read and written only by estimator.Models and estimator.load_estimator. The
settable values (defaulted parameters, dataclass fields and CLI arguments)
stay within SETTABLE_BOUND."""

import ast
import shutil
import sys
from collections import Counter
from pathlib import Path

from artipose.synth.io import SCENE_FILES

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


def error_types(source: str) -> list:
    """Classes of an errors module that derive, directly or through another
    class of the module, from ArtiposeError, in definition order."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in {"ArtiposeError", *found} for base in node.bases
        ):
            found.append(node.name)
    return found


def raised_names(source: str) -> set:
    """Names a module raises: `raise X`, `raise X(...)` or `raise mod.X(...)`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_finds_error_types_and_raises():
    errors = (
        "class ArtiposeError(Exception):\n    pass\nclass A(ArtiposeError):\n    pass\n"
        "class B(A):\n    pass\nclass C(ValueError):\n    pass\n"
    )
    assert error_types(errors) == ["A", "B"]
    source = "def f(e):\n    raise A('x')\n    raise errors.B\n    raise\n    raise e\n"
    assert raised_names(source) == {"A", "B", "e"}


def test_every_error_type_is_raised():
    types = error_types((SRC / "errors.py").read_text(encoding="utf-8"))
    assert len(types) > 5
    raised = set().union(*(raised_names(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")))
    assert [name for name in types if name not in raised] == []


def numpy_cross_uses(source: str) -> list:
    """Qualified name of the function (or "<module>") around each use of
    numpy's cross product: an attribute `cross` on a name bound to numpy
    (np.cross, numpy.linalg.cross, called or not) or a name bound by
    `from numpy import cross`."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "cross"}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
            elif isinstance(child, ast.Attribute) and child.attr == "cross":
                root = child.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    found.append(where)
            elif isinstance(child, ast.Name) and child.id in names:
                found.append(where)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_finds_numpy_cross_uses():
    source = (
        "import numpy as np\nimport numpy\nfrom numpy import cross as c\n"
        "n = np.cross([1, 0, 0], [0, 1, 0])\n"
        "class A:\n    def f(self, x):\n        return numpy.linalg.cross(x, x)\n"
        "def g(x):\n    h = np.cross\n    return c(x, x)\n"
        "def k(geo, x):\n    return geo.cross(x, x)\n"
    )
    assert numpy_cross_uses(source) == ["<module>", "A.f", "g", "g"]


def test_numpy_cross_only_in_the_rotation_oracle():
    uses = [
        f"{path.relative_to(SRC)}: {where}"
        for path in sorted(SRC.rglob("*.py"))
        for where in numpy_cross_uses(path.read_text(encoding="utf-8"))
    ]
    assert uses == ["geometry.py: rot6d_to_matrix"]


# Where each step of a parameter update may be called in src/artipose:
# nn.descend is the one update path, gradcheck's probe sweeps and flushes
# without an Adam step, and only the flush zeroes the grad buffers.
UPDATE_CALLERS = {
    "adam_step": {"nn.descend"},
    "backward": {"nn.descend", "gradcheck._fd_probe_store"},
    "flush_tape_grads": {"nn.descend", "gradcheck._fd_probe_store"},
    "zero_grads": {"nn.ParamStore.flush_tape_grads"},
}


def update_calls(source: str) -> list:
    """(qualified name of the function or "<module>" around it, name) for
    each call of an UPDATE_CALLERS name: `x.backward(...)` as a method call
    only, the others as a method call or by a bare name."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and func.attr in UPDATE_CALLERS:
                    found.append((where, func.attr))
                elif isinstance(func, ast.Name) and func.id in UPDATE_CALLERS and func.id != "backward":
                    found.append((where, func.id))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def misplaced_update_calls(src: Path) -> list:
    """"module.function: name" for each update call outside its UPDATE_CALLERS."""
    out = []
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for where, name in update_calls(path.read_text(encoding="utf-8")):
            if f"{module}.{where}" not in UPDATE_CALLERS[name]:
                out.append(f"{module}.{where}: {name}")
    return out


def test_finds_update_calls():
    source = (
        "import numpy as np\nfrom . import nn\nfrom .nn import adam_step\n"
        "class S:\n    def flush(self, tape):\n        self.zero_grads()\n"
        "def step(tape, loss, store, backward):\n    tape.backward(loss)\n    backward(loss)\n"
        "    store.flush_tape_grads(tape)\n    adam_step(store)\n    nn.adam_step(store, lr=1e-3)\n"
        "    f = nn.adam_step\n"
    )
    assert update_calls(source) == [
        ("S.flush", "zero_grads"),
        ("step", "backward"),
        ("step", "flush_tape_grads"),
        ("step", "adam_step"),
        ("step", "adam_step"),
    ]


def test_parameter_updates_take_one_path():
    assert misplaced_update_calls(SRC) == []


def test_hand_written_update_is_found(tmp_path):
    shutil.copytree(SRC, tmp_path / "artipose")
    priors = tmp_path / "artipose" / "priors.py"
    text = priors.read_text(encoding="utf-8")
    one_path = "    nn.descend(tape, loss, [disc.store], lr)\n"
    assert text.count(one_path) == 1
    by_hand = (
        "    disc.store.zero_grads()\n    tape.backward(loss)\n"
        "    disc.store.flush_tape_grads(tape)\n    nn.adam_step(disc.store, lr=lr)\n"
    )
    priors.write_text(text.replace(one_path, by_hand), encoding="utf-8")
    assert misplaced_update_calls(tmp_path / "artipose") == [
        f"priors.d_train_step: {name}" for name in ("zero_grads", "backward", "flush_tape_grads", "adam_step")
    ]


def scene_file_names(source: str) -> list:
    """"line: name" for each string constant that names a scene file (ends
    in .f32 or .u8), in source order, with "SCENE_FILES" for the line of a
    key of a SCENE_FILES dict. Docstrings are left out: they may point at
    a file."""
    tree = ast.parse(source)
    docstrings, table_keys = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.add(node.body[0].value)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "SCENE_FILES" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            table_keys |= set(node.value.keys)
    found = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.endswith((".f32", ".u8"))
        and node not in docstrings
    ]
    return [
        f"{'SCENE_FILES' if node in table_keys else node.lineno}: {node.value}"
        for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))
    ]


def test_finds_scene_file_names():
    source = (
        '"""Scene files: cloud.f32 and seg.u8."""\n'
        'SCENE_FILES = {"cloud.f32": ("<f4", ("N", 3)), "seg.u8": ("u1", ("N",))}\n'
        "def save(d, name):\n"
        '    """Writes nocs.f32 too."""\n'
        '    (d / "nocs.f32").write_bytes(b"")\n'
        '    return f"{d}/{name}.u8", "nocs.f32x", {"seg.u8": 1}\n'
    )
    assert scene_file_names(source) == [
        "SCENE_FILES: cloud.f32", "SCENE_FILES: seg.u8", "5: nocs.f32", "6: .u8", "6: seg.u8",
    ]


def test_scene_files_named_only_in_their_table():
    found = [
        f"{path.relative_to(SRC)}: {where}"
        for path in sorted(SRC.rglob("*.py"))
        for where in scene_file_names(path.read_text(encoding="utf-8"))
    ]
    assert found == [f"synth/io.py: SCENE_FILES: {name}" for name in SCENE_FILES]


# A checkpoint's groups, and the meta key the diffuser's schedule comes from;
# used as keys only by their owners.
CHECKPOINT_KEYS = {"estimator", "discriminator", "diffuser", "diffusion_steps"}
CHECKPOINT_OWNERS = ("estimator.Models", "estimator.load_estimator")


def checkpoint_key_uses(source: str) -> list:
    """(qualified name of the function or class around it, or "<module>",
    key) for each CHECKPOINT_KEYS string used as a subscript, as a key of a
    dict display, or as the left operand of `in` / `not in`, in source order."""
    found = []

    def key(node):
        return node.value if isinstance(node, ast.Constant) and node.value in CHECKPOINT_KEYS else None

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
            elif isinstance(child, ast.Subscript) and key(child.slice):
                found.append((where, key(child.slice)))
            elif isinstance(child, ast.Dict):
                found.extend((where, key(k)) for k in child.keys if key(k))
            elif isinstance(child, ast.Compare) and key(child.left) and isinstance(child.ops[0], (ast.In, ast.NotIn)):
                found.append((where, key(child.left)))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def checkpoint_key_uses_by_owner(src: Path) -> dict:
    """{"owned" or "elsewhere": ["module.where: key"]} over a source tree."""
    out = {"owned": [], "elsewhere": []}
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for where, key in checkpoint_key_uses(path.read_text(encoding="utf-8")):
            name = f"{module}.{where}"
            owned = any(name == o or name.startswith(o + ".") for o in CHECKPOINT_OWNERS)
            out["owned" if owned else "elsewhere"].append(f"{name}: {key}")
    return out


def test_finds_checkpoint_key_uses():
    source = (
        'SUITES = ("discriminator", "diffusion_steps")\n'
        'meta = {"diffusion_steps": 10, **other}\n'
        "class Models:\n    def load(self, stores, meta):\n"
        '        if "diffuser" not in stores and "estimator" in stores:\n'
        '            return meta["diffusion_steps"], stores.get("discriminator")\n'
        "def train(stores):\n"
        '    print("estimator", f"{stores}")\n    return stores["discriminator"], "diffuser" == stores\n'
    )
    assert checkpoint_key_uses(source) == [
        ("<module>", "diffusion_steps"),
        ("Models.load", "diffuser"),
        ("Models.load", "estimator"),
        ("Models.load", "diffusion_steps"),
        ("train", "discriminator"),
    ]


def test_checkpoint_keys_have_one_owner():
    uses = checkpoint_key_uses_by_owner(SRC)
    assert uses["elsewhere"] == []
    assert {use.rsplit(": ", 1)[1] for use in uses["owned"]} == CHECKPOINT_KEYS


def test_checkpoint_key_outside_its_owner_is_found(tmp_path):
    shutil.copytree(SRC, tmp_path / "artipose")
    cli = tmp_path / "artipose" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    owned = "        if models.diffuser is None:\n"
    assert text.count(owned) == 1
    cli.write_text(text.replace(owned, '        if "diffuser" not in est_mod.nn.load_checkpoint(args.checkpoint)[0]:\n'))
    assert checkpoint_key_uses_by_owner(tmp_path / "artipose")["elsewhere"] == ["cli.cmd_hand_opt: diffuser"]


# The settable values under src/artipose, at most: a change that adds an
# option raises this bound and says why.
SETTABLE_BOUND = 154


def settable_values(source: str) -> dict:
    """Counts of the values a caller or user can set: defaulted positional
    and keyword-only parameters (of functions and lambdas), fields of a
    class decorated with `dataclass` or `dataclass(...)`, and
    `add_argument` calls."""
    counts = {"defaults": 0, "fields": 0, "arguments": 0}

    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        )

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            counts["defaults"] += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list)):
            counts["fields"] += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
            counts["arguments"] += 1
    return counts


def test_counts_settable_values():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "def f(a, b=1, *args, c, d=2, **kw):\n    g = lambda x, y=0: x + y\n"
        "    p.add_argument('--b', default=1)\n    p.add_argument('--flag', action='store_true')\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: float = 0.5\n    def m(self, z=3):\n        pass\n"
        "@dataclasses.dataclass\nclass B:\n    u: str = ''\n"
        "class C:\n    v: int = 1\n"
    )
    assert settable_values(source) == {"defaults": 4, "fields": 3, "arguments": 2}


def test_settable_values_within_bound():
    counts = Counter()
    for path in sorted(SRC.rglob("*.py")):
        counts.update(settable_values(path.read_text(encoding="utf-8")))
    assert counts.total() <= SETTABLE_BOUND, counts
