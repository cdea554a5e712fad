"""Every top-level function, class and constant in ``src/tfl``, public or
private, is used by the program itself, and every name a module imports at
top level is read by that module.  Code that only the tests call belongs in
the tests (``tests/oracles.py`` holds the reference implementations).  The
floating-point policy is set in ``numeric.py`` alone (``numeric.quiet``)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tfl"


def _identifiers(node: ast.AST) -> set[str]:
    """Every name ``node`` reads or binds as a ``Name``, an ``Attribute`` or an
    import alias."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
            if sub.asname:
                found.add(sub.asname)
    return found


def _defined(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a def or class, or the plain
    names an assignment binds.  Dunder names such as ``__all__`` are read
    by Python itself and are left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    names = [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def unused_definitions(src: Path) -> list[str]:
    """``module.name`` of each top-level def, class or constant that no
    other top-level statement in ``src`` uses."""
    statements = []  # (module, names defined, identifiers used)
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append((path.stem, _defined(node), _identifiers(node)))
    unused = []
    for k, (module, names, _) in enumerate(statements):
        for name in names:
            if not any(name in used for j, (_, _, used) in enumerate(statements) if j != k):
                unused.append(f"{module}.{name}")
    return unused


def unused_imports(src: Path) -> list[str]:
    """``module.name`` of each name a top-level import binds that its module
    never reads.  ``__init__.py`` imports to re-export, and ``from
    __future__`` binds no name."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in bound if name not in read]
    return unused


# the names that set or catch numpy's floating-point error state
FLOAT_POLICY_NAMES = ("errstate", "seterr", "FloatingPointError")


def float_policy_sites(src: Path) -> list[str]:
    """``module.name`` of each floating-point policy name a module other
    than ``numeric.py`` reads."""
    sites = []
    for path in sorted(src.glob("*.py")):
        if path.name != "numeric.py":
            used = _identifiers(ast.parse(path.read_text(), filename=str(path)))
            sites += [f"{path.stem}.{name}" for name in FLOAT_POLICY_NAMES if name in used]
    return sites


def test_every_definition_is_used_in_src():
    assert unused_definitions(SRC) == []


def test_every_import_is_read_in_src():
    assert unused_imports(SRC) == []


def test_import_guard_names_an_import_its_module_never_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("import json\n\nfrom .a import used\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import copy\nimport math\nimport os.path\n\nimport numpy as np\n"
        "from collections import OrderedDict as OD, deque\n\n\n"
        "def used(x: np.ndarray) -> float:\n"
        "    import json\n\n"
        "    return math.pi + len(os.sep) + len(deque()) + len(json.dumps(x))\n")
    assert unused_imports(tmp_path) == ["a.copy", "a.OD"]


def test_guard_names_a_helper_only_tests_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan()\n\n\n"
        "class Kept:\n    pass\n\n\n"
        "def _private():\n    pass\n\n\n"
        "def _kept():\n    return _LIMIT\n\n\n"
        "__all__ = ['used']\n"
        "_LIMIT = 3\n"
        "SPARE: int = 4\n"
        "VALUE = used() + _kept()\n")
    (tmp_path / "b.py").write_text("from .a import Kept as K\n")
    assert unused_definitions(tmp_path) == ["a.orphan", "a._private", "a.SPARE", "a.VALUE"]


def test_float_policy_lives_in_numeric_alone():
    assert float_policy_sites(SRC) == []


def test_float_policy_guard_names_a_module_that_sets_its_own(tmp_path):
    (tmp_path / "numeric.py").write_text(
        "import numpy as np\n\n\ndef quiet():\n    return np.errstate(over='ignore')\n")
    (tmp_path / "a.py").write_text(
        "import numpy as np\n\n\n@np.errstate(over='raise')\ndef f():\n    pass\n")
    (tmp_path / "b.py").write_text(
        "def g():\n    try:\n        pass\n    except FloatingPointError:\n        pass\n")
    (tmp_path / "c.py").write_text('"""A docstring may name np.errstate."""\n')
    assert float_policy_sites(tmp_path) == ["a.errstate", "b.FloatingPointError"]
