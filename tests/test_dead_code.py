"""Every public top-level function and class in ``src/tfl`` is used by the
program itself.  Code that only the tests call belongs in the tests
(``tests/oracles.py`` holds the reference implementations)."""

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


def unused_public_definitions(src: Path) -> list[str]:
    """``module.name`` of each public top-level def or class that no other
    top-level statement in ``src`` uses."""
    statements = []  # (module, name defined or None, identifiers used)
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            defined = node.name if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            statements.append((path.stem, defined, _identifiers(node)))
    unused = []
    for module, name, _ in statements:
        if name is None or name.startswith("_"):
            continue
        users = [used for other_module, other, used in statements
                 if (other_module, other) != (module, name) and name in used]
        if not users:
            unused.append(f"{module}.{name}")
    return unused


def test_every_public_definition_is_used_in_src():
    assert unused_public_definitions(SRC) == []


def test_guard_names_a_helper_only_tests_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan()\n\n\n"
        "class Kept:\n    pass\n\n\n"
        "def _private():\n    pass\n\n\n"
        "VALUE = used()\n")
    (tmp_path / "b.py").write_text("from .a import Kept as K\n")
    assert unused_public_definitions(tmp_path) == ["a.orphan"]
