"""Source hygiene under src/, checked with ast: what a refactor tends to leave behind.

No module may import a name it never uses (``__init__`` re-exports count as
uses through ``__all__``), and no private (``_``-prefixed) module-level name
may go unreferenced by the package's own code. A private name that only tests
read belongs in tests/reference_ops.py.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "intent_graph"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _annotation_names(node: ast.AST):
    """Names read by string annotations, such as ``"GradientTape | None"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
        yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: bare names, attribute names and names in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used.update(_annotation_names(node.returns))
    for node in tree.body:  # __all__ = [...] re-exports
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return used


def _imported(tree: ast.Module):
    """(bound name, line) of every import in the module, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _private_definitions(tree: ast.Module):
    """(name, line) of every ``_``-prefixed, non-dunder name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_the_package_has_modules():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, unused


def test_every_private_module_level_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    for tree in trees.values():  # `from .x import _name` reads _name from x
        used.update(
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
        )
    unreferenced = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for private, line in _private_definitions(tree)
        if private not in used
    ]
    assert not unreferenced, unreferenced


def test_the_checks_catch_what_they_look_for():
    tree = ast.parse("import os\nfrom json import dumps as _d\n_unused = 1\n_kept = 2\n\ndef f():\n    return _kept\n")
    assert [name for name, _ in _imported(tree) if name not in _used_names(tree)] == ["os", "_d"]
    assert [name for name, _ in _private_definitions(tree) if name not in _used_names(tree)] == ["_unused"]
