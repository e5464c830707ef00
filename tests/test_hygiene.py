"""Static hygiene of the package source: no unused imports, no dead private
module-level names."""

import ast
import pathlib

import pytest

import kplab

_SRC = pathlib.Path(kplab.__file__).parent
_TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
          for path in sorted(_SRC.glob("*.py"))}
_MODULES = sorted(name for name in _TREES if name != "__init__.py")


def _referenced(tree) -> set:
    """Names read as identifiers, attributes or imported names in a tree."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


@pytest.mark.parametrize("module", _MODULES)
def test_every_import_is_used(module):
    tree = _TREES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("module", _MODULES)
def test_every_private_name_is_referenced(module):
    defined = set()
    for node in _TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    refs = set().union(*(_referenced(tree) for tree in _TREES.values()))
    assert sorted(private - refs) == []
