"""Static hygiene of the package source: no unused imports, no dead private
module-level names, no public name only unit tests reach, no value no
production caller sets, no field no caller reads, no scipy outside
spaces-lab; and of the tests: no relative approx with an unstated absolute
tolerance."""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

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


def _defined(statement) -> list:
    """Names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


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
    defined = {name for node in _TREES[module].body for name in _defined(node)}
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    refs = set().union(*(_referenced(tree) for tree in _TREES.values()))
    assert sorted(private - refs) == []


def _defaulted(tree):
    """(callee name, positional index or None, parameter name, default) of
    every defaulted parameter of a non-dunder function and every defaulted
    dataclass field; a method's index does not count self."""
    found = []

    def visit(body, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
                    found.extend((node.name, i, f.target.id, f.value)
                                 for i, f in enumerate(fields) if f.value is not None)
                visit(node.body, True)
            elif isinstance(node, ast.FunctionDef):
                a = node.args
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    pos = [x.arg for x in a.posonlyargs + a.args]
                    first = len(pos) - len(a.defaults)
                    found.extend((node.name, i - in_class, pos[i], a.defaults[i - first])
                                 for i in range(first, len(pos)))
                    found.extend((node.name, None, k.arg, d) for k, d
                                 in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(node.body, False)
    visit(tree.body, False)
    return found


# The production callers: the package, the benchmark, the tools and the
# acceptance criteria.  A unit test that flips a switch does not count.
_PRODUCTION = (*sorted(_SRC.glob("*.py")),
               *sorted((_SRC.parents[1] / "bench").glob("*.py")),
               *sorted((_SRC.parents[1] / "tools").glob("*.py")),
               _SRC.parents[1] / "tests" / "test_acceptance.py")

# Defaults only unit tests set, each a seam to a route no production call takes
_SEAMS = {
    "cli.py:main.argv",                                   # the CLI in-process
    "solver.py:picard_iterate.smallness_threshold",       # DivergenceError
    "illposedness.py:second_picard_cross_term.rel_tol",   # AccuracyError
    "function_spaces.py:gaussian_sector_sum.enumeration_limit",  # enumeration as reference
}
# Constants that stay parameters because bench/ passes them
_PINNED = {
    "scattering.py:asymptotic_state.strict",   # strict=False at bench/workloads.py:51
}


def _calls():
    """Per callee name: (positional arguments, {keyword: argument}) of each
    production call, or None once some call passes *args or **kwargs."""
    calls = {}
    for path in _PRODUCTION:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", getattr(f, "attr", None))
                star = (any(k.arg is None for k in node.keywords)
                        or any(isinstance(x, ast.Starred) for x in node.args))
                if star:
                    calls[name] = None
                elif calls.setdefault(name, []) is not None:
                    calls[name].append((node.args, {k.arg: k.value for k in node.keywords}))
    return calls


def _literal(node):
    """A literal's type and repr, or None for any other expression."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value), repr(value)


def test_every_default_is_overridden_somewhere():
    # a default that every production call leaves or sets to one literal
    # (an omitted argument counting as its default) is a constant
    calls = _calls()
    constant = []
    for module, tree in _TREES.items():
        for name, index, param, default in _defaulted(tree):
            if calls.get(name, []) is None:
                continue
            omitted = _literal(default) or ("default", ast.unparse(default))
            values = {_literal(keys[param]) if param in keys
                      else _literal(args[index]) if index is not None and len(args) > index
                      else omitted
                      for args, keys in calls.get(name, [])}
            if None not in values and len(values) <= 1:
                constant.append(f"{module}:{name}.{param}")
    assert sorted(constant) == sorted(_SEAMS | _PINNED)


def test_every_public_name_has_a_production_reference():
    # a name only unit tests reach is a test oracle: it belongs in tests/oracles.py.
    # A public method or property of a package class is reached when an attribute
    # of its name is read in production code outside its own body.  Names match
    # as strings, not bindings: any identifier, attribute or imported name of that
    # spelling counts, so `x.omega` on another object would hide a test-only
    # top-level `omega`, and a test-only method sharing its name with a reached
    # one (another class's `l2_norm`) is not caught.
    others = [ast.parse(path.read_text(), filename=str(path))
              for path in _PRODUCTION if path.parent != _SRC]
    outside = set().union(*map(_referenced, others))
    statements = [(node, _referenced(node)) for tree in _TREES.values() for node in tree.body]
    unreached = [f"{module}:{name}" for module, tree in _TREES.items() for node in tree.body
                 for name in _defined(node) if not name.startswith("_")
                 and name not in outside
                 and not any(name in refs for other, refs in statements if other is not node)]

    def reads(tree):
        return Counter(node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    total = sum(map(reads, [*_TREES.values(), *others]), Counter())
    unreached += [f"{module}:{node.name}.{method.name}" for module, tree in _TREES.items()
                  for node in tree.body if isinstance(node, ast.ClassDef)
                  for method in node.body if isinstance(method, ast.FunctionDef)
                  and not method.name.startswith("_")
                  and total[method.name] <= reads(method)[method.name]]
    assert unreached == []


def test_every_dataclass_field_is_read():
    # a field nothing reads as an attribute is computed for no caller
    roots = (_SRC, _SRC.parents[1] / "tests", _SRC.parents[1] / "bench")
    read = {node.attr for path in (p for root in roots for p in sorted(root.glob("*.py")))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}:{node.name}.{field.target.id}"
              for module, tree in _TREES.items() for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef)
              and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
              for field in node.body if isinstance(field, ast.AnnAssign)
              and field.target.id not in read]
    assert unread == []


def test_every_relative_approx_states_abs():
    # pytest.approx(x, rel=r) also accepts any gap below its default abs=1e-12,
    # which for values under 1e-12/r is wider than the stated r
    unstated = [f"{path.name}:{node.lineno}"
                for path in sorted((_SRC.parents[1] / "tests").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "approx"
                and "rel" in (keys := {k.arg for k in node.keywords}) and "abs" not in keys]
    assert unstated == []


def test_cli_and_benchmark_imports_leave_scipy_unloaded():
    # only `run spaces-lab` needs scipy.special, and it imports it on demand
    workloads = ast.parse((_SRC.parents[1] / "bench" / "workloads.py").read_text())
    modules = ["kplab.cli"] + [f"kplab.{a.name}" for node in ast.walk(workloads)
                               if isinstance(node, ast.ImportFrom)
                               and node.module == "kplab" for a in node.names]
    code = ("import importlib, sys\n"
            f"for m in {modules!r}: importlib.import_module(m)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(_SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(modules) > 1 and proc.stdout.strip() == "[]"
