"""tools/mutants.py must tell a killed edit from a surviving one, accept a
survivor only with a listed reason, and refuse a list it cannot apply; and
its committed list must apply to the tree."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import kplab

_TOOL = pathlib.Path(kplab.__file__).parents[2] / "tools" / "mutants.py"


def _mutants(root, edits):
    # a copy of the tool under root/tools makes root the tree it mutates; the
    # fake tree's tests need no pytest plugin, and loading none saves 1.5 s a run
    (root / "tools").mkdir(exist_ok=True)
    shutil.copy(_TOOL, root / "tools" / "mutants.py")
    (root / "tools" / "mutants.json").write_text(json.dumps(edits))
    return subprocess.run([sys.executable, str(root / "tools" / "mutants.py")],
                          env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
                          capture_output=True, text=True, timeout=300)


def test_mutants_reports_the_unlisted_survivor(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "calc.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests" / "test_calc.py").write_text(
        "from calc import double\n\n\ndef test_double():\n    assert double(3) == 6\n")
    tests = ["tests/test_calc.py"]
    killed = {"name": "triple", "file": "src/calc.py", "old": "2 * x", "new": "3 * x",
              "tests": tests}
    proc = _mutants(tmp_path, [
        killed,
        {"name": "add", "file": "src/calc.py", "old": "2 * x", "new": "x + x",
         "tests": tests, "equivalent": "x + x is 2 * x"},
        {"name": "swap", "file": "src/calc.py", "old": "2 * x", "new": "x * 2",
         "tests": tests}])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["killed      triple",
                                        "equivalent  add: x + x is 2 * x",
                                        "SURVIVED    swap"]
    proc = _mutants(tmp_path, [killed])
    assert proc.returncode == 0, proc.stdout + proc.stderr

    # an edit that does not apply, or a selection that fails unedited, is refused
    for edits in ([{**killed, "old": "4 * x"}], [{**killed, "tests": ["tests/none.py"]}]):
        proc = _mutants(tmp_path, edits)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout.startswith("unusable: "), proc.stdout


def test_listed_edits_apply_to_the_tree():
    # a refactor that removes an anchor fails here, not at the next mutation run
    spec = importlib.util.spec_from_file_location("mutants", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    edits = json.loads((_TOOL.parent / "mutants.json").read_text())
    assert tool._unusable(edits) == ""
    assert [t for e in edits for t in e["tests"]
            if not (_TOOL.parents[1] / t.split("::")[0]).is_file()] == []
