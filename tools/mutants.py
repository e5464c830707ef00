"""Mutation check: apply each listed source edit in a temporary copy of
`src/` and `tests/`, run the tests chosen for it there, and report every
edit those tests do not kill.

    python3 tools/mutants.py

The edits are `tools/mutants.json` next to this file: a JSON list of objects
with the keys `name`, `file` (a path in the tree, such as
`src/kplab/illposedness.py`), `old` (text that occurs exactly once in that
file), `new` (its replacement) and `tests` (pytest paths or node ids).  An
edit that cannot change what the tests observe also carries `equivalent`,
the reason why.

Each edit gets a fresh copy of `src/` and `tests/` and runs
`python -m pytest -q -x -p no:cacheprovider TESTS` there, with PYTHONPATH set
to the copy's `src`.  Every selection first runs on an unedited copy and must
pass.  An edit is killed when pytest fails (exit 1) or cannot import the
edited code (exit 2).  One line per edit reports `killed`, `equivalent`
(survived, with the listed reason) or `SURVIVED`.

The exit code is 0 when every edit is killed or listed as equivalent, 1 on a
survivor not listed as equivalent, and 2 on an unusable list: a malformed
entry, a file outside `src/` and `tests/`, an `old` text that does not occur
exactly once, or a selection that fails or selects nothing on the unedited
copy.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

_TREE = pathlib.Path(__file__).resolve().parents[1]
_KEYS = {"name", "file", "old", "new", "tests"}


def _pytest(edit=None, tests=()) -> int:
    """pytest's exit code on `tests` in a fresh copy of the tree, `edit` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for sub in ("src", "tests"):
            shutil.copytree(_TREE / sub, root / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if edit is not None:
            path = root / edit["file"]
            path.write_text(path.read_text().replace(edit["old"], edit["new"]))
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *tests], cwd=root, env=env,
                              capture_output=True, timeout=1800).returncode


def _unusable(edits) -> str:
    """Why the list cannot be run, or '' when it can."""
    if not isinstance(edits, list):
        return "the list is not a JSON list"
    for e in edits:
        if not (isinstance(e, dict) and _KEYS <= e.keys()
                and all(isinstance(e[k], str) for k in _KEYS - {"tests"})
                and isinstance(e["tests"], list) and e["tests"]):
            return f"entry {e!r} needs the text keys {sorted(_KEYS - {'tests'})} and a test list"
        path = _TREE / e["file"]
        if pathlib.PurePath(e["file"]).parts[:1] not in (("src",), ("tests",)):
            return f"{e['name']}: {e['file']} is not under src/ or tests/"
        if not path.is_file() or path.read_text().count(e["old"]) != 1:
            return f"{e['name']}: its old text does not occur exactly once in {e['file']}"
    return ""


def main() -> int:
    try:
        edits = json.loads((_TREE / "tools" / "mutants.json").read_text())
        reason = _unusable(edits)
    except json.JSONDecodeError as err:
        edits, reason = [], f"the list is not JSON ({err})"
    if not reason:
        for tests in dict.fromkeys(tuple(e["tests"]) for e in edits):
            code = _pytest(tests=tests)
            if code:
                reason = f"the unedited tree gives pytest exit {code} on {' '.join(tests)}"
                break
    if reason:
        print(f"unusable: {reason}")
        return 2
    survivors = 0
    for e in edits:
        code = _pytest(e, e["tests"])
        if code not in (0, 1, 2):
            print(f"unusable: {e['name']}: pytest exit {code}")
            return 2
        if code:
            print(f"killed      {e['name']}")
        elif e.get("equivalent"):
            print(f"equivalent  {e['name']}: {e['equivalent']}")
        else:
            survivors += 1
            print(f"SURVIVED    {e['name']}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
