"""Same-results check: run a corpus of `kplab` commands in this tree and in
another one, and compare what each command prints and writes.

    python3 tools/same_results.py --parent DIR [--corpus CORPUS_DIR]
    python3 tools/same_results.py --parent DIR --criteria

DIR is a checkout of another revision; its package is DIR/src/kplab.  The
corpus is a directory holding `commands.txt`, one `kplab` command line per
line (`#` starts a comment), and the files those commands read, such as
config files.  Each tree copies the corpus files into one fresh temporary
directory and runs every command there in order, as `python -m kplab.cli`
with PYTHONPATH set to that tree's `src`.  Relative paths, `--out`
directories included, therefore land in that temporary directory.

Per command the exit code, stdout, stderr and every file the command wrote
are compared byte for byte, with every "wall_clock_s" value masked and, in
stderr, the paths of the temporary directory and of the tree masked.
One line per command reports `identical` or `DIFFERS` with what differs,
this tree's exit code and both wall times.  A differing JSON output (stdout
or a `.json` file) or `.csv` file of the same shape on both sides is
followed by the largest ulp distance per numeric key that moved, e.g.
`stdout [slope 3 ulp, values 1 ulp]`; a JSON key is its path of object
keys joined by dots, a CSV key its column, and list entries share a key.

With --criteria the tool runs `pytest -s tests/test_acceptance.py` in each
tree instead (PYTHONPATH set to that tree's `src`) and compares the printed
ACCEPTANCE lines one by one, with every wall time (`12.3s (cap 20s)`) masked
and the caps kept.  A differing line is printed with the parent's text and
this tree's; a different pytest exit code or number of lines also differs.

The exit code is 1 on any difference and 2 on an unusable argument.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
import time

_HERE = pathlib.Path(__file__).resolve().parent
_TREE = _HERE.parent
_WALL = re.compile(rb'("wall_clock_s":\s*)[^,\n}]*')
_SECONDS = re.compile(r"\b\d+(?:\.\d+)?s \(cap ")


def _masked(raw: bytes) -> bytes:
    return _WALL.sub(rb'\1"<masked>"', raw)


def _leaves(obj, key, out) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _leaves(v, f"{key}.{k}" if key else k, out)
    elif isinstance(obj, list):
        for v in obj:
            _leaves(v, key, out)
    else:
        number = isinstance(obj, (int, float)) and not isinstance(obj, bool)
        out.setdefault(key, []).append(float(obj) if number else obj)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _numbers(name: str, raw: bytes):
    """{key: [values]} of a JSON or CSV output, numbers as floats; None if
    the output is neither."""
    out = {}
    try:
        if name.endswith(".csv"):
            header, *rows = csv.reader(io.StringIO(raw.decode()))
            for row in rows:
                for k, v in zip(header, row):
                    out.setdefault(k, []).append(_cell(v))
        else:
            _leaves(json.loads(raw), "", out)
    except ValueError:
        return None
    return out


def _ordered(x: float) -> int:
    """The bits of a double as an integer that counts ulps across zero."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def ulp_report(name: str, ours: bytes, theirs: bytes) -> str:
    """`key N ulp` for each numeric key of a JSON or CSV output whose values
    moved, the largest distance over its entries; empty when the outputs
    are not both JSON or CSV or differ in shape or in a non-number."""
    a, b = _numbers(name, ours), _numbers(name, theirs)
    if a is None or b is None or a.keys() != b.keys():
        return ""
    moved = []
    for key in sorted(a):
        if len(a[key]) != len(b[key]):
            return ""
        ulps = 0
        for x, y in zip(a[key], b[key]):
            if type(x) is float and type(y) is float:
                ulps = max(ulps, abs(_ordered(x) - _ordered(y)))
            elif x != y:
                return ""
        if ulps:
            moved.append(f"{key} {ulps} ulp")
    return f" [{', '.join(moved)}]" if moved else ""


def read_corpus(corpus: pathlib.Path) -> list:
    """The command lines of a corpus, each as an argument list without the
    leading `kplab`."""
    commands = []
    for line in (corpus / "commands.txt").read_text().splitlines():
        args = shlex.split(line, comments=True)
        if args:
            commands.append(args[1:] if args[0] == "kplab" else args)
    return commands


def _digests(work: pathlib.Path) -> dict:
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).digest()
            for p in sorted(work.rglob("*")) if p.is_file()}


def run_tree(tree: pathlib.Path, corpus: pathlib.Path, commands: list,
             work: pathlib.Path) -> list:
    """Run every command in `work` against tree/src.  Per command:
    (exit code, masked stdout, masked stderr, {written path: masked bytes},
    wall seconds)."""
    for item in corpus.iterdir():
        if item.name != "commands.txt":
            (shutil.copytree if item.is_dir() else shutil.copy)(item, work / item.name)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    results = []
    for args in commands:
        before = _digests(work)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "kplab.cli", *args], cwd=work,
                              env=env, capture_output=True)
        wall = time.perf_counter() - t0
        written = {name: _masked((work / name).read_bytes())
                   for name, digest in _digests(work).items()
                   if before.get(name) != digest}
        stderr = proc.stderr.replace(bytes(work), b"<work>").replace(bytes(tree), b"<tree>")
        results.append((proc.returncode, _masked(proc.stdout), stderr, written, wall))
    return results


def acceptance_lines(tree: pathlib.Path) -> tuple:
    """(pytest exit code, ACCEPTANCE lines with wall times masked) of the
    acceptance suite of `tree`."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
                           "tests/test_acceptance.py"], cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return proc.returncode, [_SECONDS.sub("<wall>s (cap ", line[line.index("ACCEPTANCE"):])
                             for line in proc.stdout.splitlines() if "ACCEPTANCE" in line]


def compare_criteria(parent: pathlib.Path) -> int:
    (pcode, theirs), (code, ours) = map(acceptance_lines, (parent, _TREE))
    n_diff = int(code != pcode)
    if n_diff:
        print(f"DIFFERS  pytest exit {pcode} -> {code}")
    for here, there in itertools.zip_longest(ours, theirs, fillvalue="<no line>"):
        n_diff += here != there
        print(f"identical  {here}" if here == there
              else f"DIFFERS\n  parent: {there}\n  here:   {here}")
    print(f"{len(ours)} ACCEPTANCE lines here, {len(theirs)} in the parent: {n_diff} differ")
    return 1 if n_diff else 0


def compare(ours, theirs) -> list:
    """What differs between two results of one command (empty if nothing)."""
    (code, out, err, files, _), (pcode, pout, perr, pfiles, _) = ours, theirs
    diffs = []
    if code != pcode:
        diffs.append(f"exit {pcode} -> {code}")
    if out != pout:
        diffs.append("stdout" + ulp_report("stdout", out, pout))
    if err != perr:
        diffs.append("stderr")
    diffs += [name + ulp_report(name, files.get(name, b""), pfiles.get(name, b""))
              for name in sorted(set(files) | set(pfiles))
              if files.get(name) != pfiles.get(name)]
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 allow_abbrev=False)
    ap.add_argument("--parent", required=True, type=pathlib.Path,
                    help="tree to compare with (its package under DIR/src)")
    ap.add_argument("--corpus", type=pathlib.Path, default=_HERE / "corpus",
                    help="corpus directory (default: tools/corpus)")
    ap.add_argument("--criteria", action="store_true",
                    help="compare the acceptance suite's ACCEPTANCE lines instead")
    args = ap.parse_args(argv)
    if not (args.parent / "src" / "kplab").is_dir():
        print(f"error: {args.parent} holds no src/kplab", file=sys.stderr)
        return 2
    if args.criteria:
        return compare_criteria(args.parent.resolve())
    commands = read_corpus(args.corpus)
    with tempfile.TemporaryDirectory() as scratch:
        runs = {}
        for name, tree in (("parent", args.parent.resolve()), ("this", _TREE)):
            work = pathlib.Path(scratch) / name
            work.mkdir()
            runs[name] = run_tree(tree, args.corpus, commands, work)
    n_diff = 0
    for cmd, ours, theirs in zip(commands, runs["this"], runs["parent"]):
        diffs = compare(ours, theirs)
        n_diff += bool(diffs)
        verdict = f"DIFFERS ({', '.join(diffs)})" if diffs else "identical"
        print(f"{verdict}  kplab {shlex.join(cmd)}  "
              f"[exit {ours[0]}; {theirs[-1]:.1f} s parent, {ours[-1]:.1f} s here]")
    print(f"{len(commands)} commands: {len(commands) - n_diff} identical, {n_diff} differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
