"""Same-results check: run a corpus of `kplab` commands in this tree and in
another one, and compare what each command prints and writes.

    python3 tools/same_results.py --parent DIR [--corpus CORPUS_DIR]

DIR is a checkout of another revision; its package is DIR/src/kplab.  The
corpus is a directory holding `commands.txt`, one `kplab` command line per
line (`#` starts a comment), and the files those commands read, such as
config files.  Each tree copies the corpus files into one fresh temporary
directory and runs every command there in order, as `python -m kplab.cli`
with PYTHONPATH set to that tree's `src`.  Relative paths, `--out`
directories included, therefore land in that temporary directory.

Per command the exit code, stdout, stderr and every file the command wrote
are compared byte for byte, with each line holding "wall_clock_s" masked
and, in stderr, the paths of the temporary directory and of the tree
masked.
One line per command reports `identical` or `DIFFERS` with what differs,
this tree's exit code and both wall times;
the exit code is 1 on any difference and 2 on an unusable argument.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

_HERE = pathlib.Path(__file__).resolve().parent
_TREE = _HERE.parent
_WALL = re.compile(rb'^.*"wall_clock_s".*$', re.MULTILINE)


def _masked(raw: bytes) -> bytes:
    return _WALL.sub(b'"wall_clock_s": <masked>', raw)


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


def compare(ours, theirs) -> list:
    """What differs between two results of one command (empty if nothing)."""
    (code, out, err, files, _), (pcode, pout, perr, pfiles, _) = ours, theirs
    diffs = []
    if code != pcode:
        diffs.append(f"exit {pcode} -> {code}")
    if out != pout:
        diffs.append("stdout")
    if err != perr:
        diffs.append("stderr")
    diffs += [name for name in sorted(set(files) | set(pfiles))
              if files.get(name) != pfiles.get(name)]
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 allow_abbrev=False)
    ap.add_argument("--parent", required=True, type=pathlib.Path,
                    help="tree to compare with (its package under DIR/src)")
    ap.add_argument("--corpus", type=pathlib.Path, default=_HERE / "corpus",
                    help="corpus directory (default: tools/corpus)")
    args = ap.parse_args(argv)
    if not (args.parent / "src" / "kplab").is_dir():
        print(f"error: {args.parent} holds no src/kplab", file=sys.stderr)
        return 2
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
