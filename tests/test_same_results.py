"""tools/same_results.py must call an unchanged tree identical and must see
one perturbed constant."""

import pathlib
import re
import shutil
import subprocess
import sys

import kplab

_SRC = pathlib.Path(kplab.__file__).parent
_TOOL = _SRC.parents[1] / "tools" / "same_results.py"


def _same_results(parent, corpus):
    return subprocess.run([sys.executable, str(_TOOL), "--parent", str(parent),
                           "--corpus", str(corpus)], capture_output=True, text=True,
                          timeout=300)


def test_same_results_sees_one_perturbed_constant(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # the report goes to a file whose wall_clock_s line must be masked
    (corpus / "commands.txt").write_text("kplab --out rep verify resonance --samples 200\n")
    parent = tmp_path / "parent"
    shutil.copytree(_SRC, parent / "src" / "kplab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _same_results(parent, corpus)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("identical ")

    # a relative change of 1e-12 in one term of the resonance identity: the
    # check still passes, so only the reported defect shows it
    module = parent / "src" / "kplab" / "estimates.py"
    text = module.read_text()
    term = "rhs = -3.0 * x1 * x2 * x3"
    assert text.count(term) == 1
    module.write_text(text.replace(term, "rhs = -3.000000000003 * x1 * x2 * x3"))
    proc = _same_results(parent, corpus)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    # the moved value is named with its ulp distance; the masked wall time
    # and the unchanged keys are not
    report = re.match(r"DIFFERS \(rep/verify-resonance\.json \[(.*)\]\) ", proc.stdout)
    assert report, proc.stdout
    moved = report.group(1).split(", ")
    assert moved and all(re.fullmatch(r"[a-z_]+ [1-9][0-9]* ulp", m) for m in moved), moved
    assert not any(m.startswith(("wall_clock_s", "passed", "tol")) for m in moved), moved
