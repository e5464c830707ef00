"""tools/same_results.py must call an unchanged tree identical and must see
one perturbed constant, in the corpus and in the ACCEPTANCE lines."""

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


def _acceptance_tree(root, detail):
    # a tree whose acceptance suite prints one line; the tool's copy under
    # tools/ makes the tree "this" one
    for sub in ("src/kplab", "tests", "tools"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    (root / "tests" / "test_acceptance.py").write_text(
        f"def test_one():\n    print('ACCEPTANCE 04 [group]: PASS - {detail}')\n")
    shutil.copy(_TOOL, root / "tools" / "same_results.py")
    return root


def test_same_results_criteria_masks_wall_times_only(tmp_path):
    parent = _acceptance_tree(tmp_path / "parent", "defect 4.07e-18 (tol 1e-12), 0.3s (cap 5s)")
    this = tmp_path / "this"

    def criteria(detail):
        _acceptance_tree(this, detail)
        return subprocess.run([sys.executable, str(this / "tools" / "same_results.py"),
                               "--parent", str(parent), "--criteria"],
                              capture_output=True, text=True, timeout=300)

    proc = criteria("defect 4.07e-18 (tol 1e-12), 12.5s (cap 5s)")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("identical  ACCEPTANCE 04 [group]: PASS - defect 4.07e-18 "
                                  "(tol 1e-12), <wall>s (cap 5s)\n"), proc.stdout
    # a moved defect and a moved cap each differ, with both texts printed
    for detail in ("defect 2.73e-18 (tol 1e-12), 0.3s (cap 5s)",
                   "defect 4.07e-18 (tol 1e-12), 0.3s (cap 4s)"):
        proc = criteria(detail)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.startswith("DIFFERS\n  parent: ACCEPTANCE 04 [group]: PASS - defect "
                                      "4.07e-18 (tol 1e-12), <wall>s (cap 5s)\n"), proc.stdout
        assert "\n  here:   ACCEPTANCE 04" in proc.stdout
