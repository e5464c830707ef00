import json
import math
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

import pytest

import kplab
from kplab.cli import _RUNS, _VERIFY_CHECKS, _load_config, main
from kplab.data import gaussian_datum, member_rng
from kplab.decomposition import NormParams, lqlp_norm, sector_masses
from kplab.errors import ConfigurationError
from kplab.reporting import write_csv
from kplab.spectral import GridSpec, SpectralField, read_snapshot, write_snapshot


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_make_data_gaussian_and_norms(tmp_path, capsys):
    f = str(tmp_path / "g.kp3f")
    code, out = run_cli(["make-data", "gaussian", "--width", "1", "--file", f], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["l2_norm"] > 0
    assert "lqlp_norms" in payload

    code, out = run_cli(["norms", f, "--q", "inf", "--p", "1.5"], capsys)
    assert code == 0
    rec = json.loads(out)["records"]
    field = read_snapshot(f)
    assert rec[0]["value"] == pytest.approx(field.l2_norm())
    assert rec[1]["value"] == pytest.approx(
        lqlp_norm(field, NormParams(q=math.inf, p=1.5)))


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_norms_report_is_strict_json(tmp_path, capsys):
    # the default q = inf is echoed as make-data's "inf"; a finite q stays a number
    f = str(tmp_path / "g.kp3f")
    assert main(["make-data", "gaussian", "--file", f]) == 0
    capsys.readouterr()
    for args, q in (([], "inf"), (["--q", "2"], 2.0)):
        code, out = run_cli(["norms", f, *args], capsys)
        assert code == 0
        rec = json.loads(out, parse_constant=_refuse_constant)["records"]
        assert rec[1]["params"] == {"q": q, "p": 1.5}


def test_make_data_sector_single_term(tmp_path, capsys):
    f = str(tmp_path / "s.kp3f")
    code, out = run_cli(["make-data", "sector", "--lam", "2", "--k", "1,0",
                         "--file", f], capsys)
    assert code == 0
    field = read_snapshot(f)
    expect = math.sqrt(2.0) * field.l2_norm()
    for label, val in json.loads(out)["lqlp_norms"].items():
        assert val == pytest.approx(expect, rel=1e-9, abs=0)


def test_make_data_sector_negative_index(tmp_path):
    # argparse reads "--k -1,1" as a flag; the "=" form passes the value
    proc = run_module(["make-data", "sector", "--lam", "1", "--k=-1,1",
                       "--file", "s.kp3f"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list(sector_masses(read_snapshot(tmp_path / "s.kp3f"))) == [(0, -1, 1)]


def test_make_data_unknown_kind_exits_2(capsys):
    with pytest.raises(SystemExit):
        main(["make-data", "plasma"])


def test_make_data_unrepresentable_exits_2(tmp_path, capsys):
    f = str(tmp_path / "ip.kp3f")
    code = main(["make-data", "illposed", "--mu", "0.015625", "--lam", "8",
                 "--p", "3", "--file", f, "--illposed-modes-x", "64"])
    capsys.readouterr()
    assert code == 2


def test_verify_resonance_and_unknown(tmp_path, capsys):
    code, out = run_cli(["verify", "resonance", "--samples", "500"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["max_defect"] <= 1e-9
    with pytest.raises(SystemExit):
        main(["verify", "unknown-check"])


def test_verify_partition_of_unity(capsys):
    code, out = run_cli(["verify", "partition-of-unity"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_run_picard_report(tmp_path, capsys):
    code, out = run_cli(["run", "picard"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert all(r <= 0.5 for r in payload["ratios"])
    assert "config_hash" in payload and "versions" in payload


def test_run_failure_exits_1_with_its_cause(tmp_path, capsys):
    # a datum above the small-data threshold is a failed run, not a bad config
    cfg = tmp_path / "c.json"
    cfg.write_text('{"datum_norm": 1}')
    code, out = run_cli(["--config", str(cfg), "run", "picard"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["cause"] == "PreconditionError"


def test_run_determinism_byte_identical(tmp_path, capsys):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["--seed", "7", "--out", out1, "verify", "resonance",
                 "--samples", "300"]) == 0
    assert main(["--seed", "7", "--out", out2, "verify", "resonance",
                 "--samples", "300"]) == 0
    capsys.readouterr()
    a = open(os.path.join(out1, "verify-resonance.json"), "rb").read()
    b = open(os.path.join(out2, "verify-resonance.json"), "rb").read()
    # identical except the wall-clock line
    strip = lambda raw: b"\n".join(l for l in raw.splitlines()
                                   if b"wall_clock" not in l)
    assert strip(a) == strip(b)


def test_run_sim_writes_trace_artifacts(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "grid": {"modes_x": 16, "modes_y1": 8, "modes_y2": 8,
                 "length_x": 4 * math.pi, "length_y1": 4 * math.pi,
                 "length_y2": 4 * math.pi},
        "dt": 0.02, "T": 0.5, "samples_per_unit": 4, "amplitude": 1e-3,
        "center_xi": 1.0}))
    out = str(tmp_path / "trace")
    code = main(["--config", str(cfg), "--out", out, "run", "sim"])
    capsys.readouterr()
    assert code == 0
    manifest = json.load(open(os.path.join(out, "run-sim.json")))
    assert manifest["passed"] is True and "times" in manifest
    snaps = [f for f in os.listdir(out) if f.endswith(".kp3f")]
    assert len(snaps) == len(manifest["times"])
    read_snapshot(os.path.join(out, snaps[0]))   # parses


def test_run_scatter_csv_into_new_directory(tmp_path, capsys):
    cfg = tmp_path / "scatter.json"
    cfg.write_text(json.dumps({"grid": {
        "modes_x": 32, "modes_y1": 8, "modes_y2": 8, "length_x": 8 * math.pi,
        "length_y1": 4 * math.pi, "length_y2": 4 * math.pi}}))
    out = tmp_path / "new" / "rep"
    code = main(["--config", str(cfg), "--out", str(out), "run", "scatter",
                 "--format", "csv"])
    capsys.readouterr()
    assert code != 2
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0] == "t,residual" and len(lines) == 5   # checkpoints 1, 2, 4, 8
    assert (out / "run-scatter.json").exists()


def test_norms_csv_sector_table(tmp_path, capsys):
    f = str(tmp_path / "g.kp3f")
    assert main(["make-data", "sector", "--lam", "2", "--k", "0,0",
                 "--file", f]) == 0
    out = str(tmp_path / "rep")
    assert main(["--out", out, "norms", f, "--format", "csv"]) == 0
    capsys.readouterr()
    lines = open(os.path.join(out, "sector_masses.csv")).read().splitlines()
    assert lines[0] == "lam,k1,k2,mass"
    assert len(lines) == 2          # a single occupied sector
    lam, k1, k2, mass = lines[1].split(",")
    assert float(lam) == 2.0 and (k1, k2) == ("0", "0")


@pytest.mark.parametrize("index", [(0, 1, 1), (1, 1, 1)])
def test_norms_refuses_snapshot_breaking_invariants(tmp_path, capsys, index):
    # content on the xi = 0 plane, or one side of a mirror pair of a real field
    g = GridSpec(8, 8, 8, 1.0, 1.0, 1.0)
    c = gaussian_datum(g).coeff.copy()
    c[index] += 1.0
    write_snapshot(SpectralField(g, c), tmp_path / "bad.kp3f")
    assert main(["norms", str(tmp_path / "bad.kp3f")]) == 2
    capsys.readouterr()


def test_run_spaces_lab_report(capsys):
    code, out = run_cli(["run", "spaces-lab"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_partial_grid_merges_into_the_experiment_default(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"grid": {"modes_x": 32}}')
    raw, settings = _load_config(str(cfg), "scatter")
    assert raw == {"grid": {"modes_x": 32}}
    assert settings["grid"] == GridSpec(32, 24, 24, 32 * math.pi, 8 * math.pi, 8 * math.pi)
    assert settings["sim"].grid == settings["grid"]


@pytest.mark.parametrize("seed, member", [(-1, 0), (2 ** 32, 0), (0, -1), (0, 2 ** 32)])
def test_member_rng_refuses_keys_outside_32_bits(seed, member):
    with pytest.raises(ConfigurationError):
        member_rng(seed, member)


def test_csv_rows_sort_by_value(tmp_path):
    write_csv(tmp_path / "g.csv", ["lam", "k1"],
              [(64.0, 1), (8.0, -2), (32.0, 0), (16.0, 0), (8.0, -10)])
    assert (tmp_path / "g.csv").read_text().splitlines() == [
        "lam,k1", "8.0,-10", "8.0,-2", "16.0,0", "32.0,0", "64.0,1"]


def test_run_unknown_experiment(capsys):
    with pytest.raises(SystemExit):
        main(["run", "warp-drive"])


def run_module(args, cwd=None):
    """`python -m kplab.cli args` in a child process that imports this kplab."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kplab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "kplab.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


def test_console_script_help():
    proc = run_module(["--help"])
    assert proc.returncode == 0
    assert "make-data" in proc.stdout and "verify" in proc.stdout


# The flags of each leaf sub-parser (a make-data kind, a check or an
# experiment) besides --help; a check or experiment not listed reads none.
_LEAF_FLAGS = {
    ("make-data", "gaussian"): {"--file", "--p", "--amplitude", "--width", "--center-xi"},
    ("make-data", "sector"): {"--file", "--p", "--amplitude", "--lam", "--k"},
    ("make-data", "illposed"): {"--file", "--p", "--lam", "--mu", "--illposed-modes-x"},
    ("make-data", "random-band"): {"--file", "--p", "--band-lo", "--band-hi", "--eta-max"},
    ("verify", "resonance"): {"--samples"},
    ("verify", "circle-measure"): {"--configs"},
    ("verify", "g-rho"): {"--configs"},
    ("verify", "bilinear"): {"--lam", "--mu-sweep", "--ensemble", "--threads"},
    ("verify", "sector-bilinear"): {"--ensemble"},
    ("run", "scatter"): {"--format"},
    ("run", "illposed-sweep"): {"--p", "--lams"},
}
_LEAVES = [*(leaf for leaf in _LEAF_FLAGS if leaf[0] == "make-data"),
           *(("verify", check) for check in _VERIFY_CHECKS),
           *(("run", name) for name in _RUNS)]


@pytest.mark.parametrize("leaf", _LEAVES, ids="/".join)
def test_leaf_help_lists_only_its_own_flags(leaf, capsys):
    with pytest.raises(SystemExit) as stop:
        main([*leaf, "--help"])
    assert stop.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == _LEAF_FLAGS.get(leaf, set()) | {"--help"}


# What stderr must hold for some cases, beyond the absence of a traceback
# and of a warning.
_STDERR = {
    "threads-before-the-verb": r"error: --threads is not a flag of kplab itself; "
                               r"it goes after the subcommand",
    "format-before-the-verb": r"error: --format is not a flag of kplab itself",
    "sim-amplitude-overflow": r"\Aerror: evolve datum norm overflows[^\n]*\n\Z",
    "illposed-sweep-lam-unresolvable": r"\Aerror: double precision cannot resolve",
}


# The refusals: every command after this marker in the corpus of
# tools/same_results.py, each named by the comment that ends its line
_CORPUS = pathlib.Path(__file__).resolve().parents[1] / "tools" / "corpus"
_LINES = (_CORPUS / "commands.txt").read_text().splitlines()
_MARKER = '# Refusals: each command below exits 2 with an "error:" line and no traceback'
_REFUSALS = [(line.rpartition("#")[2].strip(), shlex.split(line, comments=True)[1:])
             for line in _LINES[_LINES.index(_MARKER) + 1:]
             if shlex.split(line, comments=True)]


def test_every_stderr_pattern_names_a_refusal():
    assert set(_STDERR) <= {case for case, _ in _REFUSALS}


@pytest.mark.parametrize("case, args", _REFUSALS, ids=[case for case, _ in _REFUSALS])
def test_malformed_input_exits_2(tmp_path, case, args):
    shutil.copytree(_CORPUS, tmp_path, dirs_exist_ok=True)
    write_snapshot(gaussian_datum(GridSpec(8, 8, 8, 1.0, 1.0, 1.0)), tmp_path / "g.kp3f")
    proc = run_module(args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert re.search(_STDERR.get(case, ""), proc.stderr), proc.stderr
