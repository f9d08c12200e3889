"""The shared table of banded checks: its names, the verify suites built
from it, the tests that read it, and the calibration tool that runs it."""

import ast
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import stubbed_paper_suite

import coalesce
from coalesce import verify
from coalesce._checks import CHECKS, TABLE, run_checks

TESTS = Path(__file__).parent


def suite_names(suite):
    return [check.name for check in TABLE if check.suite == suite]


def test_names_unique():
    assert len(CHECKS) == len(TABLE)


def test_statistical_rows_are_its_checks():
    rows, _ = verify.statistical_suite(3, scale=0.01)
    assert [f"{r[0]}/{r[1]}" for r in rows] == suite_names("statistical")


def test_statistical_z_rows_carry_sigma_one():
    # a "<=" band bounds a value in z units, whose sigma is 1, or a KS
    # distance, which has none
    outcomes = run_checks(suite_names("statistical"), 3, scale=0.01)
    sigma = {name: out.sigma for name, out in outcomes.items() if out.band.kind == "<="}
    assert len(sigma) == 10
    assert all(s == 1.0 or math.isnan(s) for s in sigma.values()), sigma


def test_c3_reads_the_duality_rows():
    # C3 is verify statistical's duality_cycle6 draw at 20 000 replicates,
    # its scale-4 size, with the size-bias bins beside it
    c3 = run_checks(["c3_ks", "c3_invN"], 2025)
    rows = run_checks(["duality_cycle6/ks_nhat_vs_N", "duality_cycle6/z_Pt_vs_invN"], 2025,
                      scale=4.0)
    assert c3["c3_ks"].value == rows["duality_cycle6/ks_nhat_vs_N"].value
    assert c3["c3_invN"].value == rows["duality_cycle6/z_Pt_vs_invN"].value


def test_paper_rows_are_its_checks(monkeypatch):
    rows, _, predictions = stubbed_paper_suite(monkeypatch)
    assert [f"{r[0]}/{r[1]}" for r in rows] == suite_names("paper")
    assert [p["label"] for p in predictions] == ["BG(1)", "A1", "A2", "BG(3)", "alpha(delta3)"]


def test_tests_name_existing_checks():
    # every literal name a test reads, so that a renamed check fails here
    names = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "checks_pass":
                args = node.args[1:]
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_checks"
                  and isinstance(node.args[0], ast.List)):
                args = node.args[0].elts
            else:
                continue
            names |= {a.value for a in args if isinstance(a, ast.Constant)}
    assert len(names) >= 30 and names <= set(CHECKS), names - set(CHECKS)


def test_table_builds_no_graph_or_chain_at_import():
    code = ("import coalesce.chains as c, coalesce.graphs as g\n"
            "made = []\n"
            "for cls in (g.Graph, c.MarkovChain):\n"
            "    cls.__init__ = lambda self, *a, _i=cls.__init__, **k: (made.append(1), "
            "_i(self, *a, **k))[1]\n"
            "import coalesce._checks\n"
            "print(len(made))")
    src = os.path.dirname(os.path.dirname(coalesce.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "calibrate_bands", TESTS.parent / "tools" / "calibrate_bands.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_prints_one_row(tool, capsys):
    tool.main(["--seeds", "2", "--only", "pair_k2"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "check"
    assert [row.split()[:2] for row in rows] == [["pair_k2", "0/2"]]


@pytest.mark.parametrize("args, named", [
    (["--only", "pair_k2,no_such_check"], "no_such_check"),
    (["--seeds", "0", "--only", "pair_k2"], "--seeds"),
    (["--seeds", "-2"], "--seeds"),
])
def test_calibration_rejects_bad_input(tool, capsys, args, named):
    # a KeyError and an UnboundLocalError, the first after pair_k2's draws
    with pytest.raises(SystemExit) as stop:
        tool.main(args)
    out, err = capsys.readouterr()
    assert stop.value.code == 2 and named in err.splitlines()[-1] and out == ""


def test_calibration_exact_value(tool, capsys):
    # sigma 0 is an exact value: it fails on every seed or on none
    tool.main(["--seeds", "2", "--only", "mf36_exact_alpha"])
    [row] = capsys.readouterr().out.splitlines()[1:]
    assert row.split()[:4] == ["mf36_exact_alpha", "0/2", "0.000", "0.0e+00"]
    band = CHECKS["mf36_exact_alpha"].band
    assert tool.nominal(band, 1.0, [1.3, 1.3], 0.0) == "1.0e+00"
