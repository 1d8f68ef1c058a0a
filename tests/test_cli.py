"""CLI: job parsing with positioned errors, command dispatch, exit codes,
and byte-stable JSON reports."""

import json
import subprocess
import sys

import pytest

from dgkernel import cli


def write_job(tmp_path, text, name="job.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


HYP = """\
field Q
base x 1
relation x^2
bounds 8 10
task {task}
"""


def run_cli(args):
    return cli.main(args)


def test_deviations_job(tmp_path, capsys):
    path = write_job(tmp_path, HYP.format(task="deviations"))
    assert run_cli([path]) == 0
    out = capsys.readouterr().out
    assert "marginals 0 1 1 0 0 0 0 0 0" in out


def test_json_report_matches_text_numbers(tmp_path, capsys):
    jpath = tmp_path / "out.json"
    path = write_job(tmp_path, HYP.format(task="deviations"))
    assert run_cli([path, "--json", str(jpath)]) == 0
    data = json.loads(jpath.read_text())
    assert data["eps"]["marginals"] == [0, 1, 1, 0, 0, 0, 0, 0, 0]
    assert data["eps"]["bigraded"] == {"1,1": 1, "2,2": 1}


def test_json_byte_identical_across_runs(tmp_path, capsys):
    path = write_job(tmp_path, HYP.format(task="classify"))
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli([path, "--json", str(j1)]) == 0
    assert run_cli([path, "--json", str(j2)]) == 0
    assert j1.read_bytes() == j2.read_bytes()


def test_poincare_order(tmp_path, capsys):
    job = """\
field Q
base x 1
base y 1
relation x^2
relation y^2
bounds 8 8
task poincare --order 9
"""
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 0
    out = capsys.readouterr().out
    assert "coefficients 1 2 3 4 5 6 7 8 9 10" in out
    assert "complete  false" in out


def test_verify_quasi_fibers_notes_shift(tmp_path, capsys):
    job = """\
field Q
base x 1
base y 1
relation x^2
relation x*y
bounds 5 9
task verify --statement quasi-fibers
"""
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 0
    out = capsys.readouterr().out
    assert "verdict   pass" in out
    assert "embdim A0 = 2, embdim H0(A) = 2" in out


def test_acyclic_closure_report(tmp_path, capsys):
    path = write_job(tmp_path, HYP.format(task="acyclic-closure"))
    assert run_cli([path]) == 0
    out = capsys.readouterr().out
    assert "minimal   true" in out
    assert "certified true" in out
    assert "dividedPower" in out


def test_minimal_model_switch(tmp_path, capsys):
    job = """\
field Q
base x 1
base y 1
relation x^2
relation y^2
bounds 6 8
task minimal-model --switch 2
"""
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 0
    out = capsys.readouterr().out
    assert "certified true" in out


def test_betti_reports_minimal_as_bool(tmp_path, capsys):
    jpath = tmp_path / "out.json"
    path = write_job(tmp_path, HYP.format(task="betti"))
    assert run_cli([path, "--json", str(jpath)]) == 0
    assert "minimal   true\n" in capsys.readouterr().out
    assert json.loads(jpath.read_text())["minimal"] is True


@pytest.mark.parametrize("args,code", [
    (["{job}", "--bogus"], 1),
    ([], 1),
    (["--help"], 0),
])
def test_usage_exit_codes(tmp_path, capsys, args, code):
    path = write_job(tmp_path, HYP.format(task="deviations"))
    assert run_cli([a.format(job=path) for a in args]) == code


def test_betti_cyclic_module(tmp_path, capsys):
    job = """\
field Q
base x 1
relation x^2
bounds 6 8
task betti --module cyclic:x
"""
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 0
    out = capsys.readouterr().out
    assert "marginals 1 1 1 1 1 1 1" in out


def test_dg_variable_job(tmp_path, capsys):
    job = """\
field Q
base x 1
relation x^2
dgvar e 1 1 exterior x
bounds 6 8
task deviations
"""
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 0
    out = capsys.readouterr().out
    assert "marginals 0 0 1 0 0 0 0" in out


def test_nonhomogeneous_relation_positioned(tmp_path, capsys):
    job = HYP.format(task="deviations").replace("x^2", "x^2 + x")
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 1
    err = capsys.readouterr().err
    assert "non-homogeneous relation" in err
    assert "line 3" in err


def test_parity_mismatch_positioned(tmp_path, capsys):
    job = """\
field Q
base x 1
relation x^2
dgvar w 3 2 dividedPower 0
bounds 6 8
task deviations
"""
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 1
    err = capsys.readouterr().err
    assert "parity mismatch" in err
    assert "line 4" in err


def test_unknown_name_positioned(tmp_path, capsys):
    job = HYP.format(task="deviations").replace("x^2", "x*q")
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 1
    err = capsys.readouterr().err
    assert "unknown name 'q'" in err
    assert "column" in err


def test_missing_bounds_rejected(tmp_path, capsys):
    job = "field Q\nbase x 1\nrelation x^2\ntask deviations\n"
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 1
    assert "bounds" in capsys.readouterr().err


def test_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    # force a failing comparison to confirm the exit code path
    from dgkernel import invariants as inv

    def fake_verify(statement, A, N, D):
        return inv.VerificationReport(statement, "fail",
                                      [{"i": 1, "ok": False}], N, D)

    monkeypatch.setattr(inv, "verify", fake_verify)
    job = HYP.format(task="verify --statement halperin")
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 3


def test_computation_error_exit_code(tmp_path, capsys):
    # halperin on a non-ring fixture is inadmissible -> exit 2
    job = """\
field Q
base x 1 hdeg 2
relation x^2
bounds 6 8
task verify --statement halperin
"""
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 2
    assert "computation error" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    path = write_job(tmp_path, HYP.format(task="deviations"))
    proc = subprocess.run([sys.executable, "-m", "dgkernel.cli", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "marginals 0 1 1" in proc.stdout


def test_fp_field(tmp_path, capsys):
    job = HYP.format(task="deviations").replace("field Q", "field Fp:2")
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 0
    out = capsys.readouterr().out
    assert "marginals 0 1 1 0 0 0 0 0 0" in out
