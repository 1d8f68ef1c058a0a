"""CLI: job parsing with positioned errors, command dispatch, exit codes,
and byte-stable JSON reports."""

import hashlib
import itertools
import json
import subprocess
import sys
import time

import pytest

from dgkernel import cli


def write_job(tmp_path, text, name="job.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
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


def test_closure_report_does_not_depend_on_the_order_of_base_lines(
        tmp_path, capsys):
    # the monomial table and the bases are keyed by ranks, which follow
    # the adjunctions and not the order the base variables are declared
    # in: all six orders give one report, byte for byte
    reports = set()
    for order in itertools.permutations("xyz"):
        text = "field Q\n" + "".join(f"base {v} 1\n" for v in order) + (
            "relation x^2\nrelation y^2\nrelation x*z\nrelation y*z\n"
            "bounds 6 8\ntask acyclic-closure\n")
        jpath = tmp_path / ("".join(order) + ".json")
        assert run_cli([write_job(tmp_path, text), "--json", str(jpath)]) == 0
        reports.add(jpath.read_bytes())
    assert len(reports) == 1


def test_json_to_a_path_that_cannot_be_written(tmp_path, capsys):
    # the report is printed, then the failed write is an exit-1 error
    path = write_job(tmp_path, HYP.format(task="deviations"))
    target = tmp_path / "missing" / "r.json"
    assert run_cli([path, "--json", str(target)]) == 1
    captured = capsys.readouterr()
    assert "marginals 0 1 1 0 0 0 0 0 0" in captured.out
    assert captured.err.startswith("error: cannot write --json report: ")
    assert str(target) in captured.err
    assert "Traceback" not in captured.err


def test_job_file_that_is_not_utf8(tmp_path, capsys):
    # the error names the line of the first byte that does not decode
    p = tmp_path / "job.txt"
    p.write_bytes(HYP.format(task="deviations").encode().replace(
        b"relation x^2", b"relation x\xff^2"))
    assert run_cli([str(p)]) == 1
    assert capsys.readouterr().err == (
        "error: job file is not UTF-8: byte 0xff does not decode "
        "at line 3\n")


def test_job_file_line_endings_read_as_in_text_mode(tmp_path, capsys):
    # CRLF and CR line ends split lines as a text-mode read does
    p = tmp_path / "job.txt"
    text = HYP.format(task="deviations")
    p.write_bytes(text.replace("\n", "\r\n").encode())
    assert run_cli([str(p)]) == 0
    crlf = capsys.readouterr().out
    p.write_bytes(text.replace("\n", "\r").encode())
    assert run_cli([str(p)]) == 0
    assert capsys.readouterr().out == crlf
    assert "marginals 0 1 1 0 0 0 0 0 0" in crlf


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
    (["{unknown_option}"], 1),
    (["{negative_order}"], 1),
])
def test_usage_exit_codes(tmp_path, capsys, args, code):
    tasks = {"job": "deviations", "unknown_option": "deviations --bogus 1",
             "negative_order": "poincare --order -3"}
    paths = {name: write_job(tmp_path, HYP.format(task=task), name)
             for name, task in tasks.items()}
    assert run_cli([a.format(**paths) for a in args]) == code


@pytest.mark.parametrize("task,message", [
    ("deviations --bogus 1", "deviations takes no option '--bogus'"),
    ("betti --module residue-field --module cyclic:x",
     "repeated option '--module'"),
    ("poincare --order -3", "--order takes a nonnegative integer"),
    ("minimal-model --switch x", "--switch takes a nonnegative integer"),
    ("verify", "verify requires --statement"),
    ("verify --statement nope", "unknown statement 'nope'; choose from"),
])
def test_task_option_errors_name_the_task_line(tmp_path, capsys, task,
                                               message):
    path = write_job(tmp_path, HYP.format(task=task))
    assert run_cli([path]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "at line 5" in err


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


@pytest.mark.parametrize("field", ["Q", "Fp:2"])
@pytest.mark.parametrize("spec", ["1", "x,1"])
def test_betti_of_the_zero_module_is_empty(tmp_path, capsys, field, spec):
    # an ideal holding a unit (and a linear form) is the whole ring: the
    # zero module, resolved by no generator
    job = (f"field {field}\nbase x 1\nbase y 1\nrelation x^2\n"
           f"relation x*y\nbounds 4 5\ntask betti --module cyclic:{spec}\n")
    assert run_cli([write_job(tmp_path, job)]) == 0
    assert capsys.readouterr().out == (
        f"task      betti\nfield     {field}\n"
        "bounds    max_hdeg=4 max_intdeg=5\n"
        f"module    cyclic:{spec}\nminimal   true\n\n"
        "i  j  beta\n\nmarginals 0 0 0 0 0\n")


def test_cyclic_module_error_names_the_task_line(tmp_path, capsys):
    path = write_job(tmp_path, HYP.format(task="betti --module cyclic:q"))
    assert run_cli([path]) == 1
    assert "unknown name 'q' at line 5, column 1" in capsys.readouterr().err
    # relations the module itself rejects: not homogeneous, above the
    # internal bound, zero in the ring
    ring = "field Q\nbase x 1\nbase y 1\nrelation x^2\nbounds 3 3\n"
    for spec, message in [("x+x^2", "non-homogeneous polynomial"),
                          ("x,y^4", "internal degree 4 outside [0, 3]"),
                          ("x^3", "relation #0 is zero")]:
        path = write_job(tmp_path,
                         ring + f"task betti --module cyclic:{spec}\n")
        assert run_cli([path]) == 1, spec
        assert capsys.readouterr().err == f"error: {message} at line 6\n"


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


@pytest.mark.parametrize("field,relation", [
    ("Q", "2*x^2 - x^2 - x^2 + x^3"),
    ("Fp:2", "x^2 + x^2 + x^3"),
])
def test_relation_homogeneity_checked_after_cancellation(tmp_path, capsys,
                                                         field, relation):
    job = HYP.format(task="deviations").replace("field Q", f"field {field}")
    assert run_cli([write_job(tmp_path, job.replace("x^2", "x^3"))]) == 0
    expected = capsys.readouterr().out
    path = write_job(tmp_path, job.replace("x^2", relation))
    assert run_cli([path]) == 0
    assert capsys.readouterr().out == expected


def test_relation_of_internal_degree_one_positioned(tmp_path, capsys):
    job = HYP.format(task="deviations").replace("x^2", "x")
    assert run_cli([write_job(tmp_path, job)]) == 1
    assert capsys.readouterr().err == \
        "error: relation #0 has internal degree 1 < 2 at line 3\n"


def test_relation_cancelling_to_zero_positioned(tmp_path, capsys):
    job = HYP.format(task="deviations").replace("x^2", "x^2 + x - x^2 - x")
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 1
    err = capsys.readouterr().err
    assert "expression reduces to zero" in err
    assert "line 3" in err


def test_dg_variable_internal_degree_zero_positioned(tmp_path, capsys):
    job = HYP.format(task="deviations").replace(
        "bounds", "dgvar e 1 0 exterior 0\nbounds")
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 1
    err = capsys.readouterr().err
    assert "internal degree must be >= 1" in err
    assert "line 4" in err


@pytest.mark.parametrize("dgvar, message", [
    ("dgvar e 1 5 exterior x^5", "internal degree 5 outside [0, 3]"),
    ("dgvar e 5 1 exterior 0", "adjoined variable outside bounds"),
], ids=["boundary", "variable"])
def test_dg_variable_outside_the_bounds_positioned(tmp_path, capsys, dgvar,
                                                   message):
    job = f"field Q\nbase x 1\nbounds 3 3\n{dgvar}\ntask deviations\n"
    assert run_cli([write_job(tmp_path, job)]) == 1
    assert capsys.readouterr().err == f"error: {message} at line 4\n"


@pytest.mark.parametrize("spec", ["Fp:abc", "Fp:"])
def test_unknown_field_spec_positioned(tmp_path, capsys, spec):
    job = HYP.format(task="deviations").replace("field Q", f"field {spec}")
    assert run_cli([write_job(tmp_path, job)]) == 1
    assert capsys.readouterr().err == (
        f"error: unknown field spec {spec!r} (expected Q or Fp:<prime>) "
        "at line 1\n")


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


@pytest.mark.parametrize("relation, task, where", [
    ("x^\u00b2", "deviations", "line 3, column 3"),
    ("x^2 + \u0663*x^2", "deviations", "line 3, column 7"),
    ("x^2", "betti --module cyclic:x^\u00b2", "line 5, column 3"),
], ids=["superscript-two", "arabic-indic-three", "module"])
def test_a_digit_outside_ascii_is_an_unexpected_character(
        tmp_path, capsys, relation, task, where):
    # str.isdigit accepts '²' (which int() cannot read) and '٣' (which it
    # reads as 3): an expression reads ASCII digits and names only, so a
    # relation and a module's relation both exit 1 at the character
    job = HYP.format(task=task).replace("x^2", relation)
    assert run_cli([write_job(tmp_path, job)]) == 1
    char = "\u0663" if "\u0663" in relation else "\u00b2"
    assert capsys.readouterr().err == (
        f"error: unexpected character {char!r} at {where}\n")


def test_an_integer_int_cannot_read_is_positioned(tmp_path, capsys):
    # int() refuses more than sys.get_int_max_str_digits() digits
    job = HYP.format(task="deviations").replace("x^2", "1" * 5000 + "*x^2")
    assert run_cli([write_job(tmp_path, job)]) == 1
    assert capsys.readouterr().err == (
        "error: integer too long at line 3, column 1\n")


@pytest.mark.parametrize("name, directive", [
    ("1x", "base 1x 1"), ("x*", "base x* 1"), ("x^2", "base x^2 1"),
    ("\u00e9", "base \u00e9 1"), ("e\u00b2", "dgvar e\u00b2 1 1 exterior x"),
    # the relation would read 1x as the coefficient 1 and the name x
    ("1x", "base 1x 1\nrelation 1x^2"),
])
def test_a_name_no_expression_reads_is_refused_where_declared(
        tmp_path, capsys, name, directive):
    # a declared name is [A-Za-z_][A-Za-z0-9_]*, what the tokenizer reads
    # as one name: refused at its own line, whether an expression uses it
    # later or not
    job = HYP.format(task="deviations").replace(
        "bounds", directive + "\nbounds")
    assert run_cli([write_job(tmp_path, job)]) == 1
    assert capsys.readouterr().err == (
        f"error: name {name!r} is not [A-Za-z_][A-Za-z0-9_]* at line 4\n")


@pytest.mark.parametrize("directive", [
    "field Fp:101", "task classify", "bounds 4 4"])
def test_a_second_directive_of_one_kind_is_refused(tmp_path, capsys,
                                                   directive):
    # field, bounds and task are set once; a second one is an error at
    # its own line, not a silent override
    path = write_job(tmp_path, HYP.format(task="deviations")
                     + directive + "\n")
    assert run_cli([path]) == 1
    assert capsys.readouterr().err == (
        f"error: duplicate {directive.split()[0]} directive at line 6\n")


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


@pytest.mark.parametrize("N, verdict, cut", [
    (3, "inconclusive-at-bound", True),
    (4, "inconclusive-at-bound", True),
    (5, "pass", False)])
def test_fiber_boundedness_homology_at_the_bound(tmp_path, capsys, N,
                                                 verdict, cut):
    # the stage-0 fiber of Q[x,y,z]/(x^2,y^2,z^2) has homology up to the
    # codimension 3; below N = 5 the box holds no trailing window past it
    path = write_job(tmp_path, "field Q\nbase x 1\nbase y 1\nbase z 1\n"
                     "relation x^2\nrelation y^2\nrelation z^2\n"
                     f"bounds {N} 6\ntask verify --statement "
                     "fiber-boundedness\n")
    jpath = tmp_path / "out.json"
    assert run_cli([path, "--json", str(jpath)]) == 0
    report = json.loads(jpath.read_text())["report"]
    assert report["verdict"] == verdict
    stage0 = report["comparisons"][0]
    assert stage0["stage"] == 0
    assert stage0["top_nonzero_homology"] == min(3, N - 1)
    assert stage0.get("window_cut_at_N", False) == cut
    assert len(report["notes"]) == int(cut)


def test_certification_error_exit_code(tmp_path, capsys, monkeypatch):
    # a resolution that fails its minimality certificate is reported with
    # exit 3 and a message, not a traceback
    from dgkernel import module_resolution as mr

    monkeypatch.setattr(mr, "first_non_minimal", lambda generators: 0)
    job = HYP.format(task="verify --statement product-formula")
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 3
    err = capsys.readouterr().err
    assert "certification error: resolution not minimal" in err
    assert "Traceback" not in err


DG_BETTI = """\
field Q
base x 1
base y 1
relation x^2
dgvar e 1 1 exterior y
bounds 5 6
task betti
"""


def owners(res, i, j):
    """The generator of each position of slice (i, j) of a resolution,
    read off its layout: each generator is a block of the algebra's
    slice."""
    return [g for _, (_, _, g0, g1), labels in res._layout(i, j)[0]
            for g in range(g0, g1) for _ in labels]


def drop_the_sign_of_a_dg(monkeypatch):
    """Make SemifreeResolution.diff_matrix drop the sign (-1)^|a| of a*dg
    in d(a*g) = da*g + (-1)^|a| a*dg."""
    from dgkernel import exact_linear as la
    from dgkernel.module_resolution import SemifreeResolution

    signed = SemifreeResolution.diff_matrix

    def unsigned(self, i, j, first=0):
        M = signed(self, i, j, first)
        F = self.algebra.field
        rows = owners(self, i - 1, j)
        columns = []
        for g, col in zip(owners(self, i, j)[first:], M.columns):
            # entries of a*dg lie on generators other than g
            if (i - self.generators[g][0]) % 2:
                col = {r: v if rows[r] == g else F.neg(v)
                       for r, v in col.items()}
            columns.append(col)
        return la.ExactMatrix(F, M.rows, columns)

    monkeypatch.setattr(SemifreeResolution, "diff_matrix", unsigned)


def test_betti_certifies_its_resolution(tmp_path, capsys, monkeypatch):
    # Q[x,y]/(x^2)<e | de = y> is quasi-isomorphic to Q[x]/(x^2), so k has
    # one Betti number per degree; a resolution differential that drops
    # the sign (-1)^|a| of a*dg gives a larger table, and betti's cone
    # certificate stops it with exit 3 instead of printing that table
    path = write_job(tmp_path, DG_BETTI)
    assert run_cli([path]) == 0
    assert "marginals 1 1 1 1 1 1" in capsys.readouterr().out
    drop_the_sign_of_a_dg(monkeypatch)
    assert run_cli([path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certification error: d o d != 0 from bidegree "
                            "(3,2) to (1,2)\n")


def test_fp_deviations_certify_their_resolution(tmp_path, capsys,
                                                monkeypatch):
    # deviations over F_p are read off the Betti table of k, so the same
    # sign mutant makes them exit 3 through the resolution's certificate
    path = write_job(tmp_path, "field Fp:101\nbase x 1\nbase y 1\n"
                     "relation x^2\nrelation y^2\ndgvar e 1 1 exterior y\n"
                     "bounds 5 6\ntask deviations\n")
    assert run_cli([path]) == 0
    assert "marginals 0 1 2 0 0 0" in capsys.readouterr().out
    drop_the_sign_of_a_dg(monkeypatch)
    assert run_cli([path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certification error: d o d != 0 from bidegree "
                            "(3,2) to (1,2)\n")


CI_COVER = """\
field Q
base x 1
base y 1
relation x^2
relation y^2
bounds 5 6
task {task}
"""


def rotate_the_rows_of_a_model_differential(monkeypatch, which):
    """Make Model.diff_matrix move every entry out of a slice of
    homological degree >= 2 one row down, cyclically, on the models for
    which which(model) holds.  The kernels, so the adjoined cycles, are
    unchanged and the build completes, but d o d no longer vanishes."""
    from dgkernel import exact_linear as la
    from dgkernel.model_builder import Model

    exact = Model.diff_matrix

    def rotated(self, i, j, first=0):
        M = exact(self, i, j, first)
        if i < 2 or not which(self):
            return M
        return la.ExactMatrix(M.field, M.rows, [
            {(r + 1) % M.rows: v for r, v in col.items()}
            for col in M.columns])

    monkeypatch.setattr(Model, "diff_matrix", rotated)


@pytest.mark.parametrize("task", [
    "classify", *(f"verify --statement {s}" for s in (
        "quasi-fibers", "switching-compare", "vanishing-pattern",
        "uniqueness", "fiber-boundedness"))])
def test_reports_over_the_cover_certify_their_model(tmp_path, capsys,
                                                    monkeypatch, task):
    # Q[x,y]/(x^2,y^2) has eps_3 = 0, so classify reads the model over the
    # cover too; a mutant of its differential exits 3 on the certificate
    path = write_job(tmp_path, CI_COVER.format(task=task))
    assert run_cli([path]) == 0
    capsys.readouterr()
    rotate_the_rows_of_a_model_differential(
        monkeypatch, lambda model: model.switching_degree != 0)
    assert run_cli([path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certification error: d o d != 0")


def test_uniqueness_certifies_its_closures(tmp_path, capsys, monkeypatch):
    path = write_job(tmp_path, CI_COVER.format(
        task="verify --statement uniqueness"))
    rotate_the_rows_of_a_model_differential(
        monkeypatch, lambda model: model.switching_degree == 0)
    assert run_cli([path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certification error: d o d != 0")


@pytest.mark.parametrize("task", [
    "acyclic-closure", "minimal-model", "classify",
    "verify --statement uniqueness"])
def test_every_model_build_checks_its_minimality(tmp_path, capsys,
                                                 monkeypatch, task):
    # a model that reads non-minimal stops its build with exit 3, and no
    # report is printed; classify of Q[x,y]/(x^2,y^2) builds the model
    # over the cover, uniqueness two closures and two such models
    from dgkernel.dg_core import DgAlgebra

    path = write_job(tmp_path, CI_COVER.format(task=task))
    assert run_cli([path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(DgAlgebra, "is_minimal",
                        lambda self, over=0: (False, "w"))
    assert run_cli([path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "certification error: model not minimal at w\n"


@pytest.mark.parametrize("task", [
    "betti", "betti --module cyclic:x", "deviations"])
def test_every_resolution_build_checks_its_minimality(tmp_path, capsys,
                                                      monkeypatch, task):
    from dgkernel import module_resolution as mr

    path = write_job(tmp_path, CI_COVER.replace("field Q", "field Fp:101")
                     .format(task=task))
    assert run_cli([path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(mr, "first_non_minimal", lambda generators: 0)
    assert run_cli([path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certification error: resolution not minimal "
                            "at generator 0\n")


GOLOD = """\
field Q
base x 1
base y 1
relation x^2
relation x*y
bounds 5 6
task {task}
"""


def drop_the_last_pick_at_stage_3(monkeypatch):
    """Make la.pick_new_generators drop the last of its picks at stage 3
    of every build, so that stage leaves cone homology in degree 3."""
    from dgkernel import exact_linear as la
    from dgkernel import homology as hml

    stage = [None]
    kill_homology = hml.kill_homology
    pick = la.pick_new_generators

    def staged_kill(built, n, reverse=False):
        stage[0] = n
        return kill_homology(built, n, reverse=reverse)

    def short_pick(*args, **kwargs):
        picks = pick(*args, **kwargs)
        return picks[:-1] if stage[0] == 3 else picks

    monkeypatch.setattr(hml, "kill_homology", staged_kill)
    monkeypatch.setattr(la, "pick_new_generators", short_pick)


@pytest.mark.parametrize("task", ["acyclic-closure", "betti"])
def test_a_build_that_leaves_cone_homology_exits_3(tmp_path, capsys,
                                                   monkeypatch, task):
    # the check after stage 4 finds the homology stage 3 left: the build
    # raises, so no report is printed
    path = write_job(tmp_path, GOLOD.format(task=task))
    assert run_cli([path]) == 0
    capsys.readouterr()
    drop_the_last_pick_at_stage_3(monkeypatch)
    assert run_cli([path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certification error: cone of q not exact: "
                            "homology at (3, 3)\n")


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


@pytest.mark.parametrize("field, relation", [
    ("Q", "x^2 - y"), ("Fp:2", "x^2 + y")])
def test_deviations_compare_rejects_a_non_minimal_presentation(
        tmp_path, capsys, field, relation):
    # y = x^2 is not a minimal generator, so the Koszul complex on the
    # base generators is not K(m_{A0}, A): an admissibility error (exit 2)
    # like quasi-fibers and switching-compare, not a failed comparison
    path = write_job(tmp_path, f"field {field}\nbase x 1\nbase y 2\n"
                     f"relation {relation}\nrelation y^2\nbounds 6 8\n"
                     "task verify --statement deviations-compare\n")
    assert run_cli([path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("computation error: presentation is not "
                            "minimal: a relation has a linear term\n")


def test_a_job_with_more_variables_than_the_recursion_limit(tmp_path,
                                                           capsys):
    # the base's monomials are enumerated without recursion, so 1,200
    # variables, past Python's default recursion limit of 1,000, make a
    # job like any other
    lines = (["field Q"] + [f"base v{k} 1" for k in range(1200)]
             + ["bounds 1 1", "task betti"])
    path = write_job(tmp_path, "\n".join(lines) + "\n")
    assert run_cli([path]) == 0
    assert "marginals 1 1200" in capsys.readouterr().out


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


def test_word_size_prime_field_is_fast(tmp_path, capsys):
    # primality of 2^61 - 1 is proven by Miller-Rabin, not trial division
    job = HYP.format(task="deviations").replace(
        "field Q", f"field Fp:{2**61 - 1}")
    path = write_job(tmp_path, job)
    start = time.perf_counter()
    assert run_cli([path]) == 0
    assert time.perf_counter() - start < 1
    assert "marginals 0 1 1 0 0 0 0 0 0" in capsys.readouterr().out


@pytest.mark.parametrize("p, message", [
    (561, "561 is not prime"),
    (3215031751, "3215031751 is not prime"),
    (3317044064679887385961981, "is too large"),
    (2**89 - 1, "is too large"),
])
def test_field_line_refuses_non_primes_and_large_primes(tmp_path, capsys,
                                                        p, message):
    job = HYP.format(task="deviations").replace("field Q", f"field Fp:{p}")
    path = write_job(tmp_path, job)
    assert run_cli([path]) == 1
    err = capsys.readouterr().err
    assert message in err and "line 1" in err, err


GOLDEN_RINGS = {
    "golod-Q": "field Q\nbase x 1\nbase y 1\nrelation x^2\nrelation x*y\n"
               "bounds 5 6\n",
    "ci-F3": "field Fp:3\nbase x 1\nbase y 1\nrelation x^2\nrelation y^2\n"
             "bounds 5 6\n",
}

# sha256 (first 16 hex digits) of "<exit code>\n" + stdout + JSON report
# per task.  They guard the byte-identical report contract across
# rewrites of the kernel: refreeze them only for a deliberate change to
# a report.
GOLDEN_DIGESTS = {
    "golod-Q": [
        ("deviations", "7d3c8dcb7d6b5dc1"),
        ("acyclic-closure", "dabc11c2259bc997"),
        ("minimal-model --switch 2", "09118dbc402d5c62"),
        ("betti --module cyclic:x", "b62d820a3fd4b437"),
        ("poincare", "ac94e3824fe036ea"),
        ("classify", "a4d2b791af58d047"),
        ("verify --statement koszul-shift", "53c234e5e8472b6a"),
        ("verify --statement deviations-compare", "ec2882235f3c3966"),
        ("verify --statement quasi-fibers", "3bd4fde395ed25d0"),
        ("verify --statement product-formula", "5d6ede7ceb21ab4e"),
        ("verify --statement switching-compare", "1179da1805aba776"),
        ("verify --statement vanishing-pattern", "8b58d21dfeaefad0"),
        ("verify --statement halperin", "f1785b85c3c1d312"),
        ("verify --statement uniqueness", "5e852c578aaf2173"),
        ("verify --statement odd-to-even", "961072c56c39ede0"),
        ("verify --statement fiber-boundedness", "53c234e5e8472b6a"),
    ],
    "ci-F3": [
        ("deviations", "126500285399b572"),
        ("acyclic-closure", "5a7cb799ed08bbd8"),
        ("minimal-model --switch 2", "532867c6bda85084"),
        ("betti --module cyclic:x", "afa5fd7506cdab08"),
        ("poincare", "f02ec48714afdb5e"),
        ("classify", "cdde74242f00be6b"),
        ("verify --statement koszul-shift", "53c234e5e8472b6a"),
        ("verify --statement deviations-compare", "0dc825bc38305138"),
        ("verify --statement quasi-fibers", "4835e23efe2186bf"),
        ("verify --statement product-formula", "2a9bb9046afe8be5"),
        ("verify --statement switching-compare", "c641f8197617ad7a"),
        ("verify --statement vanishing-pattern", "c57947b22a3e58e4"),
        ("verify --statement halperin", "8348fef4727086b6"),
        ("verify --statement uniqueness", "6377ac617ad1ae53"),
        ("verify --statement odd-to-even", "68f6918b31afc17a"),
        ("verify --statement fiber-boundedness", "44c13ff88c079589"),
    ],
}


def check_frozen_digests(tmp_path, capsys, rings, digests):
    path = tmp_path / "job.txt"
    jpath = tmp_path / "out.json"
    for ring, tasks in digests.items():
        for task, digest in tasks:
            path.write_text(rings[ring] + f"task {task}\n")
            if jpath.exists():
                jpath.unlink()
            code = run_cli([str(path), "--json", str(jpath)])
            report = jpath.read_text() if jpath.exists() else ""
            text = f"{code}\n{capsys.readouterr().out}{report}"
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, \
                (ring, task)


def test_reports_match_frozen_digests(tmp_path, capsys):
    check_frozen_digests(tmp_path, capsys, GOLDEN_RINGS, GOLDEN_DIGESTS)


# Rings whose A0 has generators in more than one internal degree, and a
# base generator of homological degree 2: the generator degrees of A0 are
# {1, 2, 3} and {2, 3}.
MIXED_RINGS = {
    "mixed-Q": "field Q\nbase x 1\nbase y 2\nbase w 3\n"
               "relation x^2*y - w*x\nrelation y^3\nrelation x*w - y^2\n"
               "bounds 7 12\n",
    "hdeg-F3": "field Fp:3\nbase x 2\nbase u 2 hdeg 2\nbase y 3\n"
               "relation x^3\nrelation x*y\nrelation u^2\nbounds 7 12\n",
}

MIXED_DIGESTS = {
    "mixed-Q": [
        ("deviations", "4e802ccb4a1581d1"),
        ("betti", "86720aacf5f37ffb"),
        ("acyclic-closure", "d343302fcb8bfbb6"),
        ("minimal-model", "3a6aedaa0628e276"),
        ("betti --module cyclic:x", "d41d796ac4270fde"),
    ],
    "hdeg-F3": [
        ("deviations", "4b8765513d0ee24f"),
        ("betti", "203d3a3029c0fc8d"),
        ("acyclic-closure", "c06169ee2956f19c"),
        ("minimal-model", "7428e35515db1d7b"),
        ("betti --module cyclic:x", "4ce6f84f4af586e2"),
    ],
}


def test_mixed_degree_reports_match_frozen_digests(tmp_path, capsys):
    check_frozen_digests(tmp_path, capsys, MIXED_RINGS, MIXED_DIGESTS)


# verify uniqueness runs its forward and reversed constructions side by
# side, each on its own copy of the job's DgAlgebra; a dgvar gives that
# algebra a variable of its own.
UNIQUENESS_RINGS = dict(
    MIXED_RINGS,
    **{"dgvar-Q": "field Q\nbase x 1\nbase y 1\nrelation x^2\n"
                  "relation y^2\ndgvar e 1 1 exterior x\nbounds 6 8\n"})

UNIQUENESS_DIGESTS = {
    "mixed-Q": [("verify --statement uniqueness", "d6bc6ce29471cf1f")],
    "hdeg-F3": [("verify --statement uniqueness", "6f921bcbbaeff68b")],
    "dgvar-Q": [("verify --statement uniqueness", "31e346c81faa27f6")],
}


def test_uniqueness_reports_match_frozen_digests(tmp_path, capsys):
    check_frozen_digests(tmp_path, capsys, UNIQUENESS_RINGS,
                         UNIQUENESS_DIGESTS)


# Reports whose numbers come from homology dimensions outside the model
# and resolution drivers: the top nonzero homology of hdeg-F3 (classify,
# vanishing-pattern, fiber-boundedness), and the cone certificate over an
# algebra with a variable of its own.
HOMOLOGY_DIGESTS = {
    "hdeg-F3": [("classify", "7e2b3046a27211df"),
                ("verify --statement vanishing-pattern", "e63ae1075867d11d"),
                ("verify --statement fiber-boundedness", "66ca498d26d46e9c")],
    "dgvar-Q": [("acyclic-closure", "8d2c7ae189be18d9")],
}


def test_homology_reports_match_frozen_digests(tmp_path, capsys):
    check_frozen_digests(tmp_path, capsys, UNIQUENESS_RINGS,
                         HOMOLOGY_DIGESTS)


# The paper's dg example Q[x,y,z]/(x^2, y^2, xz, yz)<e | de = z>: the
# model, the resolution and the classification over an algebra whose
# adjoined variable kills a ring element.
DG_RINGS = {
    "paper-dg-Q": "field Q\nbase x 1\nbase y 1\nbase z 1\nrelation x^2\n"
                  "relation y^2\nrelation x*z\nrelation y*z\n"
                  "dgvar e 1 1 exterior z\nbounds 5 7\n",
}

DG_DIGESTS = {
    "paper-dg-Q": [("betti", "14f862fe8779e8ce"),
                   ("minimal-model", "0de2ca0b1f25e614"),
                   ("classify", "259ca74ea3eb8400")],
}


def test_dg_example_reports_match_frozen_digests(tmp_path, capsys):
    check_frozen_digests(tmp_path, capsys, DG_RINGS, DG_DIGESTS)


# Rings whose residue field k = A0/m has a presentation with fewer
# relations than base generators: one generator is killed by a relation,
# one lies above the internal bound, and one is a base generator of
# homological degree 2; and a presentation that is not minimal.
RESIDUE_RINGS = {
    "killed-Q": "field Q\nbase x 1\nbase y 2\nrelation y\nrelation x^3\n"
                "bounds 5 7\n",
    "above-bound-F2": "field Fp:2\nbase x 1\nbase y 1\nbase w 9\n"
                      "relation x^2\nrelation x*y\nbounds 5 7\n",
    "hdeg-2-F101": "field Fp:101\nbase x 1\nbase u 2 hdeg 2\nbase y 2\n"
                   "relation x^3\nrelation x*y\nrelation u^2\nbounds 5 7\n",
    "linear-Q": "field Q\nbase x 1\nbase y 2\nrelation y - x^2\n"
                "relation x^2*y\nbounds 5 7\n",
}

RESIDUE_DIGESTS = {
    "killed-Q": [("betti", "12f768e052152501"),
                 ("acyclic-closure", "10d849d4acfdf307"),
                 ("deviations", "5198227aa2e39aa4")],
    "above-bound-F2": [("betti", "73f04da5f0acb39f"),
                       ("acyclic-closure", "6598aaba11d936b2"),
                       ("deviations", "a27c447c32e86664")],
    "hdeg-2-F101": [("betti", "7e3842d3015f9a6a"),
                    ("acyclic-closure", "1ea339e12f9b372b"),
                    ("deviations", "5ceb795cfce0a6d9")],
    "linear-Q": [("betti", "b8be4a9b09f98f7b"),
                 ("acyclic-closure", "8901062eed8c77b3"),
                 ("deviations", "bfcd4a3380ba478d")],
}


def test_residue_field_reports_match_frozen_digests(tmp_path, capsys):
    check_frozen_digests(tmp_path, capsys, RESIDUE_RINGS, RESIDUE_DIGESTS)


def test_betti_over_a_module_the_differential_does_not_kill(tmp_path,
                                                            capsys):
    # k[x,y,z]/(x) is no dg-module over the paper's dg example: z = de
    # must act as zero on a module in one degree, and it does not, so
    # q: F -> M would be no chain map; the module is refused where the
    # task declares it
    path = write_job(tmp_path, DG_RINGS["paper-dg-Q"]
                     + "task betti --module cyclic:x\n")
    assert run_cli([path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a boundary of internal degree 1 acts "
                            "nonzero on the module at line 11\n")


def test_reports_do_not_depend_on_earlier_jobs(tmp_path, capsys):
    # nothing a job computes may outlive it and change a later report
    ring = MIXED_RINGS["mixed-Q"]
    reports = []
    for task in ("acyclic-closure", "verify --statement uniqueness",
                 "acyclic-closure"):
        path = write_job(tmp_path, ring + f"task {task}\n")
        jpath = tmp_path / "out.json"
        assert run_cli([path, "--json", str(jpath)]) == 0
        reports.append(jpath.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[2]
