"""Command-line interface: line-oriented job files in, deterministic
aligned-text reports out (optionally mirrored to a JSON document).

Job file grammar (one directive per line; '#' starts a comment):

    field Q | Fp:<prime>
    base <name> <intdeg> [hdeg <even-hdeg>]
    relation <expr>
    dgvar <name> <hdeg> <intdeg> <kind> <boundary-expr | 0>
    bounds <max_hdeg> <max_intdeg>
    task <command> [--option value ...]

Expressions use integer coefficients (ASCII digits), `^` powers, `*`
products and `+`/`-` sums of monomials in previously declared names,
each of them [A-Za-z_][A-Za-z0-9_]*.  Commands:
deviations | acyclic-closure | minimal-model [--switch s] |
betti [--module residue-field|cyclic:<expr>[,<expr>...]] |
poincare [--order n] | classify | verify --statement <id>.

Exit codes: 0 success, 1 usage/parse error, 2 computation error,
3 verification or certification failure.
"""

import argparse
import io
import json
import re
import sys

from . import invariants as inv
from . import model_builder as mb
from .dg_core import DgAlgebra, EXTERIOR, POLYNOMIAL, DIVIDED_POWER
from .exact_linear import axpy
from .errors import (AdmissibilityError, BoundExceededError,
                     CertificationError, HomogeneityError, NotCycleError,
                     ParityError)
from .fields import parse_field
from .graded_base import BasePresentation, BaseVariable, TruncatedBase
from .module_resolution import cyclic_module

# command -> the task options it takes
COMMANDS = {"deviations": (), "acyclic-closure": (),
            "minimal-model": ("switch",), "betti": ("module",),
            "poincare": ("order",), "classify": (), "verify": ("statement",)}
KINDS = {"polynomial": POLYNOMIAL, "exterior": EXTERIOR,
         "dividedPower": DIVIDED_POWER}
# expression tokens, ASCII only: str.isdigit accepts '²', int() does not
INT = re.compile(r"[0-9]+")
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class JobError(Exception):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}"
                                          if col is not None else "")
        super().__init__(message + where)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------

def _tokenize(text, line):
    """Yield (kind, value, column); kinds: int, name, op."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if m := INT.match(text, i):
            try:
                toks.append(("int", int(m.group()), col))
            except ValueError:  # over sys.get_int_max_str_digits()
                raise JobError("integer too long", line, col)
            i = m.end()
        elif m := NAME.match(text, i):
            toks.append(("name", m.group(), col))
            i = m.end()
        elif ch in "+-*^":
            toks.append(("op", ch, col))
            i += 1
        else:
            raise JobError(f"unexpected character {ch!r}", line, col)
    return toks


def parse_expression(text, line, names):
    """Parse a sum of monomials over the given ordered names into a list
    of (coefficient, exponent_tuple)."""
    toks = _tokenize(text, line)
    if not toks:
        raise JobError("empty expression", line, 1)
    index = {n: k for k, n in enumerate(names)}
    terms = []
    p = 0

    def expect_factor():
        nonlocal p
        if p >= len(toks):
            raise JobError("expression ends unexpectedly", line,
                           toks[-1][2] + 1)
        kind, val, col = toks[p]
        if kind == "int":
            p += 1
            return val, None
        if kind == "name":
            if val not in index:
                raise JobError(f"unknown name {val!r}", line, col)
            p += 1
            exp = 1
            if p < len(toks) and toks[p][:2] == ("op", "^"):
                p += 1
                if p >= len(toks) or toks[p][0] != "int":
                    raise JobError("exponent must be an integer", line, col)
                exp = toks[p][1]
                p += 1
                if exp < 1:
                    raise JobError("exponent must be >= 1", line, col)
            return None, (index[val], exp)
        raise JobError(f"expected a factor, got {val!r}", line, col)

    sign = 1
    if toks[0][:2] == ("op", "-"):
        sign = -1
        p = 1
    elif toks[0][:2] == ("op", "+"):
        p = 1
    while True:
        coeff = sign
        exps = [0] * len(names)
        while True:
            c, power = expect_factor()
            if c is not None:
                coeff *= c
            else:
                vid, e = power
                exps[vid] += e
            if p < len(toks) and toks[p][:2] == ("op", "*"):
                p += 1
                continue
            break
        terms.append((coeff, tuple(exps)))
        if p >= len(toks):
            return terms
        kind, val, col = toks[p]
        if (kind, val) == ("op", "+"):
            sign = 1
        elif (kind, val) == ("op", "-"):
            sign = -1
        else:
            raise JobError(f"expected '+' or '-', got {val!r}", line, col)
        p += 1


def _terms_to_poly(terms, field, line):
    poly = {}
    for coeff, exps in terms:
        axpy(field, poly, field.from_int(coeff), {exps: field.one})
    if not poly:
        raise JobError("expression reduces to zero", line)
    return poly


# ---------------------------------------------------------------------------
# Job files
# ---------------------------------------------------------------------------

class JobFile:
    def __init__(self):
        self.field = None
        self.base_vars = []     # (name, intdeg, hdeg, line)
        self.relations = []     # (expr_text, line)
        self.dgvars = []        # (name, hdeg, intdeg, kind, boundary, line)
        self.bounds = None      # (max_hdeg, max_intdeg, line)
        self.task = None        # (command, params, line)


def parse_job(path):
    job = JobFile()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise JobError(f"cannot read job file: {e}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise JobError(f"job file is not UTF-8: byte {data[e.start]:#04x} "
                       "does not decode", data.count(b"\n", 0, e.start) + 1)
    # universal newlines, as a file opened in text mode reads them
    lines = io.StringIO(text, newline=None).readlines()
    for n, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        key = parts[0]
        if (key in ("base", "dgvar") and len(parts) > 1
                and not NAME.fullmatch(parts[1])):
            # a name that no expression could read
            raise JobError(f"name {parts[1]!r} is not {NAME.pattern}", n)
        if key == "field":
            if len(parts) != 2:
                raise JobError("field takes one value (Q or Fp:<prime>)", n)
            if job.field is not None:
                raise JobError("duplicate field directive", n)
            job.field = (parts[1], n)
        elif key == "base":
            if len(parts) not in (3, 5) or (len(parts) == 5
                                            and parts[3] != "hdeg"):
                raise JobError(
                    "usage: base <name> <intdeg> [hdeg <even-hdeg>]", n)
            try:
                intdeg = int(parts[2])
                hdeg = int(parts[4]) if len(parts) == 5 else 0
            except ValueError:
                raise JobError("degrees must be integers", n)
            job.base_vars.append((parts[1], intdeg, hdeg, n))
        elif key == "relation":
            expr = text[len("relation"):].strip()
            if not expr:
                raise JobError("relation needs an expression", n)
            job.relations.append((expr, n))
        elif key == "dgvar":
            if len(parts) < 5:
                raise JobError(
                    "usage: dgvar <name> <hdeg> <intdeg> <kind> "
                    "<boundary-expr | 0>", n)
            try:
                hdeg, intdeg = int(parts[2]), int(parts[3])
            except ValueError:
                raise JobError("degrees must be integers", n)
            kind = parts[4]
            if kind not in KINDS:
                raise JobError(
                    f"unknown kind {kind!r} (polynomial, exterior, "
                    "dividedPower)", n)
            boundary = " ".join(parts[5:]).strip()
            if not boundary:
                raise JobError("dgvar needs a boundary expression "
                               "(use 0 for a cycle)", n)
            job.dgvars.append((parts[1], hdeg, intdeg, kind, boundary, n))
        elif key == "bounds":
            if job.bounds is not None:
                raise JobError("duplicate bounds directive", n)
            if len(parts) != 3:
                raise JobError("usage: bounds <max_hdeg> <max_intdeg>", n)
            try:
                job.bounds = (int(parts[1]), int(parts[2]), n)
            except ValueError:
                raise JobError("bounds must be integers", n)
        elif key == "task":
            if job.task is not None:
                raise JobError("duplicate task directive", n)
            if len(parts) < 2:
                raise JobError("task needs a command", n)
            command = parts[1]
            if command not in COMMANDS:
                raise JobError(f"unknown command {command!r}", n)
            params = {}
            rest = parts[2:]
            k = 0
            while k < len(rest):
                if not rest[k].startswith("--") or k + 1 >= len(rest):
                    raise JobError("task options are --name value pairs", n)
                name = rest[k][2:]
                if name not in COMMANDS[command]:
                    raise JobError(f"{command} takes no option {rest[k]!r}",
                                   n)
                if name in params:
                    raise JobError(f"repeated option {rest[k]!r}", n)
                params[name] = rest[k + 1]
                k += 2
            job.task = (command, params, n)
        else:
            raise JobError(f"unknown directive {key!r}", n, 1)
    if job.field is None:
        raise JobError("missing field directive")
    if job.bounds is None:
        raise JobError("missing bounds directive (bounds are mandatory)")
    if job.task is None:
        raise JobError("missing task directive")
    _validate_job(job)
    return job


def _validate_job(job):
    spec, line = job.field
    try:
        field = parse_field(spec)
    except ValueError as e:
        raise JobError(str(e), line)
    job.parsed_field = field
    names = []
    for name, intdeg, hdeg, n in job.base_vars:
        if name in names:
            raise JobError(f"duplicate name {name!r}", n)
        if intdeg < 1:
            raise JobError("internal degree must be >= 1", n)
        if hdeg < 0 or hdeg % 2 != 0:
            raise JobError("base homological degree must be even "
                           "and >= 0", n)
        names.append(name)
    # relations: parse now against base names; homogeneity checked here
    # so errors carry positions
    degs = {name: (intdeg, hdeg)
            for name, intdeg, hdeg, _ in job.base_vars}
    job.parsed_relations = []
    for rel_no, (expr, n) in enumerate(job.relations):
        poly = _terms_to_poly(parse_expression(expr, n, names), field, n)
        idegs = set()
        hdegs = set()
        for exps in poly:
            idegs.add(sum(e * degs[names[k]][0] for k, e in enumerate(exps)))
            hdegs.add(sum(e * degs[names[k]][1] for k, e in enumerate(exps)))
        if len(idegs) != 1 or len(hdegs) != 1:
            raise JobError(f"non-homogeneous relation {expr!r}", n)
        (d,) = idegs
        if d < 2:
            raise JobError(f"relation #{rel_no} has internal degree {d} < 2",
                           n)
        job.parsed_relations.append(poly)
    for name, hdeg, intdeg, kind, _, n in job.dgvars:
        if name in names:
            raise JobError(f"duplicate name {name!r}", n)
        names.append(name)
        if hdeg < 1:
            raise JobError("dg variable homological degree must be >= 1", n)
        if intdeg < 1:
            raise JobError("internal degree must be >= 1", n)
        odd = hdeg % 2 == 1
        if kind == "exterior" and not odd:
            raise JobError("exterior kind requires odd homological degree "
                           "(parity mismatch)", n)
        if kind in ("polynomial", "dividedPower") and odd:
            raise JobError(f"{kind} kind requires even homological degree "
                           "(parity mismatch)", n)
    N, D, n = job.bounds
    if N < 1 or D < 1:
        raise JobError("bounds must be >= 1", n)


def build_algebra(job):
    """Materialize the truncated base and adjoin the declared variables."""
    field = job.parsed_field
    N, D, _ = job.bounds
    base_vars = [BaseVariable(name, intdeg, hdeg)
                 for name, intdeg, hdeg, _ in job.base_vars]
    try:
        pres = BasePresentation(field, base_vars, job.parsed_relations)
        tbase = TruncatedBase(pres, D)
    except (ValueError, HomogeneityError) as e:
        raise JobError(str(e))
    A = DgAlgebra(tbase, max_hdeg=N, max_intdeg=D)
    base_names = [v.name for v in base_vars]
    for name, hdeg, intdeg, kind, boundary, n in job.dgvars:
        try:
            z = _evaluate_in_algebra(A, boundary, n, base_names,
                                     hdeg - 1, intdeg)
            var = A.adjoin_variable(z, KINDS[kind], name=name)
        except (BoundExceededError, ParityError, NotCycleError,
                ValueError) as e:
            raise JobError(str(e), n)
        if var.hdeg != hdeg:
            raise JobError(
                f"boundary has homological degree {z.hdeg}, so the "
                f"variable gets degree {z.hdeg + 1}, not {hdeg}", n)
    return A


def _evaluate_in_algebra(A, expr, line, base_names, hdeg, intdeg):
    """Evaluate an expression in base generators and already-adjoined
    variables as a DgElement of the stated bidegree."""
    if expr.strip() == "0":
        return A.zero(hdeg, intdeg)
    var_names = [v.name for v in A.variables]
    names = base_names + var_names
    terms = parse_expression(expr, line, names)
    nb = len(base_names)
    total = A.zero(hdeg, intdeg)
    p = A.base.presentation
    for coeff, exps in terms:
        factor = A.one()
        base_exps = exps[:nb]
        if any(base_exps):
            j = p.mono_intdeg(base_exps)
            nf = A.base.normal_form(j, tuple(base_exps))
            factor = A.multiply(factor, A.base_element(j, nf))
        for k, e in enumerate(exps[nb:]):
            for _ in range(e):
                factor = A.multiply(factor, A.var_element(k))
        if factor.is_zero():
            continue
        if (factor.hdeg, factor.intdeg) != (hdeg, intdeg):
            raise JobError(
                f"term has bidegree ({factor.hdeg},{factor.intdeg}), "
                f"expected ({hdeg},{intdeg})", line)
        total = A.add(total, A.scale(A.field.from_int(coeff), factor))
    return total


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _fmt_table(rows, headers):
    """Right-aligned columns."""
    table = [headers] + [[str(x) for x in r] for r in rows]
    widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
    out = []
    for r in table:
        out.append("  ".join(x.rjust(w) for x, w in zip(r, widths)))
    return out


def _bigraded_rows(table):
    return [[h, d, c] for (h, d), c in sorted(table.items())]


class Report:
    def __init__(self, data, text_lines, failed_verification=False):
        self.data = data
        self.text_lines = text_lines
        self.failed_verification = failed_verification

    def text(self):
        return "\n".join(self.text_lines) + "\n"

    def json(self):
        return json.dumps(self.data, sort_keys=True, indent=2,
                          default=_json_default) + "\n"


def _json_default(obj):
    return str(obj)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def run(job):
    command, params, _ = job.task
    A = build_algebra(job)
    N, D, _ = job.bounds
    handler = {
        "deviations": _run_deviations,
        "acyclic-closure": _run_closure,
        "minimal-model": _run_model,
        "betti": _run_betti,
        "poincare": _run_poincare,
        "classify": _run_classify,
        "verify": _run_verify,
    }[command]
    report = handler(job, A, N, D, params)
    # every report opens with the task, the field and the bounds
    data = {"task": command, "field": job.field[0],
            "bounds": {"max_hdeg": N, "max_intdeg": D}, **report.data}
    lines = [f"task      {command}",
             f"field     {job.field[0]}",
             f"bounds    max_hdeg={N} max_intdeg={D}"] + report.text_lines
    return Report(data, lines, report.failed_verification)


def _run_deviations(job, A, N, D, params):
    dev = inv.deviations(A, N, D)
    data = {"complete_through_hdeg": N, "eps": dev.as_dict()}
    lines = [f"complete  through homological degree {N}", ""]
    lines += _fmt_table(_bigraded_rows(dev.table), ["i", "j", "eps"])
    lines.append("")
    lines.append("marginals " + " ".join(str(x) for x in dev.marginals()))
    return Report(data, lines)


def _model_report(model, N, D):
    # the build certified the model minimal and q a quasi-isomorphism in
    # the box, or raised
    rows = [[v.name, v.hdeg, v.intdeg, v.kind, v.family]
            for v in model.adjoined_variables()]
    data = {"variables": [{"name": r[0], "hdeg": r[1], "intdeg": r[2],
                           "kind": r[3], "family": r[4]} for r in rows],
            "n": inv.CountTable(model.n_table, N, D, "n").as_dict(),
            "eps": inv.CountTable(model.eps_table, N, D, "eps").as_dict(),
            "minimal": True,
            "quasi_isomorphism_certified": True}
    lines = ["minimal   true", "certified true", ""]
    lines += _fmt_table(rows, ["name", "hdeg", "intdeg", "kind", "family"])
    return Report(data, lines)


def _run_closure(job, A, N, D, params):
    model = mb.acyclic_closure(A, N, D)
    return _model_report(model, N, D)


def _run_model(job, A, N, D, params):
    s = params.get("switch", "inf")
    if s == "inf":
        switch = mb.INFINITY
    else:
        try:
            switch = int(s)
        except ValueError:
            switch = -1
        if switch < 0:
            raise JobError("--switch takes a nonnegative integer or 'inf'",
                           job.task[2])
    return _model_report(mb.residue_field_model(A, N, D, switch), N, D)


def _parse_module(A, spec_text, job):
    line = job.task[2]
    if spec_text.startswith("cyclic:"):
        base_names = [v.name for v in A.base.presentation.variables]
        rels = []
        for expr in spec_text[len("cyclic:"):].split(","):
            terms = parse_expression(expr, line, base_names)
            rels.append(_terms_to_poly(terms, A.field, line))
        try:
            return cyclic_module(A, rels)
        except (BoundExceededError, ValueError) as e:
            raise JobError(str(e), line)
    raise JobError("--module takes residue-field or cyclic:<expr>[,...]",
                   line)


def _run_betti(job, A, N, D, params):
    module = params.get("module", "residue-field")
    # the resolution is certified minimal by its build, or raised
    if module == "residue-field":
        table = inv.betti_of_k(A, N, D)
    else:
        table, _ = inv.betti_numbers(A, N, D, _parse_module(A, module, job))
    data = {"module": module, "minimal": True, "beta": table.as_dict()}
    lines = [f"module    {module}", "minimal   true", ""]
    lines += _fmt_table(_bigraded_rows(table.table), ["i", "j", "beta"])
    lines.append("")
    lines.append("marginals " + " ".join(str(x) for x in table.marginals()))
    return Report(data, lines)


def _run_poincare(job, A, N, D, params):
    try:
        order = int(params.get("order", N))
    except ValueError:
        order = -1
    if order < 0:
        raise JobError("--order takes a nonnegative integer", job.task[2])
    dev = inv.deviations(A, N, D)
    series = inv.poincare_from_deviations(dev, order)
    lines = [f"order     {order}",
             f"complete  {str(series.complete).lower()}"
             + ("" if series.complete else
                f" (deviations certified only through {N})"),
             "",
             "coefficients " + " ".join(str(c) for c in series.coefficients)]
    return Report({"series": series.as_dict()}, lines)


def _run_classify(job, A, N, D, params):
    verdict = inv.classify_growth(A, N, D)
    lines = [f"verdict   {verdict.verdict}"]
    for key in sorted(verdict.detail):
        lines.append(f"{key}: {verdict.detail[key]}")
    return Report({"result": verdict.as_dict()}, lines)


def _run_verify(job, A, N, D, params):
    statement = params.get("statement")
    if not statement:
        raise JobError("verify requires --statement <id>", job.task[2])
    if statement not in inv.STATEMENTS:
        raise JobError(f"unknown statement {statement!r}; choose from "
                       + ", ".join(sorted(inv.STATEMENTS)), job.task[2])
    report = inv.verify(statement, A, N, D)
    lines = [f"statement {statement}", f"verdict   {report.verdict}"]
    for note in report.notes:
        lines.append(f"note      {note}")
    lines.append("")
    for c in report.comparisons:
        lines.append("  " + " ".join(f"{k}={v}" for k, v in c.items()))
    return Report({"report": report.as_dict()}, lines,
                  failed_verification=(report.verdict == "fail"))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dgkernel",
        description="exact kernel for dg-algebra models, deviations, "
                    "Betti numbers, and verification of their relations")
    parser.add_argument("jobfile", help="path to a job file")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the report as JSON to PATH")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error, which
        # would read as a computation error here
        return 1 if e.code else 0
    try:
        job = parse_job(args.jobfile)
    except JobError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        report = run(job)
    except JobError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (AdmissibilityError, BoundExceededError, HomogeneityError,
            NotCycleError, ParityError, ValueError) as e:
        print(f"computation error: {e}", file=sys.stderr)
        return 2
    except CertificationError as e:
        print(f"certification error: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(report.text())
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.json())
        except OSError as e:
            print(f"error: cannot write --json report: {e}", file=sys.stderr)
            return 1
    return 3 if report.failed_verification else 0


if __name__ == "__main__":
    sys.exit(main())
