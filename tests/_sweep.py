"""Byte-identity sweep of the command line (not collected by pytest).

    python tests/_sweep.py SRC

imports dgkernel from the directory SRC (e.g. `src` of a checkout), runs
every job of a fixed grid through `cli.main` in this process and prints
one line per job: the ring, the field, the bounds, the task, the exit
code and the first 16 hex digits of the sha256 of its exit code, stdout,
stderr and `--json` report.  Run it on two checkouts and diff the outputs to see
which reports a change moved:

    python tests/_sweep.py old/src > old.txt
    python tests/_sweep.py src > new.txt
    diff old.txt new.txt

The grid is 11 rings x {Q, F_2, F_101} x 18 task forms x the boxes
(4,5) and (5,7), 1,188 jobs, and the same rings and fields x the
`deviations`, `poincare` and `betti` forms in the box (6,8), 99 jobs:
1,287 jobs.

At the end it prints one line on stderr, which the diff leaves out: how
many Betti tables of k over Q the lifted route
(`invariants.lifted_betti_table`) certified, and how many it left to the
exact resolution over Q; and how many Q bases with a relation multiple
in some degree were lifted from their quotients mod the prime in every
degree, and how many were built by the exact quotient over Q in some
degree.  The module ring of each of the 22 `betti --module cyclic:x`
jobs over Q is such a base, so they are among them: the line reads

    lifted route: 251 certified, 0 fell back; Q bases: 451 lifted, 0 built exactly

Identical reports cannot tell the routes apart.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

RINGS = {
    "golod": "base x 1\nbase y 1\nrelation x^2\nrelation x*y\n",
    "ci": "base x 1\nbase y 1\nrelation x^2\nrelation y^2\n",
    "hypersurface": "base x 1\nrelation x^3\n",
    "mixed": "base x 1\nbase y 2\nbase w 3\nrelation x^2*y - w*x\n"
             "relation y^3\nrelation x*w - y^2\n",
    "hdeg-2": "base x 2\nbase u 2 hdeg 2\nbase y 3\nrelation x^3\n"
              "relation x*y\nrelation u^2\n",
    "non-minimal": "base x 1\nbase y 2\nrelation y - x^2\nrelation x^3\n",
    "vanishing": "base x 1\nbase y 2\nrelation y\nrelation x^2\n",
    "above-bound": "base x 1\nbase w 9\nrelation x^3\n",
    "paper-dg": "base x 1\nbase y 1\nbase z 1\nrelation x^2\nrelation y^2\n"
                "relation x*z\nrelation y*z\ndgvar e 1 1 exterior z\n",
    "dgvar": "base x 1\nbase y 1\nrelation x^2\nrelation y^2\n"
             "dgvar e 1 1 exterior y\n",
    # Q[x,y,z]/(x^2, y^2, xz, yz) after a linear change of coordinates:
    # normal forms with non-unit coefficients, adjoined boundaries with
    # numerators and denominators up to 56,699 at (6,8)
    "dense": "base x 1\nbase y 1\nbase z 1\n"
             "relation x^2 + 6*x*y + 9*y^2\n"
             "relation y^2 + 4*y*z + 4*z^2\n"
             "relation -5*x^2 - 15*x*y + x*z + 3*y*z\n"
             "relation -5*x*y - 10*x*z + y*z + 2*z^2\n",
}

FIELDS = ("Q", "Fp:2", "Fp:101")

TASKS = (
    "deviations", "acyclic-closure", "minimal-model",
    "minimal-model --switch 2", "betti", "betti --module cyclic:x",
    "poincare", "classify",
    *(f"verify --statement {s}" for s in (
        "koszul-shift", "deviations-compare", "quasi-fibers",
        "product-formula", "switching-compare", "vanishing-pattern",
        "halperin", "uniqueness", "odd-to-even", "fiber-boundedness")),
)

# box -> the task forms run in it
BOXES = {(4, 5): TASKS, (5, 7): TASKS,
         (6, 8): ("deviations", "poincare", "betti")}


def run_job(cli, workdir, text):
    """Exit code of one job and the sha256 digest of its exit code,
    stdout, stderr and JSON."""
    path = os.path.join(workdir, "job.txt")
    jpath = os.path.join(workdir, "out.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if os.path.exists(jpath):
        os.unlink(jpath)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([path, "--json", jpath])
        except Exception as e:  # a traceback is a result too
            code = f"raised {type(e).__name__}: {e}"
    report = ""
    if os.path.exists(jpath):
        with open(jpath, encoding="utf-8") as fh:
            report = fh.read()
    blob = f"{code}\n{out.getvalue()}\n{err.getvalue()}\n{report}"
    return code, hashlib.sha256(blob.encode()).hexdigest()[:16]


def count_lifted_route(inv):
    """Wrap inv.lifted_betti_table to count the Betti tables of k over Q
    that the lifted route certified (a return) and the ones it left to
    the exact resolution (a raise); returns the live counts."""
    counts = {"certified": 0, "fell back": 0}
    lifted = inv.lifted_betti_table

    def counted(*args, **kwargs):
        try:
            beta = lifted(*args, **kwargs)
        except Exception:
            counts["fell back"] += 1
            raise
        counts["certified"] += 1
        return beta
    inv.lifted_betti_table = counted
    return counts


def count_q_bases(gb):
    """Wrap gb._through_the_prime to count the Q bases with a relation
    multiple in some degree that were lifted in every degree, and the
    ones built exactly in some degree (or whose relations do not reduce
    mod the prime); returns the live counts."""
    counts = {"lifted": 0, "built exactly": 0}
    through = gb._through_the_prime

    def counted(P, D, mons, spans):
        out = through(P, D, mons, spans)
        if any(spans):
            _, reduction, exact = out
            lifted = reduction is not None and not exact
            counts["lifted" if lifted else "built exactly"] += 1
        return out
    gb._through_the_prime = counted
    return counts


def main(argv):
    if len(argv) != 2:
        print("usage: python tests/_sweep.py SRC", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.abspath(argv[1]))
    from dgkernel import cli
    from dgkernel import graded_base, invariants

    counts = count_lifted_route(invariants)
    bases = count_q_bases(graded_base)
    with tempfile.TemporaryDirectory() as workdir:
        for ring, body in RINGS.items():
            for field in FIELDS:
                for (N, D), tasks in BOXES.items():
                    for task in tasks:
                        text = (f"field {field}\n{body}bounds {N} {D}\n"
                                f"task {task}\n")
                        code, digest = run_job(cli, workdir, text)
                        print(f"{ring} {field} {N},{D} {task}: "
                              f"exit {code} {digest}", flush=True)
    print(f"lifted route: {counts['certified']} certified, "
          f"{counts['fell back']} fell back; Q bases: "
          f"{bases['lifted']} lifted, {bases['built exactly']} built exactly",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
