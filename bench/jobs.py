"""Seeded job files for the benchmark workloads.

A workload is one ring, task and bound box.  The seed fixes the sequence
of job files a run sends: job k declares the base variables in the k-th
order of a seeded rotation through every order and, for
``deviations-dense``, applies its own drawn linear change of coordinates
to the relations.  Neither changes the ring up to isomorphism, so the
reference tables in ``reference.py`` hold for every job.

Every run visits all variable orders because the order moves the work of
a job: ``closure-sparse`` and ``deviations-dense`` jobs eliminate up to
17% and 12% more nonzeros in some orders than in others, so a run of one
order would measure the seed's pick as much as the program.
"""

import random
from itertools import permutations

NAMES = ("x", "y", "z")
# Q[x,y,z]/(x^2, y^2, xz, yz): each relation is a product of two variables,
# given as a pair of indices into NAMES.
THREE_VAR_RELATIONS = ((0, 0), (1, 1), (0, 2), (1, 2))
# F_101[x,y]/(x^2, xy)
GOLOD_RELATIONS = ((0, 0), (0, 1))
# Entries of the drawn change of coordinates (off the unit diagonal).
COEFF_RANGE = (-5, 5)

WORKLOADS = {
    "closure-sparse": dict(field="Q", nvars=3, relations=THREE_VAR_RELATIONS,
                           bounds=(8, 10), task="acyclic-closure",
                           dense=False),
    "deviations-dense": dict(field="Q", nvars=3,
                             relations=THREE_VAR_RELATIONS, bounds=(6, 8),
                             task="deviations", dense=True),
    "resolve-golod": dict(field="Fp:101", nvars=2, relations=GOLOD_RELATIONS,
                          bounds=(13, 20), task="betti", dense=False),
}


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c]
               * _det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)))


def draw_coordinates(rng, n):
    """An invertible n x n integer matrix: the unit diagonal plus entry
    (k, k+1 mod n) of each row k drawn from COEFF_RANGE without 0.  Row k
    gives the new value of variable k as a linear form, so each variable
    is sent to itself plus a multiple of the next one, and every draw has
    the same pattern of nonzero coefficients.  Singular draws are
    rejected and drawn again."""
    lo, hi = COEFF_RANGE
    while True:
        m = [[int(r == c) for c in range(n)] for r in range(n)]
        for r in range(n):
            m[r][(r + 1) % n] = rng.choice([v for v in range(lo, hi + 1)
                                            if v])
        if _det(m) != 0:
            return m


def _product(form_a, form_b, n):
    """Product of two linear forms as {exponent tuple: coefficient}."""
    poly = {}
    for a, ca in enumerate(form_a):
        for b, cb in enumerate(form_b):
            if ca and cb:
                exps = [0] * n
                exps[a] += 1
                exps[b] += 1
                key = tuple(exps)
                poly[key] = poly.get(key, 0) + ca * cb
    return {k: c for k, c in poly.items() if c}


def _format(poly, names):
    text = ""
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, exps) if e]
        term = "*".join(([str(abs(c))] if abs(c) != 1 else []) + factors)
        if not text:
            text = ("-" if c < 0 else "") + term
        else:
            text += (" - " if c < 0 else " + ") + term
    return text


def make_job(workload, seed, k=0):
    """Return (job file text, draw) for job k of a run with this seed.
    draw records the variable order and the change of coordinates (None
    when the workload uses none)."""
    spec = WORKLOADS[workload]
    n = spec["nvars"]
    names = NAMES[:n]
    orders = list(permutations(range(n)))
    random.Random(f"{workload}:{seed}").shuffle(orders)
    order = orders[k % len(orders)]
    rng = random.Random(f"{workload}:{seed}:{k}")
    coords = draw_coordinates(rng, n) if spec["dense"] else None
    forms = coords or [[int(r == c) for c in range(n)] for r in range(n)]
    lines = [f"# {workload}, seed {seed}, job {k}", f"field {spec['field']}"]
    lines += [f"base {names[v]} 1" for v in order]
    for a, b in spec["relations"]:
        lines.append("relation " + _format(_product(forms[a], forms[b], n),
                                           names))
    lines.append("bounds %d %d" % spec["bounds"])
    lines.append(f"task {spec['task']}")
    draw = {"variable_order": [names[v] for v in order],
            "coordinates": coords}
    return "\n".join(lines) + "\n", draw
