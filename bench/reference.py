"""Frozen reference tables for the benchmark workloads, and the check of
one job's JSON report against them.

Provenance.  The tables were computed with the brute-force resolution
oracle in ``tests/_oracle.py``, which uses degreewise linear algebra over
the truncated base and none of the dg machinery:

* Q[x,y,z]/(x^2, y^2, xz, yz), bounds (8, 10): ``betti_of_k`` gives the
  Betti numbers 1, 3, 7, 16, 36, 81, 182, 409, 919, all on the diagonal
  j = i, and ``deviations_from_betti`` turns them into the deviations
  3, 4, 3, 5, 11, 22, 41, 78.  The ring is Koszul, so the deviations sit
  on the diagonal as well.
* ``deviations-dense`` is the same ring after an invertible linear change
  of coordinates.  Deviations are invariants of the ring, so its table is
  the one above cut to bounds (6, 8).
* F_101[x,y]/(x^2, xy), bounds (13, 20): ``betti_of_k`` gives
  beta_{i,i} = F_{i+2} (Fibonacci) = 1, 2, 3, 5, ..., 610 and no other
  nonzero entry.

None of these depends on the seed, which only reorders the variables and
draws the change of coordinates.
"""

CLOSURE_EPS = (3, 4, 3, 5, 11, 22, 41, 78)        # eps_{i,i}, i = 1..8


def _diagonal(values, first):
    return {f"{first + k},{first + k}": v for k, v in enumerate(values)}


def _fibonacci(n):
    out, a, b = [], 1, 2
    for _ in range(n):
        out.append(a)
        a, b = b, a + b
    return out


EXPECTED = {
    "closure-sparse": {"task": "acyclic-closure", "table": "eps",
                       "bigraded": _diagonal(CLOSURE_EPS, 1),
                       "flags": ("minimal", "quasi_isomorphism_certified")},
    "deviations-dense": {"task": "deviations", "table": "eps",
                         "bigraded": _diagonal(CLOSURE_EPS[:6], 1),
                         "flags": ()},
    # The betti report's "minimal" field is not checked: it holds the
    # (bool, witness) pair of SemifreeResolution.is_minimal, not a bool.
    "resolve-golod": {"task": "betti", "table": "beta",
                      "bigraded": _diagonal(_fibonacci(14), 0),
                      "flags": ()},
}


def check(workload, report):
    """Return None if the report of one job matches the reference, else a
    one-line reason."""
    exp = EXPECTED[workload]
    if report.get("task") != exp["task"]:
        return f"task is {report.get('task')!r}, expected {exp['task']!r}"
    got = report.get(exp["table"], {}).get("bigraded")
    if got != exp["bigraded"]:
        diff = sorted(k for k in set(got or {}) | set(exp["bigraded"])
                      if (got or {}).get(k) != exp["bigraded"].get(k))
        return f"{exp['table']} table differs at {', '.join(diff[:5])}"
    for flag in exp["flags"]:
        if report.get(flag) is not True:
            return f"{flag} is {report.get(flag)!r}, expected true"
    return None
