"""Run one job file through the dgkernel CLI in this process.

    python3 bench/job_proc.py ROOT JOB_ID JOB REPORT RESULT [TRACE]
    python3 bench/job_proc.py ROOT --setup RESULT

Imports dgkernel from ROOT/src, calls ``cli.main([JOB, "--json", REPORT])``
and writes RESULT, a JSON object with the ``time.perf_counter`` readings
once dgkernel is imported and on entering and leaving ``cli.main``, the
exit code, the peak resident set size, the path dgkernel was imported
from and the readings of the speed probe.  With TRACE, the layers are
wrapped by ``tracer.Tracer`` before ``cli.main`` is entered and the spans
are written to TRACE, tagged with JOB_ID, after it returns.  With
``--setup``, only dgkernel is imported, and RESULT holds the reading once
it is imported and SETUP_READINGS readings of the speed probe.

Only ``sys`` and ``time`` are imported before dgkernel, so the time from
spawning this process to the first reading is interpreter start plus
``import dgkernel``.
"""

import sys
import time

# Wall seconds between two readings of the speed probe.
PROBE_PERIOD_S = 0.1
# Readings of the speed probe taken by a set-up-only process.
SETUP_READINGS = 5


def reference_pass():
    """A fixed pure-Python loop of the kinds of work the program does:
    a product of sparse polynomials over Q held in dicts keyed by exponent
    tuples, and row reduction of a dense matrix modulo 101.  About 2 ms."""
    from fractions import Fraction
    poly = {(a, b, c): Fraction(a - b + 1, c + 2)
            for a in range(3) for b in range(3) for c in range(2)}
    prod = {}
    for ea, ca in poly.items():
        for eb, cb in poly.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            prod[key] = prod.get(key, 0) + ca * cb
    p, n = 101, 12
    rows = [[(r * r + 3 * c + 1) % p for c in range(n)] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], p - 2, p)
        prow = [v * inv % p for v in rows[col]]
        rows[col] = prow
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], prow)]


class SpeedProbe:
    """Times ``reference_pass`` once on entry, every PROBE_PERIOD_S of wall
    time from a SIGALRM handler while the block runs, and once on exit.
    The pass never changes, so its times say how fast the core running
    this process was, all through the block.  ``probe_s`` is the time
    spent in the handler; ``clock()`` is ``time.perf_counter`` less it."""

    def __init__(self):
        self.readings = []
        self.probe_s = 0.0

    def read(self):
        start = time.perf_counter()
        reference_pass()
        taken = time.perf_counter() - start
        self.readings.append(taken)
        return taken

    def _on_alarm(self, signum, frame):
        self.probe_s += self.read()

    def clock(self):
        return time.perf_counter() - self.probe_s

    def __enter__(self):
        import signal
        self.read()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        import signal
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.read()


def main(argv):
    root = argv[0]
    sys.path.insert(0, root + "/src")
    import dgkernel
    from dgkernel import cli
    imported = time.perf_counter()
    probe = SpeedProbe()
    import json
    if argv[1] == "--setup":
        for _ in range(SETUP_READINGS):
            probe.read()
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump({"imported": imported, "reference_s": probe.readings,
                       "dgkernel": dgkernel.__file__}, fh)
        return 0
    job_id, job, report, result = argv[1:5]
    trace_path = argv[5] if len(argv) > 5 else None
    tracer = None
    if trace_path:
        from tracer import Tracer   # beside this script, on sys.path
        tracer = Tracer(job_id, clock=probe.clock)
        tracer.install()
    with probe:
        enter = probe.clock()
        rc = cli.main([job, "--json", report])
        leave = probe.clock()

    import resource
    if tracer is not None:
        tracer.dump(trace_path)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"imported": imported, "job_s": leave - enter, "rc": rc,
                   "reference_s": probe.readings,
                   "maxrss_kb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss,
                   "dgkernel": dgkernel.__file__}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
