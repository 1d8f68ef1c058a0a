"""Wall and CPU time and peak RSS of one job on two checkouts, in fresh
processes (not collected by pytest).

    python tests/_replay.py SRC_A SRC_B JOB [--runs N]

runs the job file JOB through `cli.main` in 2N fresh processes, N that
import dgkernel from the directory SRC_A and N from SRC_B, alternating
A, B, A, B, ... so that a change in the host's load falls on both.
Each process times `cli.main` alone, not the interpreter's start or the
imports, in wall seconds (`time.perf_counter`) and CPU seconds
(`time.process_time`), and reads its peak resident set size after it
(`ru_maxrss`, in MB of 2^20 bytes, as the benchmark's `peak_rss_mb`),
which does include the interpreter and the imports.  For each tree it
prints the median and the minimum of both times and the median and the
maximum of the peak RSS over its runs.  It also compares what the runs printed
and the `--json` report each wrote: every run of both trees must give
the same stdout, exit code and report bytes, or it says which tree and
run differ and exits 1.  N is 11 unless given.

    python tests/_replay.py old/src src job.txt --runs 21
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

# One run: import dgkernel from SRC, time cli.main on JOB writing its
# report to REPORT, and print the timings, peak RSS in MB, exit code and
# stdout as JSON.
CHILD = """
import contextlib, io, json, resource, sys, time
src, job, report = sys.argv[1:]
sys.path.insert(0, src)
from dgkernel import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    wall, cpu = time.perf_counter(), time.process_time()
    code = cli.main([job, "--json", report])
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
json.dump({"wall": wall, "cpu": cpu, "rss": rss, "code": code,
           "stdout": out.getvalue()}, sys.stdout)
"""


def run_once(src, job, report):
    """(wall s, cpu s, peak RSS MB, (exit code, stdout, report bytes)) of
    one fresh process running job on the dgkernel under src."""
    done = subprocess.run([sys.executable, "-c", CHILD, src, job, report],
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    with open(report, "rb") as f:
        written = f.read()
    return (result["wall"], result["cpu"], result["rss"],
            (result["code"], result["stdout"], written))


def main(argv):
    args = argv[1:]
    runs = 11
    if len(args) == 5 and args[3] == "--runs" and args[4].isdigit():
        runs = int(args[4])
        args = args[:3]
    if len(args) != 3 or runs < 1:
        print("usage: python tests/_replay.py SRC_A SRC_B JOB [--runs N]",
              file=sys.stderr)
        return 1
    trees = {"A": os.path.abspath(args[0]), "B": os.path.abspath(args[1])}
    job = os.path.abspath(args[2])
    times = {name: [] for name in trees}
    first = None
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for k in range(runs):
            for name, src in trees.items():
                *measured, outcome = run_once(src, job, report)
                times[name].append(measured)
                if first is None:
                    first = outcome
                elif outcome != first:
                    differ.append(f"{name} run {k + 1}")
    for name, src in trees.items():
        walls, cpus, rss = zip(*times[name])
        print(f"{name} {src}: wall median {statistics.median(walls):.4f} s, "
              f"min {min(walls):.4f} s; cpu median "
              f"{statistics.median(cpus):.4f} s, min {min(cpus):.4f} s; "
              f"rss median {statistics.median(rss):.2f} MB, max "
              f"{max(rss):.2f} MB ({runs} runs)")
    if differ:
        print("reports differ from A run 1: " + ", ".join(differ))
        return 1
    print(f"reports: identical (exit {first[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
