"""dgkernel benchmark: run one workload's job files through the CLI, check
every result against the reference tables, and print the metrics.

    python3 bench/run.py --workload closure-sparse --seed 1 --seconds 30 --trace 0

A closed loop with one client: one job process at a time, each spawned
only after the previous one ended, until ``--seconds`` have passed.  Each
job process calls ``dgkernel.cli.main([job, "--json", report])`` once
(``job_proc.py``) and its report is checked against ``reference.py``.  A
job that exits non-zero, times out or disagrees with the reference counts
as failed.  ``jobs.py`` makes the job files from the seed.

``--trace 0`` runs job k of the seed's sequence as the k-th job and
reports the end-to-end metrics.  ``--trace 1`` runs the seed's first job
file in pairs, untraced then traced (``tracer.py``), and reports the
per-layer metrics of the traced jobs and the tracing overhead.

Times in the metrics are reference seconds.  The cores of a shared host
change speed by up to 1.6x for tens of seconds at a time as other work
comes and goes on them, so a wall-clock median over one run says as much
about the neighbours as about the program.  Each job process therefore
also times a fixed reference loop (``job_proc.SpeedProbe``) every 0.1 s
while ``cli.main`` runs, and a job's wall time, less the probe's own, is
scaled by the mean of REFERENCE_NOMINAL_S over those readings: its time
on a core that runs the reference loop in REFERENCE_NOMINAL_S.  Set-up
times are scaled by the readings of their own process.  The raw wall
figures are printed as well.

Output: the seed, one line per job and one line per figure with its unit,
then, as the last line, one JSON object {"correct", "attempted",
"failed", "metrics"}.  ``attempted`` is the sample count behind
``job_norm_s.p50`` and failed / attempted is the error rate.  Exits with 2
and no result when the checkout holds no ``src/dgkernel`` to benchmark.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import reference
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
JOB_TIMEOUT_S = 60
# Set-up-only processes spawned after each untraced job, so that setup_s
# is a median over several set-ups per job, spread over the whole run.
SETUPS_PER_JOB = 2
# Time of job_proc.reference_pass on the core that reference seconds refer
# to (about that of an uncontended core of the 2-core x86_64 sandbox the
# baseline was measured on).
REFERENCE_NOMINAL_S = 0.0012
# Fixed string hashing, so that traced counters repeat exactly.
JOB_ENV = dict(os.environ, PYTHONHASHSEED="0")


def run_job(workdir, job_id, job_path, workload, traced):
    """Spawn one job process and wait for it.  Returns a dict with the
    failure reason (None if the job is correct) and what was measured."""
    report = workdir / f"report-{job_id}.json"
    result = workdir / f"result-{job_id}.json"
    trace = workdir / f"trace-{job_id}.json"
    cmd = [sys.executable, str(BENCH / "job_proc.py"), str(ROOT),
           str(job_id), str(job_path), str(report), str(result)]
    if traced:
        cmd.append(str(trace))
    out = {"traced": traced, "failure": None}
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=JOB_ENV)
    try:
        _, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out["failure"] = f"timed out after {JOB_TIMEOUT_S} s"
        return out
    finally:
        out["cycle_s"] = time.perf_counter() - spawned
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        out["failure"] = f"job process exited {proc.returncode}: {tail}"
        return out
    res = json.loads(result.read_text())
    scale = statistics.mean(REFERENCE_NOMINAL_S / r
                            for r in res["reference_s"])
    out.update(setup_wall_s=res["imported"] - spawned,
               setup_s=(res["imported"] - spawned) * scale,
               job_s=res["job_s"],
               scale=scale,
               job_norm_s=res["job_s"] * scale,
               rss_mb=res["maxrss_kb"] / 1024)
    if not Path(res["dgkernel"]).resolve().is_relative_to(ROOT / "src"):
        out["failure"] = f"dgkernel imported from {res['dgkernel']}"
    elif res["rc"] != 0:
        out["failure"] = f"cli.main returned {res['rc']}"
    else:
        out["failure"] = reference.check(workload,
                                         json.loads(report.read_text()))
    if traced and out["failure"] is None:
        out["layers"] = {
            name: value * scale if tracer.is_time(name) else value
            for name, value in tracer.summarize(
                json.loads(trace.read_text())).items()}
    return out


def run_setup(result):
    """Spawn one set-up-only job process and wait for it.  Returns its
    set-up time in wall and in reference seconds, or None if it failed."""
    cmd = [sys.executable, str(BENCH / "job_proc.py"), str(ROOT), "--setup",
           str(result)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, env=JOB_ENV,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    res = json.loads(result.read_text())
    wall = res["imported"] - spawned
    return {"setup_wall_s": wall,
            "setup_s": wall * statistics.mean(REFERENCE_NOMINAL_S / r
                                              for r in res["reference_s"])}


def run_workload(workload, seed, seconds, trace):
    """Run jobs until `seconds` have passed; return (outcomes, set-up
    times of the set-up-only processes, elapsed).  With `trace`, the
    seed's first job file runs in pairs, untraced then traced, so the
    traced jobs repeat one input and the overhead compares like with
    like, and no set-up-only process runs."""
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcomes, setups = [], []
        start = time.perf_counter()
        while True:
            k = len(outcomes)
            text, draw = jobs.make_job(workload, seed, 0 if trace else k)
            job_path = workdir / f"job-{k}.txt"
            job_path.write_text(text)
            out = run_job(workdir, k, job_path, workload,
                          trace and k % 2 == 1)
            out["draw"] = draw
            outcomes.append(out)
            for _ in range(0 if trace else SETUPS_PER_JOB):
                setups.append(run_setup(workdir / "setup.json"))
            if (time.perf_counter() - start >= seconds
                    and not (trace and k % 2 == 0)):
                break
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass        # another run is using it
    return outcomes, setups, elapsed


def end_to_end(outcomes, setups):
    """The end-to-end metrics, and the raw wall figures printed beside
    them."""
    timed = [o for o in outcomes if "job_s" in o]
    if not timed:
        return {}, {}
    set_up = timed + [s for s in setups if s]
    correct = sum(o["failure"] is None for o in outcomes)
    metrics = {
        "job_norm_s.p50": statistics.median(o["job_norm_s"] for o in timed),
        "setup_s": statistics.median(o["setup_s"] for o in set_up),
        "peak_rss_mb": max(o["rss_mb"] for o in timed),
    }
    wall = {
        "job_s.p50": (statistics.median(o["job_s"] for o in timed), "s"),
        "setup_wall_s": (
            statistics.median(o["setup_wall_s"] for o in set_up), "s"),
        "jobs_per_min": (
            correct * 60.0 / sum(o["cycle_s"] for o in outcomes), "1/min"),
        "reference_speed.p50": (
            statistics.median(o["scale"] for o in timed), "ratio"),
    }
    return metrics, wall


def per_layer(outcomes):
    """Each layer metric over the traced jobs (the median of times, the
    first job's counts), and the names of counts that differ between
    traced jobs: all run one input, so every count must repeat exactly."""
    layers = [o["layers"] for o in outcomes if "layers" in o]
    plain = [o["job_norm_s"] for o in outcomes
             if not o["traced"] and "job_s" in o]
    traced = [o["job_norm_s"] for o in outcomes
              if o["traced"] and "job_s" in o]
    if not layers or not plain:
        return {}, []
    exact = [n for n in layers[0]
             if n.endswith(".calls") or n in tracer.EXACT_COUNTERS]
    metrics = {name: layers[0][name] if name in exact
               else statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain))
    unstable = [n for n in exact
                if any(m[n] != layers[0][n] for m in layers)]
    return metrics, unstable


def metric_units():
    """name -> unit of every metric declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dgkernel" / "cli.py").is_file():
        print(f"error: no dgkernel sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    units = metric_units()
    outcomes, setups, elapsed = run_workload(args.workload, args.seed,
                                             args.seconds, bool(args.trace))
    failed = sum(o["failure"] is not None for o in outcomes)
    setups_failed = setups.count(None)
    unstable, wall = [], {}
    if args.trace:
        metrics, unstable = per_layer(outcomes)
    else:
        metrics, wall = end_to_end(outcomes, setups)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  {len(outcomes)} jobs and {len(setups)} "
          f"set-up-only processes ({setups_failed} failed) "
          f"in {elapsed:.1f} s")
    for k, o in enumerate(outcomes):
        coords = o["draw"]["coordinates"]
        print(f"job {k:3d}  {'traced  ' if o['traced'] else 'untraced'}"
              f"  order {','.join(o['draw']['variable_order'])}"
              + (f"  coordinates {coords}" if coords else "")
              + (f"  job_s {o['job_s']:.4f}  job_norm_s "
                 f"{o['job_norm_s']:.4f}" if "job_s" in o else "")
              + f"  {o['failure'] or 'ok'}")
    print(f"{'error_rate':58s} {failed / len(outcomes):14.6g} ratio")
    for name, (value, unit) in wall.items():
        print(f"{name:58s} {value:14.6g} {unit}")
    if unstable:
        print(f"counts differ between traced jobs: {', '.join(unstable)}")
    for name, value in metrics.items():
        print(f"{name:58s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not unstable and not setups_failed,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
