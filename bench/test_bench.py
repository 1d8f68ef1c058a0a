"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import job_proc   # noqa: E402
import jobs       # noqa: E402
import reference  # noqa: E402
import run        # noqa: E402
import tracer     # noqa: E402


def _job(tmp_path, workload, seed=0):
    path = tmp_path / "job.txt"
    path.write_text(jobs.make_job(workload, seed)[0])
    return path


def test_corrupted_reference_counts_as_failed(tmp_path, monkeypatch, capsys):
    out = run.run_job(tmp_path, 0, _job(tmp_path, "resolve-golod"),
                      "resolve-golod", traced=False)
    assert out["failure"] is None
    report = json.loads((tmp_path / "report-0.json").read_text())

    expected = reference.EXPECTED["resolve-golod"]
    corrupted = dict(expected,
                     bigraded=dict(expected["bigraded"], **{"13,13": 611}))
    monkeypatch.setitem(reference.EXPECTED, "resolve-golod", corrupted)
    assert "13,13" in reference.check("resolve-golod", report)

    run.main(["--workload", "resolve-golod", "--seed", "0",
              "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_exact_counters_repeat(tmp_path):
    job = _job(tmp_path, "deviations-dense")
    first, second = (run.run_job(tmp_path, k, job, "deviations-dense",
                                 traced=True)["layers"] for k in (0, 1))
    for name in tracer.EXACT_COUNTERS:
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "resolve-golod", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_leaves_out_its_own_time():
    probe = job_proc.SpeedProbe()
    with probe:
        start, wall = probe.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.35:
            pass
        taken, wall = probe.clock() - start, time.perf_counter() - wall
    assert len(probe.readings) >= 4      # entry, alarms, exit
    assert probe.probe_s > 0
    assert abs(wall - probe.probe_s - taken) < 1e-3
