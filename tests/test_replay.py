"""tests/_replay.py: timings and peak RSS per checkout, and a failure
when two checkouts' reports differ."""

import pathlib
import re
import shutil

import dgkernel

import _replay

SRC = pathlib.Path(dgkernel.__file__).parent.parent
JOB = """\
field Q
base x 1
relation x^2
bounds 4 5
task deviations
"""


def replay(tmp_path, capsys, src_b):
    job = tmp_path / "job.txt"
    job.write_text(JOB)
    code = _replay.main(["_replay.py", str(SRC), str(src_b), str(job),
                         "--runs", "1"])
    return code, capsys.readouterr().out


def test_replay_times_both_trees_and_compares_their_reports(tmp_path,
                                                            capsys):
    code, out = replay(tmp_path, capsys, SRC)
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["A", "B"]
    assert all("wall median" in line and "(1 runs)" in line
               for line in lines[:2])
    # each tree's peak RSS, median and maximum over its runs, in MB: one
    # run, so both are the same reading, of a process that imported
    # dgkernel
    for line in lines[:2]:
        rss = re.search(r"; rss median (\d+\.\d\d) MB, max (\d+\.\d\d) MB "
                        r"\(1 runs\)$", line)
        assert rss, line
        assert rss[1] == rss[2] and 1 < float(rss[1]) < 1000
    assert lines[2] == "reports: identical (exit 0)"


def test_replay_fails_when_a_tree_prints_another_report(tmp_path, capsys):
    # a copy of the package whose cli prints one more line
    other = tmp_path / "other"
    shutil.copytree(SRC / "dgkernel", other / "dgkernel",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "dgkernel" / "cli.py", "a") as f:
        f.write("\n_main = main\n\n\ndef main(argv=None):\n"
                "    code = _main(argv)\n    print('extra')\n"
                "    return code\n")
    code, out = replay(tmp_path, capsys, other)
    assert code == 1
    assert out.splitlines()[-1] == "reports differ from A run 1: B run 1"


def test_replay_usage(capsys):
    assert _replay.main(["_replay.py", "a", "b"]) == 1
    assert _replay.main(["_replay.py", "a", "b", "c", "--runs", "0"]) == 1
    assert "usage" in capsys.readouterr().err
