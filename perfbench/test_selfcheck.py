"""Self-check of the benchmark.

Every workload's job passes its checks at this commit; a wrong expected
value turns a job into a counted failure, and stops a run at the gate
before anything is timed; spans add up; the printed metrics are the ones
BENCHMARK.json declares.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.use_source()

import expected  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from exgates import metrics, trotter  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_job_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    # cli-cold rotates over three commands; run each once
    for i in range(len(getattr(wl, "COMMANDS", ((),)))):
        wl.run(wl.prepare(i))


@pytest.mark.parametrize("name", ["paper-tables", "cli-cold"])
def test_corrupted_expected_value_is_a_counted_failure(name, tmp_path, monkeypatch):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    monkeypatch.setitem(expected.TABLES[1], 5, (63, 12.5, 0.99888, 0.00090))
    if name == "cli-cold":
        monkeypatch.setattr(wl, "COMMANDS", ("tables",))
    loop = run.run_jobs(wl, 1, seconds=0.2)
    assert loop["attempted"] >= 1
    assert len(loop["failures"]) == loop["attempted"]
    assert loop["latencies"] == []
    assert "n=5" in loop["failures"][0] or "'n': 5" in loop["failures"][0]


def test_wrong_expected_value_stops_the_run_before_timing(monkeypatch, capsys):
    monkeypatch.setitem(expected.TABLES[2], 3, (31, 13.8, 0.99970, 0.00024))
    argv = ["--workload", "paper-tables", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 1
    out = capsys.readouterr()
    assert "correctness gate failed" in out.err
    assert out.out == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, capsys):
    argv = ["--workload", "paper-tables", "--seed", "3", "--seconds", "0.6", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_self_times_add_up_to_the_job_time():
    rec = spans.Recorder()
    job = rec.open(spans.JOB_SPAN)
    outer = rec.open("outer")
    time.sleep(0.002)
    inner = rec.open("inner")
    time.sleep(0.002)
    rec.close(inner)
    rec.close(outer)
    rec.close(job)
    self_s, total_s, calls = rec.totals()
    assert sum(self_s.values()) == pytest.approx(total_s[spans.JOB_SPAN])
    assert self_s["outer"] == pytest.approx(total_s["outer"] - total_s["inner"])
    assert calls == {spans.JOB_SPAN: 1, "outer": 1, "inner": 1}


def test_install_sees_internal_calls_and_undoes():
    original = metrics.simulate
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        metrics.report(trotter.cnot_spin1(2))
    finally:
        undo()
    assert metrics.simulate is original
    names = set(rec.names)
    assert {
        "metrics.report", "metrics.simulate", "metrics.score", "trotter.build",
        "trotter.consolidate", "symrep.rep_element", "encoding.projector",
        "linalg.expi.d5", "linalg.expi.d9",
    } <= names
    report = rec.names.index("metrics.report")
    assert rec.parents[rec.names.index("metrics.simulate")] == report
    assert rec.counters["metrics.simulate.steps"] == 2 * len(trotter.cnot_spin1(2))


def test_fails_without_printing_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "paper-tables",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
