"""The benchmark's workloads: generated inputs, one job each, and its checks.

A workload builds its fixed inputs in ``__init__``, makes the input of
job ``i`` in ``prepare(i)`` (outside the timed region) and runs and checks
one job in ``run``.  A job whose output fails a check raises ``JobFailed``.
Every call into exgates goes through a module attribute, so the span
wrappers of a traced run see it.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import threading
from pathlib import Path

from exgates import metrics, oracle, trotter
from exgates.encoding import ALL_PAIRS, SpinSector
from exgates.trotter import PulseSchedule, PulseStep

import expected

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_BOOTSTRAP = HERE / "cli_trace.py"

CHILD_TIMEOUT_S = 60.0
# Length of the random schedule that ``cli-cold`` simulates.  It is fixed
# so the seed changes the schedule's contents but not the work per job.
CLI_SCHEDULE_STEPS = 60
# ``random-oracle`` cycles through these lengths, one per job, so every
# run covers 20 to 100 steps evenly whatever the seed.
RANDOM_LENGTHS = tuple(range(20, 101, 10))


class JobFailed(Exception):
    """A job's output failed a correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise JobFailed(message)


def check_bounds(rep: metrics.SynthesisReport) -> None:
    """0 <= L <= 1 - F in both sectors."""
    for sector in SpinSector:
        f, leak = rep.fidelity[sector.name], rep.leakage[sector.name]
        _require(
            -expected.BOUND_TOL <= leak <= 1.0 - f + expected.BOUND_TOL,
            f"{rep.name} n={rep.n} {sector.name}: L={leak!r} outside [0, 1 - F], F={f!r}",
        )


def check_table(rows: list, which: int) -> None:
    table = expected.TABLES[which]
    _require(
        [r.n for r in rows] == list(table),
        f"table {which}: rows for n={[r.n for r in rows]}, expected {list(table)}",
    )
    for r in rows:
        cycles, time, fid, leak = table[r.n]
        where = f"table {which} n={r.n}"
        _require(r.cycles == cycles, f"{where}: cycles {r.cycles} != {cycles}")
        _require(
            abs(r.normalized_time - time) <= expected.TIME_TOL,
            f"{where}: time {r.normalized_time:.3f} != {time}",
        )
        _require(
            abs(r.fidelity["SPIN1"] - fid) <= expected.FL_TOL,
            f"{where}: F {r.fidelity['SPIN1']:.6f} != {fid}",
        )
        _require(
            abs(r.leakage["SPIN1"] - leak) <= expected.FL_TOL,
            f"{where}: L {r.leakage['SPIN1']:.6f} != {leak}",
        )
        check_bounds(r)


def check_cancel(cancel_rows: list, plain_rows: list, which: int) -> None:
    """Cancel rows keep cycles, F and L and add a fixed normalized time."""
    _require(len(cancel_rows) == len(plain_rows), f"table {which}: cancel row count")
    for c, p in zip(cancel_rows, plain_rows):
        where = f"table {which} n={p.n} cancel"
        _require(c.cycles == p.cycles, f"{where}: cycles {c.cycles} != {p.cycles}")
        shift = c.normalized_time - p.normalized_time
        _require(
            abs(shift - expected.CANCEL_TIME_SHIFT) <= expected.TIME_TOL,
            f"{where}: time shift {shift:.3f} != {expected.CANCEL_TIME_SHIFT}",
        )
        for sector in SpinSector:
            s = sector.name
            _require(
                abs(c.fidelity[s] - p.fidelity[s]) <= expected.CANCEL_FL_TOL
                and abs(c.leakage[s] - p.leakage[s]) <= expected.CANCEL_FL_TOL,
                f"{where} {s}: F/L differ from the plain row",
            )


def check_oracle(schedule: PulseSchedule, rep: metrics.SynthesisReport) -> None:
    """The 64-dim oracle agrees with the irrep scores in both sectors."""
    for sector in SpinSector:
        f, leak = oracle.oracle_fidelity(schedule, sector, metrics.CNOT)
        df = abs(f - rep.fidelity[sector.name])
        dl = abs(leak - rep.leakage[sector.name])
        _require(
            df < expected.ORACLE_TOL and dl < expected.ORACLE_TOL,
            f"{rep.name} n={rep.n} {sector.name}: oracle |dF|={df:.2e} |dL|={dl:.2e}",
        )
        _require(
            -expected.BOUND_TOL <= leak <= 1.0 - f + expected.BOUND_TOL,
            f"{rep.name} n={rep.n} {sector.name}: oracle L outside [0, 1 - F]",
        )


def gate() -> None:
    """Correctness gate run before any timing: both tables and the oracle."""
    for which in expected.TABLES:
        plain = metrics.table_rows(which)
        check_table(plain, which)
        check_cancel(metrics.table_rows(which, cancel=True), plain, which)
    for schedule in (trotter.cnot_spin_independent(3), trotter.cnot_spin1(2)):
        check_oracle(schedule, metrics.report(schedule))


def random_schedule(rng: random.Random, length: int) -> PulseSchedule:
    """Steps of 1-6 random pairs, coefficients and phase uniform in [-pi, pi]."""
    steps = []
    for _ in range(length):
        pairs = rng.sample(ALL_PAIRS, rng.randint(1, 6))
        coeffs = {p: rng.uniform(-math.pi, math.pi) for p in pairs}
        steps.append(PulseStep.make(coeffs, rng.uniform(-math.pi, math.pi)))
    return PulseSchedule(tuple(steps), name="random", order=1, n=length)


class Workload:
    name = ""
    # Whether a job's work runs in the calling process (see run.run_jobs).
    in_process = True

    def prepare(self, i: int):
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class PaperTables(Workload):
    """Both tables, plain and with negatives canceled: 12 schedules a job."""

    name = "paper-tables"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.order = [(which, cancel) for which in expected.TABLES for cancel in (False, True)]
        random.Random(seed).shuffle(self.order)
        self.lengths = [
            len(getattr(trotter, expected.TABLE_BUILDERS[which])(n))
            for which, table in expected.TABLES.items()
            for n in table
        ]

    def run(self, _) -> None:
        rows = {key: metrics.table_rows(key[0], cancel=key[1]) for key in self.order}
        for which in expected.TABLES:
            check_table(rows[which, False], which)
            check_cancel(rows[which, True], rows[which, False], which)


class LongSchedules(Workload):
    """Both CNOT families at n = 50 and 200, built and scored: 4 a job.

    One job is the whole rotation, so every job does the same work and the
    median latency does not fall between two schedule sizes.
    """

    name = "long-schedules"
    NS = (50, 200)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.order = [(family, n) for family in expected.FAMILIES for n in self.NS]
        random.Random(seed).shuffle(self.order)
        self.lengths = [len(getattr(trotter, f)(n)) for f, n in self.order]

    def run(self, _) -> None:
        for family, n in self.order:
            rep = metrics.report(getattr(trotter, family)(n))
            form = expected.FAMILIES[family]
            where = f"{family} n={n}"
            a, b = form["cycles"]
            _require(rep.cycles == a * n + b, f"{where}: cycles {rep.cycles} != {a * n + b}")
            c, d = form["time"]
            _require(
                abs(rep.normalized_time - (c * n + d)) <= expected.TIME_TOL,
                f"{where}: time {rep.normalized_time:.3f} != {c * n + d}",
            )
            best = max(row[2] for row in expected.TABLES[form["table"]].values())
            _require(
                rep.fidelity["SPIN1"] > best,
                f"{where}: SPIN1 F {rep.fidelity['SPIN1']:.6f} not above {best}",
            )
            check_bounds(rep)


class RandomOracle(Workload):
    """A fresh random schedule a job, scored and cross-checked by the oracle."""

    name = "random-oracle"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.lengths = list(RANDOM_LENGTHS)
        random.Random(seed).shuffle(self.lengths)

    def prepare(self, i: int) -> PulseSchedule:
        rng = random.Random(f"{self.seed}:{i}")
        return random_schedule(rng, self.lengths[i % len(self.lengths)])

    def run(self, schedule: PulseSchedule) -> None:
        rep = metrics.report(schedule)
        check_bounds(rep)
        check_oracle(schedule, rep)


_ORACLE_LINE = re.compile(r"oracle (SPIN[01]): \|dF\| = (\S+), \|dL\| = (\S+)")


class CliCold(Workload):
    """One fresh ``python -m exgates.cli`` process a job, in a fixed rotation.

    A job is one process, not the whole rotation, so a run holds enough
    jobs for a tail percentile.
    """

    name = "cli-cold"
    in_process = False
    COMMANDS = ("verify", "tables", "simulate")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        schedule = random_schedule(random.Random(f"{seed}:cli"), CLI_SCHEDULE_STEPS)
        self.schedule_path = workdir / f"cli-schedule-seed{seed}.json"
        trotter.save_schedule(schedule, self.schedule_path)
        self.lengths = [CLI_SCHEDULE_STEPS]
        self.simulate_report = metrics.report(schedule)
        self.start = seed % len(self.COMMANDS)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.child_rss_kb: list[int] = []
        # Set to a spans.Recorder to run children under the tracing bootstrap.
        self.recorder = None

    def argv(self, command: str) -> list[str]:
        if command == "verify":
            return ["verify"]
        if command == "tables":
            return ["tables", "--which", "1", "--format", "json"]
        return ["simulate", str(self.schedule_path), "--oracle"]

    def prepare(self, i: int) -> str:
        return self.COMMANDS[(self.start + i) % len(self.COMMANDS)]

    def run(self, command: str) -> None:
        argv = self.argv(command)
        if self.recorder is None:
            out = self._spawn([sys.executable, "-m", "exgates.cli", *argv])
        else:
            spans_path = self.workdir / "cli-spans.json"
            idx = self.recorder.open("cli.process")
            try:
                out = self._spawn([sys.executable, str(CLI_BOOTSTRAP), str(spans_path), *argv])
            finally:
                self.recorder.close(idx)
            with open(spans_path) as fh:
                self.recorder.merge(json.load(fh), parent=idx)
        getattr(self, f"_check_{command}")(out)

    def _spawn(self, cmd: list[str]) -> str:
        with open(self.workdir / "cli-stderr.txt", "w+") as err:
            proc = subprocess.Popen(
                cmd, cwd=HERE.parent, env=self.env, stdout=subprocess.PIPE, stderr=err
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            reaped = False
            try:
                out = proc.stdout.read().decode()
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                proc.stdout.close()
                if not reaped:
                    proc.kill()
                    proc.wait()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb.append(usage.ru_maxrss)
            if proc.returncode != 0:
                err.seek(0)
                raise JobFailed(
                    f"{' '.join(cmd[1:])}: exit code {proc.returncode}: {err.read()[-400:]}"
                )
        return out

    def _check_verify(self, out: str) -> None:
        _require(
            "all checks passed" in out and "FAIL" not in out,
            "verify: " + (out.strip().splitlines() or ["no output"])[-1],
        )

    def _check_tables(self, out: str) -> None:
        try:
            rows = json.loads(out)["rows"]
        except (ValueError, KeyError) as exc:
            raise JobFailed(f"tables: unreadable JSON: {exc}") from exc
        table = expected.TABLES[1]
        got = {row["n"]: row for row in rows}
        _require(sorted(got) == sorted(table), f"tables: rows for n={sorted(got)}")
        for n, (cycles, time, fid, leak) in table.items():
            row = got[n]
            _require(
                row["cycles"] == cycles
                and abs(row["time"] - time) <= expected.TIME_TOL + expected.PRINT_SLACK
                and abs(row["fidelity"] - fid) <= expected.FL_TOL + expected.PRINT_SLACK
                and abs(row["leakage"] - leak) <= expected.FL_TOL + expected.PRINT_SLACK,
                f"tables: row {row} != {(cycles, time, fid, leak)}",
            )

    def _check_simulate(self, out: str) -> None:
        rep = self.simulate_report
        _require(
            f"cycles {rep.cycles}, time {rep.normalized_time:.1f}" in out,
            f"simulate: cycles/time differ from {rep.cycles}, {rep.normalized_time:.1f}",
        )
        for sector in SpinSector:
            line = (
                f"{sector.name}: fidelity {rep.fidelity[sector.name]:.5f}, "
                f"leakage {rep.leakage[sector.name]:.5f}"
            )
            _require(line in out, f"simulate: missing '{line}'")
        deltas = {m.group(1): (float(m.group(2)), float(m.group(3)))
                  for m in _ORACLE_LINE.finditer(out)}
        _require(sorted(deltas) == ["SPIN0", "SPIN1"], f"simulate: oracle lines {sorted(deltas)}")
        for sector, (df, dl) in deltas.items():
            _require(
                df < expected.ORACLE_TOL and dl < expected.ORACLE_TOL,
                f"simulate: oracle {sector} |dF|={df:.2e} |dL|={dl:.2e}",
            )

    def peak_rss_mb(self) -> float:
        return max(self.child_rss_kb) / 1024


WORKLOADS = {w.name: w for w in (PaperTables, LongSchedules, RandomOracle, CliCold)}
