"""exgates benchmark: four workloads, per-job latency and throughput, per-layer spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``paper-tables``, ``long-schedules``, ``random-oracle`` and ``cli-cold``.
The program is imported from ``src/`` next to this directory, never from
an installed copy.

A run first checks the paper's table values and the oracle agreement and
stops with exit code 1 if they are wrong.  It then measures one workload
in a closed loop from this one process: the next job starts when the
previous one has ended.  A job counts as done only after its output passed
its checks; a failed job is counted in ``failed`` and is never timed.

Times are scaled to a machine of fixed speed: a small reference kernel
(``reference_kernel``, no exgates code) is timed between jobs, and every
time is multiplied by REF_S over the kernel's time next to it.  Shared
machines drift in speed by up to 2x within seconds; the scaled times do
not.  The unscaled times are kept in the details.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time from ``import
  exgates`` to the end of the workload's first job;
* ``job_ms.p50`` and ``job_ms.tail``, the latter the 11th-largest job
  time, i.e. the highest percentile with 10 samples beyond it;
* ``jobs_per_s``: completed jobs over the wall time of the timed loop;
* ``peak_rss_mb``: peak RSS of the process doing the work (for
  ``cli-cold``, the largest CLI child).

``--trace 1`` runs half the time untraced and half with every public
layer function wrapped in spans (``spans.py``), and reports per-job layer
self times and counts, the tracing overhead and the time no layer claims.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (the
environment, tail percentile and sample count, failures, input lengths)
are printed above it and written to ``.perfbench_out/`` with the spans.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7
# Times are reported as they would read on a machine where reference_kernel
# takes REF_S seconds.  On a shared 2-vCPU x86_64 VM the CPU speed a process
# sees drifted by up to 2x within seconds; the kernel, timed between jobs,
# drifts with it, and job time over kernel time stayed within a few percent.
REF_S = 0.0025
# job_ms.tail is the largest job time that still has this many beyond it.
TAIL_BEYOND = 10
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def use_source() -> None:
    """Import exgates from ``src/`` of this checkout or exit with code 2."""
    sys.path.insert(0, str(SRC))
    # find_spec locates the package without importing it, so set-up probes
    # still time the import.
    spec = importlib.util.find_spec("exgates")
    if spec is None or Path(spec.origin).resolve().parent != (SRC / "exgates").resolve():
        print(f"perfbench: no exgates source at {SRC}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def setup_probe(name: str, seed: int) -> None:
    """Child side of setup_s: import, build inputs, run the first job.

    Prints the set-up seconds and then the reference kernel's seconds,
    timed right after in the same process.
    """
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, OUT)
    wl.run(wl.prepare(0))
    elapsed = time.perf_counter() - start
    ref = statistics.median(reference_kernel() for _ in range(5))
    print(repr(elapsed), repr(ref))


def reference_kernel() -> float:
    """Seconds a fixed computation takes now: the machine's current speed.

    The same kinds of work as the library's own, in similar shares: Python
    bookkeeping on tuples and dicts, 9x9 eigendecompositions and 64x64
    ones.  No exgates code, so a change to exgates cannot move it.
    """
    import numpy as np

    start = time.perf_counter()
    merged: dict[tuple[int, int], float] = {}
    for k in range(100):
        key = (k % 6 + 1, k % 5 + 2)
        merged[key] = merged.get(key, 0.0) + k / 7.0
        tuple(sorted(merged.items()))
    for dim, count in ((9, 20), (64, 2)):
        h = np.add.outer(np.arange(dim), np.arange(dim)) % 7 / 7.0
        for k in range(count):
            w, v = np.linalg.eigh(h + k * np.eye(dim))
            u = (v * np.exp(1j * w)) @ v.conj().T
            u @ u
    return time.perf_counter() - start


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """(normalized, raw) set-up seconds of SETUP_PROBES fresh processes."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe",
    ]
    normalized, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        elapsed, ref = (float(v) for v in proc.stdout.split()[-2:])
        raw.append(elapsed)
        normalized.append(elapsed * REF_S / ref)
    return normalized, raw


def run_jobs(wl, first: int, seconds: float, rec=None) -> dict:
    """Closed loop: run jobs first, first+1, ... until ``seconds`` pass.

    The reference kernel runs before the first job and after every job.
    A job that runs in this process is scaled by REF_S over the mean of the
    kernel times just before and after it, which follows the machine's
    drift from job to job.  Work in child processes does not follow this
    process's kernel from job to job, so those jobs are all scaled by the
    median kernel time of the run.
    """
    from workloads import JobFailed

    jobs: list[tuple[float, float, bool]] = []  # (prepare to end, job time, ok)
    refs = [reference_kernel()]
    failures: list[str] = []
    i = first
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        t_prepare = time.perf_counter()
        job_input = wl.prepare(i)
        if rec is not None:
            rec.job = i
            idx = rec.open(spans.JOB_SPAN)
        t0 = time.perf_counter()
        ok = False
        try:
            wl.run(job_input)
            ok = True
        except JobFailed as exc:
            failures.append(str(exc))
        except Exception:  # a crashing job is counted as failed, never timed
            failures.append(traceback.format_exc())
        finally:
            if rec is not None:
                rec.close(idx)
        t1 = time.perf_counter()
        jobs.append((t1 - t_prepare, t1 - t0, ok))
        refs.append(reference_kernel())
        i += 1
    latencies, raw, busy = [], [], 0.0
    run_scale = REF_S / statistics.median(refs)
    for k, (cycle, job, ok) in enumerate(jobs):
        scale = REF_S * 2 / (refs[k] + refs[k + 1]) if wl.in_process else run_scale
        busy += cycle * scale
        if ok:
            latencies.append(job * scale)
            raw.append(job)
    return {
        "latencies": latencies,
        "raw_latencies": raw,
        "failures": failures,
        "attempted": i - first,
        "busy": busy,
        "wall": time.perf_counter() - start,
        "refs": refs,
        "next": i,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(wl, loop: dict, setup: list[float]) -> dict:
    lat = loop["latencies"]
    tail_s, _ = tail(lat)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "job_ms.tail": (tail_s * 1e3, "ms"),
        "jobs_per_s": (len(lat) / loop["busy"], "1/s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }


def per_layer(rec, loop: dict, untraced_p50: float) -> dict:
    """Per-job layer numbers of the traced loop; times scaled like job times."""
    self_s, total_s, calls = rec.totals()
    counters = rec.counters
    jobs = loop["attempted"]
    scale = REF_S / statistics.median(loop["refs"])

    def ms(name: str) -> tuple[float, str]:
        return self_s.get(name, 0.0) * scale * 1e3 / jobs, "ms"

    def per_job(value: float) -> tuple[float, str]:
        return value / jobs, "count"

    def mean_ms(name: str) -> tuple[float, str]:
        return (total_s[name] * scale / calls[name] * 1e3 if calls.get(name) else 0.0), "ms"

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "ratio"

    steps_in = counters.get("trotter.consolidate.steps_in", 0.0)
    steps_out = counters.get("trotter.consolidate.steps_out", 0.0)
    sim_steps = counters.get("metrics.simulate.steps", 0.0)
    distinct = counters.get("metrics.simulate.distinct_steps", 0.0)
    residual_s = self_s.get(spans.JOB_SPAN, 0.0) + self_s.get(spans.COUNTER_SPAN, 0.0)
    m = {
        "trotter.consolidate_ms": ms("trotter.consolidate"),
        "trotter.consolidate.steps_in": per_job(steps_in),
        "trotter.consolidate.steps_out": per_job(steps_out),
        "trotter.consolidate.merge_ratio": ratio(
            steps_in - steps_out, steps_in - calls.get("trotter.consolidate", 0)
        ),
        "trotter.build_ms": ms("trotter.build"),
        "trotter.steps_built": per_job(counters.get("trotter.steps_built", 0.0)),
        "metrics.simulate_ms": ms("metrics.simulate"),
        "metrics.simulate.steps": per_job(sim_steps),
        "metrics.simulate.distinct_steps": per_job(distinct),
        "metrics.simulate.step_reuse": ratio(sim_steps - distinct, sim_steps),
        "metrics.score_ms": ms("metrics.score"),
        "metrics.report_self_ms": ms("metrics.report"),
        "symrep.rep_element.calls": per_job(calls.get("symrep.rep_element", 0)),
        "symrep.rep_element_ms": ms("symrep.rep_element"),
        "encoding.projector.calls": per_job(calls.get("encoding.projector", 0)),
        "encoding.projector_ms": ms("encoding.projector"),
    }
    for d in (5, 9, 64):
        m[f"linalg.expi.calls.d{d}"] = per_job(calls.get(f"linalg.expi.d{d}", 0))
        m[f"linalg.expi_ms.d{d}"] = ms(f"linalg.expi.d{d}")
    m.update({
        "oracle.simulate_ms": ms("oracle.simulate"),
        "oracle.simulate.calls": per_job(calls.get("oracle.simulate", 0)),
        "oracle.fidelity_self_ms": ms("oracle.fidelity"),
        "decouple.decouple_map.calls": per_job(calls.get("decouple.decouple_map", 0)),
        "decouple.decouple_map_ms": ms("decouple.decouple_map"),
        "cli.import_ms": mean_ms("cli.import"),
        "cli.verify_ms": mean_ms("cli.verify"),
        "cli.tables_ms": mean_ms("cli.tables"),
        "cli.simulate_ms": mean_ms("cli.simulate"),
        "cli.process_ms": mean_ms("cli.process"),
        "trace.overhead": ratio(statistics.median(loop["latencies"]), untraced_p50),
        "trace.residual_ms": (residual_s * scale * 1e3 / jobs, "ms"),
        "trace.residual_share": ratio(residual_s, total_s.get(spans.JOB_SPAN, 0.0)),
    })
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description="exgates benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_source()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    try:
        workloads.gate()
    except workloads.JobFailed as exc:
        print(f"perfbench: correctness gate failed, nothing timed: {exc}", file=sys.stderr)
        return 1

    setup, setup_raw = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        wl.run(wl.prepare(0))
    except workloads.JobFailed as exc:
        print(f"perfbench: warm-up job failed, nothing timed: {exc}", file=sys.stderr)
        return 1

    details = {"workload": args.workload, "environment": env, "input_lengths": wl.lengths}
    if args.trace:
        untraced = run_jobs(wl, 1, args.seconds / 2)
        rec = spans.Recorder()
        spans.install(rec)
        wl.recorder = rec
        loop = run_jobs(wl, untraced["next"], args.seconds / 2, rec)
        failures = untraced["failures"] + loop["failures"]
        attempted = untraced["attempted"] + loop["attempted"]
        if not loop["latencies"] or not untraced["latencies"]:
            print(f"perfbench: every job failed: {failures[:1]}", file=sys.stderr)
            return 1
        metrics = per_layer(rec, loop, statistics.median(untraced["latencies"]))
        details["jobs"] = {"untraced": untraced["attempted"], "traced": loop["attempted"]}
        rec.dump(OUT / f"{args.workload}-seed{args.seed}.spans.json")
    else:
        loop = run_jobs(wl, 1, args.seconds)
        failures, attempted = loop["failures"], loop["attempted"]
        if not loop["latencies"]:
            print(f"perfbench: every job failed: {failures[:1]}", file=sys.stderr)
            return 1
        metrics = end_to_end(wl, loop, setup)
        _, pct = tail(loop["latencies"])
        details["job_ms.tail"] = {"percentile": pct, "samples": len(loop["latencies"])}
        details["unscaled"] = {
            "setup_s": statistics.median(setup_raw),
            "job_ms.p50": statistics.median(loop["raw_latencies"]) * 1e3,
            "jobs_per_s": len(loop["raw_latencies"]) / loop["wall"],
            "reference_kernel_ms": statistics.median(loop["refs"]) * 1e3,
        }
        details["setup_s_samples"] = {"scaled": setup, "unscaled": setup_raw}
        details["latencies_ms"] = {
            "scaled": [t * 1e3 for t in loop["latencies"]],
            "unscaled": [t * 1e3 for t in loop["raw_latencies"]],
        }
        details["reference_kernel_ms"] = [t * 1e3 for t in loop["refs"]]

    details["failed_ratio"] = len(failures) / attempted
    details["failures"] = failures[:5]
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(details, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, {env['commit']}, "
          f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}")
    print(f"input lengths (steps): {wl.lengths}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':36s} {details['failed_ratio']:14.6g} ({len(failures)}/{attempted})")
    if "job_ms.tail" in details:
        t = details["job_ms.tail"]
        print(f"  job_ms.tail is p{t['percentile']:.2f} of {t['samples']} samples")
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in details["unscaled"].items()))
    for failure in failures[:3]:
        print(f"  failed: {failure.strip().splitlines()[-1]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": details["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
