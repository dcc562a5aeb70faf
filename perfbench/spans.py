"""Span recorder and the wrappers that put exgates' layers into spans.

A span is (name, start, end, parent span, job id).  Spans stay in memory
and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of
one job's spans add up to the job's time.

``install`` replaces every binding of a wrapped function in the exgates
modules, because callers look functions up through their own module
globals (``metrics.report`` calls ``metrics.simulate``, not
``exgates.metrics.simulate`` by attribute).  Only traced runs install it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# Counting work done at a span boundary runs inside a span of this name, so
# the counting does not inflate the self time of the calling layer.
COUNTER_SPAN = "trace.counters"
JOB_SPAN = "job"


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.jobs = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.current())
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "starts": list(self.starts),
            "ends": list(self.ends),
            "parents": list(self.parents),
            "jobs": list(self.jobs),
            "counters": dict(self.counters),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    def merge(self, data: dict, parent: int) -> None:
        """Append another process's spans, its root spans under ``parent``."""
        base = len(self.names)
        self.names.extend(data["names"])
        self.starts.extend(data["starts"])
        self.ends.extend(data["ends"])
        self.parents.extend(p + base if p >= 0 else parent for p in data["parents"])
        self.jobs.extend(self.job for _ in data["names"])
        for name, value in data["counters"].items():
            self.counters[name] += value

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed self seconds, summed duration, span count."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, d, o in zip(self.names, dur, own):
            self_s[name] += o
            total_s[name] += d
            calls[name] += 1
        return self_s, total_s, calls


def _wrap(rec: Recorder, fn, name, count=None):
    name_of = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name_of(*args) if name_of else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            cidx = rec.open(COUNTER_SPAN)
            try:
                count(rec, args, out)
            finally:
                rec.close(cidx)
        return out

    return wrapper


def _count_consolidate(rec, args, out):
    rec.count("trotter.consolidate.steps_in", len(args[0].steps))
    rec.count("trotter.consolidate.steps_out", len(out.steps))


def _count_built(rec, args, out):
    rec.count("trotter.steps_built", len(out.steps))


def _count_simulate(rec, args, out):
    steps = args[0].steps
    rec.count("metrics.simulate.steps", len(steps))
    rec.count("metrics.simulate.distinct_steps", len(set(steps)))


def _expi_name(h, *_):
    return f"linalg.expi.d{h.shape[0]}"


# (defining module, function, span name or name function, counter)
TARGETS = (
    ("trotter", "consolidate", "trotter.consolidate", _count_consolidate),
    ("trotter", "cnot_spin_independent", "trotter.build", _count_built),
    ("trotter", "cnot_spin1", "trotter.build", _count_built),
    ("trotter", "cancel_negatives", "trotter.build", _count_built),
    ("metrics", "simulate", "metrics.simulate", _count_simulate),
    ("metrics", "entanglement_fidelity", "metrics.score", None),
    ("metrics", "leakage", "metrics.score", None),
    ("metrics", "report", "metrics.report", None),
    ("symrep", "rep_element", "symrep.rep_element", None),
    ("encoding", "projector", "encoding.projector", None),
    ("linalg", "expi", _expi_name, None),
    ("oracle", "oracle_simulate", "oracle.simulate", None),
    ("oracle", "oracle_fidelity", "oracle.fidelity", None),
    ("decouple", "decouple_map", "decouple.decouple_map", None),
)


def install(rec: Recorder):
    """Wrap every binding of the TARGETS functions; returns an undo callable."""
    for module, _, _, _ in TARGETS:
        importlib.import_module(f"exgates.{module}")
    modules = [m for n, m in sys.modules.items() if n == "exgates" or n.startswith("exgates.")]
    undo: list[tuple[object, str, object]] = []
    for module, attr, name, count in TARGETS:
        original = getattr(sys.modules[f"exgates.{module}"], attr)
        wrapper = _wrap(rec, original, name, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def uninstall() -> None:
        for mod, key, value in reversed(undo):
            setattr(mod, key, value)

    return uninstall
