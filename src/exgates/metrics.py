"""Schedule scoring: simulation, entanglement fidelity, leakage, tables.

Simulation and scoring work on plain arrays, so the 5- and 9-dim irreps
and the oracle's 9- and 5-dim frame closures share one code path: a
schedule is evolved on a (15, d, d) stack of transposition matrices, and a
gate is scored through a 4 x d frame Pi whose rows are the computational
states (``frame_scores``).  ``evolve_many`` evolves a batch of schedules
and ``evolve`` a batch of one, both on the one numeric form
``schedule._evolve_form`` builds: the distinct steps' coefficient rows and
one product plan (``products.product_plan``, made once per run-form
shape and process) in which each repeated cycle is multiplied once and
raised to its repeats by squaring, so n repeats cost O(cycle + log n)
products.  A schedule keeps its own form as
``PulseSchedule._form``.  With the frame compression

    v = G Pi^T,    g = Pi v    (a 4 x 4 matrix),

fidelity and leakage are

    F(G, C) = | tr(C^dag g) / 4 |^2,
    L(G)    = || v - Pi^T g ||_F^2 / 4.

F is the normalized computational-subspace trace overlap with the target C
extended by identity on the complement, and is invariant under a global
phase of G.  L is the population leaving the computational subspace, the
part of 1 - F due to leakage; it does not depend on the target, because
the extended target acts as identity on the complement (C_ext Pi_perp =
Pi_perp).
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import SpinSector, projector
from .linalg import expi
from .schedule import (
    PulseSchedule,
    _evolve_form,
    _fill_commutes,
    _negative_local_steps,
    normalized_time,
    pair_stack,
    row_generators,
)
from .trotter import _checked_int, cancel_negatives, cnot_spin1, cnot_spin_independent, consolidate

__all__ = [
    "CNOT",
    "FONG_WANDZURA_CYCLES",
    "FONG_WANDZURA_TIME",
    "SynthesisReport",
    "evolve",
    "evolve_many",
    "simulate",
    "frame_scores",
    "entanglement_fidelity",
    "leakage",
    "report",
    "report_many",
    "table_rows",
    "render_markdown",
    "render_csv",
    "render_json",
]

# read-only, so ``_checked_target`` passes this object unchecked
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CNOT.setflags(write=False)

# Benchmark constants of the exact spin-independent CNOT sequence used for
# comparison in the tables (not recomputed here).
FONG_WANDZURA_CYCLES = 13
FONG_WANDZURA_TIME = 12.3

# Complex entries in one chunk of (k, d, d) matrices in ``evolve``: 4096,
# 64 KiB a temporary, under glibc's 128 KiB mmap threshold, so chunk
# temporaries reuse heap memory instead of mapping fresh pages.  That is
# 163 matrices at d = 5, 50 at d = 9 and 10 at d = 20.  Against the former
# chunks of 8 steps, the benchmark's median peak RSS rose by 0.1 MB on
# random-oracle (36.25 to 36.37 MB) and by 0.3 MB on paper-tables and
# long-schedules (2-vCPU VM, Python 3.11, numpy 2.4).
_CHUNK_ENTRIES = 4096


def _chunk(d: int) -> int:
    """Matrices per ``evolve`` chunk at dimension d."""
    return max(1, _CHUNK_ENTRIES // (d * d))


def _evolved(form, stack: np.ndarray) -> np.ndarray:
    """The gates of an ``_evolve_form`` on a (15, d, d) stack, one per schedule, as (S, d, d).

    A level of one product, as most of a repeated cycle's squaring ladder
    is, is one ``matmul`` of two 2-d pool views into a third; a wider level
    gathers its operands with ``take`` and multiplies them in chunked
    batched products.  Either way each product has the bits of its own ``@``.
    """
    d = stack.shape[1]
    rows, phases, phased, levels, finals, slots = form
    chunk = _chunk(d)
    pool = np.empty((slots, d, d), dtype=complex)
    steps = pool[: len(rows)]
    for start in range(0, len(rows), chunk):
        part = slice(start, start + chunk)
        u = expi(row_generators(rows[part], stack))
        steps[part] = np.where(phased[part, None, None], phases[part, None, None] * u, u)
    node = len(rows)
    for left, right in levels:
        if len(left) == 1:  # a lone product multiplies pool views: no gather, no stacked call
            np.matmul(pool[left[0]], pool[right[0]], out=pool[node % slots])
            node += 1
            continue
        start = 0
        while start < len(left):  # chunks end where the slots wrap around
            slot = (node + start) % slots
            part = slice(start, min(start + chunk, len(left), start + slots - slot))
            np.matmul(pool.take(left[part], axis=0), pool.take(right[part], axis=0), out=pool[slot : slot + part.stop - start])
            start = part.stop
        node += len(left)
    if None not in finals:
        return pool[list(finals)]  # a tuple would index as one element of a multi-dimensional array
    gates = np.tile(np.eye(d, dtype=complex), (len(finals), 1, 1))
    done = [k for k, final in enumerate(finals) if final is not None]
    gates[done] = pool[[finals[k] for k in done]]
    return gates


def evolve_many(schedules: Sequence[PulseSchedule], stack: np.ndarray) -> np.ndarray:
    """Unitaries of a batch of schedules on a (15, d, d) transposition stack, as (S, d, d).

    Gate s is bit for bit ``evolve(schedules[s], stack)``: the batch is
    evolved as one schedule is, on ``schedule._evolve_form(schedules)``, so a
    step repeated across schedules is exponentiated once and each level is
    one chunked product for the whole batch, or one ``matmul`` on pool
    views when the level holds a single product.  The batch's plan is made
    once per process for its id run forms (``products.product_plan``), so a
    later batch of the same shape only evaluates it.

    A call only builds and multiplies matrices, with no Python loop over
    steps or pairs.  Each distinct step's unitary is built once, from its
    generator and identity phase alone, in chunks of ``_chunk(d)``
    matrices: one ``row_generators`` stack, one batched ``expi`` and one
    phase multiply a chunk, each unitary bit for bit the one a per-step
    call gives.  The phase multiply is out of place,
    ``np.where(phased, f * u, u)``, which rounds as the scalar ``f * u``
    does; an in-place ``u *= f`` does not, and a factor of exactly 1 could
    still flip the sign of a zero.  The plan's products are evaluated a
    level at a time, in chunked batched products that write into the one
    preallocated pool of ``slots`` matrices; a lone product multiplies two
    pool views, with no gather.  A schedule with fewer than two
    repeats is multiplied as its written-out pairwise tree; raising a cycle
    by squaring moves F and L from that tree's by rounding only, at most
    4.5e-14 on the CNOT families at n <= 200 and 1.9e-12 at n = 10000.  A
    schedule with no steps gives the identity.
    """
    return _evolved(_evolve_form(schedules), stack)


def evolve(schedule: PulseSchedule, stack: np.ndarray) -> np.ndarray:
    """Unitary of a schedule on a (15, d, d) transposition stack (rightmost step first): a batch of one, its ``_form``."""
    return _evolved(schedule._form, stack)[0]


def simulate(schedule: PulseSchedule, sector: SpinSector) -> np.ndarray:
    """Unitary of a schedule in one sector's irrep (rightmost step first)."""
    return evolve(schedule, pair_stack(sector))


def frame_scores(
    gate: np.ndarray, target: np.ndarray, frame: np.ndarray
) -> tuple[float, float]:
    """(F, L) of a d x d gate against a 4 x 4 target through a 4 x d frame."""
    v = gate @ frame.conj().T
    g = frame @ v
    overlap = np.trace(np.asarray(target).conj().T @ g)
    leaked = np.linalg.norm(v - frame.conj().T @ g)
    return float(abs(overlap / 4.0) ** 2), float(leaked**2 / 4.0)


def entanglement_fidelity(
    gate: np.ndarray, target: np.ndarray, sector: SpinSector
) -> float:
    """F of a gate in a sector's irrep against a 4 x 4 unitary target, checked as ``report`` checks it."""
    return frame_scores(gate, _checked_target(target), projector(sector))[0]


def leakage(gate: np.ndarray, target: np.ndarray, sector: SpinSector) -> float:
    """L of a gate in a sector's irrep; the target is checked as ``report`` checks it, though L does not read it."""
    return frame_scores(gate, _checked_target(target), projector(sector))[1]


@dataclass(frozen=True)
class SynthesisReport:
    """Scorecard of one schedule against a target gate.

    ``cycles`` counts the consolidated exponential factors;
    ``normalized_time`` sums per-pulse maxima in swap durations (computed
    on the schedule as constructed).  Fidelity and leakage are keyed by
    sector name.  ``negative_local_steps`` flags steps outside the
    Hamiltonian pulses that still carry negative coefficients.
    """

    name: str
    n: int
    cycles: int
    normalized_time: float
    fidelity: dict[str, float]
    leakage: dict[str, float]
    negative_local_steps: int = 0


def _scorecard(schedule: PulseSchedule, scores: dict[str, tuple[float, float]]) -> SynthesisReport:
    """The report of a schedule from its (F, L) per sector name: adds cycles, time and the flag."""
    return SynthesisReport(
        name=schedule.name,
        n=schedule.n,
        cycles=len(consolidate(schedule).steps),
        normalized_time=normalized_time(schedule),
        fidelity={name: f for name, (f, _) in scores.items()},
        leakage={name: leak for name, (_, leak) in scores.items()},
        negative_local_steps=_negative_local_steps(schedule),
    )


def _checked_target(target) -> np.ndarray:
    """``CNOT`` for None or ``CNOT`` itself, unchecked; else ``target``, which must be a 4 x 4 unitary to 1e-12 (``ValueError``)."""
    if target is None or target is CNOT:
        return CNOT
    try:
        t = np.asarray(target, dtype=complex)
    except (TypeError, ValueError):
        t = None
    if t is None or t.shape != (4, 4) or not np.isfinite(t).all():
        got = f"shape {t.shape}" if t is not None and t.shape != (4, 4) else reprlib.repr(target)
        raise ValueError(f"target must be a finite 4 x 4 matrix, got {got}")
    deviation = np.abs(t.conj().T @ t - np.eye(4)).max()
    if deviation > 1e-12:
        raise ValueError(f"target must be unitary to 1e-12, got |T^dag T - 1| = {deviation:.1e}")
    return target


def report(schedule: PulseSchedule, target: np.ndarray | None = None) -> SynthesisReport:
    """Scorecard of one schedule against a 4 x 4 target (default ``CNOT``).

    F and L in both sectors' irreps (``simulate`` and ``frame_scores``),
    the consolidated step count as cycles, the normalized time and the
    negative local steps; see ``SynthesisReport``.  ``report_many`` scores
    several schedules at once, to the same bits.
    """
    target = _checked_target(target)
    return _scorecard(schedule, {
        sector.name: frame_scores(simulate(schedule, sector), target, projector(sector)) for sector in SpinSector
    })


def report_many(
    schedules: Sequence[PulseSchedule], target: np.ndarray | None = None
) -> list[SynthesisReport]:
    """``[report(s, target) for s in schedules]``, equal to the bit, with one batched evolve per sector.

    The batch's ``_evolve_form`` is built once and evolved in both irreps,
    as ``evolve_many`` evolves it; each gate is scored with
    ``frame_scores``.  The commutation checks of the whole batch are made
    first, in at most two stacked calls (``schedule._fill_commutes``), and
    each schedule is then consolidated on its own, reading its own.
    """
    target = _checked_target(target)
    _fill_commutes(schedules)
    form = _evolve_form(schedules)
    gates = {sector: _evolved(form, pair_stack(sector)) for sector in SpinSector}
    return [
        _scorecard(schedule, {
            sector.name: frame_scores(gates[sector][k], target, projector(sector)) for sector in SpinSector
        })
        for k, schedule in enumerate(schedules)
    ]


def table_rows(which: int, cancel: bool = False) -> list[SynthesisReport]:
    """Reports behind the two CNOT benchmark tables, scored in one batch (``report_many``).

    Table 1 is the spin-independent construction at n = 3, 5, 9; table 2
    the spin-1 optimized one at n = 2, 3, 4.  With ``cancel`` the
    negative coefficients of the Hamiltonian pulses are first removed with
    the all-transposition sum, which is central in each irrep and so
    changes the simulated unitary by a pure per-sector phase: time grows
    by the canceled magnitude, fidelity and leakage stay put.
    """
    tables = {1: ((3, 5, 9), cnot_spin_independent), 2: ((2, 3, 4), cnot_spin1)}
    ns, builder = tables[_checked_int(which, "table", range(1, 3))]
    schedules = [builder(n) for n in ns]
    if cancel:
        schedules = [cancel_negatives(schedule) for schedule in schedules]
    return report_many(schedules)


def _row_cells(r: SynthesisReport) -> tuple[str, str, str, str, str]:
    return (
        str(r.n),
        str(r.cycles),
        f"{r.normalized_time:.1f}",
        f"{r.fidelity['SPIN1']:.5f}",
        f"{r.leakage['SPIN1']:.5f}",
    )


_HEADER = ("n", "cycles", "time", "fidelity", "leakage")
_BENCH_NOTE = (
    f"benchmark (exact sequence): {FONG_WANDZURA_CYCLES} cycles, "
    f"normalized time {FONG_WANDZURA_TIME}"
)


def render_markdown(rows: Sequence[SynthesisReport]) -> str:
    lines = [
        "| " + " | ".join(_HEADER) + " |",
        "|" + "|".join("---" for _ in _HEADER) + "|",
    ]
    for r in rows:
        lines.append("| " + " | ".join(_row_cells(r)) + " |")
    lines.append("")
    lines.append(_BENCH_NOTE)
    return "\n".join(lines)


def render_csv(rows: Sequence[SynthesisReport]) -> str:
    lines = [",".join(_HEADER)]
    for r in rows:
        lines.append(",".join(_row_cells(r)))
    return "\n".join(lines)


def render_json(rows: Sequence[SynthesisReport]) -> str:
    payload = {
        "benchmark": {"cycles": FONG_WANDZURA_CYCLES, "time": FONG_WANDZURA_TIME},
        "rows": [
            {key: json.loads(cell) for key, cell in zip(_HEADER, _row_cells(r))}
            for r in rows
        ],
    }
    return json.dumps(payload, indent=1)
