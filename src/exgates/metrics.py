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
Pi_perp).  ``frame_scores`` takes one gate or a stack of them, so
``report_many`` scores a batch in one call per sector; a scorecard's
cycles, time and negative steps are read off the schedule's run form and
coefficient rows without building its consolidated schedule.  A batch's
step widths and flags are read in one pass over its evolve form's rows
(``schedule._step_facts``) and summed over each schedule's batch-id run
form.
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
    _run_sums,
    _step_facts,
    pair_stack,
    row_generators,
)
from .trotter import _checked_int, _cycles, cancel_negatives, cnot_spin1, cnot_spin_independent

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
    rows, finals, slots = form.rows, form.finals, form.slots
    chunk = _chunk(d)
    pool = np.empty((slots, d, d), dtype=complex)
    steps = pool[: len(rows)]
    for start in range(0, len(rows), chunk):
        part = slice(start, start + chunk)
        u = expi(row_generators(rows[part], stack))
        steps[part] = np.where(form.phased[part, None, None], form.phases[part, None, None] * u, u)
    node = len(rows)
    for left, right in form.levels:
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
) -> tuple[float, float] | list[tuple[float, float]]:
    """(F, L) of a d x d gate, or a list of them for an (S, d, d) stack, against a 4 x 4 target.

    The one F/L formula, through a 4 x d frame: each gate of a stack scores
    bit for bit as it does alone, so a batch is scored in one call.  Its products are per-gate
    matrix products; the trace sums each diagonal in the order a 2-d
    ``np.trace`` does; the squared leakage norm is two (S, 1, n) @ (S, n, 1)
    products on the ``.real`` and ``.imag`` views, the strided dot
    ``np.linalg.norm`` takes on one gate (a sum or einsum over contiguous
    copies rounds otherwise).  The last steps run per gate on Python
    floats, whose ``abs`` and ``** 2`` round as a numpy scalar's do and an
    array's do not.
    """
    gate = np.asarray(gate)
    gates = gate if gate.ndim == 3 else gate[None]
    back = frame.conj().T
    v = gates @ back
    g = frame @ v
    overlaps = np.trace(np.asarray(target).conj().T @ g, axis1=1, axis2=2)
    leaked = (v - back @ g).reshape(len(gates), 1, frame.size)
    re, im = leaked.real, leaked.imag
    norms = np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])
    scores = [(abs(o / 4.0) ** 2, n**2 / 4.0) for o, n in zip(overlaps.tolist(), norms.tolist())]
    return scores if gate.ndim == 3 else scores[0]


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


def _scorecard(
    schedule: PulseSchedule, scores: dict[str, tuple[float, float]], sums: tuple[float, int]
) -> SynthesisReport:
    """The report of a schedule from its (F, L) per sector name and its ``_run_sums``: adds cycles.

    Cycles are ``trotter._cycles``, counted on the consolidation walk's
    output run form with no consolidated schedule built.  ``sums`` is the
    schedule's (time, negative local steps): ``report`` reads them in one
    ``_step_facts`` pass over the schedule's coefficient rows (``_rows``),
    which its evolve has built already, and ``report_many`` in one pass
    over the whole batch's rows.
    """
    time, negatives = sums
    return SynthesisReport(
        name=schedule.name,
        n=schedule.n,
        cycles=_cycles(schedule),
        normalized_time=time,
        fidelity={name: f for name, (f, _) in scores.items()},
        leakage={name: leak for name, (_, leak) in scores.items()},
        negative_local_steps=negatives,
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
    the consolidated step count as cycles (``trotter._cycles``), the
    normalized time and the negative local steps; see ``SynthesisReport``.
    ``report_many`` scores several schedules at once, to the same bits.
    """
    target = _checked_target(target)
    scores = {
        sector.name: frame_scores(simulate(schedule, sector), target, projector(sector)) for sector in SpinSector
    }
    return _scorecard(schedule, scores, _run_sums(schedule._interned[1], _step_facts(schedule._rows)))


def report_many(
    schedules: Sequence[PulseSchedule], target: np.ndarray | None = None
) -> list[SynthesisReport]:
    """``[report(s, target) for s in schedules]``, equal to the bit, scored as arrays.

    The batch's ``_evolve_form`` is built once and evolved in both irreps,
    as ``evolve_many`` evolves it, and each sector's (S, d, d) gate stack
    is scored in one ``frame_scores`` call.  The step widths and flags of
    the whole batch are read in one ``_step_facts`` pass over the form's
    rows, and each schedule's time and negative count are summed over its
    batch-id run form (``form.runs``), to the bits of its own.  The
    commutation checks of the whole batch are made first, in at most two
    stacked calls (``schedule._fill_commutes``); each schedule's cycles are
    then counted on its own walk, reading its own (``_scorecard``).  An
    empty schedule scores its identity gate.
    """
    target = _checked_target(target)
    _fill_commutes(schedules)
    form = _evolve_form(schedules)
    facts = _step_facts(form.rows)
    scores = {
        sector.name: frame_scores(_evolved(form, pair_stack(sector)), target, projector(sector))
        for sector in SpinSector
    }
    return [
        _scorecard(schedule, {name: per_gate[k] for name, per_gate in scores.items()}, _run_sums(run, facts))
        for k, (schedule, run) in enumerate(zip(schedules, form.runs))
    ]


def table_rows(which: int, cancel: bool = False) -> list[SynthesisReport]:
    """Reports behind the two CNOT benchmark tables, scored in one batch (``report_many``).

    Table 1 is the spin-independent construction at n = 3, 5, 9; table 2
    the spin-1 optimized one at n = 2, 3, 4.  With ``cancel`` the
    negative coefficients of the Hamiltonian pulses are first removed with
    the all-transposition sum, which is central in each irrep and so
    changes the simulated unitary by a pure per-sector phase: time grows
    by the canceled magnitude, fidelity and leakage stay put.  ``cancel``
    must be a bool, numpy's included (``ValueError`` otherwise).
    """
    tables = {1: ((3, 5, 9), cnot_spin_independent), 2: ((2, 3, 4), cnot_spin1)}
    ns, builder = tables[_checked_int(which, "table", range(1, 3))]
    if not isinstance(cancel, (bool, np.bool_)):
        raise ValueError(f"cancel must be True or False, got {reprlib.repr(cancel)}")
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
