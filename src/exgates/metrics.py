"""Schedule scoring: simulation, entanglement fidelity, leakage, tables.

Simulation and scoring work on plain arrays, so the 5- and 9-dim irreps
and the oracle's 9- and 5-dim frame closures share one code path: a
schedule is evolved on a (15, d, d) stack of transposition matrices
(``evolve``, a pairwise product that multiplies each distinct adjacent pair
once per level, so repeated cycles cost O(log n) levels), and a gate is
scored through a 4 x d frame Pi whose rows are the computational states
(``frame_scores``).  With the frame compression

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import SpinSector, projector
from .linalg import expi
from .trotter import (
    PulseSchedule,
    cancel_negatives,
    cnot_spin1,
    cnot_spin_independent,
    consolidate,
    normalized_time,
    pair_stack,
    step_generators,
)

__all__ = [
    "CNOT",
    "FONG_WANDZURA_CYCLES",
    "FONG_WANDZURA_TIME",
    "SynthesisReport",
    "evolve",
    "simulate",
    "frame_scores",
    "entanglement_fidelity",
    "leakage",
    "report",
    "table_rows",
    "render_markdown",
    "render_csv",
    "render_json",
]

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

# Benchmark constants of the exact spin-independent CNOT sequence used for
# comparison in the tables (not recomputed here).
FONG_WANDZURA_CYCLES = 13
FONG_WANDZURA_TIME = 12.3

# Distinct steps exponentiated per batched ``expi`` call in ``evolve``.  The
# largest stack is 9-dim (the spin-1 irrep and the oracle's spin-1 closure),
# where a chunk of 8 is 10 KB of complex temporaries, far below glibc's
# 128 KiB mmap threshold.  The value was set on the oracle's former 20-dim
# block, where one stack of 100 steps (640 KB a temporary) raised the
# benchmark's peak RSS by 5%; it is kept until a new RSS measurement.
_EXPI_CHUNK = 8


def evolve(schedule: PulseSchedule, stack: np.ndarray) -> np.ndarray:
    """Unitary of a schedule on a (15, d, d) transposition stack (rightmost step first).

    A pairwise product over the schedule's interned form and product plan
    (``PulseSchedule._interned`` and ``_product_levels``), both computed
    once per schedule, so a call hashes no step and pairs no id: for each
    sector or oracle block it only builds and multiplies matrices.  Each
    distinct step's unitary is built once, from its generator and identity
    phase alone, so the step unitaries do not depend on the rest of the
    schedule.  The distinct steps are exponentiated in chunks of at most
    ``_EXPI_CHUNK``, one (k, d, d) generator stack and one batched ``expi``
    call a chunk, each unitary bit for bit the one a per-step call gives; a
    nonzero phase then multiplies its unitary as a scalar, as a broadcast
    multiply over the chunk would not round the same.  Each level of the
    plan multiplies each distinct pair of neighbouring ids once, so a
    schedule of n repeats of a few distinct steps takes O(log n) levels of
    a few products each, not one product per step.  The product is grouped
    differently from a left-to-right one, which moves F and L by rounding
    only: at most 5e-14 on the CNOT families at n = 200.
    """
    distinct, seq = schedule._interned
    if not seq:
        return np.eye(stack.shape[1], dtype=complex)
    mats = []
    for start in range(0, len(distinct), _EXPI_CHUNK):
        chunk = distinct[start : start + _EXPI_CHUNK]
        for step, u in zip(chunk, expi(step_generators(chunk, stack))):
            mats.append(np.exp(1j * step.phase) * u if step.phase else u)
    for pairs, carry in schedule._product_levels:
        products = [mats[a] @ mats[b] for a, b in pairs]
        if carry is not None:
            products.append(mats[carry])
        mats = products
    return mats[0]


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
    return frame_scores(gate, target, projector(sector))[0]


def leakage(gate: np.ndarray, target: np.ndarray, sector: SpinSector) -> float:
    return frame_scores(gate, target, projector(sector))[1]


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


def report(schedule: PulseSchedule, target: np.ndarray | None = None) -> SynthesisReport:
    if target is None:
        target = CNOT
    fid: dict[str, float] = {}
    leak: dict[str, float] = {}
    for sector in SpinSector:
        g = simulate(schedule, sector)
        fid[sector.name], leak[sector.name] = frame_scores(g, target, projector(sector))
    distinct, seq = schedule._interned
    flagged = [not s.is_cross_block() and any(c < 0 for c in s.coeffs) for s in distinct]
    return SynthesisReport(
        name=schedule.name,
        n=schedule.n,
        cycles=len(consolidate(schedule).steps),
        normalized_time=normalized_time(schedule),
        fidelity=fid,
        leakage=leak,
        negative_local_steps=sum(map(flagged.__getitem__, seq)),
    )


def table_rows(which: int, cancel: bool = False) -> list[SynthesisReport]:
    """Reports behind the two CNOT benchmark tables.

    Table 1 is the spin-independent construction at n = 3, 5, 9; table 2
    the spin-1 optimized one at n = 2, 3, 4.  With ``cancel`` the
    negative coefficients of the Hamiltonian pulses are first removed with
    the all-transposition sum, which is central in each irrep and so
    changes the simulated unitary by a pure per-sector phase: time grows
    by the canceled magnitude, fidelity and leakage stay put.
    """
    if which == 1:
        ns, builder = (3, 5, 9), cnot_spin_independent
    elif which == 2:
        ns, builder = (2, 3, 4), cnot_spin1
    else:
        raise ValueError("table must be 1 or 2")
    rows = []
    for n in ns:
        schedule = builder(n)
        if cancel:
            schedule = cancel_negatives(schedule, "full-sum")
        rows.append(report(schedule))
    return rows


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
