"""Pulse schedules: product formulas, CNOT constructions, and rewrites.

A schedule is an ordered list of steps; each step exponentiates a real
combination of exchange interactions (plus an optional identity phase).
Steps are listed left factor first, so the *rightmost* step acts first on
states and the simulated unitary is the matrix product of the step
unitaries in list order.

The decoupled evolutions follow the first-order product formula

    exp(i a D(H)) ~ Udag ((exp(i dt/2 H) U)^3 exp(i dt H)
                          (Udag exp(i dt/2 H))^3)^n U,    dt = a / 4n,

whose error is O(dt^2); ``_cycle_steps`` repeats a cycle table.  The CNOT
families instantiate it with the cross-block generator N (spin-independent;
12n+3 cycles, 8n+1 at order 0) and the spin-1 optimized generator N1
(10n+1 cycles), both with dt = pi/8n and prefactor exp(-i pi/4 (1 + (12))).
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .encoding import (
    ALL_PAIRS,
    BLOCK_A_PAIRS,
    BLOCK_B_PAIRS,
    CROSS_PAIRS,
    LOCAL_TO_PAULI,
    SpinSector,
    hamiltonian_from_pauli,
)
from .linalg import real_coefficient
from .symrep import rep_transposition

__all__ = [
    "PulseStep",
    "PulseSchedule",
    "CanonicalGateSpec",
    "SWAP_GENERATOR_N",
    "SWAP_GENERATOR_N1",
    "MAX_COEFFICIENT",
    "MAX_ITERATIONS",
    "trotter_product",
    "decoupled_evolution",
    "cnot_spin_independent",
    "cnot_spin1",
    "single_qubit_schedule",
    "canonical_two_qubit_schedule",
    "pair_stack",
    "step_generators",
    "consolidate",
    "cancel_negatives",
    "normalized_time",
    "schedule_to_json",
    "schedule_from_json",
]

_SQ3 = math.sqrt(3.0)

# The two CNOT generators, as coefficient maps on transpositions.
SWAP_GENERATOR_N = {
    (1, 5): 3 * _SQ3 / 4,
    (1, 4): -3 * _SQ3 / 4,
    (2, 5): 3 * _SQ3 / 4,
    (2, 4): -3 * _SQ3 / 4,
}
SWAP_GENERATOR_N1 = {
    (5, 6): _SQ3 / 4,
    (4, 6): -_SQ3 / 4,
    (3, 4): 3 * _SQ3 / 4,
    (3, 5): -3 * _SQ3 / 4,
}


def _normalize_pair(pair: Iterable[int]) -> tuple[int, int]:
    i, j = sorted(int(v) for v in pair)
    if not (1 <= i < j <= 6):
        raise ValueError(f"not a transposition pair of six spins: {reprlib.repr((i, j))}")
    return i, j


@dataclass(frozen=True)
class PulseStep:
    """One exponential factor exp(i sum_c c_ij (i j) + i phase).

    Coefficients are radians on transpositions; zero coefficients are not
    stored, and pairs are kept sorted so equal steps compare equal.
    """

    pairs: tuple[tuple[int, int], ...]
    coeffs: tuple[float, ...]
    phase: float = 0.0

    @classmethod
    def make(cls, coeffs: Mapping[tuple[int, int], float], phase: float = 0.0) -> "PulseStep":
        merged: dict[tuple[int, int], float] = {}
        for p, c in coeffs.items():
            key = _normalize_pair(p)
            merged[key] = merged.get(key, 0.0) + (c if type(c) is float else real_coefficient(c))
        items = sorted((p, c) for p, c in merged.items() if c != 0.0)
        phase = phase if type(phase) is float else real_coefficient(phase)
        return cls(tuple(p for p, _ in items), tuple(c for _, c in items), phase)

    @cached_property
    def _hash(self) -> int:
        return hash((self.pairs, self.coeffs, self.phase))

    def __hash__(self) -> int:
        # Computed once: steps are dict keys on every per-step lookup.
        return self._hash

    def coefficients(self) -> dict[tuple[int, int], float]:
        return dict(zip(self.pairs, self.coeffs))

    def scaled(self, factor: float) -> "PulseStep":
        return PulseStep.make(
            {p: c * factor for p, c in zip(self.pairs, self.coeffs)}, self.phase * factor
        )

    def max_coefficient(self) -> float:
        """Largest coefficient magnitude, identity phase excluded."""
        return max((abs(c) for c in self.coeffs), default=0.0)

    def is_cross_block(self) -> bool:
        return any(p in CROSS_PAIRS for p in self.pairs)


@dataclass(frozen=True)
class PulseSchedule:
    """An ordered pulse sequence with construction metadata.

    Its interned form (``_interned``) and product plan (``_product_levels``)
    are computed on first use and kept on the instance, as ``PulseStep._hash``
    is.  They are not fields: equality, hashing and JSON see only the steps
    and metadata, and ``replace`` makes a schedule that computes its own.
    """

    steps: tuple[PulseStep, ...]
    name: str = "schedule"
    order: int = 1
    n: int = 1

    def __len__(self) -> int:
        return len(self.steps)

    @cached_property
    def _interned(self) -> tuple[tuple[PulseStep, ...], tuple[int, ...]]:
        """(distinct steps, id sequence), with ``distinct[seq[i]] == steps[i]``.

        Ids follow first occurrence, and ``distinct`` holds each step's first
        occurrence.  This is the one place a schedule's steps are hashed; the
        per-step passes of every layer read the ids.
        """
        ids: dict[PulseStep, int] = {}
        seq = tuple([ids.setdefault(step, len(ids)) for step in self.steps])
        return tuple(ids), seq

    @cached_property
    def _product_levels(self) -> tuple[tuple[tuple[tuple[int, int], ...], int | None], ...]:
        """``evolve``'s pairwise product plan: (distinct id pairs, carried id) per level.

        A level pairs neighbouring ids (0, 1), (2, 3), ... of the one below;
        each distinct pair gets the next id, first occurrence first, and an
        odd last id is carried up as the id after them.  It depends on the
        ids alone, so it is walked once per schedule, not once per stack.
        """
        seq = self._interned[1]
        levels = []
        while len(seq) > 1:
            pairs: dict[tuple[int, int], int] = {}
            level = [pairs.setdefault(pair, len(pairs)) for pair in zip(seq[::2], seq[1::2])]
            carry = seq[-1] if len(seq) % 2 else None
            if carry is not None:
                level.append(len(pairs))
            levels.append((tuple(pairs), carry))
            seq = level
        return tuple(levels)


def _merge_steps(a: PulseStep, b: PulseStep) -> PulseStep:
    coeffs = a.coefficients()
    for p, c in b.coefficients().items():
        coeffs[p] = coeffs.get(p, 0.0) + c
    return PulseStep.make(coeffs, a.phase + b.phase)


# Largest iteration count a builder accepts.  Cost is linear in n: at
# n = 10000, `exgates synthesize cnot` takes 5.1 s on a 2-vCPU VM, writes a
# 40 MB file and peaks at 127 MB RSS.
MAX_ITERATIONS = 10_000


def _check_iterations(n: int) -> None:
    if not 1 <= n <= MAX_ITERATIONS:
        raise ValueError(f"iteration count must be between 1 and {MAX_ITERATIONS}, got {reprlib.repr(n)}")


def trotter_product(
    terms: Sequence[Mapping[tuple[int, int], float]],
    alpha: float,
    n: int,
    order: int = 1,
) -> PulseSchedule:
    """Product-formula schedule approximating exp(i alpha sum(terms)).

    Each term is a pair map, transposition (i, j) to its real coefficient.
    Order 0 is the plain exponential product with error O(1/n); order 1 is
    the symmetrized split with error O(1/n^2).  A single term is exact.
    """
    if not terms:
        raise ValueError("need at least one term")
    _check_iterations(n)
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    steps: list[PulseStep] = []
    terms = [PulseStep.make(t) for t in terms]
    if order == 0:
        cycle = [t.scaled(alpha / n) for t in terms]
    else:
        head = [t.scaled(alpha / (2 * n)) for t in terms[1:]]
        cycle = list(reversed(head)) + [terms[0].scaled(alpha / n)] + head
    for _ in range(n):
        steps.extend(cycle)
    return PulseSchedule(tuple(steps), name="trotter-product", order=order, n=n)


def _decoupler_step(weight: float, pairs: Iterable[tuple[int, int]]) -> PulseStep:
    """Step exp(i weight/3 sum(pairs)): a block sum, or part of one."""
    return PulseStep.make({p: weight / 3.0 for p in pairs})


# Decoupled cycles, left factor first: a number w is the Hamiltonian step
# scaled by dt * w, a name a decoupler step and a primed name its inverse.
_ORDER1_CYCLE = (0.5, "u") * 3 + (1,) + ("u'", 0.5) * 3
# conjugation order {U^2, U, 1, U^dag} written out per iteration
_ORDER0_CYCLE = ("u2", 1, "u2'", "u", 1, "u'", 1, "u'", 1, "u")
_SPIN1_CYCLE = (0.5, "ub", 0.5, "ub'", "ua", 1, "ub", 1, "ua'", 0.5, "ub'", 0.5)
_DECOUPLED_CYCLES = {1: (("u'",), _ORDER1_CYCLE, ("u",)), 0: ((), _ORDER0_CYCLE, ())}


def _cycle_steps(
    h: Mapping[tuple[int, int], float], dt: float, decouplers: Mapping[str, tuple],
    cycle: Sequence, n: int, prefix: Sequence = (), suffix: Sequence = (),
) -> tuple[PulseStep, ...]:
    """Steps of ``prefix``, then ``cycle`` n times, then ``suffix``.

    ``decouplers`` maps a name to the (weight, pairs) of its ``_decoupler_step``,
    built only if a factor uses it.  Each distinct factor is one ``PulseStep``
    object, shared by all its occurrences, so interning never compares copies.
    """
    h_step = PulseStep.make(h)
    factors = {*prefix, *cycle, *suffix}
    made = {k: _decoupler_step(*spec) for k, spec in decouplers.items() if {k, k + "'"} & factors}
    for f in factors - made.keys():
        made[f] = made[f[:-1]].scaled(-1.0) if isinstance(f, str) else h_step.scaled(dt * f)
    # joined as lists: joining tuples grew peak RSS by ~0.6 MB over 1600 rebuilds
    head, body, tail = ([made[f] for f in fs] for fs in (prefix, cycle, suffix))
    return tuple(head + body * n + tail)


def decoupled_evolution(
    h: Mapping[tuple[int, int], float],
    alpha: float,
    n: int,
    *,
    order: int = 1,
    drop_from_decoupler: Iterable[tuple[int, int]] = (),
) -> PulseSchedule:
    """Schedule approximating exp(i alpha D(rep(h))) by decoupled pulses.

    ``h`` is a pair map, transposition (i, j) to its real coefficient.
    ``drop_from_decoupler`` removes local transpositions from the
    decoupler generator; this is exact whenever the dropped transpositions
    commute with h, since their phase factors then cancel in pairs.  The
    cycle is ``_DECOUPLED_CYCLES[order]`` with dt = alpha/4n; unless h
    commutes with U, consolidation leaves 12n+3 cycles (order 1) or 8n+1.
    """
    _check_iterations(n)
    drop = {_normalize_pair(p) for p in drop_from_decoupler}
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    prefix, cycle, suffix = _DECOUPLED_CYCLES[order]
    pairs = [p for p in BLOCK_A_PAIRS + BLOCK_B_PAIRS if p not in drop]
    decouplers = {"u": (np.pi / 2, pairs), "u2": (np.pi, pairs)}
    steps = _cycle_steps(h, alpha / (4 * n), decouplers, cycle, n, prefix, suffix)
    return PulseSchedule(steps, name="decoupled-evolution", order=order, n=n)


_CNOT_PREFACTOR = PulseStep.make({(1, 2): -np.pi / 4}, phase=-np.pi / 4)


def cnot_spin_independent(n: int, order: int = 1) -> PulseSchedule:
    """Trotterized spin-independent CNOT at n iterations.

    The decoupler omits (12), which commutes with the generator, matching
    the planar interaction geometry; the local prefactor
    exp(-i pi/4 (1 + (12))) turns the decoupled evolution into CNOT on the
    computational subspace of both sectors.
    """
    core = decoupled_evolution(
        SWAP_GENERATOR_N, np.pi / 2, n, order=order, drop_from_decoupler=[(1, 2)]
    )
    return PulseSchedule((_CNOT_PREFACTOR,) + core.steps, name="cnot-independent", order=order, n=n)


def cnot_spin1(n: int) -> PulseSchedule:
    """Spin-1 optimized Trotterized CNOT at n iterations.

    The generator commutes with its own block-b conjugate, and its block-a
    conjugate commutes with the conjugate by both decouplers, so the
    symmetric split collapses to the twelve-factor cycle ``_SPIN1_CYCLE``,
    (T^1/2 Ub T^1/2 Ub' Ua T Ub T Ua' T^1/2 Ub' T^1/2)^n with dt = pi/8n
    (10n+1 cycles); (12) is dropped from Ua: it commutes with the generator.
    """
    _check_iterations(n)
    decouplers = {"ua": (np.pi, ((1, 3), (2, 3))), "ub": (np.pi, BLOCK_B_PAIRS)}
    steps = _cycle_steps(SWAP_GENERATOR_N1, np.pi / (8 * n), decouplers, _SPIN1_CYCLE, n)
    return PulseSchedule((_CNOT_PREFACTOR,) + steps, name="cnot-spin1", order=1, n=n)


def _local_step(axis: str, block: int, angle: float) -> PulseStep:
    """exp(i angle X) or exp(i angle Z) on one block's qubit.

    Uses the (12),(13) entry of the within-block dictionary
    ``LOCAL_TO_PAULI``, shifted to (45),(46) for block two.
    """
    pairs, coeff = LOCAL_TO_PAULI[0]
    offset = 0 if block == 1 else 3
    row = coeff["xz".index(axis)]
    return PulseStep.make(
        {(i + offset, j + offset): angle * c for (i, j), c in zip(pairs, row)}
    )


def _local_factor_steps(factors: Sequence[tuple[str, int, float]]) -> list[PulseStep]:
    """Steps of ("x" | "z", block, angle) factors; zero angles give no step but are checked too."""
    for axis, block, _ in factors:
        if axis not in ("x", "z") or block not in (1, 2):
            raise ValueError(f"local factors must be x or z on block 1 or 2: {axis!r}, {block!r}")
    return [_local_step(axis, block, angle) for axis, block, angle in factors if angle != 0.0]


def single_qubit_schedule(
    block: int, alpha: float, beta: float, gamma: float, delta: float = 0.0
) -> PulseSchedule:
    """Local gate exp(i d) exp(i a X) exp(i b Z) exp(i g X) on one qubit.

    Realized through the within-block dictionary (X from the pair
    (12),(13) or (45),(46); Z from minus the first local transposition),
    so the action is identical in both sectors.
    """
    steps = _local_factor_steps(
        (("x", block, alpha), ("z", block, beta), ("x", block, gamma))
    )
    if delta != 0.0:
        if steps:
            steps[0] = replace(steps[0], phase=steps[0].phase + delta)
        else:
            steps.append(PulseStep.make({}, delta))
    return PulseSchedule(tuple(steps), name=f"local-block{block}", order=1, n=1)


@dataclass(frozen=True)
class CanonicalGateSpec:
    """Canonical two-qubit gate data: K1 exp(i(a XX + b YY + c ZZ)) K2.

    The local factors are sequences of ("x" | "z", block, angle) Pauli
    exponentials, leftmost factor applied last.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    k1: tuple[tuple[str, int, float], ...] = ()
    k2: tuple[tuple[str, int, float], ...] = ()


_INDEPENDENT_ANGLES = (-np.pi / 2, 0.0, np.pi / 2)


def _xx_conjugator(sign: float) -> PulseStep:
    theta = sign * np.pi / 4
    return _merge_steps(_local_step("x", 1, theta), _local_step("x", 2, theta))


def canonical_two_qubit_schedule(
    gate: CanonicalGateSpec, n: int, sector: SpinSector | None = None
) -> PulseSchedule:
    """Schedule for a canonical two-qubit gate via decoupled evolution.

    With ``sector`` given, the entangling exponentials use that sector's
    exchange dictionary and the gate is exact there up to Trotter error.
    With ``sector=None`` the schedule is sector-independent, which
    restricts the canonical angles to multiples of pi/2 (the two sectors'
    exponentials then agree because the cross-block scaling -3 only shifts
    the phase by full periods).

    The YY factor is realized by conjugating a ZZ evolution with
    exp(i pi/4 (XI + IX)).
    """
    _check_iterations(n)
    independent = sector is None
    basis_sector = SpinSector.SPIN1 if independent else sector
    if independent:
        for angle in (gate.alpha, gate.beta, gate.gamma):
            if not any(abs(angle - v) <= 1e-12 for v in _INDEPENDENT_ANGLES):
                raise ValueError(
                    "sector-independent mode requires canonical angles in "
                    f"{{-pi/2, 0, pi/2}}; got {angle}"
                )

    steps = _local_factor_steps(gate.k1)
    for angle, word, conjugated in (
        (gate.alpha, "XX", False), (gate.beta, "ZZ", True), (gate.gamma, "ZZ", False)
    ):
        if angle != 0.0:
            h = hamiltonian_from_pauli({word: 1.0}, basis_sector)
            core = decoupled_evolution(h, angle, n).steps
            if conjugated:
                core = (_xx_conjugator(+1.0), *core, _xx_conjugator(-1.0))
            steps.extend(core)
    steps.extend(_local_factor_steps(gate.k2))
    return PulseSchedule(tuple(steps), name="canonical-gate", order=1, n=n)


_PAIR_INDEX = {pair: k for k, pair in enumerate(ALL_PAIRS)}


@lru_cache(maxsize=None)
def pair_stack(sector: SpinSector) -> np.ndarray:
    """The 15 transposition matrices of a sector's irrep, (15, dim, dim) in ALL_PAIRS order."""
    stack = np.stack(
        [rep_transposition(sector.partition, *pair) for pair in ALL_PAIRS]
    )
    stack.setflags(write=False)
    return stack


def step_generators(steps: Sequence[PulseStep], stack: np.ndarray) -> np.ndarray:
    """Generators sum_c c_ij P_ij of k steps as a (k, d, d) stack.

    ``stack`` is (15, d, d) in ALL_PAIRS order.  This is the one
    coefficient-to-matrix path; the identity phase is left out.  Each row
    is its own matrix-vector product ``coeffs @ stack.reshape(15, d*d)``,
    the one ``tensordot`` makes; a single (k, 15) @ (15, d*d) matrix
    product would round some entries differently in the last place and
    move F and L by up to 3e-12 at n = 200.
    """
    coeffs = np.zeros((len(steps), len(ALL_PAIRS)))
    for row, step in zip(coeffs, steps):
        for pair, c in zip(step.pairs, step.coeffs):
            row[_PAIR_INDEX[pair]] += c
    flat = stack.reshape(len(ALL_PAIRS), -1)
    out = np.empty((len(steps), flat.shape[1]))
    for row, into in zip(coeffs, out):
        np.matmul(row, flat, out=into)
    return out.reshape(len(steps), *stack.shape[1:])


def _generators_commute(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> np.ndarray:
    """Per row, whether steps a[k] and b[k] commute in every sector.

    ``a`` and ``b`` hold one (k, d, d) generator stack per sector.  A pair
    commutes unless a commutator entry exceeds 1e-12 * max(1, |ga| |gb|),
    |g| the largest entry magnitude.
    """
    commute = np.ones(len(a[0]), dtype=bool)
    for ga, gb in zip(a, b):
        scale = np.maximum(1.0, np.abs(ga).max(axis=(1, 2)) * np.abs(gb).max(axis=(1, 2)))
        commute &= ~(np.abs(ga @ gb - gb @ ga).max(axis=(1, 2)) > 1e-12 * scale)
    return commute


def consolidate(schedule: PulseSchedule) -> PulseSchedule:
    """Greedy left-to-right merge of adjacent commuting steps.

    The merged step sums coefficient maps and identity phases; the
    simulated unitary is unchanged.  The resulting step count is the
    clock-cycle count of the schedule.

    The walk runs on the schedule's interned ids (``_interned``), so no
    input step is hashed in it; the id table is seeded from its distinct
    steps and grows only by merged steps.  Every distinct
    adjacent pair of input steps is decided up front by one stacked
    commutator check per irrep, on generators built once per distinct
    step.  Each distinct transition (last merged id, next id) is then
    resolved once per call, to the merged step and its id (interned
    through the same dict, its generators built once) or to no merge; a
    transition from a merged step falls back to the same check.  A
    schedule of repeated cycles thus merges once per distinct pair, not
    once per step.  Unmerged steps are passed through as given.  All
    tables live only for the call, so schedules of fresh steps do not
    grow memory across calls.
    """
    stacks = [pair_stack(s) for s in SpinSector]
    distinct, seq = schedule._interned
    ids = {step: i for i, step in enumerate(distinct)}
    generators = [step_generators(distinct, m) for m in stacks]
    pairs = list(dict.fromkeys(zip(seq, seq[1:])))
    left, right = [a for a, _ in pairs], [b for _, b in pairs]
    commuting = dict(zip(pairs, _generators_commute(
        [g[left] for g in generators], [g[right] for g in generators]
    )))
    # per id, its (1, d, d) generator in each irrep; new merged steps append theirs
    rows = [[g[i : i + 1] for g in generators] for i in range(len(distinct))]
    transitions: dict[tuple[int, int], tuple[int, PulseStep] | None] = {}
    undecided = object()
    out_ids: list[int] = []
    out: list[PulseStep] = []
    for b, step in zip(seq, schedule.steps):
        if out:
            key = (out_ids[-1], b)
            to = transitions.get(key, undecided)
            if to is undecided:
                commute = commuting.get(key)
                if commute is None:
                    commute = _generators_commute(rows[key[0]], rows[b])[0]
                to = None
                if commute:
                    merged = _merge_steps(out[-1], step)
                    to = (ids.setdefault(merged, len(ids)), merged)
                    if to[0] == len(rows):
                        rows.append([step_generators((merged,), m) for m in stacks])
                transitions[key] = to
            if to is not None:
                out_ids[-1], out[-1] = to
                continue
        out_ids.append(b)
        out.append(step)
    return replace(schedule, steps=tuple(out))


def normalized_time(schedule: PulseSchedule) -> float:
    """Summed per-step maximum coefficient magnitude in swap durations.

    One unit is the duration of a full swap (coefficient pi/2); the
    identity phase does not count toward a step's duration.  Computed on
    the schedule as constructed, before any consolidation: each printed
    exponential factor is one parallel pulse.  Each distinct step's
    maximum is taken once; the per-step values are still added in schedule
    order, so the sum's rounding is that of the plain per-step sum.  The
    widths are a list indexed by the schedule's interned ids.
    """
    distinct, seq = schedule._interned
    widths = [step.max_coefficient() for step in distinct]
    return sum(map(widths.__getitem__, seq)) / (np.pi / 2)


def _cancel_step(step: PulseStep, mode: str) -> PulseStep:
    coeffs = step.coefficients()
    negatives = {p: c for p, c in coeffs.items() if c < 0.0}
    if not negatives:
        return step
    if len(coeffs) == 1:
        # single exchange interaction: shift by full periods
        (pair, c), = coeffs.items()
        shift = 2 * np.pi * math.ceil(-c / (2 * np.pi))
        return PulseStep.make({pair: c + shift}, step.phase)
    if mode == "full-sum":
        m = max(-c for c in negatives.values())
        for p in ALL_PAIRS:
            coeffs[p] = coeffs.get(p, 0.0) + m
    else:  # cross-sum
        cross_neg = [-c for p, c in negatives.items() if p in CROSS_PAIRS]
        if cross_neg:
            m = max(cross_neg)
            for p in CROSS_PAIRS:
                coeffs[p] = coeffs.get(p, 0.0) + m
        for block in (BLOCK_A_PAIRS, BLOCK_B_PAIRS):
            block_neg = [-coeffs[p] for p in block if coeffs.get(p, 0.0) < 0.0]
            if block_neg:
                m = max(block_neg)
                for p in block:
                    coeffs[p] = coeffs.get(p, 0.0) + m
    out = PulseStep.make(coeffs, step.phase)
    if any(c < 0.0 for c in out.coeffs):
        raise AssertionError("cancellation left a negative coefficient")
    return out


def cancel_negatives(schedule: PulseSchedule, mode: str) -> PulseSchedule:
    """Remove negative coefficients from Hamiltonian-bearing steps.

    A step is Hamiltonian-bearing when it involves a cross-block
    transposition.  The added transposition sums act as sector constants
    (full or cross sum) or as zero (block sums) on the computational
    subspace, so the logical action changes by at most a global phase per
    sector; a Hamiltonian step holding a single exchange interaction is
    instead shifted by a full period, which leaves its unitary untouched.
    Purely local steps (decouplers, prefactors, one-qubit factors) are
    left alone; their negatives are reported rather than rewritten.  Each
    distinct step of the schedule's interned form is rewritten once per
    call, and the output is read off by id; it interns its own steps anew.
    """
    if mode not in ("full-sum", "cross-sum"):
        raise ValueError(f"unknown cancellation mode: {mode!r}")
    distinct, seq = schedule._interned
    rewritten = [_cancel_step(s, mode) if s.is_cross_block() else s for s in distinct]
    return replace(schedule, steps=tuple(map(rewritten.__getitem__, seq)))


def schedule_to_json(schedule: PulseSchedule) -> dict:
    return {
        "version": 1,
        "name": schedule.name,
        "order": schedule.order,
        "n": schedule.n,
        "steps": [
            {
                "pairs": [list(p) for p in s.pairs],
                "coeffs": list(s.coeffs),
                "phase": s.phase,
            }
            for s in schedule.steps
        ],
    }


# Largest coefficient magnitude (radians) a schedule file may carry.  The
# rounding error of exp(i h) grows with |h|: on 100-step random schedules
# with coefficients near 1e4 the irrep and oracle F/L agree to about 2e-11,
# near 1e6 only to about 3e-9, within a factor of three of the 1e-8
# cross-check tolerance.  Physical pulses stay within a few pi.
MAX_COEFFICIENT = 1e4


def _json_number(value, what: str) -> float:
    """A finite JSON number; strings, booleans, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {reprlib.repr(value)}")
    return number


def _json_int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return value


def _json_field(data: dict, key: str, kind: type, what: str):
    """``data[key]``, which must be present and a ``kind`` (list or dict)."""
    if key not in data:
        raise ValueError(f"{what} is missing")
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {'a list' if kind is list else 'an object'}")
    return value


def schedule_from_json(data: dict) -> PulseSchedule:
    """Validated schedule from its JSON object; any fault raises one ``ValueError``.

    Each message names the field, and for a step its index, and what was
    expected; callers add their own prefix.
    """
    if not isinstance(data, dict):
        raise ValueError(f"schedule JSON must be an object, got {type(data).__name__}")
    version = _json_int(data.get("version"), "version")
    if version != 1:
        raise ValueError(f"unsupported schedule version: {reprlib.repr(version)}")
    steps = []
    for k, s in enumerate(_json_field(data, "steps", list, "steps")):
        if not isinstance(s, dict):
            raise ValueError(f"step {k} must be an object")
        pairs = []
        for p in _json_field(s, "pairs", list, f"step {k} pairs"):
            if not isinstance(p, list) or len(p) != 2:
                raise ValueError(f"step {k} pair {reprlib.repr(p)} must have two entries")
            pairs.append(_normalize_pair(_json_int(v, f"step {k} pair entry") for v in p))
        coeffs = [
            _json_number(c, f"step {k} coefficient")
            for c in _json_field(s, "coeffs", list, f"step {k} coeffs")
        ]
        if len(pairs) != len(coeffs):
            raise ValueError(f"step {k}: pairs and coeffs differ in length")
        if len(set(pairs)) != len(pairs):
            raise ValueError(f"step {k}: a pair is listed twice")
        phase = _json_number(s.get("phase", 0.0), f"step {k} phase")
        step = PulseStep.make(dict(zip(pairs, coeffs)), phase)
        if step.max_coefficient() > MAX_COEFFICIENT:
            raise ValueError(f"step {k}: coefficient magnitude above {MAX_COEFFICIENT:g}")
        steps.append(step)
    order = _json_int(data.get("order", 1), "order")
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {reprlib.repr(order)}")
    n = _json_int(data.get("n", 1), "n")
    _check_iterations(n)
    name = data.get("name", "schedule")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {reprlib.repr(name)}")
    return PulseSchedule(tuple(steps), name=name, order=order, n=n)


def save_schedule(schedule: PulseSchedule, path) -> None:
    with open(path, "w") as fh:
        json.dump(schedule_to_json(schedule), fh, indent=1)
        fh.write("\n")


def load_schedule(path) -> PulseSchedule:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError("schedule JSON is nested too deeply") from exc
    return schedule_from_json(data)
