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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, islice
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
from .linalg import integer_pair, plain_int, real_coefficient
from .products import product_plan
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
    "row_generators",
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


def _normalize_pair(pair) -> tuple[int, int]:
    i, j = sorted(integer_pair(pair))
    if not (1 <= i < j <= 6):
        raise ValueError(f"not a transposition pair of six spins: {reprlib.repr((i, j))}")
    return i, j


@dataclass(frozen=True, init=False)
class PulseStep:
    """One exponential factor exp(i sum_c c_ij (i j) + i phase).

    Coefficients are radians on transpositions; zero coefficients are not
    stored, and pairs are kept sorted so equal steps compare equal.  Equality
    also compares the sign of a zero phase, so equal steps have equal bits
    and equal JSON; the hash ignores that sign.  ``make`` rejects complex
    coefficients and phases (``TypeError``) and strings, bools, NaN or
    infinite ones (``ValueError``).  ``PulseStep(pairs, coeffs, phase)``, and
    so ``dataclasses.replace``, is ``make(dict(zip(pairs, coeffs)), phase)``;
    a pair listed twice or a coefficient too many or few raises ``ValueError``.
    """

    pairs: tuple[tuple[int, int], ...]
    coeffs: tuple[float, ...]
    phase: float = 0.0

    def __init__(self, pairs: Iterable, coeffs: Iterable, phase: float = 0.0) -> None:
        keys, coeffs = [_normalize_pair(p) for p in pairs], tuple(coeffs)
        if len(keys) != len(coeffs) or len(set(keys)) != len(keys):
            raise ValueError(f"{len(keys)} pairs, {len(coeffs)} coefficients: need one each, no pair twice")
        self.__dict__.update(vars(PulseStep.make(dict(zip(keys, coeffs)), phase)))

    @classmethod
    def make(cls, coeffs: Mapping[tuple[int, int], float], phase: float = 0.0) -> "PulseStep":
        merged: dict[tuple[int, int], float] = {}
        for p, c in coeffs.items():
            key = _normalize_pair(p)
            c = real_coefficient(c, "coefficient")
            # a pair given twice, as (i, j) and (j, i), may sum past the float range
            merged[key] = real_coefficient(merged[key] + c, "coefficient") if key in merged else c
        return cls._of(merged, real_coefficient(phase, "phase"))

    @classmethod
    def _of(cls, coeffs: Mapping[tuple[int, int], float], phase: float) -> "PulseStep":
        """``make`` for derived and loaded steps, float values on normalized pairs: only finiteness is checked."""
        items = sorted([(p, c) for p, c in coeffs.items() if c != 0.0])
        pairs, values = zip(*items) if items else ((), ())
        if not (all(map(math.isfinite, values)) and math.isfinite(phase)):
            bad = next(c for c in (*values, phase) if not math.isfinite(c))
            raise ValueError(f"coefficient must be finite, got {reprlib.repr(bad)}")
        step = object.__new__(cls)  # not through ``__init__``: the values are ``make``'s already
        step.__dict__.update(pairs=pairs, coeffs=values, phase=phase)
        return step

    def __eq__(self, other) -> bool:
        # phases compare as the JSON spells them, so a zero's sign counts (``u.scaled(-1.0)`` has -0.0)
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pairs, self.coeffs, repr(self.phase)) == (other.pairs, other.coeffs, repr(other.phase))

    @cached_property
    def _hash(self) -> int:
        return hash((self.pairs, self.coeffs, self.phase))

    def __hash__(self) -> int:
        # Computed once: steps are dict keys on every per-step lookup.
        return self._hash

    def coefficients(self) -> dict[tuple[int, int], float]:
        return dict(zip(self.pairs, self.coeffs))

    def scaled(self, factor: float) -> "PulseStep":
        factor = real_coefficient(factor, "scale factor")
        return PulseStep._of({p: c * factor for p, c in zip(self.pairs, self.coeffs)}, self.phase * factor)

    def max_coefficient(self) -> float:
        """Largest coefficient magnitude, identity phase excluded."""
        return max((abs(c) for c in self.coeffs), default=0.0)

    def is_cross_block(self) -> bool:
        return any(p in CROSS_PAIRS for p in self.pairs)


class _EvolveForm(NamedTuple):
    """A batch's distinct steps and product plan, read-only, from ``_evolve_form``.

    ``rows`` holds the (k, 15) coefficients in ALL_PAIRS order, ``phases[i]`` step i's
    ``np.exp(1j * phase)`` and ``phased[i]`` whether it is nonzero; the rest is ``product_plan``'s.
    """

    rows: np.ndarray
    phases: np.ndarray
    phased: np.ndarray
    levels: tuple
    finals: list
    slots: int


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PulseSchedule:
    """An ordered pulse sequence with construction metadata; ``steps`` is stored as a tuple.

    Its run form (``_interned``), coefficient rows (``_rows``), evolve form
    (``_form``) and commutation checks (``_commutes``) are derived once, on
    first use, and kept on the instance; ``_form`` and ``_commutes`` can also
    be made for a whole batch.  They are not fields: equality, hashing and
    JSON see only the steps and metadata, and ``replace`` derives anew.

    The run form is ``(distinct, (head, body, reps, tail))``: the ids
    ``head + body * reps + tail`` index the distinct steps in step order.
    The builders, ``schedule_from_json`` and ``consolidate`` keep a repeated
    cycle through ``_of_form``, its only writer; any other schedule has the
    degenerate form, all ids in the tail.  Every per-step pass reads it, so
    a built schedule costs O(cycle) or O(cycle log n) Python steps, not
    O(n).  Only the evolve sees it in its bits: it raises the body's
    product by squaring, so a built gate equals its flat copy's to rounding.
    """

    steps: tuple[PulseStep, ...]
    name: str = "schedule"
    order: int = 1
    n: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def _repeated(cls, head: Sequence, body: Sequence, reps: int, tail: Sequence, **meta) -> "PulseSchedule":
        """The schedule of steps ``head + body * reps + tail`` with its run form (``_interned``) stored."""
        return cls._of_form(_intern(head, body, reps, tail), **meta)

    @classmethod
    def _of_form(cls, form: tuple, **meta) -> "PulseSchedule":
        """The schedule that the run form ``form`` spells, with ``form`` stored as its ``_interned``.

        Repeats are joined as lists: tuples grew peak RSS by ~0.6 MB over 1600 CNOT builds.
        """
        distinct, (head, body, reps, tail) = form
        head, body, tail = ([distinct[i] for i in part] for part in (head, body, tail))
        schedule = cls(head + body * reps + tail, **meta)
        schedule.__dict__["_interned"] = form
        return schedule

    @cached_property
    def _interned(self) -> tuple[tuple[PulseStep, ...], tuple]:
        """The run form, as ``_of_form`` stored it or else the degenerate one."""
        return _intern((), (), 0, self.steps)

    @cached_property
    def _rows(self) -> np.ndarray:
        """``_coefficient_rows`` of the distinct steps, read-only: built once for ``_form`` and ``consolidate``."""
        return _read_only(_coefficient_rows(self._interned[0]))

    @cached_property
    def _form(self) -> _EvolveForm:
        """``_evolve_form((self,))``, built once per schedule: both irreps and both oracle closures read it."""
        return _evolve_form((self,))

    @cached_property
    def _commutes(self) -> dict[tuple, bool]:
        """``consolidate``'s commutation checks on ``_interned``'s ids, ``_fill_commutes`` of the schedule alone."""
        _fill_commutes((self,))
        return self.__dict__["_commutes"]


def _intern(head: Sequence, body: Sequence, reps: int, tail: Sequence) -> tuple[tuple[PulseStep, ...], tuple]:
    """(distinct steps, (head ids, body ids, reps, tail ids)): the run form of ``head + body * reps + tail``.

    An empty body or zero repeats gives the degenerate form.  Ids follow
    first occurrence; equal steps have equal bits, so ``distinct`` spells
    every occurrence.  Only here are a schedule's steps hashed, one body's.
    """
    if not (body and reps):
        head, body, reps, tail = (), (), 0, (*head, *tail)
    ids: dict[PulseStep, int] = {}
    once = tuple([ids.setdefault(step, len(ids)) for step in (*head, *body, *tail)])
    nh, nb = len(head), len(body)
    return tuple(ids), (once[:nh], once[nh : nh + nb], reps, once[nh + nb :])


def _merge_steps(a: PulseStep, b: PulseStep) -> PulseStep:
    coeffs = a.coefficients()
    for p, c in zip(b.pairs, b.coeffs):
        coeffs[p] = coeffs.get(p, 0.0) + c
    return PulseStep._of(coeffs, a.phase + b.phase)


# Largest iteration count a builder accepts.  Cost is linear in n: at
# n = 10000, `exgates synthesize cnot` takes 0.3-0.4 s on a 2-vCPU VM, writes
# a 40 MB file and peaks at 36 MB RSS.  `exgates simulate --oracle` on that
# file takes about 3 s and peaks at 196 MB, most of it `json.load`'s objects.
MAX_ITERATIONS = 10_000
_ITERATIONS = range(1, MAX_ITERATIONS + 1)


def _checked_int(value, what: str, allowed: range) -> int:
    """``value`` as a plain int (``linalg.plain_int``); ``ValueError`` naming ``what`` unless it lies in ``allowed``."""
    value = plain_int(value, what)
    if value not in allowed:
        spelled = " or ".join(map(str, allowed)) if len(allowed) == 2 else f"between {allowed[0]} and {allowed[-1]}"
        raise ValueError(f"{what} must be {spelled}, got {reprlib.repr(value)}")
    return value


def trotter_product(
    terms: Sequence[Mapping[tuple[int, int], float]], alpha: float, n: int, order: int = 1
) -> PulseSchedule:
    """Product-formula schedule approximating exp(i alpha sum(terms)).

    Each term is a pair map, transposition (i, j) to its real coefficient.
    Order 0 is the plain exponential product with error O(1/n); order 1 is
    the symmetrized split with error O(1/n^2).  A single term is exact.
    """
    if not terms:
        raise ValueError("need at least one term")
    n = _checked_int(n, "iteration count", _ITERATIONS)
    order = _checked_int(order, "order", range(2))
    dt = real_coefficient(alpha, "alpha") / n
    terms = [PulseStep.make(t) for t in terms]
    if order == 0:
        cycle = [t.scaled(dt) for t in terms]
    else:
        head = [t.scaled(dt / 2) for t in terms[1:]]
        cycle = list(reversed(head)) + [terms[0].scaled(dt)] + head
    return PulseSchedule._repeated((), cycle, n, (), name="trotter-product", order=order, n=n)


@lru_cache(maxsize=32)
def _decoupler_steps(weight: float, pairs: tuple[tuple[int, int], ...]) -> tuple[PulseStep, PulseStep]:
    """Step exp(i weight/3 sum(pairs)), a block sum or part of one, and its inverse: made once per process."""
    step = PulseStep.make({p: weight / 3.0 for p in pairs})
    return step, step.scaled(-1.0)


# Decoupled cycles, left factor first: a number w is the Hamiltonian step
# scaled by dt * w, a name a decoupler step and a primed name its inverse.
_ORDER1_CYCLE = (0.5, "u") * 3 + (1,) + ("u'", 0.5) * 3
# conjugation order {U^2, U, 1, U^dag} written out per iteration
_ORDER0_CYCLE = ("u2", 1, "u2'", "u", 1, "u'", 1, "u'", 1, "u")
_SPIN1_CYCLE = (0.5, "ub", 0.5, "ub'", "ua", 1, "ub", 1, "ua'", 0.5, "ub'", 0.5)
_DECOUPLED_CYCLES = {1: (("u'",), _ORDER1_CYCLE, ("u",)), 0: ((), _ORDER0_CYCLE, ())}


def _cycle_steps(
    h: Mapping[tuple[int, int], float] | PulseStep, dt: float, decouplers: Mapping[str, tuple],
    cycle: Sequence, prefix: Sequence = (), suffix: Sequence = (),
) -> tuple[list[PulseStep], list[PulseStep], list[PulseStep]]:
    """The steps of ``prefix``, ``cycle`` and ``suffix``: a run form's head, body and tail.

    ``decouplers`` maps a name to the (weight, pairs) of its ``_decoupler_steps``, made once per
    process as ``_STEP_N`` and ``_STEP_N1`` are; only h scaled by dt is made per call.  Each factor
    is one object for all its occurrences, so interning never compares copies.
    """
    h = h if isinstance(h, PulseStep) else PulseStep.make(h)
    made = {f: h.scaled(dt * f) for f in {*prefix, *cycle, *suffix} if not isinstance(f, str)}
    for k, spec in decouplers.items():
        made[k], made[k + "'"] = _decoupler_steps(*spec)
    return tuple([made[f] for f in fs] for fs in (prefix, cycle, suffix))


def _decoupled_cycle(h: Mapping | PulseStep, alpha: float, n, order, drop_from_decoupler) -> tuple:
    """The checked n and order, and the head, body and tail of ``decoupled_evolution``; h may be a step."""
    n = _checked_int(n, "iteration count", _ITERATIONS)
    drop = {_normalize_pair(p) for p in drop_from_decoupler}
    if stray := sorted(drop.difference(BLOCK_A_PAIRS + BLOCK_B_PAIRS)):
        raise ValueError(f"drop_from_decoupler: {stray[0]} is not a decoupler pair")
    order = _checked_int(order, "order", range(2))
    prefix, cycle, suffix = _DECOUPLED_CYCLES[order]
    pairs = tuple(p for p in BLOCK_A_PAIRS + BLOCK_B_PAIRS if p not in drop)
    decouplers = {"u": (np.pi / 2, pairs), "u2": (np.pi, pairs)}
    return n, order, _cycle_steps(h, real_coefficient(alpha, "alpha") / (4 * n), decouplers, cycle, prefix, suffix)


def decoupled_evolution(
    h: Mapping[tuple[int, int], float], alpha: float, n: int, *,
    order: int = 1, drop_from_decoupler: Iterable[tuple[int, int]] = (),
) -> PulseSchedule:
    """Schedule approximating exp(i alpha D(rep(h))) by decoupled pulses.

    ``h`` is a pair map, transposition (i, j) to its real coefficient; its
    step is made on each call, the decoupler steps once per process.
    ``drop_from_decoupler`` removes block pairs from the decoupler generator
    (any other pair raises ``ValueError``); this is exact whenever they
    commute with h, since their phase factors then cancel in pairs.  The
    cycle is ``_DECOUPLED_CYCLES[order]`` with dt = alpha/4n; unless h
    commutes with U, consolidation leaves 12n+3 cycles (order 1) or 8n+1.
    """
    n, order, (head, body, tail) = _decoupled_cycle(h, alpha, n, order, drop_from_decoupler)
    return PulseSchedule._repeated(head, body, n, tail, name="decoupled-evolution", order=order, n=n)


_CNOT_PREFACTOR = PulseStep.make({(1, 2): -np.pi / 4}, phase=-np.pi / 4)
# the CNOT generators' steps, made once; ``_cycle_steps`` scales them per call
_STEP_N, _STEP_N1 = PulseStep.make(SWAP_GENERATOR_N), PulseStep.make(SWAP_GENERATOR_N1)


def cnot_spin_independent(n: int, order: int = 1) -> PulseSchedule:
    """Trotterized spin-independent CNOT at n iterations.

    The decoupler omits (12), which commutes with the generator, matching
    the planar interaction geometry; the local prefactor
    exp(-i pi/4 (1 + (12))) turns the decoupled evolution into CNOT on the
    computational subspace of both sectors.  Only the generator's scaled
    steps are made per call: the other steps are the same objects at every n.
    """
    n, order, (head, body, tail) = _decoupled_cycle(_STEP_N, np.pi / 2, n, order, [(1, 2)])
    return PulseSchedule._repeated([_CNOT_PREFACTOR, *head], body, n, tail, name="cnot-independent", order=order, n=n)


def cnot_spin1(n: int) -> PulseSchedule:
    """Spin-1 optimized Trotterized CNOT at n iterations.

    The generator commutes with its own block-b conjugate, and its block-a
    conjugate commutes with the conjugate by both decouplers, so the
    symmetric split collapses to the twelve-factor cycle ``_SPIN1_CYCLE``,
    (T^1/2 Ub T^1/2 Ub' Ua T Ub T Ua' T^1/2 Ub' T^1/2)^n with dt = pi/8n
    (10n+1 cycles); (12) is dropped from Ua: it commutes with the generator.
    """
    n = _checked_int(n, "iteration count", _ITERATIONS)
    decouplers = {"ua": (np.pi, ((1, 3), (2, 3))), "ub": (np.pi, BLOCK_B_PAIRS)}
    _, body, _ = _cycle_steps(_STEP_N1, np.pi / (8 * n), decouplers, _SPIN1_CYCLE)
    return PulseSchedule._repeated((_CNOT_PREFACTOR,), body, n, (), name="cnot-spin1", order=1, n=n)


def _local_step(axis: str, block: int, angle: float) -> PulseStep:
    """exp(i angle X) or exp(i angle Z) on one block's qubit: ``LOCAL_TO_PAULI``'s (12),(13) entry, or (45),(46)."""
    pairs, coeff = LOCAL_TO_PAULI[0]
    offset = 0 if block == 1 else 3
    row = coeff["xz".index(axis)]
    return PulseStep.make({(i + offset, j + offset): angle * c for (i, j), c in zip(pairs, row)})


def _local_factor_steps(factors: Sequence[tuple[str, int, float]], what: Callable[[int], str]) -> list[PulseStep]:
    """Steps of ("x" | "z", block, angle) factors, angle i named what(i); zero angles give no step but are checked."""
    checked = []
    for i, (axis, block, angle) in enumerate(factors):
        if axis not in ("x", "z"):
            raise ValueError(f"local factors must be x or z, got {axis!r}")
        checked.append((axis, _checked_int(block, "block", range(1, 3)), real_coefficient(angle, what(i))))
    return [_local_step(axis, block, angle) for axis, block, angle in checked if angle != 0.0]


def single_qubit_schedule(
    block: int, alpha: float, beta: float, gamma: float, delta: float = 0.0
) -> PulseSchedule:
    """Local gate exp(i d) exp(i a X) exp(i b Z) exp(i g X) on one qubit.

    Realized through the within-block dictionary (X from the pair
    (12),(13) or (45),(46); Z from minus the first local transposition),
    so the action is identical in both sectors.
    """
    block = _checked_int(block, "block", range(1, 3))
    factors = (("x", block, alpha), ("z", block, beta), ("x", block, gamma))
    steps = _local_factor_steps(factors, ("alpha", "beta", "gamma").__getitem__)
    if (delta := real_coefficient(delta, "delta")) != 0.0:
        if steps:
            steps[0] = PulseStep.make(steps[0].coefficients(), steps[0].phase + delta)
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
    restricts the canonical angles to multiples of pi/2 (the cross-block
    scaling -3 then shifts the phase by full periods).  The YY factor
    conjugates a ZZ evolution with exp(i pi/4 (XI + IX)).
    """
    n = _checked_int(n, "iteration count", _ITERATIONS)
    angles = [real_coefficient(getattr(gate, name), name) for name in ("alpha", "beta", "gamma")]
    independent = sector is None
    basis_sector = SpinSector.SPIN1 if independent else sector
    if independent:
        for angle in angles:
            if not any(abs(angle - v) <= 1e-12 for v in _INDEPENDENT_ANGLES):
                raise ValueError(
                    "sector-independent mode requires canonical angles in "
                    f"{{-pi/2, 0, pi/2}}; got {angle}"
                )

    steps = _local_factor_steps(gate.k1, "k1[{}] angle".format)
    for angle, word, conjugated in zip(angles, ("XX", "ZZ", "ZZ"), (False, True, False)):
        if angle != 0.0:
            h = hamiltonian_from_pauli({word: 1.0}, basis_sector)
            core = decoupled_evolution(h, angle, n).steps
            if conjugated:
                core = (_xx_conjugator(+1.0), *core, _xx_conjugator(-1.0))
            steps.extend(core)
    steps.extend(_local_factor_steps(gate.k2, "k2[{}] angle".format))
    return PulseSchedule(tuple(steps), name="canonical-gate", order=1, n=n)


_PAIR_INDEX = {pair: k for k, pair in enumerate(ALL_PAIRS)}


@lru_cache(maxsize=None)
def pair_stack(sector: SpinSector) -> np.ndarray:
    """The 15 transposition matrices of a sector's irrep, (15, dim, dim) in ALL_PAIRS order."""
    return _read_only(np.stack([rep_transposition(sector.partition, *pair) for pair in ALL_PAIRS]))


def _coefficient_rows(steps: Sequence[PulseStep]) -> np.ndarray:
    """(k, 15) coefficients of k steps in ALL_PAIRS order; the identity phase is left out."""
    rows = np.zeros((len(steps), len(ALL_PAIRS)))
    for row, step in zip(rows, steps):
        for pair, c in zip(step.pairs, step.coeffs):
            row[_PAIR_INDEX[pair]] += c
    return rows


def _evolve_form(schedules: Sequence[PulseSchedule]) -> _EvolveForm:
    """The numeric form of a batch's distinct steps and one product plan of all its schedules.

    Steps are interned first occurrence first and each schedule's id run
    form renumbered to batch ids; one ``product_plan`` call plans them all.
    The rows of the steps new to the batch are that schedule's ``_rows``
    under a mask, bit for bit; the phase factors are one elementwise
    ``np.exp``, the bits of a scalar call per step.  A schedule's ``_form``
    is this for a batch of one.
    """
    ids: dict[PulseStep, int] = {}
    runs, rows = [], [np.empty((0, len(ALL_PAIRS)))]
    for schedule in schedules:
        distinct, (head, body, reps, tail) = schedule._interned
        known = len(ids)
        to_batch = [ids.setdefault(step, len(ids)) for step in distinct]
        rows.append(schedule._rows[np.greater_equal(to_batch, known)])
        head, body, tail = ([to_batch[i] for i in part] for part in (head, body, tail))
        runs.append((head, body, reps, tail))
    phases = np.array([step.phase for step in ids], dtype=float)
    return _EvolveForm(
        _read_only(np.concatenate(rows)),
        _read_only(np.exp(1j * phases)),
        _read_only(phases != 0.0),
        *product_plan(runs, len(ids)),
    )


def row_generators(rows: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Generators sum_c c_ij P_ij of (k, 15) coefficient rows as a (k, d, d) stack.

    ``stack`` is (15, d, d) in ALL_PAIRS order: the one coefficient-to-matrix
    path.  Each row is its own (1, 15) @ (15, d*d) product; one (k, 15)
    matrix product would round some entries otherwise, moving F and L by up
    to 3e-12 at n = 200.
    """
    flat = stack.reshape(len(ALL_PAIRS), -1)
    return np.matmul(rows[:, None, :], flat).reshape(len(rows), *stack.shape[1:])


# (p, q), p < q: the 60 pairs of transpositions that share one spin, as two rows.  Any other two commute exactly.
_SHARED = np.array([(p, q) for p, q in combinations(range(15), 2) if len({*ALL_PAIRS[p], *ALL_PAIRS[q]}) == 3]).T.copy()


@lru_cache(maxsize=None)
def _commutator_table() -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
    """(table, flat, table cuts, flat cuts): both irreps side by side in SpinSector order, read-only.

    Row k of the (60, 10 + 36) table is the strict upper triangle of [P_p, P_q],
    (p, q) = ``_SHARED[:, k]``; flat is the (15, 25 + 81) pair stacks.  A cut is an irrep's first column.
    """
    stacks = [pair_stack(s) for s in SpinSector]
    p, q = _SHARED
    table = []
    for m in stacks:
        i, j = np.triu_indices(m.shape[1], 1)
        table.append((m[p] @ m[q] - m[q] @ m[p])[:, i, j])
    flat = [m.reshape(len(m), -1) for m in stacks]
    table_cuts, flat_cuts = (tuple(np.cumsum([0] + [x.shape[1] for x in xs[:-1]])) for xs in (table, flat))
    return _read_only(np.concatenate(table, axis=1)), _read_only(np.concatenate(flat, axis=1)), table_cuts, flat_cuts


def _rows_commute(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row k, whether the steps of (k, 15) coefficient rows a[k] and b[k] commute, by ``consolidate``'s rule.

    [A, B] sums (a_p b_q - a_q b_p) [P_p, P_q] over ``_SHARED``: one (k, 60) @ (60, 46) product, and
    the generators' largest entries one (2k, 15) @ (15, 106).
    """
    # 256 rows a call at most: OpenBLAS (0.3.31, 2 vCPUs) runs a product of more than about 1e6
    # multiply-adds, 362 rows of the first or 314 of the second, on threads that spin on after it
    if len(a) > 256:
        return np.concatenate([_rows_commute(a[k : k + 256], b[k : k + 256]) for k in range(0, len(a), 256)])
    table, flat, table_cuts, flat_cuts = _commutator_table()
    p, q = _SHARED
    comm = (a.take(p, 1) * b.take(q, 1) - a.take(q, 1) * b.take(p, 1)) @ table
    comm = np.maximum.reduceat(np.abs(comm, out=comm), table_cuts, axis=1)
    g = np.concatenate([a, b]) @ flat
    g = np.maximum.reduceat(np.abs(g, out=g), flat_cuts, axis=1)
    return ~(comm > 1e-12 * np.maximum(1.0, g[: len(a)] * g[len(a) :])).any(axis=1)


def _fill_commutes(schedules: Sequence[PulseSchedule]) -> None:
    """Store ``_commutes`` on each schedule of a batch lacking it, from at most two ``_rows_commute`` calls.

    The first decides each schedule's distinct adjacent input id pairs, key (a, b).  The second decides,
    for commuting (a, b), the transition from the merge, row ``_rows[a] + _rows[b]``, to each c that
    follows b, key (a, b, c), at most as many as there are pairs: the walk checks any other.  Each call
    stacks the rows of the whole batch.
    """
    todo = [s for s in schedules if "_commutes" not in s.__dict__]
    facts: list[dict[tuple, bool]] = [{} for _ in todo]
    rows = np.concatenate([np.empty((0, len(ALL_PAIRS))), *(s._rows for s in todo)])
    starts = list(accumulate([len(s._rows) for s in todo], initial=0))  # each schedule's first row in ``rows``

    def check(keys: list[list[tuple]], width: int) -> None:
        # per key, its last id's row against its first's, or the sum of its first two
        cols = [[start + key[j] for start, ks in zip(starts, keys) for key in ks] for j in range(width)]
        if cols[0]:
            cols = [rows.take(col, axis=0) for col in cols]
            commute = iter(_rows_commute(cols[0] if width == 2 else cols[0] + cols[1], cols[-1]).tolist())
            for fact, ks in zip(facts, keys):
                fact.update(zip(ks, commute))  # ks first: zip stops at its end without taking one more

    pairs, triples = [], []
    for s in todo:
        _, (head, body, reps, tail) = s._interned
        short = head + body * min(reps, 2) + tail
        pairs.append(list(dict.fromkeys(zip(short, short[1:]))))
    check(pairs, 2)
    for ks, fact in zip(pairs, facts):
        after: dict[int, list[int]] = {}
        for b, c in ks:
            after.setdefault(b, []).append(c)
        triples.append(list(islice(((a, b, c) for a, b in ks if fact[a, b] for c in after.get(b, ())), len(ks))))
    check(triples, 3)
    for s, fact in zip(todo, facts):
        s.__dict__["_commutes"] = fact


def consolidate(schedule: PulseSchedule) -> PulseSchedule:
    """Greedy left-to-right merge of adjacent commuting steps.

    The merged step sums coefficient maps and identity phases; the
    simulated unitary is unchanged.  The resulting step count is the
    clock-cycle count of the schedule.  Two steps commute unless, in some
    irrep, an entry of [A, B] exceeds 1e-12 * max(1, |ga| |gb|), |g| the
    largest entry magnitude of a step's generator there; ``_rows_commute``
    decides it on coefficient rows, building no irrep matrix.

    The walk runs on the run form's ids (``_interned``); the id table grows
    only by merged steps, each with its row, the sum of its parts'.  Its
    checks are the schedule's ``_commutes``, which ``report_many`` fills for
    its batch: only a transition from a merge of three or more steps is
    checked here, one row.  Each distinct transition (last output id, next
    id) is resolved once per call, so repeated cycles merge once per
    distinct pair.  Past the head the walk is fixed by its last output id:
    when a repeat of the body starts with the same one as an earlier
    repeat, the output between them is a period, repeated without a walk.
    The output keeps that run form.
    """
    distinct, (head, body, reps, tail) = schedule._interned
    steps = list(distinct)  # per id; merged steps append theirs, as do their rows
    rows = list(schedule._rows)
    ids = {step: i for i, step in enumerate(distinct)}
    decided = schedule._commutes
    made_of: dict[int, tuple[int, int]] = {}  # per id: the first two ids found to merge to it
    transitions: dict[tuple[int, int], int | None] = {}
    undecided = object()
    out: list[int] = []

    def walk(part: Sequence[int]) -> None:
        for b in part:
            if out:
                a = out[-1]
                to = transitions.get((a, b), undecided)
                if to is undecided:
                    commute = decided.get((a, b), decided.get(made_of.get(a, ()) + (b,)))
                    if commute is None:
                        commute = _rows_commute(rows[a][None], rows[b][None])[0]
                    to = None
                    if commute:
                        merged = _merge_steps(steps[a], steps[b])
                        to = ids.setdefault(merged, len(ids))
                        if to == len(steps):
                            steps.append(merged)
                            rows.append(rows[a] + rows[b])
                        made_of.setdefault(to, (a, b))
                    transitions[a, b] = to
                if to is not None:
                    out[-1] = to
                    continue
            out.append(b)

    walk(head)
    starts: dict[int, tuple[int, int]] = {}  # per last output id: the repeat it started, the output length
    # the output's run form: out[:cut] + out[cut:end] * k + out[end:]
    cut, end, k, r = 0, 0, 0, 0
    while r < reps:
        if out and not k:
            if out[-1] in starts:
                r0, start = starts[out[-1]]
                cut, end, k = start - 1, len(out) - 1, 1 + (reps - r) // (r - r0)
                r += (k - 1) * (r - r0)
                continue
            starts[out[-1]] = (r, len(out))
        walk(body)
        r += 1
    walk(tail)
    # interned on output ids, whose steps are distinct, so no output step is hashed
    used, runs = _intern(out[:cut], out[cut:end], k, out[end:])
    return PulseSchedule._of_form(
        (tuple(map(steps.__getitem__, used)), runs), name=schedule.name, order=schedule.order, n=schedule.n
    )


def normalized_time(schedule: PulseSchedule) -> float:
    """Summed per-step maximum coefficient magnitude in swap durations.

    One unit is a full swap (coefficient pi/2); the identity phase does not
    count.  Computed before any consolidation: each printed factor is one
    parallel pulse.  Each distinct step's maximum is taken once, and
    ``sum`` adds the run form's values written out, in schedule order.
    """
    distinct, (head, body, reps, tail) = schedule._interned
    width = [step.max_coefficient() for step in distinct].__getitem__
    return sum(list(map(width, head)) + list(map(width, body)) * reps + list(map(width, tail))) / (np.pi / 2)


def _negative_local_steps(schedule: PulseSchedule) -> int:
    """Local steps (no cross-block pair) with a negative coefficient, counted on the run form; each distinct step checked once."""
    distinct, (head, body, reps, tail) = schedule._interned
    flagged = [not s.is_cross_block() and any(c < 0 for c in s.coeffs) for s in distinct]
    return sum(map(flagged.__getitem__, head + tail)) + reps * sum(map(flagged.__getitem__, body))


def _cancel_step(step: PulseStep) -> PulseStep:
    coeffs = step.coefficients()
    negatives = [-c for c in coeffs.values() if c < 0.0]
    if not negatives:
        return step
    if len(coeffs) == 1:
        # single exchange interaction: shift by full periods
        (pair, c), = coeffs.items()
        shift = 2 * np.pi * math.ceil(-c / (2 * np.pi))
        return PulseStep._of({pair: c + shift}, step.phase)
    m = max(negatives)
    for p in ALL_PAIRS:
        coeffs[p] = coeffs.get(p, 0.0) + m
    out = PulseStep._of(coeffs, step.phase)
    if any(c < 0.0 for c in out.coeffs):
        raise AssertionError("cancellation left a negative coefficient")
    return out


def cancel_negatives(schedule: PulseSchedule) -> PulseSchedule:
    """Remove negative coefficients from Hamiltonian-bearing steps.

    A step is Hamiltonian-bearing when it involves a cross-block transposition.  Such a step
    gets the all-transposition sum, scaled by its largest negative magnitude.  The sum is
    central, so each step, and the logical action, changes by a global phase per sector only.
    A Hamiltonian step of one exchange interaction is instead shifted by a full period.  Purely
    local steps (decouplers, prefactors, one-qubit factors) are left alone; their negatives are
    reported.  Each distinct step is rewritten once, and the output keeps the input's run form.
    """
    distinct, (head, body, reps, tail) = schedule._interned
    rewritten = [_cancel_step(s) if s.is_cross_block() else s for s in distinct]
    head, body, tail = (tuple(map(rewritten.__getitem__, ids)) for ids in (head, body, tail))
    return PulseSchedule._repeated(head, body, reps, tail, name=schedule.name, order=schedule.order, n=schedule.n)


def _step_json(step: PulseStep) -> dict:
    return {"pairs": [list(p) for p in step.pairs], "coeffs": list(step.coeffs), "phase": step.phase}


def schedule_to_json(schedule: PulseSchedule) -> dict:
    steps = [_step_json(s) for s in schedule.steps]
    return {"version": 1, "name": schedule.name, "order": schedule.order, "n": schedule.n, "steps": steps}


# Largest coefficient magnitude (radians) a schedule file may carry: the rounding of exp(i h) grows
# with |h|, and on 100-step random schedules the irrep and oracle F/L agree to about 2e-11 near 1e4,
# to 3e-9 near 1e6, a third of the 1e-8 cross-check tolerance.  Physical pulses stay within a few pi.
MAX_COEFFICIENT = 1e4


def _json_number(value, what: str) -> float:
    """A finite JSON number; strings, booleans, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {reprlib.repr(value)}")
    return real_coefficient(value, what)


def _json_field(data: dict, key: str, kind: type, what: str):
    """``data[key]``, which must be present and a ``kind`` (list or dict)."""
    if key not in data:
        raise ValueError(f"{what} is missing")
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {'a list' if kind is list else 'an object'}")
    return value


def _json_step(s, k: int) -> PulseStep:
    """Step k of a schedule's JSON object, validated; any fault raises one ``ValueError`` naming k."""
    if not isinstance(s, dict):
        raise ValueError(f"step {k} must be an object")
    pairs = []
    for p in _json_field(s, "pairs", list, f"step {k} pairs"):
        if not isinstance(p, list) or len(p) != 2:
            raise ValueError(f"step {k} pair {reprlib.repr(p)} must have two entries")
        pairs.append(_normalize_pair([plain_int(v, f"step {k} pair entry") for v in p]))
    coeffs = [
        _json_number(c, f"step {k} coefficient")
        for c in _json_field(s, "coeffs", list, f"step {k} coeffs")
    ]
    if len(pairs) != len(coeffs):
        raise ValueError(f"step {k}: pairs and coeffs differ in length")
    if len(set(pairs)) != len(pairs):
        raise ValueError(f"step {k}: a pair is listed twice")
    phase = _json_number(s.get("phase", 0.0), f"step {k} phase")
    # pairs normalized and distinct, values finite floats: nothing left for ``make`` to check
    step = PulseStep._of(dict(zip(pairs, coeffs)), phase)
    if step.max_coefficient() > MAX_COEFFICIENT:
        raise ValueError(f"step {k}: coefficient magnitude above {MAX_COEFFICIENT:g}")
    return step


# ``json.dumps(..., sort_keys=True)`` with one encoder for all steps; a circular step fails
# with ``RecursionError`` rather than ``ValueError``
_spelling = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def schedule_from_json(data: dict) -> PulseSchedule:
    """Validated schedule from its JSON object; any fault raises one ``ValueError``.

    Each message names the field, a step's index and what was expected;
    callers add their own prefix.  Each distinct raw step is validated once
    (``_json_step``), at its first index.  Raw steps share a result when
    their ``_spelling`` texts (which keep ``1``, ``1.0``, ``true`` and the
    two zeros apart) and the objects (a tuple is not a list) are equal.
    Steps repeating a body the file's ``n`` times keep that run form.
    """
    if not isinstance(data, dict):
        raise ValueError(f"schedule JSON must be an object, got {type(data).__name__}")
    version = plain_int(data.get("version"), "version")
    if version != 1:
        raise ValueError(f"unsupported schedule version: {reprlib.repr(version)}")
    steps = []
    seen: dict[str, tuple[dict, PulseStep]] = {}  # spelling -> (first raw step, its step)
    for k, s in enumerate(_json_field(data, "steps", list, "steps")):
        try:
            key = _spelling(s)
        except (TypeError, ValueError, RecursionError):
            key = None
        raw, step = seen.get(key, (None, None))
        if step is None or raw != s:
            step = _json_step(s, k)
            if key is not None:
                seen.setdefault(key, (s, step))
        steps.append(step)
    order = _checked_int(data.get("order", 1), "order", range(2))
    n = _checked_int(plain_int(data.get("n", 1), "n"), "iteration count", _ITERATIONS)
    name = data.get("name", "schedule")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {reprlib.repr(name)}")
    return PulseSchedule._repeated(*_recovered_form(tuple(steps), n), name=name, order=order, n=n)


def _recovered_form(steps: tuple, n: int) -> tuple:
    """Loaded steps as ``head + body * n + tail``, head and tail shorter than the body, or degenerate.

    The longest body, then the shortest head: the run form every builder
    writes, so a saved schedule loads back to the same evolve bits.
    """
    ids: dict[PulseStep, int] = {}
    seq = np.array([ids.setdefault(s, len(ids)) for s in steps] if n > 1 else [])
    for width in range(len(seq) // n, len(seq) // (n + 2), -1):
        if seq[width - 1] != seq[2 * width - 1]:  # a position every candidate head's repeats hold
            continue
        unmatched = np.concatenate(([0], np.cumsum(seq[width:] != seq[:-width])))
        heads = np.arange(max(0, len(seq) - (n + 1) * width + 1), min(width - 1, len(seq) - n * width) + 1)
        periodic = heads[unmatched[heads + (n - 1) * width] == unmatched[heads]]
        if periodic.size:
            h = int(periodic[0])
            return steps[:h], steps[h : h + width], n, steps[h + n * width :]
    return (), (), 0, steps


def save_schedule(schedule: PulseSchedule, path) -> None:
    """Write ``json.dumps(schedule_to_json(schedule), indent=1)`` and a newline, byte for byte.

    The fields around the steps and each distinct step's text are encoded
    before the file is opened, so a failure leaves none; the texts are then
    written in id order, never joined, so a long built schedule saves in
    about the memory of its ids.
    """
    distinct, (head, body, reps, tail) = schedule._interned
    top = json.dumps(schedule_to_json(PulseSchedule((), schedule.name, schedule.order, schedule.n)), indent=1)
    texts = [json.dumps(_step_json(s), indent=1).replace("\n", "\n  ") for s in distinct]
    ids = head + body * reps + tail
    with open(path, "w") as fh:
        if not ids:
            fh.write(top + "\n")
        else:  # top ends in '[]\n}': open the list, write the steps, close it
            fh.writelines((top[:-3], "\n  ", texts[ids[0]]))
            fh.writelines(",\n  " + texts[i] for i in ids[1:])
            fh.write("\n ]\n}\n")


def load_schedule(path) -> PulseSchedule:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError("schedule JSON is nested too deeply") from exc
    return schedule_from_json(data)
