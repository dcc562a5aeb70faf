"""Pulse steps and schedules: the model that every pass over a schedule reads.

A schedule is an ordered list of steps; each step exponentiates a real
combination of exchange interactions (plus an optional identity phase).
Steps are listed left factor first, so the *rightmost* step acts first on
states and the simulated unitary is the matrix product of the step
unitaries in list order.

A schedule derives each fact once and keeps it: its run form
(``_interned``), its distinct steps' coefficient rows (``_rows``), its
numeric form and product plan (``_form``, from ``_evolve_form``; the plan
is shared by every schedule of the same run-form shape) and the
commutation checks that ``trotter.consolidate`` reads (``_commutes``, from
``_fill_commutes``).  ``pair_stack`` and ``row_generators`` are the one
coefficient-to-matrix path.  ``normalized_time`` and
``_negative_local_steps`` are read off the run form.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, islice
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .encoding import ALL_PAIRS, CROSS_PAIRS, SpinSector
from .linalg import integer_pair, real_coefficient
from .products import product_plan
from .symrep import rep_transposition

__all__ = ["PulseStep", "PulseSchedule", "pair_stack", "row_generators", "normalized_time"]


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
    finals: tuple
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

        The builders (through ``_repeated``), ``schedule_from_json`` and ``consolidate`` all write here.
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
        """``_evolve_form((self,))``, built once per schedule: both irreps and both oracle closures read it.

        Its plan is the one every schedule of the same id run form shares (``product_plan``).
        """
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
    every occurrence.  Only here are a built schedule's steps hashed, one
    body's; ``schedule_from_json`` hashes one step per distinct raw step.
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
    form renumbered to batch ids, as tuples; one ``product_plan`` call plans
    them all, or returns the plan it made for an earlier schedule or batch
    of the same id run forms and step count.  Only the plan is shared:
    rows and phases are this batch's own.  The rows of the steps new to the
    batch are that schedule's ``_rows`` under a mask, bit for bit; the phase
    factors are one elementwise ``np.exp``, the bits of a scalar call per
    step.  A schedule's ``_form``
    is this for a batch of one.
    """
    ids: dict[PulseStep, int] = {}
    runs, rows = [], [np.empty((0, len(ALL_PAIRS)))]
    for schedule in schedules:
        distinct, (head, body, reps, tail) = schedule._interned
        known = len(ids)
        to_batch = [ids.setdefault(step, len(ids)) for step in distinct]
        rows.append(schedule._rows[np.greater_equal(to_batch, known)])
        head, body, tail = (tuple([to_batch[i] for i in part]) for part in (head, body, tail))
        runs.append((head, body, reps, tail))
    phases = np.array([step.phase for step in ids], dtype=float)
    return _EvolveForm(
        _read_only(np.concatenate(rows)),
        _read_only(np.exp(1j * phases)),
        _read_only(phases != 0.0),
        *product_plan(tuple(runs), len(ids)),
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
