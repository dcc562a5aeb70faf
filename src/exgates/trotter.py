"""Schedule builders and rewrites: product formulas, CNOT constructions, files.

The decoupled evolutions follow the first-order product formula

    exp(i a D(H)) ~ Udag ((exp(i dt/2 H) U)^3 exp(i dt H)
                          (Udag exp(i dt/2 H))^3)^n U,    dt = a / 4n,

whose error is O(dt^2); ``_cycle_steps`` repeats a cycle table.  The CNOT
families instantiate it with the cross-block generator N (spin-independent;
12n+3 cycles, 8n+1 at order 0) and the spin-1 optimized generator N1
(10n+1 cycles), both with dt = pi/8n and prefactor exp(-i pi/4 (1 + (12))).

``consolidate`` merges adjacent commuting steps, which counts cycles
(``_cycles`` counts them on the same walk without building the merged
schedule), and ``cancel_negatives`` removes negative Hamiltonian
coefficients; both keep the run form.  The schedule file format, ``schedule_to_json`` to
``load_schedule``, checks a schedule both ways.  Steps and schedules are
``schedule``'s.
"""

from __future__ import annotations

import json
import math
import pickle
import reprlib
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .encoding import ALL_PAIRS, BLOCK_A_PAIRS, BLOCK_B_PAIRS
from .linalg import plain_int, real_coefficient
from .schedule import PulseSchedule, PulseStep, _intern, _merge_steps, _normalize_pair, _rows_commute

__all__ = [
    "SWAP_GENERATOR_N",
    "SWAP_GENERATOR_N1",
    "MAX_COEFFICIENT",
    "MAX_ITERATIONS",
    "trotter_product",
    "decoupled_evolution",
    "cnot_spin_independent",
    "cnot_spin1",
    "consolidate",
    "cancel_negatives",
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


@lru_cache(maxsize=None)
def _decoupler_steps(weight: float, pairs: tuple[tuple[int, int], ...]) -> tuple[PulseStep, PulseStep]:
    """Step exp(i weight/3 sum(pairs)), a block sum or part of one, and its inverse: made once per process.

    Its 128 keys, the two weights pi/2 and pi over the 64 subsets of the six block pairs, all stay.
    """
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


def consolidate(schedule: PulseSchedule) -> PulseSchedule:
    """Greedy left-to-right merge of adjacent commuting steps.

    The merged step sums coefficient maps and identity phases; the
    simulated unitary is unchanged.  The resulting step count is the
    clock-cycle count of the schedule, which ``_cycles`` reads off the same
    walk without building this schedule.  Two steps commute unless, in some
    irrep, an entry of [A, B] exceeds 1e-12 * max(1, |ga| |gb|), |g| the
    largest entry magnitude of a step's generator there; ``_rows_commute``
    decides it on coefficient rows, building no irrep matrix.  The walk is
    ``_consolidated``; the output keeps its run form.
    """
    steps, (head, body, k, tail) = _consolidated(schedule)
    # interned on output ids, whose steps are distinct, so no output step is hashed
    used, runs = _intern(head, body, k, tail)
    return PulseSchedule._of_form(
        (tuple(map(steps.__getitem__, used)), runs), name=schedule.name, order=schedule.order, n=schedule.n
    )


def _cycles(schedule: PulseSchedule) -> int:
    """``len(consolidate(schedule).steps)``, counted on ``_consolidated``'s output run form.

    ``len(head) + len(body) * k + len(tail)``: no output step is interned
    or written out, and no schedule is made.
    """
    _, (head, body, k, tail) = _consolidated(schedule)
    return len(head) + len(body) * k + len(tail)


def _consolidated(schedule: PulseSchedule) -> tuple[list[PulseStep], tuple]:
    """``consolidate``'s walk: (steps per id, (head, body, k, tail)), the output ids ``head + body * k + tail``.

    The walk runs on the run form's ids (``_interned``); the id table grows
    only by merged steps, each with its row, the sum of its parts'.  Its
    checks are the schedule's ``_commutes``, which ``report_many`` fills for
    its batch: only a transition from a merge of three or more steps is
    checked here, one row.  Each distinct transition (last output id, next
    id) is resolved once per call, so repeated cycles merge once per
    distinct pair.  Past the head the walk is fixed by its last output id:
    when a repeat of the body starts with the same one as an earlier
    repeat, the output between them is a period, repeated without a walk.
    ``consolidate`` and ``_cycles`` both read this one walk.
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
    return steps, (out[:cut], out[cut:end], k, out[end:])


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


def schedule_from_json(data: dict) -> PulseSchedule:
    """Validated schedule from its JSON object; any fault raises one ``ValueError``.

    Each message names the field, a step's index and what was expected;
    callers add their own prefix.  Raw steps go straight to ids, first
    occurrence first: a raw step new by its key is validated (``_json_step``)
    and given its step's id.  The key is its pickle, which spells each value
    with its type and a float with its bits, so ``1``, ``1.0`` and ``true``,
    the two zeros, a tuple and a list, and numpy scalars stay apart, or its
    index if it does not pickle.  Ids repeating a body the file's ``n``
    times keep that run form (``_recovered_form``).
    """
    if not isinstance(data, dict):
        raise ValueError(f"schedule JSON must be an object, got {type(data).__name__}")
    version = plain_int(data.get("version"), "version")
    if version != 1:
        raise ValueError(f"unsupported schedule version: {reprlib.repr(version)}")
    ids: dict[PulseStep, int] = {}  # a distinct step -> its id
    seen: dict[bytes | int, int] = {}  # a raw step's pickle, else its index -> its step's id
    seq = []
    for k, s in enumerate(_json_field(data, "steps", list, "steps")):
        try:
            key = pickle.dumps(s, 5)
        except (pickle.PicklingError, TypeError, ValueError, AttributeError, RecursionError):
            key = k
        i = seen.get(key)
        if i is None:
            i = seen[key] = ids.setdefault(_json_step(s, k), len(ids))
        seq.append(i)
    name, order, n = _checked_fields(data.get("name", "schedule"), data.get("order", 1), data.get("n", 1))
    return PulseSchedule._of_form((tuple(ids), _recovered_form(tuple(seq), n)), name=name, order=order, n=n)


def _checked_fields(name, order, n) -> tuple[str, int, int]:
    """A schedule file's name, order and n, checked as the loader and the saver both check them."""
    order = _checked_int(order, "order", range(2))
    n = _checked_int(plain_int(n, "n"), "iteration count", _ITERATIONS)
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {reprlib.repr(name)}")
    return name, order, n


def _recovered_form(ids: tuple[int, ...], n: int) -> tuple:
    """Loaded ids as ``(head, body, n, tail)``, head and tail shorter than the body, or degenerate.

    The longest body, then the shortest head: the run form every builder
    writes, so a saved schedule loads back to the same evolve bits.
    """
    seq = np.array(ids) if n > 1 else ()
    for width in range(len(seq) // n, len(seq) // (n + 2), -1):
        if seq[width - 1] != seq[2 * width - 1]:  # a position every candidate head's repeats hold
            continue
        unmatched = np.concatenate(([0], np.cumsum(seq[width:] != seq[:-width])))
        heads = np.arange(max(0, len(seq) - (n + 1) * width + 1), min(width - 1, len(seq) - n * width) + 1)
        periodic = heads[unmatched[heads + (n - 1) * width] == unmatched[heads]]
        if periodic.size:
            h = int(periodic[0])
            return ids[:h], ids[h : h + width], n, ids[h + n * width :]
    return (), (), 0, ids


def save_schedule(schedule: PulseSchedule, path) -> None:
    """Write ``json.dumps(schedule_to_json(schedule), indent=1)`` and a newline, byte for byte.

    The loader's checks come first (``ValueError`` naming the field), so
    no file is written that ``load_schedule`` refuses.  The fields around
    the steps and each distinct step's text are encoded before the file is
    opened, so a failure leaves none; the texts are then written in id
    order, never joined, so a long built schedule saves in about the memory
    of its ids.
    """
    distinct, (head, body, reps, tail) = schedule._interned
    ids = head + body * reps + tail
    big = [s.max_coefficient() > MAX_COEFFICIENT for s in distinct]
    if any(big):
        k = next(k for k, i in enumerate(ids) if big[i])
        raise ValueError(f"step {k}: coefficient magnitude above {MAX_COEFFICIENT:g}")
    _checked_fields(schedule.name, schedule.order, schedule.n)
    top = json.dumps(schedule_to_json(PulseSchedule((), schedule.name, schedule.order, schedule.n)), indent=1)
    texts = [json.dumps(_step_json(s), indent=1).replace("\n", "\n  ") for s in distinct]
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
