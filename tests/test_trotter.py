import json
import math
import re
import reprlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from swap_blocks import MAGNETIZATION_BLOCKS

from exgates import metrics, oracle, schedule, trotter
from exgates.decouple import decouple_map
from exgates.encoding import (
    ALL_PAIRS,
    BLOCK_A_PAIRS,
    BLOCK_B_PAIRS,
    SpinSector,
    pauli_word,
    projected_rep,
    projector,
)
from exgates.gates import CanonicalGateSpec, canonical_two_qubit_schedule, single_qubit_schedule
from exgates.linalg import expi
from exgates.metrics import CNOT, report, simulate
from exgates.schedule import PulseSchedule, PulseStep, normalized_time, pair_stack, row_generators
from exgates.symrep import rep_element
from exgates.trotter import (
    MAX_COEFFICIENT,
    MAX_ITERATIONS,
    SWAP_GENERATOR_N,
    cancel_negatives,
    cnot_spin1,
    cnot_spin_independent,
    consolidate,
    decoupled_evolution,
    schedule_from_json,
    schedule_to_json,
    trotter_product,
)

SQ3 = np.sqrt(3.0)

_COEFF_MAPS = st.dictionaries(
    st.sampled_from(ALL_PAIRS), st.floats(-4.0, 4.0, allow_nan=False), max_size=15
)


@st.composite
def _schedules(draw):
    """Schedules over a small pool of few-pair steps, so that many adjacent steps commute.

    Coefficients lie on a 0.01 grid: a step pair then either commutes or has
    a commutator far above consolidate's tolerance.
    """
    grid = st.integers(-200, 200).map(lambda k: k / 100)
    step = st.builds(
        PulseStep.make,
        st.dictionaries(st.sampled_from(ALL_PAIRS), grid, max_size=2),
        grid.map(lambda c: c / 2),
    )
    pool = draw(st.lists(step, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return PulseSchedule(tuple(pool[k] for k in picks))


@st.composite
def _merging_schedules(draw):
    """Schedules over small pools holding single-pair steps on disjoint blocks.

    Steps such as {(1, 2): a} and {(4, 5): b} commute with each other and
    with themselves, so merges and chains of merges occur; the few-pair
    steps mostly do not commute with them.  Coefficients lie on a 0.01
    grid and phases are never -0.0.
    """
    grid = st.integers(-200, 200).map(lambda k: k / 100)
    single = st.builds(
        lambda pair, c: PulseStep.make({pair: c}),
        st.sampled_from([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]),
        grid,
    )
    few = st.builds(
        PulseStep.make,
        st.dictionaries(st.sampled_from(ALL_PAIRS), grid, min_size=1, max_size=3),
        grid.map(abs),
    )
    pool = draw(st.lists(st.one_of(single, single, few), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    return PulseSchedule(tuple(pool[k] for k in picks))


@st.composite
def _repeating_schedules(draw):
    """Schedules repeating a pool of pairwise unequal step objects."""
    step = st.builds(PulseStep.make, _COEFF_MAPS, st.floats(-1.0, 1.0, allow_nan=False))
    pool = draw(st.lists(step, min_size=1, max_size=8, unique=True))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=80))
    return PulseSchedule(tuple(pool[k] for k in picks), name="repeats", order=0, n=3)


@st.composite
def _run_forms(draw, reps=st.integers(0, 9)):
    """(head, body, reps, tail) over a pool where merges meet equal steps of either zero sign.

    The pool holds single-pair steps on disjoint blocks, which commute and
    merge, each with its doubles and negatives; ``scaled(-1.0)`` gives a
    phase of -0.0, and a merge that lands on an equal value gives +0.0.
    Each step also has a twin, another object: an equal step, or where its
    phase is zero an unequal one with the other sign.  Few-pair steps bring
    cross-block negatives for ``cancel_negatives``.
    Coefficients lie on a 0.01 grid.
    """
    grid = st.integers(-200, 200).map(lambda k: k / 100)
    single = st.builds(
        lambda pair, c: PulseStep.make({pair: c}),
        st.sampled_from([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]),
        grid,
    )
    few = st.builds(
        PulseStep.make,
        st.dictionaries(st.sampled_from(ALL_PAIRS), grid, min_size=1, max_size=3),
        st.sampled_from([0.0, -0.0, 0.25]),
    )
    pool = []
    for step in draw(st.lists(st.one_of(single, single, few), min_size=1, max_size=2)):
        pool += [step, step.scaled(-1.0), step.scaled(2.0), step.scaled(-2.0)]
        pool.append(replace(step, phase=-step.phase if step.phase == 0.0 else step.phase))
    part = st.lists(st.sampled_from(pool), max_size=5)
    return draw(part), draw(part), draw(reps), draw(part)


def _random_schedule(k):
    """A seeded k-step schedule over 30 distinct three-pair steps, every other one phased."""
    rng = np.random.default_rng(100)
    pool = [
        PulseStep.make(
            {ALL_PAIRS[p]: rng.uniform(-np.pi, np.pi) for p in rng.choice(15, 3, replace=False)},
            rng.uniform(-1.0, 1.0) if j % 2 else 0.0,
        )
        for j in range(30)
    ]
    return PulseSchedule(tuple(pool[j] for j in rng.integers(0, len(pool), size=k)))


def _matrix_commute(a, b):
    """Whether steps a and b commute by the matrix rule, on both irreps' generators.

    They commute unless, in some irrep, an entry of ga gb - gb ga exceeds
    1e-12 * max(1, |ga| |gb|), |g| the largest entry magnitude.
    """
    for m in (pair_stack(s) for s in SpinSector):
        ga, gb = (row_generators(schedule._coefficient_rows((step,)), m) for step in (a, b))
        scale = np.maximum(1.0, np.abs(ga).max(axis=(1, 2)) * np.abs(gb).max(axis=(1, 2)))
        if (np.abs(ga @ gb - gb @ ga).max(axis=(1, 2)) > 1e-12 * scale)[0]:
            return False
    return True


def _reference_consolidate(schedule):
    """Left to right, one matrix-rule check per adjacent pair, no tables."""
    out = []
    for step in schedule.steps:
        if out and _matrix_commute(out[-1], step):
            out[-1] = trotter._merge_steps(out[-1], step)
        else:
            out.append(step)
    return replace(schedule, steps=tuple(out))


def _rows_commute_225(a, b):
    """The row rule on all 225 ordered transposition pairs, row 15p + q the strict upper triangle of [P_p, P_q]."""
    commute = np.ones(len(a), dtype=bool)
    for m in (pair_stack(s) for s in SpinSector):
        i, j = np.triu_indices(m.shape[1], 1)
        upper = np.matmul(m[:, None], m[None])[:, :, i, j]
        table = (upper - upper.transpose(1, 0, 2)).reshape(len(m) ** 2, -1)
        comm = np.abs((a[:, :, None] * b[:, None, :]).reshape(len(a), -1) @ table).max(axis=1, initial=0.0)
        ga, gb = (np.abs(x @ m.reshape(len(m), -1)).max(axis=1) for x in (a, b))
        commute &= comm <= 1e-12 * np.maximum(1.0, ga * gb)
    return commute


def _magnitudes(low, high):
    """Signed values from 10**low to 10**(high + 1), log-uniform by decade."""
    return st.builds(
        lambda sign, e, m: sign * m * 10.0**e,
        st.sampled_from([1.0, -1.0]), st.sampled_from(range(low, high + 1)), st.floats(1.0, 10.0),
    )


# from 1e-7 to MAX_COEFFICIENT
_MAGNITUDES = _magnitudes(-7, 3)
# from 1e-7 to 3e2
_UP_TO_3E2 = _magnitudes(-7, 2).map(lambda c: math.copysign(min(abs(c), 3e2), c))
_CENTRAL_SUMS = ((1, 2), (1, 3), (2, 3)), ((4, 5), (4, 6), (5, 6)), ALL_PAIRS


@st.composite
def _step_pairs(draw, magnitudes=_MAGNITUDES):
    """Steps (a, b): any two, two small ones, two on disjoint spins, a step and a central sum, or equal.

    Small steps, of magnitudes 1e-7 to 1e-5, have commutators near the
    absolute threshold 1e-12.  A sum is added to a copy of a or stands
    alone.  A sum is a block or all-transposition sum: a block sum commutes
    with local steps, and the all-transposition sum with every step.
    """

    def step(pairs, min_size=1, magnitudes=magnitudes):
        return PulseStep.make(draw(st.dictionaries(st.sampled_from(pairs), magnitudes, min_size=min_size, max_size=4)))

    kind = draw(st.sampled_from(["any", "small", "disjoint", "sum", "equal"]))
    if kind == "small":
        a, b = (step(ALL_PAIRS, magnitudes=_magnitudes(-7, -6)) for _ in range(2))
    elif kind == "disjoint":
        spins, cut = draw(st.permutations(range(1, 7))), draw(st.integers(2, 4))
        a, b = (step([p for p in ALL_PAIRS if set(p) <= set(part)]) for part in (spins[:cut], spins[cut:]))
    else:
        a = step(draw(st.sampled_from([ALL_PAIRS, *_CENTRAL_SUMS[:2]])), min_size=0)
        b = step(ALL_PAIRS, min_size=0) if kind == "any" else a
        if kind == "sum":
            c = draw(magnitudes)
            added = {p: c for p in draw(st.sampled_from(_CENTRAL_SUMS))}
            b = PulseStep.make(added) if draw(st.booleans()) else trotter._merge_steps(a, PulseStep.make(added))
    return (a, b) if draw(st.booleans()) else (b, a)


_X, _Y = PulseStep.make({(1, 2): 0.3}), PulseStep.make({(2, 3): 0.2})
_EMPTY, _PHASE = PulseStep.make({}), PulseStep.make({}, 0.4)
# (steps, consolidated steps): an empty step commutes with every step and merges into its left neighbour
_EDGE_CASES = {
    "empty schedule": ((), ()),
    "one step": ((_X,), (_X,)),
    "empty step": ((_X, _EMPTY, _Y), (_X, _Y)),
    "empty step first": ((_EMPTY, _X, _PHASE), (PulseStep.make({(1, 2): 0.3}, 0.4),)),
    "only empty steps": ((_EMPTY, _PHASE, _EMPTY), (_PHASE,)),
}


def _written_ids(schedule):
    """The id run form of ``_interned`` written out as ``head + body * reps + tail``: one id per step."""
    head, body, reps, tail = schedule._interned[1]
    return head + body * reps + tail


def _run_form(schedule):
    """The run form of ``_interned`` spelled as steps: (head, body, reps, tail), each part a tuple."""
    distinct, (head, body, reps, tail) = schedule._interned
    head, body, tail = (tuple(distinct[k] for k in part) for part in (head, body, tail))
    return head, body, reps, tail


# the two irreps and the oracle's two closures
_STACKS = [pair_stack(s) for s in SpinSector] + [oracle._closure_block(s)[0] for s in SpinSector]


def _spelled(form):
    """A form's pool after its levels, with concatenation of batch ids as the product.

    Each level reads the words its operand slots hold, then writes its
    products to the next slots, modulo ``form.slots``; each level's pairs
    are distinct.  Returns the pool, in which ``form.finals`` index.
    """
    k = len(form.rows)
    pool = [(i,) for i in range(k)] + [None] * (form.slots - k)
    node = k
    for left, right in form.levels:
        pairs = list(zip(left.tolist(), right.tolist()))
        assert len(set(pairs)) == len(pairs)
        for word in [pool[a] + pool[b] for a, b in pairs]:
            pool[node % form.slots] = word
            node += 1
    return pool


def _products_bound(schedule):
    """Most products a schedule's plan may hold: its trees, one ladder and the fold, or one tree written out."""
    head, body, reps, tail = schedule._interned[1]
    if reps < 2:
        return max(len(_written_ids(schedule)) - 1, 0)
    return sum(max(len(part) - 1, 0) for part in (head, body, tail)) + 2 * (reps.bit_length() - 1) + 2


def _assert_same_gates(schedule, flat):
    """``schedule`` evolves as its flat copy ``flat``: to the bit when written out (fewer than two repeats), else to 1e-12."""
    for stack in _STACKS[:2]:
        got, want = metrics.evolve(schedule, stack), metrics.evolve(flat, stack)
        if schedule._interned[1][2] < 2:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12


def computational_block(schedule, sector):
    pi = projector(sector)
    return pi @ simulate(schedule, sector) @ pi.T


_FAMILIES = {"order-1": cnot_spin_independent, "order-0": lambda n: cnot_spin_independent(n, order=0), "spin-1": cnot_spin1}


def _after_every_decoupler(n):
    """``cnot_spin_independent(n)`` once ``decoupled_evolution`` has made every decoupler step of the process.

    Every subset of the six block pairs is dropped at both orders; each call
    makes the steps of both weights, pi/2 and pi, for the pairs left.
    """
    pairs = BLOCK_A_PAIRS + BLOCK_B_PAIRS
    for order in (0, 1):
        for mask in range(2 ** len(pairs)):
            drop = [p for j, p in enumerate(pairs) if mask >> j & 1]
            decoupled_evolution(SWAP_GENERATOR_N, 1.0, 1, order=order, drop_from_decoupler=drop)
    return cnot_spin_independent(n)


def _respelled(step):
    """``step`` through the raw constructor: pairs reversed and flipped, integral values as ints, a zero on a free pair."""
    free = [p for p in ALL_PAIRS if p not in step.pairs][:1]
    pairs = [(j, i) for i, j in reversed(step.pairs)] + free
    coeffs = [int(c) if c.is_integer() else c for c in reversed(step.coeffs)] + [0] * len(free)
    return PulseStep(pairs, coeffs, step.phase)


class TestPulseStep:
    def test_zero_coefficients_dropped(self):
        s = PulseStep.make({(1, 2): 0.0, (1, 4): 0.5})
        assert s.pairs == ((1, 4),)
        assert s.scaled(0.0) == PulseStep((), (), 0.0)

    def test_pairs_normalized_and_sorted(self):
        s = PulseStep.make({(5, 4): 1.0, (2, 1): 2.0})
        assert s.pairs == ((1, 2), (4, 5))

    def test_max_coefficient_excludes_phase(self):
        s = PulseStep.make({(1, 2): 0.1}, phase=9.0)
        assert s.max_coefficient() == pytest.approx(0.1)

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            PulseStep.make({(0, 2): 1.0})

    @pytest.mark.parametrize("c", [np.complex128(1 + 2j), np.complex64(1 + 2j), 1 + 2j, np.complex128(1)])
    def test_rejects_complex_coefficient_or_phase(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TypeError, match="must be real"):
                PulseStep.make({(1, 2): c})
            with pytest.raises(TypeError, match="must be real"):
                PulseStep.make({(1, 2): 1.0}, phase=c)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("-inf")])
    def test_rejects_non_finite_coefficient_or_phase(self, c):
        message = re.escape(f"must be finite, got {reprlib.repr(c)}")
        with pytest.raises(ValueError, match=message):
            PulseStep.make({(1, 2): c})
        with pytest.raises(ValueError, match=message):
            PulseStep.make({(1, 2): 1.0}, phase=c)

    def test_coefficients_past_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="must be finite, got inf"):
            PulseStep.make({(1, 2): 1e300}).scaled(1e10)
        with pytest.raises(ValueError, match="must be finite, got inf"):
            PulseStep.make({(1, 2): 1e308, (2, 1): 1e308})

    def test_derived_steps_keep_the_finite_check(self):
        # scaled, merges and cancellation skip make's pair checks, not this one
        with pytest.raises(ValueError, match="must be finite, got inf"):
            PulseStep.make({(1, 2): 1e308}).scaled(10.0)
        with pytest.raises(ValueError, match="must be finite, got inf"):
            PulseStep.make({(1, 2): 1.0}, phase=1e308).scaled(10.0)
        with pytest.raises(ValueError, match="must be finite, got inf"):
            trotter._merge_steps(PulseStep.make({(1, 2): 1e308}), PulseStep.make({(1, 2): 1e308}))
        with pytest.raises(ValueError, match="must be finite, got -inf"):
            trotter._merge_steps(PulseStep.make({}, -1e308), PulseStep.make({(1, 2): 1.0}, -1e308))
        with pytest.raises(TypeError, match="must be real"):
            PulseStep.make({(1, 2): 1.0}).scaled(1j)

    @settings(max_examples=200, deadline=None)
    @given(a=_COEFF_MAPS, b=_COEFF_MAPS, phase=st.floats(-4.0, 4.0), factor=st.floats(-3.0, 3.0))
    def test_derived_steps_equal_made_ones(self, a, b, phase, factor):
        sa, sb = PulseStep.make(a, phase), PulseStep.make(b, -phase)
        made = PulseStep.make({p: c * factor for p, c in zip(sa.pairs, sa.coeffs)}, phase * factor)
        scaled = sa.scaled(np.float64(factor))
        assert scaled == made and repr(scaled) == repr(made)
        assert all(type(c) is float for c in (*scaled.coeffs, scaled.phase))
        summed = {p: sa.coefficients().get(p, 0.0) + sb.coefficients().get(p, 0.0) for p in {*sa.pairs, *sb.pairs}}
        merged = trotter._merge_steps(sa, sb)
        assert repr(merged) == repr(PulseStep.make(summed, phase - phase))

    def test_real_numbers_of_any_type_become_floats(self):
        s = PulseStep.make({(1, 2): 1, (3, 4): np.float32(0.5), (5, 6): np.int64(-2)}, phase=np.float64(0.25))
        assert s == PulseStep(((1, 2), (3, 4), (5, 6)), (1.0, 0.5, -2.0), 0.25)
        assert all(type(c) is float for c in (*s.coeffs, s.phase))

    def test_raw_constructor_normalizes_as_make(self):
        raw = PulseStep(((2, 1), (4, 3), (6, 5)), (1, 0, np.float32(0.5)), np.int64(0))
        made = PulseStep.make({(1, 2): 1.0, (5, 6): 0.5})
        assert raw == made and repr(raw) == repr(made)
        assert all(type(c) is float for c in (*raw.coeffs, raw.phase))
        assert json.dumps(schedule_to_json(PulseSchedule((raw,)))) == json.dumps(schedule_to_json(PulseSchedule((made,))))

    @pytest.mark.parametrize(("pairs", "coeffs", "phase", "message"), [
        (((1, 2),), (1.0, 2.0), 0.0, "^1 pairs, 2 coefficients: need one each, no pair twice$"),
        (((1, 2), (2, 1)), (1.0, 2.0), 0.0, "^2 pairs, 2 coefficients: need one each, no pair twice$"),
        (((1, 7),), (1.0,), 0.0, "not a transposition pair"),
        (((1, 2),), ("1",), 0.0, "must be a real number"),
        (((1, 2),), (float("nan"),), 0.0, "must be finite"),
        (((1, 2),), (1.0,), float("inf"), "must be finite"),
    ])
    def test_raw_constructor_rejects_what_make_rejects(self, pairs, coeffs, phase, message):
        with pytest.raises(ValueError, match=message):
            PulseStep(pairs, coeffs, phase)

    def test_equal_steps_hash_equal(self):
        a = PulseStep.make({(1, 2): 0.5, (3, 4): -0.25}, phase=0.1)
        b = PulseStep.make({(4, 3): -0.25, (2, 1): 0.5}, phase=0.1)
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @settings(max_examples=200, deadline=None)
    @given(base=st.lists(
        st.builds(PulseStep.make, _COEFF_MAPS, st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)),
        min_size=1, max_size=3,
    ))
    def test_equal_exactly_when_the_json_is(self, base):
        # scaled(-1.0) flips the sign of a zero phase, twice restores it; replace makes a -0.0 twin,
        # and the raw constructor an equal step from another spelling
        twins = (lambda s: s.scaled(-1.0), lambda s: s.scaled(-1.0).scaled(-1.0), lambda s: replace(s, phase=-0.0))
        pool = [v for s in base for t in (lambda s: s, *twins) for v in (t(s), _respelled(t(s)))]
        text = [json.dumps(schedule_to_json(PulseSchedule((s,)))["steps"]) for s in pool]
        for a, ta in zip(pool, text):
            for b, tb in zip(pool, text):
                assert (a == b) == (ta == tb) != (a != b)
                assert a != b or hash(a) == hash(b)

    def test_derived_steps_hash_like_fresh_ones(self):
        s = PulseStep.make({(1, 2): 0.5}, phase=0.1)
        hash(s)  # the cached hash must not leak into derived steps
        fresh = PulseStep.make({(1, 2): 1.0}, phase=0.2)
        assert s.scaled(2.0) == fresh and hash(s.scaled(2.0)) == hash(fresh)
        moved = replace(s, phase=0.3)
        fresh = PulseStep.make({(1, 2): 0.5}, phase=0.3)
        assert moved == fresh and hash(moved) == hash(fresh)


class TestInternedForm:
    """``PulseSchedule._interned``: each step hashed once, one id run form per schedule."""

    @settings(max_examples=100, deadline=None)
    @given(sch=_repeating_schedules())
    def test_ids_index_first_occurrences(self, sch):
        distinct, (head, body, reps, tail) = sch._interned
        seq = _written_ids(sch)
        assert isinstance(distinct, tuple) and all(isinstance(part, tuple) for part in (head, body, tail))
        h, b, r, t = _run_form(sch)
        assert (len(head), len(body), reps, len(tail)) == (len(h), len(b), r, len(t))
        assert len(seq) == len(sch.steps)
        assert all(distinct[k] is step for k, step in zip(seq, sch.steps))
        firsts = [seq.index(k) for k in range(len(distinct))]
        assert firsts == sorted(firsts)
        assert distinct == tuple(dict.fromkeys(sch.steps))

    def test_equal_copies_share_the_first_object(self):
        a, b = PulseStep.make({(1, 4): 0.5}), PulseStep.make({(1, 4): 0.5})
        c = PulseStep.make({(2, 5): 0.5})
        sch = PulseSchedule((a, c, b, a))
        distinct, runs = sch._interned
        assert distinct[0] is a and distinct[1] is c and len(distinct) == 2
        assert runs == ((), (), 0, (0, 1, 0, 0)) and _written_ids(sch) == (0, 1, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(sch=_repeating_schedules())
    def test_filled_cache_is_invisible(self, sch):
        fresh = PulseSchedule(sch.steps, name=sch.name, order=sch.order, n=sch.n)
        sch._interned, sch._rows, sch._form
        assert {"_interned", "_rows"} <= vars(sch).keys() and "_interned" not in vars(fresh)
        assert sch == fresh and hash(sch) == hash(fresh)
        assert schedule_to_json(sch) == schedule_to_json(fresh)
        assert repr(sch) == repr(fresh)

    @settings(max_examples=100, deadline=None)
    @given(sch=_repeating_schedules())
    def test_derived_schedules_intern_their_own_steps(self, sch):
        sch._interned, sch._form
        derived = [
            replace(sch, steps=sch.steps[::-1] + sch.steps[:1]),
            consolidate(sch),
            cancel_negatives(sch),
        ]
        for out in derived:
            fresh = PulseSchedule(out.steps)
            assert out._interned[0] == fresh._interned[0] and _written_ids(out) == _written_ids(fresh)
            _assert_same_gates(out, fresh)
            distinct = out._interned[0]
            assert tuple(distinct[k] for k in _written_ids(out)) == out.steps

    @settings(max_examples=100, deadline=None)
    @given(sch=st.one_of(_repeating_schedules(), _run_forms().map(lambda form: PulseSchedule._repeated(*form))))
    def test_product_levels_multiply_in_schedule_order(self, sch):
        """With concatenation as the product, the plan spells out the id sequence."""
        seq, form = _written_ids(sch), sch._form
        assert form.finals == (form.finals[0] if seq else None,)
        assert (_spelled(form)[form.finals[0]] if seq else ()) == seq
        products = sum(len(left) for left, _ in form.levels)
        assert products <= _products_bound(sch) and form.slots <= len(form.rows) + products
        if sch._interned[1][2] < 2:  # written out: one pairwise tree, a level per halving
            assert len(form.levels) == max(len(seq) - 1, 0).bit_length()

    def test_long_run_form_plans_few_products(self):
        form = cnot_spin_independent(MAX_ITERATIONS)._form
        assert sum(len(left) for left, _ in form.levels) <= 40
        assert form.slots <= len(form.rows) + 40


class TestRunForm:
    """The run form of ``PulseSchedule._interned``: a built schedule keeps its repeat structure, seen only in the evolve's rounding."""

    @staticmethod
    def _flat(sch):
        return PulseSchedule(sch.steps, name=sch.name, order=sch.order, n=sch.n)

    @staticmethod
    def _dumps(sch):
        return json.dumps(schedule_to_json(sch))

    def _assert_invisible(self, sch):
        flat = self._flat(sch)
        assert _run_form(flat) == ((), (), 0, sch.steps)
        assert sch._interned[0] == flat._interned[0] and _written_ids(sch) == _written_ids(flat)
        assert all(a is b for a, b in zip(sch._interned[0], flat._interned[0]))
        _assert_same_gates(sch, flat)
        assert normalized_time(sch).hex() == normalized_time(flat).hex()
        assert self._dumps(consolidate(sch)) == self._dumps(consolidate(flat))
        assert schedule._negative_local_steps(sch) == schedule._negative_local_steps(flat)
        canceled, flat_canceled = cancel_negatives(sch), cancel_negatives(flat)
        assert self._dumps(canceled) == self._dumps(flat_canceled)
        assert self._dumps(consolidate(canceled)) == self._dumps(consolidate(flat_canceled))
        assert schedule._negative_local_steps(canceled) == schedule._negative_local_steps(flat_canceled)

    @settings(max_examples=300, deadline=None)
    @given(runs=_run_forms())
    def test_run_form_is_invisible(self, runs):
        head, body, reps, tail = runs
        sch = PulseSchedule._repeated(head, body, reps, tail, name="runs", order=0, n=3)
        assert sch.steps == tuple(head + body * reps + tail)
        h, b, r, t = _run_form(sch)
        assert h + b * r + t == sch.steps
        self._assert_invisible(sch)
        out = consolidate(sch)
        h, b, r, t = _run_form(out)
        assert h + b * r + t == out.steps

    _BUILDERS = {
        "order-1": cnot_spin_independent,
        "order-0": lambda n: cnot_spin_independent(n, order=0),
        "spin-1": cnot_spin1,
        "trotter_product": lambda n: trotter_product([{(1, 4): 1.0}, {(2, 5): -0.5}, {(3, 6): 0.25}], 1.0, n),
        "trotter_product-0": lambda n: trotter_product([{(1, 4): 1.0}, {(2, 5): -0.5}], 1.0, n, 0),
        "decoupled_evolution": lambda n: decoupled_evolution(SWAP_GENERATOR_N, 1.0, n),
        "decoupled_evolution-0": lambda n: decoupled_evolution(SWAP_GENERATOR_N, 1.0, n, order=0),
    }

    @pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
    def test_builders_keep_n_repeats(self, build, n):
        sch = build(n)
        head, body, reps, tail = _run_form(sch)
        assert reps == n and body
        assert head + body * reps + tail == sch.steps
        canceled = cancel_negatives(sch)
        h, b, r, t = _run_form(canceled)
        assert r == n and h + b * r + t == canceled.steps
        self._assert_invisible(sch)

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_order0_consolidated_json_keeps_signed_zeros(self, n):
        # u' = u.scaled(-1.0) has phase -0.0; the merge u2' + u equals u' with
        # phase +0.0, so a replay keyed on values alone would print the wrong sign
        sch = cnot_spin_independent(n, order=0)
        got = self._dumps(consolidate(sch))
        assert got == self._dumps(consolidate(self._flat(sch)))
        assert '"phase": -0.0' in got and '"phase": 0.0' in got

    def test_replay_keys_the_pending_object(self):
        # the repeats start with pending x, then with its -0.0 twin: equal
        # values but unequal steps, so the output must spell the twin, not x
        x = PulseStep.make({(1, 2): 0.5})
        twin = replace(x, phase=-0.0)
        y = PulseStep.make({(2, 3): 0.5})
        sch = PulseSchedule._repeated((x,), (y, twin), 5, ())
        out = consolidate(sch)
        assert out.steps == sch.steps and all(a is b for a, b in zip(out.steps, sch.steps))
        assert self._dumps(out) == self._dumps(consolidate(self._flat(sch)))

    @pytest.mark.parametrize("build", list(_BUILDERS.values())[:3], ids=list(_BUILDERS)[:3])
    def test_consolidate_replays_repeats(self, build):
        # the repeats after the first period are copied, not walked, and the
        # output keeps them as its own run form
        for n in (3, 200):
            out = consolidate(build(n))
            head, body, reps, tail = _run_form(out)
            assert reps == n - 1 and len(head) + len(body) + len(tail) <= 30

    def test_derived_schedules_compute_their_own(self):
        sch = cnot_spin1(4)
        moved = replace(sch, steps=sch.steps[1:])
        assert "_interned" not in vars(moved) and _run_form(moved) == ((), (), 0, moved.steps)
        assert moved._interned == PulseSchedule(moved.steps)._interned

    @pytest.mark.parametrize("reps", [0, 1])
    def test_empty_body_or_no_repeats_is_degenerate(self, reps):
        a, b = PulseStep.make({(1, 2): 0.5}), PulseStep.make({(4, 5): 0.5})
        body = () if reps else (b,)
        sch = PulseSchedule._repeated((a,), body, reps, (b, a))
        assert _run_form(sch) == ((), (), 0, (a, b, a))


class TestStepArrays:
    """``PulseSchedule._form``: the distinct steps' numeric form and product plan, built once per schedule."""

    @settings(max_examples=100, deadline=None)
    @given(sch=_repeating_schedules())
    def test_arrays_spell_out_the_interned_form(self, sch):
        form = sch._form
        assert sch._form is form
        distinct, _ = sch._interned
        assert form.rows.shape == (len(distinct), 15)
        assert np.array_equal(form.rows, sch._rows) and not sch._rows.flags.writeable
        for step, row, phase, phased in zip(distinct, form.rows, form.phases, form.phased):
            assert {ALL_PAIRS[k]: c for k, c in enumerate(row) if c} == step.coefficients()
            assert phase == np.exp(1j * step.phase) and phased == (step.phase != 0.0)
        for a in (form.rows, form.phases, form.phased, *(a for level in form.levels for a in level)):
            assert not a.flags.writeable

    _FORM_BUILDS = {
        **{
            f"{name}-{n}": lambda build=build, n=n: build(n)
            for name, build in list(TestRunForm._BUILDERS.items())[:3]
            for n in (1, 7, 200)
        },
        "random-100": lambda: _random_schedule(100),
        "empty": lambda: PulseSchedule(()),
    }

    @pytest.mark.parametrize("cancel", [False, True], ids=["plain", "canceled"])
    @pytest.mark.parametrize("name", list(_FORM_BUILDS))
    def test_batch_of_one_is_the_schedules_own_form(self, name, cancel):
        """``_evolve_form((s,))`` equals ``s._form`` array for array and level for level."""
        sch = self._FORM_BUILDS[name]()
        if cancel:
            sch = cancel_negatives(sch)
        own, batch = sch._form, schedule._evolve_form((sch,))
        for a, b in zip(own[:3], batch[:3]):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert len(own.levels) == len(batch.levels) and own.slots == batch.slots
        for (left, right), (b_left, b_right) in zip(own.levels, batch.levels):
            assert np.array_equal(left, b_left) and np.array_equal(right, b_right)
            assert left.dtype == b_left.dtype == np.intp
        assert own.finals == batch.finals and len(own.finals) == 1
        assert (_spelled(own)[own.finals[0]] if sch.steps else ()) == _written_ids(sch)


class TestBatchPlan:
    """``schedule._evolve_form``: several run forms planned at once, as ``metrics.evolve_many`` plans a batch."""

    @settings(max_examples=100, deadline=None)
    @given(batch=st.lists(
        st.one_of(_run_forms().map(lambda form: PulseSchedule._repeated(*form)), st.just(PulseSchedule(()))),
        max_size=4,
    ))
    def test_batch_plan_spells_each_schedule_and_evolves_to_its_bits(self, batch):
        """With concatenation as the product, each final spells its schedule's ids in batch ids."""
        ids = {}
        for sch in batch:
            for step in sch.steps:
                ids.setdefault(step, len(ids))
        form = schedule._evolve_form(batch)
        assert np.array_equal(form.rows, schedule._coefficient_rows(list(ids)))
        assert form.phased.tolist() == [step.phase != 0.0 for step in ids]
        pool = _spelled(form)  # one pair table for the whole batch
        assert len(form.finals) == len(batch)
        for sch, final in zip(batch, form.finals):
            assert (pool[final] if final is not None else ()) == tuple(ids[step] for step in sch.steps)
        assert sum(len(left) for left, _ in form.levels) <= sum(_products_bound(sch) for sch in batch)
        for stack in _STACKS:
            gates = metrics.evolve_many(batch, stack)
            assert gates.shape == (len(batch), *stack.shape[1:])
            assert all(np.array_equal(gate, metrics.evolve(sch, stack)) for gate, sch in zip(gates, batch))

    _PAIRS = {
        "independent-3-spin1-2": (lambda: cnot_spin_independent(3), lambda: cnot_spin1(2)),
        "spin1-200-canceled": (lambda: cnot_spin1(200), lambda: cancel_negatives(cnot_spin1(200))),
        "order0-7-empty": (lambda: cnot_spin_independent(7, order=0), lambda: PulseSchedule(())),
        "random-100-independent-1": (lambda: _random_schedule(100), lambda: cnot_spin_independent(1)),
    }

    def test_batch_rows_are_each_schedules_new_rows(self, monkeypatch):
        """A batch's rows equal ``_coefficient_rows`` of its distinct steps, taken from each schedule's ``_rows``.

        The later schedules mix steps the batch already holds with new ones,
        so each takes a masked part of its rows.
        """
        rng = np.random.default_rng(25)
        pool = [
            PulseStep.make({ALL_PAIRS[p]: rng.uniform(-np.pi, np.pi) for p in rng.choice(15, 3, replace=False)}, 0.1 * j)
            for j in range(12)
        ]
        batch = [PulseSchedule(tuple(pool[j] for j in rng.integers(0, 12, size=20))) for _ in range(4)]
        batch += [cnot_spin_independent(3), cancel_negatives(cnot_spin1(2)), PulseSchedule(())]
        distinct = list(dict.fromkeys(step for sch in batch for step in sch.steps))
        built = []
        original = schedule._coefficient_rows

        def counting(steps):
            built.append(tuple(steps))
            return original(steps)

        monkeypatch.setattr(schedule, "_coefficient_rows", counting)
        form = schedule._evolve_form(batch)
        assert built == [sch._interned[0] for sch in batch]
        want = original(distinct)
        assert form.rows.dtype == want.dtype and np.array_equal(form.rows, want)
        assert not form.rows.flags.writeable

    @pytest.mark.parametrize("name", list(_PAIRS))
    def test_repeated_schedule_adds_no_rows(self, name):
        """A batch (s, s, t) has one row per distinct step of s and t, and each gate is ``evolve``'s, bit for bit."""
        s, t = (build() for build in self._PAIRS[name])
        batch = (s, s, t)
        distinct = list(dict.fromkeys(s.steps + t.steps))
        form = schedule._evolve_form(batch)
        assert len(form.rows) == len(distinct)
        assert np.array_equal(form.rows, schedule._coefficient_rows(distinct))
        for stack in _STACKS:
            gates = metrics.evolve_many(batch, stack)
            assert all(np.array_equal(gate, metrics.evolve(sch, stack)) for gate, sch in zip(gates, batch))


class TestStepGenerator:
    @settings(max_examples=60, deadline=None)
    @given(coeffs=_COEFF_MAPS, sector=st.sampled_from(list(SpinSector)))
    def test_matches_group_algebra_generator(self, coeffs, sector):
        step = PulseStep.make(coeffs)
        want = rep_element(sector.partition, step.coefficients())
        got = row_generators(schedule._coefficient_rows((step,)), pair_stack(sector))[0]
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 17])
    def test_stack_rows_are_per_step_products(self, k):
        # each row is the matrix-vector product tensordot makes, bit for bit
        rng = np.random.default_rng(k)
        steps = [
            PulseStep.make({p: rng.uniform(-np.pi, np.pi) for p in ALL_PAIRS if rng.random() < 0.5})
            for _ in range(k)
        ]
        stacks = [pair_stack(s) for s in SpinSector]
        stacks += MAGNETIZATION_BLOCKS
        for stack in stacks:
            got = row_generators(schedule._coefficient_rows(steps), stack)
            assert got.shape == (k, *stack.shape[1:])
            for step, row in zip(steps, got):
                coeffs = np.zeros(15)
                for pair, c in zip(step.pairs, step.coeffs):
                    coeffs[ALL_PAIRS.index(pair)] += c
                assert np.array_equal(row, np.tensordot(coeffs, stack, axes=1))
                assert np.array_equal(row, row_generators(schedule._coefficient_rows((step,)), stack)[0])
            assert np.array_equal(got, row_generators(PulseSchedule(tuple(steps))._form.rows, stack))


class TestTrotterProduct:
    def test_single_term_exact(self):
        a = {(1, 4): 0.8, (2, 5): -0.2}
        for order in (0, 1):
            sch = trotter_product([a], 1.7, 3, order)
            for sector in SpinSector:
                h = rep_element(sector.partition, a)
                assert np.max(np.abs(simulate(sch, sector) - expi(1.7 * h))) <= 1e-12

    def test_commuting_terms_exact(self):
        a = {(1, 2): 0.8}
        b = {(4, 5): -0.3}
        sch = trotter_product([a, b], 1.0, 1, 1)
        for sector in SpinSector:
            h = rep_element(sector.partition, {**a, **b})
            assert np.max(np.abs(simulate(sch, sector) - expi(h))) <= 1e-12

    @pytest.mark.parametrize("order,min_ratio", [(0, 1.8), (1, 3.5)])
    def test_error_scaling_when_doubling_n(self, order, min_ratio):
        a = {(1, 2): 0.9, (3, 4): -0.4}
        b = {(2, 3): 0.7, (4, 5): 0.5}
        sector = SpinSector.SPIN1
        h = rep_element(sector.partition, {**a, **b})
        exact = expi(h)

        def err(n):
            return np.linalg.norm(simulate(trotter_product([a, b], 1.0, n, order), sector) - exact, 2)

        assert err(8) / err(16) >= min_ratio

    def test_bad_arguments(self):
        a = {(1, 2): 1.0}
        with pytest.raises(ValueError):
            trotter_product([a], 1.0, 0, 1)
        with pytest.raises(ValueError):
            trotter_product([a], 1.0, 1, 2)
        for order in (0, 1):
            with pytest.raises(ValueError):
                trotter_product([], 1.0, 1, order)

    def test_rejects_bad_pair(self):
        for pairs in ({(1, 7): 1.0}, {(2, 2): 1.0}):
            for order in (0, 1):
                with pytest.raises(ValueError):
                    trotter_product([{(1, 2): 1.0}, pairs], 1.0, 2, order)


class TestDecoupledEvolution:
    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_converges_to_decoupled_exponential(self, sector):
        h = rep_element(sector.partition, SWAP_GENERATOR_N)
        target = expi((np.pi / 2) * decouple_map(h, sector, "power"))

        def err(n):
            sch = decoupled_evolution(SWAP_GENERATOR_N, np.pi / 2, n)
            return np.linalg.norm(simulate(sch, sector) - target, 2)

        assert err(16) <= err(8) / 3.5  # first-order formula: error ~ 1/n^2

    def test_zeroth_order_scales_linearly(self):
        sector = SpinSector.SPIN1
        h = rep_element(sector.partition, SWAP_GENERATOR_N)
        target = expi((np.pi / 2) * decouple_map(h, sector, "power"))

        def err(n):
            sch = decoupled_evolution(SWAP_GENERATOR_N, np.pi / 2, n, order=0)
            return np.linalg.norm(simulate(sch, sector) - target, 2)

        assert err(16) <= err(8) / 1.7
        assert err(16) >= err(8) / 3.0

    def test_exact_for_commuting_hamiltonian(self):
        h = {(1, 2): 0.4}
        sch = decoupled_evolution(h, 1.3, 1)
        for sector in SpinSector:
            m = rep_element(sector.partition, h)
            target = expi(1.3 * decouple_map(m, sector, "power"))
            assert np.max(np.abs(simulate(sch, sector) - target)) <= 1e-12

    @pytest.mark.parametrize("pair", [(1, 4), (4, 1), (3, 6)])
    def test_dropping_a_pair_outside_the_decoupler_raises(self, pair):
        message = f"^drop_from_decoupler: {re.escape(str(tuple(sorted(pair))))} is not a decoupler pair$"
        with pytest.raises(ValueError, match=message):
            decoupled_evolution(SWAP_GENERATOR_N, np.pi / 2, 3, drop_from_decoupler=[(1, 2), pair])

    def test_callers_generator_made_on_each_call(self):
        h = dict(SWAP_GENERATOR_N)
        first = decoupled_evolution(h, np.pi / 2, 2)
        h[(3, 6)] = 0.5
        second = decoupled_evolution(h, np.pi / 2, 2)
        assert first.steps != second.steps
        assert all(s.coefficients().get((3, 6)) for s in second.steps if s.is_cross_block())

    def test_dropping_commuting_transposition_is_exact(self):
        kept = decoupled_evolution(SWAP_GENERATOR_N, np.pi / 2, 3)
        dropped = decoupled_evolution(
            SWAP_GENERATOR_N, np.pi / 2, 3, drop_from_decoupler=[(1, 2)]
        )
        for sector in SpinSector:
            d = np.linalg.norm(simulate(kept, sector) - simulate(dropped, sector), 2)
            assert d <= 1e-12


class TestCnotConstructions:
    @pytest.mark.parametrize(
        "n,cycles,time", [(3, 39, 8.5), (5, 63, 12.5), (9, 111, 20.5)]
    )
    def test_spin_independent_counts(self, n, cycles, time):
        sch = cnot_spin_independent(n)
        assert len(consolidate(sch).steps) == cycles
        assert abs(normalized_time(sch) - time) <= 0.05

    @pytest.mark.parametrize("n,cycles,time", [(2, 21, 9.8), (3, 31, 13.8), (4, 41, 17.8)])
    def test_spin1_counts(self, n, cycles, time):
        sch = cnot_spin1(n)
        assert len(consolidate(sch).steps) == cycles
        assert abs(normalized_time(sch) - time) <= 0.05

    @pytest.mark.parametrize("n", [*range(1, 13), 50])
    def test_cycle_count_laws(self, n):
        # n = 1 and 2 give the cycles per repeated body and at its boundary
        for build, law in (
            (cnot_spin_independent, (12, 3)),
            (cnot_spin1, (10, 1)),
            (lambda k: cnot_spin_independent(k, order=0), (8, 1)),
        ):
            one, two = (len(consolidate(build(k))) for k in (1, 2))
            assert (two - one, 2 * one - two) == law
            assert len(consolidate(build(n))) == law[0] * n + law[1]

    def test_equal_steps_are_one_object(self):
        # interning a schedule of shared step objects never calls the dataclass __eq__
        for sch in (
            cnot_spin_independent(3, order=0),
            cnot_spin_independent(3, order=1),
            cnot_spin1(3),
            decoupled_evolution(SWAP_GENERATOR_N, np.pi / 2, 3, order=0),
            decoupled_evolution(SWAP_GENERATOR_N, np.pi / 2, 3, order=1),
        ):
            assert len({id(s) for s in sch.steps}) == len(set(sch.steps))

    def test_prefactor_dt_and_decoupler(self):
        n = 2
        sch = cnot_spin_independent(n)
        first = sch.steps[0]
        assert first.coefficients() == {(1, 2): pytest.approx(-np.pi / 4)}
        assert first.phase == pytest.approx(-np.pi / 4)
        # decoupler omits (12): five local pairs at pi/6
        u = sch.steps[1]
        assert (1, 2) not in u.coefficients()
        assert len(u.pairs) == 5
        assert u.coefficients()[(1, 3)] == pytest.approx(-np.pi / 6)
        # first half pulse of the generator at dt/2 = pi/16n
        h_half = sch.steps[2]
        assert h_half.coefficients()[(1, 5)] == pytest.approx(
            (np.pi / (16 * n)) * 3 * SQ3 / 4
        )
        assert h_half.coefficients()[(1, 4)] == pytest.approx(
            -(np.pi / (16 * n)) * 3 * SQ3 / 4
        )

    def test_spin_independent_blocks_agree_within_trotter_error(self):
        for n in (3, 5):
            sch = cnot_spin_independent(n)
            blocks = {}
            errs = {}
            for sector in SpinSector:
                b = computational_block(sch, sector)
                phase = np.trace(CNOT.conj().T @ b) / 4
                phase /= abs(phase)
                blocks[sector] = b / phase
                errs[sector] = np.linalg.norm(blocks[sector] - CNOT, 2)
            gap = np.linalg.norm(blocks[SpinSector.SPIN0] - blocks[SpinSector.SPIN1], 2)
            assert gap <= errs[SpinSector.SPIN0] + errs[SpinSector.SPIN1] + 1e-9

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_spin0_fidelity_at_least_spin1(self, n):
        r = report(cnot_spin_independent(n))
        assert r.fidelity["SPIN0"] >= r.fidelity["SPIN1"]

    def test_error_scaling_with_n(self):
        # operator-norm error of the product falls as 1/n^2; the fidelity
        # is quadratically insensitive to it, so 1 - F falls as ~1/n^4
        # (the tabulated values behave the same way)
        sector = SpinSector.SPIN1
        errs = {}
        for n in (3, 9):
            sch = cnot_spin_independent(n)
            g = simulate(sch, sector)
            pi = projector(sector)
            blk = pi @ g @ pi.T
            phase = np.trace(CNOT.conj().T @ blk) / 4
            errs[n] = np.linalg.norm(blk / (phase / abs(phase)) - CNOT, 2)
        norm_ratio = errs[3] / errs[9]
        assert 9 * 0.5 <= norm_ratio <= 9 * 2.0
        f3 = report(cnot_spin_independent(3)).fidelity["SPIN1"]
        f9 = report(cnot_spin_independent(9)).fidelity["SPIN1"]
        fid_ratio = (1 - f3) / (1 - f9)
        assert 81 * 0.5 <= fid_ratio <= 81 * 2.0

    def test_bad_n(self):
        with pytest.raises(ValueError):
            cnot_spin_independent(0)
        with pytest.raises(ValueError):
            cnot_spin1(0)
        with pytest.raises(ValueError):
            cnot_spin1(MAX_ITERATIONS + 1)

    _BUILDS = {
        "trotter_product": lambda n, order: trotter_product([{(1, 4): 1.0}, {(2, 5): 0.5}], 1.0, n, order),
        "decoupled_evolution": lambda n, order: decoupled_evolution(SWAP_GENERATOR_N, 1.0, n, order=order),
        "cnot_spin_independent": lambda n, order: cnot_spin_independent(n, order=order),
        "cnot_spin1": lambda n, order: cnot_spin1(n),
    }
    _ORDERED = ("trotter_product", "decoupled_evolution", "cnot_spin_independent")

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS.keys())
    @pytest.mark.parametrize("n", [True, 2.0, np.float64(2.0), "2"])
    def test_bool_or_float_n_rejected(self, build, n):
        with pytest.raises(ValueError, match="iteration count must be an integer"):
            build(n, 1)

    @pytest.mark.parametrize("build", list(map(_BUILDS.get, _ORDERED)), ids=_ORDERED)
    @pytest.mark.parametrize("order", [True, False, 1.0, np.float64(0.0)])
    def test_bool_or_float_order_rejected(self, build, order):
        with pytest.raises(ValueError, match="order must be an integer"):
            build(2, order)

    _OUT_OF_RANGE = {
        "n = 0": (lambda: cnot_spin1(0), f"iteration count must be between 1 and {MAX_ITERATIONS}, got 0"),
        "n too large": (
            lambda: trotter_product([{(1, 4): 1.0}], 1.0, MAX_ITERATIONS + 1),
            f"iteration count must be between 1 and {MAX_ITERATIONS}, got {MAX_ITERATIONS + 1}",
        ),
        "order": (lambda: cnot_spin_independent(2, order=2), "order must be 0 or 1, got 2"),
        "loaded order": (lambda: schedule_from_json({"version": 1, "steps": [], "order": -1}), "order must be 0 or 1, got -1"),
        "block": (lambda: single_qubit_schedule(3, 0.1, 0, 0), "block must be 1 or 2, got 3"),
    }

    @pytest.mark.parametrize(("call", "message"), _OUT_OF_RANGE.values(), ids=_OUT_OF_RANGE.keys())
    def test_out_of_range_messages(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS.keys())
    def test_numpy_int_n_and_order_stored_as_int(self, build, tmp_path):
        from exgates.trotter import load_schedule, save_schedule

        sch = build(np.int64(2), np.int32(1))
        assert type(sch.n) is int and type(sch.order) is int
        assert sch == build(2, 1)
        path = tmp_path / "schedule.json"
        save_schedule(sch, path)
        assert load_schedule(path) == sch

    _SHARING = {**_FAMILIES, "order-1-after-every-decoupler": _after_every_decoupler}

    @pytest.mark.parametrize("build", _SHARING.values(), ids=_SHARING.keys())
    def test_builders_share_their_constant_steps(self, build):
        # the prefactor, the decoupler steps and their inverses are the same objects at every n,
        # and the generator's steps are the process's one generator step scaled
        generator = trotter._STEP_N1 if build is cnot_spin1 else trotter._STEP_N
        local = []
        for n in (1, 2, 9, 200):
            distinct = build(n)._interned[0]
            local.append([id(s) for s in distinct if not s.is_cross_block()])
            dt = np.pi / (8 * n)
            assert {s for s in distinct if s.is_cross_block()} <= {generator.scaled(dt * w) for w in (0.5, 1)}
        assert len(local[0]) >= 3 and all(ids == local[0] for ids in local)

    def test_is_prefactored_decoupled_evolution(self):
        # the construction is exactly the first-order decoupled evolution
        # of the generator (decoupler minus (12)) behind the local prefactor
        n = 4
        core = decoupled_evolution(
            SWAP_GENERATOR_N, np.pi / 2, n, drop_from_decoupler=[(1, 2)]
        )
        sch = cnot_spin_independent(n)
        assert sch.steps[1:] == core.steps
        assert sch.steps[0].phase == pytest.approx(-np.pi / 4)

    def test_infidelity_slope_across_tabulated_n(self):
        fids = {n: report(cnot_spin_independent(n)).fidelity["SPIN1"] for n in (3, 5, 9)}
        r35 = (1 - fids[3]) / (1 - fids[5])
        r59 = (1 - fids[5]) / (1 - fids[9])
        assert (5 / 3) ** 4 * 0.5 <= r35 <= (5 / 3) ** 4 * 2.0
        assert (9 / 5) ** 4 * 0.5 <= r59 <= (9 / 5) ** 4 * 2.0


class TestSingleQubit:
    def test_identity_is_empty(self):
        assert len(single_qubit_schedule(1, 0, 0, 0, 0).steps) == 0
        # a phase alone is one step built like any other, so its phase is a float
        for delta in (1, np.int64(1), 0.5):
            sch = single_qubit_schedule(2, 0, 0, 0, delta)
            assert sch.steps == (PulseStep.make({}, float(delta)),)
            assert type(sch.steps[0].phase) is float
            assert json.loads(json.dumps(schedule_to_json(sch)))["steps"][0]["phase"] == delta

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_phase_is_checked_like_any_other(self, alpha):
        # with or without a rotation step to carry it
        with pytest.raises(ValueError, match="must be finite"):
            single_qubit_schedule(1, alpha, 0, 0, float("nan"))
        sch = single_qubit_schedule(1, alpha, 0, 0, np.int64(1))
        assert type(sch.steps[0].phase) is float and sch.steps[0].phase == 1.0

    def test_z_rotation_via_swap12(self):
        sch = single_qubit_schedule(1, 0, np.pi / 4, 0)
        (step,) = sch.steps
        assert step.coefficients() == {(1, 2): pytest.approx(-np.pi / 4)}
        target = expi((np.pi / 4) * pauli_word("ZI").real)
        for sector in SpinSector:
            assert np.max(np.abs(computational_block(sch, sector) - target)) <= 1e-12

    @pytest.mark.parametrize("block", [1, 2])
    def test_general_gate_both_sectors(self, block):
        a, b, g, d = 0.3, -0.7, 1.1, 0.4
        sch = single_qubit_schedule(block, a, b, g, d)
        x = pauli_word("XI" if block == 1 else "IX").real
        z = pauli_word("ZI" if block == 1 else "IZ").real
        want = np.exp(1j * d) * expi(a * x) @ expi(b * z) @ expi(g * x)
        blocks = []
        for sector in SpinSector:
            blk = computational_block(sch, sector)
            blocks.append(blk)
            assert np.max(np.abs(blk - want)) <= 1e-12
        assert np.max(np.abs(blocks[0] - blocks[1])) <= 1e-12

    def test_bad_block(self):
        with pytest.raises(ValueError):
            single_qubit_schedule(3, 0.1, 0, 0)

    @pytest.mark.parametrize("block", [True, False, 1.0, np.float64(2.0), "1"])
    def test_bool_or_float_block_rejected(self, block):
        with pytest.raises(ValueError, match="block must be an integer"):
            single_qubit_schedule(block, 0.3, 0.2, 0.1)

    def test_numpy_int_block_is_a_plain_int(self):
        sch = single_qubit_schedule(np.int64(2), 0.3, 0.2, 0.1)
        assert sch.name == "local-block2"
        assert sch == single_qubit_schedule(2, 0.3, 0.2, 0.1)


class TestCanonicalGate:
    def test_empty_spec_empty_schedule(self):
        sch = canonical_two_qubit_schedule(CanonicalGateSpec(), n=1)
        assert len(sch.steps) == 0

    def test_xx_half_pi_both_sectors(self):
        sch = canonical_two_qubit_schedule(CanonicalGateSpec(alpha=np.pi / 2), n=16)
        want = expi((np.pi / 2) * pauli_word("XX").real)
        for sector in SpinSector:
            blk = computational_block(sch, sector)
            assert np.linalg.norm(blk - want, 2) <= 5e-3

    def test_printed_example_identity(self):
        # (3 pi/4) evolution of the xx-generating exchange combination is
        # i XX in both sectors, exactly, at the projected level
        x = {(1, 4): 1.0, (1, 5): -1.0, (2, 4): -1.0, (2, 5): 1.0}
        vals = []
        for sector in SpinSector:
            m = expi((3 * np.pi / 4) * projected_rep(x, sector).real)
            vals.append(m)
            assert np.max(np.abs(m - 1j * pauli_word("XX"))) <= 1e-12
        assert np.max(np.abs(vals[0] - vals[1])) <= 1e-12

    def test_yy_via_conjugation(self):
        sch = canonical_two_qubit_schedule(
            CanonicalGateSpec(beta=np.pi / 2), n=16, sector=SpinSector.SPIN1
        )
        want = expi((np.pi / 2) * pauli_word("YY"))
        blk = computational_block(sch, SpinSector.SPIN1)
        assert np.linalg.norm(blk - want, 2) <= 1e-2

    @pytest.mark.parametrize("factor", [("x", 3, 0.5), ("x", 0, 0.5), ("y", 1, 0.0)])
    def test_bad_local_factor_rejected(self, factor):
        with pytest.raises(ValueError):
            canonical_two_qubit_schedule(CanonicalGateSpec(k1=(factor,)), n=1)

    @pytest.mark.parametrize("block", [True, 1.0, np.float64(2.0)])
    def test_bool_or_float_block_rejected(self, block):
        for angle in (0.2, 0.0):  # a zero angle gives no step but is checked too
            with pytest.raises(ValueError, match="block must be an integer"):
                canonical_two_qubit_schedule(CanonicalGateSpec(k1=(("x", block, angle),)), n=1)
            with pytest.raises(ValueError, match="block must be an integer"):
                canonical_two_qubit_schedule(CanonicalGateSpec(k2=(("z", block, angle),)), n=1)

    def test_numpy_int_block_accepted(self):
        spec = CanonicalGateSpec(k1=(("z", np.int64(1), 0.4),), k2=(("x", np.int32(2), -0.2),))
        plain = CanonicalGateSpec(k1=(("z", 1, 0.4),), k2=(("x", 2, -0.2),))
        assert canonical_two_qubit_schedule(spec, n=1) == canonical_two_qubit_schedule(plain, n=1)

    def test_local_factors_applied(self):
        spec = CanonicalGateSpec(k1=(("z", 1, 0.4),), k2=(("x", 2, -0.2),))
        sch = canonical_two_qubit_schedule(spec, n=1)
        want = expi(0.4 * pauli_word("ZI").real) @ expi(-0.2 * pauli_word("IX").real)
        for sector in SpinSector:
            assert np.max(np.abs(computational_block(sch, sector) - want)) <= 1e-12

    def test_sector_independent_rejects_generic_angles(self):
        with pytest.raises(ValueError):
            canonical_two_qubit_schedule(CanonicalGateSpec(alpha=0.3), n=2)
        # fine when a sector is fixed
        canonical_two_qubit_schedule(CanonicalGateSpec(alpha=0.3), n=2, sector=SpinSector.SPIN1)


# Each builder angle, with the name its error message gives it.
_ANGLE_CALLS = {
    "single-qubit-alpha": ("alpha", lambda a: single_qubit_schedule(1, a, 0, 0)),
    "single-qubit-beta": ("beta", lambda a: single_qubit_schedule(1, 0, a, 0)),
    "single-qubit-gamma": ("gamma", lambda a: single_qubit_schedule(1, 0, 0, a)),
    "single-qubit-delta": ("delta", lambda a: single_qubit_schedule(1, 0.3, 0, 0, a)),
    "canonical-alpha": ("alpha", lambda a: canonical_two_qubit_schedule(CanonicalGateSpec(alpha=a), 1, SpinSector.SPIN1)),
    "canonical-beta": ("beta", lambda a: canonical_two_qubit_schedule(CanonicalGateSpec(beta=a), 1, SpinSector.SPIN1)),
    "canonical-gamma": ("gamma", lambda a: canonical_two_qubit_schedule(CanonicalGateSpec(gamma=a), 1)),
    "canonical-k1": ("k1[0] angle", lambda a: canonical_two_qubit_schedule(CanonicalGateSpec(k1=(("x", 1, a),)), 1)),
    "canonical-k2": (
        "k2[1] angle",
        lambda a: canonical_two_qubit_schedule(CanonicalGateSpec(k2=(("x", 1, 0.5), ("z", 2, a))), 1),
    ),
    "trotter-product": ("alpha", lambda a: trotter_product([SWAP_GENERATOR_N, {(1, 2): 0.5}], a, 1)),
    "decoupled-evolution": ("alpha", lambda a: decoupled_evolution(SWAP_GENERATOR_N, a, 1)),
}


@pytest.mark.parametrize(
    ("angle", "error"),
    [(True, ValueError), (False, ValueError), ("0.5", ValueError), (np.complex128(0.5), TypeError)],
    ids=["true", "false", "str", "numpy-complex"],
)
@pytest.mark.parametrize("call", list(_ANGLE_CALLS))
def test_builder_angles_must_be_real_numbers(call, angle, error):
    """Every builder angle is checked on entry, so True is not read as 1.0 nor a string as a sequence."""
    what, build = _ANGLE_CALLS[call]
    with pytest.raises(error, match=f"^{re.escape(what)} must be (a )?real"):
        build(angle)


@pytest.mark.parametrize("call", list(_ANGLE_CALLS))
def test_builder_angles_beyond_the_float_range_rejected(call):
    """An integer angle too large for a float is not finite: ``ValueError``, not ``OverflowError``."""
    what, build = _ANGLE_CALLS[call]
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be finite"):
        build(10**400)


class TestConsolidate:
    @pytest.mark.parametrize("builder", [cnot_spin_independent, cnot_spin1])
    def test_preserves_unitary(self, builder):
        sch = builder(3)
        merged = consolidate(sch)
        for sector in SpinSector:
            d = np.max(np.abs(simulate(sch, sector) - simulate(merged, sector)))
            assert d <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(sch=_schedules())
    def test_preserves_unitary_on_random_schedules(self, sch):
        merged = consolidate(sch)
        assert len(merged.steps) <= len(sch.steps)
        for sector in SpinSector:
            d = np.max(np.abs(simulate(sch, sector) - simulate(merged, sector)))
            assert d <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(sch=_merging_schedules())
    def test_matches_pairwise_reference(self, sch):
        got = schedule_to_json(consolidate(sch))
        assert got == schedule_to_json(_reference_consolidate(sch))

    @settings(max_examples=100, deadline=None)
    @given(runs=_run_forms())
    def test_matches_pairwise_reference_on_zero_sign_twins(self, runs):
        sch = PulseSchedule._repeated(*runs)
        assert schedule_to_json(consolidate(sch)) == schedule_to_json(_reference_consolidate(sch))

    @settings(max_examples=60, deadline=None)
    @given(runs=_run_forms(st.integers(0, 10000)))
    def test_cycle_count_is_the_consolidated_length(self, runs):
        sch = PulseSchedule._repeated(*runs)
        assert trotter._cycles(sch) == len(consolidate(sch).steps)

    @pytest.mark.parametrize("n", [1, 2, 7, 200, 10000])
    @pytest.mark.parametrize("cancel", [False, True])
    def test_cycle_count_of_the_families(self, n, cancel):
        laws = {"order-1": 12 * n + 3, "order-0": 8 * n + 1, "spin-1": 10 * n + 1}
        for name, build in _FAMILIES.items():
            sch = cancel_negatives(build(n)) if cancel else build(n)
            assert trotter._cycles(sch) == len(consolidate(sch).steps) == laws[name], name

    def test_twins_resolve_their_own_transitions(self):
        # a merges with b to phase 0.0 + -0.0 = 0.0, a's -0.0 twin to -0.0 + -0.0 = -0.0
        a, c = PulseStep.make({(1, 2): 0.5}), PulseStep.make({(2, 3): 0.5})
        b = PulseStep.make({(4, 5): 0.25}, -0.0)
        sch = PulseSchedule((a, b, c, replace(a, phase=-0.0), b))
        phases = [step["phase"] for step in schedule_to_json(consolidate(sch))["steps"]]
        assert json.dumps(phases) == "[0.0, 0.0, -0.0]"
        assert schedule_to_json(consolidate(sch)) == schedule_to_json(_reference_consolidate(sch))

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(_step_pairs(), min_size=1, max_size=6))
    def test_row_rule_equals_matrix_rule(self, pairs):
        a, b = (schedule._coefficient_rows(steps) for steps in zip(*pairs))
        expected = [_matrix_commute(*pair) for pair in pairs]
        assert trotter._rows_commute(a, b).tolist() == expected
        assert trotter._rows_commute(a[:1], b[:1]).tolist() == expected[:1]

    def test_stacked_check_equals_one_pair_checks(self):
        # 59 pairs, more than one product takes, every third one equal steps
        steps = list(_random_schedule(60).steps)
        steps[1::3] = steps[0::3][: len(steps[1::3])]
        pairs = list(zip(steps, steps[1:]))
        a, b = (schedule._coefficient_rows(s) for s in zip(*pairs))
        one_by_one = [trotter._rows_commute(x[None], y[None])[0] for x, y in zip(a, b)]
        assert trotter._rows_commute(a, b).tolist() == one_by_one == [_matrix_commute(*pair) for pair in pairs]
        assert 0 < sum(one_by_one) < len(pairs)

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(_step_pairs(_UP_TO_3E2), min_size=1, max_size=6))
    def test_shared_spin_table_decides_as_all_pairs(self, pairs):
        # the 60 pairs that share a spin decide as all 225 and as the matrix rule, some near the threshold
        a, b = (schedule._coefficient_rows(steps) for steps in zip(*pairs))
        expected = [_matrix_commute(*pair) for pair in pairs]
        assert trotter._rows_commute(a, b).tolist() == _rows_commute_225(a, b).tolist() == expected

    def test_pairs_off_the_table_commute(self):
        # two transpositions sharing no spin commute: their commutator is rounding noise in both irreps
        shared = set(zip(*schedule._SHARED.tolist()))
        assert len(shared) == 60 and all(len({*ALL_PAIRS[p], *ALL_PAIRS[q]}) == 3 for p, q in shared)
        for m in (pair_stack(s) for s in SpinSector):
            comm = np.abs(m[:, None] @ m[None] - m[None] @ m[:, None]).max(axis=(2, 3))
            assert all((comm[p, q] > 0.5) == ((min(p, q), max(p, q)) in shared) for p in range(15) for q in range(15))
            assert comm[comm <= 0.5].max() <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(forms=st.lists(_run_forms(), max_size=3), merging=st.lists(_merging_schedules(), max_size=2))
    def test_batch_decides_as_each_schedule_alone(self, forms, merging):
        built = [cnot_spin_independent(3), cnot_spin_independent(2, order=0), cnot_spin1(4)]
        batch = [*built, *map(cancel_negatives, built), _random_schedule(60), *merging]
        batch += [PulseSchedule._repeated(*form) for form in forms]
        schedule._fill_commutes(batch)
        for s in batch:
            alone = PulseSchedule._of_form(s._interned, name=s.name, order=s.order, n=s.n)
            assert s.__dict__["_commutes"] == alone._commutes
            assert schedule_to_json(consolidate(s)) == schedule_to_json(consolidate(alone))

    def test_merge_transitions_capped_at_the_pair_count(self):
        # 40 distinct commuting steps in 2000 random places: about 1600 pairs, each with about 40
        # transitions out of its merge; only as many as there are pairs are checked up front
        pool = [PulseStep.make({(1, 2): 0.01 * (k + 1)}) for k in range(40)]
        sch = PulseSchedule(tuple(pool[k] for k in np.random.default_rng(5).integers(0, 40, size=2000)))
        widths = [len(key) for key in sch._commutes]
        assert widths.count(3) == widths.count(2) > 1000
        assert schedule_to_json(consolidate(sch)) == schedule_to_json(_reference_consolidate(sch))

    @pytest.mark.parametrize("cancel", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 50])
    @pytest.mark.parametrize("build", _FAMILIES.values(), ids=_FAMILIES.keys())
    def test_cnot_families_take_two_stacked_checks(self, monkeypatch, build, n, cancel):
        calls = []
        original = schedule._rows_commute
        for module in (schedule, trotter):  # the batch fill's binding and consolidate's
            monkeypatch.setattr(module, "_rows_commute", lambda a, b: calls.append(len(a)) or original(a, b))
        sch = build(n)
        consolidate(cancel_negatives(sch) if cancel else sch)
        assert len(calls) <= 2

    def test_builds_no_irrep_matrix(self, monkeypatch):
        schedules = [cnot_spin1(50), cnot_spin_independent(3, order=0), _random_schedule(60)]
        schedules.append(cancel_negatives(cnot_spin_independent(3)))
        expected = [schedule_to_json(consolidate(s)) for s in schedules]

        def refuse(*args):
            raise AssertionError("consolidate built an irrep matrix")

        # the calls above have filled the commutator table's cache
        monkeypatch.setattr(schedule, "row_generators", refuse)
        monkeypatch.setattr(schedule, "pair_stack", refuse)
        assert [schedule_to_json(consolidate(s)) for s in schedules] == expected

    @pytest.mark.parametrize(("steps", "expected"), _EDGE_CASES.values(), ids=_EDGE_CASES.keys())
    def test_edge_cases(self, steps, expected):
        sch = PulseSchedule(steps, name="edge")
        out = consolidate(sch)
        assert out.steps == expected and out.name == "edge"
        assert schedule_to_json(out) == schedule_to_json(_reference_consolidate(sch))
        assert report(sch).cycles == len(expected)

    @pytest.mark.parametrize("reps", [1, 3])
    def test_run_form_of_one_step_body(self, reps):
        # at one repeat the schedule has no adjacent pair; at three, equal steps merge
        x = PulseStep.make({(1, 4): 0.3})
        out = consolidate(PulseSchedule._repeated((), (x,), reps, ()))
        assert len(out.steps) == 1 and (out.steps[0] is x) == (reps == 1)
        assert schedule_to_json(out) == schedule_to_json(_reference_consolidate(PulseSchedule((x,) * reps)))

    def test_period_that_merges_away_is_degenerate(self):
        # each repeat merges into the pending p and returns to p's bits: a period with no output step
        p, x, back = PulseStep.make({(1, 2): 0.5}), PulseStep.make({(1, 2): 0.25}), PulseStep.make({(1, 2): -0.25})
        out = consolidate(PulseSchedule._repeated((p,), (x, back), 5, ()))
        assert out.steps == (p,) and _run_form(out) == ((), (), 0, (p,))

    def test_coefficient_rows_built_once_per_distinct_step(self, monkeypatch):
        # consolidation decides on coefficient rows and builds no generator: the input's distinct
        # steps' rows once (``_rows``, which the commutation checks read too), a merged step's row
        # as the sum of its parts', and nothing on a second call
        built = []
        original = schedule._coefficient_rows

        def counting(steps):
            built.append(tuple(steps))
            return original(steps)

        monkeypatch.setattr(schedule, "_coefficient_rows", counting)
        sch = cnot_spin1(200)
        merged = consolidate(sch)
        assert built == [sch._interned[0]] and len(merged) < len(sch)
        built.clear()
        assert consolidate(sch) == merged and built == []

    def test_each_distinct_transition_merged_once(self, monkeypatch):
        seen = []
        original = trotter._merge_steps

        def counting(a, b):
            seen.append((a, b))
            return original(a, b)

        monkeypatch.setattr(trotter, "_merge_steps", counting)
        consolidate(cnot_spin1(200))
        assert seen and len(seen) == len(set(seen))

    def test_disjoint_blocks_merge(self):
        sch = PulseSchedule(
            (PulseStep.make({(1, 2): 0.3}), PulseStep.make({(4, 5): -0.2}))
        )
        merged = consolidate(sch)
        assert len(merged.steps) == 1
        assert merged.steps[0].coefficients() == {(1, 2): 0.3, (4, 5): -0.2}

    def test_noncommuting_not_merged(self):
        sch = PulseSchedule(
            (PulseStep.make({(1, 2): 0.3}), PulseStep.make({(2, 3): 0.2}))
        )
        assert len(consolidate(sch).steps) == 2


class TestCancelNegatives:
    def test_all_nonnegative_unchanged(self):
        sch = PulseSchedule((PulseStep.make({(1, 4): 0.7, (3, 5): 0.2}),))
        assert cancel_negatives(sch).steps == sch.steps

    def test_single_transposition_two_pi_shift(self):
        theta = 0.7
        sch = PulseSchedule((PulseStep.make({(1, 4): -theta}),))
        out = cancel_negatives(sch)
        assert out.steps[0].coefficients()[(1, 4)] == pytest.approx(-theta + 2 * np.pi)
        for sector in SpinSector:
            assert np.max(np.abs(simulate(sch, sector) - simulate(out, sector))) <= 1e-12

    @pytest.mark.parametrize("builder", [cnot_spin_independent, cnot_spin1])
    def test_nonneg_and_time_increase(self, builder):
        sch = builder(3)
        out = cancel_negatives(sch)
        for step in out.steps:
            if step.is_cross_block():
                assert min(step.coeffs) >= 0.0
        dt = normalized_time(out) - normalized_time(sch)
        assert abs(dt - 1.3) <= 0.05
        assert len(consolidate(out).steps) == len(consolidate(sch).steps)

    @pytest.mark.parametrize("builder", [cnot_spin_independent, cnot_spin1])
    def test_full_sum_preserves_fidelity_and_leakage(self, builder):
        sch = builder(3)
        out = cancel_negatives(sch)
        r0, r1 = report(sch), report(out)
        for sector in ("SPIN0", "SPIN1"):
            assert abs(r0.fidelity[sector] - r1.fidelity[sector]) <= 1e-5
            assert abs(r0.leakage[sector] - r1.leakage[sector]) <= 1e-5

    def test_full_sum_is_exact_phase_per_sector(self):
        sch = cnot_spin_independent(2)
        out = cancel_negatives(sch)
        for sector in SpinSector:
            g0 = simulate(sch, sector)
            g1 = simulate(out, sector)
            ratio = g1 @ g0.conj().T
            phase = ratio[0, 0]
            assert abs(abs(phase) - 1) <= 1e-12
            assert np.max(np.abs(ratio - phase * np.eye(sector.dim))) <= 1e-10

    def test_local_steps_left_alone(self):
        sch = cnot_spin_independent(2)
        out = cancel_negatives(sch)
        assert out.steps[0] == sch.steps[0]  # prefactor untouched

    def test_each_distinct_step_rewritten_once(self, monkeypatch):
        rewritten = []
        original = trotter._cancel_step

        def counting(step):
            rewritten.append(step)
            return original(step)

        monkeypatch.setattr(trotter, "_cancel_step", counting)
        sch = cnot_spin_independent(50)
        cancel_negatives(sch)
        assert len(rewritten) == len(set(rewritten))
        assert set(rewritten) == {s for s in sch.steps if s.is_cross_block()}


class TestScheduleJson:
    def test_round_trip_bit_stable(self):
        sch = cnot_spin_independent(3)
        data = json.loads(json.dumps(schedule_to_json(sch)))
        back = schedule_from_json(data)
        assert back.steps == sch.steps
        assert (back.name, back.order, back.n) == (sch.name, sch.order, sch.n)
        for sector in SpinSector:
            assert np.array_equal(simulate(sch, sector), simulate(back, sector))

    @pytest.mark.parametrize("build", TestRunForm._BUILDERS.values(), ids=TestRunForm._BUILDERS.keys())
    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    def test_loading_recovers_the_builders_run_form(self, build, n):
        """A saved builder schedule loads back with its run form, so it evolves to the same bits."""
        for sch in (build(n), cancel_negatives(build(n))):
            data = json.loads(json.dumps(schedule_to_json(sch)))
            back = schedule_from_json(data)
            assert _run_form(back) == _run_form(sch) and back._interned[1][2] == n
            assert schedule_to_json(back) == data
            for stack in _STACKS:
                assert np.array_equal(metrics.evolve(back, stack), metrics.evolve(sch, stack))

    @settings(max_examples=200, deadline=None)
    @given(runs=_run_forms())
    def test_loaded_run_form_spells_the_file(self, runs):
        """Any recovered run form writes out the file's steps, signed zero phases included."""
        head, body, reps, tail = runs
        sch = PulseSchedule._repeated(head, body, reps, tail, n=max(reps, 1))
        data = json.loads(json.dumps(schedule_to_json(sch)))
        back = schedule_from_json(data)
        h, b, r, t = _run_form(back)
        assert h + b * r + t == back.steps == sch.steps
        assert schedule_to_json(back) == data
        assert r == 0 or (r == sch.n and len(h) < len(b) > len(t))
        _assert_same_gates(back, PulseSchedule(sch.steps))

    def test_repeats_differing_in_a_zero_sign_load_written_out(self):
        # the second repeat holds x's -0.0 twin: a run form over the first repeat would print +0.0
        x, y = PulseStep.make({(1, 2): 0.5}), PulseStep.make({(2, 3): 0.5})
        data = json.loads(json.dumps(schedule_to_json(PulseSchedule((x, y, replace(x, phase=-0.0), y), n=2))))
        back = schedule_from_json(data)
        assert back._interned[1][2] == 0 and schedule_to_json(back) == data
        assert _run_form(schedule_from_json(schedule_to_json(PulseSchedule((x, y, x, y), n=2)))) == ((), (x, y), 2, ())

    def test_loading_without_repeats_is_degenerate(self):
        sch = replace(_random_schedule(100), n=3)
        back = schedule_from_json(json.loads(json.dumps(schedule_to_json(sch))))
        assert _run_form(back) == ((), (), 0, back.steps) and back.steps == sch.steps

    def test_loads_without_interning_again(self, monkeypatch):
        """Raw steps go straight to ids: the loader never interns the steps it has keyed."""
        built = [cnot_spin1(7), cancel_negatives(cnot_spin_independent(5)), cnot_spin_independent(4, order=0)]
        built += [replace(_random_schedule(40), n=2), PulseSchedule(())]
        data = [json.loads(json.dumps(schedule_to_json(sch))) for sch in built]
        forms = [sch._interned for sch in built]  # interned before the patch: an unbuilt schedule's is lazy

        def refuse(*args, **kwargs):
            raise AssertionError("the loader interned the steps again")

        monkeypatch.setattr(schedule, "_intern", refuse)
        monkeypatch.setattr(trotter, "_intern", refuse)
        monkeypatch.setattr(PulseSchedule, "_repeated", classmethod(refuse))
        for sch, raw, form in zip(built, data, forms):
            back = schedule_from_json(raw)
            assert back._interned == form and back.steps == sch.steps

    def test_respelled_repeats_load_with_the_builders_run_form(self):
        """Equal steps spelled apart (``1`` and ``1.0``, a reversed pair, keys in another order) share one id."""
        sch = trotter_product([{(1, 2): 2.0}, {(2, 3): 1.0, (4, 5): -3.0}], 3.0, 3, order=0)
        data = json.loads(json.dumps(schedule_to_json(sch)))
        first, second, third = (data["steps"][2 * r : 2 * r + 2] for r in range(3))
        for raw in second:
            raw["coeffs"] = [int(c) for c in raw["coeffs"]]
        for j, raw in enumerate(third):
            pairs, coeffs = [p[::-1] for p in raw["pairs"][::-1]], raw["coeffs"][::-1]
            third[j] = {"phase": raw["phase"], "coeffs": coeffs, "pairs": pairs}
        data["steps"] = first + second + third
        assert len({json.dumps(raw) for raw in data["steps"]}) == 6
        back = schedule_from_json(data)
        assert back._interned == sch._interned and back._interned[1] == ((), (0, 1), 3, ())
        assert back.steps == sch.steps and all(a is b for a, b in zip(back.steps, back.steps[2:]))

    @staticmethod
    def _periodic_forms(ids, n):
        """Every ``(head, body, n, tail)`` spelling ids, head and tail shorter than the body: longest body, then shortest head."""
        return [
            (ids[:h], ids[h : h + w], n, ids[h + n * w :])
            for w in range(len(ids) // max(n, 1), 0, -1)
            for h in range(w)
            if n > 1 and 0 <= len(ids) - h - n * w < w and ids[:h] + ids[h : h + w] * n + ids[h + n * w :] == ids
        ]

    @settings(max_examples=500, deadline=None)
    @given(
        ids_n=st.one_of(
            st.tuples(st.lists(st.integers(0, 3), max_size=40).map(tuple), st.integers(1, 6)),
            st.builds(
                lambda head, body, n, tail: (head + body * n + tail, n),
                *(st.lists(st.integers(0, 3), max_size=size).map(tuple) for size in (3, 5)),
                st.integers(1, 6),
                st.lists(st.integers(0, 3), max_size=3).map(tuple),
            ),
        )
    )
    def test_recovered_form_is_the_longest_periodic_body(self, ids_n):
        """Ids with a body repeated n >= 2 times between a shorter head and tail recover it; any others are degenerate."""
        ids, n = ids_n
        forms = self._periodic_forms(ids, n)
        assert trotter._recovered_form(ids, n) == (forms[0] if forms else ((), (), 0, ids))

    @staticmethod
    def _saved_text(sch, path):
        from exgates.trotter import save_schedule

        save_schedule(sch, path)
        with open(path) as fh:
            return fh.read()

    @pytest.mark.parametrize("canceled", [False, True], ids=["plain", "canceled"])
    @pytest.mark.parametrize("family", ["order-1", "order-0", "spin-1"])
    def test_saved_bytes_equal_the_indented_dump(self, family, canceled, tmp_path):
        """``save_schedule`` writes each distinct step's text once, in id order: the bytes of one dump."""
        for n in [*range(1, 13), 50, 200]:
            sch = TestRunForm._BUILDERS[family](n)
            if canceled:
                sch = cancel_negatives(sch)
            want = json.dumps(schedule_to_json(sch), indent=1) + "\n"
            assert self._saved_text(sch, tmp_path / "s.json") == want, n

    def test_saved_bytes_of_random_empty_and_signed_zero_schedules(self, tmp_path):
        rng = np.random.default_rng(29)
        schedules = [PulseSchedule((), name="empty"), PulseSchedule((PulseStep.make({}, -0.0),), name='a "b"\n')]
        for k in range(30):
            pool = _random_schedule(12).steps[:6]
            pool += tuple(replace(step, phase=-0.0) for step in pool[:3]) + tuple(step.scaled(-1.0) for step in pool[3:])
            head, body, tail = ([pool[j] for j in rng.integers(0, len(pool), size=size)] for size in rng.integers((0, 0, 0), (4, 7, 40)))
            schedules.append(PulseSchedule._repeated(head, body, int(rng.integers(0, 30)), tail, n=k + 1))
        assert any(s._interned[1][2] > 1 for s in schedules) and any(s._interned[1][2] == 0 and s.steps for s in schedules)
        assert any(math.copysign(1.0, step.phase) < 0 for s in schedules for step in s.steps)
        for sch in schedules:
            assert self._saved_text(sch, tmp_path / "s.json") == json.dumps(schedule_to_json(sch), indent=1) + "\n"

    def test_equal_valued_steps_spelled_apart_load_as_their_own(self):
        """Raw steps are validated once per spelling: ``1`` and ``1.0``, ``0.0`` and ``-0.0`` each load as alone."""
        raw = [
            {"pairs": [[1, 2]], "coeffs": [1], "phase": 0.0},
            {"pairs": [[1, 2]], "coeffs": [1.0], "phase": 0.0},
            {"pairs": [[1, 2]], "coeffs": [1], "phase": -0.0},
            {"coeffs": [1], "phase": 0.0, "pairs": [[2, 1]]},
            {"pairs": [[1, 2]], "coeffs": [1], "phase": 0.0},
        ]
        back = schedule_from_json({"version": 1, "steps": raw})
        alone = [schedule_from_json({"version": 1, "steps": [s]}).steps[0] for s in raw]
        assert back.steps == tuple(alone)
        assert [math.copysign(1.0, step.phase) for step in back.steps] == [1.0, 1.0, -1.0, 1.0, 1.0]
        assert json.dumps(schedule_to_json(back)) == json.dumps(schedule_to_json(PulseSchedule(tuple(alone))))

    _BAD_REPEATS = {
        "bool coefficient": ({"pairs": [[1, 2]], "coeffs": [True]}, "step 2 coefficient must be a number, got True"),
        "float pair entry": ({"pairs": [[1.0, 2]], "coeffs": [1]}, "step 2 pair entry must be an integer, got 1.0"),
        "tuple pair": ({"pairs": [(1, 2)], "coeffs": [1]}, "step 2 pair (1, 2) must have two entries"),
    }

    @pytest.mark.parametrize(("bad", "message"), _BAD_REPEATS.values(), ids=_BAD_REPEATS.keys())
    def test_bad_repeat_of_a_good_looking_step_named_by_its_index(self, bad, message):
        good = {"pairs": [[1, 2]], "coeffs": [1]}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            schedule_from_json({"version": 1, "steps": [good, good, bad, good]})

    def test_numpy_scalars_and_unpicklable_steps_keyed_apart(self):
        """The raw-step key spells types: a valid ``np.float64(0.0)`` does not vouch for an equal ``np.int64(0)``."""
        good = {"pairs": [[1, 2]], "coeffs": [np.float64(0.0)]}
        bad = {"pairs": [[1, 2]], "coeffs": [np.int64(0)]}
        assert good == bad
        with pytest.raises(ValueError, match=r"^step 1 coefficient must be a number, got np\.int64\(0\)$"):
            schedule_from_json({"version": 1, "steps": [good, bad]})
        # a step that does not pickle (an ignored field holds a generator) is validated at each index
        odd = [{"pairs": [[1, 2]], "coeffs": [0.5], "note": (x for x in ())} for _ in range(2)]
        back = schedule_from_json({"version": 1, "steps": odd})
        assert back.steps == (PulseStep.make({(1, 2): 0.5}),) * 2
        odd[1]["pairs"] = [[1.0, 2]]
        with pytest.raises(ValueError, match=r"^step 1 pair entry must be an integer, got 1\.0$"):
            schedule_from_json({"version": 1, "steps": odd})

    def test_loaded_steps_equal_make(self):
        # reversed and unsorted pairs, integer and zero coefficients, a signed zero phase
        raw = [
            {"pairs": [[4, 1], [2, 3], [1, 2]], "coeffs": [0.5, -2, 0.0]},
            {"pairs": [[5, 6]], "coeffs": [-0.0], "phase": -0.0},
            {"pairs": [], "coeffs": [], "phase": 3},
            {"pairs": [[6, 1], [3, 5]], "coeffs": [MAX_COEFFICIENT, 1e-300], "phase": -1.25},
        ]
        back = schedule_from_json({"version": 1, "steps": raw})
        made = [PulseStep.make({tuple(p): c for p, c in zip(s["pairs"], s["coeffs"])}, s.get("phase", 0.0)) for s in raw]
        assert list(back.steps) == made
        assert all(type(v) is float for step in back.steps for v in (*step.coeffs, step.phase))
        assert json.dumps(schedule_to_json(back)) == json.dumps(schedule_to_json(PulseSchedule(tuple(made))))

    def test_schema_fields(self):
        data = schedule_to_json(cnot_spin1(1))
        assert data["version"] == 1
        assert set(data) == {"version", "name", "order", "n", "steps"}
        step = data["steps"][1]
        assert set(step) == {"pairs", "coeffs", "phase"}
        assert all(i < j for i, j in step["pairs"])

    def test_missing_name_defaults(self):
        assert schedule_from_json({"version": 1, "steps": []}).name == "schedule"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_json({"version": 2, "steps": []})
        with pytest.raises(ValueError):
            schedule_from_json({"version": 1, "steps": [{"pairs": [[1, 2]], "coeffs": []}]})

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_integers_beyond_the_float_range_rejected(self, big):
        for step, what in (
            ({"pairs": [[1, 4]], "coeffs": [big]}, "step 0 coefficient"),
            ({"pairs": [[1, 4]], "coeffs": [0.5], "phase": big}, "step 0 phase"),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{what} must be finite, got {reprlib.repr(big)}")):
                schedule_from_json({"version": 1, "steps": [step]})

    def test_iteration_bound(self):
        step = {"pairs": [[1, 4]], "coeffs": [0.5]}
        top = schedule_from_json({"version": 1, "steps": [step], "n": MAX_ITERATIONS})
        assert top.n == MAX_ITERATIONS
        with pytest.raises(ValueError, match="iteration count"):
            schedule_from_json({"version": 1, "steps": [step], "n": MAX_ITERATIONS + 1})

    def test_failed_save_leaves_no_file(self, tmp_path):
        from exgates.trotter import save_schedule

        path = tmp_path / "schedule.json"
        with pytest.raises(TypeError):
            save_schedule(replace(cnot_spin1(2), n=np.int64(2)), path)
        assert not path.exists()

    _UNLOADABLE = {
        "coefficient 2e4": (
            lambda: PulseSchedule._repeated(
                cnot_spin1(1).steps[:1], (PulseStep.make({(1, 4): 0.5}), PulseStep.make({(1, 4): 2e4})), 3, (), n=3
            ),
            "step 2: coefficient magnitude above 10000",
        ),
        "n = 0": (lambda: replace(cnot_spin1(2), n=0), "iteration count must be between 1 and 10000, got 0"),
        "order 3": (lambda: replace(cnot_spin1(2), order=3), "order must be 0 or 1, got 3"),
        "name 5": (lambda: replace(cnot_spin1(2), name=5), "name must be a string, got 5"),
    }

    @pytest.mark.parametrize(("make", "message"), _UNLOADABLE.values(), ids=_UNLOADABLE.keys())
    def test_save_refuses_what_load_refuses(self, make, message, tmp_path):
        """``save_schedule`` applies the loader's checks first: the loader's one-line message, and no file."""
        from exgates.trotter import save_schedule

        sch, path = make(), tmp_path / "schedule.json"
        for write in (lambda: schedule_from_json(schedule_to_json(sch)), lambda: save_schedule(sch, path)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                write()
        assert not path.exists()

    def test_file_round_trip(self, tmp_path):
        from exgates.trotter import load_schedule, save_schedule

        sch = cnot_spin1(2)
        path = tmp_path / "schedule.json"
        save_schedule(sch, path)
        back = load_schedule(path)
        assert back.steps == sch.steps
        for sector in SpinSector:
            assert np.array_equal(simulate(sch, sector), simulate(back, sector))
