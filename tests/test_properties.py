"""Invariants of simulation and scoring on random schedules.

Schedules draw random pairs, coefficients and phases, up to 20 steps; the
example counts are small to keep the suite fast.  The pairwise product in
``evolve`` is checked against a left-to-right product on long schedules
over a few distinct steps.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from swap_blocks import MAGNETIZATION_BLOCKS

from exgates import oracle
from exgates.encoding import ALL_PAIRS, SpinSector
from exgates.linalg import expi
from exgates.metrics import CNOT, entanglement_fidelity, evolve, leakage, report, simulate
from exgates.oracle import oracle_fidelity
from exgates.trotter import (
    PulseSchedule,
    PulseStep,
    cancel_negatives,
    pair_stack,
    schedule_from_json,
    schedule_to_json,
    step_generators,
)

IDENTITY = np.eye(4, dtype=complex)

_ANGLES = st.floats(-np.pi, np.pi, allow_nan=False)
_STEPS = st.builds(
    PulseStep.make,
    st.dictionaries(st.sampled_from(ALL_PAIRS), _ANGLES, max_size=15),
    _ANGLES,
)
_SCHEDULES = st.lists(_STEPS, max_size=20).map(lambda steps: PulseSchedule(tuple(steps)))
_SECTORS = st.sampled_from(list(SpinSector))
# The 5- and 9-dim irreps, the oracle's 9- and 5-dim frame closures and the
# 15- and 20-dim magnetization blocks.
_STACKS = [pair_stack(s) for s in SpinSector] + [
    oracle._closure_block(s)[0] for s in SpinSector
] + MAGNETIZATION_BLOCKS


@st.composite
def _repeating_schedules(draw):
    """1-6 distinct steps (nonzero phases among them) in a 0-300 long index sequence."""
    pool = draw(
        st.lists(
            st.builds(
                PulseStep.make,
                st.dictionaries(st.sampled_from(ALL_PAIRS), _ANGLES, min_size=1, max_size=4),
                st.one_of(st.just(0.0), _ANGLES),
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
    return PulseSchedule(tuple(pool[k] for k in picks))


def _step_unitary(step, stack):
    u = expi(step_generators((step,), stack)[0])
    return np.exp(1j * step.phase) * u if step.phase else u


def _cycled(length):
    a = PulseStep.make({(1, 4): 0.3, (2, 5): -0.7}, phase=0.2)
    b = PulseStep.make({(3, 6): 1.1})
    return PulseSchedule(tuple((a, b, b)[k % 3] for k in range(length)))


@settings(max_examples=40, deadline=None)
@given(sch=_repeating_schedules())
@example(sch=_cycled(0))
@example(sch=_cycled(1))
@example(sch=_cycled(300))
@example(sch=_cycled(301))
def test_pairwise_product_matches_left_to_right(sch):
    for stack in _STACKS:
        g = evolve(sch, stack)
        want = np.eye(stack.shape[1], dtype=complex)
        for step in sch.steps:
            want = want @ _step_unitary(step, stack)
        assert np.max(np.abs(g - want)) <= 1e-12
        if len(sch.steps) == 0:
            assert np.array_equal(g, np.eye(stack.shape[1], dtype=complex))
        if len(sch.steps) == 1:
            assert np.array_equal(g, _step_unitary(sch.steps[0], stack))


@settings(max_examples=10, deadline=None)
@given(sch=_SCHEDULES)
def test_oracle_agrees_with_irrep_path(sch):
    rep = report(sch)
    for sector in SpinSector:
        f, leak = oracle_fidelity(sch, sector, CNOT)
        assert abs(f - rep.fidelity[sector.name]) < 1e-8
        assert abs(leak - rep.leakage[sector.name]) < 1e-8


@settings(max_examples=25, deadline=None)
@given(sch=_SCHEDULES, sector=_SECTORS)
def test_simulate_is_unitary(sch, sector):
    g = simulate(sch, sector)
    assert np.max(np.abs(g @ g.conj().T - np.eye(sector.dim))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(sch=_SCHEDULES, sector=_SECTORS)
def test_leakage_within_infidelity(sch, sector):
    g = simulate(sch, sector)
    for target in (CNOT, IDENTITY):
        f = entanglement_fidelity(g, target, sector)
        leak = leakage(g, target, sector)
        assert 0.0 <= leak <= 1.0 - f + 1e-12


@settings(max_examples=25, deadline=None)
@given(sch=_SCHEDULES, sector=_SECTORS, theta=_ANGLES)
def test_scores_ignore_global_phase(sch, sector, theta):
    shifted = PulseSchedule(sch.steps + (PulseStep((), (), theta),))
    g0, g1 = simulate(sch, sector), simulate(shifted, sector)
    assert abs(entanglement_fidelity(g0, CNOT, sector) - entanglement_fidelity(g1, CNOT, sector)) <= 1e-12
    assert abs(leakage(g0, CNOT, sector) - leakage(g1, CNOT, sector)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(sch=_SCHEDULES, sector=_SECTORS)
def test_leakage_does_not_depend_on_target(sch, sector):
    g = simulate(sch, sector)
    assert abs(leakage(g, CNOT, sector) - leakage(g, IDENTITY, sector)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(sch=_SCHEDULES, sector=_SECTORS)
def test_full_sum_cancellation_is_a_phase_per_sector(sch, sector):
    g0 = simulate(sch, sector)
    g1 = simulate(cancel_negatives(sch, "full-sum"), sector)
    ratio = g1 @ g0.conj().T
    phase = ratio[0, 0]
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.max(np.abs(ratio - phase * np.eye(sector.dim))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(_STEPS, max_size=20),
    name=st.text(max_size=12),
    order=st.sampled_from([0, 1]),
    n=st.integers(1, 1000),
)
def test_json_round_trip(steps, name, order, n):
    sch = PulseSchedule(tuple(steps), name=name, order=order, n=n)
    back = schedule_from_json(json.loads(json.dumps(schedule_to_json(sch))))
    assert back == sch
    for sector in SpinSector:
        assert np.array_equal(simulate(back, sector), simulate(sch, sector))
