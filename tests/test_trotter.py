import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from swap_blocks import MAGNETIZATION_BLOCKS

from exgates import trotter
from exgates.decouple import decouple_map
from exgates.encoding import (
    ALL_PAIRS,
    SpinSector,
    pauli_word,
    projected_rep,
    projector,
)
from exgates.linalg import expi
from exgates.metrics import CNOT, report, simulate
from exgates.symrep import rep_element
from exgates.trotter import (
    MAX_ITERATIONS,
    SWAP_GENERATOR_N,
    CanonicalGateSpec,
    PulseSchedule,
    PulseStep,
    cancel_negatives,
    canonical_two_qubit_schedule,
    cnot_spin1,
    cnot_spin_independent,
    consolidate,
    decoupled_evolution,
    normalized_time,
    pair_stack,
    schedule_from_json,
    schedule_to_json,
    single_qubit_schedule,
    step_generators,
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


def _reference_consolidate(schedule):
    """Left to right, one commutation check per adjacent pair, no tables."""
    stacks = [pair_stack(s) for s in SpinSector]

    def generators(step):
        return [step_generators((step,), m) for m in stacks]

    out = []
    for step in schedule.steps:
        if out and trotter._generators_commute(generators(out[-1]), generators(step))[0]:
            out[-1] = trotter._merge_steps(out[-1], step)
        else:
            out.append(step)
    return replace(schedule, steps=tuple(out))


def computational_block(schedule, sector):
    pi = projector(sector)
    return pi @ simulate(schedule, sector) @ pi.T


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

    def test_real_numbers_of_any_type_become_floats(self):
        s = PulseStep.make({(1, 2): 1, (3, 4): np.float32(0.5), (5, 6): np.int64(-2)}, phase=np.float64(0.25))
        assert s == PulseStep(((1, 2), (3, 4), (5, 6)), (1.0, 0.5, -2.0), 0.25)
        assert all(type(c) is float for c in (*s.coeffs, s.phase))

    def test_equal_steps_hash_equal(self):
        a = PulseStep.make({(1, 2): 0.5, (3, 4): -0.25}, phase=0.1)
        b = PulseStep.make({(4, 3): -0.25, (2, 1): 0.5}, phase=0.1)
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_derived_steps_hash_like_fresh_ones(self):
        s = PulseStep.make({(1, 2): 0.5}, phase=0.1)
        hash(s)  # the cached hash must not leak into derived steps
        fresh = PulseStep.make({(1, 2): 1.0}, phase=0.2)
        assert s.scaled(2.0) == fresh and hash(s.scaled(2.0)) == hash(fresh)
        moved = replace(s, phase=0.3)
        fresh = PulseStep.make({(1, 2): 0.5}, phase=0.3)
        assert moved == fresh and hash(moved) == hash(fresh)


class TestInternedForm:
    """``PulseSchedule._interned``: each step hashed once, one form per schedule."""

    @settings(max_examples=100, deadline=None)
    @given(sch=_repeating_schedules())
    def test_ids_index_first_occurrences(self, sch):
        distinct, seq = sch._interned
        assert isinstance(distinct, tuple) and isinstance(seq, tuple)
        assert len(seq) == len(sch.steps)
        assert all(distinct[k] is step for k, step in zip(seq, sch.steps))
        firsts = [seq.index(k) for k in range(len(distinct))]
        assert firsts == sorted(firsts)
        assert distinct == tuple(dict.fromkeys(sch.steps))

    def test_equal_copies_share_the_first_object(self):
        a, b = PulseStep.make({(1, 4): 0.5}), PulseStep.make({(1, 4): 0.5})
        c = PulseStep.make({(2, 5): 0.5})
        distinct, seq = PulseSchedule((a, c, b, a))._interned
        assert distinct[0] is a and distinct[1] is c and len(distinct) == 2
        assert seq == (0, 1, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(sch=_repeating_schedules())
    def test_filled_cache_is_invisible(self, sch):
        fresh = PulseSchedule(sch.steps, name=sch.name, order=sch.order, n=sch.n)
        sch._interned, sch._product_levels
        assert "_interned" in vars(sch) and "_interned" not in vars(fresh)
        assert sch == fresh and hash(sch) == hash(fresh)
        assert schedule_to_json(sch) == schedule_to_json(fresh)
        assert repr(sch) == repr(fresh)

    @settings(max_examples=100, deadline=None)
    @given(sch=_repeating_schedules())
    def test_derived_schedules_intern_their_own_steps(self, sch):
        sch._interned, sch._product_levels
        derived = [
            replace(sch, steps=sch.steps[::-1] + sch.steps[:1]),
            consolidate(sch),
            cancel_negatives(sch, "full-sum"),
            cancel_negatives(sch, "cross-sum"),
        ]
        for out in derived:
            fresh = PulseSchedule(out.steps)
            assert out._interned == fresh._interned
            assert out._product_levels == fresh._product_levels
            distinct, seq = out._interned
            assert tuple(distinct[k] for k in seq) == out.steps

    @settings(max_examples=100, deadline=None)
    @given(sch=_repeating_schedules())
    def test_product_levels_multiply_in_schedule_order(self, sch):
        """With concatenation as the product, the plan spells out the id sequence."""
        distinct, seq = sch._interned
        words = [(k,) for k in range(len(distinct))]
        for pairs, carry in sch._product_levels:
            assert len(set(pairs)) == len(pairs)
            carried = [] if carry is None else [words[carry]]
            words = [words[a] + words[b] for a, b in pairs] + carried
        assert (words[0] if seq else ()) == seq
        assert len(sch._product_levels) == max(len(seq) - 1, 0).bit_length()


class TestStepGenerator:
    @settings(max_examples=60, deadline=None)
    @given(coeffs=_COEFF_MAPS, sector=st.sampled_from(list(SpinSector)))
    def test_matches_group_algebra_generator(self, coeffs, sector):
        step = PulseStep.make(coeffs)
        want = rep_element(sector.partition, step.coefficients())
        got = step_generators((step,), pair_stack(sector))[0]
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
            got = step_generators(steps, stack)
            assert got.shape == (k, *stack.shape[1:])
            for step, row in zip(steps, got):
                coeffs = np.zeros(15)
                for pair, c in zip(step.pairs, step.coeffs):
                    coeffs[ALL_PAIRS.index(pair)] += c
                assert np.array_equal(row, np.tensordot(coeffs, stack, axes=1))
                assert np.array_equal(row, step_generators((step,), stack)[0])


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

    def test_generators_built_once_per_distinct_step(self, monkeypatch):
        # counts generator rows on the one coefficient-to-matrix path
        built = []
        original = trotter.step_generators

        def counting(steps, stack):
            built.extend(steps)
            return original(steps, stack)

        monkeypatch.setattr(trotter, "step_generators", counting)
        sch = cnot_spin1(200)
        merged = consolidate(sch)
        # the steps consolidation sees: the input's and the merged ones
        distinct = set(sch.steps) | set(merged.steps)
        assert len(built) <= 2 * len(distinct)

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
        assert cancel_negatives(sch, "cross-sum").steps == sch.steps

    def test_single_transposition_two_pi_shift(self):
        theta = 0.7
        sch = PulseSchedule((PulseStep.make({(1, 4): -theta}),))
        out = cancel_negatives(sch, "cross-sum")
        assert out.steps[0].coefficients()[(1, 4)] == pytest.approx(-theta + 2 * np.pi)
        for sector in SpinSector:
            assert np.max(np.abs(simulate(sch, sector) - simulate(out, sector))) <= 1e-12

    @pytest.mark.parametrize("mode", ["cross-sum", "full-sum"])
    @pytest.mark.parametrize("builder", [cnot_spin_independent, cnot_spin1])
    def test_nonneg_and_time_increase(self, mode, builder):
        sch = builder(3)
        out = cancel_negatives(sch, mode)
        for step in out.steps:
            if step.is_cross_block():
                assert min(step.coeffs) >= 0.0
        dt = normalized_time(out) - normalized_time(sch)
        assert abs(dt - 1.3) <= 0.05
        assert len(consolidate(out).steps) == len(consolidate(sch).steps)

    @pytest.mark.parametrize("builder", [cnot_spin_independent, cnot_spin1])
    def test_full_sum_preserves_fidelity_and_leakage(self, builder):
        sch = builder(3)
        out = cancel_negatives(sch, "full-sum")
        r0, r1 = report(sch), report(out)
        for sector in ("SPIN0", "SPIN1"):
            assert abs(r0.fidelity[sector] - r1.fidelity[sector]) <= 1e-5
            assert abs(r0.leakage[sector] - r1.leakage[sector]) <= 1e-5

    def test_full_sum_is_exact_phase_per_sector(self):
        sch = cnot_spin_independent(2)
        out = cancel_negatives(sch, "full-sum")
        for sector in SpinSector:
            g0 = simulate(sch, sector)
            g1 = simulate(out, sector)
            ratio = g1 @ g0.conj().T
            phase = ratio[0, 0]
            assert abs(abs(phase) - 1) <= 1e-12
            assert np.max(np.abs(ratio - phase * np.eye(sector.dim))) <= 1e-10

    def test_local_steps_left_alone(self):
        sch = cnot_spin_independent(2)
        out = cancel_negatives(sch, "cross-sum")
        assert out.steps[0] == sch.steps[0]  # prefactor untouched

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            cancel_negatives(cnot_spin1(1), "other")

    @pytest.mark.parametrize("mode", ["cross-sum", "full-sum"])
    def test_each_distinct_step_rewritten_once(self, monkeypatch, mode):
        rewritten = []
        original = trotter._cancel_step

        def counting(step, mode):
            rewritten.append(step)
            return original(step, mode)

        monkeypatch.setattr(trotter, "_cancel_step", counting)
        sch = cnot_spin_independent(50)
        cancel_negatives(sch, mode)
        assert len(rewritten) == len(set(rewritten))
        assert set(rewritten) == {s for s in sch.steps if s.is_cross_block()}

    def test_unknown_mode_rejected_without_negatives(self):
        with pytest.raises(ValueError):
            cancel_negatives(PulseSchedule(()), "local-sum")


class TestScheduleJson:
    def test_round_trip_bit_stable(self):
        sch = cnot_spin_independent(3)
        data = json.loads(json.dumps(schedule_to_json(sch)))
        back = schedule_from_json(data)
        assert back.steps == sch.steps
        assert (back.name, back.order, back.n) == (sch.name, sch.order, sch.n)
        for sector in SpinSector:
            assert np.array_equal(simulate(sch, sector), simulate(back, sector))

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

    def test_iteration_bound(self):
        step = {"pairs": [[1, 4]], "coeffs": [0.5]}
        top = schedule_from_json({"version": 1, "steps": [step], "n": MAX_ITERATIONS})
        assert top.n == MAX_ITERATIONS
        with pytest.raises(ValueError, match="iteration count"):
            schedule_from_json({"version": 1, "steps": [step], "n": MAX_ITERATIONS + 1})

    def test_file_round_trip(self, tmp_path):
        from exgates.trotter import load_schedule, save_schedule

        sch = cnot_spin1(2)
        path = tmp_path / "schedule.json"
        save_schedule(sch, path)
        back = load_schedule(path)
        assert back.steps == sch.steps
        for sector in SpinSector:
            assert np.array_equal(simulate(sch, sector), simulate(back, sector))
