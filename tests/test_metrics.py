import re
import tracemalloc
from collections import Counter
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from swap_blocks import magnetization_block

from exgates import metrics, oracle, products, schedule, trotter
from exgates.encoding import ALL_PAIRS, SpinSector, projector
from exgates.linalg import expi
from exgates.metrics import (
    CNOT,
    FONG_WANDZURA_CYCLES,
    FONG_WANDZURA_TIME,
    entanglement_fidelity,
    evolve,
    leakage,
    render_csv,
    render_json,
    render_markdown,
    report,
    simulate,
    table_rows,
)
from exgates.oracle import oracle_fidelity
from exgates.symrep import rep_element
from exgates.schedule import PulseSchedule, PulseStep, normalized_time, pair_stack
from exgates.trotter import cancel_negatives, cnot_spin1, cnot_spin_independent


def extended(target, sector):
    pi = projector(sector)
    return pi.T @ target @ pi + (np.eye(sector.dim) - pi.T @ pi)


class TestSimulate:
    def test_empty_schedule_is_identity(self):
        for sector in SpinSector:
            g = simulate(PulseSchedule(()), sector)
            assert np.array_equal(g, np.eye(sector.dim, dtype=complex))

    def test_single_step_spectral(self):
        sector = SpinSector.SPIN0
        sch = PulseSchedule((PulseStep.make({(1, 2): np.pi / 2}),))
        g = simulate(sch, sector)
        r = rep_element(sector.partition, {(1, 2): 1.0})
        assert np.max(np.abs(g - expi((np.pi / 2) * r))) <= 1e-12
        # rotation by pi/2 of an involution: eigenvalues +-i
        vals = np.linalg.eigvals(g)
        assert np.allclose(np.abs(vals.real), 0, atol=1e-12)

    @pytest.mark.parametrize("k", [7, 8, 9, 17, 51, 164])
    def test_distinct_steps_across_chunks(self, k):
        # up to more distinct steps than one chunk holds (50 at d = 9, 163 at d = 5)
        rng = np.random.default_rng(k)
        steps = tuple(
            PulseStep.make(
                {ALL_PAIRS[p]: rng.uniform(-1, 1) for p in rng.choice(15, 3, replace=False)},
                rng.uniform(-1, 1) if j % 2 else 0.0,
            )
            for j in range(k)
        )
        for sector in SpinSector:
            want = np.eye(sector.dim, dtype=complex)
            for step in steps:
                want = want @ simulate(PulseSchedule((step,)), sector)
            assert np.max(np.abs(simulate(PulseSchedule(steps), sector) - want)) <= 1e-12

    def test_rightmost_step_acts_first(self):
        a = PulseStep.make({(1, 2): 0.7})
        b = PulseStep.make({(2, 3): -0.4})
        sector = SpinSector.SPIN1
        g = simulate(PulseSchedule((a, b)), sector)
        ua = simulate(PulseSchedule((a,)), sector)
        ub = simulate(PulseSchedule((b,)), sector)
        assert np.max(np.abs(g - ua @ ub)) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_unitary(self, sector):
        g = simulate(cnot_spin_independent(3), sector)
        assert np.max(np.abs(g @ g.conj().T - np.eye(sector.dim))) <= 1e-10

    def test_phase_step(self):
        sch = PulseSchedule((PulseStep((), (), 0.3),))
        g = simulate(sch, SpinSector.SPIN0)
        assert np.max(np.abs(g - np.exp(0.3j) * np.eye(5))) <= 1e-12


class TestFidelity:
    def test_exact_target_gives_one(self):
        for sector in SpinSector:
            g = extended(CNOT, sector)
            assert entanglement_fidelity(g, CNOT, sector) == pytest.approx(1.0)
            assert leakage(g, CNOT, sector) == pytest.approx(0.0, abs=1e-12)

    def test_identity_vs_cnot_quarter(self):
        for sector in SpinSector:
            g = np.eye(sector.dim, dtype=complex)
            assert entanglement_fidelity(g, CNOT, sector) == pytest.approx(0.25)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    def test_global_phase_invariance(self, theta):
        sector = SpinSector.SPIN1
        g = simulate(cnot_spin_independent(2), sector)
        f0 = entanglement_fidelity(g, CNOT, sector)
        f1 = entanglement_fidelity(np.exp(1j * theta) * g, CNOT, sector)
        assert abs(f0 - f1) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_leakage_bounded_by_infidelity(self, n):
        for builder in (cnot_spin_independent, cnot_spin1):
            r = report(builder(n))
            for sector in ("SPIN0", "SPIN1"):
                assert 0.0 <= r.leakage[sector] <= 1.0 - r.fidelity[sector] + 1e-9

    def test_leakage_equals_leaked_population(self):
        sector = SpinSector.SPIN1
        g = simulate(cnot_spin1(2), sector)
        pi = projector(sector)
        pi_perp = np.eye(sector.dim) - pi.T @ pi
        direct = np.linalg.norm(pi_perp @ g @ pi.T, "fro") ** 2 / 4
        assert leakage(g, CNOT, sector) == pytest.approx(direct, abs=1e-12)


class TestReport:
    def test_fields(self):
        r = report(cnot_spin_independent(3))
        assert r.name == "cnot-independent"
        assert r.n == 3
        assert r.cycles == 39
        assert set(r.fidelity) == {"SPIN0", "SPIN1"}
        assert r.negative_local_steps > 0  # prefactor and inverse decouplers

    def test_scores_each_sector_through_one_frame_scores_call(self, monkeypatch):
        schedule = cnot_spin1(3)
        calls = []
        original = metrics.frame_scores

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(metrics, "frame_scores", counted)
        r = report(schedule)
        assert len(calls) == 2
        monkeypatch.undo()
        for sector in SpinSector:
            g = simulate(schedule, sector)
            assert r.fidelity[sector.name] == entanglement_fidelity(g, CNOT, sector)
            assert r.leakage[sector.name] == leakage(g, CNOT, sector)

    def test_list_built_schedule_reports_as_tuple_built(self):
        steps = cnot_spin1(2).steps
        listed, tupled = PulseSchedule(list(steps)), PulseSchedule(steps)
        assert type(listed.steps) is tuple and listed == tupled and hash(listed) == hash(tupled)
        assert report(listed) == report(tupled)

    def test_monotone_improvement_within_tables(self):
        rows1 = table_rows(1)
        rows2 = table_rows(2)
        for rows in (rows1, rows2):
            fids = [r.fidelity["SPIN1"] for r in rows]
            leaks = [r.leakage["SPIN1"] for r in rows]
            assert fids == sorted(fids)
            assert leaks == sorted(leaks, reverse=True)

    _BAD_TARGETS = {
        "scaled identity": (2 * np.eye(4), "target must be unitary to 1e-12, got |T^dag T - 1| = 3.0e+00"),
        "scaled CNOT": (2 * CNOT, "target must be unitary to 1e-12, got |T^dag T - 1| = 3.0e+00"),
        "3 x 3": (np.eye(3), "target must be a finite 4 x 4 matrix, got shape (3, 3)"),
        "NaN entry": (np.diag([1.0, 1.0, 1.0, np.nan]), "target must be a finite 4 x 4 matrix, got "),
        "not numeric": ("cnot", "target must be a finite 4 x 4 matrix, got 'cnot'"),
    }

    @pytest.mark.parametrize(("target", "message"), _BAD_TARGETS.values(), ids=_BAD_TARGETS.keys())
    def test_target_must_be_a_4x4_unitary(self, target, message):
        sch, sector = cnot_spin1(2), SpinSector.SPIN1
        gate = simulate(sch, sector)
        scorers = (
            lambda t: report(sch, t),
            lambda t: metrics.report_many([sch], t),
            lambda t: entanglement_fidelity(gate, t, sector),
            lambda t: leakage(gate, t, sector),
            lambda t: oracle_fidelity(sch, sector, t),
        )
        for score in scorers:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}") as err:
                score(target)
            assert "\n" not in str(err.value)

    def test_cnot_is_read_only_and_passes_unchecked(self, monkeypatch):
        assert not CNOT.flags.writeable
        with pytest.raises(ValueError):
            CNOT[0, 0] = 2

        def unexpected(*args, **kwargs):
            raise AssertionError("the target was checked")

        monkeypatch.setattr(np, "isfinite", unexpected)
        assert metrics._checked_target(CNOT) is CNOT and metrics._checked_target(None) is CNOT
        with pytest.raises(AssertionError, match="the target was checked"):
            metrics._checked_target(CNOT.copy())

    def test_cancelled_rows_keep_scores(self):
        plain = table_rows(2)
        cancelled = table_rows(2, cancel=True)
        for a, b in zip(plain, cancelled):
            assert abs(b.normalized_time - a.normalized_time - 1.299) <= 0.05
            assert abs(a.fidelity["SPIN1"] - b.fidelity["SPIN1"]) <= 1e-5
            assert abs(a.leakage["SPIN1"] - b.leakage["SPIN1"]) <= 1e-5


class TestPerStepSums:
    """``report`` evaluates each distinct step once; its sums stay the per-step ones."""

    @staticmethod
    def _check(sch):
        rep = report(sch)
        time = sum(s.max_coefficient() for s in sch.steps) / (np.pi / 2)
        assert float.hex(rep.normalized_time) == float.hex(time)
        assert float.hex(normalized_time(sch)) == float.hex(time)
        negative = sum(
            1 for s in sch.steps if not s.is_cross_block() and any(c < 0 for c in s.coeffs)
        )
        assert rep.negative_local_steps == negative

    @pytest.mark.parametrize("builder", [cnot_spin_independent, cnot_spin1])
    def test_families_at_n_200(self, builder):
        self._check(builder(200))

    @settings(max_examples=25, deadline=None)
    @given(
        pool=st.lists(
            st.builds(
                PulseStep.make,
                st.dictionaries(
                    st.sampled_from(ALL_PAIRS), st.floats(-4.0, 4.0, allow_nan=False), max_size=4
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        data=st.data(),
    )
    def test_random_schedule(self, pool, data):
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=200))
        self._check(PulseSchedule(tuple(pool[k] for k in picks)))


def _count_hashes(monkeypatch):
    """Count ``PulseStep.__hash__`` calls from here on; returns a one-item list."""
    calls = [0]
    original = PulseStep.__hash__

    def counting(step):
        calls[0] += 1
        return original(step)

    monkeypatch.setattr(PulseStep, "__hash__", counting)
    return calls


class TestInternedOnce:
    """One interning pass per schedule, shared by every layer that reads its steps."""

    def test_report_hashes_each_step_about_once(self, monkeypatch):
        sch = cnot_spin_independent(200)
        calls = _count_hashes(monkeypatch)
        report(sch)
        assert calls[0] <= 1.1 * len(sch.steps)

    def test_oracle_after_report_hashes_only_distinct_steps(self, monkeypatch):
        sch = cnot_spin_independent(200)
        distinct = len(set(sch.steps))
        report(sch)
        calls = _count_hashes(monkeypatch)
        for sector in SpinSector:
            oracle_fidelity(sch, sector, CNOT)
        assert calls[0] <= 2 * distinct

    def test_report_peak_memory_on_longest_schedule(self):
        # Measured with Python 3.11 and numpy 2.4: 4043 KiB when each layer
        # interned the steps in lists of its own, 3946 KiB with the interned
        # form kept on the schedule as tuples.
        sch = cnot_spin_independent(10000)
        report(cnot_spin_independent(1))
        tracemalloc.start()
        try:
            report(sch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 4043 * 1024


def _reference_steps(steps, stack):
    """Each step's unitary: its own 1-d coefficient product and ``expi``, a nonzero phase as a scalar."""
    flat = stack.reshape(len(ALL_PAIRS), -1)
    mats = []
    for step in steps:
        coeffs = np.zeros(len(ALL_PAIRS))
        for pair, c in zip(step.pairs, step.coeffs):
            coeffs[ALL_PAIRS.index(pair)] += c
        u = expi((coeffs @ flat).reshape(stack.shape[1:]))
        mats.append(np.exp(1j * step.phase) * u if step.phase else u)
    return mats


def _reference_evolve_many(schedules, stack):
    """The per-step algorithm ``evolve_many`` replaced, kept to pin its bits, as (S, d, d).

    The step unitaries are ``_reference_steps``'s on the batch's distinct
    steps, and each pair of the batch's product plan is one ``@``, read
    from and written to the plan's pool.
    """
    form = schedule._evolve_form(schedules)
    distinct = list(dict.fromkeys(step for schedule in schedules for step in schedule._interned[0]))
    pool = _reference_steps(distinct, stack) + [None] * (form.slots - len(form.rows))
    node = len(form.rows)
    for left, right in form.levels:
        for product in [pool[a] @ pool[b] for a, b in zip(left, right)]:
            pool[node % form.slots] = product
            node += 1
    identity = np.eye(stack.shape[1], dtype=complex)
    return np.array([identity if final is None else pool[final] for final in form.finals])


def _reference_evolve(schedule, stack):
    """``_reference_evolve_many`` of a batch of one."""
    return _reference_evolve_many((schedule,), stack)[0]


def _tree_reference(schedule, stack):
    """The written-out pairwise tree: one ``@`` per pair (0, 1), (2, 3), ... a layer, an odd last step waiting."""
    if not schedule.steps:
        return np.eye(stack.shape[1], dtype=complex)
    mats = _reference_steps(schedule._interned[0], stack)
    layer = [mats[k] for k in _written_ids(schedule)]
    while len(layer) > 1:
        layer = [a @ b for a, b in zip(layer[::2], layer[1::2])] + layer[len(layer) - len(layer) % 2 :]
    return layer[0]


def _written_ids(schedule):
    head, body, reps, tail = schedule._interned[1]
    return head + body * reps + tail


# The 5- and 9-dim irreps, the oracle's 9- and 5-dim closures and the 20-dim block.
_EVOLVE_STACKS = {
    "irrep-SPIN0": pair_stack(SpinSector.SPIN0),
    "irrep-SPIN1": pair_stack(SpinSector.SPIN1),
    "closure-SPIN1": oracle._closure_block(SpinSector.SPIN1)[0],
    "closure-SPIN0": oracle._closure_block(SpinSector.SPIN0)[0],
    "block-20": magnetization_block(3),
}


def _random_steps(rng, k, phased):
    return [
        PulseStep.make(
            {ALL_PAIRS[p]: rng.uniform(-np.pi, np.pi) for p in rng.choice(15, rng.integers(1, 7), replace=False)},
            rng.uniform(-np.pi, np.pi) if phased and j % 2 else 0.0,
        )
        for j in range(k)
    ]


class TestBatchedEvolve:
    """``evolve`` in chunks of matrices, bit for bit the per-step algorithm."""

    def test_chunks_hold_4096_entries(self):
        assert [metrics._chunk(d) for d in (5, 9, 20, 64, 65)] == [163, 50, 10, 1, 1]

    @pytest.mark.parametrize("phased", [False, True], ids=["zero-phases", "phases"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("name", list(_EVOLVE_STACKS))
    def test_bit_identical_to_per_step_reference(self, name, offset, phased):
        stack = _EVOLVE_STACKS[name]
        k = metrics._chunk(stack.shape[1]) + offset
        rng = np.random.default_rng([k, phased])
        distinct = _random_steps(rng, k, phased)
        # every step once, then repeats: level 0 holds more pairs than one chunk
        picks = list(range(k)) + rng.integers(0, k, size=k + 1).tolist()
        sch = PulseSchedule(tuple(distinct[j] for j in picks))
        assert len(sch._interned[0]) == k
        assert np.array_equal(evolve(sch, stack), _reference_evolve(sch, stack))

    def test_report_and_oracle_build_each_schedules_rows_once(self, monkeypatch):
        built = []
        original = schedule._coefficient_rows

        def counting(steps):
            built.append(tuple(steps))
            return original(steps)

        monkeypatch.setattr(schedule, "_coefficient_rows", counting)
        rng = np.random.default_rng(16)
        for sch in (
            cnot_spin1(50),
            cnot_spin_independent(3),
            PulseSchedule(tuple(_random_steps(rng, 60, True))),
        ):
            built.clear()
            report(sch)
            for sector in SpinSector:
                simulate(sch, sector)
                oracle_fidelity(sch, sector, CNOT)
            # one build, the schedule's _rows: its _form evolves both irreps and both
            # oracle closures, consolidate reads the same rows, and a merged step's
            # row is the sum of its parts'
            assert built == [sch._interned[0]]


def _batch_pool():
    """Schedules of every plan depth: empty, one step, CNOT families plain and canceled, wide flat ones."""
    rng = np.random.default_rng(19)
    pool = [PulseSchedule(()), PulseSchedule((PulseStep.make({(2, 5): 0.4}, 0.3),))]
    for sch in (cnot_spin_independent(1), cnot_spin_independent(2, order=0), cnot_spin_independent(3), cnot_spin1(2)):
        pool += [sch, cancel_negatives(sch)]
    # more distinct steps than one chunk holds at d = 5 (163), with repeats
    for k in (60, 170):
        steps = _random_steps(rng, k, phased=True)
        pool.append(PulseSchedule(tuple(steps[j] for j in [*range(k), *rng.integers(0, k, size=k // 3)])))
    return pool


_POOL = _batch_pool()
# the oracle's two closures and the two irreps
_BATCH_STACKS = {name: _EVOLVE_STACKS[name] for name in ("irrep-SPIN0", "irrep-SPIN1", "closure-SPIN1", "closure-SPIN0")}


@lru_cache(maxsize=None)
def _single(name, k):
    return evolve(_POOL[k], _BATCH_STACKS[name])


class TestEvolveMany:
    """``evolve_many``: a batch's gates are bit for bit the per-schedule ``evolve``."""

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=5), name=st.sampled_from(list(_BATCH_STACKS)))
    def test_batch_equals_per_schedule_evolve(self, picks, name):
        gates = metrics.evolve_many([_POOL[k] for k in picks], _BATCH_STACKS[name])
        d = _BATCH_STACKS[name].shape[1]
        assert gates.shape == (len(picks), d, d)
        for gate, k in zip(gates, picks):
            assert np.array_equal(gate, _single(name, k))

    def test_pool_plans_differ_in_depth(self):
        depths = {len(sch._form.levels) for sch in _POOL}
        assert {0, 4, 6, 7, 8} <= depths
        assert max(len(sch._form.rows) for sch in _POOL) > metrics._chunk(5)

    @pytest.mark.parametrize("name", list(_BATCH_STACKS))
    def test_schedules_without_repeats_evolve_as_the_written_out_tree(self, name):
        """Fewer than two repeats: ``evolve`` and ``evolve_many`` give the written-out tree's bits."""
        stack = _BATCH_STACKS[name]
        written = [sch for sch in _POOL if sch._interned[1][2] < 2]
        written += [cnot_spin1(1), cancel_negatives(cnot_spin_independent(1, order=0))]
        assert len(written) >= 8 and all(sch.steps and sch._interned[1][2] < 2 for sch in written[-2:])
        want = [_tree_reference(sch, stack) for sch in written]
        assert all(np.array_equal(evolve(sch, stack), gate) for sch, gate in zip(written, want))
        assert np.array_equal(metrics.evolve_many(written, stack), np.array(want))

    def test_batch_of_one_builds_no_merged_plan(self):
        """``evolve`` reads the schedule's own ``_form``; a plan is built once per shape, never per copy."""
        def built():  # plans built, not looked up
            return products.product_plan.cache_info().misses

        def fresh(sch):  # a flat copy: its gate equals a built run form's to rounding only
            return PulseSchedule(sch.steps, name=sch.name, order=sch.order, n=sch.n)

        stack = _BATCH_STACKS["irrep-SPIN1"]
        want = [(evolve(sch, stack), evolve(fresh(sch), stack)) for sch in _POOL]
        for sch, gates in zip(_POOL, want):
            # a schedule, or a fresh copy of a shape planned above, builds no plan; consolidation plans nothing
            for one, gate in ((sch, gates[0]), (fresh(sch), gates[1])):
                before = built()
                assert np.array_equal(evolve(one, stack), gate)
                report(one)
                oracle_fidelity(one, SpinSector.SPIN0, CNOT)
                got = metrics.evolve_many((one,), stack)
                assert got.shape == (1, *gate.shape) and np.array_equal(got[0], gate)
                assert built() == before
        products.product_plan.cache_clear()
        for _ in range(2):  # a new shape builds one plan, its next copy none
            assert np.array_equal(evolve(fresh(_POOL[-1]), stack), want[-1][1])
            assert built() == 1
        products.product_plan.cache_clear()
        metrics.evolve_many(_POOL[2:4], stack)
        assert built() == 1  # one merged plan for the batch

    @pytest.mark.parametrize("canceled", [False, True], ids=["plain", "canceled"])
    @pytest.mark.parametrize("builder", [cnot_spin_independent, cnot_spin1], ids=["independent", "spin1"])
    def test_squaring_ladder_equals_per_step_reference(self, builder, canceled):
        """At n = 1000 most levels hold one product, multiplied on pool views, to the reference's bits."""
        sch = cancel_negatives(builder(1000)) if canceled else builder(1000)
        assert sum(len(left) == 1 for left, _ in sch._form.levels) >= len(sch._form.levels) // 2
        for name, stack in _BATCH_STACKS.items():
            assert np.array_equal(evolve(sch, stack), _reference_evolve(sch, stack)), name

    def test_mixed_batch_equals_per_step_reference(self):
        """One plan with one-product levels, levels over a chunk, and a chunk cut where the slots wrap."""
        rng = np.random.default_rng(29)
        flats = []
        for _ in range(2):
            steps = _random_steps(rng, 10, phased=True)
            flats.append(PulseSchedule(tuple(steps[j] for j in rng.integers(0, 10, size=300))))
        batch = [*flats, cnot_spin1(1000)]
        form = schedule._evolve_form(batch)
        sizes = [len(left) for left, _ in form.levels]
        firsts = len(form.rows) + np.cumsum([0, *sizes[:-1]])
        assert 1 in sizes and max(sizes) > metrics._chunk(9)
        assert any(size > 1 and first % form.slots + size > form.slots for first, size in zip(firsts, sizes))
        for name, stack in _BATCH_STACKS.items():
            assert np.array_equal(metrics.evolve_many(batch, stack), _reference_evolve_many(batch, stack)), name

    def test_empty_batch_and_all_empty_schedules(self):
        stack = _BATCH_STACKS["irrep-SPIN0"]
        assert metrics.evolve_many((), stack).shape == (0, 5, 5)
        gates = metrics.evolve_many([PulseSchedule(())] * 3, stack)
        assert np.array_equal(gates, np.tile(np.eye(5, dtype=complex), (3, 1, 1)))


def _report_bits(r):
    scores = {s: (r.fidelity[s].hex(), r.leakage[s].hex()) for s in r.fidelity}
    return r.name, r.n, r.cycles, r.normalized_time.hex(), r.negative_local_steps, list(r.fidelity), scores


def _flat_random(rng, k):
    """An unrepeated schedule of k random phased steps: its run form is all tail, ids 0..k-1."""
    return PulseSchedule(tuple(_random_steps(rng, k, phased=True)))


def _product_plan_levelled_while_planning(runs, k):
    """A former ``products.product_plan``, unmemoized: it gave levels as it planned and renumbered only when needed.

    ``tree`` counted its layers for a level and ``times`` put a product one
    above its later operand; the pool was renumbered level by level only
    when planning order was not already level order.
    """
    plan_of: dict[tuple[int, int], int] = {}
    depth = [0] * k

    def times(a, b):
        node = plan_of.setdefault((a, b), len(depth))
        if node == len(depth):
            depth.append(1 + max(depth[a], depth[b]))
        return node

    def tree(layer):
        level = 0
        while len(layer) > 1:
            level += 1
            above = [plan_of.setdefault(pair, len(plan_of) + k) for pair in zip(layer[::2], layer[1::2])]
            depth.extend([level] * (len(plan_of) + k - len(depth)))
            layer = above + list(layer[len(layer) - len(layer) % 2 :])
        return layer[0] if layer else None

    roots = []
    for head, body, reps, tail in runs:
        if reps < 2:
            head, body, reps, tail = (), (), 0, (*head, *body * reps, *tail)
        power, node = None, tree(body)
        while reps:
            if reps & 1:
                power = node if power is None else times(power, node)
            reps >>= 1
            if reps:
                node = times(node, node)
        parts = [part for part in (tree(head), power, tree(tail)) if part is not None]
        roots.append(reduce(times, parts) if parts else None)
    depths = depth[k:]
    plan = np.array([*zip(*plan_of), depths], dtype=np.intp).reshape(3, -1)
    if depths != sorted(depths):
        order = np.argsort(plan[2], kind="stable")
        index = np.arange(len(depth))
        index[k + order] = index[k:].copy()
        plan = plan[:, order]
        plan[:2], roots = index[plan[:2]], [None if r is None else int(index[r]) for r in roots]
    ends = k + np.cumsum(np.bincount(plan[2], minlength=1))
    kept = max([k] + [len(depth) - r for r in roots if r is not None])
    slots = int(np.max(ends[plan[2]] - plan[:2], initial=kept))
    nodes, bounds = plan[:2] % max(slots, 1), (ends - k).tolist()
    levels = tuple([(nodes[0, a:b], nodes[1, a:b]) for a, b in zip(bounds, bounds[1:])])
    return levels, tuple([None if r is None else r % slots for r in roots]), slots


@st.composite
def _run_form_batches(draw):
    """(runs, k): a batch of id run forms over k steps, as ``_evolve_form`` passes them; empty ones included.

    An empty body has no repeats, as in an interned run form.
    """
    k = draw(st.integers(0, 6))
    part = st.lists(st.integers(0, k - 1), max_size=7).map(tuple) if k else st.just(())
    runs = []
    for _ in range(draw(st.integers(0, 4))):
        head, body, reps, tail = draw(part), draw(part), draw(st.integers(0, 10000)), draw(part)
        runs.append((head, body, reps if body else 0, tail))
    return tuple(runs), k


class TestPlanReference:
    @settings(max_examples=500, deadline=None)
    @given(batch=_run_form_batches())
    def test_plan_equals_the_former_planner(self, batch):
        """Levelling after planning, always renumbering, gives the former plan array for array."""
        levels, finals, slots = products.product_plan.__wrapped__(*batch)
        want, want_finals, want_slots = _product_plan_levelled_while_planning(*batch)
        assert (finals, slots) == (want_finals, want_slots) and len(levels) == len(want)
        for got, ref in zip(levels, want):
            assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(got, ref))

    def test_table_and_long_schedule_plans_equal_the_former_planner(self):
        rng = np.random.default_rng(47)
        batches = [[cnot_spin_independent(n) for n in (3, 5, 9)], [cnot_spin1(n) for n in (2, 3, 4)]]
        batches += [[cancel_negatives(s) for s in batch] for batch in batches]
        batches += [[build(n)] for build in (cnot_spin1, cnot_spin_independent) for n in (50, 200)]
        batches += [[_flat_random(rng, k)] for k in (20, 57, 100)]
        for batch in batches:
            ids, runs = {}, []
            for s in batch:  # each run form on batch ids, as ``_evolve_form`` renumbers it
                distinct, (head, body, reps, tail) = s._interned
                to_batch = [ids.setdefault(step, len(ids)) for step in distinct]
                head, body, tail = (tuple(to_batch[i] for i in part) for part in (head, body, tail))
                runs.append((head, body, reps, tail))
            form = schedule._evolve_form(batch)
            want, want_finals, want_slots = _product_plan_levelled_while_planning(tuple(runs), len(ids))
            assert (form.finals, form.slots) == (want_finals, want_slots) and len(form.levels) == len(want)
            for got, ref in zip(form.levels, want):
                assert all(np.array_equal(x, y) for x, y in zip(got, ref))


class TestPlanMemo:
    """``products.product_plan`` is built once per run-form shape and shared; values never enter its key."""

    def test_fresh_builds_share_one_plan(self):
        a, b = cnot_spin1(200), cnot_spin1(200)
        assert a is not b and a._form.levels is b._form.levels and a._form.finals is b._form.finals
        assert a._form.rows is not b._form.rows  # rows and phases stay each schedule's own

    def test_unrepeated_schedules_of_one_length_share_a_plan(self):
        rng = np.random.default_rng(41)
        a, b, c = (_flat_random(rng, k) for k in (20, 20, 21))
        assert a._interned[0] != b._interned[0]
        assert a._form.levels is b._form.levels and c._form.levels is not a._form.levels
        body = _random_steps(rng, 3, phased=False)
        two, three = (PulseSchedule._repeated((), body, reps, ()) for reps in (2, 3))
        again = PulseSchedule._repeated((), _random_steps(rng, 3, phased=True), 2, ())
        assert again._form.levels is two._form.levels and three._form.levels is not two._form.levels

    def test_past_the_bound_plans_are_dropped_and_replanned_equal(self):
        plan = products.product_plan
        plan.cache_clear()
        first = plan((((), (), 0, (0, 1, 2)),), 3)
        for k in range(4, 4 + products.PLANS_KEPT):
            plan((((), (), 0, tuple(range(k))),), k)
        info = plan.cache_info()
        assert info.currsize == products.PLANS_KEPT and info.misses == products.PLANS_KEPT + 1
        again = plan((((), (), 0, (0, 1, 2)),), 3)
        assert plan.cache_info().misses == info.misses + 1 and again is not first
        (levels, finals, slots), (want, want_finals, want_slots) = again, first
        assert (finals, slots) == (want_finals, want_slots) and len(levels) == len(want)
        for got, ref in zip(levels, want):
            assert all(np.array_equal(x, y) and not x.flags.writeable for x, y in zip(got, ref))

    def test_plan_is_immutable(self):
        levels, finals, slots = cnot_spin_independent(50)._form[3:]
        assert isinstance(levels, tuple) and isinstance(finals, tuple) and isinstance(slots, int)
        assert all(isinstance(level, tuple) and not any(a.flags.writeable for a in level) for level in levels)

    def test_cold_report_equals_warm_report(self):
        rng = np.random.default_rng(43)
        randoms = [_flat_random(rng, k) for k in (1, 20, 57)]
        builds = [lambda: cnot_spin1(200), lambda: cancel_negatives(cnot_spin_independent(50, order=0))]
        builds += [lambda: cnot_spin_independent(3)] + [lambda s=s: PulseSchedule(s.steps) for s in randoms]
        warm = [_report_bits(report(build())) for build in builds]
        for build, bits in zip(builds, warm):
            products.product_plan.cache_clear()
            assert _report_bits(report(build())) == bits
        products.product_plan.cache_clear()
        assert [_report_bits(r) for r in metrics.report_many([build() for build in builds])] == warm


class TestReportMany:
    @pytest.mark.parametrize(
        "target",
        [None, np.diag([1, 1j, -1, 1]).astype(complex), [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]],
        ids=["cnot", "phase-gate", "swap-list"],
    )
    def test_equals_per_schedule_report(self, target):
        batch = [*_POOL, _POOL[3]]
        got = metrics.report_many(batch, target)
        assert [_report_bits(r) for r in got] == [_report_bits(report(s, target)) for s in batch]

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("cancel", [False, True])
    def test_table_rows_equal_per_schedule_reports(self, which, cancel):
        builder, ns = {1: (cnot_spin_independent, (3, 5, 9)), 2: (cnot_spin1, (2, 3, 4))}[which]
        schedules = [builder(n) for n in ns]
        if cancel:
            schedules = [cancel_negatives(s) for s in schedules]
        got = table_rows(which, cancel=cancel)
        assert [_report_bits(r) for r in got] == [_report_bits(report(s)) for s in schedules]

    def test_empty_batch(self):
        assert metrics.report_many([]) == []

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("cancel", [False, True])
    def test_table_takes_two_stacked_checks(self, monkeypatch, which, cancel):
        calls = []
        original = schedule._rows_commute
        for module in (schedule, trotter):  # the batch fill's binding and consolidate's
            monkeypatch.setattr(module, "_rows_commute", lambda a, b: calls.append(len(a)) or original(a, b))
        table_rows(which, cancel=cancel)
        assert len(calls) <= 2

    @pytest.mark.parametrize("cancel", [False, True])
    @pytest.mark.parametrize(("which", "distinct"), [(1, 9), (2, 10)])
    def test_table_exponentiates_each_distinct_step_once(self, monkeypatch, which, distinct, cancel):
        """A table's batch interns its steps: 9 and 10 rows a sector, where its schedules hold 15 and 21 distinct steps."""
        built = Counter()
        original = metrics.row_generators

        def counting(rows, stack):
            built[stack.shape[1]] += len(rows)
            return original(rows, stack)

        monkeypatch.setattr(metrics, "row_generators", counting)
        table_rows(which, cancel=cancel)
        assert built == {5: distinct, 9: distinct}

    @pytest.mark.parametrize("which", [True, 1.0, "1", np.float64(2.0)])
    def test_table_number_must_be_an_integer(self, which):
        with pytest.raises(ValueError, match="table must be an integer"):
            table_rows(which)


class TestRendering:
    def test_markdown(self):
        text = render_markdown(table_rows(1))
        lines = text.splitlines()
        assert lines[0] == "| n | cycles | time | fidelity | leakage |"
        assert "| 3 | 39 | 8.5 |" in lines[2]
        assert str(FONG_WANDZURA_TIME) in text
        assert str(FONG_WANDZURA_CYCLES) in text

    def test_csv_parse_back(self):
        rows = table_rows(1)
        text = render_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "n,cycles,time,fidelity,leakage"
        for line, r in zip(lines[1:], rows):
            n, cycles, time, fid, leak = line.split(",")
            assert int(n) == r.n
            assert int(cycles) == r.cycles
            assert float(time) == pytest.approx(r.normalized_time, abs=0.05)
            assert float(fid) == pytest.approx(r.fidelity["SPIN1"], abs=1e-5)
            assert float(leak) == pytest.approx(r.leakage["SPIN1"], abs=1e-5)

    def test_json(self):
        import json

        payload = json.loads(render_json(table_rows(2)))
        assert payload["benchmark"] == {"cycles": 13, "time": 12.3}
        row = payload["rows"][0]
        assert row["n"] == 2 and row["cycles"] == 21
        assert row["time"] == pytest.approx(9.8, abs=0.05)

    def test_bad_table_number(self):
        with pytest.raises(ValueError, match="^table must be 1 or 2, got 3$"):
            table_rows(3)
