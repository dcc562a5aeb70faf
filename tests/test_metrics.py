import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exgates import metrics
from exgates.encoding import ALL_PAIRS, SpinSector, projector
from exgates.linalg import expi
from exgates.metrics import (
    CNOT,
    FONG_WANDZURA_CYCLES,
    FONG_WANDZURA_TIME,
    entanglement_fidelity,
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
from exgates.trotter import (
    PulseSchedule,
    PulseStep,
    cnot_spin1,
    cnot_spin_independent,
    normalized_time,
)


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

    @pytest.mark.parametrize("k", [7, 8, 9, 17])
    def test_distinct_steps_across_chunks(self, k):
        # more distinct steps than one batched exponential takes
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

    def test_monotone_improvement_within_tables(self):
        rows1 = table_rows(1)
        rows2 = table_rows(2)
        for rows in (rows1, rows2):
            fids = [r.fidelity["SPIN1"] for r in rows]
            leaks = [r.leakage["SPIN1"] for r in rows]
            assert fids == sorted(fids)
            assert leaks == sorted(leaks, reverse=True)

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
        with pytest.raises(ValueError):
            table_rows(3)
