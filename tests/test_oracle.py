import tracemalloc

import numpy as np
import pytest

from exgates import encoding, oracle, symrep, trotter
from exgates.decouple import local_sums
from exgates.encoding import ALL_PAIRS, SpinSector, projected_rep
from exgates.metrics import CNOT, evolve, frame_scores, report
from exgates.oracle import (
    DIM,
    frame_closure,
    logical_frame,
    oracle_fidelity,
    oracle_projected_rep,
    oracle_simulate,
    physical_permutation,
    physical_swap,
)
from exgates.symrep import Permutation
from exgates.trotter import (
    PulseSchedule,
    PulseStep,
    cancel_negatives,
    cnot_spin1,
    cnot_spin_independent,
)


def state_index(bits: str) -> int:
    return int(bits, 2)


# number of down spins (1 bits) of each basis string
down_spins = np.array([bin(idx).count("1") for idx in range(DIM)])
# each frame's number of down spins and magnetization block dimension
FRAME_BLOCKS = [(SpinSector.SPIN1, 2, 15), (SpinSector.SPIN0, 3, 20)]


def random_schedule(rng, n_steps):
    steps = []
    for _ in range(n_steps):
        k = int(rng.integers(1, 7))
        pairs = rng.choice(len(ALL_PAIRS), size=k, replace=False)
        coeffs = {ALL_PAIRS[p]: float(rng.uniform(-np.pi, np.pi)) for p in pairs}
        steps.append(PulseStep.make(coeffs, float(rng.uniform(-np.pi, np.pi))))
    return PulseSchedule(tuple(steps))


class TestPhysicalSwap:
    def test_involution(self):
        m = physical_swap(1, 2)
        assert np.array_equal(m @ m, np.eye(DIM))

    def test_swaps_first_two_spins(self):
        m = physical_swap(1, 2)
        src = state_index("100000")
        dst = state_index("010000")
        assert m[dst, src] == 1.0
        assert m[src, dst] == 1.0
        fixed = state_index("110000")
        assert m[fixed, fixed] == 1.0

    def test_homomorphism_against_words(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = Permutation(tuple(int(v) for v in rng.permutation(6) + 1))
            b = Permutation(tuple(int(v) for v in rng.permutation(6) + 1))
            lhs = physical_permutation(a * b)
            rhs = physical_permutation(a) @ physical_permutation(b)
            assert np.array_equal(lhs, rhs)

    def test_bad_pair(self):
        with pytest.raises(ValueError):
            physical_swap(2, 2)
        with pytest.raises(ValueError):
            physical_swap(0, 3)


class TestLogicalFrame:
    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_gram_identity(self, sector):
        phi = logical_frame(sector)
        assert np.max(np.abs(phi @ phi.T - np.eye(4))) <= 1e-12

    def test_swap12_expectation_on_00(self):
        phi = logical_frame(SpinSector.SPIN1)
        val = phi[0] @ physical_swap(1, 2) @ phi[0]
        assert val == pytest.approx(-1.0)

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_annihilated_by_block_sums(self, sector):
        for sig in local_sums():
            assert np.max(np.abs(oracle_projected_rep(sig, sector))) <= 1e-12

    def test_spin1_frame_has_sz_plus_one(self):
        # each frame vector is supported on strings with exactly two down spins
        phi = logical_frame(SpinSector.SPIN1)
        for row in phi:
            for idx in np.nonzero(np.abs(row) > 1e-14)[0]:
                assert bin(idx).count("1") == 2

    def test_spin0_frame_has_sz_zero(self):
        phi = logical_frame(SpinSector.SPIN0)
        for row in phi:
            for idx in np.nonzero(np.abs(row) > 1e-14)[0]:
                assert bin(idx).count("1") == 3


class TestOracleProjectedRep:
    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_agrees_with_irrep_path_on_all_transpositions(self, sector):
        for pair in ALL_PAIRS:
            x = {pair: 1.0}
            dev = np.max(
                np.abs(oracle_projected_rep(x, sector) - projected_rep(x, sector))
            )
            assert dev <= 1e-10

    def test_cnot_generator_identities(self):
        sq3 = np.sqrt(3.0)
        n = {(1, 5): 3 * sq3 / 4, (1, 4): -3 * sq3 / 4, (2, 5): 3 * sq3 / 4, (2, 4): -3 * sq3 / 4}
        m1 = oracle_projected_rep(n, SpinSector.SPIN1)
        m0 = oracle_projected_rep(n, SpinSector.SPIN0)
        half = np.zeros((4, 4))
        half[2, 3] = half[3, 2] = 1.0
        assert np.max(np.abs(m1 - half)) <= 1e-10
        assert np.max(np.abs(m0 + 3 * half)) <= 1e-10

    @pytest.mark.parametrize("sector,const", [(SpinSector.SPIN0, 3.0), (SpinSector.SPIN1, 5.0)])
    def test_central_constant_on_frame(self, sector, const):
        total = {p: 1.0 for p in ALL_PAIRS}
        m = oracle_projected_rep(total, sector)
        assert np.max(np.abs(m - const * np.eye(4))) <= 1e-10

    def test_rejects_bad_pair(self):
        for pairs in ({(1, 7): 1.0}, {(2, 2): 1.0}):
            with pytest.raises(ValueError):
                oracle_projected_rep(pairs, SpinSector.SPIN1)


class TestClosure:
    @pytest.mark.parametrize("sector,dim", [(SpinSector.SPIN0, 5), (SpinSector.SPIN1, 9)])
    def test_closure_dimension(self, sector, dim):
        assert frame_closure(sector).shape == (dim, DIM)

    def test_simulated_schedule_stays_in_closure(self):
        for sector, down, dim in FRAME_BLOCKS:
            on_block = down_spins == down
            closure = frame_closure(sector)
            # the closure lies in the frame's magnetization block
            assert not closure[:, ~on_block].any()
            closure = closure[:, on_block]
            proj = closure.T @ closure
            phi = oracle._magnetization_block(sector)[1]
            g = oracle_simulate(cnot_spin_independent(2), sector)
            assert g.shape == (dim, dim)
            leaked = (np.eye(dim) - proj) @ g @ phi.T
            assert np.max(np.abs(leaked)) <= 1e-10
            # compressions of a unitary have singular values at most one
            sv = np.linalg.svd(closure @ g @ closure.T, compute_uv=False)
            assert sv.max() <= 1 + 1e-10


class TestOracleFidelity:
    def test_empty_schedule_quarter(self):
        f, leak = oracle_fidelity(PulseSchedule(()), SpinSector.SPIN1, CNOT)
        assert f == pytest.approx(0.25)
        assert leak == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("builder,n", [(cnot_spin_independent, 3), (cnot_spin1, 2)])
    def test_matches_irrep_path(self, builder, n):
        schedule = builder(n)
        r = report(schedule)
        for sector in SpinSector:
            f, leak = oracle_fidelity(schedule, sector, CNOT)
            assert abs(f - r.fidelity[sector.name]) <= 1e-8
            assert abs(leak - r.leakage[sector.name]) <= 1e-8


class TestMagnetizationBlock:
    def test_swaps_keep_the_down_spin_count(self):
        # every off-block entry of every swap is exactly zero
        stack = oracle._swap_stack()
        assert not stack[:, down_spins[:, None] != down_spins[None, :]].any()

    @pytest.mark.parametrize("sector,down,dim", FRAME_BLOCKS)
    def test_block_is_the_frames_down_spin_count(self, sector, down, dim):
        stack, phi = oracle._magnetization_block(sector)
        on_block = down_spins == down
        assert stack.shape == (15, dim, dim) and phi.shape == (4, dim)
        assert np.array_equal(stack, oracle._swap_stack()[:, on_block][:, :, on_block])
        assert np.array_equal(phi, logical_frame(sector)[:, on_block])
        assert not (stack.flags.writeable or phi.flags.writeable)

    def test_frame_spanning_two_counts_rejected(self, monkeypatch):
        mixed = logical_frame(SpinSector.SPIN1) + logical_frame(SpinSector.SPIN0)
        monkeypatch.setattr(oracle, "logical_frame", lambda sector: mixed)
        with pytest.raises(ValueError, match="down-spin counts"):
            oracle._magnetization_block.__wrapped__(SpinSector.SPIN1)

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_scores_equal_the_64_dim_oracle(self, sector):
        rng = np.random.default_rng(2024)
        schedules = [cnot_spin_independent(n) for n in (3, 5, 9)]
        schedules += [cnot_spin1(n) for n in (2, 3, 4)]
        schedules += [cancel_negatives(s, "full-sum") for s in schedules]
        schedules += [random_schedule(rng, int(rng.integers(5, 60))) for _ in range(20)]
        for schedule in schedules:
            reference = frame_scores(
                evolve(schedule, oracle._swap_stack()), CNOT, logical_frame(sector)
            )
            got = oracle_fidelity(schedule, sector, CNOT)
            assert np.max(np.abs(np.subtract(got, reference))) <= 1e-12

    def test_peak_memory_stays_chunk_bounded(self):
        # evolve exponentiates distinct steps in small chunks; one stack of
        # 100 steps on the 20-dim block would peak near 2.5 MiB
        rng = np.random.default_rng(7)
        schedule = random_schedule(rng, 100)
        assert len(set(schedule.steps)) == 100
        oracle_simulate(schedule, SpinSector.SPIN0)  # build the cached block first
        tracemalloc.start()
        try:
            oracle_simulate(schedule, SpinSector.SPIN0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20


def test_oracle_binds_no_irrep_machinery():
    # the cross-check is worth having only while its matrices and frame
    # come from the physical picture, never from symrep or encoding
    forbidden = {
        "rep_element": symrep.rep_element,
        "rep_transposition": symrep.rep_transposition,
        "rep_permutation": symrep.rep_permutation,
        "pair_stack": trotter.pair_stack,
        "projector": encoding.projector,
        "projected_rep": encoding.projected_rep,
    }
    bound = vars(oracle)
    assert not forbidden.keys() & bound.keys()
    assert not any(v is f for v in bound.values() for f in forbidden.values())
