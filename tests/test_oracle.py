import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from swap_blocks import DOWN_SPINS, magnetization_block

from exgates import encoding, oracle, schedule, symrep, trotter
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
from exgates.schedule import PulseSchedule, PulseStep
from exgates.trotter import cancel_negatives, cnot_spin1, cnot_spin_independent


def state_index(bits: str) -> int:
    return int(bits, 2)


# each frame's number of down spins and closure dimension
FRAME_BLOCKS = [(SpinSector.SPIN1, 2, 9), (SpinSector.SPIN0, 3, 5)]
# the value S(S+1) + 3 of the swap sum on each frame's closure
SWAP_SUM = {SpinSector.SPIN1: 5.0, SpinSector.SPIN0: 3.0}


def random_schedule(rng, n_steps, scale=np.pi):
    steps = []
    for _ in range(n_steps):
        k = int(rng.integers(1, 7))
        pairs = rng.choice(len(ALL_PAIRS), size=k, replace=False)
        coeffs = {ALL_PAIRS[p]: float(rng.uniform(-scale, scale)) for p in pairs}
        steps.append(PulseStep.make(coeffs, float(rng.uniform(-np.pi, np.pi))))
    return PulseSchedule(tuple(steps))


def gram_schmidt_closure(sector):
    """Reference closure: apply all swaps and orthonormalize until the span stops growing."""
    basis = [v.copy() for v in logical_frame(sector)]
    changed = True
    while changed:
        changed = False
        for m in oracle._swap_stack():
            for v in list(basis):
                w = m @ v
                for b in basis:
                    w = w - (b @ w) * b
                norm = np.linalg.norm(w)
                if norm > 1e-10:
                    basis.append(w / norm)
                    changed = True
    return np.array(basis)


def loop_physical_permutation(perm):
    """Reference for ``physical_permutation``: one basis index at a time, bit by bit."""
    inv = perm.inverse()
    m = np.zeros((DIM, DIM))
    for idx in range(DIM):
        bits = [(idx >> (6 - 1 - k)) & 1 for k in range(6)]
        new_bits = [bits[inv(k + 1) - 1] for k in range(6)]
        new_idx = 0
        for b in new_bits:
            new_idx = (new_idx << 1) | b
        m[new_idx, idx] = 1.0
    return m


class TestPhysicalSwap:
    def test_equals_bitwise_loop_on_all_720_permutations(self):
        build = physical_permutation.__wrapped__  # uncached, so the 720 matrices are not kept
        for images in itertools.permutations(range(1, 7)):
            perm = Permutation(images)
            got = build(perm)
            assert got.dtype == np.float64 and not got.flags.writeable
            assert np.array_equal(got, loop_physical_permutation(perm)), images

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

    @pytest.mark.parametrize("c", [np.complex128(1 + 2j), np.complex64(1 + 2j), 1 + 2j, np.complex128(1)])
    def test_rejects_complex_coefficient(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TypeError, match="must be real"):
                oracle_projected_rep({(1, 2): c}, SpinSector.SPIN1)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), np.float64("-inf")])
    def test_rejects_non_finite_coefficient(self, c):
        with pytest.raises(ValueError, match="must be finite"):
            oracle_projected_rep({(1, 2): c}, SpinSector.SPIN1)


class TestClosure:
    @pytest.mark.parametrize("sector,dim", [(SpinSector.SPIN0, 5), (SpinSector.SPIN1, 9)])
    def test_closure_dimension(self, sector, dim):
        basis = frame_closure(sector)
        assert basis.shape == (dim, DIM)
        assert frame_closure(sector) is basis and not basis.flags.writeable

    def test_simulated_schedule_stays_in_closure(self):
        schedule = cnot_spin_independent(2)
        full = evolve(schedule, oracle._swap_stack())
        for sector, down, dim in FRAME_BLOCKS:
            basis = frame_closure(sector)
            # the closure lies in the frame's magnetization block
            assert not basis[:, DOWN_SPINS != down].any()
            g = oracle_simulate(schedule, sector)
            assert g.shape == (dim, dim)
            # the 64-dim unitary maps the closure into itself and acts there as g
            assert np.max(np.abs(full @ basis.T - basis.T @ g)) <= 1e-12
            assert np.max(np.abs(g.conj().T @ g - np.eye(dim))) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_orthonormal_and_mapped_into_itself_by_every_swap(self, sector):
        basis = frame_closure(sector)
        assert np.max(np.abs(basis @ basis.T - np.eye(len(basis)))) <= 1e-14
        outside = np.eye(DIM) - basis.T @ basis
        for m in oracle._swap_stack():
            assert np.max(np.abs(outside @ m @ basis.T)) <= 1e-14

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_projector_equals_gram_schmidt_reference(self, sector):
        basis = frame_closure(sector)
        reference = gram_schmidt_closure(sector)
        assert reference.shape == basis.shape
        assert np.max(np.abs(basis.T @ basis - reference.T @ reference)) <= 1e-12

    def test_frame_outside_one_eigenspace_rejected(self, monkeypatch):
        # product states with two down spins mix total spins 1, 2 and 3
        strings = ["110000", "101000", "000011", "010100"]
        mixed = np.zeros((4, DIM))
        mixed[range(4), [int(bits, 2) for bits in strings]] = 1.0
        monkeypatch.setattr(oracle, "logical_frame", lambda sector: mixed)
        with pytest.raises(ValueError, match="eigenvalues"):
            oracle.frame_closure.__wrapped__(SpinSector.SPIN1)


class TestOracleFidelity:
    def test_agrees_with_irreps_on_large_random_steps(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            schedule = random_schedule(rng, 100, scale=1e4)
            r = report(schedule)
            for sector in SpinSector:
                got = oracle_fidelity(schedule, sector, CNOT)
                want = (r.fidelity[sector.name], r.leakage[sector.name])
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-10

    def test_empty_schedule_quarter(self):
        f, leak = oracle_fidelity(PulseSchedule(()), SpinSector.SPIN1, CNOT)
        assert f == pytest.approx(0.25)
        assert leak == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "builder,n",
        [(cnot_spin_independent, 3), (cnot_spin1, 2)]
        + [(b, n) for b in (cnot_spin_independent, cnot_spin1) for n in (50, 200)],
    )
    def test_matches_irrep_path(self, builder, n):
        schedule = builder(n)
        r = report(schedule)
        for sector in SpinSector:
            f, leak = oracle_fidelity(schedule, sector, CNOT)
            assert abs(f - r.fidelity[sector.name]) <= 1e-10
            assert abs(leak - r.leakage[sector.name]) <= 1e-10


class TestMagnetizationBlock:
    def test_swaps_keep_the_down_spin_count(self):
        # every off-block entry of every swap is exactly zero
        stack = oracle._swap_stack()
        assert not stack[:, DOWN_SPINS[:, None] != DOWN_SPINS[None, :]].any()

    @pytest.mark.parametrize("sector,down,dim", FRAME_BLOCKS)
    def test_block_is_the_frames_down_spin_count(self, sector, down, dim):
        # the closure block: swaps and frame in the closure of the frame's down-spin block
        basis = frame_closure(sector)
        stack, phi = oracle._closure_block(sector)
        assert basis.shape == (dim, DIM) and not basis[:, DOWN_SPINS != down].any()
        assert stack.shape == (15, dim, dim) and phi.shape == (4, dim)
        assert not (stack.flags.writeable or phi.flags.writeable)
        # each swap acts on the closure as its block, and the frame lifts back
        for m, block in zip(oracle._swap_stack(), stack):
            assert np.max(np.abs(m @ basis.T - basis.T @ block)) <= 1e-14
        assert np.max(np.abs(phi @ basis - logical_frame(sector))) <= 1e-14
        assert np.max(np.abs(stack.sum(axis=0) - SWAP_SUM[sector] * np.eye(dim))) <= 1e-13

    def test_frame_spanning_two_counts_rejected(self, monkeypatch):
        mixed = logical_frame(SpinSector.SPIN1) + logical_frame(SpinSector.SPIN0)
        monkeypatch.setattr(oracle, "logical_frame", lambda sector: mixed)
        with pytest.raises(ValueError, match="down-spin counts"):
            oracle.frame_closure.__wrapped__(SpinSector.SPIN1)

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_scores_equal_the_64_dim_oracle(self, sector):
        rng = np.random.default_rng(2024)
        schedules = [cnot_spin_independent(n) for n in (3, 5, 9)]
        schedules += [cnot_spin1(n) for n in (2, 3, 4)]
        schedules += [cancel_negatives(s) for s in schedules]
        schedules += [random_schedule(rng, int(rng.integers(5, 60))) for _ in range(20)]
        for schedule in schedules:
            reference = frame_scores(
                evolve(schedule, oracle._swap_stack()), CNOT, logical_frame(sector)
            )
            got = oracle_fidelity(schedule, sector, CNOT)
            assert np.max(np.abs(np.subtract(got, reference))) <= 1e-12

    def test_peak_memory_stays_chunk_bounded(self):
        # evolve exponentiates distinct steps in small chunks; one stack of
        # 100 steps on the 20-dim block would peak near 2.5 MiB (the oracle's
        # 5-dim closure peaks below 0.2 MiB either way, so it cannot tell)
        rng = np.random.default_rng(7)
        schedule = random_schedule(rng, 100)
        assert len(set(schedule.steps)) == 100
        block = magnetization_block(3)
        evolve(schedule, block)
        tracemalloc.start()
        try:
            evolve(schedule, block)
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
        "pair_stack": schedule.pair_stack,
        "projector": encoding.projector,
        "projected_rep": encoding.projected_rep,
    }
    bound = vars(oracle)
    assert not forbidden.keys() & bound.keys()
    assert not any(v is f for v in bound.values() for f in forbidden.values())
