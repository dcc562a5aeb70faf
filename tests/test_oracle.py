import numpy as np
import pytest

from exgates import encoding, oracle, symrep, trotter
from exgates.decouple import local_sums
from exgates.encoding import ALL_PAIRS, SpinSector, projected_rep
from exgates.metrics import CNOT, report
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
from exgates.symrep import GroupAlgebraElement, Permutation
from exgates.trotter import PulseSchedule, cnot_spin1, cnot_spin_independent


def state_index(bits: str) -> int:
    return int(bits, 2)


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
            x = GroupAlgebraElement.transposition(6, *pair)
            dev = np.max(
                np.abs(oracle_projected_rep(x, sector) - projected_rep(x, sector))
            )
            assert dev <= 1e-10

    def test_cnot_generator_identities(self):
        sq3 = np.sqrt(3.0)
        n = GroupAlgebraElement.from_transpositions(
            6,
            {(1, 5): 3 * sq3 / 4, (1, 4): -3 * sq3 / 4, (2, 5): 3 * sq3 / 4, (2, 4): -3 * sq3 / 4},
        )
        m1 = oracle_projected_rep(n, SpinSector.SPIN1)
        m0 = oracle_projected_rep(n, SpinSector.SPIN0)
        half = np.zeros((4, 4))
        half[2, 3] = half[3, 2] = 1.0
        assert np.max(np.abs(m1 - half)) <= 1e-10
        assert np.max(np.abs(m0 + 3 * half)) <= 1e-10

    @pytest.mark.parametrize("sector,const", [(SpinSector.SPIN0, 3.0), (SpinSector.SPIN1, 5.0)])
    def test_central_constant_on_frame(self, sector, const):
        total = GroupAlgebraElement.from_transpositions(6, {p: 1.0 for p in ALL_PAIRS})
        m = oracle_projected_rep(total, sector)
        assert np.max(np.abs(m - const * np.eye(4))) <= 1e-10

    def test_degree_checked(self):
        with pytest.raises(ValueError):
            oracle_projected_rep(GroupAlgebraElement.identity(3), SpinSector.SPIN1)


class TestClosure:
    @pytest.mark.parametrize("sector,dim", [(SpinSector.SPIN0, 5), (SpinSector.SPIN1, 9)])
    def test_closure_dimension(self, sector, dim):
        assert frame_closure(sector).shape == (dim, DIM)

    def test_simulated_schedule_stays_in_closure(self):
        sector = SpinSector.SPIN1
        closure = frame_closure(sector)
        proj = closure.T @ closure
        phi = logical_frame(sector)
        g = oracle_simulate(cnot_spin_independent(2))
        leaked = (np.eye(DIM) - proj) @ g @ phi.T
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
