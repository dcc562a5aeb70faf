import numpy as np
import pytest

from exgates.decouple import (
    decouple_map,
    decoupler,
    joint_eigenbasis,
    local_sums,
)
from exgates.encoding import ALL_PAIRS, SpinSector, pauli_word, projected_rep, projector
from exgates.symrep import rep_element

RNG_SEED = 20240117


def random_swap_hermitian(sector, rng):
    coeffs = {p: rng.normal() for p in ALL_PAIRS}
    return rep_element(sector.partition, coeffs)


class TestLocalSums:
    def test_coefficients(self):
        sig_a, sig_b = local_sums()
        assert len(sig_a) == 3 and len(sig_b) == 3
        assert all(abs(c - 1 / 3) <= 1e-15 for c in sig_a.values())

    def test_spin0_diagonal_form(self):
        basis = joint_eigenbasis(SpinSector.SPIN0)
        for sig in local_sums():
            m = basis.T @ rep_element(SpinSector.SPIN0.partition, sig) @ basis
            assert np.max(np.abs(m - np.diag([0, 0, 0, 0, 1.0]))) <= 1e-12

    def test_spin1_diagonal_forms(self):
        sig_a, sig_b = local_sums()
        basis = joint_eigenbasis(SpinSector.SPIN1)
        part = SpinSector.SPIN1.partition
        ma = basis.T @ rep_element(part, sig_a) @ basis
        mb = basis.T @ rep_element(part, sig_b) @ basis
        assert np.max(np.abs(ma - np.diag([0, 0, 0, 0, 1, 1, 0, 0, 1.0]))) <= 1e-12
        assert np.max(np.abs(mb - np.diag([0, 0, 0, 0, 0, 0, 1, 1, 1.0]))) <= 1e-12

    def test_sums_commute(self):
        sig_a, sig_b = local_sums()
        for sector in SpinSector:
            ra = rep_element(sector.partition, sig_a)
            rb = rep_element(sector.partition, sig_b)
            assert np.max(np.abs(ra @ rb - rb @ ra)) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_projected_sums_vanish(self, sector):
        for sig in local_sums():
            assert np.max(np.abs(projected_rep(sig, sector))) <= 1e-12


class TestJointEigenbasis:
    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_orthonormal(self, sector):
        basis = joint_eigenbasis(sector)
        assert np.max(np.abs(basis.T @ basis - np.eye(sector.dim))) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_computational_columns_exact(self, sector):
        assert np.array_equal(joint_eigenbasis(sector)[:, :4], projector(sector).T)

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_read_only(self, sector):
        assert not joint_eigenbasis(sector).flags.writeable


class TestDecoupler:
    def test_spin0_diag(self):
        basis = joint_eigenbasis(SpinSector.SPIN0)
        us = decoupler(SpinSector.SPIN0, "pair")
        want = np.diag([1, 1, 1, 1, -1]).astype(complex)
        assert np.max(np.abs(basis.T @ us[1] @ basis - want)) <= 1e-12
        assert np.max(np.abs(basis.T @ us[2] @ basis - want)) <= 1e-12

    def test_spin1_diag_strings(self):
        basis = joint_eigenbasis(SpinSector.SPIN1)
        us = decoupler(SpinSector.SPIN1, "pair")
        ua = basis.T @ us[1] @ basis
        ub = basis.T @ us[2] @ basis
        assert np.max(np.abs(ua - np.diag([1, 1, 1, 1, -1, -1, 1, 1, -1.0]))) <= 1e-12
        assert np.max(np.abs(ub - np.diag([1, 1, 1, 1, 1, 1, -1, -1, -1.0]))) <= 1e-12

    def test_spin1_ua_eigenvalues(self):
        us = decoupler(SpinSector.SPIN1, "pair")
        vals = np.sort_complex(np.linalg.eigvals(us[1]))
        assert np.allclose(vals[:3], -1, atol=1e-12)
        assert np.allclose(vals[3:], 1, atol=1e-12)

    @pytest.mark.parametrize("sector", list(SpinSector))
    @pytest.mark.parametrize("variant", ["pair", "power"])
    def test_members_unitary(self, sector, variant):
        for u in decoupler(sector, variant):
            assert np.max(np.abs(u @ u.conj().T - np.eye(sector.dim))) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_identity_on_computational_subspace(self, sector):
        pi = projector(sector)
        for variant in ("pair", "power"):
            for u in decoupler(sector, variant):
                assert np.max(np.abs(pi @ u @ pi.T - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_power_u_fourth_is_identity(self, sector):
        u = decoupler(sector, "power")[1]
        assert np.max(np.abs(np.linalg.matrix_power(u, 4) - np.eye(sector.dim))) <= 1e-12

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            decoupler(SpinSector.SPIN0, "other")

    @pytest.mark.parametrize("sector", list(SpinSector))
    @pytest.mark.parametrize("variant", ["pair", "power"])
    def test_built_once_and_read_only(self, sector, variant):
        d = decoupler(sector, variant)
        assert decoupler(sector, variant) is d
        assert not any(u.flags.writeable for u in d)


class TestDecoupleMap:
    @pytest.mark.parametrize("sector", list(SpinSector))
    @pytest.mark.parametrize("variant", ["pair", "power"])
    def test_kills_computational_cross_terms(self, sector, variant):
        rng = np.random.default_rng(RNG_SEED)
        pi = projector(sector)
        pi_perp = np.eye(sector.dim) - pi.T @ pi
        for _ in range(100):
            h = random_swap_hermitian(sector, rng)
            d = decouple_map(h, sector, variant)
            assert np.max(np.abs(pi @ d @ pi_perp)) <= 1e-12
            assert np.max(np.abs(pi @ d @ pi.T - pi @ h @ pi.T)) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_variants_same_decoupling(self, sector):
        # both families fix the computational block and remove its cross
        # terms; in the five-dimensional sector they agree entrywise
        rng = np.random.default_rng(RNG_SEED + 1)
        pi = projector(sector)
        for _ in range(25):
            h = random_swap_hermitian(sector, rng)
            dp = decouple_map(h, sector, "pair")
            dw = decouple_map(h, sector, "power")
            assert np.max(np.abs(pi @ (dp - dw) @ pi.T)) <= 1e-12
            if sector is SpinSector.SPIN0:
                assert np.max(np.abs(dp - dw)) <= 1e-12

    def test_variants_differ_inside_spin1_complement(self):
        # the power family keeps the coupling between the two 2-dim
        # complement blocks (equal total eigenvalue), the pair family kills
        # it; entrywise equality genuinely fails there
        h = rep_element(
            SpinSector.SPIN1.partition, {(1, 5): 1.0, (1, 4): -1.0, (2, 5): 1.0, (2, 4): -1.0}
        )
        dp = decouple_map(h, SpinSector.SPIN1, "pair")
        dw = decouple_map(h, SpinSector.SPIN1, "power")
        assert np.max(np.abs(dp - dw)) > 1e-3

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_idempotent(self, sector):
        rng = np.random.default_rng(RNG_SEED + 2)
        for variant in ("pair", "power"):
            for _ in range(10):
                h = random_swap_hermitian(sector, rng)
                d = decouple_map(h, sector, variant)
                assert np.max(np.abs(decouple_map(d, sector, variant) - d)) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_linear_hermiticity_trace(self, sector):
        rng = np.random.default_rng(RNG_SEED + 3)
        h1 = random_swap_hermitian(sector, rng)
        h2 = random_swap_hermitian(sector, rng)
        a, b = 0.7, -1.3
        d = decouple_map(a * h1 + b * h2, sector)
        assert np.max(np.abs(d - a * decouple_map(h1, sector) - b * decouple_map(h2, sector))) <= 1e-12
        assert np.max(np.abs(d - d.conj().T)) <= 1e-12
        assert abs(np.trace(d) - np.trace(a * h1 + b * h2)) <= 1e-10

    def test_fixed_point_on_computational_support(self):
        sector = SpinSector.SPIN1
        pi = projector(sector)
        h = pi.T @ pauli_word("XZ").real @ pi
        assert np.max(np.abs(decouple_map(h, sector) - h)) <= 1e-12

    def test_pair_block_pattern_spin1(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        basis = joint_eigenbasis(SpinSector.SPIN1)
        blocks = [range(0, 4), range(4, 6), range(6, 8), range(8, 9)]
        mask = np.zeros((9, 9), dtype=bool)
        for blk in blocks:
            for r in blk:
                for c in blk:
                    mask[r, c] = True
        for _ in range(10):
            h = random_swap_hermitian(SpinSector.SPIN1, rng)
            d = basis.T @ decouple_map(h, SpinSector.SPIN1, "pair") @ basis
            assert np.max(np.abs(d[~mask])) <= 1e-12

    def test_pair_block_pattern_spin0(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        basis = joint_eigenbasis(SpinSector.SPIN0)
        for _ in range(10):
            h = random_swap_hermitian(SpinSector.SPIN0, rng)
            d = basis.T @ decouple_map(h, SpinSector.SPIN0, "pair") @ basis
            assert np.max(np.abs(d[:4, 4])) <= 1e-12
            assert np.max(np.abs(d[4, :4])) <= 1e-12

    def test_cnot_generator_block(self):
        n = {
            (1, 5): 3 * np.sqrt(3) / 4,
            (1, 4): -3 * np.sqrt(3) / 4,
            (2, 5): 3 * np.sqrt(3) / 4,
            (2, 4): -3 * np.sqrt(3) / 4,
        }
        sector = SpinSector.SPIN1
        h = rep_element(sector.partition, n)
        d = decouple_map(h, sector)
        pi = projector(sector)
        half = 0.5 * (pauli_word("IX") - pauli_word("ZX"))
        assert np.max(np.abs(pi @ d @ pi.T - half)) <= 1e-12

    def test_non_hermitian_rejected(self):
        m = np.zeros((9, 9))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            decouple_map(m, SpinSector.SPIN1)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            decouple_map(np.eye(5), SpinSector.SPIN1)


class TestDecoupleMapStack:
    @staticmethod
    def _stack(sector, k, seed):
        rng = np.random.default_rng(seed)
        return np.stack([random_swap_hermitian(sector, rng) for _ in range(k)])

    @pytest.mark.parametrize("k", [1, 2, 100])
    @pytest.mark.parametrize("sector", list(SpinSector))
    @pytest.mark.parametrize("variant", ["pair", "power"])
    def test_stack_equals_per_matrix_calls(self, sector, variant, k):
        hs = self._stack(sector, k, RNG_SEED + k)
        got = decouple_map(hs, sector, variant)
        assert got.shape == hs.shape
        for h, d in zip(hs, got):
            assert np.array_equal(d, decouple_map(h, sector, variant))

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_one_non_hermitian_member_rejected(self, sector):
        hs = self._stack(sector, 5, RNG_SEED + 6).astype(complex)
        hs[3, 0, 1] += 1e-6j
        decouple_map(np.delete(hs, 3, axis=0), sector)
        with pytest.raises(ValueError, match="Hermitian"):
            decouple_map(hs, sector)

    @pytest.mark.parametrize(
        "shape",
        [(5,), (2, 2, 5, 5), (3, 9, 9), (3, 5, 9), (0, 5)],
        ids=["1-d", "4-d", "wrong-d", "not-square", "empty-2-d"],
    )
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a 5 x 5 matrix"):
            decouple_map(np.zeros(shape), SpinSector.SPIN0)
