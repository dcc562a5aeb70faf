import re
import reprlib

import numpy as np
import pytest

from exgates.encoding import (
    ALL_PAIRS,
    CROSS_PAIRS,
    SpinSector,
    hamiltonian_from_pauli,
    pauli_word,
    projected_rep,
    projector,
    verify_cross_pauli_table,
    verify_local_pauli_table,
)
from exgates.symrep import rep_element, standard_tableaux

SQ3 = np.sqrt(3.0)
SQ2 = np.sqrt(2.0)


def tableau_coeff(sector, row, content):
    basis = standard_tableaux(sector.partition)
    col = [t.rows for t in basis].index(content)
    return projector(sector)[row, col]


class TestEmbeddings:
    def test_spin0_ket00_coefficients(self):
        assert tableau_coeff(SpinSector.SPIN0, 0, ((1, 3, 5), (2, 4, 6))) == pytest.approx(0.5)
        assert tableau_coeff(SpinSector.SPIN0, 0, ((1, 3, 4), (2, 5, 6))) == pytest.approx(-SQ3 / 2)

    def test_spin1_ket01_coefficients(self):
        assert tableau_coeff(SpinSector.SPIN1, 1, ((1, 3, 5, 6), (2, 4))) == pytest.approx(SQ3 / 6)
        assert tableau_coeff(SpinSector.SPIN1, 1, ((1, 3, 4, 6), (2, 5))) == pytest.approx(1 / 6)
        assert tableau_coeff(SpinSector.SPIN1, 1, ((1, 3, 4, 5), (2, 6))) == pytest.approx(-2 * SQ2 / 3)

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_gram_matrix_is_identity(self, sector):
        pi = projector(sector)
        assert np.max(np.abs(pi @ pi.T - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_dimensions(self, sector):
        assert projector(sector).shape == (4, sector.dim)


class TestProjectedRep:
    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_block_sums_act_as_zero(self, sector):
        for pairs in (((1, 2), (1, 3), (2, 3)), ((4, 5), (4, 6), (5, 6))):
            sig = {p: 1 / 3 for p in pairs}
            assert np.max(np.abs(projected_rep(sig, sector))) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_half_one_minus_swap12(self, sector):
        # the identity term projects to the 4 x 4 identity
        m = 0.5 * np.eye(4) + projected_rep({(1, 2): -0.5}, sector)
        assert np.max(np.abs(m - np.diag([1.0, 1.0, 0.0, 0.0]))) <= 1e-12

    def test_cnot_generator_projections(self):
        n = {(1, 5): 3 * SQ3 / 4, (1, 4): -3 * SQ3 / 4, (2, 5): 3 * SQ3 / 4, (2, 4): -3 * SQ3 / 4}
        half = 0.5 * (pauli_word("IX") - pauli_word("ZX"))
        assert np.max(np.abs(projected_rep(n, SpinSector.SPIN1) - half)) <= 1e-12
        assert np.max(np.abs(projected_rep(n, SpinSector.SPIN0) + 3 * half)) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_local_actions_sector_independent(self, sector):
        for pair in ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)):
            t = {pair: 1.0}
            a = projected_rep(t, SpinSector.SPIN0)
            b = projected_rep(t, SpinSector.SPIN1)
            assert np.max(np.abs(a - b)) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_projected_transpositions_real_symmetric(self, sector):
        for pair in ALL_PAIRS:
            m = projected_rep({pair: 1.0}, sector)
            assert np.max(np.abs(m.imag)) <= 1e-12
            assert np.max(np.abs(m - m.T)) <= 1e-12

    def test_rejects_bad_pair(self):
        for pairs in ({(1, 7): 1.0}, {(2, 2): 1.0}):
            with pytest.raises(ValueError):
                projected_rep(pairs, SpinSector.SPIN1)


class TestPauliTables:
    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_local_table(self, sector):
        result = verify_local_pauli_table(sector)
        assert all(c.ok for c in result), [c for c in result if not c.ok]

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_cross_table(self, sector):
        result = verify_cross_pauli_table(sector)
        assert all(c.ok for c in result), [c for c in result if not c.ok]

    @pytest.mark.parametrize("sector", list(SpinSector))
    def test_cross_projections_have_no_y_component(self, sector):
        words = [a + b for a in "IXYZ" for b in "IXYZ" if "Y" in a + b]
        for pair in CROSS_PAIRS:
            m = projected_rep({pair: 1.0}, sector)
            for word in words:
                comp = np.trace(pauli_word(word).conj().T @ m) / 4
                assert abs(comp) <= 1e-12

    def test_cross_rows_scale_between_sectors(self):
        # each projected cross transposition in spin 0 is -3 times its
        # spin-1 version once the identity component is rescaled by -1/5
        for pair in CROSS_PAIRS:
            t = {pair: 1.0}
            m0 = projected_rep(t, SpinSector.SPIN0)
            m1 = projected_rep(t, SpinSector.SPIN1)
            id0 = np.trace(m0) / 4
            id1 = np.trace(m1) / 4
            traceless0 = m0 - id0 * np.eye(4)
            traceless1 = m1 - id1 * np.eye(4)
            assert np.max(np.abs(traceless0 + 3 * traceless1)) <= 1e-12
            assert abs(id0 - (-3) * (-1 / 5) * id1) <= 1e-12

    def test_sign_flip_conjugates_by_diag(self):
        # flipping an embedded vector's sign changes projected matrices
        # only by conjugation with diag(+-1): physics is sign-convention free
        sector = SpinSector.SPIN1
        pi = projector(sector)
        flip = np.diag([1.0, -1.0, 1.0, 1.0])
        pi_flipped = flip @ pi
        full = rep_element(sector.partition, {(1, 4): 1.0})
        a = pi_flipped @ full @ pi_flipped.T
        b = flip @ (pi @ full @ pi.T) @ flip
        assert np.max(np.abs(a - b)) <= 1e-12


class TestHamiltonianFromPauli:
    def test_xx_target(self):
        coeffs = hamiltonian_from_pauli({"XX": 1.0}, SpinSector.SPIN1)
        want = {(1, 4): 1.5, (1, 5): -1.5, (2, 4): -1.5, (2, 5): 1.5}
        assert set(coeffs) == set(want)
        for pair, c in want.items():
            assert coeffs[pair] == pytest.approx(c, abs=1e-12)

    def test_cnot_generator_recovered(self):
        x = hamiltonian_from_pauli({"IX": 0.5, "ZX": -0.5}, SpinSector.SPIN1)
        n = {(1, 5): 3 * SQ3 / 4, (1, 4): -3 * SQ3 / 4, (2, 5): 3 * SQ3 / 4, (2, 4): -3 * SQ3 / 4}
        for pair in set(x) | set(n):
            assert abs(x.get(pair, 0.0) - n.get(pair, 0.0)) <= 1e-12

    @pytest.mark.parametrize("sector", list(SpinSector))
    @pytest.mark.parametrize("word", ["II", "IZ", "XI", "XZ", "ZZ", "ZX"])
    def test_projection_round_trip(self, sector, word):
        x = hamiltonian_from_pauli({word: 1.0}, sector)
        m = projected_rep(x, sector)
        assert np.max(np.abs(m - pauli_word(word))) <= 1e-12

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_non_finite_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match=re.escape(f"must be finite, got {reprlib.repr(c)}")):
            hamiltonian_from_pauli({"IX": 0.5, "ZX": c}, SpinSector.SPIN1)

    def test_y_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian_from_pauli({"YY": 1.0}, SpinSector.SPIN1)
        with pytest.raises(ValueError):
            hamiltonian_from_pauli({"XY": 0.5}, SpinSector.SPIN0)
