import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exgates.symrep import (
    Partition,
    Permutation,
    StandardTableau,
    axial_distance,
    rep_adjacent,
    rep_element,
    rep_permutation,
    rep_transposition,
    standard_tableaux,
)

P21 = Partition((2, 1))
P3 = Partition((3,))
P33 = Partition((3, 3))
P42 = Partition((4, 2))


def brute_force_tableaux(parts):
    """Independent enumeration: filter all fillings for standardness."""
    n = sum(parts)
    found = []
    for perm in itertools.permutations(range(1, n + 1)):
        rows, k = [], 0
        for p in parts:
            rows.append(perm[k:k + p])
            k += p
        if any(a >= b for row in rows for a, b in zip(row, row[1:])):
            continue
        ok = True
        for r in range(1, len(rows)):
            for c in range(len(rows[r])):
                if rows[r - 1][c] >= rows[r][c]:
                    ok = False
        if ok:
            found.append(rows)
    return found


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition(())

    def test_size_and_parts(self):
        p = Partition((4, 2))
        assert p.size == 6
        assert p.parts == (4, 2)


class TestStandardTableaux:
    def test_trivial_shape(self):
        tabs = standard_tableaux(P3)
        assert [t.rows for t in tabs] == [((1, 2, 3),)]

    def test_shape_21(self):
        tabs = standard_tableaux(P21)
        assert {t.rows for t in tabs} == {((1, 3), (2,)), ((1, 2), (3,))}
        assert len(tabs) == 2

    @pytest.mark.parametrize("shape,count", [(P33, 5), (P42, 9)])
    def test_counts_match_brute_force(self, shape, count):
        tabs = standard_tableaux(shape)
        assert len(tabs) == count
        brute = brute_force_tableaux(shape.parts)
        assert sorted(t.rows for t in tabs) == sorted(
            tuple(tuple(r) for r in rows) for rows in brute
        )

    def test_descending_row_word_order(self):
        tabs = standard_tableaux(P42)
        words = [t.row_word() for t in tabs]
        assert words == sorted(words, reverse=True)

    def test_invalid_tableau_rejected(self):
        with pytest.raises(ValueError):
            StandardTableau(((1, 2), (2,)))
        with pytest.raises(ValueError):
            StandardTableau(((2, 1), (3,)))
        with pytest.raises(ValueError):
            StandardTableau(((1, 2), (4,)))


class TestAxialDistance:
    def test_hand_values(self):
        assert axial_distance(StandardTableau(((1, 2), (3,))), 1, 2) == 1
        assert axial_distance(StandardTableau(((1, 3), (2,))), 1, 2) == -1

    def test_same_index_is_zero(self):
        for t in standard_tableaux(P42):
            assert axial_distance(t, 4, 4) == 0

    def test_antisymmetric(self):
        for t in standard_tableaux(P33):
            assert axial_distance(t, 2, 5) == -axial_distance(t, 5, 2)

    def test_out_of_range(self):
        t = standard_tableaux(P21)[0]
        with pytest.raises(IndexError):
            axial_distance(t, 0, 2)
        with pytest.raises(IndexError):
            axial_distance(t, 1, 4)


class TestRepAdjacent:
    def test_shape_21_generators(self):
        m12 = rep_adjacent(P21, 1)
        m23 = rep_adjacent(P21, 2)
        assert np.allclose(m12, np.diag([-1.0, 1.0]), atol=1e-15)
        s = np.sqrt(3) / 2
        assert np.allclose(m23, [[0.5, s], [s, -0.5]], atol=1e-15)

    def test_trivial_irrep(self):
        for i in (1, 2):
            assert np.allclose(rep_adjacent(P3, i), [[1.0]])

    @pytest.mark.parametrize("shape", [P21, P33, P42])
    def test_symmetric_orthogonal_involution(self, shape):
        dim = len(standard_tableaux(shape))
        for i in range(1, shape.size):
            m = rep_adjacent(shape, i)
            assert np.allclose(m, m.T, atol=1e-12)
            assert np.allclose(m @ m, np.eye(dim), atol=1e-12)
            assert np.allclose(m @ m.T, np.eye(dim), atol=1e-12)

    def test_index_range(self):
        with pytest.raises(ValueError):
            rep_adjacent(P21, 3)


    def test_cached_matrices_read_only(self):
        # callers receive the cached arrays themselves; a write would corrupt the cache
        mats = [rep_adjacent(P42, 3), rep_transposition(P42, 2, 5)]
        mats.append(rep_permutation(P42, Permutation((2, 3, 1, 5, 6, 4))))
        for m in mats:
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 2.0


class TestRepElement:
    def test_transposition_13_via_conjugation(self):
        lhs = rep_transposition(P21, 1, 3)
        m12 = rep_adjacent(P21, 1)
        m23 = rep_adjacent(P21, 2)
        assert np.allclose(lhs, m23 @ m12 @ m23, atol=1e-14)

    @pytest.mark.parametrize("i,j", [(1, 1), (0, 3), (3, 7)])
    def test_transposition_rejects_bad_indices(self, i, j):
        with pytest.raises(ValueError):
            rep_transposition(P42, i, j)

    def test_transposition_index_order_irrelevant(self):
        a, b = rep_transposition(P42, 4, 2), rep_transposition(P42, 2, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape,c", [(P33, 3.0), (P42, 5.0)])
    def test_central_transposition_sum(self, shape, c):
        total = {(i, j): 1.0 for i in range(1, 7) for j in range(i + 1, 7)}
        m = rep_element(shape, total)
        assert np.max(np.abs(m - c * np.eye(m.shape[0]))) <= 1e-12

    def test_rejects_bad_pair(self):
        for pairs in ({(1, 7): 1.0}, {(2, 2): 1.0}):
            with pytest.raises(ValueError):
                rep_element(P42, pairs)

    @pytest.mark.parametrize("c", [np.complex128(1 + 2j), np.complex64(1 + 2j), 1 + 2j, np.complex128(1)])
    def test_rejects_complex_coefficient(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TypeError, match="must be real"):
                rep_element(P42, {(1, 2): c})

    def test_linear(self):
        x = {(1, 4): 2.0}
        y = {(2, 5): -0.5}
        lhs = rep_element(P42, {**x, **y})
        rhs = rep_element(P42, x) + rep_element(P42, y)
        assert np.allclose(lhs, rhs, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(1, 7)), st.permutations(range(1, 7)))
def test_homomorphism_property(a_images, b_images):
    a = Permutation(tuple(a_images))
    b = Permutation(tuple(b_images))
    for shape in (P33, P42):
        lhs = rep_permutation(shape, a * b)
        rhs = rep_permutation(shape, a) @ rep_permutation(shape, b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(1, 7)))
def test_adjacent_word_reconstructs_permutation(images):
    perm = Permutation(tuple(images))
    prod = Permutation.identity(6)
    for a in perm.adjacent_word():
        prod = prod * Permutation.transposition(6, a, a + 1)
    assert prod == perm


class TestPermutation:
    def test_composition_applies_right_first(self):
        s12 = Permutation.transposition(3, 1, 2)
        s23 = Permutation.transposition(3, 2, 3)
        assert (s12 * s23).images == (2, 3, 1)

    def test_inverse(self):
        p = Permutation((3, 1, 4, 2))
        assert (p * p.inverse()).is_identity()

    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

