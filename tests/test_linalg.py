"""The spectral exponential on one matrix and on a stack of matrices, and the pair check."""

import re
import reprlib

import numpy as np
import pytest
from swap_blocks import MAGNETIZATION_BLOCKS

from exgates.encoding import SpinSector, hamiltonian_from_pauli, projected_rep
from exgates.linalg import expi, is_hermitian
from exgates.oracle import oracle_projected_rep
from exgates.symrep import rep_element
from exgates.schedule import PulseStep, pair_stack

# The 5- and 9-dim irreps and the 15- and 20-dim magnetization blocks.
_STACKS = [pair_stack(s) for s in SpinSector] + MAGNETIZATION_BLOCKS


def _hermitian_stacks(stack, k, rng):
    """A (k, d, d) stack of real generators on ``stack`` and one of complex Hermitian matrices."""
    d = stack.shape[1]
    real = np.tensordot(rng.uniform(-np.pi, np.pi, (k, 15)), stack, axes=1)
    a = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    return real, a + a.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("k", [1, 7, 8, 9, 17])
@pytest.mark.parametrize("stack", _STACKS, ids=lambda s: f"d{s.shape[1]}")
def test_stack_equals_per_matrix_calls(stack, k):
    rng = np.random.default_rng(1000 * k + stack.shape[1])
    for hs in _hermitian_stacks(stack, k, rng):
        got = expi(hs)
        assert got.shape == hs.shape
        for h, u in zip(hs, got):
            one = expi(h)
            assert one.shape == h.shape
            assert np.array_equal(u, one)


@pytest.mark.parametrize("stack", _STACKS, ids=lambda s: f"d{s.shape[1]}")
def test_matrix_call_is_the_spectral_formula(stack):
    rng = np.random.default_rng(stack.shape[1])
    for hs in _hermitian_stacks(stack, 3, rng):
        h = hs[0]
        w, v = np.linalg.eigh(h)
        assert np.array_equal(expi(h), (v * np.exp(1j * w)) @ v.conj().T)


def test_is_hermitian_on_one_matrix_and_a_stack():
    rng = np.random.default_rng(7)
    real, hermitian = _hermitian_stacks(pair_stack(SpinSector.SPIN1), 4, rng)
    for hs in (real, hermitian):
        assert is_hermitian(hs)
        assert all(is_hermitian(h) for h in hs)
    skewed = hermitian.copy()
    skewed[2, 0, 1] += 1e-6
    assert not is_hermitian(skewed)
    assert not is_hermitian(skewed[2])
    assert is_hermitian(skewed[[0, 1, 3]])


def test_is_hermitian_judges_each_matrix_by_its_own_scale():
    big = 1e6 * pair_stack(SpinSector.SPIN0)[0]
    tiny = 1e-3 * pair_stack(SpinSector.SPIN0)[1]
    tiny[0, 1] += 1e-9
    # 1e-9 off is within 1e-12 of the big matrix's scale, not of the tiny one's
    assert is_hermitian(big) and is_hermitian(big + tiny) and not is_hermitian(tiny)
    assert not is_hermitian(np.stack([big, tiny]))
    assert not is_hermitian(np.stack([tiny, big]))


# The four functions that take a pair map, each returning something comparable.
_PAIR_MAP_TAKERS = {
    "PulseStep.make": lambda m: np.array(PulseStep.make(m).pairs),
    "rep_element": lambda m: rep_element(SpinSector.SPIN1.partition, m),
    "projected_rep": lambda m: projected_rep(m, SpinSector.SPIN0),
    "oracle_projected_rep": lambda m: oracle_projected_rep(m, SpinSector.SPIN1),
}


@pytest.mark.parametrize("take", _PAIR_MAP_TAKERS.values(), ids=_PAIR_MAP_TAKERS.keys())
@pytest.mark.parametrize(
    "pair",
    [(1.5, 2), ("1", 2), (1.0, 2.0), (True, 2), (1, np.True_), (np.float64(1.0), 2), "12", (1, 2, 3)],
)
def test_pair_entries_must_be_integers(take, pair):
    with pytest.raises(ValueError, match=re.escape(reprlib.repr(pair))):
        take({pair: 1.0})


@pytest.mark.parametrize("take", _PAIR_MAP_TAKERS.values(), ids=_PAIR_MAP_TAKERS.keys())
def test_numpy_integer_pairs_accepted(take):
    want = take({(2, 5): 0.7, (1, 4): -0.3})
    got = take({(np.int64(2), np.uint8(5)): 0.7, (np.int32(1), 4): -0.3})
    assert np.array_equal(got, want)


# The callers of ``real_coefficient``, each taking a coefficient ``c``, with
# the name their error message gives it.
_COEFFICIENT_TAKERS = {
    "PulseStep.make": ("coefficient", lambda c: PulseStep.make({(1, 2): c})),
    "PulseStep.make-phase": ("phase", lambda c: PulseStep.make({(1, 2): 1.0}, phase=c)),
    "rep_element": ("coefficient", lambda c: rep_element(SpinSector.SPIN1.partition, {(1, 2): c})),
    "oracle_projected_rep": ("coefficient", lambda c: oracle_projected_rep({(1, 2): c}, SpinSector.SPIN0)),
    "hamiltonian_from_pauli": ("coefficient", lambda c: hamiltonian_from_pauli({"XZ": c}, SpinSector.SPIN1)),
}


@pytest.mark.parametrize("taker", _COEFFICIENT_TAKERS.values(), ids=_COEFFICIENT_TAKERS.keys())
@pytest.mark.parametrize("c", ["1.5", b"1.5", np.str_("2"), True, False, np.True_], ids=repr)
def test_strings_and_bools_are_not_coefficients(taker, c):
    what, take = taker
    with pytest.raises(ValueError, match=re.escape(f"{what} must be a real number, got {reprlib.repr(c)}")):
        take(c)


@pytest.mark.parametrize("taker", _COEFFICIENT_TAKERS.values(), ids=_COEFFICIENT_TAKERS.keys())
@pytest.mark.parametrize("c", [10**400, -(10**400)], ids=["1e400", "-1e400"])
def test_integers_beyond_the_float_range_are_not_finite(taker, c):
    # float(c) raises OverflowError; the caller is promised ValueError
    what, take = taker
    with pytest.raises(ValueError, match=re.escape(f"{what} must be finite, got {reprlib.repr(c)}")):
        take(c)


@pytest.mark.parametrize("taker", _COEFFICIENT_TAKERS.values(), ids=_COEFFICIENT_TAKERS.keys())
def test_real_numbers_of_other_types_accepted(taker):
    _, take = taker
    want = take(1.5)
    for c in (np.float64(1.5), np.float32(1.5), np.array(1.5)):
        assert np.array_equal(np.asarray(take(c), dtype=object), np.asarray(want, dtype=object))
