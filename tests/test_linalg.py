"""The spectral exponential on one matrix and on a stack of matrices."""

import numpy as np
import pytest

from exgates import oracle
from exgates.encoding import SpinSector
from exgates.linalg import expi
from exgates.trotter import pair_stack

# The 5- and 9-dim irreps and the oracle's 15- and 20-dim magnetization blocks.
_STACKS = [pair_stack(s) for s in SpinSector] + [
    oracle._magnetization_block(s)[0] for s in SpinSector
]


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
