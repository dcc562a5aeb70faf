"""Independent validation in the full 64-dimensional six-spin space.

Everything here is built directly from the physical picture: transpositions
act by swapping tensor factors of product states, and the logical frames
come from the printed three-spin encodings

    |0_L>|up>   = (|010> - |100>) / sqrt(2)
    |0_L>|down> = (|101> - |011>) / sqrt(2)
    |1_L>|up>   = (2|001> - |100> - |010>) / sqrt(6)
    |1_L>|down> = (2|110> - |011> - |101>) / sqrt(6)

with bit 0 meaning spin up.  The spin-1 frame tensors the two |up> gauge
states (total S_z = +1 forces total spin 1); the spin-0 frame is the
singlet combination of the gauge doublets.  No representation matrices or
embedding tables from the other modules are used, so agreement with them
is a genuine cross-check.  Only the array-level evolve product, the F/L
formula and the target check of ``metrics`` are shared.  They receive the
physical swaps and the frame cut to the frame's invariant closure (9 dims
for spin 1, 5 for spin 0), exactly: every swap keeps the down-spin count
and commutes with the swap sum, so it maps the closure into itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

import numpy as np

from .encoding import ALL_PAIRS, SpinSector
from .linalg import integer_pair, real_coefficient
from .metrics import _checked_target, evolve, frame_scores
from .symrep import Permutation
from .schedule import PulseSchedule

__all__ = [
    "DIM",
    "physical_swap",
    "physical_permutation",
    "logical_frame",
    "oracle_projected_rep",
    "oracle_simulate",
    "oracle_fidelity",
    "frame_closure",
]

N_SPINS = 6
DIM = 2**N_SPINS


@lru_cache(maxsize=None)
def physical_permutation(perm: Permutation) -> np.ndarray:
    """64 x 64 matrix permuting the tensor factors of |b1 ... b6>.

    Bit b_k of a basis index (most significant bit first) moves to
    position perm(k), so the new string is b'_m = b_{perm^-1(m)}.
    """
    if perm.degree != N_SPINS:
        raise ValueError("physical permutations act on six spins")
    inv = perm.inverse()
    weights = 1 << np.arange(N_SPINS - 1, -1, -1)  # place values of b1 ... b6
    bits = (np.arange(DIM)[:, None] & weights) > 0  # row idx holds b1 ... b6 of idx
    new_idx = bits[:, [inv(k) - 1 for k in range(1, N_SPINS + 1)]] @ weights
    m = np.zeros((DIM, DIM))
    m[new_idx, np.arange(DIM)] = 1.0
    m.setflags(write=False)
    return m


def physical_swap(i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging tensor factors i and j."""
    if not (1 <= i < j <= N_SPINS):
        raise ValueError(f"need 1 <= i < j <= {N_SPINS}, got ({i}, {j})")
    return physical_permutation(Permutation.transposition(N_SPINS, i, j))


def _block_state(terms: list[tuple[str, float]]) -> np.ndarray:
    v = np.zeros(8)
    for bits, coeff in terms:
        v[int(bits, 2)] = coeff
    return v


_SQ2 = np.sqrt(2.0)
_SQ6 = np.sqrt(6.0)

_GAUGE_UP = (
    _block_state([("010", 1 / _SQ2), ("100", -1 / _SQ2)]),
    _block_state([("001", 2 / _SQ6), ("100", -1 / _SQ6), ("010", -1 / _SQ6)]),
)
_GAUGE_DOWN = (
    _block_state([("101", 1 / _SQ2), ("011", -1 / _SQ2)]),
    _block_state([("110", 2 / _SQ6), ("011", -1 / _SQ6), ("101", -1 / _SQ6)]),
)


@lru_cache(maxsize=None)
def logical_frame(sector: SpinSector) -> np.ndarray:
    """4 x 64 read-only matrix whose rows carry |00>, |01>, |10>, |11>."""
    rows = []
    for x in (0, 1):
        for y in (0, 1):
            if sector is SpinSector.SPIN1:
                rows.append(np.kron(_GAUGE_UP[x], _GAUGE_UP[y]))
            else:
                rows.append(
                    (
                        np.kron(_GAUGE_UP[x], _GAUGE_DOWN[y])
                        - np.kron(_GAUGE_DOWN[x], _GAUGE_UP[y])
                    )
                    / _SQ2
                )
    m = np.array(rows)
    m.setflags(write=False)
    return m


def oracle_projected_rep(pairs: Mapping[tuple[int, int], float], sector: SpinSector) -> np.ndarray:
    """Frame compression of the physical swap sum of a pair map {(i, j): c}."""
    phi = logical_frame(sector)
    m = np.zeros((DIM, DIM))
    for pair, c in pairs.items():
        m += real_coefficient(c, "coefficient") * physical_swap(*sorted(integer_pair(pair)))
    return phi @ m @ phi.T


@lru_cache(maxsize=None)
def _swap_stack() -> np.ndarray:
    """The 15 physical swaps stacked as (15, 64, 64) in ALL_PAIRS order."""
    stack = np.stack([physical_swap(*pair) for pair in ALL_PAIRS])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def frame_closure(sector: SpinSector) -> np.ndarray:
    """Read-only d x 64 orthonormal basis of the invariant subspace the frame generates.

    One ``eigh`` in the frame's down-spin block, where the 15 swaps sum to
    S(S+1) + 3 on each total-spin eigenspace, an irreducible module of the
    six-spin permutations: the eigenspace holding the frame is its closure
    (value 5, 9 dims for spin 1; value 3, 5 dims for spin 0).  Raises
    ``ValueError`` unless the frame lies in one block and one eigenspace.
    """
    frame = logical_frame(sector)
    counts = {bin(idx).count("1") for idx in np.flatnonzero(frame.any(axis=0))}
    if len(counts) != 1:
        raise ValueError(f"{sector.name} frame spans down-spin counts {sorted(counts)}")
    block = [idx for idx in range(DIM) if bin(idx).count("1") in counts]
    values, vectors = np.linalg.eigh(_swap_stack()[:, block][:, :, block].sum(axis=0))
    weights = np.linalg.norm(frame[:, block] @ vectors, axis=0)
    held = set(np.rint(values[weights > 1e-8]).tolist())  # np.unique would import numpy.ma (14 ms)
    if len(held) != 1:
        raise ValueError(f"{sector.name} frame spans swap-sum eigenvalues {sorted(held)}")
    kept = np.rint(values) == held.pop()
    basis = np.zeros((np.count_nonzero(kept), DIM))
    basis[:, block] = vectors[:, kept].T
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=None)
def _closure_block(sector: SpinSector) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (15, d, d) swap stack B P B^T and 4 x d frame Phi B^T on the closure B."""
    basis = frame_closure(sector)
    restricted = (basis @ _swap_stack() @ basis.T, logical_frame(sector) @ basis.T)
    for m in restricted:
        m.setflags(write=False)
    return restricted


def oracle_simulate(schedule: PulseSchedule, sector: SpinSector) -> np.ndarray:
    """Unitary of a schedule on the frame's closure, in its basis (rightmost step first)."""
    return evolve(schedule, _closure_block(sector)[0])


def oracle_fidelity(
    schedule: PulseSchedule, sector: SpinSector, target: np.ndarray
) -> tuple[float, float]:
    """End-to-end (fidelity, leakage) of a schedule in the physical space.

    The leakage complement is that of the frame in its closure.  The swaps
    map the closure into itself, so the schedule's unitary keeps the frame
    there and this equals the complement in all 64 dimensions.  The target
    must be a 4 x 4 unitary, checked as ``metrics.report`` checks it.
    """
    return frame_scores(oracle_simulate(schedule, sector), _checked_target(target), _closure_block(sector)[1])
