"""Decoupling of the computational subspace from its complement.

The symmetric sums of within-block transpositions vanish on the
computational subspace and generate unitaries that are identity there but
flip signs on the complement.  Averaging a Hamiltonian over conjugations
by four such unitaries removes its matrix elements between the
computational subspace and the rest of the irrep.  ``decouple_map`` averages
one Hamiltonian or a stack of them, each matrix with its own 2-d call's bits.

Two decoupler families are supported: the pair set {1, Ua, Ub, Ub Ua} and
the power set {1, U, U^dag, U^2} with U generated by the sum of both block
sums.  Both kill every cross term with the computational subspace and fix
its block; they act differently inside the complement (the pair set also
separates the two two-dimensional complement blocks, the power set does
not distinguish them).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .encoding import BLOCK_A_PAIRS, BLOCK_B_PAIRS, SpinSector, projector
from .linalg import expi, is_hermitian
from .symrep import rep_element

__all__ = [
    "local_sums",
    "decoupler",
    "decouple_map",
    "joint_eigenbasis",
]


def local_sums() -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """The two block sums as pair maps, coefficient 1/3 on each local transposition."""
    return tuple({pair: 1.0 / 3.0 for pair in pairs} for pairs in (BLOCK_A_PAIRS, BLOCK_B_PAIRS))


@lru_cache(maxsize=None)
def _sum_reps(sector: SpinSector) -> tuple[np.ndarray, np.ndarray]:
    reps = tuple(rep_element(sector.partition, sig) for sig in local_sums())
    for r in reps:
        r.setflags(write=False)
    return reps


@lru_cache(maxsize=None)
def decoupler(sector: SpinSector, variant: str = "pair") -> tuple[np.ndarray, ...]:
    """The four read-only decoupler unitaries of a sector, built once.

    variant "pair": {1, Ua, Ub, Ub Ua} with Ua = exp(i pi rep(sigma_a)),
    Ub likewise.  variant "power": {1, U, U^dag, U^2} with
    U = exp(i (pi/2) rep(sigma_a + sigma_b)).
    """
    ra, rb = _sum_reps(sector)
    if variant == "pair":
        ua = expi(np.pi * ra)
        ub = expi(np.pi * rb)
        us = (np.eye(sector.dim, dtype=complex), ua, ub, ub @ ua)
    elif variant == "power":
        u = expi((np.pi / 2) * (ra + rb))
        us = (np.eye(sector.dim, dtype=complex), u, u.conj().T, u @ u)
    else:
        raise ValueError(f"unknown decoupler variant: {variant!r}")
    for u in us:
        u.setflags(write=False)
    return us


def decouple_map(h: np.ndarray, sector: SpinSector, variant: str = "pair") -> np.ndarray:
    """Average h over conjugations by the decoupler unitaries.

    The result has no matrix elements between the computational subspace
    and its complement, and its computational block equals that of h.
    ``h`` is one (dim, dim) matrix or a (k, dim, dim) stack, every matrix
    Hermitian; each matrix of a stack comes out bit for bit as its own 2-d
    call would.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-2:] != (sector.dim, sector.dim):
        raise ValueError(f"expected a {sector.dim} x {sector.dim} matrix or a stack of them, got {h.shape}")
    if not is_hermitian(h):
        raise ValueError("decouple_map requires Hermitian matrices")
    out = np.zeros_like(h)
    for u in decoupler(sector, variant):
        out += u @ h @ u.conj().T
    return out / 4.0


@lru_cache(maxsize=None)
def joint_eigenbasis(sector: SpinSector) -> np.ndarray:
    """Orthonormal basis diagonalizing both block sums, computational first.

    Columns 0..3 are exactly the computational basis, ``projector(sector).T``.
    The complement follows in joint (sigma_a, sigma_b) eigenvalue order: the
    (1,0) block, the (0,1) block, then (1,1).  Which orthonormal vectors
    span a two-dimensional eigenspace is left to the eigensolver.
    """
    ra, rb = _sum_reps(sector)
    # Commuting projectors: ra + 2 rb is sa + 2 sb on each joint eigenspace,
    # so ascending eigenvalues 0, 1, 2, 3 give the order above.
    vals, vecs = np.linalg.eigh(ra + 2 * rb)
    if np.max(np.abs(vals[:4])) > 1e-8 or np.min(vals[4:]) < 0.5:
        raise AssertionError(f"block sums not four-fold null in {sector.name}: {vals}")
    basis = np.hstack([projector(sector).T, vecs[:, 4:]])
    basis.setflags(write=False)
    return basis
