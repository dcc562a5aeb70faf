"""Decoupling of the computational subspace from its complement.

The symmetric sums of within-block transpositions vanish on the
computational subspace and generate unitaries that are identity there but
flip signs on the complement.  Averaging a Hamiltonian over conjugations
by four such unitaries removes its matrix elements between the
computational subspace and the rest of the irrep.

Two decoupler families are supported: the pair set {1, Ua, Ub, Ub Ua} and
the power set {1, U, U^dag, U^2} with U generated by the sum of both block
sums.  Both kill every cross term with the computational subspace and fix
its block; they act differently inside the complement (the pair set also
separates the two two-dimensional complement blocks, the power set does
not distinguish them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .encoding import BLOCK_A_PAIRS, BLOCK_B_PAIRS, SpinSector, projector
from .linalg import expi, is_hermitian
from .symrep import GroupAlgebraElement, rep_element

__all__ = [
    "local_sums",
    "DecouplerSet",
    "decoupler",
    "decouple_map",
    "joint_eigenbasis",
]


def local_sums() -> tuple[GroupAlgebraElement, GroupAlgebraElement]:
    """The two block sums, coefficient 1/3 on each local transposition."""
    sigma_a = GroupAlgebraElement.from_transpositions(
        6, {pair: 1.0 / 3.0 for pair in BLOCK_A_PAIRS}
    )
    sigma_b = GroupAlgebraElement.from_transpositions(
        6, {pair: 1.0 / 3.0 for pair in BLOCK_B_PAIRS}
    )
    return sigma_a, sigma_b


@dataclass(frozen=True, eq=False)
class DecouplerSet:
    """Four unitaries whose conjugation average decouples a sector."""

    unitaries: tuple[np.ndarray, ...] = field(repr=False)


@lru_cache(maxsize=None)
def _sum_reps(sector: SpinSector) -> tuple[np.ndarray, np.ndarray]:
    sigma_a, sigma_b = local_sums()
    ra = rep_element(sector.partition, sigma_a).matrix.real
    rb = rep_element(sector.partition, sigma_b).matrix.real
    ra.setflags(write=False)
    rb.setflags(write=False)
    return ra, rb


@lru_cache(maxsize=None)
def decoupler(sector: SpinSector, variant: str = "pair") -> DecouplerSet:
    """Decoupler unitaries for a sector, built once and read-only.

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
    return DecouplerSet(us)


def decouple_map(h: np.ndarray, sector: SpinSector, variant: str = "pair") -> np.ndarray:
    """Average h over conjugations by the decoupler unitaries.

    The result has no matrix elements between the computational subspace
    and its complement, and its computational block equals that of h.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (sector.dim, sector.dim):
        raise ValueError(f"expected a {sector.dim} x {sector.dim} matrix, got {h.shape}")
    if not is_hermitian(h):
        raise ValueError("decouple_map requires a Hermitian matrix")
    us = decoupler(sector, variant).unitaries
    out = np.zeros_like(h)
    for u in us:
        out += u @ h @ u.conj().T
    return out / 4.0


@lru_cache(maxsize=None)
def joint_eigenbasis(sector: SpinSector) -> np.ndarray:
    """Orthonormal basis diagonalizing both block sums, computational first.

    Columns 0..3 are the computational basis.  The complement is ordered by
    joint (sigma_a, sigma_b) eigenvalue: the (1,0) block, the (0,1) block,
    then (1,1); within each eigenspace the vectors come from a
    Gram-Schmidt sweep seeded by coordinate order, so the basis is
    deterministic.
    """
    ra, rb = _sum_reps(sector)
    dim = sector.dim
    pi = projector(sector)
    columns = [pi[k] for k in range(4)]
    for sa, sb in ((1, 0), (0, 1), (1, 1)):
        # Projector onto the joint eigenspace; block sums have spectrum {0, 1}.
        pa = ra if sa == 1 else np.eye(dim) - ra
        pb = rb if sb == 1 else np.eye(dim) - rb
        proj = pa @ pb
        for seed in np.eye(dim):
            v = proj @ seed
            for c in columns:
                v = v - (c @ v) * c
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                columns.append(v / norm)
    if len(columns) != dim:
        raise AssertionError(f"joint eigenbasis incomplete: {len(columns)} of {dim}")
    basis = np.array(columns).T
    basis.setflags(write=False)
    return basis
