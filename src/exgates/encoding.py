"""Computational-basis embeddings and the exchange <-> Pauli dictionaries.

Two blocks of three spins host one logical qubit each: block one on spins
{1,2,3}, block two on {4,5,6}.  The two-qubit computational basis embeds
into the five-dimensional irrep (3,3) (total spin 0) and the
nine-dimensional irrep (4,2) (total spin 1).  The embedding coefficients
are hard-coded constants; the oracle module validates them independently
from the physical 64-dimensional picture.

Pauli conventions: X = [[0,1],[1,0]], Z = [[1,0],[0,-1]], Y = [[0,-i],[i,0]];
logical ordering |00>, |01>, |10>, |11> with qubit one carried by block one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .linalg import real_coefficient
from .symrep import Partition, rep_element, standard_tableaux

__all__ = [
    "SpinSector",
    "BLOCK_A_PAIRS",
    "BLOCK_B_PAIRS",
    "CROSS_PAIRS",
    "ALL_PAIRS",
    "PAULI",
    "PAULI_ORDER",
    "pauli_word",
    "projector",
    "projected_rep",
    "verify_local_pauli_table",
    "verify_cross_pauli_table",
    "hamiltonian_from_pauli",
    "CheckResult",
]

BLOCK_A_PAIRS = ((1, 2), (1, 3), (2, 3))
BLOCK_B_PAIRS = ((4, 5), (4, 6), (5, 6))
CROSS_PAIRS = tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6))
ALL_PAIRS = tuple(
    (i, j) for i in range(1, 7) for j in range(i + 1, 7)
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Row order of the cross-block dictionary: the nine Pauli words it produces.
PAULI_ORDER = ("II", "IX", "IZ", "XI", "ZI", "XX", "XZ", "ZX", "ZZ")


class SpinSector(Enum):
    """Total-spin sector of the six spins, keyed to its S_6 irrep."""

    SPIN0 = (3, 3)
    SPIN1 = (4, 2)

    @cached_property
    def partition(self) -> Partition:
        return Partition(self.value)

    @cached_property
    def dim(self) -> int:
        return len(standard_tableaux(self.partition))

    @property
    def cross_scale(self) -> float:
        """a: the sector prefactor of the cross-block dictionary."""
        return 1.0 if self is SpinSector.SPIN1 else -3.0

    @property
    def identity_scale(self) -> float:
        """b: the extra factor on the dictionary's identity row."""
        return 1.0 if self is SpinSector.SPIN1 else -0.2


def pauli_word(word: str) -> np.ndarray:
    """4x4 matrix of a two-letter Pauli word like "ZX"."""
    if len(word) != 2 or any(ch not in PAULI for ch in word):
        raise ValueError(f"not a two-qubit Pauli word: {word!r}")
    return np.kron(PAULI[word[0]], PAULI[word[1]])


_SQ3 = np.sqrt(3.0)
_SQ2 = np.sqrt(2.0)

# Embedded computational vectors, written over tableaux addressed by their
# row content.  Order: logical |00>, |01>, |10>, |11>.
_EMBEDDINGS = {
    SpinSector.SPIN0: (
        ((0.5, ((1, 3, 5), (2, 4, 6))), (-_SQ3 / 2, ((1, 3, 4), (2, 5, 6)))),
        ((-_SQ3 / 2, ((1, 3, 5), (2, 4, 6))), (-0.5, ((1, 3, 4), (2, 5, 6)))),
        ((0.5, ((1, 2, 5), (3, 4, 6))), (-_SQ3 / 2, ((1, 2, 4), (3, 5, 6)))),
        ((-_SQ3 / 2, ((1, 2, 5), (3, 4, 6))), (-0.5, ((1, 2, 4), (3, 5, 6)))),
    ),
    SpinSector.SPIN1: (
        ((0.5, ((1, 3, 5, 6), (2, 4))), (-_SQ3 / 2, ((1, 3, 4, 6), (2, 5)))),
        (
            (_SQ3 / 6, ((1, 3, 5, 6), (2, 4))),
            (1.0 / 6, ((1, 3, 4, 6), (2, 5))),
            (-2 * _SQ2 / 3, ((1, 3, 4, 5), (2, 6))),
        ),
        ((0.5, ((1, 2, 5, 6), (3, 4))), (-_SQ3 / 2, ((1, 2, 4, 6), (3, 5)))),
        (
            (_SQ3 / 6, ((1, 2, 5, 6), (3, 4))),
            (1.0 / 6, ((1, 2, 4, 6), (3, 5))),
            (-2 * _SQ2 / 3, ((1, 2, 4, 5), (3, 6))),
        ),
    ),
}

# Cross-block dictionary: this matrix applied to the column of projected
# cross transpositions (CROSS_PAIRS order) yields a * (b*II, IX, ..., ZZ).
SWAP_TO_PAULI = np.array(
    [
        [0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2],
        [-_SQ3, _SQ3, 0, -_SQ3, _SQ3, 0, -_SQ3, _SQ3, 0],
        [-1, -1, 2, -1, -1, 2, -1, -1, 2],
        [-_SQ3, -_SQ3, -_SQ3, _SQ3, _SQ3, _SQ3, 0, 0, 0],
        [-1, -1, -1, -1, -1, -1, 2, 2, 2],
        [1.5, -1.5, 0, -1.5, 1.5, 0, 0, 0, 0],
        [_SQ3 / 2, _SQ3 / 2, -_SQ3, -_SQ3 / 2, -_SQ3 / 2, _SQ3, 0, 0, 0],
        [_SQ3 / 2, -_SQ3 / 2, 0, _SQ3 / 2, -_SQ3 / 2, 0, -_SQ3, _SQ3, 0],
        [0.5, 0.5, -1, 0.5, 0.5, -1, -1, -1, 2],
    ]
)

# Within-block dictionary: each coefficient matrix applied to a pair of
# projected local transpositions yields (X, Z) on that block's qubit.
LOCAL_TO_PAULI = (
    (((1, 2), (1, 3)), np.array([[-1 / _SQ3, -2 / _SQ3], [-1.0, 0.0]])),
    (((1, 2), (2, 3)), np.array([[1 / _SQ3, 2 / _SQ3], [-1.0, 0.0]])),
    (((1, 3), (2, 3)), np.array([[-1 / _SQ3, 1 / _SQ3], [1.0, 1.0]])),
)


@lru_cache(maxsize=None)
def projector(sector: SpinSector) -> np.ndarray:
    """4 x dim read-only matrix; row k embeds the k-th of |00>, |01>, |10>, |11>."""
    basis = standard_tableaux(sector.partition)
    index = {t.rows: k for k, t in enumerate(basis)}
    m = np.zeros((4, len(basis)))
    for row, terms in enumerate(_EMBEDDINGS[sector]):
        for coeff, rows in terms:
            m[row, index[rows]] = coeff
    m.setflags(write=False)
    return m


def projected_rep(pairs: Mapping[tuple[int, int], float], sector: SpinSector) -> np.ndarray:
    """Computational submatrix of the representation of a pair map {(i, j): c}."""
    pi = projector(sector)
    return pi @ rep_element(sector.partition, pairs) @ pi.T


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tol


def verify_local_pauli_table(sector: SpinSector) -> tuple[CheckResult, ...]:
    """Check the within-block exchange -> Pauli identities for both blocks."""
    checks = []
    for block, offset, targets in (
        (1, 0, ("XI", "ZI")),
        (2, 3, ("IX", "IZ")),
    ):
        for pairs, coeff in LOCAL_TO_PAULI:
            shifted = tuple((i + offset, j + offset) for i, j in pairs)
            ps = [projected_rep({p: 1.0}, sector) for p in shifted]
            for row, target in enumerate(targets):
                combo = coeff[row, 0] * ps[0] + coeff[row, 1] * ps[1]
                dev = float(np.max(np.abs(combo - pauli_word(target))))
                name = (
                    f"{sector.name} block{block} "
                    f"{shifted[0]}/{shifted[1]} -> {target}"
                )
                checks.append(CheckResult(name, dev, 1e-12))
    return tuple(checks)


def verify_cross_pauli_table(sector: SpinSector) -> tuple[CheckResult, ...]:
    """Check the nine cross-block dictionary rows in a sector."""
    ps = [projected_rep({p: 1.0}, sector) for p in CROSS_PAIRS]
    a, b = sector.cross_scale, sector.identity_scale
    checks = []
    for row, word in enumerate(PAULI_ORDER):
        combo = sum(SWAP_TO_PAULI[row, k] * ps[k] for k in range(9))
        target = a * (b if word == "II" else 1.0) * pauli_word(word)
        dev = float(np.max(np.abs(combo - target)))
        checks.append(CheckResult(f"{sector.name} row {row + 1} -> {word}", dev, 1e-12))
    return tuple(checks)


def hamiltonian_from_pauli(
    target: Mapping[str, float], sector: SpinSector
) -> dict[tuple[int, int], float]:
    """Cross-block exchange combination projecting to a Pauli target.

    ``target`` maps two-letter words over {I, X, Z} to real coefficients;
    the result is a pair map of the nine cross-block transpositions to
    real coefficients whose projected representation in ``sector`` equals
    the target matrix.
    Words containing Y are rejected: Y requires conjugation by local
    rotations, which is schedule-level machinery.  Complex coefficients
    raise ``TypeError``, and strings, bools, NaN or infinite ones
    ``ValueError``.
    """
    tau = np.zeros(9)
    for word, c in target.items():
        if "Y" in word:
            raise ValueError(f"Pauli target may not contain Y: {word!r}")
        if word not in PAULI_ORDER:
            raise ValueError(f"not a Pauli word over {{I,X,Z}}^2: {word!r}")
        tau[PAULI_ORDER.index(word)] += real_coefficient(c, "coefficient")
    tau[0] /= sector.identity_scale
    v = SWAP_TO_PAULI.T @ tau / sector.cross_scale
    return {pair: v[k] for k, pair in enumerate(CROSS_PAIRS) if v[k] != 0}
