"""Partitions, standard Young tableaux, and Young's orthogonal form.

This module carries the combinatorial core: irreps of the symmetric group
S_n (n = 3 and 6 in practice) realized as real orthogonal matrices on the
standard-tableau basis, and real combinations of transpositions, given as
pair maps {(i, j): c}, realized as the matching sums of those matrices.

Conventions, fixed once and relied on by every other module:

* Permutations act on {1, ..., n} and compose right-to-left:
  ``sigma * tau`` means "apply tau first, then sigma".  Representations
  satisfy ``rep(sigma * tau) == rep(sigma) @ rep(tau)``.
* The tableau basis of each irrep is ordered by *descending* row-reading
  word.  For the shapes used here this puts the tableaux that host the
  computational embeddings first and the fully row-filled tableau last.
* Every permutation, transpositions included, is factored into adjacent
  transpositions by bubble-sorting its one-line word.

Matrix entries such as sqrt(3)/2 are kept in double precision; all
matrices involved are at most 9 x 9 and conditioning is benign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .linalg import real_coefficient

__all__ = [
    "Partition",
    "StandardTableau",
    "Permutation",
    "standard_tableaux",
    "axial_distance",
    "rep_adjacent",
    "rep_transposition",
    "rep_permutation",
    "rep_element",
]


@dataclass(frozen=True, order=True)
class Partition:
    """An integer partition, parts non-increasing and positive."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("partition must have at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be non-increasing: {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class StandardTableau:
    """A standard filling of a Young diagram with 1..n.

    Entries increase strictly along rows (left to right) and columns
    (top to bottom).
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = tuple(len(r) for r in self.rows)
        Partition(shape)  # validates the shape
        n = sum(shape)
        entries = [v for row in self.rows for v in row]
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"entries must be a permutation of 1..{n}: {self.rows}")
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"rows must increase: {self.rows}")
        for r in range(1, len(self.rows)):
            for c in range(len(self.rows[r])):
                if self.rows[r - 1][c] >= self.rows[r][c]:
                    raise ValueError(f"columns must increase: {self.rows}")

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def position(self, k: int) -> tuple[int, int]:
        """(row, column) of entry k, zero-based."""
        for r, row in enumerate(self.rows):
            if k in row:
                return r, row.index(k)
        raise IndexError(f"entry {k} not in tableau of size {self.size}")

    def row_word(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)

    def swap_adjacent(self, i: int) -> "StandardTableau | None":
        """Tableau with entries i and i+1 exchanged, or None if not standard.

        The exchange fails to be standard exactly when i and i+1 share a
        row or a column.
        """
        ri, ci = self.position(i)
        rj, cj = self.position(i + 1)
        if ri == rj or ci == cj:
            return None
        rows = [list(r) for r in self.rows]
        rows[ri][ci], rows[rj][cj] = i + 1, i
        return StandardTableau(tuple(tuple(r) for r in rows))


@lru_cache(maxsize=None)
def standard_tableaux(shape: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of a shape, in descending row-word order.

    The count equals the irrep dimension (hook length formula); the order
    is the documented basis order for every representation matrix.
    """
    n = shape.size
    parts = shape.parts
    results: list[StandardTableau] = []

    def fill(rows: list[list[int]], k: int) -> None:
        if k > n:
            results.append(StandardTableau(tuple(tuple(r) for r in rows)))
            return
        for r in range(len(parts)):
            c = len(rows[r])
            if c >= parts[r]:
                continue
            if r > 0 and len(rows[r - 1]) <= c:
                continue
            rows[r].append(k)
            fill(rows, k + 1)
            rows[r].pop()

    fill([[] for _ in parts], 1)
    results.sort(key=lambda t: t.row_word(), reverse=True)
    return tuple(results)


def axial_distance(tableau: StandardTableau, i: int, j: int) -> int:
    """Content difference (col - row)(j) - (col - row)(i) in a tableau."""
    n = tableau.size
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"indices must lie in 1..{n}: got ({i}, {j})")
    ri, ci = tableau.position(i)
    rj, cj = tableau.position(j)
    return (cj - rj) - (ci - ri)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"invalid transposition ({i} {j}) in S_{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition; ``self * other`` applies ``other`` first."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, self.degree + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(self(i) == i for i in range(1, self.degree + 1))

    def adjacent_word(self) -> tuple[int, ...]:
        """Indices (a_1, ..., a_k) with self = s_{a_1} * ... * s_{a_k}.

        Obtained by bubble-sorting the one-line word; right-multiplying by
        s_a swaps positions a, a+1, so the collected swaps are emitted in
        reverse.
        """
        word = list(self.images)
        swaps: list[int] = []
        done = False
        while not done:
            done = True
            for a in range(len(word) - 1):
                if word[a] > word[a + 1]:
                    word[a], word[a + 1] = word[a + 1], word[a]
                    swaps.append(a + 1)
                    done = False
        return tuple(reversed(swaps))

    def __str__(self) -> str:
        return "[" + " ".join(str(v) for v in self.images) + "]"


@lru_cache(maxsize=None)
def rep_adjacent(shape: Partition, i: int) -> np.ndarray:
    """Read-only orthogonal-form matrix of the adjacent transposition (i i+1).

    Basis tableau T maps to (1/d) T + sqrt(1 - 1/d^2) (i i+1)T with d the
    axial distance from i to i+1 in T; the swapped term is dropped when
    the exchange leaves the tableau non-standard (its coefficient
    vanishes, since then d = +-1).
    """
    n = shape.size
    if not (1 <= i <= n - 1):
        raise ValueError(f"adjacent index must lie in 1..{n - 1}: got {i}")
    basis = standard_tableaux(shape)
    index = {t.rows: k for k, t in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)))
    for col, tab in enumerate(basis):
        d = axial_distance(tab, i, i + 1)
        m[col, col] = 1.0 / d
        swapped = tab.swap_adjacent(i)
        if swapped is not None:
            m[index[swapped.rows], col] = np.sqrt(1.0 - 1.0 / d**2)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def rep_permutation(shape: Partition, perm: Permutation) -> np.ndarray:
    """Read-only orthogonal-form matrix of a permutation, a product of adjacent ones."""
    if perm.degree != shape.size:
        raise ValueError(f"degree {perm.degree} does not match |shape| = {shape.size}")
    m = np.eye(len(standard_tableaux(shape)))
    for a in perm.adjacent_word():
        m = m @ rep_adjacent(shape, a)
    m.setflags(write=False)
    return m


def rep_transposition(shape: Partition, i: int, j: int) -> np.ndarray:
    """Read-only orthogonal-form matrix of an arbitrary transposition (i j)."""
    return rep_permutation(shape, Permutation.transposition(shape.size, i, j))


def rep_element(shape: Partition, pairs: Mapping[tuple[int, int], float]) -> np.ndarray:
    """Real combination sum c (i j) of transpositions, pair (i, j) to c, summed in map order."""
    m = np.zeros((len(standard_tableaux(shape)),) * 2)
    for (i, j), c in pairs.items():
        m += real_coefficient(c) * rep_transposition(shape, i, j)
    return m
