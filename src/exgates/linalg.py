"""Small dense linear-algebra helpers and the input checks shared across modules."""

from __future__ import annotations

import math
import operator
import reprlib

import numpy as np

__all__ = ["expi", "is_hermitian", "max_abs", "real_coefficient", "plain_int", "integer_pair"]


def expi(h: np.ndarray) -> np.ndarray:
    """Unitary exp(i*h) of a Hermitian matrix via spectral decomposition.

    ``h`` is one (d, d) matrix or a (k, d, d) stack, exponentiated matrix by
    matrix in one batched ``eigh`` and one batched product.  Each matrix of
    a stack comes out bit for bit as its own 2-d call would.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray) -> bool:
    """Whether ``m``, one (d, d) matrix or a (k, d, d) stack, is Hermitian to 1e-12 of each matrix's own scale."""
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return bool(np.all(dev <= 1e-12 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))))


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def real_coefficient(c, what: str) -> float:
    """``float(c)``, raising ``TypeError`` for any complex value and ``ValueError`` for a string, bool, NaN or infinity.

    Each message names ``what``, the caller's name for the value.

    A Python ``complex`` raises already; ``float`` of a numpy complex scalar
    or array would drop the imaginary part with only a ``ComplexWarning``,
    and ``float`` would read ``"1.5"`` as 1.5 and ``True`` as 1.0.  A
    non-finite value would only fail later, in ``eigh``.  A ``float`` skips
    the type checks.
    """
    if type(c) is not float:
        if isinstance(c, (str, bytes, bool, np.bool_)):
            raise ValueError(f"{what} must be a real number, got {reprlib.repr(c)}")
        if np.iscomplexobj(c):
            raise TypeError(f"{what} must be real, got {c!r}")
    try:
        value = float(c)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {reprlib.repr(c)}")
    return value


def plain_int(value, what: str) -> int:
    """``operator.index(value)``, raising ``ValueError`` that names ``what`` for a bool or a non-integer.

    numpy integers pass; ``int()`` would also take floats, strings and
    bools, and ``True`` would pass ``operator.index`` as 1.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}")


def integer_pair(pair) -> tuple[int, int]:
    """The two entries of a pair-map key as plain ints, raising ``ValueError`` that names the pair.

    Range and i != j are left to the caller.
    """
    try:
        i, j = pair
        return plain_int(i, "pair entry"), plain_int(j, "pair entry")
    except (TypeError, ValueError):
        raise ValueError(f"pair must hold two integers, got {reprlib.repr(pair)}") from None
