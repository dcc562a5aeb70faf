"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import math
import reprlib

import numpy as np

__all__ = ["expi", "is_hermitian", "max_abs", "real_coefficient"]


def expi(h: np.ndarray) -> np.ndarray:
    """Unitary exp(i*h) of a Hermitian matrix via spectral decomposition.

    ``h`` is one (d, d) matrix or a (k, d, d) stack, exponentiated matrix by
    matrix in one batched ``eigh`` and one batched product.  Each matrix of
    a stack comes out bit for bit as its own 2-d call would.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= 1e-12 * max(1.0, float(np.max(np.abs(m)))))


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def real_coefficient(c) -> float:
    """``float(c)``, raising ``TypeError`` for any complex value and ``ValueError`` for NaN or an infinity.

    A Python ``complex`` raises already; ``float`` of a numpy complex scalar
    or array would drop the imaginary part with only a ``ComplexWarning``.
    A non-finite value would only fail later, in ``eigh``.
    """
    if type(c) is not float and np.iscomplexobj(c):
        raise TypeError(f"coefficient must be real, got {c!r}")
    value = float(c)
    if not math.isfinite(value):
        raise ValueError(f"coefficient must be finite, got {reprlib.repr(c)}")
    return value
