"""Fixed-shape complex linear algebra for the two-qubit game circuit.

Convention: two-qubit objects use the basis order (|00>, |01>, |10>, |11>)
with player A's bit first, so payoff vectors, state vectors and 4x4
operators all share one indexing. Everything is a numpy complex128 array
of fixed shape; there is no dynamic dimensionality.
"""
from __future__ import annotations

import numpy as np

# Algebraic identities hold to near machine precision; circuit states
# accumulate error over at most four chained 4x4 products.
ALGEBRA_TOL = 1e-12
STATE_TOL = 1e-10

IDENTITY_2 = np.eye(2, dtype=np.complex128)
IDENTITY_4 = np.eye(4, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)

KET_00 = np.array([1, 0, 0, 0], dtype=np.complex128)


def require_complex(values, shape: tuple[int, ...]) -> np.ndarray:
    """Coerce to a complex128 array of the given shape with finite entries."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("non-finite entry")
    return arr


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in (|00>,|01>,|10>,|11>) order.

    entry[2i+k, 2j+l] = a[i,j] * b[k,l], i.e. the left factor acts on
    player A's qubit.
    """
    a = require_complex(a, (2, 2))
    b = require_complex(b, (2, 2))
    return np.kron(a, b)


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=np.complex128).conj().T


def approx_equal(a, b, tol: float) -> bool:
    """True iff same shape and max entrywise absolute difference <= tol."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return float(np.max(np.abs(a - b))) <= tol


def is_unitary(m, tol: float = ALGEBRA_TOL) -> bool:
    """True iff m†m = I within tol (max entrywise deviation)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return approx_equal(dagger(m) @ m, np.eye(m.shape[0]), tol)
