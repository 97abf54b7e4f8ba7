"""Dense complex-matrix helpers of the gate algebra, and the input rules.

All operators are numpy complex128 arrays in row-major layout with
big-endian qubit indexing: the basis index of |q1 q2 ... qn> is
sum_k q_k * 2^(n-k), so the two-qubit basis is ordered
{|00>, |01>, |10>, |11>}.
"""

from __future__ import annotations

import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, or of two broadcastable stacks of them.

    Element ((ia*rows_b + ib), (ja*cols_b + jb)) equals a[ia, ja] * b[ib, jb],
    which matches the big-endian qubit ordering used throughout.  One
    broadcast product forms the same products as ``np.kron``, so a 2-D call
    is bitwise equal to it, without its per-call axis bookkeeping.  The last
    two axes of each operand are the matrix and the leading axes broadcast,
    so each matrix of a stacked result is bitwise the 2-D kron of its pair.
    ValueError for an operand below 2-D (``np.kron`` takes any rank).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"kron takes two matrices, got shapes {a.shape}, {b.shape}")
    (rows_a, cols_a), (rows_b, cols_b) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (rows_a * rows_b, cols_a * cols_b))


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max_ij |a_ij - b_ij|, the residual metric used by all checkers.

    ``b`` may broadcast against ``a``, such as one matrix against a stack,
    as long as the broadcast shape is ``a.shape``.
    """
    a, b = np.asarray(a), np.asarray(b)
    try:
        b = np.broadcast_to(b, a.shape)
    except ValueError:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}") from None
    return float(np.abs(a - b).max())


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def _finite(value, name: str) -> np.ndarray:
    """``value`` as a float array; ValueError unless every entry is finite."""
    array = np.asarray(value, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return array


def _positive_int(value, name: str) -> None:
    """ValueError unless ``value`` is an int >= 1; floats (even 2.0) and bools are not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
