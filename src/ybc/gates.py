"""DCNOT gate and its local equivalence to the braid matrix S(phi).

DCNOT (double-CNOT) is the two-qubit permutation gate

    [[1,0,0,0], [0,0,0,1], [0,1,0,0], [0,0,1,0]]

Two two-qubit gates U and V are locally equivalent, U = (A (x) B) V (C (x) D)
for single-qubit unitaries A, B, C, D, exactly when their Makhlin invariants
(G1, G2) agree (Makhlin, Quantum Inf. Process. 1, 243 (2002); Zhang, Vala,
Sastry & Whaley, PRA 67, 042313 (2003)).  ``local_invariants`` gives them
for one gate or a stack; DCNOT's are (0, -1), as are those of S(phi) at
every phi.  ``local_factors`` gives explicit A, B, C, D for phi = 0, and
``equivalence_residuals`` the residual of (A (x) B) S(phi) (C (x) D)
against DCNOT.  None of them decides pass or fail.
"""

from __future__ import annotations

import math

import numpy as np

from .braid_ybe import _s
from .linalg import _finite, kron, max_abs_diff

# The magic (Bell) basis as columns; U_B = Q^dagger U Q is U in it.
_MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) / math.sqrt(2.0)


def dcnot() -> np.ndarray:
    """The double-CNOT permutation gate."""
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )


def local_factors() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The single-qubit unitaries (A, B, C, D) of the DCNOT factorization."""
    s2 = math.sqrt(2.0)
    a = np.array(
        [[1, np.exp(-1j * np.pi / 4)], [1j, np.exp(-3j * np.pi / 4)]], dtype=complex
    ) / s2
    b = np.array(
        [[1j, np.exp(-1j * np.pi / 4)], [1, -np.exp(-3j * np.pi / 4)]], dtype=complex
    ) / s2
    c = np.array(
        [[-np.exp(1j * np.pi / 4), np.exp(1j * np.pi / 4)], [1, 1]], dtype=complex
    ) / s2
    d = np.array([[-1, 0], [0, -np.exp(3j * np.pi / 4)]], dtype=complex)
    return a, b, c, d


def local_invariants(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Makhlin's local invariants (G1, G2) of a 4x4 unitary or a stack of them.

    With U_B = Q^dagger U Q and m = U_B^T U_B, G1 = tr^2(m) / (16 det U) and
    G2 = (tr^2(m) - tr(m^2)) / (4 det U), complex, of the stack's shape.
    Identity (1, 3), CNOT (0, 1), DCNOT (0, -1), SWAP (-1, -3).  Each value
    is bitwise its entry in a stack: the leading axis added here sends one
    matrix through numpy's array loops, which can round differently from
    its scalar arithmetic.
    """
    u = np.asarray(u)[None]
    ub = _MAGIC.conj().T @ u @ _MAGIC
    # U_B^T as a contiguous copy, and tr(m^2) without einsum: a strided
    # matmul operand and einsum each raised verify's peak RSS by 0.1 MB.
    # m is symmetric, so tr(m^2) = sum_ij m_ij m_ji is sum_ij m_ij^2.
    m = np.ascontiguousarray(ub.swapaxes(-1, -2)) @ ub
    tr2 = np.trace(m, axis1=-2, axis2=-1) ** 2
    det = np.linalg.det(u)
    g2 = (tr2 - (m * m).sum(axis=(-2, -1))) / (4.0 * det)
    return (tr2 / (16.0 * det))[0], g2[0]


def equivalence_residuals(phi: float) -> float:
    """max |(A (x) B) S(phi) (C (x) D) - DCNOT| with ``local_factors``' A, B, C, D.

    Raises ValueError for a non-finite ``phi``.
    """
    _finite(phi, "phi")
    a, b, c, d = local_factors()
    return max_abs_diff(kron(a, b) @ _s(phi) @ kron(c, d), dcnot())
