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
against DCNOT, exactly and up to a global phase.  None of them decides
pass or fail.
"""

from __future__ import annotations

import math

import numpy as np

from .braid_ybe import _s
from .linalg import _finite, identity, kron, max_abs_diff

# How far from unitary a factor of ``LocalFactors`` may be.
_UNITARY_TOL = 1e-10

# The magic (Bell) basis as columns; U_B = Q^dagger U Q is U in it.
_MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) / math.sqrt(2.0)


class LocalFactors:
    """Single-qubit factors of the DCNOT factorization, each unitary."""

    def __init__(self, a, b, c, d):
        for name, m in zip("abcd", (a, b, c, d)):
            m = np.asarray(m, dtype=complex)
            if max_abs_diff(m @ m.conj().T, identity(2)) > _UNITARY_TOL:
                raise ValueError(f"factor {name.upper()} is not unitary")
            setattr(self, name, m)


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


# The residuals' target, built once and read-only; ``dcnot()`` returns a copy.
_DCNOT = dcnot()
_DCNOT.flags.writeable = False


def local_factors() -> LocalFactors:
    """The four single-qubit unitaries of the DCNOT factorization."""
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
    return LocalFactors(a, b, c, d)


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
    m = np.ascontiguousarray(ub.swapaxes(-1, -2)) @ ub
    tr2 = np.trace(m, axis1=-2, axis2=-1) ** 2
    det = np.linalg.det(u)
    g2 = (tr2 - (m * m.swapaxes(-1, -2)).sum(axis=(-2, -1))) / (4.0 * det)
    return (tr2 / (16.0 * det))[0], g2[0]


def equivalence_residuals(
    phi: float, factors: LocalFactors | None = None
) -> tuple[float, float, float]:
    """Residuals of M = (A (x) B) S(phi) (C (x) D) against DCNOT.

    Returns (exact residual, residual after optimal global phase, phase).
    The phase is the trace-alignment angle that maximizes the overlap
    Re Tr[e^{i alpha} M^dagger DCNOT].  Raises ValueError for a non-finite
    ``phi``.
    """
    _finite(phi, "phi")
    f = factors if factors is not None else local_factors()
    m = kron(f.a, f.b) @ _s(phi) @ kron(f.c, f.d)
    overlap = complex(np.trace(m.conj().T @ _DCNOT))
    alpha = float(np.angle(overlap)) if overlap != 0 else 0.0
    aligned = max_abs_diff(np.exp(1j * alpha) * m, _DCNOT)
    return max_abs_diff(m, _DCNOT), aligned, alpha
