"""DCNOT gate and its local equivalence to the braid matrix S(phi).

DCNOT (double-CNOT) is the two-qubit permutation gate

    [[1,0,0,0], [0,0,0,1], [0,1,0,0], [0,0,1,0]]

and factors as (A (x) B) S(phi) (C (x) D) for explicit single-qubit
unitaries A, B, C, D.  The phase phi at which the factorization holds is
not assumed; ``verify_dcnot_equivalence`` scans phi, refines the best
point and reports the minimizing phi together with the residual both
exactly and up to a global phase.  ``equivalence_residuals`` gives the
same residuals at one given phi.  Neither decides pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .braid_ybe import _s
from .linalg import _finite, _positive_int, identity, kron, max_abs_diff

# How far from unitary a factor of ``LocalFactors`` may be.
_UNITARY_TOL = 1e-10
SCAN_POINTS = 4096
# The most phases whose S(phi) the scan stacks at once.  Stacking the whole
# grid holds about 660 bytes a phase at once; the blocked scan keeps only
# the grid and its residuals, 16 bytes a phase (traced by tracemalloc).
SCAN_BLOCK = 256
# Golden-section steps of the refine around the best scanned phase.
_REFINE_ITERATIONS = 80


@dataclass(frozen=True)
class LocalFactors:
    """Single-qubit factors of the DCNOT factorization, each unitary."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            m = np.asarray(getattr(self, name), dtype=complex)
            object.__setattr__(self, name, m)
            if max_abs_diff(m @ m.conj().T, identity(2)) > _UNITARY_TOL:
                raise ValueError(f"factor {name.upper()} is not unitary")


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


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the DCNOT equivalence check at the best phi found."""

    phi: float
    residual: float
    phase: float
    residual_up_to_phase: float

    def best_residual(self) -> float:
        return min(self.residual, self.residual_up_to_phase)


def equivalence_residuals(
    phi: float, factors: LocalFactors | None = None
) -> tuple[float, float, float]:
    """Residuals of (A (x) B) S(phi) (C (x) D) against DCNOT.

    Returns (exact residual, residual after optimal global phase, phase).
    The phase is the trace-alignment angle that maximizes the overlap
    Re Tr[e^{i alpha} M^dagger DCNOT].  Raises ValueError for a non-finite
    ``phi``.
    """
    _finite(phi, "phi")
    f = factors if factors is not None else local_factors()
    m, exact = _factorization(phi, kron(f.a, f.b), kron(f.c, f.d))
    overlap = complex(np.trace(m.conj().T @ _DCNOT))
    alpha = float(np.angle(overlap)) if overlap != 0 else 0.0
    aligned = max_abs_diff(np.exp(1j * alpha) * m, _DCNOT)
    return float(exact), aligned, alpha


def _factorization(
    phi: float | np.ndarray, left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """M = left S(phi) right and its exact residual max|M - DCNOT|.

    ``left`` and ``right`` are A (x) B and C (x) D.  A scalar ``phi`` gives
    a 4x4 M from two 4x4 products.  A 1-D array of n phases gives the
    (n, 4, 4) stack from two single products that share the constant
    operand: left times the 4 x 4n row of the S(phi), then that, read as 4n
    rows of 4, times right.  Each entry of M is the same sum of the same
    products either way, so each residual is bitwise its one-phase call.
    """
    if np.ndim(phi) == 0:
        m = left @ _s(phi) @ right
    else:
        n = len(phi)
        m = left @ _s(phi).transpose(1, 0, 2).reshape(4, 4 * n)
        # Row i * n + k of the second product is row i of M at phi[k].
        m = (m.reshape(4 * n, 4) @ right).reshape(4, n, 4).transpose(1, 0, 2)
    return m, np.abs(m - _DCNOT).max(axis=(-2, -1))


def _refine(f, lo: float, hi: float) -> float:
    """Golden-section refinement of a scalar residual minimum in [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_REFINE_ITERATIONS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def verify_dcnot_equivalence(scan_points: int = SCAN_POINTS) -> EquivalenceReport:
    """Find the phi that best factors DCNOT, and its residuals.

    Scans ``scan_points`` phases over [0, 2pi), ``SCAN_BLOCK`` at a time,
    refines the best one, and reports the global minimum.  Raises
    ValueError for a ``scan_points`` that is not an int >= 1.
    """
    _positive_int(scan_points, "scan_points")
    factors = local_factors()
    left, right = kron(factors.a, factors.b), kron(factors.c, factors.d)
    grid = np.linspace(0.0, 2.0 * np.pi, scan_points, endpoint=False)
    residuals = np.empty(scan_points)
    for start in range(0, scan_points, SCAN_BLOCK):
        block = grid[start : start + SCAN_BLOCK]
        residuals[start : start + block.size] = _factorization(block, left, right)[1]
    best = int(np.argmin(residuals))
    span = 2.0 * np.pi / scan_points

    def exact_at(p):
        return _factorization(p, left, right)[1]

    phi_best = _refine(exact_at, grid[best] - span, grid[best] + span)
    if residuals[best] <= exact_at(phi_best):
        phi_best = float(grid[best])
    exact, aligned, alpha = equivalence_residuals(phi_best, factors)
    return EquivalenceReport(float(phi_best), exact, alpha, aligned)
