"""DCNOT gate and its local equivalence to the braid matrix S(phi).

DCNOT (double-CNOT) is the two-qubit permutation gate

    [[1,0,0,0], [0,0,0,1], [0,1,0,0], [0,0,1,0]]

and factors as (A (x) B) S(phi) (C (x) D) for explicit single-qubit
unitaries A, B, C, D.  The phase phi at which the factorization holds is
not assumed; ``verify_dcnot_equivalence`` scans phi, refines the best
point and reports the minimizing phi together with the residual both
exactly and up to a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .braid_ybe import build_s
from .linalg import identity, kron, max_abs_diff

DEFAULT_TOL = 1e-10
SCAN_POINTS = 4096
# The most phases whose S(phi) the scan stacks at once.  Stacking the whole
# grid holds about 660 bytes a phase at once; the blocked scan keeps only
# the grid and its residuals, 16 bytes a phase (traced by tracemalloc).
SCAN_BLOCK = 256


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
            if max_abs_diff(m @ m.conj().T, identity(2)) > DEFAULT_TOL:
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
    passed: bool
    tol: float

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
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    f = factors if factors is not None else local_factors()
    target = dcnot()
    m = kron(f.a, f.b) @ build_s(phi) @ kron(f.c, f.d)
    exact = max_abs_diff(m, target)
    overlap = complex(np.trace(m.conj().T @ target))
    alpha = float(np.angle(overlap)) if overlap != 0 else 0.0
    aligned = max_abs_diff(np.exp(1j * alpha) * m, target)
    return exact, aligned, alpha


def _exact_residuals(
    phis: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """max|left S(phi) right - DCNOT| for each phase of the array ``phis``.

    ``left`` and ``right`` are A (x) B and C (x) D.  Each entry is bitwise
    equal to the exact residual of ``equivalence_residuals`` at that phase.
    """
    m = left @ build_s(phis) @ right
    return np.abs(m - dcnot()).max(axis=(-2, -1))


def _refine(f, lo: float, hi: float, iterations: int = 80) -> float:
    """Golden-section refinement of a scalar residual minimum in [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def verify_dcnot_equivalence(
    phi: float | None = None,
    tol: float = DEFAULT_TOL,
    scan_points: int = SCAN_POINTS,
) -> EquivalenceReport:
    """Check the DCNOT factorization, scanning phi when none is given.

    With ``phi`` set, evaluates the residual at that phase only.  Otherwise
    scans ``scan_points`` phases over [0, 2pi), ``SCAN_BLOCK`` at a time,
    refines the best one, and reports the global minimum even when it misses
    ``tol``.  Raises ValueError for a non-finite ``phi`` or a ``scan_points``
    that is not an int >= 1.
    """
    factors = local_factors()
    if phi is not None:
        exact, aligned, alpha = equivalence_residuals(phi, factors)
        return EquivalenceReport(
            float(phi), exact, alpha, aligned, min(exact, aligned) <= tol, tol
        )
    if (
        isinstance(scan_points, bool)
        or not isinstance(scan_points, (int, np.integer))
        or scan_points < 1
    ):
        raise ValueError(f"scan_points must be an int >= 1, got {scan_points!r}")

    left, right = kron(factors.a, factors.b), kron(factors.c, factors.d)
    grid = np.linspace(0.0, 2.0 * np.pi, scan_points, endpoint=False)
    residuals = np.empty(scan_points)
    for start in range(0, scan_points, SCAN_BLOCK):
        block = grid[start : start + SCAN_BLOCK]
        residuals[start : start + block.size] = _exact_residuals(block, left, right)
    best = int(np.argmin(residuals))
    span = 2.0 * np.pi / scan_points

    def exact_at(p):
        return _exact_residuals(np.array([p]), left, right)[0]

    phi_best = _refine(exact_at, grid[best] - span, grid[best] + span)
    if residuals[best] <= exact_at(phi_best):
        phi_best = float(grid[best])
    exact, aligned, alpha = equivalence_residuals(phi_best, factors)
    return EquivalenceReport(
        float(phi_best), exact, alpha, aligned, min(exact, aligned) <= tol, tol
    )
