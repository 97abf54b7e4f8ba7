"""Dense complex-matrix kernel used by every other module.

All operators are numpy complex128 arrays in row-major layout with
big-endian qubit indexing: the basis index of |q1 q2 ... qn> is
sum_k q_k * 2^(n-k), so the two-qubit basis is ordered
{|00>, |01>, |10>, |11>}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major block convention.

    Element ((ia*rows_b + ib), (ja*cols_b + jb)) equals a[ia, ja] * b[ib, jb],
    which matches the big-endian qubit ordering used throughout.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max_ij |a_ij - b_ij|, the residual metric used by all checkers."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).max())


def eig_hermitian(a: np.ndarray, herm_tol: float = 1e-8) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Raises if the input is not Hermitian within ``herm_tol``; the error
    reports the largest asymmetry so the caller can see how far off it was.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    asym = float(np.abs(m - m.conj().T).max())
    if asym > herm_tol:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    return np.linalg.eigvalsh(m)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on n qubits (length a power of two)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        d = amps.size
        if d < 1 or (d & (d - 1)) != 0:
            raise ValueError(f"state dimension {d} is not a power of two")
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("state vector contains non-finite entries")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector is not normalized: sum|a|^2 = {norm!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density_matrix(self, dims: tuple[int, ...] | None = None) -> "DensityMatrix":
        """|psi><psi| as a DensityMatrix over the given subsystem split."""
        if dims is None:
            dims = (self.dim,)
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(mat, dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix over an ordered list of subsystems.

    ``dims`` gives the dimension of each subsystem; their product must equal
    the matrix dimension.  Hermiticity and trace are validated on
    construction; positivity is checked on demand via ``min_eigenvalue``
    because it needs a spectral decomposition.
    """

    mat: np.ndarray
    dims: tuple[int, ...] = field(default=())

    def __post_init__(self):
        m = as_complex_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        dims = tuple(int(d) for d in self.dims) if self.dims else (m.shape[0],)
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive: {dims}")
        if int(np.prod(dims)) != m.shape[0]:
            raise ValueError(
                f"subsystem dimensions {dims} do not multiply to {m.shape[0]}"
            )
        asym = float(np.abs(m - m.conj().T).max())
        if asym > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not Hermitian: asymmetry {asym:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def _trusted(cls, mat: np.ndarray, dims: tuple[int, ...]) -> "DensityMatrix":
        # Bypass validation on paths that preserve the invariants by
        # construction (unitary conjugation, partial trace); used in sweeps.
        obj = object.__new__(cls)
        object.__setattr__(obj, "mat", mat)
        object.__setattr__(obj, "dims", dims)
        return obj

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)

    def eigenvalues(self) -> np.ndarray:
        return eig_hermitian(self.mat)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over the kept subsystems.

    ``keep`` lists subsystem indices (0-based); the result is ordered by the
    subsystems' original positions.  Trace and Hermiticity are preserved.
    """
    keep = [int(k) for k in keep]
    n = len(rho.dims)
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep contains duplicate indices: {keep}")
    for k in keep:
        if k < 0 or k >= n:
            raise ValueError(f"subsystem index {k} out of range for {n} subsystems")
    if len(keep) == n:
        raise ValueError("keep must be a strict subset of the subsystems")
    keep = sorted(keep)
    dims = list(rho.dims)
    resh = rho.mat.reshape(dims + dims)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        resh = np.trace(resh, axis1=idx, axis2=idx + len(dims))
        dims = dims[:idx] + dims[idx + 1 :]
    d = int(np.prod(dims))
    return DensityMatrix._trusted(resh.reshape(d, d), tuple(dims))
