"""Two channel-concatenation strategies and their coherence dynamics.

One-qubit strategy: the input is (sqrt(1-x)|0> + sqrt(x)|1>) (x) |0>, and
the gate R(theta, phi) acts on both qubits N times:

    sigma_SA = R^N rho_SA (R^dagger)^N,   sigma_S = Tr_A sigma_SA.

Two-qubit strategy: the input is (sqrt(1-x)|01> + sqrt(x)|10>) (x) |0>
on qubits (S1, S2, A), and the gate acts as I (x) R on (S2, A) only:

    sigma_S = Tr_A [ (I (x) R)^N rho_SA (I (x) R^dagger)^N ].

The matrix-product simulation above is the oracle.  The module also
evaluates two reference closed-form coherence expressions and two
reference element-wise assemblies of the reduced state, so that
``discrepancy_report`` can quantify where each reference formula agrees
with the oracle.  The evaluators are kept exactly as the formulas are
stated, on purpose: where a reference expression disagrees with the
simulation, the report documents it rather than patching the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .braid_ybe import GateParams, build_r_theta_phi
from .coherence import DEFAULT_TOL, EIG_CLAMP, l1_coherence
from .linalg import DensityMatrix, PureState, identity, kron, partial_trace

StrategyKind = Literal["one", "two"]

ONE_QUBIT: StrategyKind = "one"
TWO_QUBIT: StrategyKind = "two"

# The element formulas carry sec^2/csc^2 factors that blow up where
# cos(N theta) (odd N) or sin(N theta) (even N) vanishes; inside this
# window the evaluator switches to the analytic limit, which is the
# identity channel.
POLE_WINDOW = 1e-8


@dataclass(frozen=True)
class StrategySpec:
    """One grid point: strategy kind, input parameter x, uses N, gate angles."""

    kind: StrategyKind
    x: float
    n_uses: int
    gate: GateParams

    def __post_init__(self):
        _check_kind(self.kind)
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"x must lie in [0, 1], got {self.x!r}")
        _check_uses(self.n_uses)
        object.__setattr__(self, "n_uses", int(self.n_uses))


def _check_kind(kind) -> None:
    if kind not in (ONE_QUBIT, TWO_QUBIT):
        raise ValueError(f"unknown strategy kind {kind!r}")


def _check_uses(n) -> None:
    """N must be an integer >= 1; floats (even 2.0) and bools are rejected."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n_uses must be a positive integer, got {n!r}")


def prepare_one_qubit_input(x: float) -> DensityMatrix:
    """rho_SA for (sqrt(1-x)|0> + sqrt(x)|1>) (x) |0>, qubit order (S, A)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(1.0 - x)
    amps[2] = math.sqrt(x)
    return PureState(amps).density_matrix((2, 2))


def prepare_two_qubit_input(x: float) -> DensityMatrix:
    """rho_SA for (sqrt(1-x)|01> + sqrt(x)|10>) (x) |0>, qubit order (S1, S2, A)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    amps = np.zeros(8, dtype=complex)
    amps[2] = math.sqrt(1.0 - x)  # |010>
    amps[4] = math.sqrt(x)  # |100>
    return PureState(amps).density_matrix((2, 2, 2))


@lru_cache(maxsize=4096)
def _prepared_input(kind: StrategyKind, x: float) -> DensityMatrix:
    if kind == ONE_QUBIT:
        return prepare_one_qubit_input(x)
    return prepare_two_qubit_input(x)


def prepare_input(spec: StrategySpec) -> DensityMatrix:
    return _prepared_input(spec.kind, spec.x)


@lru_cache(maxsize=65536)
def _channel_unitary(kind: StrategyKind, theta: float, phi: float, n: int) -> np.ndarray:
    """R^N, or I (x) R^N; read-only, so that no caller can corrupt the cache."""
    rn = np.linalg.matrix_power(build_r_theta_phi(GateParams(theta, phi)), n)
    u = rn if kind == ONE_QUBIT else kron(identity(2), rn)
    u.setflags(write=False)
    return u


def channel_unitary(spec: StrategySpec) -> np.ndarray:
    """The full N-use channel unitary: R^N, or I (x) R^N for the two-qubit kind."""
    return _channel_unitary(spec.kind, spec.gate.theta, spec.gate.phi, spec.n_uses)


def apply_channel(rho: DensityMatrix, spec: StrategySpec) -> DensityMatrix:
    """N-fold adjoint action of the gate on rho; trace and purity preserved."""
    expected = 4 if spec.kind == ONE_QUBIT else 8
    if rho.dim != expected:
        raise ValueError(
            f"strategy {spec.kind!r} needs a {expected}x{expected} state, "
            f"got {rho.dim}x{rho.dim}"
        )
    u = channel_unitary(spec)
    out = u @ rho.mat @ u.conj().T
    return DensityMatrix._trusted(out, rho.dims)


def reduced_system_state(sigma_sa: DensityMatrix, kind: StrategyKind) -> DensityMatrix:
    """Trace out the ancilla (the last qubit) of the post-channel state."""
    if kind == ONE_QUBIT:
        return partial_trace(sigma_sa, [0])
    if kind == TWO_QUBIT:
        return partial_trace(sigma_sa, [0, 1])
    raise ValueError(f"unknown strategy kind {kind!r}")


def simulate_reduced(spec: StrategySpec) -> DensityMatrix:
    """Oracle pipeline: prepare, apply the channel N times, trace out the ancilla."""
    rho = prepare_input(spec)
    sigma = apply_channel(rho, spec)
    return reduced_system_state(sigma, spec.kind)


def simulated_l1(spec: StrategySpec) -> float:
    return l1_coherence(simulate_reduced(spec))


# Basis indices of the two nonzero input amplitudes, sqrt(1-x) and sqrt(x)
# (see prepare_one_qubit_input and prepare_two_qubit_input).
_INPUT_SUPPORT = {ONE_QUBIT: [0, 2], TWO_QUBIT: [2, 4]}


def _per_value(fn, values: np.ndarray) -> np.ndarray:
    """Evaluate ``fn`` once per distinct entry of ``values`` and broadcast back.

    ``fn`` takes a float and returns an array; the result has the shape
    ``values.shape`` plus that array's shape.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()])[inverse.reshape(values.shape)]


def _check_points(kind, x: np.ndarray, theta: np.ndarray, phi: float, n) -> None:
    """Validate a whole batch of points once: kind, N, x in [0, 1], finite angles."""
    _check_kind(kind)
    _check_uses(n)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("x values must lie in [0, 1]")
    if not (np.all(np.isfinite(theta)) and math.isfinite(phi)):
        raise ValueError("angles must be finite")


def _simulate(kind, x, theta, phi, n, with_relative_entropy=True):
    """The simulation kernel over broadcastable x and theta arrays at fixed phi, N.

    Same mathematics as ``simulate_reduced`` point by point.  For a unitary
    channel on a pure input, U rho U^dagger = (U psi)(U psi)^dagger exactly,
    and psi has two nonzero amplitudes, so U psi is the sum of the two gate
    columns they select; the ancilla is contracted out of the outer product.
    The gate is looked up once per distinct theta.  As in the pointwise
    measures, a reduced state whose trace is off 1 by more than
    ``coherence.DEFAULT_TOL``, or that has an eigenvalue below
    ``-coherence.EIG_CLAMP``, raises ValueError; smaller negatives are
    clamped to 0.  Returns (c_l1, c_r) in the broadcast shape of x and theta.
    """
    _check_points(kind, x, theta, phi, n)
    phi, n = float(phi), int(n)
    support = _INPUT_SUPPORT[kind]
    columns = _per_value(lambda t: _channel_unitary(kind, t, phi, n)[:, support], theta)
    x = x[..., None]
    evolved = columns[..., 0] * np.sqrt(1.0 - x) + columns[..., 1] * np.sqrt(x)
    ds = evolved.shape[-1] // 2
    v = evolved.reshape(evolved.shape[:-1] + (ds, 2))
    sigma = np.einsum("...sa,...ra->...sr", v, v.conj())
    # Drop temporaries once used: the spectra below set the peak memory of a plane.
    del evolved, v
    diag = np.einsum("...ss->...s", sigma).real
    trace_error = np.abs(diag.sum(axis=-1) - 1.0)
    if not np.all(trace_error <= DEFAULT_TOL):
        raise ValueError(
            f"reduced state trace is off 1 by {float(trace_error.max())!r}, "
            f"expected within {DEFAULT_TOL}"
        )
    absolute = np.abs(sigma)
    span = np.arange(ds)
    absolute[..., span, span] = 0.0
    c_l1 = absolute.sum(axis=(-2, -1))
    del absolute
    if not with_relative_entropy:
        return c_l1, np.full_like(c_l1, np.nan)
    diag_p = np.clip(diag, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        shannon = -np.where(diag_p > 0, diag_p * np.log2(diag_p), 0.0).sum(axis=-1)
        lam = np.linalg.eigvalsh(sigma)
        if lam.min() < -EIG_CLAMP:
            raise ValueError(f"reduced state has a negative eigenvalue: {float(lam.min())!r}")
        lam = np.clip(lam, 0.0, None)
        s_rho = -np.where(lam > 0, lam * np.log2(lam), 0.0).sum(axis=-1)
    c_r = np.clip(shannon - s_rho, 0.0, None)
    return c_l1, c_r


def batched_grid(
    kind: StrategyKind,
    xs: np.ndarray,
    thetas: np.ndarray,
    phi: float,
    n: int,
    with_relative_entropy: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized oracle over an (x, theta) grid at fixed phi and N.

    Returns (c_l1, c_r) arrays of shape (len(xs), len(thetas)) from the
    simulation kernel that ``discrepancy_report`` also uses; c_r is
    NaN-filled when not requested.  Tests pin this path against the
    pointwise one.
    """
    xs = np.asarray(xs, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    return _simulate(kind, xs[:, None], thetas[None, :], phi, n, with_relative_entropy)


# ---------------------------------------------------------------------------
# Reference closed-form coherence expressions, evaluated exactly as stated.
# ---------------------------------------------------------------------------


# Each reference formula is written once, over broadcastable x and theta
# arrays at fixed phi and N.  The scalar evaluators validate their point and
# pass it as 1-element arrays, so that every value goes through the same
# numpy loops as on a plane and the two agree by construction.


def _point(kind, x, theta, phi: float, n) -> tuple[np.ndarray, np.ndarray]:
    """Validate one point and return its x and theta as 1-element arrays."""
    x, theta = np.array([x], dtype=float), np.array([theta], dtype=float)
    _check_points(kind, x, theta, phi, n)
    return x, theta


def _eps(x):
    return np.sqrt(2.0 * x * (1.0 - x))


def _alpha(x, sin_2nt):
    return 4.0 * (1.0 - 2.0 * x) * sin_2nt


def _closed_form_l1(kind, x, theta, phi: float, n: int) -> np.ndarray:
    """Closed-form coherence over broadcastable x and theta arrays at fixed phi, N.

    The inputs are not validated here; every caller validates them once.
    """
    odd = n % 2 == 1
    sin_nt, cos_nt = np.sin(n * theta), np.cos(n * theta)
    sin_2nt, cos_2nt = np.sin(2.0 * n * theta), np.cos(2.0 * n * theta)
    eps = _eps(x)
    if kind == ONE_QUBIT:
        alpha = _alpha(x, sin_2nt)
        beta = math.sin(phi) * cos_nt**2 + math.cos(phi) * (2.0 - 3.0 * cos_nt**2)
        gamma = -4.0 * sin_nt**2 * cos_2nt
        delta = 1.0 - math.sin(2.0 * phi)
        trig4 = cos_nt**4 if odd else sin_nt**4
        big_delta = alpha**2 / 8.0 + alpha * beta * eps + 2.0 * eps**2 * gamma
        return 0.5 * np.sqrt(np.abs(big_delta + 4.0 * delta * eps**2 * trig4))
    a = (-1.0) ** (n + 1) * cos_2nt
    b = np.abs(sin_2nt) / math.sqrt(2.0)
    root = np.sqrt(np.abs(a + 5.0 * (sin_nt if odd else cos_nt) ** 4))
    tail = (cos_nt if odd else sin_nt) ** 2
    return 0.5 * (2.0 * b + math.sqrt(2.0) * eps * (2.0 * b + root + tail))


def closed_form_l1_one_qubit(x: float, theta: float, phi: float, n: int) -> float:
    """One-qubit closed-form coherence, with odd and even N branches.

    C = (1/2) sqrt|Delta + 4 delta eps^2 cos^4(N theta)|  for odd N
    (sin^4 for even N), with Delta = alpha^2/8 + alpha beta eps
    + 2 eps^2 gamma and

        alpha = 4 (1 - 2x) sin(2 N theta)
        beta  = sin(phi) cos^2(N theta) + cos(phi) (2 - 3 cos^2(N theta))
        gamma = -4 sin^2(N theta) cos(2 N theta)
        delta = 1 - sin(2 phi),   eps = sqrt(2 x (1 - x)).
    """
    x, theta = _point(ONE_QUBIT, x, theta, phi, n)
    return float(_closed_form_l1(ONE_QUBIT, x, theta, phi, n)[0])


def closed_form_l1_two_qubit(x: float, theta: float, n: int) -> float:
    """Two-qubit closed-form coherence; independent of phi.

    C = (1/2) [2b + sqrt(2) eps (2b + sqrt|a + 5 sin^4(N theta)| +
    cos^2(N theta))] for odd N, with sin and cos swapped for even N,
    where a = (-1)^(N+1) cos(2 N theta) and b = |sin(2 N theta)|/sqrt(2).
    """
    x, theta = _point(TWO_QUBIT, x, theta, 0.0, n)
    return float(_closed_form_l1(TWO_QUBIT, x, theta, 0.0, n)[0])


def closed_form_l1_plane(
    kind: StrategyKind, xs: np.ndarray, thetas: np.ndarray, phi: float, n: int
) -> np.ndarray:
    """Closed-form coherence over an (x, theta) plane at fixed phi and N.

    Returns an array of shape (len(xs), len(thetas)) whose entries equal
    ``closed_form_l1_one_qubit`` / ``closed_form_l1_two_qubit`` at each
    point.  The inputs are validated once for the whole plane.
    """
    x = np.asarray(xs, dtype=float)[:, None]
    theta = np.asarray(thetas, dtype=float)[None, :]
    _check_points(kind, x, theta, phi, n)
    return _closed_form_l1(kind, x, theta, phi, n)


# ---------------------------------------------------------------------------
# Reference element-wise assemblies of the reduced state.
# ---------------------------------------------------------------------------


def _one_qubit_elements(x, theta, phi: float, n: int):
    """sigma_11 and sigma_12 of the one-qubit assembly.

    base is cos(N theta) for odd N and sin(N theta) for even N.  Inside
    ``POLE_WINDOW`` of a zero of base the elements are the analytic limit,
    the identity channel's; a pole whose companion sin(2 N theta) does not
    vanish is a genuine divergence and raises.
    """
    odd = n % 2 == 1
    base = np.cos(n * theta) if odd else np.sin(n * theta)
    sin2nt = np.sin(2.0 * n * theta)
    pole = np.abs(base) < POLE_WINDOW
    divergent = pole & (np.abs(sin2nt) > 2.0 * POLE_WINDOW)
    if np.any(divergent):
        raise ValueError(
            f"sec/csc pole at theta={float(theta.flat[np.argmax(divergent)])!r}, N={n} "
            "with non-vanishing companion: the element expression diverges here"
        )
    trig2 = base**2
    inv_sq = 1.0 / np.where(pole, 1.0, trig2)  # the pole entries are replaced below
    alpha = _alpha(x, sin2nt)
    eps = _eps(x)
    s11 = 0.5 * (1.0 + alpha * inv_sq / 8.0 - eps * math.cos(phi) * sin2nt)
    bracket = eps * (2.0 - (2.0 - 1j + np.exp(2j * phi)) * trig2)
    alpha_term = math.sqrt(2.0) * alpha * np.exp(1j * phi) / 4.0
    s12 = 0.5 * (bracket + alpha_term) if odd else 0.5 * (bracket - alpha_term)
    s11 = np.where(pole, 1.0 - x, s11)
    s12 = np.where(pole, np.sqrt(x * (1.0 - x)), s12)
    _check_finite(s11, s12, x, theta, phi, n)
    return s11, s12


def _check_finite(s11, s12, x, theta, phi: float, n: int) -> None:
    finite = np.isfinite(s11) & np.isfinite(s12.real) & np.isfinite(s12.imag)
    if not np.all(finite):
        first = int(np.argmin(finite))
        x, theta = (float(np.broadcast_to(v, np.shape(finite)).flat[first]) for v in (x, theta))
        raise ValueError(
            f"non-finite element at x={x!r}, theta={theta!r}, phi={phi!r}, N={n}"
        )


def _two_qubit_elements(x, theta, phi: float, n: int):
    """The diagonal and the six upper off-diagonal entries of the 4x4 assembly."""
    odd = n % 2 == 1
    s2, c2 = np.sin(n * theta) ** 2, np.cos(n * theta) ** 2
    chain = (-1.0) ** n / (2.0 * math.sqrt(2.0)) * np.exp(1j * phi) * np.sin(2.0 * n * theta)
    bracket = (2.0 + 1j) * s2 - 1j if odd else (2.0 - 1j) * c2 + 1j
    eps, root = _eps(x), np.sqrt(x * (1.0 - x))
    s11 = 0.5 * (1.0 - x) * (c2 if odd else s2)
    s22 = 0.5 * (1.0 - x) * ((1.0 + s2) if odd else (1.0 + c2))
    s33 = 0.5 * x * ((1.0 + s2) if odd else (1.0 + c2))
    s44 = 1.0 - s11 - s22 - s33
    s12 = (1.0 - x) * chain
    s13 = root * chain
    s14 = eps / math.sqrt(2.0) * np.exp(2j * phi) * (c2 if odd else s2)
    s23 = eps / math.sqrt(2.0) * bracket
    s24 = -root * chain
    s34 = -x * chain
    return (s11, s22, s33, s44), (s12, s13, s14, s23, s24, s34)


def _off_diagonal_l1(upper) -> np.ndarray:
    """The l1 coherence of a Hermitian assembly from its upper off-diagonal entries."""
    return 2.0 * sum(np.abs(z) for z in upper)


def elementwise_reduced_one_qubit(
    x: float, theta: float, phi: float, n: int
) -> tuple[np.ndarray, float]:
    """Assemble the 2x2 reduced-state element formulas and their l1 value.

    The sigma_11 formula carries a sec^2(N theta) (odd N) or csc^2(N theta)
    (even N) factor whose companion alpha vanishes at the pole.  Inside
    ``POLE_WINDOW`` of a pole the evaluator returns the analytic limit,
    which is the identity-channel reduced state (at every pole the N-fold
    gate is +/- the identity).  A pole with a non-vanishing companion would
    be a genuine divergence and raises instead of returning NaN or Inf.

    Returns (sigma, 2 |sigma_12|); sigma is a plain array because the
    formulas are not guaranteed to assemble into a positive state.
    """
    s11, s12 = _one_qubit_elements(*_point(ONE_QUBIT, x, theta, phi, n), phi, n)
    sigma = np.array([[s11[0], s12[0]], [np.conj(s12[0]), 1.0 - s11[0]]], dtype=complex)
    return sigma, float(_off_diagonal_l1([s12])[0])


def elementwise_reduced_two_qubit(
    x: float, theta: float, phi: float, n: int
) -> tuple[np.ndarray, float]:
    """Assemble the 4x4 reduced-state element formulas and their l1 value.

    Diagonals follow the piecewise forms with sigma_44 fixed by trace
    completion.  The off-diagonal family proportional to sigma_12 is
    resolved element by element so the (1-x)/x ratio chains stay finite at
    x = 0 and x = 1.  Returns (sigma, 2 * sum of the six upper off-diagonal
    moduli); sigma is a plain array, not a validated density matrix.
    """
    diagonal, upper = _two_qubit_elements(*_point(TWO_QUBIT, x, theta, phi, n), phi, n)
    s11, s22, s33, s44 = (d[0] for d in diagonal)
    s12, s13, s14, s23, s24, s34 = (z[0] for z in upper)
    sigma = np.array(
        [
            [s11, s12, s13, s14],
            [np.conj(s12), s22, s23, s24],
            [np.conj(s13), np.conj(s23), s33, s34],
            [np.conj(s14), np.conj(s24), np.conj(s34), s44],
        ],
        dtype=complex,
    )
    return sigma, float(_off_diagonal_l1(upper)[0])


def _elementwise_l1(kind, x, theta, phi: float, n: int) -> tuple[np.ndarray, float]:
    """Element-assembly l1 values over broadcastable x and theta at fixed phi, N.

    Also returns the smallest diagonal entry of the 4x4 assemblies (0.0 for
    the one-qubit kind, whose 2x2 assembly can leave the density-matrix set
    near its poles).  The inputs are not validated here; the caller
    validates them once.
    """
    if kind == ONE_QUBIT:
        return _off_diagonal_l1([_one_qubit_elements(x, theta, phi, n)[1]]), 0.0
    diagonal, upper = _two_qubit_elements(x, theta, phi, n)
    return _off_diagonal_l1(upper), float(min(d.min() for d in diagonal))


def closed_form_l1(spec: StrategySpec) -> float:
    """Closed-form coherence matching the strategy kind."""
    if spec.kind == ONE_QUBIT:
        return closed_form_l1_one_qubit(
            spec.x, spec.gate.theta, spec.gate.phi, spec.n_uses
        )
    return closed_form_l1_two_qubit(spec.x, spec.gate.theta, spec.n_uses)


# ---------------------------------------------------------------------------
# Simulation-vs-formula cross validation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaStats:
    kind: StrategyKind
    formula: str
    parity: str
    count: int
    max_deviation: float
    mean_deviation: float


# The value columns of a discrepancy report, in order along its last axis.
REPORT_COLUMNS = (
    "c_l1_sim",
    "c_r_sim",
    "c_l1_closed",
    "c_l1_appendix",
    "deviation_closed",
    "deviation_appendix",
)


@dataclass(frozen=True)
class DiscrepancyReport:
    """The cross-check over a (kind, x, theta, phi, N) grid.

    ``values[k, ix, it, ip, j]`` holds the ``REPORT_COLUMNS`` of the point
    (kinds[k], xs[ix], thetas[it], phis[ip], ns[j]); in C order the points
    run kind, then x, theta, phi and N, the row order of ``ybc compare``.
    """

    kinds: tuple[StrategyKind, ...]
    ns: tuple[int, ...]
    values: np.ndarray
    flags: tuple[str, ...]

    def column(self, name: str) -> np.ndarray:
        """One value column over the grid, as a view into ``values``."""
        return self.values[..., REPORT_COLUMNS.index(name)]

    def stats(self) -> list[FormulaStats]:
        """Max and mean of the finite deviations per (kind, formula, parity).

        The deviations are reduced in row order as Python floats, with
        ``max`` and ``sum``/count, so the printed digits do not depend on
        the array layout.
        """
        kinds = np.array(self.kinds)
        odd = np.array([n % 2 == 1 for n in self.ns])
        rows = []
        for kind in (ONE_QUBIT, TWO_QUBIT):
            for formula in ("closed", "appendix"):
                deviations = self.column(f"deviation_{formula}")[kinds == kind]
                for parity, keep in (("odd", odd), ("even", ~odd)):
                    devs = deviations[..., keep]
                    devs = devs[np.isfinite(devs)].tolist()
                    if devs:
                        rows.append(
                            FormulaStats(
                                kind, formula, parity, len(devs), max(devs), sum(devs) / len(devs)
                            )
                        )
        return rows

    def format_summary(self, match_tol: float = 1e-10) -> str:
        lines = [
            "formula deviation summary (|simulated - formula| per grid point)",
            f"{'strategy':>8} {'formula':>9} {'parity':>6} {'points':>7} "
            f"{'max dev':>12} {'mean dev':>12}  verdict",
        ]
        for s in self.stats():
            verdict = (
                "matches simulation"
                if s.max_deviation <= match_tol
                else "deviates from simulation"
            )
            lines.append(
                f"{s.kind:>8} {s.formula:>9} {s.parity:>6} {s.count:>7} "
                f"{s.max_deviation:>12.4e} {s.mean_deviation:>12.4e}  {verdict}"
            )
        for flag in self.flags:
            lines.append(f"flag: {flag}")
        return "\n".join(lines)


def default_axes():
    """The default grid of ``ybc compare``: 11 x values, 64 angles, two phases, N 1..4.

    Returns (xs, thetas, phis, ns).
    """
    return (
        np.linspace(0.0, 1.0, 11),
        np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False),
        [0.0, math.pi / 4.0],
        [1, 2, 3, 4],
    )


def discrepancy_report(kinds, xs, thetas, phis, ns) -> DiscrepancyReport:
    """Evaluate every point of the grid and summarize deviations per formula.

    The simulation is the ground truth; deviations quantify the reference
    formulas.  Each (kind, phi, N) plane is evaluated whole over the
    (x, theta) grid by the simulation kernel, the closed form and the
    element assembly.  Assembled element matrices with a diagonal entry
    below -1e-10 are flagged rather than clamped.
    """
    kinds, phis, ns = tuple(kinds), [float(phi) for phi in phis], tuple(ns)
    xs, thetas = np.asarray(xs, dtype=float), np.asarray(thetas, dtype=float)
    shape = (len(kinds), xs.size, thetas.size, len(phis), len(ns))
    if 0 in shape:
        raise ValueError("discrepancy grid must not be empty")
    values = np.empty(shape + (len(REPORT_COLUMNS),))
    x, theta = xs[:, None], thetas[None, :]
    worst_negative = 0.0
    for k, kind in enumerate(kinds):
        for ip, phi in enumerate(phis):
            for j, n in enumerate(ns):
                c_l1, c_r = _simulate(kind, x, theta, phi, n)
                closed = _closed_form_l1(kind, x, theta, phi, n)
                appendix, min_diag = _elementwise_l1(kind, x, theta, phi, n)
                worst_negative = min(worst_negative, min_diag)
                deviations = np.abs(c_l1 - closed), np.abs(c_l1 - appendix)
                values[k, :, :, ip, j] = np.stack((c_l1, c_r, closed, appendix, *deviations), -1)
    flags = []
    if worst_negative < -1e-10:
        flags.append(
            "two-qubit element assembly produced a negative diagonal entry "
            f"({worst_negative:.3e})"
        )
    return DiscrepancyReport(kinds, ns, values, tuple(flags))
