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
from typing import Iterable, Literal

import numpy as np

from .braid_ybe import GateParams, build_r_theta_phi
from .coherence import l1_coherence, relative_entropy_coherence
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


def _input_amplitudes(kind: StrategyKind, x: float) -> np.ndarray:
    if kind == ONE_QUBIT:
        amps = np.zeros(4, dtype=complex)
        amps[0] = math.sqrt(1.0 - x)
        amps[2] = math.sqrt(x)
    else:
        amps = np.zeros(8, dtype=complex)
        amps[2] = math.sqrt(1.0 - x)
        amps[4] = math.sqrt(x)
    return amps


@lru_cache(maxsize=65536)
def _channel_unitary(kind: StrategyKind, theta: float, phi: float, n: int) -> np.ndarray:
    r = build_r_theta_phi(GateParams(theta, phi))
    rn = np.linalg.matrix_power(r, n)
    if kind == ONE_QUBIT:
        return rn
    return kron(identity(2), rn)


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


def batched_grid(
    kind: StrategyKind,
    xs: np.ndarray,
    thetas: np.ndarray,
    phi: float,
    n: int,
    with_relative_entropy: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized oracle over an (x, theta) grid at fixed phi and N.

    Same mathematics as ``simulate_reduced`` point by point: the cached
    channel unitaries are applied to the pure inputs and the ancilla is
    contracted out of the outer product (for a unitary channel on a pure
    input, U rho U^dagger = (U psi)(U psi)^dagger exactly).  Returns
    (c_l1, c_r) arrays of shape (len(xs), len(thetas)); c_r is NaN-filled
    when not requested.  Tests pin this path against the pointwise one.
    """
    xs = np.asarray(xs, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    gates = np.stack([_channel_unitary(kind, float(t), float(phi), int(n)) for t in thetas])
    psis = np.stack([_input_amplitudes(kind, float(x)) for x in xs])
    evolved = np.einsum("tij,xj->xti", gates, psis)
    ds = 2 if kind == ONE_QUBIT else 4
    v = evolved.reshape(len(xs), len(thetas), ds, 2)
    sigma = np.einsum("xtsa,xtra->xtsr", v, v.conj())
    absolute = np.abs(sigma)
    diag = np.einsum("xtss->xts", sigma).real
    span = np.arange(ds)
    absolute[..., span, span] = 0.0
    c_l1 = absolute.sum(axis=(-2, -1))
    if not with_relative_entropy:
        return c_l1, np.full_like(c_l1, np.nan)
    diag_p = np.clip(diag, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        shannon = -np.where(diag_p > 0, diag_p * np.log2(diag_p), 0.0).sum(axis=-1)
        lam = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)
        s_rho = -np.where(lam > 0, lam * np.log2(lam), 0.0).sum(axis=-1)
    c_r = np.clip(shannon - s_rho, 0.0, None)
    return c_l1, c_r


# ---------------------------------------------------------------------------
# Reference closed-form coherence expressions, evaluated exactly as stated.
# ---------------------------------------------------------------------------


# The closed forms are written once, over operands that are either floats
# or arrays broadcast over an (x, theta) plane.  Factors that depend on x
# only or on theta only are evaluated with ``math`` on floats (once per x
# or per theta on a plane); they are combined with + - * /, abs and sqrt,
# which IEEE 754 rounds exactly, in the order the formulas are stated, so
# the plane and the scalar evaluation agree bit for bit.


def _eps(x):
    return math.sqrt(2.0 * x * (1.0 - x))


def _alpha(x, sin_2nt):
    return 4.0 * (1.0 - 2.0 * x) * sin_2nt


def _float_square(a):
    """a**2 by CPython's float power (libm pow), element by element on arrays.

    numpy's square is the correctly rounded a*a, which differs from libm pow
    in the last bit on some inputs; the plane evaluator must reproduce the
    scalar formulas bit for bit.
    """
    if isinstance(a, np.ndarray):
        return np.array([v**2 for v in a.ravel().tolist()]).reshape(a.shape)
    return a**2


def _sqrt(a):
    # Both are correctly rounded; math.sqrt keeps the scalar path fast.
    return np.sqrt(a) if isinstance(a, np.ndarray) else math.sqrt(a)


def _one_qubit_theta_terms(theta: float, phi: float, n: int):
    """sin(2 N theta), beta, gamma and the odd/even cos^4 or sin^4 factor."""
    sin_nt = math.sin(n * theta)
    cos_nt2 = math.cos(n * theta) ** 2
    beta = math.sin(phi) * cos_nt2 + math.cos(phi) * (2.0 - 3.0 * cos_nt2)
    gamma = -4.0 * sin_nt**2 * math.cos(2.0 * n * theta)
    trig4 = math.cos(n * theta) ** 4 if n % 2 == 1 else sin_nt**4
    return math.sin(2.0 * n * theta), beta, gamma, trig4


def _one_qubit_l1(x, eps, eps_sq, sin_2nt, beta, gamma, trig4, phi: float):
    alpha = _alpha(x, sin_2nt)
    delta = 1.0 - math.sin(2.0 * phi)
    big_delta = _float_square(alpha) / 8.0 + alpha * beta * eps + 2.0 * eps_sq * gamma
    return 0.5 * _sqrt(abs(big_delta + 4.0 * delta * eps_sq * trig4))


def _two_qubit_theta_terms(theta: float, n: int):
    """b and the odd/even root and tail factors of the two-qubit form."""
    a = (-1.0) ** (n + 1) * math.cos(2.0 * n * theta)
    b = abs(math.sin(2.0 * n * theta)) / math.sqrt(2.0)
    if n % 2 == 1:
        root = math.sqrt(abs(a + 5.0 * math.sin(n * theta) ** 4))
        tail = math.cos(n * theta) ** 2
    else:
        root = math.sqrt(abs(a + 5.0 * math.cos(n * theta) ** 4))
        tail = math.sin(n * theta) ** 2
    return b, root, tail


def _two_qubit_l1(eps, b, root, tail):
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
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    _check_uses(n)
    eps = _eps(x)
    terms = _one_qubit_theta_terms(theta, phi, n)
    return _one_qubit_l1(x, eps, eps**2, *terms, phi)


def closed_form_l1_two_qubit(x: float, theta: float, n: int) -> float:
    """Two-qubit closed-form coherence; independent of phi.

    C = (1/2) [2b + sqrt(2) eps (2b + sqrt|a + 5 sin^4(N theta)| +
    cos^2(N theta))] for odd N, with sin and cos swapped for even N,
    where a = (-1)^(N+1) cos(2 N theta) and b = |sin(2 N theta)|/sqrt(2).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    _check_uses(n)
    return _two_qubit_l1(_eps(x), *_two_qubit_theta_terms(theta, n))


def closed_form_l1_plane(
    kind: StrategyKind, xs: np.ndarray, thetas: np.ndarray, phi: float, n: int
) -> np.ndarray:
    """Closed-form coherence over an (x, theta) plane at fixed phi and N.

    Returns an array of shape (len(xs), len(thetas)) whose entries equal
    ``closed_form_l1_one_qubit`` / ``closed_form_l1_two_qubit`` at each
    point bit for bit.  The inputs are validated once for the whole plane.
    """
    _check_kind(kind)
    _check_uses(n)
    xs = np.asarray(xs, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("x values must lie in [0, 1]")
    if not (np.all(np.isfinite(thetas)) and math.isfinite(phi)):
        raise ValueError("angles must be finite")
    n = int(n)
    eps = [_eps(x) for x in xs.tolist()]
    eps_col = np.array(eps)[:, None]
    if kind == ONE_QUBIT:
        eps_sq_col = np.array([e**2 for e in eps])[:, None]
        terms = [_one_qubit_theta_terms(t, phi, n) for t in thetas.tolist()]
        per_theta = np.array(terms, dtype=float).reshape(len(thetas), 4).T
        return _one_qubit_l1(xs[:, None], eps_col, eps_sq_col, *per_theta, phi)
    terms = [_two_qubit_theta_terms(t, n) for t in thetas.tolist()]
    per_theta = np.array(terms, dtype=float).reshape(len(thetas), 3).T
    return _two_qubit_l1(eps_col, *per_theta)


# ---------------------------------------------------------------------------
# Reference element-wise assemblies of the reduced state.
# ---------------------------------------------------------------------------


def _identity_channel_one_qubit(x: float) -> np.ndarray:
    root = math.sqrt(x * (1.0 - x))
    return np.array([[1.0 - x, root], [root, x]], dtype=complex)


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
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    eps = _eps(x)
    alpha = _alpha(x, math.sin(2.0 * n * theta))
    odd = n % 2 == 1
    base = math.cos(n * theta) if odd else math.sin(n * theta)
    if abs(base) < POLE_WINDOW:
        if abs(math.sin(2.0 * n * theta)) > 2.0 * POLE_WINDOW:
            raise ValueError(
                f"sec/csc pole at theta={theta!r}, N={n} with non-vanishing "
                "companion: the element expression diverges here"
            )
        sigma = _identity_channel_one_qubit(x)
        return sigma, 2.0 * abs(sigma[0, 1])
    inv_sq = 1.0 / base**2
    sin2nt = math.sin(2.0 * n * theta)
    s11 = 0.5 * (1.0 + alpha * inv_sq / 8.0 - eps * math.cos(phi) * sin2nt)
    trig2 = math.cos(n * theta) ** 2 if odd else math.sin(n * theta) ** 2
    bracket = eps * (2.0 - (2.0 - 1j + np.exp(2j * phi)) * trig2)
    alpha_term = math.sqrt(2.0) * alpha * np.exp(1j * phi) / 4.0
    s12 = 0.5 * (bracket + alpha_term) if odd else 0.5 * (bracket - alpha_term)
    sigma = np.array([[s11, s12], [np.conj(s12), 1.0 - s11]], dtype=complex)
    if not np.all(np.isfinite(sigma.view(float))):
        raise ValueError(
            f"non-finite element at x={x!r}, theta={theta!r}, phi={phi!r}, N={n}"
        )
    return sigma, 2.0 * abs(s12)


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
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    eps = _eps(x)
    root = math.sqrt(x * (1.0 - x))
    odd = n % 2 == 1
    s2 = math.sin(n * theta) ** 2
    c2 = math.cos(n * theta) ** 2
    sin2nt = math.sin(2.0 * n * theta)
    sign_n = (-1.0) ** n

    s11 = 0.5 * (1.0 - x) * (c2 if odd else s2)
    s22 = 0.5 * (1.0 - x) * ((1.0 + s2) if odd else (1.0 + c2))
    s33 = 0.5 * x * ((1.0 + s2) if odd else (1.0 + c2))
    s44 = 1.0 - s11 - s22 - s33

    chain = sign_n / (2.0 * math.sqrt(2.0)) * np.exp(1j * phi) * sin2nt
    s12 = (1.0 - x) * chain
    s13 = root * chain
    s24 = -root * chain
    s34 = -x * chain
    s14 = eps / math.sqrt(2.0) * np.exp(2j * phi) * (c2 if odd else s2)
    s23 = (
        eps / math.sqrt(2.0) * ((2.0 + 1j) * s2 - 1j)
        if odd
        else eps / math.sqrt(2.0) * ((2.0 - 1j) * c2 + 1j)
    )

    sigma = np.array(
        [
            [s11, s12, s13, s14],
            [np.conj(s12), s22, s23, s24],
            [np.conj(s13), np.conj(s23), s33, s34],
            [np.conj(s14), np.conj(s24), np.conj(s34), s44],
        ],
        dtype=complex,
    )
    c_l1 = 2.0 * (abs(s12) + abs(s13) + abs(s14) + abs(s23) + abs(s24) + abs(s34))
    return sigma, c_l1


def elementwise_l1(spec: StrategySpec) -> float:
    """l1 value of the element assembly matching the strategy kind."""
    if spec.kind == ONE_QUBIT:
        return elementwise_reduced_one_qubit(
            spec.x, spec.gate.theta, spec.gate.phi, spec.n_uses
        )[1]
    return elementwise_reduced_two_qubit(
        spec.x, spec.gate.theta, spec.gate.phi, spec.n_uses
    )[1]


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
class SimRecord:
    """One grid point of the cross-check between oracle and reference formulas."""

    kind: StrategyKind
    x: float
    theta: float
    phi: float
    n_uses: int
    c_l1_sim: float
    c_r_sim: float
    c_l1_closed: float
    c_l1_appendix: float
    deviation_closed: float
    deviation_appendix: float


@dataclass(frozen=True)
class FormulaStats:
    kind: StrategyKind
    formula: str
    parity: str
    count: int
    max_deviation: float
    mean_deviation: float


@dataclass(frozen=True)
class DiscrepancyReport:
    records: tuple[SimRecord, ...]
    flags: tuple[str, ...]

    def stats(self) -> list[FormulaStats]:
        rows = []
        for kind in (ONE_QUBIT, TWO_QUBIT):
            for formula, attr in (
                ("closed", "deviation_closed"),
                ("appendix", "deviation_appendix"),
            ):
                for parity, keep in (("odd", 1), ("even", 0)):
                    devs = [
                        getattr(r, attr)
                        for r in self.records
                        if r.kind == kind and r.n_uses % 2 == keep
                    ]
                    devs = [d for d in devs if math.isfinite(d)]
                    if not devs:
                        continue
                    rows.append(
                        FormulaStats(
                            kind,
                            formula,
                            parity,
                            len(devs),
                            max(devs),
                            sum(devs) / len(devs),
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


def evaluate_record(spec: StrategySpec) -> tuple[SimRecord, float]:
    """Run the oracle and both reference evaluators at one grid point.

    Returns the record together with the smallest diagonal entry of the
    4x4 element assembly (0.0 for the one-qubit kind, whose 2x2 assembly
    can leave the density-matrix set near its poles), so callers can flag
    negative diagonals where they would signal an assembly inconsistency.
    """
    reduced = simulate_reduced(spec)
    c_sim = l1_coherence(reduced)
    c_r = relative_entropy_coherence(reduced)
    c_closed = closed_form_l1(spec)
    if spec.kind == ONE_QUBIT:
        sigma, c_appendix = elementwise_reduced_one_qubit(
            spec.x, spec.gate.theta, spec.gate.phi, spec.n_uses
        )
        min_diag = 0.0
    else:
        sigma, c_appendix = elementwise_reduced_two_qubit(
            spec.x, spec.gate.theta, spec.gate.phi, spec.n_uses
        )
        min_diag = float(np.diag(sigma).real.min())
    record = SimRecord(
        kind=spec.kind,
        x=spec.x,
        theta=spec.gate.theta,
        phi=spec.gate.phi,
        n_uses=spec.n_uses,
        c_l1_sim=c_sim,
        c_r_sim=c_r,
        c_l1_closed=c_closed,
        c_l1_appendix=c_appendix,
        deviation_closed=abs(c_sim - c_closed),
        deviation_appendix=abs(c_sim - c_appendix),
    )
    return record, min_diag


def default_grid(kinds: Iterable[StrategyKind] = (ONE_QUBIT, TWO_QUBIT)):
    """Default cross-validation grid: 11 x-values, 64 angles, two phases, N 1..4."""
    xs = [round(0.1 * i, 10) for i in range(11)]
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    phis = (0.0, math.pi / 4.0)
    ns = (1, 2, 3, 4)
    specs = []
    for kind in kinds:
        for x in xs:
            for theta in thetas:
                for phi in phis:
                    for n in ns:
                        specs.append(StrategySpec(kind, x, n, GateParams(theta, phi)))
    return specs


def discrepancy_report(specs: Iterable[StrategySpec]) -> DiscrepancyReport:
    """Evaluate every grid point and summarize deviations per formula.

    The simulation is the ground truth; deviations quantify the
    reference formulas.  Assembled element matrices with a diagonal entry below
    -1e-10 are flagged rather than clamped.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("discrepancy grid must not be empty")
    records = []
    flags = []
    worst_negative = 0.0
    for spec in specs:
        record, min_diag = evaluate_record(spec)
        records.append(record)
        worst_negative = min(worst_negative, min_diag)
    if worst_negative < -1e-10:
        flags.append(
            "two-qubit element assembly produced a negative diagonal entry "
            f"({worst_negative:.3e})"
        )
    return DiscrepancyReport(tuple(records), tuple(flags))
