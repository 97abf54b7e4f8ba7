"""Two channel-concatenation strategies and their coherence dynamics.

One-qubit strategy: the input is (sqrt(1-x)|0> + sqrt(x)|1>) (x) |0>, and
the gate R(theta, phi) acts on both qubits N times:

    sigma_SA = R^N rho_SA (R^dagger)^N,   sigma_S = Tr_A sigma_SA.

Two-qubit strategy: the input is (sqrt(1-x)|01> + sqrt(x)|10>) (x) |0>
on qubits (S1, S2, A), and the gate acts as I (x) R on (S2, A) only:

    sigma_S = Tr_A [ (I (x) R)^N rho_SA (I (x) R^dagger)^N ].

The simulation kernel (``grid_blocks``, which every grid command walks)
computes these reduced states in closed form over (x, theta, phi, N) grids.
S(phi)^2 = I, so R^N = cos(N a) I + i sin(N a) S with a = pi/2 - theta;
the evolved state is cos(N a) psi + i sin(N a) S psi, with N a taken
exactly (a quarter-turn table on N mod 4 and Dekker's two-product for
N theta).  The l1 measure sums the off-diagonal moduli of the reduced
state, and the entropy takes the closed-form eigenvalues of the 2x2
ancilla Gram matrix, which the reduced state of a pure global state
shares (Schmidt decomposition).  The tests pin the kernel against a
40-digit mpmath evaluation of R^N on the input.

The module also evaluates the reference formulas of each kind: a
closed-form coherence (``closed_form_coherence``) and an element-wise
assembly of the reduced state (``elementwise_reduced``).  Each has one
body that broadcasts over x and theta, which ``ybc compare``
(``compare_columns`` and ``DeviationSummary``) evaluates on whole planes
to quantify where each formula agrees with the simulation.  The
evaluators are kept exactly as the formulas are stated, on purpose: where
a reference expression disagrees with the simulation, the summary
documents it rather than patching the formula.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterator, Literal, NamedTuple

import numpy as np

from .braid_ybe import _s
from .coherence import DEFAULT_TOL, EIG_CLAMP
from .linalg import _finite, _positive_int

StrategyKind = Literal["one", "two"]

ONE_QUBIT: StrategyKind = "one"
TWO_QUBIT: StrategyKind = "two"

# The element formulas carry sec^2/csc^2 factors that blow up where
# cos(N theta) (odd N) or sin(N theta) (even N) vanishes; inside this
# window the evaluator switches to the analytic limit, which is the
# identity channel.
POLE_WINDOW = 1e-8

# The largest deviation at which the compare summary says that a reference
# formula matches the simulation.
MATCH_TOL = 1e-10


# Basis indices of the two nonzero input amplitudes, sqrt(1-x) and sqrt(x):
# |00> and |10> of (S, A), and |010> and |100> of (S1, S2, A).
_INPUT_SUPPORT = {ONE_QUBIT: [0, 2], TWO_QUBIT: [2, 4]}


def _check_points(kind, x: np.ndarray, theta: np.ndarray, phis, ns) -> None:
    """Validate a whole grid once: kind, x in [0, 1], finite angles, each phi and N.

    N must be at most 2**53, or the parity taken from the int and the angles
    from its rounded float disagree.  2 N theta, the largest product that
    any formula forms, must be finite too: beyond it the sines turn into NaN.
    """
    if kind not in (ONE_QUBIT, TWO_QUBIT):
        raise ValueError(f"unknown strategy kind {kind!r}")
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("x values must lie in [0, 1]")
    _finite(theta, "theta")
    largest = float(np.max(np.abs(theta), initial=0.0))
    for phi in phis:
        _finite(phi, "phi")
    for n in ns:
        _positive_int(n, "n_uses")
        if n > 2**53:
            raise ValueError(f"N must be at most 2**53, got {n}")
        if not math.isfinite(2.0 * n * largest):
            raise ValueError(f"2 N theta must be finite, got N={n} and |theta| up to {largest!r}")


def _split(a):
    """Veltkamp's split of a into hi + lo, each with at most 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _power_coefficients(theta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(N a) and sin(N a), a = pi/2 - theta, so that R^N = cos(N a) I + i sin(N a) S.

    N a = N pi/2 - N theta.  The N pi/2 part is exact as a quarter-turn
    table on N mod 4.  N theta is taken exactly as p + e with Dekker's
    two-product, and sin(N theta), cos(N theta) are the angle sums of p and
    e: rounding N theta to p alone would cost |e| <= ulp(p)/2, about 5e-7
    at N = 10^9.
    """
    # Split theta's mantissa, so that no partial product overflows.
    mantissa, exponent = np.frexp(theta)
    theta_hi, theta_lo = (np.ldexp(part, exponent) for part in _split(mantissa))
    n_hi, n_lo = _split(float(n))
    p = n * theta
    e = ((n_hi * theta_hi - p) + n_hi * theta_lo + n_lo * theta_hi) + n_lo * theta_lo
    sin_p, cos_p, sin_e, cos_e = np.sin(p), np.cos(p), np.sin(e), np.cos(e)
    sin_nt = sin_p * cos_e + cos_p * sin_e
    cos_nt = cos_p * cos_e - sin_p * sin_e
    quarter_turns = {
        0: (cos_nt, -sin_nt),
        1: (sin_nt, cos_nt),
        2: (-cos_nt, sin_nt),
        3: (-sin_nt, -cos_nt),
    }
    return quarter_turns[n % 4]


def _support_columns(kind, phi: float) -> np.ndarray:
    """The columns of S(phi), or of I (x) S(phi), at the input's two nonzero amplitudes."""
    s = _s(phi)
    if kind == TWO_QUBIT:
        s = np.block([[s, np.zeros_like(s)], [np.zeros_like(s), s]])
    return s[:, _INPUT_SUPPORT[kind]]


def _pair_spectrum(g00, g11, g01_re, g01_im) -> np.ndarray:
    """The eigenvalues of the Hermitian 2x2 matrices [[g00, g01], [g01*, g11]].

    Returns them stacked along a new first axis, the smaller first.
    """
    half, gap = 0.5 * (g00 + g11), 0.5 * (g00 - g11)
    radius = np.sqrt(gap**2 + g01_re**2 + g01_im**2)
    return np.stack((half - radius, half + radius))


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the first axis, 0 log 0 = 0, for p already clamped to >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0, p * np.log2(p), 0.0).sum(axis=0)


# The dimension of the reduced system state of each kind.
_SYSTEM_DIM = {ONE_QUBIT: 2, TWO_QUBIT: 4}


def _theta_terms(kind, theta, phi, n):
    """The per-theta terms of the kernel: f(A, A), f(B, B) and f(A, B) + f(B, A).

    The reduced state of each strategy in closed form (see the module
    docstring).  The input's amplitudes sqrt(1-x) and sqrt(x) select two
    columns A and B of R^N (or of I (x) R^N), built per theta from two
    columns of S, and the evolved state is
    sqrt(1-x) A + sqrt(x) B.  As a (system, ancilla) matrix V it gives the
    reduced state sigma = V V^dagger and the ancilla Gram matrix
    V^dagger V, both quadratic in the amplitudes:

        (1-x) f(A, A) + x f(B, B) + sqrt(x(1-x)) (f(A, B) + f(B, A)).

    So each of their entries is three per-theta terms, which
    ``_weighted_measures`` weights per x.  Each term holds real rows along
    a new first axis: of Tr_A p q^dagger the diagonal and the upper
    entries' real and imaginary parts, then g00, g11, Re g01, Im g01 of
    the Gram matrix p^dagger q.
    """
    cos_na, sin_na = _power_coefficients(theta, int(n))
    j0, j1 = _INPUT_SUPPORT[kind]
    columns = (1j * sin_na)[..., None, None] * _support_columns(kind, float(phi))
    columns[..., j0, 0] += cos_na
    columns[..., j1, 1] += cos_na
    ds = _SYSTEM_DIM[kind]
    a, b = (columns[..., k].reshape(columns.shape[:-2] + (ds, 2)) for k in (0, 1))
    span, (rows, cols) = np.arange(ds), np.triu_indices(ds, 1)

    def terms(p, q):
        sigma = np.einsum("...sa,...ra->sr...", p, q.conj())
        gram = np.einsum("...sa,...sb->ab...", p.conj(), q)
        upper, g01 = sigma[rows, cols], gram[0, 1:]
        return np.concatenate(
            (sigma[span, span].real, upper.real, upper.imag,
             gram[[0, 1], [0, 1]].real, g01.real, g01.imag)
        )

    return terms(a, a), terms(b, b), terms(a, b) + terms(b, a)


def _weighted_measures(kind, terms, x):
    """(c_l1, c_r) at x from the per-theta ``terms`` of ``_theta_terms``.

    A reduced state whose trace is off 1 by more than
    ``coherence.DEFAULT_TOL``, or that has an eigenvalue below
    ``-coherence.EIG_CLAMP``, raises ValueError; smaller negatives are
    clamped to 0.  Returns arrays in the broadcast shape of x and the
    terms' trailing axes.
    """
    ds = _SYSTEM_DIM[kind]
    upper = ds * (ds - 1) // 2
    same_a, same_b, cross = terms
    # The real rows, weighted in place: one temporary of the (x, theta)
    # shape at a time.
    values = (1.0 - x) * same_a
    values += x * same_b
    values += np.sqrt(x * (1.0 - x)) * cross
    diag, upper_re, upper_im, gram = np.split(values, np.cumsum([ds, upper, upper]))
    trace_error = np.abs(diag.sum(axis=0) - 1.0)
    if not np.all(trace_error <= DEFAULT_TOL):
        raise ValueError(
            f"reduced state trace is off 1 by {float(trace_error.max())!r}, "
            f"expected within {DEFAULT_TOL}"
        )
    c_l1 = 2.0 * np.sqrt(upper_re**2 + upper_im**2).sum(axis=0)
    lam = _pair_spectrum(*gram)
    if lam.min() < -EIG_CLAMP:
        raise ValueError(f"reduced state has a negative eigenvalue: {float(lam.min())!r}")
    shannon = _entropy_bits(np.clip(diag, 0.0, None))
    c_r = np.clip(shannon - _entropy_bits(np.clip(lam, 0.0, None)), 0.0, None)
    return c_l1, c_r


# The most points, summed over the (phi, N) planes of a grid, that
# ``grid_blocks`` evaluates in one block of x rows.  On the 101 x 256 x 12
# plane two-qubit sweep grid (2 vCPUs; the walk's median over 15
# interleaved in-process runs, and the peak RSS of the whole sweep in
# fresh processes), 2**14 took 84 ms and 33.1 MB, 2**15 76 ms and 34.0 MB,
# 2**16 73 ms and 36.2 MB, and 2**17 77 ms and 39.2 MB.  2**15 is the
# smallest budget that keeps that speed; a 2**15-point block of a sweep's
# four value columns is 1 MB.
_BLOCK_POINTS = 2**15


def grid_blocks(kind, xs, thetas, phis, ns, columns) -> Iterator[np.ndarray]:
    """Walk an (x, theta, phi, N) grid in blocks of x rows that span every plane.

    The grid is validated, and the per-theta kernel terms of each (phi, N)
    plane are built, once.  Then, for each block of x rows, ``columns(kind,
    terms, x, theta, phi, n)`` gives the value columns of each plane at the
    block's x (a column) and every theta (a row), and the block is yielded
    as one array values[ix, it, plane, column], the planes phi outer.  The
    blocks are even and hold at most ``_BLOCK_POINTS`` points over all
    planes (one x row if a row holds more), so the working memory does not
    grow with the number of x values.  The walk keeps no reference to a
    block it has yielded, so a caller that drops each block before asking
    for the next holds one block at a time.  Every value is elementwise in
    x, so the blocks give the same bytes as one evaluation over the whole
    grid.  An empty axis raises ValueError.
    """
    xs = np.asarray(xs, dtype=float)
    theta = np.asarray(thetas, dtype=float)[None, :]
    phis = [float(phi) for phi in phis]
    planes = [(phi, n) for phi in phis for n in ns]
    if 0 in (xs.size, theta.size, len(planes)):
        raise ValueError("the grid must not be empty")
    _check_points(kind, xs, theta, phis, ns)
    terms = [_theta_terms(kind, theta, phi, n) for phi, n in planes]
    rows = max(1, _BLOCK_POINTS // max(1, theta.size * len(planes)))
    for x in np.array_split(xs[:, None], max(1, math.ceil(xs.size / rows))):
        yield _block(kind, terms, x, theta, planes, columns)


def _block(kind, terms, x, theta, planes, columns) -> np.ndarray:
    """One block of ``grid_blocks``: each plane's columns written into their slots.

    The block is allocated once, at the first plane's column count.  Built
    in a call of its own, so that no local of the walk holds a block, or a
    plane's columns, once the block has been yielded.
    """
    block = None
    for plane, (plane_terms, (phi, n)) in enumerate(zip(terms, planes)):
        values = columns(kind, plane_terms, x, theta, phi, n)
        if block is None:
            block = np.empty((x.size, theta.size, len(planes), len(values)))
        for column, value in enumerate(values):
            block[:, :, plane, column] = value
        # Freed before the next plane's columns are computed.
        del values, value
    return block


def sweep_columns(kind, terms, x, theta, phi: float, n: int) -> tuple[np.ndarray, ...]:
    """The value columns of ``ybc sweep`` for ``grid_blocks``.

    c_l1 and c_r of the kernel, the closed form and its deviation from the
    kernel's c_l1.
    """
    c_l1, c_r = _weighted_measures(kind, terms, x)
    closed = _closed_form_l1(kind, x, theta, phi, n)
    return c_l1, c_r, closed, np.abs(c_l1 - closed)


# ---------------------------------------------------------------------------
# Reference closed forms and element-wise assemblies, evaluated as stated.
# ---------------------------------------------------------------------------


# Each reference formula is written once, over broadcastable x and theta
# arrays at fixed phi and N: compare evaluates it on whole planes.  The two
# public evaluators validate their points and give x and theta a leading
# axis, so that even one point goes through numpy's array loops, as on a
# plane, and its value is bitwise its plane entry.


def _validated(kind, x, theta, phi: float, n) -> tuple[np.ndarray, np.ndarray]:
    """Validate the points and return x and theta with a leading axis."""
    x, theta = (np.asarray(v, dtype=float)[None] for v in (x, theta))
    _check_points(kind, x, theta, (phi,), (n,))
    return x, theta


def _eps(x):
    return np.sqrt(2.0 * x * (1.0 - x))


def _alpha(x, sin_2nt):
    return 4.0 * (1.0 - 2.0 * x) * sin_2nt


def _closed_form_l1(kind, x, theta, phi: float, n: int) -> np.ndarray:
    """``closed_form_coherence`` over broadcastable x and theta, without validation."""
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


def closed_form_coherence(kind, x, theta, phi: float, n: int) -> np.ndarray:
    """The reference closed-form l1 coherence of a strategy, with odd and even N branches.

    With eps = sqrt(2 x (1 - x)), the one-qubit form is

        C = (1/2) sqrt|Delta + 4 delta eps^2 cos^4(N theta)|

    for odd N (sin^4 for even N), with Delta = alpha^2/8 + alpha beta eps
    + 2 eps^2 gamma and

        alpha = 4 (1 - 2x) sin(2 N theta)
        beta  = sin(phi) cos^2(N theta) + cos(phi) (2 - 3 cos^2(N theta))
        gamma = -4 sin^2(N theta) cos(2 N theta)
        delta = 1 - sin(2 phi).

    The two-qubit form, independent of phi, is

        C = (1/2) [2b + sqrt(2) eps (2b + sqrt|a + 5 sin^4(N theta)| + cos^2(N theta))]

    for odd N, with sin and cos swapped for even N, where
    a = (-1)^(N+1) cos(2 N theta) and b = |sin(2 N theta)|/sqrt(2).

    x and theta broadcast against each other (a scalar pair gives one
    value); phi and N are one value each.  ValueError for an unknown kind,
    an x outside [0, 1], a non-finite angle or 2 N theta, or an N that is
    not an int in [1, 2**53].
    """
    x, theta = _validated(kind, x, theta, phi, n)
    return _closed_form_l1(kind, x, theta, phi, n)[0]


def _elements(kind, x, theta, phi: float, n: int):
    """(diagonal, upper): the entries of an element assembly, the upper ones row by row.

    One qubit: base is cos(N theta) for odd N and sin(N theta) for even N.
    Inside ``POLE_WINDOW`` of a zero of base the elements are the analytic
    limit, the identity channel's.  A pole whose companion sin(2 N theta)
    does not vanish would be a genuine divergence and raises, but that
    raise is only a guard against rounding: sin(2 N theta) = 2 sin(N theta)
    cos(N theta), so |sin(2 N theta)| <= 2 |base| < 2 ``POLE_WINDOW``
    wherever the pole mask holds, and only a last-bit difference between
    the two evaluated sines could break that bound.
    """
    odd = n % 2 == 1
    eps = _eps(x)
    if kind == TWO_QUBIT:
        s2, c2 = np.sin(n * theta) ** 2, np.cos(n * theta) ** 2
        chain = (-1.0) ** n / (2.0 * math.sqrt(2.0)) * np.exp(1j * phi) * np.sin(2.0 * n * theta)
        bracket = (2.0 + 1j) * s2 - 1j if odd else (2.0 - 1j) * c2 + 1j
        root = np.sqrt(x * (1.0 - x))
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
    s11 = 0.5 * (1.0 + alpha * inv_sq / 8.0 - eps * math.cos(phi) * sin2nt)
    bracket = eps * (2.0 - (2.0 - 1j + np.exp(2j * phi)) * trig2)
    alpha_term = math.sqrt(2.0) * alpha * np.exp(1j * phi) / 4.0
    s12 = 0.5 * (bracket + alpha_term) if odd else 0.5 * (bracket - alpha_term)
    s11 = np.where(pole, 1.0 - x, s11)
    s12 = np.where(pole, np.sqrt(x * (1.0 - x)), s12)
    finite = np.isfinite(s11) & np.isfinite(s12.real) & np.isfinite(s12.imag)
    if not np.all(finite):
        first = int(np.argmin(finite))
        x, theta = (float(np.broadcast_to(v, np.shape(finite)).flat[first]) for v in (x, theta))
        raise ValueError(
            f"non-finite element at x={x!r}, theta={theta!r}, phi={phi!r}, N={n}"
        )
    return (s11, 1.0 - s11), (s12,)


def _off_diagonal_l1(upper) -> np.ndarray:
    """The l1 coherence of a Hermitian assembly from its upper off-diagonal entries."""
    return 2.0 * sum(np.abs(z) for z in upper)


def elementwise_reduced(kind, x, theta, phi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the reference element formulas of the reduced state, and their l1 value.

    One qubit, 2x2: the sigma_11 formula carries a sec^2(N theta) (odd N)
    or csc^2(N theta) (even N) factor whose companion alpha vanishes at the
    pole.  Inside ``POLE_WINDOW`` of a pole the evaluator returns the
    analytic limit, the identity-channel reduced state (at every pole the
    N-fold gate is +/- the identity); a pole with a non-vanishing companion
    would be a genuine divergence and raises instead of returning NaN or
    Inf.  sigma_22 = 1 - sigma_11.

    Two qubits, 4x4: the diagonals follow the piecewise forms, with
    sigma_44 fixed by trace completion.  The off-diagonal family
    proportional to sigma_12 is resolved element by element, so that the
    (1-x)/x ratio chains stay finite at x = 0 and x = 1.

    x and theta broadcast as in ``closed_form_coherence``, which also lists
    the ValueErrors.  Returns (sigma, 2 * the sum of the upper off-diagonal
    moduli), sigma on the last two axes.  sigma is a plain complex array,
    not a validated density matrix: the formulas are not guaranteed to
    assemble into a positive state.
    """
    x, theta = _validated(kind, x, theta, phi, n)
    diagonal, upper = _elements(kind, x, theta, phi, n)
    entries, ds = np.broadcast_arrays(*diagonal, *upper), len(diagonal)
    span, (rows, cols) = np.arange(ds), np.triu_indices(ds, 1)
    sigma = np.zeros(entries[0].shape + (ds, ds), dtype=complex)
    sigma[..., span, span] = np.stack(entries[:ds], axis=-1)
    sigma[..., rows, cols] = np.stack(entries[ds:], axis=-1)
    sigma[..., cols, rows] = sigma[..., rows, cols].conj()
    return sigma[0], _off_diagonal_l1(upper)[0]


# ---------------------------------------------------------------------------
# Simulation-vs-formula cross validation.
# ---------------------------------------------------------------------------


# The columns of ``compare_columns`` that each ``ybc compare --formula``
# blanks to NaN, by position: the element or the closed-form columns.
DROPPED_COLUMNS = {"all": (), "closed": (2, 4), "elements": (1, 3)}


def compare_columns(kind, terms, x, theta, phi: float, n: int, formula="all") -> list:
    """The value columns of ``ybc compare`` for ``grid_blocks``.

    The five that compare prints, in its CSV order: c_l1 of the kernel, the
    closed form, the element assembly, and the deviations of the two from
    the kernel's c_l1.  Then the lowest diagonal entry of the assembly,
    0.0 for the one-qubit kind.  Every column is computed, so every check
    runs (the kernel's c_r, which is not kept, with its negative-eigenvalue
    check too), and then those that ``formula`` drops are set to NaN.
    """
    c_l1, _, closed, deviation = sweep_columns(kind, terms, x, theta, phi, n)
    diagonal, upper = _elements(kind, x, theta, phi, n)
    appendix = _off_diagonal_l1(upper)
    columns = [c_l1, closed, appendix, deviation, np.abs(c_l1 - appendix)]
    for k in DROPPED_COLUMNS[formula]:
        columns[k] = np.full_like(c_l1, np.nan)
    lowest = reduce(np.minimum, diagonal) if kind == TWO_QUBIT else np.zeros_like(appendix)
    return columns + [lowest]


class FormulaStats(NamedTuple):
    kind: StrategyKind
    formula: str
    parity: str
    count: int
    max_deviation: float
    mean_deviation: float


class DeviationSummary:
    """Max and mean deviation per (kind, formula, parity) of a compare grid.

    ``add`` takes each block of ``grid_blocks`` over ``compare_columns`` as
    it passes, with its kind; ``ns`` are the grid's N values.  NaN
    deviations, blanked by ``--formula``, are skipped.  The sum runs in row
    order, one double at a time (``np.cumsum`` does not sum pairwise), so
    the summary does not depend on the blocks, and it equals a Python
    ``sum`` of the deviations in row order where that sum is not
    compensated (before Python 3.12).  The lowest diagonal entry of the
    element assemblies is kept too: below -1e-10 it is flagged rather than
    clamped.
    """

    def __init__(self, ns):
        self._odd = np.array([n % 2 == 1 for n in ns])
        self._groups = {}  # (kind, formula, parity): (count, max, sum)
        self.worst_negative = 0.0

    def add(self, kind, block: np.ndarray) -> None:
        # The planes run phi outer, N inner.
        odd = np.tile(self._odd, block.shape[2] // self._odd.size)
        for formula, column in (("closed", 3), ("appendix", 4)):
            for parity, keep in (("odd", odd), ("even", ~odd)):
                devs = block[:, :, keep, column]
                devs = devs[np.isfinite(devs)]
                if devs.size:
                    key = (kind, formula, parity)
                    count, largest, total = self._groups.get(key, (0, -math.inf, 0.0))
                    total = float(np.cumsum(np.concatenate(([total], devs)))[-1])
                    largest = max(largest, float(devs.max()))
                    self._groups[key] = (count + devs.size, largest, total)
        self.worst_negative = min(self.worst_negative, float(block[..., -1].min()))

    def stats(self) -> list[FormulaStats]:
        """One entry per (kind, formula, parity) with a finite deviation."""
        rows = []
        for kind in (ONE_QUBIT, TWO_QUBIT):
            for formula in ("closed", "appendix"):
                for parity in ("odd", "even"):
                    if (kind, formula, parity) in self._groups:
                        count, largest, total = self._groups[kind, formula, parity]
                        rows.append(
                            FormulaStats(kind, formula, parity, count, largest, total / count)
                        )
        return rows

    @property
    def flags(self) -> tuple[str, ...]:
        if self.worst_negative < -1e-10:
            return (
                "two-qubit element assembly produced a negative diagonal entry "
                f"({self.worst_negative:.3e})",
            )
        return ()

    def format_summary(self) -> str:
        lines = [
            "formula deviation summary (|simulated - formula| per grid point)",
            f"{'strategy':>8} {'formula':>9} {'parity':>6} {'points':>7} "
            f"{'max dev':>12} {'mean dev':>12}  verdict",
        ]
        for s in self.stats():
            verdict = (
                "matches simulation"
                if s.max_deviation <= MATCH_TOL
                else "deviates from simulation"
            )
            lines.append(
                f"{s.kind:>8} {s.formula:>9} {s.parity:>6} {s.count:>7} "
                f"{s.max_deviation:>12.4e} {s.mean_deviation:>12.4e}  {verdict}"
            )
        for flag in self.flags:
            lines.append(f"flag: {flag}")
        return "\n".join(lines)
