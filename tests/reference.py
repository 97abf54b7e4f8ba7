"""The test-side reference: R(theta, phi)^N on each strategy's input at 40 digits.

Every test that pins the simulation kernel to a value reads that value
here.  The reference follows the definition step by step, in mpmath:
R(theta, phi)^N by repeated squaring, applied to the input (on the last
two qubits for the two-qubit kind), then the ancilla, the last qubit,
traced out.  ``batched_grid`` reads the kernel's (c_l1, c_r) on one
(x, theta) plane, and ``kernel_spectrum`` and ``kernel_reduced_state``
read the kernel's side of the spectrum and entry pins, the latter with
every term weighted in every row (``three_term_weighting``).
``einsum_terms`` is the kernel's per-plane terms as complex matrices and
einsum, which the kernel's real, batched builder must equal bit for bit.
"""

from unittest import mock

import mpmath
import numpy as np

from ybc import braid_ybe, strategies
from ybc.strategies import ONE_QUBIT, TWO_QUBIT


def batched_grid(kind, xs, thetas, phi, n):
    """The simulation kernel over an (x, theta) grid at fixed phi and N.

    Returns (c_l1, c_r) arrays of shape (len(xs), len(thetas)) from the
    one-plane walk of ``strategies.grid_blocks``.
    """

    def measures(kind, terms, x, *plane):
        return strategies._weighted_measures(kind, terms, x)

    blocks = strategies.grid_blocks(kind, xs, thetas, [phi], [n], measures)
    values = np.concatenate(list(blocks))
    return values[:, :, 0, 0], values[:, :, 0, 1]


def mpmath_reference(kind, x, theta, phi, n):
    """(c_l1, c_r, spectrum, sigma) of the reduced state, at 40 digits.

    The spectrum is the reduced state's two largest eigenvalues, ascending
    (the state has rank at most 2); sigma is the reduced state rounded to
    a complex numpy array.
    """
    mp = mpmath.mp
    with mp.workdps(40):
        x, theta, phi = mp.mpf(x), mp.mpf(theta), mp.mpf(phi)
        ep, em = mp.expj(phi), mp.expj(-phi)
        s = mp.matrix(
            [[0, ep, 1j * ep, 0], [em, 0, 0, ep], [-1j * em, 0, 0, 1j * ep], [0, em, -1j * em, 0]]
        ) / mp.sqrt(2)
        rn = (mp.sin(theta) * mp.eye(4) + 1j * mp.cos(theta) * s) ** n
        low, high = mp.sqrt(1 - x), mp.sqrt(x)
        if kind == ONE_QUBIT:  # low |00> + high |10>
            evolved = [low * rn[i, 0] + high * rn[i, 2] for i in range(4)]
        else:  # low |0>|10> + high |1>|00>
            evolved = [low * rn[i, 2] for i in range(4)] + [high * rn[i, 0] for i in range(4)]
        ds = len(evolved) // 2
        sigma = mp.matrix(ds, ds)
        for r in range(ds):
            for c in range(ds):
                sigma[r, c] = sum(evolved[2 * r + a] * mp.conj(evolved[2 * c + a]) for a in (0, 1))
        lam = sorted(mp.eighe(sigma, eigvals_only=True))

        def entropy(values):
            return -sum(v * mp.log(v, 2) for v in values if v > 0)

        c_l1 = sum(abs(sigma[r, c]) for r in range(ds) for c in range(ds) if r != c)
        c_r = entropy([mp.re(sigma[r, r]) for r in range(ds)]) - entropy(lam)
        entries = [[complex(sigma[r, c]) for c in range(ds)] for r in range(ds)]
        return float(c_l1), float(c_r), [float(v) for v in lam[-2:]], np.array(entries)


def kernel_spectrum(kind, x, theta, phi, n):
    """The eigenvalue pair of the ancilla Gram matrix that the kernel forms at one point."""
    spectra = []
    pair_spectrum = strategies._pair_spectrum

    def recording(*gram):
        lam = pair_spectrum(*gram)
        spectra.append(lam[:, 0, 0].tolist())
        return lam

    with mock.patch.object(strategies, "_pair_spectrum", recording):
        batched_grid(kind, [x], [theta], phi, n)
    (lam,) = spectra
    return lam


def three_term_weighting(terms, x):
    """((1-x) f(A, A) + x f(B, B)) + sqrt(x(1-x)) cross: every term in every row.

    ``strategies._weighted_measures`` skips the terms that cannot reach a
    row, and must equal this wherever it is nonzero.
    """
    same_a, same_b, cross = terms
    return (1.0 - x) * same_a + x * same_b + np.sqrt(x * (1.0 - x)) * cross


def kernel_reduced_state(kind, x, theta, phi, n):
    """The reduced state that the kernel forms at one point, as a complex array.

    Weights the kernel's per-theta terms at x by ``three_term_weighting``,
    and sets the diagonal and upper entries they hold.
    """
    terms = strategies._theta_terms(kind, np.array([[float(theta)]]), [(phi, n)])
    values = three_term_weighting([term[0] for term in terms], x)[:, 0, 0]
    ds = strategies._SYSTEM_DIM[kind]
    rows, cols = np.triu_indices(ds, 1)
    upper = values[ds : ds + rows.size] + 1j * values[ds + rows.size : ds + 2 * rows.size]
    sigma = np.diag(values[:ds]).astype(complex)
    sigma[rows, cols], sigma[cols, rows] = upper, upper.conj()
    return sigma


def einsum_terms(kind, theta, phi, n):
    """One plane's kernel terms, (same_a, same_b, cross), each of shape (row,) + theta.shape.

    The columns A and B of R^N (or of I (x) R^N) as complex matrices, with
    I (x) S from ``np.block``, and each term row from complex einsum.
    """
    cos_na, sin_na = strategies._power_coefficients(theta, int(n))
    support = strategies._INPUT_SUPPORT[kind]
    s = braid_ybe._s(float(phi))
    if kind == TWO_QUBIT:
        s = np.block([[s, np.zeros_like(s)], [np.zeros_like(s), s]])
    j0, j1 = support
    columns = (1j * sin_na)[..., None, None] * s[:, support]
    columns[..., j0, 0] += cos_na
    columns[..., j1, 1] += cos_na
    ds = strategies._SYSTEM_DIM[kind]
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
