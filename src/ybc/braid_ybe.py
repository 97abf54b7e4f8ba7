"""Braid-group gates with a phase parameter and their Yang-Baxterization.

The central object is the 4x4 matrix

    S(phi) = 1/sqrt(2) * [[0,          e^{i phi},   i e^{i phi},  0        ],
                          [e^{-i phi}, 0,           0,            e^{i phi}],
                          [-i e^{-i phi}, 0,        0,          i e^{i phi}],
                          [0,          e^{-i phi}, -i e^{-i phi}, 0        ]]

which is simultaneously unitary, Hermitian and involutive (S^2 = I) and
satisfies the braid relation.  Yang-Baxterizing it gives the one-parameter
unitary family

    R(theta, phi) = sin(theta) I + i cos(theta) S(phi)

equal to (I + i mu S)/sqrt(1 + mu^2) under cos(theta) = mu/sqrt(1 + mu^2).
R solves the Yang-Baxter equation with additive spectral parameters.

A second family comes from the eight-vertex ansatz: the braid matrix
b_(+/-)(q) below has eigenvalues 1 -/+ i, and b + 2x b^{-1}, which is
(1 - x) b + 2x I, solves the Yang-Baxter equation with multiplicative
spectral parameters.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .linalg import _finite, identity, max_abs_diff


def build_s(phi: float | np.ndarray) -> np.ndarray:
    """The unitary, Hermitian, involutive braid matrix S(phi).

    An array of phases gives the C-contiguous stack of shape
    ``phi.shape + (4, 4)``, each matrix bitwise equal to its scalar call.
    ValueError for a non-finite phi.
    """
    return _s(_finite(phi, "phi"))


def _s(phi: float | np.ndarray) -> np.ndarray:
    """``build_s`` for a phi that the caller has already checked."""
    ep = np.exp(1j * phi)
    em = np.exp(-1j * phi)
    s = np.zeros(np.shape(ep) + (4, 4), dtype=complex)
    s[..., 0, 1] = s[..., 1, 3] = ep
    s[..., 0, 2] = s[..., 2, 3] = 1j * ep
    s[..., 1, 0] = s[..., 3, 1] = em
    s[..., 2, 0] = s[..., 3, 2] = -1j * em
    return s / np.sqrt(2.0)


def build_r(theta: float | np.ndarray, phi: float | np.ndarray) -> np.ndarray:
    """R(theta, phi) = sin(theta) I + i cos(theta) S(phi); unitary for all angles.

    Broadcasts like ``build_s``: arrays of angles give the stack of shape
    ``np.broadcast_shapes(theta.shape, phi.shape) + (4, 4)``.
    ValueError, naming the angle, for a non-finite theta or phi.
    """
    theta = _finite(theta, "theta")[..., None, None]
    return np.sin(theta) * identity(4) + 1j * np.cos(theta) * _s(_finite(phi, "phi"))


def yang_baxterize_rational(
    phi: float | np.ndarray, mu: float | np.ndarray
) -> np.ndarray:
    """Rational YBE solution (I + i mu S(phi)) / sqrt(1 + mu^2).

    Equals R(theta, phi) under cos(theta) = mu/sqrt(1+mu^2),
    sin(theta) = 1/sqrt(1+mu^2); tends to i S(phi) as mu -> infinity.
    Broadcasts over ``phi`` and ``mu``: arrays give the stack of shape
    ``np.broadcast_shapes(phi.shape, mu.shape) + (4, 4)``, each matrix
    bitwise its one-point call.
    ValueError for a non-finite phi or mu, or an overflowing 1 + mu^2.
    """
    s = _s(_finite(phi, "phi"))
    mu = _finite(mu, "mu")[..., None, None]
    with np.errstate(over="ignore"):
        hyp = _finite(np.sqrt(1.0 + mu * mu), "sqrt(1 + mu^2)")
    return (identity(4) + 1j * mu * s) / hyp


def build_eight_vertex_b(
    sign: int, q: complex | np.ndarray, normalized: bool = False
) -> np.ndarray:
    """Eight-vertex braid matrix b_(+/-)(q).

    Unnormalized form [[1,0,0,q],[0,1,s,0],[0,-s,1,0],[-1/q,0,0,1]] with
    s = sign; its eigenvalues are 1-i and 1+i, each doubly degenerate.
    With ``normalized`` the matrix is scaled by 1/sqrt(2), which is unitary
    when |q| = 1 (so q = e^{-i phi} for real phi).  It is the x = 0 point of
    ``yang_baxterize_eight_vertex`` and broadcasts over ``q`` as it does.
    """
    return yang_baxterize_eight_vertex(sign, q, 0.0, normalized)


def yang_baxterize_eight_vertex(
    sign: int,
    q: complex | np.ndarray,
    x: float | np.ndarray,
    normalized: bool = False,
) -> np.ndarray:
    """Spectral-parameter family obtained from the eight-vertex braid matrix.

    Unnormalized entries:

        [[1+x, 0,        0,       q(1-x)],
         [0,   1+x,      s(1-x),  0     ],
         [0,   -s(1-x),  1+x,     0     ],
         [-(1-x)/q, 0,   0,       1+x   ]]

    equal to b + 2x b^{-1}, so x = 0 recovers b and x = 1 gives 2I: b's
    eigenvalues 1 +/- i give b^2 - 2b + 2I = 0, so b^{-1} = I - b/2 and
    b + 2x b^{-1} = (1-x) b + 2x I.  No inverse is taken.  The normalized
    variant is cos(t) B + sin(t) B^{-1} with B the 1/sqrt(2)-scaled b,
    cos(t) = 1/sqrt(1+x^2) and sin(t) = x/sqrt(1+x^2).  As B^{-1} =
    sqrt(2) b^{-1}, it is the same entries divided by sqrt(2) sqrt(1+x^2),
    and it is unitary for every real x when |q| = 1.

    ``q`` and ``x`` broadcast: arrays give the stack of shape
    ``np.broadcast_shapes(q.shape, x.shape) + (4, 4)``, each matrix bitwise
    its one-point call.  ValueError for a sign other than +1 or -1, a q that
    is zero or whose q or 1/q is not finite, a non-finite x (or 1 + x^2
    when normalized), and a built entry that overflows, such as q(1-x).
    """
    if sign not in (+1, -1):
        raise ValueError(f"braid sign must be +1 or -1, got {sign!r}")
    s = int(sign)
    q = np.asarray(q, dtype=complex)
    with np.errstate(all="ignore"):
        q_ok = np.isfinite(q) & np.isfinite(1.0 / q)
    if not q_ok.all():
        raise ValueError(f"q must be finite and nonzero, with 1/q finite, got {q!r}")
    x = _finite(x, "spectral parameter x")
    with np.errstate(over="ignore", invalid="ignore"):
        plus, minus = 1 + x, 1 - x
        r = np.zeros(np.broadcast_shapes(q.shape, x.shape) + (4, 4), dtype=complex)
        r[..., 0, 0] = r[..., 1, 1] = r[..., 2, 2] = r[..., 3, 3] = plus
        r[..., 0, 3] = q * minus
        r[..., 1, 2] = s * minus
        r[..., 2, 1] = -s * minus
        # Python's complex division, so that the entry is bitwise -(1-x)/q
        # of Python scalars: numpy's can round the last bit differently.
        r[..., 3, 0] = np.divide(-minus, q, dtype=object)
        if normalized:
            r /= np.sqrt(2.0) * _finite(np.sqrt(1.0 + x * x), "sqrt(1 + x^2)")[..., None, None]
    if not np.isfinite(r).all():
        raise ValueError(f"the built entries must be finite, got q={q!r} and x={x!r}")
    return r


def _embed_two_site(b: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a two-site 4x4 operator, or a stack, at (site, site+1) of n qubits.

    I (x) b (x) I is block diagonal, so b is placed rather than multiplied:
    viewed as a (L, 4, R, L, 4, R) array, with L = 2**site and
    R = 2**(n_sites - site - 2), the operator is b at [i, :, j, i, :, j] for
    each (i, j) and zero elsewhere.  Each nonzero entry is the same double as
    in the Kronecker product with the identities; only exact zeros can differ
    in sign.  ``linalg.kron`` is for genuine products of two operators.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-site operator, got {b.shape}")
    left, right = 2**site, 2 ** (n_sites - site - 2)
    op = np.zeros(b.shape[:-2] + (left, 4, right) * 2, dtype=complex)
    for i, j in np.ndindex(left, right):
        op[..., i, :, j, i, :, j] = b
    return op.reshape(b.shape[:-2] + (2**n_sites,) * 2)


def check_braid_relation(b: np.ndarray) -> float:
    """Residual of b1 b2 b1 = b2 b1 b2 on three qubits; the worst for a stack of b."""
    b1 = _embed_two_site(b, 0, 3)
    b2 = _embed_two_site(b, 1, 3)
    return max_abs_diff(b1 @ b2 @ b1, b2 @ b1 @ b2)


def check_far_commutation(b: np.ndarray) -> float:
    """Residual of far commutation b1 b3 = b3 b1 on four qubits; worst over a stack."""
    b1 = _embed_two_site(b, 0, 4)
    b3 = _embed_two_site(b, 2, 4)
    return max_abs_diff(b1 @ b3, b3 @ b1)


def _ybe_residual(r_u: np.ndarray, r_w: np.ndarray, r_v: np.ndarray) -> float:
    """Residual of R1(u) R2(w) R1(v) = R2(v) R1(w) R2(u) from R(u), R(w), R(v).

    R1 = R (x) I and R2 = I (x) R, placed on three qubits by
    ``_embed_two_site`` like the braid checks' gates; each R is built once
    and feeds both.  Broadcastable stacks of R give the worst residual over
    the stack.
    """
    # Each embedding is made where its product takes it and freed after it.
    # Holding all six at once grew the heap past the allocator's trim
    # threshold, and the page faults of regrowing it took one eight-vertex
    # residual from 0.20 ms to 0.39 ms in-process.
    def r1(r):
        return _embed_two_site(r, 0, 3)

    def r2(r):
        return _embed_two_site(r, 1, 3)

    return max_abs_diff(r1(r_u) @ r2(r_w) @ r1(r_v), r2(r_v) @ r1(r_w) @ r2(r_u))


def check_ybe_additive(
    phi: float | np.ndarray, mu: float | np.ndarray, nu: float | np.ndarray
) -> float:
    """Residual of R1(mu) R2(mu+nu) R1(nu) = R2(nu) R1(mu+nu) R2(mu).

    R is the rational family at the given phi; R1 = R (x) I, R2 = I (x) R.
    Broadcastable arrays of phi, mu and nu give the worst residual over the
    grid.
    """
    return _ybe_residual(*(yang_baxterize_rational(phi, m) for m in (mu, mu + nu, nu)))


def check_ybe_multiplicative(
    builder: Callable[[float | np.ndarray], np.ndarray],
    x: float | np.ndarray,
    y: float | np.ndarray,
) -> float:
    """Residual of R1(x) R2(xy) R1(y) = R2(y) R1(xy) R2(x) for a gate family.

    ``builder`` maps a spectral parameter to a 4x4 matrix, e.g.
    ``lambda t: yang_baxterize_eight_vertex(+1, q, t)``.  A builder that
    broadcasts takes broadcastable arrays of x and y, and the residual is
    then the worst over the grid.
    """
    return _ybe_residual(builder(x), builder(x * y), builder(y))


def build_hamiltonian(
    theta: float | np.ndarray,
    phi: float | np.ndarray,
    gamma: float | np.ndarray = 1.0,
    hbar: float = 1.0,
    step: float = 1e-4,
) -> np.ndarray:
    """Generator H = i hbar (dR/dt) R^dagger of the evolution R(theta + gamma t, phi).

    The time derivative is taken by central finite difference with the given
    step, so the result is Hermitian up to O(step^2) plus roundoff.  The
    analytic value is gamma * hbar * S(phi), which tests use as reference.
    Broadcasts like ``build_r`` over theta, phi and gamma: arrays give the
    stack of shape ``np.broadcast_shapes(theta.shape, phi.shape,
    gamma.shape) + (4, 4)``, each matrix bitwise its one-point call.
    ValueError, naming the argument, for a non-finite theta, phi, gamma or
    hbar or a step that is not positive and finite; ValueError also when
    theta +/- gamma step or the generator overflows.
    """
    theta, phi, gamma, hbar = (
        _finite(value, name)
        for value, name in ((theta, "theta"), (phi, "phi"), (gamma, "gamma"), (hbar, "hbar"))
    )
    if not (_finite(step, "step") > 0):
        raise ValueError(f"step must be positive, got {step!r}")
    overflow = "the generator must be finite: theta +/- gamma step or its scale overflows"
    with np.errstate(over="ignore", invalid="ignore"):
        shift = gamma * step
        plus, minus = theta + shift, theta - shift
        # Checked here, or build_r would name theta for an overflowing shift.
        if not (np.isfinite(plus).all() and np.isfinite(minus).all()):
            raise ValueError(overflow)
        derivative = (build_r(plus, phi) - build_r(minus, phi)) / (2.0 * step)
        r = build_r(theta, phi)
        h = 1j * hbar * derivative @ r.conj().swapaxes(-1, -2)
    if not np.isfinite(h).all():
        raise ValueError(overflow)
    return h
