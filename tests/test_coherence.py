"""The coherence measures as the simulation kernel computes them.

The kernel's measure stage (``strategies._measures``) takes the l1 norm of
coherence and the relative entropy of coherence S(dephased) - S(sigma),
in bits, of a reduced state sigma = V V^dagger, where V[system, ancilla]
holds the amplitudes of a pure system-ancilla state with a qubit
ancilla.  The dephased state is the diagonal of sigma, so its entropy is
the Shannon entropy of the diagonal; S(sigma) comes from the spectrum of
the 2x2 ancilla Gram matrix V^dagger V, which sigma shares.  These tests
feed chosen states V to that measure stage.
"""

import numpy as np
import pytest

from ybc import strategies
from ybc.strategies import ONE_QUBIT, TWO_QUBIT

from reference import batched_grid

PLUS = np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2)  # |+>|0>
BELL = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]) / np.sqrt(2)  # Bell pair (x) |0>
MIXED_QUBIT = np.eye(2) / np.sqrt(2)  # system and ancilla maximally entangled


def kernel_terms(v):
    """The kernel's real rows of one reduced state: diagonal, upper re and im, Gram entries."""
    v = np.asarray(v, dtype=complex)
    sigma, gram = v @ v.conj().T, v.conj().T @ v
    rows, cols = np.triu_indices(v.shape[0], 1)
    upper = sigma[rows, cols]
    return np.concatenate(
        (sigma.diagonal().real, upper.real, upper.imag,
         gram.diagonal().real, [gram[0, 1].real, gram[0, 1].imag])
    )[:, None]


def kernel_measures(v):
    """(c_l1, c_r) of the kernel's measure stage on the state with amplitudes v."""
    kind = ONE_QUBIT if len(v) == 2 else TWO_QUBIT
    c_l1, c_r = strategies._measures(kind, kernel_terms(v))
    return c_l1.item(), c_r.item()


def kernel_entropy(v):
    """The von Neumann entropy of V V^dagger, from the kernel's Gram spectrum."""
    g00, g11, g01_re, g01_im = kernel_terms(v)[-4:]
    lam = strategies._pair_spectrum(g00, g11, g01_re, g01_im)
    return strategies._entropy_bits(np.clip(lam, 0.0, None)).item()


def random_state(rng, dim):
    v = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    return v / np.linalg.norm(v)


def dephased_qubit(v):
    """Amplitudes whose reduced state is the diagonal of a qubit's V V^dagger."""
    return np.diag(np.linalg.norm(v, axis=1))


def is_incoherent(v, tol=1e-10):
    return kernel_measures(v)[0] <= tol


class TestDephase:
    def test_diagonal_unchanged(self):
        # Dephasing leaves a diagonal state as it is, so both measures read 0.
        c_l1, c_r = kernel_measures(np.diag(np.sqrt([0.3, 0.7])))
        assert c_l1 == 0.0
        assert c_r <= 1e-15

    def test_maximally_coherent_qubit(self):
        # |+> dephases to I/2, whose entropy is 1 bit; |+> itself has none.
        assert abs(kernel_measures(PLUS)[1] - 1.0) <= 1e-15


class TestVonNeumannEntropy:
    def test_pure_state_is_zero(self):
        assert kernel_entropy(BELL) <= 1e-12

    def test_maximally_mixed_qubit_is_one(self):
        assert abs(kernel_entropy(MIXED_QUBIT) - 1.0) <= 1e-12

    def test_uniform_four_level_is_two(self):
        # The Shannon term of a uniform four-level diagonal.
        assert abs(strategies._entropy_bits(np.full(4, 0.25)) - 2.0) <= 1e-12

    def test_trace_check(self):
        with pytest.raises(ValueError, match="trace"):
            kernel_measures(np.eye(2))


class TestL1Coherence:
    def test_diagonal_state(self):
        assert kernel_measures(np.diag(np.sqrt([0.2, 0.8])))[0] == 0.0

    def test_maximally_coherent_qubit(self):
        assert abs(kernel_measures(PLUS)[0] - 1.0) <= 1e-12

    def test_one_qubit_strategy_input(self):
        # At theta = pi/2 the channel is the identity, so the kernel reads
        # the input's reduced state: l1 coherence 2 sqrt(x (1 - x)).
        xs = np.array([0.1, 0.3, 0.5, 0.9])
        c_l1, _ = batched_grid(ONE_QUBIT, xs, [np.pi / 2], 0.0, 1)
        assert np.abs(c_l1[:, 0] - 2.0 * np.sqrt(xs * (1 - xs))).max() <= 1e-12


class TestRelativeEntropyCoherence:
    def test_diagonal_state(self):
        assert kernel_measures(np.diag(np.sqrt([0.4, 0.6])))[1] == 0.0

    def test_maximally_coherent_qubit(self):
        assert abs(kernel_measures(PLUS)[1] - 1.0) <= 1e-12

    def test_bell_state(self):
        assert abs(kernel_measures(BELL)[1] - 1.0) <= 1e-12


class TestIsIncoherent:
    def test_maximally_mixed(self):
        assert is_incoherent(MIXED_QUBIT)

    def test_bell_state(self):
        assert not is_incoherent(BELL)

    def test_dephased_anything(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            assert is_incoherent(dephased_qubit(random_state(rng, 2)))


class TestMeasureProperties:
    """Random-state property checks for both quantifiers."""

    def test_bounds_and_zero_iff_incoherent(self):
        rng = np.random.default_rng(11)
        conjecture_violations = []
        for i in range(200):
            dim = 2 if i % 2 == 0 else 4
            v = random_state(rng, dim)
            c_l1, c_r = kernel_measures(v)
            assert c_l1 >= 0.0
            assert 0.0 <= c_r <= np.log2(dim) + 1e-12
            assert c_l1 <= dim - 1 + 1e-12
            # zero iff incoherent, at matching tolerance
            sigma = v @ v.conj().T
            off = np.abs(sigma - np.diag(sigma.diagonal())).max()
            assert (c_l1 <= 1e-10) == (off <= 1e-10)
            if dim == 2:
                assert kernel_measures(dephased_qubit(v))[0] == 0.0
            # recorded comparison: c_l1 >= c_r holds on every state seen so
            # far, but it is conjectural, so violations are flagged loudly
            # instead of asserted.
            if c_l1 < c_r - 1e-10:
                conjecture_violations.append((dim, c_l1, c_r))
        if conjecture_violations:
            print(f"\nWARNING: l1 >= relative-entropy comparison violated at "
                  f"{len(conjecture_violations)} states: {conjecture_violations[:3]}")

    def test_diagonal_unitary_channels_do_not_increase_coherence(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            v = random_state(rng, 4)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
            c_l1, c_r = kernel_measures(v)
            rotated_l1, rotated_r = kernel_measures(phases[:, None] * v)
            assert rotated_l1 <= c_l1 + 1e-10
            assert rotated_r <= c_r + 1e-10

    def test_l1_invariant_under_basis_permutation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            v = random_state(rng, 4)
            permuted = v[rng.permutation(4)]
            assert abs(kernel_measures(permuted)[0] - kernel_measures(v)[0]) <= 1e-12

    def test_l1_is_basis_dependent(self):
        # A Hadamard rotation turns the incoherent |0><0| into the
        # maximally coherent state, so l1 is not unitarily invariant.
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert kernel_measures(v)[0] == 0.0
        assert kernel_measures(h @ v)[0] > 0.99
