import numpy as np
import pytest

from ybc.braid_ybe import build_s
from ybc.linalg import (
    DensityMatrix,
    PureState,
    dagger,
    eig_hermitian,
    identity,
    kron,
    max_abs_diff,
    partial_trace,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKron:
    def test_identity(self):
        assert max_abs_diff(kron(identity(2), identity(2)), identity(4)) == 0.0

    def test_basis_ordering(self):
        # |0><0| (x) |1><1| must sit at index (1, 1) in the {00,01,10,11} order.
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert max_abs_diff(kron(p0, p1), expected) == 0.0

    def test_associativity(self):
        rng = np.random.default_rng(11)
        r = random_complex(rng, (2, 2))
        lhs = kron(kron(r, identity(2)), X)
        rhs = kron(r, kron(identity(2), X))
        assert max_abs_diff(lhs, rhs) < 1e-13

    def test_mixed_product_law(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert max_abs_diff(lhs, rhs) <= 1e-12


class TestDagger:
    def test_identity(self):
        assert max_abs_diff(dagger(identity(3)), identity(3)) == 0.0

    def test_s_matrix_unitarity(self):
        s = build_s(np.pi / 4)
        assert max_abs_diff(dagger(s) @ s, identity(4)) < 1e-12

    def test_involution(self):
        rng = np.random.default_rng(17)
        a = random_complex(rng, (3, 5))
        assert max_abs_diff(dagger(dagger(a)), a) == 0.0


class TestMaxAbsDiff:
    def test_equal_matrices(self):
        assert max_abs_diff(identity(2), identity(2)) == 0.0

    def test_identity_vs_x(self):
        assert max_abs_diff(identity(2), X) == 1.0

    def test_s_is_hermitian_at_phi_zero(self):
        s = build_s(0.0)
        assert max_abs_diff(s, dagger(s)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            max_abs_diff(identity(2), identity(3))


def bell_state() -> PureState:
    return PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


class TestPartialTrace:
    def test_product_state(self):
        rho = PureState(np.array([1, 0, 0, 0], dtype=complex)).density_matrix((2, 2))
        reduced = partial_trace(rho, [0])
        expected = np.array([[1, 0], [0, 0]], dtype=complex)
        assert max_abs_diff(reduced.mat, expected) == 0.0

    def test_bell_state_is_maximally_mixed(self):
        rho = bell_state().density_matrix((2, 2))
        reduced = partial_trace(rho, [0])
        assert max_abs_diff(reduced.mat, identity(2) / 2) < 1e-12

    def test_three_qubit_ordering(self):
        # Tracing qubit 3 out of |010><010| leaves |01><01|.
        amps = np.zeros(8, dtype=complex)
        amps[2] = 1.0  # |010>
        rho = PureState(amps).density_matrix((2, 2, 2))
        reduced = partial_trace(rho, [0, 1])
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0  # |01>
        assert max_abs_diff(reduced.mat, expected) == 0.0

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_complex(rng, (8, 8))
            mat = g @ g.conj().T
            mat /= np.trace(mat).real
            rho = DensityMatrix(mat, (2, 2, 2))
            for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
                reduced = partial_trace(rho, keep)
                assert abs(np.trace(reduced.mat) - 1.0) <= 1e-12
                assert max_abs_diff(reduced.mat, dagger(reduced.mat)) <= 1e-12

    def test_invalid_subsystem_index(self):
        rho = bell_state().density_matrix((2, 2))
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(rho, [2])

    def test_keep_must_be_strict_subset(self):
        rho = bell_state().density_matrix((2, 2))
        with pytest.raises(ValueError, match="strict subset"):
            partial_trace(rho, [0, 1])
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(rho, [])


class TestEigHermitian:
    def test_maximally_mixed(self):
        assert np.allclose(eig_hermitian(identity(2) / 2), [0.5, 0.5])

    def test_diagonal_ascending(self):
        assert np.allclose(eig_hermitian(np.diag([0.7, 0.3])), [0.3, 0.7])

    def test_bell_state_spectrum(self):
        rho = bell_state().density_matrix((2, 2))
        assert np.allclose(eig_hermitian(rho.mat), [0, 0, 0, 1], atol=1e-12)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="asymmetry"):
            eig_hermitian(bad)

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_complex(rng, (6, 6))
            h = (g + g.conj().T) / 2
            assert abs(eig_hermitian(h).sum() - np.trace(h).real) <= 1e-10


class TestStateValidation:
    def test_pure_state_norm(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_dimension(self):
        with pytest.raises(ValueError, match="power of two"):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_density_matrix_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(bad, (2,))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(identity(2), (2,))

    def test_density_matrix_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="multiply"):
            DensityMatrix(identity(4) / 4, (2, 3))

    def test_density_matrix_rejects_non_finite(self):
        bad = np.array([[np.inf, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(bad, (2,))

    def test_purity_of_pure_and_mixed(self):
        pure = bell_state().density_matrix((2, 2))
        assert abs(pure.purity() - 1.0) < 1e-12
        mixed = DensityMatrix(identity(2) / 2, (2,))
        assert abs(mixed.purity() - 0.5) < 1e-12
