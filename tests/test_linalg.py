import numpy as np
import pytest

from ybc.braid_ybe import build_s
from ybc.linalg import identity, kron, max_abs_diff

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


    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((2, 2), (4, 4)), ((4, 4), (2, 2)), ((1, 1), (8, 8)), ((2, 3), (3, 1))],
    )
    def test_bitwise_equal_to_np_kron(self, shape_a, shape_b):
        rng = np.random.default_rng(19)
        for _ in range(200):
            a, b = random_complex(rng, shape_a), random_complex(rng, shape_b)
            assert kron(a, b).tobytes() == np.kron(a, b).tobytes()

    @pytest.mark.parametrize("shape_a, shape_b", [((2,), (2, 2)), ((2, 2), (2,))])
    def test_rejects_non_matrices(self, shape_a, shape_b):
        with pytest.raises(ValueError, match="two matrices"):
            kron(np.ones(shape_a), np.ones(shape_b))

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((2, 2), (2, 2, 2)), ((3, 4, 4), (2, 2)), ((5, 1, 2, 2), (3, 4, 4)), ((2, 3), (4, 3, 1))],
    )
    def test_stack_entries_are_the_2d_krons(self, shape_a, shape_b):
        rng = np.random.default_rng(29)
        a, b = random_complex(rng, shape_a), random_complex(rng, shape_b)
        stack = kron(a, b)
        lead = np.broadcast_shapes(shape_a[:-2], shape_b[:-2])
        rows, cols = shape_a[-2] * shape_b[-2], shape_a[-1] * shape_b[-1]
        assert stack.shape == lead + (rows, cols)
        a, b = np.broadcast_to(a, lead + shape_a[-2:]), np.broadcast_to(b, lead + shape_b[-2:])
        for k in np.ndindex(lead):
            assert stack[k].tobytes() == kron(a[k], b[k]).tobytes() == np.kron(a[k], b[k]).tobytes()


class TestMaxAbsDiff:
    def test_equal_matrices(self):
        assert max_abs_diff(identity(2), identity(2)) == 0.0

    def test_identity_vs_x(self):
        assert max_abs_diff(identity(2), X) == 1.0

    def test_s_is_hermitian_at_phi_zero(self):
        s = build_s(0.0)
        assert max_abs_diff(s, s.conj().T) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            max_abs_diff(identity(2), identity(3))
        # b broadcasts against a, but the result must keep a's shape.
        stack = build_s(np.linspace(0.0, 1.0, 32))
        assert max_abs_diff(stack @ stack, identity(4)) <= 1e-12
        with pytest.raises(ValueError, match="shape mismatch"):
            max_abs_diff(identity(4), stack)
