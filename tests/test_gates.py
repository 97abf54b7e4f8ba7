import math

import numpy as np
import pytest

from ybc import cli, gates
from ybc.braid_ybe import build_s
from ybc.gates import dcnot, equivalence_residuals, local_factors, local_invariants
from ybc.linalg import identity, kron, max_abs_diff

CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
CONTROLLED_PHASE = np.diag([1.0, 1.0, 1.0, np.exp(0.7j)])
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


class TestDcnot:
    def test_action_on_basis_states(self):
        d = dcnot()
        e = np.eye(4, dtype=complex)
        assert max_abs_diff(d @ e[:, 0], e[:, 0]) == 0.0  # |00> -> |00>
        assert max_abs_diff(d @ e[:, 1], e[:, 2]) == 0.0  # |01> -> |10>
        assert max_abs_diff(d @ e[:, 2], e[:, 3]) == 0.0  # |10> -> |11>
        assert max_abs_diff(d @ e[:, 3], e[:, 1]) == 0.0  # |11> -> |01>

    def test_unitary_of_order_three(self):
        d = dcnot()
        assert max_abs_diff(d @ d.conj().T, identity(4)) == 0.0
        assert max_abs_diff(d @ d @ d, identity(4)) == 0.0

    def test_permutation_structure(self):
        d = np.abs(dcnot())
        assert np.allclose(d.sum(axis=0), 1.0)
        assert np.allclose(d.sum(axis=1), 1.0)
        assert np.allclose(d[d > 0], 1.0)

    def test_returns_a_fresh_array(self):
        d = dcnot()
        d[0, 0] = 5.0
        assert dcnot()[0, 0] == 1.0


class TestLocalFactors:
    def test_all_factors_unitary(self):
        for m in local_factors():
            assert max_abs_diff(m @ m.conj().T, identity(2)) <= 1e-12

    def test_d_is_diagonal_with_unit_moduli(self):
        d = local_factors()[3]
        off = d - np.diag(np.diag(d))
        assert np.abs(off).max() == 0.0
        assert np.allclose(np.abs(np.diag(d)), 1.0)


def perturbed_factors():
    """The factors of ``test_perturbed_factor_fails``, A times diag(1, e^{0.1 i})."""
    a, b, c, d = local_factors()
    return a @ np.diag([1.0, np.exp(0.1j)]), b, c, d


class TestEquivalence:
    def test_explicit_phi_zero(self):
        assert equivalence_residuals(0.0) <= 1e-12

    def test_phi_pi_matches_up_to_global_phase(self):
        a, b, c, d = local_factors()
        m = kron(a, b) @ build_s(np.pi) @ kron(c, d)
        assert equivalence_residuals(np.pi) > 1.0  # not equal entrywise
        assert max_abs_diff(m, -dcnot()) <= 1e-12  # equal up to the phase e^{i pi}

    def test_perturbed_factor_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(gates, "local_factors", perturbed_factors)
        # At phi = 0 the residual is about 0.05.
        assert equivalence_residuals(0.0) > 0.02
        assert cli.main(["verify", "--only", "dcnot"]) == 1
        assert capsys.readouterr().out.startswith("[FAIL] dcnot ")

    def test_identity_instead_of_s_fails(self):
        a, b, c, d = local_factors()
        m = kron(a, b) @ identity(4) @ kron(c, d)
        assert max_abs_diff(m, dcnot()) > 0.5

    def test_report_records_minimum_when_tolerance_unreachable(self):
        residual = equivalence_residuals(1.0)
        assert np.isfinite(residual)
        assert residual > 1e-2


class TestEquivalenceResiduals:
    @pytest.mark.parametrize("factors", [local_factors, perturbed_factors])
    def test_exact_residual_is_bitwise_the_4x4_oracle(self, factors, monkeypatch):
        monkeypatch.setattr(gates, "local_factors", factors)
        a, b, c, d = factors()
        oracle = np.abs(kron(a, b) @ build_s(0.7) @ kron(c, d) - dcnot()).max()
        assert equivalence_residuals(0.7) == oracle

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_phi(self, phi):
        with pytest.raises(ValueError, match="finite"):
            equivalence_residuals(phi)


def random_unitaries(count, seed, dim=4):
    """``count`` unitaries, the Q factors of complex Gaussian matrices."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return np.linalg.qr(z)[0]


def canonical_gate(c1, c2, c3):
    """exp(i/2 (c1 XX + c2 YY + c3 ZZ)), a product of commuting Pauli rotations."""
    u = identity(4)
    for c, p in zip((c1, c2, c3), (PAULI_X, PAULI_Y, PAULI_Z)):
        u = u @ (math.cos(c / 2) * identity(4) + 1j * math.sin(c / 2) * kron(p, p))
    return u


def canonical_invariants(c1, c2, c3):
    """Zhang, Vala, Sastry & Whaley's closed form of (G1, G2) for ``canonical_gate``."""
    cos2 = math.cos(c1) ** 2 * math.cos(c2) ** 2 * math.cos(c3) ** 2
    sin2 = math.sin(c1) ** 2 * math.sin(c2) ** 2 * math.sin(c3) ** 2
    g1 = cos2 - sin2 + 0.25j * math.sin(2 * c1) * math.sin(2 * c2) * math.sin(2 * c3)
    g2 = 4 * cos2 - 4 * sin2 - math.cos(2 * c1) * math.cos(2 * c2) * math.cos(2 * c3)
    return g1, g2


class TestLocalInvariants:
    @pytest.mark.parametrize(
        "gate, expected",
        [(identity(4), (1, 3)), (CNOT, (0, 1)), (SWAP, (-1, -3)), (dcnot(), (0, -1))],
        ids=["identity", "cnot", "swap", "dcnot"],
    )
    def test_known_invariants(self, gate, expected):
        g1, g2 = local_invariants(gate)
        assert abs(g1 - expected[0]) <= 1e-14 and abs(g2 - expected[1]) <= 1e-14

    @pytest.mark.parametrize("phi", [0.0, 0.3, np.pi / 4, 1.1, np.pi, 5.0])
    def test_s_is_in_the_dcnot_class(self, phi):
        g1, g2 = local_invariants(build_s(phi))
        assert abs(g1) <= 1e-14 and abs(g2 + 1) <= 1e-14

    def test_stack_is_one_call_per_matrix(self):
        stack = np.concatenate([
            np.stack([identity(4), CNOT, SWAP, dcnot(), CONTROLLED_PHASE]),
            build_s(cli._phi_grid()),
            random_unitaries(20, seed=3),
        ])
        g1, g2 = local_invariants(stack)
        assert g1.shape == g2.shape == (len(stack),)
        one_by_one = np.array([local_invariants(u) for u in stack])
        assert g1.tobytes() == one_by_one[:, 0].tobytes()
        assert g2.tobytes() == one_by_one[:, 1].tobytes()

    @pytest.mark.parametrize(
        "c",
        [
            (math.pi / 4, 0.0, 0.0),
            (math.pi / 4, math.pi / 4, math.pi / 4),
            (math.pi / 2, math.pi / 4, 0.0),
            (0.3, 0.2, 0.1),
            (1.1, 0.7, 0.4),
            (2.0, 1.3, 0.9),
        ],
        ids=["sqrt-cnot", "sqrt-swap", "b-gate-like", "small", "generic", "past-pi-half"],
    )
    def test_canonical_gate_matches_the_closed_form(self, c):
        for got, expected in zip(local_invariants(canonical_gate(*c)), canonical_invariants(*c)):
            assert abs(got - expected) <= 1e-14

    def test_stack_keeps_its_leading_shape(self):
        stack = random_unitaries(6, seed=7).reshape(2, 3, 4, 4)
        g1, g2 = local_invariants(stack)
        assert g1.shape == g2.shape == (2, 3)
        flat = local_invariants(stack.reshape(6, 4, 4))
        assert g1.ravel().tobytes() == flat[0].tobytes()
        assert g2.ravel().tobytes() == flat[1].tobytes()

    def test_global_phase_leaves_them_unchanged(self):
        for u in (*random_unitaries(3, seed=8), dcnot(), build_s(1.1)):
            for alpha in (0.4, -2.0, math.pi / 2):
                moved = local_invariants(np.exp(1j * alpha) * u)
                for before, after in zip(local_invariants(u), moved):
                    assert abs(after - before) <= 1e-13

    def test_inverse_has_the_conjugate_invariants(self):
        for u in (*random_unitaries(4, seed=9), CONTROLLED_PHASE, canonical_gate(1.1, 0.7, 0.4)):
            for g, g_inv in zip(local_invariants(u), local_invariants(u.conj().T)):
                assert abs(g_inv - np.conj(g)) <= 1e-13

    def test_local_factors_leave_them_unchanged(self):
        a, b, c, d = random_unitaries(4, seed=5, dim=2)
        for u in (*random_unitaries(4, seed=6), CONTROLLED_PHASE, build_s(0.3)):
            moved = kron(a, b) @ u @ kron(c, d)
            for before, after in zip(local_invariants(u), local_invariants(moved)):
                assert abs(after - before) <= 1e-13


class TestDcnotCheck:
    @pytest.mark.parametrize(
        "gate",
        [CONTROLLED_PHASE, CNOT, identity(4), SWAP],
        ids=["cphase", "cnot", "identity", "swap"],
    )
    def test_fails_with_another_gate_in_place_of_s(self, gate, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.braid_ybe, "build_s", lambda phi: np.broadcast_to(gate, np.shape(phi) + (4, 4))
        )
        assert cli.main(["verify", "--only", "dcnot"]) == 1
        assert capsys.readouterr().out.startswith("[FAIL] dcnot ")

    def test_passes_with_a_locally_moved_dcnot_in_place_of_s(self, capsys, monkeypatch):
        a, b, c, d = random_unitaries(4, seed=10, dim=2)
        gate = kron(a, b) @ dcnot() @ kron(c, d)
        monkeypatch.setattr(
            cli.braid_ybe, "build_s", lambda phi: np.broadcast_to(gate, np.shape(phi) + (4, 4))
        )
        assert cli.main(["verify", "--only", "dcnot"]) == 0
        assert capsys.readouterr().out.startswith("[PASS] dcnot ")


def test_equivalence_holds_via_s_inverse_relation():
    # S(0) = (A (x) B)^dagger DCNOT (C (x) D)^dagger, the inverted statement.
    a, b, c, d = local_factors()
    lhs = kron(a, b).conj().T @ dcnot() @ kron(c, d).conj().T
    assert max_abs_diff(lhs, build_s(0.0)) <= 1e-12
