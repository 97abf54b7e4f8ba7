import tracemalloc

import numpy as np
import pytest

from ybc import gates
from ybc.braid_ybe import build_s
from ybc.gates import (
    EquivalenceReport,
    LocalFactors,
    dcnot,
    equivalence_residuals,
    local_factors,
    verify_dcnot_equivalence,
)
from ybc.linalg import identity, kron, max_abs_diff


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

    def test_returns_a_fresh_array_over_a_read_only_target(self):
        d = dcnot()
        d[0, 0] = 5.0
        assert dcnot()[0, 0] == 1.0
        assert not gates._DCNOT.flags.writeable
        assert gates._DCNOT.tobytes() == dcnot().tobytes()


class TestLocalFactors:
    def test_all_factors_unitary(self):
        f = local_factors()
        for m in (f.a, f.b, f.c, f.d):
            assert max_abs_diff(m @ m.conj().T, identity(2)) <= 1e-12

    def test_d_is_diagonal_with_unit_moduli(self):
        f = local_factors()
        off = f.d - np.diag(np.diag(f.d))
        assert np.abs(off).max() == 0.0
        assert np.allclose(np.abs(np.diag(f.d)), 1.0)

    def test_constructor_rejects_non_unitary(self):
        f = local_factors()
        with pytest.raises(ValueError, match="not unitary"):
            LocalFactors(2.0 * f.a, f.b, f.c, f.d)


class TestEquivalence:
    def test_scan_finds_exact_factorization(self):
        report = verify_dcnot_equivalence()
        assert report.best_residual() <= 1e-10
        # The factorization is exact at phi = 0 (mod 2 pi).
        wrapped = min(report.phi % (2 * np.pi), 2 * np.pi - report.phi % (2 * np.pi))
        assert wrapped <= 1e-3

    def test_explicit_phi_zero(self):
        exact, aligned, _ = equivalence_residuals(0.0)
        assert min(exact, aligned) <= 1e-10
        assert exact <= 1e-12

    def test_phi_pi_matches_up_to_global_phase(self):
        exact, aligned, alpha = equivalence_residuals(np.pi)
        assert exact > 1.0            # not equal entrywise
        assert aligned <= 1e-12       # equal after phase alignment
        assert abs(abs(alpha) - np.pi) <= 1e-9

    def test_perturbed_factor_fails(self):
        f = local_factors()
        perturbed = LocalFactors(f.a @ np.diag([1.0, np.exp(0.1j)]), f.b, f.c, f.d)
        exact, aligned, _ = equivalence_residuals(0.0, perturbed)
        # Scan minimum with this perturbation stays above 0.02 (computed
        # by scanning phi densely); at phi=0 the exact residual is ~0.05.
        assert exact > 0.02
        assert aligned > 0.02
        report_scan = [
            equivalence_residuals(p, perturbed)[1]
            for p in np.linspace(0, 2 * np.pi, 256, endpoint=False)
        ]
        assert min(report_scan) > 0.02

    def test_identity_instead_of_s_fails(self):
        f = local_factors()
        m = kron(f.a, f.b) @ identity(4) @ kron(f.c, f.d)
        assert max_abs_diff(m, dcnot()) > 0.5

    def test_report_records_minimum_when_tolerance_unreachable(self):
        exact, aligned, _ = equivalence_residuals(1.0)
        assert min(exact, aligned) > 1e-10
        assert exact > 1e-2
        assert np.isfinite(aligned)


def perturbed_factors():
    """The factors of ``test_perturbed_factor_fails``, A times diag(1, e^{0.1 i})."""
    f = local_factors()
    return LocalFactors(f.a @ np.diag([1.0, np.exp(0.1j)]), f.b, f.c, f.d)


def scalar_scan(scan_points):
    """The scan one phase at a time through ``equivalence_residuals``."""
    factors = local_factors()
    grid = np.linspace(0.0, 2.0 * np.pi, scan_points, endpoint=False)
    residuals = [equivalence_residuals(p, factors)[0] for p in grid]
    best = int(np.argmin(residuals))
    span = 2.0 * np.pi / scan_points

    def exact_at(p):
        return equivalence_residuals(p, factors)[0]

    phi_best = gates._refine(exact_at, grid[best] - span, grid[best] + span)
    if residuals[best] <= exact_at(phi_best):
        phi_best = float(grid[best])
    exact, aligned, alpha = equivalence_residuals(phi_best, factors)
    return EquivalenceReport(float(phi_best), exact, alpha, aligned)


class TestBlockedScan:
    @pytest.mark.parametrize("scan_points", [4096, 1000])
    @pytest.mark.parametrize("factors", [local_factors, perturbed_factors])
    def test_batched_residuals_are_bitwise_the_scalar_ones(self, factors, scan_points):
        f = factors()
        left, right = kron(f.a, f.b), kron(f.c, f.d)
        grid = np.linspace(0.0, 2.0 * np.pi, scan_points, endpoint=False)
        batched = gates._factorization(grid, left, right)[1]
        scalar = np.array([equivalence_residuals(p, f)[0] for p in grid])
        assert batched.tobytes() == scalar.tobytes()
        one_point = [gates._factorization(np.array([p]), left, right)[1][0] for p in grid]
        assert np.array(one_point).tobytes() == scalar.tobytes()

    # A scalar phase, a one-element stack, a full block and the short last
    # block of the 1000-point grid, whose blocks start at 0, 256, 512, 768.
    @pytest.mark.parametrize(
        "phis",
        [
            0.7,
            np.array([0.7]),
            np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)[:256],
            np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)[768:],
        ],
        ids=["scalar", "one-element", "full-block", "short-last-block"],
    )
    @pytest.mark.parametrize("factors", [local_factors, perturbed_factors])
    def test_flattened_products_are_bitwise_the_4x4_products(self, factors, phis):
        f = factors()
        left, right = kron(f.a, f.b), kron(f.c, f.d)
        oracle = np.array([
            np.abs(kron(f.a, f.b) @ build_s(p) @ kron(f.c, f.d) - dcnot()).max()
            for p in np.atleast_1d(phis).tolist()
        ])
        residuals = gates._factorization(phis, left, right)[1]
        assert np.shape(residuals) == np.shape(phis)
        assert np.atleast_1d(residuals).tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("scan_points", [4096, 1000, 1, 2, np.int64(1000)])
    def test_report_is_the_scalar_scans(self, scan_points):
        # 1000 phases leave a last block of 232, short of SCAN_BLOCK.
        assert verify_dcnot_equivalence(scan_points=scan_points) == scalar_scan(
            scan_points
        )

    @pytest.mark.parametrize("scan_points", [0, -1, True, False, 2.0, 2.5, "16", None])
    def test_rejects_bad_scan_points(self, scan_points):
        with pytest.raises(ValueError, match="scan_points"):
            verify_dcnot_equivalence(scan_points=scan_points)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_phi(self, phi):
        with pytest.raises(ValueError, match="finite"):
            equivalence_residuals(phi)

    def test_peak_memory_grows_by_under_64_bytes_a_phase(self):
        # The blocked scan holds the grid and its residuals, 16 bytes a
        # phase; stacking S(phi) for the whole grid at once holds about 660.
        def peak(scan_points):
            tracemalloc.start()
            try:
                verify_dcnot_equivalence(scan_points=scan_points)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        verify_dcnot_equivalence(scan_points=16)
        assert peak(65536) - peak(4096) < 64 * (65536 - 4096)


def test_equivalence_holds_via_s_inverse_relation():
    # S(0) = (A (x) B)^dagger DCNOT (C (x) D)^dagger, the inverted statement.
    f = local_factors()
    lhs = kron(f.a, f.b).conj().T @ dcnot() @ kron(f.c, f.d).conj().T
    assert max_abs_diff(lhs, build_s(0.0)) <= 1e-12
