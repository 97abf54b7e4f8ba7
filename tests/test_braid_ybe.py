import functools
import math

import numpy as np
import pytest

from ybc.braid_ybe import (
    _embed_two_site,
    build_eight_vertex_b,
    build_hamiltonian,
    build_r,
    build_s,
    check_braid_relation,
    check_far_commutation,
    check_ybe_additive,
    check_ybe_multiplicative,
    yang_baxterize_eight_vertex,
    yang_baxterize_rational,
)
from ybc.linalg import identity, kron, max_abs_diff

PHI_GRID = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)


class TestBuildS:
    def test_matrix_at_phi_zero(self):
        expected = np.array(
            [
                [0, 1, 1j, 0],
                [1, 0, 0, 1],
                [-1j, 0, 0, 1j],
                [0, 1, -1j, 0],
            ],
            dtype=complex,
        ) / np.sqrt(2)
        assert max_abs_diff(build_s(0.0), expected) == 0.0

    @pytest.mark.parametrize("phi", [0.0, np.pi / 7, np.pi / 4, 1.3])
    def test_involution(self, phi):
        s = build_s(phi)
        assert max_abs_diff(s @ s, identity(4)) <= 1e-12

    def test_unitary_hermitian_involutive_on_grid(self):
        for phi in PHI_GRID:
            s = build_s(phi)
            assert max_abs_diff(s @ s.conj().T, identity(4)) <= 1e-12
            assert max_abs_diff(s, s.conj().T) <= 1e-12
            assert max_abs_diff(s @ s, identity(4)) <= 1e-12

    def test_stack_is_bitwise_the_scalar_calls(self):
        rng = np.random.default_rng(23)
        phis = np.concatenate(
            [
                np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False),
                [-0.0, np.pi, -np.pi, -1.3, 1e-300, 5e3],
                rng.uniform(-10.0, 10.0, 500),
            ]
        )
        stack = build_s(phis)
        assert stack.shape == (phis.size, 4, 4) and stack.flags.c_contiguous
        for k, phi in enumerate(phis):
            scalar = build_s(float(phi)).tobytes()
            assert stack[k].tobytes() == build_s(phi).tobytes() == scalar
        grid = build_s(phis[:6].reshape(2, 3))
        assert grid.shape == (2, 3, 4, 4)
        assert grid.tobytes() == stack[:6].tobytes()

    def test_rejects_non_finite_phi(self):
        # A NaN or infinite scalar, and one bad entry in a stack, named.
        for bad in (np.nan, np.inf, -np.inf, np.array([0.5, np.nan, 1.0])):
            with pytest.raises(ValueError, match="phi must be finite"):
                build_s(bad)


class TestBraidRelation:
    def test_identity_passes(self):
        assert check_braid_relation(identity(4)) == 0.0

    def test_s_matrix_passes_on_grid(self):
        for phi in PHI_GRID:
            residual = check_braid_relation(build_s(phi))
            assert residual <= 1e-12, f"phi={phi}: residual {residual}"

    def test_controlled_phase_fails(self):
        cphase = np.diag([1.0, 1.0, 1.0, np.exp(1j * np.pi / 3)])
        assert check_braid_relation(cphase) > 0.5

    def test_wrong_shape_rejected(self):
        for check in (check_braid_relation, check_far_commutation):
            for shape in ((2, 2), (4, 2), (3, 4, 4, 3), (4,)):
                with pytest.raises(ValueError) as caught:
                    check(np.ones(shape))
                assert str(caught.value) == f"expected a 4x4 two-site operator, got {shape}"

    def test_far_commutation_on_four_strands(self):
        for phi in PHI_GRID[::4]:
            assert check_far_commutation(build_s(phi)) <= 1e-12

    @pytest.mark.parametrize("check", [check_braid_relation, check_far_commutation])
    def test_stack_is_the_worst_scalar_residual(self, check):
        cphase = np.diag([1.0, 1.0, 1.0, np.exp(1j * np.pi / 3)])
        stack = np.concatenate([build_s(PHI_GRID), [cphase, identity(4)]])
        worst = max(check(b) for b in stack)
        assert check(stack.reshape(2, 17, 4, 4)) == worst


class TestEmbedTwoSite:
    # No residual sees a gate placed at the wrong site: the braid relation
    # and both YBEs still hold with the sites mirrored, and far commutation
    # holds for any two disjoint or identical sites.  So the placement is
    # pinned here against the Kronecker products with the identities.
    @pytest.mark.parametrize("stack", [(), (2, 3)])
    @pytest.mark.parametrize(
        "n_sites, site", [(n, site) for n in (2, 3, 4) for site in range(n - 1)]
    )
    def test_equals_the_kron_with_identities(self, n_sites, site, stack):
        rng = np.random.default_rng(7)
        b = rng.normal(size=stack + (4, 4)) + 1j * rng.normal(size=stack + (4, 4))
        embedded = _embed_two_site(b, site, n_sites)
        oracle = kron(kron(identity(2**site), b), identity(2 ** (n_sites - site - 2)))
        assert embedded.shape == stack + (2**n_sites, 2**n_sites)
        assert np.array_equal(embedded, oracle)
        # Only the sign of an exact zero may differ, which |.| removes.
        assert np.abs(embedded).tobytes() == np.abs(oracle).tobytes()


class TestRationalYangBaxterization:
    def test_mu_zero_is_identity(self):
        assert max_abs_diff(yang_baxterize_rational(0.3, 0.0), identity(4)) == 0.0

    def test_large_mu_limit_is_i_s(self):
        r = yang_baxterize_rational(0.7, 1e8)
        assert max_abs_diff(r, 1j * build_s(0.7)) <= 1e-7

    def test_unitary_at_mu_one(self):
        r = yang_baxterize_rational(0.0, 1.0)
        expected = (identity(4) + 1j * build_s(0.0)) / np.sqrt(2)
        assert max_abs_diff(r, expected) <= 1e-15
        assert max_abs_diff(r @ r.conj().T, identity(4)) <= 1e-12

    def test_matches_r_theta_phi_parameterization(self):
        # cos(theta) = mu/sqrt(1+mu^2), sin(theta) = 1/sqrt(1+mu^2)
        for mu in (-3.0, -0.5, 0.2, 1.0, 4.0):
            for phi in (0.0, np.pi / 4, 2.2):
                theta = np.arctan2(1.0, mu)
                r_mu = yang_baxterize_rational(phi, mu)
                r_theta = build_r(theta, phi)
                assert max_abs_diff(r_mu, r_theta) <= 1e-12

    def test_stack_is_bitwise_the_one_point_calls(self):
        mus = np.array([[-1e8, -2.0, -0.5, -0.0], [0.0, 0.3, 1.0, 4.0]])
        for phi in (0.0, np.pi / 4, 2.2):
            stack = yang_baxterize_rational(phi, mus)
            assert stack.shape == mus.shape + (4, 4)
            for k in np.ndindex(mus.shape):
                mu = float(mus[k])
                formula = (identity(4) + 1j * mu * build_s(phi)) / math.sqrt(1.0 + mu * mu)
                point = yang_baxterize_rational(phi, mu)
                assert stack[k].tobytes() == point.tobytes() == formula.tobytes()


class TestRThetaPhi:
    def test_identity_at_theta_half_pi(self):
        r = build_r(np.pi / 2, 1.1)
        assert max_abs_diff(r, identity(4)) <= 1e-15

    def test_i_s_at_theta_zero(self):
        r = build_r(0.0, 0.4)
        assert max_abs_diff(r, 1j * build_s(0.4)) <= 1e-15

    def test_unitary_on_grid(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        worst = max(
            max_abs_diff(build_r(t, p) @ build_r(t, p).conj().T, identity(4))
            for t in thetas
            for p in PHI_GRID
        )
        assert worst <= 1e-12

    def test_periodicity(self):
        r1 = build_r(0.9, 0.2)
        r2 = build_r(0.9 + 2.0 * np.pi, 0.2)
        assert max_abs_diff(r1, r2) <= 1e-14

    def test_entangles_product_input(self):
        r = build_r(np.pi / 4, 0.0)
        out = r @ np.array([1, 0, 0, 0], dtype=complex)
        # Both Schmidt coefficients of the output are nonzero.
        schmidt = np.linalg.svd(out.reshape(2, 2), compute_uv=False) ** 2
        assert schmidt.min() > 0.01

    def test_rejects_non_finite_angles(self):
        # A NaN or infinite scalar, and one bad entry in a stack, named.
        for bad in (np.nan, np.inf, -np.inf, np.array([0.5, np.nan, 1.0])):
            for name, angles in (("theta", (bad, 0.3)), ("phi", (0.8, bad))):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    build_r(*angles)


    def test_stack_is_bitwise_the_scalar_gates(self):
        thetas = np.concatenate([PHI_GRID, [-0.0, -1.3, 5e3]])
        stack = build_r(thetas[:, None], PHI_GRID)
        assert stack.shape == (thetas.size, PHI_GRID.size, 4, 4)
        for i, theta in enumerate(thetas):
            for j, phi in enumerate(PHI_GRID):
                formula = np.sin(theta) * identity(4) + 1j * np.cos(theta) * build_s(phi)
                gate = build_r(float(theta), float(phi)).tobytes()
                assert stack[i, j].tobytes() == gate == formula.tobytes()


class TestAdditiveYBE:
    def test_zero_parameters(self):
        assert check_ybe_additive(0.8, 0.0, 0.0) <= 1e-15

    def test_single_point(self):
        assert check_ybe_additive(np.pi / 4, 0.7, -1.3) <= 1e-10

    def test_grid(self):
        values = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
        for phi in (0.0, np.pi / 4, 1.1):
            for mu in values:
                for nu in values:
                    residual = check_ybe_additive(phi, mu, nu)
                    assert residual <= 1e-10, (phi, mu, nu, residual)


    def test_residual_is_bitwise_the_unshared_products(self):
        # Building each R once and feeding it to both embeddings changes no bit.
        def r1(phi, m):
            return kron(yang_baxterize_rational(phi, m), identity(2))

        def r2(phi, m):
            return kron(identity(2), yang_baxterize_rational(phi, m))

        values = (-2.0, -0.5, 0.3, 1.0, 2.0)
        for phi in (0.0, np.pi / 4, 1.1):
            for mu in values:
                for nu in values:
                    lhs = r1(phi, mu) @ r2(phi, mu + nu) @ r1(phi, nu)
                    rhs = r2(phi, nu) @ r1(phi, mu + nu) @ r2(phi, mu)
                    residual = check_ybe_additive(phi, mu, nu)
                    assert residual == max_abs_diff(lhs, rhs)

    def test_grid_is_the_worst_scalar_residual(self):
        values = [-2.0, -1.0, -0.5, 0.3, 1.0, 2.0]
        mu, nu = np.array(values)[:, None], np.array(values)
        for phi in (0.0, np.pi / 4, 1.1):
            worst = max(check_ybe_additive(phi, m, n) for m in values for n in values)
            assert check_ybe_additive(phi, mu, nu) == worst

    def test_phase_stack_is_the_worst_per_phase_residual(self):
        mu, nu = np.meshgrid(*2 * ((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0),), indexing="ij")
        phis = (0.0, np.pi / 4, 1.1)
        worst = max(check_ybe_additive(phi, mu, nu) for phi in phis)
        assert check_ybe_additive(np.array(phis)[:, None, None], mu, nu) == worst

    def test_phase_and_mu_stack_is_bitwise_the_one_point_calls(self):
        phis = np.array([0.0, np.pi / 4, 1.1, -2.2])[:, None]
        mus = np.array([-2.0, -0.0, 0.5, 1e8])
        stack = yang_baxterize_rational(phis, mus)
        assert stack.shape == (4, 4, 4, 4)
        for i, j in np.ndindex(4, 4):
            point = yang_baxterize_rational(float(phis[i, 0]), float(mus[j]))
            assert stack[i, j].tobytes() == point.tobytes()


class TestEightVertex:
    def test_matrix_at_q_one(self):
        expected = np.array(
            [
                [1, 0, 0, 1],
                [0, 1, 1, 0],
                [0, -1, 1, 0],
                [-1, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert max_abs_diff(build_eight_vertex_b(+1, 1.0), expected) == 0.0

    def test_eigenvalues_doubly_degenerate(self):
        for sign in (+1, -1):
            b = build_eight_vertex_b(sign, np.exp(-1j * 0.8))
            # Matched as a multiset, each expected value to its nearest
            # eigenvalue: the real parts are 1 to a few ulp, so an order by
            # real part would follow the last bit of b's entries.
            eigs = np.linalg.eigvals(b).tolist()
            for want in (1 - 1j, 1 - 1j, 1 + 1j, 1 + 1j):
                nearest = min(eigs, key=lambda e: abs(e - want))
                eigs.remove(nearest)
                assert abs(nearest - want) <= 1e-12

    def test_normalized_is_unitary(self):
        b = build_eight_vertex_b(+1, np.exp(-1j * np.pi / 5), normalized=True)
        assert max_abs_diff(b @ b.conj().T, identity(4)) <= 1e-12

    def test_rejects_zero_q(self):
        with pytest.raises(ValueError, match="nonzero"):
            build_eight_vertex_b(+1, 0.0)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            build_eight_vertex_b(2, 1.0)

    def test_r_at_x_zero_recovers_b(self):
        q = np.exp(-1j * 1.2)
        assert (
            max_abs_diff(
                yang_baxterize_eight_vertex(+1, q, 0.0), build_eight_vertex_b(+1, q)
            )
            == 0.0
        )

    def test_r_at_x_one_is_twice_identity(self):
        r = yang_baxterize_eight_vertex(-1, np.exp(-0.7j), 1.0)
        assert max_abs_diff(r, 2.0 * identity(4)) <= 1e-15

    def test_r_equals_b_plus_2x_b_inverse(self):
        q = np.exp(-1j * np.pi / 3)
        b = build_eight_vertex_b(+1, q)
        for x in (-1.5, 0.3, 2.0):
            expected = b + 2.0 * x * np.linalg.inv(b)
            assert max_abs_diff(
                yang_baxterize_eight_vertex(+1, q, x), expected
            ) <= 1e-12

    def test_normalized_r_is_unitary(self):
        for x in (-3.0, 0.0, 0.6, 2.5):
            r = yang_baxterize_eight_vertex(
                +1, np.exp(-1j * np.pi / 3), x, normalized=True
            )
            assert max_abs_diff(r @ r.conj().T, identity(4)) <= 1e-12

    @staticmethod
    def written_out(sign, q, x, normalized):
        """The family entry by entry in Python scalars, one point at a time.

        The normalized family is the same entries over sqrt(2) sqrt(1 + x^2).
        """
        r = np.array(
            [
                [1 + x, 0, 0, q * (1 - x)],
                [0, 1 + x, sign * (1 - x), 0],
                [0, -sign * (1 - x), 1 + x, 0],
                [-(1 - x) / q, 0, 0, 1 + x],
            ],
            dtype=complex,
        )
        return r / (np.sqrt(2.0) * math.sqrt(1.0 + x * x)) if normalized else r

    # q on the unit circle, where the normalized family is unitary, and off it.
    QS = np.concatenate(
        [np.exp(-1j * np.array([0.0, np.pi / 4, np.pi / 3, 2.0, -2.9])), [0.5 + 2j, -3.0 + 0.1j]]
    )
    XS = np.array([-3.0, -0.5, 0.0, 1 / 16, 0.7, 1.0, 4.0, 16.0])

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_inverse_is_identity_minus_half_b(self, sign):
        # b's eigenvalues 1 +/- i give b^2 - 2b + 2I = 0 for any nonzero q.
        for q in self.QS.tolist():
            b = build_eight_vertex_b(sign, q)
            assert max_abs_diff(b @ (identity(4) - b / 2.0), identity(4)) <= 1e-15

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_normalized_is_the_inverse_form(self, sign):
        # The stated form (B + x B^{-1}) / sqrt(1 + x^2), B = b / sqrt(2),
        # with B^{-1} taken numerically.
        for q in self.QS.tolist():
            b = build_eight_vertex_b(sign, q, normalized=True)
            for x in self.XS.tolist():
                expected = (b + x * np.linalg.inv(b)) / math.sqrt(1.0 + x * x)
                r = yang_baxterize_eight_vertex(sign, q, x, normalized=True)
                assert max_abs_diff(r, expected) <= 1e-15

    @pytest.mark.parametrize("normalized", [False, True])
    def test_stack_is_bitwise_the_one_point_calls(self, normalized):
        qs, xs = self.QS[:, None], self.XS
        for sign in (+1, -1):
            stack = yang_baxterize_eight_vertex(sign, qs, xs, normalized)
            assert stack.shape == (qs.size, xs.size, 4, 4)
            for i, q in enumerate(qs[:, 0].tolist()):
                b = build_eight_vertex_b(sign, q, normalized)
                assert b.tobytes() == build_eight_vertex_b(sign, qs, normalized)[i, 0].tobytes()
                for j, x in enumerate(xs.tolist()):
                    point = yang_baxterize_eight_vertex(sign, q, x, normalized)
                    assert stack[i, j].tobytes() == point.tobytes()
                    # Equal values; b's (0, 3) entry is q * 1.0, so a -0 imaginary
                    # part of q reads +0 there.
                    assert np.array_equal(point, self.written_out(sign, q, x, normalized))


class TestRejectsNonFiniteInput:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: yang_baxterize_rational(np.nan, 0.5),
            lambda: yang_baxterize_rational(np.inf, 0.5),
            lambda: yang_baxterize_rational(0.5, np.inf),
            lambda: yang_baxterize_rational(0.5, np.array([0.1, np.nan])),
            lambda: check_ybe_additive(np.nan, 0.5, 1.0),
            lambda: check_ybe_additive(0.3, 1e308, 1e308),
            lambda: build_eight_vertex_b(+1, np.nan),
            lambda: build_eight_vertex_b(+1, complex(np.inf, 1.0)),
            lambda: build_eight_vertex_b(+1, 1e-320),
            lambda: build_eight_vertex_b(-1, np.array([1.0, 1e-320j])),
            lambda: yang_baxterize_eight_vertex(+1, 1.0, np.array([0.5, np.inf])),
            lambda: yang_baxterize_eight_vertex(-1, 1.0, np.nan, normalized=True),
            lambda: yang_baxterize_rational(0.5, np.array([1.0, 1e160])),
            lambda: yang_baxterize_eight_vertex(+1, 1.0, -1e160, normalized=True),
            # q(1-x) and -(1-x)/q overflow, though q, 1/q and x are finite.
            lambda: yang_baxterize_eight_vertex(+1, 1e300, -1e10),
            lambda: yang_baxterize_eight_vertex(+1, 1e-300, -1e10),
            lambda: yang_baxterize_eight_vertex(-1, np.array([1.0, 1e300j]), 1e10),
            lambda: yang_baxterize_eight_vertex(+1, 1e300, 1e154, normalized=True),
        ],
        ids=[
            "phi-nan", "phi-inf", "mu-inf", "mu-array-nan", "additive-phi-nan",
            "additive-mu-plus-nu-overflows", "q-nan", "q-inf", "inverse-q-overflows",
            "q-array-inverse-overflows", "x-array-inf", "normalized-x-nan",
            "mu-squared-overflows", "normalized-x-squared-overflows",
            "q-times-one-minus-x-overflows", "one-minus-x-over-q-overflows",
            "q-array-times-one-minus-x-overflows", "normalized-x-times-inverse-overflows",
        ],
    )
    def test_raises_value_error(self, call):
        with pytest.raises(ValueError, match="finite"):
            call()


class TestMultiplicativeYBE:
    @staticmethod
    def family(sign, q, normalized=False):
        return lambda t: yang_baxterize_eight_vertex(sign, q, t, normalized)

    def test_x_y_one(self):
        assert check_ybe_multiplicative(self.family(+1, 1.0), 1.0, 1.0) <= 1e-12

    def test_single_point(self):
        builder = self.family(+1, np.exp(-1j * np.pi / 4))
        assert check_ybe_multiplicative(builder, 0.5, 2.0) <= 1e-10

    def test_grid_both_signs_and_deformations(self):
        spectral = (0.25, 0.5, 1.0, 2.0, 4.0)
        for sign in (+1, -1):
            for q in (1.0, np.exp(-1j * np.pi / 4), np.exp(-1j * np.pi / 3)):
                builder = self.family(sign, q)
                for x in spectral:
                    for y in spectral:
                        residual = check_ybe_multiplicative(builder, x, y)
                        assert residual <= 1e-10, (sign, q, x, y, residual)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_grid_is_the_worst_scalar_residual(self, normalized):
        spectral = [0.25, 0.5, 1.0, 2.0, 4.0]
        x, y = np.meshgrid(spectral, spectral, indexing="ij")
        for sign in (+1, -1):
            for q in (1.0, np.exp(-1j * np.pi / 4), 0.5 + 2j):
                builder = functools.partial(
                    yang_baxterize_eight_vertex, sign, q, normalized=normalized
                )
                worst = max(
                    check_ybe_multiplicative(builder, u, v) for u in spectral for v in spectral
                )
                assert check_ybe_multiplicative(builder, x, y) == worst


    @pytest.mark.parametrize("normalized", [False, True])
    def test_builds_each_r_once_bitwise_as_before(self, normalized):
        builder = self.family(-1, np.exp(-1j * np.pi / 3), normalized)
        calls = []

        def counted(t):
            calls.append(t)
            return builder(t)

        def r1(t):
            return kron(builder(t), identity(2))

        def r2(t):
            return kron(identity(2), builder(t))

        for x in (0.25, 1.0, 4.0):
            for y in (0.5, 2.0):
                calls.clear()
                residual = check_ybe_multiplicative(counted, x, y)
                assert sorted(calls) == sorted([x, y, x * y])
                lhs = r1(x) @ r2(x * y) @ r1(y)
                rhs = r2(y) @ r1(x * y) @ r2(x)
                assert residual == max_abs_diff(lhs, rhs)


class TestEvolutionHamiltonian:
    def test_matches_analytic_generator(self):
        for theta in (0.3, 1.0, 2.2):
            for phi in (0.0, np.pi / 4):
                h = build_hamiltonian(theta, phi, gamma=1.0, step=1e-4)
                assert max_abs_diff(h, build_s(phi)) <= 1e-6

    def test_scales_with_gamma_and_hbar(self):
        h = build_hamiltonian(0.9, 0.5, gamma=2.0, hbar=3.0, step=1e-4)
        assert max_abs_diff(h, 6.0 * build_s(0.5)) <= 1e-5

    def test_zero_gamma_gives_zero(self):
        h = build_hamiltonian(0.9, 0.5, gamma=0.0, step=1e-4)
        assert np.abs(h).max() == 0.0

    def test_hermitian_across_theta_grid(self):
        for theta in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            h = build_hamiltonian(theta, 0.7, step=1e-4)
            assert max_abs_diff(h, h.conj().T) <= 1e-8

    def test_second_order_convergence(self):
        e1 = max_abs_diff(build_hamiltonian(0.8, 0.3, step=1e-4), build_s(0.3))
        e2 = max_abs_diff(build_hamiltonian(0.8, 0.3, step=5e-5), build_s(0.3))
        assert 3.0 <= e1 / e2 <= 5.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            build_hamiltonian(0.8, 0.3, step=0.0)

    def test_default_step_is_1e_minus_4(self):
        # verify passes its step explicitly, so only this pins the default.
        default = build_hamiltonian(0.8, 0.3)
        assert default.tobytes() == build_hamiltonian(0.8, 0.3, step=1e-4).tobytes()

    def test_stack_is_bitwise_the_scalar_calls(self):
        gamma, theta, phi = np.meshgrid(
            (0.5, 1.0, 2.0), (0.3, 1.0, 2.2), (0.0, np.pi / 4), indexing="ij"
        )
        stack = build_hamiltonian(theta, phi, gamma, hbar=1.5, step=1e-4)
        assert stack.shape == (3, 3, 2, 4, 4)
        for k in np.ndindex(theta.shape):
            angles = float(theta[k]), float(phi[k])
            point = build_hamiltonian(*angles, gamma=float(gamma[k]), hbar=1.5, step=1e-4)
            assert stack[k].tobytes() == point.tobytes()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"hbar": np.nan}, "hbar must be finite"),
            ({"hbar": np.inf}, "hbar must be finite"),
            ({"gamma": np.nan}, "gamma must be finite"),
            ({"gamma": -np.inf}, "gamma must be finite"),
            ({"step": np.nan}, "step must be finite"),
            ({"step": np.inf}, "step must be finite"),
            ({"step": -1e-4}, "step must be positive"),
            ({"gamma": 1e308, "step": 10.0}, "generator must be finite"),
            ({"hbar": 1e308, "gamma": 10.0}, "generator must be finite"),
        ],
        ids=[
            "hbar-nan", "hbar-inf", "gamma-nan", "gamma-minus-inf", "step-nan",
            "step-inf", "step-negative", "shifted-theta-overflows", "generator-overflows",
        ],
    )
    def test_rejects_bad_argument_by_name(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            build_hamiltonian(0.8, 0.3, **kwargs)

    @pytest.mark.parametrize("name", ["theta", "phi", "gamma"])
    def test_stack_rejects_a_non_finite_entry(self, name):
        angles = {"theta": 0.8, "phi": 0.3, "gamma": 1.0}
        angles[name] = np.array([0.5, np.nan])
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build_hamiltonian(**angles)
