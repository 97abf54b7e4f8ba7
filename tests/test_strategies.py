import collections
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ybc import braid_ybe, cli, linalg, strategies
from ybc.linalg import identity, kron, max_abs_diff
from ybc.strategies import (
    ONE_QUBIT,
    TWO_QUBIT,
    DeviationSummary,
    closed_form_coherence,
    compare_columns,
    elementwise_reduced,
)

from reference import batched_grid, kernel_reduced_state, kernel_spectrum, mpmath_reference


def streamed_peak(kind, axes, columns, header, summary=None):
    """The traced peak of streaming one kind's grid from the kernel through the row writer.

    ``cli._write_grid`` feeds the walk's x rows to ``cli._csv_rows`` as the
    CLI does; its chunks are consumed and dropped instead of written.
    """

    def consume(command, path, header, chunks):
        collections.deque(chunks, maxlen=0)
        return True

    with mock.patch.object(cli, "_write_csv", consume):
        tracemalloc.start()
        try:
            assert cli._write_grid("test", "grid.csv", header, (kind,), axes, columns, summary)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def identity_power(theta, n):
    return np.ones_like(theta), np.zeros_like(theta)


def input_reduced_state(kind, x):
    """The input's reduced state, read from the kernel with R^N set to I exactly."""
    with mock.patch.object(strategies, "_power_coefficients", identity_power):
        return kernel_reduced_state(kind, x, 0.0, 0.0, 1)


def input_l1(kind, xs):
    """The kernel's c_l1 of the input at each x, with R^N set to I exactly."""
    with mock.patch.object(strategies, "_power_coefficients", identity_power):
        return batched_grid(kind, xs, [0.0], 0.0, 1)[0][:, 0]


def kernel_power(theta, phi, n):
    """R(theta, phi)^N as the kernel forms it: cos(N a) I + i sin(N a) S(phi)."""
    cos_na, sin_na = strategies._power_coefficients(np.array([theta]), n)
    return cos_na[0] * identity(4) + 1j * sin_na[0] * braid_ybe.build_s(phi)


def random_point(rng, max_uses):
    kind = ONE_QUBIT if rng.uniform() < 0.5 else TWO_QUBIT
    return (
        kind,
        float(rng.uniform()),
        float(rng.uniform(0, 2 * np.pi)),
        float(rng.uniform(0, 2 * np.pi)),
        int(rng.integers(1, max_uses + 1)),
    )


class TestPrepare:
    """The strategies' inputs, and the kernel's validation of x, kind and N."""

    def test_one_qubit_extremes(self):
        # The input amplitudes sit at |00> and |10> of (S, A).
        assert strategies._INPUT_SUPPORT[ONE_QUBIT] == [0, 2]
        assert max_abs_diff(input_reduced_state(ONE_QUBIT, 0.0), np.diag([1.0, 0.0])) == 0.0
        assert max_abs_diff(input_reduced_state(ONE_QUBIT, 1.0), np.diag([0.0, 1.0])) == 0.0

    def test_one_qubit_half_is_maximally_coherent(self):
        assert abs(input_l1(ONE_QUBIT, [0.5])[0] - 1.0) <= 1e-12

    def test_two_qubit_extreme(self):
        # |010> of (S1, S2, A): the system pair in |01>.
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert max_abs_diff(input_reduced_state(TWO_QUBIT, 0.0), expected) == 0.0

    def test_two_qubit_full_state_coherence(self):
        # The ancilla starts in |0>, so the l1 of the full three-qubit input
        # is that of its system pair, 2 sqrt(x (1 - x)).
        xs = np.array([0.1, 0.3, 0.5, 0.8])
        assert np.abs(input_l1(TWO_QUBIT, xs) - 2.0 * np.sqrt(xs * (1 - xs))).max() <= 1e-12

    def test_two_qubit_half_reduces_to_bell_like_state(self):
        assert abs(input_l1(TWO_QUBIT, [0.5])[0] - 1.0) <= 1e-12
        # (|01> + |10>)/sqrt(2) on the system pair
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
        assert max_abs_diff(input_reduced_state(TWO_QUBIT, 0.5), expected) <= 1e-12

    def test_rejects_x_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            batched_grid(ONE_QUBIT, [1.2], [0.0], 0.0, 1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            batched_grid(TWO_QUBIT, [-0.1], [0.0], 0.0, 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            batched_grid("three", [0.5], [0.0], 0.0, 1)
        with pytest.raises(ValueError, match="n_uses"):
            batched_grid(ONE_QUBIT, [0.5], [0.0], 0.0, 0)

    @pytest.mark.parametrize("n", [1.7, 2.0, True, "3", None])
    def test_spec_rejects_non_integral_uses(self, n):
        with pytest.raises(ValueError, match="n_uses"):
            batched_grid(ONE_QUBIT, [0.5], [0.0], 0.0, n)

    def test_spec_accepts_numpy_integer_uses(self):
        for kind in (ONE_QUBIT, TWO_QUBIT):
            got = batched_grid(kind, [0.3], [0.8], 0.2, np.int64(3))
            for a, b in zip(got, batched_grid(kind, [0.3], [0.8], 0.2, 3)):
                assert np.array_equal(a, b)


class TestApplyChannel:
    """R^N as the kernel forms it, and its action on the input."""

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    def test_theta_half_pi_is_identity(self, kind):
        for n in (1, 3, 8):
            out = kernel_reduced_state(kind, 0.3, np.pi / 2, 0.7, n)
            assert max_abs_diff(out, input_reduced_state(kind, 0.3)) <= 1e-12

    def test_two_uses_equal_one_twice(self):
        r = braid_ybe.build_r(0.9, 0.3)
        assert max_abs_diff(kernel_power(0.9, 0.3, 1), r) <= 1e-12
        assert max_abs_diff(kernel_power(0.9, 0.3, 2), r @ r) <= 1e-12

    def test_theta_zero_acts_as_s_conjugation(self):
        # At theta = 0 the gate is i S; the phase drops in the adjoint action.
        # S|00>, as a (system, ancilla) matrix, gives the reduced state.
        v = braid_ybe.build_s(0.0)[:, 0].reshape(2, 2)
        out = kernel_reduced_state(ONE_QUBIT, 0.0, 0.0, 0.0, 1)
        assert max_abs_diff(out, v @ v.conj().T) <= 1e-12

    def test_purity_preserved(self):
        # R^N stays unitary, so the global state stays pure with norm 1:
        # the reduced state has trace 1 and shares the Gram pair's spectrum.
        rng = np.random.default_rng(31)
        for _ in range(20):
            kind, x, theta, phi, n = random_point(rng, 8)
            u = kernel_power(theta, phi, n)
            assert max_abs_diff(u @ u.conj().T, identity(4)) <= 1e-10
            sigma = kernel_reduced_state(kind, x, theta, phi, n)
            lam = kernel_spectrum(kind, x, theta, phi, n)
            assert abs(np.trace(sigma).real - 1.0) <= 1e-10
            assert abs(np.trace(sigma @ sigma).real - sum(v * v for v in lam)) <= 1e-10

    def test_composition_over_uses(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            j = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            theta = float(rng.uniform(0, 2 * np.pi))
            phi = float(rng.uniform(0, 2 * np.pi))
            stepped = kernel_power(theta, phi, k) @ kernel_power(theta, phi, j)
            assert max_abs_diff(kernel_power(theta, phi, j + k), stepped) <= 1e-12


class TestReducedState:
    def test_identity_channel_keeps_input_coherence(self):
        xs = np.array([0.0, 0.25, 0.5, 1.0])
        for kind in (ONE_QUBIT, TWO_QUBIT):
            c_l1, _ = batched_grid(kind, xs, [np.pi / 2], 0.9, 1)
            assert np.abs(c_l1[:, 0] - 2.0 * np.sqrt(xs * (1 - xs))).max() <= 1e-10

    def test_reduced_state_contract(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            kind, x, theta, phi, n = random_point(rng, 5)
            reduced = kernel_reduced_state(kind, x, theta, phi, n)
            assert abs(np.trace(reduced) - 1.0) <= 1e-12
            assert max_abs_diff(reduced, reduced.conj().T) <= 1e-12
            assert np.linalg.eigvalsh(reduced).min() >= -1e-10
            assert reduced.shape == ((2, 2) if kind == ONE_QUBIT else (4, 4))

    def test_reduced_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            batched_grid("both", [0.5], [0.0], 0.0, 1)


class TestClosedFormOneQubit:
    def test_identity_slice_odd_uses(self):
        for x in (0.0, 0.2, 0.5, 0.8, 1.0):
            for n in (1, 3, 5):
                value = closed_form_coherence(ONE_QUBIT, x, np.pi / 2, 0.7, n)
                assert abs(value - 2.0 * np.sqrt(x * (1 - x))) <= 1e-10

    def test_x_zero_reduces_to_alpha_term(self):
        # With eps = 0 only alpha survives: C = |alpha| / (4 sqrt(2)),
        # which also equals the simulated coherence.
        for theta in (0.3, 0.9, 2.0):
            for n in (1, 2, 3):
                alpha = 4.0 * np.sin(2 * n * theta)
                expected = abs(alpha) / (4.0 * np.sqrt(2))
                value = closed_form_coherence(ONE_QUBIT, 0.0, theta, 0.5, n)
                assert abs(value - expected) <= 1e-12
                assert abs(value - mpmath_reference(ONE_QUBIT, 0.0, theta, 0.5, n)[0]) <= 1e-12

    def test_frozen_general_point(self):
        # Away from the identity slice the reference expression and the
        # simulation differ; both values are pinned so any change to either
        # path is visible.  (x, theta, phi, N) = (0.3, 0.8, pi/4, 1).
        closed = closed_form_coherence(ONE_QUBIT, 0.3, 0.8, np.pi / 4, 1)
        sim = mpmath_reference(ONE_QUBIT, 0.3, 0.8, np.pi / 4, 1)[0]
        assert abs(closed - 0.530215648622174) <= 1e-12
        assert abs(sim - 0.700677947064328) <= 1e-12

    def test_rejects_x_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            closed_form_coherence(ONE_QUBIT, 1.5, 0.3, 0.0, 1)


class TestClosedFormTwoQubit:
    def test_x_zero_is_b(self):
        for theta in (0.2, 0.8, 1.7):
            for n in (1, 2, 4):
                expected = abs(np.sin(2 * n * theta)) / np.sqrt(2)
                value = closed_form_coherence(TWO_QUBIT, 0.0, theta, 0.0, n)
                assert abs(value - expected) <= 1e-12

    def test_identity_slice(self):
        for x in (0.0, 0.3, 0.5, 0.9):
            for n in (1, 2, 3, 4):
                value = closed_form_coherence(TWO_QUBIT, x, np.pi / 2, 0.0, n)
                assert abs(value - 2.0 * np.sqrt(x * (1 - x))) <= 1e-10

    def test_matches_simulation_everywhere(self):
        # The two-qubit closed form reproduces the reference at every
        # sampled point, both parities of N.
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(120):
            x = float(rng.uniform())
            theta = float(rng.uniform(0, 2 * np.pi))
            phi = float(rng.uniform(0, 2 * np.pi))
            n = int(rng.integers(1, 9))
            sim = mpmath_reference(TWO_QUBIT, x, theta, phi, n)[0]
            closed = closed_form_coherence(TWO_QUBIT, x, theta, phi, n)
            worst = max(worst, abs(sim - closed))
        assert worst <= 1e-10

    def test_maximum_exceeds_two(self):
        # The sweep maximum reaches ~2.22 at x = 1/2, theta = pi/4, N = 1;
        # recorded here as an observable of the closed form and the reference.
        value = closed_form_coherence(TWO_QUBIT, 0.5, np.pi / 4, 0.0, 1)
        assert abs(value - mpmath_reference(TWO_QUBIT, 0.5, np.pi / 4, 0.3, 1)[0]) <= 1e-10
        assert 2.2 < value < 2.3


class TestElementwiseOneQubit:
    def test_pole_path_returns_identity_channel_state(self):
        for x in (0.0, 0.3, 0.5, 1.0):
            for n in (1, 2, 3, 4):
                sigma, c = elementwise_reduced(ONE_QUBIT, x, np.pi / 2, 0.4, n)
                root = np.sqrt(x * (1 - x))
                expected = np.array([[1 - x, root], [root, x]], dtype=complex)
                assert max_abs_diff(sigma, expected) <= 1e-12
                assert abs(c - 2.0 * root) <= 1e-12

    def test_near_pole_routes_through_limit(self):
        sigma, _ = elementwise_reduced(ONE_QUBIT, 0.3, np.pi / 2 + 1e-9, 0.4, 1)
        root = np.sqrt(0.3 * 0.7)
        expected = np.array([[0.7, root], [root, 0.3]], dtype=complex)
        assert max_abs_diff(sigma, expected) <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10**6 + 1])
    def test_every_pole_takes_the_limit_without_raising(self, n):
        # sin(2 N theta) = 2 sin(N theta) cos(N theta), so wherever the pole
        # mask holds the companion is below 2 POLE_WINDOW: no pole k pi/(2N)
        # over the period [0, 2 pi) reaches the divergence raise.
        x = np.array([[0.0], [0.3], [1.0]])
        chunk = 2**16
        hits = 0
        for start in range(0, 4 * n, chunk):
            theta = np.arange(start, min(start + chunk, 4 * n))[None, :] * math.pi / (2 * n)
            (s11, _), (s12,) = strategies._elements(ONE_QUBIT, x, theta, 0.4, n)
            base = np.cos(n * theta) if n % 2 else np.sin(n * theta)
            pole = np.broadcast_to(np.abs(base) < strategies.POLE_WINDOW, s11.shape)
            x_at = np.broadcast_to(x, s11.shape)
            assert np.array_equal(s11[pole], 1.0 - x_at[pole])
            assert np.array_equal(s12[pole], np.sqrt(x_at[pole] * (1.0 - x_at[pole])))
            hits += int(pole[0].sum())
        assert hits == 2 * n  # every other k: the zeros of the odd/even base

    def test_trace_and_hermiticity_by_construction(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            x = float(rng.uniform())
            theta = float(rng.uniform(0, 2 * np.pi))
            phi = float(rng.uniform(0, 2 * np.pi))
            n = int(rng.integers(1, 5))
            sigma, c = elementwise_reduced(ONE_QUBIT, x, theta, phi, n)
            assert abs(np.trace(sigma) - 1.0) <= 1e-12
            assert max_abs_diff(sigma, sigma.conj().T) == 0.0
            assert c >= 0.0
            assert np.all(np.isfinite(sigma.view(float)))

    def test_sigma22_complements_sigma11(self):
        sigma, _ = elementwise_reduced(ONE_QUBIT, 0.4, 1.1, 0.6, 3)
        assert abs((sigma[0, 0] + sigma[1, 1]).real - 1.0) <= 1e-15

    def test_non_finite_element_raises(self):
        # The public functions reject a NaN x before the body sees it.
        with pytest.raises(ValueError, match=r"non-finite element at x=nan, theta=0\.3, "):
            strategies._elements(ONE_QUBIT, np.array([np.nan]), np.array([0.3]), 0.4, 1)

    def test_divergent_pole_raises(self, monkeypatch):
        # sin(2 N theta) <= 2 |base| inside the pole window, so only a sine
        # shifted off cos(N theta) reaches this guard.
        class ShiftedSine:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def sin(a):
                return np.sin(a) + 1e-6

        monkeypatch.setattr(strategies, "np", ShiftedSine())
        with pytest.raises(ValueError, match=r"sec/csc pole at theta=1\.57.*, N=1 .*diverges here"):
            elementwise_reduced(ONE_QUBIT, 0.3, np.pi / 2, 0.4, 1)


class TestElementwiseTwoQubit:
    def test_trace_one_by_construction(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            sigma, _ = elementwise_reduced(
                TWO_QUBIT,
                float(rng.uniform()),
                float(rng.uniform(0, 2 * np.pi)),
                float(rng.uniform(0, 2 * np.pi)),
                int(rng.integers(1, 5)),
            )
            assert abs(np.trace(sigma) - 1.0) <= 1e-12
            assert max_abs_diff(sigma, sigma.conj().T) == 0.0

    def test_off_diagonal_ratio_chain(self):
        for x in (0.2, 0.5, 0.9):
            sigma, _ = elementwise_reduced(TWO_QUBIT, x, 0.8, 0.3, 1)
            ratio = np.sqrt((1 - x) / x)
            assert abs(sigma[0, 1] + ratio * sigma[1, 3]) <= 1e-12
            assert abs(sigma[0, 1] - ratio * sigma[0, 2]) <= 1e-12

    def test_boundary_x_values_are_finite(self):
        for x in (0.0, 1.0):
            sigma, c = elementwise_reduced(TWO_QUBIT, x, 1.2, 0.5, 2)
            assert np.all(np.isfinite(sigma.view(float)))
            assert np.isfinite(c)

    def test_diagonal_matches_simulation(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            x = float(rng.uniform())
            theta = float(rng.uniform(0, 2 * np.pi))
            phi = float(rng.uniform(0, 2 * np.pi))
            n = int(rng.integers(1, 5))
            sigma, _ = elementwise_reduced(TWO_QUBIT, x, theta, phi, n)
            sim = mpmath_reference(TWO_QUBIT, x, theta, phi, n)[3]
            assert max_abs_diff(np.diag(sigma), np.diag(sim)) <= 1e-10

    def test_inner_block_moduli_double_the_simulation(self):
        # sigma_14 and sigma_23 carry twice the reference's moduli; pinned so
        # the evaluator is known to follow the reference form.
        for x, theta, n in ((0.3, 0.9, 1), (0.6, 2.1, 2)):
            sigma, _ = elementwise_reduced(TWO_QUBIT, x, theta, 0.4, n)
            sim = mpmath_reference(TWO_QUBIT, x, theta, 0.4, n)[3]
            assert abs(abs(sigma[0, 3]) - 2.0 * abs(sim[0, 3])) <= 1e-10
            assert abs(abs(sigma[1, 2]) - 2.0 * abs(sim[1, 2])) <= 1e-10


class TestPhiIndependence:
    def test_two_qubit_simulation_independent_of_phi(self):
        rng = np.random.default_rng(61)
        phis = (0.0, np.pi / 6, np.pi / 4, 1.0)
        for _ in range(50):
            x = float(rng.uniform())
            theta = float(rng.uniform(0, 2 * np.pi))
            n = int(rng.integers(1, 9))
            values = [mpmath_reference(TWO_QUBIT, x, theta, p, n)[0] for p in phis]
            assert max(values) - min(values) <= 1e-10


def one_kernel_call(kind, x, theta, phi, n):
    """The kernel over the broadcast of x and theta in one call, without blocks."""
    return strategies._weighted_measures(kind, strategies._theta_terms(kind, theta, phi, n), x)


class TestBatchedGrid:
    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_pointwise_oracle(self, kind, n):
        xs = np.linspace(0.0, 1.0, 7)
        thetas = np.linspace(0.0, 2.0 * np.pi, 9)
        c_l1, c_r = batched_grid(kind, xs, thetas, 0.61, n)
        for i, x in enumerate(xs):
            for j, theta in enumerate(thetas):
                ref_l1, ref_r, _, _ = mpmath_reference(kind, float(x), float(theta), 0.61, n)
                assert abs(c_l1[i, j] - ref_l1) <= 1e-12
                assert abs(c_r[i, j] - ref_r) <= 1e-12

    @pytest.mark.parametrize(
        "kind, xs, thetas, phi, n, message",
        [
            (ONE_QUBIT, [1.5], [0.1], 0.0, 1, r"\[0, 1\]"),
            (ONE_QUBIT, [np.nan], [0.1], 0.0, 1, r"\[0, 1\]"),
            (TWO_QUBIT, [0.5], [np.inf], 0.0, 1, "finite"),
            (TWO_QUBIT, [0.5], [0.1], 0.0, 0, "n_uses"),
            ("three", [0.5], [0.1], 0.0, 1, "kind"),
            (ONE_QUBIT, [0.5], [0.1], 0.0, 2**53 + 1, r"2\*\*53"),
            # 2 N theta overflows: past it the sines are NaN.
            (TWO_QUBIT, [0.0, 1.0], [0.0, 1.5e307 * math.pi], 0.0, 2, "2 N theta"),
            (ONE_QUBIT, [0.5], [0.0, 1e300 * math.pi], 0.0, 10**9, "2 N theta"),
            (ONE_QUBIT, [0.5], [-1e300], 0.0, 10**9, "2 N theta"),
            # N past 2**53 is named as such, whatever theta is.
            pytest.param(TWO_QUBIT, [0.5], [1e-300], 0.0, 10**400, r"2\*\*53", id="N-1e400"),
            pytest.param(
                ONE_QUBIT, [0.5], [0.0], 0.0, 10**400, r"2\*\*53", id="N-1e400-theta-0"
            ),
        ],
    )
    def test_validates_inputs(self, kind, xs, thetas, phi, n, message):
        with pytest.raises(ValueError, match=message):
            batched_grid(kind, xs, thetas, phi, n)

    def test_validates_the_grid_once(self, monkeypatch):
        calls = []
        check = strategies._check_points
        monkeypatch.setattr(
            strategies, "_check_points", lambda *args: calls.append(args) or check(*args)
        )
        walk = strategies.grid_blocks(
            TWO_QUBIT, [0.0, 0.5, 1.0], [0.1, 0.2], [0.0, 0.3, 1.1], [1, 2, 3, 4],
            strategies.sweep_columns,
        )
        assert np.concatenate(list(walk)).shape == (3, 2, 12, 4)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "phis, ns, message",
        [
            ([0.0, np.nan], [1], "phi must be finite, got nan"),
            ([0.0], [1, 0], "n_uses must be a positive integer, got 0"),
            ([0.0], [1, 2**53 + 1], r"N must be at most 2\*\*53, got 9007199254740993"),
        ],
    )
    def test_checks_every_phi_and_n(self, phis, ns, message):
        # A bad value after a good one is still refused, before any block.
        walk = strategies.grid_blocks(ONE_QUBIT, [0.5], [0.1], phis, ns, strategies.sweep_columns)
        with pytest.raises(ValueError, match=f"^{message}$"):
            next(walk)

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    def test_trace_check_raises(self, kind, monkeypatch):
        # A channel that is not trace preserving must fail loudly instead
        # of producing clipped numbers.
        original = strategies._power_coefficients
        monkeypatch.setattr(
            strategies, "_power_coefficients", lambda *a: [1.01 * c for c in original(*a)]
        )
        with pytest.raises(ValueError, match="trace"):
            batched_grid(kind, [0.2, 0.5], [0.3, 1.1], 0.4, 2)

    @pytest.mark.parametrize("smallest, raises", [(-1e-9, True), (-1e-11, False)])
    def test_negative_eigenvalue_check(self, smallest, raises, monkeypatch):
        # Below -EIG_CLAMP is an error; noise within the clamp is set to 0.
        original = strategies._pair_spectrum

        def pair_spectrum(*gram):
            lam = original(*gram)
            lam[0] = smallest
            return lam

        monkeypatch.setattr(strategies, "_pair_spectrum", pair_spectrum)
        if raises:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                batched_grid(ONE_QUBIT, [0.5], [0.3], 0.0, 1)
        else:
            assert np.isfinite(batched_grid(ONE_QUBIT, [0.5], [0.3], 0.0, 1)[1]).all()

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    def test_kernel_broadcasts_x_and_theta(self, kind):
        xs, thetas = np.array([0.0, 0.3, 1.0]), np.array([0.2, 1.1, 2.5, 4.0])
        grid = batched_grid(kind, xs, thetas, 0.4, 3)
        for x, theta, transpose in (
            (xs[:, None], thetas[None, :], False),
            (xs[None, :], thetas[:, None], True),
        ):
            for got, want in zip(one_kernel_call(kind, x, theta, 0.4, 3), grid):
                assert np.array_equal(got.T if transpose else got, want)

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    def test_blocks_equal_one_kernel_call(self, kind, monkeypatch):
        # Blocks of 2 rows of 3 thetas, the last block short: every value
        # is elementwise in x, so the bytes equal one call over the plane.
        xs, thetas = np.linspace(0.0, 1.0, 7), np.array([0.2, 1.1, 2.5])
        whole = one_kernel_call(kind, xs[:, None], thetas[None, :], 0.4, 3)
        monkeypatch.setattr(strategies, "_BLOCK_POINTS", 7)
        for got, want in zip(batched_grid(kind, xs, thetas, 0.4, 3), whole):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    def test_kernel_peak_does_not_grow_with_x_rows(self, kind, monkeypatch):
        # Beyond the two result arrays and the block results they are joined
        # from, the traced peak is one block's working memory, whatever the
        # number of x rows.
        thetas = np.linspace(0.0, 2.0 * np.pi, 256)

        def working_peak(rows):
            tracemalloc.start()
            try:
                batched_grid(kind, np.linspace(0.0, 1.0, rows), thetas, 0.4, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - 4 * rows * thetas.size * 8

        one_block = working_peak(strategies._BLOCK_POINTS // thetas.size)
        assert working_peak(20 * strategies._BLOCK_POINTS // thetas.size) <= 1.1 * one_block

        # The sweep walk over 12 planes, streamed through the CSV row writer
        # as the CLI streams it: one block is alive at a time, so a grid of
        # 20 blocks peaks as one of 4.  (One of 2, x = 0 and 1, peaks lower:
        # those rows repeat more values, so their chunks format fewer
        # distinct doubles.)  tracemalloc slows the row formatting about
        # tenfold, so these walks run at a block budget of 2**12 points (one
        # x row a block here) to keep the formatted rows few.
        monkeypatch.setattr(strategies, "_BLOCK_POINTS", 2**12)
        phis, ns = (0.0, 0.25 * np.pi, 0.5 * np.pi), (1, 2, 3, 4)

        def sweep_peak(rows):
            axes = (np.linspace(0.0, 1.0, rows), thetas, phis, ns)
            return streamed_peak(kind, axes, strategies.sweep_columns, cli.SWEEP_HEADER)

        assert sweep_peak(20) <= 1.1 * sweep_peak(4)

        # compare on one 250-theta plane, its summary fed each block: 8
        # blocks of x rows peak as 2, with nothing subtracted.
        thetas = np.linspace(0.0, 2.0 * np.pi, 250)

        def compare_peak(rows):
            axes = (np.linspace(0.0, 1.0, rows), thetas, (0.4,), (3,))
            summary = DeviationSummary((3,))
            return streamed_peak(kind, axes, compare_columns, cli.COMPARE_HEADER, summary)

        rows = strategies._BLOCK_POINTS // thetas.size
        assert compare_peak(8 * rows) <= 1.1 * compare_peak(2 * rows)

    def test_sweep_grid_streams_in_one_block_of_working_memory(self):
        # The benchmark's sweep grid, 101 x 256 x 3 phi x 4 N: with the
        # previous block freed before the next is built, its traced peak is
        # under 6 MB (4.4 MB with numpy 2.4, against 8.6 MB while the
        # previous block and the per-plane stacks were still alive).
        axes = (np.linspace(0.0, 1.0, 101), np.linspace(0.0, 2.0 * np.pi, 256),
                (0.0, 0.25 * np.pi, 0.5 * np.pi), (1, 2, 3, 4))
        peak = streamed_peak(TWO_QUBIT, axes, strategies.sweep_columns, cli.SWEEP_HEADER)
        assert peak < 6_000_000

    def test_c_r_is_non_negative_on_the_sweep_one_large_grid(self):
        # Before the kernel's final clamp, 22 one-qubit c_r values on this
        # grid round below 0, down to -2.2e-16; the clamp keeps them at 0.
        grid = {"x": "0:1:101", "theta": "0:2:256", "phi": "0,0.25,0.5", "n": "1,2,3,4"}
        axes = cli._grid_axes(grid, 1)
        for block in strategies.grid_blocks(ONE_QUBIT, *axes, strategies.sweep_columns):
            assert block[..., 1].min() >= 0.0

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    def test_reaches_no_gate_power_or_eigensolver(self, kind, monkeypatch):
        # The kernel works from cos(N a), sin(N a) and two columns of S: no
        # channel unitary, gate, matrix power, tensor product or eigvalsh.
        def forbidden(*args, **kwargs):
            raise AssertionError("the kernel reached a gate, matrix power or eigensolver")

        for owner, name in (
            (braid_ybe, "build_r"),
            (linalg, "kron"),
            (np, "kron"),
            (np.linalg, "matrix_power"),
            (np.linalg, "eigvalsh"),
        ):
            monkeypatch.setattr(owner, name, forbidden)
        batched_grid(kind, [0.0, 0.3, 1.0], [0.2, 1.9], 0.4, 10**9 + 1)
        compare_values(kind, (0.0, 0.3), (0.2, np.pi / 2), (0.0, 0.5), (1, 2, 7))


def sweep_closed(kind, xs, thetas, phi, n):
    """The closed-form column of ``ybc sweep`` over an (x, theta) plane."""
    blocks = strategies.grid_blocks(kind, xs, thetas, [phi], [n], strategies.sweep_columns)
    return np.concatenate(list(blocks))[:, :, 0, 2]


class TestClosedFormPlane:
    XS = np.concatenate([np.linspace(0.0, 1.0, 21), [0.5, 1e-300, 1.0 - 1e-16, 1.0 / 3.0]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10**6 + 1])
    def test_bitwise_equal_to_scalar_forms(self, n):
        poles = [k * math.pi / (2 * n) for k in range(-2, 4 * n + 3)] if n < 10 else [
            k * math.pi / (2 * n) for k in (-1, 0, 1, 2, 3, 1000, 10**6 + 1)
        ]
        thetas = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 37), poles, [1e-9, -2.5]])
        for phi in (0.0, math.pi / 4.0, 0.13 * math.pi, 1.7 * math.pi, -2.3):
            one = sweep_closed(ONE_QUBIT, self.XS, thetas, phi, n)
            two = sweep_closed(TWO_QUBIT, self.XS, thetas, phi, n)
            assert one.shape == two.shape == (len(self.XS), len(thetas))
            for i, x in enumerate(self.XS.tolist()):
                for j, theta in enumerate(thetas.tolist()):
                    assert one[i, j] == closed_form_coherence(ONE_QUBIT, x, theta, phi, n)
                    assert two[i, j] == closed_form_coherence(TWO_QUBIT, x, theta, phi, n)

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    def test_validates_whole_plane(self, kind):
        xs, thetas = np.array([0.0, 0.5]), np.array([0.1, 0.2])
        for bad_xs in ([0.0, 1.5], [-0.1, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                sweep_closed(kind, np.array(bad_xs), thetas, 0.0, 1)
        for n in (0, -1, 1.7, 2.0, True):
            with pytest.raises(ValueError, match="n_uses"):
                sweep_closed(kind, xs, thetas, 0.0, n)
        for bad_thetas, phi in (([0.1, np.inf], 0.0), ([0.1, np.nan], 0.0), ([0.1], np.nan)):
            with pytest.raises(ValueError, match="finite"):
                sweep_closed(kind, xs, np.array(bad_thetas), phi, 1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            sweep_closed("three", [0.5], [0.1], 0.0, 1)

    def test_scalar_forms_reject_non_integral_uses(self):
        with pytest.raises(ValueError, match="n_uses"):
            closed_form_coherence(ONE_QUBIT, 0.5, 0.3, 0.0, 1.7)
        with pytest.raises(ValueError, match="n_uses"):
            closed_form_coherence(TWO_QUBIT, 0.5, 0.3, 0.0, True)


def pole_thetas(n):
    """The poles k pi/(2N), inside POLE_WINDOW of them and just outside it."""
    poles = [k * math.pi / (2 * n) for k in range(-1, 4 * n + 2)]
    return [p + d for p in poles for d in (0.0, -1e-9, 1e-9, -1e-7, 1e-7)]


# The columns of ``compare_columns``: the five that compare prints, then
# the lowest diagonal entry of the element assembly.
COMPARE_COLUMNS = (
    "c_l1_sim",
    "c_l1_closed",
    "c_l1_appendix",
    "deviation_closed",
    "deviation_appendix",
    "lowest_diagonal",
)


def compare_values(kind, xs, thetas, phis, ns, formula="all"):
    """compare's columns over one kind's grid, values[ix, it, ip, j, column]."""
    columns = functools.partial(compare_columns, formula=formula)
    blocks = strategies.grid_blocks(kind, xs, thetas, phis, ns, columns)
    values = np.concatenate(list(blocks))
    return values.reshape(values.shape[:2] + (len(phis), len(ns), len(COMPARE_COLUMNS)))


def column(values, name):
    return values[..., COMPARE_COLUMNS.index(name)]


def compare_summary(kinds, xs, thetas, phis, ns):
    """compare's summary of the grid, fed each block as the CLI walks it."""
    summary = DeviationSummary(ns)
    for kind in kinds:
        for block in strategies.grid_blocks(kind, xs, thetas, phis, ns, compare_columns):
            summary.add(kind, block)
    return summary


def assert_compare_matches_pointwise(kind, values, xs, thetas, phis, ns):
    """Every point of one kind's compare columns against the kernel and the scalar evaluators.

    The simulation column equals, bit for bit, the entry of ``batched_grid``
    at the point, and the lowest-diagonal column the smallest diagonal
    entry of the 4x4 assembly (0.0 for the one-qubit kind).  Returns the
    smallest of those entries, or 0.0.
    """
    planes = {}
    worst = 0.0
    for ix, it, ip, j in np.ndindex(values.shape[:-1]):
        n = ns[j]
        x, theta, phi = float(xs[ix]), float(thetas[it]), float(phis[ip])
        if (ip, j) not in planes:
            planes[ip, j] = batched_grid(kind, xs, thetas, phi, n)[0]
        point = dict(zip(COMPARE_COLUMNS, values[ix, it, ip, j].tolist()))
        assert point["c_l1_sim"] == planes[ip, j][ix, it]
        closed = closed_form_coherence(kind, x, theta, phi, n)
        sigma, appendix = elementwise_reduced(kind, x, theta, phi, n)
        lowest = 0.0 if kind == ONE_QUBIT else float(np.diag(sigma).real.min())
        assert point["c_l1_closed"] == closed
        assert point["c_l1_appendix"] == appendix
        assert point["deviation_closed"] == abs(point["c_l1_sim"] - point["c_l1_closed"])
        assert point["deviation_appendix"] == abs(point["c_l1_sim"] - point["c_l1_appendix"])
        assert point["lowest_diagonal"] == lowest
        worst = min(worst, lowest)
    return worst


def expected_flags(worst_negative):
    if worst_negative < -1e-10:
        return (
            "two-qubit element assembly produced a negative diagonal entry "
            f"({worst_negative:.3e})",
        )
    return ()


BOTH = (ONE_QUBIT, TWO_QUBIT)


def stats_tuples(summary):
    return [
        (s.kind, s.formula, s.parity, s.count, s.max_deviation, s.mean_deviation)
        for s in summary.stats()
    ]


class TestPublicFormulas:
    """``closed_form_coherence`` and ``elementwise_reduced`` against compare's columns."""

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10**6 + 1])
    def test_plane_is_bitwise_the_compare_columns(self, kind, n):
        xs = np.array([0.0, 0.3, 0.5, 1.0 / 3.0, 1.0])
        poles = pole_thetas(n) if n < 10 else [k * math.pi / (2 * n) for k in (-1, 0, 1, 1000)]
        thetas = np.concatenate([np.linspace(-2.5, 2.0 * np.pi, 29), poles])
        phis = (0.0, math.pi / 4.0, -1.9)
        values = compare_values(kind, xs, thetas, phis, (n,))
        for ip, phi in enumerate(phis):
            closed = closed_form_coherence(kind, xs[:, None], thetas[None, :], phi, n)
            sigma, appendix = elementwise_reduced(kind, xs[:, None], thetas[None, :], phi, n)
            assert sigma.shape == appendix.shape + ((2, 2) if kind == ONE_QUBIT else (4, 4))
            assert np.array_equal(closed, column(values, "c_l1_closed")[:, :, ip, 0])
            assert np.array_equal(appendix, column(values, "c_l1_appendix")[:, :, ip, 0])

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    def test_broadcast_is_bitwise_the_point_calls(self, kind):
        xs, thetas = np.array([[0.0], [0.3], [0.8]]), np.array([[0.2, 0.7, np.pi / 2, 2.5, -3.0]])
        closed = closed_form_coherence(kind, xs, thetas, -0.4, 3)
        sigma, l1 = elementwise_reduced(kind, xs, thetas, -0.4, 3)
        assert closed.shape == l1.shape == (3, 5)
        for i, j in np.ndindex(3, 5):
            x, theta = float(xs[i, 0]), float(thetas[0, j])
            point = closed_form_coherence(kind, x, theta, -0.4, 3)
            point_sigma, point_l1 = elementwise_reduced(kind, x, theta, -0.4, 3)
            assert np.shape(point) == np.shape(point_l1) == ()
            assert point_sigma.shape == sigma.shape[-2:]
            assert point == closed[i, j] and point_l1 == l1[i, j]
            assert point_sigma.tobytes() == sigma[i, j].tobytes()

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    @pytest.mark.parametrize("formula", [closed_form_coherence, elementwise_reduced])
    def test_reject_n_beyond_2_to_the_53(self, kind, formula):
        # Past 2**53 an int N is not a float64: its parity and the angles of
        # its rounded float would describe two different N.
        formula(kind, 0.5, 0.1, 0.0, 2**53)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            formula(kind, 0.5, 0.1, 0.0, 2**53 + 1)


class TestDiscrepancyReport:
    """compare's cross-check as it streams: ``compare_columns`` and ``DeviationSummary``."""

    @pytest.mark.parametrize("kind", [ONE_QUBIT, TWO_QUBIT])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_records_match_pointwise_oracle(self, kind, n):
        xs, thetas, phis = (0.0, 0.3, 0.5, 1.0), pole_thetas(n), (0.0, 0.37 * math.pi, -1.9)
        values = compare_values(kind, xs, thetas, phis, (n,))
        assert values.shape == (len(xs), len(thetas), len(phis), 1, len(COMPARE_COLUMNS))
        worst = assert_compare_matches_pointwise(kind, values, xs, thetas, phis, (n,))
        summary = compare_summary((kind,), xs, thetas, phis, (n,))
        assert summary.worst_negative == worst
        assert summary.flags == expected_flags(worst)

    def test_interleaved_generator_keeps_input_order(self):
        # Unsorted axes, phi 0 and -0 interleaved and the kinds from a
        # generator: every entry sits at the grid point of its indices, and
        # the summary lists the kinds in its own order.
        xs, phis, ns = (1.0, 0.0, 0.3), (-0.0, 0.9, 0.0), (2, 1)
        thetas = np.random.default_rng(5).permutation([0.0, 0.7, np.pi / 2, 2.0])
        summary = DeviationSummary(ns)
        for kind in (k for k in (TWO_QUBIT, ONE_QUBIT)):
            values = compare_values(kind, xs, thetas, phis, ns)
            assert values.shape == (3, 4, 3, 2, len(COMPARE_COLUMNS))
            assert_compare_matches_pointwise(kind, values, xs, thetas, phis, ns)
            summary.add(kind, values.reshape((3, 4, 6, len(COMPARE_COLUMNS))))
        assert [s.kind for s in summary.stats()] == [ONE_QUBIT] * 4 + [TWO_QUBIT] * 4

    def test_negative_diagonal_flag(self, monkeypatch):
        # The flag reports the smallest diagonal entry of any 4x4 assembly;
        # shift the shared assembly body so that some entries go negative.
        body = strategies._elements

        def shifted(kind, x, *rest):
            diagonal, upper = body(kind, x, *rest)
            if kind == TWO_QUBIT:
                s11, s22, s33, s44 = diagonal
                diagonal = (s11, s22, s33, s44 - 1e-9 * (1.0 + x))
            return diagonal, upper

        monkeypatch.setattr(strategies, "_elements", shifted)
        xs, thetas, phis, ns = (0.0, 0.6, 1.0), (0.0, 0.4), (0.3,), (1, 2)
        worst = min(
            assert_compare_matches_pointwise(
                kind, compare_values(kind, xs, thetas, phis, ns), xs, thetas, phis, ns
            )
            for kind in BOTH
        )
        assert worst < -1e-10
        summary = compare_summary(BOTH, xs, thetas, phis, ns)
        assert summary.flags == expected_flags(worst)
        assert f"flag: {expected_flags(worst)[0]}" in summary.format_summary()

    @pytest.mark.parametrize("lowest, flagged", [(-5e-10, True), (-1e-10, False), (-5e-11, False)])
    def test_flag_threshold_is_minus_1e_minus_10(self, lowest, flagged):
        summary = DeviationSummary((1,))
        block = np.full((1, 1, 1, len(COMPARE_COLUMNS)), np.nan)
        block[..., -1] = lowest
        summary.add(TWO_QUBIT, block)
        assert summary.worst_negative == lowest
        assert summary.flags == expected_flags(lowest)
        assert bool(summary.flags) is flagged

    def test_identity_slice_agreement(self):
        # At theta = pi/2 every evaluator that reduces to the identity
        # channel agrees with the kernel: the two-qubit closed form, the
        # one-qubit closed form at odd N, and both element assemblies for
        # the one-qubit strategy.
        ns = (1, 2, 3, 4)
        axes = ((0.0, 0.25, 0.5, 0.75, 1.0), (np.pi / 2,), (0.0, np.pi / 4), ns)
        one, two = (compare_values(kind, *axes) for kind in BOTH)
        odd = [n % 2 == 1 for n in ns]
        assert column(two, "deviation_closed").max() <= 1e-10
        assert column(one, "deviation_closed")[..., odd].max() <= 1e-10
        assert column(one, "deviation_appendix").max() <= 1e-10

    def test_even_use_closed_form_gap_on_identity_slice(self):
        # The reference one-qubit closed form returns 0 for even N at
        # theta = pi/2 while the kernel returns 2 sqrt(x (1 - x)); compare
        # records the gap instead of asserting agreement.
        values = compare_values(ONE_QUBIT, (0.5,), (np.pi / 2,), (0.0,), (2,))
        point = dict(zip(COMPARE_COLUMNS, values.reshape(-1).tolist()))
        assert point["c_l1_closed"] <= 1e-12
        assert abs(point["c_l1_sim"] - 1.0) <= 1e-10
        assert abs(point["deviation_closed"] - 1.0) <= 1e-10

    def test_summary_has_stats_per_formula_and_parity(self):
        summary = compare_summary(BOTH, (0.2, 0.7), (0.4, 1.2), (0.3,), (1, 2))
        labels = {(s.kind, s.formula, s.parity) for s in summary.stats()}
        assert (ONE_QUBIT, "closed", "odd") in labels
        assert (TWO_QUBIT, "appendix", "even") in labels
        text = summary.format_summary()
        assert "max dev" in text and "closed" in text

    def test_stats_reduce_finite_deviations_in_row_order(self):
        # The summary takes max and a sum/count in row order (kind, x,
        # theta, phi, N) and skips NaN, as compare --formula blanks.
        xs, thetas, phis, ns = (0.1, 0.9), (0.3, 2.5), (0.2, 1.1), (3, 1, 2)
        values = {kind: compare_values(kind, xs, thetas, phis, ns) for kind in BOTH}
        column(values[ONE_QUBIT], "deviation_appendix")[0] = np.nan
        summary = DeviationSummary(ns)
        for kind in (TWO_QUBIT, ONE_QUBIT):
            summary.add(kind, values[kind].reshape((2, 2, 6, len(COMPARE_COLUMNS))))
        expected = []
        for kind in BOTH:
            for formula in ("closed", "appendix"):
                for parity, keep in (("odd", 1), ("even", 0)):
                    devs = column(values[kind], f"deviation_{formula}")
                    devs = devs[..., np.array(ns) % 2 == keep]
                    devs = [d for d in devs.ravel().tolist() if math.isfinite(d)]
                    if devs:
                        total = 0.0
                        for d in devs:
                            total += d
                        mean = total / len(devs)
                        expected.append((kind, formula, parity, len(devs), max(devs), mean))
        assert stats_tuples(summary) == expected

    @pytest.mark.parametrize("formula", ["all", "closed", "elements"])
    def test_summary_does_not_depend_on_the_blocks(self, formula, monkeypatch):
        # The same grid walked in one block and in blocks of one x row.
        xs, thetas = np.linspace(0.0, 1.0, 9), np.linspace(0.1, 6.0, 7)
        phis, ns = (0.0, 0.7), (1, 2, 3)
        columns = functools.partial(compare_columns, formula=formula)

        def summary():
            result = DeviationSummary(ns)
            for kind in BOTH:
                blocks = list(strategies.grid_blocks(kind, xs, thetas, phis, ns, columns))
                for block in blocks:
                    result.add(kind, block)
            return len(blocks), result

        whole_blocks, whole = summary()
        monkeypatch.setattr(strategies, "_BLOCK_POINTS", 1)
        row_blocks, rows = summary()
        assert (whole_blocks, row_blocks) == (1, len(xs))
        assert rows.stats() == whole.stats() and rows.stats()
        assert rows.format_summary() == whole.format_summary()

    def test_empty_grid_rejected(self):
        axes = ((0.5,), (0.1,), (0.0,), (1,))
        for i in range(len(axes)):
            with pytest.raises(ValueError, match="empty"):
                compare_values(ONE_QUBIT, *axes[:i], (), *axes[i + 1:])

    def test_harness_detects_injected_channel_bug(self, monkeypatch):
        # Conjugating the kernel's S by exp(i 0.01 X (x) I) on the gate's
        # qubit pair must push compare's deviation against the two-qubit
        # closed form above 1e-3, confirming the cross-check would catch a
        # wrong channel.  S stays a Hermitian involution, so R^N stays
        # unitary and the kernel's trace check passes.
        x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
        pert = np.cos(0.01) * identity(4) + 1j * np.sin(0.01) * kron(x_gate, identity(2))
        build_s = strategies._s
        thetas = np.linspace(0.3, 5.9, 12)

        def worst_deviation():
            values = compare_values(TWO_QUBIT, (0.5,), thetas, (np.pi / 4,), (1,))
            return float(column(values, "deviation_closed").max())

        assert worst_deviation() <= 1e-10
        monkeypatch.setattr(strategies, "_s", lambda phi: pert @ build_s(phi) @ pert.conj().T)
        assert worst_deviation() > 1e-3
