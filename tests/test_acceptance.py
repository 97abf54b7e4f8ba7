"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every line; without
``-s`` pytest still shows the lines of failing criteria.  Criterion 10 is
expected to fail honestly: the simulated two-qubit coherence (and equally
the reference closed form, which matches it to machine precision) has its
angular maxima 0.039 rad away from (n + 1/2) pi/2, which is 1.6 steps of
the 256-point figure grid, not within one step as the criterion demands.

The criteria on the simulation read it through its kernel, one (x, theta)
plane at a time (``reference.batched_grid``), and its building blocks;
the 40-digit mpmath evaluation of R^N on the input (``reference.py``) is
their reference.
"""

import math

import numpy as np
import pytest

from ybc import cli, strategies
from ybc.braid_ybe import (
    build_hamiltonian,
    build_s,
    check_braid_relation,
    check_far_commutation,
    check_ybe_additive,
    check_ybe_multiplicative,
    yang_baxterize_eight_vertex,
)
from ybc.gates import equivalence_residuals, local_invariants
from ybc.linalg import identity, max_abs_diff
from ybc.strategies import (
    ONE_QUBIT,
    TWO_QUBIT,
    compare_columns,
)

from reference import batched_grid, kernel_spectrum, mpmath_reference

PHI_GRID = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
X_GRID = np.linspace(0.0, 1.0, 101)
THETA_GRID = np.linspace(0.0, 2.0 * np.pi, 256)
THETA_STEP = THETA_GRID[1] - THETA_GRID[0]


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def figure_one_n1():
    c, _ = batched_grid(ONE_QUBIT, X_GRID, THETA_GRID, math.pi / 4, 1)
    return c


@pytest.fixture(scope="module")
def figure_two_n1():
    c, _ = batched_grid(TWO_QUBIT, X_GRID, THETA_GRID, math.pi / 4, 1)
    return c


@pytest.fixture(scope="module")
def figure_two_n2():
    c, _ = batched_grid(TWO_QUBIT, X_GRID, THETA_GRID, math.pi / 4, 2)
    return c


def test_criterion_01_s_matrix_algebra():
    worst_unitary = max(
        max_abs_diff(build_s(p).conj().T @ build_s(p), identity(4)) for p in PHI_GRID
    )
    worst_involution = max(
        max_abs_diff(build_s(p) @ build_s(p), identity(4)) for p in PHI_GRID
    )
    ok = worst_unitary <= 1e-12 and worst_involution <= 1e-12
    criterion(
        1,
        ok,
        f"S unitarity residual {worst_unitary:.2e}, "
        f"involution residual {worst_involution:.2e} (tol 1e-12)",
    )


def test_criterion_02_braid_relation():
    worst_braid = max(check_braid_relation(build_s(p)) for p in PHI_GRID)
    worst_far = max(check_far_commutation(build_s(p)) for p in PHI_GRID)
    ok = worst_braid <= 1e-12 and worst_far <= 1e-12
    criterion(
        2,
        ok,
        f"braid residual {worst_braid:.2e}, four-strand commutation "
        f"{worst_far:.2e} (tol 1e-12)",
    )


def test_criterion_03_additive_ybe():
    values = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    worst = max(
        check_ybe_additive(phi, mu, nu)
        for phi in (0.0, math.pi / 4, 1.1)
        for mu in values
        for nu in values
    )
    criterion(3, worst <= 1e-10, f"additive YBE residual {worst:.2e} (tol 1e-10)")


def test_criterion_04_multiplicative_ybe():
    spectral = (0.25, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for sign in (+1, -1):
        for q in (1.0, np.exp(-1j * np.pi / 4), np.exp(-1j * np.pi / 3)):
            builder = lambda t, s=sign, qq=q: yang_baxterize_eight_vertex(s, qq, t)
            for x in spectral:
                for y in spectral:
                    worst = max(worst, check_ybe_multiplicative(builder, x, y))
    criterion(
        4, worst <= 1e-10, f"eight-vertex mult. YBE residual {worst:.2e} (tol 1e-10)"
    )


def test_criterion_05_dcnot_equivalence():
    # Local equivalence at every phase of the grid, by Makhlin's invariants,
    # and the explicit factors at phi = 0.
    g1, g2 = local_invariants(build_s(PHI_GRID))
    invariants = max(np.abs(g1).max(), np.abs(g2 + 1.0).max())
    factors = equivalence_residuals(0.0)
    ok = invariants <= 1e-10 and factors <= 1e-10
    criterion(
        5,
        ok,
        f"(G1, G2) = (0, -1) of DCNOT to {invariants:.2e} over {PHI_GRID.size} "
        f"phases; factorization residual {factors:.2e} at phi=0 (tol 1e-10)",
    )


def test_criterion_06_hamiltonian_finite_difference():
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for theta in (0.3, 1.0, 2.2):
            for phi in (0.0, math.pi / 4):
                h = build_hamiltonian(theta, phi, gamma=gamma, step=1e-4)
                worst = max(worst, max_abs_diff(h, gamma * build_s(phi)))
    e1 = max_abs_diff(build_hamiltonian(0.8, 0.3, step=1e-4), build_s(0.3))
    e2 = max_abs_diff(build_hamiltonian(0.8, 0.3, step=5e-5), build_s(0.3))
    ratio = e1 / e2
    ok = worst <= 1e-6 and 3.0 <= ratio <= 5.0
    criterion(
        6,
        ok,
        f"H error {worst:.2e} at step 1e-4 (tol 1e-6); halving ratio {ratio:.2f}",
    )


def test_criterion_07_identity_channel_fixed_point():
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    worst = 0.0
    for kind in (ONE_QUBIT, TWO_QUBIT):
        for n in range(1, 9):
            value, _ = batched_grid(kind, xs, [math.pi / 2], 0.9, n)
            worst = max(worst, float(np.abs(value[:, 0] - 2.0 * np.sqrt(xs * (1.0 - xs))).max()))
    criterion(
        7, worst <= 1e-10, f"theta=pi/2 coherence deviation {worst:.2e} (tol 1e-10)"
    )


def test_criterion_08_purity_and_composition():
    # R^(j+k) = R^j R^k: cos and sin of (j + k) a follow from those of j a
    # and k a by angle addition, for small and for large use counts.
    rng = np.random.default_rng(101)
    thetas = rng.uniform(0, 2 * math.pi, 64)
    uses = [tuple(rng.integers(1, 5, 2)) for _ in range(10)]
    uses += [tuple(rng.integers(1, 10**9, 2)) for _ in range(10)]
    worst_comp = 0.0
    for j, k in uses:
        # One call, one N per row, as the kernel evaluates the N of its planes.
        uses_column = np.array([[j], [k], [j + k]], dtype=np.int64)
        (cos_j, cos_k, cos_jk), (sin_j, sin_k, sin_jk) = strategies._power_coefficients(
            thetas, uses_column
        )
        worst_comp = max(
            worst_comp,
            float(np.abs(cos_jk - (cos_j * cos_k - sin_j * sin_k)).max()),
            float(np.abs(sin_jk - (sin_j * cos_k + cos_j * sin_k)).max()),
        )
    # The global state stays pure: the Gram pair, the reduced state's
    # spectrum, sums to 1 and matches the reference's.
    worst_purity = worst_spectrum = 0.0
    for kind in (ONE_QUBIT, TWO_QUBIT):
        for x in (0.3, 0.7):
            theta = float(rng.uniform(0, 2 * math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            for n in range(1, 9):
                lam = kernel_spectrum(kind, x, theta, phi, n)
                _, _, ref_lam, _ = mpmath_reference(kind, x, theta, phi, n)
                worst_purity = max(worst_purity, abs(sum(lam) - 1.0))
                worst_spectrum = max(worst_spectrum, max(abs(a - b) for a, b in zip(lam, ref_lam)))
    ok = worst_purity <= 1e-10 and worst_spectrum <= 1e-12 and worst_comp <= 1e-12
    criterion(
        8,
        ok,
        f"Gram pair sum off 1 by {worst_purity:.2e} (tol 1e-10), off the reference "
        f"spectrum by {worst_spectrum:.2e} (tol 1e-12); angle addition residual "
        f"{worst_comp:.2e} (tol 1e-12)",
    )


def _edge_coherence(kind) -> float:
    """The largest N = 1 coherence at x in {0, 1} and theta = n pi/2, n = 0..4."""
    thetas = [n * math.pi / 2 for n in range(5)]
    c_l1, _ = batched_grid(kind, [0.0, 1.0], thetas, math.pi / 4, 1)
    return float(c_l1.max())


def test_criterion_09_figure_two_qualitative(figure_one_n1):
    ix, _ = np.unravel_index(np.argmax(figure_one_n1), figure_one_n1.shape)
    x_star = X_GRID[ix]
    x_ok = abs(x_star - 0.5) <= (X_GRID[1] - X_GRID[0]) + 1e-15
    worst_edge = _edge_coherence(ONE_QUBIT)
    ok = x_ok and worst_edge <= 1e-10
    criterion(
        9,
        ok,
        f"one-qubit N=1 max at x={x_star:.3f} (want 0.5 +/- one step); "
        f"edge coherence {worst_edge:.2e} (tol 1e-10)",
    )


def _theta_argmax_distance(surface) -> float:
    """Distance (radians) from the global theta-argmax to the nearest
    (n + 1/2) pi/2."""
    _, jt = np.unravel_index(np.argmax(surface), surface.shape)
    theta_star = THETA_GRID[jt]
    special = [(n + 0.5) * math.pi / 2 for n in range(4)]
    return min(abs(theta_star - s) for s in special), theta_star


def _count_theta_maxima(row) -> int:
    return sum(
        1 for k in range(1, len(row) - 1) if row[k] > row[k - 1] and row[k] > row[k + 1]
    )


def test_criterion_10_figure_four_qualitative(figure_two_n1, figure_two_n2):
    distance, theta_star = _theta_argmax_distance(figure_two_n1)
    max_ok = distance <= THETA_STEP + 1e-15
    worst_edge = _edge_coherence(TWO_QUBIT)
    edge_ok = worst_edge <= 1e-10
    n1_maxima = _count_theta_maxima(figure_two_n1[50])
    n2_maxima = _count_theta_maxima(figure_two_n2[50])
    count_ok = n2_maxima > n1_maxima
    ok = max_ok and edge_ok and count_ok
    criterion(
        10,
        ok,
        f"theta-argmax {theta_star:.5f} sits {distance / THETA_STEP:.2f} grid steps "
        f"from the nearest (n+1/2)pi/2 (criterion allows 1.00); edge coherence "
        f"{worst_edge:.2e} (tol 1e-10); theta-maxima N=2 vs N=1: "
        f"{n2_maxima} > {n1_maxima}",
    )


def test_criterion_11_phi_independence():
    rng = np.random.default_rng(103)
    phis = (0.0, math.pi / 6, math.pi / 4, 1.0)
    worst = 0.0
    for _ in range(50):
        x = float(rng.uniform())
        theta = float(rng.uniform(0, 2 * math.pi))
        n = int(rng.integers(1, 9))
        values = [batched_grid(TWO_QUBIT, [x], [theta], p, n)[0][0, 0] for p in phis]
        worst = max(worst, max(values) - min(values))
    criterion(11, worst <= 1e-10, f"two-qubit phi spread {worst:.2e} (tol 1e-10)")


def test_criterion_12_closed_form_cross_validation():
    kinds = (ONE_QUBIT, TWO_QUBIT)
    axes = cli._grid_axes(cli.OPTIONS["compare"], 2)
    summary = strategies.DeviationSummary(axes[3])
    points = 0
    for kind in kinds:
        for block in strategies.grid_blocks(kind, *axes, compare_columns):
            summary.add(kind, block)
            points += block[..., 0].size
    stats = summary.stats()
    labels = {(s.kind, s.formula, s.parity) for s in stats}
    expected_labels = {
        (kind, formula, parity)
        for kind in kinds
        for formula in ("closed", "appendix")
        for parity in ("odd", "even")
    }
    ran = labels == expected_labels and points == 2 * 11 * 64 * 2 * 4

    ns = (1, 2, 3, 4)
    slice_axes = (np.linspace(0.0, 1.0, 11), (math.pi / 2,), (0.0, math.pi / 4), ns)
    one, two = (
        np.concatenate(list(strategies.grid_blocks(kind, *slice_axes, compare_columns)))
        .reshape(11, 1, 2, len(ns), -1)
        for kind in kinds
    )
    # compare's deviation columns: from the closed form, from the elements.
    one_closed, two_closed = one[..., 3], two[..., 3]
    one_appendix, two_appendix = one[..., 4], two[..., 4]
    odd = [n % 2 == 1 for n in ns]
    even = [not o for o in odd]
    agreeing_worst = max(
        float(two_closed.max()), float(one_appendix.max()), float(one_closed[..., odd].max())
    )
    documented = {
        "one-qubit closed form, even N": float(one_closed[..., even].max()),
        "two-qubit elements": float(two_appendix.max()),
    }
    for name, dev in sorted(documented.items()):
        print(
            f"  documented reference-formula gap on the theta=pi/2 slice: "
            f"{name}: max deviation {dev:.3e}"
        )
    ok = ran and agreeing_worst <= 1e-10
    criterion(
        12,
        ok,
        f"compare ran over {points} points with "
        f"{len(stats)} formula/parity stats; agreeing formulas deviate "
        f"{agreeing_worst:.2e} on the theta=pi/2 slice (tol 1e-10); "
        f"{len(documented)} reference-formula gaps documented, not asserted",
    )


def test_criterion_13_coherence_measure_properties():
    # The kernel's states: a system of dimension d purified by one ancilla
    # qubit, sigma = V V^dagger for a unit-norm d x 2 matrix V.  Its
    # spectrum is the eigenvalue pair of the Gram matrix V^dagger V.
    rng = np.random.default_rng(107)
    violations = []
    worst = {"l1_neg": 0.0, "cr_low": 0.0, "cr_range": 0.0, "spectrum": 0.0}
    for i in range(200):
        dim = 2 if i % 2 == 0 else 4
        v = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        v /= np.linalg.norm(v)
        sigma, gram = v @ v.conj().T, v.conj().T @ v
        lam = strategies._pair_spectrum(
            gram[0, 0].real, gram[1, 1].real, gram[0, 1].real, gram[0, 1].imag
        )
        worst["spectrum"] = max(
            worst["spectrum"], float(np.abs(lam - np.linalg.eigvalsh(sigma)[-2:]).max())
        )
        c_l1 = float(np.abs(sigma).sum() - np.abs(np.diag(sigma)).sum())
        shannon = strategies._entropy_bits(np.diag(sigma).real)
        c_r = float(shannon - strategies._entropy_bits(np.clip(lam, 0.0, None)))
        worst["l1_neg"] = min(worst["l1_neg"], c_l1)
        worst["cr_low"] = min(worst["cr_low"], c_r)
        worst["cr_range"] = max(worst["cr_range"], c_r - math.log2(dim))
        if c_l1 < c_r - 1e-10:
            violations.append((dim, c_l1, c_r))
    if violations:
        print(f"  FLAG: l1 >= relative-entropy comparison violated {len(violations)}x")
    ok = (
        worst["l1_neg"] >= 0.0
        and worst["cr_low"] >= -1e-12
        and worst["cr_range"] <= 1e-12
        and worst["spectrum"] <= 1e-12
    )
    criterion(
        13,
        ok,
        f"200 random states: l1 >= 0, relative entropy within [0, log2 d], "
        f"Gram pair off the spectrum by {worst['spectrum']:.2e} (tol 1e-12); "
        f"l1 >= C_r comparison logged with {len(violations)} violations",
    )


def test_criterion_14_cli_determinism_and_exit_codes(tmp_path, capsys):
    first = tmp_path / "fig4a_run1.csv"
    second = tmp_path / "fig4a_run2.csv"
    assert cli.main(["figure", "4a", "--out", str(first)]) == 0
    assert cli.main(["figure", "4a", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()

    code_ok = cli.main(["verify", "--only", "s-unitary"]) == 0
    code_fail = cli.main(["verify", "--only", "s-unitary", "--tolerance", "1e-16"]) == 1
    code_usage = cli.main(["figure", "zz", "--out", str(tmp_path / "x.csv")]) == 2
    code_io = (
        cli.main(
            [
                "sweep", "--strategy", "one", "--x", "0:1:2", "--theta", "0:1:2",
                "--phi", "0", "--n", "1", "--out", str(tmp_path),
            ]
        )
        == 2
    )
    capsys.readouterr()
    ok = identical and code_ok and code_fail and code_usage and code_io
    criterion(
        14,
        ok,
        f"figure 4a runs byte-identical: {identical}; exit codes 0/1/2 honored: "
        f"{code_ok}/{code_fail}/{code_usage and code_io}",
    )
