"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every line; without
``-s`` pytest still shows the lines of failing criteria.  Criterion 10 is
expected to fail honestly: the simulated two-qubit coherence (and equally
the reference closed form, which matches it to machine precision) has its
angular maxima 0.039 rad away from (n + 1/2) pi/2, which is 1.6 steps of
the 256-point figure grid, not within one step as the criterion demands.
"""

import math

import numpy as np
import pytest

from ybc import cli
from ybc.braid_ybe import (
    GateParams,
    build_s,
    check_braid_relation,
    check_far_commutation,
    check_ybe_additive,
    check_ybe_multiplicative,
    evolution_hamiltonian,
    yang_baxterize_eight_vertex,
)
from ybc.coherence import (
    dephase,
    is_incoherent,
    l1_coherence,
    relative_entropy_coherence,
)
from ybc.gates import verify_dcnot_equivalence
from ybc.linalg import DensityMatrix, dagger, identity, max_abs_diff
from ybc.strategies import (
    ONE_QUBIT,
    TWO_QUBIT,
    StrategySpec,
    apply_channel,
    batched_grid,
    default_axes,
    discrepancy_report,
    prepare_input,
    simulated_l1,
)

PHI_GRID = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
X_GRID = np.linspace(0.0, 1.0, 101)
THETA_GRID = np.linspace(0.0, 2.0 * np.pi, 256)
THETA_STEP = THETA_GRID[1] - THETA_GRID[0]


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def figure_one_n1():
    c, _ = batched_grid(ONE_QUBIT, X_GRID, THETA_GRID, math.pi / 4, 1, False)
    return c


@pytest.fixture(scope="module")
def figure_two_n1():
    c, _ = batched_grid(TWO_QUBIT, X_GRID, THETA_GRID, math.pi / 4, 1, False)
    return c


@pytest.fixture(scope="module")
def figure_two_n2():
    c, _ = batched_grid(TWO_QUBIT, X_GRID, THETA_GRID, math.pi / 4, 2, False)
    return c


def test_criterion_01_s_matrix_algebra():
    worst_unitary = max(
        max_abs_diff(dagger(build_s(p)) @ build_s(p), identity(4)) for p in PHI_GRID
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
    worst_braid = max(
        check_braid_relation(build_s(p)).residual for p in PHI_GRID
    )
    worst_far = max(
        check_far_commutation(build_s(p)).residual for p in PHI_GRID
    )
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
        check_ybe_additive(phi, mu, nu).residual
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
                    worst = max(worst, check_ybe_multiplicative(builder, x, y).residual)
    criterion(
        4, worst <= 1e-10, f"eight-vertex mult. YBE residual {worst:.2e} (tol 1e-10)"
    )


def test_criterion_05_dcnot_equivalence():
    report = verify_dcnot_equivalence(tol=1e-10)
    ok = report.best_residual() <= 1e-10
    criterion(
        5,
        ok,
        f"factorization residual {report.best_residual():.2e} at "
        f"phi={report.phi:.9f}, global phase {report.phase:.3e} (tol 1e-10)",
    )


def test_criterion_06_hamiltonian_finite_difference():
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for theta in (0.3, 1.0, 2.2):
            for phi in (0.0, math.pi / 4):
                h = evolution_hamiltonian(GateParams(theta, phi), gamma=gamma, step=1e-4)
                worst = max(worst, max_abs_diff(h, gamma * build_s(phi)))
    e1 = max_abs_diff(evolution_hamiltonian(GateParams(0.8, 0.3), step=1e-4), build_s(0.3))
    e2 = max_abs_diff(evolution_hamiltonian(GateParams(0.8, 0.3), step=5e-5), build_s(0.3))
    ratio = e1 / e2
    ok = worst <= 1e-6 and 3.0 <= ratio <= 5.0
    criterion(
        6,
        ok,
        f"H error {worst:.2e} at step 1e-4 (tol 1e-6); halving ratio {ratio:.2f}",
    )


def test_criterion_07_identity_channel_fixed_point():
    worst = 0.0
    for kind in (ONE_QUBIT, TWO_QUBIT):
        for n in range(1, 9):
            for x in (0.0, 0.25, 0.5, 0.75, 1.0):
                value = simulated_l1(
                    StrategySpec(kind, x, n, GateParams(math.pi / 2, 0.9))
                )
                worst = max(worst, abs(value - 2.0 * math.sqrt(x * (1.0 - x))))
    criterion(
        7, worst <= 1e-10, f"theta=pi/2 coherence deviation {worst:.2e} (tol 1e-10)"
    )


def test_criterion_08_purity_and_composition():
    rng = np.random.default_rng(101)
    worst_purity = 0.0
    for kind in (ONE_QUBIT, TWO_QUBIT):
        for x in (0.3, 0.7):
            theta = float(rng.uniform(0, 2 * math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            state = prepare_input(StrategySpec(kind, x, 1, GateParams(theta, phi)))
            for _ in range(8):
                state = apply_channel(state, StrategySpec(kind, x, 1, GateParams(theta, phi)))
                worst_purity = max(worst_purity, abs(state.purity() - 1.0))
    worst_comp = 0.0
    for _ in range(10):
        kind = ONE_QUBIT if rng.uniform() < 0.5 else TWO_QUBIT
        x = float(rng.uniform())
        theta = float(rng.uniform(0, 2 * math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        j, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        rho = prepare_input(StrategySpec(kind, x, 1, GateParams(theta, phi)))
        combined = apply_channel(rho, StrategySpec(kind, x, j + k, GateParams(theta, phi)))
        stepped = apply_channel(
            apply_channel(rho, StrategySpec(kind, x, j, GateParams(theta, phi))),
            StrategySpec(kind, x, k, GateParams(theta, phi)),
        )
        worst_comp = max(worst_comp, max_abs_diff(combined.mat, stepped.mat))
    ok = worst_purity <= 1e-10 and worst_comp <= 1e-12
    criterion(
        8,
        ok,
        f"purity drift {worst_purity:.2e} (tol 1e-10), composition residual "
        f"{worst_comp:.2e} (tol 1e-12)",
    )


def test_criterion_09_figure_two_qualitative(figure_one_n1):
    ix, _ = np.unravel_index(np.argmax(figure_one_n1), figure_one_n1.shape)
    x_star = X_GRID[ix]
    x_ok = abs(x_star - 0.5) <= (X_GRID[1] - X_GRID[0]) + 1e-15
    worst_edge = max(
        simulated_l1(StrategySpec(ONE_QUBIT, x, 1, GateParams(n * math.pi / 2, math.pi / 4)))
        for x in (0.0, 1.0)
        for n in range(5)
    )
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
    worst_edge = max(
        simulated_l1(StrategySpec(TWO_QUBIT, x, 1, GateParams(n * math.pi / 2, math.pi / 4)))
        for x in (0.0, 1.0)
        for n in range(5)
    )
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
        values = [
            simulated_l1(StrategySpec(TWO_QUBIT, x, n, GateParams(theta, p)))
            for p in phis
        ]
        worst = max(worst, max(values) - min(values))
    criterion(11, worst <= 1e-10, f"two-qubit phi spread {worst:.2e} (tol 1e-10)")


def test_criterion_12_closed_form_cross_validation():
    kinds = (ONE_QUBIT, TWO_QUBIT)
    report = discrepancy_report(kinds, *default_axes())
    stats = report.stats()
    labels = {(s.kind, s.formula, s.parity) for s in stats}
    expected_labels = {
        (kind, formula, parity)
        for kind in kinds
        for formula in ("closed", "appendix")
        for parity in ("odd", "even")
    }
    points = report.column("c_l1_sim").size
    ran = labels == expected_labels and points == 2 * 11 * 64 * 2 * 4

    ns = (1, 2, 3, 4)
    slice_report = discrepancy_report(
        kinds, np.linspace(0.0, 1.0, 11), (math.pi / 2,), (0.0, math.pi / 4), ns
    )
    one_closed, two_closed = slice_report.column("deviation_closed")
    one_appendix, two_appendix = slice_report.column("deviation_appendix")
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
        f"report ran over {points} points with "
        f"{len(stats)} formula/parity stats; agreeing formulas deviate "
        f"{agreeing_worst:.2e} on the theta=pi/2 slice (tol 1e-10); "
        f"{len(documented)} reference-formula gaps documented, not asserted",
    )


def test_criterion_13_coherence_measure_properties():
    rng = np.random.default_rng(107)
    violations = []
    worst = {"l1_neg": 0.0, "cr_range": 0.0, "dephase": 0.0}
    for i in range(200):
        dim = 2 if i % 2 == 0 else 4
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = DensityMatrix(mat, (dim,))
        c_l1 = l1_coherence(rho)
        c_r = relative_entropy_coherence(rho)
        worst["l1_neg"] = min(worst["l1_neg"], c_l1)
        worst["cr_range"] = max(worst["cr_range"], c_r - math.log2(dim))
        assert (c_l1 <= 1e-10) == is_incoherent(rho, 1e-10)
        deph = dephase(rho)
        worst["dephase"] = max(
            worst["dephase"], max_abs_diff(dephase(deph).mat, deph.mat)
        )
        assert l1_coherence(deph) == 0.0
        if c_l1 < c_r - 1e-10:
            violations.append((dim, c_l1, c_r))
    if violations:
        print(f"  FLAG: l1 >= relative-entropy comparison violated {len(violations)}x")
    ok = (
        worst["l1_neg"] >= 0.0
        and worst["cr_range"] <= 1e-12
        and worst["dephase"] == 0.0
    )
    criterion(
        13,
        ok,
        f"200 random states: l1 >= 0, relative entropy within [0, log2 d], "
        f"dephasing idempotent; l1 >= C_r comparison logged with "
        f"{len(violations)} violations",
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
