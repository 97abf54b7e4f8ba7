"""Benchmark workloads: seeded ybc command lines and the checks on their output.

Each workload is a fixed-size ``ybc`` invocation.  The seed draws only the
angle values (the phi list and the x and theta offsets); the grid sizes and
therefore the row counts never change.  Seed 0 gives the documented grids:

    sweep-two-large  sweep --strategy two --x 0:1:101 --theta 0:2:256
                     --phi 0,0.25,0.5 --n 1,2,3,4          310,272 rows
    compare-default  compare --strategy all on the default grid
                     (x 0:1:11, theta 0:1.96875:64, i.e. 64 angles over
                     [0, 2pi) without the endpoint, phi 0,0.25, N 1..4)
                                                             11,264 rows
    verify           verify, all 11 checks (no inputs to draw)

Output checks run in the benchmark process, never inside a timed region.
A sample of CSV rows is recomputed by an oracle of this module's own,
written from the paper's definitions without importing ybc: the state
vector is multiplied by R(theta, phi) N times, the ancilla is traced out,
and the two coherence measures, the closed forms and the element-wise
assemblies are evaluated as stated.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from dataclasses import dataclass

import numpy as np

SWEEP_HEADER = "strategy,x,theta,phi,N,c_l1_sim,c_r_sim,c_l1_closed,deviation"
COMPARE_HEADER = (
    "strategy,x,theta,phi,N,c_l1_sim,c_l1_closed,c_l1_appendix,dev_closed,dev_appendix"
)

# A recomputed value v matches a CSV field f when |f - v| <= ATOL * max(1, |v|).
# The CLI prints 12 significant digits, so formatting alone stays below
# 5e-12 of the magnitude.  Over the whole seed-0 to seed-3 grids of both
# workloads, every CSV field matched this module's oracle within 5e-12.
ATOL = 1e-9

# Rows recomputed by the oracle per run (all rows when the grid is smaller).
SAMPLE_ROWS = 64


def _num(v: float) -> str:
    text = f"{v:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


@dataclass(frozen=True)
class Grid:
    """A CLI grid as the flags the CLI receives: ranges A:B:N, lists in units of pi."""

    kinds: tuple[str, ...]
    x: str
    theta: str
    phi: str
    n: str

    def flags(self) -> tuple[str, ...]:
        return ("--x", self.x, "--theta", self.theta, "--phi", self.phi, "--n", self.n)

    def axes(self):
        """The grid values, computed from the flags exactly as the CLI parses them."""

        def rng(text, scale=1.0):
            lo, hi, count = text.split(":")
            return np.linspace(float(lo) * scale, float(hi) * scale, int(count))

        xs = rng(self.x)
        thetas = rng(self.theta, math.pi)
        phis = [float(v) * math.pi for v in self.phi.split(",")]
        ns = [int(v) for v in self.n.split(",")]
        return xs, thetas, phis, ns

    def shape(self) -> dict:
        xs, thetas, phis, ns = self.axes()
        return {
            "kinds": len(self.kinds),
            "x": len(xs),
            "theta": len(thetas),
            "phi": len(phis),
            "n": len(ns),
            "rows": self.rows,
        }

    @property
    def rows(self) -> int:
        xs, thetas, phis, ns = self.axes()
        return len(self.kinds) * len(xs) * len(thetas) * len(phis) * len(ns)

    def point(self, row: int):
        """(kind, x, theta, phi, N) of a data row; order: kind, x, theta, phi, N."""
        xs, thetas, phis, ns = self.axes()
        row, i_n = divmod(row, len(ns))
        row, i_phi = divmod(row, len(phis))
        row, i_theta = divmod(row, len(thetas))
        i_kind, i_x = divmod(row, len(xs))
        return (
            self.kinds[i_kind],
            float(xs[i_x]),
            float(thetas[i_theta]),
            float(phis[i_phi]),
            ns[i_n],
        )


@dataclass(frozen=True)
class Workload:
    """One ybc invocation; ``argv`` omits ``--out``, which the runner appends."""

    name: str
    argv: tuple[str, ...]
    grid: Grid | None = None
    checks: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def records(self) -> int:
        """Output records: CSV data rows, or check lines for verify."""
        return self.grid.rows if self.grid is not None else self.checks


def _draw_grid(seed, kinds, x_points, theta_span, theta_points, phis_default):
    if seed == 0:
        x_lo, x_hi, theta_lo = 0.0, 1.0, 0.0
        phis = phis_default
    else:
        rng = random.Random(seed)
        x_lo = round(rng.uniform(0.0, 0.05), 6)
        x_hi = round(1.0 - rng.uniform(0.0, 0.05), 6)
        theta_lo = round(rng.uniform(0.0, 0.5), 6)
        phis = sorted(round(rng.uniform(0.0, 2.0), 6) for _ in phis_default)
    return Grid(
        kinds=kinds,
        x=f"{_num(x_lo)}:{_num(x_hi)}:{x_points}",
        theta=f"{_num(theta_lo)}:{_num(theta_lo + theta_span)}:{theta_points}",
        phi=",".join(_num(p) for p in phis),
        n="1,2,3,4",
    )


def build(name: str, seed: int) -> Workload:
    """The named workload with its angle values drawn from ``seed``."""
    if name == "sweep-two-large":
        grid = _draw_grid(seed, ("two",), 101, 2.0, 256, (0.0, 0.25, 0.5))
        return Workload(name, ("sweep", "--strategy", "two") + grid.flags(), grid)
    if name == "compare-default":
        grid = _draw_grid(seed, ("one", "two"), 11, 1.96875, 64, (0.0, 0.25))
        return Workload(name, ("compare", "--strategy", "all") + grid.flags(), grid)
    if name == "verify":
        return Workload(name, ("verify",), checks=11)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep-two-large", "compare-default", "verify")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


# The oracle below is written from the paper's definitions with numpy and
# math only; it imports nothing from ybc, so a wrong change to ybc's
# kernel, coherence measures or formulas cannot move it in step.


def _s_matrix(phi: float) -> np.ndarray:
    """S(phi), the unitary, Hermitian, involutive braid matrix."""
    ep, em = cmath.exp(1j * phi), cmath.exp(-1j * phi)
    return np.array(
        [
            [0, ep, 1j * ep, 0],
            [em, 0, 0, ep],
            [-1j * em, 0, 0, 1j * ep],
            [0, em, -1j * em, 0],
        ]
    ) / math.sqrt(2.0)


def _reduced_state(kind: str, x: float, theta: float, phi: float, n: int) -> np.ndarray:
    """Reduced system state after N uses of R = sin(theta) I + i cos(theta) S(phi).

    The input is pure and the channel unitary, so the state vector is
    multiplied by R (on the last two qubits) N times and the ancilla, the
    last qubit, is contracted out of the outer product.
    """
    r = math.sin(theta) * np.eye(4) + 1j * math.cos(theta) * _s_matrix(phi)
    if kind == "one":  # (sqrt(1-x)|0> + sqrt(x)|1>) (x) |0>, qubits (S, A)
        psi = np.array([math.sqrt(1.0 - x), 0, math.sqrt(x), 0], dtype=complex)
    else:  # (sqrt(1-x)|01> + sqrt(x)|10>) (x) |0>, qubits (S1, S2, A)
        psi = np.zeros(8, dtype=complex)
        psi[0b010], psi[0b100] = math.sqrt(1.0 - x), math.sqrt(x)
    psi = psi.reshape(-1, 4)  # rows: the qubit R skips (if any); columns: (S2, A)
    for _ in range(n):
        psi = psi @ r.T
    v = psi.reshape(-1, 2)  # rows: system basis; columns: ancilla
    return v @ v.conj().T


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _coherences(sigma: np.ndarray) -> tuple[float, float]:
    """(l1 coherence, relative entropy of coherence) in the computational basis."""
    off = np.abs(sigma)
    np.fill_diagonal(off, 0.0)
    c_r = _entropy(np.diag(sigma).real) - _entropy(np.linalg.eigvalsh(sigma))
    return float(off.sum()), max(c_r, 0.0)


def _closed_form(kind: str, x: float, theta: float, phi: float, n: int) -> float:
    """The paper's closed-form l1 coherence, as stated (odd and even N branches)."""
    eps = math.sqrt(2.0 * x * (1.0 - x))
    s, c = math.sin(n * theta), math.cos(n * theta)
    odd = n % 2 == 1
    if kind == "one":
        alpha = 4.0 * (1.0 - 2.0 * x) * math.sin(2.0 * n * theta)
        beta = math.sin(phi) * c**2 + math.cos(phi) * (2.0 - 3.0 * c**2)
        gamma = -4.0 * s**2 * math.cos(2.0 * n * theta)
        delta = 1.0 - math.sin(2.0 * phi)
        big_delta = alpha**2 / 8.0 + alpha * beta * eps + 2.0 * eps**2 * gamma
        return 0.5 * math.sqrt(abs(big_delta + 4.0 * delta * eps**2 * (c if odd else s) ** 4))
    a = (-1.0) ** (n + 1) * math.cos(2.0 * n * theta)
    b = abs(math.sin(2.0 * n * theta)) / math.sqrt(2.0)
    root = math.sqrt(abs(a + 5.0 * (s if odd else c) ** 4))
    tail = (c if odd else s) ** 2
    return 0.5 * (2.0 * b + math.sqrt(2.0) * eps * (2.0 * b + root + tail))


def _appendix_l1(kind: str, x: float, theta: float, phi: float, n: int) -> float:
    """l1 coherence of the paper's element-wise reduced state, as stated.

    One qubit: 2 |sigma_12|; within 1e-8 of a sec^2/csc^2 pole the N-fold
    gate is +/- I and the value is the input's 2 sqrt(x (1 - x)).  Two
    qubits: twice the six upper off-diagonal moduli, summed in closed form.
    """
    eps = math.sqrt(2.0 * x * (1.0 - x))
    s, c = math.sin(n * theta), math.cos(n * theta)
    sin2nt = math.sin(2.0 * n * theta)
    odd = n % 2 == 1
    if kind == "one":
        if abs(c if odd else s) < 1e-8:
            return 2.0 * math.sqrt(x * (1.0 - x))
        alpha = 4.0 * (1.0 - 2.0 * x) * sin2nt
        trig2 = (c if odd else s) ** 2
        bracket = eps * (2.0 - (2.0 - 1j + cmath.exp(2j * phi)) * trig2)
        alpha_term = math.sqrt(2.0) * alpha * cmath.exp(1j * phi) / 4.0
        return abs(bracket + alpha_term if odd else bracket - alpha_term)
    # |s12| + |s13| + |s24| + |s34| = (1 + 2 sqrt(x (1-x))) |sin(2 N theta)| / (2 sqrt 2)
    chain = (1.0 + 2.0 * math.sqrt(x * (1.0 - x))) * abs(sin2nt) / (2.0 * math.sqrt(2.0))
    s14 = eps / math.sqrt(2.0) * (c**2 if odd else s**2)
    s23 = eps / math.sqrt(2.0) * abs((2.0 + 1j) * s**2 - 1j if odd else (2.0 - 1j) * c**2 + 1j)
    return 2.0 * (chain + s14 + s23)


def _oracle_row(command: str, point) -> list:
    kind, x, theta, phi, n = point
    c_l1, c_r = _coherences(_reduced_state(kind, x, theta, phi, n))
    c_closed = _closed_form(kind, x, theta, phi, n)
    if command == "sweep":
        return [kind, x, theta, phi, str(n), c_l1, c_r, c_closed, abs(c_l1 - c_closed)]
    c_app = _appendix_l1(kind, x, theta, phi, n)
    return [
        kind, x, theta, phi, str(n), c_l1, c_closed, c_app,
        abs(c_l1 - c_closed), abs(c_l1 - c_app),
    ]


def _field_error(field: str, want) -> str | None:
    if isinstance(want, str):
        return None if field == want else f"{field!r} != {want!r}"
    try:
        got = float(field)
    except ValueError:
        return f"{field!r} is not a number"
    if not abs(got - want) <= ATOL * max(1.0, abs(want)):
        return f"{got!r} != {want!r}"
    return None


def check_output(
    workload: Workload, rc: int, stdout: str, csv_path, sample_seed: int
) -> tuple[str | None, str | None]:
    """Check one run's output.  Returns (error or None, CSV SHA-256 or None)."""
    if rc != 0:
        return f"exit code {rc}", None
    if workload.grid is None:
        want = f"{workload.checks}/{workload.checks} checks passed"
        if want not in stdout.splitlines():
            return f"missing line {want!r}", None
        return None, None

    try:
        with open(csv_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return f"cannot read CSV: {exc}", None
    digest = hashlib.sha256(data).hexdigest()
    lines = data.decode("ascii", errors="replace").split("\n")
    if lines[-1] != "":
        return "CSV does not end with a newline", digest
    lines.pop()
    header = SWEEP_HEADER if workload.command == "sweep" else COMPARE_HEADER
    if not lines or lines[0] != header:
        return "CSV header differs", digest
    rows = lines[1:]
    if len(rows) != workload.grid.rows:
        return f"CSV has {len(rows)} rows, expected {workload.grid.rows}", digest

    count = min(SAMPLE_ROWS, len(rows))
    for i in sorted(random.Random(sample_seed).sample(range(len(rows)), count)):
        fields = rows[i].split(",")
        want = _oracle_row(workload.command, workload.grid.point(i))
        if len(fields) != len(want):
            return f"row {i}: {len(fields)} fields, expected {len(want)}", digest
        for col, (field, value) in enumerate(zip(fields, want)):
            err = _field_error(field, value)
            if err is not None:
                name = header.split(",")[col]
                return f"row {i} column {name}: {err}", digest
    return None, digest
