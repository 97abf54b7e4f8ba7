"""Command-line front end.

Subcommands:

    ybc verify  [--tolerance T] [--only CHECK]
    ybc sweep   --strategy one|two --x A:B:N --theta A:B:N --phi LIST
                --n LIST --out FILE
    ybc figure  {2a,2b,4a,4b} --out FILE
    ybc compare [sweep flags] [--formula closed|elements|all] --out FILE

Angles are given on the command line in units of pi (``--theta 0.5`` means
pi/2) so the special points are exactly representable; CSV output stores
radians.  Exit codes: 0 success, 1 verification failure, 2 usage or I/O
error.  The YBC_TOLERANCE environment variable overrides the default
verify tolerances; an explicit --tolerance overrides both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import braid_ybe, gates, strategies
from .braid_ybe import GateParams
from .linalg import identity, max_abs_diff

SWEEP_HEADER = "strategy,x,theta,phi,N,c_l1_sim,c_r_sim,c_l1_closed,deviation"
COMPARE_HEADER = (
    "strategy,x,theta,phi,N,c_l1_sim,c_l1_closed,c_l1_appendix,dev_closed,dev_appendix"
)

FIGURES = {
    "2a": ("one", 1),
    "2b": ("one", 2),
    "4a": ("two", 1),
    "4b": ("two", 2),
}


def _fmt(v: float) -> str:
    return f"{v:.12g}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _phi_grid(n: int = 32) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


def _check_s_unitary() -> tuple[float, str]:
    res = max(
        max_abs_diff(braid_ybe.build_s(p).conj().T @ braid_ybe.build_s(p), identity(4))
        for p in _phi_grid()
    )
    return res, "S(phi)^dagger S(phi) = I over 32 phases"


def _check_s_involution() -> tuple[float, str]:
    res = max(
        max_abs_diff(braid_ybe.build_s(p) @ braid_ybe.build_s(p), identity(4))
        for p in _phi_grid()
    )
    return res, "S(phi)^2 = I over 32 phases"


def _check_s_hermitian() -> tuple[float, str]:
    res = max(
        max_abs_diff(braid_ybe.build_s(p), braid_ybe.build_s(p).conj().T)
        for p in _phi_grid()
    )
    return res, "S(phi) = S(phi)^dagger over 32 phases"


def _check_braid() -> tuple[float, str]:
    res = max(
        braid_ybe.check_braid_relation(braid_ybe.build_s(p)).residual
        for p in _phi_grid()
    )
    return res, "b1 b2 b1 = b2 b1 b2 on 3 qubits over 32 phases"


def _check_far_commutation() -> tuple[float, str]:
    res = max(
        braid_ybe.check_far_commutation(braid_ybe.build_s(p)).residual
        for p in _phi_grid(8)
    )
    return res, "b1 b3 = b3 b1 on 4 qubits"


def _check_r_unitary() -> tuple[float, str]:
    res = 0.0
    for theta in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
        for phi in _phi_grid():
            r = braid_ybe.build_r_theta_phi(GateParams(theta, phi))
            res = max(res, max_abs_diff(r @ r.conj().T, identity(4)))
    return res, "R(theta, phi) unitarity over a 32x32 angle grid"


def _check_ybe_additive() -> tuple[float, str]:
    vals = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    res = max(
        braid_ybe.check_ybe_additive(phi, mu, nu).residual
        for phi in (0.0, math.pi / 4.0, 1.1)
        for mu in vals
        for nu in vals
    )
    return res, "additive YBE over mu, nu in {-2,-1,-1/2,1/2,1,2}^2, 3 phases"


def _check_ybe_multiplicative() -> tuple[float, str]:
    spectral = (0.25, 0.5, 1.0, 2.0, 4.0)
    qs = (1.0, np.exp(-1j * np.pi / 4.0), np.exp(-1j * np.pi / 3.0))
    res = 0.0
    for sign in (+1, -1):
        for q in qs:
            for normalized in (False, True):

                def family(t, s=sign, qq=q, nn=normalized):
                    return braid_ybe.yang_baxterize_eight_vertex(s, qq, t, nn)

                for x in spectral:
                    for y in spectral:
                        res = max(
                            res,
                            braid_ybe.check_ybe_multiplicative(family, x, y).residual,
                        )
    return res, "multiplicative YBE, eight-vertex family, both signs, 3 deformations"


def _check_eight_vertex_unitary() -> tuple[float, str]:
    res = 0.0
    for sign in (+1, -1):
        for phi in _phi_grid(8):
            q = np.exp(-1j * phi)
            b = braid_ybe.build_eight_vertex_b(sign, q, normalized=True)
            res = max(res, max_abs_diff(b @ b.conj().T, identity(4)))
            for x in (-3.0, -0.5, 0.0, 0.7, 2.0):
                r = braid_ybe.yang_baxterize_eight_vertex(sign, q, x, normalized=True)
                res = max(res, max_abs_diff(r @ r.conj().T, identity(4)))
    return res, "normalized eight-vertex b and R(x) unitarity"


def _check_dcnot() -> tuple[float, str]:
    report = gates.verify_dcnot_equivalence()
    info = (
        f"min at phi={report.phi:.9f}, exact={report.residual:.3e}, "
        f"phase-aligned={report.residual_up_to_phase:.3e} at alpha={report.phase:.3e}"
    )
    return report.best_residual(), info


def _check_hamiltonian() -> tuple[float, str]:
    step = 1e-4
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for theta in (0.3, 1.0, 2.2):
            for phi in (0.0, math.pi / 4.0):
                h = braid_ybe.evolution_hamiltonian(
                    GateParams(theta, phi), gamma=gamma, hbar=1.0, step=step
                )
                worst = max(worst, max_abs_diff(h, gamma * braid_ybe.build_s(phi)))
    h1 = braid_ybe.evolution_hamiltonian(GateParams(0.8, 0.3), step=step)
    h2 = braid_ybe.evolution_hamiltonian(GateParams(0.8, 0.3), step=step / 2.0)
    e1 = max_abs_diff(h1, braid_ybe.build_s(0.3))
    e2 = max_abs_diff(h2, braid_ybe.build_s(0.3))
    ratio = e1 / e2 if e2 > 0 else float("inf")
    return worst, f"finite-difference H vs gamma*hbar*S, halving ratio {ratio:.2f}"


# (key, description, callable, default tolerance)
VERIFY_CHECKS: list[tuple[str, Callable[[], tuple[float, str]], float]] = [
    ("s-unitary", _check_s_unitary, 1e-12),
    ("s-involution", _check_s_involution, 1e-12),
    ("s-hermitian", _check_s_hermitian, 1e-12),
    ("braid", _check_braid, 1e-12),
    ("far-commute", _check_far_commutation, 1e-12),
    ("r-unitary", _check_r_unitary, 1e-12),
    ("ybe-additive", _check_ybe_additive, 1e-10),
    ("ybe-multiplicative", _check_ybe_multiplicative, 1e-10),
    ("eight-vertex-unitary", _check_eight_vertex_unitary, 1e-12),
    ("dcnot", _check_dcnot, 1e-10),
    ("hamiltonian", _check_hamiltonian, 1e-6),
]


def cmd_verify(args) -> int:
    override = args.tolerance
    if override is None:
        env = os.environ.get("YBC_TOLERANCE")
        if env is not None:
            try:
                override = float(env)
            except ValueError:
                print(f"invalid YBC_TOLERANCE value: {env!r}", file=sys.stderr)
                return 2
            if not math.isfinite(override) or override <= 0:
                print(f"invalid YBC_TOLERANCE value: {env!r}", file=sys.stderr)
                return 2
    selected = [
        (key, fn, tol)
        for key, fn, tol in VERIFY_CHECKS
        if args.only is None or args.only in key
    ]
    if not selected:
        keys = ", ".join(key for key, _, _ in VERIFY_CHECKS)
        print(f"no check matches {args.only!r}; available: {keys}", file=sys.stderr)
        return 2
    failures = 0
    for key, fn, default_tol in selected:
        tol = override if override is not None else default_tol
        residual, info = fn()
        status = "PASS" if residual <= tol else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"[{status}] {key:<22} residual={residual:.3e} tol={tol:.1e}  {info}")
    print(f"{len(selected) - failures}/{len(selected)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# grids and CSV emission
# ---------------------------------------------------------------------------


# The most rows that one sweep or compare grid may have.  A run holds the
# value columns of every row in memory before it writes the CSV, about
# 50 bytes a row, and the kernel evaluates one (phi, N) plane at a time at
# about 0.5 KB a point, so a grid at the cap needs at most about 0.5 GB.
# It is checked on the parsed counts, before any axis is allocated.
MAX_ROWS = 1_000_000


def _parse_range(text: str, name: str, scale: float = 1.0) -> tuple[float, float, int]:
    """Parse an inclusive A:B:N range into the arguments of ``np.linspace``.

    A and B are scaled (angles: units of pi).  The axis itself is built by
    ``_grid`` once the row count of the whole grid is known to be allowed.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--{name} expects A:B:N, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"--{name}: {exc}") from exc
    if count < 1:
        raise ValueError(f"--{name}: point count must be >= 1, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--{name}: range bounds must be finite")
    return lo * scale, hi * scale, count


def _grid(copies: int, *axes) -> list:
    """Check a grid's row count against ``MAX_ROWS``, then build its axes.

    An axis is a sequence of values, or a parsed (A, B, N) range that is
    counted here before ``np.linspace`` allocates it.  Each grid point
    gives ``copies`` rows.
    """
    rows = copies * math.prod(axis[2] if isinstance(axis, tuple) else len(axis) for axis in axes)
    if rows > MAX_ROWS:
        raise ValueError(f"the grid has {rows} rows, more than the limit of {MAX_ROWS}")
    return [np.linspace(*axis) if isinstance(axis, tuple) else axis for axis in axes]


def _parse_list(text: str, name: str, scale: float = 1.0) -> list[float]:
    try:
        values = [float(v) * scale for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--{name}: {exc}") from exc
    if not values:
        raise ValueError(f"--{name}: list must not be empty")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"--{name}: values must be finite")
    return values


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--{name}: {exc}") from exc
    if not values or any(v < 1 for v in values):
        raise ValueError(f"--{name}: expects positive integers, got {text!r}")
    return values


def _write_csv(path: str, header: str, chunks: Iterable[str]) -> bool:
    """Stream the header and row chunks to ``path`` atomically.

    The text goes to a temp file beside ``path``, which is renamed over
    ``path`` once complete.  Any error while the rows are computed or
    written removes the temp file, leaves ``path`` as it was and is
    reported on stderr, with its type; the caller then exits 2.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        try:
            with open(tmp, "x", encoding="ascii", newline="\n") as fh:
                fh.write(header + "\n")
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        finally:
            if os.path.lexists(tmp):
                os.unlink(tmp)
    except Exception as exc:
        print(f"cannot write {path!r}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    return True


def _sweep_values(kind, xs, thetas, phis, ns) -> np.ndarray:
    """Every (phi, N) plane of a sweep grid, as values[ix, it, plane, column]."""
    planes = []
    for phi in phis:
        for n in ns:
            closed = strategies.closed_form_l1_plane(kind, xs, thetas, phi, n)
            c_l1, c_r = strategies.batched_grid(kind, xs, thetas, phi, n)
            planes.append((c_l1, c_r, closed, np.abs(c_l1 - closed)))
    return np.array(planes).transpose(2, 3, 0, 1)


def _csv_rows(kind, xs, thetas, phis, ns, values: np.ndarray) -> Iterator[str]:
    """CSV rows in grid order (x outer, then theta, phi, N), one chunk per x.

    ``values[ix, it]`` holds the value columns of the (phi, N) points at
    xs[ix] and thetas[it], phi outer.  Each row's values are formatted with
    one ``%`` call, which prints the same bytes as ``_fmt`` on each field.
    """
    row_values = ",".join(["%.12g"] * values.shape[-1])
    keys = [f"{_fmt(float(phi))},{int(n)}," for phi in phis for n in ns]
    prefixes = [f"{_fmt(float(t))},{key}" for t in thetas for key in keys]
    for ix, x in enumerate(xs):
        head = f"{kind},{_fmt(float(x))},"
        rows = values[ix].reshape(len(prefixes), -1).tolist()
        yield "".join(
            f"{head}{prefix}{row_values % tuple(row)}\n" for prefix, row in zip(prefixes, rows)
        )


def _write_sweep(command: str, out: str, kind, xs, thetas, phis, ns) -> bool:
    """Evaluate every plane of a sweep grid, then stream its CSV to ``out``.

    A failed kernel check prints ``COMMAND: message``; a write error prints
    ``cannot write``.  Either way the caller exits 2.
    """
    try:
        values = _sweep_values(kind, xs, thetas, phis, ns)
    except ValueError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return False
    return _write_csv(out, SWEEP_HEADER, _csv_rows(kind, xs, thetas, phis, ns, values))


def cmd_sweep(args) -> int:
    try:
        if args.strategy not in ("one", "two"):
            raise ValueError(f"--strategy must be one or two, got {args.strategy!r}")
        xs, thetas, phis, ns = _grid(
            1,
            _parse_range(args.x, "x"),
            _parse_range(args.theta, "theta", scale=math.pi),
            _parse_list(args.phi, "phi", scale=math.pi),
            _parse_int_list(args.n, "n"),
        )
        if not all(0.0 <= x <= 1.0 for x in xs):
            raise ValueError("--x values must lie in [0, 1]")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not _write_sweep("sweep", args.out, args.strategy, xs, thetas, phis, ns):
        return 2
    print(f"wrote {len(xs) * len(thetas) * len(phis) * len(ns)} rows to {args.out}")
    return 0


def cmd_figure(args) -> int:
    if args.id not in FIGURES:
        valid = ", ".join(sorted(FIGURES))
        print(f"unknown figure id {args.id!r}; valid ids: {valid}", file=sys.stderr)
        return 2
    kind, n = FIGURES[args.id]
    xs = np.linspace(0.0, 1.0, 101)
    thetas = np.linspace(0.0, 2.0 * np.pi, 256)
    if not _write_sweep("figure", args.out, kind, xs, thetas, [math.pi / 4.0], [n]):
        return 2
    print(f"wrote figure {args.id} grid ({len(xs) * len(thetas)} rows) to {args.out}")
    return 0


# The report columns that compare prints, and those each --formula blanks.
COMPARE_COLUMNS = (
    "c_l1_sim", "c_l1_closed", "c_l1_appendix", "deviation_closed", "deviation_appendix"
)
DROPPED_COLUMNS = {
    "all": (),
    "closed": ("c_l1_appendix", "deviation_appendix"),
    "elements": ("c_l1_closed", "deviation_closed"),
}


def cmd_compare(args) -> int:
    formula = args.formula
    if formula not in DROPPED_COLUMNS:
        print(
            f"--formula must be closed, elements or all, got {formula!r}",
            file=sys.stderr,
        )
        return 2
    xs, thetas, phis, ns = strategies.default_axes()
    try:
        if args.strategy not in ("one", "two", "all"):
            raise ValueError(f"--strategy must be one, two or all, got {args.strategy!r}")
        kinds = ("one", "two") if args.strategy == "all" else (args.strategy,)
        if args.x is not None:
            xs = _parse_range(args.x, "x")
        if args.theta is not None:
            thetas = _parse_range(args.theta, "theta", scale=math.pi)
        if args.phi is not None:
            phis = _parse_list(args.phi, "phi", scale=math.pi)
        if args.n is not None:
            ns = _parse_int_list(args.n, "n")
        xs, thetas, phis, ns = _grid(len(kinds), xs, thetas, phis, ns)
        if not all(0.0 <= x <= 1.0 for x in xs):
            raise ValueError("--x values must lie in [0, 1]")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    try:
        report = strategies.discrepancy_report(kinds, xs, thetas, phis, ns)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    # Blank the formula columns not selected; the summary drops them too.
    for name in DROPPED_COLUMNS[formula]:
        report.column(name)[...] = np.nan
    columns = np.stack([report.column(name) for name in COMPARE_COLUMNS], axis=-1)
    rows = (
        chunk
        for kind, values in zip(kinds, columns)
        for chunk in _csv_rows(kind, xs, thetas, phis, ns, values)
    )
    if not _write_csv(args.out, COMPARE_HEADER, rows):
        return 2
    print(report.format_summary())
    print(f"wrote {columns[..., 0].size} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _read_config(path: str) -> dict[str, str]:
    config = {}
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the --config file; flags take precedence."""
    if getattr(args, "config", None) is None:
        return
    config = _read_config(args.config)
    for key, value in config.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybc",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run the algebraic verification suite (exit 1 on failure)"
    )
    p_verify.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override every check tolerance (default: per-check values; "
        "YBC_TOLERANCE also applies)",
    )
    p_verify.add_argument(
        "--only", default=None, help="run only checks whose key contains this text"
    )
    p_verify.set_defaults(fn=cmd_verify)

    common = {
        "x": "inclusive x range A:B:N (values in [0, 1])",
        "theta": "inclusive theta range A:B:N in units of pi",
        "phi": "comma-separated phi values in units of pi",
        "n": "comma-separated channel-use counts",
    }

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid to CSV")
    p_sweep.add_argument("--strategy", default=None, help="one or two")
    for key, help_text in common.items():
        p_sweep.add_argument(f"--{key}", default=None, help=help_text)
    p_sweep.add_argument("--out", default=None, help="output CSV path")
    p_sweep.add_argument("--config", default=None, help="key=value config file")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_figure = sub.add_parser(
        "figure", help="emit a preset 101x256 grid (ids: 2a, 2b, 4a, 4b)"
    )
    p_figure.add_argument("id", help="figure id: 2a, 2b, 4a or 4b")
    p_figure.add_argument("--out", default=None, help="output CSV path")
    p_figure.add_argument("--config", default=None, help="key=value config file")
    p_figure.set_defaults(fn=cmd_figure)

    p_compare = sub.add_parser(
        "compare", help="cross-validate reference formulas against the simulation"
    )
    p_compare.add_argument("--strategy", default=None, help="one, two or all")
    for key, help_text in common.items():
        p_compare.add_argument(f"--{key}", default=None, help=help_text)
    p_compare.add_argument(
        "--formula",
        default=None,
        help="closed, elements or all (default all)",
    )
    p_compare.add_argument("--out", default=None, help="output CSV path")
    p_compare.add_argument("--config", default=None, help="key=value config file")
    p_compare.set_defaults(fn=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "sweep":
        missing = [k for k in ("strategy", "x", "theta", "phi", "n", "out")
                   if getattr(args, k) is None]
        if missing:
            print(f"sweep: missing required options: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
    if args.command == "figure" and args.out is None:
        print("figure: missing required option: out", file=sys.stderr)
        return 2
    if args.command == "compare":
        if args.strategy is None:
            args.strategy = "all"
        if args.formula is None:
            args.formula = "all"
        if args.out is None:
            print("compare: missing required option: out", file=sys.stderr)
            return 2
    if args.command == "verify" and args.tolerance is not None:
        if not math.isfinite(args.tolerance) or args.tolerance <= 0:
            print(f"--tolerance must be a positive real, got {args.tolerance!r}",
                  file=sys.stderr)
            return 2
    return args.fn(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
