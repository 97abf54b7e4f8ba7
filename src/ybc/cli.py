from __future__ import annotations

__doc__ = """ybc: braid-gate algebra checks and coherence grids of R(theta, phi).

    ybc verify  [--tolerance T] [--only CHECK]
    ybc sweep   --strategy one|two --x A:B:N --theta A:B:N --phi LIST
                --n LIST --out FILE [--config FILE]
    ybc figure  2a|2b|4a|4b --out FILE [--config FILE]
    ybc compare [--strategy one|two|all] [sweep's grid flags]
                [--formula closed|elements|all] --out FILE [--config FILE]
    ybc -h | --help

    --tolerance T   override every verify tolerance and YBC_TOLERANCE
    --only CHECK    run only the verify checks whose key contains CHECK
    --strategy S    one or two (sweep); one, two or all (compare, default all)
    --x A:B:N       inclusive x range, values in [0, 1]
    --theta A:B:N   inclusive theta range, in units of pi
    --phi LIST      comma-separated phi values, in units of pi
    --n LIST        comma-separated channel-use counts
    --formula F     closed, elements or all (compare, default all)
    --out FILE      output CSV path
    --config FILE   key=value lines that set the command's other options

compare's grid defaults to --x 0:1:11 --theta 0:1.96875:64 --phi 0,0.25
--n 1,2,3,4.  figure ID is sweep --strategy S --x 0:1:101 --theta 0:2:256
--phi 0.25 --n N, with (S, N) = (one, 1), (one, 2), (two, 1), (two, 2) for
2a, 2b, 4a, 4b.

A flag's value is the next argument, even one that starts with "-"
(--theta -1:1:3), or follows "=" (--theta=-1:1:3).  The last of a repeated
flag wins, flags win over --config, and no flag may be abbreviated.  Angles
in units of pi keep the special points exact (--theta 0.5 is pi/2); CSVs
store radians.  Exit codes: 0 success, 1 failed check, 2 usage or I/O error.
"""

import functools
import math
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence

# numpy's OpenBLAS starts a worker thread per extra CPU, and each spins for
# 2**28 cycles before it sleeps: about 130 ms of a second CPU on a 2-vCPU
# host, which made verify's CPU time 1.5 times its wall time.  ybc's
# largest matrix product is 16x16, too small to split, so one thread loses
# nothing.  The variables are caps, and one thread is inside every cap.
# OpenBLAS reads them only as numpy loads, so once numpy is loaded they
# are left alone.
if "numpy" not in sys.modules:
    os.environ.update(
        dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    )

import numpy as np

from . import braid_ybe, gates, strategies
from .linalg import identity, max_abs_diff

SWEEP_HEADER = "strategy,x,theta,phi,N,c_l1_sim,c_r_sim,c_l1_closed,deviation"
COMPARE_HEADER = (
    "strategy,x,theta,phi,N,c_l1_sim,c_l1_closed,c_l1_appendix,dev_closed,dev_appendix"
)

# figure ID is sweep --strategy S --x 0:1:101 --theta 0:2:256 --phi 0.25 --n N.
FIGURES = {"2a": ("one", "1"), "2b": ("one", "2"), "4a": ("two", "1"), "4b": ("two", "2")}


def _fmt(v: float) -> str:
    return f"{v:.12g}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _phi_grid(n: int = 32) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


def _unitarity_residual(m: np.ndarray) -> float:
    """max |m m^dagger - I| over a stack of 4x4 matrices."""
    return max_abs_diff(m @ m.conj().swapaxes(-1, -2), identity(4))


def _check_s_unitary() -> tuple[float, str]:
    s = braid_ybe.build_s(_phi_grid())
    return _unitarity_residual(s), "S(phi)^dagger S(phi) = I over 32 phases"


def _check_s_involution() -> tuple[float, str]:
    s = braid_ybe.build_s(_phi_grid())
    return max_abs_diff(s @ s, identity(4)), "S(phi)^2 = I over 32 phases"


def _check_s_hermitian() -> tuple[float, str]:
    s = braid_ybe.build_s(_phi_grid())
    res = max_abs_diff(s, s.conj().swapaxes(-1, -2))
    return res, "S(phi) = S(phi)^dagger over 32 phases"


def _check_braid() -> tuple[float, str]:
    res = braid_ybe.check_braid_relation(braid_ybe.build_s(_phi_grid()))
    return res, "b1 b2 b1 = b2 b1 b2 on 3 qubits over 32 phases"


def _check_far_commutation() -> tuple[float, str]:
    res = braid_ybe.check_far_commutation(braid_ybe.build_s(_phi_grid(8)))
    return res, "b1 b3 = b3 b1 on 4 qubits"


def _check_r_unitary() -> tuple[float, str]:
    r = braid_ybe.build_r(_phi_grid()[:, None], _phi_grid())
    return _unitarity_residual(r), "R(theta, phi) unitarity over a 32x32 angle grid"


def _check_ybe_additive() -> tuple[float, str]:
    mu, nu = np.meshgrid(*2 * ((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0),), indexing="ij")
    # The three phases stacked: the rational builder broadcasts phi against mu.
    phi = np.array([0.0, math.pi / 4.0, 1.1])[:, None, None]
    res = braid_ybe.check_ybe_additive(phi, mu, nu)
    return res, "additive YBE over mu, nu in {-2,-1,-1/2,1/2,1,2}^2, 3 phases"


def _check_ybe_multiplicative() -> tuple[float, str]:
    x, y = np.meshgrid(*2 * ((0.25, 0.5, 1.0, 2.0, 4.0),), indexing="ij")
    # The three deformations stacked: the builder broadcasts q against x.
    q = np.array([1.0, np.exp(-1j * np.pi / 4.0), np.exp(-1j * np.pi / 3.0)])
    family = braid_ybe.yang_baxterize_eight_vertex
    res = max(
        braid_ybe.check_ybe_multiplicative(
            functools.partial(family, sign, q[:, None, None], normalized=n), x, y
        )
        for sign in (+1, -1)
        for n in (False, True)
    )
    return res, "multiplicative YBE, eight-vertex family, both signs, 3 deformations"


def _check_eight_vertex_unitary() -> tuple[float, str]:
    q = np.exp(-1j * _phi_grid(8))[:, None]
    x = np.array([-3.0, -0.5, 0.0, 0.7, 2.0])
    # b is the x = 0 entry of each stack.
    res = max(
        _unitarity_residual(braid_ybe.yang_baxterize_eight_vertex(sign, q, x, normalized=True))
        for sign in (+1, -1)
    )
    return res, "normalized eight-vertex b and R(x) unitarity"


def _check_dcnot() -> tuple[float, str]:
    g1, g2 = gates.local_invariants(braid_ybe.build_s(_phi_grid()))
    invariants = float(max(np.abs(g1).max(), np.abs(g2 + 1.0).max()))
    factors = gates.equivalence_residuals(0.0)
    info = (
        f"invariants (G1, G2) = (0, -1) over 32 phases to {invariants:.3e}, "
        f"explicit factors at phi=0 to {factors:.3e}"
    )
    return max(invariants, factors), info


def _check_hamiltonian() -> tuple[float, str]:
    step = 1e-4
    gamma, theta, phi = np.meshgrid(
        (0.5, 1.0, 2.0), (0.3, 1.0, 2.2), (0.0, math.pi / 4.0), indexing="ij"
    )
    h = braid_ybe.build_hamiltonian(theta, phi, gamma, hbar=1.0, step=step)
    worst = max_abs_diff(h, gamma[..., None, None] * braid_ybe.build_s(phi))
    h1 = braid_ybe.build_hamiltonian(0.8, 0.3, step=step)
    h2 = braid_ybe.build_hamiltonian(0.8, 0.3, step=step / 2.0)
    e1 = max_abs_diff(h1, braid_ybe.build_s(0.3))
    e2 = max_abs_diff(h2, braid_ybe.build_s(0.3))
    ratio = e1 / e2 if e2 > 0 else float("inf")
    return worst, f"finite-difference H vs gamma*hbar*S, halving ratio {ratio:.2f}"


# (key, check returning (residual, description), default tolerance)
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


def _tolerance_override(opts) -> float | None:
    """The --tolerance flag, else YBC_TOLERANCE, else None.

    ValueError unless the value given is a positive finite real.
    """
    text = opts["tolerance"]
    if text is None and (text := os.environ.get("YBC_TOLERANCE")) is None:
        return None
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not (math.isfinite(value) and value > 0):
        if opts["tolerance"] is None:
            raise ValueError(f"invalid YBC_TOLERANCE value: {text!r}")
        shown = text if value is None else value
        raise ValueError(f"--tolerance must be a positive real, got {shown!r}")
    return value


def cmd_verify(opts) -> int:
    try:
        override = _tolerance_override(opts)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    selected = [
        (key, fn, tol)
        for key, fn, tol in VERIFY_CHECKS
        if opts["only"] is None or opts["only"] in key
    ]
    if not selected:
        keys = ", ".join(key for key, _, _ in VERIFY_CHECKS)
        print(f"no check matches {opts['only']!r}; available: {keys}", file=sys.stderr)
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


# The most rows that one sweep or compare grid may have.  sweep, figure and
# compare stream the grid from the kernel to the file in blocks of x rows
# (``strategies.grid_blocks`` through ``_write_grid``), so their memory does
# not grow with the rows: at the cap, a one-plane 4000 x 250 grid peaks at
# 5.3 MB for the one-qubit strategy and 10.8 MB for the two-qubit one
# (sweep or compare, at 2**15 points a block), traced by tracemalloc around
# ``main``.
# The count is checked on the parsed counts, before any axis is allocated.
MAX_ROWS = 1_000_000


def _parse_range(text: str, name: str, scale: float = 1.0) -> tuple[float, float, int]:
    """Parse an inclusive A:B:N range into the arguments of ``np.linspace``.

    A and B are scaled (angles: units of pi).  The axis itself is built by
    ``_grid_axes`` once the row count of the whole grid is known to be allowed.
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
    # Checked after scaling: a finite bound can overflow once scaled, and an
    # infinite bound or span would make np.linspace warn and return NaN.
    lo, hi = lo * scale, hi * scale
    if not math.isfinite(hi - lo):
        raise ValueError(f"--{name}: range bounds and their span must be finite")
    return lo, hi, count


def _parse_list(text: str, name: str, convert: Callable[[str], object]) -> list:
    """The comma-separated entries of ``text``, each passed through ``convert``."""
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--{name}: {exc}") from exc


def _grid_axes(opts, copies: int) -> list:
    """The grid's (xs, thetas, phis, ns) from the text of the four grid options.

    ValueError for a malformed option or a grid of more than ``MAX_ROWS``
    rows (``copies`` a point, counted before any axis is allocated); the
    kernel's walk checks the values.
    """
    xs = _parse_range(opts["x"], "x")
    thetas = _parse_range(opts["theta"], "theta", scale=math.pi)
    phis = [phi * math.pi for phi in _parse_list(opts["phi"], "phi", float)]
    ns = _parse_list(opts["n"], "n", int)
    rows = copies * xs[2] * thetas[2] * len(phis) * len(ns)
    if rows > MAX_ROWS:
        raise ValueError(f"the grid has {rows} rows, more than the limit of {MAX_ROWS}")
    return [np.linspace(*xs), np.linspace(*thetas), phis, ns]


class _RowError(Exception):
    """A ValueError raised while the rows of a CSV were computed."""


def _computed(chunks: Iterable[str]) -> Iterator[str]:
    """``chunks``, with a ValueError from computing them raised as ``_RowError``."""
    try:
        yield from chunks
    except ValueError as exc:
        raise _RowError(exc) from exc


def _write_csv(command: str, path: str, header: str, chunks: Iterable[str]) -> bool:
    """Stream the header and row chunks to ``path`` atomically.

    The text goes to a temp file beside the file that ``path`` names once
    symlinks are followed, and is renamed over that file once complete: a
    symlink stays a link, and its target (created if missing) takes the
    CSV.  Any error while the rows are computed or written removes the
    temp file and leaves ``path`` as it was.  A
    ValueError from computing the rows (a kernel check) is reported on
    stderr as ``COMMAND: message``, any other error as ``cannot write``
    with its type (an OSError with its strerror); the caller exits 2.  A
    path naming no file (empty, ending in a separator, or a directory), or
    no regular file once symlinks are followed (a FIFO, socket or device),
    is refused before any row is computed: the temp file cannot replace it.
    """
    if not os.path.basename(path) or os.path.isdir(path):
        print(f"cannot write {path!r}: not a file path", file=sys.stderr)
        return False
    if os.path.exists(path) and not os.path.isfile(path):
        print(f"cannot write {path!r}: not a regular file", file=sys.stderr)
        return False
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        try:
            with open(tmp, "x", encoding="ascii", newline="\n") as fh:
                fh.write(header + "\n")
                for chunk in _computed(chunks):
                    fh.write(chunk)
            os.replace(tmp, target)
        finally:
            if os.path.lexists(tmp):
                os.unlink(tmp)
    except _RowError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return False
    except Exception as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        print(f"cannot write {path!r}: {type(exc).__name__}: {reason}", file=sys.stderr)
        return False
    return True


def _row_prefixes(thetas, phis, ns) -> list[str]:
    """The theta, phi and N fields of each (theta, phi, N) point, theta outer, N inner."""
    keys = [f"{_fmt(float(phi))},{int(n)}" for phi in phis for n in ns]
    return [f"{_fmt(float(t))},{key}" for t in thetas for key in keys]


def _format(bits: np.ndarray) -> np.ndarray:
    """The ``,%.12g`` field of each int64 bit pattern, as an object array with one empty last."""
    return np.array(((",%.12g\0" * bits.size) % tuple(bits.view(np.float64).tolist())).split("\0"),
                    dtype=object)


def _fields(values: np.ndarray) -> np.ndarray:
    """The ``,%.12g`` field of every double of ``values`` in C order, as an object array.

    One sort of int64 keys, each a bit pattern whose low ``low`` bits are
    replaced by its position, groups the doubles that share sign, exponent
    and top mantissa bits (so 0.0 and -0.0 stay apart).  Each group is an
    interval of consecutive doubles, and the position comes back out of
    the low bits.  Python's ``%.12g`` rounds correctly (Gay's dtoa,
    ``sys.float_repr_style == "short"``), so it is monotone: when a group's
    smallest and largest bit pattern print alike, every double between
    them prints the same.  So only the two ends of a group go through
    ``%``, and a group whose ends differ is formatted one distinct pattern
    at a time.  When the ends could outnumber the doubles, the doubles are
    formatted in order.
    """
    bits = values.view(np.int64).ravel()
    n = bits.size
    low = (n - 1).bit_length()
    keys = np.sort(bits >> low << low | np.arange(n))
    high = keys >> low
    starts = np.flatnonzero(np.concatenate(([True], high[1:] != high[:-1])))
    if 2 * starts.size > n:
        return _format(bits)[:-1]
    position = keys & ((1 << low) - 1)
    where = np.empty(n, dtype=np.intp)
    where[position] = np.repeat(np.arange(starts.size), np.diff(starts, append=n))
    ordered = bits[position]
    lo, hi = np.minimum.reduceat(ordered, starts), np.maximum.reduceat(ordered, starts)
    split = np.flatnonzero(lo != hi)
    texts = _format(np.concatenate((lo, hi[split])))
    mixed = np.zeros(starts.size, dtype=bool)
    mixed[split] = texts[split] != texts[starts.size:-1]
    if mixed.any():
        members = np.flatnonzero(mixed[where])
        distinct = np.sort(bits[members])
        distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
        where[members] = texts.size + np.searchsorted(distinct, bits[members])
        texts = np.concatenate((texts, _format(distinct)))
    return texts[where]


def _csv_rows(kind, xs, prefixes: list[str], values: Iterable[np.ndarray]) -> Iterator[str]:
    """CSV rows in grid order (x outer, then theta, phi, N), one chunk per x.

    ``prefixes`` are the grid's ``_row_prefixes``.  ``values`` yields one
    array per x in turn, which holds in C order the value columns of the
    (theta, phi, N) points at that x, phi outer: values[it, plane, column]
    or values[it, ip, j, column].

    The value columns repeat heavily, up to the last bits (the two-qubit
    coherence does not depend on phi, and N folds into theta), so each
    chunk's fields come from ``_fields``, which formats few doubles.  They
    are placed into a table of cells built once for all chunks: per row a
    head (the newline that ends the previous row, then strategy and x), the
    prefix (theta, phi, N) and the fields, and after the last row one
    closing newline.  The first row's head has no newline.  The table is
    joined once per chunk.  Every field is still ``%.12g`` of its own
    double, the same bytes as ``_fmt``.

    The walk must yield exactly one array per x, or ValueError.  Each array
    is dropped before the next is asked for, so that the walk can free a
    block before it computes the next one.
    """
    walk = iter(values)
    table = None
    for x in xs:
        row = next(walk, None)
        if row is None:
            raise ValueError(f"the kernel walk yielded fewer than the grid's {len(xs)} x rows")
        if table is None:
            width = row.shape[-1]
            table = np.empty(len(prefixes) * (width + 2) + 1, dtype=object)
            cells = table[:-1].reshape(len(prefixes), width + 2)
            cells[:, 1] = prefixes
            table[-1] = "\n"
        fields = _fields(row)
        del row
        head = f"{kind},{_fmt(float(x))},"
        cells[:, 0] = "\n" + head
        table[0] = head
        cells[:, 2:] = fields.reshape(len(prefixes), width)
        yield "".join(table.tolist())
    if next(walk, None) is not None:
        raise ValueError(f"the kernel walk yielded more than the grid's {len(xs)} x rows")


def _write_grid(command: str, out: str, header: str, kinds, axes, columns, summary=None) -> bool:
    """Stream each kind's grid from the kernel to ``out``, one block of x rows at a time.

    ``axes`` are the grid's (xs, thetas, phis, ns).  ``columns`` gives the
    value columns of each block of ``strategies.grid_blocks``, and the
    leading ones that ``header`` names are written.  ``summary``, if given,
    takes each whole block as it passes.  The row prefixes are formatted
    once, for every kind.
    """
    width = len(header.split(",")) - 5  # after strategy,x,theta,phi,N

    def rows(kind):
        for block in strategies.grid_blocks(kind, *axes, columns):
            if summary is not None:
                summary.add(kind, block)
            yield from block[..., :width]
            # Dropped before the walk computes the next block, so that one
            # block is alive at a time.
            del block

    prefixes = _row_prefixes(*axes[1:])
    chunks = (chunk for kind in kinds for chunk in _csv_rows(kind, axes[0], prefixes, rows(kind)))
    return _write_csv(command, out, header, chunks)


def cmd_sweep(opts) -> int:
    strategy, out = opts["strategy"], opts["out"]
    try:
        if strategy not in ("one", "two"):
            raise ValueError(f"--strategy must be one or two, got {strategy!r}")
        xs, thetas, phis, ns = _grid_axes(opts, 1)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    axes, columns = (xs, thetas, phis, ns), strategies.sweep_columns
    if not _write_grid("sweep", out, SWEEP_HEADER, (strategy,), axes, columns):
        return 2
    print(f"wrote {len(xs) * len(thetas) * len(phis) * len(ns)} rows to {out}")
    return 0


def cmd_figure(opts) -> int:
    fig, out = opts["id"], opts["out"]
    if fig not in FIGURES:
        valid = ", ".join(sorted(FIGURES))
        print(f"unknown figure id {fig!r}; valid ids: {valid}", file=sys.stderr)
        return 2
    kind, n = FIGURES[fig]
    axes = _grid_axes({"x": "0:1:101", "theta": "0:2:256", "phi": "0.25", "n": n}, 1)
    if not _write_grid("figure", out, SWEEP_HEADER, (kind,), axes, strategies.sweep_columns):
        return 2
    print(f"wrote figure {fig} grid ({len(axes[0]) * len(axes[1])} rows) to {out}")
    return 0


def cmd_compare(opts) -> int:
    strategy, formula, out = opts["strategy"], opts["formula"], opts["out"]
    try:
        if formula not in strategies.DROPPED_COLUMNS:
            raise ValueError(f"--formula must be closed, elements or all, got {formula!r}")
        if strategy not in ("one", "two", "all"):
            raise ValueError(f"--strategy must be one, two or all, got {strategy!r}")
        kinds = ("one", "two") if strategy == "all" else (strategy,)
        xs, thetas, phis, ns = _grid_axes(opts, len(kinds))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    summary = strategies.DeviationSummary(ns)
    columns = functools.partial(strategies.compare_columns, formula=formula)
    axes = (xs, thetas, phis, ns)
    if not _write_grid("compare", out, COMPARE_HEADER, kinds, axes, columns, summary):
        return 2
    print(summary.format_summary())
    print(f"wrote {len(kinds) * len(xs) * len(thetas) * len(phis) * len(ns)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


# The default of an option that a flag or --config must set: an object, not a
# string, which a flag could spell.
REQUIRED = object()

# Each command's flags (--name VALUE or --name=VALUE) and their defaults, as
# flag text or None for unset; figure also takes an id.  compare's theta
# default is 64 angles pi/32 apart, short of 2 pi.
OPTIONS = {
    "verify": {"tolerance": None, "only": None},
    "sweep": {"strategy": REQUIRED, "x": REQUIRED, "theta": REQUIRED, "phi": REQUIRED,
              "n": REQUIRED, "out": REQUIRED, "config": None},
    "figure": {"out": REQUIRED, "config": None},
    "compare": {"strategy": "all", "x": "0:1:11", "theta": "0:1.96875:64", "phi": "0,0.25",
                "n": "1,2,3,4", "formula": "all", "out": REQUIRED, "config": None},
}


def _parse(argv: Sequence[str]) -> tuple[str, dict[str, str | None]] | None:
    """(command, {option: value or None}); None for -h or --help, ValueError on misuse."""
    if argv and argv[0] in ("-h", "--help"):
        return None
    if not argv or argv[0] not in OPTIONS:
        got = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ValueError(f"{got}; commands: {', '.join(OPTIONS)}")
    command, tokens = argv[0], iter(argv[1:])
    opts = dict.fromkeys(OPTIONS[command])
    ids = []
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("--"):
            ids.append(token)
            continue
        name, eq, value = token[2:].partition("=")
        if name not in opts:
            raise ValueError(f"{command} has no option --{name}")
        if not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"option --{name} expects a value")
        opts[name] = value
    if command == "figure":
        if len(ids) != 1:
            raise ValueError(f"figure takes one figure id, got {len(ids)}")
        opts["id"] = ids[0]
    elif ids:
        raise ValueError(f"{command} takes no argument {ids[0]!r}")
    return command, opts


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


def _apply_config(command: str, opts: dict[str, str | None]) -> None:
    """Fill unset options from the --config file; flags take precedence.

    ValueError for a key that is not an option of the command.
    """
    if opts.get("config") is None:
        return
    for key, value in _read_config(opts["config"]).items():
        if key not in OPTIONS[command] or key == "config":
            raise ValueError(f"unknown config key {key!r}")
        if opts[key] is None:
            opts[key] = value


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"ybc: error: {exc}", file=sys.stderr)
        return 2
    if parsed is None:
        print(__doc__, end="")  # assigned, not a docstring, so that python -OO keeps it
        return 0
    command, opts = parsed
    try:
        _apply_config(command, opts)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    defaults = OPTIONS[command]
    required = [key for key, default in defaults.items() if default is REQUIRED]
    missing = [key for key in required if opts[key] is None]
    if missing:
        plural = "s" if len(required) > 1 else ""
        print(f"{command}: missing required option{plural}: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    opts.update((key, default) for key, default in defaults.items() if opts[key] is None)
    # cmd_<command>, looked up on each call so that a handler replaced on the module runs.
    return globals()[f"cmd_{command}"](opts)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
