"""Property tests of the simulation kernel at random grid points.

The measures are those of Baumgratz, Cramer and Plenio, PRL 113, 140401
(2014): on a d-dimensional state 0 <= C_l1 <= d - 1 and
0 <= C_r <= log2 d, and on a qubit C_r <= C_l1.  The upper bounds allow
1e-12 of roundoff.  N goes up to 10^9, and the kernel is pinned there
against the test-side reference, a 40-digit mpmath evaluation of
R(theta, phi)^N on the input (``reference.py``).

Two further properties: N uses of R(theta, phi) act as one use at the
angle pi/2 - N (pi/2 - theta), since R = exp(i (pi/2 - theta) S) with
S^2 = I; and each reference evaluator, called at one point, returns
exactly the entry of a plane that contains that point.

Last, the CSV row emitter, which formats each distinct double of a chunk
once, prints the same bytes as ``_fmt`` on every field.
"""

import itertools
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ybc import cli, strategies
from ybc.strategies import ONE_QUBIT, TWO_QUBIT, closed_form_coherence, elementwise_reduced

from reference import batched_grid, kernel_spectrum, mpmath_reference

POINTS = dict(
    kind=st.sampled_from([ONE_QUBIT, TWO_QUBIT]),
    x=st.floats(0.0, 1.0),
    theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    phi=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    n=st.integers(1, 10**9),
)
PROFILE = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def kernel_point(kind, x, theta, phi, n):
    c_l1, c_r = batched_grid(kind, [x], [theta], phi, n)
    return float(c_l1[0, 0]), float(c_r[0, 0])


@PROFILE
@given(**POINTS)
def test_kernel_matches_mpmath_reference(kind, x, theta, phi, n):
    c_l1, c_r = kernel_point(kind, x, theta, phi, n)
    ref_l1, ref_r, ref_lam, _ = mpmath_reference(kind, x, theta, phi, n)
    assert abs(c_l1 - ref_l1) <= 1e-12
    assert abs(c_r - ref_r) <= 1e-12
    lam = kernel_spectrum(kind, x, theta, phi, n)
    assert max(abs(a - b) for a, b in zip(lam, ref_lam)) <= 1e-12
    assert abs(sum(lam) - 1.0) <= 1e-12 and min(lam) >= -1e-12  # trace 1 and PSD


@PROFILE
@given(**POINTS)
def test_coherence_bounds(kind, x, theta, phi, n):
    c_l1, c_r = kernel_point(kind, x, theta, phi, n)
    d = 2 if kind == ONE_QUBIT else 4
    assert 0.0 <= c_l1 <= d - 1 + 1e-12
    assert 0.0 <= c_r <= math.log2(d) + 1e-12
    if kind == ONE_QUBIT:
        assert c_r <= c_l1 + 1e-12


@PROFILE
@given(**{**POINTS, "n": st.integers(1, 50)})
def test_n_uses_collapse_into_one_use(kind, x, theta, phi, n):
    collapsed = math.pi / 2.0 - n * (math.pi / 2.0 - theta)
    c_l1, c_r = kernel_point(kind, x, theta, phi, n)
    one_l1, one_r = kernel_point(kind, x, collapsed, phi, 1)
    assert abs(c_l1 - one_l1) <= 1e-12
    assert abs(c_r - one_r) <= 1e-12


@PROFILE
@given(
    kind=POINTS["kind"],
    xs=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    thetas=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=5, max_size=5),
    phi=POINTS["phi"],
    n=st.integers(1, 10**6 + 1),
    i=st.integers(0, 2),
    j=st.integers(0, 4),
)
def test_scalar_forms_equal_their_plane_entry(kind, xs, thetas, phi, n, i, j):
    x, theta = xs[i], thetas[j]
    plane_x, plane_theta = np.array(xs)[:, None], np.array(thetas)[None, :]
    closed = strategies._closed_form_l1(kind, plane_x, plane_theta, phi, n)
    _, upper = strategies._elements(kind, plane_x, plane_theta, phi, n)
    elements = strategies._off_diagonal_l1(upper)
    assert closed_form_coherence(kind, x, theta, phi, n) == closed[i, j]
    assert elementwise_reduced(kind, x, theta, phi, n)[1] == elements[i, j]


# Doubles whose %.12g text is easy to get wrong: signed zeros, NaN, the
# infinities, the smallest subnormal, a tiny normal and a 17-digit integer.
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e16]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)


@st.composite
def csv_grids(draw):
    """Grid axes and a values[ix, it, plane, column] array for ``_csv_rows``.

    Up to 3 x and theta values (so 1-row chunks occur), 1-2 phis and Ns,
    and 1-6 columns.  The values either all differ or repeat a pool of at
    most four doubles.  They are a view that leaves out a last column, as
    ``compare`` passes its report columns.
    """
    nx, nt, nphi, nn = (draw(st.integers(1, k)) for k in (3, 3, 2, 2))
    width = draw(st.integers(1, 6))
    shape = (nx, nt, nphi * nn, width)
    size = math.prod(shape)
    if draw(st.booleans()):
        flat = draw(
            st.lists(FLOATS, min_size=size, max_size=size, unique_by=lambda v: struct.pack("<d", v))
        )
    else:
        pool = draw(st.lists(FLOATS, min_size=1, max_size=4))
        flat = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    wide = np.zeros(shape[:-1] + (width + 1,))
    wide[..., :width] = np.array(flat).reshape(shape)
    axes = (
        np.linspace(0.0, 1.0, nx),
        np.linspace(0.0, math.pi, nt),
        [0.25 * math.pi * k for k in range(nphi)],
        list(range(1, nn + 1)),
    )
    return axes, wide[..., :width]


@PROFILE
@given(kind=POINTS["kind"], grid=csv_grids())
def test_csv_rows_equal_per_field_rendering(kind, grid):
    (xs, thetas, phis, ns), values = grid
    chunks = list(cli._csv_rows(kind, xs, cli._row_prefixes(thetas, phis, ns), values))
    assert len(chunks) == len(xs)  # one chunk per x value
    for chunk, x, chunk_values in zip(chunks, xs, values):
        want = [
            f"{kind},{cli._fmt(float(x))},{cli._fmt(float(theta))},{cli._fmt(phi)},{n},"
            + ",".join(cli._fmt(v) for v in row.tolist())
            + "\n"
            for theta, plane_rows in zip(thetas, chunk_values)
            for (phi, n), row in zip(itertools.product(phis, ns), plane_rows)
        ]
        assert chunk == "".join(want)
