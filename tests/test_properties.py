"""Property tests of the simulation kernel at random grid points.

The measures are those of Baumgratz, Cramer and Plenio, PRL 113, 140401
(2014): on a d-dimensional state 0 <= C_l1 <= d - 1 and
0 <= C_r <= log2 d, and on a qubit C_r <= C_l1.  The upper bounds allow
1e-12 of roundoff.  N stops at 10^5: near 10^6 the drift of
``matrix_power`` puts the trace of the reduced state off 1 by more than
the kernel's 1e-10 check.

Two further properties: N uses of R(theta, phi) act as one use at the
angle pi/2 - N (pi/2 - theta), since R = exp(i (pi/2 - theta) S) with
S^2 = I; and each scalar reference evaluator returns exactly the entry of
a plane that contains its point.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ybc import strategies
from ybc.braid_ybe import GateParams
from ybc.coherence import l1_coherence, relative_entropy_coherence
from ybc.strategies import (
    ONE_QUBIT,
    TWO_QUBIT,
    StrategySpec,
    batched_grid,
    closed_form_l1_one_qubit,
    closed_form_l1_plane,
    closed_form_l1_two_qubit,
    elementwise_reduced_one_qubit,
    elementwise_reduced_two_qubit,
    simulate_reduced,
)

POINTS = dict(
    kind=st.sampled_from([ONE_QUBIT, TWO_QUBIT]),
    x=st.floats(0.0, 1.0),
    theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    phi=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    n=st.integers(1, 10**5),
)
PROFILE = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def kernel_point(kind, x, theta, phi, n):
    c_l1, c_r = batched_grid(kind, [x], [theta], phi, n)
    return float(c_l1[0, 0]), float(c_r[0, 0])


@PROFILE
@given(**POINTS)
def test_kernel_matches_pointwise_oracle(kind, x, theta, phi, n):
    c_l1, c_r = kernel_point(kind, x, theta, phi, n)
    reduced = simulate_reduced(StrategySpec(kind, x, n, GateParams(theta, phi)))
    assert abs(c_l1 - l1_coherence(reduced)) <= 1e-12
    assert abs(c_r - relative_entropy_coherence(reduced)) <= 1e-12


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
    closed = closed_form_l1_plane(kind, xs, thetas, phi, n)
    plane_x, plane_theta = np.array(xs)[:, None], np.array(thetas)[None, :]
    elements, _ = strategies._elementwise_l1(kind, plane_x, plane_theta, phi, n)
    if kind == ONE_QUBIT:
        assert closed_form_l1_one_qubit(x, theta, phi, n) == closed[i, j]
        assert elementwise_reduced_one_qubit(x, theta, phi, n)[1] == elements[i, j]
    else:
        assert closed_form_l1_two_qubit(x, theta, n) == closed[i, j]
        assert elementwise_reduced_two_qubit(x, theta, phi, n)[1] == elements[i, j]
