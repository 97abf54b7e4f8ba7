"""Property tests of the simulation kernel at random grid points.

The measures are those of Baumgratz, Cramer and Plenio, PRL 113, 140401
(2014): on a d-dimensional state 0 <= C_l1 <= d - 1 and
0 <= C_r <= log2 d, and on a qubit C_r <= C_l1.  The upper bounds allow
1e-12 of roundoff.  N stops at 10^5: near 10^6 the drift of
``matrix_power`` puts the trace of the reduced state off 1 by more than
the kernel's 1e-10 check.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ybc.braid_ybe import GateParams
from ybc.coherence import l1_coherence, relative_entropy_coherence
from ybc.strategies import ONE_QUBIT, TWO_QUBIT, StrategySpec, batched_grid, simulate_reduced

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
