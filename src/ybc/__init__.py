"""Yang-Baxter braid gates and coherence dynamics under repeated channel use."""

from .braid_ybe import (
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
from .gates import dcnot, local_factors, local_invariants
from .linalg import kron, max_abs_diff
from .strategies import (
    ONE_QUBIT,
    TWO_QUBIT,
    closed_form_coherence,
    elementwise_reduced,
)

__version__ = "0.1.0"
