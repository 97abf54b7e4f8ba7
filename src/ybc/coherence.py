"""Tolerances of the coherence measures.

The l1 norm of coherence and the relative entropy of coherence (in bits)
are computed by the simulation kernel's measure stage,
``strategies._measures``, in the fixed computational basis; these are the
tolerances it applies.
"""

# A reduced state whose trace is off 1 by more than this is an error.
DEFAULT_TOL = 1e-10

# Eigenvalues in [-EIG_CLAMP, 0] are numerical noise and are clamped to 0
# before entropy evaluation.
EIG_CLAMP = 1e-10
