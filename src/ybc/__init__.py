"""Yang-Baxter braid gates and coherence dynamics under repeated channel use.

The public names load their module, and numpy with it, on first use, so
that ``import ybc.cli`` reaches ``cli`` before any numpy import.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "build_eight_vertex_b",
            "build_hamiltonian",
            "build_r",
            "build_s",
            "check_braid_relation",
            "check_far_commutation",
            "check_ybe_additive",
            "check_ybe_multiplicative",
            "yang_baxterize_eight_vertex",
            "yang_baxterize_rational",
        ),
        "braid_ybe",
    ),
    **dict.fromkeys(("dcnot", "local_factors", "local_invariants"), "gates"),
    **dict.fromkeys(("kron", "max_abs_diff"), "linalg"),
    **dict.fromkeys(
        ("ONE_QUBIT", "TWO_QUBIT", "closed_form_coherence", "elementwise_reduced"),
        "strategies",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
