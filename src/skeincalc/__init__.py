"""Exact skein-algebra calculator for the 2-torus and 3-torus.

Everything is computed over the field Q(A) of rational functions with
exact rational coefficients; equalities asserted anywhere in the package
are exact equalities of canonical forms, never numeric approximations.

The names below are re-exported from their home modules on first use
(PEP 562), so importing the package, or one submodule such as the
command line, loads no module it does not need.
"""

from importlib import import_module

# Home module of each re-exported name.
_HOMES = {
    "abelianize": "AbCertificate AbElement CertStep CLASSES certificate closure_check"
    " reduce_element reduce_label verify_certificate",
    "errors": "ExpressionError VerificationError",
    "expressions": "parse_element parse_scalar",
    "quantum_torus": "QTorusElement embed_curve embed_element",
    "ratfunc": "LaurentPoly RationalFunction a_pow",
    "torus2": "EMPTY SkeinT2Element canonical_pair chebyshev_t commutator curve"
    " framing_twist scalar t_to_jw",
    "torus3": "Curve3 Generator Reduction3Certificate ReductionStep StandardEmbedding"
    " common_curve extended_gcd find_diffeo generators grade_decompose reduce_curve"
    " replay_certificate",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # resolved once; later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
