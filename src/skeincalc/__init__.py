"""Exact skein-algebra calculator for the 2-torus and 3-torus.

Everything is computed over the field Q(A) of rational functions with
exact rational coefficients; equalities asserted anywhere in the package
are exact equalities of canonical forms, never numeric approximations.
"""

from .abelianize import (
    AbCertificate,
    AbElement,
    CertStep,
    CLASSES,
    certificate,
    closure_check,
    reduce_element,
    reduce_label,
    verify_certificate,
)
from .errors import VerificationError
from .expressions import ExpressionError, parse_element, parse_scalar
from .quantum_torus import QTorusElement, embed_curve, embed_element
from .ratfunc import LaurentPoly, RationalFunction, a_pow
from .torus2 import (
    EMPTY,
    SkeinT2Element,
    canonical_pair,
    chebyshev_t,
    commutator,
    curve,
    framing_twist,
    scalar,
    t_to_jw,
)
from .torus3 import (
    Curve3,
    Generator,
    Reduction3Certificate,
    ReductionStep,
    StandardEmbedding,
    build_m1,
    build_m2,
    build_m3,
    common_curve,
    extended_gcd,
    find_diffeo,
    generators,
    grade_decompose,
    homology_class,
    reduce_curve,
    replay_certificate,
    trivial_embedding,
)

__version__ = "0.1.0"
