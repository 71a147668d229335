"""Coxeter systems, Hecke algebra modules on quasiparabolic sets, and their
canonical bases, in exact integer arithmetic."""

from .coxeter import (
    CoxeterSystem,
    DiagramAut,
    Element,
    ExtElement,
    build_system,
    twisted_conjugate,
)
from .laurent import LaurentPoly
from .qpsets import (
    ScaledWSet,
    bruhat_order,
    check_quasiparabolic,
    conjugacy_set,
    coset_set,
    even_double_cover,
    regular_set,
    rht_witness,
)

__version__ = "0.1.0"

__all__ = [
    "CoxeterSystem",
    "DiagramAut",
    "Element",
    "ExtElement",
    "LaurentPoly",
    "ScaledWSet",
    "build_system",
    "bruhat_order",
    "check_quasiparabolic",
    "conjugacy_set",
    "coset_set",
    "even_double_cover",
    "regular_set",
    "rht_witness",
    "twisted_conjugate",
    "__version__",
]
