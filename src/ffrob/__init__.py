"""Frobenius ideal operations and regularity probes over F_p."""

from .checks import (
    CheckReport,
    ProbeReport,
    SamplerConfig,
    Witness,
    check_colon,
    check_intersection_family,
    check_principal_intersection,
    fedder_is_fpure,
    jacobian_regularity_oracle,
    regularity_probe,
    reverify_witness,
    sample_ideal,
    sample_polynomial,
)
from .errors import (
    ExponentOverflowError,
    FFrobError,
    ParseError,
    PoolSizeError,
    RingMismatchError,
    UnsupportedOperationError,
)
from .field import PrimeField
from .frobenius import (
    NilradicalResult,
    bracket_power,
    frobenius_closure_test,
    frobenius_kernel_preimage,
    frobenius_root,
    is_reduced,
    nilradical_char_p,
)
from .groebner import (
    buchberger,
    elimination_ideal,
    normal_form,
    poly_ideal_intersect,
)
from .ideals import Ideal, QuotientRing
from .parser import parse_polynomial
from .poly import MonomialOrder, Polynomial, PolyRing, render

__all__ = [
    "CheckReport",
    "ExponentOverflowError",
    "FFrobError",
    "Ideal",
    "MonomialOrder",
    "NilradicalResult",
    "ParseError",
    "PoolSizeError",
    "Polynomial",
    "PolyRing",
    "PrimeField",
    "ProbeReport",
    "QuotientRing",
    "RingMismatchError",
    "SamplerConfig",
    "UnsupportedOperationError",
    "Witness",
    "bracket_power",
    "buchberger",
    "check_colon",
    "check_intersection_family",
    "check_principal_intersection",
    "elimination_ideal",
    "fedder_is_fpure",
    "frobenius_closure_test",
    "frobenius_kernel_preimage",
    "frobenius_root",
    "is_reduced",
    "jacobian_regularity_oracle",
    "nilradical_char_p",
    "normal_form",
    "parse_polynomial",
    "poly_ideal_intersect",
    "regularity_probe",
    "render",
    "reverify_witness",
    "sample_ideal",
    "sample_polynomial",
]
