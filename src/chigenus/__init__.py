"""chigenus: exact chi^p genus polynomials in Chern numbers, Schur
positivity generators, and rational cone certificates for sign theorems
about manifolds with nef (co)tangent bundles.

Everything is exact rational arithmetic; no floats are accepted anywhere.
"""

from .poly import (
    DimensionMismatch,
    GradedPoly,
    ParseError,
    as_rational,
    monomials_of_weight,
    weight_basis,
)
from .symchern import (
    BasisConvention,
    ConventionMismatch,
    InvalidPartition,
    flip_basis,
    partitions_of,
    schur,
    segre_top,
)
from .hrr import (
    ChernFunctional,
    ChiTable,
    ConsistencyError,
    chi_p,
    chi_table,
    euler_functional,
    top_part,
)
from .cone import (
    Certificate,
    ChiSignReport,
    GeneratorSet,
    Infeasibility,
    certify,
    certify_chi_signs,
    generators,
    verify_certificate,
)
from .varieties import (
    AbelianVariety,
    ChernNumberSet,
    Curve,
    Explicit,
    Hypersurface,
    Product,
    ProjectiveSpace,
    Surface,
    VarietyDescriptor,
    chern_numbers,
    check_signs,
    chi_values,
    descriptor_from_json,
    descriptor_from_token,
    evaluate,
    load_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # poly
    "DimensionMismatch",
    "GradedPoly",
    "ParseError",
    "as_rational",
    "monomials_of_weight",
    "weight_basis",
    # symchern
    "BasisConvention",
    "ConventionMismatch",
    "InvalidPartition",
    "flip_basis",
    "partitions_of",
    "schur",
    "segre_top",
    # hrr
    "ChernFunctional",
    "ChiTable",
    "ConsistencyError",
    "chi_p",
    "chi_table",
    "euler_functional",
    "top_part",
    # cone
    "Certificate",
    "ChiSignReport",
    "GeneratorSet",
    "Infeasibility",
    "certify",
    "certify_chi_signs",
    "generators",
    "verify_certificate",
    # varieties
    "AbelianVariety",
    "ChernNumberSet",
    "Curve",
    "Explicit",
    "Hypersurface",
    "Product",
    "ProjectiveSpace",
    "Surface",
    "VarietyDescriptor",
    "chern_numbers",
    "check_signs",
    "chi_values",
    "descriptor_from_json",
    "descriptor_from_token",
    "evaluate",
    "load_corpus",
]
