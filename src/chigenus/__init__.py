"""chigenus: exact chi^p genus polynomials in Chern numbers, Schur
positivity generators, and rational cone certificates for sign theorems
about manifolds with nef (co)tangent bundles.

Everything is exact rational arithmetic; no floats are accepted anywhere.

The public names load on first use (PEP 562): ``import chigenus`` runs no
mathematics, and ``chigenus.chi_table`` imports ``chigenus.hrr`` only when
it is first read, so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Owned here so the command-line parser can name them without loading the
# mathematics; `hrr` and `cone` import them from here.
SIGN_MODES = ("nef_cotangent", "nef_tangent")
ASSUMPTION_TAGS = ("my2", "my4", "c1top")
# The ceiling on every dimension limit.  It bounds nesting, not work: a product
# read within it nests too shallowly to near the stack.  Recipe leaves take
# chi_y from closed forms and enumerate no monomial, but an explicit leaf or a
# --dim near 64 enumerates p(n) (about 1.7 million) monomials and does not finish.
MAX_DIM = 64

# public name -> the submodule that defines it
_HOMES = {
    name: home
    for home, names in {
        "poly": "BasisConvention ChernFunctional ConsistencyError ConventionMismatch "
        "DimensionMismatch InvalidPartition ParseError as_rational partitions_of weight_basis",
        "symchern": "schur",
        "hrr": "chi_p chi_table euler_functional",
        "cone": "Certificate ChiSignReport GeneratorSet Infeasibility certify "
        "certify_chi_signs generators verify_certificate",
        "varieties": "AbelianVariety Curve Explicit Hypersurface Product "
        "ProjectiveSpace Surface VarietyDescriptor chern_numbers check_signs chi_values "
        "descriptor_from_json descriptor_from_token evaluate load_corpus",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", "SIGN_MODES", "ASSUMPTION_TAGS", "MAX_DIM", *_HOMES]


def __getattr__(name: str):
    if name in _HOMES.values():  # a submodule, which `import chigenus` does not load
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads skip this hook
    return value
