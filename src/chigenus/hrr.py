"""Riemann-Roch engine: the chi^p functionals.

chi^p(X) = chi(X, Omega_X^p) is a universal polynomial of weight n in the
Chern classes.  All n+1 of them come at once from the chi_y genus
(Hirzebruch, Topological Methods in Algebraic Geometry, 1 and 15.5):

    sum_p chi^p y^p = top-weight part of prod_i Q_y(x_i),
    Q_y(x) = (1 + y exp(-x)) * x / (1 - exp(-x)) = sum_k q_k(y) x^k,

over the Chern roots x_1..x_n of the tangent bundle, where
q_k(y) = t_k + y s_k with t_k = (-1)^k B_k / k!, s_k = B_k / k! and
B_1 = -1/2.  The coefficient of the monomial symmetric function m_lambda is
q_0^{n - len(lambda)} prod_i q_{lambda_i}, a polynomial of degree n in y whose
y^p coefficient belongs to chi^p.  With q_k scaled by L^k (L the lcm of the
denominators of t_k and s_k, k <= n) these are integer polynomials over
L^n; `symchern.chern_coordinates` takes them to the c-monomials, and the
only fractions are the final divisions by L^n.

The public chi^p functionals are flipped into cotangent variables (c_i
meaning c_i of the cotangent bundle) exactly once, at the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .poly import (
    DimensionMismatch,
    GradedPoly,
    RationalLike,
    as_rational,
    mono_weight,
    weight_basis,
)
from .symchern import (
    BasisConvention,
    ConventionMismatch,
    chern_coordinates,
    partitions_of,
)

__all__ = [
    "ConsistencyError",
    "ChernFunctional",
    "ChiTable",
    "top_part",
    "chi_p",
    "chi_table",
    "euler_functional",
    "SIGN_MODES",
    "mode_convention",
    "chi_sign",
    "signed_target",
]


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates an implementation bug."""


@dataclass(frozen=True)
class ChernFunctional:
    """Top-weight linear functional on Chern-number monomials.

    `coeffs` is indexed by the canonical weight-n monomial basis; pairing
    with a complete set of Chern numbers is an exact dot product.
    """

    dimension: int
    convention: BasisConvention
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        basis = weight_basis(self.dimension)
        coeffs = tuple(as_rational(c) for c in self.coeffs)
        if len(coeffs) != len(basis):
            raise ValueError(
                f"expected {len(basis)} coefficients for dimension "
                f"{self.dimension}, got {len(coeffs)}"
            )
        object.__setattr__(self, "convention", BasisConvention(self.convention))
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dimension: int, convention: BasisConvention) -> "ChernFunctional":
        return cls(dimension, convention, (Fraction(0),) * len(weight_basis(dimension)))

    # -- structure ----------------------------------------------------------

    def as_poly(self) -> GradedPoly:
        return GradedPoly(
            self.dimension,
            {m: c for m, c in zip(weight_basis(self.dimension), self.coeffs) if c},
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "ChernFunctional") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatch(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )
        if self.convention != other.convention:
            raise ConventionMismatch(
                f"convention mismatch: {self.convention.value} vs {other.convention.value}"
            )

    def __add__(self, other: "ChernFunctional") -> "ChernFunctional":
        self._check_compatible(other)
        return ChernFunctional(
            self.dimension,
            self.convention,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "ChernFunctional") -> "ChernFunctional":
        self._check_compatible(other)
        return ChernFunctional(
            self.dimension,
            self.convention,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "ChernFunctional":
        return self.scaled(-1)

    def scaled(self, factor: RationalLike) -> "ChernFunctional":
        factor = as_rational(factor)
        return ChernFunctional(
            self.dimension, self.convention, tuple(c * factor for c in self.coeffs)
        )

    def flipped(self) -> "ChernFunctional":
        """Same functional re-expressed in the other (co)tangent convention."""
        basis = weight_basis(self.dimension)
        return ChernFunctional(
            self.dimension,
            self.convention.other(),
            tuple(c * ((-1) ** mono_weight(m)) for c, m in zip(self.coeffs, basis)),
        )

    def dot(self, values: Sequence[RationalLike]) -> Fraction:
        values = tuple(as_rational(v) for v in values)
        if len(values) != len(self.coeffs):
            raise DimensionMismatch(
                f"expected {len(self.coeffs)} values, got {len(values)}"
            )
        return sum((c * v for c, v in zip(self.coeffs, values)), Fraction(0))

    def clear_denominators(self) -> tuple["ChernFunctional", int]:
        """Smallest positive integer multiple with integral coefficients.

        Returns (scaled functional, multiplier)."""
        scale = 1
        for c in self.coeffs:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
        return self.scaled(scale), scale

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        return self.as_poly().to_text()

    def to_json_dict(self) -> dict:
        return {
            "convention": self.convention.value,
            "dim": self.dimension,
            "poly": self.as_poly().to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "ChernFunctional":
        poly = GradedPoly.from_json_dict(obj["poly"])
        if poly.dim != obj["dim"]:
            raise ValueError("functional JSON dimension disagrees with its polynomial")
        return top_part(poly, BasisConvention(obj["convention"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def __str__(self) -> str:
        return self.to_text()


def top_part(a: GradedPoly, convention: BasisConvention) -> ChernFunctional:
    """Extract the weight-n component of a polynomial as a functional.

    This is the formal analogue of integrating over the manifold: only the
    top-weight piece pairs with Chern numbers; lower-weight terms are
    discarded.  The caller states which convention `a` is written in.
    """
    return ChernFunctional(a.dim, convention, a.top_coefficients())


@lru_cache(maxsize=None)
def _chi_y_factor(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(L, ((T_0, S_0), ..., (T_n, S_n))) with q_k(y) = (T_k + y S_k) / L^k
    the coefficients of Q_y (see the module docstring)."""
    bernoulli = [Fraction(1)]  # B_0..B_n with B_1 = -1/2
    for m in range(1, n + 1):
        total = sum(math.comb(m + 1, j) * b for j, b in enumerate(bernoulli))
        bernoulli.append(-total / (m + 1))
    s = [b / math.factorial(k) for k, b in enumerate(bernoulli)]
    scale = math.lcm(*(c.denominator for c in s))  # also that of t_k = (-1)^k s_k
    scaled = [c.numerator * (scale**k // c.denominator) for k, c in enumerate(s)]
    return scale, tuple(((-1) ** k * c, c) for k, c in enumerate(scaled))


@lru_cache(maxsize=None)
def _chi_y_rows(n: int) -> tuple[ChernFunctional, ...]:
    """chi^0..chi^n of dimension n, in cotangent variables: the
    coefficients in y of the chi_y genus (see the module docstring)."""
    scale, factor = _chi_y_factor(n)
    monomial = {}  # m_lambda coefficient times L^n, lowest power of y first
    for parts in partitions_of(n):
        poly = [1]
        for k in parts:  # padded: each zero part is a factor q_0
            t, s = factor[k]
            poly = [t * a + s * b for a, b in zip(poly + [0], [0] + poly)]
        monomial[parts] = poly
    coordinates = chern_coordinates(monomial, n)
    denominator = scale**n
    basis = weight_basis(n)
    return tuple(
        ChernFunctional(
            n,
            BasisConvention.TANGENT,
            tuple(Fraction(coordinates[m][p], denominator) for m in basis),
        ).flipped()
        for p in range(n + 1)
    )


@lru_cache(maxsize=None)
def chi_p(n: int, p: int) -> ChernFunctional:
    """The chi^p functional, in cotangent-convention variables.

    chi^p pairs a manifold's Chern numbers with the holomorphic Euler
    characteristic of its sheaf of p-forms, e.g. chi^1 = (c_1^2 - 5 c_2)/6
    in dimension 2.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer: {n!r}")
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p!r} outside 0..{n}")
    return _chi_y_rows(n)[p]


def euler_functional(n: int) -> ChernFunctional:
    """Topological Euler characteristic as a cotangent-convention
    functional: (-1)^n c_n, i.e. c_n of the tangent bundle."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer: {n!r}")
    if n == 0:
        return ChernFunctional(0, BasisConvention.COTANGENT, (Fraction(1),))
    top_mono = tuple([0] * (n - 1) + [1])
    basis = weight_basis(n)
    coeffs = tuple(
        Fraction((-1) ** n) if m == top_mono else Fraction(0) for m in basis
    )
    return ChernFunctional(n, BasisConvention.COTANGENT, coeffs)


SIGN_MODES = ("nef_cotangent", "nef_tangent")


def mode_convention(mode: str) -> BasisConvention:
    """The bundle a sign mode assumes nef: its generators, and the
    variables its targets are written in."""
    if mode not in SIGN_MODES:
        raise ValueError(f"mode must be one of {SIGN_MODES}, got {mode!r}")
    if mode == "nef_cotangent":
        return BasisConvention.COTANGENT
    return BasisConvention.TANGENT


def chi_sign(n: int, p: int, mode: str) -> int:
    """The sign s of the statement s * chi^p >= 0 under a sign mode:
    (-1)^{n-p} for ``nef_cotangent``, (-1)^p for ``nef_tangent``."""
    if mode_convention(mode) is BasisConvention.COTANGENT:
        return (-1) ** (n - p)
    return (-1) ** p


def signed_target(
    functional: ChernFunctional, sign: int, mode: str
) -> tuple[ChernFunctional, int]:
    """sign * functional in the mode's convention, cleared of denominators.

    Returns (target, scale) with target = scale * sign * functional, so a
    certificate for the target is a statement about an integral functional.
    """
    if functional.convention != mode_convention(mode):
        functional = functional.flipped()
    return functional.scaled(sign).clear_denominators()


@dataclass(frozen=True)
class ChiTable:
    """All chi^p functionals of one dimension, in a single convention."""

    dimension: int
    convention: BasisConvention
    rows: tuple[ChernFunctional, ...]

    def row(self, p: int) -> ChernFunctional:
        return self.rows[p]

    def flipped(self) -> "ChiTable":
        return ChiTable(
            self.dimension,
            self.convention.other(),
            tuple(r.flipped() for r in self.rows),
        )

    def to_json_dict(self) -> dict:
        return {
            "convention": self.convention.value,
            "dim": self.dimension,
            "rows": [
                {"p": p, "poly": row.as_poly().to_json_dict()}
                for p, row in enumerate(self.rows)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "ChiTable":
        convention = BasisConvention(obj["convention"])
        rows = []
        for entry in sorted(obj["rows"], key=lambda e: e["p"]):
            poly = GradedPoly.from_json_dict(entry["poly"])
            rows.append(top_part(poly, convention))
        return cls(obj["dim"], convention, tuple(rows))


def chi_table(n: int) -> ChiTable:
    """All n+1 chi^p functionals in cotangent convention.

    Validates the duality row symmetry chi^p = (-1)^n chi^{n-p} and the
    alternating-sum identity sum_p (-1)^p chi^p = Euler functional before
    returning; a failure means the chi_y engine is broken and aborts.
    """
    rows = tuple(chi_p(n, p) for p in range(n + 1))
    for p in range(n + 1):
        if rows[p] != rows[n - p].scaled((-1) ** n):
            raise ConsistencyError(
                f"duality symmetry failed at dimension {n}, p={p}"
            )
    alternating = ChernFunctional.zero(n, BasisConvention.COTANGENT)
    for p in range(n + 1):
        alternating = alternating + rows[p].scaled((-1) ** p)
    if alternating != euler_functional(n):
        raise ConsistencyError(f"alternating sum is not the Euler class at dimension {n}")
    return ChiTable(n, BasisConvention.COTANGENT, rows)
