"""Riemann-Roch engine: the Todd class and the chi^p functionals.

chi^p(X) = chi(X, Omega_X^p) is a universal polynomial of weight n in the
Chern classes.  All n+1 of them come at once from the chi_y genus
(Hirzebruch, Topological Methods in Algebraic Geometry, 15.5):

    sum_p chi^p y^p = top-weight part of prod_i Q_y(x_i),
    Q_y(x) = (1 + y exp(-x)) * x / (1 - exp(-x)),

over the Chern roots x_1..x_n of the tangent bundle.  All series work
happens in tangent-convention variables with the roots eliminated through
power sums: a product prod_i f(x_i) with f(0) = 1 is exp(sum_k a_k p_k),
where sum a_k x^k is the logarithm of f and p_k is the k-th power sum in
c_1..c_n.  The Todd class is the case y = 0.  chi_y is a polynomial of
degree n in y, so it is evaluated at the nodes y = 0..n (scaling Q_y by
1/(1 + y) to make its constant term 1) and its coefficients chi^p are
recovered by exact Lagrange interpolation.

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
from .symchern import BasisConvention, ConventionMismatch, power_sum

__all__ = [
    "ConsistencyError",
    "ChernFunctional",
    "ChiTable",
    "top_part",
    "todd_class",
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


# -- power series in x, as polynomials in c_1 alone -------------------------
#
# A series in x truncated at x^n is a polynomial in c_1 in the weight-n ring:
# c_1^k has weight k, so the ring's truncation is the series truncation.


def _series(coefficients: Sequence[Fraction], n: int) -> GradedPoly:
    """sum_k a_k x^k for a_1, a_2, ... (no constant term), with x = c_1,
    truncated at x^n."""
    powers = [(k,) + (0,) * (n - 1) for k in range(1, n + 1)]
    return GradedPoly(n, zip(powers, coefficients))


def _series_coefficients(series: GradedPoly) -> tuple[Fraction, ...]:
    """a_1..a_n of a series in x = c_1 (the inverse of `_series`)."""
    n = series.dim
    return tuple(series.coefficient((k,) + (0,) * (n - 1)) for k in range(1, n + 1))


def _exp(u: GradedPoly) -> GradedPoly:
    """exp(u) = sum_m u^m / m! for u without constant term."""
    result = GradedPoly.one(u.dim)
    term = GradedPoly.one(u.dim)
    for m in range(1, u.dim + 1):
        term = term * u * Fraction(1, m)
        result = result + term
    return result


def _log1p(u: GradedPoly) -> GradedPoly:
    """log(1 + u) = sum_m (-1)^{m+1} u^m / m for u without constant term."""
    result = GradedPoly.zero(u.dim)
    power = GradedPoly.one(u.dim)
    for m in range(1, u.dim + 1):
        power = power * u
        result = result + power * Fraction((-1) ** (m + 1), m)
    return result


@lru_cache(maxsize=None)
def _log_todd_coefficients(order: int) -> tuple[Fraction, ...]:
    """Coefficients a_1..a_order of log(x / (1 - exp(-x))) = -log(q),
    q = (1 - exp(-x)) / x = 1 + sum_{m>=1} (-1)^m x^m / (m+1)!."""
    q_minus_one = [Fraction((-1) ** m, math.factorial(m + 1)) for m in range(1, order + 1)]
    return _series_coefficients(-_log1p(_series(q_minus_one, order)))


def _log_exterior_coefficients(y: int, order: int) -> tuple[Fraction, ...]:
    """Coefficients b_1..b_order of log((1 + y exp(-x)) / (1 + y)) = log(1 + u),
    u = y/(1+y) (exp(-x) - 1) = y/(1+y) sum_{m>=1} (-1)^m x^m / m!."""
    scale = Fraction(y, 1 + y)
    u = [scale * Fraction((-1) ** m, math.factorial(m)) for m in range(1, order + 1)]
    return _series_coefficients(_log1p(_series(u, order)))


def _multiplicative_sequence(log_coefficients: Sequence[Fraction], n: int) -> GradedPoly:
    """prod_i f(x_i) over the Chern roots, expanded to weight n in c_1..c_n
    (tangent convention), for the series f(x) = exp(sum_k a_k x^k) given by
    a_1..a_n: it is exp(sum_k a_k p_k), p_k the k-th power sum."""
    log_f = GradedPoly.zero(n)
    for k, a in enumerate(log_coefficients, start=1):
        if a:
            log_f = log_f + power_sum(k, n) * a
    return _exp(log_f)


@lru_cache(maxsize=None)
def todd_class(n: int) -> GradedPoly:
    """Todd class of the tangent bundle, prod x_i / (1 - exp(-x_i)),
    expanded to weight n in c_1..c_n (tangent convention).

    The first graded pieces are c_1/2, (c_1^2 + c_2)/12, c_1 c_2/24.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer: {n!r}")
    return _multiplicative_sequence(_log_todd_coefficients(n), n)


def _lagrange_coefficients(n: int) -> list[list[Fraction]]:
    """basis[j][p]: the coefficient of y^p in the Lagrange polynomial of
    degree n that is 1 at y = j and 0 at the other nodes 0..n."""
    basis = []
    for j in range(n + 1):
        numerator = [1]  # prod_{m != j} (y - m), lowest degree first
        denominator = 1
        for m in range(n + 1):
            if m == j:
                continue
            # multiply by (y - m)
            numerator = [a - m * b for a, b in zip([0] + numerator, numerator + [0])]
            denominator *= j - m
        basis.append([Fraction(c, denominator) for c in numerator])
    return basis


@lru_cache(maxsize=None)
def _chi_y_rows(n: int) -> tuple[ChernFunctional, ...]:
    """chi^0..chi^n of dimension n, in cotangent variables: the
    coefficients in y of the chi_y genus (see the module docstring)."""
    todd_log = _log_todd_coefficients(n)
    values = []  # values[y][i]: chi_y at node y, i-th top-weight monomial
    for y in range(n + 1):
        log_q = [a + b for a, b in zip(todd_log, _log_exterior_coefficients(y, n))]
        scale = (1 + y) ** n
        top = _multiplicative_sequence(log_q, n).top_coefficients()
        values.append([c * scale for c in top])
    lagrange = _lagrange_coefficients(n)
    rows = []
    for p in range(n + 1):
        coeffs = tuple(
            sum((lagrange[y][p] * column[y] for y in range(n + 1)), Fraction(0))
            for column in zip(*values)
        )
        rows.append(ChernFunctional(n, BasisConvention.TANGENT, coeffs).flipped())
    return tuple(rows)


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
    returning; a failure means the series engine is broken and aborts.
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
