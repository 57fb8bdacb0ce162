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

import math
from fractions import Fraction
from functools import lru_cache

from . import SIGN_MODES
# the functional type and its tags live in `poly`; importing them from here
# also works
from .poly import (
    BasisConvention,
    ChernFunctional,
    ConventionMismatch,
    Record,
    partitions_of,
    weight_basis,
)
from .symchern import chern_coordinates

__all__ = [
    "ConsistencyError",
    "ChernFunctional",
    "ChiTable",
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


def _check_dimension(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer: {n!r}")


@lru_cache(maxsize=None)
def _chi_y_rows(n: int) -> tuple[ChernFunctional, ...]:
    """chi^0..chi^n of dimension n, in cotangent variables: the
    coefficients in y of the chi_y genus (see the module docstring).

    The rows are validated once, here, on their integer numerators over
    L^n before any fraction is made: the duality symmetry chi^p =
    (-1)^n chi^{n-p} and the alternating-sum identity sum_p (-1)^p chi^p =
    Euler functional.  A failure means the chi_y engine is broken and
    aborts."""
    _check_dimension(n)
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
    # tangent numerators; the flip to cotangent variables is the sign (-1)^n
    sign = (-1) ** n
    numerators = [coordinates[m] for m in basis]
    for p in range(n + 1):
        if any(k[p] != sign * k[n - p] for k in numerators):
            raise ConsistencyError(f"duality symmetry failed at dimension {n}, p={p}")
    euler = euler_functional(n).coeffs
    for k, e in zip(numerators, euler):
        if sign * (sum(k[0::2]) - sum(k[1::2])) != e * denominator:
            raise ConsistencyError(f"alternating sum is not the Euler class at dimension {n}")
    return tuple(
        ChernFunctional(
            n,
            BasisConvention.COTANGENT,
            tuple(Fraction(sign * k[p], denominator) for k in numerators),
        )
        for p in range(n + 1)
    )


@lru_cache(maxsize=None, typed=True)
def chi_p(n: int, p: int) -> ChernFunctional:
    """The chi^p functional, in cotangent-convention variables.

    chi^p pairs a manifold's Chern numbers with the holomorphic Euler
    characteristic of its sheaf of p-forms, e.g. chi^1 = (c_1^2 - 5 c_2)/6
    in dimension 2.  The cache is typed: (True, 0) == (1, 0), so an
    untyped key would answer a bool with a cached row.
    """
    rows = _chi_y_rows(n)
    if isinstance(p, bool) or not isinstance(p, int) or not 0 <= p <= n:
        raise ValueError(f"form degree {p!r} outside 0..{n}")
    return rows[p]


def euler_functional(n: int) -> ChernFunctional:
    """Topological Euler characteristic as a cotangent-convention
    functional: (-1)^n c_n, i.e. c_n of the tangent bundle.  c_n is the
    last monomial of `weight_basis(n)`, and for n = 0 the only one, 1."""
    _check_dimension(n)
    coeffs = (0,) * (len(weight_basis(n)) - 1) + ((-1) ** n,)
    return ChernFunctional(n, BasisConvention.COTANGENT, coeffs)


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


class ChiTable(Record):
    """All chi^p functionals of one dimension, in a single convention."""

    dimension: int
    convention: BasisConvention
    rows: tuple[ChernFunctional, ...]

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
                {"p": p, "poly": row.poly_json_dict()}
                for p, row in enumerate(self.rows)
            ],
        }


def chi_table(n: int) -> ChiTable:
    """All n+1 chi^p functionals in cotangent convention, validated where
    they are built (`_chi_y_rows`)."""
    return ChiTable(n, BasisConvention.COTANGENT, _chi_y_rows(n))
