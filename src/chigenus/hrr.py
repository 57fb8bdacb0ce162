"""Riemann-Roch engine: the chi^p functionals.

chi^p(X) = chi(X, Omega_X^p) is a universal polynomial of weight n in the
Chern classes.  All n+1 of them come at once from the chi_y genus
(Hirzebruch, Topological Methods in Algebraic Geometry, 1 and 15.5):

    sum_p chi^p y^p = top-weight part of prod_i Q_y(x_i),
    Q_y(x) = (1 + y exp(-x)) * x / (1 - exp(-x)) = sum_k q_k(y) x^k,

over the Chern roots x_1..x_n of the tangent bundle, where
q_k(y) = s_k ((-1)^k + y) with s_k = B_k / k! and B_1 = -1/2.  The
coefficient of the monomial symmetric function m_lambda is
q_0^{n - len(lambda)} prod_i q_{lambda_i}, a polynomial of degree n in y
whose y^p coefficient belongs to chi^p.  With s_k scaled by L^k (L the lcm
of the denominators of s_k, k <= n) these are integer polynomials over L^n;
`symchern.chern_coordinates` takes them to the c-monomials, and each row is
its integer numerators over L^n.

The public chi^p functionals are flipped into cotangent variables (c_i
meaning c_i of the cotangent bundle) exactly once, at the boundary.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from . import SIGN_MODES
from .poly import (
    BasisConvention,
    ChernFunctional,
    Record,
    lowest_terms,
    partitions_of,
    weight_basis,
)

__all__ = [
    "ConsistencyError",
    "ChiTable",
    "chi_p",
    "chi_table",
    "euler_functional",
    "euler_number",
    "mode_convention",
    "chi_sign",
    "signed_target",
]


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates an implementation bug."""


def _chi_y_factor(n: int) -> tuple[int, tuple[int, ...]]:
    """(L, (S_0, ..., S_n)) with S_k = s_k L^k: the coefficients of Q_y are
    q_k(y) = S_k ((-1)^k + y) / L^k (see the module docstring)."""
    # s_k = B_k / k! (B_1 = -1/2) as (numerator, denominator): the coefficients
    # of x / (e^x - 1), the inverse of (e^x - 1) / x = sum_j x^j / (j + 1)!
    s = [(1, 1)]
    for m in range(1, n + 1):
        terms = [(a, b * math.factorial(j + 1)) for j, (a, b) in zip(range(m, 0, -1), s)]
        den = math.lcm(*(b for _, b in terms))
        (total,), den = lowest_terms([-sum(a * (den // b) for a, b in terms)], den)
        s.append((total, den))
    scale = math.lcm(*(b for _, b in s))
    return scale, tuple(a * (scale**k // b) for k, (a, b) in enumerate(s))


@lru_cache(maxsize=None)
def _chi_y_rows(n: int) -> tuple[ChernFunctional, ...]:
    """chi^0..chi^n of dimension n, in cotangent variables: the y^p parts
    of the chi_y genus (module docstring), from one `chern_coordinates`
    solve on its m_lambda coefficients listed in `partitions_of(n)` order.

    The rows are validated once, here, on the integer numerators over L^n
    that they are built from: the duality symmetry chi^p =
    (-1)^n chi^{n-p} and the alternating-sum identity sum_p (-1)^p chi^p =
    Euler functional.  A failure means the chi_y engine is broken and
    aborts."""
    from .symchern import chern_coordinates  # only rows load the Kostka solve

    parts = partitions_of(n)  # refuses an n that is not a non-negative int
    scale, factor = _chi_y_factor(n)
    right = []  # m_lambda coefficients times L^n, lowest power of y first
    for lam in parts:
        poly = [1]
        for k in lam:  # padded: each zero part is a factor q_0
            poly = [factor[k] * ((-1) ** k * a + b) for a, b in zip(poly + [0], [0] + poly)]
        right.append(poly)
    # tangent numerators; the flip to cotangent variables is the sign (-1)^n
    numerators = chern_coordinates(right, n)
    den = scale**n
    sign = (-1) ** n
    for p in range(n + 1):
        if any(k[p] != sign * k[n - p] for k in numerators):
            raise ConsistencyError(f"duality symmetry failed at dimension {n}, p={p}")
    for k, e in zip(numerators, euler_functional(n).numerators):
        if sign * euler_number(k) != e * den:
            raise ConsistencyError(f"alternating sum is not the Euler class at dimension {n}")
    return tuple(
        ChernFunctional(n, BasisConvention.COTANGENT, [sign * k[p] for k in numerators], den)
        for p in range(n + 1)
    )


def chi_p(n: int, p: int) -> ChernFunctional:
    """The chi^p functional, in cotangent-convention variables.

    chi^p pairs a manifold's Chern numbers with the holomorphic Euler
    characteristic of its sheaf of p-forms, e.g. chi^1 = (c_1^2 - 5 c_2)/6
    in dimension 2.
    """
    partitions_of(n)  # n is refused first, then p, before any row is built
    if isinstance(p, bool) or not isinstance(p, int) or not 0 <= p <= n:
        raise ValueError(f"form degree {p!r} outside 0..{n}")
    return _chi_y_rows(n)[p]


def euler_functional(n: int) -> ChernFunctional:
    """Topological Euler characteristic as a cotangent-convention
    functional: (-1)^n c_n, i.e. c_n of the tangent bundle.  c_n is the
    last monomial of `weight_basis(n)`, and for n = 0 the only one, 1."""
    coeffs = (0,) * (len(weight_basis(n)) - 1) + ((-1) ** n,)
    return ChernFunctional(n, BasisConvention.COTANGENT, coeffs, 1)


def euler_number(chi: Sequence[int]) -> int:
    """sum_p (-1)^p chi^p, chi_y at y = -1: the Euler number."""
    return sum(chi[0::2]) - sum(chi[1::2])


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
    return functional.in_convention(mode_convention(mode)).scaled(sign).clear_denominators()


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

    def _json_shape(self) -> dict:
        # the rows in place, for `poly.json_text`
        return {
            "convention": self.convention.value,
            "dim": self.dimension,
            "rows": [{"p": p, "poly": row} for p, row in enumerate(self.rows)],
        }


def chi_table(n: int) -> ChiTable:
    """All n+1 chi^p functionals in cotangent convention, validated where
    they are built (`_chi_y_rows`)."""
    return ChiTable(n, BasisConvention.COTANGENT, _chi_y_rows(n))
