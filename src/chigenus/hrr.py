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
`symchern.chern_coordinates` takes them, divided with L^n by their gcd, to
the c-monomials, and each row is its integer numerators over L^n / gcd.

The rows are flipped into cotangent variables (c_i of the cotangent bundle)
once, where they are built: the flip of a weight-n row is the sign (-1)^n.
`chi_table(n)` is that validated tuple of rows itself; the `chi` command
flips them to the convention it is asked for and writes its own payload.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from . import SIGN_MODES
from .poly import (
    BasisConvention,
    ChernFunctional,
    ConsistencyError,
    lowest_terms,
    partitions_of,
    weight_basis,
)

__all__ = [
    "chi_p",
    "chi_table",
    "euler_functional",
    "euler_number",
    "mode_convention",
    "chi_sign",
    "signed_target",
]


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
    Those and L^n are divided by their gcd first, so the solve runs at the
    scale of the row denominators (Hirzebruch's Todd denominators), not L^n.

    The rows are validated once, here, on the integer numerators they are
    built from: the duality symmetry chi^p = (-1)^n chi^{n-p}, the
    alternating-sum identity sum_p (-1)^p chi^p = Euler functional, and
    chi^p(P^n) = (-1)^p.  A failure means the chi_y engine is broken and
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
    g = math.gcd(scale**n, *(c for poly in right for c in poly))
    numerators = chern_coordinates([[c // g for c in poly] for poly in right], n)
    den = scale**n // g
    sign = (-1) ** n
    for p in range(n + 1):
        if any(k[p] != sign * k[n - p] for k in numerators):
            raise ConsistencyError(f"duality symmetry failed at dimension {n}, p={p}")
    for k, e in zip(numerators, euler_functional(n).numerators):
        if sign * euler_number(k) != e * den:
            raise ConsistencyError(f"alternating sum is not the Euler class at dimension {n}")
    # chi^p(P^n) = (-1)^p, with the Chern numbers c^mu[P^n] = prod_i C(n + 1, i)^{e_i}
    pn = [math.prod(math.comb(n + 1, i) ** e for i, e in enumerate(m, 1)) for m in weight_basis(n)]
    for p in range(n + 1):
        if sum(c * k[p] for c, k in zip(pn, numerators)) != (-1) ** p * den:
            raise ConsistencyError(f"chi^{p}(P^{n}) is not (-1)^{p} at dimension {n}")
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
    row = functional.in_convention(mode_convention(mode)).scaled(sign)
    return row.scaled(row.denominator), row.denominator


def chi_table(n: int) -> tuple[ChernFunctional, ...]:
    """All n+1 chi^p functionals in cotangent convention, chi^p at index p,
    validated where they are built (`_chi_y_rows`)."""
    return _chi_y_rows(n)
