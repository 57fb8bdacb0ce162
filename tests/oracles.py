"""Independent oracles for the test suite.

Everything here recomputes expected values by a route disjoint from the
package's own:

* polynomials in c_1..c_n of every weight up to n, in the truncated ring
  `GradedPoly`, which the program left when every value it computes became
  a top-weight `ChernFunctional`; the routes below build on it;
* Schur polynomials by semistandard-tableau enumeration over formal Chern
  roots (combinatorial, no determinant);
* symmetric-polynomial reduction to elementary symmetric polynomials by
  the classical leading-term algorithm;
* the Todd class from Bernoulli numbers, one factor per formal root;
* the chi_y genus of a hypersurface by its closed residue formula in one
  variable, with no Chern number, and of the other recipe leaves and their
  products by closed forms and the product rule;
* the full chi_y table from the closed product formula over formal roots;
* the Schur coordinates of the chi_y genus by the dual Cauchy and dual
  Jacobi-Trudi identities, one determinant over Z[y] per partition (no
  Kostka number);
* partition counting by the bounded-part recurrence;
* cofactor expansion for determinants;
* Fourier-Motzkin elimination for cone feasibility;
* Gaussian elimination over Fractions for membership in the cone of a
  basis (the Schur catalog is one: square and nonsingular);
* the rational phase-1 simplex that ``cone._phase_one`` replaced, kept as
  the reference for its pivot path;
* the chi_y rows by the exp/log route that the monomial-to-elementary
  transition matrix of ``hrr`` replaced: power sums by Newton's identities,
  log-series, exp of the multiplicative sequence at the nodes y = 0..n and
  Lagrange interpolation in y (with the Todd class, its y = 0 case);
* Schur polynomials by the memoized Laplace expansion of the Jacobi-Trudi
  determinant that the inverse Kostka matrix of ``symchern`` replaced;
* Chern numbers of products by multiplying total Chern classes in the
  bigraded ring Q[c(X)] (x) Q[c(Y)], the expansion that the Whitney split
  of ``varieties.Product`` replaced;
* variety tokens by the parser that rescans each product's inner text for
  its top-level comma, which the comma index of
  ``varieties.descriptor_from_token`` replaced (same results and messages);
* polynomial text by the two-flag term parser that the one-pass term loop
  of ``poly.parse_terms`` replaced (same results and messages).
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from operator import add
from typing import Iterable, Mapping, Sequence

from chigenus.hrr import ChernFunctional, ConsistencyError
from chigenus.poly import (
    DimensionMismatch,
    Monomial,
    ParseError,
    RationalLike,
    as_rational,
    json_terms,
    mono_key,
    mono_text,
    mono_weight,
    parse_decimal,
    parse_terms,
    partitions_of,
    rational_parts,
    terms_text,
    weight_basis,
)
from chigenus.symchern import BasisConvention, Partition
from chigenus.varieties import (
    _RECIPES,
    AbelianVariety,
    Curve,
    Hypersurface,
    Product,
    ProjectiveSpace,
    Surface,
    VarietyDescriptor,
)

RootPoly = dict[tuple[int, ...], Fraction]


# -- the truncated polynomial ring ----------------------------------------------


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


class GradedPoly:
    """Sparse polynomial in c_1..c_n over Q, truncated at weight n.

    Instances are immutable; all arithmetic returns new objects, so values
    can be shared freely across threads.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(
        self,
        dim: int,
        terms: Mapping[Monomial, RationalLike] | Iterable[tuple[Monomial, RationalLike]] = (),
    ):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise ValueError(f"dimension must be a non-negative integer, got {dim!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for mono, coef in items:
            mono = tuple(mono)
            if len(mono) != dim:
                raise DimensionMismatch(
                    f"monomial {mono} has {len(mono)} exponents, expected {dim}"
                )
            if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in mono):
                raise ValueError(f"exponents must be non-negative integers: {mono}")
            if mono_weight(mono) > dim:
                raise ValueError(
                    f"monomial {mono_text(mono) or '1'} has weight {mono_weight(mono)}"
                    f" > dimension {dim}"
                )
            value = acc.get(mono, Fraction(0)) + as_rational(coef)
            if value:
                acc[mono] = value
            else:
                acc.pop(mono, None)
        self._dim = dim
        self._terms = acc

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "GradedPoly":
        return cls(dim)

    @classmethod
    def one(cls, dim: int) -> "GradedPoly":
        return cls.constant(dim, 1)

    @classmethod
    def constant(cls, dim: int, value: RationalLike) -> "GradedPoly":
        return cls(dim, {(0,) * dim: as_rational(value)})

    @classmethod
    def variable(cls, dim: int, index: int) -> "GradedPoly":
        """The generator c_index, 1-based."""
        if not 1 <= index <= dim:
            raise ValueError(f"variable index {index} outside 1..{dim}")
        exps = [0] * dim
        exps[index - 1] = 1
        return cls(dim, {tuple(exps): Fraction(1)})

    # -- structure -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    def terms(self) -> dict[Monomial, Fraction]:
        """Copy of the term map (monomial -> coefficient)."""
        return dict(self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def graded_part(self, weight: int) -> "GradedPoly":
        """The homogeneous component of the given weight."""
        return GradedPoly(
            self._dim,
            {m: c for m, c in self._terms.items() if mono_weight(m) == weight},
        )

    def top_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficient vector of the weight-n part over the canonical
        top-weight monomial basis (lower-weight terms are ignored)."""
        return tuple(self._terms.get(m, Fraction(0)) for m in weight_basis(self._dim))

    # -- arithmetic ------------------------------------------------------

    def _check_dim(self, other: "GradedPoly") -> None:
        if self._dim != other._dim:
            raise DimensionMismatch(
                f"dimension mismatch: {self._dim} vs {other._dim}"
            )

    def __add__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(self._dim, other)
        self._check_dim(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            value = acc.get(m, Fraction(0)) + c
            if value:
                acc[m] = value
            else:
                acc.pop(m, None)
        out = GradedPoly.__new__(GradedPoly)
        out._dim = self._dim
        out._terms = acc
        return out

    def __neg__(self) -> "GradedPoly":
        return self.__mul__(Fraction(-1))

    def __sub__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(self._dim, other)
        return self.__add__(other.__neg__())

    def __mul__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            scalar = as_rational(other)
            terms = {m: c * scalar for m, c in self._terms.items()} if scalar else {}
            out = GradedPoly.__new__(GradedPoly)
            out._dim = self._dim
            out._terms = terms
            return out
        self._check_dim(other)
        dim = self._dim
        # Truncation is part of the ring contract: sort the right operand by
        # weight once, so each left term visits only the prefix that fits.
        right = sorted((mono_weight(m), m, c) for m, c in other._terms.items())
        weights = [w for w, _, _ in right]
        acc: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for _, mb, cb in right[: bisect_right(weights, dim - mono_weight(ma))]:
                m = mono_mul(ma, mb)
                value = acc.get(m)
                if value is None:
                    acc[m] = ca * cb
                else:
                    value += ca * cb
                    if value:
                        acc[m] = value
                    else:
                        del acc[m]
        out = GradedPoly.__new__(GradedPoly)
        out._dim = dim
        out._terms = acc
        return out

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    # -- serialization ---------------------------------------------------

    def _triples(self) -> list[tuple[Monomial, int, int]]:
        # (monomial, numerator, denominator), the term form of `poly`'s text and JSON
        terms = sorted(self._terms.items(), key=lambda item: mono_key(item[0]))
        return [(mono, coef.numerator, coef.denominator) for mono, coef in terms]

    def to_text(self) -> str:
        return terms_text(self._triples())

    @classmethod
    def from_text(cls, dim: int, text: str) -> "GradedPoly":
        return cls(dim, [(mono, Fraction(num, den)) for mono, num, den in parse_terms(dim, text)])

    def to_json_dict(self) -> dict:
        return {"dim": self._dim, "terms": json_terms(self._triples())}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "GradedPoly":
        try:
            dim = obj["dim"]
            raw = obj["terms"]
            terms = [
                (
                    tuple(entry["exps"]),
                    Fraction(as_rational(entry["num"]), as_rational(entry["den"])),
                )
                for entry in raw
            ]
            return cls(dim, terms)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed polynomial JSON: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "GradedPoly":
        return cls.from_json_dict(json.loads(text))


# -- partitions ---------------------------------------------------------------


@lru_cache(maxsize=None)
def partition_count(n: int, max_part: int | None = None) -> int:
    """Number of partitions of n with parts <= max_part (recurrence oracle)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return partition_count(n - max_part, max_part) + partition_count(n, max_part - 1)


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    parts = tuple(p for p in parts if p)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


# -- formal-root polynomial arithmetic ----------------------------------------


def rp_zero() -> RootPoly:
    return {}


def rp_const(n: int, value: Fraction) -> RootPoly:
    return {(0,) * n: Fraction(value)} if value else {}


def rp_add(a: RootPoly, b: RootPoly) -> RootPoly:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, Fraction(0)) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def rp_scale(a: RootPoly, s: Fraction) -> RootPoly:
    return {m: c * s for m, c in a.items()} if s else {}


def rp_mul(a: RootPoly, b: RootPoly, cap: int) -> RootPoly:
    out: RootPoly = {}
    for ma, ca in a.items():
        da = sum(ma)
        for mb, cb in b.items():
            if da + sum(mb) > cap:
                continue
            m = tuple(x + y for x, y in zip(ma, mb))
            v = out.get(m, Fraction(0)) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def rp_degree_part(a: RootPoly, d: int) -> RootPoly:
    return {m: c for m, c in a.items() if sum(m) == d}


def root_variable(n: int, i: int, power: int = 1) -> RootPoly:
    exps = [0] * n
    exps[i] = power
    return {tuple(exps): Fraction(1)}


def exp_of_root(n: int, i: int, scale: int, cap: int) -> RootPoly:
    """exp(scale * x_i) truncated at total degree cap."""
    out: RootPoly = {}
    for m in range(cap + 1):
        exps = [0] * n
        exps[i] = m
        out[tuple(exps)] = Fraction(scale**m, factorial(m))
    return out


# -- symmetric reduction to elementary symmetric polynomials ------------------


@lru_cache(maxsize=None)
def elementary_poly(k: int, n: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """e_k(x_1..x_n) as a frozen RootPoly."""
    out: RootPoly = {}
    for subset in combinations(range(n), k):
        exps = [0] * n
        for i in subset:
            exps[i] = 1
        out[tuple(exps)] = Fraction(1)
    return tuple(out.items())


def to_elementary(f: RootPoly, n: int) -> dict[Monomial, Fraction]:
    """Express a homogeneous symmetric polynomial in e_1..e_n.

    Returns a map from c-monomial exponent tuples (exponent of e_i at
    index i-1) to coefficients, by the classical leading-term descent.
    """
    if not f:
        return {}
    degrees = {sum(m) for m in f}
    assert len(degrees) == 1, "to_elementary expects homogeneous input"
    work = dict(f)
    result: dict[Monomial, Fraction] = {}
    while work:
        lead = max(work)  # lex order
        assert all(
            lead[i] >= lead[i + 1] for i in range(n - 1)
        ), f"input not symmetric: leading exponent {lead}"
        coef = work[lead]
        multiplicities = [
            lead[i] - (lead[i + 1] if i + 1 < n else 0) for i in range(n)
        ]
        expansion = rp_const(n, Fraction(1))
        for i, m in enumerate(multiplicities):
            e_i = dict(elementary_poly(i + 1, n))
            for _ in range(m):
                expansion = rp_mul(expansion, e_i, sum(lead))
        work = rp_add(work, rp_scale(expansion, -coef))
        mono = tuple(multiplicities)
        value = result.get(mono, Fraction(0)) + coef
        if value:
            result[mono] = value
        else:
            result.pop(mono, None)
    return result


def roots_to_graded(f: RootPoly, n: int) -> GradedPoly:
    """Symmetrize a (possibly mixed-degree) root polynomial into c-variables."""
    total = GradedPoly.zero(n)
    degrees = sorted({sum(m) for m in f})
    for d in degrees:
        part = to_elementary(rp_degree_part(f, d), n)
        total = total + GradedPoly(n, part)
    return total


# -- Schur functions by tableau enumeration ------------------------------------


def ssyt_schur(shape: tuple[int, ...], n: int) -> RootPoly:
    """Schur function s_shape(x_1..x_n) as a sum over semistandard tableaux."""
    shape = tuple(p for p in shape if p)
    if not shape:
        return rp_const(n, Fraction(1))
    rows = len(shape)
    out: RootPoly = {}

    def fill(row: int, col: int, tableau: list[list[int]]) -> None:
        if row == rows:
            exps = [0] * n
            for r in tableau:
                for entry in r:
                    exps[entry - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, Fraction(0)) + 1
            return
        if col == shape[row]:
            fill(row + 1, 0, tableau)
            return
        lo = 1
        if col > 0:
            lo = max(lo, tableau[row][col - 1])  # weakly increasing rows
        if row > 0 and col < shape[row - 1]:
            lo = max(lo, tableau[row - 1][col] + 1)  # strictly increasing cols
        for entry in range(lo, n + 1):
            tableau[row].append(entry)
            fill(row, col + 1, tableau)
            tableau[row].pop()

    fill(0, 0, [[] for _ in range(rows)])
    return out


def schur_via_tableaux(a: tuple[int, ...], n: int) -> GradedPoly:
    """Independent route to det(c_{a_i-i+j}): the Schur function of the
    conjugate partition on the Chern roots, re-expressed in elementary
    symmetric polynomials."""
    return GradedPoly(n, to_elementary(ssyt_schur(conjugate_partition(a), n), n))


# -- Bernoulli numbers and the Todd product -----------------------------------


@lru_cache(maxsize=None)
def bernoulli_plus(m: int) -> Fraction:
    """Bernoulli numbers with the B_1 = +1/2 sign convention."""
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(1, 2)
    # recurrence for the B_1 = -1/2 family; the two differ only at index 1
    acc = Fraction(0)
    for j in range(m):
        term = Fraction(-1, 2) if j == 1 else bernoulli_plus(j)
        acc += comb(m + 1, j) * term
    return -acc / (m + 1)


def todd_factor(n: int, i: int, cap: int) -> RootPoly:
    """x_i / (1 - exp(-x_i)) = sum_k B^+_k x_i^k / k!, truncated."""
    out: RootPoly = {}
    for k in range(cap + 1):
        coefficient = bernoulli_plus(k) / factorial(k)
        if coefficient:
            exps = [0] * n
            exps[i] = k
            out[tuple(exps)] = coefficient
    return out


def todd_via_roots(n: int) -> GradedPoly:
    product = rp_const(n, Fraction(1))
    for i in range(n):
        product = rp_mul(product, todd_factor(n, i, n), n)
    return roots_to_graded(product, n)


def chi_table_via_roots(n: int) -> list[GradedPoly]:
    """All chi^p weight-n polynomials (tangent convention) from the
    generating product prod_i Q(x_i)(1 + y exp(-x_i))."""
    by_y_degree: list[RootPoly] = [rp_const(n, Fraction(1))]
    for i in range(n):
        q = todd_factor(n, i, n)
        q_exp = rp_mul(q, exp_of_root(n, i, -1, n), n)
        updated: list[RootPoly] = [rp_zero() for _ in range(len(by_y_degree) + 1)]
        for d, coefficient in enumerate(by_y_degree):
            updated[d] = rp_add(updated[d], rp_mul(coefficient, q, n))
            updated[d + 1] = rp_add(updated[d + 1], rp_mul(coefficient, q_exp, n))
        by_y_degree = updated
    rows = []
    for p in range(n + 1):
        rows.append(GradedPoly(n, to_elementary(rp_degree_part(by_y_degree[p], n), n)))
    return rows


# -- Schur coordinates of chi_y by the Jacobi-Trudi determinant ------------------


def chi_y_factor(n: int) -> tuple[int, list[list[int]]]:
    """(L, [Q_0, ..., Q_n]) with Q_k = [T_k, S_k] the integer polynomial
    T_k + y S_k = L^k q_k(y), the coefficients of Q_y(x) = (1 + y e^-x) x /
    (1 - e^-x) from `bernoulli_plus`: t_k = B+_k / k! (the Todd factor) and
    s_k = (-1)^k t_k (x / (e^x - 1)), L the lcm of their denominators."""
    t = [bernoulli_plus(k) / factorial(k) for k in range(n + 1)]
    scale = math.lcm(*(c.denominator for c in t))
    scaled = [c.numerator * (scale**k // c.denominator) for k, c in enumerate(t)]
    return scale, [[c, (-1) ** k * c] for k, c in enumerate(scaled)]


def ypoly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer polynomials in y, lowest power first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return out


def _ypoly_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[y], asserting that b divides a."""
    while len(b) > 1 and not b[-1]:
        b = b[:-1]
    rest = list(a)
    quotient = [0] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - len(b), -1, -1):
        quotient[i], remainder = divmod(rest[i + len(b) - 1], b[-1])
        assert remainder == 0
        for j, z in enumerate(b):
            rest[i + j] -= quotient[i] * z
    assert not any(rest)
    return quotient


def ypoly_det(matrix: Sequence[Sequence[list[int]]]) -> list[int]:
    """Determinant over Z[y] by Bareiss's fraction-free elimination: after
    step k every entry below and right of the pivot is a (k+2)-minor, and
    the division by the previous pivot is exact."""
    m = [list(row) for row in matrix]
    size, sign, previous = len(m), 1, [1]
    for k in range(size - 1):
        if not any(m[k][k]):
            below = [i for i in range(k + 1, size) if any(m[i][k])]
            if not below:
                return [0]
            m[k], m[below[0]] = m[below[0]], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                cross = ypoly_mul(m[k][k], m[i][j])
                for d, c in enumerate(ypoly_mul(m[i][k], m[k][j])):
                    cross[d] -= c
                m[i][j] = _ypoly_exact_div(cross, previous)
        previous = m[k][k]
    return [sign * c for c in m[-1][-1]] if size else [1]


@lru_cache(maxsize=None)
def chi_y_schur_coordinates(n: int) -> tuple[tuple[int, ...], ...]:
    """L^n h_lambda(y) for each lambda in `partitions_of(n)`, as its n + 1
    coefficients in y: h_lambda is the coefficient of s_lambda(x) in
    prod_i Q_y(x_i).  With Q_y(x) = q_0 prod_j (1 + x z_j), the dual Cauchy
    and dual Jacobi-Trudi identities (Macdonald, I.4.3' and I.3.5) give
    L^n h_lambda = Q_0^(n-l) det(Q_(lambda_i - i + j)), l = len(lambda), an
    l x l determinant with Q_k = 0 outside 0..n.  No Kostka number enters."""
    _, q = chi_y_factor(n)
    coordinates = []
    for lam in partitions_of(n):
        parts = [p for p in lam if p]
        size = len(parts)
        matrix = [
            [q[k] if 0 <= (k := parts[i] - i + j) <= n else [0] for j in range(size)]
            for i in range(size)
        ]
        h = ypoly_det(matrix)
        for _ in range(n - size):
            h = ypoly_mul(h, q[0])
        assert not any(h[n + 1 :])
        coordinates.append(tuple(h[: n + 1]) + (0,) * (n + 1 - len(h)))
    return tuple(coordinates)


def exterior_character_via_roots(p: int, n: int) -> GradedPoly:
    """ch(Lambda^p Omega^1) = sum over p-subsets of exp(-(x_{i1}+...+x_{ip}))."""
    total: RootPoly = rp_zero()
    for subset in combinations(range(n), p):
        term = rp_const(n, Fraction(1))
        for i in subset:
            term = rp_mul(term, exp_of_root(n, i, -1, n), n)
        total = rp_add(total, term)
    return roots_to_graded(total, n)


# -- power sums over explicit roots --------------------------------------------


def power_sum_via_roots(k: int, n: int) -> GradedPoly:
    total: RootPoly = rp_zero()
    for i in range(n):
        total = rp_add(total, root_variable(n, i, k))
    return roots_to_graded(total, n)


# -- determinants by cofactor expansion ----------------------------------------


def cofactor_det(matrix: list[list[GradedPoly]]) -> GradedPoly:
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    if size == 1:
        return matrix[0][0]
    dim = matrix[0][0].dim
    total = GradedPoly.zero(dim)
    for j in range(size):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * cofactor_det(minor)
        total = total + term * Fraction((-1) ** j)
    return total


def jacobi_trudi_matrix(a: tuple[int, ...], n: int) -> list[list[GradedPoly]]:
    def chern(k: int) -> GradedPoly:
        if k == 0:
            return GradedPoly.one(n)
        if k < 0 or k > n:
            return GradedPoly.zero(n)
        return GradedPoly.variable(n, k)

    return [[chern(a[i] - (i + 1) + (j + 1)) for j in range(n)] for i in range(n)]


# -- univariate rational series (hypersurface oracle) ---------------------------


def series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        for j, cb in enumerate(b[: order + 1 - i]):
            out[i + j] += ca * cb
    return out


def series_inv(a: list[Fraction], order: int) -> list[Fraction]:
    assert a[0] == 1
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for k in range(1, order + 1):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, k + 1) if i < len(a))
    return out


def hypersurface_chi_y(degree: int, ambient: int) -> tuple[Fraction, ...]:
    """chi^0..chi^n of a smooth degree-d hypersurface V in P^N (N = ambient,
    n = N - 1) by the residue formula

        chi_y(V) = [z^N] (1 + y - yz)^{N+1} (1 - (1-z)^d)
                         / ((1 + y) (1 + y (1-z)^d) (1 - z)),

    summed as series in z at the nodes y = 0..n and interpolated in y.  No
    Chern number, chi table or Kostka matrix enters."""
    N, d, n = ambient, degree, ambient - 1
    power = [(-1) ** k * comb(d, k) for k in range(d + 1)]  # (1 - z)^d
    values = []
    for y in range(n + 1):
        numerator = series_mul(
            [Fraction(comb(N + 1, k) * (1 + y) ** (N + 1 - k) * (-y) ** k) for k in range(N + 2)],
            [Fraction(0)] + [Fraction(-c) for c in power[1:]],
            N,
        )
        # the denominator over its constant term (1 + y)^2
        scale = (1 + y) ** 2
        denominator = series_mul(
            [Fraction((1 + y) * ((k == 0) + y * c), scale) for k, c in enumerate(power)],
            [Fraction(1), Fraction(-1)],
            N,
        )
        values.append(series_mul(numerator, series_inv(denominator, N), N)[N] / scale)
    lagrange = _lagrange_coefficients(n)
    return tuple(
        sum((lagrange[y][p] * values[y] for y in range(n + 1)), Fraction(0)) for p in range(n + 1)
    )


def closed_form_chi_y(variety: VarietyDescriptor) -> tuple[Fraction, ...]:
    """chi^0..chi^n of a recipe leaf or of a product of them, with no Chern
    number: P^n has chi_y = sum_p (-y)^p, a curve of genus g (1 - g)(1 - y),
    an abelian variety 0, a surface chi^0 = chi^2 = (c_1^2 + c_2)/12
    (Noether) and chi^1 = (c_1^2 - 5 c_2)/6, a hypersurface
    `hypersurface_chi_y`, and a product the product of its factors' chi_y."""
    if isinstance(variety, Product):
        left, right = closed_form_chi_y(variety.left), closed_form_chi_y(variety.right)
        return tuple(series_mul(list(left), list(right), len(left) + len(right) - 2))
    if isinstance(variety, ProjectiveSpace):
        return tuple(Fraction((-1) ** p) for p in range(variety.n + 1))
    if isinstance(variety, Curve):
        return (Fraction(1 - variety.genus), Fraction(variety.genus - 1))
    if isinstance(variety, AbelianVariety):
        return (Fraction(0),) * (variety.n + 1)
    if isinstance(variety, Surface):
        edge = Fraction(variety.c1sq + variety.c2, 12)
        return (edge, Fraction(variety.c1sq - 5 * variety.c2, 6), edge)
    if isinstance(variety, Hypersurface):
        return hypersurface_chi_y(variety.degree, variety.ambient)
    raise TypeError(f"no closed form for {variety.name()}")


# -- Fourier-Motzkin feasibility -----------------------------------------------


def _normalize_row(coeffs: tuple[Fraction, ...], const: Fraction):
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        return coeffs, const
    scale = abs(lead)
    return tuple(c / scale for c in coeffs), const / scale


def fourier_motzkin_feasible(
    columns: list[tuple[Fraction, ...]], rhs: tuple[Fraction, ...]
) -> bool:
    """Is there lambda >= 0 with sum_j lambda_j columns[j] = rhs?

    Equalities become opposite inequality pairs; variables are eliminated
    one at a time.  Exponential in principle, fine at the tested sizes.
    """
    k = len(columns)
    m = len(rhs)
    rows: set[tuple[tuple[Fraction, ...], Fraction]] = set()
    for r in range(m):
        coeffs = tuple(columns[j][r] for j in range(k))
        rows.add(_normalize_row(coeffs, rhs[r]))
        rows.add(_normalize_row(tuple(-c for c in coeffs), -rhs[r]))
    for j in range(k):
        unit = tuple(Fraction(-1) if i == j else Fraction(0) for i in range(k))
        rows.add(_normalize_row(unit, Fraction(0)))
    live = rows
    for j in range(k):
        positive, negative, neutral = [], [], set()
        for coeffs, const in live:
            if coeffs[j] > 0:
                positive.append((coeffs, const))
            elif coeffs[j] < 0:
                negative.append((coeffs, const))
            else:
                neutral.add((coeffs, const))
        for pc, pb in positive:
            for nc, nb in negative:
                scale_p = Fraction(1) / pc[j]
                scale_n = Fraction(-1) / nc[j]
                coeffs = tuple(
                    x * scale_p + y * scale_n for x, y in zip(pc, nc)
                )
                const = pb * scale_p + nb * scale_n
                neutral.add(_normalize_row(coeffs, const))
        live = neutral
    return all(const >= 0 for _, const in live)


# -- cone of a basis by Gaussian elimination -------------------------------------


def basis_coordinates(
    columns: list[tuple[Fraction, ...]], rhs: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """The unique lambda with sum_j lambda_j columns[j] = rhs.

    The columns must form a basis (square and nonsingular); then rhs lies in
    their cone iff every coordinate is >= 0, and lambda is the certificate.
    """
    size = len(rhs)
    if len(columns) != size or any(len(col) != size for col in columns):
        raise ValueError("basis oracle needs a square system")
    rows = [
        [Fraction(columns[j][i]) for j in range(size)] + [Fraction(rhs[i])]
        for i in range(size)
    ]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            raise ValueError("columns are linearly dependent")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(row[size] for row in rows)


def rank(rows: Sequence[Sequence[RationalLike]]) -> int:
    """The rank over Q of a matrix given by its rows, by Gaussian
    elimination in Fractions.

    Milnor's basis theorem (Milnor and Stasheff, Characteristic Classes,
    section 16) says that the products P^lambda = P^{lambda_1} x ... x
    P^{lambda_k} of complex projective spaces, one per partition lambda of
    n, have linearly independent Chern-number vectors: the p(n) vectors
    have rank p(n)."""
    pending = [[as_rational(x) for x in row] for row in rows]
    found = 0
    while pending:
        row = pending.pop()
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        found += 1
        pending = [
            [x - other[col] / row[col] * y for x, y in zip(other, row)] for other in pending
        ]
    return found


# -- rational phase-1 simplex (reference pivot path) -------------------------------


def _pivot(
    tableau: list[list[Fraction]],
    reduced: list[Fraction],
    basis: list[int],
    row: int,
    col: int,
) -> None:
    pivot_value = tableau[row][col]
    tableau[row] = [x / pivot_value for x in tableau[row]]
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            factor = other[col]
            tableau[i] = [x - factor * y for x, y in zip(other, tableau[row])]
    if reduced[col]:
        factor = reduced[col]
        for j, y in enumerate(tableau[row]):
            reduced[j] -= factor * y
    basis[row] = col


def fraction_phase_one(
    columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[str, tuple[Fraction, ...]]:
    """Exact phase-1 simplex for: find lambda >= 0 with sum_j lambda_j col_j = rhs.

    Returns ("feasible", lambda) or ("infeasible", w) where w is a Farkas
    witness with respect to the original (unflipped) rows.  Bland's rule
    throughout, so the outcome is deterministic.
    """
    m = len(rhs)
    k = len(columns)
    signs = [Fraction(-1) if value < 0 else Fraction(1) for value in rhs]
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = [signs[i] * columns[j][i] for j in range(k)]
        row.extend(Fraction(1) if r == i else Fraction(0) for r in range(m))
        row.append(signs[i] * rhs[i])
        tableau.append(row)
    ncols = k + m
    basis = [k + i for i in range(m)]
    # minimize the sum of artificials: reduced costs start at c_j - 1^T A_j
    reduced = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        cost = Fraction(0) if j < k else Fraction(1)
        reduced[j] = cost - sum(tableau[i][j] for i in range(m))
    reduced[ncols] = -sum(tableau[i][ncols] for i in range(m))
    while True:
        enter = next((j for j in range(ncols) if reduced[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][ncols] / tableau[i][enter]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise ConsistencyError("phase-1 simplex became unbounded")
        _pivot(tableau, reduced, basis, leave, enter)
    objective = -reduced[ncols]
    if objective == 0:
        lam = [Fraction(0)] * k
        for i, bv in enumerate(basis):
            if bv < k:
                lam[bv] = tableau[i][ncols]
        return "feasible", tuple(lam)
    # duals from the optimal reduced costs of the artificial columns
    duals = [Fraction(1) - reduced[k + i] for i in range(m)]
    witness = tuple(signs[i] * duals[i] for i in range(m))
    return "infeasible", witness


# -- Kuenneth products in the bigraded ring --------------------------------------


def _bi_mul(
    a: dict[tuple[Monomial, Monomial], Fraction],
    b: dict[tuple[Monomial, Monomial], Fraction],
    nx: int,
    ny: int,
) -> dict[tuple[Monomial, Monomial], Fraction]:
    out: dict[tuple[Monomial, Monomial], Fraction] = {}
    for (xa, ya), ca in a.items():
        for (xb, yb), cb in b.items():
            x = mono_mul(xa, xb)
            y = mono_mul(ya, yb)
            if mono_weight(x) > nx or mono_weight(y) > ny:
                continue
            key = (x, y)
            v = out.get(key, Fraction(0)) + ca * cb
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def bigraded_tangent_values(variety) -> dict[Monomial, Fraction]:
    """Tangent Chern numbers of a descriptor; every product in it, nested
    ones too, goes through the bigraded expansion."""
    if not isinstance(variety, Product):
        return variety._tangent_values().terms()
    nx = variety.left.dimension
    ny = variety.right.dimension
    total = nx + ny
    left_values = bigraded_tangent_values(variety.left)
    right_values = bigraded_tangent_values(variety.right)
    left_lookup = {m: left_values.get(m, Fraction(0)) for m in weight_basis(nx)}
    right_lookup = {m: right_values.get(m, Fraction(0)) for m in weight_basis(ny)}

    def unit(dim: int, i: int) -> Monomial:
        exps = [0] * dim
        if i > 0:
            exps[i - 1] = 1
        return tuple(exps)

    # c_k(X x Y) = sum_{i+j=k} c_i(X) (x) c_j(Y), stored by bidegree
    components: list[dict[tuple[Monomial, Monomial], Fraction]] = []
    for k in range(1, total + 1):
        component: dict[tuple[Monomial, Monomial], Fraction] = {}
        for i in range(0, min(k, nx) + 1):
            j = k - i
            if j > ny:
                continue
            component[(unit(nx, i), unit(ny, j))] = Fraction(1)
        components.append(component)

    values: dict[Monomial, Fraction] = {}
    identity = {(unit(nx, 0), unit(ny, 0)): Fraction(1)}
    for mono in weight_basis(total):
        acc = identity
        for idx, e in enumerate(mono):
            for _ in range(e):
                acc = _bi_mul(acc, components[idx], nx, ny)
        number = Fraction(0)
        for (mx, my), coef in acc.items():
            if mono_weight(mx) == nx and mono_weight(my) == ny:
                number += coef * left_lookup[mx] * right_lookup[my]
        values[mono] = number
    return values


# -- chi_y rows by exp/log series and interpolation (replaced route) -------------


@lru_cache(maxsize=None)
def power_sum(k: int, n: int) -> GradedPoly:
    """k-th power sum of the Chern roots in terms of c_1..c_n, via
    Newton's identity p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... + (-1)^{k-1} k c_k."""
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n:
        raise ValueError(f"power sum index {k!r} outside 1..{n}")
    result = GradedPoly.variable(n, k) * Fraction((-1) ** (k - 1) * k)
    for i in range(1, k):
        term = GradedPoly.variable(n, i) * power_sum(k - i, n)
        result = result + term * Fraction((-1) ** (i - 1))
    return result


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
        rows.append(ChernFunctional(n, BasisConvention.TANGENT, coeffs, 1).flipped())
    return tuple(rows)


# -- Schur polynomials by Laplace expansion (replaced route) ----------------------


def schur_via_laplace(a: Partition, n: int) -> GradedPoly:
    """det(c_{a_i - i + j}) for a padded partition a of n, expanded along
    the rows with one memo shared by all partitions of n."""
    return _minor(tuple(a), (1 << n) - 1, n)


@lru_cache(maxsize=None)
def _minor(suffix: Partition, free: int, n: int) -> GradedPoly:
    """Determinant of the last len(suffix) rows of the n x n Jacobi-Trudi
    matrix of any partition ending in `suffix`, over the columns whose bits
    are set in `free`, expanded along its first row.

    Row i holds c_{a_i - i + j}, so the minor depends on the partition only
    through `suffix`; one memo serves every partition of n.
    """
    if not suffix:
        return GradedPoly.one(n)
    row = n - len(suffix)
    rest = suffix[1:]
    total = GradedPoly.zero(n)
    sign = 1
    for j in range(n):
        if not free >> j & 1:
            continue
        k = suffix[0] - row + j
        if 0 <= k <= n:
            term = _minor(rest, free & ~(1 << j), n)
            if k:
                term = _chern_class(k, n) * term
            total = total + term if sign > 0 else total - term
        sign = -sign
    return total


@lru_cache(maxsize=None)
def _chern_class(k: int, n: int) -> GradedPoly:
    return GradedPoly.variable(n, k)


# -- variety tokens by rescanning (reference parser) ------------------------------


def rescanning_descriptor_from_token(token: str) -> VarietyDescriptor:
    """The recursive token parser that ``descriptor_from_token`` replaced:
    each level scans its whole inner text for the top-level comma, which
    makes nested products quadratic."""
    token = token.strip()
    if token.startswith("product(") and token.endswith(")"):
        inner = token[len("product(") : -1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                left = rescanning_descriptor_from_token(inner[:i])
                right = rescanning_descriptor_from_token(inner[i + 1 :])
                return Product(left, right)
        raise ValueError(f"malformed product token {token!r}")
    head, _, rest = token.partition(":")
    if head not in _RECIPES:
        raise ValueError(f"unknown variety token {token!r}")
    build, fields = _RECIPES[head]
    args = rest.split(":") if rest else []
    try:
        if len(args) != len(fields):
            raise ValueError(f"expected {len(fields)} integer field(s)")
        return build(*map(parse_decimal, args))
    except ValueError as exc:
        raise ValueError(f"malformed variety token {token!r}") from exc


# -- polynomial text by two flags (reference parser) -------------------------------


def flagged_parse_terms(dim: int, text: str) -> list[tuple[Monomial, int, int]]:
    """The term parser that ``poly.parse_terms`` replaced: each term is a
    state machine over its '*' pieces, with one flag for a coefficient
    seen and one for a factor seen, and two refusals of a sign list that
    ``re.split`` never returns (same results and messages)."""
    body = text.strip()
    if not body:
        raise ParseError("empty polynomial text")
    if body == "0":
        return []
    chunks = re.split(r"\s*([+-])\s*", body)
    if chunks[0] == "":
        chunks = chunks[1:]
        if not chunks or chunks[0] not in "+-":
            raise ParseError(f"dangling sign in {text!r}")
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ParseError(f"malformed polynomial text {text!r}")
    terms: list[tuple[Monomial, int, int]] = []
    for sign_tok, term_tok in zip(chunks[0::2], chunks[1::2]):
        sign = 1 if sign_tok == "+" else -1
        if not term_tok:
            raise ParseError(f"empty term in {text!r}")
        num, den = 1, 1
        exps = [0] * dim
        saw_coef = False
        saw_factor = False
        for piece in term_tok.split("*"):
            piece = piece.strip()
            if not piece:
                raise ParseError(f"empty factor in term {term_tok!r}")
            if re.fullmatch(r"-?[0-9]+(?:/[0-9]+)?", piece):
                if saw_coef or saw_factor:
                    raise ParseError(f"misplaced coefficient in {term_tok!r}")
                num, den = rational_parts(piece)
                saw_coef = True
                continue
            match = re.fullmatch(r"c_?([0-9]+)(?:\^([0-9]+))?", piece)
            if not match:
                raise ParseError(f"bad factor {piece!r} in {text!r}")
            try:
                index = int(match.group(1))
                power = int(match.group(2)) if match.group(2) else 1
            except ValueError:  # past the int-string digit limit
                raise ParseError("a variable index or exponent is too long") from None
            if not 1 <= index <= dim:
                raise ParseError(f"variable c{index} outside dimension {dim}")
            exps[index - 1] += power
            saw_factor = True
        terms.append((tuple(exps), sign * num, den))
    for mono, _, _ in terms:
        if mono_weight(mono) > dim:
            raise ParseError(
                f"monomial {mono_text(mono) or '1'} has weight {mono_weight(mono)}"
                f" > dimension {dim}"
            )
    return terms
