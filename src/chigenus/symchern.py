"""Partition combinatorics, Schur polynomials of Chern classes, and the
integer basis changes between symmetric functions of the Chern roots.

A weight-n symmetric function of the roots x_1..x_n is written over the
monomials c^mu = c_{mu_1} c_{mu_2} ... in c_i = e_i(x), one per partition mu
of n.  One transition matrix leads into that basis: the Kostka matrix K,
which counts semistandard tableaux one horizontal strip at a time.  It is
upper unitriangular in reverse-lexicographic order, and (Macdonald,
Symmetric Functions and Hall Polynomials, I.6)

    s_rho = sum_lambda K[rho][lambda] m_lambda,
    e_mu  = sum_nu K[nu][mu] s_{nu'},

with nu' the conjugate partition.  A function sum_nu g_nu s_{nu'} has the
c-monomial coordinates k with K k = g, an integer back substitution.

* The Schur polynomial P_a(c) = det(c_{a_i - i + j}) (c_0 = 1, c_k = 0 for
  k outside [0, n]), the basic positivity generator for nef bundles, is
  s_{a'} by the dual Jacobi-Trudi identity, so its coordinates are column a
  of K^-1: the back substitution on the unit vector e_a.
* A function over the monomial symmetric functions, sum_lambda F_lambda
  m_lambda, first gets its Schur coordinates g by a forward substitution
  with K^T, then its c-monomial coordinates by the same back substitution
  (`chern_coordinates`).

The module also provides the top Segre class and the substitution
c_i -> (-1)^i c_i that swaps the tangent and cotangent descriptions of the
same geometry.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .poly import GradedPoly, Monomial, mono_weight, parse_decimal

__all__ = [
    "BasisConvention",
    "ConventionMismatch",
    "InvalidPartition",
    "Partition",
    "partitions_of",
    "pad_partition",
    "strip_partition",
    "partition_text",
    "parse_partition",
    "partition_label",
    "chern_coordinates",
    "schur",
    "segre_top",
    "flip_basis",
]

Partition = tuple[int, ...]


class BasisConvention(str, Enum):
    """Which bundle the variables c_i refer to.

    Cotangent means c_i = c_i(Omega^1); tangent means c_i = c_i(TX).  The
    two differ by the sign flip c_i -> (-1)^i c_i.
    """

    TANGENT = "tangent"
    COTANGENT = "cotangent"

    def other(self) -> "BasisConvention":
        if self is BasisConvention.TANGENT:
            return BasisConvention.COTANGENT
        return BasisConvention.TANGENT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ConventionMismatch(ValueError):
    """Operands carry different tangent/cotangent convention tags."""


class InvalidPartition(ValueError):
    """Sequence is not a partition of the requested weight."""


def pad_partition(parts: Sequence[int], n: int) -> Partition:
    """Zero-pad to length n (so Jacobi-Trudi matrices are always n x n)."""
    parts = tuple(parts)
    if len(parts) > n:
        if any(p != 0 for p in parts[n:]):
            raise InvalidPartition(f"partition {parts} longer than {n}")
        parts = parts[:n]
    return parts + (0,) * (n - len(parts))


def strip_partition(parts: Sequence[int]) -> Partition:
    """Drop trailing zeros."""
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _validate_partition(parts: Sequence[int], n: int) -> Partition:
    padded = pad_partition(parts, n)
    if any(isinstance(p, bool) or not isinstance(p, int) or p < 0 for p in padded):
        raise InvalidPartition(f"parts must be non-negative integers: {parts}")
    if any(padded[i] < padded[i + 1] for i in range(len(padded) - 1)):
        raise InvalidPartition(f"parts must be non-increasing: {parts}")
    if padded and padded[0] > n:
        raise InvalidPartition(f"largest part {padded[0]} exceeds {n}")
    if sum(padded) != n:
        raise InvalidPartition(f"{parts} is not a partition of {n}")
    return padded


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, zero-padded to length n, in reverse-lexicographic
    order: (n, 0, ...) first, (1, 1, ..., 1) last."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidPartition(f"partition weight must be a non-negative integer: {n!r}")

    def descend(left: int, cap: int) -> Iterable[tuple[int, ...]]:
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in descend(left - first, first):
                yield (first,) + rest

    return tuple(pad_partition(p, n) for p in descend(n, n))


def partition_text(parts: Sequence[int]) -> str:
    """External form: comma-separated parts without padding, e.g. '2,1'."""
    stripped = strip_partition(parts)
    return ",".join(str(p) for p in stripped) if stripped else "0"


def parse_partition(text: str, n: int) -> Partition:
    """Parse '2,1' (or '2, 1') into a validated padded partition of n."""
    body = text.strip()
    if body in ("", "0"):
        return _validate_partition((), n)
    try:
        parts = tuple(parse_decimal(tok.strip()) for tok in body.split(","))
    except ValueError as exc:
        raise InvalidPartition(f"bad partition text {text!r}") from exc
    return _validate_partition(parts, n)


def partition_label(parts: Sequence[int], n: int | None = None) -> str:
    """Stable generator name, padded: 'P_(2,1,0)'."""
    if n is not None:
        parts = pad_partition(parts, n)
    return "P_(" + ",".join(str(p) for p in parts) + ")"


def _conjugate(parts: Partition) -> Partition:
    """The conjugate of a partition without zero parts (transposed diagram)."""
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


def _partition_monomial(parts: Partition, n: int) -> Monomial:
    """The exponent tuple of c^parts = c_{parts_1} c_{parts_2} ... in c_1..c_n."""
    return tuple(parts.count(i) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _horizontal_strips(shape: Partition, size: int) -> tuple[Partition, ...]:
    """Every shape obtained by adding a horizontal strip of `size` boxes to
    `shape` (no zero parts): row i may grow up to the old length of row
    i - 1, the first row without bound.  Memoized, as one (shape, size)
    recurs in the Kostka columns of many contents."""
    rows = shape + (0,)
    grown: list[Partition] = []

    def place(i: int, left: int, acc: tuple[int, ...]) -> None:
        if i == len(rows):
            if not left:
                grown.append(strip_partition(acc))
            return
        cap = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for extra in range(cap, -1, -1):
            place(i + 1, left - extra, acc + (rows[i] + extra,))

    place(0, size, ())
    return tuple(grown)


@lru_cache(maxsize=None)
def _kostka_column(content: Partition) -> dict[Partition, int]:
    """K[shape][content] for every shape: the number of semistandard
    tableaux of that shape and content, one horizontal strip per part
    (content and shapes without zero parts).  Prefixes are shared by the
    partitions of every weight."""
    if not content:
        return {(): 1}
    column: dict[Partition, int] = {}
    for shape, count in _kostka_column(content[:-1]).items():
        for grown in _horizontal_strips(shape, content[-1]):
            column[grown] = column.get(grown, 0) + count
    return column


def _kostka_back_substitution(
    right: Mapping[Partition, Sequence[int]], n: int
) -> dict[Partition, list[int]]:
    """The vectors k with K k = right, over the partitions of n (no zero
    parts).  Row nu reads right_nu = k_nu + sum_mu K[nu][mu] k_mu over the
    mu that nu strictly dominates, all after nu in reverse-lexicographic
    order, so solving from the last partition to the first needs only known
    k_mu; zero rows are skipped."""
    solved: dict[Partition, list[int]] = {}
    nonzero: list[tuple[Partition, list[int]]] = []
    for nu in reversed([strip_partition(mu) for mu in partitions_of(n)]):
        vector = list(right[nu])
        for mu, known in nonzero:
            count = _kostka_column(mu).get(nu)
            if count:
                vector = [v - count * x for v, x in zip(vector, known)]
        solved[nu] = vector
        if any(vector):
            nonzero.append((nu, vector))
    return solved


def chern_coordinates(
    monomial_coefficients: Mapping[Partition, Sequence[int]], n: int
) -> dict[Monomial, list[int]]:
    """The c-monomial coordinates k of f = sum_lambda F_lambda m_lambda(x).

    `monomial_coefficients` maps each padded partition lambda of n to an
    integer vector F_lambda, all of one length.  Writing f = sum_rho
    g_{rho'} s_rho, the vectors h_rho = g_{rho'} solve F_lambda =
    sum_rho K[rho][lambda] h_rho, whose rho dominate lambda and so come
    first in reverse-lexicographic order: a forward substitution.  Then
    e_mu = sum_nu K[nu][mu] s_{nu'} gives K k = g.
    """
    schur_coordinates: dict[Partition, list[int]] = {}
    for lam in partitions_of(n):
        lam = strip_partition(lam)
        vector = list(monomial_coefficients[pad_partition(lam, n)])
        for rho, count in _kostka_column(lam).items():
            if rho != lam:
                vector = [v - count * h for v, h in zip(vector, schur_coordinates[rho])]
        schur_coordinates[lam] = vector
    right = {_conjugate(rho): h for rho, h in schur_coordinates.items()}
    solved = _kostka_back_substitution(right, n)
    return {_partition_monomial(mu, n): k for mu, k in solved.items()}


def schur(a: Sequence[int], n: int) -> GradedPoly:
    """Schur polynomial P_a(c) = det(c_{a_i - i + j}) for a partition a of n.

    The result is homogeneous of weight n in c_1..c_n.
    """
    return _schur_catalog(n)[_validate_partition(tuple(a), n)]


@lru_cache(maxsize=None)
def _schur_catalog(n: int) -> dict[Partition, GradedPoly]:
    """P_a for every padded partition a of n: column a of K^-1, all columns
    at once by back substitution on the unit vectors."""
    order = partitions_of(n)
    units = {
        strip_partition(mu): [int(i == j) for j in range(len(order))]
        for i, mu in enumerate(order)
    }
    inverse = [
        (_partition_monomial(mu, n), row)
        for mu, row in _kostka_back_substitution(units, n).items()
    ]
    catalog = {}
    for j, parts in enumerate(order):
        det = GradedPoly(n, {mono: row[j] for mono, row in inverse if row[j]})
        if any(mono_weight(m) != n for m in det.terms()):
            raise RuntimeError(f"Schur determinant for {parts} is not homogeneous")
        catalog[parts] = det
    return catalog


def segre_top(n: int) -> GradedPoly:
    """Weight-n component of the formal inverse of 1 + c_1 + ... + c_n,
    which is (-1)^n P_(1,...,1)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer: {n!r}")
    return schur((1,) * n, n) * (-1) ** n


def flip_basis(a: GradedPoly) -> GradedPoly:
    """Substitute c_i -> (-1)^i c_i (the tangent/cotangent swap).

    Each monomial picks up (-1)^weight; the map is an involution.
    """
    if not isinstance(a, GradedPoly):
        raise TypeError("flip_basis expects a GradedPoly")
    return GradedPoly(
        a.dim,
        {m: c * ((-1) ** mono_weight(m)) for m, c in a.terms().items()},
    )
