"""Partition labels and text, Schur polynomials of Chern classes, and the
integer basis changes between symmetric functions of the Chern roots.

A weight-n symmetric function of the roots x_1..x_n is written over the
monomials c^mu = c_{mu_1} c_{mu_2} ... in c_i = e_i(x), one per partition mu
of n (`poly.partitions_of`, `poly.weight_basis`).  One transition matrix
leads into that basis: the Kostka matrix K, which counts semistandard
tableaux one horizontal strip at a time.  It is upper unitriangular in
reverse-lexicographic order, and (Macdonald, Symmetric Functions and Hall
Polynomials, I.6)

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
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

# the functional type, its tags and the partitions live in `poly`; importing
# them from here also works
from .poly import (
    BasisConvention,
    ChernFunctional,
    ConventionMismatch,
    InvalidPartition,
    Monomial,
    Partition,
    _partition_monomial,
    parse_decimal,
    partitions_of,
    weight_basis,
)

__all__ = [
    "BasisConvention",
    "ConventionMismatch",
    "InvalidPartition",
    "Partition",
    "partitions_of",
    "pad_partition",
    "strip_partition",
    "parse_partition",
    "partition_label",
    "chern_coordinates",
    "schur",
]


def pad_partition(parts: Sequence[int], n: int) -> Partition:
    """Zero-pad to length n: the form of the `P_(...)` labels, and one
    zero part per factor q_0 in `hrr._chi_y_rows`."""
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


def partition_label(parts: Sequence[int]) -> str:
    """Stable generator name of a padded partition: 'P_(2,1,0)'."""
    return "P_(" + ",".join(str(p) for p in parts) + ")"


def _conjugate(parts: Partition) -> Partition:
    """The conjugate of a partition without zero parts (transposed diagram)."""
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


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


def schur(a: Sequence[int], n: int) -> ChernFunctional:
    """Schur polynomial P_a(c) = det(c_{a_i - i + j}) for a partition a of n,
    a weight-n form, tagged cotangent like `hrr.chi_p`."""
    row = _schur_catalog(n)[_validate_partition(tuple(a), n)]
    return ChernFunctional(n, BasisConvention.COTANGENT, row, 1)


@lru_cache(maxsize=None)
def _schur_catalog(n: int) -> dict[Partition, tuple[int, ...]]:
    """P_a for every padded partition a of n, as its integer coefficients
    over `weight_basis(n)`: column a of K^-1, all columns at once by back
    substitution on the unit vectors.  Each row of K^-1 belongs to the
    monomial c^mu of a partition mu of n, so every P_a is of weight n."""
    order = partitions_of(n)
    units = {
        strip_partition(mu): [int(i == j) for j in range(len(order))]
        for i, mu in enumerate(order)
    }
    inverse = {
        _partition_monomial(mu, n): row
        for mu, row in _kostka_back_substitution(units, n).items()
    }
    return dict(zip(order, zip(*(inverse[m] for m in weight_basis(n)))))
