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

with nu' the conjugate partition.  So the basis change is one pair of
integer solves, each reading K by columns (`_kostka_column`).
`_kostka_forward_substitution` solves K^T h = F: it takes sum_lambda F_lambda
m_lambda to its Schur coordinates h_rho = g_{rho'}.
`_kostka_back_substitution` solves K k = g: it takes sum_nu g_nu s_{nu'} to
its c-monomial coordinates k.  `chern_coordinates` runs both.  The Schur
polynomial P_a(c) = det(c_{a_i - i + j}) (c_0 = 1, c_k = 0 for k outside
[0, n]), the basic positivity generator for nef bundles, is s_{a'} by the
dual Jacobi-Trudi identity, so its coordinates are column a of K^-1: the
back substitution on the unit vector e_a.
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


def _kostka_forward_substitution(
    right: Mapping[Partition, Sequence[int]], n: int
) -> dict[Partition, list[int]]:
    """The h with K^T h = right over the partitions of n (no zero parts),
    from the first to the last: row lam of K^T is column lam of K, whose
    rho other than lam dominate lam and so are solved before it."""
    solved: dict[Partition, list[int]] = {}
    for lam in partitions_of(n):
        lam = strip_partition(lam)
        vector = list(right[lam])
        for rho, count in _kostka_column(lam).items():
            if rho != lam:
                vector = [v - count * h for v, h in zip(vector, solved[rho])]
        solved[lam] = vector
    return solved


def _kostka_back_substitution(
    right: Mapping[Partition, Sequence[int]], n: int
) -> dict[Monomial, list[int]]:
    """The k with K k = right over the partitions of n (no zero parts),
    keyed by the monomials c^mu, from the last to the first: k_mu is what
    is left of right_mu, and a nonzero one takes k_mu times column mu of K
    off the rows of the nu that dominate mu, all still to be solved."""
    pending = dict(right)
    solved: dict[Monomial, list[int]] = {}
    for mu in reversed([strip_partition(mu) for mu in partitions_of(n)]):
        vector = list(pending.pop(mu))
        solved[_partition_monomial(mu, n)] = vector
        if any(vector):
            for nu, count in _kostka_column(mu).items():
                if nu != mu:
                    pending[nu] = [v - count * k for v, k in zip(pending[nu], vector)]
    return solved


def chern_coordinates(
    monomial_coefficients: Mapping[Partition, Sequence[int]], n: int
) -> dict[Monomial, list[int]]:
    """The c-monomial coordinates k of f = sum_lambda F_lambda m_lambda(x),
    given one integer vector F_lambda per padded partition lambda of n, all
    of one length: the forward substitution to the Schur coordinates of f,
    then the back substitution on their conjugate partitions."""
    stripped = {strip_partition(lam): f for lam, f in monomial_coefficients.items()}
    h = _kostka_forward_substitution(stripped, n)
    return _kostka_back_substitution({_conjugate(rho): g for rho, g in h.items()}, n)


def schur(a: Sequence[int], n: int) -> ChernFunctional:
    """Schur polynomial P_a(c) = det(c_{a_i - i + j}) for a partition a of n,
    a weight-n form, tagged cotangent like `hrr.chi_p`."""
    a = _validate_partition(tuple(a), n)
    return _schur_rows([a], n)[a]


def _schur_rows(
    parts: Sequence[Partition], n: int, convention: BasisConvention = BasisConvention.COTANGENT
) -> dict[Partition, ChernFunctional]:
    """P_a for each padded partition a of n in `parts`, as integer rows over
    `weight_basis(n)`: column a of K^-1, every requested column in one back
    substitution on the unit vectors e_a, over the weight-n monomials c^mu."""
    zero = [0] * len(parts)
    units = {strip_partition(mu): zero for mu in partitions_of(n)}
    for j, a in enumerate(parts):
        units[strip_partition(a)] = [int(i == j) for i in range(len(parts))]
    inverse = _kostka_back_substitution(units, n)
    rows = zip(*(inverse[m] for m in weight_basis(n)))
    return {a: ChernFunctional(n, convention, row, 1) for a, row in zip(parts, rows)}
