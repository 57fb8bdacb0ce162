"""Partition labels and text, Schur polynomials of Chern classes, and the
integer basis changes between symmetric functions of the Chern roots.

A weight-n symmetric function of the roots x_1..x_n is written over the
monomials c^mu = c_{mu_1} c_{mu_2} ... in c_i = e_i(x), one per partition mu
of n (`poly.partitions_of`, `poly.weight_basis`); a caller's partition is
one that `partitions_of(n)` lists once zero-padded to length n, and any other
is refused with one message.  One transition matrix leads into that basis:
the Kostka matrix K, which counts semistandard tableaux one horizontal strip
at a time.  It is upper unitriangular in reverse-lexicographic order, and
(Macdonald, Symmetric Functions and Hall Polynomials, I.6)

    s_rho = sum_lambda K[rho][lambda] m_lambda,
    e_mu  = sum_nu K[nu][mu] s_{nu'},

with nu' the conjugate partition.  So the basis change is one pair of
integer solves over the ranks of the partitions in `partitions_of(n)`.
Both read the columns of K that `_kostka_columns(n)` builds when asked; the
module keeps no state between calls.
`_kostka_forward_substitution` solves K^T h = F: it takes sum_lambda F_lambda
m_lambda to its Schur coordinates h_rho = g_{rho'}.
`_kostka_back_substitution` solves K k = g: it takes sum_nu g_nu s_{nu'} to
its c-monomial coordinates k.  `chern_coordinates` reads every column in both,
so it builds them all once into one list and keeps it for both solves, the
conjugation between them a permutation of the ranks.  The
Schur polynomial P_a(c) = det(c_{a_i - i + j}) (c_0 = 1, c_k = 0 for k
outside [0, n]), the basic positivity generator for nef bundles, is s_{a'} by
the dual Jacobi-Trudi identity, so its coordinates are column a of K^-1: the
back substitution on the unit vector e_a, which asks only for the columns of
its nonzero coordinates.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Callable, Sequence

from .poly import (
    BasisConvention,
    ChernFunctional,
    ConsistencyError,
    InvalidPartition,
    Partition,
    basis_ranks,
    parse_decimal,
    partitions_of,
)

__all__ = [
    "parse_partition",
    "partition_label",
    "chern_coordinates",
    "schur",
]


def _validate_partition(parts: Sequence[int], n: int) -> Partition:
    """`parts` zero-padded to length n, the form of the `P_(...)` labels,
    once `partitions_of(n)` lists it: zero parts past n drop, and a bool or
    non-int part is refused first, as 1.0 or True would equal 1 there."""
    order = partitions_of(n)  # cached; refuses an n that is not a non-negative int
    parts = tuple(parts)
    padded = parts[:n] + (0,) * (n - len(parts))
    if (
        any(p != 0 for p in parts[n:])
        or any(isinstance(p, bool) or not isinstance(p, int) for p in padded)
        or padded not in order
    ):
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


def _conjugate(parts: Partition, n: int) -> Partition:
    """The conjugate (transposed diagram) of a partition of n, padded to
    length n."""
    return tuple(sum(1 for p in parts if p > j) for j in range(n))


def _horizontal_strips(shape: Partition, size: int) -> list[Partition]:
    """Every shape obtained by adding a horizontal strip of `size` boxes to
    `shape` (no zero parts): row i may grow up to the old length of row
    i - 1, the first row without bound."""
    grown: list[tuple[Partition, int]] = [((), size)]  # rows so far, boxes left
    for i, row in enumerate(shape + (0,)):
        room = shape[i - 1] - row if i else size
        grown = [
            (rows + (row + extra,), left - extra)
            for rows, left in grown
            for extra in range(min(left, room), -1, -1)
        ]
    return [tuple(filter(None, rows)) for rows, left in grown if not left]


KostkaColumn = tuple[tuple[int, ...], tuple[int, ...]]


def _kostka_columns(n: int) -> Callable[[int], KostkaColumn]:
    """`column(j)`: column j of K, for the content of rank j in
    `partitions_of(n)`, as the ranks of the shapes with K[shape][content] != 0
    and those counts of semistandard tableaux.  One stack holds each prefix
    of the last content asked for with its column: it pops until the top
    prefix starts the next content, then grows one horizontal strip per
    remaining part.  Ascending and descending ranks both walk the prefix trie
    depth first, so a solve builds each prefix once.  `strips` memoizes
    `_horizontal_strips`, as one (shape, size) recurs in many contents.  A
    built column must count the n! / prod_i mu_i! words of its content mu by
    RSK, sum_shape K[shape][mu] f^shape, or `ConsistencyError` is raised."""
    contents = [tuple(filter(None, mu)) for mu in partitions_of(n)]
    rank = {mu: j for j, mu in enumerate(contents)}
    strips: dict[tuple[Partition, int], list[Partition]] = {}
    hooks: dict[int, int] = {}  # f^shape by rank, for the shapes of built columns
    stack: list[tuple[Partition, dict[Partition, int]]] = [((), {(): 1})]

    def f(r: int) -> int:  # f^shape of rank r: n! over the product of its hook lengths
        if r not in hooks:
            shape = contents[r]
            cols = _conjugate(shape, max(shape, default=0))
            boxes = [(i, j) for i, row in enumerate(shape) for j in range(row)]
            hooks[r] = factorial(n) // prod(shape[i] - j + cols[j] - i - 1 for i, j in boxes)
        return hooks[r]

    def column(j: int) -> KostkaColumn:
        parts = contents[j]
        while stack[-1][0] != parts[: len(stack[-1][0])]:
            stack.pop()
        prefix, counts = stack[-1]
        for part in parts[len(prefix) :]:
            longer: dict[Partition, int] = {}
            for shape, count in counts.items():
                strip = strips.get((shape, part))
                if strip is None:
                    strip = strips[shape, part] = _horizontal_strips(shape, part)
                for grown in strip:
                    longer[grown] = longer.get(grown, 0) + count
            prefix, counts = prefix + (part,), longer
            stack.append((prefix, counts))
        built = tuple(map(rank.__getitem__, counts)), tuple(counts.values())
        if sum(c * f(r) for r, c in zip(*built)) != factorial(n) // prod(map(factorial, parts)):
            raise ConsistencyError(f"column {parts} of K fails the hook-length identity")
        return built

    return column


def _kostka_forward_substitution(
    right: Sequence[Sequence[int]], column: Callable[[int], KostkaColumn]
) -> list[list[int]]:
    """The h with K^T h = right, both indexed by rank, from the first to the
    last: row j of K^T is column j of K, whose other ranks dominate j and
    so are solved before it."""
    solved: list[list[int]] = []
    for j in range(len(right)):
        vector = list(right[j])
        for r, count in zip(*column(j)):
            if r != j:
                vector = [v - count * h for v, h in zip(vector, solved[r])]
        solved.append(vector)
    return solved


def _kostka_back_substitution(
    right: Sequence[list[int]], column: Callable[[int], KostkaColumn]
) -> list[list[int]]:
    """The k with K k = right, both indexed by rank, from the last to the
    first: k_j is what is left of right_j, and a nonzero one takes k_j
    times column j of K off the rows of the ranks that dominate j, all
    still to be solved; only then is column j asked for."""
    pending = list(right)
    for j in range(len(pending) - 1, -1, -1):
        vector = pending[j]
        if any(vector):
            for r, count in zip(*column(j)):
                if r != j:
                    pending[r] = [v - count * k for v, k in zip(pending[r], vector)]
    return pending


def chern_coordinates(right: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """The c-monomial coordinates k of f = sum_lambda F_lambda m_lambda(x),
    given the integer vectors F_lambda, all of one length, in
    `partitions_of(n)` order: the forward substitution to the Schur
    coordinates of f, then the back substitution on their conjugate
    partitions, read out in `weight_basis(n)` order through `basis_ranks`."""
    parts = partitions_of(n)
    rank = {lam: j for j, lam in enumerate(parts)}
    column = list(map(_kostka_columns(n), range(len(parts)))).__getitem__
    h = _kostka_forward_substitution(right, column)
    k = _kostka_back_substitution([h[rank[_conjugate(nu, n)]] for nu in parts], column)
    return list(map(k.__getitem__, basis_ranks(n)))


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
    units = [[int(mu == a) for a in parts] for mu in partitions_of(n)]
    k = _kostka_back_substitution(units, _kostka_columns(n))
    rows = zip(*map(k.__getitem__, basis_ranks(n)))
    return {a: ChernFunctional(n, convention, row, 1) for a, row in zip(parts, rows)}
