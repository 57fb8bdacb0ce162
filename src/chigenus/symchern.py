"""Partition combinatorics and Schur polynomials of Chern classes.

A partition a = (a_1 >= ... >= a_n >= 0) of n indexes the weight-n Schur
polynomial

    P_a(c) = det(c_{a_i - i + j})_{1 <= i,j <= n},   c_0 = 1, c_k = 0 for k
    outside [0, n],

the basic positivity generator for nef bundles.  The determinant is a
Laplace expansion along the rows, memoized on the set of columns still
free.  It stays inside the truncated ring: every term of the full
determinant has weight exactly n and every entry has weight >= 0, so a
minor has weight n minus the weight of the entries already chosen, never
more than n, and truncation drops nothing.  A minor over the last rows
depends on the partition only through its last parts, so the memo is
shared by all partitions of one weight.

The module also provides the top Segre class (inverse of the total Chern
class), power sums of the Chern roots via Newton's identities, and the
substitution c_i -> (-1)^i c_i that swaps the tangent and cotangent
descriptions of the same geometry.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .poly import GradedPoly, mono_weight

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
    "schur",
    "segre_top",
    "power_sum",
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
        parts = tuple(int(tok) for tok in body.split(","))
    except ValueError as exc:
        raise InvalidPartition(f"bad partition text {text!r}") from exc
    return _validate_partition(parts, n)


def partition_label(parts: Sequence[int], n: int | None = None) -> str:
    """Stable generator name, padded: 'P_(2,1,0)'."""
    if n is not None:
        parts = pad_partition(parts, n)
    return "P_(" + ",".join(str(p) for p in parts) + ")"


def schur(a: Sequence[int], n: int) -> GradedPoly:
    """Schur polynomial P_a(c) = det(c_{a_i - i + j}) for a partition a of n.

    The result is homogeneous of weight n in c_1..c_n.
    """
    return _schur_cached(_validate_partition(tuple(a), n), n)


@lru_cache(maxsize=None)
def _schur_cached(parts: Partition, n: int) -> GradedPoly:
    det = _minor(parts, (1 << n) - 1, n)
    if any(mono_weight(m) != n for m in det.terms()):
        raise RuntimeError(f"Schur determinant for {parts} is not homogeneous")
    return det


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


def segre_top(n: int) -> GradedPoly:
    """Weight-n component of the formal inverse of 1 + c_1 + ... + c_n."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer: {n!r}")
    total = GradedPoly.zero(n)
    for i in range(1, n + 1):
        total = total + GradedPoly.variable(n, i)
    inverse = GradedPoly.one(n)
    power = GradedPoly.one(n)
    for _ in range(n):
        power = power * (-total)
        inverse = inverse + power
    return inverse.graded_part(n)


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
