"""Chern-class monomials, the partitions that index the weight-n ones, the
text and JSON forms of polynomials in them, and the top-weight functional
type.

The variables are c_1, ..., c_n with weight(c_i) = i.  A monomial is an
exponent tuple of length n (entry i-1 is the exponent of c_i).  The
canonical term order is (weight, then lexicographic on the exponent vector
with c_1 dominant and higher powers first), which makes text and JSON
serialization deterministic.

Every value the package computes is a `ChernFunctional`: a weight-n form,
one coefficient per monomial of `weight_basis(n)`.  It scales, and it pairs
with a complete set of Chern numbers; a sum of functionals is summed row
by row where it is needed.  Coefficients are `fractions.Fraction`; floats
are rejected at every entry point.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = [
    "DimensionMismatch",
    "ParseError",
    "FrozenInstanceError",
    "Record",
    "Monomial",
    "RationalLike",
    "as_rational",
    "over_common_denominator",
    "parse_decimal",
    "mono_weight",
    "mono_key",
    "mono_text",
    "Partition",
    "InvalidPartition",
    "partitions_of",
    "weight_basis",
    "json_terms",
    "parse_terms",
    "terms_text",
    "BasisConvention",
    "ConventionMismatch",
    "ChernFunctional",
]

Monomial = tuple[int, ...]
Partition = tuple[int, ...]
RationalLike = Union[int, str, Fraction]


class DimensionMismatch(ValueError):
    """Operands live in Chern rings of different ambient dimension."""


class ParseError(ValueError):
    """Polynomial text does not match the serialization grammar."""


class InvalidPartition(ValueError):
    """Sequence is not a partition of the requested weight."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a `Record`."""


class Record:
    """Frozen value object whose fields are its class's own annotations.

    The constructor takes the fields positionally or by keyword, then runs
    `__post_init__`, which may normalize a field with `object.__setattr__`.
    Equality compares the field tuples of two instances of the same class,
    the hash is that of the field tuple, and the repr is
    `QualName(field=value, ...)`.  Unlike `dataclasses`, nothing is
    generated with `exec` when a subclass is defined, which keeps import
    cheap for every cold command.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # keys only: under `from __future__ import annotations` the values
        # are unevaluated strings
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        if len(args) > len(fields) or values.keys() & kwargs or {*values, *kwargs} != {*fields}:
            raise TypeError(
                f"{type(self).__qualname__}() takes each of ({', '.join(fields)}) once, "
                f"got {len(args)} positional and keywords ({', '.join(kwargs)})"
            )
        values.update(kwargs)
        self.__dict__.update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate or normalize the fields; the default accepts them."""

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce exact input to Fraction: an int, a Fraction, or a string
    matching ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator.

    Floats and other inexact types are refused: the whole engine is
    exact-arithmetic and a single float would poison every certificate.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction() alone also takes '1_0', ' 2e1 ', '0.5' and non-ASCII
        # digits; its ValueError is a part past the int-string digit limit
        if _RATIONAL_RE.fullmatch(value):
            try:
                return Fraction(value)
            except (ZeroDivisionError, ValueError):
                pass
        raise ParseError(f"bad rational literal {value!r}")
    raise TypeError(
        "exact rational required (int, Fraction, or 'a/b' string), "
        f"got {type(value).__name__}"
    )


def over_common_denominator(values: Iterable[Fraction]) -> tuple[tuple[int, ...], int]:
    """(numerators, d): the integers with value == numerator / d for each
    value, over d the least common denominator of all of them."""
    values = tuple(values)
    d = math.lcm(*(value.denominator for value in values))
    return tuple(value.numerator * (d // value.denominator) for value in values), d


def mono_weight(mono: Monomial) -> int:
    """Weight of a monomial: sum of i * exponent(c_i)."""
    return sum(map(mul, range(1, len(mono) + 1), mono))


def mono_key(mono: Monomial) -> tuple:
    """Canonical sort key: weight, then c_1-dominant descending lex."""
    return (mono_weight(mono), tuple(-e for e in mono))


def mono_text(mono: Monomial) -> str:
    """Render a monomial, e.g. (2, 1, 0) -> 'c1^2*c2'; constant -> ''."""
    factors = []
    for i, e in enumerate(mono):
        if e == 1:
            factors.append(f"c{i + 1}")
        elif e > 1:
            factors.append(f"c{i + 1}^{e}")
    return "*".join(factors)


@lru_cache(maxsize=None, typed=True)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, zero-padded to length n, in reverse-lexicographic
    order: (n, 0, ...) first, (1, 1, ..., 1) last.  The cache is typed, so
    the key True never answers for 1, and a refused argument is never
    cached."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidPartition(f"partition weight must be a non-negative integer: {n!r}")

    def descend(left: int, cap: int) -> Iterable[Partition]:
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in descend(left - first, first):
                yield (first,) + rest

    return tuple(p + (0,) * (n - len(p)) for p in descend(n, n))


def _partition_monomial(parts: Partition, n: int) -> Monomial:
    """The exponent tuple of c^parts = c_{parts_1} c_{parts_2} ... in c_1..c_n."""
    return tuple(parts.count(i) for i in range(1, n + 1))


@lru_cache(maxsize=None, typed=True)
def weight_basis(dim: int) -> tuple[Monomial, ...]:
    """Canonical basis of the top graded piece (weight == dim): the
    monomials c^mu of the partitions mu of `dim` (Macdonald, Symmetric
    Functions and Hall Polynomials, I.1-I.2), in canonical order.  The cache
    is typed, like that of `partitions_of`."""
    monomials = (_partition_monomial(mu, dim) for mu in partitions_of(dim))
    return tuple(sorted(monomials, key=mono_key))


def json_terms(terms: Iterable[tuple[Monomial, Fraction]]) -> list[dict]:
    """The JSON term list of (monomial, coefficient) pairs given in
    `mono_key` order; zero coefficients are left out."""
    return [
        {"exps": list(mono), "num": str(coef.numerator), "den": str(coef.denominator)}
        for mono, coef in terms
        if coef
    ]


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_DECIMAL_RE = re.compile(r"-?[0-9]+")
_FACTOR_RE = re.compile(r"c_?([0-9]+)(?:\^([0-9]+))?")
_SIGN_SPLIT = re.compile(r"\s*([+-])\s*")


def parse_terms(dim: int, text: str) -> list[tuple[Monomial, Fraction]]:
    """The signed terms of polynomial text in c_1..c_dim, as written: not
    summed, so '1 - 1' is two terms.  The grammar is what `terms_text`
    writes, plus c_1 for c1 and an omitted unit coefficient; '0' alone has
    no terms.  A monomial heavier than `dim` is refused once the whole
    text has parsed.  Every refusal is a `ParseError`."""
    body = text.strip()
    if not body:
        raise ParseError("empty polynomial text")
    if body == "0":
        return []
    chunks = _SIGN_SPLIT.split(body)
    if chunks[0] == "":
        chunks = chunks[1:]
        if not chunks or chunks[0] not in "+-":
            raise ParseError(f"dangling sign in {text!r}")
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ParseError(f"malformed polynomial text {text!r}")
    terms: list[tuple[Monomial, Fraction]] = []
    for sign_tok, term_tok in zip(chunks[0::2], chunks[1::2]):
        sign = 1 if sign_tok == "+" else -1
        if not term_tok:
            raise ParseError(f"empty term in {text!r}")
        coef = Fraction(1)
        exps = [0] * dim
        saw_coef = False
        saw_factor = False
        for piece in term_tok.split("*"):
            piece = piece.strip()
            if not piece:
                raise ParseError(f"empty factor in term {term_tok!r}")
            if _RATIONAL_RE.fullmatch(piece):
                if saw_coef or saw_factor:
                    raise ParseError(f"misplaced coefficient in {term_tok!r}")
                coef = as_rational(piece)
                saw_coef = True
                continue
            match = _FACTOR_RE.fullmatch(piece)
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
        terms.append((tuple(exps), sign * coef))
    for mono, _ in terms:
        if mono_weight(mono) > dim:
            raise ParseError(
                f"monomial {mono_text(mono) or '1'} has weight {mono_weight(mono)}"
                f" > dimension {dim}"
            )
    return terms


def terms_text(terms: Iterable[tuple[Monomial, Fraction]]) -> str:
    """Canonical text of (monomial, coefficient) pairs given in `mono_key`
    order, e.g. '-1*c1^4 + 4*c1^2*c2 + 1*c1*c3'; zero coefficients are left
    out, and with no term left the text is '0'."""
    pieces: list[str] = []
    for mono, coef in terms:
        if not coef:
            continue
        body = mono_text(mono)
        chunk = f"{abs(coef)}*{body}" if body else f"{abs(coef)}"
        if not pieces:
            pieces.append(chunk if coef > 0 else f"-{chunk}")
        else:
            pieces.append(f"+ {chunk}" if coef > 0 else f"- {chunk}")
    return " ".join(pieces) or "0"


def parse_decimal(text: str) -> int:
    """A plain decimal integer: an optional '-' and ASCII digits, nothing
    else (no '+', '_', spaces or non-ASCII digits, which `int()` takes)."""
    if not _DECIMAL_RE.fullmatch(text):
        raise ParseError(f"not a decimal integer: {text!r}")
    return int(text)


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


class ChernFunctional(Record):
    """Top-weight linear functional on Chern-number monomials: a validated
    coefficient row, tagged with its dimension and convention.

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

    @classmethod
    def from_text(
        cls, dimension: int, convention: BasisConvention, text: str
    ) -> "ChernFunctional":
        """The functional written as polynomial text (`parse_terms`).  The
        terms are summed first, so a lower-weight term may cancel; one that
        is left raises a `ValueError` that is not a `ParseError`."""
        basis = weight_basis(dimension)
        sums = dict.fromkeys(basis, Fraction(0))
        for mono, coef in parse_terms(dimension, text):
            sums[mono] = sums.get(mono, 0) + coef
        if any(c for m, c in sums.items() if mono_weight(m) != dimension):
            raise ValueError(f"polynomial text {text!r} is not of weight {dimension}")
        return cls(dimension, convention, tuple(sums[m] for m in basis))

    # -- structure ----------------------------------------------------------

    def terms(self) -> dict[Monomial, Fraction]:
        """The nonzero coefficients, by monomial."""
        return {m: c for m, c in zip(weight_basis(self.dimension), self.coeffs) if c}

    def poly_json_dict(self) -> dict:
        """The JSON form of the functional as a polynomial: its dimension
        and `json_terms` over the basis, which is in `mono_key` order."""
        terms = json_terms(zip(weight_basis(self.dimension), self.coeffs))
        return {"dim": self.dimension, "terms": terms}

    # -- arithmetic ----------------------------------------------------------

    def scaled(self, factor: RationalLike) -> "ChernFunctional":
        factor = as_rational(factor)
        return ChernFunctional(
            self.dimension, self.convention, tuple(c * factor for c in self.coeffs)
        )

    def flipped(self) -> "ChernFunctional":
        """Same functional re-expressed in the other (co)tangent convention.

        c_i changes sign with i, so a monomial of weight w changes by
        (-1)^w; every top-weight monomial has weight n, so the whole flip
        is the sign (-1)^n."""
        coeffs = tuple(-c for c in self.coeffs) if self.dimension % 2 else self.coeffs
        return ChernFunctional(self.dimension, self.convention.other(), coeffs)

    def dot(self, values: Sequence[RationalLike]) -> Fraction:
        values = tuple(as_rational(v) for v in values)
        if len(values) != len(self.coeffs):
            raise DimensionMismatch(
                f"expected {len(self.coeffs)} values, got {len(values)}"
            )
        # integer numerators over the two common denominators, one Fraction
        c_num, c_den = over_common_denominator(self.coeffs)
        v_num, v_den = over_common_denominator(values)
        return Fraction(sum(map(mul, c_num, v_num)), c_den * v_den)

    def clear_denominators(self) -> tuple["ChernFunctional", int]:
        """Smallest positive integer multiple with integral coefficients.

        Returns (scaled functional, multiplier)."""
        numerators, scale = over_common_denominator(self.coeffs)
        return ChernFunctional(self.dimension, self.convention, numerators), scale

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        return terms_text(zip(weight_basis(self.dimension), self.coeffs))

    def __str__(self) -> str:
        return self.to_text()
