"""Exact graded polynomial ring in Chern-class variables.

The ring is Q[c_1, ..., c_n] with weight(c_i) = i, truncated at weight n:
products silently drop every monomial heavier than the ambient dimension.
Coefficients are `fractions.Fraction`, reduced and positive-denominator by
construction; floats are rejected at every entry point.

A monomial is an exponent tuple of length n (entry i-1 is the exponent of
c_i).  The canonical term order is (weight, then lexicographic on the
exponent vector with c_1 dominant and higher powers first), which makes
text and JSON serialization deterministic and round-trippable.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Iterable, Mapping, Union

__all__ = [
    "DimensionMismatch",
    "ParseError",
    "FrozenInstanceError",
    "Record",
    "Monomial",
    "RationalLike",
    "as_rational",
    "parse_decimal",
    "mono_weight",
    "mono_mul",
    "mono_key",
    "mono_text",
    "monomials_of_weight",
    "weight_basis",
    "json_terms",
    "GradedPoly",
]

Monomial = tuple[int, ...]
RationalLike = Union[int, str, Fraction]


class DimensionMismatch(ValueError):
    """Operands live in Chern rings of different ambient dimension."""


class ParseError(ValueError):
    """Polynomial text does not match the serialization grammar."""


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
        # Fraction() alone also takes '1_0', ' 2e1 ', '0.5' and non-ASCII digits
        if _RATIONAL_RE.fullmatch(value):
            try:
                return Fraction(value)
            except ZeroDivisionError:
                pass
        raise ParseError(f"bad rational literal {value!r}")
    raise TypeError(
        "exact rational required (int, Fraction, or 'a/b' string), "
        f"got {type(value).__name__}"
    )


def mono_weight(mono: Monomial) -> int:
    """Weight of a monomial: sum of i * exponent(c_i)."""
    return sum(map(mul, range(1, len(mono) + 1), mono))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


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
def monomials_of_weight(dim: int, weight: int) -> tuple[Monomial, ...]:
    """All exponent tuples of length `dim` with weight exactly `weight`,
    in canonical order.  The cache is typed, so the key True never
    answers for 1, and a refused argument is never cached."""
    for value in (dim, weight):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(
                f"dimension and weight must be non-negative integers, got {value!r}"
            )
    found: list[Monomial] = []

    def descend(i: int, left: int, acc: list[int]) -> None:
        if i == dim:
            if left == 0:
                found.append(tuple(acc))
            return
        step = i + 1
        for e in range(left // step, -1, -1):
            acc.append(e)
            descend(i + 1, left - step * e, acc)
            acc.pop()

    descend(0, weight, [])
    found.sort(key=mono_key)
    return tuple(found)


def weight_basis(dim: int) -> tuple[Monomial, ...]:
    """Canonical basis of the top graded piece (weight == dim).

    Its length is the number of partitions of `dim`.
    """
    return monomials_of_weight(dim, dim)


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


class GradedPoly:
    """Sparse polynomial in c_1..c_n over Q, truncated at weight n.

    Instances are immutable; all arithmetic returns new objects, so values
    can be shared freely across threads.
    """

    __slots__ = ("_dim", "_terms", "_hash")

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
        self._hash: int | None = None

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
        out._hash = None
        return out

    def __radd__(self, other: RationalLike) -> "GradedPoly":
        return self.__add__(other)

    def __neg__(self) -> "GradedPoly":
        return self.__mul__(Fraction(-1))

    def __sub__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            other = GradedPoly.constant(self._dim, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other: RationalLike) -> "GradedPoly":
        return GradedPoly.constant(self._dim, other).__sub__(self)

    def __mul__(self, other: "GradedPoly | RationalLike") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            scalar = as_rational(other)
            terms = {m: c * scalar for m, c in self._terms.items()} if scalar else {}
            out = GradedPoly.__new__(GradedPoly)
            out._dim = self._dim
            out._terms = terms
            out._hash = None
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
        out._hash = None
        return out

    def __rmul__(self, other: RationalLike) -> "GradedPoly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "GradedPoly":
        if isinstance(exponent, bool) or not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = GradedPoly.one(self._dim)
        for _ in range(exponent):
            result = result * self
        return result

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._dim, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"GradedPoly(dim={self._dim}, {self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. '-1*c1^4 + 4*c1^2*c2 + 1*c1*c3'."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for mono in sorted(self._terms, key=mono_key):
            coef = self._terms[mono]
            magnitude = abs(coef)
            body = mono_text(mono)
            chunk = f"{magnitude}*{body}" if body else f"{magnitude}"
            if not pieces:
                pieces.append(chunk if coef > 0 else f"-{chunk}")
            else:
                pieces.append(f"+ {chunk}" if coef > 0 else f"- {chunk}")
        return " ".join(pieces)

    @classmethod
    def from_text(cls, dim: int, text: str) -> "GradedPoly":
        """Parse the canonical text form (tolerates c_1 for c1 and an
        omitted unit coefficient)."""
        body = text.strip()
        if not body:
            raise ParseError("empty polynomial text")
        if body == "0":
            return cls.zero(dim)
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
                index = int(match.group(1))
                power = int(match.group(2)) if match.group(2) else 1
                if not 1 <= index <= dim:
                    raise ParseError(f"variable c{index} outside dimension {dim}")
                exps[index - 1] += power
                saw_factor = True
            terms.append((tuple(exps), sign * coef))
        try:
            return cls(dim, terms)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def to_json_dict(self) -> dict:
        terms = sorted(self._terms.items(), key=lambda item: mono_key(item[0]))
        return {"dim": self._dim, "terms": json_terms(terms)}

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "GradedPoly":
        try:
            dim = obj["dim"]
            raw = obj["terms"]
            terms = [
                (
                    tuple(entry["exps"]),
                    Fraction(_json_integer(entry["num"]), _json_integer(entry["den"])),
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


def parse_decimal(text: str) -> int:
    """A plain decimal integer: an optional '-' and ASCII digits, nothing
    else (no '+', '_', spaces or non-ASCII digits, which `int()` takes)."""
    if not _DECIMAL_RE.fullmatch(text):
        raise ParseError(f"not a decimal integer: {text!r}")
    return int(text)


def _json_integer(value: object) -> int:
    """A JSON numerator or denominator: an int, or its decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL_RE.fullmatch(value):
        return int(value)
    raise ParseError(f"coefficient part must be an integer or a decimal string, got {value!r}")

