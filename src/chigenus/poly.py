"""Chern-class monomials, the partitions that index the weight-n ones, the
text forms of polynomials in them, the top-weight functional type, and the
one canonical JSON writer (`json_text`) and reader (`parse_json`).

The variables are c_1, ..., c_n with weight(c_i) = i.  A monomial is an
exponent tuple of length n (entry i-1 is the exponent of c_i).  The
canonical term order is (weight, then lexicographic on the exponent vector
with c_1 dominant and higher powers first), which makes text and JSON
serialization deterministic.

Every weight-n row is a `ChernFunctional`: one rational per monomial of
`weight_basis(n)`, tagged with a convention.  It holds the coefficients of a
weight-n Chern polynomial or the Chern numbers of an n-fold, and `dot` pairs
the two; it scales, and rows are summed entry by entry where needed.
A row is integer numerators over one positive denominator in lowest terms;
floats are rejected at every entry point.  `fractions` is imported only where
a caller asks for a `Fraction` or passes a value that is not an int or a str.
"""

from __future__ import annotations

import math
import re
import sys
from enum import Enum
from functools import lru_cache
from itertools import repeat
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DimensionMismatch",
    "ParseError",
    "ConsistencyError",
    "FrozenInstanceError",
    "Record",
    "Monomial",
    "RationalLike",
    "rational_parts",
    "as_rational",
    "rational_text",
    "lowest_terms",
    "parse_decimal",
    "parse_json",
    "mono_weight",
    "mono_key",
    "mono_text",
    "Partition",
    "InvalidPartition",
    "partitions_of",
    "weight_basis",
    "basis_ranks",
    "parse_terms",
    "terms_text",
    "BasisConvention",
    "ConventionMismatch",
    "ChernFunctional",
    "json_text",
    "json_view",
]

Monomial = tuple[int, ...]
Partition = tuple[int, ...]
RationalLike = Union[int, str, "Fraction"]


class DimensionMismatch(ValueError):
    """Operands live in Chern rings of different ambient dimension."""


class ParseError(ValueError):
    """Polynomial text does not match the serialization grammar."""


class InvalidPartition(ValueError):
    """Sequence is not a partition of the requested weight."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates an implementation bug."""


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

    A record with a JSON form has a `_json_shape()`, its layout with records
    and functionals in place, which `json_text` writes; `to_json_dict()` is
    that text read back, and a record with no shape refuses it.
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

    def to_json_dict(self) -> dict:
        """What a command prints for this record, as plain JSON values."""
        return json_view(self)


def rational_parts(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of exact input, in lowest terms with the
    denominator positive: an int, a Fraction, or a string matching
    ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator.

    Floats and other inexact types are refused: the whole engine is
    exact-arithmetic and a single float would poison every certificate.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        # int() alone also takes '1_0', ' 2 ' and non-ASCII digits
        num, _, den = value.partition("/")
        try:
            if re.fullmatch(_RATIONAL, value):
                (num,), den = lowest_terms((int(num),), int(den or 1))
                return num, den
        except ValueError:  # a zero denominator, or a part past the digit limit
            pass
        raise ParseError(f"bad rational literal {value!r}")
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(
        "exact rational required (int, Fraction, or 'a/b' string), "
        f"got {type(value).__name__}"
    )


def as_rational(value: RationalLike) -> Fraction:
    """`rational_parts` of the value as a Fraction."""
    from fractions import Fraction

    return Fraction(*rational_parts(value))


def lowest_terms(numerators: Iterable[RationalLike], den: int) -> tuple[tuple[int, ...], int]:
    """The rationals numerator / den, for exact numerators and an int den >
    0, as integer numerators over one positive denominator whose gcd with
    all of them is 1: the form of a row and of a certificate."""
    if isinstance(den, bool) or not isinstance(den, int) or den <= 0:
        raise ValueError(f"a denominator must be a positive integer: {den!r}")
    parts = [rational_parts(c) for c in numerators]
    scale = math.lcm(*(d for _, d in parts))
    numerators = [c * (scale // d) for c, d in parts]
    den *= scale
    g = math.gcd(den, *numerators)
    return tuple(c // g for c in numerators), den // g


def rational_text(num: int, den: int = 1) -> str:
    """What str(Fraction(num, den)) writes for den > 0.  Every number the
    program prints goes through here, so a computed number past the
    int-string digit limit is this program's one-line ValueError."""
    g = math.gcd(num, den)
    try:
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a computed number has over {limit} digits, too many to print") from None


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
    parts = partitions_of(dim)
    return tuple(_partition_monomial(parts[j], dim) for j in basis_ranks(dim))


@lru_cache(maxsize=None, typed=True)
def basis_ranks(dim: int) -> tuple[int, ...]:
    """The rank in `partitions_of(dim)` of each monomial of
    `weight_basis(dim)`, in basis order: the one permutation between the
    two orders, so a solve over partition ranks is read out in basis order
    without a monomial per partition.  The cache is typed, like that of
    `partitions_of`."""
    keys = [mono_key(_partition_monomial(mu, dim)) for mu in partitions_of(dim)]
    return tuple(sorted(range(len(keys)), key=keys.__getitem__))


# patterns, not compiled ones: `re` compiles each on first use and caches it,
# so a command compiles only the patterns it matches
_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_DECIMAL = r"-?[0-9]+"
_FACTOR = r"c_?([0-9]+)(?:\^([0-9]+))?"
_SIGN_SPLIT = r"\s*([+-])\s*"


def parse_terms(dim: int, text: str) -> list[tuple[Monomial, int, int]]:
    """The signed terms of polynomial text in c_1..c_dim, as written, each a
    (monomial, numerator, denominator) triple in lowest terms: not summed,
    so '1 - 1' is two terms.  The grammar is what `terms_text`
    writes, plus c_1 for c1 and an omitted unit coefficient; a coefficient
    may only lead its term, and '0' alone has no terms.  A monomial heavier
    than `dim` is refused once the whole text has parsed.  Text that is not
    a `str` is a `TypeError`; every other refusal is a `ParseError`."""
    if not isinstance(text, str):
        raise TypeError(f"polynomial text must be a str, not {type(text).__name__}")
    body = text.strip()
    if not body:
        raise ParseError("empty polynomial text")
    if body == "0":
        return []
    # signs and terms alternate once a sign leads the text
    chunks = re.split(_SIGN_SPLIT, body if body[0] in "+-" else "+" + body)[1:]
    terms: list[tuple[Monomial, int, int]] = []
    for sign_tok, term_tok in zip(chunks[0::2], chunks[1::2]):
        if not term_tok:
            raise ParseError(f"empty term in {text!r}")
        pieces = [piece.strip() for piece in term_tok.split("*")]
        num, den = 1, 1
        if re.fullmatch(_RATIONAL, pieces[0]):
            num, den = rational_parts(pieces.pop(0))
        exps = [0] * dim
        for piece in pieces:
            if not piece:
                raise ParseError(f"empty factor in term {term_tok!r}")
            if re.fullmatch(_RATIONAL, piece):
                raise ParseError(f"misplaced coefficient in {term_tok!r}")
            match = re.fullmatch(_FACTOR, piece)
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
        terms.append((tuple(exps), num if sign_tok == "+" else -num, den))
    for mono, _, _ in terms:
        if mono_weight(mono) > dim:
            raise ParseError(
                f"monomial {mono_text(mono) or '1'} has weight {mono_weight(mono)}"
                f" > dimension {dim}"
            )
    return terms


def terms_text(terms: Iterable[tuple[Monomial, int, int]]) -> str:
    """Canonical text of (monomial, numerator, denominator > 0) triples
    given in `mono_key` order, e.g. '-1*c1^4 + 4*c1^2*c2 + 1*c1*c3'; zero
    coefficients are left out, and with no term left the text is '0'."""
    pieces: list[str] = []
    for mono, num, den in terms:
        if not num:
            continue
        body = mono_text(mono)
        coef = rational_text(abs(num), den)
        chunk = f"{coef}*{body}" if body else coef
        if not pieces:
            pieces.append(chunk if num > 0 else f"-{chunk}")
        else:
            pieces.append(f"+ {chunk}" if num > 0 else f"- {chunk}")
    return " ".join(pieces) or "0"


def parse_decimal(text: str) -> int:
    """A plain decimal integer: an optional '-' and ASCII digits, nothing
    else (no '+', '_', spaces or non-ASCII digits, which `int()` takes)."""
    if not re.fullmatch(_DECIMAL, text):
        raise ParseError(f"not a decimal integer: {text!r}")
    return int(text)


_JSON_SPACE = " \t\n\r"  # JSON's whitespace; `str.strip()` strips more


def parse_json(text: str):
    """The values of JSON text, such as a corpus line; a repeated key,
    an integer past the digit limit, NaN and the infinities (which `json`
    takes but JSON has not) and too deep nesting are ValueErrors.

    It runs CPython's `_json` scanner, as `json.loads` does, without the
    `json` package: it skips JSON's whitespace and refuses a BOM, no value
    and extra data itself, with `json`'s errors and messages, and loads
    `json.decoder` only to raise one."""
    from _json import make_scanner

    if text.startswith("\ufeff"):
        raise _decode_error("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    scan = make_scanner(_JSONContext)
    start = len(text) - len(text.lstrip(_JSON_SPACE))
    try:
        try:
            value, end = scan(text, start)
        except SystemError:
            # before 3.12 the scanner only looks JSONDecodeError up in
            # sys.modules, and without it fails as a SystemError
            import json.decoder

            value, end = scan(text, start)
    except StopIteration as stop:
        raise _decode_error("Expecting value", text, stop.value) from None
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None
    extra = len(text) - len(text[end:].lstrip(_JSON_SPACE))
    if extra < len(text):
        raise _decode_error("Extra data", text, extra)
    return value


def _decode_error(message: str, text: str, position: int) -> ValueError:
    from json import JSONDecodeError

    return JSONDecodeError(message, text, position)


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"a number has over {sys.get_int_max_str_digits()} digits") from None


def _not_json(literal: str):
    raise ValueError(f"{literal} is not JSON")


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


class _JSONContext:
    """What `json.loads` hands its scanner, with the hooks above."""

    strict = True
    object_hook = None
    object_pairs_hook = _unique_keys
    parse_float = float
    parse_int = _json_int
    parse_constant = _not_json


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

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown convention {value!r} (use tangent or cotangent)")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ConventionMismatch(ValueError):
    """Operands carry different tangent/cotangent convention tags."""


class ChernFunctional(Record):
    """A validated weight-n row, tagged with its dimension and convention:
    the coefficients of a weight-n Chern polynomial (a linear functional on
    Chern numbers), or the Chern numbers of an n-fold.

    The coefficients, indexed by the canonical weight-n monomial basis, are
    `numerators` over `denominator`, given as exact rationals over an int > 0
    and kept as ints in `lowest_terms`, so equal rows have equal fields and
    hashes.  `dot` pairs a polynomial with Chern numbers exactly.
    """

    dimension: int
    convention: BasisConvention
    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        basis = weight_basis(self.dimension)
        numerators, den = lowest_terms(self.numerators, self.denominator)
        if len(numerators) != len(basis):
            raise ValueError(
                f"expected {len(basis)} coefficients for dimension "
                f"{self.dimension}, got {len(numerators)}"
            )
        object.__setattr__(self, "convention", BasisConvention(self.convention))
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def from_text(
        cls, dimension: int, convention: BasisConvention, text: str
    ) -> "ChernFunctional":
        """The functional written as polynomial text (`parse_terms`).  The
        terms are summed first, so a lower-weight term may cancel; one that
        is left raises a `ValueError` that is not a `ParseError`."""
        basis = weight_basis(dimension)
        terms = parse_terms(dimension, text)
        den = math.lcm(*(d for _, _, d in terms))
        sums = dict.fromkeys(basis, 0)
        for mono, num, d in terms:
            sums[mono] = sums.get(mono, 0) + num * (den // d)
        if any(c for m, c in sums.items() if mono_weight(m) != dimension):
            raise ValueError(f"polynomial text {text!r} is not of weight {dimension}")
        return cls(dimension, convention, tuple(sums[m] for m in basis), den)

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, for library callers."""
        from fractions import Fraction

        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    def terms(self) -> dict[Monomial, Fraction]:
        """The nonzero coefficients, by monomial."""
        return {m: c for m, c in zip(weight_basis(self.dimension), self.coeffs) if c}

    # -- arithmetic ----------------------------------------------------------

    def scaled(self, factor: RationalLike) -> "ChernFunctional":
        num, den = rational_parts(factor)
        numerators = tuple(c * num for c in self.numerators)
        return ChernFunctional(self.dimension, self.convention, numerators, self.denominator * den)

    def flipped(self) -> "ChernFunctional":
        """Same functional re-expressed in the other (co)tangent convention.

        c_i changes sign with i, so a monomial of weight w changes by
        (-1)^w; every top-weight monomial has weight n, so the whole flip
        is the sign (-1)^n."""
        flip = tuple(-c for c in self.numerators) if self.dimension % 2 else self.numerators
        return ChernFunctional(self.dimension, self.convention.other(), flip, self.denominator)

    def in_convention(self, convention: BasisConvention) -> "ChernFunctional":
        """This row, flipped if it is tagged with the other convention."""
        return self if BasisConvention(convention) is self.convention else self.flipped()

    def dot(self, values: Sequence[RationalLike]) -> Fraction:
        from fractions import Fraction

        numerators, den = lowest_terms(values, 1)
        if len(numerators) != len(self.numerators):
            raise DimensionMismatch(
                f"expected {len(self.numerators)} values, got {len(numerators)}"
            )
        return Fraction(sum(map(mul, self.numerators, numerators)), self.denominator * den)

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        basis = weight_basis(self.dimension)
        return terms_text(zip(basis, self.numerators, repeat(self.denominator)))

    def __str__(self) -> str:
        return self.to_text()


def json_text(value) -> str:
    """The canonical JSON of a str, int, bool, list, dict, ChernFunctional
    or record: what json.dumps(value, sort_keys=True, separators=(",", ":"))
    writes, with a functional written as {"dim", "terms"} (one {"den",
    "exps", "num"} term per nonzero coefficient in lowest terms) and a
    record, or any value with a `_json_shape()`, written as that shape.
    A str must be plain, printable ASCII with no '"' or '\\', as every
    string a command prints is, so it needs no escape.  Containers are
    joined as they close, and a functional's terms straight from its
    numerators; any other value, and a non-str key, is a TypeError."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return '"' + value + '"'
        raise TypeError(f"no JSON form for a str that needs an escape: {value!r}")
    if isinstance(value, dict):
        members = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"a JSON key must be a str, not {type(key).__name__}")
            members.append(json_text(key) + ":" + json_text(value[key]))
        return "{%s}" % ",".join(members)  # one copy of the joined text, not two
    if isinstance(value, list):
        return "[%s]" % ",".join(map(json_text, value))
    if isinstance(value, int):
        if isinstance(value, bool):
            return "true" if value else "false"
        return int.__repr__(value)
    if isinstance(value, ChernFunctional):
        n, den = value.dimension, value.denominator
        terms = []
        for exps, num in zip(_exps_texts(n), value.numerators):
            if num:
                num_text, _, den_text = rational_text(num, den).partition("/")
                term = '{"den":"%s","exps":%s,"num":"%s"}' % (den_text or "1", exps, num_text)
                terms.append(term)
        return '{"dim":%d,"terms":[%s]}' % (n, ",".join(terms))
    if hasattr(value, "_json_shape"):
        return json_text(value._json_shape())
    raise TypeError(f"no JSON form for {type(value).__name__}")


@lru_cache(maxsize=None)
def _exps_texts(n: int) -> tuple[str, ...]:
    """The JSON exponent list of each monomial of `weight_basis(n)`."""
    return tuple("[%s]" % ",".join(map(str, mono)) for mono in weight_basis(n))


def json_view(value):
    """What `json_text` writes for a value, read back (`parse_json`): plain
    dicts, lists, strs, ints and bools.  A command writes a record's shape
    as it is, so it builds no view; the library's `to_json_dict` views are
    this, and so hold exactly what the command prints."""
    return parse_json(json_text(value))
