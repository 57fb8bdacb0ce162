"""Symbolic variety descriptors with exactly computable Chern numbers.

Each descriptor is a recipe whose Chern numbers follow from a standard
total-Chern-class computation:

* projective space P^n:      c(T) = (1 + h)^{n+1},  int h^n = 1
* smooth curve of genus g:   c_1(Omega^1) = 2g - 2
* surface:                   c_1^2 and c_2 given directly
* degree-d hypersurface:     c(T) = (1 + h)^{n+2} / (1 + d h),  int h^n = d
* abelian variety:           trivial tangent bundle, all numbers zero
* product X x Y:             Whitney sum / Kuenneth pairing of factors
* explicit:                  raw numbers supplied by the caller

Chern numbers pair with the chi^p functionals by an exact dot product;
sign audits evaluate the signed values (-1)^{n-p} chi^p or (-1)^p chi^p
(`hrr.chi_sign`) and report per-p pass/fail.  Nefness (or asphericity) of
the relevant bundle is an assertion made by the caller, never checked here.
"""

from __future__ import annotations

import itertools
import json
from abc import ABC, abstractmethod
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import comb, prod
from typing import Mapping

from .hrr import ChernFunctional, chi_sign, chi_table, euler_functional
from .poly import (
    DimensionMismatch,
    Monomial,
    RationalLike,
    Record,
    as_rational,
    mono_text,
    mono_weight,
    parse_decimal,
    parse_terms,
    weight_basis,
)
from .symchern import BasisConvention

__all__ = [
    "VarietyDescriptor",
    "ProjectiveSpace",
    "Curve",
    "Surface",
    "Hypersurface",
    "AbelianVariety",
    "Product",
    "Explicit",
    "ChernNumberSet",
    "chern_numbers",
    "evaluate",
    "chi_values",
    "SignAuditRow",
    "SignAudit",
    "check_signs",
    "descriptor_from_json",
    "descriptor_from_token",
    "CorpusEntry",
    "load_corpus",
]

class ChernNumberSet(Record):
    """Complete assignment of a rational number to every weight-n monomial."""

    dimension: int
    convention: BasisConvention
    entries: tuple[Fraction, ...]  # aligned with the canonical top basis

    def __post_init__(self):
        basis = weight_basis(self.dimension)
        entries = tuple(as_rational(v) for v in self.entries)
        if len(entries) != len(basis):
            raise ValueError(
                f"expected {len(basis)} Chern numbers for dimension "
                f"{self.dimension}, got {len(entries)}"
            )
        object.__setattr__(self, "convention", BasisConvention(self.convention))
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_values(
        cls,
        dimension: int,
        convention: BasisConvention,
        values: Mapping[Monomial, RationalLike],
    ) -> "ChernNumberSet":
        basis = weight_basis(dimension)
        lookup = {tuple(m): as_rational(v) for m, v in values.items()}
        unknown = set(lookup).difference(basis)
        if unknown:
            raise ValueError(f"not weight-{dimension} monomials: {sorted(unknown)}")
        return cls(dimension, convention, tuple(lookup.get(m, Fraction(0)) for m in basis))

    def value(self, mono: Monomial) -> Fraction:
        basis = weight_basis(self.dimension)
        return self.entries[basis.index(tuple(mono))]

    def as_dict(self) -> dict[Monomial, Fraction]:
        return dict(zip(weight_basis(self.dimension), self.entries))

    def flipped(self) -> "ChernNumberSet":
        # at top weight every monomial flips by the same (-1)^n
        sign = (-1) ** self.dimension
        return ChernNumberSet(
            self.dimension,
            self.convention.other(),
            tuple(v * sign for v in self.entries),
        )

    def in_convention(self, convention: BasisConvention) -> "ChernNumberSet":
        convention = BasisConvention(convention)
        return self if convention == self.convention else self.flipped()


class VarietyDescriptor(ABC):
    """Recipe for a manifold whose Chern numbers can be computed exactly."""

    @property
    @abstractmethod
    def dimension(self) -> int: ...

    @abstractmethod
    def _tangent_values(self) -> dict[Monomial, Fraction]:
        """Chern numbers of the tangent bundle over the top monomial basis."""

    @abstractmethod
    def name(self) -> str: ...

    @abstractmethod
    def to_json_dict(self) -> dict: ...

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name()


class _Recipe(VarietyDescriptor, Record):
    """A variety given by integer fields.  `_kind` is its token head and
    JSON "type"; `_lows` holds one lower bound per field (None: any
    integer).  Neither is annotated, so neither is a `Record` field."""

    def __post_init__(self):
        for field, low, value in zip(self._fields, self._lows, self._astuple()):
            if isinstance(value, bool) or not isinstance(value, int) or (
                low is not None and value < low
            ):
                bound = "" if low is None else f" >= {low}"
                raise ValueError(
                    f"{self._kind} field {field!r} must be an integer{bound}: {value!r}"
                )

    def name(self) -> str:
        return ":".join([self._kind, *map(str, self._astuple())])

    def to_json_dict(self) -> dict:
        return {**dict(zip(self._fields, self._astuple())), "type": self._kind}


class ProjectiveSpace(_Recipe):
    n: int
    _kind, _lows = "pn", (1,)

    @property
    def dimension(self) -> int:
        return self.n

    def _tangent_values(self) -> dict[Monomial, Fraction]:
        # P^n is a hyperplane in P^{n+1}
        return Hypersurface(1, self.n + 1)._tangent_values()


class Curve(_Recipe):
    genus: int
    _kind, _lows = "curve", (0,)

    @property
    def dimension(self) -> int:
        return 1

    def _tangent_values(self) -> dict[Monomial, Fraction]:
        return {(1,): Fraction(2 - 2 * self.genus)}


class Surface(_Recipe):
    """Surface given by its two Chern numbers (cotangent convention; both
    monomials have even weight, so the tangent numbers are identical)."""

    c1sq: int
    c2: int
    _kind, _lows = "surface", (None, None)

    @property
    def dimension(self) -> int:
        return 2

    def _tangent_values(self) -> dict[Monomial, Fraction]:
        return {(2, 0): as_rational(self.c1sq), (0, 1): as_rational(self.c2)}


class Hypersurface(_Recipe):
    """Smooth degree-d hypersurface in projective space of the given
    (ambient) dimension."""

    degree: int
    ambient: int
    _kind, _lows = "hypersurface", (1, 2)

    @property
    def dimension(self) -> int:
        return self.ambient - 1

    def _tangent_values(self) -> dict[Monomial, Fraction]:
        n = self.dimension
        d = self.degree
        # c(T) = (1+h)^{n+2} (1+dh)^{-1} = sum_k series[k] h^k truncated at
        # h^n, and int h^n = d
        series = [
            sum(comb(n + 2, i) * (-d) ** (k - i) for i in range(k + 1)) for k in range(n + 1)
        ]
        return {
            mono: Fraction(d * prod(series[i] ** e for i, e in enumerate(mono, 1)))
            for mono in weight_basis(n)
        }


class AbelianVariety(_Recipe):
    n: int
    _kind, _lows = "abelian", (1,)

    @property
    def dimension(self) -> int:
        return self.n

    def _tangent_values(self) -> dict[Monomial, Fraction]:
        return {}  # trivial tangent bundle


class Product(VarietyDescriptor, Record):
    left: VarietyDescriptor
    right: VarietyDescriptor

    @property
    def dimension(self) -> int:
        return self.left.dimension + self.right.dimension

    def _tangent_values(self) -> dict[Monomial, Fraction]:
        # Whitney: c_k(X x Y) = sum_{i+j=k} c_i(X) c_j(Y), so a Chern number
        # c_{k_1}...c_{k_r}[X x Y] is the sum, over the splits k_s = i_s + j_s
        # with sum_s i_s = dim X, of c_{i_1}...c_{i_r}[X] * c_{j_1}...c_{j_r}[Y]
        nx = self.left.dimension
        ny = self.right.dimension
        left_values = self.left._tangent_values()
        right_values = self.right._tangent_values()
        values: dict[Monomial, Fraction] = {}
        for mono in weight_basis(nx + ny):
            classes = [k for k, e in enumerate(mono, 1) for _ in range(e)]
            number = Fraction(0)
            for split in itertools.product(
                *(range(max(0, k - ny), min(k, nx) + 1) for k in classes)
            ):
                if sum(split) != nx:
                    continue
                mx, my = [0] * nx, [0] * ny
                for k, i in zip(classes, split):
                    if i:
                        mx[i - 1] += 1
                    if k > i:
                        my[k - i - 1] += 1
                number += left_values.get(tuple(mx), 0) * right_values.get(tuple(my), 0)
            values[mono] = number
        return values

    def name(self) -> str:
        return f"product({self.left.name()},{self.right.name()})"

    def to_json_dict(self) -> dict:
        return {
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
            "type": "product",
        }


class Explicit(VarietyDescriptor):
    """Raw Chern numbers, for manifolds outside the recipe set."""

    def __init__(
        self,
        n: int,
        values: Mapping[Monomial, RationalLike] | Mapping[str, RationalLike],
        convention: BasisConvention = BasisConvention.COTANGENT,
    ):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"dimension must be a non-negative integer: {n!r}")
        if not isinstance(values, Mapping):
            raise TypeError(f"Chern numbers must be a mapping: {values!r}")
        self._n = n
        self._convention = BasisConvention(convention)
        self._values: dict[Monomial, Fraction] = {}
        for key, value in values.items():
            mono = _monomial_key(key, n)
            if mono in self._values:
                raise ValueError(f"two keys name the monomial {mono_text(mono) or '1'}: {key!r}")
            self._values[mono] = as_rational(value)

    @cached_property
    def _numbers(self) -> ChernNumberSet:
        # built on first use: it has one entry per partition of n, so a
        # descriptor over the dimension limit is refused before it exists
        return ChernNumberSet.from_values(self._n, self._convention, self._values)

    @property
    def dimension(self) -> int:
        return self._n

    @property
    def convention(self) -> BasisConvention:
        return self._convention

    def _tangent_values(self) -> dict[Monomial, Fraction]:
        return self._numbers.in_convention(BasisConvention.TANGENT).as_dict()

    def name(self) -> str:
        return f"explicit:{self._n}"

    def to_json_dict(self) -> dict:
        return {
            "convention": self._convention.value,
            "n": self._n,
            "type": "explicit",
            "values": {
                (mono_text(m) or "1"): str(v)
                for m, v in self._numbers.as_dict().items()
                if v
            },
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Explicit):
            return NotImplemented
        # one variety given in either convention is one descriptor
        cot = BasisConvention.COTANGENT
        return self._numbers.in_convention(cot) == other._numbers.in_convention(cot)

    def __hash__(self) -> int:
        return hash(self._numbers.in_convention(BasisConvention.COTANGENT))


def _monomial_key(key: str | Monomial, dim: int) -> Monomial:
    """A weight-`dim` monomial from its text, one product term with
    coefficient 1 ('c1^2*c2', or '1' for the constant), or from its
    exponent tuple."""
    terms = parse_terms(dim, key) if isinstance(key, str) else [(tuple(key), 1)]
    if len(terms) != 1:
        raise ValueError(f"monomial key expected, got {key!r}")
    ((mono, coef),) = terms
    if coef != 1:
        raise ValueError(f"monomial key must have coefficient 1: {key!r}")
    if (
        len(mono) != dim
        or any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in mono)
        or mono_weight(mono) != dim
    ):
        raise ValueError(f"not a weight-{dim} monomial: {key!r}")
    return mono


def chern_numbers(
    v: VarietyDescriptor,
    convention: BasisConvention = BasisConvention.TANGENT,
) -> ChernNumberSet:
    """Exact Chern numbers of a descriptor in the requested convention."""
    if not isinstance(v, VarietyDescriptor):
        raise TypeError("chern_numbers expects a VarietyDescriptor")
    tangent = ChernNumberSet.from_values(
        v.dimension, BasisConvention.TANGENT, v._tangent_values()
    )
    return tangent.in_convention(convention)


def evaluate(f: ChernFunctional, v: VarietyDescriptor | ChernNumberSet) -> Fraction:
    """Pair a functional with a variety's Chern numbers (exact dot product)."""
    numbers = v if isinstance(v, ChernNumberSet) else chern_numbers(v, f.convention)
    if numbers.dimension != f.dimension:
        raise DimensionMismatch(
            f"functional dimension {f.dimension} != variety {numbers.dimension}"
        )
    return f.dot(numbers.in_convention(f.convention).entries)


def chi_values(v: VarietyDescriptor | ChernNumberSet) -> tuple[Fraction, ...]:
    """The evaluated chi^p table (chi^0, ..., chi^n) of a descriptor or of
    its Chern numbers."""
    numbers = v if isinstance(v, ChernNumberSet) else chern_numbers(v, BasisConvention.COTANGENT)
    entries = numbers.in_convention(BasisConvention.COTANGENT).entries
    return tuple(row.dot(entries) for row in chi_table(numbers.dimension).rows)


class SignAuditRow(Record):
    p: int
    value: Fraction
    sign: int
    ok: bool

    @property
    def signed_value(self) -> Fraction:
        return self.value * self.sign

    def to_json_dict(self) -> dict:
        return {
            "chi": str(self.value),
            "ok": self.ok,
            "p": self.p,
            "sign": self.sign,
            "signed": str(self.signed_value),
        }


class SignAudit(Record):
    variety: str
    dimension: int
    mode: str
    rows: tuple[SignAuditRow, ...]
    euler: Fraction

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dimension,
            "euler": str(self.euler),
            "mode": self.mode,
            "pass": self.passed,
            "rows": [row.to_json_dict() for row in self.rows],
            "variety": self.variety,
        }


def check_signs(v: VarietyDescriptor, mode: str) -> SignAudit:
    """Audit the sign pattern of the evaluated chi^p values.

    Row p checks chi_sign(n, p, mode) * chi^p >= 0: (-1)^{n-p} chi^p under
    ``nef_cotangent``, (-1)^p chi^p under ``nef_tangent``.  The caller
    asserts the geometric hypothesis; this only decides the arithmetic.
    """
    n = v.dimension
    signs = [chi_sign(n, p, mode) for p in range(n + 1)]
    numbers = chern_numbers(v, BasisConvention.COTANGENT)
    values = chi_values(numbers)
    rows = [
        SignAuditRow(p=p, value=value, sign=sign, ok=value * sign >= 0)
        for p, (value, sign) in enumerate(zip(values, signs))
    ]
    euler = evaluate(euler_functional(n), numbers)
    return SignAudit(
        variety=v.name(), dimension=n, mode=mode, rows=tuple(rows), euler=euler
    )


# -- descriptor (de)serialization -------------------------------------------


# recipe kind (JSON "type" and token head) -> (descriptor type, its integer
# fields in token order)
_RECIPES = {
    cls._kind: (cls, cls._fields)
    for cls in (ProjectiveSpace, Curve, AbelianVariety, Surface, Hypersurface)
}


def descriptor_from_json(obj: Mapping) -> VarietyDescriptor:
    try:
        kind = obj["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"descriptor JSON needs a 'type' field: {obj!r}") from exc
    if kind in _RECIPES:
        build, fields = _RECIPES[kind]
        return build(*(obj[field] for field in fields))
    if kind == "product":
        return Product(descriptor_from_json(obj["left"]), descriptor_from_json(obj["right"]))
    if kind == "explicit":
        return Explicit(
            obj["n"],
            obj.get("values", {}),
            BasisConvention(obj.get("convention", "cotangent")),
        )
    raise ValueError(f"unknown descriptor type {kind!r}")


def descriptor_from_token(token: str) -> VarietyDescriptor:
    """Parse the builtin names: pn:3, curve:2, abelian:2, surface:9:3,
    hypersurface:5:4, product(pn:1,curve:2)."""
    # One pass records each comma under the parenthesis balance before it.
    # A product's top-level comma is then the first comma at or after its
    # inner text with the balance of that text's start: one bisection per
    # level, not a rescan of the inner text, so nesting costs linear time.
    balance = [0]
    commas: dict[int, list[int]] = {}
    for i, ch in enumerate(token):
        if ch == ",":
            commas.setdefault(balance[-1], []).append(i)
        balance.append(balance[-1] + (ch == "(") - (ch == ")"))

    def parse(start: int, end: int) -> VarietyDescriptor:
        while start < end and token[start].isspace():
            start += 1
        while end > start and token[end - 1].isspace():
            end -= 1
        if token.startswith("product(", start, end) and token[end - 1] == ")":
            inner = start + len("product(")
            level = commas.get(balance[inner], [])
            k = bisect_left(level, inner)
            if k == len(level) or level[k] >= end - 1:
                raise ValueError(f"malformed product token {token[start:end]!r}")
            return Product(parse(inner, level[k]), parse(level[k] + 1, end - 1))
        leaf = token[start:end]
        head, _, rest = leaf.partition(":")
        if head not in _RECIPES:
            raise ValueError(f"unknown variety token {leaf!r}")
        build, fields = _RECIPES[head]
        args = rest.split(":") if rest else []
        try:
            if len(args) != len(fields):
                raise ValueError(f"expected {len(fields)} integer field(s)")
            return build(*map(parse_decimal, args))
        except ValueError as exc:
            raise ValueError(f"malformed variety token {leaf!r}") from exc

    try:
        return parse(0, len(token))
    except RecursionError:
        raise ValueError("product token nests too deeply") from None


class CorpusEntry(Record):
    name: str
    descriptor: VarietyDescriptor
    expected: dict


def load_corpus(path) -> list[CorpusEntry]:
    """Read a JSON-lines corpus: {"name": ..., "descriptor": {...},
    "expected": {...}} per line."""
    entries = []
    # lines end at b"\n" as in JSON Lines, and each is decoded on its own so
    # that a byte that is not UTF-8 is reported with its line number
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("expected a JSON object")
                entries.append(
                    CorpusEntry(
                        name=obj["name"],
                        descriptor=descriptor_from_json(obj["descriptor"]),
                        expected=obj.get("expected", {}),
                    )
                )
            except KeyError as exc:
                raise ValueError(f"bad corpus line {line_number}: missing field {exc}") from exc
            except (TypeError, ValueError, RecursionError) as exc:
                raise ValueError(f"bad corpus line {line_number}: {exc}") from exc
    return entries
