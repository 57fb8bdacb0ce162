"""Symbolic variety descriptors with exactly computable Chern numbers.

Each descriptor is a recipe whose Chern numbers follow from a standard
total-Chern-class computation:

* projective space P^n:      c(T) = (1 + h)^{n+1},  int h^n = 1
* smooth curve of genus g:   c_1(Omega^1) = 2g - 2
* surface:                   c_1^2 and c_2 given directly
* degree-d hypersurface:     c(T) = (1 + h)^{n+2} / (1 + d h),  int h^n = d
* abelian variety:           trivial tangent bundle, all numbers zero
* product X x Y:             Whitney sum of factors (`chern_numbers` only)
* explicit:                  one Chern row, a `ChernFunctional`, given

A recipe leaf's chi^p values come from its closed form for chi_y
(Hirzebruch, Topological Methods, 15.5): (-1)^p on P^n, 0 on an abelian
variety, (1 - g, g - 1) on a curve, Noether's formula on a surface, and on a
hypersurface one alternating sum of Bott's formula for chi(P^N,
Omega^q(-m)), carried through the conormal sequence, so no recipe builds a
chi table.  Only an explicit leaf, its Chern row held in cotangent
variables, pairs `chi_table(n)` with that row, in `Explicit._chi_y`; the
base class `VarietyDescriptor`, a `Record`, gives no descriptor a default.
chi_y is multiplicative, so a product convolves its factors' values.  The
Chern numbers of every descriptor stay library API (`chern_numbers`,
`evaluate`; a row is `Explicit(row)`), and the tests check each closed form
against them.  Only `descriptor_from_json` reads an explicit's "values",
monomial text to exact number.  A sign audit holds the chi^p values and
derives from them the signed values (-1)^{n-p} chi^p or (-1)^p chi^p
(`hrr.chi_sign`), each row's pass/fail and the Euler number
(`hrr.euler_number`).  Nefness (or asphericity) of the relevant bundle is
an assertion made by the caller, never checked here.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import comb, lcm, prod
from operator import mul
from typing import TYPE_CHECKING, Callable, Mapping

from . import MAX_DIM
from .hrr import chi_sign, chi_table, euler_number, mode_convention
from .poly import (
    BasisConvention,
    ChernFunctional,
    DimensionMismatch,
    Monomial,
    RationalLike,
    Record,
    lowest_terms,
    mono_text,
    mono_weight,
    parse_decimal,
    parse_json,
    parse_terms,
    rational_text,
    weight_basis,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "VarietyDescriptor",
    "ProjectiveSpace",
    "Curve",
    "Surface",
    "Hypersurface",
    "AbelianVariety",
    "Product",
    "Explicit",
    "chern_numbers",
    "evaluate",
    "chi_values",
    "SignAudit",
    "check_signs",
    "descriptor_from_json",
    "descriptor_from_token",
    "CorpusEntry",
    "load_corpus",
]

class VarietyDescriptor(Record):
    """Recipe for a manifold whose Chern numbers can be computed exactly.  Each
    class gives `dimension`, `_tangent_values()` (its tangent-convention Chern
    numbers), `_chi_y()` (chi^0..chi^n as int numerators over one positive
    denominator, in lowest terms), `name()` and `_json_shape()` itself."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name()


class _Recipe(VarietyDescriptor):
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

    def _json_shape(self) -> dict:
        return {**dict(zip(self._fields, self._astuple())), "type": self._kind}


class ProjectiveSpace(_Recipe):
    n: int
    _kind, _lows = "pn", (1,)

    @property
    def dimension(self) -> int:
        return self.n

    def _tangent_values(self) -> ChernFunctional:
        # P^n is a hyperplane in P^{n+1}
        return Hypersurface(1, self.n + 1)._tangent_values()

    def _chi_y(self) -> tuple[tuple[int, ...], int]:
        # h^{p,q} = 1 if p = q, else 0
        return tuple((-1) ** p for p in range(self.n + 1)), 1


class Curve(_Recipe):
    genus: int
    _kind, _lows = "curve", (0,)

    @property
    def dimension(self) -> int:
        return 1

    def _tangent_values(self) -> ChernFunctional:
        return ChernFunctional(1, BasisConvention.TANGENT, (2 - 2 * self.genus,), 1)

    def _chi_y(self) -> tuple[tuple[int, ...], int]:
        return (1 - self.genus, self.genus - 1), 1


class Surface(_Recipe):
    """Surface given by its two Chern numbers (cotangent convention; both
    monomials have even weight, so the tangent numbers are identical)."""

    c1sq: int
    c2: int
    _kind, _lows = "surface", (None, None)

    @property
    def dimension(self) -> int:
        return 2

    def _tangent_values(self) -> ChernFunctional:
        # weight_basis(2) = (c1^2, c2)
        return ChernFunctional(2, BasisConvention.TANGENT, (self.c1sq, self.c2), 1)

    def _chi_y(self) -> tuple[tuple[int, ...], int]:
        # Noether: chi^0 = chi^2 = (c1^2 + c2)/12, and chi^1 = (c1^2 - 5 c2)/6
        edge = self.c1sq + self.c2
        return lowest_terms((edge, 2 * (self.c1sq - 5 * self.c2), edge), 12)


class Hypersurface(_Recipe):
    """Smooth degree-d hypersurface in projective space of the given
    (ambient) dimension."""

    degree: int
    ambient: int
    _kind, _lows = "hypersurface", (1, 2)

    @property
    def dimension(self) -> int:
        return self.ambient - 1

    def _tangent_values(self) -> ChernFunctional:
        n = self.dimension
        d = self.degree
        # c(T) = (1+h)^{n+2} (1+dh)^{-1} = sum_k series[k] h^k truncated at
        # h^n, and int h^n = d
        series = [
            sum(comb(n + 2, i) * (-d) ** (k - i) for i in range(k + 1)) for k in range(n + 1)
        ]
        numbers = [
            d * prod(series[i] ** e for i, e in enumerate(mono, 1)) for mono in weight_basis(n)
        ]
        return ChernFunctional(n, BasisConvention.TANGENT, numbers, 1)

    def _chi_y(self) -> tuple[tuple[int, ...], int]:
        # Restriction 0 -> F(-d) -> F -> F|V -> 0 and the wedges of the conormal
        # sequence 0 -> O(-d)|V -> Omega_P|V -> Omega_V -> 0 (Hartshorne II.8) give
        # chi^p(V) = sum_i (-1)^i chi(Omega_P^{p-i}(-id)|V) = (-1)^p + (-1)^N (B[p] +
        # B[p + 1]), where B[s] sums (-1)^i C(id + q, q) C(id - 1, N - q) over i >= 1
        # and q = s - i >= 0: Bott's formula (Okonek-Schneider-Spindler I.1) gives
        # chi(P^N, Omega^q(-m)) = (-1)^N C(m + q, q) C(m - 1, N - q) for m > 0, and
        # (-1)^p = chi(P^N, Omega^p).  Only binomials of d enter, so it may be any size.
        N, d = self.ambient, self.degree
        B = [
            sum(
                (-1) ** i * comb(i * d + s - i, s - i) * comb(i * d - 1, N - s + i)
                for i in range(1, s + 1)
            )
            for s in range(N + 1)
        ]
        return tuple((-1) ** p + (-1) ** N * (B[p] + B[p + 1]) for p in range(N)), 1


class AbelianVariety(_Recipe):
    n: int
    _kind, _lows = "abelian", (1,)

    @property
    def dimension(self) -> int:
        return self.n

    def _tangent_values(self) -> ChernFunctional:  # trivial tangent bundle
        return ChernFunctional(self.n, BasisConvention.TANGENT, [0] * len(weight_basis(self.n)), 1)

    def _chi_y(self) -> tuple[tuple[int, ...], int]:
        return (0,) * (self.n + 1), 1


class Product(VarietyDescriptor):
    left: VarietyDescriptor
    right: VarietyDescriptor

    def __post_init__(self):
        for factor in (self.left, self.right):
            _descriptor(factor, "Product")

    @property
    def dimension(self) -> int:
        return self.left.dimension + self.right.dimension

    def _tangent_values(self) -> ChernFunctional:
        # Whitney: c_k(X x Y) = sum_{i+j=k} c_i(X) c_j(Y), so a Chern number
        # c_{k_1}...c_{k_r}[X x Y] is the sum, over the splits k_s = i_s + j_s
        # with sum_s i_s = dim X, of c_{i_1}...c_{i_r}[X] * c_{j_1}...c_{j_r}[Y]
        nx = self.left.dimension
        ny = self.right.dimension
        left, right = self.left._tangent_values(), self.right._tangent_values()
        left_values = dict(zip(weight_basis(nx), left.numerators))
        right_values = dict(zip(weight_basis(ny), right.numerators))
        numbers = []
        for mono in weight_basis(nx + ny):
            classes = [k for k, e in enumerate(mono, 1) for _ in range(e)]
            number = 0
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
                number += left_values[tuple(mx)] * right_values[tuple(my)]
            numbers.append(number)
        den = left.denominator * right.denominator
        return ChernFunctional(nx + ny, BasisConvention.TANGENT, numbers, den)

    def _chi_y(self) -> tuple[tuple[int, ...], int]:
        # chi_y(X x Y) = chi_y(X) chi_y(Y): convolve the coefficients
        (left, left_den), (right, right_den) = self.left._chi_y(), self.right._chi_y()
        values = [0] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                values[i + j] += a * b
        return lowest_terms(values, left_den * right_den)

    def name(self) -> str:
        return f"product({self.left.name()},{self.right.name()})"

    def _json_shape(self) -> dict:
        return {"left": self.left, "right": self.right, "type": "product"}


class Explicit(VarietyDescriptor):
    """A manifold outside the recipe set, given by its Chern numbers: one
    weight-n row, held in cotangent variables whichever convention it is
    given in, so one variety is one descriptor."""

    numbers: ChernFunctional

    def __post_init__(self):
        if not isinstance(self.numbers, ChernFunctional):
            raise TypeError(f"Explicit takes a ChernFunctional row: {self.numbers!r}")
        object.__setattr__(self, "numbers", self.numbers.in_convention(BasisConvention.COTANGENT))

    @property
    def dimension(self) -> int:
        return self.numbers.dimension

    def _tangent_values(self) -> ChernFunctional:
        return self.numbers.in_convention(BasisConvention.TANGENT)

    def _chi_y(self) -> tuple[tuple[int, ...], int]:
        # the cotangent rows of chi_table(n) over one denominator, paired with the row
        rows, numbers = chi_table(self.dimension), self.numbers.numerators
        den = lcm(*(r.denominator for r in rows))
        dots = [sum(map(mul, r.numerators, numbers)) * (den // r.denominator) for r in rows]
        return lowest_terms(dots, den * self.numbers.denominator)

    def name(self) -> str:
        return f"explicit:{self.dimension}"

    def _json_shape(self) -> dict:
        n, den = self.dimension, self.numbers.denominator
        values = zip(weight_basis(n), self.numbers.numerators)
        values = {(mono_text(m) or "1"): rational_text(c, den) for m, c in values if c}
        return {"convention": "cotangent", "n": n, "type": "explicit", "values": values}


def _descriptor(v: VarietyDescriptor, caller: str) -> VarietyDescriptor:
    """v, refused unless it is a descriptor."""
    if not isinstance(v, VarietyDescriptor):
        raise TypeError(f"{caller} expects a VarietyDescriptor; a Chern row is Explicit(row)")
    return v


def chern_numbers(
    v: VarietyDescriptor,
    convention: BasisConvention = BasisConvention.TANGENT,
) -> ChernFunctional:
    """Exact Chern numbers of a descriptor in the requested convention, as
    a row over `weight_basis(n)`."""
    return _descriptor(v, "chern_numbers")._tangent_values().in_convention(convention)


def evaluate(f: ChernFunctional, v: VarietyDescriptor) -> Fraction:
    """Pair a functional with a variety's Chern numbers (exact dot product)."""
    if not isinstance(f, ChernFunctional):
        raise TypeError(f"evaluate expects a ChernFunctional, not {type(f).__name__}")
    numbers = chern_numbers(_descriptor(v, "evaluate"), f.convention)
    if numbers.dimension != f.dimension:
        raise DimensionMismatch(
            f"functional dimension {f.dimension} != variety {numbers.dimension}"
        )
    return f.dot(numbers.numerators) / numbers.denominator


def chi_values(v: VarietyDescriptor) -> tuple[Fraction, ...]:
    """The evaluated chi^p table (chi^0, ..., chi^n) of a descriptor."""
    from fractions import Fraction

    numerators, den = _descriptor(v, "chi_values")._chi_y()
    return tuple(Fraction(c, den) for c in numerators)


class SignAudit(Record):
    """The sign audit of one variety under a sign mode: its chi^0..chi^n as
    `_chi_y` returns them, int numerators over one positive denominator in
    lowest terms.  Row p checks chi_sign(n, p, mode) * chi^p >= 0."""

    variety: str
    mode: str
    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        mode_convention(self.mode)  # refuses an unknown mode

    @property
    def dimension(self) -> int:
        return len(self.numerators) - 1

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(chi_sign(self.dimension, p, self.mode) for p in range(self.dimension + 1))

    @property
    def passed(self) -> bool:
        return all(s * c >= 0 for s, c in zip(self.signs, self.numerators))

    def _json_shape(self) -> dict:
        den = self.denominator
        rows = [
            {
                "chi": rational_text(c, den),
                "ok": s * c >= 0,
                "p": p,
                "sign": s,
                "signed": rational_text(s * c, den),
            }
            for p, (s, c) in enumerate(zip(self.signs, self.numerators))
        ]
        return {
            "dim": self.dimension,
            "euler": rational_text(euler_number(self.numerators), den),
            "mode": self.mode,
            "pass": self.passed,
            "rows": rows,
            "variety": self.variety,
        }


def check_signs(v: VarietyDescriptor, mode: str) -> SignAudit:
    """Audit the sign pattern of the evaluated chi^p values:
    (-1)^{n-p} chi^p >= 0 under ``nef_cotangent``, (-1)^p chi^p >= 0 under
    ``nef_tangent``.  The caller asserts the geometric hypothesis; this
    only decides the arithmetic."""
    v = _descriptor(v, "check_signs")
    return SignAudit(v.name(), mode, *v._chi_y())


# -- descriptor (de)serialization -------------------------------------------


# recipe kind (JSON "type" and token head) -> (descriptor type, its integer
# fields in token order)
_RECIPES = {
    cls._kind: (cls, cls._fields)
    for cls in (ProjectiveSpace, Curve, AbelianVariety, Surface, Hypersurface)
}
# JSON "type" -> the fields a descriptor of that type may have
_JSON_FIELDS = {kind: fields for kind, (_, fields) in _RECIPES.items()}
_JSON_FIELDS.update(product=("left", "right"), explicit=("n", "values", "convention"))


def _refuse_above(max_dim: int, dimension, name: Callable[[], str]) -> None:
    """The one dimension limit of both readers.  A dimension that is not an
    int (an explicit's raw "n") is refused by its descriptor."""
    if type(dimension) is int and dimension > max_dim:
        raise ValueError(f"descriptor {name()} exceeds maximum dimension {max_dim}")


def _refuse_nesting(max_dim: int, levels: int) -> None:
    """What both readers refuse before they descend: `max_dim` above the
    ceiling, and products nested `max_dim` or more `levels` deep, which are
    above it as no factor they read has dimension 0 (a leaf nests 0)."""
    if type(max_dim) is not int or not 0 <= max_dim <= MAX_DIM:
        raise ValueError(f"max_dim must be an integer within 0..{MAX_DIM}: {max_dim!r}")
    if levels and levels >= max_dim:
        raise ValueError(f"product nests too deeply for maximum dimension {max_dim}")


def _field(obj: Mapping, field: str):
    """obj[field], refused by name if it is missing."""
    if field not in obj:
        raise ValueError(f"missing field {field!r}")
    return obj[field]


def _monomial_key(key: str, dim: int) -> Monomial:
    """A weight-`dim` monomial from its text, one product term with
    coefficient 1 ('c1^2*c2', or '1' for the constant)."""
    if not isinstance(key, str):  # from Python only: a JSON key is text
        raise ValueError(f"not a weight-{dim} monomial: {key!r}")
    terms = parse_terms(dim, key)
    if len(terms) != 1:
        raise ValueError(f"monomial key expected, got {key!r}")
    ((mono, num, den),) = terms
    if (num, den) != (1, 1):
        raise ValueError(f"monomial key must have coefficient 1: {key!r}")
    if mono_weight(mono) != dim:
        raise ValueError(f"not a weight-{dim} monomial: {key!r}")
    return mono


def _explicit_row(n, values, convention) -> ChernFunctional:
    """The Chern row of an explicit's JSON fields: its dimension, the
    `values` mapping of monomial text to exact number (0 where a monomial
    is missing) and its convention, checked in that order."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer: {n!r}")
    if not isinstance(values, Mapping):
        raise TypeError(f"Chern numbers must be a mapping: {values!r}")
    monomials: dict[Monomial, RationalLike] = {}
    for key, value in values.items():
        mono = _monomial_key(key, n)
        if mono in monomials:
            raise ValueError(f"two keys name the monomial {mono_text(mono) or '1'}: {key!r}")
        monomials[mono] = value
    return ChernFunctional(n, convention, [monomials.get(m, 0) for m in weight_basis(n)], 1)


def descriptor_from_json(
    obj: Mapping, max_dim: int = MAX_DIM, *, _depth: int = 0
) -> VarietyDescriptor:
    """The descriptor of a JSON object, which holds "type" and fields of
    that type only.  One above `max_dim` is refused, the innermost of a
    product first, and one that is explicit before its keys, tuples of its
    length, are parsed.  So is a product factor of dimension 0, and a node
    under `max_dim` products (`_depth` counts them) before it is read."""
    _refuse_nesting(max_dim, _depth)
    try:
        kind = obj["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"descriptor JSON needs a 'type' field: {obj!r}") from exc
    if not isinstance(kind, str) or kind not in _JSON_FIELDS:
        raise ValueError(f"unknown descriptor type {kind!r}")
    for field in obj:
        if field != "type" and field not in _JSON_FIELDS[kind]:
            raise ValueError(f"unknown field {field!r} for descriptor type {kind!r}")
    if kind == "explicit":
        n = _field(obj, "n")
        _refuse_above(max_dim, n, lambda: f"explicit:{n}")
        try:
            row = _explicit_row(n, obj.get("values", {}), obj.get("convention", "cotangent"))
        except TypeError as exc:  # values, or a value of theirs, of the wrong type
            raise ValueError(str(exc)) from exc
        return Explicit(row)
    if kind == "product":
        left = descriptor_from_json(_field(obj, "left"), max_dim, _depth=_depth + 1)
        right = descriptor_from_json(_field(obj, "right"), max_dim, _depth=_depth + 1)
        for factor in (left, right):
            if factor.dimension == 0:  # X x point = X
                raise ValueError(f"product factor {factor.name()} has dimension 0")
        descriptor = Product(left, right)
    else:
        build, fields = _RECIPES[kind]
        descriptor = build(*(_field(obj, field) for field in fields))
    _refuse_above(max_dim, descriptor.dimension, descriptor.name)
    return descriptor


def descriptor_from_token(token: str, max_dim: int = MAX_DIM) -> VarietyDescriptor:
    """Parse the builtin names (pn:3, curve:2, abelian:2, surface:9:3,
    hypersurface:5:4, product(pn:1,curve:2)), refusing one above `max_dim`
    and, before it is parsed, one whose parentheses nest `max_dim` deep."""
    # One pass records each comma under the parenthesis balance before it,
    # so a product's top-level comma, the first at or after its inner text
    # with that text's balance, is one bisection away, not a rescan.
    balance = [0]
    commas: dict[int, list[int]] = {}
    for i, ch in enumerate(token):
        if ch == ",":
            commas.setdefault(balance[-1], []).append(i)
        balance.append(balance[-1] + (ch == "(") - (ch == ")"))
    _refuse_nesting(max_dim, max(balance))  # each product opens one more level

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

    descriptor = parse(0, len(token))
    _refuse_above(max_dim, descriptor.dimension, descriptor.name)
    return descriptor


class CorpusEntry(Record):
    name: str
    descriptor: VarietyDescriptor
    expected: dict


def load_corpus(path, max_dim: int = MAX_DIM) -> list[CorpusEntry]:
    """Read a JSON-lines corpus: {"name": ..., "descriptor": {...},
    "expected": {...}} per line, with no other key, a string name and, if
    given, an object as expected;
    `max_dim` is that of `descriptor_from_json`, so a line above it is
    refused with its number."""
    _refuse_nesting(max_dim, 0)  # a limit above the ceiling, even with no line
    entries = []
    # lines end at b"\n" as in JSON Lines, and each is decoded on its own so
    # that a byte that is not UTF-8 is reported with its line number
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8").strip(" \t\n\r")  # JSON's whitespace only
                if not line or line.startswith("#"):
                    continue
                obj = parse_json(line)
                if not isinstance(obj, dict):
                    raise ValueError("expected a JSON object")
                for field in obj:
                    if field not in ("name", "descriptor", "expected"):
                        raise ValueError(f"unknown field {field!r}")
                if not isinstance(_field(obj, "name"), str):
                    raise ValueError("field 'name' must be a string")
                if not isinstance(obj.get("expected", {}), dict):
                    raise ValueError("field 'expected' must be an object")
                descriptor = descriptor_from_json(_field(obj, "descriptor"), max_dim)
                entries.append(CorpusEntry(obj["name"], descriptor, obj.get("expected", {})))
            except ValueError as exc:
                raise ValueError(f"bad corpus line {line_number}: {exc}") from exc
    return entries
