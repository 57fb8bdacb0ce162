"""Positivity-generator catalogs and exact rational cone-membership
certificates.

A sign statement "this Chern-number functional is non-negative on every
manifold satisfying the hypotheses" is proved here by exhibiting the
functional as a non-negative rational combination of generator
functionals that are non-negative by assumption: the Schur polynomials of
a nef bundle, and optional inequality generators (3c_2 - c_1^2 in
dimension 2, (5/2)c_1^2 c_2 - c_1^4 in dimension 4, c_1^n).

Membership is decided by an exact phase-1 simplex with Bland's
anti-cycling rule on a fraction-free integer tableau, so answers are
deterministic and certificates are mathematical proofs, not numerics.
Non-membership is certified by a Farkas witness: a linear functional
pairing <= 0 with every generator and > 0 with the target.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, Sequence, Union

from . import ASSUMPTION_TAGS
from .hrr import ConsistencyError, chi_p, chi_sign, mode_convention, signed_target
from .poly import (
    BasisConvention,
    ChernFunctional,
    ConventionMismatch,
    DimensionMismatch,
    Record,
    lowest_terms,
    partitions_of,
    rational_text,
    weight_basis,
)
from .symchern import _schur_rows, partition_label

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "GeneratorSet",
    "Certificate",
    "Infeasibility",
    "ChiSignRow",
    "ChiSignReport",
    "generators",
    "certify",
    "verify_certificate",
    "certify_chi_signs",
]


class GeneratorSet(Record):
    """Ordered, named generator functionals of one dimension/convention.

    Schur generators come first, in the fixed partition order, so
    certificate coefficients are stable across runs.
    """

    dimension: int
    convention: BasisConvention
    generators: tuple[tuple[str, ChernFunctional], ...]

    def __post_init__(self):
        object.__setattr__(self, "convention", BasisConvention(self.convention))
        for name, f in self.generators:
            if f.dimension != self.dimension:
                raise DimensionMismatch(f"generator {name} is not of dimension {self.dimension}")
            if f.convention is not self.convention:
                raise ConventionMismatch(f"generator {name} is not in {self.convention.value}")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def functionals(self) -> tuple[ChernFunctional, ...]:
        return tuple(f for _, f in self.generators)

    def __len__(self) -> int:
        return len(self.generators)


def generators(
    n: int,
    assumptions: Sequence[str] | set[str] = ("schur",),
    convention: BasisConvention = BasisConvention.COTANGENT,
) -> GeneratorSet:
    """Build the generator catalog for dimension n.

    `assumptions` selects which families are taken as non-negative:

    * ``schur``  -- all Schur polynomials of the (co)tangent bundle;
    * ``my2``    -- 3c_2 - c_1^2 >= 0 (dimension 2 only);
    * ``my4``    -- (5/2)c_1^2 c_2 - c_1^4 >= 0 (dimension 4 only);
    * ``c1top``  -- c_1^n >= 0.

    The inequality generators carry geometric hypotheses, so they are
    strictly opt-in and never assumed silently.
    """
    tags = set(assumptions)
    unknown = tags.difference(ASSUMPTION_TAGS)
    if unknown:
        raise ValueError(f"unknown assumption tags: {sorted(unknown)}")
    if "my2" in tags and n != 2:
        raise ValueError("assumption 'my2' is only valid in dimension 2")
    if "my4" in tags and n != 4:
        raise ValueError("assumption 'my4' is only valid in dimension 4")
    convention = BasisConvention(convention)
    entries: list[tuple[str, ChernFunctional]] = []
    if "schur" in tags:
        schur_rows = _schur_rows(partitions_of(n), n, convention)
        entries += ((partition_label(a), f) for a, f in schur_rows.items())
    # rows over weight_basis(2) = (c1^2, c2) and weight_basis(4) = (c1^4,
    # c1^2*c2, c1*c3, c2^2, c4); c_1^n is the first monomial of every basis
    if "my2" in tags:
        entries.append(("my2", ChernFunctional(2, convention, (-1, 3), 1)))
    if "my4" in tags:
        entries.append(("my4", ChernFunctional(4, convention, (-2, 5, 0, 0, 0), 2)))
    if "c1top" in tags:
        unit = (1,) + (0,) * (len(weight_basis(n)) - 1)
        entries.append(("c1top", ChernFunctional(n, convention, unit, 1)))
    return GeneratorSet(n, convention, tuple(entries))


class Certificate(Record):
    """target = sum lambda_i * generator_i with every lambda_i >= 0: the
    coefficients are the whole proof, held like a `ChernFunctional` row as
    numerators over one positive denominator (`poly.lowest_terms`)."""

    json_key = "certificate"  # where a report holds the result
    target: ChernFunctional
    generator_names: tuple[str, ...]
    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        numerators, den = lowest_terms(self.numerators, self.denominator)
        if len(numerators) != len(self.generator_names):
            raise ValueError("one coefficient per generator name required")
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "generator_names", tuple(self.generator_names))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, for library callers."""
        from fractions import Fraction

        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    def _json_shape(self) -> dict:
        # the target in place, for `poly.json_text`; a certificate has no
        # residual, and the zero row keeps the output format
        return {
            "residual": self.target.scaled(0),
            "target": self.target,
            "terms": [
                {"coef": rational_text(c, self.denominator), "gen": name}
                for name, c in zip(self.generator_names, self.numerators)
                if c
            ],
        }


class Infeasibility(Record):
    """Farkas witness: pairs <= 0 with every generator, > 0 with the target."""

    json_key = "infeasibility"
    witness: ChernFunctional

    def _json_shape(self) -> dict:
        return {"witness": self.witness}


CertifyResult = Union[Certificate, Infeasibility]


def _phase_one(
    columns: Sequence[tuple[Sequence[int], int]], rhs: tuple[Sequence[int], int]
) -> tuple[str, tuple[int, ...], int]:
    """Exact phase-1 simplex for: find lambda >= 0 with sum_j lambda_j col_j = rhs.

    Each column, the rhs and the answer are integer numerators over a
    positive denominator: ("feasible", lambda, d) or ("infeasible", w, d),
    where w is a Farkas witness with respect to the original (unflipped) rows.
    Bland's rule throughout, so the outcome is deterministic.

    The tableau is fraction-free (Bareiss/Edmonds elimination): each
    generator column and the rhs are taken as their integer numerators, and
    the rows and reduced costs are integers over one common denominator d =
    det(basis) > 0.  Positive column scaling changes no reduced-cost sign
    and no ratio order, so the pivots are those of the rational tableau, and
    it leaves the duals as they are; lambda is unscaled at the end.
    """
    rhs_numerators, rhs_scale = rhs
    m = len(rhs_numerators)
    k = len(columns)
    signs = [-1 if value < 0 else 1 for value in rhs_numerators]
    tableau: list[list[int]] = []
    for i, value in enumerate(rhs_numerators):
        row = [signs[i] * col[i] for col, _ in columns]
        row.extend(1 if r == i else 0 for r in range(m))
        row.append(signs[i] * value)
        tableau.append(row)
    ncols = k + m
    basis = [k + i for i in range(m)]
    # minimize the sum of artificials: reduced costs start at c_j - 1^T A_j
    costs = [0] * k + [1] * m + [0]
    reduced = [cost - sum(row[j] for row in tableau) for j, cost in enumerate(costs)]
    d = 1
    while True:
        enter = next((j for j in range(ncols) if reduced[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a <= 0:
                continue
            if leave is not None:
                # ratios row[ncols] / a against best_num / best_den, both a > 0
                cross = row[ncols] * best_den - best_num * a
                if cross > 0 or (cross == 0 and basis[i] > basis[leave]):
                    continue
            leave, best_num, best_den = i, row[ncols], a
        if leave is None:
            raise ConsistencyError("phase-1 simplex became unbounded")
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        # the Bareiss identity makes every division exact
        for i, row in enumerate(tableau):
            if i != leave:
                f = row[enter]
                tableau[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
        f = reduced[enter]
        reduced = [(p * x - f * y) // d for x, y in zip(reduced, pivot_row)]
        basis[leave] = enter
        d = p
    if reduced[ncols] == 0:
        lam = [0] * k
        for i, bv in enumerate(basis):
            if bv < k:
                lam[bv] = tableau[i][ncols] * columns[bv][1]
        return "feasible", tuple(lam), d * rhs_scale
    # duals 1 - reduced_j / d from the optimal reduced costs of the artificials
    return "infeasible", tuple(signs[i] * (d - reduced[k + i]) for i in range(m)), d


def certify(target: ChernFunctional, gens: GeneratorSet) -> CertifyResult:
    """Decide exact membership of `target` in the cone spanned by `gens`.

    Feasibility means target = sum lambda_i g_i with lambda >= 0; otherwise
    a Farkas witness is returned.  Both outcomes are re-verified exactly
    before being handed back.
    """
    if target.dimension != gens.dimension:
        raise DimensionMismatch(
            f"target dimension {target.dimension} != generators {gens.dimension}"
        )
    if target.convention != gens.convention:
        raise ConventionMismatch(
            f"target convention {target.convention.value} != "
            f"generators {gens.convention.value}"
        )
    columns = [(f.numerators, f.denominator) for f in gens.functionals()]
    status, numerators, den = _phase_one(columns, (target.numerators, target.denominator))
    if status == "feasible":
        certificate = Certificate(target, gens.names(), numerators, den)
        if not verify_certificate(certificate, gens):
            raise ConsistencyError("simplex returned an invalid certificate")
        return certificate
    witness = ChernFunctional(gens.dimension, gens.convention, numerators, den)
    # every denominator is positive, so a pairing has its numerator sum's sign
    for name, f in gens.generators:
        if sum(map(mul, witness.numerators, f.numerators)) > 0:
            raise ConsistencyError(f"Farkas witness pairs positively with {name}")
    if sum(map(mul, witness.numerators, target.numerators)) <= 0:
        raise ConsistencyError("Farkas witness does not separate the target")
    return Infeasibility(witness)


def verify_certificate(
    cert: Certificate,
    gens: GeneratorSet,
    diagnostics: list[str] | None = None,
) -> bool:
    """Re-expand a certificate and check it exactly.

    True iff the names, dimension and convention match `gens`, all
    lambda_i >= 0 and sum lambda_i g_i == target, summed coordinate by
    coordinate over the generator rows.  On failure a reason is appended to
    `diagnostics` (if given).
    """

    def fail(reason: str) -> bool:
        if diagnostics is not None:
            diagnostics.append(reason)
        return False

    if cert.generator_names != gens.names():
        return fail("certificate is not aligned with this generator set")
    if cert.target.dimension != gens.dimension:
        return fail("certificate dimension disagrees with generator set")
    if cert.target.convention != gens.convention:
        return fail("certificate convention disagrees with generator set")
    if any(coef < 0 for coef in cert.numerators):
        return fail("negative combination coefficient")
    # sum_i (c_i / D) (g_i / d_i) == t / T, times D T L with L the lcm of the d_i
    functionals = gens.functionals()
    scale = math.lcm(*(f.denominator for f in functionals))
    used = [(c * scale // f.denominator, f) for c, f in zip(cert.numerators, functionals) if c]
    left, right = cert.target.denominator, cert.denominator * scale
    for i, t in enumerate(cert.target.numerators):
        if sum(c * f.numerators[i] for c, f in used) * left != t * right:
            return fail("combination does not reproduce the target")
    return True


class ChiSignRow(Record):
    """Outcome of one sign question (-1)^s chi^p >= 0."""

    p: int
    sign: int
    scale: int
    target: ChernFunctional
    result: CertifyResult

    @property
    def status(self) -> str:
        return "certified" if isinstance(self.result, Certificate) else "open"

    def _json_shape(self) -> dict:
        return {
            "p": self.p,
            "scale": self.scale,
            "sign": self.sign,
            "status": self.status,
            "target": self.target,
            self.result.json_key: self.result,
        }


class ChiSignReport(Record):
    """Per-p certification report for one dimension and sign mode."""

    dimension: int
    mode: str
    assumptions: tuple[str, ...]
    rows: tuple[ChiSignRow, ...]

    @property
    def convention(self) -> BasisConvention:
        return mode_convention(self.mode)

    @property
    def all_certified(self) -> bool:
        return all(row.status == "certified" for row in self.rows)

    def _json_shape(self) -> dict:
        return {
            "allCertified": self.all_certified,
            "assumptions": list(self.assumptions),
            "convention": self.convention.value,
            "dim": self.dimension,
            "mode": self.mode,
            "rows": list(self.rows),
        }


def certify_chi_signs(
    n: int,
    mode: str,
    assumptions: Sequence[str] | set[str] = ("schur",),
) -> ChiSignReport:
    """Try to certify the sign pattern of every chi^p in dimension n.

    Row p asks for chi_sign(n, p, mode) * chi^p >= 0 against the generators
    of the bundle the mode assumes nef (see ``hrr.chi_sign`` and
    ``hrr.signed_target``).  Each target is cleared of denominators, so
    certificates are statements about integral functionals.

    A row that the generator cone cannot reproduce is reported with status
    "open" and carries the Farkas witness: the witness shows these
    generators are insufficient, not that the sign statement is false.
    """
    gens = generators(n, assumptions, mode_convention(mode))
    rows = []
    solved: dict[ChernFunctional, CertifyResult] = {}  # rows p and n - p share one
    for p in range(n + 1):
        sign = chi_sign(n, p, mode)
        target, scale = signed_target(chi_p(n, p), sign, mode)
        if target not in solved:
            solved[target] = certify(target, gens)
        rows.append(ChiSignRow(p, sign, scale, target, solved[target]))
    return ChiSignReport(n, mode, tuple(sorted(set(assumptions))), tuple(rows))
