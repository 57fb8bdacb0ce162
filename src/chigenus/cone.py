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

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .hrr import (
    ChernFunctional,
    ConsistencyError,
    chi_p,
    chi_sign,
    mode_convention,
    signed_target,
    top_part,
)
from .poly import DimensionMismatch, GradedPoly, as_rational
from .symchern import (
    BasisConvention,
    ConventionMismatch,
    partition_label,
    partitions_of,
    schur,
)

__all__ = [
    "ASSUMPTION_TAGS",
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

ASSUMPTION_TAGS = ("schur", "my2", "my4", "c1top")


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered, named generator functionals of one dimension/convention.

    Schur generators come first, in the fixed partition order, so
    certificate coefficients are stable across runs.
    """

    dimension: int
    convention: BasisConvention
    generators: tuple[tuple[str, ChernFunctional], ...]

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
        for a in partitions_of(n):
            entries.append((partition_label(a), top_part(schur(a, n), convention)))
    if "my2" in tags:
        c1, c2 = GradedPoly.variable(2, 1), GradedPoly.variable(2, 2)
        entries.append(("my2", top_part(c2 * 3 - c1 * c1, convention)))
    if "my4" in tags:
        c1, c2 = GradedPoly.variable(4, 1), GradedPoly.variable(4, 2)
        my4 = c1 * c1 * c2 * Fraction(5, 2) - c1 ** 4
        entries.append(("my4", top_part(my4, convention)))
    if "c1top" in tags:
        c1 = GradedPoly.variable(n, 1)
        entries.append(("c1top", top_part(c1 ** n, convention)))
    return GeneratorSet(n, convention, tuple(entries))


@dataclass(frozen=True)
class Certificate:
    """target = sum lambda_i * generator_i + residual, every lambda_i >= 0.

    The residual must itself be certified: identically zero, or a declared
    non-negative multiple of one of the generators.
    """

    target: ChernFunctional
    generator_names: tuple[str, ...]
    coefficients: tuple[Fraction, ...]
    residual: ChernFunctional

    def __post_init__(self):
        coefficients = tuple(as_rational(c) for c in self.coefficients)
        if len(coefficients) != len(self.generator_names):
            raise ValueError("one coefficient per generator name required")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "generator_names", tuple(self.generator_names))

    def named_coefficients(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple(
            (name, coef)
            for name, coef in zip(self.generator_names, self.coefficients)
            if coef
        )

    def to_json_dict(self) -> dict:
        return {
            "residual": self.residual.as_poly().to_json_dict(),
            "target": self.target.as_poly().to_json_dict(),
            "terms": [
                {"coef": str(coef), "gen": name}
                for name, coef in self.named_coefficients()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Infeasibility:
    """Farkas witness: pairs <= 0 with every generator, > 0 with the target."""

    witness: ChernFunctional

    def to_json_dict(self) -> dict:
        return {"witness": self.witness.as_poly().to_json_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


CertifyResult = Union[Certificate, Infeasibility]


def _phase_one(
    columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[str, tuple[Fraction, ...]]:
    """Exact phase-1 simplex for: find lambda >= 0 with sum_j lambda_j col_j = rhs.

    Returns ("feasible", lambda) or ("infeasible", w) where w is a Farkas
    witness with respect to the original (unflipped) rows.  Bland's rule
    throughout, so the outcome is deterministic.

    The tableau is fraction-free (Bareiss/Edmonds elimination): each
    generator column is scaled by the lcm of its denominators and the rhs by
    its own, and the rows and reduced costs are integers over one common
    denominator d = det(basis) > 0.  Positive column scaling changes no
    reduced-cost sign and no ratio order, so the pivots are those of the
    rational tableau, and it leaves the duals as they are; lambda is
    unscaled at the end.
    """
    m = len(rhs)
    k = len(columns)
    scales = [_denominator_lcm(col) for col in columns]
    rhs_scale = _denominator_lcm(rhs)
    signs = [-1 if value < 0 else 1 for value in rhs]
    tableau: list[list[int]] = []
    for i in range(m):
        row = [signs[i] * _scaled(columns[j][i], scales[j]) for j in range(k)]
        row.extend(1 if r == i else 0 for r in range(m))
        row.append(signs[i] * _scaled(rhs[i], rhs_scale))
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
        lam = [Fraction(0)] * k
        for i, bv in enumerate(basis):
            if bv < k:
                lam[bv] = Fraction(tableau[i][ncols] * scales[bv], d * rhs_scale)
        return "feasible", tuple(lam)
    # duals 1 - reduced_j / d from the optimal reduced costs of the artificials
    witness = tuple(Fraction(signs[i] * (d - reduced[k + i]), d) for i in range(m))
    return "infeasible", witness


def _denominator_lcm(values: Sequence[Fraction]) -> int:
    return lcm(*(value.denominator for value in values))


def _scaled(value: Fraction, scale: int) -> int:
    return value.numerator * (scale // value.denominator)


def certify(target: ChernFunctional, gens: GeneratorSet) -> CertifyResult:
    """Decide exact membership of `target` in the cone spanned by `gens`.

    Feasibility means target = sum lambda_i g_i with lambda >= 0 and zero
    residual; otherwise a Farkas witness is returned.  Both outcomes are
    re-verified exactly before being handed back.
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
    columns = [f.coeffs for f in gens.functionals()]
    status, data = _phase_one(columns, target.coeffs)
    if status == "feasible":
        certificate = Certificate(
            target=target,
            generator_names=gens.names(),
            coefficients=data,
            residual=ChernFunctional.zero(gens.dimension, gens.convention),
        )
        if not verify_certificate(certificate, gens):
            raise ConsistencyError("simplex returned an invalid certificate")
        return certificate
    witness = ChernFunctional(gens.dimension, gens.convention, data)
    for name, f in gens.generators:
        if witness.dot(f.coeffs) > 0:
            raise ConsistencyError(f"Farkas witness pairs positively with {name}")
    if witness.dot(target.coeffs) <= 0:
        raise ConsistencyError("Farkas witness does not separate the target")
    return Infeasibility(witness)


def verify_certificate(
    cert: Certificate,
    gens: GeneratorSet,
    diagnostics: list[str] | None = None,
) -> bool:
    """Re-expand a certificate and check it exactly.

    True iff sum lambda_i g_i + residual == target, all lambda_i >= 0, and
    the residual is zero or a non-negative multiple of a single generator.
    On failure a reason is appended to `diagnostics` (if given).
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
    if any(coef < 0 for coef in cert.coefficients):
        return fail("negative combination coefficient")
    combo = ChernFunctional.zero(gens.dimension, gens.convention)
    for coef, (_, f) in zip(cert.coefficients, gens.generators):
        if coef:
            combo = combo + f.scaled(coef)
    if combo + cert.residual != cert.target:
        return fail("combination plus residual does not reproduce the target")
    if not cert.residual.is_zero():
        for name, f in gens.generators:
            anchor = next((i for i, c in enumerate(f.coeffs) if c), None)
            if anchor is None:
                continue
            ratio = cert.residual.coeffs[anchor] / f.coeffs[anchor]
            if ratio >= 0 and f.scaled(ratio) == cert.residual:
                break
        else:
            return fail("residual is not a non-negative multiple of a generator")
    return True


@dataclass(frozen=True)
class ChiSignRow:
    """Outcome of one sign question (-1)^s chi^p >= 0."""

    p: int
    sign: int
    scale: int
    target: ChernFunctional
    result: CertifyResult
    status: str  # "certified" or "open"

    def to_json_dict(self) -> dict:
        payload: dict = {
            "p": self.p,
            "scale": self.scale,
            "sign": self.sign,
            "status": self.status,
            "target": self.target.as_poly().to_json_dict(),
        }
        if isinstance(self.result, Certificate):
            payload["certificate"] = self.result.to_json_dict()
        else:
            payload["infeasibility"] = self.result.to_json_dict()
        return payload


@dataclass(frozen=True)
class ChiSignReport:
    """Per-p certification report for one dimension and sign mode."""

    dimension: int
    mode: str
    assumptions: tuple[str, ...]
    convention: BasisConvention
    rows: tuple[ChiSignRow, ...]

    @property
    def all_certified(self) -> bool:
        return all(row.status == "certified" for row in self.rows)

    def row(self, p: int) -> ChiSignRow:
        return self.rows[p]

    def to_json_dict(self) -> dict:
        return {
            "allCertified": self.all_certified,
            "assumptions": list(self.assumptions),
            "convention": self.convention.value,
            "dim": self.dimension,
            "mode": self.mode,
            "rows": [row.to_json_dict() for row in self.rows],
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
    convention = mode_convention(mode)
    gens = generators(n, assumptions, convention)
    rows = []
    for p in range(n + 1):
        sign = chi_sign(n, p, mode)
        target, scale = signed_target(chi_p(n, p), sign, mode)
        result = certify(target, gens)
        status = "certified" if isinstance(result, Certificate) else "open"
        rows.append(
            ChiSignRow(
                p=p, sign=sign, scale=scale, target=target, result=result, status=status
            )
        )
    return ChiSignReport(
        dimension=n,
        mode=mode,
        assumptions=tuple(sorted(set(assumptions))),
        convention=convention,
        rows=tuple(rows),
    )
