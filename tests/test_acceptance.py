"""Acceptance suite: one test per shipped criterion, exact arithmetic,
zero tolerance.  Run `pytest -s tests/test_acceptance.py` to see one
PASS/FAIL line per criterion.
"""

import json
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from chigenus.cone import (
    Certificate,
    Infeasibility,
    certify,
    generators,
    verify_certificate,
)
from chigenus.hrr import ChernFunctional, chi_p, euler_functional
from chigenus.symchern import (
    BasisConvention,
    partitions_of,
    schur,
)
from chigenus.varieties import (
    AbelianVariety,
    Curve,
    Hypersurface,
    Product,
    ProjectiveSpace,
    Surface,
    check_signs,
    evaluate,
)

from oracles import GradedPoly, fourier_motzkin_feasible, schur_via_tableaux

COT = BasisConvention.COTANGENT


@contextmanager
def criterion(tag, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {tag} PASS: {description}")


def functional(dim, text):
    return ChernFunctional.from_text(dim, COT, text)


def signed_chi_target(n, p):
    cleared, _ = chi_p(n, p).scaled((-1) ** (n - p)).clear_denominators()
    return cleared


def test_criterion_1_chi_golden_tables():
    with criterion("C1", "chi^p reproduces the displayed formulas and Serre duals"):
        assert chi_p(1, 1) == functional(1, "1/2*c1")
        assert chi_p(1, 0) == functional(1, "-1/2*c1")
        assert chi_p(2, 0) == functional(2, "1/12*c1^2 + 1/12*c2")
        assert chi_p(2, 2) == functional(2, "1/12*c1^2 + 1/12*c2")
        assert chi_p(2, 1) == functional(2, "1/6*c1^2 - 5/6*c2")
        assert chi_p(3, 3) == functional(3, "1/24*c1*c2")
        assert chi_p(3, 0) == functional(3, "-1/24*c1*c2")
        fourfold = functional(
            4, "-1/720*c1^4 + 1/180*c1^2*c2 + 1/720*c1*c3 + 1/240*c2^2 - 1/720*c4"
        )
        assert chi_p(4, 4) == fourfold
        assert chi_p(4, 0) == fourfold


def test_criterion_2_schur_golden_tables():
    with criterion("C2", "schur reproduces the eight displayed generators"):
        assert schur((3, 0, 0), 3) == functional(3, "1*c3")
        assert schur((2, 1, 0), 3) == functional(3, "1*c1*c2 - 1*c3")
        assert schur((1, 1, 1), 3) == functional(3, "1*c1^3 - 2*c1*c2 + 1*c3")
        assert schur((4, 0, 0, 0), 4) == functional(4, "1*c4")
        assert schur((3, 1, 0, 0), 4) == functional(4, "1*c1*c3 - 1*c4")
        assert schur((2, 2, 0, 0), 4) == functional(4, "1*c2^2 - 1*c1*c3")
        assert schur((2, 1, 1, 0), 4) == functional(4, "1*c1^2*c2 - 1*c1*c3 - 1*c2^2 + 1*c4")
        assert schur((1, 1, 1, 1), 4) == functional(
            4, "1*c1^4 - 3*c1^2*c2 + 2*c1*c3 + 1*c2^2 - 1*c4"
        )


def test_criterion_3_paper_chain_certificate():
    with criterion("C3", "the encoded descent-chain certificate verifies exactly"):
        gens = generators(4, ("schur", "my4", "c1top"))
        chain = {
            "P_(1,1,1,1)": Fraction(1),
            "P_(2,2,0,0)": Fraction(2),
            "P_(3,1,0,0)": Fraction(1),
            "P_(4,0,0,0)": Fraction(1),
            "my4": Fraction(14, 5),
            "c1top": Fraction(4, 5),
        }
        target = functional(4, "-1*c1^4 + 4*c1^2*c2 + 1*c1*c3 + 3*c2^2 - 1*c4")
        # expansion oracle first: plain polynomial arithmetic
        lookup = dict(gens.generators)
        expansion = GradedPoly.zero(4)
        for name, coefficient in chain.items():
            expansion = expansion + GradedPoly(4, lookup[name].terms()) * coefficient
        assert expansion.terms() == target.terms()
        cert = Certificate(
            target=target,
            generator_names=gens.names(),
            coefficients=tuple(chain.get(name, Fraction(0)) for name in gens.names()),
        )
        assert verify_certificate(cert, gens)
        assert cert.target == signed_chi_target(4, 4)


def test_criterion_4_infeasibility_reproduction():
    with criterion("C4", "720*chi^4 over Schur generators alone is infeasible"):
        gens = generators(4, ("schur",))
        target, scale = chi_p(4, 4).clear_denominators()
        assert scale == 720
        result = certify(target, gens)
        assert isinstance(result, Infeasibility)
        witness = result.witness
        for f in gens.functionals():
            assert witness.dot(f.coeffs) <= 0
        assert witness.dot(target.coeffs) > 0


def test_criterion_5_feasibility_suite():
    with criterion("C5", "the listed sign targets all certify and verify"):
        cases = [
            (1, 0, ("schur",)),
            (1, 1, ("schur",)),
            (2, 0, ("schur",)),
            (2, 1, ("schur", "my2")),
            (2, 2, ("schur",)),
            (3, 0, ("schur",)),
            (3, 3, ("schur",)),
            (4, 4, ("schur", "my4", "c1top")),
        ]
        for n, p, tags in cases:
            gens = generators(n, tags)
            result = certify(signed_chi_target(n, p), gens)
            assert isinstance(result, Certificate), (n, p, tags)
            assert verify_certificate(result, gens), (n, p, tags)


def test_criterion_6_property_suite():
    with criterion("C6", "identity suite (duality, Euler, flip, oracle, FM) exact"):
        # duality and alternating-sum identities up to dimension 6
        for n in range(7):
            rows = [chi_p(n, p) for p in range(n + 1)]
            for p in range(n + 1):
                assert rows[p] == rows[n - p].scaled((-1) ** n)
            alternating = [
                sum((-1) ** p * row.coeffs[i] for p, row in enumerate(rows))
                for i in range(len(rows[0].coeffs))
            ]
            assert alternating == list(euler_functional(n).coeffs)
        # flip involution on every Schur generator and chi row up to 6
        for n in range(7):
            for a in partitions_of(n):
                f = schur(a, n)
                assert f.flipped().flipped() == f
            for p in range(n + 1):
                assert chi_p(n, p).flipped().flipped() == chi_p(n, p)
        # determinant route equals the tableau oracle up to dimension 5
        for n in range(6):
            for a in partitions_of(n):
                assert schur(a, n).terms() == schur_via_tableaux(a, n).terms()
        # simplex feasibility equals Fourier-Motzkin up to dimension 3
        rng = random.Random(4213)
        for n in (1, 2, 3):
            tags = ("schur", "my2") if n == 2 else ("schur",)
            gens = generators(n, tags)
            columns = [f.coeffs for f in gens.functionals()]
            targets = [
                chi_p(n, p).scaled(s).clear_denominators()[0].coeffs
                for p in range(n + 1)
                for s in (1, -1)
            ]
            size = len(columns[0])
            targets += [
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(size))
                for _ in range(20)
            ]
            for rhs in targets:
                target = ChernFunctional(n, COT, rhs)
                simplex = isinstance(certify(target, gens), Certificate)
                assert simplex == fourier_motzkin_feasible(columns, rhs)


def test_criterion_7_corpus_audit():
    with criterion("C7", "sign audits pass on the corpus; quintic Euler is -200"):
        for n in range(1, 5):
            assert check_signs(ProjectiveSpace(n), "nef_tangent").passed
        for n in range(1, 4):
            assert check_signs(AbelianVariety(n), "nef_cotangent").passed
        for g in (2, 3, 5):
            assert check_signs(Curve(g), "nef_cotangent").passed
        assert check_signs(Product(Curve(2), Curve(2)), "nef_cotangent").passed
        bmy = check_signs(Surface(9, 3), "nef_cotangent")
        assert bmy.passed
        assert bmy.rows[1].value == -1
        assert evaluate(euler_functional(3), Hypersurface(5, 4)) == -200


def test_criterion_8_determinism():
    with criterion("C8", "back-to-back certify runs are byte-identical"):
        argv = [
            sys.executable, "-m", "chigenus",
            "certify", "--dim", "4", "--target", "chi:4",
            "--assume", "my4,c1top", "--json",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        json.loads(first.stdout)  # well-formed single-line payload
