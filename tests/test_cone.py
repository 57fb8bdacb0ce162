import functools
import itertools
import json
import pathlib
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chigenus import ASSUMPTION_TAGS, SIGN_MODES
from chigenus.cone import (
    Certificate,
    ChiSignReport,
    GeneratorSet,
    Infeasibility,
    certify,
    certify_chi_signs,
    generators,
    verify_certificate,
    _phase_one,
)
from chigenus.hrr import (
    chi_p,
    chi_sign,
    mode_convention,
    signed_target,
)
from chigenus.poly import (
    BasisConvention,
    ChernFunctional,
    ConsistencyError,
    ConventionMismatch,
    DimensionMismatch,
    InvalidPartition,
    lowest_terms,
    partitions_of,
    weight_basis,
)
from chigenus.symchern import partition_label, schur

from conftest import rationals
from oracles import (
    GradedPoly,
    basis_coordinates,
    chi_y_schur_coordinates,
    fourier_motzkin_feasible,
    fraction_phase_one,
)

COT = BasisConvention.COTANGENT
TAN = BasisConvention.TANGENT


def P(dim, text):
    return GradedPoly.from_text(dim, text)


def functional(dim, text, convention=COT):
    return ChernFunctional.from_text(dim, convention, text)


def nonzero_coefficients(cert):
    return {name: c for name, c in zip(cert.generator_names, cert.coefficients) if c}


class TestGenerators:
    def test_dim2_schur_only(self):
        gens = generators(2)
        assert gens.names() == ("P_(2,0)", "P_(1,1)")
        assert gens.functionals()[0] == functional(2, "1*c2")
        assert gens.functionals()[1] == functional(2, "1*c1^2 - 1*c2")

    def test_dim4_schur_matches_displays(self):
        gens = generators(4)
        assert [f.to_text() for f in gens.functionals()] == [
            "1*c4",
            "1*c1*c3 - 1*c4",
            "-1*c1*c3 + 1*c2^2",
            "1*c1^2*c2 - 1*c1*c3 - 1*c2^2 + 1*c4",
            "1*c1^4 - 3*c1^2*c2 + 2*c1*c3 + 1*c2^2 - 1*c4",
        ]

    def test_dim4_full_count(self):
        gens = generators(4, ("my4", "c1top"))
        assert len(gens) == 7
        assert gens.names()[-2:] == ("my4", "c1top")

    def test_assumption_polynomials(self):
        my2 = generators(2, ("my2",)).functionals()[-1]
        assert my2 == functional(2, "-1*c1^2 + 3*c2")
        my4 = generators(4, ("my4",)).functionals()[-1]
        assert my4 == functional(4, "-1*c1^4 + 5/2*c1^2*c2")
        c1top = generators(3, ("c1top",)).functionals()[-1]
        assert c1top == functional(3, "1*c1^3")

    def test_invalid_pairings(self):
        with pytest.raises(ValueError):
            generators(3, ("my2",))
        with pytest.raises(ValueError):
            generators(2, ("my4",))
        with pytest.raises(ValueError):
            generators(2, ("bogus",))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_schur_family_is_always_the_catalog(self, n):
        schur_names = tuple(partition_label(a) for a in partitions_of(n))
        assert generators(n).names() == generators(n, ()).names() == schur_names
        assert generators(n, ("c1top",)).names() == (*schur_names, "c1top")

    # each refusal names the first tag it meets: every tag is checked for
    # being known and new before any for its dimension, my2 before my4
    @pytest.mark.parametrize(
        "tags, message",
        [
            (("schur",), "unknown assumption 'schur' (use my2, my4, c1top)"),
            (("c1top", "bogus", "my2"), "unknown assumption 'bogus' (use my2, my4, c1top)"),
            (("c1top", "c1top"), "assumption 'c1top' given twice"),
            (("my2", "c1top", "my2"), "assumption 'my2' given twice"),
            (("my4", "my2"), "assumption 'my2' is only valid in dimension 2"),
            (("c1top", "my4"), "assumption 'my4' is only valid in dimension 4"),
        ],
    )
    def test_tags_are_refused_in_order(self, tags, message):
        for build in (generators, lambda n, t: certify_chi_signs(n, "nef_tangent", t)):
            with pytest.raises(ValueError) as info:
                build(3, tags)
            assert str(info.value) == message

    @pytest.mark.parametrize("tags", ["schur", "my2", ""])
    def test_a_str_is_refused(self, tags):
        for build in (generators, lambda n, t: certify_chi_signs(n, "nef_cotangent", t)):
            with pytest.raises(TypeError) as info:
                build(2, tags)
            assert "\n" not in str(info.value)

    def test_cone_alone_words_a_tag_refusal(self):
        # the command line hands its tags to `cone`, the one check of them
        import chigenus.cone as cone

        sources = sorted(pathlib.Path(cone.__file__).parent.glob("*.py"))
        for wording in ("unknown assumption", "assumption {tag!r}"):
            assert [path.name for path in sources if wording in path.read_text()] == ["cone.py"]

    def test_tangent_convention_tagging(self):
        gens = generators(3, (), TAN)
        assert gens.convention is TAN
        assert all(f.convention is TAN for f in gens.functionals())


class TestCertify:
    def test_dim2_todd_target(self):
        gens = generators(2)
        target = functional(2, "1*c1^2 + 1*c2")  # 12 * chi^0
        result = certify(target, gens)
        assert isinstance(result, Certificate)
        assert verify_certificate(result, gens)
        # the system is square and invertible: lambda is forced
        assert nonzero_coefficients(result) == {
            "P_(2,0)": Fraction(2),
            "P_(1,1)": Fraction(1),
        }

    def test_dim2_bmy_target(self):
        gens = generators(2, ("my2",))
        target = functional(2, "-1*c1^2 + 5*c2")  # -6 * chi^1
        result = certify(target, gens)
        assert isinstance(result, Certificate)
        assert verify_certificate(result, gens)
        combo = nonzero_coefficients(result)
        assert combo["my2"] > 0  # Schur cone alone cannot reach it

    def test_dim2_bmy_needed(self):
        gens = generators(2)
        target = functional(2, "-1*c1^2 + 5*c2")
        assert isinstance(certify(target, gens), Infeasibility)

    def test_dim4_chi4_infeasible_over_schur(self):
        gens = generators(4)
        target, scale = signed_target(chi_p(4, 4), 1, "nef_cotangent")
        assert scale == 720
        result = certify(target, gens)
        assert isinstance(result, Infeasibility)
        witness = result.witness
        for f in gens.functionals():
            assert witness.dot(f.coeffs) <= 0
        assert witness.dot(target.coeffs) > 0

    def test_dim4_chi4_feasible_with_assumptions(self):
        gens = generators(4, ("my4", "c1top"))
        target, _ = signed_target(chi_p(4, 4), 1, "nef_cotangent")
        result = certify(target, gens)
        assert isinstance(result, Certificate)
        assert verify_certificate(result, gens)

    def test_mismatch_errors(self):
        gens = generators(2)
        with pytest.raises(DimensionMismatch):
            certify(functional(3, "1*c3"), gens)
        with pytest.raises(ConventionMismatch):
            certify(functional(2, "1*c2", TAN), gens)

    def test_zero_target_feasible(self):
        gens = generators(3)
        result = certify(ChernFunctional(3, COT, (0, 0, 0), 1), gens)
        assert isinstance(result, Certificate)
        assert all(c == 0 for c in result.coefficients)

    # a generator set always holds the Schur family, so the simplex is asked
    # directly about no columns
    @pytest.mark.parametrize("n", range(5))
    def test_no_columns_combine_to_zero_only(self, n):
        # the combination of no rows is zero in every coordinate
        size = len(weight_basis(n))
        assert _phase_one([], ((0,) * size, 1)) == ("feasible", (), 1)
        status, witness, _ = _phase_one([], ((1,) + (0,) * (size - 1), 1))
        assert status == "infeasible" and witness[0] > 0
        gens = generators(n)
        zero = Certificate(ChernFunctional(n, COT, (0,) * size, 1), gens.names(), [0] * len(gens), 1)
        assert verify_certificate(zero, gens)
        c1_top = ChernFunctional(n, COT, (1,) + (0,) * (size - 1), 1)
        assert not verify_certificate(Certificate(c1_top, (), (), 1), gens)

    def test_no_columns_refuse_a_nonzero_target(self):
        target = functional(3, "1*c1*c2")
        status, witness, den = _phase_one([], (target.numerators, target.denominator))
        assert status == "infeasible"
        assert ChernFunctional(3, COT, witness, den).dot(target.coeffs) > 0


class TestPaperChainCertificate:
    """The dimension-4 descent chain, encoded as an explicit certificate."""

    CHAIN = {
        "P_(1,1,1,1)": Fraction(1),
        "P_(2,2,0,0)": Fraction(2),
        "P_(3,1,0,0)": Fraction(1),
        "P_(4,0,0,0)": Fraction(1),
        "my4": Fraction(14, 5),
        "c1top": Fraction(4, 5),
    }

    def gens(self):
        return generators(4, ("my4", "c1top"))

    def chain_certificate(self):
        gens = self.gens()
        target, scale = signed_target(chi_p(4, 4), 1, "nef_cotangent")
        assert scale == 720
        coefficients = tuple(
            self.CHAIN.get(name, Fraction(0)) for name in gens.names()
        )
        return (
            Certificate(
                target=target,
                generator_names=gens.names(),
                numerators=coefficients,
                denominator=1,
            ),
            gens,
        )

    def test_expansion_oracle_validates_coefficients(self):
        # direct polynomial expansion, no Certificate machinery involved
        gens = self.gens()
        lookup = dict(zip(gens.names(), gens.functionals()))
        total = GradedPoly.zero(4)
        for name, coefficient in self.CHAIN.items():
            total = total + GradedPoly(4, lookup[name].terms()) * coefficient
        assert total == P(4, "-1*c1^4 + 4*c1^2*c2 + 1*c1*c3 + 3*c2^2 - 1*c4")

    def test_chain_passes_verification(self):
        cert, gens = self.chain_certificate()
        assert verify_certificate(cert, gens)

    def test_negative_coefficient_fails(self):
        cert, gens = self.chain_certificate()
        broken = Certificate(
            target=cert.target,
            generator_names=cert.generator_names,
            numerators=tuple(
                -c if name == "my4" else c
                for name, c in zip(cert.generator_names, cert.coefficients)
            ),
            denominator=1,
        )
        assert not verify_certificate(broken, gens)

    def test_tampered_coefficient_fails(self):
        cert, gens = self.chain_certificate()
        tampered = Certificate(
            target=cert.target,
            generator_names=cert.generator_names,
            numerators=tuple(
                c + 1 if name == "P_(4,0,0,0)" else c
                for name, c in zip(cert.generator_names, cert.coefficients)
            ),
            denominator=1,
        )
        assert not verify_certificate(tampered, gens)


class TestCoefficientsAreTheCertificate:
    # over (P_(3,0,0), P_(2,1,0), P_(1,1,1)) = (c3, c1*c2 - c3, ...)
    def test_generator_combination_accepted(self):
        gens = generators(3)
        cert = Certificate(
            target=functional(3, "1*c1*c2"),
            generator_names=gens.names(),
            numerators=(Fraction(1), Fraction(1), Fraction(0)),
            denominator=1,
        )
        assert verify_certificate(cert, gens)

    def test_dropped_coefficient_rejected(self):
        gens = generators(3)
        cert = Certificate(
            target=functional(3, "1*c1*c2"),
            generator_names=gens.names(),
            numerators=(Fraction(0), Fraction(1), Fraction(0)),
            denominator=1,
        )
        assert not verify_certificate(cert, gens)

    def test_negative_coefficient_rejected(self):
        gens = generators(3)
        cert = Certificate(
            target=functional(3, "1*c1*c2 - 2*c3"),
            generator_names=gens.names(),
            numerators=(Fraction(-1), Fraction(1), Fraction(0)),
            denominator=1,
        )
        assert not verify_certificate(cert, gens)

    def test_one_coefficient_per_name(self):
        names = generators(3).names()
        with pytest.raises(ValueError) as info:
            Certificate(functional(3, "1*c1*c2"), names, (1, 1), 1)
        assert str(info.value) == "one coefficient per generator name required"

    def test_misaligned_certificate_rejected(self):
        gens = generators(3)
        names = gens.names()
        tangent = functional(3, "1*c1*c2", TAN)
        for target, order in [
            (functional(3, "1*c1*c2"), names[::-1]),
            (functional(2, "1*c2"), names),
            (tangent, names),
        ]:
            assert not verify_certificate(Certificate(target, order, (1, 1, 0), 1), gens)


class TestSoundnessAndDeterminism:
    def test_every_returned_certificate_verifies(self):
        for n in range(1, 5):
            gens = generators(n)
            for p in range(n + 1):
                target, _ = signed_target(chi_p(n, p), (-1) ** (n - p), "nef_cotangent")
                result = certify(target, gens)
                if isinstance(result, Certificate):
                    assert verify_certificate(result, gens)
                else:
                    for f in gens.functionals():
                        assert result.witness.dot(f.coeffs) <= 0
                    assert result.witness.dot(target.coeffs) > 0

    def test_byte_identical_reruns(self):
        def run():
            gens = generators(4, ("my4", "c1top"))
            target, _ = signed_target(chi_p(4, 4), 1, "nef_cotangent")
            return json.dumps(certify(target, gens).to_json_dict(), sort_keys=True)

        assert run() == run()


class TestFourierMotzkinCrossCheck:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_signed_chi_targets(self, n):
        tags = ("my2",) if n == 2 else ()
        gens = generators(n, tags)
        columns = [f.coeffs for f in gens.functionals()]
        for p in range(n + 1):
            for sign in (1, -1):
                target, _ = signed_target(chi_p(n, p), sign, "nef_cotangent")
                simplex = isinstance(certify(target, gens), Certificate)
                brute = fourier_motzkin_feasible(columns, target.coeffs)
                assert simplex == brute, (n, p, sign)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_targets(self, n):
        rng = random.Random(20260811 + n)
        gens = generators(n)
        columns = [f.coeffs for f in gens.functionals()]
        size = len(columns[0])
        for _ in range(25):
            target = ChernFunctional(
                n, COT, tuple(Fraction(rng.randint(-4, 4)) for _ in range(size)), 1
            )
            simplex = isinstance(certify(target, gens), Certificate)
            brute = fourier_motzkin_feasible(columns, target.coeffs)
            assert simplex == brute


@functools.lru_cache(maxsize=None)
def kostka_rows(n):
    """The rows of K, with g = K t the Schur coordinates of a weight-n
    target t: row b is the functional "coordinate b", found by the oracle's
    elimination on each unit vector."""
    columns = [f.coeffs for f in generators(n).functionals()]
    size = len(columns)
    units = [basis_coordinates(columns, [int(i == mu) for i in range(size)]) for mu in range(size)]
    return tuple(zip(*units))


def signed_chi_targets(n, mode):
    return [signed_target(chi_p(n, p), chi_sign(n, p, mode), mode)[0] for p in range(n + 1)]


def combination(weights, columns):
    rows = range(len(columns[0]))
    return tuple(sum(w * col[i] for w, col in zip(weights, columns)) for i in rows)


AUGMENTED = [(2, ("my2",)), (4, ("my4",)), (4, ("my4", "c1top"))] + [
    (n, ("c1top",)) for n in range(1, 7)
]


class TestPivotPathMatchesFractionSimplex:
    """The integer tableau takes the rational tableau's Bland pivots, so
    `_phase_one`, given each vector as integers over one denominator,
    returns exactly what the `Fraction` reference returns."""

    def assert_same(self, columns, rhs):
        status, numerators, den = _phase_one(
            [lowest_terms(col, 1) for col in columns], lowest_terms(rhs, 1)
        )
        assert den > 0 and all(type(x) is int for x in numerators)
        result = (status, tuple(Fraction(x, den) for x in numerators))
        assert result == fraction_phase_one(columns, rhs)
        return result

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("mode", SIGN_MODES)
    def test_signed_chi_targets(self, n, mode):
        gens = generators(n, (), mode_convention(mode))
        columns = [f.coeffs for f in gens.functionals()]
        for target in signed_chi_targets(n, mode):
            for sign in (1, -1):
                self.assert_same(columns, target.scaled(sign).coeffs)

    @pytest.mark.parametrize("n, tags", AUGMENTED)
    def test_augmented_catalogs(self, n, tags):
        for mode in SIGN_MODES:
            gens = generators(n, tags, mode_convention(mode))
            columns = [f.coeffs for f in gens.functionals()]
            for target in signed_chi_targets(n, mode):
                for sign in (1, -1):
                    self.assert_same(columns, target.scaled(sign).coeffs)

    @settings(derandomize=True, max_examples=150)
    @given(st.data())
    def test_random_fractional_targets(self, data):
        n, tags = data.draw(st.sampled_from([(n, ()) for n in range(1, 7)] + AUGMENTED))
        gens = generators(n, tags)
        columns = [f.coeffs for f in gens.functionals()]
        size = len(columns[0])
        rhs = data.draw(st.lists(rationals(6, 6), min_size=size, max_size=size))
        self.assert_same(columns, rhs)

    @settings(derandomize=True, max_examples=150)
    @given(st.data())
    def test_feasible_by_construction(self, data):
        n, tags = data.draw(st.sampled_from([(n, ()) for n in range(1, 7)] + AUGMENTED))
        gens = generators(n, tags)
        columns = [f.coeffs for f in gens.functionals()]
        weights = data.draw(
            st.lists(
                st.fractions(min_value=0, max_value=5, max_denominator=4),
                min_size=len(columns),
                max_size=len(columns),
            )
        )
        status, _ = self.assert_same(columns, combination(weights, columns))
        assert status == "feasible"

    @settings(derandomize=True, max_examples=150)
    @given(st.data())
    def test_random_fractional_columns(self, data):
        # small dense systems, where ratio ties and degenerate pivots are common
        m = data.draw(st.integers(1, 4))
        entries = st.lists(rationals(3, 3), min_size=m, max_size=m)
        columns = data.draw(st.lists(entries, max_size=6))
        self.assert_same(columns, data.draw(entries))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_target(self, n):
        columns = [f.coeffs for f in generators(n).functionals()]
        status, lam = self.assert_same(columns, (Fraction(0),) * len(columns[0]))
        assert status == "feasible" and not any(lam)


class TestSchurBasisOracle:
    """The Schur catalog is a basis of the weight-n functionals (Macdonald
    I.6), so membership in its cone is one linear solve: feasible iff every
    coordinate is >= 0, and then lambda is unique."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_verdict_and_coefficients(self, n):
        rng = random.Random(20261018 + n)
        for mode in SIGN_MODES:
            gens = generators(n, (), mode_convention(mode))
            columns = [f.coeffs for f in gens.functionals()]
            size = len(columns)
            targets = [t.scaled(sign) for t in signed_chi_targets(n, mode) for sign in (1, -1)]
            for _ in range(4):
                weights = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(size)]
                if rng.random() < 0.5:
                    weights[rng.randrange(size)] = Fraction(-1)
                combined = combination(weights, columns)
                targets.append(ChernFunctional(n, gens.convention, combined, 1))
            for target in targets:
                lam = basis_coordinates(columns, target.coeffs)
                result = certify(target, gens)
                assert isinstance(result, Certificate) == all(c >= 0 for c in lam)
                if isinstance(result, Certificate):
                    assert result.coefficients == lam


class TestWitnessForm:
    """Against the Schur-only set, a basis, the phase-1 Farkas witness is a
    negative multiple of one Schur-coordinate functional: it pairs to 0 with
    every generator but one, P_a, and negatively with P_a.  ROADMAP item 5
    keeps this form; a degenerate phase-1 optimum can instead pair
    negatively with more than one generator."""

    # (convention, index) of the random targets below whose witness pairs
    # negatively with two generators: at n = 8, P_(3,3,2) and P_(3,1,1,1,1,1)
    DEGENERATE = {8: [(COT, 9)]}

    @staticmethod
    def witness(target):
        """The witness of a target against the Schur-only set, or None for
        a certified target."""
        result = certify(target, generators(target.dimension, (), target.convention))
        return None if isinstance(result, Certificate) else result.witness

    @staticmethod
    def pairings(witness):
        """The witness's pairing numerators with each Schur generator;
        every denominator is positive."""
        gens = generators(witness.dimension, (), witness.convention)
        return [sum(map(mul, witness.numerators, f.numerators)) for f in gens.functionals()]

    @staticmethod
    def one_coordinate(pairings):
        nonzero = [x for x in pairings if x]
        return len(nonzero) == 1 and nonzero[0] < 0

    @staticmethod
    def random_targets(n):
        rng = random.Random(n)
        return {
            (convention, index): ChernFunctional(
                n, convention, [rng.randint(-9, 9) for _ in weight_basis(n)], 1
            )
            for convention in (COT, TAN)
            for index in range(10)
        }

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("mode", SIGN_MODES)
    def test_chi_witnesses_pair_with_one_generator(self, n, mode):
        witnesses = [self.witness(t) for t in signed_chi_targets(n, mode)]
        witnessed = [self.pairings(w) for w in witnesses if w is not None]
        assert witnessed
        assert all(self.one_coordinate(pairings) for pairings in witnessed)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_witnesses_pair_with_one_generator(self, n):
        witnessed = {}
        for key, target in self.random_targets(n).items():
            witness = self.witness(target)
            if witness is not None:
                witnessed[key] = self.pairings(witness)
        others = [key for key, pairings in witnessed.items() if not self.one_coordinate(pairings)]
        assert witnessed and others == self.DEGENERATE.get(n, [])
        assert all(sum(1 for x in witnessed[key] if x) == 2 for key in others)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_row_witnesses_are_dual_optimal(self, n):
        # The phase-1 dual is: maximize w.t subject to w.P_b <= 0 for every
        # b, w_mu >= -1 where t_mu < 0 and w_mu <= 1 elsewhere.  Row b of K
        # (g = K t, the Schur coordinates) pairs to delta_ab with P_a and
        # holds Kostka numbers, all >= 0, so for g_b < 0 the functional -K_b
        # scaled to min{w_mu : t_mu < 0} = -1 is a feasible dual, and the
        # simplex's witness, optimal, attains the largest w.t among them.
        kostka = kostka_rows(n)
        assert all(k >= 0 for row in kostka for k in row)
        targets = [t for mode in SIGN_MODES for t in signed_chi_targets(n, mode)]
        checked = 0
        for target in [*targets, *self.random_targets(n).values()]:
            witness = self.witness(target)
            if witness is None or not self.one_coordinate(self.pairings(witness)):
                continue
            t = target.coeffs
            negative = [mu for mu, x in enumerate(t) if x < 0]

            def value(w):
                return sum(map(mul, w, t)) / -min(w[mu] for mu in negative)

            g = [sum(map(mul, row, t)) for row in kostka]
            best = max(value([-k for k in row]) for row, g_b in zip(kostka, g) if g_b < 0)
            assert value(witness.coeffs) == best > 0
            checked += 1
        assert checked


class TestChiSignReports:
    def test_dim1_cotangent_all_certified(self):
        report = certify_chi_signs(1, "nef_cotangent")
        assert isinstance(report, ChiSignReport)
        assert report.all_certified
        for row in report.rows:
            assert row.target == functional(1, "1*c1")
            assert row.scale == 2

    def test_dim3_cotangent_boundary_rows(self):
        report = certify_chi_signs(3, "nef_cotangent")
        top = report.rows[3]
        assert top.status == "certified"
        assert nonzero_coefficients(top.result) == {
            "P_(3,0,0)": Fraction(1),
            "P_(2,1,0)": Fraction(1),
        }
        assert report.rows[0].status == "certified"

    def test_dim4_with_assumptions(self):
        report = certify_chi_signs(4, "nef_cotangent", ("my4", "c1top"))
        assert report.rows[4].status == "certified"
        assert report.rows[0].status == "certified"

    def test_the_report_lists_the_tags_it_was_given_once(self):
        # an iterator is read once, so the report names the rows it used
        report = certify_chi_signs(2, "nef_cotangent", iter(["my2"]))
        assert report.assumptions == ("my2", "schur")
        assert report == certify_chi_signs(2, "nef_cotangent", ("my2",))

    def test_dim4_schur_only_leaves_top_open(self):
        report = certify_chi_signs(4, "nef_cotangent")
        assert report.rows[4].status == "open"
        assert isinstance(report.rows[4].result, Infeasibility)

    def test_tangent_mode_uses_tangent_generators(self):
        report = certify_chi_signs(3, "nef_tangent")
        assert report.convention is TAN
        assert report.rows[0].status == "certified"
        assert report.rows[3].status == "certified"
        # interior rows are not provable from Schur positivity alone
        assert report.rows[1].status == "open"

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            certify_chi_signs(2, "nef-cotangent")

    @pytest.mark.parametrize("mode", SIGN_MODES)
    def test_dual_rows_share_target_scale_and_result(self, mode):
        # Serre duality chi^p = (-1)^n chi^{n-p}, and chi_sign(n, p) =
        # (-1)^n chi_sign(n, n - p), so rows p and n - p ask one question
        for n in range(1, 11):
            rows = certify_chi_signs(n, mode).rows
            for p in range(n + 1):
                twin = rows[n - p]
                assert rows[p].target == twin.target, (n, p)
                assert rows[p].scale == twin.scale, (n, p)
                assert rows[p].result == twin.result, (n, p)

    def test_both_modes_certify_the_same_rows(self):
        # under nef_tangent the target is the nef_cotangent one flipped to
        # tangent variables, (-1)^n times its coefficients, with the sign
        # (-1)^n times its sign: the same row over the same Schur rows, so the
        # two modes ask one question in two conventions, and their whole
        # reports agree but for the mode, the convention and those signs
        compared = 0
        for n in range(1, 11):
            extras = [()] + [(f"my{n}",)] * (n in (2, 4))  # my2, my4: n = 2, 4 only
            for extra in extras:
                for c1top in ((), ("c1top",)) if n < 10 else ((),):
                    tags = extra + c1top
                    cotangent = certify_chi_signs(n, "nef_cotangent", tags).to_json_dict()
                    tangent = certify_chi_signs(n, "nef_tangent", tags).to_json_dict()
                    for report in (cotangent, tangent):
                        del report["mode"], report["convention"]
                    for row in tangent["rows"]:
                        row["sign"] *= (-1) ** n
                    assert cotangent == tangent, (n, tags)
                    compared += len(tangent["rows"])
        assert compared == 135

    def test_c1top_never_changes_a_row(self):
        # c_1^n = sum_lambda f^lambda s_lambda with every f^lambda > 0
        # (Macdonald I.7), so the reduced cost of the c1top column is a
        # positive combination of the Schur columns' and Bland's rule never
        # lets it enter: a certificate gives it 0, which JSON omits
        compared = 0
        for n in range(1, 10):
            for extra in [()] + [(f"my{n}",)] * (n in (2, 4)):
                for mode in SIGN_MODES:
                    without = certify_chi_signs(n, mode, extra)
                    with_c1top = certify_chi_signs(n, mode, ("c1top",) + extra)
                    for row, twin in zip(without.rows, with_c1top.rows, strict=True):
                        assert row.to_json_dict() == twin.to_json_dict(), (n, mode, extra, row.p)
                        compared += 1
        assert compared == 124

    def test_c1top_never_changes_an_inline_result(self):
        # the same for seeded targets, half of them in the cone by construction
        rng = random.Random(20261019)
        compared = certified = 0
        for n in range(1, 9):
            for extra in [()] + [(f"my{n}",)] * (n in (2, 4)):
                for convention in (COT, TAN):
                    gens = generators(n, extra, convention)
                    with_c1top = generators(n, ("c1top",) + extra, convention)
                    columns = [f.numerators for f in gens.functionals()]
                    size = len(columns[0])
                    for k in range(24):
                        if k % 2:
                            weights = [rng.randint(0, 3) for _ in columns]
                            rhs = combination(weights, columns)
                        else:
                            rhs = [rng.randint(-4, 4) for _ in range(size)]
                        target = ChernFunctional(n, convention, rhs, 1)
                        result = certify(target, gens)
                        assert result.to_json_dict() == certify(target, with_c1top).to_json_dict()
                        compared += 1
                        certified += isinstance(result, Certificate)
        assert compared == 480 and certified >= 240

    @pytest.mark.parametrize("mode", SIGN_MODES)
    def test_each_distinct_target_is_solved_once(self, mode, monkeypatch):
        import chigenus.cone as cone

        targets = []
        solve = cone.certify
        monkeypatch.setattr(cone, "certify", lambda t, g: targets.append(t) or solve(t, g))
        for n in range(1, 9):
            targets.clear()
            report = certify_chi_signs(n, mode)
            assert len(targets) == len({row.target for row in report.rows}) == n // 2 + 1


VERDICTS = pathlib.Path(__file__).parent / "golden" / "verdicts.txt"


def assumption_sets(n):
    """Every assumption set `certify --dim n` accepts: any of the opt-in
    tags that `generators` takes at n, beside the Schur family."""
    for k in range(len(ASSUMPTION_TAGS) + 1):
        for extra in itertools.combinations(ASSUMPTION_TAGS, k):
            try:
                generators(n, extra)
            except ValueError:  # my2 or my4 outside its dimension
                continue
            yield extra


def verdict_lines(n):
    """The lines of `VERDICTS` for dimension n: `n mode assumptions p
    status`, one per `certify_chi_signs` row, for both modes."""
    return [
        f"{n} {mode} {','.join(report.assumptions)} {row.p} {row.status}"
        for mode in SIGN_MODES
        for tags in assumption_sets(n)
        for report in [certify_chi_signs(n, mode, tags)]
        for row in report.rows
    ]


class TestVerdictTable:
    """`tests/golden/verdicts.txt` lists the status of every row of
    `certify_chi_signs` for n = 1..12, so a change of witness bytes can be
    shown to move no verdict.  The rows for n <= 9 are recomputed here."""

    LINES = [line for line in VERDICTS.read_text().splitlines() if not line.startswith("#")]

    def rows(self, n):
        return [line for line in self.LINES if line.split()[0] == str(n)]

    def test_the_table_holds_every_row_for_n_1_to_12(self):
        keys = [line.rsplit(" ", 1)[0] for line in self.LINES]
        expected = [
            f"{n} {mode} {','.join(sorted(('schur', *tags)))} {p}"
            for n in range(1, 13)
            for mode in SIGN_MODES
            for tags in assumption_sets(n)
            for p in range(n + 1)
        ]
        assert keys == expected
        assert {line.rsplit(" ", 1)[1] for line in self.LINES} == {"certified", "open"}

    @pytest.mark.parametrize("n", range(1, 10))
    def test_recomputed_rows_match(self, n):
        assert verdict_lines(n) == self.rows(n)

    def test_schur_only_rows_follow_the_sign_of_their_schur_coordinates(self):
        # the Schur polynomials are a basis, and c_1^n lies in their cone, so
        # with "schur" or "c1top,schur" row p is certified iff (-1)^p chi^p
        # has no negative Schur coordinate: (-1)^p [y^p] h_lambda(y) >= 0
        # for every lambda, in either mode (the oracle uses no Kostka number)
        checked = 0
        for line in self.LINES:
            n, _, tags, p, status = line.split()
            if tags in ("schur", "c1top,schur"):
                p = int(p)
                certified = all((-1) ** p * h[p] >= 0 for h in chi_y_schur_coordinates(int(n)))
                assert status == ("certified" if certified else "open"), line
                checked += 1
        assert checked == 4 * sum(n + 1 for n in range(1, 13))


class TestGeneratorSetIsItsTags:
    """A generator set is its fields (dimension, convention, tags): it
    names the Schur family and the opt-in rows without building a row, and
    builds the rows once, on the first `functionals()`."""

    @pytest.fixture
    def no_catalog(self, monkeypatch):
        import chigenus.cone as cone

        monkeypatch.setattr(cone, "_schur_rows", lambda *a: pytest.fail("catalog built"))

    @pytest.fixture
    def builds(self, monkeypatch):
        import chigenus.cone as cone

        calls = []
        build = cone._schur_rows
        monkeypatch.setattr(cone, "_schur_rows", lambda *a: calls.append(a[1]) or build(*a))
        return calls

    def test_the_fields_are_the_tags(self):
        assert GeneratorSet._fields == ("dimension", "convention", "tags")

    @pytest.mark.parametrize(
        "n, tags", [(2, ("my2", "c1top")), (4, ("c1top", "my4")), (7, ()), (18, ("c1top",))]
    )
    @pytest.mark.parametrize("convention", [COT, TAN])
    def test_named_and_compared_without_a_row(self, no_catalog, n, tags, convention):
        gens = generators(n, tags, convention)
        twin = GeneratorSet(n, convention.value, list(tags))
        assert gens == twin and hash(gens) == hash(twin)
        assert gens != generators(n, tags, TAN if convention is COT else COT)
        assert (gens == generators(n, tags[:-1], convention)) == (not tags)
        assert (gens.dimension, gens.convention, gens.tags) == (n, convention, tags)
        assert repr(gens) == (
            f"GeneratorSet(dimension={n}, convention={convention!r}, tags={tags!r})"
        )
        assert gens.names() == (*map(partition_label, partitions_of(n)), *tags)
        assert len(gens) == len(partitions_of(n)) + len(tags)

    @pytest.mark.parametrize("n, tags", [(2, ("c1top", "my2")), (4, ("my4",)), (5, ())])
    def test_rows_are_built_once_when_read(self, builds, n, tags):
        gens = generators(n, tags, TAN)
        assert builds == []
        rows = gens.functionals()
        assert builds == [n] and gens.functionals() is rows
        assert gens == generators(n, tags, TAN) and len(rows) == len(gens)
        # the Schur polynomials of the tangent bundle: the same rows, tagged tangent
        schur_rows = [schur(a, n).numerators for a in partitions_of(n)]
        assert [f.numerators for f in rows[: len(schur_rows)]] == schur_rows
        assert all(f.dimension == n and f.convention is TAN for f in rows)

    @pytest.mark.parametrize("mode", SIGN_MODES)
    def test_a_report_builds_the_catalog_once(self, builds, mode):
        for n in range(1, 9):
            certify_chi_signs(n, mode, ("c1top",))
            assert builds == [n]
            builds.clear()

    def test_a_bad_dimension_is_refused_before_a_row(self, no_catalog):
        for n in (-1, True, 2.0, None):
            with pytest.raises(InvalidPartition):
                generators(n)

    def test_convention_is_normalized(self):
        assert GeneratorSet(2, "cotangent", ()).convention is COT


class TestIntegerReVerification:
    """`verify_certificate` and the witness checks of `certify` work on
    integer numerators over positive denominators, so cross-multiplied sums
    and numerator signs decide them exactly.  Both checks re-run on every
    answer of the simplex: they are the proof."""

    @pytest.mark.parametrize("mode", SIGN_MODES)
    def test_my4_certificates_reverify(self, mode):
        # my4 = (5/2) c1^2 c2 - c1^4 is the one generator row over 2
        gens = generators(4, ("my4",), mode_convention(mode))
        my4 = gens.functionals()[-1]
        assert (my4.numerators, my4.denominator) == ((-2, 5, 0, 0, 0), 2)
        certificates = [
            row.result
            for row in certify_chi_signs(4, mode, ("my4",)).rows
            if isinstance(row.result, Certificate)
        ]
        own = certify(my4, gens)
        assert nonzero_coefficients(own) == {"my4": 1}
        for cert in [*certificates, own, certify(my4.scaled(Fraction(6, 7)), gens)]:
            assert verify_certificate(cert, gens)
            assert cert.denominator > 0

    def test_my4_coefficient_over_two(self):
        gens = generators(4, ("my4", "c1top"))
        cert = certify(functional(4, "-1*c1^4 + 4*c1^2*c2 + 1*c1*c3 + 3*c2^2 - 1*c4"), gens)
        assert cert.denominator == 2
        assert verify_certificate(cert, gens)

    def chain(self):
        gens = generators(4, ("my4", "c1top"))
        target, _ = signed_target(chi_p(4, 4), 1, "nef_cotangent")
        cert = certify(target, gens)
        assert isinstance(cert, Certificate) and cert.denominator > 1
        return cert, gens

    @pytest.mark.parametrize("index", range(7))
    @pytest.mark.parametrize("step", [1, -1])
    def test_a_coefficient_off_by_one_over_the_denominator_is_refused(self, index, step):
        cert, gens = self.chain()
        numerators = list(cert.numerators)
        numerators[index] += step
        forged = Certificate(cert.target, cert.generator_names, numerators, cert.denominator)
        assert not verify_certificate(forged, gens)

    def test_a_negative_coefficient_is_refused(self):
        cert, gens = self.chain()
        index = next(i for i, c in enumerate(cert.numerators) if c)
        numerators = list(cert.numerators)
        numerators[index] = -numerators[index]
        forged = Certificate(cert.target, cert.generator_names, numerators, cert.denominator)
        assert not verify_certificate(forged, gens)

    def test_a_scaled_certificate_is_the_same_certificate(self):
        cert, gens = self.chain()
        tripled = [3 * c for c in cert.numerators]
        scaled = Certificate(cert.target, cert.generator_names, tripled, 3 * cert.denominator)
        assert scaled == cert and hash(scaled) == hash(cert)
        assert verify_certificate(scaled, gens)

    def forge(self, monkeypatch, answer):
        import chigenus.cone as cone

        monkeypatch.setattr(cone, "_phase_one", lambda columns, rhs: answer)

    def test_a_witness_pairing_positively_with_a_generator_is_refused(self, monkeypatch):
        gens = generators(2)  # P_(2,0) = c2, P_(1,1) = c1^2 - c2
        # w = c1^2 + 2 c2 separates the target c1^2 but pairs 2/3 with P_(2,0)
        self.forge(monkeypatch, ("infeasible", (1, 2), 3))
        with pytest.raises(ConsistencyError, match=r"pairs positively with P_\(2,0\)"):
            certify(functional(2, "1*c1^2"), gens)

    def test_a_witness_that_does_not_separate_is_refused(self, monkeypatch):
        gens = generators(2)
        # w = -c1^2 pairs 0 and -1/5 with the generators, and -1/5 with c1^2
        self.forge(monkeypatch, ("infeasible", (-1, 0), 5))
        with pytest.raises(ConsistencyError, match="does not separate"):
            certify(functional(2, "1*c1^2"), gens)

    def test_a_wrong_combination_is_refused(self, monkeypatch):
        gens = generators(2)
        # c1^2 = P_(2,0) + P_(1,1); claim half of each
        self.forge(monkeypatch, ("feasible", (1, 1), 2))
        with pytest.raises(ConsistencyError, match="invalid certificate"):
            certify(functional(2, "1*c1^2"), gens)
