from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chigenus.poly import (
    DimensionMismatch,
    GradedPoly,
    ParseError,
    as_rational,
    mono_key,
    monomials_of_weight,
    parse_decimal,
    weight_basis,
)

from conftest import graded_polys, poly_pairs, poly_triples


def P(dim, text):
    return GradedPoly.from_text(dim, text)


class TestRationalGate:
    def test_accepts_exact_inputs(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational(Fraction(-2, 6)) == Fraction(-1, 3)

    @pytest.mark.parametrize("bad", [0.5, 1.0, complex(1), True, None, [1]])
    def test_rejects_inexact_inputs(self, bad):
        with pytest.raises((TypeError, ParseError)):
            as_rational(bad)

    def test_constructor_rejects_floats(self):
        with pytest.raises(TypeError):
            GradedPoly(2, {(1, 0): 0.5})
        with pytest.raises(TypeError):
            GradedPoly.variable(2, 1) * 0.5

    def test_decimal_integers(self):
        assert parse_decimal("12") == 12
        assert parse_decimal("-8") == -8
        assert parse_decimal("007") == 7

    @pytest.mark.parametrize("bad", ["", "-", "+1", "1_2", " 1", "1 ", "\u0661", "1.0", "0x1"])
    def test_decimal_rejects_other_int_literals(self, bad):
        with pytest.raises(ParseError):
            parse_decimal(bad)

    def test_reduced_form(self):
        poly = GradedPoly(2, {(1, 0): Fraction(2, 4)})
        coef = poly.coefficient((1, 0))
        assert (coef.numerator, coef.denominator) == (1, 2)


class TestAdd:
    def test_additive_inverse(self):
        c1 = GradedPoly.variable(3, 1)
        assert c1 + -c1 == GradedPoly.zero(3)

    def test_dim2_cone_decomposition(self):
        # (c1^2 - c2) + (2 c2) = c1^2 + c2; the two summands are the
        # dimension-2 Schur generators, cross-checked in test_symchern
        left = P(2, "1*c1^2 - 1*c2")
        right = P(2, "2*c2")
        assert left + right == P(2, "1*c1^2 + 1*c2")

    def test_schur_sum_dim3(self):
        # (c1 c2 - c3) + c3 = c1 c2
        assert P(3, "1*c1*c2 - 1*c3") + P(3, "1*c3") == P(3, "1*c1*c2")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GradedPoly.one(2) + GradedPoly.one(3)


class TestMul:
    def test_plain_product(self):
        c1 = GradedPoly.variable(3, 1)
        c2 = GradedPoly.variable(3, 2)
        assert c1 * c2 == P(3, "1*c1*c2")

    def test_truncation(self):
        c1 = GradedPoly.variable(1, 1)
        assert c1 * c1 == GradedPoly.zero(1)

    def test_weight_four(self):
        c1sq = P(4, "1*c1^2")
        c2 = GradedPoly.variable(4, 2)
        assert c1sq * c2 == P(4, "1*c1^2*c2")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GradedPoly.one(2) * GradedPoly.one(3)

    @given(
        st.integers(0, 6).flatmap(
            lambda dim: st.tuples(graded_polys(dim, max_terms=12), graded_polys(dim, max_terms=12))
        )
    )
    def test_matches_all_pairs_product(self, pair):
        a, b = pair
        acc = {}
        for ma, ca in a.terms().items():
            for mb, cb in b.terms().items():
                m = tuple(x + y for x, y in zip(ma, mb))
                if sum((i + 1) * e for i, e in enumerate(m)) <= a.dim:
                    acc[m] = acc.get(m, Fraction(0)) + ca * cb
        assert a * b == GradedPoly(a.dim, acc)


class TestRingAxioms:
    @given(poly_triples())
    def test_associativity_and_distributivity(self, polys):
        a, b, c = polys
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_pairs())
    def test_commutativity(self, pair):
        a, b = pair
        assert a + b == b + a
        assert a * b == b * a

    @given(poly_pairs())
    def test_neutral_elements(self, pair):
        a, _ = pair
        assert a + GradedPoly.zero(a.dim) == a
        assert a * GradedPoly.one(a.dim) == a


class TestTopCoefficients:
    def test_todd_like_poly_dim2(self):
        poly = P(2, "1 + 1/2*c1 + 1/12*c1^2 + 1/12*c2")
        assert weight_basis(2) == ((2, 0), (0, 1))
        assert poly.top_coefficients() == (Fraction(1, 12), Fraction(1, 12))

    def test_dim3_mixed(self):
        poly = P(3, "1/2*c1 + 1/24*c1*c2")
        # basis: c1^3, c1*c2, c3
        assert poly.top_coefficients() == (0, Fraction(1, 24), 0)

    def test_zero(self):
        assert GradedPoly.zero(4).top_coefficients() == (0,) * 5

    @given(poly_pairs())
    def test_top_of_product_uses_complementary_weights(self, pair):
        a, b = pair
        n = a.dim
        direct = (a * b).top_coefficients()
        convolved = GradedPoly.zero(n)
        for k in range(n + 1):
            convolved = convolved + a.graded_part(k) * b.graded_part(n - k)
        assert direct == convolved.top_coefficients()


class TestCanonicalOrder:
    def test_weight4_basis_order(self):
        # c1^4, c1^2 c2, c1 c3, c2^2, c4
        assert weight_basis(4) == (
            (4, 0, 0, 0),
            (2, 1, 0, 0),
            (1, 0, 1, 0),
            (0, 2, 0, 0),
            (0, 0, 0, 1),
        )

    def test_basis_sizes_match_partition_counts(self):
        from oracles import partition_count

        for n in range(9):
            assert len(weight_basis(n)) == partition_count(n)

    def test_mono_key_sorts_weight_first(self):
        monos = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (3, 0, 0)]
        ordered = sorted(monos, key=mono_key)
        assert ordered == [(1, 0, 0), (0, 1, 0), (3, 0, 0), (1, 1, 0), (0, 0, 1)]

    def test_monomials_of_weight_zero(self):
        assert monomials_of_weight(0, 0) == ((),)
        assert monomials_of_weight(3, 0) == ((0, 0, 0),)


class TestSerialization:
    def test_spec_string_round_trips(self):
        text = "-1*c1^4 + 4*c1^2*c2 + 1*c1*c3 + 3*c2^2 - 1*c4"
        assert GradedPoly.from_text(4, text).to_text() == text

    def test_rational_coefficients(self):
        text = "1/12*c1^2 + 1/12*c2"
        assert GradedPoly.from_text(2, text).to_text() == text

    def test_constant_and_zero(self):
        assert GradedPoly.zero(3).to_text() == "0"
        assert GradedPoly.from_text(3, "0") == GradedPoly.zero(3)
        assert GradedPoly.constant(2, Fraction(-3, 4)).to_text() == "-3/4"
        assert GradedPoly.from_text(2, "-3/4").to_text() == "-3/4"

    def test_tolerant_input_forms(self):
        assert GradedPoly.from_text(3, "c_1*c_2 - c3") == P(3, "1*c1*c2 - 1*c3")
        assert GradedPoly.from_text(2, "c1^2") == P(2, "1*c1^2")

    @pytest.mark.parametrize(
        "bad",
        [
            "", "c5", "c1^3", "1*", "*c1", "c1 +", "x1", "1.5*c1", "c1^-1", "c0",
            "1/0*c1^2", "c2 - 3/0*c1^2", "1/0",
        ],
    )
    def test_rejects_malformed_text(self, bad):
        with pytest.raises(ParseError):
            GradedPoly.from_text(2, bad)

    @given(poly_pairs())
    def test_text_round_trip_is_identity(self, pair):
        a, _ = pair
        text = a.to_text()
        assert GradedPoly.from_text(a.dim, text) == a
        assert GradedPoly.from_text(a.dim, text).to_text() == text

    @given(poly_pairs())
    def test_json_round_trip(self, pair):
        a, _ = pair
        assert GradedPoly.from_json(a.to_json()) == a

    @pytest.mark.parametrize(
        "bad",
        [
            {"dim": 2, "terms": [{}]},
            {"dim": 2, "terms": 5},
            {"dim": 2, "terms": [{"exps": [2, 0], "num": "1", "den": "0"}]},
            {"dim": 2, "terms": [{"exps": [2, 0], "num": "x", "den": "1"}]},
            {"dim": 2, "terms": [{"exps": [3, 0], "num": "1", "den": "1"}]},
            {"terms": []},
            [1],
            {"dim": 2, "terms": [{"exps": [2, 0], "num": 1.5, "den": 1}]},
            {"dim": 2, "terms": [{"exps": [2, 0], "num": "1", "den": 2.0}]},
            {"dim": 2, "terms": [{"exps": [2, 0], "num": True, "den": "1"}]},
            {"dim": 2, "terms": [{"exps": [2, 0], "num": "1.5", "den": "1"}]},
            {"dim": 2, "terms": [{"exps": [2, 0], "num": None, "den": "1"}]},
        ],
    )
    def test_rejects_malformed_json(self, bad):
        with pytest.raises(ParseError):
            GradedPoly.from_json_dict(bad)

    def test_json_accepts_integer_parts(self):
        obj = {"dim": 2, "terms": [{"exps": [2, 0], "num": -3, "den": "4"}]}
        assert GradedPoly.from_json_dict(obj) == P(2, "-3/4*c1^2")

    def test_json_shape(self):
        payload = GradedPoly.from_text(2, "1/12*c1^2 + 1/12*c2").to_json_dict()
        assert payload == {
            "dim": 2,
            "terms": [
                {"exps": [2, 0], "num": "1", "den": "12"},
                {"exps": [0, 1], "num": "1", "den": "12"},
            ],
        }


class TestInvariants:
    def test_no_zero_terms_stored(self):
        poly = GradedPoly(2, [((1, 0), 1), ((1, 0), -1), ((0, 1), 2)])
        assert poly.terms() == {(0, 1): Fraction(2)}

    def test_weight_cap_enforced(self):
        with pytest.raises(ValueError):
            GradedPoly(2, {(3, 0): 1})

    @given(st.integers(0, 6))
    def test_immutable_sharing(self, dim):
        a = GradedPoly.one(dim)
        b = a + a
        assert a == GradedPoly.one(dim)
        assert b.coefficient((0,) * dim) == 2
