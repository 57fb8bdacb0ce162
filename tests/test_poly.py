import ast
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chigenus
from chigenus.poly import (
    BasisConvention,
    ChernFunctional,
    DimensionMismatch,
    InvalidPartition,
    ParseError,
    as_rational,
    mono_key,
    mono_weight,
    parse_decimal,
    partitions_of,
    weight_basis,
)

from conftest import graded_polys, poly_pairs, poly_triples
from oracles import GradedPoly


# `GradedPoly` is the truncated ring of the oracles: the tests below pin the
# ring arithmetic the oracles build on, and the term grammar it shares with
# the program (`parse_terms` and `terms_text`).


def P(dim, text):
    return GradedPoly.from_text(dim, text)


class TestRationalGate:
    def test_accepts_exact_inputs(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational(Fraction(-2, 6)) == Fraction(-1, 3)

    @pytest.mark.parametrize(
        "bad", [0.5, 1.0, complex(1), True, None, [1], "1_0", " 2e1 ", "\u0663", "0.5"]
    )
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

    @pytest.mark.parametrize("n", range(15))
    def test_basis_is_every_weight_n_monomial_in_order(self, n):
        # p(n) distinct exponent tuples of length n and weight n are all of
        # them, whatever enumerated the partitions
        from oracles import partition_count

        basis = weight_basis(n)
        assert len(set(basis)) == len(basis) == partition_count(n)
        assert all(len(m) == n and mono_weight(m) == n for m in basis)
        assert list(basis) == sorted(basis, key=mono_key)

    def test_the_package_exports_the_partitions_of_poly(self):
        import chigenus.symchern

        assert chigenus.partitions_of is chigenus.poly.partitions_of
        assert chigenus.symchern.partitions_of is chigenus.poly.partitions_of
        assert chigenus.InvalidPartition is chigenus.poly.InvalidPartition

    def test_mono_key_sorts_weight_first(self):
        monos = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (3, 0, 0)]
        ordered = sorted(monos, key=mono_key)
        assert ordered == [(1, 0, 0), (0, 1, 0), (3, 0, 0), (1, 1, 0), (0, 0, 1)]

    def test_weight_zero_basis_is_the_constant(self):
        assert weight_basis(0) == ((),)

    @pytest.mark.parametrize("dim", [True, False, -1])
    def test_weight_basis_refuses_bool_or_negative(self, dim):
        # True == 1 and both hash alike: an untyped cache answers True with
        # the entry of 1 once that is cached
        weight_basis.cache_clear()
        partitions_of.cache_clear()
        with pytest.raises(ValueError):
            weight_basis(dim)
        weight_basis(abs(int(dim)))
        with pytest.raises(ValueError):
            weight_basis(dim)

    @pytest.mark.parametrize("n", [True, False, -1])
    def test_partitions_of_refuses_bool_or_negative_cold_and_warm(self, n):
        partitions_of.cache_clear()
        with pytest.raises(InvalidPartition):
            partitions_of(n)
        partitions_of(abs(int(n)))
        with pytest.raises(InvalidPartition):
            partitions_of(n)


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
            "1/0*c1^2", "c2 - 3/0*c1^2", "1/0", "\u0663*c1", "1*c\u0661^2",
            # past the 4300-digit limit of int(), which raises a plain ValueError
            *(
                pytest.param(form.format("9" * 5000), id=form.format("<5000 nines>"))
                for form in ("c1^{}", "{}*c1^2", "c{}", "1/{}*c1^2")
            ),
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


class TestTopWeightParser:
    """`ChernFunctional.from_text`, which parses inline targets, against the
    oracle ring: parse every term, then keep the text only if it equals its
    own weight-n part."""

    ALPHABET = "c_123^*+- /0"

    @staticmethod
    def via_ring(dim, text):
        try:
            poly = GradedPoly.from_text(dim, text)
        except ParseError as exc:
            return "parse", str(exc)
        if poly.graded_part(dim) != poly:
            return "weight", None
        return "ok", poly.top_coefficients()

    @staticmethod
    def via_functional(dim, text):
        try:
            f = ChernFunctional.from_text(dim, BasisConvention.TANGENT, text)
        except ParseError as exc:
            return "parse", str(exc)
        except ValueError:
            return "weight", None
        assert f.convention is BasisConvention.TANGENT
        return "ok", f.coeffs

    @given(st.integers(0, 4), st.text(ALPHABET, max_size=16))
    def test_random_text(self, dim, text):
        assert self.via_functional(dim, text) == self.via_ring(dim, text)

    @given(poly_pairs(max_dim=5))
    def test_rendered_polynomials(self, pair):
        # mostly well formed, and of mixed weight unless the draw is top
        # weight only
        a, b = pair
        for poly in (a, b, a.graded_part(a.dim), a - a.graded_part(a.dim) + b):
            text = poly.to_text()
            assert self.via_functional(a.dim, text) == self.via_ring(a.dim, text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1-1+c2", "1*c2"),
            ("c1^2-c1+c1", "1*c1^2"),
            ("c_1^2", "1*c1^2"),
            ("c1^2*c1^0", "1*c1^2"),
            ("00*c2", "0"),
            ("+c2", "1*c2"),
            ("c2 + c1*c1 - 1/2*c2", "1*c1^2 + 1/2*c2"),
        ],
    )
    def test_terms_are_summed_before_the_weight_check(self, text, expected):
        f = ChernFunctional.from_text(2, BasisConvention.COTANGENT, text)
        assert f.to_text() == expected

    @pytest.mark.parametrize("text", ["1", "c1", "c1 + c2", "c2 + 1 - 2"])
    def test_lower_weight_left_over_is_refused(self, text):
        with pytest.raises(ValueError) as info:
            ChernFunctional.from_text(2, BasisConvention.COTANGENT, text)
        assert not isinstance(info.value, ParseError)

    def test_terms_are_the_nonzero_coefficients(self):
        f = ChernFunctional.from_text(3, BasisConvention.COTANGENT, "1/24*c1*c2 - c3")
        assert f.terms() == {(0, 0, 1): Fraction(-1), (1, 1, 0): Fraction(1, 24)}
        assert ChernFunctional(2, BasisConvention.COTANGENT, (0, 0)).terms() == {}


class TestOneRepresentation:
    """The program holds each weight-n value as a `ChernFunctional`, a
    coefficient row that scales and pairs, over the one basis that
    `weight_basis` builds from `partitions_of`.  The truncated ring and the
    helpers that went with it live in the oracles; the second monomial
    enumerator and the functional sums are gone."""

    GONE = {
        "GradedPoly",
        "top_part",
        "flip_basis",
        "segre_top",
        "monomials_of_weight",
        "is_zero",
        "_check_compatible",
    }
    SOURCES = sorted(pathlib.Path(chigenus.__file__).parent.glob("*.py"))

    @pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
    def test_no_module_defines_or_imports_the_ring(self, path):
        tree = ast.parse(path.read_text(), filename=str(path))
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                named.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(alias.asname or alias.name.split(".")[-1] for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.update(re.findall(r"\w+", node.value))  # `__all__`, `_HOMES`
        assert not named & self.GONE, path.name

    def test_the_package_does_not_export_them(self):
        assert not self.GONE & set(chigenus.__all__)
        assert not self.GONE & set(chigenus._HOMES)
        for name in self.GONE:
            with pytest.raises(AttributeError):
                getattr(chigenus, name)
