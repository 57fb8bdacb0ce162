import ast
import importlib
import inspect
import json
import math
import pathlib
import random
import re
import sys
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
    lowest_terms,
    mono_key,
    mono_text,
    mono_weight,
    parse_decimal,
    parse_json,
    parse_terms,
    partitions_of,
    rational_parts,
    rational_text,
    weight_basis,
)

from conftest import fraction_rows, graded_polys, poly_pairs, poly_triples, rationals
from oracles import GradedPoly, flagged_parse_terms, json_loads_parse


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

    @pytest.mark.parametrize("n", range(9))
    def test_partitions_are_padded_to_length_n(self, n):
        assert all(len(p) == n and sum(p) == n for p in partitions_of(n))

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

    def test_parse_json_refuses_only_a_repeated_key(self):
        assert parse_json('{"a": 1, "b": {}, "c": [{"d": 2}]}') == {"a": 1, "b": {}, "c": [{"d": 2}]}
        with pytest.raises(ValueError, match="repeated key 'a'"):
            parse_json('{"a": 1, "b": 2, "a": 1}')

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

    @pytest.mark.parametrize("text", [None, b"c1^2", 2, ["c1^2"]])
    def test_text_that_is_not_a_str_is_a_type_error(self, text):
        with pytest.raises(TypeError) as info:
            ChernFunctional.from_text(2, BasisConvention.COTANGENT, text)
        assert str(info.value) == f"polynomial text must be a str, not {type(text).__name__}"

    def test_terms_are_the_nonzero_coefficients(self):
        f = ChernFunctional.from_text(3, BasisConvention.COTANGENT, "1/24*c1*c2 - c3")
        assert f.terms() == {(0, 0, 1): Fraction(-1), (1, 1, 0): Fraction(1, 24)}
        assert ChernFunctional(2, BasisConvention.COTANGENT, (0, 0), 1).terms() == {}


class TestOnePassTerms:
    """`parse_terms` reads each term in one pass: a coefficient may only
    lead it.  Against the two-flag parser it replaced, on seeded random
    text built from pieces of the grammar: the same terms, or the same
    exception and message."""

    # grammar fragments: pieces of a term, what joins them, and signs
    PIECES = ["c1", "c2", "c_3", "c4", "c1^2", "c2^0", "c0", "2", "-1", "2/3", "1/0", "0", "x", "", " "]
    JOINS = ["*", " * ", "*\t", "**", "^2*"]
    SIGNS = ["+ ", " - ", "+", "-", "\t+\t", "+-"]

    def random_text(self, rng):
        text = rng.choice(["", *self.SIGNS])
        for k in range(rng.randint(1, 3)):
            pieces = rng.choices(self.PIECES, k=rng.randint(1, 4))
            text += rng.choice(self.SIGNS) if k else ""
            text += "".join(piece + rng.choice(self.JOINS) for piece in pieces[:-1]) + pieces[-1]
        return text

    @staticmethod
    def outcome(parse, dim, text):
        try:
            return parse(dim, text)
        except Exception as exc:
            return type(exc), str(exc)

    def test_matches_the_two_flag_parser(self):
        rng = random.Random(34)
        seen = set()
        for _ in range(10_000):
            dim, text = rng.choice((1, 2, 4)), self.random_text(rng)
            expected = self.outcome(flagged_parse_terms, dim, text)
            assert self.outcome(parse_terms, dim, text) == expected, (dim, text)
            seen.add("terms" if isinstance(expected, list) else re.match("[a-z ]*", expected[1])[0])
        # parsed terms and every refusal short of the digit limit were drawn
        assert seen == {
            "terms",
            "empty polynomial text",
            "empty term in ",
            "empty factor in term ",
            "misplaced coefficient in ",
            "bad factor ",
            "bad rational literal ",
            "variable c",
            "monomial c",
        }

    @pytest.mark.parametrize(
        "text, message",
        [
            ("c1*2", "misplaced coefficient in 'c1*2'"),
            ("2*3*c1", "misplaced coefficient in '2*3*c1'"),
            ("2*c1*1/0", "misplaced coefficient in '2*c1*1/0'"),
            ("1/0*c1", "bad rational literal '1/0'"),
            ("* 2", "empty factor in term '* 2'"),
        ],
    )
    def test_a_coefficient_only_leads_its_term(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_terms(2, text)
        assert str(info.value) == message


class TestScannerReader:
    """`parse_json` runs `json`'s C scanner without the `json` package.
    Against `json.loads` with the same hooks, the reader it replaced, on
    seeded mutations of the corpus lines and on drawn text: the same value
    of the same types, or the same exception and message."""

    DATA = pathlib.Path(__file__).parent / "data"
    DEEP = 5000  # past the interpreter's recursion limit
    CASES = [
        # a BOM, whitespace and what follows the value
        "\ufeff{}", "\ufeff", " \ufeff1", " \t\n\r[1] \t\n\r", "1 2", '{"a": 1} x', "[]]",
        "", " ", "\x0c1", "1\x0c", "\x0b1", "\u00a01", "\u20281", "\u00851",
        # strings: control characters, escapes and lone surrogates
        '"a\x00b"', '"tab\there"', '"\x1f"', '"new\nline"', '"\\u00e9\\u0041"', '"\\ud800"',
        '"\\udc00\\ud800"', '"\\ud83d\\ude00"', '"\\u12"', '"\\x41"', '"\\uZZZZ"', '"\ud800"',
        '"open', '{"a', '{"a":"b',
        # numbers, the digit limit and the constants JSON has not
        "9" * 4300, "9" * 4301, "-" + "9" * 4301, "[%s]" % ("9" * 4301), "1" + "0" * 4300 + ".5",
        "NaN", "Infinity", "-Infinity", "[NaN]", '{"a": -Infinity}', "nan", "-NaN", "+1", "01",
        "1.", ".5", "1e5", "1E+5", "-0", "-0.0", "1.5e-3", "1e400",
        # objects: repeated keys and broken punctuation
        '{"a": 1, "a": 2}', '{"a": {"b": 1, "b": 1}}', '[{"x": 1}, {"x": 2, "x": 3}]',
        '{"a" 1}', "{1: 2}", '{"a": 1,}', "[1,]", "[,1]", '{"a": 1 "b": 2}',
        # nesting past the recursion limit, and bare scalars
        "[" * DEEP + "]" * DEEP, '{"a":' * DEEP + "1" + "}" * DEEP, "[" * DEEP,
        "true", "false", "null", '"s"', "1", "1.0", "tru", "nul", "[true, 1, 1.0]",
    ]
    INSERTS = [
        *'{}[]:,"\\ \t\n\r0123456789.-+eEtrufalsnNIiy',
        "\x00", "\x0c", "\x0b", "\x1f", "\ufeff", "\u00a0", "\u2028", "\ud800", "\u00e9",
        "NaN", "-Infinity", "\\u", "\\ud800", '"n":', '"n": 1, ',
    ]
    REFUSALS = {
        "Expecting value",
        "Extra data",
        "Unexpected UTF-8 BOM",
        "Expecting ',' delimiter",
        "Expecting ':' delimiter",
        "Expecting property name enclosed in double quotes",
        "Invalid control character",
        "Invalid \\escape",
        "Invalid \\uXXXX escape",
        "Unterminated string",
        "repeated key",
        "is not JSON",
        "digits",
        "JSON nests too deeply",
    }

    @staticmethod
    def outcome(read, text):
        # a value's repr tells 1 from 1.0 from True, and keeps the key order
        try:
            return repr(read(text))
        except Exception as exc:
            return type(exc), str(exc)

    def mutated(self, rng, text):
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
            kind = rng.randrange(3)
            if kind == 0:
                text = text[:j]
            elif kind == 1:
                text = text[:i] + rng.choice(self.INSERTS) + text[i:]
            elif j < len(text):
                text = text[:i] + text[j] + text[i + 1 : j] + text[i] + text[j + 1 :]
        return text

    def test_matches_json_loads(self):
        paths = sorted(self.DATA.glob("*.jsonl"))
        lines = [line for path in paths for line in path.read_text().splitlines()]
        rng = random.Random(38)
        seen = set()
        pool = lines + self.CASES
        texts = self.CASES + [self.mutated(rng, rng.choice(pool)) for _ in range(4000)]
        for text in texts:
            expected = self.outcome(json_loads_parse, text)
            assert self.outcome(parse_json, text) == expected, text[:200]
            if isinstance(expected, str):
                seen.add("value")
            else:
                seen |= {refusal for refusal in self.REFUSALS if refusal in expected[1]}
        assert seen == self.REFUSALS | {"value"}

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    )

    @given(
        st.lists(st.sampled_from(INSERTS), max_size=12).map("".join)
        | st.builds(
            json.dumps, json_values, ensure_ascii=st.booleans(), indent=st.sampled_from([None, 0, 2])
        )
    )
    def test_matches_json_loads_on_drawn_text(self, text):
        assert self.outcome(parse_json, text) == self.outcome(json_loads_parse, text)


class TestOneRepresentation:
    """The program holds each weight-n value, a polynomial's coefficients or
    a variety's Chern numbers, as a `ChernFunctional`, a row that scales and
    pairs, over the one basis that `weight_basis` builds from
    `partitions_of`.  The truncated ring and the helpers that went with it
    live in the oracles; the second monomial enumerator, the functional
    sums and the second row type are gone."""

    GONE = {
        "GradedPoly",
        "top_part",
        "flip_basis",
        "segre_top",
        "monomials_of_weight",
        "is_zero",
        "_check_compatible",
        "ChernNumberSet",
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


class TestOneHome:
    """Each public name has one home: a submodule's `__all__` lists only
    what it defines, and the modules import each name from its home."""

    SOURCES = TestOneRepresentation.SOURCES
    # the test and bench scripts, which import the package by absolute name
    ROOT = pathlib.Path(__file__).parent.parent
    SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/*.py"))

    @staticmethod
    def defines(module, name):
        """A class or function by its `__module__`; any other value by a
        top-level assignment in the module's source."""
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(inspect.unwrap(value)):
            return value.__module__ == module.__name__
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        targets = [
            target
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        ]
        return any(
            isinstance(leaf, ast.Name) and leaf.id == name
            for target in targets
            for leaf in ast.walk(target)
        )

    @pytest.mark.parametrize("home", ["poly", "symchern", "hrr", "cone", "varieties"])
    def test_all_lists_only_names_the_module_defines(self, home):
        module = importlib.import_module(f"chigenus.{home}")
        assert [name for name in module.__all__ if not self.defines(module, name)] == []

    @pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
    def test_every_relative_import_names_the_defining_module(self, path):
        tree = ast.parse(path.read_text(), filename=str(path))
        borrowed = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                module = importlib.import_module(f".{node.module or ''}", "chigenus")
                borrowed += [
                    f"{module.__name__}.{alias.name}"
                    for alias in node.names
                    if not self.defines(module, alias.name)
                ]
        assert borrowed == [], path.name

    @pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}")
    def test_every_script_import_names_the_defining_module(self, path):
        tree = ast.parse(path.read_text(), filename=str(path))
        borrowed = [
            f"{node.lineno}: {node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chigenus.")
            for alias in node.names
            if not self.defines(importlib.import_module(node.module), alias.name)
        ]
        assert borrowed == [], path.name


COT, TAN = BasisConvention.COTANGENT, BasisConvention.TANGENT


def fraction_text(n, coeffs):
    """The canonical text of a row, written from the Fractions alone."""
    pieces = []
    for mono, c in zip(weight_basis(n), coeffs):
        if c:
            body = mono_text(mono)
            chunk = f"{abs(c)}*{body}" if body else str(abs(c))
            sign = ("" if c > 0 else "-") if not pieces else ("+ " if c > 0 else "- ")
            pieces.append(sign + chunk)
    return " ".join(pieces) or "0"


class TestIntegerRow:
    """A `ChernFunctional` is integer numerators over one positive
    denominator, in lowest terms.  Every operation is checked against the
    `Fraction` arithmetic of the same coefficients, and the text and JSON
    against what `str(Fraction)` writes."""

    @given(fraction_rows())
    def test_lowest_terms_with_a_positive_denominator(self, row):
        n, convention, coeffs = row
        f = ChernFunctional(n, convention, coeffs, 1)
        assert all(type(c) is int for c in (*f.numerators, f.denominator))
        assert f.denominator > 0
        assert math.gcd(f.denominator, *f.numerators) == 1
        assert f.denominator == math.lcm(*(c.denominator for c in coeffs))

    @given(fraction_rows(), st.integers(1, 10**6))
    def test_every_construction_of_one_row_is_one_value(self, row, multiple):
        n, convention, coeffs = row
        common = math.lcm(*(c.denominator for c in coeffs))
        integers = [int(c * common) * multiple for c in coeffs]
        text = fraction_text(n, coeffs)
        rows = [
            ChernFunctional(n, convention, coeffs, 1),
            ChernFunctional(n, convention, [str(c) for c in coeffs], 1),
            ChernFunctional(n, convention, integers, common * multiple),
            ChernFunctional(n, convention, [c * multiple for c in coeffs], multiple),
            ChernFunctional.from_text(n, convention, text),
        ]
        first = rows[0]
        for other in rows[1:]:
            assert (other.numerators, other.denominator) == (first.numerators, first.denominator)
            assert other == first and hash(other) == hash(first)

    @given(fraction_rows(), rationals(10**3, 10**3))
    def test_operations_match_fraction_arithmetic(self, row, factor):
        n, convention, coeffs = row
        f = ChernFunctional(n, convention, coeffs, 1)
        sign = (-1) ** n
        assert f.coeffs == coeffs
        assert all(type(c) is Fraction for c in f.coeffs)
        assert f.scaled(factor).coeffs == tuple(c * factor for c in coeffs)
        assert f.scaled(str(factor)) == f.scaled(factor)
        assert f.flipped().coeffs == tuple(sign * c for c in coeffs)
        assert f.flipped().convention is convention.other()
        assert f.in_convention(convention.other()) == f.flipped()
        assert f.in_convention(convention) is f
        assert f.terms() == {m: c for m, c in zip(weight_basis(n), coeffs) if c}

    @given(fraction_rows(max_dim=9), st.data())
    def test_dot_matches_the_fraction_sum(self, row, data):
        # the integer accumulation over common denominators returns exactly
        # the Fraction sum of the products
        n, convention, coeffs = row
        size = len(coeffs)
        values = data.draw(st.lists(rationals(1 << 40, 1 << 20), min_size=size, max_size=size))
        expected = sum((c * v for c, v in zip(coeffs, values)), Fraction(0))
        product = ChernFunctional(n, convention, coeffs, 1).dot(values)
        assert type(product) is Fraction
        assert product == expected

    @given(fraction_rows())
    def test_text_and_json_are_what_fraction_writes(self, row):
        n, convention, coeffs = row
        f = ChernFunctional(n, convention, coeffs, 1)
        assert f.to_text() == str(f) == fraction_text(n, coeffs)
        assert f.to_json_dict() == {
            "dim": n,
            "terms": [
                {"exps": list(m), "num": str(c.numerator), "den": str(c.denominator)}
                for m, c in zip(weight_basis(n), coeffs)
                if c
            ],
        }

    @given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
    def test_rational_text_is_str_of_the_fraction(self, num, den):
        assert rational_text(num, den) == str(Fraction(num, den))
        assert rational_parts(rational_text(num, den)) == rational_parts(Fraction(num, den))

    def test_parse_edges(self):
        assert rational_parts("00012/0004") == (3, 1)
        assert rational_parts("-0") == (0, 1)
        assert rational_parts("-6/4") == (-3, 2)
        assert ChernFunctional.from_text(1, COT, "00012/0004*c1").numerators == (3,)
        assert ChernFunctional.from_text(1, COT, "-0*c1") == ChernFunctional(1, COT, (0,), 1)
        long_part = "1" * (sys.get_int_max_str_digits() + 1)
        for bad in ("1/0", "-0/0", long_part, f"1/{long_part}", f"{long_part}/3"):
            with pytest.raises(ParseError):
                rational_parts(bad)
            with pytest.raises(ParseError):
                ChernFunctional.from_text(1, COT, f"{bad}*c1")

    @pytest.mark.parametrize("den", [0, -2, True, 1.0, "2", Fraction(2)])
    def test_the_denominator_is_a_positive_int(self, den):
        with pytest.raises(ValueError):
            lowest_terms((1,), den)
        with pytest.raises(ValueError):
            ChernFunctional(1, COT, (1,), den)

    @pytest.mark.parametrize("numerator", [0.5, True, None, "1.5", "1_0"])
    def test_numerators_are_exact(self, numerator):
        with pytest.raises((TypeError, ParseError)):
            ChernFunctional(1, COT, (numerator,), 1)


class TestFractionsAtTheBoundary:
    """No module imports `fractions` when it loads; each imports it inside
    the functions that hand a Fraction to a caller."""

    SOURCES = sorted(pathlib.Path(chigenus.__file__).parent.glob("*.py"))

    @staticmethod
    def loads_fractions(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "fractions" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return node.module == "fractions"
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            return any(TestFractionsAtTheBoundary.loads_fractions(n) for n in node.orelse)
        if isinstance(node, (ast.If, ast.Try)):
            body = node.body + node.orelse + getattr(node, "finalbody", [])
            return any(TestFractionsAtTheBoundary.loads_fractions(n) for n in body)
        return False

    @pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
    def test_module_level_imports(self, path):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not any(self.loads_fractions(node) for node in tree.body), path.name


class TestOneWriter:
    """`cli.py` writes stdout at one site and stderr at one site, both in
    `main`: every command returns its text, so none prints on its own, and
    a failed write is always caught by `main`'s one handler."""

    @staticmethod
    def write_sites(tree):
        """(stream, innermost enclosing function) of each print, .write,
        .writelines or os.write call, in source order; a print's stream is
        its file= (sys.stdout if none)."""
        sites = []

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call):
                func, stream = ast.unparse(node.func), None
                if func == "print":
                    files = [k.value for k in node.keywords if k.arg == "file"]
                    stream = ast.unparse(files[0]) if files else "sys.stdout"
                elif func == "os.write":
                    stream = f"fd {ast.unparse(node.args[0])}"
                elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "write",
                    "writelines",
                ):
                    stream = ast.unparse(node.func.value)
                if stream is not None:
                    sites.append((stream, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, "<module>")
        return sites

    def test_cli_writes_each_stream_once(self):
        path = pathlib.Path(chigenus.__file__).parent / "cli.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        assert sorted(self.write_sites(tree)) == [("sys.stderr", "main"), ("sys.stdout", "main")]

    def test_the_scan_sees_every_kind_of_write(self):
        code = (
            "def f():\n"
            "    print('a')\n"
            "    print('b', file=sys.stderr)\n"
            "    sys.stdout.write('c')\n"
            "    sys.stdout.buffer.write(b'd')\n"
            "    os.write(1, b'e')\n"
            "print('f')\n"
        )
        assert self.write_sites(ast.parse(code)) == [
            ("sys.stdout", "f"),
            ("sys.stderr", "f"),
            ("sys.stdout", "f"),
            ("sys.stdout.buffer", "f"),
            ("fd 1", "f"),
            ("sys.stdout", "<module>"),
        ]


class TestOneLimit:
    """The descriptor limit has one rule and one message, in `varieties`,
    which both readers (token and corpus) call; `cli` gates only --dim."""

    def test_the_message_is_written_once(self):
        package = pathlib.Path(chigenus.__file__).parent
        sites = [
            (path.name, text.count("exceeds maximum dimension"))
            for path in sorted(package.glob("*.py"))
            if "exceeds maximum dimension" in (text := path.read_text())
        ]
        assert sites == [("varieties.py", 1)]
