import dataclasses
import random
import time
from fractions import Fraction
from math import comb, prod

import pytest

from chigenus.cone import (
    Certificate,
    ChiSignReport,
    ChiSignRow,
    GeneratorSet,
    Infeasibility,
    certify_chi_signs,
    generators,
)
from chigenus.hrr import ChernFunctional, ChiTable, chi_p, chi_table, euler_functional
from chigenus.poly import DimensionMismatch, Record, partitions_of
from chigenus.symchern import BasisConvention
from chigenus.varieties import (
    AbelianVariety,
    ChernNumberSet,
    CorpusEntry,
    Curve,
    Explicit,
    Hypersurface,
    Product,
    ProjectiveSpace,
    SignAudit,
    SignAuditRow,
    Surface,
    chern_numbers,
    check_signs,
    chi_values,
    descriptor_from_json,
    descriptor_from_token,
    evaluate,
    load_corpus,
)

from oracles import (
    bigraded_tangent_values,
    partition_count,
    rank,
    rescanning_descriptor_from_token,
    series_inv,
    series_mul,
)

TAN = BasisConvention.TANGENT
COT = BasisConvention.COTANGENT


class TestChernNumbers:
    def test_p2_tangent(self):
        numbers = chern_numbers(ProjectiveSpace(2), TAN)
        assert numbers.value((2, 0)) == 9
        assert numbers.value((0, 1)) == 3

    def test_p3_tangent(self):
        numbers = chern_numbers(ProjectiveSpace(3), TAN)
        assert numbers.as_dict() == {
            (3, 0, 0): Fraction(64),
            (1, 1, 0): Fraction(24),
            (0, 0, 1): Fraction(4),
        }

    @pytest.mark.parametrize("n", range(1, 13))
    def test_projective_space_binomial_classes(self, n):
        # c(T P^n) = (1 + h)^{n+1} and int h^n = 1
        numbers = chern_numbers(ProjectiveSpace(n), TAN).as_dict()
        for mono, value in numbers.items():
            assert value == prod(comb(n + 1, i) ** e for i, e in enumerate(mono, 1)), mono

    def test_abelian_all_zero(self):
        numbers = chern_numbers(AbelianVariety(3), COT)
        assert all(v == 0 for v in numbers.entries)

    def test_curve_cotangent(self):
        assert chern_numbers(Curve(2), COT).value((1,)) == 2
        assert chern_numbers(Curve(2), TAN).value((1,)) == -2
        assert chern_numbers(Curve(0), TAN).value((1,)) == 2

    def test_surface_convention_blind(self):
        surface = Surface(9, 3)
        assert chern_numbers(surface, TAN).entries == chern_numbers(surface, COT).entries

    def test_quintic_series_oracle(self):
        # independent expansion of (1+h)^5 / (1+5h) mod h^4
        numerator = [Fraction(c) for c in (1, 5, 10, 10)]
        denominator = [Fraction(1), Fraction(5), Fraction(0), Fraction(0)]
        series = series_mul(numerator, series_inv(denominator, 3), 3)
        assert series == [Fraction(1), Fraction(0), Fraction(10), Fraction(-40)]
        numbers = chern_numbers(Hypersurface(5, 4), TAN)
        degree = Fraction(5)
        assert numbers.value((0, 0, 1)) == series[3] * degree  # -200
        assert numbers.value((1, 1, 0)) == series[1] * series[2] * degree  # 0
        assert numbers.value((3, 0, 0)) == series[1] ** 3 * degree  # 0

    def test_product_kuenneth_curve_squared(self):
        numbers = chern_numbers(Product(Curve(2), Curve(2)), COT)
        assert numbers.value((2, 0)) == 8  # 2 * c1(X) c1(Y) with c1 = 2
        assert numbers.value((0, 1)) == 4  # c1(X) c1(Y)

    def test_product_projective_line_squared(self):
        numbers = chern_numbers(Product(ProjectiveSpace(1), ProjectiveSpace(1)), TAN)
        assert numbers.value((2, 0)) == 8
        assert numbers.value((0, 1)) == 4

    def test_flip_is_global_sign_at_top_weight(self):
        numbers = chern_numbers(ProjectiveSpace(3), TAN)
        flipped = numbers.flipped()
        assert flipped.convention is COT
        assert flipped.entries == tuple(-v for v in numbers.entries)

    def test_explicit_descriptor(self):
        explicit = Explicit(2, {"c1^2": 9, "c2": 3}, COT)
        assert chern_numbers(explicit, COT).value((2, 0)) == 9
        with pytest.raises(TypeError):
            Explicit(2, {"c1^2": 0.5}, COT)
        with pytest.raises(ValueError):
            Explicit(2, {"c1": 1}, COT)  # not top weight

    @pytest.mark.parametrize(
        "values",
        [
            {"c1^2": "1", "c1*c1": "2"},
            {"c1*c1": "2", "c1^2": "1"},
            {(2, 0): 1, "c1^2": 1},
            {"1*c2": 3, "c2": 3},
        ],
    )
    def test_explicit_rejects_two_keys_for_one_monomial(self, values):
        with pytest.raises(ValueError, match="two keys name the monomial"):
            Explicit(2, values, COT)


def random_variety(rng, dim):
    """A random descriptor of the given dimension: a nested product or a
    curve, surface, abelian variety or hypersurface of degree 1..7."""
    if dim >= 2 and rng.random() < 0.6:
        k = rng.randint(1, dim - 1)
        return Product(random_variety(rng, k), random_variety(rng, dim - k))
    if rng.random() < 0.1:  # rare: every product with it has zero numbers
        return AbelianVariety(dim)
    if dim <= 2 and rng.random() < 0.5:
        if dim == 1:
            return Curve(rng.randint(0, 5))
        return Surface(rng.randint(-8, 12), rng.randint(-4, 30))
    return Hypersurface(rng.randint(1, 7), dim + 1)


class TestProductMatchesBigradedOracle:
    """The Whitney split of Product against the bigraded expansion of the
    total Chern class that it replaced."""

    def test_random_nested_products(self):
        rng = random.Random(20261018)
        nonzero = 0
        while nonzero < 300:  # products with a genus-1 or abelian factor read 0
            dim = rng.randint(2, 8)
            k = rng.randint(1, dim - 1)
            variety = Product(random_variety(rng, k), random_variety(rng, dim - k))
            expected = ChernNumberSet.from_values(dim, TAN, bigraded_tangent_values(variety))
            assert chern_numbers(variety, TAN) == expected, variety.name()
            assert chern_numbers(variety, COT) == expected.flipped(), variety.name()
            nonzero += any(expected.entries)


class TestEvaluate:
    def test_todd_genus_of_p2(self):
        assert evaluate(chi_p(2, 0), ProjectiveSpace(2)) == 1

    def test_abelian_threefold(self):
        assert evaluate(chi_p(3, 3), AbelianVariety(3)) == 0

    def test_genus_two_curve(self):
        assert evaluate(chi_p(1, 1), Curve(2)) == 1

    def test_quintic_todd_genus(self):
        assert evaluate(chi_p(3, 0), Hypersurface(5, 4)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(chi_p(2, 0), ProjectiveSpace(3))

    def test_accepts_precomputed_numbers(self):
        numbers = chern_numbers(ProjectiveSpace(2), TAN)
        assert evaluate(chi_p(2, 0), numbers) == 1


class TestEulerCharacteristics:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_projective_space(self, n):
        assert evaluate(euler_functional(n), ProjectiveSpace(n)) == n + 1

    @pytest.mark.parametrize("g", [0, 1, 2, 5])
    def test_curves(self, g):
        assert evaluate(euler_functional(1), Curve(g)) == 2 - 2 * g

    def test_abelian(self):
        assert evaluate(euler_functional(3), AbelianVariety(3)) == 0

    def test_quintic(self):
        assert evaluate(euler_functional(3), Hypersurface(5, 4)) == -200

    def test_products_multiply(self):
        pairs = [
            (Curve(2), Curve(3)),
            (ProjectiveSpace(1), ProjectiveSpace(2)),
            (Curve(2), Surface(9, 3)),
        ]
        for left, right in pairs:
            product_euler = evaluate(
                euler_functional(left.dimension + right.dimension), Product(left, right)
            )
            assert product_euler == evaluate(
                euler_functional(left.dimension), left
            ) * evaluate(euler_functional(right.dimension), right)


class TestTableProperties:
    CORPUS = [
        ProjectiveSpace(1),
        ProjectiveSpace(2),
        ProjectiveSpace(3),
        ProjectiveSpace(4),
        Curve(2),
        Curve(5),
        Surface(9, 3),
        Surface(4, 12),
        AbelianVariety(2),
        Hypersurface(5, 4),
        Hypersurface(3, 3),
        Product(Curve(2), Curve(2)),
    ]

    @pytest.mark.parametrize("variety", CORPUS, ids=lambda v: v.name())
    def test_serre_duality_of_values(self, variety):
        n = variety.dimension
        values = chi_values(variety)
        for p in range(n + 1):
            assert values[p] == (-1) ** n * values[n - p]

    @pytest.mark.parametrize("variety", CORPUS, ids=lambda v: v.name())
    def test_alternating_sum_is_euler(self, variety):
        n = variety.dimension
        values = chi_values(variety)
        alternating = sum(((-1) ** p * v for p, v in enumerate(values)), Fraction(0))
        assert alternating == evaluate(euler_functional(n), variety)

    def test_product_table_is_convolution(self):
        cases = [
            (Curve(2), Curve(2)),
            (Curve(2), Curve(3)),
            (ProjectiveSpace(1), ProjectiveSpace(2)),
            (Curve(2), Surface(9, 3)),
        ]
        for left, right in cases:
            lv, rv = chi_values(left), chi_values(right)
            pv = chi_values(Product(left, right))
            for p in range(len(pv)):
                expected = sum(
                    (
                        lv[i] * rv[p - i]
                        for i in range(len(lv))
                        if 0 <= p - i < len(rv)
                    ),
                    Fraction(0),
                )
                assert pv[p] == expected, (left.name(), right.name(), p)

    @pytest.mark.parametrize(
        "surface", [Surface(9, 3), Surface(4, 12), Surface(-8, 10), Surface(0, 24)]
    )
    def test_surface_euler_signature_split(self, surface):
        chi_top = evaluate(euler_functional(2), surface)
        c1sq_tan = chern_numbers(surface, TAN).value((2, 0))
        sigma = Fraction(c1sq_tan - 2 * chi_top, 3)
        values = chi_values(surface)
        assert values[0] == Fraction(chi_top + sigma, 4)
        assert values[1] == Fraction(sigma - chi_top, 2)


class TestProductsOfProjectiveSpaces:
    """chi_y(P^m) = sum_{j<=m} (-y)^j and chi_y is multiplicative, so
    P^lambda = P^{lambda_1} x ... x P^{lambda_k} pins every chi^p row; by
    Milnor's basis theorem these products span all Chern numbers of weight n
    (`oracles.rank`)."""

    @staticmethod
    def products(n):
        for parts in partitions_of(n):
            factors = [ProjectiveSpace(m) for m in parts if m]
            variety = factors[0]
            for factor in factors[1:]:
                variety = Product(variety, factor)
            yield parts, variety

    @pytest.mark.parametrize("n", range(1, 11))
    def test_chi_values_are_the_product_of_the_factors(self, n):
        for parts, variety in self.products(n):
            expected = [1]  # coefficients in y, lowest power first
            for m in parts:
                product = [0] * (len(expected) + m)
                for i, a in enumerate(expected):
                    for j in range(m + 1):
                        product[i + j] += a * (-1) ** j
                expected = product
            assert list(chi_values(variety)) == expected, parts

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tangent_numbers_have_full_rank(self, n):
        vectors = [chern_numbers(variety, TAN).entries for _, variety in self.products(n)]
        assert rank(vectors) == partition_count(n)

    def test_rank_oracle(self):
        assert rank([]) == 0
        assert rank([(1, 2), (2, 4), (0, 0)]) == 1
        assert rank([(0, 1, 0), (1, 0, 0), (1, 1, 0)]) == 2
        assert rank([("1/2", 1), (1, "1/3")]) == 2


class TestCheckSigns:
    def test_p3_tangent_mode(self):
        audit = check_signs(ProjectiveSpace(3), "nef_tangent")
        assert [row.signed_value for row in audit.rows] == [1, 1, 1, 1]
        assert audit.passed

    def test_abelian_cotangent_mode(self):
        audit = check_signs(AbelianVariety(2), "nef_cotangent")
        assert all(row.value == 0 for row in audit.rows)
        assert audit.passed

    def test_product_of_genus_two_curves(self):
        audit = check_signs(Product(Curve(2), Curve(2)), "nef_cotangent")
        assert [row.value for row in audit.rows] == [1, -2, 1]
        assert [row.signed_value for row in audit.rows] == [1, 2, 1]
        assert audit.passed

    def test_bmy_equality_surface(self):
        audit = check_signs(Surface(9, 3), "nef_cotangent")
        assert audit.rows[1].value == -1
        assert audit.passed

    def test_failing_audit(self):
        audit = check_signs(Surface(100, 1), "nef_cotangent")
        assert not audit.passed

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            check_signs(Curve(2), "both")

    def test_chern_numbers_computed_once(self, monkeypatch):
        import chigenus.varieties as varieties

        calls = []

        def counting(v, convention=TAN):
            calls.append(v)
            return chern_numbers(v, convention)

        monkeypatch.setattr(varieties, "chern_numbers", counting)
        variety = descriptor_from_token("product(pn:2,product(curve:2,pn:2))")
        audit = check_signs(variety, "nef_cotangent")
        assert calls == [variety]
        assert audit.euler == evaluate(euler_functional(5), variety)


class TestDescriptorSerialization:
    TOKENS = [
        "pn:3",
        "curve:2",
        "abelian:2",
        "surface:9:3",
        "hypersurface:5:4",
        # every bounded field at its bound; surface fields have none
        "pn:1",
        "curve:0",
        "abelian:1",
        "hypersurface:1:2",
        "surface:-3:0",
        "product(curve:2,curve:2)",
        "product(pn:1,product(curve:2,pn:2))",
    ]

    @pytest.mark.parametrize("token", TOKENS)
    def test_token_json_round_trip(self, token):
        descriptor = descriptor_from_token(token)
        assert descriptor.name() == token
        assert descriptor_from_json(descriptor.to_json_dict()) == descriptor

    def test_explicit_json_round_trip(self):
        explicit = Explicit(2, {"c1^2": 9, "c2": 3}, COT)
        assert descriptor_from_json(explicit.to_json_dict()) == explicit

    @pytest.mark.parametrize("key", ["c1*c1", "1*c1^2", "c_1^2", "c1^2*c2^0", (2, 0)])
    def test_explicit_key_spellings(self, key):
        assert Explicit(2, {key: 5, "c2": 1}, COT) == Explicit(2, {"c1^2": 5, "c2": 1}, COT)

    @pytest.mark.parametrize("key", ["2*c2-c2", "c2 + 0", "c1^2 - c1^2 + c2", "0", "c2 - c1"])
    def test_explicit_key_is_one_term(self, key):
        obj = {"type": "explicit", "n": 2, "values": {key: "1"}}
        with pytest.raises(ValueError) as info:
            descriptor_from_json(obj)
        assert str(info.value) == f"monomial key expected, got {key!r}"

    def test_bad_tokens(self):
        for token in ["pn", "pn:x", "blah:3", "surface:9", "product(pn:1"]:
            with pytest.raises(ValueError):
                descriptor_from_token(token)
        for token in [
            "curve:2:x",
            "pn:3:7",
            "pn:3:",
            "abelian:2:1",
            "surface:9:3:1",
            "hypersurface:5:4:1",
            "product(pn:1,curve:2:0)",
        ]:
            with pytest.raises(ValueError, match="malformed variety token"):
                descriptor_from_token(token)

    def test_deep_left_nested_token_parses_in_linear_time(self):
        def nested(depth):
            return "product(" * depth + "pn:1" + ",pn:1)" * depth

        def best_time(token):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                descriptor_from_token(token)
                times.append(time.perf_counter() - start)
            return min(times)

        descriptor = descriptor_from_token(nested(800))
        assert descriptor.name() == nested(800)
        assert descriptor.dimension == 801
        # four times the depth: about 4x the time when linear, 16x when each
        # level rescans its inner text for the top-level comma
        assert best_time(nested(800)) < 10 * best_time(nested(200))

    def test_matches_rescanning_parser(self):
        # seeded random tokens, half nested products of junk-padded pieces
        # and half random text; the same descriptor or the same message
        rng = random.Random(7)
        leaves = ["pn:1", "curve:2", "surface:9:3", "pn:", "", " ", "x", "product(", ")", ",", "("]
        chars = "pncurvelabisfyhdt():,0123456789-+ _x"

        def pad():
            return rng.choice(["", "", " ", "\u3000"])

        def built(depth):
            if depth and rng.random() < 0.6:
                tail = rng.choice(["", "", ")", ",x", "(", "pn:1"])
                return f"{pad()}product({built(depth - 1)},{built(depth - 1)}){tail}{pad()}"
            return pad() + rng.choice(leaves) + pad()

        def outcome(parse, token):
            try:
                return parse(token)
            except ValueError as exc:
                return str(exc)

        for i in range(4000):
            if i % 2:
                token = built(3)
            else:
                token = "".join(rng.choice(chars) for _ in range(rng.randint(0, 24)))
            expected = outcome(rescanning_descriptor_from_token, token)
            assert outcome(descriptor_from_token, token) == expected, token

    def test_bad_json(self):
        with pytest.raises(ValueError):
            descriptor_from_json({"n": 3})
        with pytest.raises(ValueError):
            descriptor_from_json({"type": "weird"})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Surface(9.5, 3),
            lambda: Surface("a", None),
            lambda: Surface(True, 3),
            lambda: Hypersurface(True, 3),
            lambda: Hypersurface(5, True),
            lambda: Hypersurface(0, 3),
            lambda: Hypersurface(1, 1),
            lambda: ProjectiveSpace(0),
            lambda: ProjectiveSpace(True),
            lambda: Curve(-1),
            lambda: Curve(False),
            lambda: AbelianVariety(0),
            lambda: AbelianVariety(True),
        ],
    )
    def test_descriptors_validate_on_construction(self, build):
        with pytest.raises(ValueError):
            build()


class TestCorpusReplay:
    def test_replay(self, corpus_path):
        entries = load_corpus(corpus_path)
        assert len(entries) >= 13
        for entry in entries:
            values = chi_values(entry.descriptor)
            expected = entry.expected
            if "chi" in expected:
                assert [str(v) for v in values] == expected["chi"], entry.name
            if "euler" in expected:
                euler = evaluate(
                    euler_functional(entry.descriptor.dimension), entry.descriptor
                )
                assert str(euler) == expected["euler"], entry.name
            if "mode" in expected:
                audit = check_signs(entry.descriptor, expected["mode"])
                assert audit.passed == expected["pass"], entry.name


class TestChernNumberSet:
    def test_complete_over_basis(self):
        with pytest.raises(ValueError):
            ChernNumberSet(2, COT, (Fraction(1),))

    def test_from_values_fills_zeros(self):
        numbers = ChernNumberSet.from_values(2, COT, {(2, 0): 5})
        assert numbers.value((0, 1)) == 0

    def test_rejects_low_weight_monomials(self):
        with pytest.raises(ValueError):
            ChernNumberSet.from_values(2, COT, {(1, 0): 5})

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ChernNumberSet.from_values(2, COT, {(2, 0): 1.5})


# Every value class and its fields, in constructor order, as they were when
# the classes were frozen dataclasses.
RECORD_FIELDS = {
    ChernFunctional: ("dimension", "convention", "coeffs"),
    ChiTable: ("dimension", "convention", "rows"),
    GeneratorSet: ("dimension", "convention", "generators"),
    Certificate: ("target", "generator_names", "coefficients"),
    Infeasibility: ("witness",),
    ChiSignRow: ("p", "sign", "scale", "target", "result", "status"),
    ChiSignReport: ("dimension", "mode", "assumptions", "convention", "rows"),
    ChernNumberSet: ("dimension", "convention", "entries"),
    ProjectiveSpace: ("n",),
    Curve: ("genus",),
    Surface: ("c1sq", "c2"),
    Hypersurface: ("degree", "ambient"),
    AbelianVariety: ("n",),
    Product: ("left", "right"),
    SignAuditRow: ("p", "value", "sign", "ok"),
    SignAudit: ("variety", "dimension", "mode", "rows", "euler"),
    CorpusEntry: ("name", "descriptor", "expected"),
}


def record_samples():
    report = certify_chi_signs(4, "nef_cotangent", ("schur", "my4", "c1top"))
    product = Product(Curve(2), ProjectiveSpace(1))
    audit = check_signs(product, "nef_cotangent")
    return [
        ChernFunctional(2, COT, (1, Fraction(-1, 2))),
        chi_table(2),
        generators(2),
        report,
        *report.rows,
        *(row.result for row in report.rows),
        chern_numbers(Hypersurface(3, 4)),
        Hypersurface(3, 4),
        product,
        product.left,
        product.right,
        Surface(9, 3),
        AbelianVariety(2),
        audit,
        *audit.rows,
        CorpusEntry("x", Curve(2), {"euler": "-2"}),
    ]


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


class TestRecord:
    def test_fields_in_constructor_order(self):
        for cls, fields in RECORD_FIELDS.items():
            assert issubclass(cls, Record) and cls._fields == fields, cls

    def test_samples_cover_every_record(self):
        assert {type(x) for x in record_samples()} == set(RECORD_FIELDS)

    def test_same_repr_equality_and_hash_as_a_frozen_dataclass(self):
        for record in record_samples():
            fields = RECORD_FIELDS[type(record)]
            twin_class = dataclasses.make_dataclass(
                type(record).__qualname__, fields, frozen=True
            )
            twin = twin_class(*(getattr(record, f) for f in fields))
            assert repr(record) == repr(twin)
            assert hash_or_error(record) == hash_or_error(twin)
            assert record == type(record)(*(getattr(record, f) for f in fields))

    def test_repr(self):
        assert repr(Product(Curve(2), ProjectiveSpace(3))) == (
            "Product(left=Curve(genus=2), right=ProjectiveSpace(n=3))"
        )

    def test_equality_and_hash_by_value_within_a_class(self):
        assert Curve(1) == Curve(1) and hash(Curve(1)) == hash(Curve(1))
        assert Curve(1) != Curve(2)
        assert len({Product(Curve(1), Curve(2)), Product(Curve(1), Curve(2))}) == 1
        assert Curve(1) != AbelianVariety(1)
        assert ProjectiveSpace(2) != AbelianVariety(2)
        assert Curve(1).__eq__(1) is NotImplemented

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: setattr(c, "genus", 3),
            lambda c: setattr(c, "other", 3),
            lambda c: delattr(c, "genus"),
        ],
    )
    def test_frozen(self, mutate):
        curve = Curve(2)
        with pytest.raises(AttributeError):
            mutate(curve)
        assert curve == Curve(2)

    def test_positional_and_keyword_construction_agree(self):
        assert Surface(9, 3) == Surface(c1sq=9, c2=3) == Surface(9, c2=3)
        assert repr(Surface(c2=3, c1sq=9)) == "Surface(c1sq=9, c2=3)"

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((1, 2), {}), ((), {"g": 1}), ((1,), {"genus": 1}), ((), {"genus": 1, "g": 2})],
    )
    def test_wrong_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Curve(*args, **kwargs)

    def test_post_init_validates_and_normalizes(self):
        with pytest.raises(ValueError):
            Curve(-1)
        with pytest.raises(ValueError):
            Curve(genus=-1)
        with pytest.raises(ValueError):
            ChernFunctional(2, COT, (1,))
        functional = ChernFunctional(2, "cotangent", [1, "1/2"])
        assert functional.convention is COT
        assert functional.coeffs == (Fraction(1), Fraction(1, 2))

    def test_explicit_is_not_a_record(self):
        a = Explicit(1, {"c1": 2})
        assert not isinstance(a, Record)
        assert a.name() == "explicit:1"
        assert a != Explicit(1, {"c1": 3})
        assert a != Curve(0)
        assert hash(a) == hash(Explicit(1, {(1,): 2}))

    def test_explicit_equality_ignores_input_convention(self):
        cotangent = Explicit(1, {"c1": 2})
        tangent = Explicit(1, {"c1": -2}, TAN)
        assert cotangent == tangent
        assert hash(cotangent) == hash(tangent)
        surface = Explicit(2, {"c1^2": 9, "c2": 3}, COT)
        # c1^2 and c2 have even weight, so the same numbers in either convention
        assert surface == Explicit(2, {"c1^2": 9, "c2": 3}, TAN)
        assert hash(surface) == hash(Explicit(2, {"c1^2": 9, "c2": 3}, TAN))

    def test_explicit_with_different_numbers_is_unequal(self):
        assert Explicit(1, {"c1": 2}) != Explicit(1, {"c1": 2}, TAN)
        assert Explicit(1, {"c1": 2}) != Explicit(1, {"c1": -2})
        assert Explicit(2, {"c1^2": 9, "c2": 3}, COT) != Explicit(2, {"c1^2": 9, "c2": -3}, TAN)
        assert Explicit(1, {"c1": 0}) != Explicit(2, {"c1^2": 0, "c2": 0})

    @pytest.mark.parametrize("convention", [COT, TAN])
    def test_explicit_never_equals_a_curve(self, convention):
        curve = Curve(0)  # tangent c1 = 2, cotangent c1 = -2
        values = chern_numbers(curve, convention).as_dict()
        same_numbers = Explicit(1, values, convention)
        assert chern_numbers(same_numbers) == chern_numbers(curve)
        assert same_numbers != curve
        assert curve != same_numbers
