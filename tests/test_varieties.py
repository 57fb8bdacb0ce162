import ast
import dataclasses
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chigenus import MAX_DIM
from chigenus.cone import (
    Certificate,
    ChiSignReport,
    ChiSignRow,
    GeneratorSet,
    Infeasibility,
    certify_chi_signs,
    generators,
)
from chigenus.hrr import (
    ChernFunctional,
    ChiTable,
    chi_p,
    chi_sign,
    chi_table,
    euler_functional,
    euler_number,
)
from chigenus.poly import DimensionMismatch, Record, json_text, partitions_of, weight_basis
from chigenus.symchern import BasisConvention
from chigenus.varieties import (
    AbelianVariety,
    CorpusEntry,
    Curve,
    Explicit,
    Hypersurface,
    Product,
    ProjectiveSpace,
    SignAudit,
    Surface,
    chern_numbers,
    check_signs,
    chi_values,
    descriptor_from_json,
    descriptor_from_token,
    evaluate,
    load_corpus,
    _paired,
)

from conftest import rationals
from oracles import (
    bigraded_tangent_values,
    closed_form_chi_y,
    hypersurface_chi_y,
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
        assert numbers.terms().get((2, 0), 0) == 9
        assert numbers.terms().get((0, 1), 0) == 3

    def test_p3_tangent(self):
        numbers = chern_numbers(ProjectiveSpace(3), TAN)
        assert numbers.terms() == {
            (3, 0, 0): Fraction(64),
            (1, 1, 0): Fraction(24),
            (0, 0, 1): Fraction(4),
        }

    @pytest.mark.parametrize("n", range(1, 13))
    def test_projective_space_binomial_classes(self, n):
        # c(T P^n) = (1 + h)^{n+1} and int h^n = 1
        numbers = chern_numbers(ProjectiveSpace(n), TAN)
        for mono, value in zip(weight_basis(n), numbers.coeffs):
            assert value == prod(comb(n + 1, i) ** e for i, e in enumerate(mono, 1)), mono

    def test_abelian_all_zero(self):
        numbers = chern_numbers(AbelianVariety(3), COT)
        assert all(v == 0 for v in numbers.coeffs)

    def test_curve_cotangent(self):
        assert chern_numbers(Curve(2), COT).terms().get((1,), 0) == 2
        assert chern_numbers(Curve(2), TAN).terms().get((1,), 0) == -2
        assert chern_numbers(Curve(0), TAN).terms().get((1,), 0) == 2

    def test_surface_convention_blind(self):
        surface = Surface(9, 3)
        assert chern_numbers(surface, TAN).coeffs == chern_numbers(surface, COT).coeffs

    def test_quintic_series_oracle(self):
        # independent expansion of (1+h)^5 / (1+5h) mod h^4
        numerator = [Fraction(c) for c in (1, 5, 10, 10)]
        denominator = [Fraction(1), Fraction(5), Fraction(0), Fraction(0)]
        series = series_mul(numerator, series_inv(denominator, 3), 3)
        assert series == [Fraction(1), Fraction(0), Fraction(10), Fraction(-40)]
        numbers = chern_numbers(Hypersurface(5, 4), TAN)
        degree = Fraction(5)
        assert numbers.terms().get((0, 0, 1), 0) == series[3] * degree  # -200
        assert numbers.terms().get((1, 1, 0), 0) == series[1] * series[2] * degree  # 0
        assert numbers.terms().get((3, 0, 0), 0) == series[1] ** 3 * degree  # 0

    def test_product_kuenneth_curve_squared(self):
        numbers = chern_numbers(Product(Curve(2), Curve(2)), COT)
        assert numbers.terms().get((2, 0), 0) == 8  # 2 * c1(X) c1(Y) with c1 = 2
        assert numbers.terms().get((0, 1), 0) == 4  # c1(X) c1(Y)

    def test_product_projective_line_squared(self):
        numbers = chern_numbers(Product(ProjectiveSpace(1), ProjectiveSpace(1)), TAN)
        assert numbers.terms().get((2, 0), 0) == 8
        assert numbers.terms().get((0, 1), 0) == 4

    def test_flip_is_global_sign_at_top_weight(self):
        numbers = chern_numbers(ProjectiveSpace(3), TAN)
        flipped = numbers.flipped()
        assert flipped.convention is COT
        assert flipped.coeffs == tuple(-v for v in numbers.coeffs)

    def test_explicit_rejects_an_unknown_convention(self):
        with pytest.raises(ValueError) as info:
            Explicit(2, {}, "x")
        assert str(info.value) == "unknown convention 'x' (use tangent or cotangent)"

    def test_explicit_descriptor(self):
        explicit = Explicit(2, {"c1^2": 9, "c2": 3}, COT)
        assert chern_numbers(explicit, COT).terms().get((2, 0), 0) == 9
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
            expected = ChernFunctional.from_values(dim, TAN, bigraded_tangent_values(variety))
            assert chern_numbers(variety, TAN) == expected, variety.name()
            assert chern_numbers(variety, COT) == expected.flipped(), variety.name()
            nonzero += any(expected.coeffs)

    def test_explicit_leaves_split_without_fractions(self):
        # every leaf hands the split int numerators over one denominator,
        # so rational Chern numbers of an explicit leaf load no `fractions`
        token = (
            "Product(Explicit(1, {'c1': '1/3'}), Product(ProjectiveSpace(1), "
            "Explicit(2, {'c1^2': '-5/7', 'c2': 3}, BasisConvention.TANGENT)))"
        )
        code = (
            "import sys\n"
            "from chigenus import *\n"
            f"numbers = chern_numbers({token})\n"
            "print(repr(('fractions' in sys.modules, numbers.numerators, numbers.denominator)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=30
        )
        loaded, numerators, den = ast.literal_eval(result.stdout)
        assert not loaded
        variety = eval(token)
        expected = ChernFunctional.from_values(4, TAN, bigraded_tangent_values(variety))
        assert [Fraction(c, den) for c in numerators] == list(expected.coeffs)
        assert chern_numbers(variety, TAN) == expected


@st.composite
def leaves(draw, dim):
    """A non-product descriptor of the given dimension, or an `Explicit`
    one, in either convention, with random rationals given as Fractions,
    'a/b' strings or ints."""
    explicit = st.builds(
        Explicit,
        st.just(dim),
        st.dictionaries(
            st.sampled_from(weight_basis(dim)),
            rationals().flatmap(lambda r: st.sampled_from([r, str(r)] + [int(r)] * (r == int(r)))),
        ),
        st.sampled_from([COT, TAN]),
    )
    recipes = [explicit]
    if dim >= 1:
        recipes += [
            st.builds(ProjectiveSpace, st.just(dim)),
            st.builds(AbelianVariety, st.just(dim)),
            st.builds(Hypersurface, st.integers(1, 7), st.just(dim + 1)),
        ]
    if dim == 1:
        recipes.append(st.builds(Curve, st.integers(0, 6)))
    if dim == 2:
        recipes.append(st.builds(Surface, st.integers(-8, 12), st.integers(-4, 30)))
    return draw(st.one_of(recipes))


@st.composite
def nested_products(draw, dim, depth=3):
    """A descriptor of the given dimension: a product nested at most
    `depth` deep (a factor may be a point), or a leaf."""
    if depth and draw(st.booleans()):
        k = draw(st.integers(0, dim))
        left = draw(nested_products(k, depth - 1))
        return Product(left, draw(nested_products(dim - k, depth - 1)))
    return draw(leaves(dim))


class TestChiYOfProducts:
    """chi_y is multiplicative, so a product's chi values are convolved
    from its factors' values; they must equal the rows of `chi_table(n)`
    paired with the product's Chern numbers (the Whitney split)."""

    @given(
        st.integers(0, 10).flatmap(nested_products),
        st.sampled_from(["nef_cotangent", "nef_tangent"]),
    )
    def test_convolution_matches_the_chern_numbers(self, variety, mode):
        n = variety.dimension
        numbers = chern_numbers(variety, COT)
        expected = [row.dot(numbers.numerators) / numbers.denominator for row in chi_table(n).rows]
        numerators, den = variety._chi_y()
        assert den > 0 and gcd(den, *numerators) == 1
        assert [Fraction(c, den) for c in numerators] == expected
        assert list(chi_values(variety)) == expected
        audit = check_signs(variety, mode)
        assert (audit.numerators, audit.denominator) == (numerators, den)
        euler = evaluate(euler_functional(n), numbers)
        assert audit.to_json_dict()["euler"] == str(euler)


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


class TestRecipeChiYMatchesTheChernRoute:
    """Each recipe's closed-form `_chi_y` against `_paired` of its Chern
    numbers, the route of an explicit leaf through a chi table, up to
    n = 16, the largest golden `chi --json` table, and for a degree far
    above the ambient.  A hypersurface's Chern numbers are polynomials in d
    of degree at most n + 1, so d = 1..8 also pins each chi^p row of the
    table on a slice of rank up to 8."""

    def test_matches_paired_chern_numbers(self):
        leaves = [Curve(g) for g in range(15)]
        leaves += [Surface(a, c) for a in range(-10, 31, 4) for c in range(-10, 41, 5)]
        leaves += [Hypersurface(10**30, ambient) for ambient in range(2, 9)]
        for n in range(1, 17):
            leaves += [ProjectiveSpace(n), AbelianVariety(n)]
            leaves += [Hypersurface(d, n + 1) for d in range(1, 9)]
        for leaf in leaves:
            assert leaf._chi_y() == _paired(leaf._tangent_values()), leaf.name()


class TestHypersurfaceClosedForm:
    """Every chi^p of a degree-d hypersurface against the residue formula
    of `oracles.hypersurface_chi_y`, in `Fraction`s and interpolated by
    Lagrange, where `_chi_y` takes Bott's formula through the conormal
    sequence: d = 1..6 up to n = 14, one degree per even ambient up to 30,
    and the degree 10**30.  Up to the ceiling, Serre duality, the Euler
    number and chi^0 hold for a few degrees."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_chi_values(self, d):
        for n in range(1, 15):
            assert chi_values(Hypersurface(d, n + 1)) == hypersurface_chi_y(d, n + 1), n

    @pytest.mark.parametrize("ambient", range(16, 31, 2))
    def test_chi_values_up_to_ambient_30(self, ambient):
        d = ambient // 2 % 8 + 1
        assert chi_values(Hypersurface(d, ambient)) == hypersurface_chi_y(d, ambient)

    def test_a_degree_far_above_the_ambient(self):
        # only the terms of (1 - z)^d below z^{N+1} enter
        for ambient in range(2, 9):
            assert chi_values(Hypersurface(10**30, ambient)) == hypersurface_chi_y(10**30, ambient)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 10**30])
    def test_identities_up_to_the_ceiling(self, d):
        # e = [h^{N-1}] d (1 + h)^{N+1} / (1 + dh), and chi^0 = chi(O) - chi(O(-d)) on P^N
        for ambient in range(2, MAX_DIM + 2):
            n = ambient - 1
            chi, den = Hypersurface(d, ambient)._chi_y()
            assert den == 1
            assert all(chi[p] == (-1) ** n * chi[n - p] for p in range(n + 1)), ambient
            assert euler_number(chi) == ((1 - d) ** (ambient + 1) - 1) // d + ambient + 1
            assert chi[0] == 1 - (-1) ** ambient * comb(d - 1, ambient)


def leaf_product(rng, n):
    """A seeded random product of recipe leaves of total dimension n >= 1,
    nested at random."""
    if n > 1 and rng.random() < 0.6:
        k = rng.randint(1, n - 1)
        return Product(leaf_product(rng, k), leaf_product(rng, n - k))
    leaves = [ProjectiveSpace(n), AbelianVariety(n), Hypersurface(rng.randint(1, 5), n + 1)]
    if n == 1:
        leaves.append(Curve(rng.randint(0, 9)))
    if n == 2:
        leaves.append(Surface(rng.randint(-20, 20), rng.randint(-20, 40)))
    return rng.choice(leaves)


class TestLeafClosedForms:
    """Every chi^p of P^n and abelian varieties up to the ceiling `MAX_DIM`,
    of curves and surfaces, and of seeded random products of all recipe
    leaves up to total dimension 14, against `oracles.closed_form_chi_y`:
    closed forms multiplied out by the product rule, with no Chern number
    and no Whitney split."""

    def test_known_values(self):
        assert closed_form_chi_y(Surface(0, 24)) == (2, -20, 2)  # K3
        assert closed_form_chi_y(Surface(9, 3)) == (1, -1, 1)  # P^2
        assert closed_form_chi_y(Product(Curve(2), Curve(3))) == (2, -4, 2)

    def test_leaves(self):
        for n in range(1, MAX_DIM + 1):
            for leaf in (ProjectiveSpace(n), AbelianVariety(n)):
                assert chi_values(leaf) == closed_form_chi_y(leaf), leaf.name()
        for g in range(8):
            assert chi_values(Curve(g)) == closed_form_chi_y(Curve(g))
        rng = random.Random(7)
        for _ in range(20):
            surface = Surface(rng.randint(-50, 50), rng.randint(-50, 50))
            assert chi_values(surface) == closed_form_chi_y(surface), surface.name()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_products(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            variety = leaf_product(rng, rng.randint(2, 14))
            assert chi_values(variety) == closed_form_chi_y(variety), variety.name()


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
        # the product's values from its Chern numbers, not from chi_values,
        # which convolves the factors' values itself
        cases = [
            (Curve(2), Curve(2)),
            (Curve(2), Curve(3)),
            (ProjectiveSpace(1), ProjectiveSpace(2)),
            (Curve(2), Surface(9, 3)),
        ]
        for left, right in cases:
            lv, rv = chi_values(left), chi_values(right)
            pv = chi_values(chern_numbers(Product(left, right), COT))
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
        c1sq_tan = chern_numbers(surface, TAN).terms().get((2, 0), 0)
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
        # the dimension-n rows paired with the product's Chern numbers:
        # chi_values(variety) would only multiply the factors' tables
        rows = chi_table(n).rows
        for parts, variety in self.products(n):
            numbers = chern_numbers(variety, COT)
            values = [row.dot(numbers.numerators) / numbers.denominator for row in rows]
            expected = [1]  # coefficients in y, lowest power first
            for m in parts:
                product = [0] * (len(expected) + m)
                for i, a in enumerate(expected):
                    for j in range(m + 1):
                        product[i + j] += a * (-1) ** j
                expected = product
            assert values == expected, parts
            assert list(chi_values(variety)) == expected, parts

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tangent_numbers_have_full_rank(self, n):
        vectors = [chern_numbers(variety, TAN).coeffs for _, variety in self.products(n)]
        assert rank(vectors) == partition_count(n)

    def test_rank_oracle(self):
        assert rank([]) == 0
        assert rank([(1, 2), (2, 4), (0, 0)]) == 1
        assert rank([(0, 1, 0), (1, 0, 0), (1, 1, 0)]) == 2
        assert rank([("1/2", 1), (1, "1/3")]) == 2


class TestCheckSigns:
    def test_p3_tangent_mode(self):
        audit = check_signs(ProjectiveSpace(3), "nef_tangent")
        assert (audit.numerators, audit.denominator) == ((1, -1, 1, -1), 1)
        assert audit.signs == (1, -1, 1, -1)
        assert audit.passed

    def test_abelian_cotangent_mode(self):
        audit = check_signs(AbelianVariety(2), "nef_cotangent")
        assert audit.numerators == (0, 0, 0)
        assert audit.passed

    def test_product_of_genus_two_curves(self):
        audit = check_signs(Product(Curve(2), Curve(2)), "nef_cotangent")
        assert (audit.numerators, audit.denominator) == ((1, -2, 1), 1)
        assert audit.signs == (1, -1, 1)
        assert audit.passed

    def test_bmy_equality_surface(self):
        audit = check_signs(Surface(9, 3), "nef_cotangent")
        assert chi_values(Surface(9, 3))[1] == -1
        assert audit.numerators[1] == -audit.denominator
        assert audit.passed

    def test_failing_audit(self):
        audit = check_signs(Surface(100, 1), "nef_cotangent")
        assert not audit.passed

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            check_signs(Curve(2), "both")
        with pytest.raises(ValueError):
            SignAudit("curve:2", "nef-cotangent", (1, 1), 1)

    def test_an_audit_is_the_chi_values_with_their_signs(self):
        # seeded nested products, explicit leaves with rational numbers in
        # either convention, and products with an explicit factor
        rng = random.Random(20261019)

        def explicit(dim):
            values = {
                m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in weight_basis(dim)
            }
            return Explicit(dim, values, rng.choice([COT, TAN]))

        varieties = []
        for _ in range(40):
            dim = rng.randint(1, 8)
            k = rng.randint(0, dim)
            varieties += [random_variety(rng, dim), explicit(dim)]
            if 0 < k < dim:
                varieties.append(Product(explicit(k), random_variety(rng, dim - k)))
        for variety in varieties:
            n, values = variety.dimension, chi_values(variety)
            for mode in ("nef_cotangent", "nef_tangent"):
                audit = check_signs(variety, mode)
                signs = tuple(chi_sign(n, p, mode) for p in range(n + 1))
                assert audit.variety == variety.name() and audit.dimension == n
                assert audit.denominator > 0
                assert gcd(audit.denominator, *audit.numerators) == 1
                assert tuple(Fraction(c, audit.denominator) for c in audit.numerators) == values
                assert audit.signs == signs
                assert audit.passed == all(s * v >= 0 for s, v in zip(signs, values))
                data = audit.to_json_dict()
                assert data["rows"] == [
                    {"chi": str(v), "ok": s * v >= 0, "p": p, "sign": s, "signed": str(s * v)}
                    for p, (s, v) in enumerate(zip(signs, values))
                ]
                assert data["euler"] == str(sum((-1) ** p * v for p, v in enumerate(values)))

    def test_json_rows_print_the_signed_value(self):
        rows = check_signs(Product(Curve(2), Curve(2)), "nef_cotangent").to_json_dict()["rows"]
        assert [(row["chi"], row["sign"], row["signed"]) for row in rows] == [
            ("1", 1, "1"), ("-2", -1, "2"), ("1", 1, "1"),
        ]
        audit = SignAudit("surface:1:1", "nef_cotangent", (2, -3, 2), 4).to_json_dict()
        assert audit["rows"][1] == {"chi": "-3/4", "ok": True, "p": 1, "sign": -1, "signed": "3/4"}
        assert audit["euler"] == "7/4"

    def test_products_never_compute_their_chern_numbers(self, monkeypatch):
        # neither a product nor a recipe leaf computes Chern numbers or a chi
        # table; an explicit leaf does both
        import chigenus.hrr as hrr

        variety = descriptor_from_token("product(pn:2,product(curve:2,pn:2))")
        expected = evaluate(euler_functional(5), variety)
        calls = []
        for cls in (ProjectiveSpace, Curve, Product, Explicit):

            def counting(self, tangent_values=cls._tangent_values):
                calls.append(self.name())
                return tangent_values(self)

            monkeypatch.setattr(cls, "_tangent_values", counting)
        rows = hrr._chi_y_rows
        monkeypatch.setattr(hrr, "_chi_y_rows", lambda n: calls.append(n) or rows(n))
        audit = check_signs(variety, "nef_cotangent")
        assert calls == []
        assert audit.to_json_dict()["euler"] == str(expected)
        explicit = Explicit(2, {"c1^2": 9, "c2": 3})
        check_signs(Product(explicit, variety), "nef_cotangent")
        assert calls == ["explicit:2", 2]


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

    def test_explicit_leaves_round_trip_inside_products(self):
        # a product's shape holds its factors in place, so an explicit leaf
        # at any depth is written, and read back, as a flat one is
        rng = random.Random(20261020)
        leaves = {COT: 0, TAN: 0}

        def variety(dim):
            if dim >= 2 and rng.random() < 0.6:
                k = rng.randint(1, dim - 1)
                return Product(variety(k), variety(dim - k))
            if rng.random() < 0.4:
                return random_variety(rng, dim)
            convention = rng.choice([COT, TAN])
            leaves[convention] += 1
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in weight_basis(dim)]
            return Explicit(dim, dict(zip(weight_basis(dim), values)), convention)

        for _ in range(100):
            dim = rng.randint(2, 8)
            k = rng.randint(1, dim - 1)
            descriptor = Product(variety(k), variety(dim - k))
            view = descriptor.to_json_dict()
            assert descriptor_from_json(view) == descriptor, descriptor.name()
            assert json.loads(json_text(descriptor)) == view, descriptor.name()
        assert min(leaves.values()) >= 50, leaves

    @pytest.mark.parametrize("key", ["c1*c1", "1*c1^2", "c_1^2", "c1^2*c2^0", (2, 0)])
    def test_explicit_key_spellings(self, key):
        assert Explicit(2, {key: 5, "c2": 1}, COT) == Explicit(2, {"c1^2": 5, "c2": 1}, COT)

    @pytest.mark.parametrize("key", ["2*c2-c2", "c2 + 0", "c1^2 - c1^2 + c2", "0", "c2 - c1"])
    def test_explicit_key_is_one_term(self, key):
        obj = {"type": "explicit", "n": 2, "values": {key: "1"}}
        with pytest.raises(ValueError) as info:
            descriptor_from_json(obj)
        assert str(info.value) == f"monomial key expected, got {key!r}"

    def test_explicit_key_with_a_coefficient_is_refused(self):
        obj = {"type": "explicit", "n": 2, "values": {"2*c2": "1"}}
        with pytest.raises(ValueError) as info:
            descriptor_from_json(obj)
        assert str(info.value) == "monomial key must have coefficient 1: '2*c2'"

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1], "Chern numbers must be a mapping: [1]"),
            ({"c2": None}, "exact rational required (int, Fraction, or 'a/b' string), got NoneType"),
            ({"c2": 1.5}, "exact rational required (int, Fraction, or 'a/b' string), got float"),
            ({"c2": True}, "bool is not a rational coefficient"),
            ({"c2": [1]}, "exact rational required (int, Fraction, or 'a/b' string), got list"),
        ],
    )
    def test_json_refuses_explicit_values_of_the_wrong_type(self, values, message):
        # a ValueError, as every malformed JSON descriptor is, with the
        # message of the type check it comes from
        obj = {"type": "explicit", "n": 2, "values": values}
        with pytest.raises(ValueError) as info:
            descriptor_from_json(obj)
        assert str(info.value) == message
        assert isinstance(info.value.__cause__, TypeError)

    @pytest.mark.parametrize("key", [3, 1.5, None])
    def test_explicit_key_that_is_neither_text_nor_a_sequence_is_refused(self, key):
        # from Python only: a JSON key is always a string
        message = f"not a weight-2 monomial: {key!r}"
        with pytest.raises(ValueError) as info:
            Explicit(2, {key: 1})
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            descriptor_from_json({"type": "explicit", "n": 2, "values": {key: 1}})
        assert str(info.value) == message

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
        # a chain nests at most 63 deep under the ceiling, so each level's
        # right factor is padded to give a rescan of the inner text its cost
        def nested(depth):
            return "product(" * depth + "pn:1" + (",pn:1" + " " * 100 + ")") * depth

        def best_time(token):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                descriptor_from_token(token)
                times.append(time.perf_counter() - start)
            return min(times)

        descriptor = descriptor_from_token(nested(63))
        assert descriptor.name() == "product(" * 63 + "pn:1" + ",pn:1)" * 63
        assert descriptor.dimension == MAX_DIM
        # four times the depth and the length: about 4x the time when
        # linear, 16x when each level rescans its inner text for the
        # top-level comma
        assert best_time(nested(63)) < 10 * best_time(nested(15))

    @pytest.mark.parametrize("max_dim", [1, 2, 8, MAX_DIM])
    def test_both_readers_refuse_products_nested_max_dim_deep(self, max_dim):
        # refused before the readers descend, so a bad leaf at the bottom
        # and nesting far past the stack limit give the same line
        def chain(depth, leaf="pn:1"):
            obj = {"type": leaf.split(":")[0], "n": 1}
            for _ in range(depth):
                obj = {"type": "product", "left": obj, "right": {"type": "pn", "n": 1}}
            return "product(" * depth + leaf + ",pn:1)" * depth, obj

        token, obj = chain(max_dim - 1)
        assert descriptor_from_token(token, max_dim) == descriptor_from_json(obj, max_dim)
        assert descriptor_from_token(token, max_dim).dimension == max_dim
        for depth, leaf in [(max_dim, "pn:1"), (max_dim, "bogus:1"), (5000, "pn:1")]:
            token, obj = chain(depth, leaf)
            for read in (descriptor_from_token, descriptor_from_json):
                with pytest.raises(ValueError) as info:
                    read(token if read is descriptor_from_token else obj, max_dim)
                assert str(info.value) == (
                    f"product nests too deeply for maximum dimension {max_dim}"
                )

    @pytest.mark.parametrize("limit", [MAX_DIM + 1, 10**9, -1, None, True, 8.0])
    def test_readers_refuse_a_limit_outside_the_ceiling(self, tmp_path, limit):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        reads = [
            lambda: descriptor_from_token("pn:1", limit),
            lambda: descriptor_from_json({"type": "pn", "n": 1}, limit),
            lambda: load_corpus(corpus, limit),
        ]
        for read in reads:
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == f"max_dim must be an integer within 0..64: {limit!r}"

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_json_refuses_a_product_factor_of_dimension_zero(self, side):
        point = {"type": "explicit", "n": 0, "values": {"1": "3"}}
        assert descriptor_from_json(point) == Explicit(0, {"1": 3})
        pn = {"type": "pn", "n": 1}
        obj = {"type": "product", "left": pn, "right": pn, side: point}
        for nested in (obj, {"type": "product", "left": obj, "right": {"type": "pn", "n": 2}}):
            with pytest.raises(ValueError) as info:
                descriptor_from_json(nested)
            assert str(info.value) == "product factor explicit:0 has dimension 0"

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
        "obj, field",
        [
            ({"type": "pn"}, "n"),
            ({"type": "explicit"}, "n"),
            ({"type": "product", "left": {"type": "pn", "n": 1}}, "right"),
        ],
    )
    def test_json_refuses_a_missing_field_by_name(self, obj, field):
        with pytest.raises(ValueError) as info:
            descriptor_from_json(obj)
        assert str(info.value) == f"missing field {field!r}"

    @pytest.mark.parametrize(
        "obj, error",
        [
            ({"type": "pn", "n": 2, "genus": 1}, "'genus' for descriptor type 'pn'"),
            (
                {"type": "explicit", "n": 1, "values": {}, "conventon": "tangent"},
                "'conventon' for descriptor type 'explicit'",
            ),
            (
                {"type": "product", "left": {"type": "pn", "n": 1}, "right": {}, "n": 1},
                "'n' for descriptor type 'product'",
            ),
            (
                {"type": "product", "left": {"type": "pn", "n": 1, "degree": 2}},
                "'degree' for descriptor type 'pn'",
            ),
        ],
    )
    def test_json_refuses_a_field_its_type_lacks(self, obj, error):
        with pytest.raises(ValueError) as info:
            descriptor_from_json(obj)
        assert str(info.value) == f"unknown field {error}"

    @pytest.mark.parametrize(
        "obj, name",
        [
            ({"type": "abelian", "n": 3}, "abelian:3"),
            ({"type": "explicit", "n": 3}, "explicit:3"),
            (
                {
                    "type": "product",
                    "left": {"type": "pn", "n": 1},
                    "right": {"type": "pn", "n": 2},
                },
                "product(pn:1,pn:2)",
            ),
        ],
    )
    def test_json_refuses_a_descriptor_above_max_dim(self, obj, name):
        # a recipe's or a product's name is its token, which the token
        # reader refuses through the same rule and message
        readers = [lambda limit: descriptor_from_json(obj, max_dim=limit)]
        if obj["type"] != "explicit":  # no token
            readers.append(lambda limit: descriptor_from_token(name, max_dim=limit))
        for read in readers:
            assert read(3).dimension == 3
            assert read(MAX_DIM).dimension == 3
            with pytest.raises(ValueError) as info:
                read(2)
            assert str(info.value) == f"descriptor {name} exceeds maximum dimension 2"

    def test_json_refuses_a_bool_dimension_as_such_under_any_limit(self):
        with pytest.raises(ValueError) as info:
            descriptor_from_json({"type": "explicit", "n": True}, max_dim=0)
        assert str(info.value) == "dimension must be a non-negative integer: True"

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


class TestChernNumbersAreAFunctional:
    """Chern numbers are held as a `ChernFunctional` row over
    `weight_basis(n)`, the one weight-n type."""

    def test_complete_over_basis(self):
        with pytest.raises(ValueError):
            ChernFunctional(2, COT, (Fraction(1),), 1)

    def test_from_values_fills_zeros(self):
        numbers = ChernFunctional.from_values(2, COT, {(2, 0): 5})
        assert numbers.coeffs == (5, 0)

    def test_rejects_low_weight_monomials(self):
        with pytest.raises(ValueError):
            ChernFunctional.from_values(2, COT, {(1, 0): 5})

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ChernFunctional.from_values(2, COT, {(2, 0): 1.5})

    @pytest.mark.parametrize("n", range(0, 8))
    def test_in_convention_round_trip(self, n):
        row = ChernFunctional(n, TAN, tuple(range(1, len(weight_basis(n)) + 1)), 1)
        assert row.in_convention(TAN) is row
        other = row.in_convention(COT)
        assert other == row.flipped()
        assert other.in_convention("cotangent") is other
        assert other.in_convention(TAN) == row

    @pytest.mark.parametrize("convention", [COT, TAN])
    def test_chern_numbers_are_a_functional(self, convention):
        numbers = chern_numbers(ProjectiveSpace(3), convention)
        assert type(numbers) is ChernFunctional
        assert numbers.convention is convention

    def test_the_second_row_type_is_gone(self):
        import chigenus
        import chigenus.varieties

        for module in (chigenus, chigenus.varieties):
            with pytest.raises(AttributeError):
                module.ChernNumberSet


# Every value class and its fields, in constructor order, as they were when
# the classes were frozen dataclasses; a sign audit has since held its chi^p
# values as int numerators over one positive denominator, one row for all p.
RECORD_FIELDS = {
    ChernFunctional: ("dimension", "convention", "numerators", "denominator"),
    ChiTable: ("dimension", "convention", "rows"),
    GeneratorSet: ("dimension", "convention", "generators"),
    Certificate: ("target", "generator_names", "numerators", "denominator"),
    Infeasibility: ("witness",),
    ChiSignRow: ("p", "sign", "scale", "target", "result"),
    ChiSignReport: ("dimension", "mode", "assumptions", "rows"),
    ProjectiveSpace: ("n",),
    Curve: ("genus",),
    Surface: ("c1sq", "c2"),
    Hypersurface: ("degree", "ambient"),
    AbelianVariety: ("n",),
    Product: ("left", "right"),
    SignAudit: ("variety", "mode", "numerators", "denominator"),
    CorpusEntry: ("name", "descriptor", "expected"),
}


def record_samples():
    report = certify_chi_signs(4, "nef_cotangent", ("schur", "my4", "c1top"))
    product = Product(Curve(2), ProjectiveSpace(1))
    audit = check_signs(product, "nef_cotangent")
    return [
        ChernFunctional(2, COT, (1, Fraction(-1, 2)), 1),
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
            ChernFunctional(2, COT, (1,), 1)
        functional = ChernFunctional(2, "cotangent", [1, "1/2"], 1)
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
        values = chern_numbers(curve, convention).terms()
        same_numbers = Explicit(1, values, convention)
        assert chern_numbers(same_numbers) == chern_numbers(curve)
        assert same_numbers != curve
        assert curve != same_numbers
