from fractions import Fraction
from math import factorial

import pytest

from chigenus.hrr import (
    ChernFunctional,
    ChiTable,
    _chi_y_factor,
    _chi_y_rows,
    chi_p,
    chi_table,
    euler_functional,
    top_part,
)
from chigenus.poly import DimensionMismatch, GradedPoly
from chigenus.symchern import BasisConvention, ConventionMismatch

import oracles
from oracles import (
    _lagrange_coefficients,
    _log_exterior_coefficients,
    _log_todd_coefficients,
    _multiplicative_sequence,
    bernoulli_plus,
    chi_table_via_roots,
    exterior_character_via_roots,
    todd_class,
    todd_via_roots,
)

TAN = BasisConvention.TANGENT
COT = BasisConvention.COTANGENT


def P(dim, text):
    return GradedPoly.from_text(dim, text)


def functional(dim, text, convention=COT):
    return top_part(P(dim, text), convention)


class TestToddClass:
    """The Todd class by the series route kept in the oracles, against the
    Bernoulli product over formal roots."""

    def test_low_weights(self):
        td = todd_class(3)
        assert td.graded_part(0) == GradedPoly.one(3)
        assert td.graded_part(1) == P(3, "1/2*c1")
        assert td.graded_part(2) == P(3, "1/12*c1^2 + 1/12*c2")
        assert td.graded_part(3) == P(3, "1/24*c1*c2")

    def test_weight2_standalone(self):
        assert todd_class(2).graded_part(2) == P(2, "1/12*c1^2 + 1/12*c2")

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_bernoulli_root_oracle(self, n):
        assert todd_class(n) == todd_via_roots(n)

    def test_point(self):
        assert todd_class(0) == GradedPoly.one(0)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_log_series_matches_bernoulli_closed_form(self, n):
        # log(x / (1 - e^{-x})) = x/2 - sum_{k even} B_k x^k / (k * k!)
        expected = [Fraction(1, 2)] + [
            -bernoulli_plus(k) / (k * factorial(k)) if k % 2 == 0 else Fraction(0)
            for k in range(2, n + 1)
        ]
        assert _log_todd_coefficients(n) == tuple(expected[:n])


def exterior_characters(n):
    """ch(Lambda^p Omega^1) for p = 0..n, from the exterior factor of the
    chi_y series: its multiplicative sequence at the nodes y = 0..n, times
    (1 + y)^n, interpolated in y exactly as the chi^p rows are."""
    nodes = [
        _multiplicative_sequence(_log_exterior_coefficients(y, n), n) * (1 + y) ** n
        for y in range(n + 1)
    ]
    lagrange = _lagrange_coefficients(n)
    return [
        sum((nodes[y] * lagrange[y][p] for y in range(n + 1)), GradedPoly.zero(n))
        for p in range(n + 1)
    ]


class TestExteriorCharacters:
    """The exterior factor (1 + y exp(-x)) of the chi_y series, checked
    apart from the Todd factor."""

    def test_p0_is_structure_sheaf(self):
        for n in range(0, 5):
            assert exterior_characters(n)[0] == GradedPoly.one(n)

    def test_canonical_bundle_leading_terms(self):
        for n in range(1, 5):
            ch = exterior_characters(n)[n]
            assert ch.graded_part(0) == GradedPoly.one(n)
            assert ch.graded_part(1) == P(n, "-1*c1")

    def test_one_form_dim2(self):
        assert exterior_characters(2)[1] == P(2, "2 - 1*c1 + 1/2*c1^2 - 1*c2")

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_subset_root_oracle(self, n):
        characters = exterior_characters(n)
        for p in range(n + 1):
            assert characters[p] == exterior_character_via_roots(p, n)

    def test_rank_is_binomial(self):
        from math import comb

        for n in range(5):
            for p, ch in enumerate(exterior_characters(n)):
                assert ch.graded_part(0) == GradedPoly.constant(n, comb(n, p))

    def test_lagrange_inverts_vandermonde(self):
        for n in range(0, 8):
            lagrange = _lagrange_coefficients(n)
            for j in range(n + 1):
                for node in range(n + 1):
                    value = sum(c * node**p for p, c in enumerate(lagrange[j]))
                    assert value == (1 if node == j else 0), (n, j, node)


class TestChiYFactor:
    @pytest.mark.parametrize("n", range(0, 13))
    def test_coefficients_match_bernoulli_closed_form(self, n):
        # q_k(y) = t_k + y s_k: t_k = B^+_k / k! is the Todd series and
        # s_k = (-1)^k B^+_k / k! that of x / (e^x - 1)
        scale, factor = _chi_y_factor(n)
        assert len(factor) == n + 1
        for k, (t, s) in enumerate(factor):
            expected = bernoulli_plus(k) / factorial(k)
            assert Fraction(t, scale**k) == expected, (n, k)
            assert Fraction(s, scale**k) == (-1) ** k * expected, (n, k)

    def test_scale_is_the_least_common_denominator(self):
        assert _chi_y_factor(0)[0] == 1
        assert _chi_y_factor(1)[0] == 2
        assert _chi_y_factor(4)[0] == 720


class TestChiP:
    """The displayed golden formulas, all in cotangent variables."""

    def test_curve(self):
        assert chi_p(1, 1) == functional(1, "1/2*c1")
        assert chi_p(1, 0) == functional(1, "-1/2*c1")

    def test_surface(self):
        assert chi_p(2, 0) == functional(2, "1/12*c1^2 + 1/12*c2")
        assert chi_p(2, 1) == functional(2, "1/6*c1^2 - 5/6*c2")
        assert chi_p(2, 2) == functional(2, "1/12*c1^2 + 1/12*c2")

    def test_threefold(self):
        assert chi_p(3, 3) == functional(3, "1/24*c1*c2")
        assert chi_p(3, 0) == functional(3, "-1/24*c1*c2")

    def test_fourfold(self):
        expected = functional(
            4, "-1/720*c1^4 + 1/180*c1^2*c2 + 1/720*c1*c3 + 1/240*c2^2 - 1/720*c4"
        )
        assert chi_p(4, 4) == expected
        assert chi_p(4, 0) == expected  # Serre dual, even dimension

    def test_point(self):
        assert chi_p(0, 0).coeffs == (Fraction(1),)

    def test_convention_tag(self):
        assert chi_p(2, 1).convention is COT

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chi_p(2, 3)
        with pytest.raises(ValueError):
            chi_p(2, -1)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_matches_generating_series_oracle(self, n):
        rows = chi_table_via_roots(n)  # tangent-convention polynomials
        for p in range(n + 1):
            assert chi_p(n, p).flipped().as_poly() == rows[p], (n, p)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_matches_interpolated_series_oracle(self, n):
        rows = oracles._chi_y_rows(n)
        for p in range(n + 1):
            assert chi_p(n, p) == rows[p], (n, p)


class TestSerreAndEuler:
    @pytest.mark.parametrize("n", range(0, 10))
    def test_serre_duality_identity(self, n):
        for p in range(n + 1):
            assert chi_p(n, p) == chi_p(n, n - p).scaled((-1) ** n), (n, p)

    @pytest.mark.parametrize("n", range(0, 10))
    def test_alternating_sum_is_euler(self, n):
        total = ChernFunctional.zero(n, COT)
        for p in range(n + 1):
            total = total + chi_p(n, p).scaled((-1) ** p)
        assert total == euler_functional(n)

    def test_euler_examples(self):
        assert euler_functional(2) == functional(2, "1*c2")
        assert euler_functional(3) == functional(3, "-1*c3")

    def test_euler_alternating_sum_dim2(self):
        total = (
            functional(2, "1/12*c1^2 + 1/12*c2")
            - functional(2, "1/6*c1^2 - 5/6*c2")
            + functional(2, "1/12*c1^2 + 1/12*c2")
        )
        assert total == functional(2, "1*c2")


class TestChiTable:
    def test_dim2_rows(self):
        table = chi_table(2)
        assert [row.to_text() for row in table.rows] == [
            "1/12*c1^2 + 1/12*c2",
            "1/6*c1^2 - 5/6*c2",
            "1/12*c1^2 + 1/12*c2",
        ]

    def test_dim3_boundary_rows(self):
        table = chi_table(3)
        assert table.row(0) == functional(3, "-1/24*c1*c2")
        assert table.row(3) == functional(3, "1/24*c1*c2")

    def test_dim1(self):
        table = chi_table(1)
        assert [row.to_text() for row in table.rows] == ["-1/2*c1", "1/2*c1"]

    def test_point(self):
        table = chi_table(0)
        assert len(table.rows) == 1
        assert table.row(0).coeffs == (Fraction(1),)

    def test_json_round_trip(self):
        table = chi_table(3)
        assert ChiTable.from_json_dict(table.to_json_dict()) == table

    def test_flip_round_trip(self):
        table = chi_table(4)
        assert table.flipped().flipped() == table
        assert table.flipped().convention is TAN

    def test_deterministic(self):
        import json

        first = json.dumps(chi_table(4).to_json_dict(), sort_keys=True)
        chi_p.cache_clear()
        _chi_y_rows.cache_clear()
        second = json.dumps(chi_table(4).to_json_dict(), sort_keys=True)
        assert first == second

    def test_rows_identical_under_concurrent_evaluation(self):
        from concurrent.futures import ThreadPoolExecutor

        chi_p.cache_clear()
        _chi_y_rows.cache_clear()
        with ThreadPoolExecutor(max_workers=6) as pool:
            concurrent_rows = list(pool.map(lambda p: chi_p(5, p), range(6)))
        assert concurrent_rows == [chi_p(5, p) for p in range(6)]
        assert tuple(concurrent_rows) == chi_table(5).rows


class TestSurfaceSignatureIdentity:
    def test_rows_from_euler_and_signature(self):
        # chi_top = c_2(TX) = c_2, sigma = (c_1(TX)^2 - 2 c_2(TX))/3; both
        # monomials are flip-even so the cotangent expressions coincide
        chi_top = functional(2, "1*c2")
        sigma = functional(2, "1/3*c1^2 - 2/3*c2")
        quarter = (chi_top + sigma).scaled(Fraction(1, 4))
        half = (sigma - chi_top).scaled(Fraction(1, 2))
        assert chi_p(2, 0) == quarter
        assert chi_p(2, 2) == quarter
        assert chi_p(2, 1) == half


class TestChernFunctional:
    def test_top_part_examples(self):
        f = top_part(P(2, "1 + 1/2*c1 + 1/12*c1^2 + 1/12*c2"), COT)
        assert f.coeffs == (Fraction(1, 12), Fraction(1, 12))
        g = top_part(P(3, "1/24*c1*c2 + 1/2*c1"), COT)
        assert g.as_poly() == P(3, "1/24*c1*c2")
        assert top_part(GradedPoly.zero(2), COT).is_zero()

    def test_flip_is_involution_and_retags(self):
        f = chi_p(3, 1)
        assert f.flipped().convention is TAN
        assert f.flipped().flipped() == f

    def test_clear_denominators(self):
        f = functional(2, "1/6*c1^2 - 5/6*c2")
        cleared, scale = f.clear_denominators()
        assert scale == 6
        assert cleared.as_poly() == P(2, "1*c1^2 - 5*c2")

    def test_dot_product(self):
        f = functional(2, "1/12*c1^2 + 1/12*c2")
        assert f.dot((Fraction(9), Fraction(3))) == 1

    def test_mismatch_errors(self):
        f = chi_p(2, 0)
        with pytest.raises(ConventionMismatch):
            f + f.flipped()
        with pytest.raises(DimensionMismatch):
            f + chi_p(3, 0)
        with pytest.raises(DimensionMismatch):
            f.dot((1, 2, 3))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ChernFunctional(2, COT, (0.5, 1))
        with pytest.raises(TypeError):
            chi_p(2, 0).scaled(0.5)

    def test_json_round_trip(self):
        f = chi_p(4, 2)
        assert ChernFunctional.from_json_dict(f.to_json_dict()) == f
