import json
import math
import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chigenus import SIGN_MODES, hrr, symchern
from chigenus.cli import main
from chigenus.hrr import (
    _chi_y_factor,
    _chi_y_rows,
    chi_p,
    chi_table,
    euler_functional,
    signed_target,
)
from chigenus.poly import (
    BasisConvention,
    ChernFunctional,
    ConsistencyError,
    DimensionMismatch,
    InvalidPartition,
    json_text,
    weight_basis,
)

import oracles
from conftest import fraction_rows
from oracles import (
    POINT_PRIME,
    GradedPoly,
    _lagrange_coefficients,
    _log_exterior_coefficients,
    _log_todd_coefficients,
    _multiplicative_sequence,
    bernoulli_plus,
    chi_table_via_roots,
    chi_y_at_roots,
    exterior_character_via_roots,
    row_at_roots,
    todd_class,
    todd_via_roots,
)

TAN = BasisConvention.TANGENT
COT = BasisConvention.COTANGENT


def P(dim, text):
    return GradedPoly.from_text(dim, text)


def functional(dim, text, convention=COT):
    return ChernFunctional.from_text(dim, convention, text)


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
        # q_k(y) = t_k + y s_k = S_k ((-1)^k + y) / L^k: t_k = B^+_k / k! is
        # the Todd series and s_k = (-1)^k B^+_k / k! that of x / (e^x - 1)
        scale, factor = _chi_y_factor(n)
        assert len(factor) == n + 1
        for k, s in enumerate(factor):
            expected = bernoulli_plus(k) / factorial(k)
            assert Fraction((-1) ** k * s, scale**k) == expected, (n, k)
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
            assert chi_p(n, p).flipped().terms() == rows[p].terms(), (n, p)

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
        rows = [chi_p(n, p).scaled((-1) ** p).coeffs for p in range(n + 1)]
        assert [sum(column) for column in zip(*rows)] == list(euler_functional(n).coeffs)

    def test_euler_examples(self):
        assert euler_functional(2) == functional(2, "1*c2")
        assert euler_functional(3) == functional(3, "-1*c3")

    def test_euler_alternating_sum_dim2(self):
        chi0, chi1, chi2 = (
            functional(2, text).coeffs
            for text in ("1/12*c1^2 + 1/12*c2", "1/6*c1^2 - 5/6*c2", "1/12*c1^2 + 1/12*c2")
        )
        total = [a - b + c for a, b, c in zip(chi0, chi1, chi2)]
        assert total == list(functional(2, "1*c2").coeffs)


class TestSignModes:
    def test_each_mode_names_the_bundle_it_assumes_nef(self):
        assert hrr.mode_convention("nef_cotangent") is COT
        assert hrr.mode_convention("nef_tangent") is TAN

    @pytest.mark.parametrize("mode", ["nef-cotangent", "NEF_TANGENT", "ample_cotangent", ""])
    def test_an_unknown_mode_is_refused(self, mode):
        with pytest.raises(ValueError) as info:
            hrr.mode_convention(mode)
        assert str(info.value) == (
            f"mode must be one of ('nef_cotangent', 'nef_tangent'), got {mode!r}"
        )

    @given(fraction_rows(), st.sampled_from(SIGN_MODES), st.sampled_from([1, -1]))
    def test_signed_target_is_the_least_integral_multiple(self, row, mode, sign):
        n, convention, coeffs = row
        convention_sign = 1 if convention is hrr.mode_convention(mode) else (-1) ** n
        signed = [sign * convention_sign * c for c in coeffs]
        target, scale = signed_target(ChernFunctional(n, convention, coeffs, 1), sign, mode)
        assert scale == math.lcm(*(c.denominator for c in signed))
        assert target.denominator == 1
        assert target.convention is hrr.mode_convention(mode)
        assert target.coeffs == tuple(c * scale for c in signed)


class TestChiTable:
    def test_dim2_rows(self):
        rows = chi_table(2)
        assert [row.to_text() for row in rows] == [
            "1/12*c1^2 + 1/12*c2",
            "1/6*c1^2 - 5/6*c2",
            "1/12*c1^2 + 1/12*c2",
        ]

    def test_dim3_boundary_rows(self):
        rows = chi_table(3)
        assert rows[0] == functional(3, "-1/24*c1*c2")
        assert rows[3] == functional(3, "1/24*c1*c2")

    def test_dim1(self):
        rows = chi_table(1)
        assert [row.to_text() for row in rows] == ["-1/2*c1", "1/2*c1"]

    def test_point(self):
        rows = chi_table(0)
        assert len(rows) == 1
        assert rows[0].coeffs == (Fraction(1),)

    @pytest.mark.parametrize("n", range(6))
    def test_the_table_is_the_cached_rows(self, n):
        rows = chi_table(n)
        assert rows is _chi_y_rows(n)
        assert isinstance(rows, tuple) and len(rows) == n + 1
        assert all(row.convention is COT and row.dimension == n for row in rows)

    def test_the_table_class_is_gone(self):
        import chigenus

        for module in (chigenus, hrr):
            with pytest.raises(AttributeError):
                module.ChiTable

    def test_json_round_trip(self, capsys):
        # the `chi --json` payload, which the command writes from the rows
        assert main(["chi", "--dim", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert (payload["dim"], payload["convention"]) == (3, "cotangent")
        assert [row["p"] for row in payload["rows"]] == [0, 1, 2, 3]
        assert [
            GradedPoly.from_json_dict(row["poly"]).top_coefficients() for row in payload["rows"]
        ] == [row.coeffs for row in chi_table(3)]

    def test_flip_round_trip(self):
        rows = chi_table(4)
        assert tuple(row.flipped().flipped() for row in rows) == rows
        assert all(row.in_convention(TAN).convention is TAN for row in rows)
        assert tuple(row.in_convention(TAN).in_convention(COT) for row in rows) == rows

    def test_deterministic(self):
        first = json_text(list(chi_table(4)))
        _chi_y_rows.cache_clear()
        second = json_text(list(chi_table(4)))
        assert first == second

    def test_rows_identical_under_concurrent_evaluation(self):
        from concurrent.futures import ThreadPoolExecutor

        _chi_y_rows.cache_clear()
        with ThreadPoolExecutor(max_workers=6) as pool:
            concurrent_rows = list(pool.map(lambda p: chi_p(5, p), range(6)))
        assert concurrent_rows == [chi_p(5, p) for p in range(6)]
        assert tuple(concurrent_rows) == chi_table(5)


class TestChiYAtAPoint:
    """Every chi^p row up to n = 20 at a seeded point mod a prime: sum_p
    y^p chi^p(c(x)) = [t^n] prod_i Q_y(x_i t) (`oracles.chi_y_at_roots`),
    which shares no step with the Kostka solve.  A wrong coefficient fails
    it but with probability at most 2n / (2^61 - 1)."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_rows_match_the_product_at_a_point(self, n):
        rng = random.Random(20261022 + n)
        roots = [rng.randrange(POINT_PRIME) for _ in range(n)]
        y = rng.randrange(POINT_PRIME)
        rows = chi_table(n)
        values = [row_at_roots(row, roots) for row in rows]
        assert sum(v * pow(y, p, POINT_PRIME) for p, v in enumerate(values)) % POINT_PRIME == (
            chi_y_at_roots(roots, y)
        )
        # the check sees a numerator of chi^1 moved by one
        numerators = list(rows[1].numerators)
        numerators[rng.randrange(len(numerators))] += 1
        moved = ChernFunctional(n, COT, numerators, rows[1].denominator)
        assert row_at_roots(moved, roots) != values[1]


class TestRowValidation:
    @pytest.fixture
    def cold_rows(self):
        _chi_y_rows.cache_clear()
        yield
        _chi_y_rows.cache_clear()

    def test_broken_rows_refused_before_any_use(self, monkeypatch, cold_rows):
        real = symchern.chern_coordinates  # `_chi_y_rows` imports it when it runs

        def perturbed(right, n):
            coordinates = real(right, n)
            k = coordinates[0]
            coordinates[0] = [k[0], k[1] + 1, *k[2:]]  # the y^1 coefficient
            return coordinates

        monkeypatch.setattr(symchern, "chern_coordinates", perturbed)
        with pytest.raises(ConsistencyError, match="duality symmetry"):
            chi_p(4, 1)

    def test_rows_that_keep_duality_are_refused_by_the_euler_class(self, monkeypatch, cold_rows):
        real = symchern.chern_coordinates
        n, p = 4, 1  # p != n - p

        def perturbed(right, dim):
            coordinates = real(right, dim)
            k = list(coordinates[0])
            k[p] += 1
            k[n - p] += (-1) ** n  # chi^p = (-1)^n chi^{n-p} still holds
            coordinates[0] = k
            return coordinates

        monkeypatch.setattr(symchern, "chern_coordinates", perturbed)
        with pytest.raises(ConsistencyError, match="alternating sum is not the Euler class"):
            chi_p(n, p)

    def test_rows_that_keep_duality_and_euler_are_refused_by_projective_space(
        self, monkeypatch, cold_rows
    ):
        real = symchern.chern_coordinates
        n = 2  # weight_basis(2) = (c1^2, c2), and c1^2[P^2] = 9

        def perturbed(right, dim):
            coordinates = real(right, dim)
            # (1, 2, 1) is symmetric and its alternating sum is 0, so duality
            # and the Euler class still hold, but chi^p(P^2) moves by 9 (1, 2, 1)
            coordinates[0] = [k + e for k, e in zip(coordinates[0], (1, 2, 1))]
            return coordinates

        monkeypatch.setattr(symchern, "chern_coordinates", perturbed)
        with pytest.raises(ConsistencyError, match=r"chi\^0\(P\^2\) is not \(-1\)\^0"):
            chi_p(n, 0)

    def test_rows_checked_once_per_dimension(self, monkeypatch, cold_rows):
        real = hrr.euler_functional
        calls = []
        monkeypatch.setattr(hrr, "euler_functional", lambda n: calls.append(n) or real(n))
        for _ in range(3):
            chi_table(4)
            chi_p(4, 1)
        assert calls == [4]


class TestCacheKeys:
    """chi_p refuses a bool and an out-of-range n or p, before and after the
    rows of dimensions 0..2 are cached: True == 1 and both hash alike, so no
    cache on the way may answer a bool with the row of 1."""

    BAD = [(True, 0), (True, 1), (2, True), (2, False), (-1, 0), (2, -1), ("x", 0), (2.0, 0)]

    @pytest.fixture
    def cold_rows(self):
        _chi_y_rows.cache_clear()
        yield
        _chi_y_rows.cache_clear()

    @pytest.mark.parametrize("n, p", BAD)
    def test_refused_cold_and_warm(self, cold_rows, n, p):
        with pytest.raises(ValueError):
            chi_p(n, p)
        for m in range(3):
            chi_table(m)
            for q in range(m + 1):
                chi_p(m, q)
        with pytest.raises(ValueError):
            chi_p(n, p)
        assert chi_p(1, 0) == functional(1, "-1/2*c1")
        assert chi_p(2, 1) == functional(2, "1/6*c1^2 - 5/6*c2")

    @pytest.mark.parametrize("n", [True, -1, "x", 2.0])
    def test_bad_dimension_refused_before_any_chi_y_arithmetic(self, monkeypatch, cold_rows, n):
        # `partitions_of` refuses n, cold and warm, before `_chi_y_factor` runs
        message = re.escape(f"partition weight must be a non-negative integer: {n!r}")
        monkeypatch.setattr(hrr, "_chi_y_factor", lambda _: pytest.fail("chi_y arithmetic ran"))
        for _ in range(2):
            with pytest.raises(InvalidPartition, match=message):
                chi_p(n, 0)
            with pytest.raises(InvalidPartition, match=message):
                chi_table(n)
            monkeypatch.undo()
            for m in range(3):
                chi_table(m)

    @pytest.mark.parametrize("p", [6, -1, True])
    def test_bad_form_degree_refused_before_any_chi_y_arithmetic(self, monkeypatch, cold_rows, p):
        monkeypatch.setattr(hrr, "_chi_y_factor", lambda _: pytest.fail("chi_y arithmetic ran"))
        with pytest.raises(ValueError, match=re.escape(f"form degree {p!r} outside 0..5")):
            chi_p(5, p)

    def test_table_refuses_a_bool_cold_and_warm(self, cold_rows):
        with pytest.raises(ValueError):
            chi_table(True)
        chi_table(1)
        with pytest.raises(ValueError):
            chi_table(True)


class TestSurfaceSignatureIdentity:
    def test_rows_from_euler_and_signature(self):
        # chi_top = c_2(TX) = c_2, sigma = (c_1(TX)^2 - 2 c_2(TX))/3; both
        # monomials are flip-even so the cotangent expressions coincide
        chi_top = functional(2, "1*c2")
        sigma = functional(2, "1/3*c1^2 - 2/3*c2")
        quarter = [(e + s) / 4 for e, s in zip(chi_top.coeffs, sigma.coeffs)]
        half = [(s - e) / 2 for e, s in zip(chi_top.coeffs, sigma.coeffs)]
        assert list(chi_p(2, 0).coeffs) == quarter
        assert list(chi_p(2, 2).coeffs) == quarter
        assert list(chi_p(2, 1).coeffs) == half


class TestChernFunctional:
    def test_text_examples(self):
        f = functional(2, "1/12*c1^2 + 1/12*c2")
        assert f.coeffs == (Fraction(1, 12), Fraction(1, 12))
        g = functional(3, "1/24*c1*c2")
        assert g.terms() == P(3, "1/24*c1*c2").terms()
        assert g.to_text() == "1/24*c1*c2"
        assert functional(2, "0").coeffs == (0, 0)
        with pytest.raises(ValueError):
            functional(3, "1/24*c1*c2 + 1/2*c1")  # a lower-weight term is refused

    def test_flip_is_involution_and_retags(self):
        f = chi_p(3, 1)
        assert f.flipped().convention is TAN
        assert f.flipped().flipped() == f

    def test_dot_product(self):
        f = functional(2, "1/12*c1^2 + 1/12*c2")
        assert f.dot((Fraction(9), Fraction(3))) == 1
        assert f.dot((9, "3")) == 1
        assert f.dot(("1/2", Fraction(-3, 5))) == Fraction(1, 24) - Fraction(1, 20)

    def test_dot_of_chi_rows_on_random_numbers(self):
        rng = random.Random(20231021)
        for n in range(10):
            rows = chi_table(n)
            for _ in range(5):
                values = [
                    Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
                    for _ in weight_basis(n)
                ]
                for row in rows:
                    expected = sum(
                        (c * v for c, v in zip(row.coeffs, values)), Fraction(0)
                    )
                    assert row.dot(values) == expected

    def test_dot_refuses_a_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            chi_p(2, 0).dot((1, 2, 3))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ChernFunctional(2, COT, (0.5, 1), 1)
        with pytest.raises(TypeError):
            chi_p(2, 0).scaled(0.5)

    @pytest.mark.parametrize("n", range(9))
    def test_poly_json_dict_matches_the_polynomial(self, n):
        rows = chi_table(n)
        zero = ChernFunctional(n, COT, (0,) * len(weight_basis(n)), 1)
        for f in (*rows, *(row.flipped() for row in rows), zero):
            assert f.to_json_dict() == GradedPoly(n, f.terms()).to_json_dict()
