import hashlib
import json
import pathlib
import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

import pytest

import chigenus.symchern
from chigenus.cli import main
from chigenus.cone import generators
from chigenus.hrr import _chi_y_factor
from chigenus.poly import (
    BasisConvention,
    ChernFunctional,
    ConsistencyError,
    InvalidPartition,
    _partition_monomial,
    partitions_of,
    weight_basis,
)
from chigenus.symchern import (
    _kostka_back_substitution,
    _kostka_columns,
    _kostka_forward_substitution,
    _schur_rows,
    _validate_partition,
    chern_coordinates,
    parse_partition,
    partition_label,
    schur,
)

from oracles import (
    POINT_PRIME,
    GradedPoly,
    chi_y_factor,
    chi_y_schur_coordinates,
    cofactor_det,
    jacobi_trudi_matrix,
    partition_by_rules,
    partition_count,
    power_sum,
    power_sum_via_roots,
    row_at_classes,
    schur_at_point,
    schur_via_laplace,
    schur_via_tableaux,
    ssyt_schur,
    to_elementary,
    ypoly_mul,
)


GOLDEN = pathlib.Path(__file__).parent / "golden"
OUTPUT_SHA256 = json.loads((GOLDEN / "outputs_sha256.json").read_text())


def P(dim, text):
    return GradedPoly.from_text(dim, text)


def functional(dim, text):
    return ChernFunctional.from_text(dim, BasisConvention.COTANGENT, text)


class TestPartitions:
    def test_n3_exact_order(self):
        assert partitions_of(3) == ((3, 0, 0), (2, 1, 0), (1, 1, 1))

    def test_n4_matches_generator_list(self):
        assert partitions_of(4) == (
            (4, 0, 0, 0),
            (3, 1, 0, 0),
            (2, 2, 0, 0),
            (2, 1, 1, 0),
            (1, 1, 1, 1),
        )

    @pytest.mark.parametrize("n", range(9))
    def test_counts_against_recurrence_oracle(self, n):
        assert len(partitions_of(n)) == partition_count(n)

    def test_n6_count_is_eleven(self):
        assert len(partitions_of(6)) == 11

    def test_empty_partition(self):
        assert partitions_of(0) == ((),)

    def test_reverse_lexicographic(self):
        for n in range(1, 8):
            parts = partitions_of(n)
            assert list(parts) == sorted(parts, reverse=True)

    def test_padding_and_sums(self):
        for n in range(8):
            for a in partitions_of(n):
                assert len(a) == n
                assert sum(a) == n
                assert all(a[i] >= a[i + 1] for i in range(n - 1))

    def test_text_forms(self):
        assert parse_partition("2,1", 3) == (2, 1, 0)
        assert parse_partition("2, 1", 3) == (2, 1, 0)
        assert partition_label((2, 1, 0)) == "P_(2,1,0)"

    def test_parse_rejects_bad_input(self):
        with pytest.raises(InvalidPartition):
            parse_partition("1,2", 3)  # increasing
        for text in ("+2,1", "2,1_0", "2,\u0661", "2,,1"):
            with pytest.raises(InvalidPartition):
                parse_partition(text, 3)
        with pytest.raises(InvalidPartition):
            parse_partition("2,1", 4)  # wrong sum
        with pytest.raises(InvalidPartition):
            parse_partition("5", 3)  # part exceeds n
        with pytest.raises(InvalidPartition):
            parse_partition("a,b", 3)

    def test_validation_matches_the_five_rules(self):
        # every tuple of length <= n + 1 with entries in -1..n+1, and each
        # partition with a part replaced by a non-int, or with an extra part
        # past position n that is None, 0.0 or "x" (0.0 drops, as 0.0 == 0)
        cases = []
        for n in range(5):
            for length in range(n + 2):
                cases += [(t, n) for t in product(range(-1, n + 2), repeat=length)]
            for a in partitions_of(n):
                for i, odd in product(range(n), (True, 1.0, "1")):
                    cases.append((a[:i] + (odd,) + a[i + 1 :], n))
                for odd in (None, 0.0, "x"):
                    cases += [(a + (odd,), n), (a + (0, odd), n)]
        accepted = 0
        for parts, n in cases:
            try:
                got = _validate_partition(parts, n)
            except InvalidPartition as exc:
                got = str(exc)
            expected = partition_by_rules(parts, n)
            if expected is None:
                expected = f"{parts} is not a partition of {n}"
            assert got == expected, (parts, n)
            accepted += type(got) is tuple
        assert accepted > sum(map(len, map(partitions_of, range(5))))


class TestSchur:
    def test_dim3_displays(self):
        assert schur((3, 0, 0), 3) == functional(3, "1*c3")
        assert schur((2, 1, 0), 3) == functional(3, "1*c1*c2 - 1*c3")
        assert schur((1, 1, 1), 3) == functional(3, "1*c1^3 - 2*c1*c2 + 1*c3")

    def test_dim4_displays(self):
        assert schur((4, 0, 0, 0), 4) == functional(4, "1*c4")
        assert schur((3, 1, 0, 0), 4) == functional(4, "1*c1*c3 - 1*c4")
        assert schur((2, 2, 0, 0), 4) == functional(4, "1*c2^2 - 1*c1*c3")
        assert schur((2, 1, 1, 0), 4) == functional(4, "1*c1^2*c2 - 1*c1*c3 - 1*c2^2 + 1*c4")
        assert schur((1, 1, 1, 1), 4) == functional(
            4, "1*c1^4 - 3*c1^2*c2 + 2*c1*c3 + 1*c2^2 - 1*c4"
        )

    def test_dim2_generators(self):
        assert schur((2, 0), 2) == functional(2, "1*c2")
        assert schur((1, 1), 2) == functional(2, "1*c1^2 - 1*c2")

    def test_accepts_unpadded_input(self):
        assert schur((2, 1), 3) == schur((2, 1, 0), 3)
        assert schur((2, 1, 0, 0), 3) == schur((2, 1), 3)  # zero parts past n drop

    def test_refuses_a_partition_longer_than_n(self):
        with pytest.raises(InvalidPartition) as info:
            schur((1, 1, 1, 1), 3)
        assert str(info.value) == "(1, 1, 1, 1) is not a partition of 3"

    @pytest.mark.parametrize("n", range(0, 8))
    def test_matches_tableau_oracle(self, n):
        for a in partitions_of(n):
            assert schur(a, n).terms() == schur_via_tableaux(a, n).terms(), a

    @pytest.mark.parametrize("n", range(0, 7))
    def test_nonzero_cotangent_rows(self, n):
        for a in partitions_of(n):
            f = schur(a, n)
            assert f.convention is BasisConvention.COTANGENT
            assert any(f.coeffs)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_catalog_holds_integer_rows(self, n):
        rows = _schur_rows(partitions_of(n), n)
        assert tuple(rows) == partitions_of(n)
        for a, f in rows.items():
            assert f.denominator == 1 and len(f.numerators) == len(weight_basis(n))
            assert all(type(c) is int for c in f.numerators)
            assert f.convention is BasisConvention.COTANGENT

    @pytest.mark.parametrize("n", range(0, 13))
    def test_one_row_matches_the_all_rows_solve(self, n):
        rows = _schur_rows(partitions_of(n), n)
        for a in partitions_of(n):
            assert schur(a, n) == rows[a], a

    def test_seeded_rows_at_16_match_the_all_rows_solve(self):
        # one unit vector starts the back substitution at its own partition:
        # the solve reaches (16) last and 1^16 first, so both are always drawn
        order = partitions_of(16)
        rows = _schur_rows(order, 16)
        drawn = random.Random(16).sample(order[1:-1], 18) + [order[0], order[-1]]
        for a in drawn:
            assert schur(a, 16) == rows[a], a

    @pytest.mark.parametrize("convention", list(BasisConvention))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_repeated_and_unordered_requests(self, n, convention):
        # every requested column carries its own unit, so a partition asked
        # for twice, out of rank order, gets its row each time
        a, b = random.Random(4300 + n).choices(partitions_of(n), k=2)
        merged = {**_schur_rows([a], n, convention), **_schur_rows([b], n, convention)}
        assert _schur_rows([b, a, b], n, convention) == merged

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_cofactor_oracle(self, n):
        for a in partitions_of(n):
            assert schur(a, n).terms() == cofactor_det(jacobi_trudi_matrix(a, n)).terms(), a

    @pytest.mark.parametrize("n", range(0, 13))
    def test_matches_laplace_oracle(self, n):
        # against one all-rows solve, which the two tests above pin
        # `schur(a, n)` to
        for a, f in _schur_rows(partitions_of(n), n).items():
            assert f.terms() == schur_via_laplace(a, n).terms(), a

    @pytest.mark.parametrize(
        "a, n", [((1,), 1.0), ((2,), 2.0), ((1,), "1"), ((3,), True), ((1,), -1)]
    )
    def test_refuses_a_bad_dimension_like_partitions_of(self, a, n):
        with pytest.raises(InvalidPartition) as expected:
            partitions_of(n)
        with pytest.raises(InvalidPartition) as info:
            schur(a, n)
        assert str(info.value) == str(expected.value)
        assert str(info.value) == f"partition weight must be a non-negative integer: {n!r}"

    def test_rejects_invalid_partitions(self):
        with pytest.raises(InvalidPartition):
            schur((1, 2), 3)
        with pytest.raises(InvalidPartition):
            schur((3, 1), 3)
        with pytest.raises(InvalidPartition):
            schur((4,), 3)


class TestSchurRowsAtAPoint:
    """Every Schur row of the catalog to n = 14, and each pinned
    `schur --partition` row from n = 16, at a seeded point mod 2^61 - 1,
    against det(c_{a_i - i + j}) by elimination mod the prime
    (`oracles.schur_at_point`), which uses no Kostka number.  A wrong
    coefficient passes with probability at most n / (2^61 - 1)."""

    PINNED = sorted(
        command
        for command in OUTPUT_SHA256
        if command.startswith("schur ") and "--partition" in command
        and "--json" not in command and int(command.split()[2]) >= 16
    )

    @staticmethod
    def point(n):
        rng = random.Random(20261023 + n)
        return [1] + [rng.randrange(POINT_PRIME) for _ in range(n)]

    @staticmethod
    def sees_a_coefficient_off_by_one(row, c, value):
        numerators = list(row.numerators)
        numerators[random.Random(len(numerators)).randrange(len(numerators))] += 1
        moved = ChernFunctional(row.dimension, row.convention, numerators, row.denominator)
        return row_at_classes(moved, c) != value

    @pytest.mark.parametrize("n", range(1, 15))
    def test_catalog_rows(self, n):
        c = self.point(n)
        rows = generators(n).functionals()
        for a, f in zip(partitions_of(n), rows, strict=True):
            assert row_at_classes(f, c) == schur_at_point(a, c), a
        assert self.sees_a_coefficient_off_by_one(rows[-1], c, schur_at_point((1,) * n, c))

    def test_the_pinned_rows_from_16_are_pinned(self):
        assert [int(command.split()[2]) for command in self.PINNED] == [16, 18, 20]

    @pytest.mark.parametrize("command", PINNED)
    def test_pinned_partition_rows(self, capsys, command):
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        label, text = out.strip().split(" = ")
        n = int(command.split()[2])
        a = parse_partition(command.split()[4], n)
        assert label == partition_label(a)
        row, c = ChernFunctional.from_text(n, "cotangent", text), self.point(n)
        assert row_at_classes(row, c) == schur_at_point(a, c)
        assert self.sees_a_coefficient_off_by_one(row, c, schur_at_point(a, c))
        # the row checked is the row pinned
        assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[command]["stdout"]


class TestKostkaSolves:
    """The pair of triangular solves against K itself: the columns of K
    against tableau enumeration, and each solve's output multiplied back by
    K, so the forward solve's Schur coordinates h are checked on their own."""

    @pytest.mark.parametrize("n", range(0, 8))
    def test_columns_count_tableaux(self, n):
        # K[shape][content] is the coefficient of x^content in s_shape; column
        # j of the table holds the ranks of its shapes and these counts
        parts = partitions_of(n)
        columns = [{} for _ in parts]
        for r, shape in enumerate(parts):
            schur_function = ssyt_schur(shape, n)
            for j, content in enumerate(parts):
                count = schur_function.get(content, 0)
                if count:
                    columns[j][r] = int(count)
        table = list(map(_kostka_columns(n), range(len(parts))))
        assert [dict(zip(ranks, counts)) for ranks, counts in table] == columns
        assert all(len(set(ranks)) == len(ranks) for ranks, _ in table)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_columns_satisfy_the_hook_length_identity(self, n):
        # RSK pairs the words of content mu with the pairs (P, Q) of one shape,
        # P semistandard of content mu and Q standard (Stanley, EC2, ch. 7), so
        # sum_lambda K[lambda][mu] f^lambda = n! / prod_i mu_i!; f^lambda, the
        # standard tableaux, comes from the hook-length formula, which shares
        # no step with the horizontal strips
        parts = partitions_of(n)
        standard = []
        for shape in parts:
            column_lengths = [sum(1 for p in shape if p > j) for j in range(n)]
            hooks = prod(
                row - j + column_lengths[j] - i - 1
                for i, row in enumerate(shape)
                for j in range(row)
            )
            standard.append(factorial(n) // hooks)
        column = _kostka_columns(n)
        for j, content in enumerate(parts):
            words = factorial(n) // prod(map(factorial, content))
            ranks, counts = column(j)
            assert sum(count * standard[r] for r, count in zip(ranks, counts)) == words, content

    @pytest.fixture
    def one_strip_twice(self, monkeypatch):
        # the strip of one box on the shape (1,) yields (2,) twice, so every
        # content that starts (1, 1) counts one tableau too many
        real = chigenus.symchern._horizontal_strips

        def doubled(shape, size):
            grown = real(shape, size)
            return grown + grown[:1] if (shape, size) == ((1,), 1) else grown

        monkeypatch.setattr(chigenus.symchern, "_horizontal_strips", doubled)

    def test_a_miscounted_column_is_refused_as_it_is_built(self, one_strip_twice):
        column = _kostka_columns(3)
        column(0), column(1)  # the contents (3) and (2, 1) grow no strip on (1,)
        message = r"column \(1, 1, 1\) of K fails the hook-length identity"
        with pytest.raises(ConsistencyError, match=message):
            column(2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_no_solve_reads_a_miscounted_column(self, one_strip_twice, n):
        with pytest.raises(ConsistencyError, match="hook-length identity"):
            _schur_rows(partitions_of(n), n)
        with pytest.raises(ConsistencyError, match="hook-length identity"):
            chern_coordinates([[1]] * len(partitions_of(n)), n)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_solves_satisfy_their_systems(self, n):
        rng = random.Random(3300 + n)
        width = 3
        size = len(partitions_of(n))
        right = [
            [0] * width if rng.random() < 0.3 else [rng.randint(-9, 9) for _ in range(width)]
            for _ in range(size)
        ]
        kept = [list(v) for v in right]
        table = list(map(_kostka_columns(n), range(size)))
        h = _kostka_forward_substitution(right, table.__getitem__)
        k = _kostka_back_substitution(right, table.__getitem__)
        assert len(h) == len(k) == size and right == kept
        column = [dict(zip(ranks, counts)) for ranks, counts in table]
        for lam in range(size):
            # K^T h = right: row lam of K^T is column lam of K
            forward = [sum(c * h[r][i] for r, c in column[lam].items()) for i in range(width)]
            # K k = right: row lam of K holds K[lam][mu] over the columns mu
            back = [
                sum(column[mu].get(lam, 0) * k[mu][i] for mu in range(size)) for i in range(width)
            ]
            assert forward == right[lam] and back == right[lam], lam

    @pytest.mark.parametrize(
        "a", [(4, 4, 4, 4), (16,), (1,) * 16] + random.Random(41).sample(partitions_of(16), 5)
    )
    def test_one_row_reads_only_the_columns_it_needs(self, monkeypatch, a):
        # the back substitution on e_a reads column j iff k_j != 0, with
        # k = K^-1 e_a the coordinates of P_a: so it reads the ranks of P_a's
        # monomials, each once, from the last to the first
        a += (0,) * (16 - len(a))
        rank = {_partition_monomial(mu, 16): j for j, mu in enumerate(partitions_of(16))}
        needed = sorted((rank[m] for m in schur(a, 16).terms()), reverse=True)
        read = []

        def recording(n):
            column = _kostka_columns(n)

            def recorded(j):
                read.append(j)
                return column(j)

            return recorded

        monkeypatch.setattr(chigenus.symchern, "_kostka_columns", recording)
        _schur_rows([a], 16)
        assert read == needed

    @pytest.mark.parametrize("n", range(0, 13))
    def test_one_builder_serves_any_order(self, n):
        # ascending and descending ranks walk the prefix trie depth first, a
        # shuffle jumps about it: one builder gives the same columns in each
        size = len(partitions_of(n))
        shuffled = random.Random(4100 + n).sample(range(size), size)
        column = _kostka_columns(n)
        ascending = [column(j) for j in range(size)]
        for order in (range(size - 1, -1, -1), shuffled):
            assert {j: column(j) for j in order} == dict(enumerate(ascending)), order

    def test_module_keeps_no_cache(self):
        # a column builder lives for one call; `partitions_of` and `weight_basis`
        # are cached in `poly` and only imported here
        own = [
            f
            for f in vars(chigenus.symchern).values()
            if callable(f) and getattr(f, "__module__", None) == "chigenus.symchern"
        ]
        assert _kostka_columns in own
        assert [f.__name__ for f in own if hasattr(f, "cache_info")] == []


class TestChiYSchurCoordinates:
    """The forward solve on the chi_y right-hand side of `hrr` against the
    closed form of its Schur coordinates, a Jacobi-Trudi determinant over
    Z[y] that uses no Kostka number (`oracles.chi_y_schur_coordinates`)."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_forward_solve_matches_the_determinant_oracle(self, n):
        scale, q = chi_y_factor(n)
        assert (scale, tuple(s for _, s in q)) == _chi_y_factor(n)
        assert all(t == (-1) ** k * s for k, (t, s) in enumerate(q))
        right = []
        for lam in partitions_of(n):
            poly = [1]
            for k in lam:  # padded: each zero part is a factor Q_0
                poly = ypoly_mul(poly, q[k])
            right.append(poly)
        h = _kostka_forward_substitution(right, _kostka_columns(n))
        assert [tuple(v) for v in h] == list(chi_y_schur_coordinates(n))


class TestChernCoordinates:
    """The monomial-to-elementary solve on symmetric functions with known
    c-monomial forms."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_power_sum_is_monomial_of_one_part(self, n):
        # p_n = m_(n)
        coefficients = [[1 if a[0] == n else 0] for a in partitions_of(n)]
        coordinates = dict(zip(weight_basis(n), chern_coordinates(coefficients, n)))
        expected = power_sum(n, n)
        assert {m: v[0] for m, v in coordinates.items() if v[0]} == expected.terms()

    @pytest.mark.parametrize("n", range(0, 9))
    def test_elementary_and_vector_entries(self, n):
        # e_n = m_(1^n), with several right-hand sides solved at once
        ones = (1,) * n
        coefficients = [[int(a == ones), 2 * int(a == ones), 0] for a in partitions_of(n)]
        coordinates = dict(zip(weight_basis(n), chern_coordinates(coefficients, n)))
        top = tuple([0] * (n - 1) + [1]) if n else ()
        for mono, vector in coordinates.items():
            assert vector == ([1, 2, 0] if mono == top else [0, 0, 0]), mono


class TestChernCoordinatesMatchRootReduction:
    """chern_coordinates on random integer m-basis vectors against the
    leading-term descent of the same polynomial in the roots, without hrr."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_vectors(self, n):
        rng = random.Random(7000 + n)
        width = 3
        coefficients = [[rng.randint(-9, 9) for _ in range(width)] for _ in partitions_of(n)]
        coordinates = dict(zip(weight_basis(n), chern_coordinates(coefficients, n)))
        for j in range(width):
            roots = {}  # sum_lambda F_lambda[j] m_lambda(x_1..x_n)
            for a, vector in zip(partitions_of(n), coefficients):
                if vector[j]:
                    for exponents in set(permutations(a)):
                        roots[exponents] = Fraction(vector[j])
            expected = to_elementary(roots, n)
            got = {m: Fraction(v[j]) for m, v in coordinates.items() if v[j]}
            assert got == expected, (n, j)


class TestSegre:
    """The top Segre class, the weight-n part of (1 + c_1 + ... + c_n)^-1
    in the oracle ring, is (-1)^n P_(1^n)."""

    @staticmethod
    def segre_top(n):
        total = GradedPoly.one(n)
        for i in range(1, n + 1):
            total = total + GradedPoly.variable(n, i)
        inverse = GradedPoly.one(n)
        power = GradedPoly.one(n)
        for _ in range(n):
            power = power * (GradedPoly.one(n) - total)
            inverse = inverse + power
        # independent check: (1 + c_1 + ... + c_n) * (1 + s_1 + ... + s_n) = 1
        assert total * inverse == GradedPoly.one(n)
        return inverse.graded_part(n)

    def test_dim1(self):
        assert self.segre_top(1) == P(1, "-1*c1")

    def test_dim2_series_inversion(self):
        assert self.segre_top(2) == P(2, "1*c1^2 - 1*c2")

    @pytest.mark.parametrize("n", range(0, 9))
    def test_equals_signed_hook_schur(self, n):
        hook = schur((1,) * n, n).scaled((-1) ** n)
        assert self.segre_top(n).top_coefficients() == hook.coeffs


class TestPowerSums:
    def test_first_three(self):
        assert power_sum(1, 3) == P(3, "1*c1")
        assert power_sum(2, 3) == P(3, "1*c1^2 - 2*c2")
        assert power_sum(3, 3) == P(3, "1*c1^3 - 3*c1*c2 + 3*c3")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_root_oracle(self, n):
        for k in range(1, n + 1):
            assert power_sum(k, n) == power_sum_via_roots(k, n), (k, n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            power_sum(0, 3)
        with pytest.raises(ValueError):
            power_sum(4, 3)


class TestFlipped:
    def test_top_weight_flip_is_global_sign(self):
        for n in range(1, 6):
            for a in partitions_of(n):
                f = schur(a, n)
                assert f.flipped() == ChernFunctional(
                    n, BasisConvention.TANGENT, f.scaled((-1) ** n).coeffs, 1
                )
                assert f.flipped().flipped() == f


class TestConvention:
    def test_tags(self):
        assert BasisConvention.TANGENT.other() is BasisConvention.COTANGENT
        assert BasisConvention.COTANGENT.other() is BasisConvention.TANGENT
        assert BasisConvention("tangent") is BasisConvention.TANGENT
