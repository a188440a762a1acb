"""Exact arithmetic: Smith normal form, the equalizer's triangular solve, Bezout sets, cyclotomics."""

import cmath
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from burnside.characters import MalformedEntry, _parse_cyclotomic_entry
from burnside.cyclotomic import Cyclotomic, NotInSubfield, cyclotomic_polynomial, mobius
from burnside.exact import (
    GcdNotOne,
    IntMatrix,
    divisors,
    extended_euclid_set,
    factorization,
    integer_kernel_basis,
    row_echelon,
    smith_normal_form,
    xgcd,
)
from burnside.restriction import RestrictionError, _solve_coordinates

from oracles import elementary_divisors


def zeros(r: int, c: int) -> IntMatrix:
    return IntMatrix(r, c, ((0,) * c,) * r)


def assert_snf_valid(m: IntMatrix) -> tuple[int, ...]:
    d = smith_normal_form(m)
    # the nonzero divisors are positive and form a divisibility chain; the
    # oracle's gcds of minors, which share no step with the Smith form, check
    # their values
    assert all(x > 0 for x in d)
    assert all(b % a == 0 for a, b in zip(d, d[1:]))
    return d


def nonzero_divisors(m: IntMatrix) -> tuple[int, ...]:
    return tuple(x for x in elementary_divisors(m) if x)


class TestSmithNormalForm:
    def test_worked_example(self):
        assert assert_snf_valid(IntMatrix.from_rows([[2, 4], [6, 8]])) == (2, 4)

    def test_identity(self):
        assert assert_snf_valid(IntMatrix.identity(3)) == (1, 1, 1)

    def test_zero(self):
        assert assert_snf_valid(zeros(2, 2)) == ()

    def test_rectangular(self):
        m = IntMatrix.from_rows([[2, 4, 6], [4, 8, 10]])
        assert assert_snf_valid(m) == nonzero_divisors(m)

    def test_divisibility_fixup(self):
        # a coprime diagonal needs the gcd and lcm step
        assert assert_snf_valid(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)

    def test_negative_determinant(self):
        assert assert_snf_valid(IntMatrix.from_rows([[0, 1], [1, 0]])) == (1, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4), min_size=1, max_size=4)
           .filter(lambda rows: len({len(r) for r in rows}) == 1))
    def test_random_matrices(self, rows):
        m = IntMatrix.from_rows(rows)
        assert assert_snf_valid(m) == nonzero_divisors(m)

    def test_kernel_basis(self):
        m = IntMatrix.from_rows([[1, 2, 3]])
        basis = integer_kernel_basis(m)
        assert len(basis) == 2
        assert m @ IntMatrix.from_rows(basis).transpose() == IntMatrix.from_rows([[0, 0]])

    def test_tall_matrix_and_its_transpose(self):
        rng = random.Random(3)
        m = IntMatrix.from_rows([[2 * rng.randint(-4, 4), 6 * rng.randint(-4, 4), rng.randint(-4, 4)]
                                 for _ in range(40)])
        assert (m.rows, m.cols) == (40, 3)
        for a in (m, m.transpose()):
            assert assert_snf_valid(a) == nonzero_divisors(a)


def random_matrix(rng: random.Random, deficient: bool) -> IntMatrix:
    """A matrix of at most 5 x 5 with entries in -10..10.  A deficient one
    has a line on its short side that is the sum of two others (a copy of the
    other one, or zero, when the short side has fewer), so its rank is below
    min(rows, cols)."""
    k, n = sorted((rng.randint(1, 5), rng.randint(1, 5)))
    span = 5 if deficient else 10
    lines = [[rng.randint(-span, span) for _ in range(n)] for _ in range(k)]
    if deficient:
        t = rng.randrange(k)
        sources = rng.sample([i for i in range(k) if i != t], min(2, k - 1))
        lines[t] = [sum(lines[i][j] for i in sources) for j in range(n)]
    m = IntMatrix.from_rows(lines)
    return m if rng.random() < 0.5 else m.transpose()


class TestSmithAgainstDeterminantalDivisors:
    """The Smith diagonal against the oracle's elementary divisors, read off
    the gcds of k x k minors by Bareiss determinants."""

    def test_seeded_random_matrices(self):
        rng = random.Random(0)
        deficient = 0
        for trial in range(200):
            m = random_matrix(rng, trial % 3 == 0)
            expected = elementary_divisors(m)
            assert assert_snf_valid(m) == tuple(x for x in expected if x), m.entries
            deficient += 0 in expected
        assert deficient >= 67

    @pytest.mark.parametrize("rows,cols,diagonal", [
        ([[2, 0], [0, 3]], 2, [1, 6]),
        ([[4, 0], [0, 6]], 2, [2, 12]),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], 3, [1, 30, 30]),
        ([[0, 0], [0, 0]], 2, [0, 0]),
        ([], 3, []),
        ([[], [], []], 0, []),
    ])
    def test_named_cases(self, rows, cols, diagonal):
        m = IntMatrix(len(rows), cols, tuple(map(tuple, rows)))
        assert elementary_divisors(m) == diagonal
        assert assert_snf_valid(m) == tuple(x for x in diagonal if x)


class TestZeroDimensions:
    """transpose, @ and scale keep a zero row or column count."""

    def test_transpose_of_3x0(self):
        assert zeros(3, 0).transpose() == zeros(0, 3)
        assert zeros(0, 3).transpose() == zeros(3, 0)

    def test_product_through_0x4(self):
        assert zeros(0, 4) @ zeros(4, 2) == zeros(0, 2)
        assert zeros(3, 0) @ zeros(0, 2) == zeros(3, 2)
        assert IntMatrix.identity(2) @ zeros(2, 0) == zeros(2, 0)

    @pytest.mark.parametrize("cols", [0, 1, 5])
    def test_scale_of_0xc(self, cols):
        assert zeros(0, cols).scale(7) == zeros(0, cols)

    def test_nonempty_unchanged(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose() == IntMatrix.from_rows([[1, 4], [2, 5], [3, 6]])
        assert m.scale(-2) == IntMatrix.from_rows([[-2, -4, -6], [-8, -10, -12]])
        assert m @ m.transpose() == IntMatrix.from_rows([[14, 32], [32, 77]])


def _rank_and_divisors(m: IntMatrix) -> tuple[int, list[int]]:
    d = smith_normal_form(m)
    return len(d), list(d)


@st.composite
def kernel_inputs(draw):
    """Matrices of at most 8 x 8 with entries in -3..3, seeded with zero,
    duplicate and negated rows; 0 rows and 0 columns included."""
    cols = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), max_size=8))
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "negated"]), max_size=8 - len(rows))):
        if kind == "zero" or not rows:
            rows.append([0] * cols)
        else:
            source = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(list(source) if kind == "duplicate" else [-v for v in source])
    return rows, cols


class TestIntegerKernel:
    @settings(max_examples=100, deadline=None)
    @given(kernel_inputs())
    def test_primitive_basis_of_the_kernel(self, data):
        rows, cols = data
        m = IntMatrix.from_rows(rows) if rows else zeros(0, cols)
        basis = integer_kernel_basis(m)
        assert all(len(x) == cols for x in basis)
        # each vector is annihilated, there are cols - rank of them, and the
        # oracle's divisors of the basis are all 1: it spans every kernel
        # vector, not a sublattice of index above 1
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows for x in basis)
        assert len(basis) == cols - len(row_echelon(rows, cols))
        if basis:
            assert elementary_divisors(IntMatrix.from_rows(basis)) == [1] * len(basis)


class TestRowEchelon:
    @settings(max_examples=150, deadline=None)
    @given(kernel_inputs())
    def test_same_row_lattice_as_the_input(self, data):
        rows, cols = data
        m = IntMatrix.from_rows(rows) if rows else zeros(0, cols)
        echelon = row_echelon(rows, cols)
        # row echelon form: each row's leading column strictly increases,
        # and its leading entry is positive
        leads = [next(j for j, v in enumerate(row) if v) for row in echelon]
        assert leads == sorted(set(leads))
        assert all(row[p] > 0 for row, p in zip(echelon, leads))
        rank, divisors = _rank_and_divisors(m)
        assert len(echelon) == rank
        if not echelon:
            return
        # H has M's divisors, and [M; H] has them too: H spans M's row lattice
        assert _rank_and_divisors(IntMatrix.from_rows(echelon)) == (rank, divisors)
        assert _rank_and_divisors(IntMatrix.from_rows(rows + echelon)) == (rank, divisors)

    def test_streams_a_generator(self):
        rows = ([1, -1, 0] for _ in range(1000))
        assert row_echelon(rows, 3) == [[1, -1, 0]]

    def test_gcd_step(self):
        # 4 does not divide 6: the pair becomes (2, 3) and a zero row
        assert row_echelon([[4, 6], [6, 9]], 2) == [[2, 3]]
        assert row_echelon([[0, -3], [2, 1], [0, 2]], 2) == [[2, 1], [0, 1]]


# each error path of the exact layer: its type and its whole message
ERROR_PATHS = [
    pytest.param(lambda: IntMatrix.from_rows([[1, 2], [3]]), ValueError, "ragged rows", id="ragged-rows"),
    pytest.param(lambda: IntMatrix.identity(2) @ IntMatrix.identity(3), ValueError, "dimension mismatch",
                 id="matmul-dimensions"),
    pytest.param(lambda: extended_euclid_set([]), GcdNotOne, "empty input", id="bezout-empty"),
    pytest.param(lambda: extended_euclid_set([0, 1]), ValueError, "values must be positive", id="bezout-zero"),
    pytest.param(lambda: Cyclotomic.zeta(4).as_rational(), NotInSubfield,
                 "Cyclotomic(4, ['0', '1']) is not rational", id="zeta4-as-rational"),
    pytest.param(lambda: Cyclotomic.zeta(4).to_conductor(6), ValueError, "cannot embed conductor 4 into 6",
                 id="zeta4-to-conductor-6"),
    pytest.param(lambda: Cyclotomic.zeta(4).galois(2), ValueError, "2 is not prime to conductor 4",
                 id="zeta4-galois-2"),
]


@pytest.mark.parametrize("call, error, message", ERROR_PATHS)
def test_error_paths(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestNumberTheory:
    def test_divisors_and_phi_match_definitions(self):
        for n in range(-3, 201):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_factorization_is_ascending_primes_and_their_exponents(self):
        for n in range(-3, 201):
            exponents = factorization(n)
            assert list(exponents) == sorted(exponents)
            assert all(divisors(p) == [1, p] and e >= 1 for p, e in exponents.items())
            assert math.prod(p**e for p, e in exponents.items()) == max(n, 1)

    def test_mobius_sums_to_the_unit_indicator(self):
        for n in range(1, 201):
            assert sum(mobius(d) for d in divisors(n)) == (n == 1)


class TestTriangularSolve:
    """The equalizer's coordinates C with C * H = M, solved by forward
    substitution on the pivot columns of the echelon rows H."""

    def test_lower_triangular(self):
        h = [[6, 2, 3], [0, 0, 1]]
        # pivots in columns 0 and 2: 6*c0 = 6, then 3*1 + c1 = 6; column 1 is not read
        assert _solve_coordinates(h, [[6, 2, 6]]) == [[1, 3]]
        assert IntMatrix.from_rows([[1, 3]]) @ IntMatrix.from_rows(h) == IntMatrix.from_rows([[6, 2, 6]])

    def test_identity(self):
        assert _solve_coordinates(IntMatrix.identity(3).entries, [[5, -2, 7]]) == [[5, -2, 7]]

    def test_parity_obstruction(self):
        with pytest.raises(RestrictionError, match="^non-integral equalizer coordinate: pivot 0, remainder 1$"):
            _solve_coordinates([[2]], [[1]])

    def test_many_right_hand_sides_in_order(self):
        h = [[2, 1, 0], [0, 3, 4], [0, 0, 5]]
        xs = [[1, 2, 3], [-4, 0, 7], [0, 0, 0]]
        assert _solve_coordinates(h, (IntMatrix.from_rows(xs) @ IntMatrix.from_rows(h)).entries) == xs
        assert _solve_coordinates(h, []) == []

    def test_raises_at_the_first_failing_right_hand_side(self):
        h = [[2, 1], [0, 3]]
        # the second row fails at pivot 1 (3 - 1 = 2 is not a multiple of 3),
        # the third at pivot 0; the second is reported
        with pytest.raises(RestrictionError, match="pivot 1, remainder 2$"):
            _solve_coordinates(h, [[2, 4], [2, 3], [1, 0]])


class TestExtendedEuclid:
    def test_pair(self):
        z = extended_euclid_set([3, 2])
        assert z[0] * 3 + z[1] * 2 == 1

    def test_single(self):
        assert extended_euclid_set([1]) == [1]

    def test_gcd_two(self):
        with pytest.raises(GcdNotOne):
            extended_euclid_set([4, 6])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=5)
           .filter(lambda vs: math.gcd(*vs) == 1))
    def test_bezout_identity(self, values):
        z = extended_euclid_set(values)
        assert sum(a * b for a, b in zip(z, values)) == 1

    def test_xgcd(self):
        g, x, y = xgcd(12, 18)
        assert g == 6 and 12 * x + 18 * y == 6


class TestCyclotomic:
    def test_cube_root_identity(self):
        z = Cyclotomic.zeta(3)
        assert z * z + z == Cyclotomic(1, [-1])

    def test_fourth_root(self):
        i = Cyclotomic.zeta(4)
        assert i * i == -1

    def test_conjugate(self):
        z = Cyclotomic.zeta(5)
        real = z + z.galois(z.conductor - 1)
        assert z.galois(z.conductor - 1) == Cyclotomic.zeta(5, 4)
        assert real.galois(real.conductor - 1) == real

    def test_embedding_round_trip(self):
        a = Cyclotomic.zeta(3) + 2
        up = a.to_conductor(12)
        assert up == a

    def test_equality_with_rationals(self):
        assert Cyclotomic(12, [1]) == 1
        assert Cyclotomic.zero(5) == 0
        assert Cyclotomic(4, [-3]) == -3
        assert not Cyclotomic.zeta(4) == 1
        assert Cyclotomic(3, [1, 1]) != 1  # 1 + zeta_3 = -zeta_3^2
        assert Cyclotomic(3, [0, -1, -1]) == 1  # -zeta_3 - zeta_3^2 = 1
        # a non-integral rational is never a cyclotomic integer
        assert not Cyclotomic(1, [1]) == Fraction(1, 2)
        assert Cyclotomic(6, [1]) != Fraction(3, 2)

    @pytest.mark.parametrize("value", [0.5, Fraction(1, 2)], ids=["float", "fraction"])
    @pytest.mark.parametrize("operation", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("swap", [False, True], ids=["cyclotomic-left", "cyclotomic-right"])
    def test_floats_and_fractions_are_refused(self, value, operation, swap):
        # coordinates are ints, so no float or fraction ever becomes one
        z = Cyclotomic.zeta(4)
        with pytest.raises(TypeError):
            operation(value, z) if swap else operation(z, value)
        assert not z == value

    def test_equality_with_rationals_builds_no_value(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("comparison built a value")

        value = Cyclotomic(8, [1])
        monkeypatch.setattr(Cyclotomic, "__init__", refuse)
        monkeypatch.setattr(Cyclotomic, "to_conductor", refuse)
        assert value == 1 and value != 2 and value != Fraction(1, 3)

    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_root_of_unity_order(self):
        for n in (1, 2, 3, 4, 6, 8, 12):
            assert Cyclotomic.zeta(n, n) == 1
            for k in range(1, n):
                assert not Cyclotomic.zeta(n, k) == 1 or n == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 4, 6]),
        st.sampled_from([2, 3, 4]),
        st.lists(st.integers(-3, 3), min_size=1, max_size=2),
        st.lists(st.integers(-3, 3), min_size=1, max_size=2),
    )
    def test_embedding_preserves_arithmetic(self, conductor, factor, coeffs, other):
        a = Cyclotomic(conductor, coeffs)
        b = Cyclotomic(conductor, other)
        target = conductor * factor
        assert (a * b).to_conductor(target) == a.to_conductor(target) * b.to_conductor(target)
        assert (a + b).to_conductor(target) == a.to_conductor(target) + b.to_conductor(target)


def evaluate(value: Cyclotomic) -> complex:
    """The complex number a Cyclotomic names, at zeta_N = e^(2 pi i / N)."""
    return sum(c * cmath.exp(2j * cmath.pi * k / value.conductor) for k, c in enumerate(value.coeffs))


@st.composite
def integer_cyclotomics(draw, conductor):
    return Cyclotomic(conductor, draw(st.lists(st.integers(-4, 4), max_size=conductor + 2)))


class TestCyclotomicAgainstComplexNumbers:
    """Z[zeta_N] arithmetic against evaluation at e^(2 pi i / N), in floats."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.data())
    def test_arithmetic(self, n, m, data):
        a = data.draw(integer_cyclotomics(n))
        b = data.draw(integer_cyclotomics(m))
        assert abs(evaluate(a + b) - (evaluate(a) + evaluate(b))) < 1e-9
        assert abs(evaluate(a - b) - (evaluate(a) - evaluate(b))) < 1e-9
        assert abs(evaluate(a * b) - evaluate(a) * evaluate(b)) < 1e-9
        assert abs(evaluate(a.galois(a.conductor - 1)) - evaluate(a).conjugate()) < 1e-9
        factor = data.draw(st.integers(1, 4))
        assert abs(evaluate(a.to_conductor(n * factor)) - evaluate(a)) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 24), st.data())
    def test_galois(self, n, data):
        a = data.draw(integer_cyclotomics(n))
        k = data.draw(st.integers(1, n).filter(lambda k: math.gcd(k, n) == 1))
        # zeta -> zeta^k maps sum_j c_j zeta^j to sum_j c_j zeta^(jk)
        image = sum(c * cmath.exp(2j * cmath.pi * j * k / n) for j, c in enumerate(a.coeffs))
        assert abs(evaluate(a.galois(k)) - image) < 1e-9

    def test_cyclotomic_polynomial_vanishes_at_primitive_roots(self):
        for n in range(1, 61):
            phi = cyclotomic_polynomial(n)
            assert len(phi) - 1 == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            for k in range(1, n + 1):
                if math.gcd(k, n) == 1:
                    root = cmath.exp(2j * cmath.pi * k / n)
                    assert abs(sum(c * root ** j for j, c in enumerate(phi))) < 1e-9

    def test_non_integral_coordinate_raises(self):
        # Cyclotomic takes int coordinates as given: a table file's entries
        # are the only text that becomes a value, and a fraction there raises
        for text in ("1/3*z", "-1/2"):
            with pytest.raises(MalformedEntry):
                _parse_cyclotomic_entry(text, 4)
        assert Cyclotomic(4, [6 // 3]).coeffs == (2, 0)
        assert Cyclotomic(1, [-1]).as_rational() == -1
        # arithmetic keeps the coordinates ints
        z = Cyclotomic.zeta(4)
        assert all(type(c) is int for c in (z * z * 3 + z - 2).to_conductor(12).galois(5).coeffs)
