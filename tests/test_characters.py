"""Class functions, induction/restriction, reciprocity, and character tables."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from burnside.cyclotomic import Cyclotomic, NotInSubfield
from burnside import characters
from burnside.characters import (
    CharacterError,
    CharacterTable,
    ClassFunction,
    DegreeSumMismatch,
    MalformedEntry,
    OrthogonalityFailure,
    character_table,
    conjugate_function,
    induce,
    linear_characters,
    load_character_table,
    restrict,
    _charpoly,
    _class_matrix,
    _dixon_schneider,
    _eigenspaces,
    _order_rows,
    _parse_cyclotomic_entry,
)
from burnside.groups import (
    builtin_group,
    close_under_product,
    conjugacy_classes,
    exponent,
    parse_cycles,
    parse_group,
    subgroup_lattice,
)

from burnside.marks import marks_table

from group_fixtures import (
    BENCHMARK_GROUPS,
    benchmark_group,
    coset_fixed_points,
    induced_by_cosets,
    small_subgroups_of_s6,
)
from oracles import (
    class_index,
    constant_function,
    degrees,
    element_set,
    frobenius_check,
    from_coordinates,
    inner_product,
    mackey_check,
    perm_character,
    perm_inv,
    scale,
    subgroup_view,
    subtract,
    table_to_text,
)

FIXTURES = ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D4", "Q8", "A4", "S4"]

# abelian groups whose greedy generators have orders 2, 2, 2 and 2, 2, 4:
# in C2xC4 the last generator's square lies in the subgroup of the first two
ABELIAN_PRESENTATIONS = {
    "C2^3": "(0 1)\n(2 3)\n(4 5)",
    "C2xC4": "(0 1)(2 3 4 5)\n(2 4)(3 5)(6 7)",
}

# generators, and the published degrees of the irreducible characters
# (the ATLAS of Finite Groups; James and Liebeck, Representations and
# Characters of Groups)
PUBLISHED_DEGREES = {
    "SL(2,3)": ("(0 3 6)(1 7 4)\n(0 5 1 2)(3 6 7 4)", [1, 1, 1, 2, 2, 2, 3]),
    "GL(2,3)": ("(0 3 6)(1 7 4)\n(0 5 1 2)(3 6 7 4)\n(2 5)(3 6)(4 7)", [1, 1, 2, 2, 2, 3, 3, 4]),
    "A5": ("(0 1 2 3 4)\n(0 1 2)", [1, 3, 3, 4, 5]),
    "S5": ("(0 1)\n(0 1 2 3 4)", [1, 1, 4, 4, 5, 5, 6]),
    "C2xS4": ("(0 1)\n(0 1 2 3)\n(4 5)", [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]),
    "A6": ("(0 1 2 3 4)\n(3 4 5)", [1, 5, 5, 8, 8, 9, 10]),
    "S6": ("(0 1 2 3 4 5)\n(0 1)", [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]),
}


@pytest.fixture(scope="module")
def s3():
    return builtin_group("S3")


def explicit_subgroup(group, *cycle_strings):
    gens = [parse_cycles(s, group.core.degree) for s in cycle_strings]
    return close_under_product(group.core.degree, gens)


def random_class_function(group, classes, rng, conductor):
    values = []
    for _ in classes.members:
        coeffs = [rng.randint(-2, 2) for _ in range(2)]
        values.append(Cyclotomic(conductor, coeffs))
    return ClassFunction(group, tuple(values))


class TestPermCharacter:
    def test_c2_in_s3(self, s3):
        c2 = explicit_subgroup(s3, "(0 1)")
        chi = perm_character(s3, c2)
        assert [v.as_rational() for v in chi.values] == [3, 1, 0]

    def test_full_group(self, s3):
        chi = perm_character(s3, frozenset(s3.core.elements))
        assert all(v == 1 for v in chi.values)

    def test_trivial_subgroup(self, s3):
        chi = perm_character(s3, frozenset([s3.core.elements[0]]))
        assert [v.as_rational() for v in chi.values] == [6, 0, 0]


class TestInduce:
    def test_trivial_character_of_c3(self, s3):
        c3 = explicit_subgroup(s3, "(0 1 2)")
        sub = subgroup_view(s3, c3)
        one = constant_function(sub, conjugacy_classes(sub), 1)
        induced = induce(one, s3)
        assert [v.as_rational() for v in induced.values] == [2, 0, 2]
        assert induced == perm_character(s3, c3)

    def test_induce_from_full_group_is_identity(self, s3):
        sub = subgroup_view(s3, frozenset(s3.core.elements))
        table = character_table(sub)
        for row in table.rows:
            assert induce(ClassFunction(sub, row), s3) == ClassFunction(s3, row)

    def test_nontrivial_character_of_c3(self, s3):
        c3 = explicit_subgroup(s3, "(0 1 2)")
        sub = subgroup_view(s3, c3)
        z = Cyclotomic.zeta(3)
        # classes of C3 ordered e, g, g^2 with g the sorted-first 3-cycle
        lam = ClassFunction(sub, (Cyclotomic(3, [1]), z, z * z))
        induced = induce(lam, s3)
        values = induced.values
        assert values[0] == 2
        assert values[1] == 0
        assert values[2] == -1


def exact_values(chi: ClassFunction) -> list[tuple]:
    return [(v.conductor, v.coeffs) for v in chi.values]


def assert_class_counts_match_cosets(group) -> None:
    """class_of inverts members; on every subgroup class, perm_character
    agrees with the coset-by-coset count, and induce with the coset sum
    for every irreducible, conductors included."""
    classes = conjugacy_classes(group)
    assert sorted(x for cls in classes.members for x in cls) == list(range(group.order))
    assert all(classes.class_of[x] == c for c, cls in enumerate(classes.members) for x in cls)
    table = marks_table(subgroup_lattice(group))
    for h, cls in enumerate(table.lattice.classes):
        chi = perm_character(group, element_set(cls))
        assert [v.as_rational() for v in chi.values] == \
            [coset_fixed_points(table, h, g) for g in classes.representatives]
        sub = subgroup_view(group, element_set(cls))
        for xi in (ClassFunction(sub, row) for row in character_table(sub).rows):
            assert exact_values(induce(xi, group)) == exact_values(induced_by_cosets(xi, group))


class TestClassCountsAgainstCosets:
    @pytest.mark.parametrize("name", FIXTURES + ["trivial"])
    def test_builtin(self, name):
        assert_class_counts_match_cosets(builtin_group(name))

    @pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
    def test_benchmark_group(self, name):
        assert_class_counts_match_cosets(benchmark_group(name))

    @settings(max_examples=15, deadline=None)
    @given(small_subgroups_of_s6())
    def test_small_subgroups_of_s6(self, group):
        assert_class_counts_match_cosets(group)


class TestRestrict:
    def test_perm_character_restriction(self, s3):
        c2 = explicit_subgroup(s3, "(0 1)")
        sub = subgroup_view(s3, c2)
        chi = perm_character(s3, c2)
        res = restrict(chi, sub)
        assert [v.as_rational() for v in res.values] == [3, 1]

    def test_constant_restricts_to_constant(self, s3):
        one = constant_function(s3, conjugacy_classes(s3), 1)
        c3 = subgroup_view(s3, explicit_subgroup(s3, "(0 1 2)"))
        assert all(v == 1 for v in restrict(one, c3).values)

    def test_restrict_to_trivial_gives_degree(self, s3):
        chi = perm_character(s3, explicit_subgroup(s3, "(0 1)"))
        triv = subgroup_view(s3, frozenset([s3.core.elements[0]]))
        res = restrict(chi, triv)
        assert [v.as_rational() for v in res.values] == [3]


class TestFrobenius:
    def test_worked_example(self, s3):
        c2 = subgroup_view(s3, explicit_subgroup(s3, "(0 1)"))
        e = constant_function(c2, conjugacy_classes(c2), 1)
        m = perm_character(s3, explicit_subgroup(s3, "(0 1 2)"))
        assert frobenius_check(e, m, s3)

    def test_zero(self, s3):
        c2 = subgroup_view(s3, explicit_subgroup(s3, "(0 1)"))
        zero = constant_function(c2, conjugacy_classes(c2), 0)
        m = perm_character(s3, explicit_subgroup(s3, "(0 1 2)"))
        assert frobenius_check(zero, m, s3)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_random_class_functions(self, name):
        group = builtin_group(name)
        lattice = subgroup_lattice(group)
        cond = exponent(group)
        g_classes = conjugacy_classes(group)
        rng = random.Random(hash(name) % 100000)
        for _ in range(10):
            cls = lattice.classes[rng.randrange(len(lattice.classes))]
            sub = subgroup_view(group, element_set(cls))
            e = random_class_function(sub, conjugacy_classes(sub), rng, cond)
            m = random_class_function(group, g_classes, rng, cond)
            assert frobenius_check(e, m, group)


class TestMackey:
    def test_worked_example(self, s3):
        c2 = explicit_subgroup(s3, "(0 1)")
        sub = subgroup_view(s3, c2)
        xi = constant_function(sub, conjugacy_classes(sub), 1)
        assert mackey_check(c2, xi, s3)
        # by hand: left side res(ind 1) = (3, 1); right side (1,1) + (2,0)
        left = restrict(induce(xi, s3), sub)
        assert [v.as_rational() for v in left.values] == [3, 1]

    def test_k_is_full_group(self, s3):
        c3 = subgroup_view(s3, explicit_subgroup(s3, "(0 1 2)"))
        xi = constant_function(c3, conjugacy_classes(c3), 1)
        assert mackey_check(frozenset(s3.core.elements), xi, s3)

    def test_h_is_full_group(self, s3):
        sub = subgroup_view(s3, frozenset(s3.core.elements))
        xi = perm_character(s3, explicit_subgroup(s3, "(0 1)"))
        xi = ClassFunction(sub, xi.values)
        c2 = explicit_subgroup(s3, "(0 1)")
        assert mackey_check(c2, xi, s3)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_random_class_functions(self, name):
        group = builtin_group(name)
        lattice = subgroup_lattice(group)
        cond = exponent(group)
        rng = random.Random(hash(name) % 99991)
        for _ in range(6):
            hcls = lattice.classes[rng.randrange(len(lattice.classes))]
            kcls = lattice.classes[rng.randrange(len(lattice.classes))]
            sub = subgroup_view(group, element_set(hcls))
            xi = random_class_function(sub, conjugacy_classes(sub), rng, cond)
            assert mackey_check(element_set(kcls), xi, group)


class TestReciprocity:
    @pytest.mark.parametrize("name", ["S3", "D4", "A4", "Q8"])
    def test_inner_product_form(self, name):
        group = builtin_group(name)
        lattice = subgroup_lattice(group)
        top = character_table(subgroup_view(group, frozenset(group.core.elements), name))
        for cls in lattice.classes:
            sub = subgroup_view(group, element_set(cls))
            for xi in (ClassFunction(sub, row) for row in character_table(sub).rows):
                up = induce(xi, group)
                for chi in top.rows:
                    chi_on_group = ClassFunction(group, chi)
                    lhs = inner_product(up, chi_on_group)
                    rhs = inner_product(xi, restrict(chi_on_group, sub))
                    assert lhs == rhs


class TestCharacterTables:
    @pytest.mark.parametrize("name", FIXTURES + ["trivial"])
    def test_computed_tables_validate(self, name):
        group = builtin_group(name)
        table = character_table(group)
        assert sum(d * d for d in degrees(table)) == group.order

    def test_s3_degrees(self):
        assert degrees(character_table(builtin_group("S3"))) == [1, 1, 2]

    def test_s4_degrees(self):
        assert degrees(character_table(builtin_group("S4"))) == [1, 1, 2, 3, 3]

    def test_q8_degrees(self):
        assert degrees(character_table(builtin_group("Q8"))) == [1, 1, 1, 1, 2]

    @pytest.mark.parametrize("name", sorted(PUBLISHED_DEGREES))
    def test_published_degrees(self, name):
        generators, expected = PUBLISHED_DEGREES[name]
        assert degrees(character_table(parse_group(generators))) == expected

    @settings(max_examples=15, deadline=None)
    @given(small_subgroups_of_s6())
    def test_degrees_galois_orbits_and_real_rows(self, group):
        table = character_table(group)
        assert all(group.order % d == 0 for d in degrees(table))
        n = table.conductor

        def row_set(a):
            return {tuple(v.to_conductor(n).galois(a).coeffs for v in row) for row in table.rows}

        rows = row_set(1)
        assert all(row_set(a) == rows for a in range(2, n) if math.gcd(a, n) == 1)
        # Brauer's permutation lemma: complex conjugation fixes as many rows as classes
        real_rows = sum(all(v == v.galois(v.conductor - 1) for v in row) for row in table.rows)
        classes = table.classes
        real_classes = sum(class_index(classes, perm_inv(rep)) == i for i, rep in enumerate(classes.representatives))
        assert real_rows == real_classes

    @pytest.mark.parametrize("name", ["C2", "C3", "C4", "C6", "C2xC2", *ABELIAN_PRESENTATIONS])
    def test_dixon_schneider_agrees_with_linear_characters(self, name):
        # the two branches of character_table, compared where both apply,
        # each value at the exponent
        group = parse_group(ABELIAN_PRESENTATIONS.get(name, name))
        expected = _order_rows(linear_characters(group))
        assert _order_rows(_dixon_schneider(group)) == expected
        assert {v.conductor for row in expected for v in row} == {exponent(group)}

    def test_linear_characters_count(self):
        # the degree-1 rows number |G/[G,G]|: S3 -> 2, A4 -> 3, D4 -> 4, Q8 -> 4, S4 -> 2
        for name, count in [("S3", 2), ("A4", 3), ("D4", 4), ("Q8", 4), ("S4", 2)]:
            assert degrees(character_table(builtin_group(name))).count(1) == count
        # an abelian group has one character per element
        for spec in ["trivial", "C2", "C3", "C4", "C6", "C2xC2", *ABELIAN_PRESENTATIONS.values()]:
            group = parse_group(spec)
            assert len(linear_characters(group)) == group.order

    @pytest.mark.parametrize("name", ["S4", "SL(2,3)"])
    def test_provider_tables_live_at_their_own_exponent(self, name):
        from burnside.restriction import TableProvider

        lattice = subgroup_lattice(benchmark_group(name))
        provider = TableProvider(lattice)
        for idx in range(len(lattice.classes)):
            table = provider.class_table(idx)
            assert table.conductor == exponent(table.group)
        assert provider.class_table(lattice.full_index).conductor == 12

    @pytest.mark.parametrize("name", ["S4", "SL(2,3)"])
    def test_mixed_conductor_blocks_match_blocks_at_the_exponent_of_g(self, name):
        # a member's table at exp(K) reads G's rows at lcm(exp(K), exp(G)),
        # as a loaded table at its file's conductor does
        from burnside.restriction import TableProvider, _stacked_block

        lattice = subgroup_lattice(benchmark_group(name))
        provider = TableProvider(lattice)
        top = provider.class_table(lattice.full_index)
        g_classes, index, n = conjugacy_classes(lattice.group), lattice.group.core.index, top.conductor
        for idx in range(len(lattice.classes)):
            table = provider.class_table(idx)
            embedded = CharacterTable(table.group, tuple(tuple(v.to_conductor(n) for v in row) for row in table.rows))
            assert embedded.conductor == n
            fusion = [g_classes.class_of[index[rep]] for rep in table.classes.representatives]
            assert _stacked_block(table, fusion, top) == _stacked_block(embedded, fusion, top)

    def test_conjugate_transport_preserves_tables(self):
        group = builtin_group("S4")
        lattice = subgroup_lattice(group)
        cls = next(c for c in lattice.classes if c.order == 3)
        base = character_table(subgroup_view(group, element_set(cls)))
        g = group.core.elements[5]
        rows = tuple(conjugate_function(ClassFunction(base.group, row), g, group) for row in base.rows)
        CharacterTable(rows[0].group, tuple(row.values for row in rows))  # validates

    def test_coordinates_round_trip(self):
        group = builtin_group("A4")
        table = character_table(group)
        rng = random.Random(5)
        coords = [rng.randint(-3, 3) for _ in range(table.size)]
        chi = from_coordinates(table, coords)
        assert table.coordinates(chi.values) == coords


def determinant_mod(matrix, p):
    """det(matrix) mod p by the Leibniz formula: a sum over permutations."""
    total = 0
    for sigma in permutations(range(len(matrix))):
        inversions = sum(sigma[i] > sigma[j] for i in range(len(sigma)) for j in range(i + 1, len(sigma)))
        term = (-1) ** inversions
        for i, j in enumerate(sigma):
            term *= matrix[i][j]
        total += term
    return total % p


def is_reduced_echelon(rows, p):
    pivots = [next((s for s, v in enumerate(row) if v % p), None) for row in rows]
    return (None not in pivots and pivots == sorted(set(pivots))
            and all(row[c] == (i == r) for r, c in enumerate(pivots) for i, row in enumerate(rows))
            and all(0 <= v < p for row in rows for v in row))


@st.composite
def square_matrices_mod_p(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    d = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-2 * p, 2 * p), min_size=d, max_size=d)
    return draw(st.lists(entries, min_size=d, max_size=d)), p


# p = 1 mod exp(G), so F_p holds every eigenvalue of the class matrices
CLASS_MATRIX_GROUPS = {
    "S4": (builtin_group("S4"), 13),
    "GL(2,3)": (parse_group(PUBLISHED_DEGREES["GL(2,3)"][0]), 73),
}


class TestEigenspaces:
    @settings(max_examples=60, deadline=None)
    @given(square_matrices_mod_p())
    def test_charpoly_is_det_of_lambda_minus_b(self, case):
        matrix, p = case
        d = len(matrix)
        poly = _charpoly(matrix, p)
        assert len(poly) == d + 1 and poly[-1] == 1
        for lam in range(p):
            shifted = [[lam * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(matrix)]
            assert sum(c * lam ** t for t, c in enumerate(poly)) % p == determinant_mod(shifted, p)

    @pytest.mark.parametrize("name", sorted(CLASS_MATRIX_GROUPS))
    def test_class_matrices_split_into_eigenspaces(self, name):
        group, p = CLASS_MATRIX_GROUPS[name]
        classes = conjugacy_classes(group)
        k = len(classes.members)
        spaces = [[[int(r == s) for s in range(k)] for r in range(k)]]
        for j in range(1, k):
            matrix = _class_matrix(group, classes, j)
            refined = []
            for space in spaces:
                pieces = _eigenspaces(space, matrix, p)
                assert sum(len(piece) for piece in pieces) == len(space)
                eigenvalues = []
                for piece in pieces:
                    assert is_reduced_echelon(piece, p)
                    images = [[sum(a * b for a, b in zip(row, v)) % p for row in matrix] for v in piece]
                    lam = next(image[s] for image, v in zip(images, piece) for s in range(k) if v[s])
                    assert all(image == [lam * b % p for b in v] for image, v in zip(images, piece))
                    eigenvalues.append(lam)
                assert eigenvalues == sorted(set(eigenvalues))
                refined += pieces
            spaces = refined
        assert len(spaces) == k

    def test_echelon_calls_per_eigenspace(self, monkeypatch):
        calls, pieces = [0], [0]
        echelon, eigenspaces = characters._echelon, characters._eigenspaces

        def counted_echelon(rows, p):
            calls[0] += 1
            return echelon(rows, p)

        def counted_eigenspaces(basis, matrix, p):
            found = eigenspaces(basis, matrix, p)
            pieces[0] += len(found)
            return found

        monkeypatch.setattr(characters, "_echelon", counted_echelon)
        monkeypatch.setattr(characters, "_eigenspaces", counted_eigenspaces)
        group, _ = CLASS_MATRIX_GROUPS["GL(2,3)"]
        assert character_table(group).size == 8
        assert 0 < calls[0] <= 2 * pieces[0]


class TestTableFiles:
    def test_parse_entries(self):
        assert _parse_cyclotomic_entry("2", 6) == 2
        assert _parse_cyclotomic_entry("-1", 6) == -1
        assert _parse_cyclotomic_entry("z^2", 6) == Cyclotomic.zeta(6, 2)
        assert _parse_cyclotomic_entry("-z", 6) == -Cyclotomic.zeta(6)
        assert _parse_cyclotomic_entry("1+z", 6) == Cyclotomic.zeta(6) + 1
        assert _parse_cyclotomic_entry("-1+2*z^1", 6) == Cyclotomic.zeta(6) * 2 - 1
        with pytest.raises(MalformedEntry):
            _parse_cyclotomic_entry("x", 6)
        with pytest.raises(MalformedEntry):
            _parse_cyclotomic_entry("1**z", 6)

    def test_s3_file_round_trip(self, tmp_path, s3):
        table = character_table(s3)
        path = tmp_path / "s3.tbl"
        path.write_text(table_to_text(table))
        loaded = load_character_table(str(path), s3)
        assert degrees(loaded) == degrees(table)

    def test_s3_handwritten(self, tmp_path, s3):
        text = (
            "group: S3\n"
            "conductor: 6\n"
            "class: () 1\n"
            "class: (1 2) 3\n"
            "class: (0 1 2) 2\n"
            "row: 1 1 1\n"
            "row: 1 -1 1\n"
            "row: 2 0 -1\n"
        )
        path = tmp_path / "s3.tbl"
        path.write_text(text)
        table = load_character_table(str(path), s3)
        assert degrees(table) == [1, 1, 2]

    def test_a4_with_cyclotomic_entries(self, tmp_path):
        group = builtin_group("A4")
        # conductor 3 entries: the two nontrivial linear characters take values
        # z and z^2 on the 3-cycle classes
        classes = conjugacy_classes(group)
        reps = classes.representatives
        from burnside.groups import perm_to_cycles

        lines = ["group: A4", "conductor: 3"]
        for rep, size in zip(reps, classes.sizes):
            lines.append(f"class: {perm_to_cycles(rep)} {size}")
        # rows in the group's own class order: identity, double transpositions,
        # then the two 3-cycle classes
        lines.append("row: 1 1 1 1")
        lines.append("row: 1 1 z z^2")
        lines.append("row: 1 1 z^2 z")
        lines.append("row: 3 -1 0 0")
        path = tmp_path / "a4.tbl"
        path.write_text("\n".join(lines) + "\n")
        table = load_character_table(str(path), group)
        assert degrees(table) == [1, 1, 1, 3]

    def test_duplicated_row_fails_orthogonality(self, tmp_path, s3):
        text = (
            "group: S3\nconductor: 6\n"
            "class: () 1\nclass: (1 2) 3\nclass: (0 1 2) 2\n"
            "row: 1 1 1\nrow: 1 1 1\nrow: 2 0 -1\n"
        )
        path = tmp_path / "bad.tbl"
        path.write_text(text)
        with pytest.raises(OrthogonalityFailure):
            load_character_table(str(path), s3)

    def test_degree_sum_mismatch(self, tmp_path, s3):
        text = (
            "group: S3\nconductor: 6\n"
            "class: () 1\nclass: (1 2) 3\nclass: (0 1 2) 2\n"
            "row: 1 1 1\nrow: 1 -1 1\nrow: 1 1 1\n"
        )
        path = tmp_path / "bad.tbl"
        path.write_text(text)
        with pytest.raises((DegreeSumMismatch, OrthogonalityFailure)):
            load_character_table(str(path), s3)

    def test_malformed_entry(self, tmp_path, s3):
        text = (
            "group: S3\nconductor: 6\n"
            "class: () 1\nclass: (1 2) 3\nclass: (0 1 2) 2\n"
            "row: 1 1 oops\nrow: 1 -1 1\nrow: 2 0 -1\n"
        )
        path = tmp_path / "bad.tbl"
        path.write_text(text)
        with pytest.raises(MalformedEntry):
            load_character_table(str(path), s3)

    def test_wrong_class_size(self, tmp_path, s3):
        text = (
            "group: S3\nconductor: 6\n"
            "class: () 1\nclass: (1 2) 2\nclass: (0 1 2) 3\n"
            "row: 1 1 1\nrow: 1 -1 1\nrow: 2 0 -1\n"
        )
        path = tmp_path / "bad.tbl"
        path.write_text(text)
        with pytest.raises(MalformedEntry):
            load_character_table(str(path), s3)

    @pytest.mark.parametrize("name", FIXTURES + ["trivial"])
    def test_shipped_tables_match_computed(self, name):
        from pathlib import Path
        from burnside.restriction import DirectoryTables, TableProvider

        directory = Path(__file__).parent.parent / "src" / "burnside" / "data" / "tables"
        group = builtin_group(name)
        lattice = subgroup_lattice(group)
        shipped = DirectoryTables(lattice, directory)
        computed = TableProvider(lattice)
        for idx in range(len(lattice.classes)):
            a = shipped.class_table(idx)
            b = computed.class_table(idx)
            keys_a = sorted(tuple(tuple(v.to_conductor(12).coeffs for v in row)) for row in a.rows)
            keys_b = sorted(tuple(tuple(v.to_conductor(12).coeffs for v in row)) for row in b.rows)
            assert keys_a == keys_b


def test_table_file_naming_an_element_outside_the_subgroup_is_refused(tmp_path, s3):
    """A subgroup's table is loaded onto a view of G's core, whose index
    holds all of G: a class line naming an element of G outside the
    subgroup is refused all the same."""
    c3 = subgroup_view(s3, explicit_subgroup(s3, "(0 1 2)"))
    path = tmp_path / "3a.tbl"
    path.write_text("group: 3a\nconductor: 3\nclass: () 1\nclass: (0 1 2) 1\nclass: (0 1) 1\n"
                    "row: 1 1 1\nrow: 1 z z^2\nrow: 1 z^2 z\n")
    with pytest.raises(MalformedEntry, match=r"representative \(0 1\) not in group"):
        load_character_table(str(path), c3)


def reference_pairing(weights, left, right):
    """sum_i w_i * left_i * conj(right_i) by Cyclotomic arithmetic, term by term."""
    total = Cyclotomic.zero()
    for w, a, b in zip(weights, left, right):
        total = total + a * b.galois(b.conductor - 1) * w
    return total


def reference_validation_error(group, classes, rows):
    """The error the Cyclotomic-loop validation raises for rows with intact
    degrees, or None: CharacterError, or the (i, j) of an orthogonality failure."""
    if any(not v == 1 for v in rows[0]):
        return CharacterError
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            total = reference_pairing(classes.sizes, rows[i], rows[j])
            if not total == (group.order if i == j else 0):
                return (i, j)
    for a in range(len(classes.members)):
        for b in range(a, len(classes.members)):
            column_a = [row[a] for row in rows]
            column_b = [row[b] for row in rows]
            total = reference_pairing([1] * len(rows), column_a, column_b)
            if not total == (group.order // classes.sizes[a] if a == b else 0):
                return (a, b)
    return None


MIXED_CONDUCTORS = [1, 2, 3, 4, 6, 8, 12]


@st.composite
def cyclotomics(draw):
    """A value at a conductor from MIXED_CONDUCTORS, with integer coefficients."""
    conductor = draw(st.sampled_from(MIXED_CONDUCTORS))
    return Cyclotomic(conductor, draw(st.lists(st.integers(-3, 3), max_size=conductor)))


class TestIntegerPairing:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["C4", "S3", "D4", "Q8", "A4"]), st.data())
    def test_inner_product_matches_cyclotomic_loop(self, name, data):
        group = builtin_group(name)
        classes = conjugacy_classes(group)
        width = len(classes.members)
        values = st.lists(cyclotomics(), min_size=width, max_size=width).map(tuple)
        a = ClassFunction(group, data.draw(values))
        b = ClassFunction(group, data.draw(values))
        total = reference_pairing(classes.sizes, a.values, b.values)
        if total.is_rational():
            assert inner_product(a, b) == Fraction(total.as_rational(), group.order)
        else:
            with pytest.raises(NotInSubfield):
                inner_product(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["S3", "D4", "Q8", "A4", "C6"]), st.data())
    def test_corrupted_table_fails_like_the_cyclotomic_loop(self, name, data):
        table = character_table(builtin_group(name))
        # the degree column stays intact, so validation reaches the orthogonality sums
        r = data.draw(st.integers(0, table.size - 1))
        c = data.draw(st.integers(1, table.size - 1))
        delta = data.draw(cyclotomics().filter(lambda v: v != 0))
        values = list(table.rows[r])
        values[c] = values[c] + delta
        rows = list(table.rows)
        rows[r] = tuple(values)
        expected = reference_validation_error(table.group, table.classes, rows)
        if expected is None:
            CharacterTable(table.group, tuple(rows))
        elif isinstance(expected, tuple):
            with pytest.raises(OrthogonalityFailure) as excinfo:
                CharacterTable(table.group, tuple(rows))
            assert (excinfo.value.i, excinfo.value.j) == expected
        else:
            with pytest.raises(expected):
                CharacterTable(table.group, tuple(rows))

    def test_row_of_the_wrong_length_is_refused(self):
        table = character_table(builtin_group("S3"))
        rows = (table.rows[0], table.rows[1][:2], table.rows[2])
        with pytest.raises(CharacterError, match="^row 1 has 2 values for 3 classes$"):
            CharacterTable(table.group, rows)

    def test_coordinates_reject_non_integral_combinations(self):
        table = character_table(builtin_group("S3"))
        zero = Cyclotomic.zero()
        identity_class = (Cyclotomic(1, [1]), zero, zero)
        with pytest.raises(CharacterError):
            table.coordinates(identity_class)
        rows = [ClassFunction(table.group, row) for row in table.rows]
        assert table.coordinates(subtract(scale(rows[2], 3), rows[0]).values) == [-1, 0, 3]

    @pytest.mark.parametrize("name,values,message", [
        ("C3", [Cyclotomic.zeta(3)] * 3,
         "inner product with row 0 is Cyclotomic(3, ['0', '3']) / 3, not rational"),
        ("C3", [1, 0, 0], "inner product 1/3 is not an integer"),
        ("C3", [-2, 0, 0], "inner product -2/3 is not an integer"),
        ("C4", [2, 0, 0, 0], "inner product 1/2 is not an integer"),
    ])
    def test_coordinates_messages(self, name, values, message):
        # the quotient prints in lowest terms, its sign on the numerator
        table = character_table(builtin_group(name))
        values = [v if isinstance(v, Cyclotomic) else Cyclotomic(1, [v]) for v in values]
        with pytest.raises(CharacterError) as info:
            table.coordinates(values)
        assert str(info.value) == message
