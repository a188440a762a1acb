"""Marks tables, the ghost map and its inverse, and the ring structure."""

import math
import random

import pytest
from hypothesis import given, settings

from burnside.artin import abelian_family
from burnside.groups import builtin_group, conjugacy_classes, perm_mul, subgroup_lattice
from burnside.marks import (
    InternalInvariantViolation,
    NotInImage,
    UnknownClass,
    fixed_points_of_element,
    marks_table,
    phi,
    solve_ghost,
)

from group_fixtures import (
    BENCHMARK_GROUPS,
    benchmark_group,
    coset_fixed_points,
    dense,
    in_ideal_jn,
    multiply,
    pointwise,
    small_subgroups_of_s6,
    sparse,
    unit,
)
from oracles import dense_marks, element_set, representative

FIXTURES = ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D4", "Q8", "A4", "S4"]


@pytest.fixture(scope="module")
def tables():
    out = {}
    for name in FIXTURES + ["trivial"]:
        group = builtin_group(name)
        out[name] = marks_table(subgroup_lattice(group))
    return out


def oracle_marks(table, h: int, k: int) -> int:
    """Fixed cosets counted on explicit coset sets acted on by K."""
    lattice = table.lattice
    group = lattice.group
    hset = element_set(lattice.classes[h])
    kset = representative(lattice.classes[k])
    cosets = []
    seen = set()
    for g in group.core.elements:
        if g in seen:
            continue
        coset = frozenset(perm_mul(g, x) for x in hset)
        seen |= coset
        cosets.append(coset)
    count = 0
    for coset in cosets:
        if all(frozenset(perm_mul(x, c) for c in coset) == coset for x in kset):
            count += 1
    return count


class TestMarksTable:
    def test_s3_rows(self, tables):
        assert dense_marks(tables["S3"]) == [
            [6, 0, 0, 0],
            [3, 1, 0, 0],
            [2, 0, 2, 0],
            [1, 1, 1, 1],
        ]

    def test_trivial_group(self, tables):
        assert dense_marks(tables["trivial"]) == [[1]]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_full_group_row_all_ones(self, name, tables):
        table = tables[name]
        assert dense_marks(table)[table.size - 1] == [1] * table.size

    @pytest.mark.parametrize("name", ["S3", "C2xC2", "D4", "A4"])
    def test_against_coset_oracle(self, name, tables):
        table = tables[name]
        marks = dense_marks(table)
        for h in range(table.size):
            for k in range(table.size):
                assert marks[h][k] == oracle_marks(table, h, k)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_invariants(self, name, tables):
        table = tables[name]
        lattice = table.lattice
        group_order = lattice.group.order
        marks = dense_marks(table)
        for h in range(table.size):
            weyl = lattice.classes[h].weyl_order
            assert marks[h][h] == weyl
            assert marks[h][0] == group_order // lattice.classes[h].order
            for k in range(table.size):
                if marks[h][k] != 0:
                    assert lattice.down_sets[h] >> k & 1
                assert marks[h][k] % weyl == 0


class TestPhi:
    def test_basis_row_readoff(self, tables):
        table = tables["S3"]
        x = {1: 1}  # [S3/C2]
        assert dense(phi(x, table), 4) == (3, 1, 0, 0)

    def test_zero(self, tables):
        table = tables["S3"]
        assert dense(phi({}, table), 4) == (0, 0, 0, 0)

    def test_unit_all_ones(self, tables):
        for name in FIXTURES:
            table = tables[name]
            assert dense(phi(unit(table), table), table.size) == (1,) * table.size


class TestSolveGhost:
    def test_worked_example(self, tables):
        table = tables["S3"]
        x = solve_ghost(sparse((6, 6, 6, 0)), table)
        assert dense(x, 4) == (-3, 6, 3, 0)

    def test_not_in_image(self, tables):
        table = tables["S3"]
        with pytest.raises(NotInImage) as excinfo:
            solve_ghost(sparse((1, 0, 0, 0)), table)
        assert excinfo.value.class_index == 0
        assert excinfo.value.remainder == 1

    @pytest.mark.parametrize("key", [99, -1])
    def test_unknown_class(self, tables, key):
        # a negative key must not read the down-set of the last class, and
        # a key out of range raises even when its value is 0
        for value in (6, 0):
            with pytest.raises(UnknownClass):
                solve_ghost({key: value}, tables["S3"])

    @pytest.mark.parametrize("name", FIXTURES)
    def test_round_trip(self, name, tables):
        table = tables[name]
        rng = random.Random(7)
        for _ in range(12):
            values = [rng.randint(-5, 5) for _ in range(table.size)]
            x = sparse(values)
            # a zero value counts as an absent key, and no result holds one
            ghost = phi(dict(enumerate(values)), table)
            assert ghost == phi(x, table) and all(ghost.values())
            solved = solve_ghost(dict(enumerate(dense(ghost, table.size))), table)
            assert solved == solve_ghost(ghost, table) == x and all(solved.values())

    @pytest.mark.parametrize("name", FIXTURES)
    def test_tom_dieck_containment(self, name, tables):
        table = tables[name]
        order = table.lattice.group.order
        for idx in range(table.size):
            x = solve_ghost({idx: order}, table)
            assert phi(x, table) == {idx: order}


class TestMultiply:
    def test_c2_squared(self, tables):
        table = tables["S3"]
        c2 = {1: 1}
        product = multiply(c2, c2, table)
        assert dense(product, 4) == (1, 1, 0, 0)

    def test_unit_law(self, tables):
        table = tables["S3"]
        rng = random.Random(3)
        for _ in range(10):
            x = sparse(rng.randint(-4, 4) for _ in range(table.size))
            assert multiply(unit(table), x, table) == x

    def test_free_orbit_square(self, tables):
        table = tables["S3"]
        free = {0: 1}
        assert dense(multiply(free, free, table), 4) == (6, 0, 0, 0)

    def test_orbit_counting_cross_check(self, tables):
        # [S3/C2] x [S3/C2] decomposed by counting orbits of the product G-set
        table = tables["S3"]
        group = table.lattice.group
        c2 = element_set(table.lattice.classes[1])
        cosets = []
        seen = set()
        for g in group.core.elements:
            if g in seen:
                continue
            coset = frozenset(perm_mul(g, x) for x in c2)
            seen |= coset
            cosets.append(coset)
        points = [(a, b) for a in cosets for b in cosets]
        orbits = []
        remaining = set(range(len(points)))
        while remaining:
            start = min(remaining)
            orbit = set()
            frontier = [points[start]]
            while frontier:
                pt = frontier.pop()
                idx = points.index(pt)
                if idx in orbit:
                    continue
                orbit.add(idx)
                for g in group.core.elements:
                    moved = (
                        frozenset(perm_mul(g, x) for x in pt[0]),
                        frozenset(perm_mul(g, x) for x in pt[1]),
                    )
                    frontier.append(moved)
            orbits.append(orbit)
            remaining -= orbit
        sizes = sorted(len(o) for o in orbits)
        assert sizes == [3, 6]  # one copy of G/C2 and one free orbit
        product = multiply({1: 1}, {1: 1}, table)
        assert dense(product, 4) == (1, 1, 0, 0)

    @pytest.mark.parametrize("name", ["S3", "D4", "A4"])
    def test_ring_laws(self, name, tables):
        table = tables[name]
        rng = random.Random(11)
        size = table.size
        for _ in range(8):
            a = sparse(rng.randint(-3, 3) for _ in range(size))
            b = sparse(rng.randint(-3, 3) for _ in range(size))
            c = sparse(rng.randint(-3, 3) for _ in range(size))
            assert multiply(a, b, table) == multiply(b, a, table)
            assert multiply(a, multiply(b, c, table), table) == \
                multiply(multiply(a, b, table), c, table)
            assert phi(multiply(a, b, table), table) == pointwise(phi(a, table), phi(b, table))


class TestIdealJn:
    def test_alpha_leftover(self, tables):
        table = tables["S3"]
        # 6*[pt] - alpha_1 has ghost (0, 0, 0, 6)
        leftover = solve_ghost(sparse((0, 0, 0, 6)), table)
        assert in_ideal_jn(leftover, abelian_family(table.lattice, 1), table)

    def test_unit_not_in_ideal(self, tables):
        table = tables["S3"]
        for n in (0, 1, 2, math.inf):
            assert not in_ideal_jn(unit(table), abelian_family(table.lattice, n), table)

    def test_zero_in_ideal(self, tables):
        table = tables["S3"]
        assert in_ideal_jn({}, abelian_family(table.lattice, math.inf), table)


class TestFixedPoints:
    def test_matches_marks_on_cyclic_classes(self, tables):
        # |(G/H)^g| equals the mark at the cyclic class generated by g
        table = tables["S4"]
        lattice = table.lattice
        group = lattice.group
        marks = dense_marks(table)
        from burnside.groups import close_under_product

        for g in list(group.core.elements)[:8]:
            cyclic = close_under_product(group.core.degree, [g])
            k, _ = lattice.class_of_subgroup(cyclic)
            for h in range(table.size):
                assert fixed_points_of_element(table, h, g) == marks[h][k]


def assert_fixed_points_match_coset_count(table) -> None:
    """The class-mask count against the coset-by-coset count, for every
    subgroup class and element class."""
    for g in conjugacy_classes(table.lattice.group).representatives:
        for h in range(table.size):
            assert fixed_points_of_element(table, h, g) == coset_fixed_points(table, h, g)


class TestFixedPointsAgainstCosetCount:
    @pytest.mark.parametrize("name", FIXTURES + ["trivial"])
    def test_builtin(self, tables, name):
        assert_fixed_points_match_coset_count(tables[name])

    @pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
    def test_benchmark_group(self, name):
        assert_fixed_points_match_coset_count(marks_table(subgroup_lattice(benchmark_group(name))))

    @settings(max_examples=15, deadline=None)
    @given(small_subgroups_of_s6())
    def test_small_subgroups_of_s6(self, group):
        assert_fixed_points_match_coset_count(marks_table(subgroup_lattice(group)))

    def test_corrupted_class_mask_raises(self):
        # In S3 the 3-cycles meet the subgroup 2a of order 2 nowhere; a mask
        # of their class that also holds 2a's transposition gives
        # |C_G(g)| * |g^G cap H| / |H| = 3 * 1 / 2.
        table = marks_table(subgroup_lattice(builtin_group("S3")))
        classes = conjugacy_classes(table.lattice.group)
        h = [cls.label for cls in table.lattice.classes].index("2a")
        g = classes.representatives[2]  # classes are sorted by element order
        assert fixed_points_of_element(table, h, g) == 0
        masks = list(classes.masks)
        masks[2] |= table.lattice.orbits[h][0] & ~1
        classes.__dict__["masks"] = tuple(masks)
        with pytest.raises(InternalInvariantViolation, match="not integral"):
            fixed_points_of_element(table, h, g)
