"""Group construction, subgroup lattices, and classifications, checked against
brute-force oracles on small fixtures."""

from itertools import combinations

import pytest

from burnside.groups import (
    BUILTIN_GROUPS,
    Group,
    MalformedCycle,
    OrderCapExceeded,
    all_subgroups,
    builtin_group,
    close_under_product,
    conjugacy_classes,
    double_cosets,
    exponent,
    group_from_generators,
    parse_cycles,
    parse_group,
    perm_mul,
    subgroup_lattice,
    _min_generators,
)

from group_fixtures import BENCHMARK_GROUPS, benchmark_group
from oracles import (
    NotAbelian,
    abelian_min_generators,
    element_set,
    is_abelian_subgroup,
    is_n_hyper,
    left_cosets,
    min_generators,
    p_perfect_core,
    perm_inv,
    perm_order,
)

FIXTURES = ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D4", "Q8", "A4", "S4"]


# ---------------------------------------------------------------------------
# oracles


def brute_force_subgroups(group: Group) -> set:
    """All subsets containing the identity that are closed under multiplication."""
    elements = list(group.core.elements)
    non_identity = [g for g in elements if g != group.core.elements[0]]
    out = set()
    for r in range(len(non_identity) + 1):
        for combo in combinations(non_identity, r):
            candidate = frozenset(combo) | {group.core.elements[0]}
            if all(perm_mul(a, b) in candidate for a in candidate for b in candidate):
                out.add(candidate)
    return out


def oracle_p_perfect_core(group: Group, subgroup: frozenset, p: int) -> frozenset:
    """Intersection of all normal subgroups of H with p-power index."""
    subs = [s for s in all_subgroups(group) if s <= subgroup]
    result = subgroup
    for cand in subs:
        normal = all(
            frozenset(perm_mul(perm_mul(h, x), perm_inv(h)) for x in cand) == cand
            for h in subgroup
        )
        if not normal:
            continue
        index = len(subgroup) // len(cand)
        if _is_p_power(index, p):
            result = result & cand
    return result


def _is_p_power(value: int, p: int) -> bool:
    while value % p == 0:
        value //= p
    return value == 1


def oracle_is_n_hyper(group: Group, subgroup: frozenset, n, p: int) -> bool:
    """Search all normal abelian subgroups A of p'-order with p-group quotient."""
    subs = [s for s in all_subgroups(group) if s <= subgroup]
    for cand in subs:
        normal = all(
            frozenset(perm_mul(perm_mul(h, x), perm_inv(h)) for x in cand) == cand
            for h in subgroup
        )
        if not normal or not is_abelian_subgroup(cand):
            continue
        if len(cand) % p == 0:
            continue
        if not _is_p_power(len(subgroup) // len(cand), p):
            continue
        if abelian_min_generators(cand, group.core.degree) <= n:
            return True
    return False


# ---------------------------------------------------------------------------
# parsing and construction


class TestParseGroup:
    def test_s3_from_generators(self):
        g = parse_group("(0 1)\n(0 1 2)")
        assert g.order == 6

    def test_q8_builtin(self):
        g = parse_group("Q8")
        assert g.order == 8
        assert sum(1 for x in g.core.elements if perm_order(x) == 2) == 1

    def test_malformed(self):
        with pytest.raises(MalformedCycle):
            parse_group("(0 1")

    def test_builtin_orders(self):
        expected = {"C2": 2, "C3": 3, "C4": 4, "C6": 6, "C2xC2": 4,
                    "S3": 6, "D4": 8, "Q8": 8, "A4": 12, "S4": 24, "trivial": 1}
        for name, order in expected.items():
            assert parse_group(name).order == order

    def test_named_file_format(self):
        g = parse_group("name: klein\n(0 1)\n(2 3)\n")
        assert g.name == "klein"
        assert g.order == 4

    def test_cap(self):
        with pytest.raises(OrderCapExceeded):
            parse_group("S4", cap=10)

    def test_cycle_edge_cases(self):
        assert parse_cycles("()") == (0,)
        assert parse_cycles("(0 1)(2 3)") == (1, 0, 3, 2)
        assert parse_cycles("(0 1)()") == parse_cycles("(0 1)")  # an empty cycle is skipped
        for text in ("(0 0)", "(0 1 2)(0 2 1)", "(0 1 2)(2 3)"):
            with pytest.raises(MalformedCycle):
                parse_cycles(text)
        with pytest.raises(MalformedCycle):
            parse_cycles("(0 x)")


# ---------------------------------------------------------------------------
# subgroup lattice


class TestSubgroupLattice:
    def test_s3_classes(self):
        lat = subgroup_lattice(builtin_group("S3"))
        data = [(c.order, c.weyl_order) for c in lat.classes]
        assert data == [(1, 6), (2, 1), (3, 2), (6, 1)]

    def test_c2xc2_classes(self):
        lat = subgroup_lattice(builtin_group("C2xC2"))
        assert len(lat.classes) == 5
        assert sorted(c.order for c in lat.classes) == [1, 2, 2, 2, 4]

    def test_trivial(self):
        lat = subgroup_lattice(builtin_group("trivial"))
        assert len(lat.classes) == 1

    @pytest.mark.parametrize("name", ["S3", "C2xC2", "C6", "D4"])
    def test_against_brute_force(self, name):
        group = builtin_group(name)
        assert set(all_subgroups(group)) == brute_force_subgroups(group)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_lagrange_and_weyl(self, name):
        group = builtin_group(name)
        lat = subgroup_lattice(group)
        for cls in lat.classes:
            assert group.order % cls.order == 0
            assert group.order % (cls.order * cls.weyl_order) == 0

    @pytest.mark.parametrize("name", FIXTURES)
    def test_subconjugacy_partial_order(self, name):
        lat = subgroup_lattice(builtin_group(name))
        n = len(lat.classes)
        for i in range(n):
            assert lat.down_sets[i] >> i & 1
            assert lat.down_sets[i] >> 0 & 1  # trivial subgroup below everything
            assert lat.down_sets[n - 1] >> i & 1  # everything below the full group
            for j in range(n):
                if lat.down_sets[j] >> i & 1 and lat.down_sets[i] >> j & 1:
                    assert i == j
                for k in range(n):
                    if lat.down_sets[j] >> i & 1 and lat.down_sets[k] >> j & 1:
                        assert lat.down_sets[k] >> i & 1

    @pytest.mark.parametrize("name", FIXTURES)
    def test_order_refines_subconjugacy(self, name):
        lat = subgroup_lattice(builtin_group(name))
        for i in range(len(lat.classes)):
            for j in range(len(lat.classes)):
                if lat.down_sets[j] >> i & 1 and i != j:
                    assert i < j

    def test_class_membership_well_defined(self):
        group = builtin_group("S4")
        lat = subgroup_lattice(group)
        for k, cls in enumerate(lat.classes):
            rep = element_set(cls)
            for g in group.core.elements[:6]:
                conj = frozenset(perm_mul(perm_mul(g, s), perm_inv(g)) for s in rep)
                idx, mover = lat.class_of_subgroup(conj)
                assert idx == k

    def test_nonsolvable_group(self):
        # a perfect group exercises completeness of the extension search
        a5 = parse_group("name: A5\n(0 1 2 3 4)\n(0 1 2)\n")
        assert a5.order == 60
        lat = subgroup_lattice(a5)
        assert [(c.order, c.weyl_order) for c in lat.classes] == [
            (1, 60), (2, 2), (3, 2), (4, 3), (5, 2),
            (6, 1), (10, 1), (12, 1), (60, 1),
        ]


# ---------------------------------------------------------------------------
# abelian generator counts


class TestMinGenerators:
    def test_c6(self):
        g = builtin_group("C6")
        assert abelian_min_generators(frozenset(g.core.elements), g.core.degree) == 1

    def test_c2xc2(self):
        g = builtin_group("C2xC2")
        assert abelian_min_generators(frozenset(g.core.elements), g.core.degree) == 2

    def test_c4xc2(self):
        g = group_from_generators([parse_cycles("(0 1 2 3)"), parse_cycles("(4 5)")], name="C4xC2")
        assert g.order == 8
        mine = abelian_min_generators(frozenset(g.core.elements), g.core.degree)
        # oracle: exhaustive search over generating pairs
        elems = list(g.core.elements)
        single = any(len(close_under_product(g.core.degree, [x], cap=8)) == 8 for x in elems)
        pair = any(
            len(close_under_product(g.core.degree, [x, y], cap=8)) == 8
            for x, y in combinations(elems, 2)
        )
        assert not single and pair
        assert mine == 2

    def test_not_abelian(self):
        g = builtin_group("S3")
        with pytest.raises(NotAbelian):
            abelian_min_generators(frozenset(g.core.elements), g.core.degree)

    def test_nonabelian_count_stays_within_the_known_bound(self):
        # S3 x C2^3: its abelianization C2^4 needs four generators, and
        # (0 1 2)(3 4), (0 1), (5 6), (7 8) are four that generate it
        group = parse_group("(0 1 2)\n(0 1)\n(3 4)\n(5 6)\n(7 8)")
        four = [parse_cycles(c, group.core.degree) for c in ("(0 1 2)(3 4)", "(0 1)", "(5 6)", "(7 8)")]
        assert len(close_under_product(group.core.degree, four, cap=48)) == group.order == 48
        lattice = subgroup_lattice(group)
        full = lattice.classes[lattice.full_index]
        assert (full.label, full.min_generators) == ("48a", 4)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_generating_set_exists(self, name):
        group = builtin_group(name)
        lat = subgroup_lattice(group)
        for cls in lat.classes:
            if not cls.is_abelian or cls.order == 1:
                continue
            k = cls.min_generators
            found = any(
                len(close_under_product(group.core.degree, combo, cap=cls.order)) == cls.order
                for combo in combinations(sorted(element_set(cls)), k)
            )
            assert found, f"{name} class {cls.label} not generated by {k} elements"

    # With bound |H| the search over two- and three-element sets decides
    # every case below; a smaller bound settles k without a search.
    @pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
    def test_nonabelian_search_matches_brute_force(self, name):
        group = benchmark_group(name)
        for cls in subgroup_lattice(group).classes:
            if cls.is_abelian or cls.order > 48:
                continue
            expected = min_generators(element_set(cls))
            assert _min_generators(group.core, cls.mask, cls.order) == expected, (name, cls.label)

    @pytest.mark.parametrize("generators,bound,expected", [
        (("(0 1)", "(0 1 2 3)"), 4, 2),  # S4
        (("(0 1 2 3)", "(1 3)", "(4 5)"), 5, 3),  # C2 x D4
    ])
    def test_nonabelian_search_pins(self, generators, bound, expected):
        group = parse_group("\n".join(generators))
        assert _min_generators(group.core, group.mask, bound) == expected


# ---------------------------------------------------------------------------
# p-perfect cores and n-hyper classes


class TestPPerfectCore:
    def test_s3_examples(self):
        group = builtin_group("S3")
        full = frozenset(group.core.elements)
        core2 = p_perfect_core(full, 2, group.core.degree)
        assert len(core2) == 3  # the rotation subgroup
        core3 = p_perfect_core(full, 3, group.core.degree)
        assert core3 == full

    def test_c2(self):
        group = builtin_group("C2")
        core = p_perfect_core(frozenset(group.core.elements), 2, group.core.degree)
        assert core == frozenset([group.core.elements[0]])

    @pytest.mark.parametrize("name", ["S3", "D4", "A4", "C6"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_against_oracle(self, name, p):
        group = builtin_group(name)
        lat = subgroup_lattice(group)
        for cls in lat.classes:
            mine = p_perfect_core(element_set(cls), p, group.core.degree)
            assert mine == oracle_p_perfect_core(group, element_set(cls), p)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_idempotent(self, name):
        group = builtin_group(name)
        lat = subgroup_lattice(group)
        for cls in lat.classes:
            for p in (2, 3):
                core = p_perfect_core(element_set(cls), p, group.core.degree)
                assert p_perfect_core(core, p, group.core.degree) == core

    def test_core_is_normal(self):
        group = builtin_group("S4")
        full = frozenset(group.core.elements)
        for p in (2, 3):
            core = p_perfect_core(full, p, group.core.degree)
            for h in full:
                assert frozenset(perm_mul(perm_mul(h, x), perm_inv(h)) for x in core) == core


class TestNHyper:
    def test_s3_examples(self):
        group = builtin_group("S3")
        full = frozenset(group.core.elements)
        assert is_n_hyper(full, 1, 2, group.core.degree)
        assert not is_n_hyper(full, 1, 3, group.core.degree)

    def test_c2(self):
        group = builtin_group("C2")
        assert is_n_hyper(frozenset(group.core.elements), 1, 2, group.core.degree)

    @pytest.mark.parametrize("name", ["S3", "D4", "A4", "Q8"])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_against_oracle(self, name, p, n):
        group = builtin_group(name)
        lat = subgroup_lattice(group)
        for cls in lat.classes:
            mine = is_n_hyper(element_set(cls), n, p, group.core.degree)
            assert mine == oracle_is_n_hyper(group, element_set(cls), n, p)


# ---------------------------------------------------------------------------
# cosets and double cosets


class TestDoubleCosets:
    def test_c2_c2_in_s3(self):
        group = builtin_group("S3")
        c2 = close_under_product(group.core.degree, [parse_cycles("(0 1)", 3)])
        decomposition = double_cosets(group, c2, c2)
        sizes = sorted(c.size for c in decomposition.cosets)
        assert sizes == [2, 4]
        inters = sorted(len(c.intersection) for c in decomposition.cosets)
        assert inters == [1, 2]

    def test_full_group(self):
        group = builtin_group("S4")
        full = frozenset(group.core.elements)
        decomposition = double_cosets(group, full, full)
        assert len(decomposition.cosets) == 1

    def test_trivial(self):
        group = builtin_group("S3")
        triv = frozenset([group.core.elements[0]])
        decomposition = double_cosets(group, triv, triv)
        assert len(decomposition.cosets) == group.order

    @pytest.mark.parametrize("name", FIXTURES)
    def test_partition(self, name):
        group = builtin_group(name)
        lat = subgroup_lattice(group)
        for kcls in lat.classes:
            for hcls in lat.classes:
                decomposition = double_cosets(group, element_set(kcls), element_set(hcls))
                assert sum(c.size for c in decomposition.cosets) == group.order
                # disjointness via an independent orbit computation
                covered = set()
                for coset in decomposition.cosets:
                    orbit = {
                        perm_mul(perm_mul(k, coset.representative), h)
                        for k in element_set(kcls) for h in element_set(hcls)
                    }
                    assert len(orbit) == coset.size
                    assert not (covered & orbit)
                    covered |= orbit
                assert len(covered) == group.order

    def test_left_cosets_partition(self):
        group = builtin_group("A4")
        lat = subgroup_lattice(group)
        for cls in lat.classes:
            reps = left_cosets(group, element_set(cls))
            assert len(reps) * cls.order == group.order


class TestConjugacyClasses:
    @pytest.mark.parametrize("name,count", [
        ("S3", 3), ("S4", 5), ("A4", 4), ("D4", 5), ("Q8", 5), ("C6", 6),
    ])
    def test_class_counts(self, name, count):
        assert len(conjugacy_classes(builtin_group(name)).members) == count

    def test_identity_first(self):
        for name in FIXTURES:
            group = builtin_group(name)
            classes = conjugacy_classes(group)
            assert classes.representatives[0] == group.core.elements[0]

    def test_exponents(self):
        assert exponent(builtin_group("S4")) == 12
        assert exponent(builtin_group("Q8")) == 4
        assert exponent(builtin_group("C6")) == 6


def brute_force_element_classes(subgroup: frozenset) -> list[tuple]:
    """The sets {g^-1 x g : g in H} for x in H, sorted by element order, then
    size, then least member."""
    classes, seen = [], set()
    for x in sorted(subgroup):
        if x not in seen:
            cls = {perm_mul(perm_mul(perm_inv(g), x), g) for g in subgroup}
            seen |= cls
            classes.append(tuple(sorted(cls)))
    return sorted(classes, key=lambda cls: (perm_order(cls[0]), len(cls), cls[0]))


# G's classes come from its greedy generators, and a subgroup's from those of
# its mask on G's core: both must be the orbits under conjugation by every
# element of the group.
@pytest.mark.parametrize("kind,name", [
    *(("builtin", name) for name in BUILTIN_GROUPS),
    *(("benchmark", name) for name in BENCHMARK_GROUPS),
])
def test_element_classes_match_conjugation_by_every_element(kind, name):
    group = builtin_group(name) if kind == "builtin" else benchmark_group(name)
    core = group.core
    views = [group] + [Group(core, cls.mask, cls.label) for cls in subgroup_lattice(group).classes]
    for view in views:
        classes = conjugacy_classes(view)
        assert [tuple(core.elements[x] for x in cls) for cls in classes.members] == \
            brute_force_element_classes(frozenset(core.perms(view.mask)))
        assert classes.class_of == {x: c for c, cls in enumerate(classes.members) for x in cls}
