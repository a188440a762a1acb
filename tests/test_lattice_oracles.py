"""Subgroup lattices and tables of marks checked against independent oracles:
published subgroup and class counts, marks counted literally over cosets,
a reference lattice built by the perm-tuple extension of every subgroup
by every element, the cyclic extension without normalizer pruning,
normalizers found by brute force, Gaussian binomials for C2^5, and
subconjugacy tested pair by pair as containment in a conjugate."""

import time

import pytest
from hypothesis import given, settings

from burnside import marks
from burnside.groups import (
    BUILTIN_GROUPS,
    Group,
    GroupCore,
    _bits,
    _mask,
    _subgroup_orbits,
    builtin_group,
    close_under_product,
    parse_group,
    perm_mul,
    subgroup_lattice,
)
from burnside.marks import _count_containing, marks_table

from group_fixtures import BENCHMARK_GROUPS, benchmark_group, small_subgroups_of_s6
from oracles import dense_marks, element_set, perm_inv, representative

FIXTURES = ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D4", "Q8", "A4", "S4"]

EXTRA = {
    "D8": ["(0 1 2 3 4 5 6 7)", "(1 7)(2 6)(3 5)"],
    "SL(2,3)": ["(0 3 6)(1 7 4)", "(0 5 1 2)(3 6 7 4)"],
    "GL(2,3)": ["(0 3 6)(1 7 4)", "(0 5 1 2)(3 6 7 4)", "(2 5)(3 6)(4 7)"],
}

# (generators, subgroups, conjugacy classes of subgroups).  S_n: OEIS A005432
# and A000638; A5, A6 and A7 from their published subgroup lattices; C2^k:
# the sums of Gaussian binomial coefficients over GF(2).
PUBLISHED = {
    "S4": (["(0 1)", "(0 1 2 3)"], 30, 11),
    "S5": (["(0 1)", "(0 1 2 3 4)"], 156, 19),
    "S6": (["(0 1)", "(0 1 2 3 4 5)"], 1455, 56),
    "A5": (["(0 1 2 3 4)", "(0 1 2)"], 59, 9),
    "A6": (["(0 1 2)", "(0 1 2 3 4)", "(1 2 3 4 5)"], 501, 22),
    "A7": (["(0 1 2)", "(2 3 4 5 6)"], 3786, 40),
    "C2^4": (["(0 1)", "(2 3)", "(4 5)", "(6 7)"], 67, 67),
    "C2^5": (["(0 1)", "(2 3)", "(4 5)", "(6 7)", "(8 9)"], 374, 374),
}


def named_group(name: str) -> Group:
    if name in EXTRA:
        return parse_group(f"name: {name}\n" + "\n".join(EXTRA[name]))
    return builtin_group(name)


def conjugate(g, subgroup) -> frozenset:
    """g * S * g^-1."""
    gi = perm_inv(g)
    return frozenset(perm_mul(perm_mul(g, s), gi) for s in subgroup)


def small_generating_set(subgroup: frozenset, degree: int) -> list:
    gens, current = [], frozenset([tuple(range(degree))])
    for x in sorted(subgroup):
        if x not in current:
            gens.append(x)
            current = close_under_product(degree, gens)
    return gens


def literal_marks(group: Group, reps: list[frozenset]) -> list[list[int]]:
    """m[H][K] = |(G/H)^K|: the left cosets gH that every generator of K fixes."""
    rows = []
    for h_set in reps:
        cosets = {frozenset(perm_mul(g, h) for h in h_set) for g in group.core.elements}
        row = []
        for k_set in reps:
            k_gens = small_generating_set(k_set, group.core.degree)
            row.append(sum(
                1 for coset in cosets
                if all(frozenset(perm_mul(k, x) for x in coset) == coset for k in k_gens)
            ))
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_published_subgroup_and_class_counts(name):
    gens, subgroups, classes = PUBLISHED[name]
    group = parse_group("\n".join(gens))
    start = time.monotonic()
    lattice = subgroup_lattice(group)
    elapsed = time.monotonic() - start
    assert len(lattice.classes) == classes
    # each class contributes its orbit, |G| / |N_G(H)| conjugates
    assert sum(group.order // (cls.order * cls.weyl_order) for cls in lattice.classes) == subgroups
    assert elapsed < 30.0, f"{name} lattice took {elapsed:.1f}s"


@pytest.mark.parametrize("name", FIXTURES + sorted(EXTRA))
def test_marks_equal_literal_fixed_point_counts(name):
    group = named_group(name)
    lattice = subgroup_lattice(group)
    reps = [element_set(cls) for cls in lattice.classes]
    assert dense_marks(marks_table(lattice)) == literal_marks(group, reps)


# ---------------------------------------------------------------------------
# normalizer-pruned cyclic extension against the unpruned loop

PRUNING_GROUPS = {
    **{name: spec["generators"] for name, spec in BENCHMARK_GROUPS.items()},
    **{name: PUBLISHED[name][0] for name in ("S6", "A6", "C2^5")},
}


def unpruned_orbits(core: GroupCore) -> set[frozenset]:
    """Class orbits from the cyclic extension of one member of each class by
    every prime-power cyclic generator outside it, with no pruning."""
    cyclic, _ = core.cyclic_generators()
    found = [([1], [0], [])]
    known = {1}
    for orbit, elems, gens in found:
        for z in cyclic:
            if orbit[0] >> z & 1:
                continue
            extended = core.extend(elems, gens, z)
            mask = _mask(extended)
            if mask in known:
                continue
            known.add(mask)
            conjugates, members = [mask], [extended]
            for member in members:
                for conj in core.conjugations:
                    image = [conj[x] for x in member]
                    image_mask = _mask(image)
                    if image_mask not in known:
                        known.add(image_mask)
                        conjugates.append(image_mask)
                        members.append(image)
            found.append((conjugates, extended, gens + [z]))
    return {frozenset(orbit) for orbit, _, _ in found}


@pytest.mark.parametrize("name", sorted(PRUNING_GROUPS))
def test_pruned_extension_finds_the_unpruned_orbits(name):
    core = parse_group("\n".join(PRUNING_GROUPS[name])).core
    orbits = [frozenset(entry.orbit) for entry in _subgroup_orbits(core)]
    assert len(set(orbits)) == len(orbits)
    assert set(orbits) == unpruned_orbits(core)


# GroupCore.extend calls of the enumeration: one per N_G(H)-orbit of cyclic
# subgroups outside H, less those settled by the coset rule <H, w*h> = <H, w>.
EXTEND_CALLS = {"A5": 27, "C2^4": 240, "C2^5": 2077, "C2xS4": 129, "S5": 82, "S6": 582}


@pytest.mark.parametrize("name", sorted(EXTEND_CALLS))
def test_extend_counts(monkeypatch, name):
    core = parse_group("\n".join(PRUNING_GROUPS[name])).core
    extend, calls = GroupCore.extend, []

    def counted(self, *args):
        calls.append(None)
        return extend(self, *args)

    monkeypatch.setattr(GroupCore, "extend", counted)
    _subgroup_orbits(core)
    assert len(calls) == EXTEND_CALLS[name]


def brute_normalizer(core: GroupCore, mask: int) -> int:
    """Mask of {g : g^-1 H g = H}."""
    elems = _bits(mask)
    return _mask(g for g in range(len(core.table)) if all(mask >> core.conjugate(h, g) & 1 for h in elems))


def assert_schreier_generators_give_normalizers(group: Group) -> None:
    """The Schreier generators of each class orbit, central ones included,
    generate the normalizer of the orbit's first member."""
    core = group.core
    for entry in _subgroup_orbits(core):
        normalizer = _mask(core.closure(entry.normalizer))
        assert normalizer.bit_count() == group.order // len(entry.orbit)
        assert normalizer == brute_normalizer(core, entry.orbit[0])


@pytest.mark.parametrize("name", ["S5", "GL(2,3)", "A5", "C2xS4"])
def test_schreier_generators_generate_the_normalizer(name):
    assert_schreier_generators_give_normalizers(benchmark_group(name))


# TableProvider.table_for conjugates class tables by this g, so equalizer
# reports depend on which conjugator is returned.
@pytest.mark.parametrize("name", ["S4", "Q8", "GL(2,3)"])
def test_class_of_subgroup_returns_first_conjugator(name):
    group = named_group(name)
    lattice = subgroup_lattice(group)
    for idx, cls in enumerate(lattice.classes):
        rep = element_set(cls)
        for x in group.core.elements[::5]:
            subgroup = conjugate(x, rep)
            expected = next(g for g in group.core.elements if conjugate(perm_inv(g), subgroup) == rep)
            assert lattice.class_of_subgroup(subgroup) == (idx, expected)


# ---------------------------------------------------------------------------
# subconjugacy closed from the extension edges, against its definition


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    """The number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_c2_5_lattice_and_marks_against_gaussian_binomials():
    group = parse_group("\n".join(PUBLISHED["C2^5"][0]))
    lattice = subgroup_lattice(group)
    table = marks_table(lattice)
    n = len(lattice.classes)

    def subspaces(d: int) -> int:
        return sum(gaussian_binomial(d, j) for j in range(d + 1))

    assert n == subspaces(5) == 374
    # each subgroup of order 2^d contains subspaces(d) subgroups, and in an
    # abelian group each class is one subgroup
    comparable = [(k, h) for h in range(n) for k in range(n) if lattice.down_sets[h] >> k & 1]
    assert len(comparable) == sum(gaussian_binomial(5, d) * subspaces(d) for d in range(6))
    # G/H is a group on which K <= H acts trivially: m[H][K] = |G:H|
    marks = dense_marks(table)
    nonzero = {(k, h): marks[h][k] for h in range(n) for k in range(n) if marks[h][k]}
    assert nonzero == {(k, h): 32 // lattice.classes[h].order for k, h in comparable}


def test_labels_past_the_alphabet_are_printable_and_distinct():
    """C2^6 has 2,825 subgroup classes, 1,395 of them of order 8 (the
    Gaussian binomial), so labels run past z: in bijective base 26, 8z is
    followed by 8aa and 8zz by 8aaa, and the first 26 labels of an order
    keep their single letter."""
    group = parse_group("\n".join(f"({2 * i} {2 * i + 1})" for i in range(6)))
    lattice = subgroup_lattice(group)
    labels = [cls.label for cls in lattice.classes]
    assert len(labels) == len(set(labels)) == 2825
    assert all(label.isascii() and label.isalnum() for label in labels)
    eights = [cls.label for cls in lattice.classes if cls.order == 8]
    assert len(eights) == gaussian_binomial(6, 3) == 1395
    assert eights[:27] == [f"8{chr(ord('a') + i)}" for i in range(26)] + ["8aa"]
    assert eights[701:703] == ["8zz", "8aaa"]


EDGE_GROUPS = [("builtin", name) for name in BUILTIN_GROUPS] + [("benchmark", name) for name in BENCHMARK_GROUPS]


@pytest.mark.parametrize("source,name", EDGE_GROUPS, ids=[f"{s}-{n}" for s, n in EDGE_GROUPS])
def test_leq_is_containment_in_a_conjugate(source, name):
    group = builtin_group(name) if source == "builtin" else benchmark_group(name)
    lattice = subgroup_lattice(group)
    orbits = lattice.orbits
    for h in range(len(orbits)):
        for k in range(len(orbits)):
            assert lattice.down_sets[h] >> k & 1 == (_count_containing(orbits[h], orbits[k][0]) > 0)


@pytest.mark.parametrize("name", ["C2^4", "S5", "GL(2,3)"])
def test_containing_conjugates_are_counted_once_per_nonzero_mark(monkeypatch, name):
    count, calls = marks._count_containing, []

    def counted(*args):
        calls.append(None)
        return count(*args)

    monkeypatch.setattr(marks, "_count_containing", counted)
    table = marks_table(subgroup_lattice(benchmark_group(name)))
    assert len(calls) == sum(1 for row in dense_marks(table) for m in row if m)


# ---------------------------------------------------------------------------
# random subgroups of S6 against a reference lattice


def reference_lattice(group: Group):
    """Classes (representative, order, Weyl order, label, abelian),
    subconjugacy and literal marks, from the perm-tuple extension of every
    known subgroup by every element."""
    trivial = frozenset([group.core.elements[0]])
    generators = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in group.core.elements:
                if g in sub:
                    continue
                extended = close_under_product(group.core.degree, generators[sub] + (g,), cap=group.order)
                if extended not in generators:
                    generators[extended] = generators[sub] + (g,)
                    nxt.append(extended)
        frontier = nxt
    reps, seen = [], set()
    for sub in sorted(generators, key=lambda s: (len(s), tuple(sorted(s)))):
        if sub not in seen:
            orbit = {conjugate(g, sub) for g in group.core.elements}
            seen |= orbit
            reps.append(min(orbit, key=lambda s: tuple(sorted(s))))
    reps.sort(key=lambda s: (len(s), tuple(sorted(s))))
    classes, counts = [], {}
    for rep in reps:
        normalizer = sum(1 for g in group.core.elements if conjugate(g, rep) == rep)
        seq = counts.get(len(rep), 0)
        counts[len(rep)] = seq + 1
        abelian = all(perm_mul(a, b) == perm_mul(b, a) for a in rep for b in rep)
        classes.append((tuple(sorted(rep)), len(rep), normalizer // len(rep),
                        f"{len(rep)}{chr(ord('a') + seq)}", abelian))
    leq = tuple(
        tuple(len(k) <= len(h) and any(conjugate(g, k) <= h for g in group.core.elements) for h in reps)
        for k in reps
    )
    return classes, leq, literal_marks(group, reps)


@settings(max_examples=12, deadline=None)
@given(small_subgroups_of_s6())
def test_lattice_and_marks_match_reference(group):
    assert group.order <= 48
    lattice = subgroup_lattice(group)
    classes, leq, marks = reference_lattice(group)
    assert [
        (representative(cls), cls.order, cls.weyl_order, cls.label, cls.is_abelian)
        for cls in lattice.classes
    ] == classes
    n = len(lattice.classes)
    assert tuple(tuple(lattice.down_sets[h] >> k & 1 for h in range(n)) for k in range(n)) == leq
    assert dense_marks(marks_table(lattice)) == marks


@settings(max_examples=12, deadline=None)
@given(small_subgroups_of_s6())
def test_schreier_generators_generate_the_normalizer_in_small_subgroups_of_s6(group):
    assert_schreier_generators_give_normalizers(group)
