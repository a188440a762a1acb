"""Properties of the character layer on random two-generator subgroups of S6
of order at most 48: conjugacy classes and permutation characters against
brute-force counts over permutation tuples, Frobenius reciprocity and the
Mackey formula for permutation characters, the Artin (n = 1, inf) and
Brauer (n = 1) certificates, and the Artin and Brauer restriction
verifications at n = 1 on computed character tables."""

import math

from hypothesis import given, settings

from burnside.artin import artin_certificate
from burnside.brauer import brauer_certificate
from burnside.groups import conjugacy_classes, perm_mul, subgroup_lattice
from burnside.marks import marks_table
from burnside.restriction import TableProvider, verify_artin_restriction, verify_brauer_restriction

from group_fixtures import small_subgroups_of_s6
from oracles import (
    element_set,
    frobenius_check,
    mackey_check,
    perm_character,
    perm_inv,
    subgroup_view,
    value_at,
)


def order_of(x) -> int:
    identity, y, k = tuple(range(len(x))), x, 1
    while y != identity:
        y, k = perm_mul(y, x), k + 1
    return k


def brute_force_classes(group) -> list[tuple]:
    """The sets {g x g^-1 : g in G}, sorted by element order, size and least member."""
    classes, seen = [], set()
    for x in group.core.elements:
        if x not in seen:
            cls = {perm_mul(perm_mul(g, x), perm_inv(g)) for g in group.core.elements}
            seen |= cls
            classes.append(tuple(sorted(cls)))
    return sorted(classes, key=lambda cls: (order_of(cls[0]), len(cls), cls[0]))


def fixed_coset_count(group, subgroup: frozenset, g) -> int:
    """#{c in G : c^-1 g c in H} / |H|, which divides exactly."""
    hits = sum(1 for c in group.core.elements if perm_mul(perm_mul(perm_inv(c), g), c) in subgroup)
    count, rest = divmod(hits, len(subgroup))
    assert not rest, f"{hits} conjugators into a subgroup of order {len(subgroup)}"
    return count


@settings(max_examples=15, deadline=None)
@given(small_subgroups_of_s6())
def test_character_layer_properties(group):
    classes = conjugacy_classes(group)
    assert [tuple(group.core.elements[i] for i in cls) for cls in classes.members] == brute_force_classes(group)

    lattice = subgroup_lattice(group)
    reps = [element_set(cls) for cls in lattice.classes]
    for subgroup in reps:
        chi = perm_character(group, subgroup)
        assert [value_at(chi, g) for g in classes.representatives] == \
            [fixed_coset_count(group, subgroup, g) for g in classes.representatives]

    # each class H is paired with a class K from the other end of the lattice
    trivial = frozenset([group.core.elements[0]])
    for h_set, k_set in zip(reps, reversed(reps)):
        regular = perm_character(subgroup_view(group, h_set), trivial)
        assert frobenius_check(regular, perm_character(group, k_set), group)
        assert mackey_check(k_set, regular, group)

    table = marks_table(lattice)
    assert artin_certificate(table, 1).verified
    assert artin_certificate(table, math.inf).verified
    assert brauer_certificate(table, 1).verified

    provider = TableProvider(lattice)
    k = len(classes.members)
    assert verify_artin_restriction(table, 1, provider) == (group.order, k)
    assert verify_brauer_restriction(table, 1, provider) == (k, (1,) * k)
