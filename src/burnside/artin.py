"""Artin induction certificates: abelian class families, orders, and the
element whose ghost is the order on every family class.

The certificate exhibits |G|_n times the unit as induced from abelian
subgroups on at most n generators, verified pointwise on group elements.
Like every Burnside-ring element (see marks), alpha = sum_A c_A [G/A] is
the dict {class index of A: c_A}, with no zero values; cli writes the report.
"""

from __future__ import annotations

import math
from functools import cached_property

from .groups import SubgroupLattice
from .marks import InternalInvariantViolation, MarksTable, NotInImage, element_checks, phi, solve_ghost


class AbelianClassFamily:
    """Conjugacy classes of abelian subgroups on at most n generators, and
    their order |G|_n, the least common multiple of their Weyl-group orders.

    For finite G, |G|_n = |G| at every n: the trivial class is in every
    family, its Weyl group W_1 = N_G(1)/1 is G itself, and every other
    Weyl order |N_G(A):A| divides |G|.  The lcm form is kept because it is
    the definition that carries over to compact groups (lie.order_n_lie)."""

    def __init__(self, n: int | float, class_indices: tuple[int, ...], order: int):
        self.n, self.class_indices, self.order = n, class_indices, order

    @cached_property
    def members(self) -> frozenset[int]:
        """class_indices as a set, for membership tests."""
        return frozenset(self.class_indices)


class ArtinCertificate:
    def __init__(self, family: AbelianClassFamily, alpha: dict[int, int], ghost: dict[int, int],
                 element_checks: tuple[tuple[int, int, int], ...]):
        self.family = family  # the abelian classes on at most n generators, and |G|_n
        self.alpha = alpha  # sum_A c_A [G/A], as {class index of A: c_A}
        self.ghost = ghost  # phi(alpha), as {class index of K: value at (K)}
        self.element_checks = element_checks  # (element class index, lhs, rhs)

    @property
    def verified(self) -> bool:
        """The element checks pass and the ghost is |G|_n on the family and 0
        off it, so |G|_n * [pt] - alpha lies in J_n."""
        return (
            all(lhs == rhs for _, lhs, rhs in self.element_checks)
            and self.ghost == dict.fromkeys(self.family.class_indices, self.family.order)
        )


def abelian_family(lattice: SubgroupLattice, n: int | float) -> AbelianClassFamily:
    """The abelian classes on at most n generators, with their |G|_n.  Only
    the trivial class has 0 generators, and every family contains it."""
    indices = tuple(
        i for i, cls in enumerate(lattice.classes)
        if cls.is_abelian and cls.min_generators <= n
    )
    return AbelianClassFamily(n, indices, math.lcm(*(lattice.classes[i].weyl_order for i in indices)))


def artin_certificate(table: MarksTable, n: int | float) -> ArtinCertificate:
    """Solve alpha from its ghost, |G|_n on the family and 0 off it, and
    verify the identities.

    alpha is sum_K |G|_n e_K over the family, one back-substitution; every
    idempotent e_K is supported on the classes below (K), and the family is
    closed under subgroups, so supp(alpha) lies in the family.  For n >= 1
    the per-element check asserts sum_A c_A |(G/A)^g| = |G|_n for every
    element conjugacy class of G.  For n = 0 only the ghost-level statement
    holds, so the element checks are omitted.
    """
    lattice = table.lattice
    family = abelian_family(lattice, n)
    try:
        alpha = solve_ghost(dict.fromkeys(family.class_indices, family.order), table)
    except NotInImage as exc:  # pragma: no cover - contradicts tom Dieck's theorem
        raise InternalInvariantViolation(str(exc)) from exc
    outside = alpha.keys() - family.members
    if outside:
        raise InternalInvariantViolation(f"support class {lattice.label_of(min(outside))} outside the family")
    checks = element_checks(alpha, table, family.order) if n >= 1 else ()
    return ArtinCertificate(family, alpha, phi(alpha, table), checks)

