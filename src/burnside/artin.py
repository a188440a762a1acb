"""Artin induction certificates: abelian class families, orders, and the
element whose ghost is the order on every family class.

The certificate exhibits |G|_n times the unit as induced from abelian
subgroups on at most n generators, verified pointwise on group elements.
Like every Burnside-ring element (see marks), alpha = sum_A c_A [G/A] is
the dict {class index of A: c_A}, with no zero values.
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
    def __init__(self, n: int | float, order_n: int, alpha: dict[int, int],
                 element_checks: tuple[tuple[int, int, int], ...],
                 ghost_checks: tuple[tuple[str, int, int], ...], in_ideal: bool):
        self.n, self.order_n = n, order_n
        self.alpha = alpha  # sum_A c_A [G/A], as {class index of A: c_A}
        self.element_checks = element_checks  # (element class index, lhs, rhs)
        self.ghost_checks = ghost_checks  # (subgroup class label, value, expected)
        # order_n * [pt] - alpha lies in J_n: alpha's ghost is order_n on the family
        self.in_ideal = in_ideal

    @property
    def verified(self) -> bool:
        return (
            all(lhs == rhs for _, lhs, rhs in self.element_checks)
            and all(lhs == rhs for _, lhs, rhs in self.ghost_checks)
            and self.in_ideal
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
    order = family.order
    try:
        alpha = solve_ghost(dict.fromkeys(family.class_indices, order), table)
    except NotInImage as exc:  # pragma: no cover - contradicts tom Dieck's theorem
        raise InternalInvariantViolation(str(exc)) from exc
    outside = alpha.keys() - family.members
    if outside:
        raise InternalInvariantViolation(f"support class {lattice.label_of(min(outside))} outside the family")

    ghost = phi(alpha, table)
    ghost_checks = tuple(
        (cls.label, ghost.get(idx, 0), order if idx in family.members else 0)
        for idx, cls in enumerate(lattice.classes)
    )
    return ArtinCertificate(
        n=n,
        order_n=order,
        alpha=alpha,
        element_checks=element_checks(alpha, table, order) if n >= 1 else (),
        ghost_checks=ghost_checks,
        in_ideal=all(ghost.get(k, 0) == order for k in family.class_indices),
    )


def certificate_payload(cert: ArtinCertificate, table: MarksTable) -> dict:
    """JSON-ready dictionary for a certificate."""
    lattice, classes = table.lattice, table.element_classes
    return {
        "group": lattice.group.name or "unnamed",
        "n": "inf" if cert.n == math.inf else cert.n,
        "order_n": cert.order_n,
        "coefficients": [
            {"class": lattice.label_of(i), "c": c} for i, c in sorted(cert.alpha.items())
        ],
        "checks": [
            {"element_class": classes.label(c), "lhs": lhs, "rhs": rhs}
            for c, lhs, rhs in cert.element_checks
        ],
        "ghost_checks": [
            {"class": label, "value": value, "expected": expected}
            for label, value, expected in cert.ghost_checks
        ],
        "in_ideal": cert.in_ideal,
        "verified": cert.verified,
    }
