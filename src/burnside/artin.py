"""Artin induction certificates: abelian class families, orders, and the
element whose ghost is the order on every family class.

The certificate exhibits |G|_n times the unit as induced from abelian
subgroups on at most n generators, verified pointwise on group elements.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .groups import SubgroupLattice
from .marks import (
    BurnsideElement,
    InternalInvariantViolation,
    MarksTable,
    NotInImage,
    element_checks,
    phi,
)


class ArtinError(Exception):
    pass


@dataclass(frozen=True)
class AbelianClassFamily:
    """Conjugacy classes of abelian subgroups on at most n generators, and
    their order |G|_n, the least common multiple of their Weyl-group orders."""

    n: int | float
    class_indices: tuple[int, ...]
    order: int

    @cached_property
    def members(self) -> frozenset[int]:
        """class_indices as a set, for membership tests."""
        return frozenset(self.class_indices)


@dataclass(frozen=True)
class ArtinCertificate:
    n: int | float
    order_n: int
    alpha: BurnsideElement  # sum_A c_A [G/A]
    element_checks: tuple[tuple[str, int, int], ...]  # (element class label, lhs, rhs)
    ghost_checks: tuple[tuple[str, int, int], ...]  # (subgroup class label, value, expected)
    in_ideal: bool  # order_n * [pt] - alpha lies in J_n: alpha's ghost is order_n on the family

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


def in_ideal_jn(element: BurnsideElement, family: AbelianClassFamily, table: MarksTable) -> bool:
    """True iff phi(element) vanishes on every class of the family."""
    return phi(element, table).values.keys().isdisjoint(family.members)


def idempotent_multiple(k: int, family: AbelianClassFamily, table: MarksTable) -> BurnsideElement:
    """The element with ghost |G|_n * e_K, supported on family classes below (K).

    It is the table's cached |G| * e_K times |G|_n / |G|, divided exactly.
    """
    lattice = table.lattice
    if k not in family.members:
        raise ArtinError(f"class {lattice.label_of(k)} is not in the family")
    group_order = lattice.group.order
    try:
        scaled = table.scaled_idempotent(k)
    except NotInImage as exc:  # pragma: no cover - contradicts tom Dieck's theorem
        raise InternalInvariantViolation(str(exc)) from exc
    coefficients = {}
    for idx, c in scaled.coefficients.items():
        q, r = divmod(c * family.order, group_order)
        if r:
            raise InternalInvariantViolation(
                f"{family.order} * e_{lattice.label_of(k)} not integral at class {lattice.label_of(idx)}"
            )
        if idx not in family.members or not lattice.leq(idx, k):
            raise InternalInvariantViolation(
                f"support class {lattice.label_of(idx)} outside the family below {lattice.label_of(k)}"
            )
        coefficients[idx] = q
    return BurnsideElement(coefficients)


def artin_certificate(table: MarksTable, n: int | float) -> ArtinCertificate:
    """Sum the idempotent multiples over the family and verify the identities.

    For n >= 1 the per-element check asserts sum_A c_A |(G/A)^g| = |G|_n for
    every element conjugacy class of G.  For n = 0 only the ghost-level
    statement holds, so the element checks are omitted.
    """
    lattice = table.lattice
    family = abelian_family(lattice, n)
    order = family.order
    total = Counter()
    for k in family.class_indices:
        total.update(idempotent_multiple(k, family, table).coefficients)
    alpha = BurnsideElement(total)

    ghost = phi(alpha, table).values
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
    lattice = table.lattice
    return {
        "group": lattice.group.name or "unnamed",
        "n": "inf" if cert.n == math.inf else cert.n,
        "order_n": cert.order_n,
        "coefficients": [
            {"class": lattice.label_of(i), "c": c} for i, c in sorted(cert.alpha.coefficients.items())
        ],
        "checks": [
            {"element_class": label, "lhs": lhs, "rhs": rhs}
            for label, lhs, rhs in cert.element_checks
        ],
        "ghost_checks": [
            {"class": label, "value": value, "expected": expected}
            for label, value, expected in cert.ghost_checks
        ],
        "in_ideal": cert.in_ideal,
        "verified": cert.verified,
    }
