"""Brauer induction certificates: p-local idempotents, their Bezout
combination with value 1 on the abelian family, and the decomposition over
n-hyper subgroup classes verified pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import extended_euclid_set, prime_factors
from .groups import (
    SubgroupLattice,
    conjugacy_classes,
    is_n_hyper,
    perm_to_cycles,
)
from .marks import (
    BurnsideElement,
    GhostElement,
    InternalInvariantViolation,
    MarksTable,
    NotInImage,
    fixed_points_of_element,
    solve_ghost,
)
from .artin import AbelianClassFamily, abelian_family, order_n


class BrauerError(Exception):
    pass


class NotPPerfect(BrauerError):
    """A local idempotent was requested at a class that is not p-perfect."""


def coprime_part(value: int, p: int) -> int:
    """Largest factor of value that is relatively prime to p."""
    while value % p == 0:
        value //= p
    return value


@dataclass(frozen=True)
class LocalIdempotent:
    class_index: int  # the p-perfect class (H)
    p: int
    ghost: GhostElement  # 1 at (K) iff (O^p(K)) = (H)
    scaled_element: BurnsideElement  # solves N_(p) * ghost


@dataclass(frozen=True)
class BrauerCertificate:
    n: int | float
    order_n: int
    bezout: dict[int, int]  # prime -> z_p
    i_n_ghost: GhostElement
    decomposition: dict[int, int]  # class index -> k_H, support only
    element_checks: tuple[tuple[str, int, int], ...]
    family_values: tuple[tuple[str, int], ...]  # i_n_ghost restricted to the abelian family
    support_hyper: bool

    @property
    def verified(self) -> bool:
        return (
            all(lhs == rhs for _, lhs, rhs in self.element_checks)
            and all(v == 1 for _, v in self.family_values)
            and self.support_hyper
        )


def core_classification(lattice: SubgroupLattice, p: int) -> list[int]:
    """For each class (K), the class index of (O^p(K)); computed once per
    lattice and prime."""
    return list(lattice.p_core_classes(p))


def in_hyper_family(lattice: SubgroupLattice, h: int, n: int | float, order: int) -> bool:
    """Whether class h is n-hyper for some prime dividing order = |G|_n, or
    for 2 when |G|_n is 1."""
    degree = lattice.group.degree
    return any(is_n_hyper(lattice.classes[h].element_set, n, p, degree) for p in prime_factors(order) or [2])


def local_idempotent(h: int, p: int, table: MarksTable, n: int | float = 1) -> LocalIdempotent:
    """The idempotent ghost supported on classes whose p-perfect core is (H),
    together with the integral element solving its |G|_n-coprime multiple."""
    lattice = table.lattice
    cores = lattice.p_core_classes(p)
    if cores[h] != h:
        raise NotPPerfect(f"class {lattice.label_of(h)} is not {p}-perfect")
    ghost = GhostElement(tuple(1 if core == h else 0 for core in cores))
    scale = coprime_part(order_n(abelian_family(lattice, n), lattice), p)
    try:
        scaled = solve_ghost(ghost.scale(scale), table)
    except NotInImage as exc:  # pragma: no cover - contradicts the idempotent theorem
        raise InternalInvariantViolation(str(exc)) from exc
    return LocalIdempotent(h, p, ghost, scaled)


def i_pn(p: int, table: MarksTable, n: int | float) -> GhostElement:
    """(|G|_n)_(p) times the sum of local idempotents over abelian p'-classes
    of the family; equals that scale on every extension of such a class by a
    p-group and 0 elsewhere."""
    lattice = table.lattice
    family = abelian_family(lattice, n)
    return _i_pn(p, lattice, family, order_n(family, lattice))


def _i_pn(p: int, lattice: SubgroupLattice, family: AbelianClassFamily, order: int) -> GhostElement:
    """i_pn for a family whose order_n is already known."""
    scale = coprime_part(order, p)
    selected = {a for a in family.class_indices if lattice.classes[a].order % p != 0}
    return GhostElement(tuple(scale if core in selected else 0 for core in lattice.p_core_classes(p)))


def brauer_certificate(table: MarksTable, n: int | float = 1) -> BrauerCertificate:
    """Bezout-combine the I_(p,n) over primes dividing |G|_n, solve back to
    the Burnside ring, and verify the unit identity on every element class."""
    lattice = table.lattice
    family = abelian_family(lattice, n)
    order = order_n(family, lattice)
    primes = prime_factors(order)

    if not primes:
        i_n = GhostElement.ones(table.size)
        bezout: dict[int, int] = {}
    else:
        parts = [coprime_part(order, p) for p in primes]
        zs = extended_euclid_set(parts)
        bezout = dict(zip(primes, zs))
        i_n = GhostElement.zero(table.size)
        for p, z in bezout.items():
            i_n = i_n + _i_pn(p, lattice, family, order).scale(z)

    try:
        decomposition = solve_ghost(i_n, table)
    except NotInImage as exc:  # pragma: no cover - contradicts the decomposition lemma
        raise InternalInvariantViolation(str(exc)) from exc

    support = decomposition.support()
    support_hyper = all(in_hyper_family(lattice, h, n, order) for h in support)

    classes = conjugacy_classes(lattice.group)
    element_checks = []
    for rep in classes.representatives:
        lhs = sum(
            decomposition.coefficients[h] * fixed_points_of_element(table, h, rep)
            for h in support
        )
        element_checks.append((perm_to_cycles(rep), lhs, 1))

    family_values = tuple(
        (lattice.label_of(i), i_n.values[i]) for i in family.class_indices
    )
    return BrauerCertificate(
        n=n,
        order_n=order,
        bezout=bezout,
        i_n_ghost=i_n,
        decomposition={i: decomposition.coefficients[i] for i in support},
        element_checks=tuple(element_checks),
        family_values=family_values,
        support_hyper=support_hyper,
    )


def certificate_payload(cert: BrauerCertificate, table: MarksTable) -> dict:
    lattice = table.lattice
    idempotents = []
    for p in sorted(cert.bezout):
        cores = lattice.p_core_classes(p)
        for a in abelian_family(lattice, cert.n).class_indices:
            if lattice.classes[a].order % p == 0:
                continue
            ghost = [1 if core == a else 0 for core in cores]
            idempotents.append({"class": lattice.label_of(a), "p": p, "ghost": ghost})
    return {
        "group": lattice.group.name or "unnamed",
        "n": "inf" if cert.n == math.inf else cert.n,
        "order_n": cert.order_n,
        "bezout": [{"p": p, "z_p": z} for p, z in sorted(cert.bezout.items())],
        "idempotents": idempotents,
        "i_n_ghost": list(cert.i_n_ghost.values),
        "decomposition": [
            {"class": lattice.label_of(i), "k": k} for i, k in sorted(cert.decomposition.items())
        ],
        "checks": [
            {"element_class": label, "lhs": lhs, "rhs": rhs}
            for label, lhs, rhs in cert.element_checks
        ],
        "family_values": [
            {"class": label, "value": value} for label, value in cert.family_values
        ],
        "support_hyper": cert.support_hyper,
        "verified": cert.verified,
    }
