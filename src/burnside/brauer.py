"""Brauer induction certificates: p-local idempotents, their Bezout
combination with value 1 on the abelian family, and the decomposition over
n-hyper subgroup classes verified pointwise.

Ghosts and Burnside-ring elements are {class index: integer} dicts with no
zero values (see marks): the ghost I_n is summed key by key from the
scaled I_(p,n), and the decomposition is solved from it.
"""

from __future__ import annotations

import math

from .exact import extended_euclid_set, prime_factors
from .groups import SubgroupLattice
from .marks import InternalInvariantViolation, MarksTable, NotInImage, element_checks, solve_ghost
from .artin import AbelianClassFamily, abelian_family


def coprime_part(value: int, p: int) -> int:
    """Largest factor of value that is relatively prime to p."""
    while value % p == 0:
        value //= p
    return value


class BrauerCertificate:
    def __init__(self, n: int | float, order_n: int, bezout: dict[int, int], i_n_ghost: dict[int, int],
                 decomposition: dict[int, int], element_checks: tuple[tuple[int, int, int], ...],
                 family_values: tuple[tuple[str, int], ...], support_hyper: bool):
        self.n, self.order_n = n, order_n
        self.bezout = bezout  # prime -> z_p
        self.i_n_ghost = i_n_ghost  # {class index of K: value at (K)}
        self.decomposition = decomposition  # sum_H k_H [G/H], as {class index of H: k_H}
        self.element_checks = element_checks  # (element class index, lhs, rhs)
        self.support_hyper = support_hyper
        self.family_values = family_values  # i_n_ghost restricted to the abelian family

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


def in_hyper_family(lattice: SubgroupLattice, h: int, family: AbelianClassFamily) -> bool:
    """Whether class h is n-hyper for some prime p dividing |G|_n, or for 2
    when |G|_n is 1: the class of O^p(H) is in the abelian family.  H is
    n-hyper for p when it extends an abelian p'-group on at most n
    generators by a p-group, and any such subgroup contains O^p(H), so
    O^p(H) is one whenever one exists.  Being generated by elements of order
    prime to p, an abelian O^p(H) is a p'-group."""
    return any(lattice.p_core_classes(p)[h] in family.members for p in prime_factors(family.order) or [2])


def i_pn(p: int, family: AbelianClassFamily, table: MarksTable) -> dict[int, int]:
    """(|G|_n)_(p) times the sum of local idempotents over abelian p'-classes
    of the family; equals that scale on every extension of such a class by a
    p-group and 0 elsewhere."""
    lattice = table.lattice
    scale = coprime_part(family.order, p)
    selected = {a for a in family.class_indices if lattice.classes[a].order % p != 0}
    return {k: scale for k, core in enumerate(lattice.p_core_classes(p)) if core in selected}


def brauer_certificate(table: MarksTable, n: int | float = 1) -> BrauerCertificate:
    """Bezout-combine the I_(p,n) over primes dividing |G|_n, solve back to
    the Burnside ring, and verify the unit identity on every element class.

    For n = 0 the family is the trivial class alone and only the statement
    about ghost values on the family holds, so, as for Artin certificates,
    the element checks are omitted.
    """
    lattice = table.lattice
    family = abelian_family(lattice, n)
    order = family.order
    primes = prime_factors(order)

    if not primes:
        i_n = dict.fromkeys(range(table.size), 1)
        bezout: dict[int, int] = {}
    else:
        bezout = dict(zip(primes, extended_euclid_set([coprime_part(order, p) for p in primes])))
        i_n = {}
        for p, z in bezout.items():
            for k, v in i_pn(p, family, table).items():
                i_n[k] = i_n.get(k, 0) + z * v
        i_n = {k: v for k, v in i_n.items() if v}

    try:
        decomposition = solve_ghost(i_n, table)
    except NotInImage as exc:  # pragma: no cover - contradicts the decomposition lemma
        raise InternalInvariantViolation(str(exc)) from exc

    support_hyper = all(in_hyper_family(lattice, h, family) for h in decomposition)
    family_values = tuple(
        (lattice.label_of(i), i_n.get(i, 0)) for i in family.class_indices
    )
    return BrauerCertificate(
        n=n,
        order_n=order,
        bezout=bezout,
        i_n_ghost=i_n,
        decomposition=decomposition,
        element_checks=element_checks(decomposition, table, 1) if n >= 1 else (),
        family_values=family_values,
        support_hyper=support_hyper,
    )


def certificate_payload(cert: BrauerCertificate, table: MarksTable) -> dict:
    lattice, classes = table.lattice, table.element_classes
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
        "i_n_ghost": [cert.i_n_ghost.get(i, 0) for i in range(len(lattice))],
        "decomposition": [
            {"class": lattice.label_of(i), "k": k} for i, k in sorted(cert.decomposition.items())
        ],
        "checks": [
            {"element_class": classes.label(c), "lhs": lhs, "rhs": rhs}
            for c, lhs, rhs in cert.element_checks
        ],
        "family_values": [
            {"class": label, "value": value} for label, value in cert.family_values
        ],
        "support_hyper": cert.support_hyper,
        "verified": cert.verified,
    }
