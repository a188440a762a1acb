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
    def __init__(self, family: AbelianClassFamily, hyper: frozenset[int], bezout: dict[int, int],
                 i_n_ghost: dict[int, int], decomposition: dict[int, int],
                 element_checks: tuple[tuple[int, int, int], ...]):
        self.family = family  # the abelian classes on at most n generators, and |G|_n
        self.hyper = hyper  # the n-hyper classes: hyper_classes over the primes of |G|_n, or 2
        self.bezout = bezout  # prime -> z_p
        self.i_n_ghost = i_n_ghost  # {class index of K: value at (K)}
        self.decomposition = decomposition  # sum_H k_H [G/H], as {class index of H: k_H}
        self.element_checks = element_checks  # (element class index, lhs, rhs)

    @property
    def verified(self) -> bool:
        """The element checks pass, I_n is 1 on the family, and the
        decomposition lies on n-hyper classes."""
        return (
            all(lhs == rhs for _, lhs, rhs in self.element_checks)
            and all(self.i_n_ghost.get(k, 0) == 1 for k in self.family.class_indices)
            and self.decomposition.keys() <= self.hyper
        )


def core_classification(lattice: SubgroupLattice, p: int) -> list[int]:
    """For each class (K), the class index of (O^p(K)); computed once per
    lattice and prime."""
    return list(lattice.p_core_classes(p))


def hyper_classes(lattice: SubgroupLattice, family: AbelianClassFamily, p: int) -> list[int]:
    """The classes n-hyper for p: those whose class of O^p(H) is in the
    abelian family.  H is n-hyper for p when it extends an abelian p'-group
    on at most n generators by a p-group, and any such subgroup contains
    O^p(H), so O^p(H) is one whenever one exists.  Being generated by
    elements of order prime to p, an abelian O^p(H) is a p'-group, so no
    p' test is needed.  I_(p,n) is (|G|_n)_(p') on these classes and 0
    elsewhere."""
    return [k for k, core in enumerate(lattice.p_core_classes(p)) if core in family.members]


def brauer_certificate(table: MarksTable, n: int | float) -> BrauerCertificate:
    """Bezout-combine the I_(p,n) over primes dividing |G|_n, solve back to
    the Burnside ring, and verify the unit identity on every element class.

    For n = 0 the family is the trivial class alone and only the statement
    about ghost values on the family holds, so, as for Artin certificates,
    the element checks are omitted.
    """
    lattice = table.lattice
    family = abelian_family(lattice, n)
    primes = prime_factors(family.order)
    hyper_by_prime = {p: hyper_classes(lattice, family, p) for p in primes or [2]}
    scales = [coprime_part(family.order, p) for p in primes]
    bezout = dict(zip(primes, extended_euclid_set(scales))) if primes else {}

    i_n: dict[int, int] = {} if primes else dict.fromkeys(range(table.size), 1)
    for (p, z), scale in zip(bezout.items(), scales):
        for k in hyper_by_prime[p]:
            i_n[k] = i_n.get(k, 0) + z * scale
    i_n = {k: v for k, v in i_n.items() if v}

    try:
        decomposition = solve_ghost(i_n, table)
    except NotInImage as exc:  # pragma: no cover - contradicts the decomposition lemma
        raise InternalInvariantViolation(str(exc)) from exc
    return BrauerCertificate(
        family=family,
        hyper=frozenset().union(*hyper_by_prime.values()),
        bezout=bezout,
        i_n_ghost=i_n,
        decomposition=decomposition,
        element_checks=element_checks(decomposition, table, 1) if n >= 1 else (),
    )


def certificate_payload(cert: BrauerCertificate, table: MarksTable) -> dict:
    lattice, classes = table.lattice, table.element_classes
    family = cert.family
    idempotents = []
    for p in sorted(cert.bezout):
        cores = lattice.p_core_classes(p)
        for a in family.class_indices:
            if lattice.classes[a].order % p == 0:  # the report lists the p'-classes' idempotents only
                continue
            ghost = [1 if core == a else 0 for core in cores]
            idempotents.append({"class": lattice.label_of(a), "p": p, "ghost": ghost})
    return {
        "group": lattice.group.name or "unnamed",
        "n": "inf" if family.n == math.inf else family.n,
        "order_n": family.order,
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
            {"class": lattice.label_of(i), "value": cert.i_n_ghost.get(i, 0)} for i in family.class_indices
        ],
        "support_hyper": cert.decomposition.keys() <= cert.hyper,
        "verified": cert.verified,
    }
