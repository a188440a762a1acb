"""Brauer induction certificates: p-local idempotents, their Bezout
combination with value 1 on the abelian family, and the decomposition over
n-hyper subgroup classes verified pointwise.

The certificate owns its p-local data: core_classification reads the class
of each p-perfect core O^p(H) off the lattice once per prime of |G|_n, and
the n-hyper classes, and cli's report of the idempotents, read those cores.

Ghosts and Burnside-ring elements are {class index: integer} dicts with no
zero values (see marks): the ghost I_n is summed key by key from the
scaled I_(p,n), and the decomposition is solved from it.
"""

from __future__ import annotations

from .exact import extended_euclid_set, factorization
from .groups import SubgroupLattice, _bits, _mask
from .marks import InternalInvariantViolation, MarksTable, NotInImage, element_checks, solve_ghost
from .artin import AbelianClassFamily, abelian_family


def coprime_part(value: int, p: int) -> int:
    """Largest factor of value that is relatively prime to p."""
    return value // p ** factorization(value).get(p, 0)


class BrauerCertificate:
    def __init__(self, family: AbelianClassFamily, cores: dict[int, list[int]], bezout: dict[int, int],
                 i_n_ghost: dict[int, int], decomposition: dict[int, int],
                 element_checks: tuple[tuple[int, int, int], ...]):
        self.family = family  # the abelian classes on at most n generators, and |G|_n
        self.cores = cores  # prime -> core_classification, over the primes of |G|_n, or 2
        self.hyper = frozenset(k for c in cores.values() for k in hyper_classes(c, family))  # n-hyper classes
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
    """For each class (K), the class index of O^p(K), the subgroup
    generated by the elements of order prime to p; that is K itself when p
    does not divide |K|."""
    core = lattice.group.core
    return [
        k if cls.order % p else lattice.class_of_mask[_mask(core.closure(
            x for x in _bits(orbit[0]) if core.orders[x] % p
        ))]
        for k, (cls, orbit) in enumerate(zip(lattice.classes, lattice.orbits))
    ]


def hyper_classes(cores: list[int], family: AbelianClassFamily) -> list[int]:
    """The classes n-hyper for p, from core_classification at p: those whose
    class of O^p(H) is in the abelian family.  H is n-hyper for p when it
    extends an abelian p'-group on at most n generators by a p-group, and
    any such subgroup contains O^p(H), so O^p(H) is one whenever one exists.
    Being generated by elements of order prime to p, an abelian O^p(H) is a
    p'-group, so no p' test is needed.  I_(p,n) is (|G|_n)_(p') on these
    classes and 0 elsewhere."""
    return [k for k, core in enumerate(cores) if core in family.members]


def brauer_certificate(table: MarksTable, n: int | float) -> BrauerCertificate:
    """Bezout-combine the I_(p,n) over primes dividing |G|_n, solve back to
    the Burnside ring, and verify the unit identity on every element class.

    For n = 0 the family is the trivial class alone and only the statement
    about ghost values on the family holds, so, as for Artin certificates,
    the element checks are omitted.
    """
    lattice = table.lattice
    family = abelian_family(lattice, n)
    primes = list(factorization(family.order))
    cores = {p: core_classification(lattice, p) for p in primes or [2]}
    scales = [coprime_part(family.order, p) for p in primes]
    bezout = dict(zip(primes, extended_euclid_set(scales))) if primes else {}

    i_n: dict[int, int] = {} if primes else dict.fromkeys(range(table.size), 1)
    for (p, z), scale in zip(bezout.items(), scales):
        for k in hyper_classes(cores[p], family):
            i_n[k] = i_n.get(k, 0) + z * scale
    i_n = {k: v for k, v in i_n.items() if v}

    try:
        decomposition = solve_ghost(i_n, table)
    except NotInImage as exc:  # pragma: no cover - contradicts the decomposition lemma
        raise InternalInvariantViolation(str(exc)) from exc
    return BrauerCertificate(
        family=family,
        cores=cores,
        bezout=bezout,
        i_n_ghost=i_n,
        decomposition=decomposition,
        element_checks=element_checks(decomposition, table, 1) if n >= 1 else (),
    )

