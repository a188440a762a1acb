"""The Burnside ring via the table of marks and the ghost ring of integer functions.

The mark m[H][K] counts fixed points |(G/H)^K|; rows are indexed by the
basis elements [G/H] and columns by the evaluation classes (K), both in
lattice order.  The marks homomorphism phi sends an element of the Burnside
ring to its ghost, the function of fixed-point counts on subgroup classes;
solve_ghost inverts it exactly when possible.

Both kinds of element are plain sparse dicts: an element of the Burnside
ring is {class index H: coefficient of [G/H]} and a ghost is {class index
K: value at (K)}.  phi and solve_ghost return no zero values, and a zero
value passed in counts as an absent key.  Each element the certificates
build is a sum of idempotents e_K, each supported on the classes below (K),
so the dicts stay far smaller than the lattice; only the JSON reports list
values in lattice order.

The table stores only the nonzero marks, by rows: for each class (H) the
pairs (K, m[H][K]) with m[H][K] != 0, that is the down-set of (H), K
ascending, so the last pair is (H, |W_H|).  marks_table writes each row
while it walks the lattice's down-set of (H), and the marks report lists
the rows as they are stored.  Since subconjugacy is transitive, the
solution of a ghost vanishes outside the classes below its keys, and
solve_ghost reads only the rows of those classes; the solve for {K: v}
follows the down-set of (K).  verify's tom Dieck check solves {K: |G|},
the element |G|*e_K, once per class (the idempotents e_K of the rational
Burnside ring: T. Yoshida, J. Algebra 80 (1983)), while each Artin
certificate solves its whole ghost, |G|_n on the family, once.

The certificates are also checked at single elements g, where the value of
[G/H] is |(G/H)^g| = |C_G(g)| * |g^G cap H| / |H|.  That count reads only
the element classes of G and the bitmask of H: |g^G cap H| is the popcount
of H's mask ANDed with the mask of g's class, so it stays independent of
the table of marks it is checked against.  It is the count behind
characters.induce too (ConjugacyClasses.conjugators_into).  element_checks
reads it per element class and returns each check by class index, with no
permutation lookup; only a report turns the index into a label.
"""

from __future__ import annotations

from functools import cached_property

from .groups import ConjugacyClasses, Perm, SubgroupLattice, conjugacy_classes


class BurnsideError(Exception):
    """Base class for Burnside-ring errors."""


class NotInImage(BurnsideError):
    """A ghost vector is not in the image of the marks homomorphism."""

    exit_code = 1  # a failed check

    def __init__(self, class_index: int, label: str, remainder: int):
        self.class_index = class_index
        self.label = label
        self.remainder = remainder
        super().__init__(f"ghost not integral at class {label}: remainder {remainder}")


class UnknownClass(BurnsideError):
    """A subgroup class index or label does not exist in the lattice."""


class InternalInvariantViolation(BurnsideError):
    """A computation contradicted a theorem; indicates a bug, never expected."""

    exit_code = 3


class MarksTable:
    def __init__(self, lattice: SubgroupLattice, rows: tuple[tuple[tuple[int, int], ...], ...]):
        self.lattice = lattice
        # per class (H), the pairs (K, m[H][K]) of every nonzero mark in its
        # row, K ascending and (H, |W_H|) last, where m[H][K] = |(G/H)^K|
        self.rows = rows

    @property
    def size(self) -> int:
        return len(self.lattice.classes)

    @cached_property
    def element_classes(self) -> ConjugacyClasses:
        """The element conjugacy classes of G, with their bitmasks."""
        return conjugacy_classes(self.lattice.group)


def _count_containing(orbit: tuple[int, ...], mask: int) -> int:
    return sum(1 for m in orbit if m & mask == mask)


def marks_table(lattice: SubgroupLattice) -> MarksTable:
    """m[H][K] = number of cosets gH with g^-1 K g contained in H.

    Each conjugate H' of H that contains K equals gHg^-1 for |N_G(H)|
    elements g, which make up |N_G(H):H| cosets gH, so
    m[H][K] = |N_G(H):H| * #{H' ~ H : K <= H'} (Pfeiffer, Exp. Math. 6 (1997)).
    That count is nonzero exactly when (K) <= (H), so only the classes in
    the down-set of (H) are counted, lowest bit first.  Each pair holds
    the one int object of its class, read from a list of the indices, so a
    large table does not keep a copy of K per pair.
    """
    orbits = lattice.orbits
    indices = list(range(len(lattice.classes)))
    rows = []
    for h, (hcls, down_set) in enumerate(zip(lattice.classes, lattice.down_sets)):
        orbit, row = orbits[h], []
        while down_set:
            k = indices[(down_set & -down_set).bit_length() - 1]
            down_set &= down_set - 1
            row.append((k, hcls.weyl_order * _count_containing(orbit, orbits[k][0])))
        rows.append(tuple(row))
    return MarksTable(lattice, tuple(rows))


def phi(element: dict[int, int], table: MarksTable) -> dict[int, int]:
    """Marks homomorphism: value at (K) is sum_H x_H * m[H][K], each x_H
    added along row H; the ghost holds no zero values."""
    ghost: dict[int, int] = {}
    rows = table.rows
    for h, c in element.items():
        for k, m in rows[h]:
            ghost[k] = ghost.get(k, 0) + c * m
    return {k: v for k, v in ghost.items() if v}


def solve_ghost(ghost: dict[int, int], table: MarksTable) -> dict[int, int]:
    """The unique x with phi(x) = ghost, solved by descending back-substitution.

    Only classes below some key of the ghost are visited: elsewhere the
    ghost and every term of the sum vanish, so x does too.  At each visited
    class (K), from the top down, what remains of the ghost value is divided
    by the last mark of row K, m[K][K]; a nonzero x_K then subtracts x_K
    times row K from the remainders below.  So a solve reads only the rows
    of the classes it visits.

    Raises UnknownClass for a key outside the lattice, whatever its value,
    and NotInImage at the first class (descending from the maximal one)
    where the required quotient is not an integer.  The solution holds no
    zero values.
    """
    down_sets = table.lattice.down_sets
    visit = 0
    for k in ghost:
        if not 0 <= k < table.size:
            raise UnknownClass(f"no subgroup class with index {k}")
        visit |= down_sets[k]
    rest = dict(ghost)
    x: dict[int, int] = {}
    rows = table.rows
    while visit:
        k = visit.bit_length() - 1
        visit ^= 1 << k
        row = rows[k]
        q, r = divmod(rest.get(k, 0), row[-1][1])
        if r:
            raise NotInImage(k, table.lattice.classes[k].label, r)
        if q:
            x[k] = q
            for j, m in row:
                rest[j] = rest.get(j, 0) - q * m
    return x


def fixed_points_of_element(table: MarksTable, h: int, g: Perm) -> int:
    """|(G/H)^g| for a single group element g, from its class mask.

    g fixes the coset xH iff x^-1 g x lies in H, and each of the
    |g^G cap H| members of g's class in H is x^-1 g x for |C_G(g)| elements
    x, so |(G/H)^g| = |C_G(g)| * |g^G cap H| / |H|.  Raises
    InternalInvariantViolation if |H| does not divide that product.
    """
    return _fixed_points(table, h, table.element_classes.index_of(g))


def _fixed_points(table: MarksTable, h: int, c: int) -> int:
    """|(G/H)^g| for g in element class c; see fixed_points_of_element."""
    lattice = table.lattice
    classes = table.element_classes
    fixed, remainder = divmod(classes.conjugators_into(c, lattice.orbits[h][0]), lattice.classes[h].order)
    if remainder:
        raise InternalInvariantViolation(
            f"|(G/H)^g| not integral for H = {lattice.label_of(h)}, g = {classes.label(c)}"
        )
    return fixed


def element_checks(element: dict[int, int], table: MarksTable, expected: int) -> tuple[tuple[int, int, int], ...]:
    """(c, sum_H x_H |(G/H)^g|, expected) for every element conjugacy class
    c of G and g in c, by class index; the reports label c with
    ConjugacyClasses.label."""
    return tuple(
        (c, sum(v * _fixed_points(table, h, c) for h, v in element.items()), expected)
        for c in range(len(table.element_classes.members))
    )
