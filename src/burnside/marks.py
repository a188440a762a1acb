"""The Burnside ring via the table of marks and the ghost ring of integer functions.

The marks matrix m[H][K] counts fixed points |(G/H)^K|; rows are indexed by
the basis elements [G/H] and columns by the evaluation classes (K), both in
lattice order.  The marks homomorphism phi sends an element of the Burnside
ring to its ghost, the function of fixed-point counts on subgroup classes;
solve_ghost inverts it exactly when possible.

Both kinds of element are sparse: a BurnsideElement holds its coefficients
and a GhostElement its values as one {class index: value} map with no zero
entries, dropped by the constructor.  Each element the certificates build
is a sum of idempotents e_K, each supported on the classes below (K), so
the maps stay far smaller than the lattice; only the JSON reports list
values in lattice order.

The table stores only the nonzero marks, as a column index: for each
class (K) the pairs (H, m[H][K]) with m[H][K] != 0, that is (K) and the
classes above it, counted once per such pair from the lattice's down-sets.
The dense matrix is built from the columns on first read, for the marks
report and the tests.  Since subconjugacy is transitive, the solution of a
ghost vanishes outside the classes below its keys, and solve_ghost visits
only those; the solve for {K: v} follows the down-set of (K).  verify's
tom Dieck check solves {K: |G|}, the element |G|*e_K, once per class (the
idempotents e_K of the rational Burnside ring: T. Yoshida, J. Algebra 80
(1983)), while each Artin certificate solves its whole ghost, |G|_n on the
family, once.

The certificates are also checked at single elements g, where the value of
[G/H] is |(G/H)^g| = |C_G(g)| * |g^G cap H| / |H|.  That count reads only
the element classes of G and the bitmask of H: |g^G cap H| is the popcount
of H's mask ANDed with the mask of g's class, so it stays independent of
the table of marks it is checked against.  It is the count behind
characters.induce too (ConjugacyClasses.conjugators_into), and
element_checks reads it per class index, with no permutation lookup.
"""

from __future__ import annotations

import json
from functools import cached_property

from .exact import IntMatrix
from .groups import ConjugacyClasses, Perm, SubgroupLattice, conjugacy_classes, perm_to_cycles


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
    def __init__(self, lattice: SubgroupLattice, columns: tuple[tuple[tuple[int, int], ...], ...]):
        self.lattice = lattice
        # per class (K), the pairs (H, m[H][K]) of every nonzero mark in its
        # column, H ascending, where m[H][K] = |(G/H)^K|
        self.columns = columns

    @property
    def size(self) -> int:
        return len(self.lattice.classes)

    def mark(self, h: int, k: int) -> int:
        return self.matrix.entries[h][k]

    @cached_property
    def matrix(self) -> IntMatrix:
        """The dense matrix, m[H][K] in row H and column K, built on first read."""
        rows = [[0] * self.size for _ in range(self.size)]
        for k, column in enumerate(self.columns):
            for h, m in column:
                rows[h][k] = m
        return IntMatrix.from_rows(rows)

    @cached_property
    def element_classes(self) -> ConjugacyClasses:
        """The element conjugacy classes of G, with their bitmasks."""
        return conjugacy_classes(self.lattice.group)

    def to_json(self) -> str:
        payload = {
            "group": self.lattice.group.name or "unnamed",
            "classes": [cls.label for cls in self.lattice.classes],
            "matrix": self.matrix.to_lists(),
        }
        return json.dumps(payload, sort_keys=True)


def _combine(a: dict[int, int], b: dict[int, int], sign: int) -> dict[int, int]:
    """a + sign * b, key by key; the constructors drop the zeros."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return out


class BurnsideElement:
    """Integer coefficients on the transitive basis [G/H], as {class index:
    coefficient} with no zero entries; equal by value."""

    def __init__(self, coefficients: dict[int, int]):
        self.coefficients = {h: c for h, c in coefficients.items() if c}

    def __eq__(self, other):
        return isinstance(other, BurnsideElement) and self.coefficients == other.coefficients

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return BurnsideElement(_combine(self.coefficients, other.coefficients, -1))

    def scale(self, k: int) -> "BurnsideElement":
        return BurnsideElement({h: k * c for h, c in self.coefficients.items()})


class GhostElement:
    """An integer-valued function on subgroup classes, as {class index:
    value} with no zero entries; equal by value."""

    def __init__(self, values: dict[int, int]):
        self.values = {k: v for k, v in values.items() if v}

    def __eq__(self, other):
        return isinstance(other, GhostElement) and self.values == other.values

    def __add__(self, other: "GhostElement") -> "GhostElement":
        return GhostElement(_combine(self.values, other.values, 1))

    def scale(self, k: int) -> "GhostElement":
        return GhostElement({h: k * v for h, v in self.values.items()})


def _count_containing(orbit: tuple[int, ...], mask: int) -> int:
    return sum(1 for m in orbit if m & mask == mask)


def marks_table(lattice: SubgroupLattice) -> MarksTable:
    """m[H][K] = number of cosets gH with g^-1 K g contained in H.

    Each conjugate H' of H that contains K equals gHg^-1 for |N_G(H)|
    elements g, which make up |N_G(H):H| cosets gH, so
    m[H][K] = |N_G(H):H| * #{H' ~ H : K <= H'} (Pfeiffer, Exp. Math. 6 (1997)).
    That count is nonzero exactly when (K) <= (H), so only the classes in
    the down-set of (H) are counted.
    """
    orbits = lattice.orbits
    columns: list[list[tuple[int, int]]] = [[] for _ in lattice.classes]
    for h, (hcls, down_set) in enumerate(zip(lattice.classes, lattice.down_sets)):
        while down_set:
            k = (down_set & -down_set).bit_length() - 1
            down_set &= down_set - 1
            columns[k].append((h, hcls.weyl_order * _count_containing(orbits[h], orbits[k][0])))
    return MarksTable(lattice, tuple(map(tuple, columns)))


def phi(element: BurnsideElement, table: MarksTable) -> GhostElement:
    """Marks homomorphism: value at (K) is sum_H x_H * m[H][K]."""
    x = element.coefficients
    return GhostElement({
        k: sum(x[h] * m for h, m in column if h in x) for k, column in enumerate(table.columns)
    })


def solve_ghost(ghost: GhostElement, table: MarksTable) -> BurnsideElement:
    """The unique x with phi(x) = ghost, solved by descending back-substitution.

    Only classes below some key of the ghost are visited: elsewhere the
    ghost and every term of the sum vanish, so x does too.  Each visited
    class (K) sums over the nonzero marks above it in its column and divides
    by the first, m[K][K].

    Raises UnknownClass for a key outside the lattice, and NotInImage at the
    first class (descending from the maximal one) where the required
    quotient is not an integer.
    """
    values = ghost.values
    down_sets = table.lattice.down_sets
    visit = 0
    for k in values:
        if not 0 <= k < table.size:
            raise UnknownClass(f"no subgroup class with index {k}")
        visit |= down_sets[k]
    x: dict[int, int] = {}
    columns = table.columns
    while visit:
        k = visit.bit_length() - 1
        visit ^= 1 << k
        (_, pivot), *above = columns[k]
        q, r = divmod(values.get(k, 0) - sum(x[h] * m for h, m in above if h in x), pivot)
        if r:
            raise NotInImage(k, table.lattice.classes[k].label, r)
        x[k] = q
    return BurnsideElement(x)


def unit(table: MarksTable) -> BurnsideElement:
    """[G/G], the multiplicative unit."""
    return BurnsideElement({table.size - 1: 1})


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
        g = lattice.group.elements[classes.members[c][0]]
        raise InternalInvariantViolation(
            f"|(G/H)^g| not integral for H = {lattice.label_of(h)}, g = {perm_to_cycles(g)}"
        )
    return fixed


def element_checks(element: BurnsideElement, table: MarksTable, expected: int) -> tuple[tuple[str, int, int], ...]:
    """(g, sum_H x_H |(G/H)^g|, expected) for one g per element conjugacy
    class of G, g in cycle notation."""
    x = element.coefficients
    return tuple(
        (perm_to_cycles(g), sum(v * _fixed_points(table, h, c) for h, v in x.items()), expected)
        for c, g in enumerate(table.element_classes.representatives)
    )
