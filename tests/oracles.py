"""Permutation-level oracles for the tests, kept out of the package.

The package computes on element indices and class masks; these helpers
work on permutation tuples and frozensets, or compose the package's public
class-function operations, so they check the pipeline from outside it.
add, subtract, multiply, scale and is_zero are the pointwise ring
operations on class functions, and degrees reads a table's first column;
the package itself needs none of them.  inner_product pairs two class
functions through the same integer convolution as
CharacterTable.coordinates; from_coordinates and
constant_function build class functions; perm_character is g -> |(G/H)^g|;
frobenius_check and mackey_check test Frobenius reciprocity and the Mackey
formula with induce, restrict and conjugate_function; table_to_text writes
a table in the file format load_character_table reads; class_index names
the element class of a permutation by its index, and value_at reads a
class function at a permutation.  subgroup_view wraps a frozenset of
permutations as a groups.Group on G's core, and element_set and
representative read a subgroup class's permutations off its bitmask.
is_n_hyper, p_perfect_core, abelian_min_generators and min_generators
classify a subgroup from its permutations alone, the oracle for
brauer.hyper_classes and the lattice's generator counts.  determinant
and elementary_divisors read an integer matrix's Smith diagonal off its
minors, with no row operation the package's Smith form shares.
dense_marks expands a table of marks' stored rows into the square matrix,
m[H][K] in row H and column K, zeros included.  Not a test module: nothing
here is collected.
"""

import math
from fractions import Fraction
from itertools import combinations, count
from typing import Sequence

from burnside.characters import (
    CharacterTable,
    ClassFunction,
    _convolve,
    _format_cyclotomic,
    _spread,
    conjugate_function,
    induce,
    restrict,
)
from burnside.cyclotomic import Cyclotomic, NotInSubfield
from burnside.exact import IntMatrix, factorization
from burnside.groups import (
    Group,
    GroupCore,
    GroupError,
    Perm,
    ConjugacyClasses,
    close_under_product,
    conjugacy_classes,
    double_cosets,
    perm_identity,
    perm_mul,
    perm_to_cycles,
    SubgroupClass,
)
from burnside.marks import MarksTable


class NotAbelian(GroupError):
    """An abelian-only operation was applied to a nonabelian subgroup."""


# ---------------------------------------------------------------------------
# class functions


def add(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    return ClassFunction(a.group, tuple(x + y for x, y in zip(a.values, b.values, strict=True)))


def subtract(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    return ClassFunction(a.group, tuple(x - y for x, y in zip(a.values, b.values, strict=True)))


def multiply(a: ClassFunction, b: ClassFunction) -> ClassFunction:
    return ClassFunction(a.group, tuple(x * y for x, y in zip(a.values, b.values, strict=True)))


def scale(a: ClassFunction, k) -> ClassFunction:
    return ClassFunction(a.group, tuple(v * k for v in a.values))


def is_zero(a: ClassFunction) -> bool:
    return all(v == 0 for v in a.values)


def degrees(table: CharacterTable) -> list[int]:
    return [row[0].as_rational() for row in table.rows]


def constant_function(group: Group, classes: ConjugacyClasses, value, conductor: int = 1) -> ClassFunction:
    c = Cyclotomic(conductor, [value]) if not isinstance(value, Cyclotomic) else value
    return ClassFunction(group, tuple(c for _ in classes.members))


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    """(1/|G|) sum_g a(g) * conj(b(g)), exactly; NotInSubfield when it is
    not rational, which it always is for virtual characters."""
    n = math.lcm(1, *(v.conductor for v in a.values), *(v.conductor for v in b.values))
    coeffs = _convolve(_spread(a.values, n, a.classes.sizes), _spread(b.values, n, conjugate=True), n)
    if any(coeffs[1:]):
        raise NotInSubfield(f"{Cyclotomic(n, coeffs)!r} / {a.group.order} is not rational")
    return Fraction(coeffs[0], a.group.order)


def from_coordinates(table: CharacterTable, coords: Sequence[int]) -> ClassFunction:
    """The virtual character with the given coordinates in table's irreducibles."""
    total = constant_function(table.group, table.classes, Cyclotomic.zero())
    for c, row in zip(coords, table.rows):
        if c:
            total = add(total, scale(ClassFunction(table.group, row), c))
    return total


def class_index(classes: ConjugacyClasses, element: Perm) -> int:
    """The index of the element class that holds a permutation."""
    return classes.class_of[classes.group.core.index[element]]


def value_at(chi: ClassFunction, element: Perm) -> Cyclotomic:
    return chi.values[class_index(chi.classes, element)]


def perm_character(group: Group, subgroup: frozenset) -> ClassFunction:
    """Character of the action on G/H: g -> |(G/H)^g|."""
    classes = conjugacy_classes(group)
    mask = group.core.mask(subgroup)
    return ClassFunction(group, tuple(
        Cyclotomic(1, [classes.conjugators_into(c, mask) // len(subgroup)])
        for c in range(len(classes.members))))


def frobenius_check(e: ClassFunction, m: ClassFunction, group: Group) -> bool:
    """ind(e) * m == ind(e * res m), exactly."""
    left = multiply(induce(e, group), m)
    right = induce(multiply(e, restrict(m, e.group)), group)
    return left == right


def mackey_check(k_sub: frozenset, xi: ClassFunction, group: Group) -> bool:
    """res_K ind_H xi == sum over K\\G/H of ind res of the conjugated xi."""
    k_group = subgroup_view(group, k_sub)
    left = restrict(induce(xi, group), k_group)
    h_sub = frozenset(group.core.perms(xi.group.mask))
    decomposition = double_cosets(group, k_sub, h_sub)
    k_classes = conjugacy_classes(k_group)
    conductor = xi.values[0].conductor if xi.values else 1
    total = constant_function(k_group, k_classes, Cyclotomic.zero(conductor))
    for coset in decomposition.cosets:
        conj = conjugate_function(xi, coset.representative, group)
        inter = subgroup_view(group, coset.intersection)
        piece = induce(restrict(conj, inter), k_group)
        total = add(total, piece)
    return left == total


def table_to_text(table: CharacterTable) -> str:
    """A table in the load_character_table file format, at its conductor."""
    lines = [f"group: {table.group.name or 'unnamed'}", f"conductor: {table.conductor}"]
    for rep, size in zip(table.classes.representatives, table.classes.sizes):
        lines.append(f"class: {perm_to_cycles(rep)} {size}")
    for row in table.rows:
        lines.append("row: " + " ".join(_format_cyclotomic(v.to_conductor(table.conductor)) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# permutations, cosets and subgroup classifications


def subgroup_view(group: Group, elements: frozenset, name: str = "") -> Group:
    """The subgroup with the given permutations, on group's core."""
    return Group(group.core, group.core.mask(elements), name)


def representative(cls: SubgroupClass) -> tuple[Perm, ...]:
    """The permutations of a subgroup class's representative, sorted."""
    return cls.core.perms(cls.mask)


def element_set(cls: SubgroupClass) -> frozenset:
    return frozenset(representative(cls))


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _perm_pow(p: Perm, n: int) -> Perm:
    result = perm_identity(len(p))
    base = p
    while n:
        if n & 1:
            result = perm_mul(result, base)
        base = perm_mul(base, base)
        n >>= 1
    return result


def perm_order(p: Perm) -> int:
    e = perm_identity(len(p))
    q, n = p, 1
    while q != e:
        q = perm_mul(q, p)
        n += 1
    return n


def left_coset_representatives(core: GroupCore, mask: int) -> list[int]:
    """The first element, in index order, of each left coset g*H of the
    subgroup H with the given mask over core."""
    members = [i for i in range(len(core.table)) if mask >> i & 1]
    seen = bytearray(len(core.table))
    reps = []
    for g, row in enumerate(core.table):
        if not seen[g]:
            reps.append(g)
            for h in members:
                seen[row[h]] = 1
    return reps


def left_cosets(group: Group, subgroup: frozenset) -> list[Perm]:
    """The first element, in element order, of each left coset g*H."""
    core = group.core
    return [core.elements[g] for g in left_coset_representatives(core, core.mask(subgroup))]


def is_abelian_subgroup(elements) -> bool:
    elems = list(elements)
    return all(perm_mul(a, b) == perm_mul(b, a) for i, a in enumerate(elems) for b in elems[i + 1:])


def abelian_min_generators(elements: frozenset, degree: int) -> int:
    """max over primes p of the rank of H/H^p, for abelian H: the r with
    [H : H^p] = p^r, found by dividing the index by p until it is 1."""
    if not is_abelian_subgroup(elements):
        raise NotAbelian("subgroup is not abelian")
    ranks = [0]
    for p in factorization(len(elements)):
        index, rank = len(elements) // len({_perm_pow(h, p) for h in elements}), 0
        while index % p == 0:
            index, rank = index // p, rank + 1
        assert index == 1, f"[H : H^{p}] is not a power of {p}"
        ranks.append(rank)
    return max(ranks)


def min_generators(elements: frozenset) -> int:
    """The least k for which some k elements of the finite group elements
    close to all of it, by trying every k-subset for k = 0, 1, 2, ..."""
    identity = perm_identity(len(next(iter(elements))))
    for k in count():
        for gens in combinations(sorted(elements), k):
            reached = {identity}
            frontier = [identity]
            for x in frontier:
                for g in gens:
                    y = perm_mul(x, g)
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
            if len(reached) == len(elements):
                return k


def p_perfect_core(subgroup: frozenset, p: int, degree: int) -> frozenset:
    """O^p(H): the subgroup generated by all elements of order prime to p."""
    gens = [h for h in subgroup if perm_order(h) % p != 0]
    return close_under_product(degree, gens, cap=len(subgroup))


def is_n_hyper(subgroup: frozenset, n: int | float, p: int, degree: int) -> bool:
    """Extension of an abelian p'-group on <= n generators by a p-group.

    Tested via A = O^p(H): any witness A contains O^p(H), and subgroups of
    abelian groups on <= n generators again need <= n generators, so the
    core is a witness whenever one exists.
    """
    core = p_perfect_core(subgroup, p, degree)
    if not is_abelian_subgroup(core):
        return False
    if len(core) % p == 0:
        return False
    return abelian_min_generators(core, degree) <= n


# ---------------------------------------------------------------------------
# integer matrices


def dense_marks(table: MarksTable) -> list[list[int]]:
    """The table of marks as a classes x classes list of rows, built from
    the pairs (K, m[H][K]) that the table stores for each row H."""
    dense = [[0] * table.size for _ in range(table.size)]
    for h, row in enumerate(table.rows):
        for k, m in row:
            dense[h][k] = m
    return dense


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so no fraction arises; 1 for 0 x 0."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def elementary_divisors(m: IntMatrix) -> list[int]:
    """The Smith diagonal d_1 | d_2 | ... of m, min(rows, cols) long, from its
    determinantal divisors: d_1 * ... * d_k is the gcd of the k x k minors."""
    out, prev = [], 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = math.gcd(*(determinant([[m.entries[i][j] for j in cs] for i in rs])
                       for rs in combinations(range(m.rows), k) for cs in combinations(range(m.cols), k)))
        out.append(g // prev if prev else 0)
        prev = g
    return out
