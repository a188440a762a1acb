"""Equalizer lattices in representation-ring coordinates and the exact
verification of the induction-restriction isomorphism pairs.

The equalizer is the lattice of families (x_K) in the product of the
representation rings of a family of subgroup classes on which the two
restriction-conjugation maps agree: x_K(y) = x_L(z) whenever y in K and z in
L are conjugate in G.  Restriction from the top group lands in it, and by
Frobenius reciprocity row (K, psi) of the stacked restriction matrix M holds
the coordinates of ind_K psi.  The equalizer is computed from the G side: a
row echelon basis H of M's row lattice, streamed in k(G) columns, is the
matrix of restriction, and the integer solution C of C * H = M is the basis;
equalizer_lattice checks it before it returns.  The Artin verification
checks that restriction and the induced section compose to |G|_n both ways
and returns (|G|_n, rank); the Brauer one checks by H's Smith form that
restriction is a lattice isomorphism, Brauer's induction theorem itself, and
returns (rank, divisors).  A failed check raises.

Neither verification builds the equalizer over its whole family F.  The
abelian and the n-hyper families are closed under subgroups and
conjugation, so a compatible family is fixed by its values on the maximal
members F_max (x_L = res x_K for L <= K), and M's block for L is R * M_K,
with R the integer matrix of restriction from K to L: over any S with
F_max <= S <= F, M's row lattice, H, the rank and the Smith form are those
of F.  The Brauer verification takes S = F_max; the Artin one takes the
support of its verified certificate, which lies between the two (see
_artin_section), so the section reads all its rows from the equalizer.
So tables are read, and with --tables loaded, for the maximal members of
the n-hyper family, the support of the Artin certificate and G alone.

G's table lives on G itself, and each member's on a groups.Group of G's core
and the member's bitmask, so the command builds one core.  Each member is
read through one fusion list, fusion[c] the G-class in G's table of the
least element of its class c: M's block reads each row of G's table, a tuple
of values, at those classes and takes its coordinates in the member's table,
and the fusion check compares the basis columns along the lists.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

from .artin import artin_certificate
from .brauer import brauer_certificate
from .cyclotomic import cyclotomic_polynomial
from .exact import IntMatrix, row_echelon, smith_normal_form
from .characters import (
    CharacterTable,
    ClassFunction,
    character_table,
    conjugate_function,
    load_character_table,
)
from .groups import Group, SubgroupLattice
from .marks import MarksTable, element_checks


class RestrictionError(Exception):
    exit_code = 1  # a failed check


class MissingTable(RestrictionError):
    """No character table is available for a required subgroup."""

    exit_code = 2  # an input error: the --tables directory lacks a file


class EmptyFamily(RestrictionError):
    pass


class CompositeMismatch(RestrictionError):
    """A composite failed to be the expected multiple of the identity."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"composite mismatch at {witness}")


class NotIsomorphism(RestrictionError):
    def __init__(self, divisors):
        self.divisors = divisors
        super().__init__(f"restriction has elementary divisors {divisors}")


class TableProvider:
    """Character tables for the subgroup classes of one ambient group G.

    A class's table lives on G for the full class and otherwise on G's core
    with its representative's bitmask, so every table shares G's element
    indices.  The equalizer and the verifications read class tables
    only; table_for transports a class's table to a conjugate subgroup,
    again a view of G's core.
    """

    def __init__(self, lattice: SubgroupLattice):
        self.lattice = lattice
        self._class_tables: dict[int, CharacterTable] = {}
        self._conjugate_tables: dict[frozenset, CharacterTable] = {}

    def class_table(self, class_index: int) -> CharacterTable:
        if class_index not in self._class_tables:
            self._class_tables[class_index] = self._build(class_index)
        return self._class_tables[class_index]

    def _build(self, class_index: int) -> CharacterTable:
        return character_table(self._class_group(class_index))

    def _class_group(self, class_index: int) -> Group:
        """The group a class's table lives on: G itself for the full class,
        else G's core with the class representative's mask."""
        if class_index == self.lattice.full_index:
            return self.lattice.group
        cls = self.lattice.classes[class_index]
        return Group(self.lattice.group.core, cls.mask, cls.label)

    def table_for(self, subgroup: frozenset) -> CharacterTable:
        if subgroup in self._conjugate_tables:
            return self._conjugate_tables[subgroup]
        class_index, g = self.lattice.class_of_subgroup(subgroup)
        base = self.class_table(class_index)
        if base.group.mask == self.lattice.group.core.mask(subgroup):
            table = base
        else:
            rows = [conjugate_function(ClassFunction(base.group, row), g, self.lattice.group) for row in base.rows]
            table = CharacterTable(rows[0].group, tuple(row.values for row in rows))
        self._conjugate_tables[subgroup] = table
        return table


class DirectoryTables(TableProvider):
    """Tables loaded from <dir>/<group name>/<class label>.tbl files.  The name
    is free text from a group file: one that is not a plain path component,
    such as ../other or /tmp/S3, would lead outside <dir>, and is refused."""

    def __init__(self, lattice: SubgroupLattice, directory: str | Path):
        super().__init__(lattice)
        name = lattice.group.name or "unnamed"
        if Path(name).name != name or name == ".." or "\0" in name:
            raise MissingTable(f"group name {name!r} is not one plain path component, "
                               "so it names no table directory")
        self.directory = Path(directory) / name

    def _build(self, class_index: int) -> CharacterTable:
        label = self.lattice.label_of(class_index)
        path = self.directory / f"{label}.tbl"
        if not path.exists():
            raise MissingTable(f"no table file for class {label}: {path}")
        return load_character_table(str(path), self._class_group(class_index))


class EqualizerLattice:
    def __init__(self, family: tuple[int, ...], stacked: IntMatrix, restriction: IntMatrix,
                 basis: IntMatrix):
        self.family = family  # subgroup class indices
        # rows: one per family coordinate (K, psi), block by block; columns: irr(G)
        self.stacked = stacked  # M, the multiplicities <res_K chi, psi>
        self.restriction = restriction  # H, a row echelon basis of M's row lattice: res in basis coordinates
        self.basis = basis  # columns: a basis of the integer equalizer, C with C * H = M

    @property
    def rank(self) -> int:
        return self.basis.cols


def maximal_members(family: Sequence[int], lattice: SubgroupLattice) -> list[int]:
    """The members of family with no other member above them in
    lattice.down_sets, in family order.  For a family closed under
    subgroups and conjugation they carry the whole equalizer (see
    equalizer_lattice), and every element of a member lies in one of them."""
    below = 0
    for k in family:
        below |= lattice.down_sets[k] & ~(1 << k)
    return [k for k in family if not below >> k & 1]


def equalizer_lattice(family: list[int], provider: TableProvider) -> EqualizerLattice:
    """Integral basis of the equalizer of the two restriction-conjugation maps.

    A tuple (x_K) lies in the equalizer when res_I x_K = c_g res x_L on
    I = K cap gLg^-1 for every pair K, L of the family and every g in G, that
    is, when x_K(y) = x_L(z) whenever y in K and z in L are conjugate in G.
    With rational coordinates each x_K is Galois-equivariant, so a compatible
    family is a Galois-equivariant function on the G-classes the family
    meets, and extended by zero it is a rational combination of irr(G).  So
    the equalizer is E = im_Q(M) cap Z^m, where M stacks the coordinates of
    res_K chi.  Let H be a row echelon basis of M's row lattice and C the
    integer solution of C * H = M.  Then H = A * M for an integer A, so
    A * C = 1 and C * y integral forces y integral: E = C * Z^r.  This holds
    for every family, also one that misses G-classes.

    The verifications pass part S of a family F closed under subgroups,
    with the maximal members of F in S: the Brauer one those members alone
    (maximal_members), the Artin one its certificate's support.  For L <= K
    the block M_L is R * M_K, R the integer matrix of res from K to L, so
    dropping L changes neither M's row lattice nor H, the rank or the Smith
    form, and x_L = res x_K recovers the dropped coordinates.  Only the
    tables of the given members and of G are read.

    All three checks run before the function returns: every basis column
    satisfies the class-fusion equalities above, r equals the number of
    G-classes the family's tables meet, and C * H = M, whose failure names
    the first row (K, psi) of M that it misses.
    """
    if not family:
        raise EmptyFamily("equalizer over an empty family")
    lattice = provider.lattice
    tables = [provider.class_table(i) for i in family]
    top_table = provider.class_table(lattice.full_index)
    fusions = [[top_table.classes.class_of[cls[0]] for cls in table.classes.members] for table in tables]
    stacked = [row for table, fusion in zip(tables, fusions) for row in _stacked_block(table, fusion, top_table)]
    echelon = row_echelon(stacked, top_table.size)
    eq = EqualizerLattice(tuple(family), IntMatrix.from_rows(stacked), IntMatrix.from_rows(echelon),
                          IntMatrix.from_rows(_solve_coordinates(echelon, stacked)))
    met = _check_fusion(eq.basis, tables, fusions, [lattice.label_of(i) for i in family])
    if met != eq.rank:
        raise RestrictionError(f"equalizer rank {eq.rank}, but the family meets {met} G-classes")
    for r, (product_row, row) in enumerate(zip((eq.basis @ eq.restriction).entries, stacked, strict=True)):
        if product_row != row:
            members = [k for k, table in zip(family, tables) for _ in range(table.size)]
            raise RestrictionError("restriction is not in the equalizer lattice: C * H misses the row of M for "
                                   f"irreducible {r - members.index(members[r])} of {lattice.label_of(members[r])}")
    return eq


def _stacked_block(table: CharacterTable, fusion: Sequence[int],
                   top_table: CharacterTable) -> list[tuple[int, ...]]:
    """The rows (K, psi) of M for K's table: <res_K chi, psi> over chi in
    irr(G), where res_K chi takes chi's value at fusion[c] on K's class c."""
    return list(zip(*(table.coordinates([chi[f] for f in fusion]) for chi in top_table.rows)))


def _solve_coordinates(echelon: list[list[int]], rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer C with C * H = rows on H's pivot columns, H = echelon, by
    forward substitution on the echelon rows.

    Every row of H is zero at the pivots before its own, so pivot column
    p_t reads only c_0, ..., c_t, and c_t = (m[p_t] - sum_{s<t} c_s
    H[s][p_t]) / H[t][p_t]; each pivot's nonzero terms are listed once per
    call.  A quotient that is not an integer raises RestrictionError naming
    the pivot and the remainder.
    Whether C * H = rows in every column is for equalizer_lattice to check.
    """
    steps = []
    for t, row in enumerate(echelon):
        p = next(j for j, v in enumerate(row) if v)
        steps.append((p, row[p], [(s, echelon[s][p]) for s in range(t) if echelon[s][p]]))
    solution = []
    for m in rows:
        c: list[int] = []
        for t, (p, pivot, terms) in enumerate(steps):
            q, r = divmod(m[p] - sum(a * c[s] for s, a in terms), pivot)
            if r:
                raise RestrictionError(f"non-integral equalizer coordinate: pivot {t}, remainder {r}")
            c.append(q)
        solution.append(c)
    return solution


def _check_fusion(basis: IntMatrix, tables: list[CharacterTable], fusions: list[list[int]], labels: list[str]) -> int:
    """Check x_K(y) = x_L(z) on every basis column for y in K and z in L
    conjugate in G, comparing each family class with the first one in its
    G-class, read from the member's fusion list, at n, the lcm of the
    tables' conductors; return the number of G-classes met.  A failure
    names both classes, the first one and the one that disagrees with it."""
    n = math.lcm(*(t.conductor for t in tables))
    phi = len(cyclotomic_polynomial(n)) - 1
    # G-class -> (class, label, values of every basis column) at its first family class
    first: dict[int, tuple[int, str, list]] = {}
    offset = 0
    for table, fusion, label in zip(tables, fusions, labels, strict=True):
        block = basis.entries[offset:offset + table.size]
        offset += table.size
        for c, g_class in enumerate(fusion):
            values = [[0] * basis.cols for _ in range(phi)]  # power-basis coefficient -> column
            for x, row in zip(block, table.rows):
                for i, v in enumerate(row[c].to_conductor(n).coeffs):
                    if v:
                        values[i] = [a + v * b for a, b in zip(values[i], x)]
            ref_c, ref_label, ref_values = first.setdefault(g_class, (c, label, values))
            if ref_values != values:
                raise RestrictionError(f"equalizer basis values at class {ref_c} of {ref_label} "
                                       f"are not compatible at class {c} of {label}")
    return len(first)


def verify_artin_restriction(table: MarksTable, n: int | float, provider: TableProvider) -> tuple[int, int]:
    """Check that psi . res and then res . psi are |G|_n times the identity;
    return (|G|_n, rank), or raise CompositeMismatch naming the first that fails.

    psi sends a compatible family (m_A) to sum_A c_A ind_A^G(m_A), with the
    c_A taken from the Artin certificate.  The check is not applicable
    where the certificate fails, nor where the family misses classes of G:
    psi . res then has rank below k(G), so it cannot be |G|_n times the
    identity.  For n >= 1 the family holds every cyclic subgroup, so that
    happens at n = 0 only, on a nontrivial group.
    """
    certificate = artin_certificate(table, n)
    if not certificate.verified:
        raise RestrictionError("Artin certificate failed; restriction check not applicable")
    eq = equalizer_lattice(sorted(certificate.alpha), provider)
    order = certificate.family.order
    nirr = eq.restriction.cols
    if eq.rank < nirr:
        raise RestrictionError(f"the family meets {eq.rank} of {nirr} G-classes; "
                               f"restriction check not applicable at n = {n}")
    psi_matrix = _artin_section(eq, certificate.alpha, provider)
    if psi_matrix @ eq.restriction != IntMatrix.identity(nirr).scale(order):  # on R(G)
        raise CompositeMismatch("psi.res")
    if eq.restriction @ psi_matrix != IntMatrix.identity(eq.rank).scale(order):  # on the equalizer
        raise CompositeMismatch("res.psi")
    return order, eq.rank


def _artin_section(eq: EqualizerLattice, coefficients: dict[int, int],
                   provider: TableProvider) -> IntMatrix:
    """psi = sum_A c_A ind_A in basis coordinates (#irr x rank), as
    (diag(c) * M)^T * C over the rows (A, s) of eq, with c_A = 0 for a member
    outside the support: by Frobenius reciprocity row (A, s) of M holds the
    coordinates of ind_A chi_s.

    eq's family must hold the certificate's support.  The verification
    builds eq over that support, which for a verified certificate lies in
    the abelian family F and holds its maximal members F_max, so eq has the
    restriction lattice of F.  The certificate's ghost is |G|_n on F and 0
    off F, and its value at H is x_H * |W_H| plus terms from the support
    classes above H.  So a class maximal in the support has a nonzero ghost
    and lies in F, and F is closed under subgroups: the support lies in F.
    Then a maximal member K of F has no support class above it, and its
    ghost x_K * |W_K| = |G|_n makes x_K nonzero.
    """
    scales = [coefficients.get(a, 0) for a in eq.family for _ in range(provider.class_table(a).size)]
    scaled = [[c * v for v in row] for c, row in zip(scales, eq.stacked.entries, strict=True)]
    return IntMatrix.from_rows(scaled).transpose() @ eq.basis


def verify_brauer_restriction(table: MarksTable, n: int | float,
                              provider: TableProvider) -> tuple[int, tuple[int, ...]]:
    """Check that restriction onto the n-hyper equalizer is a lattice isomorphism.

    Return (rank, divisors), or raise NotIsomorphism unless they are k(G) and
    all 1.  The check rests on the certificate's identity sum_H k_H
    |(G/H)^g| = 1 at every element g.  The certificate leaves that identity out
    for n < 1, so it is checked here; where it fails, the check does not apply.
    """
    certificate = brauer_certificate(table, n)
    if not certificate.verified:
        raise RestrictionError("Brauer certificate failed; restriction check not applicable")
    if n < 1:
        for c, lhs, rhs in element_checks(certificate.decomposition, table, 1):
            if lhs != rhs:
                raise RestrictionError(f"sum_H k_H |(G/H)^g| = 1 fails at g = {table.element_classes.label(c)}; "
                                       f"restriction check not applicable at n = {n}")
    eq = equalizer_lattice(maximal_members(sorted(certificate.hyper), table.lattice), provider)
    divisors = smith_normal_form(eq.restriction)
    if eq.rank != eq.restriction.cols or divisors != (1,) * eq.rank:
        raise NotIsomorphism(divisors)
    return eq.rank, divisors
