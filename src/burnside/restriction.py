"""Equalizer lattices in representation-ring coordinates and the exact
verification of the induction-restriction isomorphism pairs.

The equalizer is the integer kernel of the difference of the two
restriction-conjugation maps out of the product of representation rings of a
family of subgroup classes; restriction from the top group lands in it.
Virtual characters are class functions, so a family (x_K) is compatible
exactly when x_K(y) = x_L(z) for all y in K and z in L that are conjugate in
G.  The constraint rows come from class fusion: each class of a family
member's table is compared with the first family class in the same G-class,
and the rows stream into an integer kernel that never holds more than one
square matrix.  Its basis comes out in column echelon form, so a point's
coordinates come from an integer triangular solve on the pivot rows,
checked against the full basis.  The Artin verification checks that
restriction and the induced section compose to the group order in both
directions; the Brauer verification checks that restriction is a lattice
isomorphism via Smith elementary divisors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .artin import ArtinCertificate, abelian_family, artin_certificate, order_n
from .brauer import brauer_certificate, in_hyper_family
from .exact import (
    IntMatrix,
    NotIntegral,
    euler_phi,
    integer_kernel,
    smith_normal_form,
    solve_triangular_integer,
)
from .characters import (
    CharacterTable,
    ClassFunction,
    character_table,
    conjugate_function,
    induce,
    load_character_table,
    restrict,
)
from .groups import (
    Group,
    SubgroupLattice,
    conjugacy_classes,
    exponent,
    subgroup_as_group,
)
from .marks import MarksTable


class RestrictionError(Exception):
    pass


class MissingTable(RestrictionError):
    """No character table is available for a required subgroup."""


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
    """Character tables for the subgroup classes of one ambient group.

    The equalizer and the verifications read class tables only; table_for
    transports a class's table to an explicit conjugate subgroup.
    """

    def __init__(self, group: Group, lattice: SubgroupLattice):
        self.group = group
        self.lattice = lattice
        self.conductor = exponent(group)
        self._class_tables: dict[int, CharacterTable] = {}
        self._conjugate_tables: dict[frozenset, CharacterTable] = {}

    def class_table(self, class_index: int) -> CharacterTable:
        if class_index not in self._class_tables:
            self._class_tables[class_index] = self._build(class_index)
        return self._class_tables[class_index]

    def _build(self, class_index: int) -> CharacterTable:
        rep = self.lattice.classes[class_index].element_set
        sub = subgroup_as_group(self.group, rep, name=self.lattice.label_of(class_index))
        return character_table(sub, conductor=self.conductor)

    def table_for(self, subgroup: frozenset) -> CharacterTable:
        if subgroup in self._conjugate_tables:
            return self._conjugate_tables[subgroup]
        class_index, g = self.lattice.class_of_subgroup(subgroup)
        base = self.class_table(class_index)
        if frozenset(base.group.elements) == subgroup:
            table = base
        else:
            rows = tuple(conjugate_function(row, g, self.group) for row in base.rows)
            table = CharacterTable(rows[0].group, rows[0].classes, rows)
        self._conjugate_tables[subgroup] = table
        return table


class DirectoryTables(TableProvider):
    """Tables loaded from <dir>/<group name>/<class label>.tbl files."""

    def __init__(self, group: Group, lattice: SubgroupLattice, directory: str | Path):
        super().__init__(group, lattice)
        self.directory = Path(directory)

    def _build(self, class_index: int) -> CharacterTable:
        label = self.lattice.label_of(class_index)
        path = self.directory / (self.group.name or "unnamed") / f"{label}.tbl"
        if not path.exists():
            raise MissingTable(f"no table file for class {label}: {path}")
        rep = self.lattice.classes[class_index].element_set
        sub = subgroup_as_group(self.group, rep, name=label)
        table = load_character_table(str(path), sub)
        return table


@dataclass(frozen=True)
class EqualizerLattice:
    family: tuple[int, ...]  # subgroup class indices
    block_sizes: tuple[int, ...]  # irreducible counts per family member
    basis: IntMatrix  # columns: a basis of the integer equalizer, in column echelon form

    @property
    def rank(self) -> int:
        return self.basis.cols

    @property
    def total_dim(self) -> int:
        return self.basis.rows


def equalizer_lattice(family: list[int], provider: TableProvider,
                      lattice: SubgroupLattice) -> EqualizerLattice:
    """Integral basis of the equalizer of the two restriction-conjugation maps.

    A tuple (x_K) lies in the equalizer when res_I x_K = c_g res x_L on
    I = K cap gLg^-1 for every pair K, L of the family and every g in G.
    Since y lies in I exactly when z = g^-1 y g lies in L, this says
    x_K(y) = x_L(z) whenever y in K and z in L are conjugate in G.  So the
    first (K, c) of the family's class tables to meet a G-class is that
    class's reference, and every later (L, d) meeting it sends the nonzero
    ones of phi(n) rows: the power-basis coefficients of sum_s x_(K,s)
    chi_s(c) - sum_t x_(L,t) psi_t(d) at n, the lcm of the tables'
    conductors.  A value is zero exactly when its coefficients are, so the
    rows cut out the same rational space, and the integer kernel the same
    lattice, as one row per class of every intersection K cap gLg^-1 would.
    """
    if not family:
        raise EmptyFamily("equalizer over an empty family")
    tables = [provider.class_table(i) for i in family]
    block_sizes = [t.size for t in tables]
    offsets = [0]
    for size in block_sizes:
        offsets.append(offsets[-1] + size)
    total = offsets[-1]
    n = math.lcm(*(t.conductor for t in tables))
    g_classes = conjugacy_classes(lattice.group)

    def constraint_rows():
        first: dict[int, tuple[int, list[tuple]]] = {}  # G-class -> offset and values of its reference
        for offset, table in zip(offsets, tables):
            for c, rep in enumerate(table.classes.representatives):
                here = (offset, [row.values[c].to_conductor(n).coeffs for row in table.rows])
                reference = first.setdefault(g_classes.index_of(rep), here)
                if reference is here:
                    continue
                for j in range(euler_phi(n)):
                    row = [0] * total
                    for (start, values), sign in ((reference, 1), (here, -1)):
                        for s, coeffs in enumerate(values):
                            row[start + s] += sign * coeffs[j]
                    if any(row):
                        yield row

    kernel = integer_kernel(constraint_rows(), total)
    basis = IntMatrix.from_rows([[col[i] for col in kernel] for i in range(total)])
    return EqualizerLattice(tuple(family), tuple(block_sizes), basis)


def _equalizer_coordinates(eq: EqualizerLattice, points: IntMatrix) -> IntMatrix:
    """Coordinates X with basis * X = points, exact; every column must be an
    integral point of the lattice.  The basis is in column echelon form, so
    its rows at the pivots r_t form a square lower-triangular matrix with a
    nonzero diagonal: forward substitution on those rows gives the only
    candidate, and the full product checks that it lands on the point."""
    basis = eq.basis
    pivots = [next(i for i in range(basis.rows) if basis[i, t]) for t in range(eq.rank)]
    square = IntMatrix.from_rows([basis.row(r) for r in pivots])
    columns = []
    for j in range(points.cols):
        point = [row[j] for row in points.entries]
        try:
            x = solve_triangular_integer(square, [point[r] for r in pivots])
        except NotIntegral as exc:
            raise RestrictionError(f"non-integral equalizer coordinate: {exc}") from exc
        if basis.mul_vector(x) != point:
            raise RestrictionError("vector is not in the equalizer lattice")
        columns.append(x)
    return IntMatrix.from_rows([[col[i] for col in columns] for i in range(eq.rank)])


def _restriction_matrix(top_table: CharacterTable, eq: EqualizerLattice,
                        provider: TableProvider) -> IntMatrix:
    """Matrix of res: R(G) -> equalizer, in basis coordinates (rank x #irr)."""
    stacked: list[tuple[int, ...]] = []  # one row per family coordinate, one column per irreducible
    for idx in eq.family:
        table = provider.class_table(idx)
        stacked.extend(zip(*(table.coordinates(restrict(chi, table.group, table.classes))
                             for chi in top_table.rows)))
    return _equalizer_coordinates(eq, IntMatrix.from_rows(stacked))


@dataclass(frozen=True)
class ArtinRestrictionReport:
    order: int
    rank: int
    psi_res_ok: bool
    res_psi_ok: bool

    @property
    def verified(self) -> bool:
        return self.psi_res_ok and self.res_psi_ok


def verify_artin_restriction(table: MarksTable, n: int | float,
                             provider: TableProvider | None = None,
                             certificate: ArtinCertificate | None = None) -> ArtinRestrictionReport:
    """Check that restriction and the induced section form an order-isomorphism pair.

    psi sends a compatible family (m_A) to sum_A c_A ind_A^G(m_A), with the
    c_A taken from the Artin certificate.
    """
    lattice = table.lattice
    group = lattice.group
    provider = provider or TableProvider(group, lattice)
    certificate = certificate or artin_certificate(table, n)
    family = list(abelian_family(lattice, n).class_indices)
    eq = equalizer_lattice(family, provider, lattice)
    top_table = provider.class_table(lattice.full_index)
    order = certificate.order_n
    nirr = top_table.size

    res_matrix = _restriction_matrix(top_table, eq, provider)

    g_classes = top_table.classes
    psi_columns = []
    for j in range(eq.rank):
        stacked = [eq.basis.entries[i][j] for i in range(eq.basis.rows)]
        image: ClassFunction | None = None
        offset = 0
        for pos, idx in enumerate(eq.family):
            sub_table = provider.class_table(idx)
            coords = stacked[offset:offset + eq.block_sizes[pos]]
            offset += eq.block_sizes[pos]
            c = certificate.coefficients.get(idx, 0)
            if c == 0 or all(v == 0 for v in coords):
                continue
            part = induce(sub_table.from_coordinates(coords), group, g_classes).scale(c)
            image = part if image is None else image + part
        if image is None:
            psi_columns.append([0] * nirr)
        else:
            psi_columns.append(top_table.coordinates(image))
    psi_matrix = IntMatrix.from_rows([[psi_columns[j][i] for j in range(eq.rank)]
                                      for i in range(nirr)])

    left = psi_matrix @ res_matrix  # on R(G)
    right = res_matrix @ psi_matrix  # on the equalizer
    left_expected = IntMatrix.identity(nirr).scale(order)
    right_expected = IntMatrix.identity(eq.rank).scale(order)
    report = ArtinRestrictionReport(
        order=order,
        rank=eq.rank,
        psi_res_ok=left == left_expected,
        res_psi_ok=right == right_expected,
    )
    if not report.verified:
        witness = "psi.res" if not report.psi_res_ok else "res.psi"
        raise CompositeMismatch(witness)
    return report


@dataclass(frozen=True)
class BrauerRestrictionReport:
    rank: int
    irreducibles: int
    elementary_divisors: tuple[int, ...]

    @property
    def verified(self) -> bool:
        return (
            self.rank == self.irreducibles
            and len(self.elementary_divisors) == self.rank
            and all(d == 1 for d in self.elementary_divisors)
        )


def hyper_family(table: MarksTable, n: int | float) -> list[int]:
    """Classes that are n-hyper for at least one prime dividing |G|_n."""
    lattice = table.lattice
    order = order_n(abelian_family(lattice, n), lattice)
    return [i for i in range(len(lattice)) if in_hyper_family(lattice, i, n, order)]


def verify_brauer_restriction(table: MarksTable, n: int | float = 1,
                              provider: TableProvider | None = None) -> BrauerRestrictionReport:
    """Check that restriction onto the n-hyper equalizer is a lattice isomorphism."""
    lattice = table.lattice
    group = lattice.group
    provider = provider or TableProvider(group, lattice)
    certificate = brauer_certificate(table, n)
    if not certificate.verified:  # pragma: no cover - certificate is a theorem
        raise RestrictionError("Brauer certificate failed; restriction check not applicable")
    family = hyper_family(table, n)
    eq = equalizer_lattice(family, provider, lattice)
    top_table = provider.class_table(lattice.full_index)
    res_matrix = _restriction_matrix(top_table, eq, provider)
    _, d, _ = smith_normal_form(res_matrix)
    divisors = tuple(
        d.entries[i][i] for i in range(min(d.rows, d.cols)) if d.entries[i][i] != 0
    )
    report = BrauerRestrictionReport(
        rank=eq.rank,
        irreducibles=top_table.size,
        elementary_divisors=divisors,
    )
    if not report.verified:
        raise NotIsomorphism(divisors)
    return report
