"""Equalizer lattices and the induction-restriction isomorphism verifications."""

import functools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from burnside import cli, restriction
from burnside.artin import ArtinCertificate, abelian_family, artin_certificate
from burnside.brauer import brauer_certificate
from burnside.characters import MalformedEntry, _parse_cyclotomic_entry
from burnside.cyclotomic import Cyclotomic
from burnside.exact import IntMatrix, integer_kernel_basis, smith_normal_form
from burnside.groups import (
    BUILTIN_GROUPS,
    builtin_group,
    conjugacy_classes,
    parse_group,
    subgroup_lattice,
)
from burnside.marks import marks_table
from burnside.restriction import (
    DirectoryTables,
    EmptyFamily,
    MissingTable,
    RestrictionError,
    TableProvider,
    equalizer_lattice,
    maximal_members,
    verify_artin_restriction,
    verify_brauer_restriction,
)

from group_fixtures import BENCHMARK_GROUPS, benchmark_group, dense, small_subgroups_of_s6, sparse
from oracles import add, class_index, element_set, from_coordinates, is_zero, perm_character, scale


@pytest.fixture(scope="module")
def s3_setup():
    group = builtin_group("S3")
    lattice = subgroup_lattice(group)
    return group, lattice, marks_table(lattice), TableProvider(lattice)


class TestEqualizerLattice:
    def test_s3_cyclic_family_rank(self, s3_setup):
        group, lattice, table, provider = s3_setup
        family = list(abelian_family(lattice, 1).class_indices)
        eq = equalizer_lattice(family, provider)
        assert eq.rank == 3  # number of irreducibles of S3

    def test_single_full_group_family(self, s3_setup):
        group, lattice, table, provider = s3_setup
        eq = equalizer_lattice([lattice.full_index], provider)
        assert eq.rank == 3
        # basis must span all of R(G): the restriction matrix is invertible
        assert eq.basis.rows == 3

    def test_non_integral_value_raises(self):
        # character values are cyclotomic integers: a table file cannot spell a half
        with pytest.raises(MalformedEntry):
            _parse_cyclotomic_entry("1/2+1/2*z", 3)
        # zeta_3 = zeta_6^2 = zeta_6 - 1, since Phi_6 = x^2 - x + 1
        assert Cyclotomic.zeta(3).to_conductor(6).coeffs == (-1, 1)

    def test_empty_family(self, s3_setup):
        group, lattice, table, provider = s3_setup
        with pytest.raises(EmptyFamily):
            equalizer_lattice([], provider)

    @pytest.mark.parametrize("name,n", [("S3", 1), ("A4", 1), ("C2xC2", 2)])
    def test_basis_vectors_equalize(self, name, n):
        # decode each basis column into class functions and check the two
        # restriction-conjugation maps agree on it, independently of the
        # kernel computation
        from burnside.characters import conjugate_function, restrict
        from burnside.groups import double_cosets

        group = builtin_group(name)
        lattice = subgroup_lattice(group)
        provider = TableProvider(lattice)
        family = list(abelian_family(lattice, n).class_indices)
        eq = equalizer_lattice(family, provider)
        tables = [provider.class_table(i) for i in family]
        for j in range(eq.rank):
            column = [eq.basis.entries[i][j] for i in range(eq.basis.rows)]
            functions = []
            offset = 0
            for tbl in tables:
                functions.append(from_coordinates(tbl, column[offset:offset + tbl.size]))
                offset += tbl.size
            for a, idx_a in enumerate(family):
                for b, idx_b in enumerate(family):
                    k_set = element_set(lattice.classes[idx_a])
                    l_set = element_set(lattice.classes[idx_b])
                    for coset in double_cosets(group, k_set, l_set).cosets:
                        inter = provider.table_for(coset.intersection).group
                        lhs = restrict(functions[a], inter)
                        rhs = restrict(
                            conjugate_function(functions[b], coset.representative, group),
                            inter,
                        )
                        assert lhs == rhs


LADDER_GENERATORS = {
    "D8": "(0 1 2 3 4 5 6 7)\n(1 7)(2 6)(3 5)",
    "C2^3": "(0 1)\n(2 3)\n(4 5)",
    "C2xS4": "(0 1)\n(0 1 2 3)\n(4 5)",
    "C2^4": "(0 1)\n(2 3)\n(4 5)\n(6 7)",
    "C2^5": "(0 1)\n(2 3)\n(4 5)\n(6 7)\n(8 9)",
}


def ladder_group(name):
    return parse_group(LADDER_GENERATORS[name]) if name in LADDER_GENERATORS else builtin_group(name)


def reference_equalizer_basis(family, provider, lattice):
    """Kernel basis of every (a, b) pair's rows, built with conjugate_function,
    as the columns of integer_kernel_basis of the full constraint matrix."""
    from burnside.characters import ClassFunction, conjugate_function, restrict
    from burnside.groups import double_cosets

    group = lattice.group
    tables = [provider.class_table(i) for i in family]
    offsets = [0]
    for t in tables:
        offsets.append(offsets[-1] + t.size)
    rows = []
    for a, idx_a in enumerate(family):
        for b, idx_b in enumerate(family):
            k_set = element_set(lattice.classes[idx_a])
            l_set = element_set(lattice.classes[idx_b])
            for coset in double_cosets(group, k_set, l_set).cosets:
                inter_table = provider.table_for(coset.intersection)
                inter = inter_table.group
                res_k = [inter_table.coordinates(restrict(ClassFunction(tables[a].group, chi), inter).values)
                         for chi in tables[a].rows]
                res_l = [inter_table.coordinates(restrict(conjugate_function(
                    ClassFunction(tables[b].group, chi), coset.representative, group), inter).values)
                    for chi in tables[b].rows]
                for r in range(inter_table.size):
                    row = [0] * offsets[-1]
                    for s, coords in enumerate(res_k):
                        row[offsets[a] + s] += coords[r]
                    for t, coords in enumerate(res_l):
                        row[offsets[b] + t] -= coords[r]
                    rows.append(row)
    return IntMatrix.from_rows(integer_kernel_basis(IntMatrix.from_rows(rows))).transpose()


def rank_and_divisors(m):
    d = smith_normal_form(m)
    return len(d), list(d)


def hyper_family(table, n):
    """The n-hyper family as the Brauer certificate holds it, in class order."""
    return sorted(brauer_certificate(table, n).hyper)


def production_family(lattice, mode, n=1):
    """The abelian family (artin) or the n-hyper family (brauer)."""
    return list(abelian_family(lattice, n).class_indices) if mode == "artin" \
        else hyper_family(marks_table(lattice), n)


class FamilyTablesOnly(TableProvider):
    """A provider that fails on any table the equalizer should not need:
    conjugated tables, and class tables outside the family and the top group."""

    def __init__(self, lattice, family):
        super().__init__(lattice)
        self.family = {*family, lattice.full_index}

    def class_table(self, class_index):
        if class_index not in self.family:
            raise AssertionError(f"class table {class_index} is outside the family")
        return super().class_table(class_index)

    def table_for(self, subgroup):
        raise AssertionError("the equalizer asked for a conjugated table")


class TestEqualizerReference:
    @staticmethod
    def assert_same_lattice_as_reference(lattice, family, provider=None):
        reference_provider = TableProvider(lattice)
        provider = provider or reference_provider
        basis = equalizer_lattice(family, provider).basis
        reference = reference_equalizer_basis(family, reference_provider, lattice)
        rank = reference.cols
        assert basis.cols == rank
        # B is primitive, and [A | B] spans a primitive lattice of the same
        # rank: B spans exactly the lattice of the reference basis A
        assert rank_and_divisors(basis) == (rank, [1] * rank)
        both = IntMatrix.from_rows([a + b for a, b in zip(reference.entries, basis.entries)])
        assert rank_and_divisors(both) == (rank, [1] * rank)

    # C2xS4 artin has double cosets with equal intersections whose
    # representatives act differently on them: their rows all count
    @pytest.mark.parametrize("name,mode", [
        (name, mode) for name in ["S3", "D4", "Q8", "A4", "S4", "D8", "C2^3"]
        for mode in ["artin", "brauer"]
    ] + [("C2xS4", "artin")])
    def test_same_lattice_as_full_smith_kernel(self, name, mode):
        lattice = subgroup_lattice(ladder_group(name))
        self.assert_same_lattice_as_reference(lattice, production_family(lattice, mode))

    # each family leaves out the class of an intersection proper in both
    # sides (the trivial group, or the centre of D4), so those double
    # cosets must still send their rows
    @pytest.mark.parametrize("name,labels", [("S3", "2a,3a"), ("A4", "3a,4a"), ("D4", "4a,4b")])
    def test_family_without_an_intersection_class(self, name, labels):
        lattice = subgroup_lattice(builtin_group(name))
        family = [i for i in range(len(lattice)) if lattice.label_of(i) in labels.split(",")]
        assert ",".join(lattice.label_of(i) for i in family) == labels
        self.assert_same_lattice_as_reference(lattice, family)

    @pytest.mark.parametrize("name", ["C2^3", "S4"])
    @pytest.mark.parametrize("mode", ["artin", "brauer"])
    @pytest.mark.parametrize("n", [2, math.inf])
    def test_larger_n_families(self, name, mode, n):
        lattice = subgroup_lattice(ladder_group(name))
        self.assert_same_lattice_as_reference(lattice, production_family(lattice, mode, n))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_families_of_small_subgroups(self, data):
        lattice = subgroup_lattice(data.draw(small_subgroups_of_s6()))
        small = [i for i, cls in enumerate(lattice.classes) if cls.order <= 12]
        family = data.draw(st.lists(st.sampled_from(small), min_size=1, max_size=4, unique=True))
        self.assert_same_lattice_as_reference(lattice, family)

    # the equalizer needs only the family's own class tables
    @pytest.mark.parametrize("name,labels", [("S4", None), ("D8", None), ("A4", "3a,4a"), ("D4", "4a,4b")])
    def test_family_tables_suffice(self, name, labels):
        lattice = subgroup_lattice(ladder_group(name))
        family = production_family(lattice, "brauer") if labels is None else \
            [i for i in range(len(lattice)) if lattice.label_of(i) in labels.split(",")]
        provider = FamilyTablesOnly(lattice, family)
        self.assert_same_lattice_as_reference(lattice, family, provider)


class TestEqualizerChecks:
    """Each self-check of equalizer_lattice fails on a planted fault as a
    RestrictionError, a failed check and not an input error."""

    @staticmethod
    def s3_cyclic(s3_setup):
        group, lattice, table, provider = s3_setup
        family = list(abelian_family(lattice, 1).class_indices)
        return family, provider, lattice

    @staticmethod
    def fusion_inputs(family, provider, lattice):
        """The tables, fusion lists and labels that _check_fusion reads,
        the fusion found through oracles.class_index."""
        tables = [provider.class_table(i) for i in family]
        g_classes = conjugacy_classes(lattice.group)
        fusions = [[class_index(g_classes, rep) for rep in t.classes.representatives] for t in tables]
        return tables, fusions, [lattice.label_of(i) for i in family]

    def test_incompatible_basis_column(self, s3_setup):
        family, provider, lattice = self.s3_cyclic(s3_setup)
        eq = equalizer_lattice(family, provider)
        inputs = self.fusion_inputs(family, provider, lattice)
        assert restriction._check_fusion(eq.basis, *inputs) == eq.rank
        # one more trivial character of the first member, the trivial group,
        # in column 0 moves that column's value at the identity there alone;
        # the next member to meet the identity class, 2a, no longer agrees,
        # and the message names both
        moved = [[v + (i == j == 0) for j, v in enumerate(row)] for i, row in enumerate(eq.basis.entries)]
        with pytest.raises(RestrictionError, match="values at class 0 of 1a are not compatible at class 0 of 2a$"):
            restriction._check_fusion(IntMatrix.from_rows(moved), *inputs)

    def test_incompatible_column_in_the_full_group_block(self):
        # S3 from a file with no name line: G's table lives on G itself, so
        # the message names the member by its lattice label, not group.name
        group = parse_group("(0 1)\n(0 1 2)")
        lattice = subgroup_lattice(group)
        assert group.name == "" and lattice.label_of(lattice.full_index) == "6a"
        provider = TableProvider(lattice)
        family = [i for i in range(len(lattice)) if lattice.label_of(i) in ("2a", "6a")]
        eq = equalizer_lattice(family, provider)
        inputs = self.fusion_inputs(family, provider, lattice)
        assert restriction._check_fusion(eq.basis, *inputs) == eq.rank == 3
        # G's block comes second: one more trivial character of G in column 0
        # moves G's values away from those of 2a at the identity
        g_row = provider.class_table(family[0]).size
        moved = [[v + (i == g_row and j == 0) for j, v in enumerate(row)]
                 for i, row in enumerate(eq.basis.entries)]
        with pytest.raises(RestrictionError, match="not compatible at class 0 of 6a$"):
            restriction._check_fusion(IntMatrix.from_rows(moved), *inputs)

    def test_rank_below_the_classes_met(self, s3_setup, monkeypatch):
        # one echelon row: its basis column is the restricted trivial character,
        # compatible, but the family meets all three classes of S3
        original = restriction.row_echelon
        monkeypatch.setattr(restriction, "row_echelon", lambda rows, cols: original(rows, cols)[:1])
        with pytest.raises(RestrictionError, match="equalizer rank 1, but the family meets 3 G-classes"):
            equalizer_lattice(*self.s3_cyclic(s3_setup)[:2])

    def test_non_integral_coordinate(self, s3_setup, monkeypatch):
        # a doubled echelon row leaves a sublattice that misses the rows of M
        original = restriction.row_echelon
        monkeypatch.setattr(restriction, "row_echelon",
                            lambda rows, cols: [[2 * v for v in row] for row in original(rows, cols)])
        with pytest.raises(RestrictionError, match="non-integral equalizer coordinate"):
            equalizer_lattice(*self.s3_cyclic(s3_setup)[:2])

    def test_basis_that_misses_a_row_of_m(self, s3_setup, monkeypatch):
        # a doubled first column of C still passes the fusion and rank checks,
        # but C * H misses M; S3's Brauer family has one maximal member, G (6a),
        # and the error names the first row missed, G's trivial character
        group, lattice, table, provider = s3_setup
        family = maximal_members(sorted(brauer_certificate(table, 1).hyper), lattice)
        assert [lattice.label_of(k) for k in family] == ["6a"]
        original = restriction._solve_coordinates
        monkeypatch.setattr(restriction, "_solve_coordinates",
                            lambda echelon, rows: [[2 * c[0], *c[1:]] for c in original(echelon, rows)])
        with pytest.raises(RestrictionError, match=r"^restriction is not in the equalizer lattice: "
                                                   r"C \* H misses the row of M for irreducible 0 of 6a$"):
            equalizer_lattice(family, provider)

    def test_unverified_certificate(self, s3_setup, monkeypatch, capsys):
        # the section and the equalizer's family are read off the certificate,
        # so a failed one leaves the check not applicable: a failed check
        group, lattice, table, provider = s3_setup
        original = restriction.artin_certificate

        def outside_the_ideal(table, n):
            cert = original(table, n)
            ghost = dict(cert.ghost)
            ghost[0] += 1  # wrong at the trivial class, which every family holds
            return ArtinCertificate(cert.family, cert.alpha, ghost, cert.element_checks)

        monkeypatch.setattr(restriction, "artin_certificate", outside_the_ideal)
        with pytest.raises(RestrictionError, match="Artin certificate failed; restriction check not applicable"):
            verify_artin_restriction(table, 1, provider)
        assert cli.main(["equalizer", "--group", "S3", "--mode", "artin"]) == 1
        assert capsys.readouterr().err.startswith("check failed: Artin certificate failed")


@functools.cache
def benchmark_marks(name):
    return marks_table(subgroup_lattice(benchmark_group(name)))


class TestBenchmarkGroupOracles:
    """Restriction is an isomorphism onto the equalizer, so its rank is the
    published conjugacy class count of each benchmark group."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
    @pytest.mark.parametrize("n", [2, math.inf])
    def test_ranks_are_class_counts(self, name, n):
        table = benchmark_marks(name)
        classes = BENCHMARK_GROUPS[name]["conjugacy_classes"]
        provider = TableProvider(table.lattice)
        assert verify_brauer_restriction(table, n, provider) == (classes, (1,) * classes)
        assert verify_artin_restriction(table, n, provider) == (artin_certificate(table, n).family.order, classes)


def production_families(lattice):
    """The abelian families at n = 0, 1, 2, inf and the n-hyper families at
    n = 1, 2, inf."""
    table = marks_table(lattice)
    families = [list(abelian_family(lattice, n).class_indices) for n in (0, 1, 2, math.inf)]
    return families + [hyper_family(table, n) for n in (1, 2, math.inf)]


def assert_families_closed_under_subconjugacy(lattice):
    """Every class below a member of a production family is a member too:
    the abelian and the n-hyper families are closed under subgroups."""
    for family in production_families(lattice):
        members = set(family)
        for h in members:
            assert all(k in members for k in range(len(lattice)) if lattice.down_sets[h] >> k & 1)


def g_classes_met(lattice, family):
    """The G-classes of the elements of the family's class representatives."""
    classes = conjugacy_classes(lattice.group)
    return {class_index(classes, g) for i in family for g in element_set(lattice.classes[i])}


def assert_maximal_members_cover(lattice):
    """The maximal members of each production family form an antichain that
    lies above every member, and meet the same G-classes as the family."""
    for family in production_families(lattice):
        top = maximal_members(family, lattice)
        assert set(top) <= set(family)
        assert not any(lattice.down_sets[h] >> k & 1 for h in top for k in top if k != h)
        assert all(any(lattice.down_sets[h] >> k & 1 for h in top) for k in family)
        assert g_classes_met(lattice, top) == g_classes_met(lattice, family)


class TestFamiliesClosedUnderSubconjugacy:
    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
    def test_builtin(self, name):
        lattice = subgroup_lattice(builtin_group(name))
        assert_families_closed_under_subconjugacy(lattice)
        assert_maximal_members_cover(lattice)

    @pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
    def test_benchmark_group(self, name):
        lattice = subgroup_lattice(benchmark_group(name))
        assert_families_closed_under_subconjugacy(lattice)
        assert_maximal_members_cover(lattice)

    @settings(max_examples=15, deadline=None)
    @given(small_subgroups_of_s6())
    def test_small_subgroups_of_s6(self, group):
        lattice = subgroup_lattice(group)
        assert_families_closed_under_subconjugacy(lattice)
        assert_maximal_members_cover(lattice)


def assert_support_between_maximal_members_and_family(table):
    """A verified Artin certificate is supported on the abelian family and
    on each of its maximal members, so the equalizer over the support has
    the family's restriction lattice (restriction._artin_section)."""
    lattice = table.lattice
    for n in (0, 1, 2, math.inf):
        family = abelian_family(lattice, n).class_indices
        certificate = artin_certificate(table, n)
        assert certificate.verified
        assert set(maximal_members(family, lattice)) <= set(certificate.alpha) <= set(family)


class TestArtinSupport:
    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
    def test_builtin(self, name):
        assert_support_between_maximal_members_and_family(lattice_provider(name)[0])

    @pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
    def test_benchmark_group(self, name):
        assert_support_between_maximal_members_and_family(benchmark_marks(name))

    @settings(max_examples=15, deadline=None)
    @given(small_subgroups_of_s6())
    def test_small_subgroups_of_s6(self, group):
        assert_support_between_maximal_members_and_family(marks_table(subgroup_lattice(group)))


class TestMaximalMembers:
    @pytest.mark.parametrize("name,mode,n,full,top", [
        ("C2^4", "brauer", 1, 67, 1),
        ("C2^5", "brauer", 1, 374, 1),
        ("D8", "brauer", 1, 11, 1),
        ("S4", "brauer", 1, 9, 2),
        ("C2^5", "artin", 2, 187, 155),
        ("C2^5", "artin", math.inf, 374, 1),
    ])
    def test_family_sizes(self, name, mode, n, full, top):
        lattice = subgroup_lattice(ladder_group(name))
        family = production_family(lattice, mode, n)
        assert (len(family), len(maximal_members(family, lattice))) == (full, top)

    def test_s4_brauer_keeps_s3_and_d4(self):
        # O^2(S3) = C3 and O^2(D4) = 1 are cyclic; neither A4 nor S4 is
        # 1-hyper, as O^2 is A4 and O^3 is V4 or S4
        lattice = subgroup_lattice(builtin_group("S4"))
        top = maximal_members(production_family(lattice, "brauer"), lattice)
        assert sorted(lattice.classes[i].order for i in top) == [6, 8]

    def test_any_family(self, s3_setup):
        # any family, in its own order: 1a lies below the incomparable 2a
        # and 3a, and below 6a, which is S3 itself
        group, lattice, table, provider = s3_setup
        c = {lattice.label_of(i): i for i in range(len(lattice))}
        assert maximal_members([c["3a"], c["1a"], c["2a"]], lattice) == [c["3a"], c["2a"]]
        assert maximal_members([c["1a"], c["6a"]], lattice) == [c["6a"]]
        assert maximal_members([c["1a"]], lattice) == [c["1a"]]
        assert maximal_members([], lattice) == []


@functools.cache
def lattice_provider(name):
    """The marks table of a builtin or benchmark group and one table
    provider for it, shared by the oracle tests."""
    group = builtin_group(name) if name in BUILTIN_GROUPS else benchmark_group(name)
    table = marks_table(subgroup_lattice(group))
    return table, TableProvider(table.lattice)


def assert_maximal_equalizer_matches_full(table, provider, n):
    """The equalizer over the maximal members has the restriction lattice,
    rank and Smith form of the equalizer over the whole family, and the Artin
    section over the whole family composes with restriction to |G|_n."""
    lattice = table.lattice
    for mode in ("artin", "brauer"):
        family = list(abelian_family(lattice, n).class_indices) if mode == "artin" \
            else hyper_family(table, n)
        full = equalizer_lattice(family, provider)
        top = equalizer_lattice(maximal_members(family, lattice), provider)
        assert top.rank == full.rank
        divisors = rank_and_divisors(full.restriction)
        assert rank_and_divisors(top.restriction) == divisors
        # both row lattices lie in their sum with the same Smith form, so all three are equal
        both = IntMatrix.from_rows(full.restriction.entries + top.restriction.entries)
        assert rank_and_divisors(both) == divisors
    certificate = artin_certificate(table, n)
    eq = equalizer_lattice(list(abelian_family(lattice, n).class_indices), provider)
    psi = restriction._artin_section(eq, certificate.alpha)
    order = certificate.family.order
    assert psi @ eq.restriction == IntMatrix.identity(eq.restriction.cols).scale(order)
    assert eq.restriction @ psi == IntMatrix.identity(eq.rank).scale(order)
    assert verify_artin_restriction(table, n, provider) == (order, eq.rank)


class TestFullFamilyOracle:
    """The whole family's equalizer, built by the same equalizer_lattice, is
    the oracle for the one over the maximal members."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
    @pytest.mark.parametrize("n", [1, 2, math.inf])
    def test_builtin(self, name, n):
        assert_maximal_equalizer_matches_full(*lattice_provider(name), n)

    @pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
    @pytest.mark.parametrize("n", [1, 2, math.inf])
    def test_benchmark_group(self, name, n):
        assert_maximal_equalizer_matches_full(*lattice_provider(name), n)

    @settings(max_examples=15, deadline=None)
    @given(small_subgroups_of_s6(), st.sampled_from([1, 2, math.inf]))
    def test_small_subgroups_of_s6(self, group, n):
        table = marks_table(subgroup_lattice(group))
        assert_maximal_equalizer_matches_full(table, TableProvider(table.lattice), n)


class TestFusionOracle:
    """Each member's fusion list, checked without oracles.class_index:
    a member class's representative is conjugate in G to that of its fused
    class, by brute force over G; the fused class sizes add up to |K cap d|
    for each G-class d; and the member's block of M equals the coordinates
    of restrict(chi, K), the per-character lookup the fusion replaced."""

    @pytest.mark.parametrize("name", ["S4", "D8", "Q8", "A4", "SL(2,3)", "C2^4"])
    @pytest.mark.parametrize("mode", ["artin", "brauer"])
    @pytest.mark.parametrize("n", [1, math.inf])
    def test_every_member_read(self, monkeypatch, name, mode, n):
        from burnside.characters import ClassFunction, restrict
        from burnside.groups import perm_mul
        from oracles import perm_inv

        table, provider = lattice_provider(name)
        group = table.lattice.group
        reads = []
        original = restriction._stacked_block

        def recording(member, fusion, top):
            block = original(member, fusion, top)
            reads.append((member, fusion, top, block))
            return block

        monkeypatch.setattr(restriction, "_stacked_block", recording)
        verify = verify_artin_restriction if mode == "artin" else verify_brauer_restriction
        verify(table, n, provider)  # raises on a failed check
        assert reads
        g_classes = conjugacy_classes(group)
        g_sets = [{group.core.elements[x] for x in cls} for cls in g_classes.members]
        for member, fusion, top, block in reads:
            assert top.group is group
            elements = set(group.core.perms(member.group.mask))
            for rep, d in zip(member.classes.representatives, fusion, strict=True):
                target = g_classes.representatives[d]
                assert any(perm_mul(perm_mul(g, rep), perm_inv(g)) == target for g in group.core.elements)
            for d, g_set in enumerate(g_sets):
                fused = sum(size for size, f in zip(member.classes.sizes, fusion) if f == d)
                assert fused == len(elements & g_set)
            assert block == list(zip(*(member.coordinates(restrict(ClassFunction(group, chi), member.group).values)
                                       for chi in top.rows)))


class CountingTables(TableProvider):
    """Records the class of every table requested from it."""

    def __init__(self, lattice):
        super().__init__(lattice)
        self.built = []

    def class_table(self, class_index):
        self.built.append(class_index)
        return super().class_table(class_index)


class CountingDirectoryTables(DirectoryTables):
    """Records the class of every table file requested from it, on the
    class, since the CLI makes the instance."""

    loaded: list = []

    def class_table(self, class_index):
        CountingDirectoryTables.loaded.append(class_index)
        return super().class_table(class_index)


class TestTablesRead:
    """The equalizer reads the tables of the family's maximal members, the
    Artin support and G, and no others."""

    @pytest.mark.parametrize("name", ["C2^4", "C2^5"])
    def test_elementary_abelian_brauer_reads_one_table(self, name):
        lattice = subgroup_lattice(ladder_group(name))
        provider = CountingTables(lattice)
        rank, divisors = verify_brauer_restriction(marks_table(lattice), 1, provider)
        assert rank == len(conjugacy_classes(lattice.group).members)
        assert divisors == (1,) * rank
        assert provider.built == [lattice.full_index]

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "S4"])
    @pytest.mark.parametrize("mode", ["artin", "brauer"])
    def test_loaded_tables(self, capsys, monkeypatch, name, mode):
        monkeypatch.setattr(restriction, "DirectoryTables", CountingDirectoryTables)
        monkeypatch.setattr(CountingDirectoryTables, "loaded", [])
        tables = Path(cli.__file__).parent / "data" / "tables"
        code = cli.main(["equalizer", "--group", name, "--mode", mode, "--tables", str(tables), "--json"])
        capsys.readouterr()
        assert code == 0
        lattice = subgroup_lattice(builtin_group(name))
        table = marks_table(lattice)
        expected = {*maximal_members(production_family(lattice, mode), lattice), lattice.full_index}
        if mode == "artin":
            expected |= set(artin_certificate(table, 1).alpha)
        assert sorted(CountingDirectoryTables.loaded) == sorted(expected)

    @pytest.mark.parametrize("name,mode", [
        (name, mode) for name in ("S3", "D4", "Q8", "A4", "S4", "D8", "C2^3", "SL(2,3)", "C2^4")
        for mode in ("artin", "brauer") if (name, mode) != ("C2^4", "artin")
    ])
    def test_computed_tables_are_each_requested_once(self, name, mode):
        # the equalizer-ladder workload's groups and modes
        lattice = subgroup_lattice(benchmark_group(name))
        table = marks_table(lattice)
        provider = CountingTables(lattice)
        verify = verify_artin_restriction if mode == "artin" else verify_brauer_restriction
        verify(table, 1, provider)
        assert len(provider.built) == len(set(provider.built))
        expected = {*maximal_members(production_family(lattice, mode), lattice), lattice.full_index}
        if mode == "artin":
            expected |= set(artin_certificate(table, 1).alpha)
        assert set(provider.built) == expected


# GroupCore builds per equalizer run: only G's, since G's table lives on G
# and every member's on a groups.Group of G's core and the member's mask
@pytest.mark.parametrize("group,mode,tables", [
    ("S4", "artin", False),
    ("S4", "brauer", False),
    ("S4", "artin", True),
    ("S4", "brauer", True),
    ("C2^3", "brauer", False),
    ("C2^4", "artin", False),
])
def test_each_command_builds_one_core(capsys, monkeypatch, group, mode, tables):
    from burnside.groups import GroupCore

    built = []
    original = GroupCore.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(GroupCore, "__init__", counting)
    spec = group if group in BUILTIN_GROUPS else "\n".join(BENCHMARK_GROUPS[group]["generators"])
    argv = ["equalizer", "--group", spec, "--mode", mode, "--json"]
    if tables:
        argv += ["--tables", str(Path(cli.__file__).parent / "data" / "tables")]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert len(built) == 1


class TestHyperFamily:
    def test_s3(self, s3_setup):
        group, lattice, table, provider = s3_setup
        labels = [lattice.label_of(i) for i in hyper_family(table, 1)]
        assert labels == ["1a", "2a", "3a", "6a"]

    def test_a4_excludes_full_group(self):
        group = builtin_group("A4")
        lattice = subgroup_lattice(group)
        table = marks_table(lattice)
        family = hyper_family(table, 1)
        assert lattice.full_index not in family
        assert len(family) == 4  # 1, C2, C3, V4

    def test_d4_all_classes(self):
        group = builtin_group("D4")
        lattice = subgroup_lattice(group)
        table = marks_table(lattice)
        assert hyper_family(table, 1) == list(range(len(lattice.classes)))


class TestArtinRestriction:
    def test_s3(self, s3_setup):
        group, lattice, table, provider = s3_setup
        order, rank = verify_artin_restriction(table, 1, provider)
        assert order == 6
        assert rank == 3
        assert rank == len(conjugacy_classes(group).members)

    def test_trivial_group(self):
        group = builtin_group("trivial")
        lattice = subgroup_lattice(group)
        table = marks_table(lattice)
        order, rank = verify_artin_restriction(table, 1, TableProvider(lattice))
        assert order == 1
        assert rank == len(conjugacy_classes(group).members)

    def test_s4(self):
        group = builtin_group("S4")
        lattice = subgroup_lattice(group)
        table = marks_table(lattice)
        # family is the cyclic classes: 1, two C2 classes, C3, C4
        family = abelian_family(lattice, 1)
        orders = sorted(lattice.classes[i].order for i in family.class_indices)
        assert orders == [1, 2, 2, 3, 4]
        order, rank = verify_artin_restriction(table, 1, TableProvider(lattice))
        assert order == 24
        assert rank == 5
        assert rank == len(conjugacy_classes(group).members)

    def test_c2xc2_n2(self):
        group = builtin_group("C2xC2")
        lattice = subgroup_lattice(group)
        table = marks_table(lattice)
        order, rank = verify_artin_restriction(table, 2, TableProvider(lattice))
        assert order == 4
        assert rank == len(conjugacy_classes(group).members)


class TestBrauerRestriction:
    @pytest.mark.parametrize("name,rank", [("S3", 3), ("Q8", 5)])
    def test_unit_divisors(self, name, rank):
        group = builtin_group(name)
        table = marks_table(subgroup_lattice(group))
        assert verify_brauer_restriction(table, 1, TableProvider(table.lattice)) == (rank, (1,) * rank)
        assert rank == len(conjugacy_classes(group).members)

    def test_s4_nine_class_family(self):
        group = builtin_group("S4")
        table = marks_table(subgroup_lattice(group))
        assert len(hyper_family(table, 1)) == 9
        rank, divisors = verify_brauer_restriction(table, 1, TableProvider(table.lattice))
        assert rank == 5
        assert rank == len(conjugacy_classes(group).members)
        assert divisors == (1,) * rank

    @pytest.mark.parametrize("name", ["S3", "A4"])
    def test_n2_families(self, name):
        group = builtin_group(name)
        table = marks_table(subgroup_lattice(group))
        rank, divisors = verify_brauer_restriction(table, 2, TableProvider(table.lattice))
        assert rank == len(conjugacy_classes(group).members)
        assert divisors == (1,) * rank


class TestPermutationRealization:
    """The unit map into the representation ring realizes the certificates."""

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "S4"])
    def test_artin_element_maps_to_order_times_unit(self, name):
        from burnside.characters import character_table

        group = builtin_group(name)
        lattice = subgroup_lattice(group)
        table = marks_table(lattice)
        cert = artin_certificate(table, 1)
        top = character_table(group)
        image = None
        for idx, c in cert.alpha.items():
            chi = scale(perm_character(group, element_set(lattice.classes[idx])), c)
            image = chi if image is None else add(image, chi)
        coords = top.coordinates(image.values)
        assert coords[0] == cert.family.order
        assert all(v == 0 for v in coords[1:])

    @pytest.mark.parametrize("name", ["S3", "D4", "A4"])
    def test_vanishing_ideal_dies_in_representation_ring(self, name):
        # ghost functions vanishing on the one-generator abelian classes map
        # to the zero character: values on cyclic subgroups determine traces
        import random

        from burnside.marks import solve_ghost

        group = builtin_group(name)
        lattice = subgroup_lattice(group)
        table = marks_table(lattice)
        cyclic = set(abelian_family(lattice, 1).class_indices)
        rng = random.Random(99)
        for _ in range(6):
            values = tuple(
                0 if idx in cyclic else rng.randint(-3, 3) * group.order
                for idx in range(table.size)
            )
            element = solve_ghost(sparse(values), table)
            image = None
            for idx, c in enumerate(dense(element, table.size)):
                if c == 0:
                    continue
                chi = scale(perm_character(group, element_set(lattice.classes[idx])), c)
                image = chi if image is None else add(image, chi)
            if image is not None:
                assert is_zero(image)


class TestDirectoryTables:
    def test_missing_table(self, s3_setup, tmp_path):
        group, lattice, table, provider = s3_setup
        directory = DirectoryTables(lattice, tmp_path)
        with pytest.raises(MissingTable):
            directory.class_table(0)

    def test_loads_written_tables(self, s3_setup, tmp_path):
        from oracles import table_to_text

        group, lattice, table, provider = s3_setup
        outdir = tmp_path / "S3"
        outdir.mkdir()
        for idx in range(len(lattice.classes)):
            text = table_to_text(provider.class_table(idx))
            (outdir / f"{lattice.label_of(idx)}.tbl").write_text(text)
        directory = DirectoryTables(lattice, tmp_path)
        _, rank = verify_artin_restriction(table, 1, directory)
        assert rank == len(conjugacy_classes(group).members)
        # G's table, computed or loaded, lives on G itself
        for tables in (provider, directory):
            assert tables.class_table(lattice.full_index).group is lattice.group
