"""Abelian class families, orders, idempotent multiples, Artin certificates."""

import math

import pytest

from burnside.artin import (
    abelian_family,
    artin_certificate,
)
from burnside.cli import artin_results
from burnside.groups import builtin_group, perm_mul, subgroup_lattice
from burnside.marks import marks_table, phi

from group_fixtures import artin_member_terms, benchmark_group, dense, in_ideal_jn
from oracles import element_set

FIXTURES = ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D4", "Q8", "A4", "S4"]
N_VALUES = [0, 1, 2, math.inf]


@pytest.fixture(scope="module")
def tables():
    out = {}
    for name in FIXTURES + ["trivial"]:
        group = builtin_group(name)
        out[name] = marks_table(subgroup_lattice(group))
    return out


def oracle_fixed_points(table, h: int, g) -> int:
    """Count fixed cosets of g on explicit coset sets."""
    lattice = table.lattice
    group = lattice.group
    hset = element_set(lattice.classes[h])
    count = 0
    seen = set()
    for rep in group.core.elements:
        if rep in seen:
            continue
        coset = frozenset(perm_mul(rep, x) for x in hset)
        seen |= coset
        if frozenset(perm_mul(g, c) for c in coset) == coset:
            count += 1
    return count


class TestAbelianFamily:
    def test_s3_n1(self, tables):
        lattice = tables["S3"].lattice
        family = abelian_family(lattice, 1)
        assert [lattice.label_of(i) for i in family.class_indices] == ["1a", "2a", "3a"]

    def test_s3_n0(self, tables):
        lattice = tables["S3"].lattice
        family = abelian_family(lattice, 0)
        assert [lattice.label_of(i) for i in family.class_indices] == ["1a"]

    def test_c2xc2_n1_excludes_full(self, tables):
        lattice = tables["C2xC2"].lattice
        family = abelian_family(lattice, 1)
        assert len(family.class_indices) == 4
        assert lattice.full_index not in family.class_indices

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("n", [1, 2, math.inf])
    def test_downward_closed(self, name, n, tables):
        lattice = tables[name].lattice
        family = set(abelian_family(lattice, n).class_indices)
        for idx in family:
            for below in range(len(lattice.classes)):
                if lattice.down_sets[idx] >> below & 1 and lattice.classes[below].is_abelian:
                    assert below in family


class TestOrderN:
    def test_s3(self, tables):
        lattice = tables["S3"].lattice
        assert abelian_family(lattice, 1).order == 6

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("n", N_VALUES)
    def test_equals_group_order(self, name, n, tables):
        # for finite groups every order coincides with |G|
        lattice = tables[name].lattice
        assert abelian_family(lattice, n).order == lattice.group.order

    def test_trivial_group(self, tables):
        lattice = tables["trivial"].lattice
        assert abelian_family(lattice, 1).order == 1

    @pytest.mark.parametrize("name", FIXTURES + ["trivial"])
    @pytest.mark.parametrize("n", N_VALUES)
    def test_family_contains_the_trivial_class(self, name, n, tables):
        # so |G|_n is never an lcm over no classes
        assert 0 in abelian_family(tables[name].lattice, n).members

    @pytest.mark.parametrize("name", FIXTURES)
    def test_monotone(self, name, tables):
        lattice = tables[name].lattice
        values = [abelian_family(lattice, n).order for n in (0, 1, 2, math.inf)]
        for small, large in zip(values, values[1:]):
            assert large % small == 0


class TestIdempotentMultiple:
    """The per-member terms |G|_n e_K of the Gluck oracle, whose sum the
    certificate solves in one step."""

    def test_s3_c3(self, tables):
        table = tables["S3"]
        x = artin_member_terms(table, abelian_family(table.lattice, 1))[2]  # class 3a
        assert dense(x, 4) == (-1, 0, 3, 0)
        assert phi(x, table) == {2: 6}

    def test_s3_trivial_class(self, tables):
        table = tables["S3"]
        x = artin_member_terms(table, abelian_family(table.lattice, 1))[0]
        assert dense(x, 4) == (1, 0, 0, 0)

    def test_s3_c2(self, tables):
        table = tables["S3"]
        x = artin_member_terms(table, abelian_family(table.lattice, 1))[1]
        assert dense(x, 4) == (-3, 6, 0, 0)

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("n", [1, 2, math.inf])
    def test_support_below_k(self, name, n, tables):
        table = tables[name]
        lattice = table.lattice
        family = abelian_family(lattice, n)
        for k, x in artin_member_terms(table, family).items():
            assert phi(x, table) == {k: family.order}
            for idx in x:
                assert idx in family.class_indices
                assert lattice.down_sets[k] >> idx & 1


class TestArtinCertificate:
    def test_s3_exact_coefficients(self, tables):
        table = tables["S3"]
        cert = artin_certificate(table, 1)
        assert cert.family.order == 6
        assert cert.alpha == {0: -3, 1: 6, 2: 3}
        assert cert.verified

    def test_s3_per_element_identity(self, tables):
        table = tables["S3"]
        cert = artin_certificate(table, 1)
        for label, lhs, rhs in cert.element_checks:
            assert lhs == rhs == 6

    def test_trivial_group(self, tables):
        cert = artin_certificate(tables["trivial"], 1)
        assert cert.alpha == {0: 1}
        assert cert.family.order == 1
        assert cert.verified

    def test_c2xc2_n2(self, tables):
        table = tables["C2xC2"]
        cert = artin_certificate(table, 2)
        assert cert.verified
        group = table.lattice.group
        for g in group.core.elements:
            total = sum(
                c * oracle_fixed_points(table, h, g) for h, c in cert.alpha.items()
            )
            assert total == 4

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("n", N_VALUES)
    def test_ghost_values(self, name, n, tables):
        table = tables[name]
        cert = artin_certificate(table, n)
        family = set(abelian_family(table.lattice, n).class_indices)
        ghost = dense(phi(cert.alpha, table), table.size)
        for idx in range(table.size):
            expected = cert.family.order if idx in family else 0
            assert ghost[idx] == expected

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("n", [1, 2, math.inf])
    def test_permutation_character_identity(self, name, n, tables):
        table = tables[name]
        cert = artin_certificate(table, n)
        assert cert.verified
        group = table.lattice.group
        for g in group.core.elements:
            total = sum(
                c * oracle_fixed_points(table, h, g) for h, c in cert.alpha.items()
            )
            assert total == cert.family.order

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("n", N_VALUES)
    def test_leftover_in_ideal(self, name, n, tables):
        table = tables[name]
        cert = artin_certificate(table, n)
        leftover = {h: -c for h, c in cert.alpha.items()}
        top = table.size - 1
        leftover[top] = leftover.get(top, 0) + cert.family.order  # order_n * [G/G] - alpha
        assert in_ideal_jn(leftover, abelian_family(table.lattice, n), table)
        assert artin_results(cert, table)["in_ideal"]

    def test_n0_is_ghost_level(self, tables):
        table = tables["S3"]
        cert = artin_certificate(table, 0)
        assert cert.element_checks == ()
        assert cert.alpha == {0: 1}  # 6 e_1 = phi([G/1])
        assert cert.verified

    def test_payload_shape(self, tables):
        table = tables["S3"]
        cert = artin_certificate(table, 1)
        payload = artin_results(cert, table)
        assert payload["coefficients"] == [
            {"class": "1a", "c": -3},
            {"class": "2a", "c": 6},
            {"class": "3a", "c": 3},
        ]
        assert payload["verified"] is True


@pytest.mark.parametrize("name", ["S4", "C2^4"])
def test_one_solve_per_certificate(monkeypatch, name):
    from burnside import artin, marks

    calls = []
    original = marks.solve_ghost

    def counting(ghost, table):
        calls.append(ghost)
        return original(ghost, table)

    for module in (marks, artin):
        monkeypatch.setattr(module, "solve_ghost", counting)
    group = benchmark_group(name)
    for n in N_VALUES:
        table = marks_table(subgroup_lattice(group))
        calls.clear()
        artin_certificate(table, n)
        assert len(calls) == 1
