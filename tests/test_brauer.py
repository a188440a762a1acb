"""Local idempotents, their Bezout combination, and Brauer certificates."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings

from burnside.brauer import (
    brauer_certificate,
    coprime_part,
    core_classification,
    hyper_classes,
)
from burnside.artin import abelian_family
from burnside.cli import brauer_results
from burnside.exact import factorization
from burnside.groups import (
    BUILTIN_GROUPS,
    builtin_group,
    perm_mul,
    subgroup_lattice,
)
from burnside.marks import marks_table, phi

from group_fixtures import (
    BENCHMARK_GROUPS,
    NotPPerfect,
    benchmark_group,
    dense,
    local_idempotent,
    pointwise,
    scaled_by,
    small_subgroups_of_s6,
    sparse,
)
from oracles import element_set, is_n_hyper

FIXTURES = ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D4", "Q8", "A4", "S4"]


@pytest.fixture(scope="module")
def tables():
    out = {}
    for name in FIXTURES + ["trivial"]:
        group = builtin_group(name)
        out[name] = marks_table(subgroup_lattice(group))
    return out


def oracle_fixed_points(table, h: int, g) -> int:
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


def p_perfect_classes(table, p):
    cores = core_classification(table.lattice, p)
    return [h for h in range(table.size) if cores[h] == h]


class TestCoprimePart:
    def test_values(self):
        assert coprime_part(6, 2) == 3
        assert coprime_part(6, 3) == 2
        assert coprime_part(8, 2) == 1
        assert coprime_part(6, 5) == 6


class TestLocalIdempotent:
    def test_s3_c3_p2(self, tables):
        table = tables["S3"]
        li = local_idempotent(2, 2, table, n=1)  # (C3), p = 2
        assert dense(li.ghost, 4) == (0, 0, 1, 1)
        assert dense(li.scaled_element, 4) == (1, -3, 0, 3)
        assert phi(li.scaled_element, table) == scaled_by(li.ghost, 3)

    def test_s3_trivial_p2(self, tables):
        table = tables["S3"]
        li = local_idempotent(0, 2, table, n=1)
        assert dense(li.ghost, 4) == (1, 1, 0, 0)

    def test_s3_c2_not_2_perfect(self, tables):
        with pytest.raises(NotPPerfect):
            local_idempotent(1, 2, tables["S3"], n=1)

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("p", [2, 3])
    def test_idempotent_partition_orthogonal(self, name, p, tables):
        table = tables[name]
        classes = p_perfect_classes(table, p)
        ghosts = [local_idempotent(h, p, table).ghost for h in classes]
        total = Counter()
        for ghost in ghosts:
            assert pointwise(ghost, ghost) == ghost
            total.update(ghost)
        assert total == sparse((1,) * table.size)
        for i, a in enumerate(ghosts):
            for b in ghosts[i + 1:]:
                assert pointwise(a, b) == {}

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("p", [2, 3])
    def test_scaled_solves_integrally(self, name, p, tables):
        table = tables[name]
        scale = coprime_part(table.lattice.group.order, p)
        for h in p_perfect_classes(table, p):
            li = local_idempotent(h, p, table)
            assert phi(li.scaled_element, table) == scaled_by(li.ghost, scale)


class TestIPN:
    """I_(p,n) is (|G|_n)_(p') on hyper_classes(p) and 0 elsewhere."""

    def test_s3_p2(self, tables):
        family = abelian_family(tables["S3"].lattice, 1)
        assert hyper_classes(core_classification(tables["S3"].lattice, 2), family) == [0, 1, 2, 3]
        assert coprime_part(family.order, 2) == 3

    def test_s3_p3(self, tables):
        family = abelian_family(tables["S3"].lattice, 1)
        assert hyper_classes(core_classification(tables["S3"].lattice, 3), family) == [0, 1, 2]
        assert coprime_part(family.order, 3) == 2

    def test_prime_not_dividing_order(self, tables):
        # p coprime to |G|: every class is its own p-perfect core, so the
        # pattern is the order on family classes and 0 elsewhere
        table = tables["S3"]
        family = abelian_family(table.lattice, 1)
        assert hyper_classes(core_classification(table.lattice, 5), family) == list(family.class_indices)
        assert coprime_part(family.order, 5) == 6

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("p", [2, 3])
    def test_extension_pattern(self, name, p, tables):
        # the classes are exactly the extensions of an abelian p'-class of
        # the family by a p-group
        table = tables[name]
        lattice = table.lattice
        degree = lattice.group.core.degree
        hyper = hyper_classes(core_classification(lattice, p), abelian_family(lattice, 1))
        for idx, cls in enumerate(lattice.classes):
            assert (idx in hyper) == is_n_hyper(element_set(cls), 1, p, degree), cls.label


class TestBrauerCertificate:
    def test_s3_exact(self, tables):
        table = tables["S3"]
        cert = brauer_certificate(table, 1)
        assert cert.bezout == {2: 1, 3: -1}
        assert dense(cert.i_n_ghost, 4) == (1, 1, 1, 3)
        assert cert.decomposition == {0: 1, 1: -2, 2: -1, 3: 3}
        assert cert.verified

    def test_s3_per_element(self, tables):
        table = tables["S3"]
        cert = brauer_certificate(table, 1)
        group = table.lattice.group
        for g in group.core.elements:
            total = sum(
                k * oracle_fixed_points(table, h, g) for h, k in cert.decomposition.items()
            )
            assert total == 1

    def test_q8_single_prime(self, tables):
        table = tables["Q8"]
        cert = brauer_certificate(table, 1)
        assert cert.bezout == {2: 1}
        assert cert.verified
        # all subgroups of a p-group are 1-hyper
        degree = table.lattice.group.core.degree
        for h in cert.decomposition:
            assert is_n_hyper(element_set(table.lattice.classes[h]), 1, 2, degree)

    def test_trivial_group(self, tables):
        cert = brauer_certificate(tables["trivial"], 1)
        assert cert.decomposition == {0: 1}
        assert cert.bezout == {}
        assert cert.verified

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("n", [1, 2])
    def test_identity_on_fixtures(self, name, n, tables):
        table = tables[name]
        cert = brauer_certificate(table, n)
        assert cert.verified
        group = table.lattice.group
        for g in group.core.elements:
            total = sum(
                k * oracle_fixed_points(table, h, g) for h, k in cert.decomposition.items()
            )
            assert total == 1

    @pytest.mark.parametrize("name", FIXTURES)
    def test_family_values_are_one(self, name, tables):
        table = tables[name]
        cert = brauer_certificate(table, 1)
        family = abelian_family(table.lattice, 1)
        for idx in family.class_indices:
            assert dense(cert.i_n_ghost, table.size)[idx] == 1

    @pytest.mark.parametrize("name", FIXTURES)
    def test_support_is_hyper(self, name, tables):
        table = tables[name]
        cert = brauer_certificate(table, 1)
        degree = table.lattice.group.core.degree
        primes = sorted(cert.bezout) or [2]
        for h in cert.decomposition:
            assert any(
                is_n_hyper(element_set(table.lattice.classes[h]), 1, p, degree) for p in primes
            )

    def test_bezout_identity(self, tables):
        table = tables["S4"]
        cert = brauer_certificate(table, 1)
        order = table.lattice.group.order
        assert sum(z * coprime_part(order, p) for p, z in cert.bezout.items()) == 1

    def test_payload_shape(self, tables):
        cert = brauer_certificate(tables["S3"], 1)
        payload = brauer_results(cert, tables["S3"])
        assert payload["bezout"] == [{"p": 2, "z_p": 1}, {"p": 3, "z_p": -1}]
        assert payload["decomposition"] == [
            {"class": "1a", "k": 1},
            {"class": "2a", "k": -2},
            {"class": "3a", "k": -1},
            {"class": "6a", "k": 3},
        ]
        assert {"class": "3a", "p": 2, "ghost": [0, 0, 1, 1]} in payload["idempotents"]
        assert {"class": "2a", "p": 3, "ghost": [0, 1, 0, 0]} in payload["idempotents"]
        assert payload["verified"] is True


def assert_hyper_rule_matches_reference(lattice):
    """core_classification reads the class of O^p(H) off the lattice, for
    each prime of |G| or 2, and hyper_classes reads the family off it;
    is_n_hyper closes the permutations of O^p(H) and tests them directly."""
    degree = lattice.group.core.degree
    for p in factorization(lattice.group.order) or [2]:
        cores = core_classification(lattice, p)
        for n in (0, 1, 2, math.inf):
            hyper = set(hyper_classes(cores, abelian_family(lattice, n)))
            for h, cls in enumerate(lattice.classes):
                expected = is_n_hyper(element_set(cls), n, p, degree)
                assert (h in hyper) == expected, (cls.label, p, n)


class TestHyperRuleOnTheLattice:
    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
    def test_builtin(self, name):
        assert_hyper_rule_matches_reference(subgroup_lattice(builtin_group(name)))

    @pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
    def test_benchmark_group(self, name):
        group = benchmark_group(name)
        assert_hyper_rule_matches_reference(subgroup_lattice(group))

    @settings(max_examples=15, deadline=None)
    @given(small_subgroups_of_s6())
    def test_small_subgroups_of_s6(self, group):
        assert_hyper_rule_matches_reference(subgroup_lattice(group))
