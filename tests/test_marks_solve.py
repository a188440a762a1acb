"""The sparse Burnside-ring solver and the cached |G|*e_K, against oracles that
share no code with them: a plain O(n^2) back-substitution through the dense
marks matrix, and Gluck's formula for the idempotents of the Burnside ring."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from burnside import cli, marks
from burnside.artin import AbelianClassFamily, ArtinError, artin_certificate, idempotent_multiple
from burnside.brauer import brauer_certificate
from burnside.exact import IntMatrix
from burnside.groups import all_subgroups, parse_group, perm_inv, perm_mul, subgroup_lattice
from burnside.marks import (
    BurnsideElement,
    GhostElement,
    InternalInvariantViolation,
    MarksTable,
    NotInImage,
    marks_table,
    phi,
    solve_ghost,
)

from group_fixtures import BENCHMARK_GROUPS, benchmark_group, dense, small_subgroups_of_s6, sparse

_tables = {}


def benchmark_table(name: str) -> MarksTable:
    if name not in _tables:
        _tables[name] = marks_table(subgroup_lattice(benchmark_group(name)))
    return _tables[name]


def dense_solve(ghost: GhostElement, table: MarksTable) -> BurnsideElement:
    """Reference: descending back-substitution over every class and every
    entry of the dense matrix."""
    n = table.size
    values = dense(ghost, n)
    x = [0] * n
    for k in range(n - 1, -1, -1):
        acc = values[k] - sum(x[h] * table.matrix.entries[h][k] for h in range(k + 1, n))
        q, r = divmod(acc, table.matrix.entries[k][k])
        if r:
            raise NotInImage(k, table.lattice.label_of(k), r)
        x[k] = q
    return BurnsideElement(sparse(x))


def dense_phi(element: BurnsideElement, table: MarksTable) -> GhostElement:
    return GhostElement(sparse(table.matrix.transpose().mul_vector(list(dense(element, table.size)))))


def outcome(solve, ghost, table):
    try:
        return dense(solve(ghost, table), table.size)
    except NotInImage as exc:
        return ("NotInImage", exc.class_index, exc.label, exc.remainder)


def assert_matches_dense_reference(table: MarksTable, rng: random.Random) -> None:
    n = table.size
    ghosts = []
    for _ in range(6):
        x = BurnsideElement(sparse(rng.randint(-4, 4) for _ in range(n)))
        ghost = phi(x, table)
        assert ghost == dense_phi(x, table)
        assert solve_ghost(ghost, table) == x
        # outside the image as soon as some quotient is not integral
        j = rng.randrange(n)
        ghosts.append(ghost + GhostElement({j: rng.randint(1, 5)}))
        ghosts.append(ghost + GhostElement({0: 1}))  # pivot m[0][0] = |G|
    for k in range(n):  # one class and its down-set
        ghosts.append(GhostElement({k: rng.randint(1, table.lattice.group.order)}))
    for _ in range(6):  # a few classes and the union of their down-sets
        ghosts.append(GhostElement(sparse(
            rng.randint(-6, 6) if rng.random() < 0.2 else 0 for _ in range(n)
        )))
    for _ in range(6):  # a few random keys, drawn directly
        ghosts.append(GhostElement({rng.randrange(n): rng.randint(-6, 6) for _ in range(rng.randint(1, 3))}))
    outcomes = [outcome(solve_ghost, ghost, table) for ghost in ghosts]
    assert outcomes == [outcome(dense_solve, ghost, table) for ghost in ghosts]
    if table.lattice.group.order > 1:
        assert ("NotInImage", 0) in [o[:2] for o in outcomes]


@pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
def test_sparse_solve_matches_dense_reference_on_benchmark_groups(name):
    assert_matches_dense_reference(benchmark_table(name), random.Random(name))


@settings(max_examples=12, deadline=None)
@given(small_subgroups_of_s6(), st.integers(0, 2**32))
def test_sparse_solve_matches_dense_reference_on_subgroups_of_s6(group, seed):
    assert_matches_dense_reference(marks_table(subgroup_lattice(group)), random.Random(seed))


def test_phi_reads_every_nonzero_of_any_matrix():
    lattice = benchmark_table("S4").lattice
    rng = random.Random(3)
    n = len(lattice.classes)
    rows = [[rng.choice((0, 0, 1, -2, 5)) for _ in range(n)] for _ in range(n)]
    columns = tuple(tuple((h, row[k]) for h, row in enumerate(rows) if row[k]) for k in range(n))
    table = MarksTable(lattice, columns)
    assert table.matrix == IntMatrix.from_rows(rows)
    for _ in range(5):
        x = BurnsideElement(sparse(rng.randint(-3, 3) for _ in range(n)))
        assert phi(x, table) == dense_phi(x, table)


# ---------------------------------------------------------------------------
# |G| * e_K against Gluck's formula


def conjugates(subgroup: frozenset, elements) -> set[frozenset]:
    return {frozenset(perm_mul(perm_mul(perm_inv(g), s), g) for s in subgroup) for g in elements}


def gluck_scaled_idempotents(table: MarksTable) -> list[tuple[int, ...]]:
    """|G| e_K = (|G| / |N_G(K)|) sum_{L <= K} |L| mu(L, K) [G/L], with mu the
    Moebius function of the poset of all subgroups (D. Gluck, Illinois J.
    Math. 25 (1981)); |G| / |N_G(K)| is the number of conjugates of K."""
    group = table.lattice.group
    subgroups = all_subgroups(group)
    class_of = {}
    for idx, cls in enumerate(table.lattice.classes):
        for conjugate in conjugates(cls.element_set, group.elements):
            class_of[conjugate] = idx
    out = []
    for cls in table.lattice.classes:
        top = cls.element_set
        below = sorted((s for s in subgroups if s <= top), key=len, reverse=True)
        mu = {}
        for low in below:
            mu[low] = 1 if low == top else -sum(mu[m] for m in mu if low < m)
        count = len(conjugates(top, group.elements))
        coefficients = [0] * table.size
        for low in below:
            coefficients[class_of[low]] += count * len(low) * mu[low]
        out.append(tuple(coefficients))
    return out


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "S4", "D8", "C2^3"])
def test_cached_idempotents_match_gluck(name):
    table = benchmark_table(name)
    expected = gluck_scaled_idempotents(table)
    assert [dense(table.scaled_idempotent(k), table.size) for k in range(table.size)] == expected


def test_verify_solves_each_class_once(monkeypatch, capsys):
    calls = []
    original = marks.solve_ghost

    def counting(ghost, table):
        calls.append(ghost)
        return original(ghost, table)

    monkeypatch.setattr(marks, "solve_ghost", counting)
    monkeypatch.setattr("burnside.brauer.solve_ghost", counting)
    assert cli.main(["verify", "--group", "S4", "--json"]) == 0
    # one per class for the tom Dieck check, cached for the four Artin
    # certificates, and one for the Brauer decomposition
    assert len(calls) == 11 + 1


def test_tom_dieck_check_fails_on_not_in_image(monkeypatch, capsys):
    original = MarksTable.scaled_idempotent
    refused = set()

    def refuse_once(self, k):
        if k == 1 and k not in refused:
            refused.add(k)
            raise NotInImage(k, self.lattice.label_of(k), 1)
        return original(self, k)

    monkeypatch.setattr(MarksTable, "scaled_idempotent", refuse_once)
    assert cli.main(["verify", "--group", "S3", "--json"]) == 1
    checks = {c["name"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["order * indicator solves integrally"] is False
    assert checks["Artin certificate n=1"] is True


def test_idempotent_multiple_divides_the_cached_vector_exactly():
    table = benchmark_table("S3")
    # 6 e_(2a) = 6 [S3/C2] - 3 [S3/1]; the family {(2a)} has order 1
    assert dense(table.scaled_idempotent(1), 4) == (-3, 6, 0, 0)
    with pytest.raises(InternalInvariantViolation, match="not integral"):
        idempotent_multiple(1, AbelianClassFamily(1, (1,), 1), table)
    with pytest.raises(ArtinError):
        idempotent_multiple(3, AbelianClassFamily(1, (1,), 1), table)


# ---------------------------------------------------------------------------
# every element is stored sparse: no zero entries, every key a class index


def assert_sparse(values: dict[int, int], n: int, within: int = -1) -> None:
    """Nonzero values only, on keys in range(n) whose bits are set in within."""
    assert all(values.values())
    assert all(0 <= k < n and within >> k & 1 for k in values)


def assert_elements_sparse(table: MarksTable, rng: random.Random) -> None:
    n, down_sets = table.size, table.lattice.down_sets
    for k in range(n):
        assert_sparse(table.scaled_idempotent(k).coefficients, n, down_sets[k])
    for _ in range(4):
        ghost = GhostElement({rng.randrange(n): rng.randint(1, 6) * table.lattice.group.order
                              for _ in range(rng.randint(1, 3))})
        below = 0
        for k in ghost.values:
            below |= down_sets[k]
        x = solve_ghost(ghost, table)
        assert_sparse(x.coefficients, n, below)
        assert_sparse(phi(x, table).values, n)
    for order_n in (0, 1, 2, math.inf):
        alpha = artin_certificate(table, order_n).alpha
        assert_sparse(alpha.coefficients, n)
        assert_sparse(phi(alpha, table).values, n)
        brauer = brauer_certificate(table, order_n)
        assert_sparse(brauer.decomposition.coefficients, n)
        assert_sparse(brauer.i_n_ghost.values, n)


def test_elements_are_sparse_on_c2_5():
    table = marks_table(subgroup_lattice(parse_group("(0 1)\n(2 3)\n(4 5)\n(6 7)\n(8 9)")))
    assert table.size == 374
    assert_elements_sparse(table, random.Random(5))


@settings(max_examples=10, deadline=None)
@given(small_subgroups_of_s6(), st.integers(0, 2**32))
def test_elements_are_sparse_on_subgroups_of_s6(group, seed):
    assert_elements_sparse(marks_table(subgroup_lattice(group)), random.Random(seed))
