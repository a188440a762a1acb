"""The sparse Burnside-ring solver, |G|*e_K and the Artin certificate, against
oracles that share no code with them: a plain O(n^2) back-substitution
through the dense marks matrix, and Gluck's formula for the idempotents of
the Burnside ring, summed member by member over the Artin family."""

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from burnside import cli, marks
from burnside.artin import AbelianClassFamily, abelian_family, artin_certificate
from burnside.brauer import brauer_certificate
from burnside.exact import IntMatrix
from burnside.groups import parse_group, subgroup_lattice
from burnside.marks import (
    MarksTable,
    NotInImage,
    marks_table,
    phi,
    solve_ghost,
)

from group_fixtures import (
    BENCHMARK_GROUPS,
    artin_member_terms,
    benchmark_group,
    dense,
    gluck_scaled_idempotents,
    small_subgroups_of_s6,
    sparse,
)
from oracles import dense_marks

_tables = {}


def benchmark_table(name: str) -> MarksTable:
    if name not in _tables:
        _tables[name] = marks_table(subgroup_lattice(benchmark_group(name)))
    return _tables[name]


def dense_solve(ghost: dict[int, int], table: MarksTable) -> dict[int, int]:
    """Reference: descending back-substitution over every class and every
    entry of the dense matrix."""
    n = table.size
    values, marks = dense(ghost, n), dense_marks(table)
    x = [0] * n
    for k in range(n - 1, -1, -1):
        acc = values[k] - sum(x[h] * marks[h][k] for h in range(k + 1, n))
        q, r = divmod(acc, marks[k][k])
        if r:
            raise NotInImage(k, table.lattice.label_of(k), r)
        x[k] = q
    return sparse(x)


def dense_phi(element: dict[int, int], table: MarksTable) -> dict[int, int]:
    marks = IntMatrix.from_rows(dense_marks(table))
    (row,) = (IntMatrix.from_rows([list(dense(element, table.size))]) @ marks).entries
    return sparse(row)


def outcome(solve, ghost, table):
    try:
        return dense(solve(ghost, table), table.size)
    except NotInImage as exc:
        return ("NotInImage", exc.class_index, exc.label, exc.remainder)


def assert_matches_dense_reference(table: MarksTable, rng: random.Random) -> None:
    n = table.size
    ghosts = []
    for _ in range(6):
        x = sparse(rng.randint(-4, 4) for _ in range(n))
        ghost = phi(x, table)
        assert ghost == dense_phi(x, table)
        assert solve_ghost(ghost, table) == x
        # outside the image as soon as some quotient is not integral
        j = rng.randrange(n)
        ghosts.append({**ghost, j: ghost.get(j, 0) + rng.randint(1, 5)})
        ghosts.append({**ghost, 0: ghost.get(0, 0) + 1})  # pivot m[0][0] = |G|
    for k in range(n):  # one class and its down-set
        ghosts.append({k: rng.randint(1, table.lattice.group.order)})
    for _ in range(6):  # a few classes and the union of their down-sets
        ghosts.append(sparse(
            rng.randint(-6, 6) if rng.random() < 0.2 else 0 for _ in range(n)
        ))
    for _ in range(6):  # a few random keys, drawn directly
        ghosts.append({rng.randrange(n): rng.randint(-6, 6) for _ in range(rng.randint(1, 3))})
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
    table = MarksTable(lattice, tuple(tuple((k, m) for k, m in enumerate(row) if m) for row in rows))
    assert dense_marks(table) == rows
    for _ in range(5):
        x = sparse(rng.randint(-3, 3) for _ in range(n))
        assert phi(x, table) == dense_phi(x, table)


# ---------------------------------------------------------------------------
# the table by rows: row H is the down-set of (H), and a solve reads only
# the rows of the classes below its keys


def assert_rows_are_down_sets(table: MarksTable) -> None:
    classes, down_sets = table.lattice.classes, table.lattice.down_sets
    assert len(table.rows) == table.size
    for h, row in enumerate(table.rows):
        ks = [k for k, _ in row]
        assert ks == sorted(set(ks)), f"row {h} does not ascend"
        assert row[-1] == (h, classes[h].weyl_order)
        assert sum(1 << k for k in ks) == down_sets[h]
        assert all(m for _, m in row)


@pytest.mark.parametrize("name", sorted(BENCHMARK_GROUPS))
def test_rows_are_down_sets_on_benchmark_groups(name):
    assert_rows_are_down_sets(benchmark_table(name))


@settings(max_examples=12, deadline=None)
@given(small_subgroups_of_s6())
def test_rows_are_down_sets_on_subgroups_of_s6(group):
    assert_rows_are_down_sets(marks_table(subgroup_lattice(group)))


class RecordingRows:
    """A table's rows that record which ones are read."""

    def __init__(self, rows):
        self.rows, self.read = rows, set()

    def __getitem__(self, h):
        self.read.add(h)
        return self.rows[h]

    def __len__(self):
        return len(self.rows)


def test_solve_reads_only_the_rows_below_its_key():
    table = benchmark_table("C2^4")
    down_sets, order = table.lattice.down_sets, table.lattice.group.order
    for k in range(table.size):
        rows = RecordingRows(table.rows)
        recording = MarksTable(table.lattice, rows)
        assert solve_ghost({k: order}, recording) == solve_ghost({k: order}, table)
        assert k in rows.read
        assert all(down_sets[k] >> h & 1 for h in rows.read), f"class {k} read a row above its down-set"


# ---------------------------------------------------------------------------
# |G| * e_K against Gluck's formula


GLUCK_GROUPS = ["S3", "D4", "Q8", "A4", "S4", "D8", "C2^3"]


@pytest.mark.parametrize("name", GLUCK_GROUPS)
def test_cached_idempotents_match_gluck(name):
    table = benchmark_table(name)
    expected = gluck_scaled_idempotents(table)
    order = table.lattice.group.order
    assert [dense(solve_ghost({k: order}, table), table.size) for k in range(table.size)] == expected


@pytest.mark.parametrize("n", [0, 1, 2, math.inf])
@pytest.mark.parametrize("name", GLUCK_GROUPS)
def test_artin_alpha_is_the_sum_of_gluck_members(name, n):
    # (|G|_n / |G|) sum_{K in F} |G| e_K by Gluck's formula, one member at a time
    table = benchmark_table(name)
    total = Counter()
    for term in artin_member_terms(table, abelian_family(table.lattice, n)).values():
        total.update(term)
    assert artin_certificate(table, n).alpha == {h: c for h, c in total.items() if c}


def test_verify_solves_each_class_once(monkeypatch, capsys):
    calls = []
    original = marks.solve_ghost

    def counting(ghost, table):
        calls.append(ghost)
        return original(ghost, table)

    for module in ("cli", "artin", "brauer"):
        monkeypatch.setattr(f"burnside.{module}.solve_ghost", counting)
    assert cli.main(["verify", "--group", "S4", "--json"]) == 0
    # one per class for the tom Dieck check, one for each of the four Artin
    # certificates, and one for the Brauer decomposition
    assert len(calls) == 11 + 4 + 1


def test_tom_dieck_check_fails_on_not_in_image(monkeypatch, capsys):
    original = marks.solve_ghost

    def refuse_class_1(ghost, table):
        if ghost.keys() == {1}:
            raise NotInImage(1, table.lattice.label_of(1), 1)
        return original(ghost, table)

    monkeypatch.setattr("burnside.cli.solve_ghost", refuse_class_1)
    assert cli.main(["verify", "--group", "S3", "--json"]) == 1
    checks = {c["name"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["order * indicator solves integrally"] is False
    # the certificates solve their own ghosts and do not read the sweep
    for name in ("Artin certificate n=1", "Artin certificate n=2", "Artin certificate n=inf",
                 "Artin ghost certificate n=0"):
        assert checks[name] is True


def test_idempotent_multiple_divides_the_cached_vector_exactly():
    table = benchmark_table("S3")
    # 6 e_(2a) = 6 [S3/C2] - 3 [S3/1]; the family {(2a)} has order 1
    assert dense(solve_ghost({1: 6}, table), 4) == (-3, 6, 0, 0)
    with pytest.raises(ArithmeticError, match="not integral"):
        artin_member_terms(table, AbelianClassFamily(1, (1,), 1))


# ---------------------------------------------------------------------------
# every element is stored sparse: no zero entries, every key a class index


def assert_sparse(values: dict[int, int], n: int, within: int = -1) -> None:
    """Nonzero values only, on keys in range(n) whose bits are set in within."""
    assert all(values.values())
    assert all(0 <= k < n and within >> k & 1 for k in values)


def assert_elements_sparse(table: MarksTable, rng: random.Random) -> None:
    n, down_sets = table.size, table.lattice.down_sets
    for k in range(n):
        scaled = solve_ghost({k: table.lattice.group.order}, table)
        assert_sparse(scaled, n, down_sets[k])
    for _ in range(4):
        ghost = {rng.randrange(n): rng.randint(1, 6) * table.lattice.group.order
                 for _ in range(rng.randint(1, 3))}
        below = 0
        for k in ghost:
            below |= down_sets[k]
        x = solve_ghost(ghost, table)
        assert_sparse(x, n, below)
        assert_sparse(phi(x, table), n)
    for order_n in (0, 1, 2, math.inf):
        alpha = artin_certificate(table, order_n).alpha
        assert_sparse(alpha, n)
        assert_sparse(phi(alpha, table), n)
        brauer = brauer_certificate(table, order_n)
        assert_sparse(brauer.decomposition, n)
        assert_sparse(brauer.i_n_ghost, n)


def test_elements_are_sparse_on_c2_5():
    table = marks_table(subgroup_lattice(parse_group("(0 1)\n(2 3)\n(4 5)\n(6 7)\n(8 9)")))
    assert table.size == 374
    assert_elements_sparse(table, random.Random(5))


@settings(max_examples=10, deadline=None)
@given(small_subgroups_of_s6(), st.integers(0, 2**32))
def test_elements_are_sparse_on_subgroups_of_s6(group, seed):
    assert_elements_sparse(marks_table(subgroup_lattice(group)), random.Random(seed))
