"""Groups and reference counts shared by the test modules.

BENCHMARK_GROUPS holds the groups of the benchmark workloads (read from
perfbench/data/workloads.json, which is not written here),
small_subgroups_of_s6 draws random subgroups of S6 of order at most 48, and
coset_fixed_points counts |(G/H)^g| coset by coset, the reference for
marks.fixed_points_of_element and oracles.perm_character, and
induced_by_cosets sums a class function over the same cosets, the reference
for characters.induce.  dense and sparse convert Burnside-ring and
ghost elements between their {class: value} maps and lattice-order tuples,
so assertions can keep tuple literals; pointwise and multiply are the ghost
and Burnside-ring products, the ring-axiom oracles, unit is [G/G], and
in_ideal_jn tests an element against the ideal J_n of the abelian family.
gluck_scaled_idempotents gives |G| e_K by Gluck's formula, and
artin_member_terms scales it to the per-member terms |G|_n e_K whose sum
is the Artin certificate: the oracle for one ghost solve.  local_idempotent
builds the p-local idempotents of the ghost ring one class at a time, the
oracle for the Brauer certificate's single solve.  Not a test module:
nothing here is collected.
"""

import json
from dataclasses import dataclass
from pathlib import Path

from hypothesis import strategies as st

from burnside.artin import AbelianClassFamily, abelian_family
from burnside.brauer import coprime_part, core_classification
from burnside.characters import ClassFunction
from burnside.cyclotomic import Cyclotomic
from burnside.groups import (
    Group,
    all_subgroups,
    conjugacy_classes,
    group_from_generators,
    parse_cycles,
    parse_group,
    perm_mul,
)
from burnside.marks import (
    InternalInvariantViolation,
    MarksTable,
    NotInImage,
    phi,
    solve_ghost,
)

from oracles import element_set, left_coset_representatives, perm_inv, value_at

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "workloads.json"
# name -> {"generators": [...], "conjugacy_classes": k, ...}
BENCHMARK_GROUPS = json.loads(WORKLOADS.read_text())["groups"]


def benchmark_group(name: str) -> Group:
    return parse_group("\n".join(BENCHMARK_GROUPS[name]["generators"]))


# Overgroups of order at most 48, so every drawn subgroup is small.
OVERGROUPS = [
    group_from_generators([parse_cycles(c, 6) for c in gens])
    for gens in (
        ["(0 1)", "(0 1 2 3)", "(4 5)"],  # S4 x S2
        ["(0 1)", "(0 2)(1 3)", "(0 2 4)(1 3 5)"],  # S2 wr S3
        ["(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)"],  # S3 x S3
        ["(0 1 2 3 4)", "(1 2 4 3)"],  # AGL(1,5)
    )
]


@st.composite
def small_subgroups_of_s6(draw) -> Group:
    over = draw(st.sampled_from(OVERGROUPS))
    relabel = tuple(draw(st.permutations(range(6))))
    picks = [draw(st.sampled_from(over.core.elements)) for _ in range(2)]
    return group_from_generators([perm_mul(perm_mul(relabel, x), perm_inv(relabel)) for x in picks])


def coset_fixed_points(table: MarksTable, h: int, g) -> int:
    """|(G/H)^g| for the representative H of class h, counted coset by coset:
    the left cosets rH with r^-1 g r in H."""
    lattice = table.lattice
    core = lattice.group.core
    mul, inverse = core.table, core.inverse
    x = core.index[g]
    hmask = lattice.orbits[h][0]
    return sum(hmask >> mul[mul[inverse[r]][x]][r] & 1 for r in left_coset_representatives(core, hmask))


def induced_by_cosets(xi: ClassFunction, group: Group) -> ClassFunction:
    """ind_H^G xi, H = xi.group, at each class representative g of G: the
    sum of xi(c^-1 g c) over the left coset representatives c with
    c^-1 g c in H, one for each coset cH that g fixes."""
    core = group.core
    classes = conjugacy_classes(group)
    mask = xi.group.mask
    cosets = left_coset_representatives(core, mask)
    conductor = xi.values[0].conductor if xi.values else 1
    values = []
    for rep in classes.representatives:
        moved = (core.conjugate(core.index[rep], c) for c in cosets)
        values.append(sum((value_at(xi, core.elements[m]) for m in moved if mask >> m & 1),
                          Cyclotomic.zero(conductor)))
    return ClassFunction(group, tuple(values))


def dense(x: dict[int, int], n: int) -> tuple[int, ...]:
    """The coefficients or values of x in lattice order, for n classes."""
    return tuple(x.get(i, 0) for i in range(n))


def sparse(values) -> dict[int, int]:
    """{class index: value} of a lattice-order sequence, zeros dropped."""
    return {i: v for i, v in enumerate(values) if v}


def pointwise(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two ghosts, class by class."""
    return {k: v * b[k] for k, v in a.items() if k in b}


def scaled_by(x: dict[int, int], k: int) -> dict[int, int]:
    """k times a ghost or element, class by class."""
    return {h: k * v for h, v in x.items()}


def multiply(a: dict[int, int], b: dict[int, int], table: MarksTable) -> dict[int, int]:
    """The ring product, solved back from the pointwise product of the ghosts."""
    return solve_ghost(pointwise(phi(a, table), phi(b, table)), table)


def unit(table: MarksTable) -> dict[int, int]:
    """[G/G], the multiplicative unit."""
    return {table.size - 1: 1}


def in_ideal_jn(element: dict[int, int], family: AbelianClassFamily, table: MarksTable) -> bool:
    """True iff phi(element) vanishes on every class of the family."""
    return phi(element, table).keys().isdisjoint(family.members)


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
        for conjugate in conjugates(element_set(cls), group.core.elements):
            class_of[conjugate] = idx
    out = []
    for cls in table.lattice.classes:
        top = element_set(cls)
        below = sorted((s for s in subgroups if s <= top), key=len, reverse=True)
        mu = {}
        for low in below:
            mu[low] = 1 if low == top else -sum(mu[m] for m in mu if low < m)
        count = len(conjugates(top, group.core.elements))
        coefficients = [0] * table.size
        for low in below:
            coefficients[class_of[low]] += count * len(low) * mu[low]
        out.append(tuple(coefficients))
    return out


def artin_member_terms(table: MarksTable, family: AbelianClassFamily) -> dict[int, dict[int, int]]:
    """{K: |G|_n e_K} for each class K of the family: Gluck's |G| e_K times
    |G|_n / |G|, divided exactly.  Their sum is the Artin certificate's
    alpha, built one member at a time with no call to solve_ghost.  Raises
    ArithmeticError where a division is not exact."""
    order = table.lattice.group.order
    scaled = gluck_scaled_idempotents(table)
    terms = {}
    for k in family.class_indices:
        coefficients = {}
        for h, c in enumerate(scaled[k]):
            q, r = divmod(c * family.order, order)
            if r:
                raise ArithmeticError(f"{family.order} * e_{k} not integral at class {h}")
            if q:
                coefficients[h] = q
        terms[k] = coefficients
    return terms


class NotPPerfect(Exception):
    """A local idempotent was requested at a class that is not p-perfect."""


@dataclass(frozen=True)
class LocalIdempotent:
    class_index: int  # the p-perfect class (H)
    p: int
    ghost: dict[int, int]  # 1 at (K) iff (O^p(K)) = (H)
    scaled_element: dict[int, int]  # solves N_(p) * ghost


def local_idempotent(h: int, p: int, table: MarksTable, n: int | float = 1) -> LocalIdempotent:
    """The idempotent ghost supported on classes whose p-perfect core is (H),
    together with the integral element solving its |G|_n-coprime multiple."""
    lattice = table.lattice
    cores = core_classification(lattice, p)
    if cores[h] != h:
        raise NotPPerfect(f"class {lattice.label_of(h)} is not {p}-perfect")
    ghost = {k: 1 for k, core in enumerate(cores) if core == h}
    scale = coprime_part(abelian_family(lattice, n).order, p)
    try:
        scaled = solve_ghost(scaled_by(ghost, scale), table)
    except NotInImage as exc:  # pragma: no cover - contradicts the idempotent theorem
        raise InternalInvariantViolation(str(exc)) from exc
    return LocalIdempotent(h, p, ghost, scaled)
