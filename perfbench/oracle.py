"""Independent group oracles for the benchmark, sharing no code with burnside.

Elements are permutation tuples; subgroups are bitmasks over element
indices.  Subgroup classes are found by extending class representatives
with cyclic subgroups: every subgroup H > 1 is <K, c> for a maximal
subgroup K of H and a cyclic c outside K, so extending one representative
of each class reaches a conjugate of every subgroup.
"""

from __future__ import annotations

import re

Perm = tuple


def parse_cycles(text: str, degree: int) -> Perm:
    image = list(range(degree))
    for cycle in re.findall(r"\(([^()]*)\)", text):
        points = [int(p) for p in cycle.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            image[a] = b
    return tuple(image)


def to_cycles(p: Perm) -> str:
    seen, out = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x))
            x = p[x]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


def compose(p: Perm, q: Perm) -> Perm:
    return tuple(q[i] for i in p)


def closure(generators: list[Perm], cap: int) -> list[Perm] | None:
    """All products of the generators, or None once more than cap are found."""
    identity = tuple(range(len(generators[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = compose(x, g)
                if y not in elements:
                    if len(elements) == cap:
                        return None
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elements)


def subgroup_class_count(generators: list[Perm]) -> int:
    """Number of conjugacy classes of subgroups of the generated group."""
    elements = closure(generators, cap=10**6)
    index = {p: i for i, p in enumerate(elements)}
    n = len(elements)
    mul = [[index[compose(a, b)] for b in elements] for a in elements]
    identity = index[tuple(range(len(elements[0])))]
    inverse = [row.index(identity) for row in mul]
    conj = [[mul[mul[inverse[g]][x]][g] for x in range(n)] for g in range(n)]

    def members(mask: int) -> list[int]:
        return [i for i in range(n) if mask >> i & 1]

    def generate(gens: list[int]) -> int:
        mask, frontier = 1 << identity, [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mul[x][g]
                    if not mask >> y & 1:
                        mask |= 1 << y
                        nxt.append(y)
            frontier = nxt
        return mask

    def orbit(mask: int) -> set[int]:
        elems = members(mask)
        return {sum(1 << row[x] for x in elems) for row in conj}

    cyclics = {}
    for x in range(n):
        cyclics.setdefault(generate([x]), x)
    seen = orbit(1 << identity)
    classes = 1
    frontier = [(1 << identity, [])]
    while frontier:
        nxt = []
        for mask, gens in frontier:
            for cyclic, x in cyclics.items():
                if cyclic & ~mask == 0:
                    continue
                ext = generate(gens + [x])
                if ext in seen:
                    continue
                seen |= orbit(ext)
                classes += 1
                nxt.append((ext, gens + [x]))
        frontier = nxt
    return classes
