"""Finite permutation groups, subgroup lattices, and subgroup classifications.

Permutations are tuples mapping point i to perm[i]; composition is
(p * q)(i) = p(q(i)).  Permutation tuples are the boundary: they are parsed,
closed into a group by group_from_generators, turned into a Cayley table by
the GroupCore constructor and printed, and the public API passes subgroups
as frozensets of them.  Every loop behind that boundary runs on G's index
core (GroupCore), the only core a command builds: element i is
core.elements[i], products are Cayley-table lookups, and a subgroup is an
int bitmask with bit i set when element i belongs to it.  A Group is a core
and a bitmask: G is the full mask of its own core, and a subgroup whose
character table is read is G's core with the subgroup's mask.  Its order is
the mask's popcount, its gens are greedy generator indices, and
conjugacy_classes gives its element classes in G's index space: each
class's element indices, and the class of each index.  Permutations live
on the core and are read only for table files and report labels
(ConjugacyClasses.label).  A subgroup class holds its representative
as a bitmask too.  One count, |C_G(g)| * |g^G cap S| from g's class mask
and the bitmask of S (ConjugacyClasses.conjugators_into), gives the marks
at single elements and induced characters.  The subgroup lattice is
enumerated by cyclic extension, one representative per conjugacy class
extended by one cyclic subgroup per orbit of its normalizer.  Normalizer
orders and marks are read off the conjugation orbits of those bitmasks, and
subconjugacy is the closure of the extension edges, one down-set bitmask
over the class indices per class.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .exact import factorization, quoted

Perm = tuple[int, ...]

DEFAULT_ORDER_CAP = 5000


class GroupError(Exception):
    """Base class for group-construction and classification errors."""

    exit_code = 2  # an input error


class MalformedCycle(GroupError):
    """A generator string is not valid disjoint-cycle notation."""


class OrderCapExceeded(GroupError):
    """Enumeration exceeded the configured element cap."""


# ---------------------------------------------------------------------------
# permutations


def perm_identity(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition p after q: i -> p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_to_cycles(p: Perm) -> str:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + " ".join(str(v) for v in cycle) + ")")
    return "".join(parts) if parts else "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _point(point: int) -> str:
    return str(point) if point < 10 ** 32 else quoted(str(point))


def parse_cycles(text: str, degree: int | None = None, cap: int = DEFAULT_ORDER_CAP) -> Perm:
    """Parse disjoint-cycle notation like "(0 1 2)(3 4)" into a permutation.
    With no degree given, a point at or past the order cap is refused."""
    stripped = text.strip()
    if stripped in ("()", "e", ""):
        return perm_identity(degree or 1)
    consumed = _CYCLE_RE.sub("", stripped).strip()
    if consumed:
        raise MalformedCycle(f"unexpected text {quoted(consumed)} in {quoted(text)}")
    cycles: list[list[int]] = []
    seen: set[int] = set()
    maxpoint = -1
    for body in _CYCLE_RE.findall(stripped):
        points = []
        for token in re.split(r"[,\s]+", body.strip()):
            if not token:
                continue
            try:
                point = int(token) if token.isascii() and token.isdecimal() else -1
            except ValueError:  # more digits than int() converts
                point = -1
            if point < 0:
                raise MalformedCycle(f"bad point {quoted(token)} in {quoted(text)}")
            if point in seen:
                raise MalformedCycle(f"point {_point(point)} appears twice in {quoted(text)}")
            seen.add(point)
            points.append(point)
        if points:
            cycles.append(points)
            maxpoint = max(maxpoint, max(points))
    if degree is None and maxpoint >= cap:
        raise OrderCapExceeded(f"point {_point(maxpoint)} is not below the order cap {cap}; raise --cap")
    d = degree if degree is not None else maxpoint + 1
    if maxpoint >= d:
        raise MalformedCycle(f"point {_point(maxpoint)} out of range for degree {d}")
    out = list(range(max(d, 1)))
    for cycle in cycles:
        for i, pt in enumerate(cycle):
            out[pt] = cycle[(i + 1) % len(cycle)]
    return tuple(out)


# ---------------------------------------------------------------------------
# groups


class Group:
    """A finite group as a view of an index core: the set bits of mask are
    its elements.  group_from_generators returns G as the full mask of its
    own core, and a subgroup of G is G's core with the subgroup's bitmask, so
    both keep G's indices and G's sorted element order."""

    def __init__(self, core: "GroupCore", mask: int, name: str = ""):
        self.core, self.mask, self.name = core, mask, name
        self.order = mask.bit_count()

    @cached_property
    def gens(self) -> list[int]:
        """Greedy generators, as indices into the core; group_from_generators
        gives G the core's own generators instead."""
        return self.core.generating_set(self.mask)

    @cached_property
    def _conjugacy_classes(self) -> "ConjugacyClasses":
        """The element conjugacy classes, built on first use and kept on this
        instance; read them through conjugacy_classes."""
        return _element_classes(self)


class GroupCore:
    """Index form of a group for the combinatorial layers.

    Element i is elements[i], so index order is the sorted order of the
    permutations and the identity is 0.  table[a][b] is the index of
    elements[a] * elements[b]; a subgroup is an int bitmask with bit i set
    when element i belongs to it.
    """

    def __init__(self, elements: tuple[Perm, ...], generators: Iterable[Perm]):
        n = len(elements)
        index = {g: i for i, g in enumerate(elements)}
        gens = [i for i in dict.fromkeys(index[g] for g in generators) if i != 0]
        # The row of c*s is the row of c composed with left multiplication by
        # s, so rows follow a spanning tree from the identity.
        left = {s: [index[perm_mul(elements[s], x)] for x in elements] for s in gens}
        table: list[list[int] | None] = [None] * n
        table[0] = list(range(n))
        frontier = [0]
        while frontier:
            nxt = []
            for c in frontier:
                row = table[c]
                for s in gens:
                    b = row[s]
                    if table[b] is None:
                        table[b] = [row[v] for v in left[s]]
                        nxt.append(b)
            frontier = nxt
        self.elements, self.degree = elements, len(elements[0])
        self.index = index
        self.generators = gens
        self.table = table
        self.inverse = [row.index(0) for row in table]
        orders = []
        for x in range(n):
            y, k = x, 1
            while y:
                y = table[y][x]
                k += 1
            orders.append(k)
        self.orders = orders

    def mask(self, subgroup: Iterable[Perm]) -> int:
        return _mask(self.index[p] for p in subgroup)

    def perms(self, mask: int) -> tuple[Perm, ...]:
        """The permutations of a bitmask, in sorted order."""
        return tuple(self.elements[i] for i in _bits(mask))

    def conjugate(self, x: int, g: int) -> int:
        """Index of g^-1 * x * g."""
        return self.table[self.table[self.inverse[g]][x]][g]

    @cached_property
    def conjugations(self) -> list[list[int]]:
        """Per generator s, the map x -> s^-1 * x * s on element indices."""
        return [[self.conjugate(x, s) for x in range(len(self.table))] for s in self.generators]

    @cached_property
    def center(self) -> frozenset[int]:
        """Indices of the elements that commute with every generator."""
        return frozenset(x for x in range(len(self.table)) if all(conj[x] == x for conj in self.conjugations))

    def commute(self, elems: Sequence[int]) -> bool:
        table = self.table
        return all(table[a][b] == table[b][a] for a in elems for b in elems)

    def power(self, x: int, k: int) -> int:
        result, base = 0, x
        while k:
            if k & 1:
                result = self.table[result][base]
            base = self.table[base][base]
            k >>= 1
        return result

    def extend(self, elems: list[int], gens: list[int], z: int) -> list[int]:
        """Elements of <H, z>, where H has elements elems and generators gens.

        Dimino's method: <H, z> is grown as a union of right cosets H*y.  A
        coset representative times a generator either lies in a known coset
        or starts a new one, so the union is closed once no new one starts.
        """
        table = self.table
        members = set(elems)
        out = list(elems)
        gens = gens + [z]
        reps = [0]
        i = 0
        while i < len(reps):
            row = table[reps[i]]
            i += 1
            for s in gens:
                y = row[s]
                if y not in members:
                    coset = [table[h][y] for h in elems]
                    members.update(coset)
                    out.extend(coset)
                    reps.append(y)
        return out

    def closure(self, gens: Iterable[int]) -> list[int]:
        """Elements of the subgroup generated by gens."""
        return self._grow(gens)[0]

    def generating_set(self, mask: int) -> list[int]:
        """Greedy generators of a subgroup: each is the first element, in
        index order, outside the subgroup generated by those before it."""
        return self._grow(_bits(mask))[1]

    def _grow(self, gens: Iterable[int]) -> tuple[list[int], list[int]]:
        """Elements of the subgroup generated by gens, and the gens that each
        lay outside the subgroup generated by those before them."""
        elems, used, members = [0], [], {0}
        for g in gens:
            if g not in members:
                elems = self.extend(elems, used, g)
                used.append(g)
                members = set(elems)
        return elems, used

    def cyclic_generators(self) -> tuple[list[int], list[int]]:
        """One generator (the first in index order) of each cyclic subgroup
        of prime-power order greater than 1, and root[x], the listed
        generator of <x>, for every generator x of those subgroups (0, the
        identity, for every other element).

        Conjugation permutes these subgroups, <x>^g = <g^-1*x*g>, so
        root[conjugate(x, g)] names the image of <x> under g.  The lattice
        enumeration walks orbits this way: for n in N_G(H),
        <H, z>^n = <H, z^n>, so one z per orbit of the normalizer's Schreier
        generators (minus those central in G, which act trivially) reaches
        every class that extending H by all of them would.
        """
        out, root = [], [0] * len(self.elements)
        prime_powers = {order for order in set(self.orders) if len(factorization(order)) == 1}
        for x in range(1, len(self.elements)):
            order = self.orders[x]
            if root[x] or order not in prime_powers:
                continue
            out.append(x)
            y = x
            for k in range(1, order):
                if math.gcd(k, order) == 1:
                    root[y] = x
                y = self.table[y][x]
        return out, root


def _mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def close_under_product(degree: int, generators: Iterable[Perm], cap: int = DEFAULT_ORDER_CAP) -> frozenset:
    """Closure of the generators under composition (and hence inverses)."""
    identity = perm_identity(degree)
    gens = [g for g in generators if g != identity]
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_mul(x, g)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > cap:
                        raise OrderCapExceeded(f"order exceeds cap {cap}")
        frontier = nxt
    return frozenset(elements)


def group_from_generators(generators: Sequence[Perm], name: str = "", cap: int = DEFAULT_ORDER_CAP) -> Group:
    """The group the generators generate, each fixing the points past its
    length, on the largest degree among them."""
    d = max((len(g) for g in generators), default=1)
    gens = tuple(g + tuple(range(len(g), d)) for g in generators)
    elements = tuple(sorted(close_under_product(d, gens, cap)))
    group = Group(GroupCore(elements, gens), (1 << len(elements)) - 1, name)
    group.gens = group.core.generators
    return group


def _cyclic(n: int) -> list[str]:
    return ["(" + " ".join(str(i) for i in range(n)) + ")"]


# Q8 acts on itself by left multiplication, its points ordered 1, -1, i, -i,
# j, -j, k, -k; its generators are left multiplication by i and by j.
BUILTIN_GROUPS: dict[str, list[str]] = {
    "trivial": [],
    "C1": [],
    "C2": _cyclic(2),
    "C3": _cyclic(3),
    "C4": _cyclic(4),
    "C6": _cyclic(6),
    "C2xC2": ["(0 1)", "(2 3)"],
    "S3": ["(0 1)", "(0 1 2)"],
    "D4": ["(0 1 2 3)", "(1 3)"],
    "A4": ["(0 1 2)", "(0 1)(2 3)"],
    "S4": ["(0 1)", "(0 1 2 3)"],
    "Q8": ["(0 2 1 3)(4 6 5 7)", "(0 4 1 5)(2 7 3 6)"],
}


def builtin_group(name: str, cap: int = DEFAULT_ORDER_CAP) -> Group:
    if name not in BUILTIN_GROUPS:
        raise GroupError(f"unknown builtin group {quoted(name)}")
    gens = [parse_cycles(s, cap=cap) for s in BUILTIN_GROUPS[name]]
    return group_from_generators(gens, name=name, cap=cap)


def parse_group(spec: str, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Build a Group from a definition text or a builtin fixture name.

    A definition text has one generator per line in disjoint-cycle notation,
    an optional "name:" header line and "#" comment lines.  A single bare
    word other than "e" names a builtin fixture.
    """
    stripped = spec.strip()
    if stripped.isalnum() and stripped != "e":
        return builtin_group(stripped, cap=cap)
    name = ""
    gen_strings = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("name:"):
            name = line.split(":", 1)[1].strip()
            continue
        gen_strings.append(line)
    gens = [parse_cycles(s, cap=cap) for s in gen_strings]
    return group_from_generators(gens, name=name or ("" if gens else "trivial"), cap=cap)


# ---------------------------------------------------------------------------
# element conjugacy classes


class ConjugacyClasses:
    """Element conjugacy classes in index form, with a deterministic order
    (identity first): members[c] lists the element indices of class c over
    group.core, ascending, and class_of[x] is the class of element index x,
    keyed by the group's elements.  Permutations appear only at the
    boundary, in representatives, label and index_of."""

    def __init__(self, group: Group, members: tuple[tuple[int, ...], ...]):
        self.group, self.members = group, members
        self.class_of = {x: c for c, cls in enumerate(members) for x in cls}

    @cached_property
    def representatives(self) -> list[Perm]:
        return [self.group.core.elements[cls[0]] for cls in self.members]

    @property
    def sizes(self) -> list[int]:
        return [len(cls) for cls in self.members]

    def index_of(self, element: Perm) -> int:
        return self.class_of[self.group.core.index[element]]

    def label(self, c: int) -> str:
        """Class c's name in reports: its first member in cycle notation."""
        return perm_to_cycles(self.representatives[c])

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per class, the bitmask of its elements over group.core."""
        return tuple(_mask(cls) for cls in self.members)

    def conjugators_into(self, c: int, mask: int) -> int:
        """The number of x in G with x^-1 g x in S, for g in class c and S
        the set with the given bitmask: |C_G(g)| * |g^G cap S|.  For a
        subgroup H this is |H| * |(G/H)^g|, since g fixes xH iff
        x^-1 g x lies in H."""
        return self.group.order // len(self.members[c]) * (mask & self.masks[c]).bit_count()


def conjugacy_classes(group: Group) -> ConjugacyClasses:
    """Orbits under conjugation by the generators, sorted by element order,
    then size, then least member.  Computed once per group and kept on it."""
    return group._conjugacy_classes


def _element_classes(group: Group) -> ConjugacyClasses:
    core = group.core
    table, orders = core.table, core.orders
    acting = [(table[core.inverse[s]], s) for s in group.gens]  # table[row[y]][s] = s^-1*y*s
    seen = bytearray(len(table))
    classes = []
    for x in _bits(group.mask):
        if seen[x]:
            continue
        seen[x] = 1
        orbit = [x]
        for y in orbit:
            for row, s in acting:
                z = table[row[y]][s]
                if not seen[z]:
                    seen[z] = 1
                    orbit.append(z)
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cls: (orders[cls[0]], len(cls), cls[0]))
    return ConjugacyClasses(group, tuple(classes))


def exponent(group: Group) -> int:
    return math.lcm(*(group.core.orders[x] for x in _bits(group.mask)))


# ---------------------------------------------------------------------------
# subgroup lattice


class SubgroupClass:
    """A conjugacy class of subgroups, with its classification data.  The
    representative is held as its bitmask over the group's core."""

    def __init__(self, core: GroupCore, mask: int, bound: int, weyl_order: int, is_abelian: bool, label: str):
        self.core, self.mask, self.label = core, mask, label
        self.bound = bound  # the size of a known generating set
        self.order, self.weyl_order, self.is_abelian = mask.bit_count(), weyl_order, is_abelian

    @cached_property
    def min_generators(self) -> int:
        """The least number of elements generating the representative,
        counted on first read: the certificates read it for abelian classes
        only, and the search is costly for nonabelian ones."""
        if self.is_abelian:
            return _abelian_rank(self.core, _bits(self.mask))
        return _min_generators(self.core, self.mask, self.bound)


class SubgroupLattice:
    """Conjugacy classes of subgroups ordered compatibly with subconjugacy."""

    def __init__(self, group: Group, classes: tuple[SubgroupClass, ...], down_sets: tuple[int, ...],
                 orbits: tuple[tuple[int, ...], ...]):
        self.group, self.classes = group, classes
        self.down_sets = down_sets  # per class (H), bit k set iff (K) <= (H)
        # per class, the bitmasks (over group.core) of all conjugates, representative first
        self.orbits = orbits

    def __len__(self):
        return len(self.classes)

    @property
    def full_index(self) -> int:
        return len(self.classes) - 1

    def class_of_subgroup(self, subgroup: frozenset) -> tuple[int, Perm]:
        """Index of the class containing subgroup, and the first g in element
        order with g^-1*S*g = rep."""
        core = self.group.core
        try:
            mask = core.mask(subgroup)
            idx = self.class_of_mask[mask]
        except KeyError:
            raise GroupError("subgroup not found in lattice") from None
        rep = self.orbits[idx][0]
        elems = _bits(mask)
        for g in range(len(core.table)):
            if all(rep >> core.conjugate(s, g) & 1 for s in elems):
                return idx, core.elements[g]
        raise GroupError("subgroup not found in lattice")

    def label_of(self, idx: int) -> str:
        return self.classes[idx].label

    @cached_property
    def class_of_mask(self) -> dict[int, int]:
        """Class index of every subgroup, keyed by its bitmask over group.core."""
        return {mask: idx for idx, orbit in enumerate(self.orbits) for mask in orbit}


def all_subgroups(group: Group) -> list[frozenset]:
    """Every subgroup: the union of the conjugacy orbits of the lattice
    enumeration, sorted by order and then by sorted elements."""
    core = group.core
    subgroups = [frozenset(core.perms(mask)) for entry in _subgroup_orbits(core) for mask in entry.orbit]
    return sorted(subgroups, key=lambda s: (len(s), tuple(sorted(s))))


class _ClassOrbit(NamedTuple):
    orbit: list[int]  # bitmasks of the conjugates, H = orbit[0] first
    elements: list[int]  # of H, the member that gets extended
    generators: list[int]  # of H, each of prime-power order
    normalizer: list[int]  # Schreier generators of N_G(H)
    above: list[int]  # per extension <H, z>, the position of its class


def _subgroup_orbits(core: GroupCore) -> list[_ClassOrbit]:
    """One _ClassOrbit per conjugacy class of subgroups.

    Cyclic extension (Neubüser 1960): every subgroup is generated by elements
    g1, ..., gr of prime-power order, and <g1, ..., gr> is conjugate to the
    extension of a member of the class of <g1, ..., g(r-1)> by a conjugate of
    gr.  So extending one member H of each class by one generator of every
    cyclic subgroup of prime-power order reaches every class.  For n in
    N_G(H), <H, z>^n = <H, z^n>, so one z per N_G(H)-orbit of those cyclic
    subgroups suffices.  And <H, w*h> = <H, w> for h in H, so once H is
    extended by z, every cyclic subgroup generated by an element of a coset
    w*H, w in the orbit of <z>, is settled without an extension of its own.
    Each extension records the edge to the class of <H, z>, new or known.

    The orbit lists the bitmasks of a class's conjugates, found by
    conjugating with the group's generators only; the elements and
    generators describe its first member H = orbit[0], the one that gets
    extended.  The walk keeps t_j with H^(t_j) equal to conjugate j.  When
    generator s maps conjugate j onto conjugate k, t_j*s*t_k^-1 normalizes
    H, and by Schreier's lemma these elements (tree edges give the identity)
    generate N_G(H); they are the normalizer generators.  A generator
    central in G fixes every conjugate and gives t_j*s*t_j^-1 = s, so it is
    listed once and not applied.  Elements central in G act trivially on
    cyclic subgroups, so the orbits are walked by the other Schreier
    generators only, and abelian groups walk none.
    """
    table, inverse, center = core.table, core.inverse, core.center
    cyclic, root = core.cyclic_generators()
    central = [s for s in core.generators if s in center]
    moving = [(s, conj) for s, conj in zip(core.generators, core.conjugations) if s not in center]
    found: list[_ClassOrbit] = []
    known: dict[int, int] = {}  # mask of every subgroup found -> position of its class

    def add(elems: list[int], mask: int, gens: list[int]) -> None:
        masks, members, transversal = [mask], [elems], [0]
        position = {mask: 0}
        schreier = list(central)
        for j, member in enumerate(members):
            for s, conj in moving:
                image = [conj[x] for x in member]
                image_mask = _mask(image)
                t = table[transversal[j]][s]
                k = position.get(image_mask)
                if k is None:
                    position[image_mask] = len(masks)
                    masks.append(image_mask)
                    members.append(image)
                    transversal.append(t)
                else:
                    schreier.append(table[t][inverse[transversal[k]]])
        known.update(dict.fromkeys(masks, len(found)))
        found.append(_ClassOrbit(masks, elems, gens, schreier, []))

    add([0], 1, [])
    for orbit, elems, gens, schreier, above in found:
        # n -> (row of n^-1, n), so that table[row[y]][n] = n^-1*y*n
        acting = [(table[inverse[n]], n) for n in dict.fromkeys(schreier) if n not in center]
        reached: set[int] = set()
        for z in cyclic:
            if orbit[0] >> z & 1 or z in reached:
                continue
            conjugates, seen = [z], {z}
            for y in conjugates:
                for row, n in acting:
                    w = root[table[row[y]][n]]
                    if w not in seen:
                        seen.add(w)
                        conjugates.append(w)
            extended = core.extend(elems, gens, z)
            # root is 0 off the prime-power cyclic subgroups, and 0 is never a z
            for w in conjugates:
                reached.update(map(root.__getitem__, map(table[w].__getitem__, elems)))
            mask = _mask(extended)
            if mask not in known:
                add(extended, mask, gens + [z])
            above.append(known[mask])
    return found


def _min_generators(core: GroupCore, mask: int, bound: int) -> int:
    """Smallest k so that some k elements generate the nonabelian subgroup
    with element bitmask mask, given a generating set of size bound.

    A nonabelian group needs at least two generators, and a generating set
    of size k <= 3 settles k once smaller sets have failed.  Otherwise sets
    of two and three elements are searched exhaustively, and a larger count
    is the smaller of bound and the greedy generating set, an upper bound.
    """
    rep = _bits(mask)
    for k in (2, 3):
        if bound <= k:
            return k
        if any(len(core.closure(combo)) == len(rep) for combo in combinations(rep[1:], k)):
            return k
    return min(bound, len(core.generating_set(mask)))


def _abelian_rank(core: GroupCore, elems: list[int]) -> int:
    """max over primes p of the rank of H/H^p, for abelian H: the r with
    |H/H^p| = p**r."""
    order, ranks = len(elems), [0]
    for p in factorization(order):
        quotient = order // len({core.power(x, p) for x in elems})
        ranks.append(factorization(quotient)[p])
        assert p ** ranks[-1] == quotient
    return max(ranks)


def _least_member(orbit: list[int]) -> int:
    """The mask whose sorted element list is lexicographically least.  Of two
    subsets of equal size, that is the one holding the lowest element of
    their symmetric difference, the lowest bit of m ^ m'."""
    least = orbit[0]
    for m in orbit:
        diff = least ^ m
        if m & diff & -diff:
            least = m
    return least


def _letters(seq: int) -> str:
    """The letters of the seq-th label of an order, counted from 0 in
    bijective base 26: a, ..., z, aa, ab, ..., zz, aaa, ..."""
    letters = ""
    while seq >= 0:
        seq, r = divmod(seq, 26)
        letters = chr(ord("a") + r) + letters
        seq -= 1
    return letters


def subgroup_lattice(group: Group) -> SubgroupLattice:
    """Conjugacy classes of all subgroups with subconjugacy and Weyl orders.

    Classes are sorted by order and then by the sorted elements of their
    representative, the least member of the class in that order, and each
    is labelled by its order and its place among the classes of that order
    (_letters): 2a, 2b, ..., 2z, 2aa, ...  The orbit of H under conjugation
    gives |N_G(H)| = |G| / |orbit|.

    Subconjugacy, (K) <= (H) iff K lies in a conjugate of H, is the closure
    of the extension edges (K) -> (<K, z>) of _subgroup_orbits, which are
    containments.  Conversely, let K < H, K the member of its class that was
    extended.  Elements of prime-power order generate H, so one of them, z,
    lies outside K.  Either K was extended by a generator of <z>, or <z> is
    generated by w*h with h in K and <w> conjugate under N_G(K) to the <z0>
    of an extension of K, and <K, z> = <K, w> is conjugate to <K, z0>.  So
    an edge leads to (<K, z>), of smaller index in H, and induction on the
    index reaches (H).  Edges raise the order: one pass in lattice order
    closes them.
    """
    core = group.core
    entries = _subgroup_orbits(core)
    reps = [_least_member(entry.orbit) for entry in entries]
    ranked = sorted(range(len(entries)), key=lambda i: (len(entries[i].elements), _bits(reps[i])))
    index = {i: idx for idx, i in enumerate(ranked)}  # position in entries -> lattice index
    classes, orbits, down_sets = [], [], [0] * len(entries)
    order_counts: dict[int, int] = {}
    for idx, i in enumerate(ranked):
        orbit, elems, gens, _, above = entries[i]
        rep_mask, order = reps[i], len(elems)
        orbits.append((rep_mask,) + tuple(m for m in orbit if m != rep_mask))
        seq = order_counts.get(order, 0)
        order_counts[order] = seq + 1
        classes.append(SubgroupClass(core, rep_mask, len(gens), group.order // len(orbit) // order,
                                     core.commute(gens), f"{order}{_letters(seq)}"))
        down_sets[idx] |= 1 << idx
        for target in above:
            down_sets[index[target]] |= down_sets[idx]
    return SubgroupLattice(group, tuple(classes), tuple(down_sets), tuple(orbits))


# ---------------------------------------------------------------------------
# cosets and double cosets


class DoubleCoset:
    def __init__(self, representative: Perm, intersection: frozenset, size: int):
        self.representative, self.size = representative, size
        self.intersection = intersection  # K cap g H g^-1


class DoubleCosetDecomposition:
    def __init__(self, group: Group, left: frozenset, right: frozenset, cosets: tuple[DoubleCoset, ...]):
        self.group, self.cosets = group, cosets
        self.left, self.right = left, right  # K, H


def double_cosets(group: Group, k_sub: frozenset, h_sub: frozenset) -> DoubleCosetDecomposition:
    """Partition of G into K*g*H orbits with intersection subgroups."""
    core = group.core
    table, elements = core.table, core.elements
    ks, hs = [core.index[k] for k in k_sub], [core.index[h] for h in h_sub]
    seen = bytearray(len(elements))
    cosets = []
    for g in range(len(elements)):
        if seen[g]:
            continue
        orbit = {table[table[k][g]][h] for k in ks for h in hs}
        for x in orbit:
            seen[x] = 1
        rep = min(orbit)
        conj_h = (elements[core.conjugate(h, core.inverse[rep])] for h in hs)
        cosets.append(DoubleCoset(elements[rep], k_sub.intersection(conj_h), len(orbit)))
    return DoubleCosetDecomposition(group, k_sub, h_sub, tuple(cosets))

