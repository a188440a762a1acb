"""Exact character tables and representation-ring data for finite groups.

A character table is its group and its rows of values: each row is a tuple
of cyclotomic values, one per class of conjugacy_classes(group), and row[0]
is the degree.  ClassFunction pairs a group with such a tuple for induce,
restrict and conjugate_function, which no command calls.  A table lives
on G's index core (GroupCore), as does every groups.Group: G's own on G,
the core's full mask, a subgroup's on the subgroup's mask, whose classes
are keyed by G's indices, so values move between G and its subgroups by
element index, and permutation tuples only name class representatives in
table files.  Every loop over elements, in the class matrices, power maps,
conjugation by g and linear characters, runs on element indices and the
index form of the classes (groups.ConjugacyClasses).  Induction reads the
count of groups that also gives the marks at single elements, |C_G(g)| *
|g^G cap S| from class bitmasks: no coset is walked (Serre, Linear
Representations of Finite Groups (1977), 7.2).  The equalizer does not call
restrict: it reads G's characters on a subgroup through one class-fusion
list per subgroup (restriction).

Character tables are either loaded from validated fixture files or computed
exactly: abelian groups by extending each character generator by generator
(linear_characters), the rest by Dixon's method as revised by Schneider.
The common eigenvectors of the class matrices over F_p, with p = 1 mod
exp(G), give each irreducible character mod p.  Each class matrix in turn
splits every space found so far: its eigenvalues there are the roots in F_p
of one characteristic polynomial, and each eigenspace is read from one
echelon form.  Each value is lifted exactly from the multiplicities of the
eigenvalues of g, integers in [0, chi(1)], at the exponent of G (a loaded
table keeps its file's conductor).  A returned table has passed the row
orthogonality relation, which implies the column one for a square table.

Character values are cyclotomic integers (cyclotomic.Cyclotomic), so pairings
sum_i w_i a_i conj(b_i), that is inner products, the orthogonality
relation and the coordinates of a virtual character in the irreducible
basis, run on plain integers.  Each value becomes (exponent, integer
coefficient) pairs at n, the lcm of the conductors; conjugation negates
exponents mod n.  The products accumulate in one length-n integer vector,
an element of Z[x]/(x^n - 1), which is reduced once modulo Phi_n unless it
is already rational.  A pairing is rational exactly when that leaves
(e, 0, ..., 0), and only the division of e by |G| leaves the integers.
Each table keeps its size-weighted, conjugated rows per n, and one routine
pairs a class function with all of them (CharacterTable._pairings):
validation pairs each row with the table, and a coordinate is one such
pairing divided by |G|.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import count
from typing import Sequence

from .cyclotomic import Cyclotomic, cyclotomic_polynomial, reduce_mod_phi
from .exact import factorization, integer, quoted
from .groups import (
    Group,
    Perm,
    conjugacy_classes,
    ConjugacyClasses,
    exponent,
    perm_to_cycles,
    parse_cycles,
    _bits,
    _mask,
)


class CharacterError(Exception):
    exit_code = 2  # an input error


class MalformedEntry(CharacterError):
    """A table file entry is not a valid cyclotomic expression."""


class OrthogonalityFailure(CharacterError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"rows {i} and {j} violate orthogonality")


class DegreeSumMismatch(CharacterError):
    pass


class ClassFunction:
    """A cyclotomic-valued function on the element classes of a group, one
    value per class of conjugacy_classes(group)."""

    def __init__(self, group: Group, values: tuple[Cyclotomic, ...]):
        self.group, self.classes, self.values = group, conjugacy_classes(group), values

    def __eq__(self, other):
        return isinstance(other, ClassFunction) and all(a == b for a, b in zip(self.values, other.values)) \
            and len(self.values) == len(other.values)


def _spread(values: Sequence[Cyclotomic], n: int, weights: Sequence[int] | None = None,
            conjugate: bool = False) -> list[list[tuple[int, int]]]:
    """Each value, times its weight, as (exponent, integer coefficient) pairs
    at conductor n.  Conjugation is exponent negation mod n."""
    out = []
    for i, v in enumerate(values):
        step = -(n // v.conductor) if conjugate else n // v.conductor
        w = weights[i] if weights else 1
        out.append([(k * step % n, c * w) for k, c in enumerate(v.coeffs) if c])
    return out


def _convolve(left: list[list[tuple[int, int]]], right: list[list[tuple[int, int]]], n: int) -> list[int]:
    """sum_i left_i * right_i in Z[x]/(x^n - 1), reduced modulo Phi_n:
    power-basis coefficients.  A rational sum is already reduced."""
    acc = [0] * n
    for ls, rs in zip(left, right, strict=True):
        for e, a in ls:
            for f, b in rs:
                acc[(e + f) % n] += a * b
    if not any(acc[1:]):
        return [acc[0]] + [0] * (len(cyclotomic_polynomial(n)) - 2)
    return reduce_mod_phi(acc, n)


# ---------------------------------------------------------------------------
# induction, restriction, conjugation


def induce(xi: ClassFunction, group: Group) -> ClassFunction:
    """ind_H^G xi at g: |C_G(g)|/|H| * sum of xi(h) over h in g^G cap H
    (Serre, Linear Representations of Finite Groups, 7.2).

    The elements of H are bucketed by their class in H, which lies in one
    class of G; the class h^H adds |C_G(g)| * |h^H| / |H| = [C_G(h) : C_H(h)]
    times xi(h) to the value at its G-class.  H is a view of G's core."""
    classes = conjugacy_classes(group)
    conductor = xi.values[0].conductor if xi.values else 1
    values = [Cyclotomic.zero(conductor)] * len(classes.members)
    for cls, mask, value in zip(xi.classes.members, xi.classes.masks, xi.values):
        c = classes.class_of[cls[0]]
        values[c] = values[c] + value * (classes.conjugators_into(c, mask) // xi.group.order)
    return ClassFunction(group, tuple(values))


def restrict(chi: ClassFunction, subgroup: Group) -> ClassFunction:
    """Pull values back along the inclusion of a subgroup on chi's core."""
    values = tuple(chi.values[chi.classes.class_of[cls[0]]] for cls in conjugacy_classes(subgroup).members)
    return ClassFunction(subgroup, values)


def conjugate_function(xi: ClassFunction, g: Perm, parent: Group) -> ClassFunction:
    """Transport xi on H to g H g^-1 by x -> xi(g^-1 x g), on parent's core."""
    core = parent.core
    c = core.index[g]
    ci = core.inverse[c]
    target = Group(core, _mask(core.conjugate(h, ci) for h in _bits(xi.group.mask)))
    values = tuple(xi.values[xi.classes.class_of[core.conjugate(cls[0], c)]]
                   for cls in conjugacy_classes(target).members)
    return ClassFunction(target, values)


# ---------------------------------------------------------------------------
# character tables


class CharacterTable:
    """The irreducible characters of a group, each row a tuple of values,
    one per class of conjugacy_classes(group)."""

    def __init__(self, group: Group, rows: tuple[tuple[Cyclotomic, ...], ...]):
        self.group, self.classes, self.rows = group, conjugacy_classes(group), rows
        # conductor n -> per row, size-weighted conjugated values at n
        self._weighted_rows: dict = {}
        validate_table(self)

    @property
    def size(self) -> int:
        return len(self.rows)

    @cached_property
    def conductor(self) -> int:
        """The lcm of the conductors of the table's values."""
        return math.lcm(1, *(v.conductor for row in self.rows for v in row))

    def _pairings(self, values: Sequence[Cyclotomic]) -> list[list[int]]:
        """|G| <v, chi_i> = sum_c |c| v(c) conj(chi_i(c)) per row chi_i, in power-basis
        coordinates at n, the lcm of the conductors of the table and of v."""
        n = math.lcm(self.conductor, *(v.conductor for v in values))
        if n not in self._weighted_rows:
            self._weighted_rows[n] = [_spread(row, n, self.classes.sizes, conjugate=True)
                                      for row in self.rows]
        terms = _spread(values, n)
        return [_convolve(terms, row_terms, n) for row_terms in self._weighted_rows[n]]

    def coordinates(self, values: Sequence[Cyclotomic]) -> list[int]:
        """Integer coordinates of a virtual character, given by its values on
        the table's classes, in the irreducible basis."""
        order = self.group.order
        out = []
        for i, coeffs in enumerate(self._pairings(values)):
            if any(coeffs[1:]):
                n = math.lcm(self.conductor, *(v.conductor for v in values))
                raise CharacterError(f"inner product with row {i} is {Cyclotomic(n, coeffs)!r} / {order}, "
                                     "not rational")
            if coeffs[0] % order:
                g = math.gcd(coeffs[0], order)
                raise CharacterError(f"inner product {coeffs[0] // g}/{order // g} is not an integer")
            out.append(coeffs[0] // order)
        return out


def validate_table(table: CharacterTable) -> None:
    group = table.group
    rows = table.rows
    n_classes = len(table.classes.members)
    if len(rows) != n_classes:
        raise DegreeSumMismatch(f"{len(rows)} rows for {n_classes} classes")
    degrees = []
    for i, row in enumerate(rows):
        if len(row) != n_classes:
            raise CharacterError(f"row {i} has {len(row)} values for {n_classes} classes")
        if not row[0].is_rational() or row[0].as_rational() <= 0:
            raise DegreeSumMismatch(f"bad degree {_format_cyclotomic(row[0])}")
        degrees.append(row[0].as_rational())
    if sum(d * d for d in degrees) != group.order:
        raise DegreeSumMismatch(f"degree squares sum to {sum(d * d for d in degrees)}, not {group.order}")
    if any(not v == 1 for v in rows[0]):
        raise CharacterError("first row must be the trivial character")
    # For the square X[i][c] = chi_i(c) and D = diag(|c|), the row relation
    # X D X* = |G| I gives X* X = |G| D^-1, the column relation (Serre, Linear
    # Representations of Finite Groups (1977), 2.5).  OrthogonalityFailure
    # names the first failing i <= j: each j < i passed as (j, i).
    for i, row in enumerate(rows):
        for j, coeffs in enumerate(table._pairings(row)):
            if coeffs[0] != (group.order if i == j else 0) or any(coeffs[1:]):
                raise OrthogonalityFailure(i, j)


def linear_characters(group: Group) -> list[tuple[Cyclotomic, ...]]:
    """The |G| characters of an abelian group G, as rows of values at its
    exponent e, built by extension along its generators.

    Let H be generated by the generators before g, and m the least exponent
    with g^m in H.  The cosets H g^j, 0 <= j < m, make up <H, g>, and each
    character chi of H has exactly m extensions: chi(g) = zeta_e^t with
    m t = chi(g^m) mod e, and chi(h g^j) = chi(h) chi(g)^j.  As g^m has order
    |g| / m, which divides e / m, the exponent of chi(g^m) is a multiple of m."""
    classes, core, e = conjugacy_classes(group), group.core, exponent(group)
    elems, position = [0], {0: 0}  # the elements of H, and the position of each
    chars = [[0]]  # chars[i][r] = k with chi_i(elems[r]) = zeta_e^k
    for g in group.gens:
        powers = [0, g]
        while powers[-1] not in position:
            powers.append(core.table[powers[-1]][g])
        m, at = len(powers) - 1, position[powers[-1]]
        chars = [[(k + j * t) % e for j in range(m) for k in chi]
                 for chi in chars for t in range(chi[at] // m, e, e // m)]
        elems = [core.table[h][x] for x in powers[:m] for h in elems]
        position = {x: r for r, x in enumerate(elems)}
    zetas = [Cyclotomic.zeta(e, k) for k in range(e)]
    return [tuple(zetas[chi[position[cls[0]]]] for cls in classes.members) for chi in chars]


def character_table(group: Group) -> CharacterTable:
    """Exact character table, its values at the exponent of the group."""
    rows = linear_characters(group) if group.core.commute(group.gens) else _dixon_schneider(group)
    return CharacterTable(group, tuple(_order_rows(rows)))


def _dixon_schneider(group: Group) -> list[tuple[Cyclotomic, ...]]:
    """The irreducible characters, from the common eigenvectors of the class
    matrices over F_p, each value lifted exactly to Z[zeta_e], e = exp(G)."""
    core, order, e, classes = group.core, group.order, exponent(group), conjugacy_classes(group)
    members, class_of = classes.members, classes.class_of
    reps, sizes, k = [cls[0] for cls in members], classes.sizes, len(members)
    # F_p holds the e-th roots of unity as p = 1 mod e; p^2 > 4|G| makes the
    # degree the only root of its square in [1, sqrt|G|], and p prime to |G|
    p = next(q for q in count(e + 1, e) if q * q > 4 * order and factorization(q) == {q: 1})
    root = next(a for a in range(2, p) if all(pow(a, (p - 1) // q, p) != 1 for q in factorization(p - 1)))
    zetas = [pow(root, (p - 1) // e * t, p) for t in range(e)]
    spaces = [[[int(r == s) for s in range(k)] for r in range(k)]]
    for j in range(1, k):
        if len(spaces) == k:
            break
        matrix = _class_matrix(group, classes, j)
        spaces = [piece for space in spaces for piece in _eigenspaces(space, matrix, p)]
    inverse_class = [class_of[core.inverse[x]] for x in reps]
    power_classes = [[class_of[core.power(x, i)] for i in range(core.orders[x])] for x in reps]
    rows = []
    for (w,) in spaces:  # echelon form makes w_1 = omega(1) = 1
        norm = sum(w[s] * w[inverse_class[s]] * pow(sizes[s], -1, p) for s in range(k))
        square = order * pow(norm, -1, p) % p
        degree = next(d for d in range(1, math.isqrt(order) + 1) if (d * d - square) % p == 0)
        chi = [degree * w[s] * pow(sizes[s], -1, p) % p for s in range(k)]
        values = []
        for powers in power_classes:
            # chi(g) = sum_l m_l zeta_o^l, with multiplicities m_l in [0, chi(1)]
            o = len(powers)
            coeffs = [0] * e
            for l in range(o):
                total = sum(chi[c] * zetas[-(e // o) * l * i % e] for i, c in enumerate(powers))
                coeffs[e // o * l] = total * pow(o, -1, p) % p
            values.append(Cyclotomic(e, coeffs))
        rows.append(tuple(values))
    return rows


def _class_matrix(group: Group, classes: ConjugacyClasses, j: int) -> list[list[int]]:
    """A_j[r][s] = #{x in C_j : x^-1 g_s in C_r}, so A_j w = omega(C_j) w for
    the central character w_s = omega(C_s) = |C_s| chi(g_s) / chi(1)."""
    core, class_of, k = group.core, classes.class_of, len(classes.members)
    matrix = [[0] * k for _ in range(k)]
    for s, (g, *_) in enumerate(classes.members):
        for x in classes.members[j]:
            matrix[class_of[core.table[core.inverse[x]][g]]][s] += 1
    return matrix


def _eigenspaces(basis: list[list[int]], matrix: list[list[int]], p: int) -> list[list[list[int]]]:
    """The eigenspaces mod p of a class matrix A on a space it maps into
    itself, as reduced echelon bases in ascending order of eigenvalue.

    With the basis v_1..v_d in reduced echelon form, A v_i = sum_j B[i][j] v_j
    where B[i][j] is (A v_i) at the pivot of v_j, and c B = lam c exactly
    when sum_i c_i v_i is an eigenvector.  The eigenvalues are the roots of
    B's characteristic polynomial, found by evaluating it at every lam in
    F_p.  For each root, the rows [B - lam | I] in echelon form with zero
    left half give a reduced echelon basis c of the left kernel, and
    sum_i c_i v_i is one too: it equals c at the pivots of the v_i, and the
    v_i vanish before their pivots."""
    d = len(basis)
    if d == 1:
        return [basis]
    pivots = [next(s for s, v in enumerate(vector) if v) for vector in basis]
    restricted = [[sum(a * b for a, b in zip(matrix[r], vector)) % p for r in pivots] for vector in basis]
    poly, columns = _charpoly(restricted, p), list(zip(*basis))
    pieces = []
    for lam in range(p):
        value = 0
        for c in reversed(poly):
            value = (value * lam + c) % p
        if value:
            continue
        reduced, cols = _echelon([[b - lam * (i == j) for j, b in enumerate(row)] + [int(i == j) for j in range(d)]
                                  for i, row in enumerate(restricted)], p)
        pieces.append([[sum(c * v for c, v in zip(row[d:], column)) % p for column in columns]
                       for row, col in zip(reduced, cols) if col >= d])
    return pieces


def _charpoly(matrix: list[list[int]], p: int) -> list[int]:
    """det(x I - B) mod p, little-endian.  B is first brought to upper
    Hessenberg form H by similarity, then the leading minors of x I - H
    follow a recurrence down the last column (Cohen, A Course in
    Computational Algebraic Number Theory (1993), 2.2.9).  Nothing is
    divided by the dimension, so every p will do."""
    h = [[v % p for v in row] for row in matrix]
    d = len(h)
    for m in range(1, d - 1):
        hit = next((r for r in range(m, d) if h[r][m - 1]), None)
        if hit is None:
            continue
        h[m], h[hit] = h[hit], h[m]
        for row in h:
            row[m], row[hit] = row[hit], row[m]
        scale = pow(h[m][m - 1], -1, p)
        for r in range(m + 1, d):
            u = h[r][m - 1] * scale % p
            if u:
                # row r -= u row m, then column m += u column r: E H E^-1
                h[r] = [(a - u * b) % p for a, b in zip(h[r], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[r]) % p
    minors = [[1]]
    for m in range(d):
        poly = [0] + minors[m]
        for i, c in enumerate(minors[m]):
            poly[i] -= h[m][m] * c
        below = 1
        for i in range(m - 1, -1, -1):
            below = below * h[i + 1][i] % p
            f = below * h[i][m]
            for j, c in enumerate(minors[i]):
                poly[j] -= f * c
        minors.append([c % p for c in poly])
    return minors[d]


def _echelon(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p, zero rows dropped, and its pivot columns."""
    rows = [[v % p for v in row] for row in rows]
    cols: list[int] = []
    for col in range(len(rows[0])):
        i = len(cols)
        hit = next((r for r in range(i, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[i], rows[hit] = rows[hit], rows[i]
        scale = pow(rows[i][col], -1, p)
        rows[i] = [v * scale % p for v in rows[i]]
        for r in range(len(rows)):
            if r != i and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[i])]
        cols.append(col)
    return rows[:len(cols)], cols


def _order_rows(rows: list[tuple[Cyclotomic, ...]]) -> list[tuple[Cyclotomic, ...]]:
    """Rows by degree, then coefficients, except that the trivial character
    comes first, so that validation's first-row check is meaningful."""
    return sorted(rows, key=lambda chi: (chi[0].as_rational(), not all(v == 1 for v in chi),
                                         [tuple(v.coeffs) for v in chi]))


# ---------------------------------------------------------------------------
# character table files


_TERM_RE = re.compile(r"^(?:([+-]?[0-9]+)|([+-]))?(?:(?:\*)?z(?:\^([0-9]+))?)?$")


def _parse_cyclotomic_entry(text: str, conductor: int) -> Cyclotomic:
    """A row entry: terms c, c*z^k, c*z, z^k and z, each signed.  A term
    from the split holds a character other than a sign, so a match without
    z has its digits."""
    cleaned = text.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", cleaned)
    if "".join(terms) != cleaned:
        raise MalformedEntry(f"cannot split {quoted(text)} into terms")
    coeffs = [0] * conductor
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise MalformedEntry(f"bad term {quoted(term)} in {quoted(text)}")
        digits, bare_sign, power = m.groups()
        coeff = _integer(digits, text) if digits is not None else (-1 if bare_sign == "-" else 1)
        k = _integer(power, text) if power else int("z" in term)
        coeffs[k % conductor] += coeff
    return Cyclotomic(conductor, coeffs)


def load_character_table(path: str, group: Group) -> CharacterTable:
    """Load and validate a character table file for a group, G or a
    subgroup of G on G's core.

    Format: `group:` and `conductor:` headers, one `class: <cycles> <size>`
    line per conjugacy class (representative in cycle notation), then one
    `row:` line per irreducible with entries like `2`, `-1`, `z^2`, `1+z`.
    The conductor must divide 2 * exp(G): every subgroup's values lie in
    Q(zeta_exp(G)), and the factor 2 admits zeta_2m spellings for odd m.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [ln.strip() for ln in handle if ln.strip() and not ln.strip().startswith("#")]
    except UnicodeDecodeError as exc:
        raise MalformedEntry(f"{path} is not UTF-8 text: {exc}") from exc
    conductor = None
    class_reps: list[Perm] = []
    class_sizes: list[int] = []
    raw_rows: list[list[str]] = []
    for line in lines:
        if line.lower().startswith("group:"):
            continue
        if line.lower().startswith("conductor:"):
            conductor = _integer(line.split(":", 1)[1], line)
            continue
        if line.lower().startswith("class:"):
            parts = line.split(":", 1)[1].strip().rsplit(None, 1)
            if len(parts) != 2:
                raise MalformedEntry(f"class line {quoted(line)} needs a representative and a size")
            class_reps.append(parse_cycles(parts[0].strip(), degree=group.core.degree))
            class_sizes.append(_integer(parts[1], line))
            continue
        if line.lower().startswith("row:"):
            raw_rows.append(line.split(":", 1)[1].split())
            continue
        raise MalformedEntry(f"unrecognized line {quoted(line)}")
    if conductor is None:
        raise MalformedEntry("missing conductor header")
    if conductor < 1:
        raise MalformedEntry(f"conductor must be positive, not {conductor}")
    e = math.lcm(*group.core.orders)
    if 2 * e % conductor:
        raise MalformedEntry(f"conductor {conductor} does not divide 2 * exp(G) = 2 * {e}")
    classes = conjugacy_classes(group)
    if len(class_reps) != len(classes.members):
        raise MalformedEntry(
            f"file has {len(class_reps)} classes, group has {len(classes.members)}"
        )
    # map file columns onto the group's class order via the representatives
    column_of: list[int] = []
    for rep, size in zip(class_reps, class_sizes):
        x = group.core.index.get(rep)
        if x is None or not group.mask >> x & 1:
            raise MalformedEntry(f"representative {perm_to_cycles(rep)} not in group")
        idx = classes.class_of[x]
        if classes.sizes[idx] != size:
            raise MalformedEntry(f"class {perm_to_cycles(rep)} has size {classes.sizes[idx]}, file says {size}")
        column_of.append(idx)
    if sorted(column_of) != list(range(len(classes.members))):
        raise MalformedEntry("file classes do not cover the group's classes")
    rows = []
    for raw in raw_rows:
        if len(raw) != len(class_reps):
            raise MalformedEntry(f"row has {len(raw)} entries for {len(class_reps)} classes")
        values: list[Cyclotomic | None] = [None] * len(class_reps)
        for text, col in zip(raw, column_of):
            values[col] = _parse_cyclotomic_entry(text, conductor)
        rows.append(tuple(values))
    trivial_first = sorted(rows, key=lambda r: not all(v == 1 for v in r))
    table = CharacterTable(group, tuple(trivial_first))
    _check_power_maps(table)
    return table


def _integer(text: str, line: str) -> int:
    """exact.integer of text, or MalformedEntry naming the line it is from."""
    try:
        return integer(text)
    except ValueError:
        raise MalformedEntry(f"{quoted(text.strip())} in {quoted(line)} is not an integer") from None


def _check_power_maps(table: CharacterTable) -> None:
    """Raise CharacterError unless chi(g^a) = sigma_a(chi(g)) for every row
    chi, class representative g and a prime to m = lcm(conductor, |g|),
    where sigma_a sends zeta_m to zeta_m^a.  Columns that name the wrong
    classes can still pass validate_table (swapping two columns of equal
    class size keeps both orthogonality relations); this catches them from
    the table alone.  m takes |g| in, since a file may give a rational
    column of an element whose order does not divide its conductor."""
    core = table.group.core
    classes = table.classes
    for c, (x, *_) in enumerate(classes.members):
        m = math.lcm(table.conductor, core.orders[x])
        for a in range(2, m):
            if math.gcd(a, m) != 1:
                continue
            target = classes.class_of[core.power(x, a)]
            for i, row in enumerate(table.rows):
                if row[target] != row[c].galois(a % row[c].conductor):
                    raise CharacterError(f"row {i} breaks chi(g^{a}) = sigma_{a}(chi(g)) at "
                                         f"g = {classes.label(c)}: the columns do not match "
                                         "the group's classes")


def _format_cyclotomic(value: Cyclotomic) -> str:
    parts = []
    for k, c in enumerate(value.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(f"{c:+d}")
        elif c == 1:
            parts.append(f"+z^{k}")
        elif c == -1:
            parts.append(f"-z^{k}")
        else:
            parts.append(f"{c:+d}*z^{k}")
    if not parts:
        return "0"
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text
