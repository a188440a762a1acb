"""Exact integer substrate: integer helpers and integer matrices.

The integer helpers (gcds and Bezout combinations, prime factors, divisors,
Euler's phi) serve every layer.  Integer matrices get Smith forms and row
echelon bases of streamed row lattices, all over Z.  The cyclotomic
integers of character values build on these helpers in cyclotomic; nothing
here leaves the integers, and no floating point is used anywhere in the
package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence


class ExactError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class GcdNotOne(ExactError):
    """The inputs to a Bezout combination are not coprime."""

    exit_code = 3  # Brauer's Bezout step combines coprime parts of |G|_n, whose gcd is 1


# ---------------------------------------------------------------------------
# integer helpers


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def extended_euclid_set(values: Sequence[int]) -> list[int]:
    """Integers z with sum(z_i * values_i) = 1, or GcdNotOne if impossible."""
    if not values:
        raise GcdNotOne("empty input")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive")
    coeffs = [1]
    g = values[0]
    for v in values[1:]:
        g, a, b = xgcd(g, v)
        coeffs = [c * a for c in coeffs] + [b]
    if g != 1:
        raise GcdNotOne(f"gcd is {g}, not 1")
    return coeffs


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending (empty for n < 2)."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending (empty for n < 1)."""
    ds = [1] if n >= 1 else []
    for p in prime_factors(n):
        powers, m = [1], n
        while m % p == 0:
            m //= p
            powers.append(powers[-1] * p)
        ds = [d * q for d in ds for q in powers]
    return sorted(ds)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        return 0
    count = n
    for p in prime_factors(n):
        count -= count // p
    return count


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix:
    """Dense matrix of arbitrary-precision integers, equal by value."""

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        self.rows, self.cols, self.entries = rows, cols, entries

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and (self.rows, self.cols, self.entries) == (
            other.rows, other.cols, other.entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(row[j] for row in self.entries) for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.entries[i]
            for k, a in enumerate(row):
                if a:
                    orow = other.entries[k]
                    for j in range(other.cols):
                        out[i][j] += a * orow[j]
        return IntMatrix(self.rows, other.cols, tuple(map(tuple, out)))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(k * v for v in row) for row in self.entries))


def _snf_pivot(a: list[list[int]], t: int) -> tuple[int, int] | None:
    """Smallest-absolute-value nonzero pivot; ties by lowest row then column."""
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return (best[1], best[2]) if best else None


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, D, V) with U*M*V = D, D diagonal, d_i | d_(i+1), d_i >= 0."""
    a = m.to_lists()
    nr, nc = m.rows, m.cols
    u = IntMatrix.identity(nr).to_lists()
    v = IntMatrix.identity(nc).to_lists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    t = 0
    while t < min(nr, nc):
        pos = _snf_pivot(a, t)
        if pos is None:
            break
        while True:
            pos = _snf_pivot(a, t)
            swap_rows(t, pos[0])
            swap_cols(t, pos[1])
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // pivot
                    add_row(t, i, -q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // pivot
                    add_col(t, j, -q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot now divides and has cleared its row and column;
            # enforce divisibility into the remaining block
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return IntMatrix.from_rows(u), IntMatrix.from_rows(a), IntMatrix.from_rows(v)


def row_echelon(rows: Iterable[Sequence[int]], cols: int) -> list[list[int]]:
    """A basis of the integer row lattice of rows, in row echelon form: the
    leading column of row t increases strictly with t, and every leading
    entry is positive.

    Rows are consumed one at a time (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4), so memory stays at cols rows however many
    arrive.  A row is reduced at each of its leading columns against the
    basis row leading there: by a multiple of it when its entry divides, and
    otherwise by the unimodular pair of combinations, from xgcd, that leaves
    the gcd in the basis row and zero in the incoming one.  A row with no
    basis row at its leading column joins the basis; a zero row is dropped.
    """
    basis: dict[int, list[int]] = {}  # leading column -> row
    for row in rows:
        v = list(row)
        p = next((j for j in range(cols) if v[j]), cols)
        while p < cols:
            h = basis.get(p)
            if h is None:
                basis[p] = v if v[p] > 0 else [-x for x in v]
                break
            a, b = h[p], v[p]
            if b % a:
                g, x, y = xgcd(a, b)
                basis[p] = [x * s + y * t for s, t in zip(h, v)]
                v = [a // g * t - b // g * s for s, t in zip(h, v)]
            else:
                v = [t - b // a * s for s, t in zip(h, v)]
            p = next((j for j in range(p + 1, cols) if v[j]), cols)
    return [basis[p] for p in sorted(basis)]


def integer_kernel_basis(m: IntMatrix) -> list[list[int]]:
    """Basis of the integer kernel {x : M*x = 0}, as a list of column vectors:
    the columns of V in U*M*V = D past the nonzero diagonal of D."""
    _, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(d.rows, d.cols)) if d.entries[i][i])
    return [[row[j] for row in v.entries] for j in range(rank, m.cols)]
