"""Exact integer substrate: integer helpers and integer matrices.

The integer helpers (gcds, Bezout combinations, factorization, divisors)
serve every layer; factorization is the package's one trial division.
integer() is the grammar of an integer in every input, from table files to
command-line options.  Integer matrices get row echelon bases of streamed
row lattices.  Those eliminations alternated on rows and columns give a
Smith form's elementary divisors, with no transform matrices, and one
echelon of [M^T | I] gives an integer kernel.  The cyclotomic integers of
character values build on these helpers in cyclotomic; nothing here leaves
the integers, and the package uses no floating point.
"""

from __future__ import annotations

import re
from math import gcd, lcm
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


def factorization(n: int) -> dict[int, int]:
    """{p: e} with n the product of the p**e, primes ascending (empty for
    n < 2): divisors, Mobius values, coprime parts and abelian ranks read
    their primes and exponents here."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending (empty for n < 1)."""
    ds = [1] if n >= 1 else []
    for p, e in factorization(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def quoted(text: str) -> str:
    """repr(text), or for a text over 32 characters the repr of its first
    32 and its length, so an error message stays short."""
    if len(text) <= 32:
        return repr(text)
    return f"{text[:32]!r}... ({len(text)} characters)"


def integer(text: str) -> int:
    """An optional sign and the ASCII digits 0-9, around which text may
    have spaces.  Raises ValueError on any other text, such as other
    decimal digits or underscores, and past int()'s digit limit."""
    if not re.fullmatch("[+-]?[0-9]+", text.strip()):
        raise ValueError(f"{quoted(text)} is not an integer")
    return int(text)


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
        return cls(r, c, tuple(map(tuple, rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

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


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero elementary divisors d_1 | d_2 | ... | d_r of M, all positive.

    Built from row_echelon passes alone (Kannan and Bachem, SIAM J. Comput. 8
    (1979); Cohen, 2.4), with no transform matrices: a pass on the rows, a
    transpose, and again, until each row holds one nonzero entry.  Each pass
    is unimodular, and the zero lines it drops change no nonzero invariant.
    A pass on A alone leaves A's part exactly as the pass on [A | U] did, so
    the argument for the transform-carrying form still ends it: the entry at
    the first unfinished diagonal position only shrinks, since each pass's
    value is the gcd of a row or column holding the last one, and once it
    divides its row and column both passes leave them cleared.  Replacing
    each pair d_i, d_j (i < j) by their gcd and lcm then gives the chain.
    """
    a, cols = m.entries, m.cols
    while True:
        a = row_echelon(a, cols)
        if all(sum(1 for x in row if x) == 1 for row in a):
            break
        a, cols = zip(*a), len(a)
    d = [max(row) for row in a]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


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
    the I parts of the rows of the echelon of [M^T | I] whose M^T part is zero."""
    n = m.cols
    rows = row_echelon((r + e for r, e in zip(m.transpose().entries, IntMatrix.identity(n).entries)), m.rows + n)
    return [row[m.rows:] for row in rows if not any(row[:m.rows])]
