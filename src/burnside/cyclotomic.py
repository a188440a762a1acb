"""Cyclotomic integers, the values of characters.

Character values are sums of roots of unity, so they lie in Z[zeta_N], and
Cyclotomic keeps their power-basis coordinates as ints and takes them as
given, since every value the package builds has int coordinates.  Cyclotomic
polynomials are built over Z by Mobius inversion, and every reduction modulo
the monic Phi_N (reduce_mod_phi) stays integral.  The character layer and
the equalizer's fusion check import this module; it builds on the integer
helpers of exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from .exact import ExactError, divisors, factorization


class NotInSubfield(ExactError):
    """A cyclotomic value does not lie in the requested smaller field."""


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    exponents = factorization(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


# ---------------------------------------------------------------------------
# cyclotomic polynomials over Z, little-endian coefficient lists


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, little-endian.

    By Mobius inversion of x^n - 1 = prod_{d|n} Phi_d(x), Phi_n is the
    product of the x^d - 1 with mu(n/d) = 1, divided exactly by each x^d - 1
    with mu(n/d) = -1.
    """
    poly = [1]
    for d in divisors(n):
        if mobius(n // d) == 1:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in divisors(n):
        if mobius(n // d) == -1:
            # poly = q * (x^d - 1): top down, poly[top] is q[top - d]
            for top in range(len(poly) - 1, d - 1, -1):
                poly[top - d] += poly[top]
            assert not any(poly[:d]), "cyclotomic polynomial division must be exact"
            poly = poly[d:]
    return tuple(poly)


def reduce_mod_phi(coeffs: list[int], n: int) -> list[int]:
    """Power-basis coordinates of sum_k coeffs[k] zeta_n^k: the remainder of
    coeffs modulo the monic Phi_n, padded to phi(n) entries.  Since Phi_n is
    monic, the remainder of an integer list is integral.  Reduces in place."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    terms = [(k, p) for k, p in enumerate(phi[:d]) if p]
    for top in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[top]
        if c:
            base = top - d
            for k, p in terms:
                coeffs[base + k] -= c * p
    del coeffs[d:]
    coeffs += [0] * (d - len(coeffs))
    return coeffs


# ---------------------------------------------------------------------------
# cyclotomic integers


class Cyclotomic:
    """Element of Z[zeta_N] in the power basis 1, zeta, ..., zeta^(phi(N)-1).

    Coordinates are ints, reduced modulo the N-th cyclotomic polynomial.
    Mixed-conductor operands are aligned by embedding into the lcm conductor.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Iterable[int]):
        self.conductor = conductor
        self.coeffs = tuple(reduce_mod_phi(list(coeffs), conductor))

    # -- constructors

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "Cyclotomic":
        return cls(conductor, [0] * (power % conductor) + [1])

    @classmethod
    def zero(cls, conductor: int = 1) -> "Cyclotomic":
        return cls(conductor, [])

    # -- structure

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> int:
        if not self.is_rational():
            raise NotInSubfield(f"{self!r} is not rational")
        return self.coeffs[0]

    def to_conductor(self, target: int) -> "Cyclotomic":
        """Embed into Z[zeta_target]; target must be a multiple of the conductor."""
        if target == self.conductor:
            return self
        if target % self.conductor != 0:
            raise ValueError(f"cannot embed conductor {self.conductor} into {target}")
        step = target // self.conductor
        expanded = [0] * ((len(self.coeffs) - 1) * step + 1)
        expanded[::step] = self.coeffs
        return Cyclotomic(target, expanded)

    def galois(self, a: int) -> "Cyclotomic":
        """Apply the field automorphism zeta -> zeta^a; a must be prime to N."""
        n = self.conductor
        if math.gcd(a, n) != 1:
            raise ValueError(f"{a} is not prime to conductor {n}")
        if self.is_rational():
            return self
        out = [0] * n
        for k, c in enumerate(self.coeffs):
            out[(a * k) % n] += c
        return Cyclotomic(n, out)

    # -- arithmetic

    @staticmethod
    def _aligned(a: "Cyclotomic", b: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        if a.conductor == b.conductor:
            return a, b
        n = math.lcm(a.conductor, b.conductor)
        return a.to_conductor(n), b.to_conductor(n)

    @staticmethod
    def _coerce(value) -> "Cyclotomic":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, int):
            return Cyclotomic(1, [value])
        return NotImplemented

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = Cyclotomic._aligned(self, other)
        return Cyclotomic(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.conductor, [c * other for c in self.coeffs])
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = Cyclotomic._aligned(self, other)
        prod = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    prod[i + j] += x * y
        return Cyclotomic(a.conductor, prod)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = Cyclotomic._aligned(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-conductor equality makes a consistent hash impractical

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {[str(c) for c in self.coeffs]})"
