"""Exact scalar arithmetic: quadratic extensions of Q, prime fields, GF(p^k).

Everything downstream that decides a verdict (eigenvalues, Krein signs,
span dimensions) routes through this module so that no floating point is
involved in a decision.  Floats appear only in the advisory spectral
cross-check, which lives elsewhere.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy
from sympy.polys.galoistools import gf_irreducible_p
from sympy.polys.domains import ZZ


class NotPrime(ValueError):
    pass


class DegreeZero(ValueError):
    pass


class TrivialField(ValueError):
    """The multiplicative group has no generator worth naming (|F| < 3)."""


class SizeGuardExceeded(ValueError):
    pass


#: Default modulus pair for the two-prime dimension protocol.  Both are the
#: largest primes below 2**20, small enough that an n x n integer matrix
#: product with n <= 1500 stays exact in float64 (n * (p-1)^2 < 2^53), which
#: keeps closure computations on the BLAS fast path.
DEFAULT_PRIMES = (1048573, 1048559)

_GF_SIZE_GUARD = 2**20


def guard_limit(default: int) -> int:
    """Size-guard limit, overridable by the SRGTA_SIZE_GUARD env variable."""
    raw = os.environ.get("SRGTA_SIZE_GUARD")
    if raw is None:
        return default
    return int(raw)


def check_guard(value: int, default_limit: int, what: str) -> None:
    limit = guard_limit(default_limit)
    if value > limit:
        raise SizeGuardExceeded(f"{what}: {value} exceeds size guard {limit}")


def is_prime(n: int) -> bool:
    return sympy.isprime(n)


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k, p prime, k >= 1; None if q is not one."""
    if q < 2:
        return None
    fac = sympy.factorint(q)
    if len(fac) != 1:
        return None
    (p, k), = fac.items()
    return int(p), int(k)


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*d with d squarefree; returns (s, d).  Requires n >= 0."""
    if n == 0:
        return 0, 1
    s, d = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= int(p) ** (e // 2)
        if e % 2:
            d *= int(p)
    return s, d


@dataclass(frozen=True)
class QuadExt:
    """An element a + b*sqrt(d) of a real quadratic extension of Q.

    Canonical form: d squarefree and > 1, with d = 1 and b = 0 for rational
    values.  Equality, hashing and ordering are exact; ordering uses the sign
    of a difference computed without floats.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        a, b, d = Fraction(self.a), Fraction(self.b), int(self.d)
        if d <= 0:
            raise ValueError("d must be positive")
        if b != 0 and d != 1:
            s, d0 = _squarefree_split(d)
            b, d = b * s, d0
        if b == 0 or d == 1:
            a, b, d = a + b, Fraction(0), 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def of(x) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        return QuadExt(Fraction(x), Fraction(0), 1)

    @staticmethod
    def sqrt_of(n: int) -> "QuadExt":
        if n < 0:
            raise ValueError("only real quadratic extensions are supported")
        s, d = _squarefree_split(n)
        return QuadExt(Fraction(0), Fraction(s), d) if d != 1 else QuadExt(Fraction(s), Fraction(0), 1)

    # -- predicates ------------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return f.numerator

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        o = QuadExt.of(other)
        if self.is_rational or o.is_rational or self.d == o.d:
            d = o.d if self.is_rational else self.d
            return QuadExt(self.a + o.a, self.b + o.b, d)
        raise ValueError(f"incompatible radicands {self.d} and {o.d}")

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-QuadExt.of(other))

    def __rsub__(self, other):
        return QuadExt.of(other) + (-self)

    def __mul__(self, other):
        o = QuadExt.of(other)
        if not (self.is_rational or o.is_rational or self.d == o.d):
            raise ValueError(f"incompatible radicands {self.d} and {o.d}")
        d = o.d if self.is_rational else self.d
        # (a + b r)(a' + b' r) with r^2 = d; the cross radicand term only
        # appears when both operands are irrational (then d matches).
        a = self.a * o.a + self.b * o.b * d
        b = self.a * o.b + self.b * o.a
        return QuadExt(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        nrm = self.a * self.a - self.b * self.b * self.d
        if nrm == 0:
            raise ZeroDivisionError("zero element")
        return QuadExt(self.a / nrm, -self.b / nrm, self.d)

    def __truediv__(self, other):
        return self * QuadExt.of(other).inverse()

    def __rtruediv__(self, other):
        return QuadExt.of(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = QuadExt.of(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- order -------------------------------------------------------------
    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        lhs, rhs = a * a, b * b * d  # |a|^2 vs |b sqrt(d)|^2
        if lhs == rhs:
            return 0
        big_is_a = lhs > rhs
        return (1 if a > 0 else -1) if big_is_a else (1 if b > 0 else -1)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        if self.is_rational:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        return f"{self.a}{sign}{abs(self.b)}*sqrt({self.d})"


def srg_eigenvalues(n: int, k: int, lam: int, mu: int) -> tuple[QuadExt, QuadExt]:
    """The two restricted eigenvalues (theta >= tau) of an SRG(n,k,lam,mu).

    theta, tau = ((lam - mu) +- sqrt((lam-mu)^2 + 4(k-mu))) / 2; rational
    exactly when the discriminant is a perfect square.
    """
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc < 0:
        raise ValueError("negative discriminant: not SRG parameters")
    root = QuadExt.sqrt_of(disc)
    theta = (QuadExt.of(lam - mu) + root) / 2
    tau = (QuadExt.of(lam - mu) - root) / 2
    return theta, tau


def srg_multiplicities(n: int, k: int, lam: int, mu: int) -> tuple[int, int]:
    """Multiplicities (m_theta, m_tau).  Raises if they are not integers."""
    theta, tau = srg_eigenvalues(n, k, lam, mu)
    diff = theta - tau
    m1 = (-QuadExt.of(1)) * (QuadExt.of(k) + tau * (n - 1)) / diff
    m2 = (QuadExt.of(k) + theta * (n - 1)) / diff
    return m1.as_int(), m2.as_int()


class FiniteField:
    """GF(p^k) with elements encoded as integers in [0, p^k).

    The integer e encodes the polynomial sum(c_i x^i) where the c_i are the
    base-p digits of e (little-endian).  The modulus is the lexicographically
    least monic irreducible of degree k, ordering candidates by that same
    integer encoding of their non-leading coefficients; for GF(9) this gives
    x^2 + 1 and for GF(8) x^3 + x + 1.
    """

    def __init__(self, p: int, k: int):
        if k <= 0:
            raise DegreeZero(f"extension degree must be positive, got {k}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        check_guard(p**k, _GF_SIZE_GUARD, "finite field order")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = self._least_irreducible()
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._primitive: int | None = None
        if self.q <= 4096:
            self._build_tables()

    # -- construction helpers ---------------------------------------------
    def _least_irreducible(self) -> tuple[int, ...]:
        """Monic irreducible (c_0, ..., c_{k-1}, 1), ascending coefficients."""
        p, k = self.p, self.k
        if k == 1:
            return (0, 1)
        for m in range(p**k):
            coeffs = self._digits(m)
            # sympy wants dense descending order with leading coefficient first
            dense = [1] + list(reversed(coeffs))
            if gf_irreducible_p([ZZ(c) for c in dense], p, ZZ):
                return tuple(coeffs) + (1,)
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _digits(self, e: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(e % self.p)
            e //= self.p
        return out

    def _undigits(self, cs) -> int:
        out = 0
        for c in reversed(cs):
            out = out * self.p + c % self.p
        return out

    # -- arithmetic ----------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _polymul(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        # reduce by the monic modulus
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * mod[j]
            prod[i] = 0
        return self._undigits([c % p for c in prod[:k]])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._polymul(a, b)

    def pow(self, a: int, e: int) -> int:
        e_red = e % (self.q - 1) if a != 0 else e
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 has no negative power")
            return 0
        out, base = 1, a
        while e_red:
            if e_red & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e_red >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def elements(self):
        return range(self.q)

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 is not in the multiplicative group")
        order = self.q - 1
        for r in sympy.factorint(order):
            r = int(r)
            while order % r == 0 and self.pow(a, order // r) == 1:
                order //= r
        return order

    def primitive_element(self) -> int:
        """Least element (in the integer encoding) of multiplicative order q-1."""
        if self._primitive is None:
            target = self.q - 1
            for a in range(1, self.q):
                if self.element_order(a) == target:
                    self._primitive = a
                    break
        return self._primitive

    def _build_tables(self):
        g = self.primitive_element()
        exp = [1] * (self.q - 1)
        for i in range(1, self.q - 1):
            exp[i] = self._polymul(exp[i - 1], g)
        log = [0] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def gf_construct(p: int, k: int = 1) -> FiniteField:
    return FiniteField(p, k)


def gf_primitive_element(field: FiniteField) -> int:
    if field.q < 3:
        raise TrivialField(f"|F| = {field.q}, need at least 3")
    return field.primitive_element()
