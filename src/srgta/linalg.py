"""Exact linear algebra on spaces of n×n matrices over a prime field.

Matrices are flattened to length-n² integer vectors and kept in a reduced
echelon basis, so span dimension and the nine block dimensions fall out of
row reduction.  The field substitutes for the complex numbers: ranks of
integer matrices over GF(p) can only drop relative to the rationals, and only
for finitely many p, so agreement across two independent primes (plus an
optional all-rational mode) is the correctness bar.

Every product is matmul_mod's: BLAS float64 whenever n·(p−1)² < 2⁵³ makes it
exact, which holds for the default 20-bit primes up to the closure size guard,
exact integers otherwise, and unreduced over ℚ (p=None).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

from .exactmath import DEFAULT_PRIMES


class DimMismatch(ValueError):
    pass


class ClosureBudgetExceeded(RuntimeError):
    pass


class NotIdempotent(ValueError):
    pass


class NotPartitionOfIdentity(ValueError):
    pass


class PrimeDisagreement(RuntimeError):
    """Two prime fields produced different dimensions: modulus artefact."""


class ClosureSelfTestFailed(RuntimeError):
    """A product of spanning matrices fell outside the computed closure."""


def _exact(p: int | None) -> bool:
    """Object entries: over ℚ (None), and past 31-bit primes, where int64 overflows."""
    return p is None or p >= 2**31


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int | None) -> np.ndarray:
    """Exact product of matrices with entries in [0,p), reduced mod p; with
    p=None, the exact product of matrices over ℚ."""
    if p is None:
        return a @ b
    m = a.shape[1]
    if m * (p - 1) ** 2 < 2**53:
        return (a.astype(np.float64) @ b.astype(np.float64) % p).astype(np.int64)
    if m * (p - 1) ** 2 < 2**63 - 1:
        return (a.astype(np.int64) @ b.astype(np.int64)) % p
    return (a.astype(object) @ b.astype(object)) % p


@dataclass
class SubspaceBasis:
    """Reduced echelon basis of a subspace of GF(p)^ncols.

    p=None switches every entry to Fraction for the rational verification
    mode; the interface is identical, just slower.  Past 31-bit primes the
    entries are Python integers too (see _exact).
    """

    p: int | None
    ncols: int
    rows: list[np.ndarray] = field(default_factory=list)
    pivots: list[int] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _as_field(self, v) -> np.ndarray:
        if len(v) != self.ncols:
            raise DimMismatch(f"vector length {len(v)} != {self.ncols}")
        if self.p is None:
            return np.array(
                [x if isinstance(x, Fraction) else Fraction(int(x)) for x in v],
                dtype=object,
            )
        if _exact(self.p):
            return np.array([int(x) % self.p for x in v], dtype=object)
        return np.asarray(v, dtype=np.int64) % self.p

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                v = v - c * row
                if self.p is not None:
                    v %= self.p
        return v

    def insert(self, v) -> bool:
        """Add v to the span; True iff the dimension grew."""
        w = self._reduce(self._as_field(v))
        nz = np.nonzero(w)[0]
        if len(nz) == 0:
            return False
        piv = int(nz[0])
        lead = w[piv]
        if self.p is None:
            w = w / lead
        else:
            w = (w * pow(int(lead), self.p - 2, self.p)) % self.p
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                row = row - c * w
                if self.p is not None:
                    row %= self.p
                self.rows[i] = row
        at = int(np.searchsorted(np.asarray(self.pivots, dtype=np.int64), piv))
        self.rows.insert(at, w)
        self.pivots.insert(at, piv)
        return True

    def contains(self, v) -> bool:
        return not np.any(self._reduce(self._as_field(v)))


def _normalize(m: np.ndarray, n: int, p: int | None) -> np.ndarray:
    if m.shape != (n, n):
        raise DimMismatch(f"matrix shape {m.shape} != ({n},{n})")
    if _exact(p):
        return np.array([[int(x) % p if p else int(x) for x in row] for row in m], dtype=object)
    return np.asarray(m, dtype=np.int64) % p


def algebra_closure(
    gens: list[np.ndarray],
    n: int,
    p: int | None = DEFAULT_PRIMES[0],
    cap: int | None = None,
) -> tuple[SubspaceBasis, list[np.ndarray]]:
    """Smallest product-closed subspace containing the identity and gens.

    A subspace holding I and closed under x ↦ g·x for each g in gens holds
    every word in gens, so pushing g·x per spanning matrix x suffices.

    Returns the echelon basis together with the spanning matrices actually
    inserted; they span a product-closed space, so the product of any two
    lies in the span, which the closure self-test relies on.  Raises
    ClosureBudgetExceeded once the dimension passes cap (default 4n).
    """
    if not gens:
        raise ValueError("need at least one generator")
    budget = 4 * n if cap is None else cap
    basis = SubspaceBasis(p, n * n)
    mats: list[np.ndarray] = []

    def push(m: np.ndarray) -> None:
        if basis.insert(m.reshape(-1)):
            mats.append(m)
            if basis.dim > budget:
                raise ClosureBudgetExceeded(
                    f"closure dimension exceeded {budget} on a {n}-vertex space"
                )

    gens = [_normalize(g, n, p) for g in gens]
    push(_normalize(np.eye(n, dtype=np.int64), n, p))
    for g in gens:
        push(g)
    for x in mats:                # mats grows while it is walked
        for g in gens:
            push(matmul_mod(g, x, p))
    return basis, mats


def closure_product_selftest(basis: SubspaceBasis, mats: list[np.ndarray], p: int | None) -> None:
    """Membership of 50 random spanning-matrix products back in the span."""
    if not mats:
        return
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = rng.integers(0, len(mats), size=2)
        prod = matmul_mod(mats[int(i)], mats[int(j)], p)
        if not basis.contains(prod.reshape(-1)):
            raise ClosureSelfTestFailed(
                f"product of spanning matrices {int(i)} and {int(j)} lies outside the span"
            )


def block_dims(basis: SubspaceBasis, masks) -> np.ndarray:
    """3×3 matrix of dim span{Eᵢ·b·Eⱼ : b in the basis}.

    masks are the diagonals of the Eᵢ as 0/1 vectors; they must be genuine
    idempotents partitioning the identity.
    """
    if len(masks) != 3:
        raise NotPartitionOfIdentity("expected exactly three idempotents")
    n = isqrt(basis.ncols)
    masks = [np.asarray(m, dtype=np.int64) for m in masks]
    for m in masks:
        if m.shape != (n,) or not np.all((m == 0) | (m == 1)):
            raise NotIdempotent("diagonal entries must be 0 or 1")
    if not np.all(sum(masks) == 1):
        raise NotPartitionOfIdentity("idempotent diagonals must sum to all-ones")
    cells = [np.nonzero(m)[0] for m in masks]
    out = np.zeros((3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            sub = SubspaceBasis(basis.p, len(cells[i]) * len(cells[j]))
            for row in basis.rows:
                sub.insert(row.reshape(n, n)[np.ix_(cells[i], cells[j])].reshape(-1))
            out[i, j] = sub.dim
    return out
