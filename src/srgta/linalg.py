"""Exact linear algebra on spaces of n×n matrices over a prime field.

Matrices are flattened to integer vectors and kept in reduced echelon
bases, one per cell pair (BlockBasis), so span and block dimensions fall out of
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
from itertools import product

import numpy as np

from .exactmath import DEFAULT_PRIMES


class DimMismatch(ValueError):
    pass


class ClosureBudgetExceeded(RuntimeError):
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


class BlockBasis:
    """Echelon bases of a space of block-pure matrices, one per cell pair.

    The coordinates split into cells of the given sizes.  A matrix is
    block-pure when it is zero outside one cell pair Δᵢ×Δₗ; it is held as
    that block with its pair (i, l).  A space spanned by such matrices is the
    direct sum of its per-pair parts, so its block dimensions are the dims
    of the per-pair bases and its dim is their sum.
    """

    def __init__(self, p: int | None, sizes):
        self.sizes = tuple(sizes)
        self.bases = {
            (i, l): SubspaceBasis(p, a * b)
            for (i, a), (l, b) in product(enumerate(self.sizes), repeat=2)
        }

    @property
    def dim(self) -> int:
        return sum(basis.dim for basis in self.bases.values())

    def blocks(self) -> np.ndarray:
        c = len(self.sizes)
        return np.array([[self.bases[i, l].dim for l in range(c)] for i in range(c)])

    def insert(self, pair, block) -> bool:
        """Add a block-pure matrix to the span; True iff the dimension grew."""
        return self.bases[pair].insert(block.reshape(-1))

    def contains(self, pair, block) -> bool:
        return self.bases[pair].contains(block.reshape(-1))


def _normalize(m, shape: tuple[int, int], p: int | None) -> np.ndarray:
    m = np.asarray(m)
    if m.shape != shape:
        raise DimMismatch(f"matrix shape {m.shape} != {shape}")
    if _exact(p):
        return np.array([[int(x) % p if p else int(x) for x in row] for row in m], dtype=object)
    return m.astype(np.int64) % p


def algebra_closure(
    gens,
    sizes,
    p: int | None = DEFAULT_PRIMES[0],
    cap: int | None = None,
) -> tuple[BlockBasis, list, np.ndarray]:
    """Smallest product-closed space holding the cell identities E*ᵢ and gens,
    block-pure matrices given as ((i, l), block) over cells of the given sizes.
    With one cell this is the algebra generated by I and gens.

    A space holding these seeds and closed under x ↦ g·x for each g in gens
    holds every word in them, so pushing g·x per spanning matrix x suffices;
    g·x is zero unless g's column cell is x's row cell, and only those
    products are formed.

    Returns the space, the spanning ((i, l), block) pairs actually inserted
    (any product of two with matching inner cells lies in the span, which
    the closure self-test relies on) and the seeds' block dimensions.  Raises
    ClosureBudgetExceeded once the dimension passes cap (default 4n).
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = sum(sizes)
    budget = 4 * n if cap is None else cap
    space = BlockBasis(p, sizes)
    mats: list = []

    def push(pair, m: np.ndarray) -> None:
        if space.insert(pair, m):
            mats.append((pair, m))
            if space.dim > budget:
                raise ClosureBudgetExceeded(
                    f"closure dimension exceeded {budget} on a {n}-vertex space"
                )

    gens = [((i, l), _normalize(g, (space.sizes[i], space.sizes[l]), p)) for (i, l), g in gens]
    for i, size in enumerate(space.sizes):
        push((i, i), _normalize(np.eye(size, dtype=np.int64), (size, size), p))
    for pair, g in gens:
        push(pair, g)
    seeded = space.blocks()
    lefts = [[(i, g) for (i, l), g in gens if l == k and np.any(g)] for k in range(len(sizes))]
    for (k, l), x in mats:        # mats grows while it is walked
        for i, g in lefts[k]:
            push((i, l), matmul_mod(g, x, p))
    return space, mats, seeded


def closure_product_selftest(space: BlockBasis, mats: list, p: int | None) -> None:
    """Membership of 50 random spanning-matrix products back in the span; the
    second factor is drawn among those whose row cell is the first's column
    cell, since other products are zero."""
    if not mats:
        return
    rows = {}
    for idx, ((k, _), _) in enumerate(mats):
        rows.setdefault(k, []).append(idx)
    rng = np.random.default_rng(0)
    for _ in range(50):
        i = int(rng.integers(len(mats)))
        (a, k), x = mats[i]
        j = rows[k][int(rng.integers(len(rows[k])))]
        (_, l), y = mats[j]
        if not space.contains((a, l), matmul_mod(x, y, p)):
            raise ClosureSelfTestFailed(
                f"product of spanning matrices {i} and {j} lies outside the span"
            )
