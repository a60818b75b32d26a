"""Exact linear algebra on spaces of n×n matrices over a prime field.

Matrices are flattened to integer vectors, or given by coordinates in a
basis, and kept in reduced echelon bases, one per cell pair (BlockBasis),
so span and block dimensions fall out of row reduction.  The field
substitutes for the complex numbers: ranks of integer matrices over GF(p)
can only drop relative to the rationals, and only for finitely many p, so
agreement across two independent primes (plus an optional all-rational
mode) is the correctness bar.

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
    that block with its pair (i, l), or as any `widths[i][l]` coordinates of
    it.  A space spanned by such matrices is the direct sum of its per-pair
    parts, so its block dimensions are the dims of the per-pair bases and
    its dim is their sum.
    """

    def __init__(self, p: int | None, sizes, widths=None):
        self.sizes = tuple(sizes)
        if widths is None:
            widths = [[a * b for b in self.sizes] for a in self.sizes]
        c = len(self.sizes)
        self.bases = {
            (i, l): SubspaceBasis(p, int(widths[i][l])) for i, l in product(range(c), repeat=2)
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


def field_array(m, p: int | None) -> np.ndarray:
    """An integer array of any shape with its entries in the field: reduced
    mod p, and Python integers where the arithmetic is exact (see _exact)."""
    m = np.asarray(m)
    if _exact(p):
        flat = [int(x) % p if p else int(x) for x in m.reshape(-1)]
        return np.array(flat, dtype=object).reshape(m.shape)
    return m.astype(np.int64, copy=False) % p


def _normalize(m, shape: tuple[int, int], p: int | None) -> np.ndarray:
    m = np.asarray(m)
    if m.shape != shape:
        raise DimMismatch(f"matrix shape {m.shape} != {shape}")
    return field_array(m, p)


def stack_lefts(ops) -> tuple[np.ndarray, list] | None:
    """Left operators [(i, op)] on one block, stacked into one matrix, with
    the rows (i, start, stop) of each; None when there are none."""
    if not ops:
        return None
    bounds, start = [], 0
    for i, op in ops:
        bounds.append((i, start, start + len(op)))
        start += len(op)
    return np.concatenate([op for _, op in ops]), bounds


def block_closure(space: BlockBasis, seeds, lefts, p: int | None, cap: int | None = None):
    """Close the span of `seeds`, ((i, l), coordinates) pairs, in `space`
    under left operators: lefts[k, l] is stack_lefts of the (i, op) where op
    takes the coordinates of a block-(k, l) element to those of a block-(i, l)
    element as matmul_mod(op, x, p).  The inserted vectors are walked in
    insertion order and every op·x is pushed, all ops on x by one product,
    so the result is the least space holding the seeds and closed under
    every op.

    Returns the spanning pairs actually inserted and the seeds' block
    dimensions.  Raises ClosureBudgetExceeded once the dimension passes cap
    (default 4n, n the sum of the cell sizes).
    """
    n = sum(space.sizes)
    budget = 4 * n if cap is None else cap
    mats: list = []

    def push(pair, v: np.ndarray) -> None:
        if space.insert(pair, v):
            mats.append((pair, v.copy()))  # a slice would keep its whole product alive
            if space.dim > budget:
                raise ClosureBudgetExceeded(
                    f"closure dimension exceeded {budget} on a {n}-vertex space"
                )

    for pair, v in seeds:
        push(pair, v)
    seeded = space.blocks()
    for (k, l), x in mats:        # mats grows while it is walked
        if lefts[k, l] is None:
            continue
        ops, bounds = lefts[k, l]
        products = matmul_mod(ops, x, p)
        for i, start, stop in bounds:
            push((i, l), products[start:stop])
    return mats, seeded


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
    holds every word in them, so pushing g·x per spanning matrix x suffices
    (block_closure); g·x is zero unless g's column cell is x's row cell, and
    only those products are formed.

    Returns the space, the spanning ((i, l), block) pairs actually inserted
    (any product of two with matching inner cells lies in the span, which
    the closure self-test relies on) and the seeds' block dimensions.  Raises
    ClosureBudgetExceeded once the dimension passes cap (default 4n).
    """
    if not gens:
        raise ValueError("need at least one generator")
    space = BlockBasis(p, sizes)
    sizes = space.sizes
    gens = [((i, l), _normalize(g, (sizes[i], sizes[l]), p)) for (i, l), g in gens]
    eyes = [((i, i), _normalize(np.eye(a, dtype=np.int64), (a, a), p)) for i, a in enumerate(sizes)]
    by_inner = [
        stack_lefts([(i, g) for (i, inner), g in gens if inner == k and np.any(g)])
        for k in range(len(sizes))
    ]
    lefts = {(k, l): by_inner[k] for k, l in product(range(len(sizes)), repeat=2)}
    mats, seeded = block_closure(space, eyes + gens, lefts, p, cap)
    return space, mats, seeded


def closure_product_selftest(space: BlockBasis, mats: list, p: int | None, multiply=None) -> None:
    """Membership of 50 random spanning-matrix products back in the span; the
    second factor is drawn among those whose row cell is the first's column
    cell, since other products are zero.  `multiply(x_pair, x, y_pair, y)`
    gives a product in the coordinates of `space`; by default the spanning
    elements are the blocks themselves and it is matmul_mod."""
    if not mats:
        return
    if multiply is None:
        def multiply(x_pair, x, y_pair, y):
            return matmul_mod(x, y, p)
    rows = {}
    for idx, ((k, _), _) in enumerate(mats):
        rows.setdefault(k, []).append(idx)
    rng = np.random.default_rng(0)
    for _ in range(50):
        i = int(rng.integers(len(mats)))
        (a, k), x = mats[i]
        j = rows[k][int(rng.integers(len(rows[k])))]
        (_, l), y = mats[j]
        if not space.contains((a, l), multiply((a, k), x, (k, l), y)):
            raise ClosureSelfTestFailed(
                f"product of spanning matrices {i} and {j} lies outside the span"
            )
