"""Exact linear algebra on spaces of n×n matrices over a prime field.

Matrices are held by coordinates, their entries or their values on classes
of entries they are constant on, and kept in triangular bases, one per cell
pair (BlockBasis), so span and block dimensions fall out of row reduction.
The field substitutes for the complex numbers: ranks of integer matrices
over GF(p) can only drop relative to the rationals, and only for finitely
many p, so agreement across two independent primes (plus an optional
all-rational mode) is the correctness bar.

Every product is matmul_mod's: BLAS float64 whenever n·(p−1)² < 2⁵³ makes it
exact, which holds for the default 20-bit primes up to the closure size guard,
exact integers otherwise, and unreduced over ℚ (p=None).  Entries are integers
on every field; over ℚ a basis keeps primitive integer rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


class NotConstantOnClasses(ValueError):
    """A matrix differs within a coordinate class it is to be held by."""


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
    """Triangular basis of a subspace of GF(p)^ncols: each row has a leading
    1 at its pivot and is zero at the pivots of the rows before it, so one
    pass over the rows in order reduces a vector.  Only the span is
    canonical, not the rows, which depend on the insertion order.

    p=None works over ℚ for the rational verification mode: each row is a
    primitive integer vector, the reduced vector divided by the gcd of its
    entries, and reduces v to row[piv]·v − v[piv]·row.  Past 31-bit primes
    the entries are Python integers too (see _exact).
    """

    p: int | None
    ncols: int
    rows: list[np.ndarray] = field(default_factory=list)
    pivots: list[int] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:  # over ℚ, scaling v by row[piv] clears v[piv] without dividing
                v = (row[piv] * v if self.p is None else v) - c * row
                if self.p is not None:
                    v %= self.p
        return v

    def insert(self, v) -> bool:
        """Add v to the span; True iff the dimension grew."""
        w = self._reduce(_normalize(v, (self.ncols,), self.p))
        nz = np.nonzero(w)[0]
        if len(nz) == 0:
            return False
        piv = int(nz[0])
        if self.p is None:
            w = w // math.gcd(*w)
        else:
            w = (w * pow(int(w[piv]), self.p - 2, self.p)) % self.p
        self.rows.append(w)
        self.pivots.append(piv)
        return True

    def contains(self, v) -> bool:
        return not np.any(self._reduce(_normalize(v, (self.ncols,), self.p)))


class BlockBasis:
    """Triangular bases of a space of block-pure matrices, one per cell pair.

    The entries split into cells of the given sizes.  A matrix is block-pure
    when it is zero outside one cell pair Δᵢ×Δₗ.  `labels[i, l]`, an integer
    array of that block's shape, splits its entries into classes numbered
    0, 1, … in the order of their first entries (row-major); every matrix of
    the space is constant on them and is held by its coordinates, its values
    at those first entries.  By default every entry is its own class, so the
    coordinates are the block's entries.  A space spanned by block-pure
    matrices is the direct sum of its per-pair parts, so its block
    dimensions are the dims of the per-pair bases and its dim is their sum.
    `counts` holds algebra_closure's work on the space: the stacked products
    it formed and the inserts it tried.
    """

    def __init__(self, p: int | None, sizes, labels=None):
        self.sizes = tuple(sizes)
        self.counts = {"products": 0, "inserts": 0}
        self.labels, self.firsts, self.bases = {}, {}, {}
        for i, l in product(range(len(self.sizes)), repeat=2):
            shape = (self.sizes[i], self.sizes[l])
            if labels is None:
                block = np.arange(shape[0] * shape[1]).reshape(shape)
            else:
                block = np.asarray(labels[i, l])
            if block.shape != shape:
                raise DimMismatch(f"labels of block {(i, l)} have shape {block.shape} != {shape}")
            flat = block.reshape(-1)
            step = np.diff(np.maximum.accumulate(flat), prepend=-1)  # 1 at a first entry
            if np.any(step > 1) or np.any(flat < 0):
                raise ValueError(f"labels of block {(i, l)} are not numbered by first entries")
            first = np.flatnonzero(step)
            self.labels[i, l] = block
            self.firsts[i, l] = first
            self.bases[i, l] = SubspaceBasis(p, len(first))

    @property
    def dim(self) -> int:
        return sum(basis.dim for basis in self.bases.values())

    def blocks(self) -> np.ndarray:
        c = len(self.sizes)
        return np.array([[self.bases[i, l].dim for l in range(c)] for i in range(c)])

    def dense(self, pair, x) -> np.ndarray:
        """The block of the matrix with coordinates x."""
        labels = self.labels[pair]
        if len(self.firsts[pair]) == labels.size:  # every entry is its own class
            return x.reshape(labels.shape)
        return x.reshape(-1)[labels]

    def coordinates(self, pair, block) -> np.ndarray:
        """The coordinates of a block; NotConstantOnClasses if it has none."""
        if len(self.firsts[pair]) == block.size:
            return block.reshape(-1)
        x = block.reshape(-1)[self.firsts[pair]]
        if np.any(x[self.labels[pair]] != block):
            raise NotConstantOnClasses(f"a block {pair} matrix differs within a coordinate class")
        return x

    def insert(self, pair, x) -> bool:
        """Add a block-pure matrix, given by its coordinates, to the span;
        True iff the dimension grew."""
        return self.bases[pair].insert(x.reshape(-1))

    def contains(self, pair, x) -> bool:
        return self.bases[pair].contains(x.reshape(-1))


def _normalize(m, shape: tuple, p: int | None) -> np.ndarray:
    """A matrix or vector of the given shape with its entries in the field:
    integers, reduced mod p, and Python integers where the arithmetic is
    exact (see _exact).  On every field an entry that does not equal an
    integer raises ValueError.  A list is read as Python objects, so numpy
    rounds no large integer of it through float64."""
    m = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    if m.shape != shape:
        raise DimMismatch(f"shape {m.shape} != {shape}")
    kind = m.dtype.kind
    if (kind in "bi" or kind == "u" and m.dtype.itemsize < 8) and not _exact(p):  # int64 holds them
        return m.astype(np.int64, copy=False) % p
    flat = m.reshape(-1).tolist()
    try:
        ints = [int(x) for x in flat]
        if ints != flat:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError("entries must be integers") from None
    if p:
        ints = [x % p for x in ints]
    return np.array(ints, dtype=object if _exact(p) else np.int64).reshape(shape)


def _left_operators(space: BlockBasis, gens) -> dict:
    """x ↦ g·x on coordinates, for the generators g of block (i, k): for
    each (k, l), None if no g has column cell k, else (ops, gather, bounds)
    such that the coordinates of every g·x, x in block (k, l), are
    matmul_mod(ops, space.dense((k, l), x), p).reshape(-1)[gather][start:
    stop] for the (i, start, stop) of bounds; gather is None where it would
    take every entry in order.  Only the rows of g that hold the first entry
    of some class of a block (i, ·) are multiplied: for a group's orbitals,
    one row per orbit of the group on Δᵢ (the least of it), so one row when
    the group is transitive on Δᵢ and every row when it is trivial."""
    c, sizes = len(space.sizes), space.sizes
    rows, where = {}, {}  # the rows of cell i multiplied, and each row's place among them
    for i in range(c):
        used = np.zeros(sizes[i], dtype=bool)
        for l in range(c):
            used[space.firsts[i, l] // sizes[l]] = True
        rows[i], where[i] = np.flatnonzero(used), used.cumsum() - 1
    lefts = {}
    for k in range(c):
        mine = [(i, g) for (i, inner), g in gens if inner == k]
        if not mine:
            lefts.update({(k, l): None for l in range(c)})
            continue
        offsets = np.cumsum([0] + [len(rows[i]) for i, _ in mine])
        ops = np.concatenate([g[rows[i]] for i, g in mine])
        for l in range(c):
            ends = np.cumsum([0] + [len(space.firsts[i, l]) for i, _ in mine])
            bounds = [(i, a, b) for (i, _), a, b in zip(mine, ends, ends[1:])]
            if ends[-1] == len(ops) * sizes[l]:  # every entry is a coordinate, in order
                lefts[k, l] = ops, None, bounds
                continue
            gather = []
            for (i, _), offset in zip(mine, offsets):
                r, cols = np.divmod(space.firsts[i, l], sizes[l])
                gather.append((offset + where[i][r]) * sizes[l] + cols)
            lefts[k, l] = ops, np.concatenate(gather), bounds
    return lefts


def algebra_closure(
    gens,
    sizes,
    p: int | None = DEFAULT_PRIMES[0],
    cap: int | None = None,
    labels=None,
    seeds=(),
) -> tuple[BlockBasis, list, np.ndarray]:
    """Smallest space holding the cell identities E*ᵢ, gens and seeds and
    closed under left multiplication by gens, all block-pure matrices given
    as ((i, l), block) over cells of the given sizes.  Seeds are pushed but
    never multiply; the caller vouches that each lies in the algebra the
    E*ᵢ and gens generate, which the space then is.  With one cell and no
    seeds this is the algebra generated by I and gens.

    The space is held on the coordinates of `labels` (BlockBasis), which
    the caller vouches every matrix of the closure is constant on: the
    orbitals of any permutation group that keeps the cells and commutes with
    every generator will do, the trivial group's (the default) always do.  A
    seed that is not constant on them raises NotConstantOnClasses; a product
    that is not is what closure_product_selftest catches.

    A space holding the E*ᵢ and closed under x ↦ g·x for each g in gens is
    a left module over the algebra 𝒜 they generate and holds its identity,
    so it holds 𝒜, and with the seeds in 𝒜 it is 𝒜.  So pushing g·x per
    spanning matrix x suffices; g·x is zero unless g's column cell is x's
    row cell, and only those products are formed (_left_operators).  The
    inserted matrices are walked in insertion order, all g·x of one x by one
    product.  The space's `counts` record the products formed and the
    inserts tried, seeds included.

    Returns the space, the spanning ((i, l), coordinates) pairs actually
    inserted (any product of two with matching inner cells lies in the span,
    which the closure self-test relies on) and the seeds' block dimensions.
    Raises ClosureBudgetExceeded once the dimension passes cap (default 4n,
    n the sum of the cell sizes).
    """
    if not gens:
        raise ValueError("need at least one generator")
    space = BlockBasis(p, sizes, labels)
    sizes = space.sizes

    def nonzero(mats):
        mats = [((i, l), _normalize(m, (sizes[i], sizes[l]), p)) for (i, l), m in mats]
        return [(pair, m) for pair, m in mats if m.any()]

    gens, seeds = nonzero(gens), nonzero(seeds)
    eyes = [((i, i), _normalize(np.eye(a, dtype=np.int64), (a, a), p)) for i, a in enumerate(sizes)]
    lefts = _left_operators(space, gens)
    n = sum(sizes)
    budget = 4 * n if cap is None else cap
    mats: list = []

    def push(pair, x: np.ndarray) -> None:
        space.counts["inserts"] += 1
        if space.insert(pair, x):
            mats.append((pair, x.copy()))  # a slice would keep its whole product alive
            if space.dim > budget:
                raise ClosureBudgetExceeded(
                    f"closure dimension exceeded {budget} on a {n}-vertex space"
                )

    for pair, m in eyes + gens + seeds:
        push(pair, space.coordinates(pair, m))
    seeded = space.blocks()
    for (k, l), x in mats:        # mats grows while it is walked
        if lefts[k, l] is None:
            continue
        ops, gather, bounds = lefts[k, l]
        products = matmul_mod(ops, space.dense((k, l), x), p).reshape(-1)
        space.counts["products"] += 1
        if gather is not None:
            products = products[gather]
        for i, start, stop in bounds:
            push((i, l), products[start:stop])
    return space, mats, seeded


def closure_product_selftest(space: BlockBasis, mats: list, p: int | None) -> None:
    """Membership of 50 random spanning-matrix products back in the span; the
    second factor is drawn among those whose row cell is the first's column
    cell, since other products are zero.  Each product is formed densely and
    must be constant on the coordinate classes of its cell pair."""
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
        dense = matmul_mod(space.dense((a, k), x), space.dense((k, l), y), p)
        try:
            coords = space.coordinates((a, l), dense)
        except NotConstantOnClasses as err:
            raise ClosureSelfTestFailed(
                f"product of spanning matrices {i} and {j}: {err}"
            ) from None
        if not space.contains((a, l), coords):
            raise ClosureSelfTestFailed(
                f"product of spanning matrices {i} and {j} lies outside the span"
            )
