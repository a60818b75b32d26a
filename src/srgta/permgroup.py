"""Permutation groups: orbits, an incremental deterministic Schreier-Sims
chain, stabilizers, and orbit/orbital counting.

Permutations cross the API as tuples of images of 0..n-1 (`Perm`); inside,
they are numpy integer arrays.  Composition is (p * q)(x) = p(q(x)), i.e. q
acts first, which on arrays is the gather p[q]; an inverse is one scatter.

A chain grows one generator at a time (Seress, *Permutation Group
Algorithms*, 2003, ch. 4): `extend` sifts the generator, makes its residue a
strong generator of every level it reaches, grows those levels' orbits and
coset representatives, and sifts only the Schreier generators that are new,
those of new orbit points and those of the new generator.  When the order
is known in advance, as when a chain is rebased, building stops as soon as
the product of the orbit lengths reaches it.  Nothing is randomized, so
chains are reproducible, which the golden tests rely on.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .graphcore import ParseError, VertexOutOfRange

Perm = tuple[int, ...]


class DegreeMismatch(ValueError):
    pass


class CellNotInvariant(ValueError):
    pass


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(np.asarray(p)[np.asarray(q)].tolist())


def inverse(p: Perm) -> Perm:
    out = np.empty(len(p), dtype=np.intp)
    out[np.asarray(p, dtype=np.intp)] = np.arange(len(p))
    return tuple(out.tolist())


def _check_degrees(gens) -> int | None:
    degs = {len(g) for g in gens}
    if len(degs) > 1:
        raise DegreeMismatch(f"mixed degrees {sorted(degs)}")
    return degs.pop() if degs else None


def _as_arrays(gens, n: int) -> np.ndarray:
    """The generators as the rows of an int array, after a degree check."""
    d = _check_degrees(gens)
    if d is not None and d != n:
        raise DegreeMismatch(f"generators have degree {d}, expected {n}")
    return np.array(gens, dtype=np.intp).reshape(len(gens), n)


def _orbit_labels(perms, n: int) -> np.ndarray:
    """Least point of each point's orbit under the permutations `perms`.

    A vectorized union-find: each round hooks, for every x and generator p,
    the larger of the labels of x and p(x) onto the smaller, then follows
    labels to their roots.  A label is always a point of the same orbit and
    never above its point, so once no hook changes anything the labels are
    constant on orbits and name each orbit's least point.
    """
    labels = np.arange(n)
    while True:
        hooked = False
        for p in perms:
            image = labels[p]
            lo, hi = np.minimum(labels, image), np.maximum(labels, image)
            moved = lo < hi
            if moved.any():
                np.minimum.at(labels, hi[moved], lo[moved])
                hooked = True
        while not np.array_equal(roots := labels[labels], labels):
            labels = roots
        if not hooked:
            return labels


def orbit(gens, point: int) -> set[int]:
    n = _check_degrees(gens)
    if n is None:
        return {point}
    if not (0 <= point < n):
        raise VertexOutOfRange(f"point {point} outside 0..{n - 1}")
    labels = _orbit_labels(_as_arrays(gens, n), n)
    return set(np.flatnonzero(labels == labels[point]).tolist())


def orbit_count(gens, n: int) -> int:
    labels = _orbit_labels(_as_arrays(gens, n), n)
    return int(np.count_nonzero(labels == np.arange(n)))


def orbits(gens, n: int) -> list[list[int]]:
    """All orbits, each sorted, ordered by least element."""
    if n == 0:
        return []
    labels = _orbit_labels(_as_arrays(gens, n), n)
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    return [part.tolist() for part in np.split(order, starts[1:])]


class _Level:
    """One level of a chain: a base point, the strong generators that fix
    all earlier base points, and the point's orbit under them with a coset
    representative (and its inverse) carrying the point to each orbit point.

    Rows of `reps` and `inv_reps` past `size` are spare capacity.  `checked`
    is (points, generators): the Schreier generators of the first `points`
    orbit points with the first `generators` generators sift to the identity.
    """

    __slots__ = ("point", "gens", "orbit", "pos", "reps", "inv_reps", "size", "checked")

    def __init__(self, point: int, n: int):
        self.point = point
        self.gens: list[np.ndarray] = []
        self.orbit = np.array([point], dtype=np.intp)
        self.pos = np.full(n, -1, dtype=np.intp)
        self.pos[point] = 0
        self.reps = np.arange(n, dtype=np.intp)[None, :]
        self.inv_reps = self.reps  # full to capacity, so the first append reallocates both
        self.size = 1
        self.checked = (1, 0)

    def copy(self) -> "_Level":
        out = _Level.__new__(_Level)
        out.point, out.size, out.checked = self.point, self.size, self.checked
        out.gens = list(self.gens)
        out.orbit = self.orbit[: self.size].copy()
        out.pos = self.pos.copy()
        out.reps = self.reps[: self.size].copy()
        out.inv_reps = self.inv_reps[: self.size].copy()
        return out

    def _append(self, points, reps, inv_reps) -> None:
        k, end = self.size, self.size + len(points)
        if end > len(self.reps):
            cap = max(end, 2 * len(self.reps))
            for name in ("orbit", "reps", "inv_reps"):
                old = getattr(self, name)
                new = np.empty((cap,) + old.shape[1:], dtype=np.intp)
                new[:k] = old[:k]
                setattr(self, name, new)
        self.orbit[k:end] = points
        self.pos[points] = np.arange(k, end)
        self.reps[k:end] = reps
        self.inv_reps[k:end] = inv_reps
        self.size = end

    def add_generator(self, s: np.ndarray) -> None:
        """Add s and close the orbit: s on the old points, then every
        generator on the points found, until no point is new.  A new point
        g(x) gets the representative g * u_x."""
        self.gens.append(s)
        frontier, todo = np.arange(self.size), [s]
        while len(frontier):
            start = self.size
            for g in todo:
                images = g[self.orbit[frontier]]
                new = self.pos[images] < 0
                if new.any():
                    reps = g[self.reps[frontier[new]]]
                    inv_reps = np.empty_like(reps)
                    points = np.broadcast_to(np.arange(reps.shape[1]), reps.shape)
                    np.put_along_axis(inv_reps, reps, points, axis=1)
                    self._append(images[new], reps, inv_reps)
            frontier, todo = np.arange(start, self.size), self.gens

    def unchecked_schreier(self, j: int) -> np.ndarray:
        """Schreier generators u_{s(x)}^-1 * s * u_x of generator j = s that
        are not yet checked, as rows, identities dropped."""
        s = self.gens[j]
        first = 0 if j >= self.checked[1] else self.checked[0]
        idx = np.arange(first, self.size)
        rows = self.unsift(self.pos[s[self.orbit[idx]]], s[self.reps[idx]])
        return rows[np.any(rows != np.arange(rows.shape[1]), axis=1)]

    def unsift(self, k: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row r composed with the inverse representative k[r], as one
        gather from the flattened representatives."""
        n = rows.shape[1]
        return self.inv_reps.reshape(-1)[rows + (k * n)[:, None]]


def _sift(levels, g: np.ndarray) -> tuple[np.ndarray, int]:
    """Factor g through the levels; returns (residue, level reached)."""
    for i, lvl in enumerate(levels):
        k = lvl.pos[g[lvl.point]]
        if k < 0:
            return g, i
        g = lvl.inv_reps[k][g]
    return g, len(levels)


class _Builder:
    """A chain under construction.  It starts from the levels of an existing
    chain and copies a level before its first change, so the chain it
    started from stays valid."""

    def __init__(self, n: int, levels, strong, order: int | None):
        self.n = n
        self.ident = np.arange(n, dtype=np.intp)
        self.levels = list(levels)
        self.owned: set[int] = set()
        self.strong = list(strong)
        self.target = order

    def level(self, i: int) -> _Level:
        """Level i, copied first if it still belongs to the old chain."""
        if i not in self.owned:
            self.levels[i] = self.levels[i].copy()
            self.owned.add(i)
        return self.levels[i]

    def full(self) -> bool:
        return self.target is not None and prod(l.size for l in self.levels) == self.target

    def extend(self, g: np.ndarray) -> None:
        h, j = _sift(self.levels, g)
        if j < len(self.levels) or not np.array_equal(h, self.ident):
            self._add(h, 0, j)

    def _add(self, h: np.ndarray, lo: int, hi: int) -> None:
        """Make h a strong generator of levels lo..hi (hi may be one past the
        last level: h then fixes every base point, and the least point it
        moves opens a new level), then re-verify those levels bottom-up."""
        if hi == len(self.levels):
            self.levels.append(_Level(int(np.flatnonzero(h != self.ident)[0]), self.n))
            self.owned.add(hi)
        self.strong.append(h)
        for i in range(lo, hi + 1):
            self.level(i).add_generator(h)
        for i in range(hi, lo - 1, -1):
            if self.full():
                return
            self._verify(i)

    def _verify(self, i: int) -> None:
        """Sift level i's unchecked Schreier generators through the levels
        below it; each non-trivial residue becomes a strong generator there.
        Level i itself does not change meanwhile."""
        lvl = self.level(i)
        for j in range(len(lvl.gens)):
            rows = lvl.unchecked_schreier(j)
            if len(rows):
                self._sift_rows(rows, i + 1)
            if self.full():
                return
        lvl.checked = (lvl.size, len(lvl.gens))

    def _sift_rows(self, rows: np.ndarray, start: int) -> None:
        """Sift a batch of elements through levels start.. together.  The
        first row to drop out of a level is added there as a strong
        generator; the batch then carries on from that level."""
        m = start
        while len(rows):  # identities are dropped as they appear
            if m < len(self.levels):
                lvl = self.levels[m]
                k = lvl.pos[rows[:, lvl.point]]
                out = k < 0
                if not out.any():
                    rows = lvl.unsift(k, rows)
                    rows = rows[np.any(rows != self.ident, axis=1)]
                    m += 1
                    continue
                r = int(np.argmax(out))
            else:
                r = 0  # every row left fixes every base point
            self._add(rows[r], start, m)
            if self.full():
                return

    def chain(self) -> "GroupBSGS":
        group = GroupBSGS(self.n, self.levels, self.strong)
        if self.target is not None:
            if group.order != self.target:
                raise ValueError(f"generators give order {group.order}, expected {self.target}")
            for i in self.owned:  # the order proves every level complete
                self.levels[i].checked = (self.levels[i].size, len(self.levels[i].gens))
        return group


class GroupBSGS:
    """A base and strong generating set: for each base point b_i, the
    generators fixing b_0..b_{i-1} and the orbit of b_i under them with
    coset representatives.  Treat it as immutable; `extend` returns a new
    chain and leaves this one as it is."""

    __slots__ = ("n", "levels", "base", "order", "_strong", "_strong_tuples")

    def __init__(self, n: int, levels, strong):
        self.n = n
        self.levels = tuple(levels)
        self.base = tuple(lvl.point for lvl in self.levels)
        self.order = prod(lvl.size for lvl in self.levels)
        self._strong = tuple(strong)
        self._strong_tuples = None

    @property
    def strong_gens(self) -> tuple[Perm, ...]:
        if self._strong_tuples is None:
            self._strong_tuples = tuple(tuple(g.tolist()) for g in self._strong)
        return self._strong_tuples

    def contains(self, g: Perm) -> bool:
        if len(g) != self.n:
            raise DegreeMismatch(f"permutation has degree {len(g)}, group has {self.n}")
        res, j = _sift(self.levels, np.asarray(g, dtype=np.intp))
        return j == len(self.levels) and np.array_equal(res, np.arange(self.n))

    def _stabilizer_arrays(self, depth: int) -> list[np.ndarray]:
        seen: dict[bytes, np.ndarray] = {}
        for lvl in self.levels[depth:]:
            for g in lvl.gens:
                seen.setdefault(g.tobytes(), g)
        return list(seen.values())

    def stabilizer_gens(self, depth: int) -> list[Perm]:
        """Generators of the pointwise stabilizer of base[:depth]."""
        return [tuple(g.tolist()) for g in self._stabilizer_arrays(depth)]

    def orbit_labels(self, depth: int) -> np.ndarray:
        """Least point of each point's orbit under the pointwise stabilizer
        of base[:depth]."""
        return _orbit_labels(self._stabilizer_arrays(depth), self.n)


def _build(n: int, gens, base_prefix=(), chain: GroupBSGS | None = None, order=None) -> GroupBSGS:
    """Extend `chain`, or a trivial chain on base_prefix, by gens (arrays).
    With `order`, the group's order known beforehand, building stops once
    the orbit lengths reach it, which proves the chain complete."""
    if chain is None:
        b = _Builder(n, [_Level(p, n) for p in base_prefix], (), order)
        b.owned.update(range(len(b.levels)))
    else:
        b = _Builder(n, chain.levels, chain._strong, order)
    for g in gens:
        if b.full():
            break
        b.extend(g)
    return b.chain()


def schreier_sims(gens, base_prefix=(), n: int | None = None, *, chain=None) -> GroupBSGS:
    """Deterministic base-and-strong-generating-set construction.

    Starts from `chain` (by default a trivial chain whose base is
    base_prefix, kept even where orbits are trivial, so that prefix
    stabilizers can be read off the chain) and extends it by each generator
    in turn.  Every Schreier generator has been sifted to the identity on
    return, so order = product of orbit lengths.
    """
    if chain is not None:
        if base_prefix or (n is not None and n != chain.n):
            raise ValueError("a chain to extend fixes the base prefix and the degree")
        n = chain.n
    d = _check_degrees(gens)
    if d is None:
        if n is None:
            raise ValueError("empty generator list needs an explicit degree")
        d = n
    elif n is not None and d != n:
        raise DegreeMismatch(f"generators have degree {d}, expected {n}")
    for b in base_prefix:
        if not (0 <= b < d):
            raise VertexOutOfRange(f"base point {b} outside 0..{d - 1}")
    return _build(d, _as_arrays(gens, d), base_prefix, chain)


def extend(chain: GroupBSGS, g: Perm) -> GroupBSGS:
    """The chain of the group generated by chain's group and g, on the same
    base as far as it goes; levels that g leaves alone are shared."""
    return schreier_sims((g,), chain=chain)


def based_at(group: GroupBSGS, omega: int) -> GroupBSGS:
    """A chain of the same group whose base starts at omega: `group` itself
    if its base already does, otherwise one built from its strong generators
    that stops at the known order."""
    if not (0 <= omega < group.n):
        raise VertexOutOfRange(f"vertex {omega} outside 0..{group.n - 1}")
    if group.base[:1] == (omega,):
        return group
    return _build(group.n, group._strong, (omega,), order=group.order)


def point_stabilizer(group: GroupBSGS, omega: int) -> list[Perm]:
    """Generators of G_omega, read off a chain whose base starts at omega."""
    return based_at(group, omega).stabilizer_gens(1)


def two_point_stabilizer(group: GroupBSGS, omega: int, omega2: int) -> list[Perm]:
    """Generators of G_{omega,omega2}: the G_omega part of a chain based at
    omega, rebased to start at omega2.  |G_omega| is known from the chain, so
    the rebuild stops when the orbit lengths reach it."""
    for w in (omega, omega2):
        if not (0 <= w < group.n):
            raise VertexOutOfRange(f"vertex {w} outside 0..{group.n - 1}")
    if omega == omega2:
        raise ValueError("points must be distinct")
    chain = based_at(group, omega)
    if not chain.levels:
        return []
    stab = chain._stabilizer_arrays(1)
    order = chain.order // chain.levels[0].size
    return _build(group.n, stab, (omega2,), order=order).stabilizer_gens(1)


def transitivity_rank(group: GroupBSGS, n: int) -> tuple[bool, int | None]:
    """(transitive, number of orbits of the first base point's stabilizer)."""
    if not group.levels:  # trivial group, no base point asked for
        return (True, 1) if n == 1 else (False, None)
    if group.levels[0].size != n:
        return False, None
    return True, int(np.count_nonzero(group.orbit_labels(1) == np.arange(n)))


def orbital_count_block(stab_gens, cell_i, cell_j) -> int:
    """Orbits of the stabilizer acting diagonally on cell_i x cell_j.

    Pair (u, v) is numbered a * |cell_j| + b by the positions of u and v in
    the sorted cells; each generator becomes one permutation of those
    numbers, and the orbits are counted by label propagation.
    """
    cell_i = np.unique(np.asarray(cell_i, dtype=np.intp))
    cell_j = np.unique(np.asarray(cell_j, dtype=np.intp))
    if not len(stab_gens):
        return len(cell_i) * len(cell_j)
    gens = np.array(stab_gens, dtype=np.intp)
    n = gens.shape[1]
    pair_perms = []
    wj = len(cell_j)
    pos_i = np.full(n, -1, dtype=np.intp)
    pos_i[cell_i] = np.arange(len(cell_i))
    pos_j = np.full(n, -1, dtype=np.intp)
    pos_j[cell_j] = np.arange(wj)
    for g in gens:
        gi, gj = pos_i[g[cell_i]], pos_j[g[cell_j]]
        if (gi < 0).any() or (gj < 0).any():
            raise CellNotInvariant("generator does not preserve the cell setwise")
        pair_perms.append((gi[:, None] * wj + gj[None, :]).ravel())
    size = len(cell_i) * wj
    return int(np.count_nonzero(_orbit_labels(pair_perms, size) == np.arange(size)))


# -- generator file format ---------------------------------------------------

def read_generators(path) -> tuple[int, list[Perm], list[int]]:
    """Parse a generator file; returns (degree, perms, source line numbers)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    header = None
    perms: list[Perm] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            nums = [int(t) for t in text.split()]
        except ValueError:
            raise ParseError("non-integer token", lineno)
        if header is None:
            if len(nums) != 2:
                raise ParseError("header must be 'n g'", lineno)
            header = nums
            continue
        if len(nums) != header[0]:
            raise ParseError(f"expected {header[0]} images, got {len(nums)}", lineno)
        if sorted(nums) != list(range(header[0])):
            raise ParseError("line is not a permutation of 0..n-1", lineno)
        perms.append(tuple(nums))
        linenos.append(lineno)
    if header is None:
        raise ParseError("missing 'n g' header", len(lines) or 1)
    if len(perms) != header[1]:
        raise ParseError(f"header announced {header[1]} generators, found {len(perms)}", len(lines))
    return header[0], perms, linenos


def write_generators(path, n: int, perms) -> None:
    perms = list(perms)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(perms)}\n")
        for p in perms:
            fh.write(" ".join(str(x) for x in p) + "\n")
