"""Permutation groups: orbits, a deterministic Schreier-Sims chain,
stabilizers, and orbit/orbital counting.

Permutations are tuples of images of 0..n-1.  Composition is (p * q)(x) =
p(q(x)), i.e. q acts first.  Degrees here stay in the low thousands, so the
textbook deterministic algorithm (no randomization) is both fast enough and
reproducible, which the golden tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _check_degrees(gens) -> int | None:
    degs = {len(g) for g in gens}
    if len(degs) > 1:
        raise DegreeMismatch(f"mixed degrees {sorted(degs)}")
    return degs.pop() if degs else None


def orbit(gens, point: int) -> set[int]:
    n = _check_degrees(gens)
    if n is not None and not (0 <= point < n):
        raise VertexOutOfRange(f"point {point} outside 0..{n - 1}")
    seen = {point}
    queue = [point]
    while queue:
        x = queue.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


class _UnionFind:
    __slots__ = ("parent", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.count -= 1


def _orbit_union(gens, n: int) -> _UnionFind:
    """Union-find whose classes are the orbits of <gens> on n points."""
    d = _check_degrees(gens)
    if d is not None and d != n:
        raise DegreeMismatch(f"generators have degree {d}, expected {n}")
    uf = _UnionFind(n)
    for g in gens:
        for x, y in enumerate(g):
            uf.union(x, y)
    return uf


def orbit_count(gens, n: int) -> int:
    return _orbit_union(gens, n).count


def orbits(gens, n: int) -> list[list[int]]:
    """All orbits, each sorted, ordered by least element."""
    uf = _orbit_union(gens, n)
    buckets: dict[int, list[int]] = {}
    for x in range(n):
        buckets.setdefault(uf.find(x), []).append(x)
    return sorted(buckets.values())


@dataclass(frozen=True)
class _Level:
    point: int
    gens: tuple[Perm, ...]  # strong generators fixing all earlier base points
    transversal: dict  # orbit point -> perm mapping base point to it


@dataclass(frozen=True)
class GroupBSGS:
    n: int
    base: tuple[int, ...]
    levels: tuple[_Level, ...]
    strong_gens: tuple[Perm, ...]
    order: int

    def contains(self, g: Perm) -> bool:
        res, _ = _sift(self.levels, g)
        return res == identity(len(g))

    def stabilizer_gens(self, depth: int) -> list[Perm]:
        """Generators of the pointwise stabilizer of base[:depth]."""
        out: list[Perm] = []
        for lvl in self.levels[depth:]:
            for g in lvl.gens:
                if g not in out:
                    out.append(g)
        return out


def _orbit_transversal(n: int, gens, point: int) -> dict:
    trans = {point: identity(n)}
    queue = [point]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = g[x]
            if y not in trans:
                trans[y] = compose(g, trans[x])
                queue.append(y)
    return trans


def _sift(levels, g: Perm):
    """Factor g through the chain; returns (residue, level index reached)."""
    for i, lvl in enumerate(levels):
        target = g[lvl.point]
        if target not in lvl.transversal:
            return g, i
        g = compose(inverse(lvl.transversal[target]), g)
    return g, len(levels)


def _build_chain(n: int, strong: list[Perm], base_prefix) -> tuple[list[int], list[_Level]]:
    """Deterministic stabilizer chain from a strong generating candidate set.

    The base starts with base_prefix (even where orbits are trivial, so that
    prefix stabilizers can be read off the chain) and continues greedily with
    the least point moved by some remaining generator.
    """
    base: list[int] = []
    levels: list[_Level] = []
    remaining = [g for g in strong if g != identity(n)]
    prefix = list(base_prefix)
    while True:
        if prefix:
            b = prefix.pop(0)
        else:
            moved = [min(x for x in range(n) if g[x] != x) for g in remaining]
            if not moved:
                break
            b = min(moved)
        gens_here = tuple(remaining)
        levels.append(_Level(b, gens_here, _orbit_transversal(n, gens_here, b)))
        base.append(b)
        remaining = [g for g in remaining if g[b] == b]
    return base, levels


def schreier_sims(gens, base_prefix=(), n: int | None = None) -> GroupBSGS:
    """Deterministic base-and-strong-generating-set construction.

    Rebuild-and-verify loop: build the chain from the current candidate set,
    sift every Schreier generator, and absorb the first non-trivial residue.
    On exit Schreier's lemma guarantees each level's transversal orbit is the
    full orbit of the true stabilizer, so order = product of orbit sizes.
    """
    d = _check_degrees(gens)
    if d is None:
        if n is None:
            raise ValueError("empty generator list needs an explicit degree")
        d = n
    elif n is not None and d != n:
        raise DegreeMismatch(f"generators have degree {d}, expected {n}")
    n = d
    for b in base_prefix:
        if not (0 <= b < n):
            raise VertexOutOfRange(f"base point {b} outside 0..{n - 1}")
    ident = identity(n)
    strong: list[Perm] = []
    for g in gens:
        if g != ident and g not in strong:
            strong.append(g)
    while True:
        base, levels = _build_chain(n, strong, base_prefix)
        new_residue = None
        for i, lvl in enumerate(levels):
            for x in sorted(lvl.transversal):
                tx = lvl.transversal[x]
                for s in lvl.gens:
                    y = s[x]
                    schreier = compose(inverse(lvl.transversal[y]), compose(s, tx))
                    if schreier == ident:
                        continue
                    residue, _ = _sift(levels[i + 1 :], schreier)
                    if residue != ident:
                        new_residue = residue
                        break
                if new_residue:
                    break
            if new_residue:
                break
        if new_residue is None:
            order = 1
            for lvl in levels:
                order *= len(lvl.transversal)
            return GroupBSGS(n, tuple(base), tuple(levels), tuple(strong), order)
        strong.append(new_residue)


def based_at(group: GroupBSGS, omega: int) -> GroupBSGS:
    """A chain of the same group whose base starts at omega: `group` itself
    if its base already does, otherwise one rebuilt from its strong generators."""
    if not (0 <= omega < group.n):
        raise VertexOutOfRange(f"vertex {omega} outside 0..{group.n - 1}")
    if group.base[:1] == (omega,):
        return group
    return schreier_sims(group.strong_gens, base_prefix=(omega,), n=group.n)


def point_stabilizer(group: GroupBSGS, omega: int) -> list[Perm]:
    """Generators of G_omega, read off a chain whose base starts at omega."""
    return based_at(group, omega).stabilizer_gens(1)


def two_point_stabilizer(group: GroupBSGS, omega: int, omega2: int) -> list[Perm]:
    """Generators of G_{omega,omega2}: the stabilizer of omega2 inside G_omega."""
    for w in (omega, omega2):
        if not (0 <= w < group.n):
            raise VertexOutOfRange(f"vertex {w} outside 0..{group.n - 1}")
    if omega == omega2:
        raise ValueError("points must be distinct")
    stab = point_stabilizer(group, omega)
    return schreier_sims(stab, base_prefix=(omega2,), n=group.n).stabilizer_gens(1)


def transitivity_rank(group: GroupBSGS, n: int) -> tuple[bool, int | None]:
    """(transitive, number of orbits of the first base point's stabilizer)."""
    if not group.levels:  # trivial group, no base point asked for
        return (True, 1) if n == 1 else (False, None)
    if len(group.levels[0].transversal) != n:
        return False, None
    return True, orbit_count(group.stabilizer_gens(1), n)


def orbital_count_block(stab_gens, cell_i, cell_j) -> int:
    """Orbits of the stabilizer acting diagonally on cell_i x cell_j."""
    cell_i = sorted(cell_i)
    cell_j = sorted(cell_j)
    pos_i = {v: a for a, v in enumerate(cell_i)}
    pos_j = {v: a for a, v in enumerate(cell_j)}
    for g in stab_gens:
        if any(g[v] not in pos_i for v in cell_i) or any(g[v] not in pos_j for v in cell_j):
            raise CellNotInvariant("generator does not preserve the cell setwise")
    wj = len(cell_j)
    uf = _UnionFind(len(cell_i) * wj)
    for g in stab_gens:
        for a, u in enumerate(cell_i):
            ga = pos_i[g[u]] * wj
            base = a * wj
            for b, v in enumerate(cell_j):
                uf.union(base + b, ga + pos_j[g[v]])
    return uf.count


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
