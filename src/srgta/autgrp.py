"""Graph automorphisms: equitable partition refinement and an
individualization-refinement backtracking search.

The refinement step is plain 1-dimensional Weisfeiler-Leman; strongly regular
graphs are exactly the inputs it is weakest on (the unit partition never
splits), so correctness rests on the backtracking layer.  Pruning uses the
node trace (cell sizes plus the equitable quotient matrix) and orbits of the
group found so far, rebuilt incrementally along the first search path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .exactmath import check_guard
from .graphcore import Graph
from .permgroup import (
    GroupBSGS,
    Perm,
    DegreeMismatch,
    orbit,
    read_generators,
    schreier_sims,
)

_AUT_SIZE_GUARD = 2500


class Timeout(Exception):
    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial or []


class NotAnAutomorphism(ValueError):
    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line is not None else msg)
        self.line = line


@dataclass(frozen=True)
class ColoredPartition:
    cells: tuple[tuple[int, ...], ...]
    cell_of: tuple[int, ...]
    quotient: tuple[tuple[int, ...], ...] | None = None

    @property
    def is_discrete(self) -> bool:
        return len(self.cells) == len(self.cell_of)

    def trace(self):
        return (tuple(len(c) for c in self.cells), self.quotient)


def unit_partition(n: int) -> ColoredPartition:
    return ColoredPartition((tuple(range(n)),), (0,) * n)


def _cells_from_ids(ids: np.ndarray) -> tuple[tuple[int, ...], ...]:
    ncells = int(ids.max()) + 1 if len(ids) else 0
    cells: list[list[int]] = [[] for _ in range(ncells)]
    for v, c in enumerate(ids.tolist()):
        cells[c].append(v)
    return tuple(tuple(c) for c in cells)


def _refine_ids(af: np.ndarray, ids: np.ndarray):
    """Coarsest equitable refinement of the colouring `ids`.

    New colours are ordered by (old colour, neighbour-count profile), which
    keeps the result a refinement of the input and makes it deterministic.
    Returns (ids, quotient rows).
    """
    n = af.shape[0]
    while True:
        c = int(ids.max()) + 1
        onehot = np.zeros((n, c))
        onehot[np.arange(n), ids] = 1.0
        counts = (af @ onehot).astype(np.int64)
        mat = np.column_stack([ids, counts])
        uniq, inv = np.unique(mat, axis=0, return_inverse=True)
        if len(uniq) == c:
            reps = [np.nonzero(ids == i)[0][0] for i in range(c)]
            quotient = tuple(tuple(counts[r].tolist()) for r in reps)
            return ids, quotient
        ids = inv.astype(np.int64)


def refine(g: Graph, p: ColoredPartition) -> ColoredPartition:
    af = g.adjacency_dense().astype(np.float64)
    ids, quotient = _refine_ids(af, np.asarray(p.cell_of, dtype=np.int64))
    return ColoredPartition(_cells_from_ids(ids), tuple(ids.tolist()), quotient)


@dataclass
class AutResult:
    gens: list[Perm]
    order: int
    complete: bool


def _is_automorphism(a: np.ndarray, p: Perm) -> bool:
    idx = np.asarray(p)
    return np.array_equal(a[idx][:, idx], a)


def automorphism_group(
    g: Graph, timeout: float = 300.0, partial_ok: bool = False
) -> AutResult:
    """Generators of Aut(g) with its exact order.

    Raises Timeout after `timeout` seconds unless partial_ok, in which case
    the generators found so far come back with complete=False (their group is
    then only a lower bound for the full automorphism group).
    """
    check_guard(g.n, _AUT_SIZE_GUARD, "automorphism search order")
    n = g.n
    if n == 0:
        return AutResult([], 1, True)
    a = g.adjacency_dense()
    af = a.astype(np.float64)
    deadline = time.monotonic() + timeout if timeout else None

    def refined(ids: np.ndarray):
        return _refine_ids(af, ids)

    def target_cell(ids: np.ndarray, quotient) -> int | None:
        """Colour of the first smallest non-singleton cell, None if discrete."""
        c = len(quotient)
        if c == n:
            return None
        sizes = np.bincount(ids, minlength=c)
        nonsingleton = np.nonzero(sizes > 1)[0]
        best = nonsingleton[np.argmin(sizes[nonsingleton])]
        return int(best)

    def individualize(ids: np.ndarray, v: int) -> np.ndarray:
        out = ids.copy()
        out[v] = ids.max() + 1
        return out

    # descend the first path, always picking the least vertex of the target
    root_ids, root_q = refined(np.zeros(n, dtype=np.int64))
    spine: list[tuple[np.ndarray, tuple, list[int], int]] = []
    ids, quotient = root_ids, root_q
    spine_base: list[int] = []
    while True:
        t = target_cell(ids, quotient)
        if t is None:
            break
        members = np.nonzero(ids == t)[0].tolist()
        spine.append((ids, (tuple(np.bincount(ids).tolist()), quotient), members, t))
        v = members[0]
        spine_base.append(v)
        ids, quotient = refined(individualize(ids, v))
    first_sigma = np.argsort(ids)  # vertex occupying each colour slot

    found: list[Perm] = []
    chain: GroupBSGS | None = None

    def group_chain() -> GroupBSGS:
        nonlocal chain
        if chain is None:
            chain = schreier_sims(found, base_prefix=tuple(spine_base), n=n)
        return chain

    def note_automorphism(p: Perm) -> bool:
        nonlocal chain
        if found and group_chain().contains(p):
            return False
        found.append(p)
        chain = None
        return True

    class _Done(Exception):
        """Backjump: an automorphism was found below the current spine node."""

    def explore(ids: np.ndarray, quotient, depth: int):
        if deadline and time.monotonic() > deadline:
            raise Timeout(f"automorphism search exceeded {timeout}s", found)
        t = target_cell(ids, quotient)
        if t is None:
            sigma = np.argsort(ids)
            p = np.empty(n, dtype=np.int64)
            p[first_sigma] = sigma
            perm = tuple(p.tolist())
            if _is_automorphism(a, perm) and note_automorphism(perm):
                raise _Done()
            return
        if depth < len(spine):
            expected = spine[depth][1]
            if (tuple(np.bincount(ids, minlength=int(ids.max()) + 1).tolist()), quotient) != expected:
                return
        for v in np.nonzero(ids == t)[0].tolist():
            nids, nquot = refined(individualize(ids, v))
            explore(nids, nquot, depth + 1)

    timed_out = False
    try:
        for d in reversed(range(len(spine))):
            ids_d, _, members, _t = spine[d]
            for v in members:
                if v == spine_base[d]:
                    continue
                if found:
                    stab = group_chain().stabilizer_gens(d)
                    if stab and min(orbit(stab, v)) < v:
                        continue  # an equivalent branch was already explored
                try:
                    nids, nquot = refined(individualize(ids_d, v))
                    explore(nids, nquot, d + 1)
                except _Done:
                    continue
    except Timeout:
        if not partial_ok:
            raise
        timed_out = True

    for p in found:
        if not _is_automorphism(a, p):
            raise NotAnAutomorphism("search returned a non-automorphism")
    order = group_chain().order if found else 1
    return AutResult(found, order, not timed_out)


def import_generators(path, g: Graph) -> list[Perm]:
    """Read a generator file and verify every line is an automorphism of g."""
    degree, perms, linenos = read_generators(path)
    if degree != g.n:
        raise DegreeMismatch(f"generators have degree {degree}, graph has {g.n}")
    a = g.adjacency_dense()
    for p, lineno in zip(perms, linenos):
        if not _is_automorphism(a, p):
            raise NotAnAutomorphism("permutation does not preserve adjacency", lineno)
    return perms


def find_isomorphism(g: Graph, h: Graph) -> Perm | None:
    """A vertex bijection carrying edges of g onto edges of h, if one exists.

    Parallel individualization-refinement; meant for the modest sizes the
    test corpus uses (isomorphy of constructions, self-complementarity).
    """
    if g.n != h.n or g.n_edges != h.n_edges:
        return None
    n = g.n
    if n == 0:
        return tuple()
    ag = g.adjacency_dense()
    ah = h.adjacency_dense()
    afg = ag.astype(np.float64)
    afh = ah.astype(np.float64)

    def signature(ids, quotient):
        return (tuple(np.bincount(ids, minlength=int(ids.max()) + 1).tolist()), quotient)

    def rec(ids_g, quot_g, ids_h, quot_h):
        if signature(ids_g, quot_g) != signature(ids_h, quot_h):
            return None
        c = len(quot_g)
        if c == n:
            p = np.empty(n, dtype=np.int64)
            p[np.argsort(ids_g)] = np.argsort(ids_h)
            perm = tuple(p.tolist())
            idx = np.asarray(perm)
            if np.array_equal(ah[idx][:, idx], ag):
                return perm
            return None
        sizes = np.bincount(ids_g, minlength=c)
        nonsingleton = np.nonzero(sizes > 1)[0]
        t = int(nonsingleton[np.argmin(sizes[nonsingleton])])
        vg = int(np.nonzero(ids_g == t)[0][0])
        nidsg, nquotg = _refine_ids(afg, _individualized(ids_g, vg))
        for vh in np.nonzero(ids_h == t)[0].tolist():
            nidsh, nquoth = _refine_ids(afh, _individualized(ids_h, vh))
            result = rec(nidsg, nquotg, nidsh, nquoth)
            if result is not None:
                return result
        return None

    def _individualized(ids, v):
        out = ids.copy()
        out[v] = ids.max() + 1
        return out

    ids_g, quot_g = _refine_ids(afg, np.zeros(n, dtype=np.int64))
    ids_h, quot_h = _refine_ids(afh, np.zeros(n, dtype=np.int64))
    return rec(ids_g, quot_g, ids_h, quot_h)
