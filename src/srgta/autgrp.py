"""Graph automorphisms and isomorphisms: one individualization-refinement
search engine (McKay & Piperno, "Practical graph isomorphism II", 2014).

The refinement step is plain 1-dimensional Weisfeiler-Leman; strongly regular
graphs are exactly the inputs it is weakest on (the unit partition never
splits), so correctness rests on the backtracking layer.  A search walks a
tree against its first path, the one that always individualizes the least
vertex of the target cell.  A node whose trace (cell sizes plus the equitable
quotient matrix) differs from the first path's node at the same depth is
pruned, and a discrete leaf yields the permutation carrying the first leaf
onto it.  Refinement, individualization and the target-cell rule are
isomorphism-invariant, so an isomorphism maps the first path onto a path
with equal traces whose leaf yields it: the automorphism group and an
isomorphism test are the same walk.  The automorphism search also prunes by
orbits of the group known so far, read off one stabilizer chain that starts
from any supplied automorphisms and that each new generator extends.

Each refinement round is one matrix product for the neighbour counts per
colour and one sort of the vertices' packed (colour, counts) keys, with no
loop over colours.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .exactmath import SizeGuardExceeded, check_guard
from .graphcore import Graph
from .permgroup import (
    GroupBSGS,
    Perm,
    DegreeMismatch,
    extend,
    read_generators,
    schreier_sims,
)

_AUT_SIZE_GUARD = 2500


class Timeout(Exception):
    """The automorphism search ran past its time budget."""


class NotAnAutomorphism(ValueError):
    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line is not None else msg)
        self.line = line


def _refine_ids(af: np.ndarray, ids: np.ndarray):
    """Coarsest equitable refinement of the colouring `ids`.

    New colours are ordered by (old colour, neighbour-count profile), which
    keeps the result a refinement of the input and makes it deterministic.
    Each round packs that key as one row of big-endian uint16 per vertex, so
    a bytewise sort of the rows is the numeric lexicographic order; colours
    and counts are below n, so n may not pass 2**16 even when the size guard
    is lifted.  Returns (ids, quotient), the quotient as a c×c uint16 array.
    """
    n = af.shape[0]
    if n > 2**16:
        raise SizeGuardExceeded(f"refinement order: {n} exceeds the uint16 key range")
    while True:
        c = int(ids.max()) + 1
        onehot = np.zeros((n, c))
        onehot[np.arange(n), ids] = 1.0
        keys = np.empty((n, c + 1), dtype=">u2")
        keys[:, 0] = ids
        keys[:, 1:] = af @ onehot
        rows = keys.view(np.dtype((np.void, keys.itemsize * (c + 1)))).ravel()
        order = np.argsort(rows, kind="stable")
        s = keys[order]
        new = np.ones(n, dtype=bool)
        new[1:] = np.any(s[1:] != s[:-1], axis=1)
        if np.count_nonzero(new) == c:
            # equitable: every vertex of a cell has the same row
            return ids, s[new, 1:]
        ids = np.empty(n, dtype=np.int64)
        ids[order] = np.cumsum(new) - 1


def _individualize(af: np.ndarray, ids: np.ndarray, v: int):
    """Give v a colour of its own and refine: (ids, quotient) of the child."""
    out = ids.copy()
    out[v] = ids.max() + 1
    return _refine_ids(af, out)


def _target_cell(ids: np.ndarray, quotient) -> int | None:
    """Colour of the first smallest non-singleton cell, None if discrete."""
    c = len(quotient)
    if c == len(ids):
        return None
    sizes = np.bincount(ids, minlength=c)
    nonsingleton = np.nonzero(sizes > 1)[0]
    return int(nonsingleton[np.argmin(sizes[nonsingleton])])


def _trace(ids: np.ndarray, quotient) -> bytes:
    """Cell sizes plus the equitable quotient, as compared across nodes: for c
    colours, 8c bytes of sizes then 2c² of quotient, so equal bytes mean equal parts."""
    return np.bincount(ids, minlength=len(quotient)).tobytes() + quotient.tobytes()


def _first_path(af: np.ndarray, ids: np.ndarray, quotient):
    """The path that always individualizes the least vertex of the target cell.

    Returns (spine, base, leaf): one (ids, trace, target-cell members) per
    inner node, the individualized vertices, and the vertex in each colour
    slot of the discrete leaf.
    """
    spine, base = [], []
    while (t := _target_cell(ids, quotient)) is not None:
        members = np.nonzero(ids == t)[0].tolist()
        spine.append((ids, _trace(ids, quotient), members))
        base.append(members[0])
        ids, quotient = _individualize(af, ids, members[0])
    return spine, base, np.argsort(ids)


def _explore(path, af, ids, quotient, depth, accept, deadline) -> bool:
    """Walk the tree under a node against the first path, in vertex order.

    Each discrete leaf offers accept() the permutation carrying the first
    leaf onto it; the walk stops, returning True, once accept() returns True.
    """
    if deadline and time.monotonic() > deadline:
        raise Timeout("search deadline passed")
    spine, _, leaf = path
    t = _target_cell(ids, quotient)
    if t is None:
        p = np.empty(len(ids), dtype=np.int64)
        p[leaf] = np.argsort(ids)
        return accept(tuple(p.tolist()))
    if depth < len(spine) and _trace(ids, quotient) != spine[depth][1]:
        return False
    return any(
        _explore(path, af, *_individualize(af, ids, v), depth + 1, accept, deadline)
        for v in np.nonzero(ids == t)[0].tolist()
    )


def _root(af: np.ndarray):
    return _refine_ids(af, np.zeros(af.shape[0], dtype=np.int64))


@dataclass
class AutResult:
    """Generators, seeds first, the stabilizer chain of the group they generate
    (based along the search's first path), and whether the search finished."""

    gens: list[Perm]
    group: GroupBSGS
    complete: bool

    @property
    def order(self) -> int:
        return self.group.order


def _carries(a: np.ndarray, b: np.ndarray, p: Perm) -> bool:
    """Whether vertex i -> p[i] carries adjacency `a` onto adjacency `b`."""
    idx = np.asarray(p)
    return np.array_equal(b[idx][:, idx], a)


def automorphism_group(
    g: Graph, timeout: float = 300.0, partial_ok: bool = False, gens=()
) -> AutResult:
    """Generators of Aut(g) with its exact order and stabilizer chain.

    The chain starts as the group of the seeds `gens`, checked automorphisms,
    on the first path's base and is extended by each new generator, so the
    search prunes with it and hands it on; seeds that generate Aut leave no
    branch past the first path.  A search that finishes has found all of Aut,
    seeded or not.  Raises Timeout after `timeout` seconds unless partial_ok,
    in which case the group found so far comes back with complete=False (it
    is then only a lower bound for the full automorphism group).
    """
    check_guard(g.n, _AUT_SIZE_GUARD, "automorphism search order")
    n = g.n
    found = check_automorphisms(g, gens)
    if n == 0:
        return AutResult(found, schreier_sims([], n=0), True)
    a = g.adjacency_dense()
    af = a.astype(np.float64)
    deadline = time.monotonic() + timeout if timeout else None
    path = _first_path(af, *_root(af))
    spine, base, _ = path
    chain = schreier_sims(found, base_prefix=tuple(base), n=n)

    def accept(p: Perm) -> bool:
        nonlocal chain
        if not _carries(a, a, p) or chain.contains(p):
            return False
        found.append(p)
        chain = extend(chain, p)
        return True

    timed_out = False
    try:
        for d in reversed(range(len(spine))):
            ids_d, _, members = spine[d]
            labelled = None
            for v in members[1:]:  # members[0] is the first path's own branch
                if labelled is not chain:  # orbits of G_(base[:d]), once per chain
                    labelled, labels = chain, chain.orbit_labels(d)
                if labels[v] < v:
                    continue  # an equivalent branch was already explored
                _explore(path, af, *_individualize(af, ids_d, v), d + 1, accept, deadline)
    except Timeout:
        if not partial_ok:
            raise Timeout(f"automorphism search exceeded {timeout}s") from None
        timed_out = True

    return AutResult(found, chain, not timed_out)


def check_automorphisms(g: Graph, perms, linenos=None) -> list[Perm]:
    """`perms` as tuples, each checked to be an automorphism of g; the first
    that is not raises NotAnAutomorphism, with its entry of `linenos` if given."""
    a = g.adjacency_dense()
    checked = [tuple(int(x) for x in p) for p in perms]
    for i, p in enumerate(checked):
        if sorted(p) != list(range(g.n)) or not _carries(a, a, p):
            line = None if linenos is None else linenos[i]
            raise NotAnAutomorphism("not a permutation that preserves adjacency", line)
    return checked


def import_generators(path, g: Graph) -> list[Perm]:
    """Read a generator file and verify every line is an automorphism of g."""
    degree, perms, linenos = read_generators(path)
    if degree != g.n:
        raise DegreeMismatch(f"generators have degree {degree}, graph has {g.n}")
    return check_automorphisms(g, perms, linenos)


def find_isomorphism(g: Graph, h: Graph) -> Perm | None:
    """A vertex bijection carrying edges of g onto edges of h, if one exists.

    Walks h's search tree against g's first path; meant for the modest sizes
    the test corpus uses (isomorphy of constructions, self-complementarity).
    """
    if g.n != h.n or g.n_edges != h.n_edges:
        return None
    if g.n == 0:
        return tuple()
    ag, ah = g.adjacency_dense(), h.adjacency_dense()
    afg, afh = ag.astype(np.float64), ah.astype(np.float64)
    found: list[Perm] = []

    def accept(p: Perm) -> bool:
        if _carries(ag, ah, p):
            found.append(p)
        return bool(found)

    _explore(_first_path(afg, *_root(afg)), afh, *_root(afh), 0, accept, None)
    return found[0] if found else None
