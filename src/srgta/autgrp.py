"""Graph automorphisms and isomorphisms: one individualization-refinement
search engine (McKay & Piperno, "Practical graph isomorphism II", 2014).

The refinement step is 1-dimensional Weisfeiler-Leman by the adjacency A.
On a strongly regular graph it splits nothing past the cells {w}, Γ(w) and
the non-neighbours of an individualized vertex w, so the nodes that
individualize a root vertex w (depth 0 → 1) are refined further by triple
counts: B_w = A·diag(A[w])·A, whose entry (x, y) is |Γ(w) ∩ Γ(x) ∩ Γ(y)|,
split into one relation per value.  The sorted value set is the node's
signature, part of its trace; a root child whose value set differs from the
first path's is pruned before that refinement.  Where the relations split
no cell of the A-refined partition at w, the signature is empty and the
node is the A-refined one: so on every triply regular graph, where B_w is
constant on each (cell pair, relation) class, and on every rank 3 graph,
where G_w is transitive on each cell.  Below depth 1 the refinement is by
A alone.

A search walks a tree against its first path, the one that always
individualizes the least vertex of the target cell.  A node whose trace
(cell sizes plus the equitable quotient matrix) differs from the first
path's node at the same depth is pruned, and a discrete leaf yields the
permutation carrying the first leaf onto it.  Refinement, B_w,
individualization and the target-cell rule are isomorphism-invariant
(B_σ(w) = P·B_w·Pᵀ), so an isomorphism maps the first path onto a path with
equal traces whose leaf yields it: the automorphism group and an
isomorphism test are the same walk.  The automorphism search also prunes by
orbits of the group known so far, read off one stabilizer chain that starts
from any supplied automorphisms and that each new generator extends.

Each refinement round is one sort of the vertices' packed (colour, profile)
keys, with no loop over colours: by A, the profile is the neighbour counts
per colour, one matrix product; by B_w, it is the sorted (relation, colour)
pairs of the vertex's row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass
class SearchStats:
    """Counters of one search.

    refinements counts every individualize-then-refine by A and every
    refinement by B_w's relations; leaves, the discrete leaves offered as
    permutations; trace_prunes, the nodes cut for a trace or a root child's
    signature that differs from the first path's; orbit_prunes, the branches
    off the first path cut as images of explored ones.  Of the root's
    children, triple_refined were refined by B_w and triple_skipped took the
    skip rule (B_w's relations split no cell).
    """

    refinements: int = 0
    leaves: int = 0
    trace_prunes: int = 0
    orbit_prunes: int = 0
    triple_refined: int = 0
    triple_skipped: int = 0


def _refine(ids: np.ndarray, keys_of):
    """Coarsest refinement of the colouring `ids` that `keys_of` does not split.

    keys_of(ids, c) gives one big-endian unsigned row per vertex, its colour
    first, so a bytewise sort of the rows is the numeric lexicographic order.
    New colours are ordered by (old colour, rest of the row), which keeps the
    result a refinement of the input and makes it deterministic.  Returns
    (ids, quotient), the quotient the row of each cell without its colour.
    """
    n = len(ids)
    while True:
        c = int(ids.max()) + 1
        keys = keys_of(ids, c)
        rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        order = np.argsort(rows, kind="stable")
        s = keys[order]
        new = np.ones(n, dtype=bool)
        new[1:] = np.any(s[1:] != s[:-1], axis=1)
        if np.count_nonzero(new) == c:
            # equitable: every vertex of a cell has the same row
            return ids, s[new, 1:]
        ids = np.empty(n, dtype=np.int64)
        ids[order] = np.cumsum(new) - 1


def _refine_ids(af: np.ndarray, ids: np.ndarray):
    """Coarsest equitable refinement of the colouring `ids` by the adjacency.

    A vertex's key is its colour and its neighbour counts per colour, one
    row of big-endian uint16; colours and counts are below n, so n may not
    pass 2**16 even when the size guard is lifted.  Returns (ids, quotient),
    the quotient as a c×c uint16 array.
    """
    n = af.shape[0]
    if n > 2**16:
        raise SizeGuardExceeded(f"refinement order: {n} exceeds the uint16 key range")

    def counts(ids, c):
        onehot = np.zeros((n, c))
        onehot[np.arange(n), ids] = 1.0
        keys = np.empty((n, c + 1), dtype=">u2")
        keys[:, 0] = ids
        keys[:, 1:] = af @ onehot
        return keys

    return _refine(ids, counts)


def _refine_relations(codes: np.ndarray, ids: np.ndarray):
    """Coarsest refinement of `ids` that is equitable for every relation
    (codes == r): a vertex's key is its colour and the sorted
    code·c + colour of its row, as uint16 when they fit (numpy sorts rows
    of uint8 several times slower), so no count per (relation, colour) is
    stored."""
    n = len(ids)
    top = int(codes.max()) + 1

    def pairs(ids, c):
        dtype = np.promote_types(np.min_scalar_type(top * c - 1), np.uint16)
        row = codes.astype(dtype)
        row *= c
        row += ids.astype(dtype)
        row.sort(axis=1)
        keys = np.empty((n, n + 1), dtype=dtype.newbyteorder(">"))
        keys[:, 0] = ids
        keys[:, 1:] = row
        return keys

    return _refine(ids, pairs)


def _triple_relations(af: np.ndarray, w: int, want=None):
    """(value set, codes) of the triple counts B_w = A·diag(A[w])·A.

    The value set is B_w's sorted distinct entries as bytes, and
    codes[x, y] = 2·(rank of B_w[x, y] in it) + A[x, y].  When `want` is
    neither None, b"" nor the value set, the child at w is pruned whatever
    its relations split, so codes comes back None.
    """
    sub = af[:, af[w] != 0].astype(np.float32)  # counts up to deg w are exact
    b = (sub @ sub.T).astype(np.intp)
    values = np.flatnonzero(np.bincount(b.ravel()))
    signature = values.tobytes()
    if want not in (None, b"", signature):
        return signature, None
    rank = np.zeros(values[-1] + 1, dtype=np.min_scalar_type(2 * len(values) - 1))
    rank[values] = 2 * np.arange(len(values))
    return signature, rank[b] + (af != 0)


def _individualize(af: np.ndarray, ids: np.ndarray, v: int):
    """Give v a colour of its own and refine: (ids, quotient) of the child."""
    out = ids.copy()
    out[v] = ids.max() + 1
    return _refine_ids(af, out)


def _child(af, ids, v, depth, stats, want=None):
    """The node below `ids`, at `depth`, that individualizes v, as
    (signature, ids, quotient).

    Below the root it is refined by A alone, with signature None.  A root
    child is refined by A, then by B_v's relations.  If they split no cell
    (the skip rule) the signature is b"" and the node is the A-refined one;
    otherwise the signature is B_v's value set.  When `want`, the first
    path's signature, is given and differs, the child is pruned and None
    comes back, before any refinement by B_v if the value sets differ.
    """
    ids, quotient = _individualize(af, ids, v)
    stats.refinements += 1
    if depth:
        return None, ids, quotient
    signature, codes = _triple_relations(af, v, want)
    if codes is not None:
        stats.refinements += 1
        split_ids, split_quotient = _refine_relations(codes, ids)
        if len(split_quotient) == len(quotient):
            signature = b""
    if want is not None and signature != want:
        stats.trace_prunes += 1
        return None
    if not signature:
        stats.triple_skipped += 1
        return signature, ids, quotient
    stats.triple_refined += 1
    return signature, split_ids, split_quotient


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
    colours, 8c bytes of sizes then the quotient's, so equal bytes mean equal parts."""
    return np.bincount(ids, minlength=len(quotient)).tobytes() + quotient.tobytes()


class _Path(NamedTuple):
    """The search's first path: one (ids, trace, target-cell members) per
    inner node, the individualized vertices, the vertex in each colour slot
    of the discrete leaf, and the signature of its root child."""

    spine: list
    base: list
    leaf: np.ndarray
    signature: bytes | None


def _first_path(af: np.ndarray, ids: np.ndarray, quotient, stats) -> _Path:
    """The path that always individualizes the least vertex of the target cell."""
    spine, base, signature = [], [], None
    while (t := _target_cell(ids, quotient)) is not None:
        members = np.nonzero(ids == t)[0].tolist()
        spine.append((ids, _trace(ids, quotient), members))
        base.append(members[0])
        sig, ids, quotient = _child(af, ids, members[0], len(spine) - 1, stats)
        if len(spine) == 1:
            signature = sig
    return _Path(spine, base, np.argsort(ids), signature)


def _explore(path, af, ids, quotient, depth, accept, deadline, stats) -> bool:
    """Walk the tree under a node against the first path, in vertex order.

    Each discrete leaf offers accept() the permutation carrying the first
    leaf onto it; the walk stops, returning True, once accept() returns True.
    """
    if deadline and time.monotonic() > deadline:
        raise Timeout("search deadline passed")
    t = _target_cell(ids, quotient)
    if t is None:
        stats.leaves += 1
        p = np.empty(len(ids), dtype=np.int64)
        p[path.leaf] = np.argsort(ids)
        return accept(tuple(p.tolist()))
    if depth < len(path.spine) and _trace(ids, quotient) != path.spine[depth][1]:
        stats.trace_prunes += 1
        return False
    for v in np.nonzero(ids == t)[0].tolist():
        child = _child(af, ids, v, depth, stats, path.signature)
        if child and _explore(path, af, *child[1:], depth + 1, accept, deadline, stats):
            return True
    return False


def _root(af: np.ndarray):
    return _refine_ids(af, np.zeros(af.shape[0], dtype=np.int64))


@dataclass
class AutResult:
    """Generators, seeds first, the stabilizer chain of the group they generate
    (based along the search's first path), whether the search finished, and
    its counters."""

    gens: list[Perm]
    group: GroupBSGS
    complete: bool
    stats: SearchStats

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
    is then only a lower bound for the full automorphism group).  A timeout
    that is not > 0 (nan too) raises ValueError; math.inf means no limit.
    """
    if not timeout > 0:
        raise ValueError(f"timeout must be a positive number of seconds, got {timeout}")
    check_guard(g.n, _AUT_SIZE_GUARD, "automorphism search order")
    n = g.n
    found = check_automorphisms(g, gens)
    stats = SearchStats()
    if n == 0:
        return AutResult(found, schreier_sims([], n=0), True, stats)
    a = g.adjacency_dense()
    af = a.astype(np.float64)
    deadline = time.monotonic() + timeout
    path = _first_path(af, *_root(af), stats)
    chain = schreier_sims(found, base_prefix=tuple(path.base), n=n)

    def accept(p: Perm) -> bool:
        nonlocal chain
        if not _carries(a, a, p) or chain.contains(p):
            return False
        found.append(p)
        chain = extend(chain, p)
        return True

    timed_out = False
    try:
        for d in reversed(range(len(path.spine))):
            ids_d, _, members = path.spine[d]
            labelled = None
            for v in members[1:]:  # members[0] is the first path's own branch
                if labelled is not chain:  # orbits of G_(base[:d]), once per chain
                    labelled, labels = chain, chain.stabilizer(d).orbit_labels()
                if labels[v] < v:
                    stats.orbit_prunes += 1
                    continue  # an equivalent branch was already explored
                child = _child(af, ids_d, v, d, stats, path.signature)
                if child:
                    _explore(path, af, *child[1:], d + 1, accept, deadline, stats)
    except Timeout:
        if not partial_ok:
            raise Timeout(f"automorphism search exceeded {timeout}s") from None
        timed_out = True

    return AutResult(found, chain, not timed_out, stats)


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
    stats = SearchStats()

    def accept(p: Perm) -> bool:
        if _carries(ag, ah, p):
            found.append(p)
        return bool(found)

    path = _first_path(afg, *_root(afg), stats)
    _explore(path, afh, *_root(afh), 0, accept, None, stats)
    return found[0] if found else None
