"""Undirected simple graphs and the SRG predicate.

A graph holds one read-only dense n×n uint8 adjacency matrix; every query and
every consumer (matrix products, refinement, induced subgraphs) works on that
matrix.  Whether a graph is strongly regular is computed once and remembered
on the graph, which is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class VertexOutOfRange(ValueError):
    def __init__(self, msg, line=None):
        super().__init__(msg)
        self.line = line


class ParseError(ValueError):
    def __init__(self, msg, line=None):
        super().__init__(f"line {line}: {msg}" if line is not None else msg)
        self.line = line


class LoopRejected(ParseError):
    pass


class ImprimitiveParams(ValueError):
    """Raised where an operation needs mu > 0 and a connected complement."""


class NotSrgError(ValueError):
    """Raised by operations whose precondition is a strongly regular input."""


class InconsistentParams(ValueError):
    pass


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)

    def complement(self) -> "SrgParams":
        n, k, lam, mu = self.astuple()
        return SrgParams(n, n - k - 1, n - 2 * k + mu - 2, n - 2 * k + lam)

    def __repr__(self):
        return f"({self.n},{self.k},{self.lam},{self.mu})"


def validate_params(p: SrgParams) -> SrgParams:
    n, k, lam, mu = p.astuple()
    if not (1 <= k <= n - 2):
        raise InconsistentParams(f"degree {k} outside 1..{n - 2}")
    if not (0 <= lam <= k - 1):
        raise InconsistentParams(f"lambda {lam} outside 0..{k - 1}")
    if not (0 <= mu <= k):
        raise InconsistentParams(f"mu {mu} outside 0..{k}")
    if k * (k - lam - 1) != (n - k - 1) * mu:
        raise InconsistentParams(
            f"k(k-lam-1)={k * (k - lam - 1)} != (n-k-1)mu={(n - k - 1) * mu}"
        )
    if n - 2 * k + lam < 0 or n - 2 * k + mu - 2 < 0:
        raise InconsistentParams("negative intersection number")
    return p


def intersection_numbers(p: SrgParams) -> np.ndarray:
    """The 27 numbers p[i,j,k]: given d(x,y)=k, how many z have d(x,z)=i
    and d(y,z)=j.  Relations are 0 (equal), 1 (adjacent), 2 (other)."""
    n, k, lam, mu = validate_params(p).astuple()
    out = np.zeros((3, 3, 3), dtype=np.int64)
    sizes = (1, k, n - k - 1)
    for i in range(3):
        out[i, i, 0] = sizes[i]
    out[0, 1, 1] = out[1, 0, 1] = 1
    out[1, 1, 1] = lam
    out[1, 2, 1] = out[2, 1, 1] = k - lam - 1
    out[2, 2, 1] = n - 2 * k + lam
    out[0, 2, 2] = out[2, 0, 2] = 1
    out[1, 1, 2] = mu
    out[1, 2, 2] = out[2, 1, 2] = k - mu
    out[2, 2, 2] = n - 2 * k + mu - 2
    return out


@dataclass(frozen=True)
class NotSrg:
    """Negative result of is_strongly_regular; falsy, with a witness."""

    reason: str
    pair: tuple[int, int] | None = None

    def __bool__(self):
        return False


@dataclass(frozen=True)
class VertexPartition:
    """Base vertex with its neighbourhood three-way split."""

    omega: int
    delta0: tuple[int, ...]
    delta1: tuple[int, ...]
    delta2: tuple[int, ...]

    @property
    def cells(self):
        return (self.delta0, self.delta1, self.delta2)


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_srg")

    def __init__(self, adj: np.ndarray):
        # callers go through from_edges / from_dense, which validate
        adj.setflags(write=False)
        self.n = adj.shape[0]
        self._adj = adj
        self._srg = None  # result of is_strongly_regular, once require_srg ran

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        adj = np.zeros((n, n), dtype=np.uint8)
        for u, v in edges:
            if u == v:
                raise LoopRejected(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
            adj[u, v] = adj[v, u] = 1
        return Graph(adj)

    @staticmethod
    def from_dense(a: np.ndarray) -> "Graph":
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
        adj = (a != 0).astype(np.uint8)
        np.fill_diagonal(adj, 0)
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency matrix must be symmetric")
        return Graph(adj)

    # -- queries -----------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u, v])

    def neighbours(self, v: int) -> list[int]:
        return np.flatnonzero(self._adj[v]).tolist()

    def degrees(self) -> np.ndarray:
        return self._adj.sum(axis=1, dtype=np.int64)

    def adjacency_dense(self) -> np.ndarray:
        return self._adj.astype(np.int8)

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self._adj, 1))
        return list(zip(us.tolist(), vs.tolist()))

    @property
    def n_edges(self) -> int:
        return int(self.degrees().sum()) // 2

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._adj, other._adj)
        )

    def __hash__(self):
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.n_edges})"


def complement(g: Graph) -> Graph:
    return Graph.from_dense(1 - g._adj)  # from_dense clears the diagonal


def common_neighbour_counts(g: Graph) -> tuple[set[int], set[int]]:
    """Distinct common-neighbour counts over (adjacent, non-adjacent) pairs."""
    a = g._adj.astype(np.float64)
    c = (a @ a).astype(np.int64)
    adj = g._adj.astype(bool)
    off = ~np.eye(g.n, dtype=bool)
    return (
        set(np.unique(c[adj]).tolist()) if adj.any() else set(),
        set(np.unique(c[~adj & off]).tolist()) if (~adj & off).any() else set(),
    )


def is_strongly_regular(g: Graph):
    """SrgParams if g is strongly regular, else a falsy NotSrg witness.

    Graphs on fewer than 2 vertices, complete and empty graphs are rejected:
    the decompositions downstream need {base vertex} / neighbours /
    non-neighbours all nonempty.
    """
    n = g.n
    if n < 2:
        return NotSrg("fewer than 2 vertices")
    deg = g.degrees()
    k = int(deg[0])
    if not np.all(deg == k):
        bad = int(np.nonzero(deg != k)[0][0])
        return NotSrg("not regular", (0, bad))
    if k == 0:
        return NotSrg("empty graph")
    if k == n - 1:
        return NotSrg("complete graph")
    cf = g._adj.astype(np.float64)
    c = (cf @ cf).astype(np.int64)
    adj = g._adj.astype(bool)
    nonadj = ~adj
    np.fill_diagonal(nonadj, False)
    lam = int(c[adj][0])
    mu_vals = c[nonadj]
    mu = int(mu_vals[0])
    bad_lam = adj & (c != lam)
    if bad_lam.any():
        u, v = np.argwhere(bad_lam)[0]
        return NotSrg("adjacent common-neighbour count not constant", (int(u), int(v)))
    bad_mu = nonadj & (c != mu)
    if bad_mu.any():
        u, v = np.argwhere(bad_mu)[0]
        return NotSrg("non-adjacent common-neighbour count not constant", (int(u), int(v)))
    return SrgParams(n, k, lam, mu)


def require_srg(g: Graph) -> SrgParams:
    """The parameters of g, or NotSrgError; the check runs once per graph."""
    if g._srg is None:
        g._srg = is_strongly_regular(g)
    p = g._srg
    if not p:
        raise NotSrgError(p.reason)
    return p


def is_primitive(params: SrgParams) -> bool:
    """Both the graph and its complement connected (mu > 0 and p_22^1 > 0)."""
    n, k, lam, mu = params.astuple()
    return mu > 0 and (n - 2 * k + lam) > 0


def vertex_partition(g: Graph, omega: int = 0) -> VertexPartition:
    """omega, its neighbours and its non-neighbours, read off omega's row."""
    if not (0 <= omega < g.n):
        raise VertexOutOfRange(f"vertex {omega} outside 0..{g.n - 1}")
    row = g._adj[omega].astype(bool)
    rest = ~row
    rest[omega] = False
    return VertexPartition(
        omega, (omega,), tuple(np.flatnonzero(row).tolist()), tuple(np.flatnonzero(rest).tolist())
    )


def subconstituents(g: Graph, omega: int = 0):
    """Induced subgraphs on the neighbours and non-neighbours of omega."""
    part = vertex_partition(g, omega)
    return induced_subgraph(g, part.delta1), induced_subgraph(g, part.delta2), part


def induced_subgraph(g: Graph, vertices) -> Graph:
    idx = np.asarray(vertices, dtype=np.int64)
    return Graph.from_dense(g._adj[np.ix_(idx, idx)])


def clique_extension(g: Graph, m: int) -> Graph:
    """Blow each vertex up into an m-clique; copy (i,u) becomes index i*n+u."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = g.n
    a = g.adjacency_dense().astype(np.int8)
    jm = np.ones((m, m), dtype=np.int8)
    big = np.kron(jm, a) + np.kron(jm - np.eye(m, dtype=np.int8), np.eye(n, dtype=np.int8))
    return Graph.from_dense(big)


# -- file round trip -------------------------------------------------------

def read_int_lines(path) -> tuple[list[tuple[int, list[int]]], int]:
    """(line number, integers) for each line of a UTF-8 text file that holds
    any, with '#' starting a comment, and the file's line count."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            try:
                rows.append((lineno, [int(t) for t in parts]))
            except ValueError:
                raise ParseError(f"non-integer token in {parts!r}", lineno) from None
    return rows, len(lines)


def read_graph(path) -> Graph:
    rows, n_lines = read_int_lines(path)
    header = None
    edges = []
    expected = None
    for lineno, nums in rows:
        if header is None:
            if len(nums) != 2:
                raise ParseError("header must be 'n m'", lineno)
            header = nums
            expected = nums[1]
            if header[0] < 0 or header[1] < 0:
                raise ParseError("negative header field", lineno)
            continue
        if len(nums) != 2:
            raise ParseError("edge line must be 'u v'", lineno)
        u, v = nums
        if u == v:
            raise LoopRejected(f"loop at vertex {u}", lineno)
        if not (0 <= u < header[0] and 0 <= v < header[0]):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{header[0] - 1}", lineno)
        if u > v:
            raise ParseError(f"edges must satisfy u < v, got ({u},{v})", lineno)
        edges.append((u, v))
    if header is None:
        raise ParseError("missing 'n m' header", n_lines or 1)
    if len(edges) != expected:
        # header counts edge lines; duplicates are tolerated but still counted
        raise ParseError(
            f"header announced {expected} edges, found {len(edges)} edge lines",
            n_lines,
        )
    return Graph.from_edges(header[0], sorted(set(edges)))


def write_graph(g: Graph, path) -> None:
    edges = sorted(g.edges())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")
