"""Deterministic constructors for the strongly regular graph families.

Every constructor returns a plain Graph; parameters are re-derived by
is_strongly_regular in tests rather than trusted.  Size guards keep runs at
desk scale and can be lifted with the SRGTA_SIZE_GUARD environment variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .exactmath import check_guard, gf_construct, prime_power
from .graphcore import Graph


class ParamRange(ValueError):
    pass


class BadCongruence(ValueError):
    pass


class NotPrimePower(ValueError):
    pass


_AFFINE_GUARD = 2**14
_GRASSMANN_GUARD = 5000
_O6_GUARD = 2000


@dataclass(frozen=True)
class FamilySpec:
    """A family tag with its integer parameters, as used by the CLI."""

    tag: str
    params: tuple[int, ...]


def complete_multipartite(parts: int, size: int) -> Graph:
    """K_{parts x size}: all edges between distinct parts of equal size."""
    if parts < 2 or size < 1 or parts * size < 3:
        raise ParamRange(f"need parts >= 2, size >= 1, parts*size >= 3; got ({parts},{size})")
    jp = np.ones((parts, parts), dtype=np.int8) - np.eye(parts, dtype=np.int8)
    a = np.kron(jp, np.ones((size, size), dtype=np.int8))
    return Graph.from_dense(a)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParamRange(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def grid(n: int) -> Graph:
    """The n x n rook's graph: same row or same column of an n x n array."""
    if n < 2:
        raise ParamRange(f"grid needs n >= 2, got {n}")
    eye = np.eye(n, dtype=np.int8)
    joff = np.ones((n, n), dtype=np.int8) - eye
    a = np.kron(eye, joff) + np.kron(joff, eye)
    return Graph.from_dense(a)


def johnson(n: int) -> Graph:
    """J(n,2): 2-subsets of {0..n-1}, adjacent when they share an element."""
    if n < 4:
        raise ParamRange(f"johnson needs n >= 4, got {n}")
    verts = list(combinations(range(n), 2))
    edges = []
    for a, b in combinations(range(len(verts)), 2):
        if len(set(verts[a]) & set(verts[b])) == 1:
            edges.append((a, b))
    return Graph.from_edges(len(verts), edges)


def _gaussian_2_subspace_count(q: int, n: int) -> int:
    return (q**n - 1) * (q ** (n - 1) - 1) // ((q**2 - 1) * (q - 1))


def grassmann(q: int, n: int) -> Graph:
    """J_q(n,2): 2-dimensional subspaces of GF(q)^n meeting in a line."""
    pk = prime_power(q)
    if pk is None:
        raise ParamRange(f"q must be a prime power, got {q}")
    if n < 4:
        raise ParamRange(f"grassmann needs n >= 4, got {n}")
    count = _gaussian_2_subspace_count(q, n)
    check_guard(count, _GRASSMANN_GUARD, "grassmann vertex count")
    field = gf_construct(*pk)

    def proj_rep(vec: tuple[int, ...]) -> tuple[int, ...]:
        for c in vec:
            if c:
                inv = field.inv(c)
                return tuple(field.mul(inv, x) for x in vec)
        raise ValueError("zero vector")

    # vertices are reduced-row-echelon 2 x n matrices, enumerated by pivot
    # pair (i, j) and then by free entries, which fixes the numbering
    subspace_points: list[frozenset] = []
    nonzero = [e for e in field.elements() if e]
    for i in range(n):
        for j in range(i + 1, n):
            free1 = [c for c in range(i + 1, n) if c != j]  # row 1 free columns
            free2 = list(range(j + 1, n))  # row 2 free columns
            for vals1 in product(field.elements(), repeat=len(free1)):
                row1 = [0] * n
                row1[i] = 1
                for c, v in zip(free1, vals1):
                    row1[c] = v
                for vals2 in product(field.elements(), repeat=len(free2)):
                    row2 = [0] * n
                    row2[j] = 1
                    for c, v in zip(free2, vals2):
                        row2[c] = v
                    pts = {proj_rep(tuple(row1)), proj_rep(tuple(row2))}
                    for s in nonzero:
                        mixed = tuple(
                            field.add(field.mul(s, a), b) for a, b in zip(row1, row2)
                        )
                        pts.add(proj_rep(mixed))
                    subspace_points.append(frozenset(pts))
    assert len(subspace_points) == count
    pencil: dict = {}
    for idx, pts in enumerate(subspace_points):
        for pt in pts:
            pencil.setdefault(pt, []).append(idx)
    edges = set()
    for members in pencil.values():
        for a, b in combinations(members, 2):
            edges.add((a, b))
    return Graph.from_edges(count, sorted(edges))


# -- additive Cayley machinery ----------------------------------------------

def _digit_table(p: int, length: int, n: int) -> np.ndarray:
    vals = np.arange(n, dtype=np.int64)
    digits = np.empty((n, length), dtype=np.int64)
    for i in range(length):
        digits[:, i] = vals % p
        vals //= p
    return digits


def _cayley_additive(p: int, length: int, conn) -> Graph:
    """Cayley graph of (Z_p)^length with a symmetric connection set.

    Vertex x is the integer whose base-p digits are its coordinates; in the
    field encoding used here, addition of field-element vectors is exactly
    digitwise mod-p addition of these integers.
    """
    n = p**length
    digits = _digit_table(p, length, n)
    powers = p ** np.arange(length, dtype=np.int64)
    adj = np.zeros((n, n), dtype=np.uint8)
    rows = np.arange(n)
    conn = sorted(set(conn))
    assert 0 not in conn
    for s in conn:
        target = ((digits + digits[s]) % p) @ powers
        adj[rows, target] = 1
    return Graph.from_dense(adj)


def paley(q: int) -> Graph:
    """P(q): x ~ y iff x - y is a nonzero square in GF(q); needs q = 1 mod 4."""
    pk = prime_power(q)
    if pk is None:
        raise NotPrimePower(f"{q} is not a prime power")
    if q % 4 != 1:
        raise BadCongruence(f"paley needs q = 1 (mod 4), got {q}")
    check_guard(q, _AFFINE_GUARD, "paley order")
    p, k = pk
    field = gf_construct(p, k)
    squares = {field.mul(x, x) for x in range(1, q)}
    return _cayley_additive(p, k, squares)


def peisert(p: int, t: int) -> Graph:
    """P*(p^{2t}): connection set <w^4> union w<w^4> for a primitive w."""
    if t < 1:
        raise ParamRange(f"peisert needs t >= 1, got {t}")
    if p % 4 != 3:
        raise BadCongruence(f"peisert needs p = 3 (mod 4), got {p}")
    q = p ** (2 * t)
    check_guard(q, _AFFINE_GUARD, "peisert order")
    field = gf_construct(p, 2 * t)
    w = field.primitive_element()
    conn = []
    e = 1
    for j in range(q - 1):
        if j % 4 in (0, 1):
            conn.append(e)
        e = field.mul(e, w)
    return _cayley_additive(p, 2 * t, conn)


def _anisotropic_coeff(field) -> int:
    """Least a such that x^2 + xy + a*y^2 has no nonzero root over the field."""
    for a in field.elements():
        ok = True
        for x, y in product(field.elements(), repeat=2):
            if (x, y) == (0, 0):
                continue
            val = field.add(
                field.add(field.mul(x, x), field.mul(x, y)),
                field.mul(a, field.mul(y, y)),
            )
            if val == 0:
                ok = False
                break
        if ok:
            return a
    raise AssertionError("no anisotropic binary form found")  # unreachable


def _quadratic_form(field, eps: int, m: int):
    """Q on field^{2m}: hyperbolic pairs, with an anisotropic tail if eps=-1."""
    a = _anisotropic_coeff(field) if eps == -1 else None

    def q_of(vec) -> int:
        total = 0
        pairs = m - 1 if eps == -1 else m
        for i in range(pairs):
            total = field.add(total, field.mul(vec[2 * i], vec[2 * i + 1]))
        if eps == -1:
            x, y = vec[2 * m - 2], vec[2 * m - 1]
            tail = field.add(
                field.add(field.mul(x, x), field.mul(x, y)),
                field.mul(a, field.mul(y, y)),
            )
            total = field.add(total, tail)
        return total

    return q_of


def affine_polar(eps: int, m: int, q: int) -> Graph:
    """VO^eps_{2m}(q): vectors of GF(q)^{2m}, adjacent when Q(x-y) = 0."""
    if eps not in (1, -1):
        raise ParamRange(f"eps must be +1 or -1, got {eps}")
    if m < 1:
        raise ParamRange(f"affine_polar needs m >= 1, got {m}")
    pk = prime_power(q)
    if pk is None:
        raise ParamRange(f"q must be a prime power, got {q}")
    check_guard(q ** (2 * m), _AFFINE_GUARD, "affine polar order")
    p, fk = pk
    field = gf_construct(p, fk)
    q_of = _quadratic_form(field, eps, m)
    length = 2 * m * fk
    # a vertex integer's base-p digits split into 2m field coordinates
    total = q ** (2 * m)
    conn = []
    for v in range(1, total):
        vec = _int_to_vec(v, q, 2 * m)
        if q_of(vec) == 0:
            conn.append(v)
    return _cayley_additive(p, length, conn)


def _int_to_vec(v: int, q: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(v % q)
        v //= q
    return tuple(out)


def o6_minus_collinearity(q: int) -> Graph:
    """Isotropic projective points of an elliptic quadric in GF(q)^6,
    adjacent when orthogonal for the polarized bilinear form."""
    pk = prime_power(q)
    if pk is None:
        raise ParamRange(f"q must be a prime power, got {q}")
    n_expected = (q + 1) * (q**3 + 1)
    check_guard(n_expected, _O6_GUARD, "isotropic point count")
    p, fk = pk
    field = gf_construct(p, fk)
    q_of = _quadratic_form(field, -1, 3)

    points = []
    for first_nz in range(6):
        tail_len = 5 - first_nz
        for tail in product(field.elements(), repeat=tail_len):
            vec = (0,) * first_nz + (1,) + tail
            if q_of(vec) == 0:
                points.append(vec)
    assert len(points) == n_expected, (len(points), n_expected)
    points.sort()
    edges = []
    # both points are isotropic, so B(x, y) = Q(x+y) − Q(x) − Q(y) = Q(x+y)
    for i, j in combinations(range(len(points)), 2):
        if q_of(tuple(map(field.add, points[i], points[j]))) == 0:
            edges.append((i, j))
    return Graph.from_edges(len(points), edges)


def bilinear_forms(q: int, e: int) -> Graph:
    """H_q(2,e): 2 x e matrices over GF(q), adjacent iff the difference has rank 1."""
    pk = prime_power(q)
    if pk is None:
        raise ParamRange(f"q must be a prime power, got {q}")
    if e < 2:
        raise ParamRange(f"bilinear_forms needs e >= 2, got {e}")
    check_guard(q ** (2 * e), _AFFINE_GUARD, "bilinear forms order")
    p, fk = pk
    field = gf_construct(p, fk)
    # rank-1 matrices: column direction (a,b) up to scalars, times a nonzero row
    col_reps = [(1, b) for b in field.elements()] + [(0, 1)]
    conn = []
    for a, b in col_reps:
        for row in product(field.elements(), repeat=e):
            if all(c == 0 for c in row):
                continue
            top = [field.mul(a, c) for c in row]
            bot = [field.mul(b, c) for c in row]
            entries = tuple(top + bot)
            idx = 0
            for c in reversed(entries):
                idx = idx * q + c
            conn.append(idx)
    assert len(conn) == (q + 1) * (q**e - 1)
    return _cayley_additive(p, 2 * e * fk, conn)


FAMILY_REGISTRY = {
    "multipartite": (complete_multipartite, 2, "parts size"),
    "cycle": (cycle, 1, "n"),
    "grid": (grid, 1, "n"),
    "johnson": (johnson, 1, "n"),
    "grassmann": (grassmann, 2, "q n"),
    "paley": (paley, 1, "q"),
    "peisert": (peisert, 2, "p t"),
    "vo": (affine_polar, 3, "eps m q"),
    "o6minus": (o6_minus_collinearity, 1, "q"),
    "bilinear": (bilinear_forms, 2, "q e"),
}


def construct(spec: FamilySpec) -> Graph:
    if spec.tag not in FAMILY_REGISTRY:
        raise ParamRange(f"unknown family {spec.tag!r}")
    fn, arity, _ = FAMILY_REGISTRY[spec.tag]
    if len(spec.params) != arity:
        raise ParamRange(f"{spec.tag} takes {arity} parameters, got {len(spec.params)}")
    return fn(*spec.params)
