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
    """Row v holds the first `length` base-p digits of v, least significant first."""
    return np.arange(n, dtype=np.int64)[:, None] // p ** np.arange(length, dtype=np.int64) % p


def _cayley_additive(p: int, length: int, conn) -> Graph:
    """Cayley graph of (Z_p)^length with a symmetric connection set.

    Vertex x is the integer whose base-p digits are its coordinates; in the
    field encoding used here, addition of field-element vectors is exactly
    digitwise mod-p addition of these integers.  x ~ y iff the digitwise
    difference y − x lies in the connection set.  That difference is
    accumulated one digit at a time on the n×n pairs, viewed with one axis
    per digit of x and of y (most significant first), and then looked up
    in an indicator of the set.
    """
    conn = sorted(set(conn))
    if 0 in conn:
        raise ValueError("a Cayley graph's connection set must not hold 0")
    n = p**length
    dtype = np.min_scalar_type(n - 1)
    sub = ((np.arange(p)[None, :] - np.arange(p)[:, None]) % p).astype(dtype)
    diff = np.zeros((p,) * (2 * length), dtype=dtype)
    for t in range(length):
        shape = [1] * (2 * length)
        shape[length - 1 - t] = shape[2 * length - 1 - t] = p
        diff += (sub * dtype.type(p**t)).reshape(shape)
    indicator = np.zeros(n, dtype=np.uint8)
    indicator[conn] = 1
    return Graph.from_dense(indicator[diff.reshape(n, n)])


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


def _field_tables(field) -> tuple[np.ndarray, np.ndarray]:
    """The q x q addition and multiplication tables of the field, in the
    least unsigned dtype that holds q - 1, so gathers over them stay small."""
    els = range(field.q)
    dtype = np.min_scalar_type(field.q - 1)
    add = np.array([[field.add(a, b) for b in els] for a in els], dtype=dtype)
    mul = np.array([[field.mul(a, b) for b in els] for a in els], dtype=dtype)
    return add, mul


def _quadratic_form(add, mul, a, vecs) -> np.ndarray:
    """Q on the last axis of vecs: x0*x1 + x2*x3 + ..., where the last pair
    is the anisotropic x^2 + xy + a*y^2 instead when a is not None."""
    pairs = vecs.shape[-1] // 2
    total = np.zeros(vecs.shape[:-1], dtype=add.dtype)
    for i in range(pairs):
        x, y = vecs[..., 2 * i], vecs[..., 2 * i + 1]
        term = mul[x, y]
        if a is not None and i == pairs - 1:
            term = add[add[mul[x, x], term], mul[a, mul[y, y]]]
        total = add[total, term]
    return total


def _anisotropic_coeff(add, mul) -> int:
    """Least a such that x^2 + xy + a*y^2 has no nonzero root over the field."""
    pairs = np.moveaxis(np.indices(add.shape), 0, -1)
    for a in range(len(add)):
        # the root (0, 0) is always there
        if np.count_nonzero(_quadratic_form(add, mul, a, pairs) == 0) == 1:
            return a
    raise AssertionError("no anisotropic binary form found")  # unreachable


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
    add, mul = _field_tables(gf_construct(p, fk))
    a = _anisotropic_coeff(add, mul) if eps == -1 else None
    # a vertex integer's base-q digits are its 2m field coordinates, so its
    # base-p digits are theirs, fk to a coordinate
    vecs = _digit_table(q, 2 * m, q ** (2 * m))
    isotropic = np.flatnonzero(_quadratic_form(add, mul, a, vecs) == 0)
    return _cayley_additive(p, 2 * m * fk, isotropic[1:].tolist())


def o6_minus_collinearity(q: int) -> Graph:
    """Isotropic projective points of an elliptic quadric in GF(q)^6,
    adjacent when orthogonal for the polarized bilinear form."""
    pk = prime_power(q)
    if pk is None:
        raise ParamRange(f"q must be a prime power, got {q}")
    n_expected = (q + 1) * (q**3 + 1)
    check_guard(n_expected, _O6_GUARD, "isotropic point count")
    add, mul = _field_tables(gf_construct(*pk))
    a = _anisotropic_coeff(add, mul)
    # most significant digit first, so the rows run in lexicographic order
    vecs = _digit_table(q, 6, q**6)[1:, ::-1]
    leading = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    points = vecs[(leading == 1) & (_quadratic_form(add, mul, a, vecs) == 0)].astype(add.dtype)
    assert len(points) == n_expected, (len(points), n_expected)
    # both points are isotropic, so B(x, y) = Q(x+y) − Q(x) − Q(y) = Q(x+y)
    sums = add[points[:, None, :], points[None, :, :]]
    return Graph.from_dense(_quadratic_form(add, mul, a, sums) == 0)


def bilinear_forms(q: int, e: int) -> Graph:
    """H_q(2,e): 2 x e matrices over GF(q), adjacent iff the difference has rank 1."""
    pk = prime_power(q)
    if pk is None:
        raise ParamRange(f"q must be a prime power, got {q}")
    if e < 2:
        raise ParamRange(f"bilinear_forms needs e >= 2, got {e}")
    check_guard(q ** (2 * e), _AFFINE_GUARD, "bilinear forms order")
    p, fk = pk
    _, mul = _field_tables(gf_construct(p, fk))
    # rank-1 matrices: column direction (a,b) up to scalars, times a nonzero row
    cols = np.array([(1, b) for b in range(q)] + [(0, 1)])
    rows = _digit_table(q, e, q**e)[1:]
    entries = mul[cols[:, None, :, None], rows[None, :, None, :]].reshape(-1, 2 * e)
    conn = entries @ q ** np.arange(2 * e)
    assert len(np.unique(conn)) == (q + 1) * (q**e - 1)
    return _cayley_additive(p, 2 * e * fk, conn.tolist())


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
