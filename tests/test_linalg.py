"""Exact linear algebra: echelon bases and the block-by-block algebra closure."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import srgta
from srgta import linalg
from srgta.linalg import (
    ClosureBudgetExceeded,
    DimMismatch,
    SubspaceBasis,
    algebra_closure,
    closure_product_selftest,
    matmul_mod,
)
from srgta.terwilliger import _sandwiches

# one prime per arithmetic path: float64 BLAS, int64, object fallback
PRIMES = [2, 97, 1048573, 134217757, 2147483659]


def reference_matmul(a, b, p):
    n, m = a.shape[0], b.shape[1]
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            out[i][j] = sum(int(a[i, k]) * int(b[k, j]) for k in range(a.shape[1])) % p
    return np.array(out, dtype=object)


@settings(max_examples=25)
@pytest.mark.parametrize("p", PRIMES)
@given(data=st.data())
def test_matmul_mod_matches_reference(p, data):
    n = data.draw(st.integers(1, 4))
    entry = st.integers(0, p - 1)
    a = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)), dtype=object)
    b = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)), dtype=object)
    got = matmul_mod(a, b, p)
    want = reference_matmul(a, b, p)
    assert np.array_equal(np.asarray(got, dtype=object), want)


def test_basis_insert_and_contains():
    basis = SubspaceBasis(7, 3)
    assert basis.insert([1, 2, 3])
    assert basis.dim == 1
    assert not basis.insert([2, 4, 6])          # scalar multiple
    assert basis.insert([0, 1, 1])
    assert basis.dim == 2
    assert basis.contains([1, 3, 4])
    assert not basis.contains([0, 0, 1])
    with pytest.raises(DimMismatch):
        basis.insert([1, 2])


def test_basis_is_canonical_under_insertion_order():
    vectors = [[1, 2, 0, 5], [3, 1, 1, 0], [4, 3, 1, 5], [0, 0, 2, 1]]
    fwd = SubspaceBasis(11, 4)
    rev = SubspaceBasis(11, 4)
    for v in vectors:
        fwd.insert(v)
    for v in reversed(vectors):
        rev.insert(v)
    assert fwd.dim == rev.dim
    assert fwd.pivots == rev.pivots
    for a, b in zip(fwd.rows, rev.rows):
        assert np.array_equal(a, b)


def test_rational_basis_uses_fractions():
    basis = SubspaceBasis(None, 2)
    basis.insert([Fraction(1, 2), Fraction(1, 3)])
    assert basis.dim == 1
    assert basis.rows[0][0] == Fraction(1)     # normalized leading entry
    assert basis.contains([Fraction(3), Fraction(2)])
    assert not basis.contains([1, 1])


def test_wide_prime_basis_routes_through_objects():
    p = 2147483659
    basis = SubspaceBasis(p, 2)
    basis.insert([p - 1, 1])
    assert basis.dim == 1
    assert basis.contains([1, p - 1])   # (-1) times the stored row
    assert basis.rows[0].dtype == object


@given(st.integers(2, 5), st.data())
def test_dim_never_exceeds_ambient(n, data):
    entry = st.integers(0, 6)
    basis = SubspaceBasis(7, n)
    rows = data.draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=8)
    )
    grew = sum(bool(basis.insert(r)) for r in rows)
    assert basis.dim == grew <= n
    for r in rows:
        assert basis.contains(r)


# -- closure -------------------------------------------------------------------

def shift_matrix(n):
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        m[i, i + 1] = 1
    return m


def one_cell(*gens):
    return [((0, 0), g) for g in gens]


def test_closure_of_nilpotent_shift():
    space, mats, _ = algebra_closure(one_cell(shift_matrix(4)), [4], 97)
    # I, N, N^2, N^3
    assert space.dim == 4
    assert len(mats) == 4
    closure_product_selftest(space, mats, 97)


def test_selftest_raises_under_python_optimize():
    # span{I, N} with N the 3x3 shift is not product-closed: N^2 lies outside it
    code = textwrap.dedent("""
        import numpy as np
        from srgta.linalg import BlockBasis, closure_product_selftest
        mats = [((0, 0), np.eye(3, dtype=np.int64)), ((0, 0), np.eye(3, k=1, dtype=np.int64))]
        space = BlockBasis(97, (3,))
        for pair, m in mats:
            space.insert(pair, m)
        closure_product_selftest(space, mats, 97)
    """)
    src = str(Path(srgta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "ClosureSelfTestFailed" in proc.stderr


def test_closure_of_all_ones():
    j = np.ones((5, 5), dtype=np.int64)
    space, _, _ = algebra_closure(one_cell(j), [5], 1048573)
    assert space.dim == 2                       # span{I, J}; J^2 = 5J
    assert space.contains((0, 0), (3 * j + 2 * np.eye(5, dtype=np.int64)) % 1048573)


def test_closure_rational_matches_mod_p():
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    mod_p, _, _ = algebra_closure(one_cell(a), [3], 1048573)
    exact, _, _ = algebra_closure(one_cell(a), [3], None)
    assert mod_p.dim == exact.dim == 3


def test_closure_budget():
    rng = np.random.default_rng(1)
    gens = [rng.integers(0, 2, size=(6, 6)) for _ in range(2)]
    with pytest.raises(ClosureBudgetExceeded):
        algebra_closure(one_cell(*gens), [6], 97, cap=2)
    with pytest.raises(ValueError):
        algebra_closure([], [3], 97)


def test_closure_dimension_is_substrate_independent():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, size=(5, 5))
    a = np.triu(a, 1)
    a = a + a.T
    dims = {algebra_closure(one_cell(a), [5], p)[0].dim for p in (97, 1048573, None)}
    assert len(dims) == 1


def test_closure_of_cell_identities_is_block_diagonal():
    space, _, seeded = algebra_closure([((1, 1), np.eye(2, dtype=np.int64))], [1, 2], 7)
    assert seeded.tolist() == space.blocks().tolist() == [[1, 0], [0, 1]]
    assert space.dim == 2


def test_closure_blocks_count_support():
    # E*0 + E_01 + E_02 on three singleton cells: products with matching inner
    # cells give nothing new
    one = np.ones((1, 1), dtype=np.int64)
    space, _, seeded = algebra_closure([((0, 1), one), ((0, 2), one)], [1, 1, 1], 7)
    assert seeded.tolist() == space.blocks().tolist() == [[1, 1, 1], [0, 1, 0], [0, 0, 1]]


def test_closure_validates_block_shapes():
    with pytest.raises(DimMismatch):
        algebra_closure([((0, 1), np.ones((2, 2), dtype=np.int64))], [1, 2], 97)
    with pytest.raises(DimMismatch):
        algebra_closure([((1, 0), np.ones((1, 2), dtype=np.int64))], [1, 2], 97)


class Echelon:
    """Naive row reduction over GF(p), or over the rationals for p=None."""

    def __init__(self, p):
        self.p = p
        self.rows = {}            # pivot column -> row with leading entry 1

    def insert(self, values) -> bool:
        p = self.p
        v = [Fraction(int(x)) if p is None else int(x) % p for x in values]
        for piv in sorted(self.rows):
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, self.rows[piv])]
                if p is not None:
                    v = [a % p for a in v]
        nz = [i for i, a in enumerate(v) if a]
        if not nz:
            return False
        lead = v[nz[0]]
        inv = 1 / lead if p is None else pow(lead, p - 2, p)
        self.rows[nz[0]] = [a * inv if p is None else a * inv % p for a in v]
        return True


def reference_closure(gens, n, p):
    """Spanning matrices of the unital algebra generated by gens, the naive way.

    Every ordered pair of spanning matrices is multiplied, so both orders are
    taken, until a round adds nothing.  The row reduction is its own, not
    SubspaceBasis; p=None reduces over the rationals.
    """
    echelon = Echelon(p)
    mats = []

    def insert(m):
        if echelon.insert(m.reshape(-1)):
            mats.append(m)

    def reduce_mod(m):
        return m if p is None else m % p

    insert(np.eye(n, dtype=object))
    for g in gens:
        insert(reduce_mod(np.asarray(g, dtype=object)))
    while len(mats) < n * n:      # the full matrix space cannot grow
        before = len(mats)
        for x in list(mats):
            for y in list(mats):
                insert(reduce_mod(x @ y))
        if len(mats) == before:
            break
    return mats


@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize("p", [97, 1048573, None])
@given(data=st.data())
def test_closure_matches_naive_two_sided_closure(p, data):
    # a random partition of 1-3 cells and block-pure 0/1 generators, against
    # the naive closure of their assembled n×n matrices and the cell masks
    n = data.draw(st.integers(2, 5))
    c = data.draw(st.integers(1, min(3, n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=c - 1, max_size=c - 1)))
    order = data.draw(st.permutations(range(n)))
    cells = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    sizes = [len(cell) for cell in cells]
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        i, l = data.draw(st.tuples(st.integers(0, c - 1), st.integers(0, c - 1)))
        row = st.lists(st.integers(0, 1), min_size=sizes[l], max_size=sizes[l])
        block = data.draw(st.lists(row, min_size=sizes[i], max_size=sizes[i]))
        gens.append(((i, l), np.array(block, dtype=np.int64)))

    def assemble(pair, block):
        m = np.zeros((n, n), dtype=np.int64)
        m[np.ix_(cells[pair[0]], cells[pair[1]])] = block
        return m

    masks = [assemble((i, i), np.eye(size, dtype=np.int64)) for i, size in enumerate(sizes)]
    # a closure that multiplies on one side only must be caught, so some
    # matrix is not symmetric and, with more than one, some pair does not
    # commute; a single cell's mask is I and is left out of both
    mats = [assemble(*g) for g in gens] + (masks if c > 1 else [])
    assume(any(np.any(m != m.T) for m in mats))
    if len(mats) > 1:
        assume(any(np.any(a @ b != b @ a) for a in mats for b in mats))
    want = reference_closure([assemble(*g) for g in gens] + masks, n, p)
    space, _, seeded = algebra_closure(gens, sizes, p, cap=n * n)
    assert space.dim == len(want)
    for (i, l), basis in space.bases.items():
        part = Echelon(p)
        cut = [m[np.ix_(cells[i], cells[l])] for m in want]
        assert basis.dim == sum(part.insert(b.reshape(-1)) for b in cut)
        for b in cut:
            assert space.contains((i, l), b)
        seeds = [b for pair, b in gens if pair == (i, l)] + [np.eye(sizes[i])] * (i == l)
        part = Echelon(p)
        assert seeded[i, l] == sum(part.insert(b.reshape(-1)) for b in seeds)


def test_closure_products_grow_linearly_with_dim(monkeypatch, paley13):
    gens, sizes = _sandwiches(paley13, 0)
    calls = []
    real_mul = linalg.matmul_mod

    def counting_mul(x, y, p):
        calls.append(1)
        return real_mul(x, y, p)

    monkeypatch.setattr(linalg, "matmul_mod", counting_mul)
    space, _, _ = algebra_closure(gens, sizes, 1048573)
    assert space.dim == 21
    assert len(calls) <= 6 * space.dim
