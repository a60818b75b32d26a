"""Exact linear algebra: triangular bases and the block-by-block algebra closure."""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import srgta
from srgta import linalg
from srgta.linalg import (
    BlockBasis,
    ClosureBudgetExceeded,
    ClosureSelfTestFailed,
    DimMismatch,
    NotConstantOnClasses,
    SubspaceBasis,
    algebra_closure,
    closure_product_selftest,
    matmul_mod,
)
from srgta.permgroup import schreier_sims
from srgta.terwilliger import pair_orbitals

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


def same_span(a, b) -> bool:
    """Equal dims, and each basis holds the other's rows."""
    return a.dim == b.dim and all(a.contains(r) for r in b.rows) and all(b.contains(r) for r in a.rows)


def test_span_does_not_depend_on_insertion_order():
    # rank 3 over each field: the third vector is the sum of the first two
    vectors = [[1, 2, 0, 5], [3, 1, 1, 0], [4, 3, 1, 5], [0, 0, 2, 1]]
    for p in (11, 2147483659, None):
        fwd = SubspaceBasis(p, 4)
        rev = SubspaceBasis(p, 4)
        for v in vectors:
            fwd.insert(v)
        for v in reversed(vectors):
            rev.insert(v)
        assert fwd.dim == 3
        assert same_span(fwd, rev)
        assert not fwd.contains([0, 0, 0, 1])


def test_rational_basis_holds_primitive_integer_rows():
    with pytest.raises(ValueError):
        SubspaceBasis(None, 2).insert([Fraction(1, 2), 1])
    basis = SubspaceBasis(None, 3)
    assert basis.insert([0, 3, 1]) and basis.insert(np.array([2, 0, 5]))
    assert [r.tolist() for r in basis.rows] == [[0, 3, 1], [2, 0, 5]]
    for row in basis.rows:
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
    assert basis.contains([2, 3, 6]) and not basis.contains([2, 3, 7])
    # 3·(2, 3, 6) − 3·(0, 3, 1) = (6, 0, 15) is stored divided by its gcd
    basis = SubspaceBasis(None, 3)
    assert basis.insert([0, 3, 1]) and basis.insert([2, 3, 6])
    assert [r.tolist() for r in basis.rows] == [[0, 3, 1], [2, 0, 5]]


@pytest.mark.parametrize("p", [None, 7, 2147483659])
def test_non_integral_entries_raise_on_every_field(p):
    for v in ([0.5, 0.25], [Fraction(1, 2), 1]):
        with pytest.raises(ValueError):
            SubspaceBasis(p, 2).insert(v)
        with pytest.raises(ValueError):
            SubspaceBasis(p, 2).contains(v)
    basis = SubspaceBasis(p, 2)
    assert basis.insert([2.0, 4.0])
    assert basis.contains([1, 2]) and not basis.contains([2, 1])
    assert basis.insert([Fraction(4, 2), 1]) and basis.dim == 2


@pytest.mark.parametrize("p", [None, 7, 2147483659])
def test_entries_past_int64_are_reduced_exactly(p):
    # np.asarray rounds this list through float64, and int64 wraps the uint64 array
    big = 2**64 - 1
    v = [big, big % p if p else big]
    basis = SubspaceBasis(p, 2)
    basis.insert([1, 1])
    assert basis.contains(v)
    assert basis.contains(np.array(v, dtype=np.uint64))


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


def _orbital_labels(perms, n):
    """The orbitals on ordered pairs of the group the permutations generate,
    numbered in an n×n array, by a walk from every pair."""
    labels = np.full((n, n), -1)
    count = 0
    for pair in product(range(n), repeat=2):
        if labels[pair] >= 0:
            continue
        labels[pair] = count
        frontier = [pair]
        while frontier:
            x, y = frontier.pop()
            for s in perms:
                if labels[s[x], s[y]] < 0:
                    labels[s[x], s[y]] = count
                    frontier.append((s[x], s[y]))
        count += 1
    return labels


@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize("p", [97, 1048573, None])
@given(data=st.data())
def test_closure_on_group_orbitals_matches_naive_closure(p, data):
    # H is generated by random permutations that keep each cell of a random
    # partition, and the generators are 0/1 and constant on H's orbitals, so
    # the whole closure commutes with H and is held by its orbital values
    n = data.draw(st.integers(2, 6))
    c = data.draw(st.integers(1, min(3, n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=c - 1, max_size=c - 1)))
    order = data.draw(st.permutations(range(n)))
    cells = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    sizes = [len(cell) for cell in cells]
    perms = []
    for _ in range(data.draw(st.integers(0, 2))):
        s = list(range(n))
        for cell in cells:
            for x, y in zip(cell, data.draw(st.permutations(cell))):
                s[x] = y
        perms.append(s)
    orbitals = _orbital_labels(perms, n)
    labels = {}
    for i, l in product(range(c), repeat=2):  # renumbered in the order of first entries
        _, first, inverse = np.unique(orbitals[np.ix_(cells[i], cells[l])], return_index=True,
                                      return_inverse=True)
        labels[i, l] = np.argsort(np.argsort(first))[inverse].reshape(sizes[i], sizes[l])
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        i, l = data.draw(st.tuples(st.integers(0, c - 1), st.integers(0, c - 1)))
        chosen = data.draw(st.sets(st.sampled_from(sorted(set(labels[i, l].ravel().tolist())))))
        gens.append(((i, l), np.isin(labels[i, l], list(chosen)).astype(np.int64)))

    def assemble(pair, block):
        m = np.zeros((n, n), dtype=np.int64)
        m[np.ix_(cells[pair[0]], cells[pair[1]])] = block
        return m

    masks = [assemble((i, i), np.eye(size, dtype=np.int64)) for i, size in enumerate(sizes)]
    want = reference_closure([assemble(*g) for g in gens] + masks, n, p)
    space, _, _ = algebra_closure(gens, sizes, p, cap=n * n, labels=labels)
    for (i, l), basis in space.bases.items():
        part = Echelon(p)
        cut = [m[np.ix_(cells[i], cells[l])] for m in want]
        assert basis.dim == sum(part.insert(b.reshape(-1)) for b in cut)
        for b in cut:
            assert space.contains((i, l), space.coordinates((i, l), b))


def test_closure_rejects_coordinates_a_generator_is_not_constant_on():
    # the classes {(0,0), (1,1)} and {(0,1), (1,0)} hold I but merge the two
    # off-diagonal entries that the shift tells apart
    labels = {(0, 0): np.array([[0, 1], [1, 0]])}
    with pytest.raises(NotConstantOnClasses):
        algebra_closure(one_cell(shift_matrix(2)), [2], 97, labels=labels)


def test_block_basis_rejects_labels_not_numbered_by_first_entries():
    for labels in ([[1, 0], [0, 1]], [[0, 2], [2, 0]], [[0, -1], [-1, 0]]):
        with pytest.raises(ValueError, match="not numbered by first entries"):
            BlockBasis(97, (2,), {(0, 0): np.array(labels)})


def test_closure_products_grow_linearly_with_dim(monkeypatch, paley13):
    # the dense closure's generators: the blocks of A₁ and A₂ on each cell pair
    orb = pair_orbitals(paley13, schreier_sims([], n=13), 0)
    gens = [
        ((i, l), orb.relation[orb.cells[i], orb.cells[l]] == j)
        for i, l in product(range(3), repeat=2)
        for j in (1, 2)
    ]
    calls = []
    real_mul = linalg.matmul_mod

    def counting_mul(x, y, p):
        calls.append(1)
        return real_mul(x, y, p)

    monkeypatch.setattr(linalg, "matmul_mod", counting_mul)
    space, _, _ = algebra_closure(gens, orb.sizes, 1048573)
    assert space.dim == 21
    assert len(calls) <= 6 * space.dim


def _per_draw_verdicts(space, mats, p):
    """The self-test's 50 draws (i, j), each judged on its own: "constancy"
    for a product off its cell pair's classes, "outside" for one outside
    the span (by `contains`), else "ok"."""
    rows = {}
    for idx, ((k, _), _) in enumerate(mats):
        rows.setdefault(k, []).append(idx)
    rng = np.random.default_rng(0)
    verdicts = []
    for _ in range(50):
        i = int(rng.integers(len(mats)))
        (a, k), x = mats[i]
        j = rows[k][int(rng.integers(len(rows[k])))]
        (_, l), y = mats[j]
        dense = matmul_mod(space.dense((a, k), x), space.dense((k, l), y), p)
        try:
            coords = space.coordinates((a, l), dense)
        except NotConstantOnClasses:
            verdicts.append((i, j, "constancy"))
            continue
        verdicts.append((i, j, "ok" if space.contains((a, l), coords) else "outside"))
    return verdicts


def _drop_row(basis, at):
    del basis.rows[at]
    del basis.pivots[at]


@pytest.mark.parametrize("p", [97, 1048573, 2147483659, None])
def test_selftest_names_the_first_draw_outside_a_thinned_span(paley13, p):
    # Paley(13)'s closure on its matrix entries over three cells, with a row
    # taken out of blocks (1, 1) and (0, 2): the self-test must name the
    # first of the draws that fall outside the span
    orb = pair_orbitals(paley13, schreier_sims([], n=13), 0)
    gens = [
        ((i, l), orb.relation[orb.cells[i], orb.cells[l]] == j)
        for i, l in product(range(3), repeat=2)
        for j in (1, 2)
    ]
    space, mats, _ = algebra_closure(gens, orb.sizes, p)
    closure_product_selftest(space, mats, p)
    _drop_row(space.bases[1, 1], 1)
    _drop_row(space.bases[0, 2], 0)
    verdicts = _per_draw_verdicts(space, mats, p)
    kinds = [kind for _, _, kind in verdicts]
    first = kinds.index("outside")
    assert "constancy" not in kinds and kinds[0] == "ok"
    assert len({(i, j) for i, j, kind in verdicts if kind == "outside"}) > 1
    i, j, _ = verdicts[first]
    want = f"product of spanning matrices {i} and {j} lies outside the span"
    with pytest.raises(ClosureSelfTestFailed, match=f"^{want}$"):
        closure_product_selftest(space, mats, p)


@pytest.mark.parametrize("drop", [False, True])
def test_selftest_names_the_first_failing_draw_of_either_kind(drop):
    # classes {(0,0), (1,1)}, {(0,1)} and {(1,0)} of one 2×2 cell hold E₀₁, I
    # and E₁₀, but E₀₁E₁₀ = E₀₀ is not constant on them; with E₀₁'s row
    # dropped, E₀₁·I also falls outside the span, at an earlier draw
    labels = {(0, 0): np.array([[0, 1], [2, 0]])}
    space = BlockBasis(97, (2,), labels)
    mats = [((0, 0), np.array(x, dtype=np.int64)) for x in ([0, 1, 0], [1, 0, 0], [0, 0, 1])]
    for pair, x in mats:
        space.insert(pair, x)
    if drop:
        basis = space.bases[0, 0]
        _drop_row(basis, basis.pivots.index(1))
    verdicts = _per_draw_verdicts(space, mats, 97)
    kinds = [kind for _, _, kind in verdicts]
    assert "constancy" in kinds and ("outside" in kinds) == drop
    i, j, kind = next(v for v in verdicts if v[2] != "ok")
    assert kind == ("outside" if drop else "constancy")
    tail = " lies outside the span$" if drop else ": "
    with pytest.raises(ClosureSelfTestFailed, match=f"^product of spanning matrices {i} and {j}{tail}"):
        closure_product_selftest(space, mats, 97)
