"""Permutation machinery: composition, orbits, Schreier-Sims chains."""

from functools import cache
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from srgta.autgrp import automorphism_group
from srgta.families import FamilySpec, construct
from srgta.graphcore import ParseError, VertexOutOfRange, complement
from srgta.permgroup import (
    DegreeMismatch,
    compose,
    extend,
    identity,
    inverse,
    orbit,
    orbit_count,
    orbits,
    pair_orbit_labels,
    point_stabilizer,
    read_generators,
    schreier_sims,
    transitivity_rank,
    two_point_stabilizer,
    write_generators,
)

ROT5 = (1, 2, 3, 4, 0)
FLIP5 = (0, 4, 3, 2, 1)        # reflection of the 5-cycle fixing 0
S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0)]


def closure(gens):
    """Brute-force group closure, for cross-checking chain orders."""
    n = len(gens[0])
    seen = {identity(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = compose(h, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)
    assert compose(q, p) == (2, 1, 0)
    assert compose(p, inverse(p)) == identity(3)


def test_orbit_of_rotation():
    assert orbit([ROT5], 0) == {0, 1, 2, 3, 4}
    assert orbit([FLIP5], 1) == {1, 4}
    with pytest.raises(VertexOutOfRange):
        orbit([ROT5], 9)


def test_orbit_counts():
    assert orbit_count([identity(7)], 7) == 7
    assert orbit_count([ROT5], 5) == 1
    assert orbit_count([FLIP5], 5) == 3  # {0}, {1,4}, {2,3}
    with pytest.raises(DegreeMismatch):
        orbit_count([ROT5], 6)


def test_orbits_partition():
    parts = orbits([FLIP5], 5)
    assert sorted(map(sorted, parts)) == [[0], [1, 4], [2, 3]]


def test_schreier_sims_s4():
    group = schreier_sims(S4_GENS)
    assert group.order == 24
    for p in permutations(range(4)):
        assert group.contains(p)


def test_schreier_sims_small_groups():
    assert schreier_sims([(1, 0, 2)]).order == 2
    assert schreier_sims([], n=5).order == 1
    with pytest.raises(ValueError):
        schreier_sims([])
    with pytest.raises(DegreeMismatch):
        schreier_sims([ROT5, (1, 0)])


def test_alternating_group_membership():
    a4 = schreier_sims([(1, 2, 0, 3), (0, 2, 3, 1)])  # two 3-cycles
    assert a4.order == 12
    assert not a4.contains((1, 0, 2, 3))
    assert a4.contains((1, 0, 3, 2))


def test_base_prefix_keeps_order():
    plain = schreier_sims(S4_GENS)
    prefixed = schreier_sims(S4_GENS, base_prefix=(3, 1))
    assert plain.order == prefixed.order == 24
    assert prefixed.base[:2] == (3, 1)


@settings(max_examples=40)
@given(st.integers(3, 6), st.data())
def test_chain_order_matches_brute_closure(n, data):
    perm = st.permutations(range(n)).map(tuple)
    gens = data.draw(st.lists(perm, min_size=1, max_size=3))
    group = schreier_sims(gens)
    assert group.order == len(closure(gens))


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.data())
def test_incremental_chain_matches_brute_force(n, data):
    """Grow a chain one generator at a time; after each step the order,
    membership and rebased two-point stabilizers match brute force."""
    # uniform shuffles as well, so that large groups (up to S_8) come up often
    perm = st.one_of(
        st.permutations(range(n)).map(tuple),
        st.randoms(use_true_random=False).map(lambda r: tuple(r.sample(range(n), n))),
    )
    chain = schreier_sims([], n=n)
    gens = []
    for g in data.draw(st.lists(perm, min_size=1, max_size=3), label="gens"):
        gens.append(g)
        chain = extend(chain, g)
        elements = closure(gens)
        assert chain.order == len(elements)
        probes = data.draw(st.lists(perm, max_size=6), label="probes")
        for p in probes + [compose(a, b) for a in gens for b in gens]:
            assert chain.contains(p) == (p in elements)
        omega = data.draw(st.integers(0, n - 1), label="omega")
        x = (omega + data.draw(st.integers(1, n - 1), label="x - omega")) % n
        fresh = schreier_sims(gens, base_prefix=(omega,), n=n)
        stab_order = fresh.order // len(orbit(gens, omega))
        x_orbit = orbit(fresh.stabilizer(1).strong_gens, x)
        two = two_point_stabilizer(chain, omega, x)
        assert schreier_sims(two, n=n).order == stab_order // len(x_orbit)
        assert schreier_sims(two, n=n).order == sum(
            1 for p in elements if p[omega] == omega and p[x] == x
        )


def test_extend_leaves_the_old_chain_intact():
    trivial = schreier_sims([], base_prefix=(0,), n=5)
    rot = extend(trivial, ROT5)
    d5 = extend(rot, FLIP5)
    other = extend(rot, ROT5)  # already a member: same group
    assert (trivial.order, rot.order, d5.order, other.order) == (1, 5, 10, 5)
    assert not rot.contains(FLIP5) and d5.contains(FLIP5)
    assert trivial.base == rot.base[:1] == d5.base[:1] == (0,)


def test_dihedral_stabilizers():
    d5 = schreier_sims([ROT5, FLIP5])
    assert d5.order == 10
    stab = point_stabilizer(d5, 0)
    assert schreier_sims(stab, n=5).order == 2
    assert two_point_stabilizer(d5, 0, 1) == []
    with pytest.raises(ValueError):
        two_point_stabilizer(d5, 2, 2)
    with pytest.raises(VertexOutOfRange):
        point_stabilizer(d5, 5)


def test_orbit_stabilizer_identity():
    for gens in ([ROT5, FLIP5], S4_GENS, [(1, 0, 2), (0, 2, 1)]):
        group = schreier_sims(gens)
        n = group.n
        for w in range(n):
            stab_order = schreier_sims(point_stabilizer(group, w), n=n).order
            assert group.order == len(orbit(gens, w)) * stab_order


# name -> (order, rank) of a transitive group, for the property test below
CHAIN_GROUPS = {
    "S4": (24, 2),
    "A4": (12, 2),
    "D5": (10, 3),
    "aut_petersen": (120, 3),
    "aut_grid3": (72, 3),
    "aut_paley13": (78, 3),
}


@cache
def chain_group_gens(name):
    if name == "S4":
        return S4_GENS
    if name == "A4":
        return [(1, 2, 0, 3), (0, 2, 3, 1)]
    if name == "D5":
        return [ROT5, FLIP5]
    g = {
        "aut_petersen": lambda: complement(construct(FamilySpec("johnson", (5,)))),
        "aut_grid3": lambda: construct(FamilySpec("grid", (3,))),
        "aut_paley13": lambda: construct(FamilySpec("paley", (13,))),
    }[name]()
    return automorphism_group(g).gens


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CHAIN_GROUPS)), st.data())
def test_orbit_stabilizer_on_chains_with_any_base(name, data):
    """|G| = |w^G| |G_w| and |G_w| = |x^(G_w)| |G_(w,x)|, whatever the base."""
    gens = chain_group_gens(name)
    order, rank = CHAIN_GROUPS[name]
    n = len(gens[0])
    omega = data.draw(st.integers(0, n - 1), label="omega")
    x = data.draw(st.integers(0, n - 1).filter(lambda v: v != omega), label="x")
    prefix = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3))
    if data.draw(st.booleans(), label="base starts at omega"):
        prefix = [omega] + [b for b in prefix if b != omega]
    chain = schreier_sims(gens, base_prefix=tuple(prefix), n=n)
    assert chain.order == order
    assert transitivity_rank(chain, n) == (True, rank)
    stab = point_stabilizer(chain, omega)
    stab_order = schreier_sims(stab, n=n).order
    assert order == len(orbit(gens, omega)) * stab_order
    two = two_point_stabilizer(chain, omega, x)
    assert all(p[omega] == omega and p[x] == x for p in two)
    assert stab_order == len(orbit(stab, x)) * schreier_sims(two, n=n).order
    # the first two base points: both chains are tails of this one
    b0, b1 = chain.base[:2]
    first = point_stabilizer(chain, b0)
    two = two_point_stabilizer(chain, b0, b1)
    assert all(p[b0] == b0 and p[b1] == b1 for p in two)
    assert schreier_sims(first, n=n).order == len(orbit(first, b1)) * schreier_sims(two, n=n).order
    for d in range(len(chain.levels) + 1):
        stab = chain.stabilizer(d)
        assert stab.order == chain.order // prod(lvl.size for lvl in chain.levels[:d])
        assert schreier_sims(stab.strong_gens, n=n).order == stab.order
        assert all(p[b] == b for p in stab.strong_gens for b in chain.base[:d])


def test_transitivity_rank_examples():
    assert transitivity_rank(schreier_sims([ROT5, FLIP5]), 5) == (True, 3)
    assert transitivity_rank(schreier_sims(S4_GENS), 4) == (True, 2)
    intransitive = schreier_sims([(1, 0, 2)])
    assert transitivity_rank(intransitive, 3) == (False, None)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.count = n

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.count -= 1


def _pair_orbit_labels_reference(gens, n):
    """Per-pair union-find over all ordered pairs, labelled by least pair."""
    uf = _UnionFind(n * n)
    for g in gens:
        for x in range(n):
            for y in range(n):
                uf.union(x * n + y, g[x] * n + g[y])
    least = {}
    for pair in range(n * n):
        root = uf.find(pair)
        least.setdefault(root, pair)
    return [[least[uf.find(x * n + y)] for y in range(n)] for x in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.data())
def test_pair_orbit_labels_match_reference(n, data):
    perm = st.permutations(range(n)).map(tuple)
    gens = data.draw(st.lists(perm, max_size=3), label="gens")
    labels = pair_orbit_labels(gens, n)
    assert labels.tolist() == _pair_orbit_labels_reference(gens, n)


def test_pair_orbit_labels_on_the_pentagon():
    d5 = schreier_sims([ROT5, FLIP5])
    stab = point_stabilizer(d5, 0)
    labels = pair_orbit_labels(stab, 5)
    assert labels[0, 0] == 0 and labels[2, 3] == 2 * 5 + 3
    assert labels[0, 4] == labels[0, 1] == 1
    # the stabilizer is {id, flip}; the flip fixes none of 1..4, so the 16
    # ordered pairs on them fall into 8 two-element orbits
    assert len({int(x) for x in labels[1:, 1:].ravel()}) == 8
    assert pair_orbit_labels([], 3).tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


def test_orbital_blocks_sum_to_stabilizer_orbit_count_on_pairs():
    d5 = schreier_sims([ROT5, FLIP5])
    stab = point_stabilizer(d5, 0)
    cells = ((0,), (1, 4), (2, 3))  # orbits of the stabilizer
    labels = pair_orbit_labels(stab, 5)
    total = sum(
        len({int(labels[x, y]) for x in ci for y in cj}) for ci in cells for cj in cells
    )
    # brute force: orbits of the stabilizer acting on all ordered pairs
    pairs = {(x, y) for x in range(5) for y in range(5)}
    seen = set()
    count = 0
    for pair in sorted(pairs):
        if pair in seen:
            continue
        count += 1
        frontier = [pair]
        while frontier:
            x, y = frontier.pop()
            if (x, y) in seen:
                continue
            seen.add((x, y))
            for g in stab:
                frontier.append((g[x], g[y]))
    assert total == count


# -- generator files ----------------------------------------------------------

def test_generator_file_roundtrip(tmp_path):
    path = tmp_path / "d5.gens"
    write_generators(path, 5, [ROT5, FLIP5])
    degree, perms, linenos = read_generators(path)
    assert degree == 5
    assert perms == [ROT5, FLIP5]
    assert linenos == [2, 3]


@pytest.mark.parametrize(
    "text",
    [
        "5\n",                       # header needs two fields
        "5 2\n1 2 3 4 0\n",          # announced 2 generators, found 1
        "3 1\n0 1 1\n",              # not a permutation
        "3 1\n0 1\n",                # wrong image count
        "",                          # missing header
        "3 1\na b c\n",              # non-integer
    ],
)
def test_generator_file_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.gens"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_generators(path)


def test_generator_file_rejects_non_utf8(tmp_path):
    path = tmp_path / "utf16.gens"
    path.write_bytes(b"\xff\xfe3 1\n1 2 0\n")
    with pytest.raises(ParseError, match="not UTF-8 text"):
        read_generators(path)
