"""Automorphism search: refinement, backtracking, imports, isomorphism."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srgta import autgrp
from srgta.autgrp import (
    NotAnAutomorphism,
    Timeout,
    automorphism_group,
    find_isomorphism,
    import_generators,
    _AUT_SIZE_GUARD,
    SearchStats,
    _child,
    _refine_ids,
    _root,
    _trace,
)
from srgta.classifier import intersection_numbers, triple_transitivity_verdict
from srgta.exactmath import SizeGuardExceeded
from srgta.families import FamilySpec, construct
from srgta.graphcore import Graph, complement, require_srg
from srgta.permgroup import (
    DegreeMismatch,
    pair_orbit_labels,
    point_stabilizer,
    schreier_sims,
    transitivity_rank,
    two_point_stabilizer,
    write_generators,
)
from srgta.terwilliger import t0_t_report


def brute_aut_order(g):
    a = g.adjacency_dense()
    count = 0
    for p in permutations(range(g.n)):
        idx = np.asarray(p)
        if np.array_equal(a[idx][:, idx], a):
            count += 1
    return count


def preserves_adjacency(g, p):
    a = g.adjacency_dense()
    idx = np.asarray(p)
    return np.array_equal(a[idx][:, idx], a)


# -- refinement ---------------------------------------------------------------

def refined_cells(g, ids=None):
    """Cells of the engine's equitable refinement, starting from `ids`."""
    af = g.adjacency_dense().astype(np.float64)
    start = np.zeros(g.n, dtype=np.int64) if ids is None else ids
    ids, quotient = _refine_ids(af, start)
    assert len(quotient) == int(ids.max()) + 1
    return ids, [np.nonzero(ids == c)[0].tolist() for c in range(len(quotient))]


def test_refine_regular_graph_stays_unit(petersen):
    _, cells = refined_cells(petersen)
    assert cells == [list(range(10))]


def test_refine_splits_path_by_degree():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    _, cells = refined_cells(p3)
    assert sorted(cells) == [[0, 2], [1]]
    assert len(cells) < 3  # not discrete


def test_refine_separates_twin_free_graph():
    # a path on 4 vertices refines to singletons only partially: the two
    # ends stay together, as do the two middles
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    _, cells = refined_cells(p4)
    assert sorted(cells) == [[0, 3], [1, 2]]


def _refine_ids_reference(af, ids):
    """The refinement as first written, with np.unique over (colour, counts) rows."""
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


def assert_refines_as_reference(g, ids):
    af = g.adjacency_dense().astype(np.float64)
    got_ids, got_quotient = _refine_ids(af, ids.copy())
    want_ids, want_quotient = _refine_ids_reference(af, ids.copy())
    assert got_ids.dtype == want_ids.dtype
    assert np.array_equal(got_ids, want_ids)
    assert np.array_equal(got_quotient, want_quotient)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.data())
def test_refine_matches_reference(n, data):
    g = random_graph(data, n)
    k = data.draw(st.integers(1, n))
    # surjective onto 0..k-1: each colour once, then arbitrary colours, shuffled
    rest = data.draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    ids = np.array(data.draw(st.permutations(list(range(k)) + rest)), dtype=np.int64)
    assert_refines_as_reference(g, ids)


def test_refine_matches_reference_past_one_byte():
    # colours, degrees and counts above 255: a one-byte or little-endian key
    # would sort these rows out of numeric order
    assert _AUT_SIZE_GUARD < 2**16  # the default guard keeps searches in the key range
    n = 300
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    # the first 260 vertices individualized; the rest of the path then
    # splits off one vertex per round, colours 256 and up
    assert_refines_as_reference(path, np.minimum(np.arange(n), 260))
    matching = complement(Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]))
    for picked in ([0], [0, 5], [0, 3, 17, 200]):
        ids = np.zeros(n, dtype=np.int64)
        ids[picked] = np.arange(1, len(picked) + 1)
        assert_refines_as_reference(matching, ids)
    # a cell of 257 vertices that splits the pair (256, 257): counts 255 and 256
    assert_refines_as_reference(matching, (np.arange(n) > 256).astype(np.int64))


def test_refine_rejects_orders_past_the_key_range():
    n = 2**16 + 1
    with pytest.raises(SizeGuardExceeded):
        _refine_ids(np.zeros((n, 0)), np.zeros(n, dtype=np.int64))


@settings(max_examples=60)
@given(st.integers(2, 10), st.data())
def test_refine_idempotent(n, data):
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph.from_edges(n, edges)
    once_ids, once = refined_cells(g)
    _, twice = refined_cells(g, once_ids)
    assert once == twice


# -- the search, cross-checked against brute force ------------------------------

@pytest.mark.parametrize(
    "graph",
    [
        construct(FamilySpec("cycle", (5,))),
        construct(FamilySpec("cycle", (6,))),
        construct(FamilySpec("cycle", (7,))),
        construct(FamilySpec("grid", (2,))),
        construct(FamilySpec("multipartite", (2, 3))),
        construct(FamilySpec("multipartite", (3, 2))),
        construct(FamilySpec("johnson", (4,))),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
        Graph.from_edges(1, []),
        Graph.from_edges(7, []),
    ],
)
def test_order_matches_brute_force(graph):
    res = automorphism_group(graph)
    assert res.complete
    assert res.order == brute_aut_order(graph)
    for p in res.gens:
        assert preserves_adjacency(graph, p)


FROZEN_ORDERS = [
    (("complement", "johnson", (5,)), 120),
    (("plain", "paley", (13,)), 78),
    (("plain", "paley", (17,)), 136),
    (("plain", "grid", (3,)), 72),
    (("plain", "grid", (4,)), 1152),
    (("plain", "multipartite", (3, 3)), 1296),
    (("plain", "o6minus", (2,)), 51840),
    (("plain", "peisert", (7, 1)), 3528),
]


@pytest.mark.parametrize("spec,order", FROZEN_ORDERS)
def test_frozen_group_orders(spec, order):
    mode, tag, params = spec
    g = construct(FamilySpec(tag, params))
    if mode == "complement":
        g = complement(g)
    res = automorphism_group(g)
    assert res.complete
    assert res.order == order
    for p in res.gens:
        assert preserves_adjacency(g, p)


def test_complement_has_same_group(paley13, petersen):
    for g in (paley13, petersen):
        ours = automorphism_group(g)
        theirs = automorphism_group(complement(g))
        assert ours.order == theirs.order
        chain = schreier_sims(ours.gens, n=g.n)
        assert all(chain.contains(p) for p in theirs.gens)


def test_petersen_stabilizer_tower(petersen):
    res = automorphism_group(petersen)
    group = schreier_sims(res.gens, n=10)
    assert group.order == 120
    stab = point_stabilizer(group, 0)
    assert schreier_sims(stab, n=10).order == 12
    neighbour = petersen.neighbours(0)[0]
    two = two_point_stabilizer(group, 0, neighbour)
    assert schreier_sims(two, n=10).order == 4
    assert transitivity_rank(group, 10) == (True, 3)


def test_petersen_orbital_blocks(petersen):
    res = automorphism_group(petersen)
    group = schreier_sims(res.gens, n=10)
    labels = pair_orbit_labels(point_stabilizer(group, 0), 10)
    d1 = tuple(petersen.neighbours(0))
    d2 = tuple(v for v in range(1, 10) if v not in d1)
    assert len({int(labels[x, y]) for x in d1 for y in d1}) == 2
    assert len({int(labels[x, y]) for x in d2 for y in d2}) == 4


def test_pentagon_two_point_stabilizer_trivial(pentagon):
    res = automorphism_group(pentagon)
    group = schreier_sims(res.gens, n=5)
    assert group.order == 10
    assert two_point_stabilizer(group, 0, 1) == []


def test_rigid_graph():
    # smallest asymmetric graph: 6 vertices
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5)])
    res = automorphism_group(g)
    assert res.order == 1 == brute_aut_order(g)
    assert find_isomorphism(g, g) == tuple(range(6))


def test_timeout_raises_and_partial_mode():
    g = construct(FamilySpec("grid", (5,)))
    with pytest.raises(Timeout):
        automorphism_group(g, timeout=1e-9)
    res = automorphism_group(g, timeout=1e-9, partial_ok=True)
    assert not res.complete
    assert all(preserves_adjacency(g, p) for p in res.gens)


@pytest.mark.parametrize("timeout", [0, -1, float("nan")])
def test_a_timeout_that_is_not_positive_is_rejected_before_the_search(paley13, monkeypatch, timeout):
    def first_path(*args, **kwargs):
        raise AssertionError("the search ran on a timeout that was not checked")

    monkeypatch.setattr(autgrp, "_first_path", first_path)
    with pytest.raises(ValueError, match="timeout"):
        automorphism_group(paley13, timeout=timeout)
    with pytest.raises(ValueError, match="timeout"):
        triple_transitivity_verdict(paley13, timeout=timeout)


def test_infinite_timeout_means_no_limit(paley13):
    assert automorphism_group(paley13, timeout=float("inf")).order == 78


# -- seeded search ---------------------------------------------------------------

@pytest.mark.parametrize("which", ["grid5", "paley13", "petersen"])
def test_search_seeded_with_generators_of_aut_ends_after_the_first_path(which, request):
    # every branch off the first path is in a seed orbit, so the search never
    # reads its deadline and finishes with the searched group
    if which == "grid5":
        g = construct(FamilySpec("grid", (5,)))
    else:
        g = request.getfixturevalue(which)
    searched = automorphism_group(g)
    seeded = automorphism_group(g, timeout=1e-9, gens=searched.gens)
    assert seeded.complete and seeded.order == searched.order
    assert seeded.gens == searched.gens


def test_search_completes_seeds_of_a_proper_subgroup(grid3, grid3_translations):
    res = automorphism_group(grid3, gens=grid3_translations[:1])
    assert res.complete and res.order == 72
    assert res.gens[0] == grid3_translations[0]
    assert res.group.order == schreier_sims(res.gens, n=9).order


@pytest.mark.parametrize("seed", [(1, 0, 2, 3, 4, 5, 6, 7, 8), (0,) * 9, tuple(range(8))])
def test_search_rejects_seeds_that_are_not_automorphisms(grid3, seed):
    with pytest.raises(NotAnAutomorphism):
        automorphism_group(grid3, gens=[seed])


# -- generator import ----------------------------------------------------------

def test_import_accepts_exported_generators(tmp_path, petersen):
    res = automorphism_group(petersen)
    path = tmp_path / "petersen.gens"
    write_generators(path, 10, res.gens)
    gens = import_generators(path, petersen)
    assert gens == res.gens


def test_import_rejects_non_automorphism(tmp_path, petersen):
    path = tmp_path / "bad.gens"
    swap = list(range(10))
    u, v = petersen.neighbours(0)[0], [x for x in range(1, 10) if not petersen.has_edge(0, x)][0]
    swap[u], swap[v] = swap[v], swap[u]
    write_generators(path, 10, [tuple(range(10)), tuple(swap)])
    with pytest.raises(NotAnAutomorphism) as err:
        import_generators(path, petersen)
    assert err.value.line == 3


def test_import_rejects_degree_mismatch(tmp_path, petersen):
    path = tmp_path / "short.gens"
    write_generators(path, 5, [(1, 2, 3, 4, 0)])
    with pytest.raises(DegreeMismatch):
        import_generators(path, petersen)


# -- isomorphism ----------------------------------------------------------------

def test_find_isomorphism_on_relabelled_graph(paley13):
    rng = np.random.default_rng(5)
    relabel = rng.permutation(13)
    edges = [tuple(sorted((int(relabel[u]), int(relabel[v])))) for u, v in paley13.edges()]
    h = Graph.from_edges(13, edges)
    iso = find_isomorphism(paley13, h)
    assert iso is not None
    a, b = paley13.adjacency_dense(), h.adjacency_dense()
    idx = np.asarray(iso)
    assert np.array_equal(b[idx][:, idx], a)


def test_find_isomorphism_distinguishes(petersen, grid3):
    assert find_isomorphism(petersen, complement(petersen)) is None
    c6 = construct(FamilySpec("cycle", (6,)))
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert find_isomorphism(c6, prism) is None  # both 6 vertices, prism has 9 edges
    k33 = construct(FamilySpec("multipartite", (2, 3)))
    assert find_isomorphism(k33, prism) is None  # both 3-regular on 6 vertices


def random_graph(data, n, n_edges=None):
    pairs = list(combinations(range(n), 2))
    if n_edges is None:
        return Graph.from_edges(n, data.draw(st.sets(st.sampled_from(pairs))) if pairs else set())
    chosen = data.draw(st.permutations(pairs))[:n_edges]
    return Graph.from_edges(n, chosen)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.data())
def test_find_isomorphism_of_relabelled_random_graph(n, data):
    g = random_graph(data, n)
    relabel = data.draw(st.permutations(range(n)))
    h = Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in g.edges()])
    iso = find_isomorphism(g, h)
    assert iso is not None
    assert sorted(iso) == list(range(n))
    idx = np.asarray(iso)
    assert np.array_equal(h.adjacency_dense()[idx][:, idx], g.adjacency_dense())
    # the first path is its own image, so g maps onto itself by the identity
    assert find_isomorphism(g, g) == tuple(range(n))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.data())
def test_find_isomorphism_none_iff_brute_force_finds_none(n, data):
    n_edges = data.draw(st.integers(0, n * (n - 1) // 2))
    g, h = random_graph(data, n, n_edges), random_graph(data, n, n_edges)
    ag, ah = g.adjacency_dense(), h.adjacency_dense()
    exists = any(np.array_equal(ah[np.ix_(p, p)], ag) for p in permutations(range(n)))
    iso = find_isomorphism(g, h)
    assert (iso is not None) == exists
    if iso is not None:
        idx = np.asarray(iso)
        assert np.array_equal(ah[idx][:, idx], ag)


def latin_square_graph(square, relabel):
    """LS3 of `square`, cell (r, c) = vertex r*n + c sent to vertex relabel[r*n + c]."""
    n = len(square)
    cells = [(r, c, square[r][c]) for r in range(n) for c in range(n)]
    edges = [(relabel[u], relabel[v]) for u, v in combinations(range(n * n), 2)
             if any(x == y for x, y in zip(cells[u], cells[v]))]
    return Graph.from_edges(n * n, edges)


# an order-5 Latin square whose Latin square graph LS3(5) has a small group
SMALL_GROUP_SQUARE = [[0, 2, 1, 3, 4], [3, 4, 0, 1, 2], [4, 1, 3, 2, 0],
                      [2, 3, 4, 0, 1], [1, 0, 2, 4, 3]]


def test_fields_agree_on_a_small_group_latin_square_graph():
    # T0 and T over the default primes, two 16-bit primes, a prime past the
    # int64 row reductions, and Q; T itself is not pinned, since nothing
    # independent derives it
    g = latin_square_graph(SMALL_GROUP_SQUARE, range(25))
    fields = [{}, {"primes": (65521, 65519)}, {"primes": (2147483659,)}, {"rational": True}]
    results = [t0_t_report(g, **kwargs) for kwargs in fields]
    for algebra in (0, 1):
        dim, blocks = results[0][algebra]
        for other in results[1:]:
            other_dim, other_blocks = other[algebra]
            assert other_dim == dim and np.array_equal(other_blocks, blocks)
    nums = intersection_numbers(require_srg(g))
    template = [[np.count_nonzero(nums[i, :, k]) for k in range(3)] for i in range(3)]
    assert results[0][0][1].tolist() == template


# -- a rigid strongly regular graph ---------------------------------------------

# the order-7 Latin square of `python3 perfbench/latin.py --order 7 --seed 2`;
# its Latin square graph LS3(7) is srg(49, 18, 7, 6) with a trivial group
RIGID_SQUARE = [
    [3, 5, 0, 1, 2, 4, 6],
    [4, 0, 6, 2, 1, 5, 3],
    [2, 3, 4, 6, 5, 1, 0],
    [1, 4, 2, 3, 6, 0, 5],
    [0, 6, 5, 4, 3, 2, 1],
    [6, 2, 1, 5, 0, 3, 4],
    [5, 1, 3, 0, 4, 6, 2],
]


def test_rigid_latin_square_graph_search_and_verdict():
    labellings = []
    for seed in (1, 2):
        rest = np.random.default_rng(seed).permutation(np.arange(1, 49))
        labellings.append(latin_square_graph(RIGID_SQUARE, [0, *rest.tolist()]))
    for g in labellings:
        res = automorphism_group(g)
        assert res.complete and res.order == 1 and res.gens == []
        report = triple_transitivity_verdict(g, gens=res.gens)
        assert (report.dims["t0"], report.dims["t"], report.dims["t_tilde"]) == (15, 37, 2401)
    g, h = labellings
    iso = find_isomorphism(g, h)
    assert iso is not None
    idx = np.asarray(iso)
    assert np.array_equal(h.adjacency_dense()[idx][:, idx], g.adjacency_dense())


@pytest.mark.parametrize("which", ["petersen", "paley13", "rigid_ls3_7"])
def test_search_returns_a_chain_of_exactly_its_generators(which, request):
    if which == "rigid_ls3_7":
        g = latin_square_graph(RIGID_SQUARE, range(49))
    else:
        g = request.getfixturevalue(which)
    res = automorphism_group(g)
    assert res.order == res.group.order == schreier_sims(res.gens, n=g.n).order
    assert all(res.group.contains(p) for p in res.gens)
    assert res.group.base[0] == 0


def test_find_isomorphism_searches_past_failed_leaves(monkeypatch):
    # individualization plus refinement by A and by the root's triple counts
    # reaches leaves of h whose traces match g's first path but which are not
    # isomorphisms, so the walk must go on past them
    g = latin_square_graph(RIGID_SQUARE, range(49))
    leaves = []
    carries = autgrp._carries

    def counted(a, b, p):
        leaves.append(p)
        return carries(a, b, p)

    monkeypatch.setattr(autgrp, "_carries", counted)
    for seed in range(3):
        h = latin_square_graph(RIGID_SQUARE, np.random.default_rng(seed).permutation(49).tolist())
        leaves.clear()
        iso = find_isomorphism(g, h)
        assert iso is not None and len(leaves) > 1
        idx = np.asarray(iso)
        assert np.array_equal(h.adjacency_dense()[idx][:, idx], g.adjacency_dense())


# -- triple counts at the root -------------------------------------------------

def test_rigid_square_search_tries_at_most_one_leaf_per_vertex():
    g = latin_square_graph(RIGID_SQUARE, range(49))
    stats = automorphism_group(g).stats
    assert stats.leaves <= g.n
    assert stats.triple_refined > 0 and stats.triple_skipped == 0


@pytest.mark.parametrize("which", ["grid5", "petersen", "o6minus2"])
def test_rank_three_graphs_take_the_skip_rule(which, request):
    # G_w is transitive on Γ(w) and on the non-neighbours, so no invariant
    # refinement at w splits them, whatever the values of B_w
    if which == "grid5":
        g = construct(FamilySpec("grid", (5,)))
    elif which == "o6minus2":
        g = construct(FamilySpec("o6minus", (2,)))
    else:
        g = request.getfixturevalue(which)
    stats = automorphism_group(g).stats
    assert stats.triple_refined == 0 and stats.triple_skipped > 0
    af = g.adjacency_dense().astype(np.float64)
    root_ids, _ = _root(af)
    for w in range(g.n):  # every vertex, not only the root children searched
        signature, ids, quotient = _child(af, root_ids, w, 0, SearchStats())
        assert signature == b""
        assert _trace(ids, quotient) == _trace(*autgrp._individualize(af, root_ids, w))


def triple_counts(a, w):
    """B_w = A·diag(A[w])·A, by its definition."""
    a = a.astype(np.int64)
    return a @ np.diag(a[w]) @ a


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.data())
def test_root_child_is_invariant_under_relabelling(n, data):
    g = random_graph(data, n)
    sigma = data.draw(st.permutations(range(n)))  # vertex x of g is sigma[x] of h
    h = Graph.from_edges(n, [(sigma[u], sigma[v]) for u, v in g.edges()])
    w = data.draw(st.integers(0, n - 1))
    p = np.asarray(sigma)
    ag, ah = g.adjacency_dense(), h.adjacency_dense()
    bg = triple_counts(ag, w)
    assert np.array_equal(triple_counts(ah, sigma[w])[np.ix_(p, p)], bg)
    afg, afh = ag.astype(np.float64), ah.astype(np.float64)
    sig_g, ids_g, quotient_g = _child(afg, _root(afg)[0], w, 0, SearchStats())
    sig_h, ids_h, quotient_h = _child(afh, _root(afh)[0], sigma[w], 0, SearchStats())
    assert sig_g == sig_h
    assert sig_g in (b"", np.unique(bg).astype(np.intp).tobytes())
    assert np.array_equal(ids_h[p], ids_g)
    assert _trace(ids_g, quotient_g) == _trace(ids_h, quotient_h)


# `python3 perfbench/latin.py --order 6 --seed 1`; its LS3(6) has a group of order 8
ORDER_SIX_SQUARE = [
    [0, 3, 1, 2, 5, 4],
    [4, 1, 2, 5, 0, 3],
    [5, 4, 3, 0, 2, 1],
    [2, 5, 4, 3, 1, 0],
    [1, 0, 5, 4, 3, 2],
    [3, 2, 0, 1, 4, 5],
]


@pytest.mark.parametrize("square", [SMALL_GROUP_SQUARE, ORDER_SIX_SQUARE, RIGID_SQUARE],
                         ids=["order5", "order6", "order7"])
def test_latin_square_graph_search_is_independent_of_labels(square):
    n = len(square) ** 2
    g = latin_square_graph(square, range(n))
    order = automorphism_group(g).order
    for seed in range(3):
        h = latin_square_graph(square, np.random.default_rng(seed).permutation(n).tolist())
        res = automorphism_group(h)
        assert res.complete and res.order == order
        assert all(preserves_adjacency(h, p) for p in res.gens)
        iso = find_isomorphism(g, h)
        assert iso is not None and sorted(iso) == list(range(n))
        idx = np.asarray(iso)
        assert np.array_equal(h.adjacency_dense()[idx][:, idx], g.adjacency_dense())
