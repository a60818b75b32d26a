"""Nested algebra dimensions at a base vertex and their cross-checks.

Frozen dimension triples in this file were derived before the pipeline ran:
the inner span from the closed-form intersection-number count, the outer one
from orbit counts of automorphism groups known in closed form.
"""

import json
from itertools import product

import numpy as np
import pytest
from test_autgrp import ORDER_SIX_SQUARE, RIGID_SQUARE, SMALL_GROUP_SQUARE, latin_square_graph
from test_linalg import same_span

from srgta.autgrp import automorphism_group
from srgta.classifier import intersection_numbers, triple_transitivity_verdict
from srgta.families import FamilySpec, construct
from srgta.graphcore import ImprimitiveParams, complement, require_srg, vertex_partition
from srgta.exactmath import DEFAULT_PRIMES, NotPrime, SizeGuardExceeded, gf_construct
from srgta.linalg import PrimeDisagreement, algebra_closure, closure_product_selftest
from srgta.permgroup import based_at, point_stabilizer, schreier_sims
from srgta import classifier, permgroup, terwilliger
from srgta.terwilliger import (
    AlgebraReport,
    CellNotInvariant,
    InternalDisagreement,
    analyze_vertex,
    OracleMismatch,
    pair_orbitals,
    t0_t_report,
    t_dim_spectral_crosscheck,
    t_tilde_report,
)


def full_report(g, timeout=300.0, rational=False):
    res = automorphism_group(g, timeout=timeout)
    group = schreier_sims(res.gens, n=g.n)
    return analyze_vertex(g, group, 0, rational=rational)


def t0_dim(g):
    return t0_t_report(g)[0][0]


def t_dim(g):
    return t0_t_report(g)[1][0]


def test_idempotent_traces(petersen):
    cells = vertex_partition(petersen, 0).cells
    assert [len(cell) for cell in cells] == [1, 3, 6]
    assert sorted(sum(cells, ())) == list(range(10))


def test_inner_span_dimensions(petersen, pentagon, k33):
    assert t0_dim(petersen) == 14
    assert t0_dim(pentagon) == 13
    assert t0_dim(k33) == 11
    assert t0_dim(construct(FamilySpec("grid", (2,)))) == 10


def test_inner_span_blocks_match_intersection_template(petersen, paley13, grid3):
    for g in (petersen, paley13, grid3):
        nums = intersection_numbers(require_srg(g))
        template = [
            [int(np.count_nonzero(nums[i, :, k])) for k in range(3)]
            for i in range(3)
        ]
        (_, blocks), _ = t0_t_report(g)
        assert blocks.tolist() == template


def test_inner_span_oracle_checks_each_block(monkeypatch, petersen):
    # move one nonzero intersection number to a zero slot of another block:
    # the nonzero count is unchanged, so only the per-block check can fire
    nums = intersection_numbers(require_srg(petersen)).copy()
    src = next(zip(*np.nonzero(nums)))
    dst = next(idx for idx in zip(*np.nonzero(nums == 0)) if (idx[0], idx[2]) != (src[0], src[2]))
    nums[dst], nums[src] = nums[src], 0
    monkeypatch.setattr(terwilliger, "intersection_numbers", lambda params: nums)
    with pytest.raises(OracleMismatch, match="blocks"):
        t0_t_report(petersen)


def test_closure_dimensions(petersen, pentagon, grid3, paley13):
    assert t_dim(petersen) == 15
    assert t_dim(pentagon) == 13
    assert t_dim(grid3) == 15
    assert t_dim(paley13) == 21
    assert t_dim(construct(FamilySpec("grid", (2,)))) == 10


@pytest.mark.parametrize(
    "tag,params,dim,blocks",
    [
        ("paley", (41,), 49, [[1, 1, 1], [1, 11, 11], [1, 11, 11]]),
        ("paley", (49,), 35, [[1, 1, 1], [1, 8, 7], [1, 7, 8]]),
        ("paley", (61,), 65, [[1, 1, 1], [1, 15, 15], [1, 15, 15]]),
        ("peisert", (7, 1), 25, [[1, 1, 1], [1, 6, 4], [1, 4, 6]]),
        ("o6minus", (3,), 15, [[1, 1, 1], [1, 3, 2], [1, 2, 3]]),
    ],
)
def test_closure_blocks_on_larger_graphs(tag, params, dim, blocks):
    _, (got_dim, got_blocks) = t0_t_report(construct(FamilySpec(tag, params)))
    assert got_dim == dim
    assert got_blocks.tolist() == blocks


def test_centralizer_dimensions(petersen, paley13):
    group = schreier_sims(automorphism_group(petersen).gens, n=10)
    dim, blocks = t_tilde_report(pair_orbitals(petersen, group))
    assert dim == 15
    assert blocks.tolist() == [[1, 1, 1], [1, 2, 2], [1, 2, 4]]

    group = schreier_sims(automorphism_group(paley13).gens, n=13)
    dim, blocks = t_tilde_report(pair_orbitals(paley13, group))
    assert dim == 29
    assert blocks.tolist() == [[1, 1, 1], [1, 6, 6], [1, 6, 6]]


def test_centralizer_with_trivial_group_is_full_matrix_space(petersen):
    dim, blocks = t_tilde_report(pair_orbitals(petersen, schreier_sims([], n=10)))
    assert dim == 100
    assert blocks.tolist() == [[1, 3, 6], [3, 9, 18], [6, 18, 36]]


@pytest.mark.parametrize(
    "tag,params",
    [
        ("cycle", (5,)),
        ("grid", (3,)),
        ("paley", (13,)),
        ("johnson", (5,)),
        ("johnson", (6,)),
        ("multipartite", (3, 3)),
        ("vo", (-1, 2, 2)),
    ],
)
def test_dimension_chain(tag, params):
    g = construct(FamilySpec(tag, params))
    report = full_report(g)
    t0, t, tt = (report.dims[key] for key in ("t0", "t", "t_tilde"))
    assert t0 <= t <= tt
    for key in ("t0", "t", "t_tilde"):
        assert sum(map(sum, report.blocks[key])) == report.dims[key]


def test_rational_substrate_agrees(petersen, paley13):
    for g in (petersen, paley13):
        assert full_report(g).dims == full_report(g, rational=True).dims


def test_petersen_full_report(petersen):
    report = full_report(petersen)
    assert report.params.astuple() == (10, 3, 0, 1)
    assert report.dims == {"t0": 14, "t": 15, "t_tilde": 15}
    assert report.verdicts == {
        "triply_regular": False,
        "rank3": True,
        "triply_transitive": False,
    }
    assert report.aut_order == 120
    assert report.flags == []
    assert report.r1 == 2 and report.r2 == 4 and report.t_offdiag == 2


def test_clebsch_full_report(clebsch):
    report = full_report(clebsch)
    assert report.dims == {"t0": 14, "t": 14, "t_tilde": 14}
    assert report.verdicts["triply_transitive"] is True
    assert report.aut_order == 1920


def test_report_json_roundtrip(petersen):
    report = full_report(petersen)
    assert AlgebraReport.from_json(report.to_json()) == report
    # serialization is deterministic
    assert report.to_json() == AlgebraReport.from_json(report.to_json()).to_json()


def test_report_validates_dimension_chain():
    good = {"t0": 1, "t": 1, "t_tilde": 1}
    blocks = {k: [[1, 0, 0], [0, 0, 0], [0, 0, 0]] for k in good}
    from srgta.graphcore import SrgParams

    with pytest.raises(InternalDisagreement):
        AlgebraReport(SrgParams(10, 3, 0, 1), 0, {"t0": 2, "t": 1, "t_tilde": 3}, blocks, {}, 1)
    with pytest.raises(InternalDisagreement):
        AlgebraReport(SrgParams(10, 3, 0, 1), 0, {"t0": 1, "t": 1, "t_tilde": 2}, blocks, {}, 1)
    AlgebraReport(SrgParams(10, 3, 0, 1), 0, good, blocks, {}, 1)  # fine


def test_incomplete_group_only_lower_bounds(petersen):
    res = automorphism_group(petersen)
    group = schreier_sims(res.gens, n=10)
    report = analyze_vertex(petersen, group, 0, aut_complete=False)
    assert "aut_lower_bound_only" in report.flags
    assert report.verdicts["triply_transitive"] is None


def test_intransitive_group_gives_unknown_verdict(petersen):
    group = schreier_sims([], n=10)
    report = analyze_vertex(petersen, group, 0)
    assert report.verdicts["triply_transitive"] is None
    assert "case_b_candidate" in report.flags


def test_spectral_crosscheck_values(petersen, grid3, paley13, clebsch, k33):
    assert t_dim_spectral_crosscheck(petersen) == 15
    assert t_dim_spectral_crosscheck(grid3) == 15
    assert t_dim_spectral_crosscheck(paley13) == 21
    assert t_dim_spectral_crosscheck(construct(FamilySpec("johnson", (6,)))) == 16
    assert t_dim_spectral_crosscheck(clebsch) == 14
    with pytest.raises(ImprimitiveParams):
        t_dim_spectral_crosscheck(k33)


# the square of `python3 perfbench/latin.py --order 8 --seed 1`
ORDER_EIGHT_SQUARE = [
    [3, 4, 5, 7, 0, 6, 1, 2],
    [1, 2, 3, 0, 4, 5, 7, 6],
    [6, 1, 0, 5, 2, 7, 3, 4],
    [7, 5, 1, 3, 6, 4, 2, 0],
    [4, 3, 6, 1, 7, 2, 0, 5],
    [0, 6, 2, 4, 1, 3, 5, 7],
    [2, 0, 7, 6, 5, 1, 4, 3],
    [5, 7, 4, 2, 3, 0, 6, 1],
]

SPECTRAL_FAMILIES = [
    ("paley", (5,)), ("paley", (13,)), ("paley", (17,)), ("paley", (29,)),  # θ, τ irrational
    ("grid", (3,)), ("grid", (4,)), ("grid", (5,)),  # v = θ on Γ₁
    ("johnson", (6,)), ("peisert", (7, 1)), ("vo", (-1, 3, 2)), ("vo", (1, 3, 2)),
    ("grassmann", (2, 4)),
]


@pytest.mark.parametrize("complemented", [False, True], ids=["graph", "complement"])
@pytest.mark.parametrize("family, args", SPECTRAL_FAMILIES,
                         ids=[f"{f}{a}" for f, a in SPECTRAL_FAMILIES])
def test_spectral_blocks_match_the_closure(family, args, complemented):
    g = construct(FamilySpec(family, args))
    g = complement(g) if complemented else g
    assert terwilliger._spectral_blocks(g).tolist() == t0_t_report(g)[1][1].tolist()


@pytest.mark.parametrize(
    "square",
    [SMALL_GROUP_SQUARE, ORDER_SIX_SQUARE, RIGID_SQUARE, ORDER_EIGHT_SQUARE],
    ids=["order5", "order6", "order7", "order8"],
)
def test_spectral_blocks_match_the_closure_on_latin_square_graphs(square):
    g = latin_square_graph(square, range(len(square) ** 2))
    assert terwilliger._spectral_blocks(g).tolist() == t0_t_report(g)[1][1].tolist()


def test_spectral_count_raises_when_the_subconstituents_disagree(monkeypatch, petersen):
    # over GF(2) τ = −2 is 0, the eigenvalue off all-ones of Petersen's Γ₁
    # (three isolated vertices), so n₁ drops to 0 while n₂ stays 1
    monkeypatch.setattr(terwilliger, "DEFAULT_PRIMES", (DEFAULT_PRIMES[0], 2))
    with pytest.raises(InternalDisagreement):
        t_dim_spectral_crosscheck(petersen)


def test_spectral_count_raises_when_the_fields_disagree(monkeypatch):
    # over GF(2) n₁ = n₂ = 3 on Paley(17), against 4 over the first prime
    g = construct(FamilySpec("paley", (17,)))
    monkeypatch.setattr(terwilliger, "DEFAULT_PRIMES", (DEFAULT_PRIMES[0], 2))
    with pytest.raises(PrimeDisagreement):
        t_dim_spectral_crosscheck(g)


@pytest.mark.parametrize("label", ["T0", "T"])
def test_closure_raises_when_the_fields_disagree(paley13, monkeypatch, label):
    # the second field's closure loses a dimension of T's block (1, 1), or
    # moves one of T₀'s from block (1, 1) to (1, 2), keeping dim T₀
    calls = []

    def skewed(gens, sizes, p, **kwargs):
        space, mats, seeded = algebra_closure(gens, sizes, p, **kwargs)
        calls.append(p)
        if len(calls) == 2:
            if label == "T":
                basis = space.bases[1, 1]
                del basis.rows[-1], basis.pivots[-1]
            else:
                seeded = seeded + np.array([[0, 0, 0], [0, -1, 1], [0, 0, 0]])
        return space, mats, seeded

    monkeypatch.setattr(terwilliger, "algebra_closure", skewed)
    with pytest.raises(PrimeDisagreement, match=f"^{label} block dimensions differ across fields"):
        t0_t_report(paley13)
    assert calls == list(DEFAULT_PRIMES)


# -- orbital coordinates against the group-less closure ------------------------

FIELDS = [{}, {"primes": (65521, 65519)}, {"primes": (2147483659,)}, {"rational": True}]


def _orbital_blocks_by_brute_force(g, group):
    """Orbits of G_ω on each cell pair, by walking every ordered pair."""
    stab = point_stabilizer(group, 0)
    cells = vertex_partition(g, 0).cells
    cell = {v: i for i, c in enumerate(cells) for v in c}
    blocks = np.zeros((3, 3), dtype=int)
    seen = set()
    for pair in product(range(g.n), repeat=2):
        if pair in seen:
            continue
        blocks[cell[pair[0]], cell[pair[1]]] += 1
        frontier = [pair]
        while frontier:
            x, y = frontier.pop()
            if (x, y) not in seen:
                seen.add((x, y))
                frontier += [(s[x], s[y]) for s in stab]
    return blocks


def _differential(g, fields):
    """T₀, T and T̃ from the pair labelling of G_ω equal group-less
    t0_t_report, whose closure runs on matrix entries, and a brute-force
    orbital count; the closure on G_ω's orbitals is run whatever path _t0_t
    takes.  Returns that path."""
    group = based_at(automorphism_group(g).group, 0)
    orb = pair_orbitals(g, group, 0)
    assert np.array_equal(orb.blocks, _orbital_blocks_by_brute_force(g, group))
    assert np.array_equal(t_tilde_report(orb)[1], orb.blocks)
    gens = [((i, l), orb.relation[orb.cells[i], orb.cells[l]] == j)
            for i, l in product(range(3), repeat=2) for j in (1, 2)]
    labels = {pair: orb.block(pair) for pair in product(range(3), repeat=2)}
    for kwargs in fields:
        dense = t0_t_report(g, **kwargs)
        primes, rational = kwargs.get("primes", DEFAULT_PRIMES), kwargs.get("rational", False)
        t0, t, stats = terwilliger._t0_t(orb, primes, rational)
        assert [(d, b.tolist()) for d, b in (t0, t)] == [(d, b.tolist()) for d, b in dense]
        for p in (None,) if rational else primes:
            space, mats, seeded = algebra_closure(gens, orb.sizes, p, labels=labels)
            closure_product_selftest(space, mats, p)
            assert np.array_equal(seeded, dense[0][1])
            assert np.array_equal(space.blocks(), dense[1][1])
    return stats["t_path"]


# how T is reached: pinned by the sandwiches, or closed on G_ω's orbitals
CLOSED_ON = {"sandwich": "sandwich", "orbital": "closure"}


@pytest.mark.parametrize(
    "tag,params,path",
    [
        ("cycle", (5,), "sandwich"),
        ("grid", (3,), "sandwich"),
        ("grid", (4,), "sandwich"),
        ("paley", (13,), "orbital"),
        ("paley", (17,), "orbital"),
        ("johnson", (5,), "orbital"),
        ("johnson", (6,), "orbital"),
        ("multipartite", (3, 3), "sandwich"),
        ("vo", (-1, 2, 2), "sandwich"),
        ("peisert", (3, 1), "sandwich"),
        ("paley", (41,), "orbital"),
    ],
)
def test_orbital_path_matches_dense_closure(tag, params, path):
    # the sandwich cases are the triply transitive graphs, where T₀ = T̃
    g = construct(FamilySpec(tag, params))
    assert _differential(g, FIELDS if g.n <= 17 else FIELDS[:2]) == CLOSED_ON[path]


def test_orbital_path_matches_dense_closure_on_a_small_group():
    g = latin_square_graph(SMALL_GROUP_SQUARE, range(25))
    assert _differential(g, FIELDS) == "closure"


@pytest.mark.parametrize("q", [13, 17])
def test_closure_under_every_subgroup_of_g0_matches_the_groupless_one(q):
    # H = {x ↦ a·x : a^d = 1} for each d dividing (q − 1)/2, the trivial
    # group included.  H is free on the nonzero points, so its orbitals
    # number 1 + 2(q − 1)/d + (q − 1)²/d: 169, 85, 57, 29 at q = 13
    g = construct(FamilySpec("paley", (q,)))
    root = gf_construct(q).primitive_element()
    half = (q - 1) // 2
    orders = [d for d in range(1, half + 1) if half % d == 0]
    want = {rational: t0_t_report(g, rational=rational) for rational in (False, True)}
    ks = []
    for d in orders:
        a = pow(root, (q - 1) // d, q)
        group = schreier_sims([tuple(a * x % q for x in range(q))], base_prefix=(0,), n=q)
        orb = pair_orbitals(g, group, 0)
        ks.append(int(orb.blocks.sum()))
        for rational, dense in want.items():
            t0, t, stats = terwilliger._t0_t(orb, DEFAULT_PRIMES, rational)
            assert stats["t_path"] == "closure"
            assert [(k, b.tolist()) for k, b in (t0, t)] == [(k, b.tolist()) for k, b in dense]
    assert ks == [1 + 2 * (q - 1) // d + (q - 1) ** 2 // d for d in orders]
    if q == 13:
        assert ks == [169, 85, 57, 29]


def test_report_stats_name_the_t_path(petersen, clebsch, paley13):
    # a closure also leaves its counters per field, which the sandwich path lacks
    for g, path, k in ((clebsch, "sandwich", 14), (paley13, "closure", 29)):
        report = full_report(g)
        counts = report.stats.pop("closure", None)
        assert report.stats == {"t_path": path, "orbitals": k}
        assert (counts is None) == (path == "sandwich")
        assert "stats" not in json.loads(report.to_json())
    trivial = analyze_vertex(petersen, schreier_sims([], n=10), 0)
    assert set(trivial.stats.pop("closure")) == set(DEFAULT_PRIMES)
    assert trivial.stats == {"t_path": "closure", "orbitals": 100}


def test_analyze_vertex_builds_the_context_once(petersen, monkeypatch):
    # the trivial group's closure cuts its generators out of the context's
    # relations rather than out of a second partition
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for name in ("require_srg", "check_guard", "vertex_partition", "based_at"):
        monkeypatch.setattr(terwilliger, name, counted(name, getattr(terwilliger, name)))
    analyze_vertex(petersen, schreier_sims([], n=10), 0)
    assert sorted(calls) == ["based_at", "check_guard", "require_srg", "vertex_partition"]


def test_t_tilde_rebuilds_no_chain_at_the_second_base_point(paley13, monkeypatch):
    # G_0 has the orbits {0}, the squares and the non-squares mod 13; the
    # search's chain is based at 0 and then at a point of one of them, so of
    # the two two-point stabilizers only the other one is rebuilt
    chain = automorphism_group(paley13).group
    orb = pair_orbitals(paley13, chain, 0)
    builds = []
    real_build = permgroup._build

    def counted_build(*args, **kwargs):
        builds.append(args[0])
        return real_build(*args, **kwargs)

    monkeypatch.setattr(permgroup, "_build", counted_build)
    assert t_tilde_report(orb)[0] == 3 + 13 + 13  # G_0,x is trivial for x ≠ 0
    assert len(builds) == 1
    two = permgroup.two_point_stabilizer(chain, chain.base[0], chain.base[1])
    assert len(builds) == 1
    assert schreier_sims(two, n=13).order == 1


def test_analyze_vertex_checks_the_size_guard_before_labelling(petersen, monkeypatch):
    # the group is searched first: the search has a size guard of its own
    group = automorphism_group(petersen).group

    def labelling(*args):
        raise AssertionError("the pair labelling ran past the size guard")

    monkeypatch.setattr(terwilliger, "pair_orbit_labels", labelling)
    monkeypatch.setenv("SRGTA_SIZE_GUARD", "9")
    with pytest.raises(SizeGuardExceeded):
        analyze_vertex(petersen, group, 0)


def test_pair_orbitals_reject_a_group_that_moves_the_cells(petersen):
    # a transposition of ω's neighbour 7 with the non-neighbour 1
    swap = list(range(10))
    swap[1], swap[7] = 7, 1
    with pytest.raises(CellNotInvariant):
        pair_orbitals(petersen, schreier_sims([tuple(swap)], base_prefix=(0,)), 0)


@pytest.mark.parametrize("primes,error", [((), ValueError), ((4,), NotPrime), ((9,), NotPrime),
                                          ((1048573, 15), NotPrime)])
def test_fields_are_checked_before_any_closure(paley13, monkeypatch, primes, error):
    def closure(*args, **kwargs):
        raise AssertionError("a closure ran on fields that were not checked")

    monkeypatch.setattr(terwilliger, "algebra_closure", closure)
    group = automorphism_group(paley13).group
    for run in (lambda: t0_t_report(paley13, primes=primes),
                lambda: analyze_vertex(paley13, group, 0, primes=primes),
                lambda: triple_transitivity_verdict(paley13, primes=primes)):
        with pytest.raises(error):
            run()


@pytest.mark.parametrize("primes,error", [((), ValueError), ((4,), NotPrime), ((9,), NotPrime)])
def test_fields_are_checked_before_the_search(paley13, monkeypatch, primes, error):
    def search(*args, **kwargs):
        raise AssertionError("the automorphism search ran on fields that were not checked")

    monkeypatch.setattr(classifier, "automorphism_group", search)
    with pytest.raises(error):
        triple_transitivity_verdict(paley13, primes=primes)


@pytest.mark.parametrize("primes", [(), (4,), (1048573, 15)])
def test_rational_ignores_the_primes(paley13, primes):
    got, want = (t0_t_report(paley13, primes=ps, rational=True) for ps in (primes, DEFAULT_PRIMES))
    assert [(d, b.tolist()) for d, b in got] == [(d, b.tolist()) for d, b in want]


def test_closure_counters_pin_inserts_to_three_per_dim():
    # A₁'s sandwiches alone multiply, at most three of them per column cell,
    # so every field tries at most 3·dim inserts past the dim T₀ seeds
    report = full_report(construct(FamilySpec("paley", (61,))))
    assert report.stats["t_path"] == "closure"
    counts = report.stats["closure"]
    assert set(counts) == set(DEFAULT_PRIMES)
    for field in counts.values():
        assert field["dim"] == report.dims["t"]
        assert 0 < field["products"] <= field["dim"] <= field["inserts"]
        assert field["inserts"] <= 3 * field["dim"] + report.dims["t0"]


def _kinds(orb, gens):
    return {int(orb.relation[orb.cells[i], orb.cells[l]][block].max()) for (i, l), block in gens}


# graphs, and the fields they are closed over past FIELDS: p | μ for
# Paley(13) (μ = 3), Paley(29) (μ = 7) and grid(4) (μ = 2)
MULTIPLIER_PANEL = [
    ("multipartite-complement", (3, 3), FIELDS),
    ("paley", (13,), FIELDS + [{"primes": (3,)}]),
    ("grid", (4,), FIELDS + [{"primes": (2,)}]),
    ("paley", (29,), [{}, {"primes": (7,)}]),
    ("latin-square", SMALL_GROUP_SQUARE, FIELDS),
]


@pytest.mark.parametrize("tag,params,fields", MULTIPLIER_PANEL,
                         ids=[f"{tag}-{len(fields)}" for tag, _, fields in MULTIPLIER_PANEL])
def test_a1_multipliers_close_what_both_relations_close(monkeypatch, tag, params, fields):
    # each closure _t0_t runs, on G_ω's orbitals and on the trivial group's,
    # has the per-block spans of the closure under A₁'s and A₂'s sandwiches
    # alike; A₂'s multiply exactly where μ ≡ 0
    if tag == "latin-square":
        g = latin_square_graph(params, range(25))
    elif tag == "multipartite-complement":
        g = complement(construct(FamilySpec("multipartite", params)))
    else:
        g = construct(FamilySpec(tag, params))
    mu = require_srg(g).mu
    assert (mu == 0) == (tag == "multipartite-complement")
    runs = []

    def recording(gens, sizes, p, **kwargs):
        result = algebra_closure(gens, sizes, p, **kwargs)
        runs.append((gens, kwargs["seeds"], p, kwargs["labels"], result[0]))
        return result

    monkeypatch.setattr(terwilliger, "algebra_closure", recording)
    for group in (automorphism_group(g).group, schreier_sims([], n=g.n)):
        orb = pair_orbitals(g, group, 0)
        for kwargs in fields:
            runs.clear()
            terwilliger._t0_t(orb, kwargs.get("primes", DEFAULT_PRIMES), kwargs.get("rational", False))
            assert runs or group.order > 1  # the trivial group's context always closes
            for gens, seeds, p, labels, space in runs:
                mu_is_zero = mu == 0 if p is None else mu % p == 0
                assert _kinds(orb, gens) == ({1, 2} if mu_is_zero else {1})
                assert _kinds(orb, seeds) == (set() if mu_is_zero else {2})
                both, _, _ = algebra_closure(gens + seeds, orb.sizes, p, labels=labels)
                for pair, basis in both.bases.items():
                    assert same_span(space.bases[pair], basis)
