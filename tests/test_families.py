"""Constructors for the named graph families.

Each family carries a closed-form parameter set; the tests below check the
constructed graphs against those forms and against a handful of known
isomorphisms between families.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srgta
from srgta.autgrp import find_isomorphism
from srgta.families import (
    BadCongruence,
    FamilySpec,
    NotPrimePower,
    ParamRange,
    affine_polar,
    bilinear_forms,
    complete_multipartite,
    construct,
    cycle,
    grassmann,
    grid,
    johnson,
    o6_minus_collinearity,
    paley,
    peisert,
)
from srgta.graphcore import complement, is_strongly_regular, require_srg


@pytest.mark.parametrize(
    "graph,params",
    [
        (complete_multipartite(2, 3), (6, 3, 0, 3)),
        (complete_multipartite(3, 2), (6, 4, 2, 4)),
        (complete_multipartite(4, 4), (16, 12, 8, 12)),
        (cycle(4), (4, 2, 0, 2)),
        (cycle(5), (5, 2, 0, 1)),
        (grid(2), (4, 2, 0, 2)),
        (grid(3), (9, 4, 1, 2)),
        (grid(4), (16, 6, 2, 2)),
        (grid(7), (49, 12, 5, 2)),
        (johnson(4), (6, 4, 2, 4)),
        (johnson(5), (10, 6, 3, 4)),
        (johnson(6), (15, 8, 4, 4)),
        (grassmann(2, 4), (35, 18, 9, 9)),
        (paley(5), (5, 2, 0, 1)),
        (paley(9), (9, 4, 1, 2)),
        (paley(13), (13, 6, 2, 3)),
        (paley(17), (17, 8, 3, 4)),
        (paley(25), (25, 12, 5, 6)),
        (peisert(7, 1), (49, 24, 11, 12)),
        (peisert(3, 2), (81, 40, 19, 20)),
        (affine_polar(1, 2, 2), (16, 9, 4, 6)),
        (affine_polar(-1, 2, 2), (16, 5, 0, 2)),
        (affine_polar(1, 1, 3), (9, 4, 1, 2)),
        (affine_polar(-1, 3, 2), (64, 27, 10, 12)),
        (affine_polar(1, 3, 2), (64, 35, 18, 20)),
        (o6_minus_collinearity(2), (27, 10, 1, 5)),
        (bilinear_forms(2, 2), (16, 9, 4, 6)),
        (bilinear_forms(2, 3), (64, 21, 8, 6)),
        (bilinear_forms(3, 2), (81, 32, 13, 12)),
    ],
)
def test_family_parameters(graph, params):
    assert require_srg(graph).astuple() == params


def test_larger_members_by_count_only():
    # too large for a cheap full srg check to be interesting, counts suffice
    g = grassmann(3, 4)
    assert g.n == 130
    assert set(g.degrees().tolist()) == {48}
    assert grassmann(2, 5).n == 155
    assert o6_minus_collinearity(3).n == 112


def test_cycle_only_small_cases_are_srg():
    assert not is_strongly_regular(cycle(6))
    assert not is_strongly_regular(cycle(7))


def test_complete_graph_not_srg():
    assert is_strongly_regular(complete_multipartite(3, 1)).reason == "complete graph"


def test_johnson5_complement_is_petersen(petersen):
    assert find_isomorphism(complement(johnson(5)), petersen) is not None


@pytest.mark.parametrize(
    "left,right",
    [
        (paley(5), cycle(5)),
        (paley(9), grid(3)),
        (peisert(3, 1), paley(9)),
        (affine_polar(1, 1, 3), grid(3)),
        (bilinear_forms(2, 2), affine_polar(1, 2, 2)),
    ],
)
def test_known_isomorphisms(left, right):
    iso = find_isomorphism(left, right)
    assert iso is not None
    a, b = left.adjacency_dense(), right.adjacency_dense()
    for u, v in left.edges():
        assert b[iso[u], iso[v]]
    assert a.sum() == b.sum()


@pytest.mark.parametrize("q", [5, 9, 13, 17, 25])
def test_paley_self_complementary(q):
    g = paley(q)
    assert find_isomorphism(g, complement(g)) is not None


@pytest.mark.parametrize("p,t", [(7, 1), (3, 2)])
def test_peisert_self_complementary(p, t):
    g = peisert(p, t)
    assert find_isomorphism(g, complement(g)) is not None


def test_paley_peisert_nonisomorphic_at_49():
    # both have Paley parameters (49,24,11,12) yet differ as graphs
    assert find_isomorphism(paley(49), peisert(7, 1)) is None


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: complete_multipartite(1, 5), ParamRange),
        (lambda: complete_multipartite(2, 0), ParamRange),
        (lambda: cycle(2), ParamRange),
        (lambda: grid(1), ParamRange),
        (lambda: johnson(3), ParamRange),
        (lambda: grassmann(6, 4), ParamRange),
        (lambda: grassmann(2, 3), ParamRange),
        (lambda: paley(7), BadCongruence),
        (lambda: paley(21), NotPrimePower),
        (lambda: peisert(5, 1), BadCongruence),
        (lambda: peisert(3, 0), ParamRange),
        (lambda: affine_polar(0, 2, 2), ParamRange),
        (lambda: affine_polar(1, 0, 2), ParamRange),
        (lambda: affine_polar(1, 2, 6), ParamRange),
        (lambda: bilinear_forms(6, 2), ParamRange),
    ],
)
def test_parameter_guards(call, error):
    with pytest.raises(error):
        call()


def test_construct_dispatch():
    g = construct(FamilySpec("grid", (3,)))
    assert g == grid(3)
    with pytest.raises(ParamRange):
        construct(FamilySpec("moebius", (5,)))
    with pytest.raises(ParamRange):
        construct(FamilySpec("grid", (3, 3)))


# SHA-1 of adjacency_dense().tobytes(): generator files and pinned group
# orders refer to these vertex numberings, so they must not drift.
ADJACENCY_SHA1 = {
    ("o6minus", (2,)): "0457cb904d355107bcfdc7ce44bd59ac5fe53c0e",
    ("o6minus", (3,)): "0c679847879aa16d3d25c320cea8fb5fac919295",
    ("o6minus", (4,)): "c7311b888ef89976789855bedab6224f179d6a2b",
    ("o6minus", (5,)): "aa5dc3e4ffa1ace905fcf55434a8de54d6325f64",
    ("vo", (1, 1, 3)): "3cdb1fd72b863294b7dcdbd2b22b050f55e46f54",
    ("vo", (1, 2, 2)): "40acf89ca4bd4364973ebf74c8ec02134baa6dd0",
    ("vo", (1, 3, 2)): "7910e3685d288145070c23e94503c87c857bad5e",
    ("vo", (1, 4, 2)): "9dc40ea03cef0de133c2174ffa6fb4cfa754bd3b",
    ("vo", (1, 5, 2)): "40f65e1750bdbd2b55d8421162b3ede771e3dedc",
    ("vo", (1, 2, 3)): "80974aab2077a0b7bf8f03013be6a02c9ba5bae3",
    ("vo", (1, 1, 4)): "fe4358fbd9ee58811f08587e49556ddf795b5545",
    ("vo", (1, 2, 4)): "dc1a6478d8f3df601a592970f5322303308a38ed",
    ("vo", (-1, 1, 3)): "f8ebbbe3ad6a8cfd13607fd3a7fad7a3a7a50158",
    ("vo", (-1, 2, 2)): "529dbfcc6baefc6a5f7654f4a3c9c568f1085bdb",
    ("vo", (-1, 3, 2)): "f2666ed18571558abb31afdd220495d982a3bdb9",
    ("vo", (-1, 4, 2)): "f21c0d5613c8d2ef077484ee23be8eb72a9709bc",
    ("vo", (-1, 5, 2)): "b889bf13f9cd1f0722f17d1e3e772c6cf652c29c",
    ("vo", (-1, 2, 3)): "32c481584f77d449723c4469caf51a5654952b91",
    ("vo", (-1, 1, 4)): "b376885ac8452b6cbf9ced81b1080bfd570d9b91",
    ("vo", (-1, 2, 4)): "c7b108b69b017034099e58e15894afda6b76b03b",
    ("bilinear", (2, 2)): "9468d3aada18e00a36d8a46013f4fce614e43a8c",
    ("bilinear", (2, 3)): "624fd61503e5f430208478d435e7c168849267de",
    ("bilinear", (3, 2)): "8538b1fb5606dbe6929e7eeceefbfb836364c2e1",
}


@pytest.mark.parametrize(
    "tag,params",
    sorted(ADJACENCY_SHA1),
    ids=[f"{tag}{params}".replace(" ", "") for tag, params in sorted(ADJACENCY_SHA1)],
)
def test_vertex_numbering_is_pinned(tag, params):
    g = construct(FamilySpec(tag, params))
    digest = hashlib.sha1(g.adjacency_dense().tobytes()).hexdigest()
    assert digest == ADJACENCY_SHA1[tag, params]


# every family built over GF(q), one small member each, then the CLI path
COLD_START = """
import sys
import srgta
from srgta.cli import main

for tag, params in [("paley", (49,)), ("peisert", (3, 1)), ("o6minus", (2,)),
                    ("vo", (-1, 2, 2)), ("bilinear", (2, 2)), ("grassmann", (2, 4))]:
    srgta.construct(srgta.FamilySpec(tag, params))
srgta.srg_multiplicities(13, 6, 2, 3)
assert main(["construct", "paley", "49", "-o", sys.argv[1]]) == 0
assert main(["classify", "49", "24", "11", "12"]) == 0
print("sympy" in sys.modules)
"""


def test_field_families_build_without_importing_sympy(tmp_path):
    # run in a fresh process: this test session itself may have loaded sympy
    src = str(Path(srgta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "paley_49.srg")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
