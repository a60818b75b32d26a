"""Nested algebra dimensions at a base vertex and their cross-checks.

Frozen dimension triples in this file were derived before the pipeline ran:
the inner span from the closed-form intersection-number count, the outer one
from orbit counts of automorphism groups known in closed form.
"""

import numpy as np
import pytest

from srgta.autgrp import automorphism_group
from srgta.classifier import intersection_numbers
from srgta.families import FamilySpec, construct
from srgta.graphcore import ImprimitiveParams, require_srg, vertex_partition
from srgta.permgroup import schreier_sims
from srgta import terwilliger
from srgta.terwilliger import (
    AlgebraReport,
    Inconclusive,
    InternalDisagreement,
    analyze_vertex,
    OracleMismatch,
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
    dim, blocks = t_tilde_report(petersen, group)
    assert dim == 15
    assert blocks.tolist() == [[1, 1, 1], [1, 2, 2], [1, 2, 4]]

    group = schreier_sims(automorphism_group(paley13).gens, n=13)
    dim, blocks = t_tilde_report(paley13, group)
    assert dim == 29
    assert blocks.tolist() == [[1, 1, 1], [1, 6, 6], [1, 6, 6]]


def test_centralizer_with_trivial_group_is_full_matrix_space(petersen):
    dim, blocks = t_tilde_report(petersen, schreier_sims([], n=10))
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


def test_inconclusive_sentinel_is_falsy():
    assert not Inconclusive
    assert repr(Inconclusive) == "Inconclusive"
    assert Inconclusive != 15
