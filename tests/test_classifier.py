"""Parameter-level decisions: feasibility, Krein signs, parameter forms,
the exclusion test, and the graph-level triple regularity checks."""

from fractions import Fraction

import numpy as np
import pytest

from srgta import autgrp, classifier, graphcore, permgroup, terwilliger
from srgta.autgrp import NotAnAutomorphism
from srgta.classifier import (
    InconsistentParams,
    KreinReport,
    ParamForm,
    TripleWitness,
    exclusion_lemma,
    intersection_numbers,
    krein,
    param_form,
    triple_intersection_numbers,
    triple_regularity,
    triple_transitivity_verdict,
    validate_params,
)
from srgta.exactmath import QuadExt, srg_eigenvalues
from srgta.families import FamilySpec, construct
from srgta.graphcore import Graph, ImprimitiveParams, SrgParams, complement, require_srg

FEASIBLE = [
    (5, 2, 0, 1),
    (10, 3, 0, 1),
    (13, 6, 2, 3),
    (16, 5, 0, 2),
    (27, 10, 1, 5),
    (35, 16, 6, 8),
    (36, 14, 4, 6),
    (100, 22, 0, 6),
]


@pytest.mark.parametrize("params", FEASIBLE)
def test_feasible_parameters_accepted(params):
    assert validate_params(SrgParams(*params)).astuple() == params


@pytest.mark.parametrize(
    "params",
    [
        (10, 3, 0, 0),    # counting identity fails
        (8, 5, 2, 2),     # counting identity fails
        (10, 5, 5, 2),    # lambda above k-1
        (10, 3, 0, 4),    # mu above k
        (10, 9, 8, 9),    # k above n-2
        (12, 5, 0, 10),   # negative intersection number
    ],
)
def test_infeasible_parameters_rejected(params):
    with pytest.raises(InconsistentParams):
        validate_params(SrgParams(*params))


# -- intersection numbers -------------------------------------------------------

@pytest.mark.parametrize("params", FEASIBLE)
def test_intersection_number_identities(params):
    nums = intersection_numbers(SrgParams(*params))
    n, k = params[0], params[1]
    sizes = (1, k, n - k - 1)
    assert np.array_equal(nums, nums.transpose(1, 0, 2))
    for rel in range(3):
        for i in range(3):
            assert nums[i, :, rel].sum() == sizes[i]


@pytest.mark.parametrize(
    "tag,params",
    [("paley", (13,)), ("grid", (4,)), ("johnson", (6,)), ("o6minus", (2,))],
)
def test_intersection_numbers_against_graph_counts(tag, params):
    g = construct(FamilySpec(tag, params))
    nums = intersection_numbers(require_srg(g))
    a = g.adjacency_dense().astype(np.int64)
    rel = 2 - a - 2 * np.eye(g.n, dtype=np.int64)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.integers(0, g.n, size=2)
        if x == y:
            continue
        counted = np.zeros((3, 3), dtype=np.int64)
        for z in range(g.n):
            counted[rel[x, z], rel[y, z]] += 1
        assert np.array_equal(counted, nums[:, :, rel[x, y]])


# -- Krein parameters -------------------------------------------------------------

def test_krein_petersen_exact_values():
    rep = krein(SrgParams(10, 3, 0, 1))
    assert rep.q11_oracle == QuadExt.of(Fraction(20, 9))
    assert rep.q22_oracle == QuadExt.of(Fraction(2, 9))
    assert rep.agreement


def test_krein_pentagon_vanishes():
    rep = krein(SrgParams(5, 2, 0, 1))
    assert rep.q11_oracle.sign() == 0
    assert rep.q22_oracle.sign() == 0


def test_krein_conference_13():
    rep = krein(SrgParams(13, 6, 2, 3))
    assert rep.q11_oracle == QuadExt.of(2)
    assert rep.q22_oracle == QuadExt.of(2)


def test_krein_display_polynomials_disagree_at_27():
    # the published display gives a positive q22 where the association
    # scheme formula gives exactly zero; decisions use the oracle
    rep = krein(SrgParams(27, 10, 1, 5))
    assert rep.q22_oracle.sign() == 0
    assert rep.q22_paper.sign() == 1
    assert not rep.agreement
    assert rep.signs["q22_oracle"] == 0


def test_krein_requires_primitive():
    with pytest.raises(ImprimitiveParams):
        krein(SrgParams(6, 3, 0, 3))
    with pytest.raises(ImprimitiveParams):
        krein(SrgParams(9, 2, 1, 0))


# -- parameter forms ---------------------------------------------------------------

def test_param_form_petersen_matches_nothing():
    assert param_form(SrgParams(10, 3, 0, 1)) == set()


def test_param_form_clebsch():
    theta, tau = srg_eigenvalues(16, 5, 0, 2)
    assert param_form(SrgParams(16, 5, 0, 2)) == {
        ParamForm("NegativeLatinSquare", (1, 4)),
        ParamForm("RSpecial", (1,)),
        ParamForm("Smith", (theta, tau)),
    }
    assert (theta, tau) == (QuadExt.of(1), QuadExt.of(-3))


def test_param_form_grid():
    assert param_form(SrgParams(16, 6, 2, 2)) == {
        ParamForm("Grid", (4,)),
        ParamForm("LatinSquare", (2, 4)),
        ParamForm("FourTSquare", (2, -1)),
    }


def test_param_form_latin_square_families():
    assert param_form(SrgParams(64, 35, 18, 20)) == {ParamForm("LatinSquare", (5, 8))}
    assert param_form(SrgParams(64, 27, 10, 12)) == {
        ParamForm("NegativeLatinSquare", (3, 8))
    }


def test_param_form_smith_examples():
    assert param_form(SrgParams(27, 10, 1, 5)) == {
        ParamForm("Smith", (QuadExt.of(1), QuadExt.of(-5)))
    }
    theta, tau = srg_eigenvalues(5, 2, 0, 1)
    assert param_form(SrgParams(5, 2, 0, 1)) == {ParamForm("Smith", (theta, tau))}
    assert param_form(SrgParams(100, 22, 0, 6)) == {
        ParamForm("NegativeLatinSquare", (2, 10)),
        ParamForm("RSpecial", (2,)),
        ParamForm("Smith", (QuadExt.of(2), QuadExt.of(-8))),
    }


def test_param_form_str():
    assert str(ParamForm("NegativeLatinSquare", (2, 10))) == "NegativeLatinSquare(m=2, n=10)"
    assert str(ParamForm("RSpecial", (2,))) == "RSpecial(r=2)"
    assert str(ParamForm("Smith", (QuadExt.of(1), QuadExt.of(-5)))) == "Smith(theta=1, tau=-5)"


# -- exclusion ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "params,expected",
    [
        ((35, 16, 6, 8), "NotTriplyRegular"),
        ((13, 6, 2, 3), "NotTriplyRegular"),
        ((36, 14, 4, 6), "NoConclusion"),     # negative Latin square shape
        ((100, 22, 0, 6), "NoConclusion"),
        ((27, 10, 1, 5), "NoConclusion"),     # a Krein parameter vanishes
        ((5, 2, 0, 1), "NoConclusion"),
    ],
)
def test_exclusion_lemma(params, expected):
    assert exclusion_lemma(SrgParams(*params)) == expected


def test_exclusion_requires_primitive():
    with pytest.raises(ImprimitiveParams):
        exclusion_lemma(SrgParams(6, 3, 0, 3))


# -- graph-level triple regularity ----------------------------------------------

def test_triple_regularity_positive_cases(pentagon, grid3, k33):
    for g in (pentagon, grid3, k33, construct(FamilySpec("o6minus", (2,)))):
        ok, witness = triple_regularity(g)
        assert ok and witness is None


def test_triple_regularity_negative_cases(petersen, paley13):
    ok, witness = triple_regularity(petersen)
    assert not ok
    omega, which, pair = witness
    assert which == "second"       # the 6-cycle is not strongly regular
    assert pair is not None

    ok, _ = triple_regularity(paley13)
    assert not ok


def test_triple_regularity_with_orbit_shortcut(petersen):
    from srgta.autgrp import automorphism_group

    gens = automorphism_group(petersen).gens
    assert triple_regularity(petersen, gens)[0] == triple_regularity(petersen)[0]


def test_triple_regularity_rejects_a_non_automorphism(grid3):
    with pytest.raises(NotAnAutomorphism):
        triple_regularity(grid3, [(1, 0, 2, 3, 4, 5, 6, 7, 8)])


def test_triple_counts_constancy_matches_dim_equality(petersen, pentagon, grid3, paley13, k33):
    from srgta.terwilliger import t0_t_report

    for g in (petersen, pentagon, grid3, paley13, k33):
        witness = triple_intersection_numbers(g)
        assert isinstance(witness, TripleWitness)
        (dim0, _), (dim1, _) = t0_t_report(g)
        assert witness.constant == (dim0 == dim1)
        for vec in witness.tables.values():
            assert sum(vec) == g.n


def test_triple_count_violation_is_reproducible(paley13):
    witness = triple_intersection_numbers(paley13)
    assert not witness.constant
    alpha, beta, gamma = witness.violation
    a = paley13.adjacency_dense().astype(np.int64)
    rel = 2 - a - 2 * np.eye(13, dtype=np.int64)
    key = (rel[alpha, beta], rel[alpha, gamma], rel[beta, gamma])
    counts = [0] * 27
    for w in range(13):
        counts[9 * rel[alpha, w] + 3 * rel[beta, w] + rel[gamma, w]] += 1
    assert tuple(counts) != witness.tables[tuple(int(x) for x in key)]


def test_full_verdict_pipeline(petersen, clebsch):
    report = triple_transitivity_verdict(petersen)
    assert report.verdicts["triply_transitive"] is False
    assert report.dims == {"t0": 14, "t": 15, "t_tilde": 15}

    report = triple_transitivity_verdict(clebsch)
    assert report.verdicts["triply_transitive"] is True


def test_verdict_checks_srg_once_and_builds_one_full_chain(monkeypatch):
    # a fresh graph, so no earlier test has remembered its SRG check
    g = Graph.from_dense(construct(FamilySpec("paley", (13,))).adjacency_dense())
    srg_checks = []
    real_check = graphcore.is_strongly_regular

    def counted_check(h):
        srg_checks.append(h)
        return real_check(h)

    full_chains = []
    real_chain = permgroup.schreier_sims

    def counted_chain(*args, **kwargs):
        chain = real_chain(*args, **kwargs)
        if chain.order == 78:
            full_chains.append(chain.base[:1])
        return chain

    monkeypatch.setattr(graphcore, "is_strongly_regular", counted_check)
    # every binding is counted, the search's in autgrp included
    for module in (autgrp, classifier, permgroup, terwilliger):
        if getattr(module, "schreier_sims", None) is real_chain:
            monkeypatch.setattr(module, "schreier_sims", counted_chain)
    report = triple_transitivity_verdict(g)
    assert report.aut_order == 78
    assert srg_checks == [g]
    assert full_chains == [(0,)]


def test_verdict_with_exhausted_budget_is_unknown(petersen):
    report = triple_transitivity_verdict(petersen, timeout=1e-9)
    assert report.verdicts["triply_transitive"] is None
    assert "aut_lower_bound_only" in report.flags


@pytest.mark.parametrize("count", [2, 1])
def test_verdict_from_subgroup_generators_is_the_searched_verdict(
    grid3, grid3_translations, count
):
    # the translations generate a subgroup of order 9 or 3; they seed the
    # search, which completes them to all of Aut
    searched = triple_transitivity_verdict(grid3)
    assert searched.aut_order == 72 and searched.verdicts["triply_transitive"] is True
    seeded = triple_transitivity_verdict(grid3, gens=grid3_translations[:count])
    assert seeded.to_json() == searched.to_json()


def test_verdict_rejects_a_non_automorphism(grid3):
    with pytest.raises(NotAnAutomorphism):
        triple_transitivity_verdict(grid3, gens=[(1, 0, 2, 3, 4, 5, 6, 7, 8)])


def test_verdict_seeded_by_a_subgroup_past_its_budget_is_unknown(grid3, grid3_translations):
    # one translation leaves branches to explore, so the deadline is read; the
    # intransitive group found is a lower bound and flags no case (b)
    report = triple_transitivity_verdict(grid3, gens=grid3_translations[:1], timeout=1e-9)
    assert report.aut_order == 3
    assert report.verdicts["triply_transitive"] is None
    assert report.flags == ["aut_lower_bound_only"]


def test_krein_report_shape():
    rep = krein(SrgParams(10, 3, 0, 1))
    assert isinstance(rep, KreinReport)
    assert set(rep.signs) == {"q11_paper", "q22_paper", "q11_oracle", "q22_oracle"}
