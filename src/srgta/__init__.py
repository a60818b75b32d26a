"""Strongly regular graphs, their nested matrix algebras, and the
parameter- and graph-level decision procedures for triple regularity
and triple transitivity."""

from .autgrp import AutResult, Timeout, automorphism_group, find_isomorphism
from .classifier import (
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
from .exactmath import DEFAULT_PRIMES, QuadExt, srg_eigenvalues, srg_multiplicities
from .families import FamilySpec, construct
from .graphcore import (
    Graph,
    SrgParams,
    clique_extension,
    complement,
    is_primitive,
    is_strongly_regular,
    read_graph,
    require_srg,
    subconstituents,
    write_graph,
)
from .linalg import SubspaceBasis, algebra_closure
from .permgroup import GroupBSGS, schreier_sims, transitivity_rank
from .terwilliger import (
    AlgebraReport,
    PairOrbitals,
    analyze_vertex,
    pair_orbitals,
    t0_t_report,
    t_dim_spectral_crosscheck,
    t_tilde_report,
)

__all__ = [
    "AlgebraReport",
    "AutResult",
    "DEFAULT_PRIMES",
    "FamilySpec",
    "Graph",
    "GroupBSGS",
    "KreinReport",
    "PairOrbitals",
    "ParamForm",
    "QuadExt",
    "SrgParams",
    "SubspaceBasis",
    "Timeout",
    "TripleWitness",
    "algebra_closure",
    "analyze_vertex",
    "automorphism_group",
    "clique_extension",
    "complement",
    "construct",
    "exclusion_lemma",
    "find_isomorphism",
    "intersection_numbers",
    "is_primitive",
    "is_strongly_regular",
    "krein",
    "pair_orbitals",
    "param_form",
    "read_graph",
    "require_srg",
    "schreier_sims",
    "srg_eigenvalues",
    "srg_multiplicities",
    "subconstituents",
    "t0_t_report",
    "t_dim_spectral_crosscheck",
    "t_tilde_report",
    "transitivity_rank",
    "triple_intersection_numbers",
    "triple_regularity",
    "triple_transitivity_verdict",
    "validate_params",
    "write_graph",
]

__version__ = "0.1.0"
