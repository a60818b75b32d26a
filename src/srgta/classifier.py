"""Decision procedures on strongly regular graphs and their parameters.

Parameter level: intersection numbers (from graphcore), Krein parameters
(both a published polynomial form and a definition-based oracle, which
disagree in value on some inputs and are reported side by side), recognition
of Latin square / negative Latin square / conference-square / grid / Smith
parameter shapes, and the Krein exclusion test for triple regularity.

Graph level: subconstituent-based triple regularity with explicit witnesses,
brute-force triple intersection tabulation as an oracle, and the full
triple-transitivity pipeline combining the algebra dimensions with the
automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .autgrp import automorphism_group, check_automorphisms
from .exactmath import (
    DEFAULT_PRIMES,
    QuadExt,
    check_guard,
    srg_eigenvalues,
    srg_multiplicities,
)
from .graphcore import (
    Graph,
    ImprimitiveParams,
    InconsistentParams,
    SrgParams,
    intersection_numbers,
    is_primitive,
    is_strongly_regular,
    require_srg,
    subconstituents,
    validate_params,
)
from .permgroup import orbits
from .terwilliger import AlgebraReport, analyze_vertex

_TRIPLE_GUARD = 300


@dataclass(frozen=True)
class KreinReport:
    q11_paper: QuadExt
    q22_paper: QuadExt
    q11_oracle: QuadExt
    q22_oracle: QuadExt

    @property
    def signs(self) -> dict:
        return {
            "q11_paper": self.q11_paper.sign(),
            "q22_paper": self.q22_paper.sign(),
            "q11_oracle": self.q11_oracle.sign(),
            "q22_oracle": self.q22_oracle.sign(),
        }

    @property
    def agreement(self) -> bool:
        """Do the published polynomials agree in sign with the oracle?"""
        return (
            self.q11_paper.sign() == self.q11_oracle.sign()
            and self.q22_paper.sign() == self.q22_oracle.sign()
        )


def krein(p: SrgParams) -> KreinReport:
    """Krein parameters q₁₁¹ and q₂₂², two ways.

    The "paper" values evaluate a published pair of polynomials in θ, τ, k
    verbatim; the "oracle" values come from the association-scheme formula
    q_ii^i = (m_i²/n)(1 + e_i³/k² + (−1−e_i)³/(n−1−k)²).  Decisions
    downstream use the oracle; the report records both and their agreement.
    """
    n, k, lam, mu = validate_params(p).astuple()
    if not is_primitive(p):
        raise ImprimitiveParams(f"{p} is imprimitive")
    theta, tau = srg_eigenvalues(n, k, lam, mu)
    m1, m2 = srg_multiplicities(n, k, lam, mu)
    q11_paper = (
        theta * tau**2 - 2 * theta**2 * tau - theta**2
        - k * theta + k * tau**2 + 2 * k * tau
    )
    q22_paper = (
        theta**2 * tau - 2 * theta * tau**2 - theta**2
        - k * tau + k * theta**2 + 2 * k * theta
    )

    def oracle(m: int, ev: QuadExt) -> QuadExt:
        comp = QuadExt.of(-1) - ev
        return QuadExt.of(Fraction(m * m, n)) * (
            QuadExt.of(1)
            + ev**3 / (k * k)
            + comp**3 / ((n - 1 - k) * (n - 1 - k))
        )

    return KreinReport(q11_paper, q22_paper, oracle(m1, theta), oracle(m2, tau))


@dataclass(frozen=True)
class ParamForm:
    kind: str
    data: tuple

    def __str__(self):
        names = {
            "LatinSquare": ("m", "n"),
            "NegativeLatinSquare": ("m", "n"),
            "FourTSquare": ("t", "sign"),
            "RSpecial": ("r",),
            "Grid": ("n",),
            "Smith": ("theta", "tau"),
        }[self.kind]
        inner = ", ".join(f"{a}={v}" for a, v in zip(names, self.data))
        return f"{self.kind}({inner})"


def param_form(p: SrgParams) -> set[ParamForm]:
    """Every recognized parameter shape, with witnesses.  Empty set if none.

    Latin square needs 2 ≤ m ≤ n; the negative Latin square family is
    accepted from m = 1 up (the m = 1 instances are genuine members of the
    parameter family and the wider net only ever weakens the exclusion test
    towards NoConclusion, never towards a wrong exclusion).
    """
    n, k, lam, mu = validate_params(p).astuple()
    out: set[ParamForm] = set()
    side = isqrt(n)
    if side * side == n:
        if side > 1 and k % (side - 1) == 0:
            m = k // (side - 1)
            if 2 <= m <= side and lam == (m - 1) * (m - 2) + side - 2 and mu == m * (m - 1):
                out.add(ParamForm("LatinSquare", (m, side)))
        if k % (side + 1) == 0:
            m = k // (side + 1)
            if 1 <= m <= side and lam == m * (m + 3) - side and mu == m * (m + 1):
                out.add(ParamForm("NegativeLatinSquare", (m, side)))
        if side >= 2 and k == 2 * (side - 1) and lam == side - 2 and mu == 2:
            out.add(ParamForm("Grid", (side,)))
    if n % 4 == 0:
        t = isqrt(n // 4)
        if 4 * t * t == n and t >= 2:
            for s in (1, -1):
                if k == t * (2 * t + s) and lam == mu == t * (t + s):
                    out.add(ParamForm("FourTSquare", (t, s)))
    if lam == 0:
        r = 1
        while r * r * (r + 3) * (r + 3) <= n:
            if (
                r * r * (r + 3) * (r + 3) == n
                and k == r**3 + 3 * r * r + r
                and mu == r * r + r
            ):
                out.add(ParamForm("RSpecial", (r,)))
            r += 1
    smith = _smith_form(n, k, lam, mu)
    if smith is not None:
        out.add(smith)
    return out


def _smith_form(n: int, k: int, lam: int, mu: int) -> ParamForm | None:
    """Match against the four-display Smith parameterization in θ, τ."""
    theta, tau = srg_eigenvalues(n, k, lam, mu)
    s = theta - tau
    one = QuadExt.of(1)
    den = s + theta * (theta + one)
    den_n = s * s - theta**2 * (theta + one) ** 2
    if den.sign() == 0 or den_n.sign() == 0:
        return None
    if (s - theta * (theta + 3)).sign() < 0:
        return None
    n_d = 2 * s * s * ((2 * theta + 1) * s - 3 * theta * (theta + one)) / den_n
    k_d = (-tau) * ((2 * theta + 1) * s - theta * (theta + one)) / den
    lam_d = (-theta) * (tau + one) * (s - theta * (theta + 3)) / den
    mu_d = (-(theta + one)) * tau * (s - theta * (theta + one)) / den
    if (
        n_d == QuadExt.of(n)
        and k_d == QuadExt.of(k)
        and lam_d == QuadExt.of(lam)
        and mu_d == QuadExt.of(mu)
    ):
        return ParamForm("Smith", (theta, tau))
    return None


def exclusion_lemma(p: SrgParams) -> str:
    """NotTriplyRegular when both oracle Krein parameters are positive and
    the parameters are neither Latin square nor negative Latin square;
    NoConclusion otherwise."""
    validate_params(p)
    if not is_primitive(p):
        raise ImprimitiveParams(f"{p} is imprimitive")
    report = krein(p)
    forms = {f.kind for f in param_form(p)}
    if (
        report.q11_oracle.sign() > 0
        and report.q22_oracle.sign() > 0
        and not forms & {"LatinSquare", "NegativeLatinSquare"}
    ):
        return "NotTriplyRegular"
    return "NoConclusion"


def _wide_sense_srg(h: Graph):
    """Strong regularity accepting the degenerate cases: complete, empty,
    and disjoint unions of equal cliques all pass (mu = 0 included)."""
    if h.n <= 1:
        return True, None
    deg = h.degrees()
    if np.all(deg == h.n - 1) or np.all(deg == 0):
        return True, None
    result = is_strongly_regular(h)
    if result:
        return True, None
    return False, result.pair


def triple_regularity(g: Graph, gens=None):
    """Subconstituent test: True iff for every base vertex both
    subconstituents are strongly regular in the wide sense.

    With generators, checked to be automorphisms of g, one representative
    per vertex orbit suffices; otherwise every vertex is checked.  On failure
    returns the first witness (omega, which subconstituent, violating pair)."""
    require_srg(g)
    if gens:
        reps = sorted(min(o) for o in orbits(check_automorphisms(g, gens), g.n))
    else:
        reps = range(g.n)
    for omega in reps:
        g1, g2, _ = subconstituents(g, omega)
        for label, sub in (("first", g1), ("second", g2)):
            ok, pair = _wide_sense_srg(sub)
            if not ok:
                return False, (omega, label, pair)
    return True, None


@dataclass
class TripleWitness:
    """Tabulated triple intersection counts.

    tables maps a triple class (pairwise relations of (α,β,γ)) to the
    27-vector of counts indexed 9i+3j+k: how many ω stand in relation i to
    α, j to β, k to γ.  constant means every triple of its class agrees.
    """

    tables: dict
    constant: bool
    violation: tuple | None = None


def triple_intersection_numbers(g: Graph) -> TripleWitness:
    check_guard(g.n, _TRIPLE_GUARD, "triple tabulation order")
    n = g.n
    a = g.adjacency_dense().astype(np.int64)
    rel = 2 - a - 2 * np.eye(n, dtype=np.int64)  # 0 equal, 1 adjacent, 2 other
    tables: dict[tuple, tuple] = {}
    offsets = 27 * np.arange(n)[:, None]
    for alpha in range(n):
        base_a = 9 * rel[alpha]
        for beta in range(n):
            if beta == alpha:
                continue
            codes = (base_a + 3 * rel[beta])[None, :] + rel
            counts = np.bincount(
                (codes + offsets).reshape(-1), minlength=27 * n
            ).reshape(n, 27)
            rab = int(rel[alpha, beta])
            cls3 = 3 * rel[alpha] + rel[beta]
            for v in np.unique(cls3):
                members = np.nonzero(cls3 == v)[0]
                members = members[(members != alpha) & (members != beta)]
                if len(members) == 0:
                    continue
                key = (rab, int(v) // 3, int(v) % 3)
                if key not in tables:
                    tables[key] = tuple(int(x) for x in counts[members[0]])
                rep = np.asarray(tables[key], dtype=np.int64)
                bad = np.nonzero(np.any(counts[members] != rep, axis=1))[0]
                if len(bad):
                    gamma = int(members[bad[0]])
                    return TripleWitness(tables, False, (alpha, beta, gamma))
    return TripleWitness(tables, True)


def triple_transitivity_verdict(
    g: Graph,
    gens=None,
    timeout: float = 300.0,
    primes=DEFAULT_PRIMES,
    rational: bool = False,
) -> AlgebraReport:
    """Full pipeline at base vertex 0: the automorphism group, searched from
    any supplied generators (NotAnAutomorphism unless they are automorphisms),
    the three algebra dimensions, and the verdict transitive ∧ rank 3 ∧
    dim T₀ = dim T = dim T̃.

    A search that runs out of time still gives a verdict, flagged as resting
    on a lower bound for the group; only a true verdict stands on it."""
    require_srg(g)
    found = automorphism_group(g, timeout, partial_ok=True, gens=gens or ())
    return analyze_vertex(
        g, found.group, 0, primes=primes, rational=rational, aut_complete=found.complete,
    )
