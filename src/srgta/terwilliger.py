"""The three nested algebras of a strongly regular graph at a base vertex.

For a base vertex ω the vertex set splits into {ω}, neighbours, and
non-neighbours, with diagonal idempotents E*₀, E*₁, E*₂.  Three algebras
nest:

  T₀, the span of the 27 sandwich products E*ᵢ A_j E*ₖ;
  T, the algebra generated by A₀, A₁, A₂ and the idempotents;
  T̃, the centralizer of the vertex stabilizer Aut(Γ)_ω.

Dimensions and 3×3 block decompositions of all three are computed exactly:
T₀ and T as the first step and the fixed point of one block-by-block
closure per field (t0_t_report), T̃ by counting stabilizer orbitals.  A
floating-point cross-check of dim T from subconstituent spectra is provided
as an advisory, never a verdict source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .exactmath import DEFAULT_PRIMES, check_guard, srg_eigenvalues
from .graphcore import (
    Graph,
    ImprimitiveParams,
    SrgParams,
    intersection_numbers,
    is_primitive,
    require_srg,
    subconstituents,
    vertex_partition,
)
from .linalg import PrimeDisagreement, algebra_closure, closure_product_selftest
from .permgroup import (
    GroupBSGS,
    based_at,
    orbit_count,
    orbital_count_block,
    orbits,
    transitivity_rank,
    two_point_stabilizer,
)

_CLOSURE_GUARD = 1500


class OracleMismatch(RuntimeError):
    """Span dimension disagrees with the intersection-number count."""


class InternalDisagreement(RuntimeError):
    """Two independent computations of dim T̃ differ."""


class _Inconclusive:
    """Sentinel for a spectral cross-check with ambiguous clustering."""

    def __repr__(self):
        return "Inconclusive"

    def __bool__(self):
        return False


Inconclusive = _Inconclusive()


def _sandwiches(g: Graph, omega: int) -> tuple[list, list[int]]:
    """The sandwiches E*ᵢA_jE*ₖ with j ∈ {1, 2} as ((i, k), block) pairs, and
    the cell sizes; the blocks of A₂ = J − I − A₁ are cut alongside A₁'s."""
    cells = [list(cell) for cell in vertex_partition(g, omega).cells]
    adj = g.adjacency_dense().astype(np.int64)
    gens = []
    for (i, rows), (k, cols) in product(enumerate(cells), repeat=2):
        a1 = adj[np.ix_(rows, cols)]
        a2 = 1 - a1 - (np.eye(len(rows), dtype=np.int64) if i == k else 0)
        gens += [((i, k), a1), ((i, k), a2)]
    return gens, [len(cell) for cell in cells]


def t0_t_report(
    g: Graph, omega: int = 0, primes=DEFAULT_PRIMES, rational: bool = False
) -> tuple[tuple[int, np.ndarray], tuple[int, np.ndarray]]:
    """(dim, 3×3 block dimensions) of T₀ and of T, from one closure per field.

    Each sandwich E*ᵢA_jE*ₖ is zero outside Δᵢ×Δₖ, and T splits as
    ⊕ E*ᵢTE*ₗ, so the closure runs block by block: its seeds are the nonzero
    sandwiches (those with j = 0 are the E*ᵢ), and it multiplies on the left
    by those with j ∈ {1, 2}.  The span of the seeds is T₀, the fixed point
    is T.  Over ℚ alone when `rational`, else over GF(p) for each of
    `primes`, which must agree (PrimeDisagreement); the closure self-test
    runs over the first field.  T₀ is cross-validated against the closed-form
    intersection numbers: its block (i, k) must have as many dimensions as
    there are nonzero pᵢⱼᵏ over j (OracleMismatch).
    """
    params = require_srg(g)
    check_guard(g.n, _CLOSURE_GUARD, "algebra closure order")
    gens, sizes = _sandwiches(g, omega)
    fields = (None,) if rational else tuple(primes)
    results = []
    for idx, p in enumerate(fields):
        space, mats, seeded = algebra_closure(gens, sizes, p)
        if idx == 0:
            closure_product_selftest(space, mats, p)
        results.append((seeded, space.blocks()))
    for label, per_field in zip(("T0", "T"), zip(*results)):
        dims = {int(blocks.sum()) for blocks in per_field}
        if len(dims) != 1:
            raise PrimeDisagreement(f"{label} dimension differs across primes: {dims}")
        if any(not np.array_equal(per_field[0], other) for other in per_field[1:]):
            raise PrimeDisagreement(f"{label} block dimensions differ across primes")

    blocks0, blocks1 = results[0]
    expected = np.count_nonzero(intersection_numbers(params), axis=1)
    if not np.array_equal(blocks0, expected):
        raise OracleMismatch(
            f"span dim {blocks0.sum()}, blocks {blocks0.tolist()} != nonzero "
            f"intersection-number count {expected.sum()}, blocks {expected.tolist()}"
        )
    return (int(blocks0.sum()), blocks0), (int(blocks1.sum()), blocks1)


def t_tilde_report(g: Graph, group: GroupBSGS, omega: int = 0) -> tuple[int, np.ndarray]:
    """dim and block dimensions of the stabilizer centralizer algebra.

    The dimension is the orbital count of G_ω, computed two independent
    ways: nine per-block orbit counts on Δᵢ×Δⱼ, and a sum over G_ω-orbit
    representatives x of the orbit count of the two-point stabilizer
    G_ω ∩ G_x.  Disagreement raises InternalDisagreement.  `group` is
    rebased at ω once, only if its base does not already start there.
    """
    require_srg(g)
    cells = vertex_partition(g, omega).cells
    group = based_at(group, omega)
    stab = group.stabilizer_gens(1)
    blocks = np.array([[orbital_count_block(stab, a, b) for b in cells] for a in cells])
    total = int(blocks.sum())

    stab_orbits = orbits(stab, g.n)
    stab_sum = len(stab_orbits)  # x = ω, where G_ω ∩ G_x is G_ω itself
    for orb in stab_orbits:
        if orb[0] != omega:
            stab_sum += orbit_count(two_point_stabilizer(group, omega, orb[0]), g.n)
    if stab_sum != total:
        raise InternalDisagreement(
            f"orbital blocks give {total}, stabilizer-sum gives {stab_sum}"
        )
    return total, blocks


def t_dim_spectral_crosscheck(g: Graph, omega: int = 0):
    """Advisory dim T from subconstituent spectra, or Inconclusive.

    Counts, for each subconstituent, its distinct eigenvalues on the space
    orthogonal to all-ones (one copy of the valency drops out), split by
    membership in {θ, τ}; the result is m₁+m₂+4n₁+9.  Floating point with
    1e-8 clustering; any inter-cluster gap under 1e-6 is Inconclusive.
    """
    params = require_srg(g)
    if not is_primitive(params):
        raise ImprimitiveParams("spectral cross-check needs primitive parameters")
    theta, tau = srg_eigenvalues(*params.astuple())
    special = (float(theta), float(tau))
    g1, g2, _ = subconstituents(g, omega)
    valencies = (params.lam, params.k - params.mu)
    m_counts, n_counts = [], []
    for sub, valency in zip((g1, g2), valencies):
        evs = np.linalg.eigvalsh(sub.adjacency_dense().astype(np.float64))
        clusters: list[list[float]] = []
        for e in np.sort(evs):
            if clusters and e - clusters[-1][-1] < 1e-8:
                clusters[-1].append(float(e))
            else:
                clusters.append([float(e)])
        reps = [float(np.mean(c)) for c in clusters]
        mults = [len(c) for c in clusters]
        for a, b in zip(reps, reps[1:]):
            if b - a < 1e-6:
                return Inconclusive
        vi = min(range(len(reps)), key=lambda i: abs(reps[i] - valency))
        if abs(reps[vi] - valency) > 1e-8:
            return Inconclusive
        mults[vi] -= 1
        live = [r for r, c in zip(reps, mults) if c > 0]
        m = sum(any(abs(r - s) <= 1e-8 for s in special) for r in live)
        m_counts.append(m)
        n_counts.append(len(live) - m)
    if n_counts[0] != n_counts[1]:
        return Inconclusive
    return m_counts[0] + m_counts[1] + 4 * n_counts[0] + 9


@dataclass
class AlgebraReport:
    """Full per-vertex analysis: dimensions, blocks, verdicts, group data."""

    params: SrgParams
    omega: int
    dims: dict
    blocks: dict
    verdicts: dict
    aut_order: int
    flags: list[str] = field(default_factory=list)

    def __post_init__(self):
        t0, t, tt = self.dims["t0"], self.dims["t"], self.dims["t_tilde"]
        if not (t0 <= t <= tt):
            raise InternalDisagreement(f"dimension chain violated: {t0}, {t}, {tt}")
        for name, dim in self.dims.items():
            if int(np.sum(self.blocks[name])) != dim:
                raise InternalDisagreement(f"{name} blocks do not sum to its dim")

    @property
    def r1(self) -> int:
        return int(self.blocks["t_tilde"][1][1])

    @property
    def r2(self) -> int:
        return int(self.blocks["t_tilde"][2][2])

    @property
    def t_offdiag(self) -> int:
        return int(self.blocks["t_tilde"][1][2])

    def to_json(self) -> str:
        payload = {
            "params": list(self.params.astuple()),
            "omega": self.omega,
            "dims": dict(self.dims),
            "blocks": {k: [list(map(int, row)) for row in v] for k, v in self.blocks.items()},
            "verdicts": dict(self.verdicts),
            "aut_order": self.aut_order,
            "flags": list(self.flags),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "AlgebraReport":
        d = json.loads(text)
        return AlgebraReport(
            params=SrgParams(*d["params"]),
            omega=d["omega"],
            dims=d["dims"],
            blocks=d["blocks"],
            verdicts=d["verdicts"],
            aut_order=d["aut_order"],
            flags=d["flags"],
        )


def analyze_vertex(
    g: Graph,
    group: GroupBSGS,
    omega: int,
    primes=DEFAULT_PRIMES,
    rational: bool = False,
    aut_complete: bool = True,
) -> AlgebraReport:
    """Assemble the three reports and verdicts for one base vertex; `group`
    is the automorphism group's stabilizer chain, on any base."""
    params = require_srg(g)
    (dim0, blocks0), (dim1, blocks1) = t0_t_report(g, omega, primes, rational)
    dim2, blocks2 = t_tilde_report(g, group, omega)
    transitive, rank = transitivity_rank(group, g.n)
    rank3 = bool(transitive and rank == 3)
    equality = dim0 == dim1 == dim2
    flags: list[str] = []
    if not aut_complete:
        flags.append("aut_lower_bound_only")
    if transitive:
        verdict = bool(rank3 and equality)
        if not verdict and not aut_complete:
            verdict = None  # a larger true group could still equalize nothing; unknown
    else:
        verdict = None
        if aut_complete:
            flags.append("case_b_candidate")
    report = AlgebraReport(
        params=params,
        omega=omega,
        dims={"t0": dim0, "t": dim1, "t_tilde": dim2},
        blocks={
            "t0": blocks0.tolist(),
            "t": blocks1.tolist(),
            "t_tilde": blocks2.tolist(),
        },
        verdicts={
            "triply_regular": dim0 == dim1,
            "rank3": rank3,
            "triply_transitive": verdict,
        },
        aut_order=group.order,
        flags=flags,
    )
    if rank3:
        b = report.blocks["t_tilde"]
        if b[0] != [1, 1, 1] or b[1][0] != 1 or b[2][0] != 1 or b[1][2] != b[2][1]:
            raise InternalDisagreement("rank-3 centralizer blocks lack unit borders")
    return report
