"""The three nested algebras of a strongly regular graph at a base vertex.

For a base vertex ω the vertex set splits into {ω}, neighbours, and
non-neighbours, with diagonal idempotents E*₀, E*₁, E*₂.  Three algebras
nest:

  T₀, the span of the 27 sandwich products E*ᵢ A_j E*ₖ;
  T, the algebra generated by A₀, A₁, A₂ and the idempotents;
  T̃, the centralizer of the vertex stabilizer Aut(Γ)_ω.

Dimensions and 3×3 block decompositions of all three are computed exactly,
from one context at ω built once (PairOrbitals): T₀ and T as the first step
and the fixed point of one block-by-block closure per field (t0_t_report),
T̃ by counting stabilizer orbitals on pairs.  Since T ⊆ T̃, the closure
runs on those orbitals' coordinates (Bannai & Munemasa, Kyushu J. Math. 49,
1995), the matrix entries for a trivial group, and is skipped when T₀
already fills T̃.  dim T is also counted exactly from the spectra of the
subconstituents (t_dim_spectral_crosscheck), independently of the closure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .exactmath import DEFAULT_PRIMES, NotPrime, check_guard, is_prime
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
from .linalg import (
    PrimeDisagreement,
    SubspaceBasis,
    algebra_closure,
    closure_product_selftest,
    matmul_mod,
)
from .permgroup import (
    GroupBSGS,
    based_at,
    orbit_count,
    orbits,
    pair_orbit_labels,
    schreier_sims,
    two_point_stabilizer,
)

_CLOSURE_GUARD = 1500


class OracleMismatch(RuntimeError):
    """Span dimension disagrees with the intersection-number count."""


class InternalDisagreement(RuntimeError):
    """Two independent computations of dim T̃ differ."""


class CellNotInvariant(ValueError):
    """A group meant to fix ω moves a pair across cells or relations."""


_PAIRS = tuple(product(range(3), repeat=2))


@dataclass(frozen=True)
class PairOrbitals:
    """The context at one base vertex ω that T₀, T and T̃ are read from.

    `params` are the graph's SRG parameters, `chain` is the group's chain
    rebased at ω and `orbits` are G_ω's orbits on Ω.  Vertices are put in
    cell order (Δ₀, Δ₁, Δ₂, each sorted), so that cell i is the slice
    `cells[i]` of positions, and `relation` is indexed by positions: 0
    equal, 1 adjacent, 2 other.  G_ω keeps each cell and each relation, so
    an orbital of G_ω on pairs lies in one cell pair Δᵢ×Δₗ and one relation.
    The orbitals of a cell pair are numbered from 0 in the order of their
    least pairs (x, y), ordered by x·n + y: `labels[x, y]` is the number of
    the orbital of (x, y) and `reps[i, l]` holds the least pairs in that
    order.  A matrix that commutes with G_ω is constant on orbitals, so its
    block (i, l) is the vector of its values at `reps[i, l]`: its
    coordinates.
    """

    omega: int
    params: SrgParams
    chain: GroupBSGS
    orbits: list
    cells: tuple[slice, ...]
    relation: np.ndarray
    labels: np.ndarray
    reps: dict

    @property
    def sizes(self) -> list[int]:
        return [c.stop - c.start for c in self.cells]

    @property
    def blocks(self) -> np.ndarray:
        """Orbitals per cell pair: the block dimensions of T̃."""
        return np.array([[len(self.reps[i, l]) for l in range(3)] for i in range(3)])

    def kinds(self, pair) -> np.ndarray:
        """The relation of each orbital of the cell pair."""
        xs, ys = self.reps[pair].T
        return self.relation[xs, ys]

    def block(self, pair) -> np.ndarray:
        i, l = pair
        return self.labels[self.cells[i], self.cells[l]]


def pair_orbitals(g: Graph, group: GroupBSGS, omega: int = 0) -> PairOrbitals:
    """The context at ω, G_ω read off `group`'s chain rebased there.  Raises
    NotSrgError for a graph that is not strongly regular, SizeGuardExceeded
    past the closure guard before any n²-entry array is made, and
    CellNotInvariant if an orbital meets two cell pairs or two relations,
    which no group of automorphisms does."""
    params = require_srg(g)
    n = g.n
    check_guard(n, _CLOSURE_GUARD, "algebra closure order")
    cells = vertex_partition(g, omega).cells
    order = np.concatenate([np.array(c, dtype=np.intp) for c in cells])
    where = np.empty(n, dtype=np.intp)
    where[order] = np.arange(n)
    ends = np.cumsum([0] + [len(c) for c in cells])
    cell = np.repeat(np.arange(3, dtype=np.int8), np.diff(ends))
    relation = 2 - g.adjacency_dense()[np.ix_(order, order)] - 2 * np.eye(n, dtype=np.int8)
    chain = based_at(group, omega)
    stab_gens = chain.stabilizer(1).strong_gens
    # G_ω on positions: the generator g sends position x to where[g[order[x]]]
    stab = [where[np.asarray(s)[order]] for s in stab_gens]
    least = pair_orbit_labels(stab, n).reshape(-1)
    key = ((3 * cell[:, None] + cell[None, :]) * 3 + relation).reshape(-1)
    if np.any(key[least] != key):
        raise CellNotInvariant("G_ω orbitals straddle the cells or relations at ω")
    roots = np.flatnonzero(least == np.arange(n * n))
    pair_code = key[roots] // 3
    local = np.empty(len(roots), dtype=np.intp)
    reps = {}
    for code, pair in enumerate(_PAIRS):
        mine = pair_code == code
        local[mine] = np.arange(np.count_nonzero(mine))
        reps[pair] = np.stack(np.divmod(roots[mine], n), axis=1)
    index = np.empty(n * n, dtype=np.intp)
    index[roots] = local
    slices = tuple(slice(a, b) for a, b in zip(ends, ends[1:]))
    labels = index[least].reshape(n, n)
    return PairOrbitals(omega, params, chain, orbits(stab_gens, n), slices, relation, labels, reps)


def t0_t_report(
    g: Graph,
    omega: int = 0,
    primes=DEFAULT_PRIMES,
    rational: bool = False,
) -> tuple[tuple[int, np.ndarray], tuple[int, np.ndarray]]:
    """(dim, 3×3 block dimensions) of T₀ and of T, from one closure per field.

    Each sandwich E*ᵢA_jE*ₖ is zero outside Δᵢ×Δₖ, and T splits as
    ⊕ E*ᵢTE*ₗ, so the closure runs block by block: its seeds are the nonzero
    sandwiches (those with j = 0 are the E*ᵢ), and it multiplies on the left
    by those with j = 1, and by those with j = 2 only where μ ≡ 0 in the
    field (_multipliers).  The span of the seeds is T₀, the fixed point
    is T.  The closure holds each element of T by its values at the least
    pairs of the orbitals of G_ω, which it is constant on since T ⊆ T̃.
    This is the group-less entry point: its context is that of the trivial
    group, whose orbitals are single pairs, so T is closed on matrix
    entries; analyze_vertex, which holds G_ω, closes it on G_ω's orbitals or
    pins it by T₀ when T₀ already fills T̃ (_t0_t).  Over ℚ
    alone when `rational`, else over GF(p) for each of `primes`, which must
    agree (PrimeDisagreement); the closure self-test runs over the first
    field.  Unless `rational`, which ignores them, `primes` must be a
    nonempty tuple of primes (ValueError, NotPrime).  T₀ is cross-validated
    against the closed-form intersection numbers: its block (i, k) must
    have as many dimensions as there are nonzero pᵢⱼᵏ over j
    (OracleMismatch).
    """
    t0, t, _ = _t0_t(pair_orbitals(g, schreier_sims([], n=g.n), omega), primes, rational)
    return t0, t


def _fields(primes, rational) -> tuple:
    """The fields T is closed over: ℚ (None) alone when `rational`, whatever
    the primes, else the primes, which must be primes (NotPrime), one at
    least (ValueError)."""
    if rational:
        return (None,)
    primes = tuple(primes)
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    if not primes:
        raise ValueError("need at least one prime, or rational=True")
    return primes


def _multipliers(sandwiches, mu: int, p: int | None) -> tuple[list, list]:
    """The closure's (multipliers, seeds that never multiply) over GF(p), or
    ℚ for p None, from the nonzero sandwiches E*ᵢA_jE*ₖ by j ∈ {1, 2}.

    Since μJ = A₁² − (λ−μ)A₁ − (k−μ)I and A₂ = J − I − A₁, A₁ and the E*ᵢ
    generate T wherever μ is a unit (Terwilliger, J. Algebraic Combin. 1,
    1992), so the sandwiches of A₂ only seed.  They multiply too where
    μ ≡ 0: p | μ, or μ = 0 over ℚ (disjoint cliques)."""
    mu_is_zero = mu == 0 if p is None else mu % p == 0
    if mu_is_zero:
        return sandwiches[1] + sandwiches[2], []
    return sandwiches[1], sandwiches[2]


def _t0_t(orb: PairOrbitals, primes, rational):
    """t0_t_report's two results at the context's vertex, and its stats:
    "t_path", the path T took, and "closure", when the closure runs, each
    field's counters from algebra_closure (products, inserts, dim), keyed by
    prime (None for ℚ).  The path is "sandwich" when every
    orbital is a sandwich, so that dim T₀ is the number k of orbitals and
    T₀ ⊆ T ⊆ T̃ pins T = T₀, else "closure", on the orbitals' coordinates:
    seeded by every nonzero sandwich and closed under _multipliers."""
    fields = _fields(primes, rational)
    present = {pair: np.unique(orb.kinds(pair)) for pair in _PAIRS}  # the nonzero sandwiches
    if sum(map(len, present.values())) == orb.blocks.sum():
        stats = {"t_path": "sandwich"}
        results = [(orb.blocks, orb.blocks)]  # over every field
    else:
        rel = orb.relation
        sandwiches = {
            j: [((i, l), rel[orb.cells[i], orb.cells[l]] == j)
                for (i, l), kinds in present.items() if j in kinds]
            for j in (1, 2)
        }
        labels = {pair: orb.block(pair) for pair in _PAIRS}
        stats = {"t_path": "closure", "closure": {}}

        def closure(p, selftest):  # one field's space is freed before the next
            gens, seeds = _multipliers(sandwiches, orb.params.mu, p)
            space, mats, seeded = algebra_closure(gens, orb.sizes, p, labels=labels, seeds=seeds)
            if selftest:
                closure_product_selftest(space, mats, p)
            stats["closure"][p] = {**space.counts, "dim": space.dim}
            return seeded, space.blocks()

        results = [closure(p, idx == 0) for idx, p in enumerate(fields)]
    for label, per_field in zip(("T0", "T"), zip(*results)):
        if any(not np.array_equal(per_field[0], other) for other in per_field[1:]):
            blocks = [b.tolist() for b in per_field]
            raise PrimeDisagreement(f"{label} block dimensions differ across fields {fields}: {blocks}")

    blocks0, blocks1 = results[0]
    expected = np.count_nonzero(intersection_numbers(orb.params), axis=1)
    if not np.array_equal(blocks0, expected):
        raise OracleMismatch(
            f"span dim {blocks0.sum()}, blocks {blocks0.tolist()} != nonzero "
            f"intersection-number count {expected.sum()}, blocks {expected.tolist()}"
        )
    return (int(blocks0.sum()), blocks0), (int(blocks1.sum()), blocks1), stats


def t_tilde_report(orb: PairOrbitals) -> tuple[int, np.ndarray]:
    """dim and block dimensions of the stabilizer centralizer algebra at the
    context's vertex ω.

    The dimension is the orbital count of G_ω, computed two independent
    ways: the orbitals per cell pair of the pair labelling, and a sum over
    G_ω-orbit representatives x of the orbit count of the two-point
    stabilizer G_ω ∩ G_x.  Disagreement raises InternalDisagreement.
    """
    blocks = orb.blocks
    total = int(blocks.sum())
    n = len(orb.relation)
    stab_sum = len(orb.orbits)  # x = ω, where G_ω ∩ G_x is G_ω itself
    for cycle in orb.orbits:
        if cycle[0] != orb.omega:
            stab_sum += orbit_count(two_point_stabilizer(orb.chain, orb.omega, cycle[0]), n)
    if stab_sum != total:
        raise InternalDisagreement(
            f"orbital blocks give {total}, stabilizer-sum gives {stab_sum}"
        )
    return total, blocks


def _spectral_blocks(g: Graph, omega: int = 0) -> np.ndarray:
    """T's 3×3 block dimensions at ω, counted from the subconstituents'
    spectra over each of DEFAULT_PRIMES.

    Let B, of valency v (λ on Γ₁(ω), k − μ on Γ₂(ω)), be the adjacency of
    Γᵢ(ω), mᵢ the number of its distinct eigenvalues off the all-ones vector
    that lie in {θ, τ} and nᵢ that of the others.  For primitive parameters
    n₁ = n₂ = n and the blocks are [[1, 1, 1], [1, 1+n+m₁, 1+n],
    [1, 1+n, 1+n+m₂]]: past the primary module, T's irreducible modules are,
    up to isomorphism, one 2-dimensional per eigenvalue counted by n and one
    1-dimensional per eigenvalue counted by m₁ or m₂ (Cameron, Goethals &
    Seidel, J. Algebra 55, 1978; Tomiyama & Yamazaki, Kyushu J. Math. 48,
    1994).  𝒜 = ⟨I, B, J⟩ has a dimension per eigenvalue off all-ones and
    one for all-ones.  C = B² − (λ−μ)B + (μ−k)I = (B − θI)(B − τI) is
    integral even where θ, τ are not, and 𝒜C keeps the eigenvalues outside
    {θ, τ}, all-ones' v among them unless v ∈ {θ, τ} (as on grids, where
    θ = λ).  So m = dim 𝒜 − dim 𝒜C − [v ∈ {θ, τ}] and n = dim 𝒜 − 1 − m.
    Raises ImprimitiveParams, InternalDisagreement if n₁ ≠ n₂ and
    PrimeDisagreement if the fields disagree.
    """
    params = require_srg(g)
    if not is_primitive(params):
        raise ImprimitiveParams("spectral count needs primitive parameters")
    _, k, lam, mu = params.astuple()
    subs = zip(subconstituents(g, omega)[:2], (lam, k - mu))
    subs = [(sub.adjacency_dense().astype(np.int64), v) for sub, v in subs]
    per_field = []
    for p in DEFAULT_PRIMES:
        counts = []
        for b, v in subs:
            s = len(b)
            space, mats, _ = algebra_closure([((0, 0), b), ((0, 0), np.ones_like(b))], [s], p)
            c = (b @ b - (lam - mu) * b + (mu - k) * np.eye(s, dtype=np.int64)) % p
            ideal = SubspaceBasis(p, s * s)
            for pair, x in mats:
                ideal.insert(matmul_mod(space.dense(pair, x), c, p).reshape(-1))
            m = space.dim - ideal.dim - int((v * v - (lam - mu) * v + mu - k) % p == 0)
            counts.append((m, space.dim - 1 - m))
        (m1, n1), (m2, n2) = counts
        if n1 != n2:
            raise InternalDisagreement(f"GF({p}): Γ₁ has {n1} eigenvalues off {{θ, τ}}, Γ₂ {n2}")
        per_field.append(1 + np.array([[0, 0, 0], [0, n1 + m1, n1], [0, n1, n1 + m2]]))
    if any(not np.array_equal(per_field[0], other) for other in per_field[1:]):
        raise PrimeDisagreement("spectral block dimensions differ across primes")
    return per_field[0]


def t_dim_spectral_crosscheck(g: Graph, omega: int = 0) -> int:
    """dim T at ω, m₁ + m₂ + 4n + 9, counted exactly from the subconstituent
    spectra (_spectral_blocks), independently of the closure."""
    return int(_spectral_blocks(g, omega).sum())


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
    # how the report was computed, outside the JSON: "t_path" is "sandwich"
    # or "closure", "closure" each field's closure counters (products,
    # inserts, dim; see _t0_t) and "orbitals" the number k of G_ω-orbitals
    # on pairs
    stats: dict = field(default_factory=dict, compare=False, repr=False)

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
    orbitals = pair_orbitals(g, group, omega)
    (dim0, blocks0), (dim1, blocks1), t_stats = _t0_t(orbitals, primes, rational)
    dim2, blocks2 = t_tilde_report(orbitals)
    transitive = orbitals.chain.levels[0].size == g.n
    rank3 = transitive and len(orbitals.orbits) == 3
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
        params=orbitals.params,
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
        aut_order=orbitals.chain.order,
        flags=flags,
        stats={**t_stats, "orbitals": dim2},
    )
    if rank3:
        b = report.blocks["t_tilde"]
        if b[0] != [1, 1, 1] or b[1][0] != 1 or b[2][0] != 1 or b[1][2] != b[2][1]:
            raise InternalDisagreement("rank-3 centralizer blocks lack unit borders")
    return report
