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
T̃ by counting stabilizer orbitals on pairs.  Since T ⊆ T̃, the closure can
run on those orbitals' coordinates instead of matrix entries (Bannai &
Munemasa, Kyushu J. Math. 49, 1995), or be skipped when T₀ already fills
T̃.  A floating-point cross-check of dim T from subconstituent spectra is
provided as an advisory, never a verdict source.
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
from .linalg import (
    BlockBasis,
    ClosureSelfTestFailed,
    PrimeDisagreement,
    algebra_closure,
    block_closure,
    closure_product_selftest,
    field_array,
    matmul_mod,
)
from .permgroup import (
    GroupBSGS,
    based_at,
    orbit_count,
    orbits,
    pair_orbit_labels,
    schreier_sims,
    transitivity_rank,
    two_point_stabilizer,
)

_CLOSURE_GUARD = 1500


class OracleMismatch(RuntimeError):
    """Span dimension disagrees with the intersection-number count."""


class InternalDisagreement(RuntimeError):
    """Two independent computations of dim T̃ differ."""


class CellNotInvariant(ValueError):
    """A group meant to fix ω moves a pair across cells or relations."""


class _Inconclusive:
    """Sentinel for a spectral cross-check with ambiguous clustering."""

    def __repr__(self):
        return "Inconclusive"

    def __bool__(self):
        return False


Inconclusive = _Inconclusive()


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
    stab_gens = chain.stabilizer_gens(1)
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


def _orbital_operators(orb: PairOrbitals) -> dict:
    """block_closure's left operators on orbital coordinates, as integers:
    for each (k, l), the stacked matrices L of x ↦ E*ᵢA_jE*ₖ·x from block
    (k, l) to block (i, l), j = 1, 2, i = 0, 1, 2.  The product commutes
    with G_ω, so its coordinate c is its value at the least pair
    (x_c, y_c): entry (c, b) of L counts the z ∈ Δₖ in relation j to x_c
    with (z, y_c) in orbital b.  One bincount per (k, l) counts them for
    every i and j."""
    lefts = {}
    for k, l in _PAIRS:
        reps = np.concatenate([orb.reps[i, l] for i in range(3)])
        rows, cols = len(reps), len(orb.reps[k, l])
        rel = orb.relation[reps[:, 0], orb.cells[k]].astype(np.intp)
        code = ((rel - 1) * rows + np.arange(rows)[:, None]) * cols
        code += orb.labels[orb.cells[k], reps[:, 1]].T
        ops = np.bincount(code[rel > 0], minlength=2 * rows * cols).reshape(2 * rows, cols)
        ends = np.cumsum([0] + [len(orb.reps[i, l]) for i in range(3)])
        bounds = [
            (i, j * rows + a, j * rows + b)
            for j in range(2)
            for i, (a, b) in enumerate(zip(ends, ends[1:]))
            if ops[j * rows + a : j * rows + b].any()
        ]
        lefts[k, l] = (ops, bounds) if bounds else None
    return lefts


def _orbital_closure(orb: PairOrbitals, ops: dict, p: int | None, selftest: bool):
    """T₀'s and T's block dimensions over one field, in orbital coordinates;
    `ops` is _orbital_operators(orb), shared by the fields."""
    space = BlockBasis(p, orb.sizes, widths=orb.blocks)
    seeds = []
    for pair in _PAIRS:  # the nonzero sandwiches, one per relation present
        kinds = orb.kinds(pair)
        seeds += [(pair, field_array(kinds == j, p)) for j in np.unique(kinds)]
    lefts = {
        pair: None if left is None else (field_array(left[0], p), left[1])
        for pair, left in ops.items()
    }
    mats, seeded = block_closure(space, seeds, lefts, p)
    if selftest:

        def multiply(x_pair, x, y_pair, y):
            # the product of two elements of T̃, formed densely: it must be
            # constant on orbitals, and its coordinates are then its values
            pair = (x_pair[0], y_pair[1])
            dense = matmul_mod(x[orb.block(x_pair)], y[orb.block(y_pair)], p)
            labels = orb.block(pair)
            coords = np.empty(len(orb.reps[pair]), dtype=dense.dtype)
            coords[labels] = dense
            if np.any(coords[labels] != dense):
                raise ClosureSelfTestFailed("a product is not constant on the orbitals of G_ω")
            return coords

        closure_product_selftest(space, mats, p, multiply)
    return seeded, space.blocks()


def _dense_closure(orb: PairOrbitals, p: int | None, selftest: bool):
    """T₀'s and T's block dimensions over one field, block by block on matrix
    entries; the generators are the blocks of A₁ and A₂ on each cell pair."""
    rel = orb.relation
    gens = [((i, l), rel[orb.cells[i], orb.cells[l]] == j) for i, l in _PAIRS for j in (1, 2)]
    space, mats, seeded = algebra_closure(gens, orb.sizes, p)
    if selftest:
        closure_product_selftest(space, mats, p)
    return seeded, space.blocks()


def _t_path(orb: PairOrbitals) -> str:
    """How T is computed.  When every orbital is a sandwich, dim T₀ is the
    number k of orbitals and T₀ ⊆ T ⊆ T̃ pins T = T₀ ("sandwich").  Otherwise
    in orbital coordinates when the operators, Σᵢₖₗ kᵢₗ·kₖₗ entries, are at
    most n³, the dense closure's multiply-adds for one product per cell
    triple ("orbital"); else, as for trivial groups (k = n²), densely.

    The bound n³ is an operation count, set against timings of both closures
    on Paley(q) with G_ω cut down to its subgroups of each order
    (scripts/t_path_crossover.py, 2-core host, BLAS on one thread).  Over the
    two default primes the orbital one was faster at ratios Σ/n³ up to 1.18
    and slower from 1.98 up at q = 61 and 101, so the bound sits at the
    crossover there; at q ≤ 29 both take 7–30 ms and below the bound the
    orbital one is up to 2.3 ms slower.  Over ℚ it was faster up to a ratio
    of 3.4, so the bound is cautious there."""
    blocks = orb.blocks
    if sum(len(np.unique(orb.kinds(pair))) for pair in _PAIRS) == blocks.sum():
        return "sandwich"
    n = len(orb.relation)
    return "orbital" if np.sum(blocks.sum(axis=0) ** 2) <= n**3 else "dense"


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
    by those with j ∈ {1, 2}.  The span of the seeds is T₀, the fixed point
    is T.  This is the group-less entry point: its context is that of the
    trivial group, so T is closed densely; analyze_vertex, which holds G_ω,
    may pin T by T₀ or close it in orbital coordinates (_t_path).  Over ℚ
    alone when `rational`, else over GF(p) for each of `primes`, which must
    agree (PrimeDisagreement); the closure self-test runs over the first
    field.  T₀ is cross-validated against the closed-form intersection
    numbers: its block (i, k) must have as many dimensions as there are
    nonzero pᵢⱼᵏ over j (OracleMismatch).
    """
    t0, t, _ = _t0_t(pair_orbitals(g, schreier_sims([], n=g.n), omega), primes, rational)
    return t0, t


def _t0_t(orb: PairOrbitals, primes, rational):
    """t0_t_report's two results at the context's vertex, and the path T
    took (_t_path)."""
    fields = (None,) if rational else tuple(primes)
    path = _t_path(orb)
    if path == "sandwich":  # T₀ = T = T̃ over every field
        results = [(orb.blocks, orb.blocks)]
    elif path == "orbital":
        ops = _orbital_operators(orb)
        results = [_orbital_closure(orb, ops, p, idx == 0) for idx, p in enumerate(fields)]
    else:
        results = [_dense_closure(orb, p, idx == 0) for idx, p in enumerate(fields)]
    for label, per_field in zip(("T0", "T"), zip(*results)):
        dims = {int(blocks.sum()) for blocks in per_field}
        if len(dims) != 1:
            raise PrimeDisagreement(f"{label} dimension differs across primes: {dims}")
        if any(not np.array_equal(per_field[0], other) for other in per_field[1:]):
            raise PrimeDisagreement(f"{label} block dimensions differ across primes")

    blocks0, blocks1 = results[0]
    expected = np.count_nonzero(intersection_numbers(orb.params), axis=1)
    if not np.array_equal(blocks0, expected):
        raise OracleMismatch(
            f"span dim {blocks0.sum()}, blocks {blocks0.tolist()} != nonzero "
            f"intersection-number count {expected.sum()}, blocks {expected.tolist()}"
        )
    return (int(blocks0.sum()), blocks0), (int(blocks1.sum()), blocks1), path


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
    # how the report was computed, outside the JSON: "t_path" is "sandwich",
    # "orbital" or "dense" (see _t_path) and "orbitals" the number k of
    # G_ω-orbitals on pairs
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
    (dim0, blocks0), (dim1, blocks1), path = _t0_t(orbitals, primes, rational)
    dim2, blocks2 = t_tilde_report(orbitals)
    transitive, rank = transitivity_rank(orbitals.chain, g.n)
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
        stats={"t_path": path, "orbitals": dim2},
    )
    if rank3:
        b = report.blocks["t_tilde"]
        if b[0] != [1, 1, 1] or b[1][0] != 1 or b[2][0] != 1 or b[1][2] != b[2][1]:
            raise InternalDisagreement("rank-3 centralizer blocks lack unit borders")
    return report
