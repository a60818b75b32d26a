"""Expected outputs for every graph and row the benchmark runs.

Each graph is analysed at base vertex 0 after a seeded relabelling that
fixes vertex 0, so these values hold for every --seed.  Family values agree
with the ones tests/ freezes where a test covers the graph (peisert(7,1):
t̃ = 45, |Aut| = 3528; grid(4): |Aut| = 1152).  The Latin-square and
rational pins are cross-checked against the independent oracle in
scripts/dimension_survey.py by perfbench/test_pins.py.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GraphPin:
    id: str
    source: tuple  # ("family", tag, params) or ("latin", order, square_seed)
    srg: tuple[int, int, int, int]
    dims: tuple[int, int, int]  # t0, t, t_tilde
    t_tilde_blocks: tuple[tuple[int, int, int], ...]
    aut_order: int
    triply_transitive: bool | None
    flags: tuple[str, ...] = ()


def _family(id, tag, params, srg, dims, blocks, aut, verdict):
    return GraphPin(id, ("family", tag, params), srg, dims, blocks, aut, verdict)


CLOSURE = (
    _family("paley(41)", "paley", (41,), (41, 20, 9, 10), (15, 49, 85),
            ((1, 1, 1), (1, 20, 20), (1, 20, 20)), 820, False),
    _family("paley(49)", "paley", (49,), (49, 24, 11, 12), (15, 35, 59),
            ((1, 1, 1), (1, 15, 12), (1, 12, 15)), 2352, False),
    _family("paley(61)", "paley", (61,), (61, 30, 14, 15), (15, 65, 125),
            ((1, 1, 1), (1, 30, 30), (1, 30, 30)), 1830, False),
    _family("peisert(7,1)", "peisert", (7, 1), (49, 24, 11, 12), (15, 25, 45),
            ((1, 1, 1), (1, 12, 8), (1, 8, 12)), 3528, False),
)

RATIONAL = (
    _family("paley(13)", "paley", (13,), (13, 6, 2, 3), (15, 21, 29),
            ((1, 1, 1), (1, 6, 6), (1, 6, 6)), 78, False),
    _family("paley(17)", "paley", (17,), (17, 8, 3, 4), (15, 25, 37),
            ((1, 1, 1), (1, 8, 8), (1, 8, 8)), 136, False),
    _family("johnson(6)", "johnson", (6,), (15, 8, 4, 4), (15, 16, 16),
            ((1, 1, 1), (1, 4, 2), (1, 2, 3)), 720, False),
    _family("grid(4)", "grid", (4,), (16, 6, 2, 2), (15, 15, 15),
            ((1, 1, 1), (1, 3, 2), (1, 2, 3)), 1152, True),
)

# Squares from perfbench/latin.py with trivial automorphism groups: the
# search cannot prune by automorphisms, visits the same number of nodes under
# every relabelling, and the intransitive path gives t̃ = n².  (Square seed 1
# of order 7 has a group of order 2; its node count swings by almost 2x with
# the labelling, which would make the seed, not the code, set the timing.)
SMALL_GROUP = (
    GraphPin("ls3(7)", ("latin", 7, 2), (49, 18, 7, 6), (15, 37, 2401),
             ((1, 18, 30), (18, 324, 540), (30, 540, 900)), 1, None,
             ("case_b_candidate",)),
    GraphPin("ls3(8)", ("latin", 8, 1), (64, 21, 8, 6), (15, 37, 4096),
             ((1, 21, 42), (21, 441, 882), (42, 882, 1764)), 1, None,
             ("case_b_candidate",)),
)

# `srgta reproduce --jobs 1`: every row passes except the four sporadic
# imports, which skip without --import-dir.
REPRODUCE_TALLY = {"PASS": 52, "FAIL": 0, "SKIP": 4}
REPRODUCE_SKIPPED = frozenset(
    {"import_hoffman_singleton", "import_gewirtz", "import_m22", "import_higman_sims"}
)
