"""Spans around calls into srgta's modules, recorded from outside the library.

A Tracer swaps each listed public function for a timing wrapper wherever
the function object is bound in a loaded srgta module (the defining module
and every module that imported it by name), and puts the originals back on
uninstall.  Spans stay in memory; the benchmark writes them out at exit.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Public functions timed per layer.  Names missing from a module are skipped,
# so the list may run ahead of or behind the library.
LAYER_FUNCTIONS = {
    "exactmath": ("srg_eigenvalues", "srg_multiplicities", "gf_construct"),
    "graphcore": ("is_strongly_regular", "require_srg", "subconstituents",
                  "induced_subgraph", "complement", "clique_extension",
                  "common_neighbour_counts"),
    "families": ("construct",),
    "permgroup": ("schreier_sims", "point_stabilizer", "two_point_stabilizer",
                  "transitivity_rank", "orbital_count_block", "orbits",
                  "orbit_count"),
    "autgrp": ("automorphism_group",),
    "linalg": ("algebra_closure", "block_dims", "closure_product_selftest"),
    "terwilliger": ("idempotents", "t0_report", "t_report", "t_tilde_report",
                    "t_dim_spectral_crosscheck", "analyze_vertex"),
    "classifier": ("validate_params", "intersection_numbers", "krein",
                   "param_form", "exclusion_lemma", "triple_regularity",
                   "triple_intersection_numbers", "triple_transitivity_verdict"),
    "cli": ("main",),
}


def _count_result(name: str, result, counts) -> None:
    """Work counters read off a layer's return value."""
    if name == "autgrp.automorphism_group":
        counts["autgrp.searches"] += 1
        counts["autgrp.gens"] += len(result.gens)
        counts["autgrp.complete"] += bool(result.complete)
    elif name == "permgroup.schreier_sims":
        counts["permgroup.base_len"] += len(result.base)
        counts["permgroup.strong_gens"] += len(result.strong_gens)
    elif name == "linalg.algebra_closure":
        counts["linalg.closure_dim"] += result[0].dim


class Tracer:
    """Spans are [name, start, end, parent index or -1, graph id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._graph: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._graph])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, graph: str | None = None):
        outer = self._graph
        if graph is not None:
            self._graph = graph
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._graph = outer

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            _count_result(name, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "srgta" or key.startswith("srgta.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"srgta.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def outermost_seconds(self, names) -> float:
        """Time inside spans named in `names`, not counting nested repeats."""
        names = set(names)
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def self_seconds(self) -> dict[str, float]:
        """Per layer (span-name prefix): span time minus direct child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".")[0]] += end - start - child_time[i]
        return out

    def dump(self, origin: float) -> list[dict]:
        return [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "graph": g}
            for n, s, e, p, g in self.spans
        ]
