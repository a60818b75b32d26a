#!/usr/bin/env python3
"""Time T's orbital closure against the dense one around _t_path's bound.

    python3 scripts/t_path_crossover.py 61,101
    python3 scripts/t_path_crossover.py 13,17,29 --rational

For each prime q ≡ 1 mod 4 given, takes Paley(q) and, for each divisor d of
(q − 1)/2, the subgroup of G_0 of order d (x ↦ a·x with a of order d), labels
Ω×Ω by its orbitals and prints the number k of orbitals, the ratio of the
orbital operators' size Σᵢₖₗ kᵢₗ·kₖₗ to n³ (_t_path takes the orbital path
at ratios up to 1), the path _t_path picks and the best time of each closure
over the two default primes, or over ℚ with --rational.  Any subgroup of G_ω
gives a valid labelling (T lies in its centralizer), so the subgroups sweep
k from n² down to the full group's count on one graph.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from srgta import terwilliger  # noqa: E402
from srgta.exactmath import DEFAULT_PRIMES, gf_construct  # noqa: E402
from srgta.families import FamilySpec, construct  # noqa: E402
from srgta.permgroup import schreier_sims  # noqa: E402


def best_time(run, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("primes", help="comma-separated primes q = 1 mod 4")
    ap.add_argument("--rational", action="store_true", help="close over Q, not the default primes")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    fields = (None,) if args.rational else DEFAULT_PRIMES
    for q in map(int, args.primes.split(",")):
        g = construct(FamilySpec("paley", (q,)))
        root = gf_construct(q).primitive_element()  # the least primitive root mod q
        half = (q - 1) // 2
        for d in [d for d in range(1, half + 1) if half % d == 0]:
            a = pow(root, (q - 1) // d, q)
            group = schreier_sims([tuple(a * x % q for x in range(q))], base_prefix=(0,), n=q)
            orb = terwilliger.pair_orbitals(g, group, 0)
            path = terwilliger._t_path(orb)
            if path == "sandwich":
                print(f"q={q} |H|={d} sandwich", flush=True)
                continue
            ratio = np.sum(orb.blocks.sum(axis=0) ** 2) / q**3

            def orbital():
                ops = terwilliger._orbital_operators(orb)
                for idx, p in enumerate(fields):
                    terwilliger._orbital_closure(orb, ops, p, idx == 0)

            def dense():
                for idx, p in enumerate(fields):
                    terwilliger._dense_closure(orb, p, idx == 0)

            t_orb, t_dense = best_time(orbital, args.repeats), best_time(dense, args.repeats)
            print(
                f"q={q} |H|={d} k={orb.blocks.sum()} ratio={ratio:.3f} path={path} "
                f"orbital={t_orb * 1e3:.1f}ms dense={t_dense * 1e3:.1f}ms",
                flush=True,
            )


if __name__ == "__main__":
    main()
