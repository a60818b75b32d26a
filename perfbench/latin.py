"""Seeded random Latin squares and the graphs the benchmark builds from them.

Latin squares come from the Jacobson–Matthews Markov chain (J. Combin. Des.
4, 1996) started at the cyclic square.  The Latin square graph LS₃(n) has
the n² cells as vertices, two cells adjacent when they share a row, a column
or a symbol; it is srg(n², 3(n−1), n, 6).  Random squares have tiny or
trivial autotopism groups, so these graphs exercise the automorphism search
and the intransitive path of the analysis.

Everything here is plain numpy and the standard library, independent of
srgta, so the benchmark can validate the graphs it hands to the library.

Print a square:  python3 perfbench/latin.py --order 8 --seed 1
"""

from __future__ import annotations

import argparse
import random

import numpy as np


def jacobson_matthews(n: int, seed: int) -> np.ndarray:
    """An n×n Latin square after n³ moves of the chain.

    The square is held as its 0/1 incidence cube (row, column, symbol).  A
    move adds +1/−1 around a 2×2×2 sub-cube; it may leave one cell at −1
    (an improper square), and the chain keeps moving until it is proper
    again, so the result is always a Latin square.
    """
    rng = random.Random(seed)
    cube = np.zeros((n, n, n), dtype=np.int8)
    idx = np.arange(n)
    cube[idx[:, None], idx[None, :], (idx[:, None] + idx[None, :]) % n] = 1
    improper = None
    moves = 0
    while moves < n**3 or improper is not None:
        if improper is None:
            while True:
                r, c, s = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if cube[r, c, s] == 0:
                    break
            r2 = int(np.flatnonzero(cube[:, c, s] == 1)[0])
            c2 = int(np.flatnonzero(cube[r, :, s] == 1)[0])
            s2 = int(np.flatnonzero(cube[r, c, :] == 1)[0])
        else:
            r, c, s = improper
            r2 = rng.choice(np.flatnonzero(cube[:, c, s] == 1).tolist())
            c2 = rng.choice(np.flatnonzero(cube[r, :, s] == 1).tolist())
            s2 = rng.choice(np.flatnonzero(cube[r, c, :] == 1).tolist())
        for a, b, d in ((r, c, s), (r, c2, s2), (r2, c, s2), (r2, c2, s)):
            cube[a, b, d] += 1
        for a, b, d in ((r, c, s2), (r, c2, s), (r2, c, s), (r2, c2, s2)):
            cube[a, b, d] -= 1
        improper = (r2, c2, s2) if cube[r2, c2, s2] < 0 else None
        moves += 1
    return cube.argmax(axis=2)


def is_latin(square: np.ndarray) -> bool:
    n = len(square)
    full = np.arange(n)
    return square.shape == (n, n) and all(
        np.array_equal(np.sort(line), full) for line in (*square, *square.T)
    )


def latin_square_adjacency(square: np.ndarray) -> np.ndarray:
    """0/1 adjacency of LS₃(n); cell (r, c) is vertex r·n + c."""
    n = len(square)
    rows = np.repeat(np.arange(n), n)
    cols = np.tile(np.arange(n), n)
    syms = square.reshape(-1)
    a = (rows[:, None] == rows) | (cols[:, None] == cols) | (syms[:, None] == syms)
    np.fill_diagonal(a, False)
    return a.astype(np.int8)


def srg_parameters(a: np.ndarray) -> tuple[int, int, int, int] | None:
    """(n, k, λ, μ) if the 0/1 matrix a is strongly regular, else None."""
    n = len(a)
    if a.shape != (n, n) or not np.array_equal(a, a.T) or a.diagonal().any():
        return None
    deg = a.sum(axis=1)
    k = int(deg[0])
    if not np.all(deg == k):
        return None
    ai = a.astype(np.int64)
    sq = ai @ ai
    adj = ai.astype(bool)
    non = ~adj
    np.fill_diagonal(non, False)
    lam = np.unique(sq[adj])
    mu = np.unique(sq[non])
    if lam.size != 1 or mu.size != 1:
        return None
    return n, k, int(lam[0]), int(mu[0])


def relabel_fixing_zero(a: np.ndarray, seed: str) -> np.ndarray:
    """a under a seeded vertex permutation that keeps vertex 0 in place.

    New vertex i is old vertex perm[i], so the analysis at base vertex 0
    sees an isomorphic graph and every pinned value is unchanged.
    """
    n = len(a)
    rng = random.Random(seed)
    perm = np.array([0] + rng.sample(range(1, n), n - 1))
    return a[np.ix_(perm, perm)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--order", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    square = jacobson_matthews(args.order, args.seed)
    for row in square:
        print(" ".join(map(str, row)))
    params = srg_parameters(latin_square_adjacency(square))
    print(f"latin {is_latin(square)}; LS3 graph srg{params}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
