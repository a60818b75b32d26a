#!/usr/bin/env python3
"""srgta benchmark: time to verdict on four workloads, with a traced run.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; srgta is imported from ./src.  Each
workload runs in this one process, passes back to back (closed loop, one
client) until --seconds have passed, with the BLAS pool pinned to
BLAS_THREADS and no worker pool.  Every output is checked against
perfbench/pins.py.

--trace 0 prints the end-to-end metrics: setup_s (median of SETUP_SAMPLES
fresh processes that import srgta, then build, relabel and validate the
workload's graphs), pass_s (median pass), verdict_s.slowest (median time of
the slowest graph or row), ok_ratio (1 - failed/attempted) and peak_rss_mb.
--trace 1 prints per-layer metrics from one extra pass in which calls into
srgta's modules are wrapped in spans (see spans.py); the spans are written to
perfbench/out/ at exit.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # set before numpy loads, so every run uses the same BLAS pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROW_KINDS = ("dims", "witness", "cliqueext", "property", "smith", "krein_zero",
             "exclusion", "spectral")
LAYERS = ("cli", "classifier", "terwilliger", "linalg", "autgrp", "permgroup",
          "graphcore", "families", "exactmath")


def import_srgta():
    if not (SRC / "srgta" / "__init__.py").is_file():
        raise SystemExit(f"error: no srgta sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import srgta

    if Path(srgta.__file__).resolve().parent != SRC / "srgta":
        raise SystemExit(f"error: imported srgta from {srgta.__file__}, not {SRC}")
    return srgta


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import sympy

    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def setup_samples(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that only import and set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(bench, seconds: float) -> list[tuple[float, list]]:
    """Untraced passes back to back until `seconds` have elapsed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        outcomes = bench.run_pass()
        passes.append((time.perf_counter() - t, outcomes))
    return passes


def per_graph_medians(passes) -> dict[str, float]:
    per_id: dict[str, list[float]] = {}
    for _, outcomes in passes:
        for o in outcomes:
            per_id.setdefault(o.id, []).append(o.seconds)
    return {k: statistics.median(v) for k, v in per_id.items()}


def layer_metrics(tracer: Tracer, setup: Tracer, traced_s: float, untraced_s: float) -> dict:
    t = tracer.outermost_seconds
    c = tracer.counts
    searches = c["autgrp.searches"]
    m = {
        "linalg.closure_s": (t({"linalg.algebra_closure"}), "s"),
        "linalg.closure_dim": (c["linalg.closure_dim"], "count"),
        "linalg.block_dims_s": (t({"linalg.block_dims"}), "s"),
        "terwilliger.t0_s": (t({"terwilliger.t0_report"}), "s"),
        "terwilliger.t_s": (t({"terwilliger.t_report"}), "s"),
        "terwilliger.t_tilde_s": (t({"terwilliger.t_tilde_report"}), "s"),
        "autgrp.search_s": (t({"autgrp.automorphism_group"}), "s"),
        "autgrp.gens": (c["autgrp.gens"], "count"),
        "autgrp.complete_ratio": (c["autgrp.complete"] / searches if searches else 1.0, "ratio"),
        "permgroup.schreier_sims_s": (t({"permgroup.schreier_sims"}), "s"),
        "permgroup.transitivity_rank_s": (t({"permgroup.transitivity_rank"}), "s"),
        "permgroup.base_len": (c["permgroup.base_len"], "count"),
        "permgroup.strong_gens": (c["permgroup.strong_gens"], "count"),
        "graphcore.srg_check_s": (
            t({"graphcore.require_srg", "graphcore.is_strongly_regular"}), "s"),
        "graphcore.srg_checks": (
            sum(1 for s in tracer.spans if s[0] == "graphcore.is_strongly_regular"), "count"),
        "families.construct_s": (
            setup.outermost_seconds({"families.construct"}) + t({"families.construct"}), "s"),
    }
    for kind in ROW_KINDS:
        m[f"cli.row_s.{kind}"] = (t({f"cli.row.{kind}"}), "s")
    self_s = tracer.self_seconds()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    m["unattributed_s"] = (traced_s - sum(self_s.get(layer, 0.0) for layer in LAYERS), "s")
    m["trace_overhead_s"] = (traced_s - untraced_s, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="srgta benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    srgta = import_srgta()
    bench = workloads.build(args.workload, srgta, args.seed)
    if args.setup_only:
        return 0
    env = environment(args.seed)
    setup = [] if args.trace else setup_samples(args.workload, args.seed)

    passes = measure(bench, args.seconds)
    pass_times = [p[0] for p in passes]
    traced_outcomes = []
    if args.trace:
        setup_tracer, tracer = Tracer(), Tracer()
        setup_tracer.install()
        try:
            workloads.build(args.workload, srgta, args.seed)
        finally:
            setup_tracer.uninstall()
        tracer.install()
        origin = time.perf_counter()
        try:
            traced_outcomes = bench.run_pass(tracer)
        finally:
            traced_s = time.perf_counter() - origin
            tracer.uninstall()

    every = [o for _, outcomes in passes for o in outcomes] + traced_outcomes
    failures = [o for o in every if o.error]
    graph_s = per_graph_medians(passes)
    worst_id = max(graph_s, key=graph_s.get)
    worst_s = graph_s[worst_id]
    q1, med, q3 = quartiles(pass_times)
    if args.trace:
        metrics = layer_metrics(tracer, setup_tracer, traced_s, med)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (med, "s"),
            "verdict_s.slowest": (worst_s, "s"),
            "ok_ratio": (1 - len(failures) / len(every), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"passes {len(pass_times)}: median {med:.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s")
    print(f"slowest {worst_id}: {worst_s:.4f} s")
    if setup:
        print("setup samples " + ", ".join(f"{s:.4f}" for s in setup) + " s")
    print(f"operations {len(every)}, failed {len(failures)}, "
          f"fail_ratio {len(failures) / len(every):.4f}")
    for o in failures[:20]:
        print(f"FAILED {o.id}: {o.error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "setup_samples_s": setup,
        "passes_s": pass_times,
        "pass_quartiles_s": [q1, med, q3],
        "graph_medians_s": graph_s,
        "failures": [[o.id, o.error] for o in failures],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = {"env": env, "setup": setup_tracer.dump(origin), "pass": tracer.dump(origin)}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(json.dumps({
        "correct": not failures,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
