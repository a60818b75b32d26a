#!/usr/bin/env python3
"""Record the benchmark's metrics for this checkout in BENCH_<tag>.json.

    python3 scripts/bench_record.py 11

Runs perfbench/run.py once per workload of BENCHMARK.json with --trace 0
(end-to-end metrics) and once with --trace 1 (per-layer metrics), always with
seed 1 and BENCHMARK.json's run_seconds so that records compare, reads the
`env` line and the JSON summary line each run prints, and writes them to
BENCH_<tag>.json at the repository root together with the commit, whether
tracked files differed from it, and the machine's conditions.  The runs take
about (2 × workloads × seconds) plus set-up; run on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def parse_run_output(stdout: str) -> dict:
    """The `env {...}` line and the last-line JSON summary of one
    perfbench/run.py run, as {"env", "correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    if not lines or len(env) != 1:
        raise ValueError("expected one env line and a summary line")
    try:
        summary = json.loads(lines[-1])
        return {
            "env": env[0],
            "correct": bool(summary["correct"]),
            "attempted": int(summary["attempted"]),
            "failed": int(summary["failed"]),
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in summary["metrics"].items()
            },
        }
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed summary line: {exc}") from exc


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def conditions() -> dict:
    return {
        "commit": _git("rev-parse", "HEAD"),
        "tracked_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "loadavg_at_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tag", help="output file is BENCH_<tag>.json")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    record = {"conditions": conditions(), "seed": SEED, "seconds": seconds, "runs": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(SEED), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"error: {' '.join(cmd)} failed:\n{proc.stderr}")
            record["runs"][f"{workload}/trace{trace}"] = parse_run_output(proc.stdout)
            print(f"{workload} trace {trace} done", file=sys.stderr)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
