"""The four benchmark workloads: set-up and one timed pass each.

A pass returns one Outcome per graph or row, each with its time to verdict
and, when it failed, why.  A failure is a pin mismatch, an exception from
the library, or an automorphism search that ran out of time.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
from dataclasses import dataclass

import numpy as np

import latin
import pins


@dataclass
class Outcome:
    id: str
    seconds: float
    error: str | None = None


def _report_mismatch(report, pin: pins.GraphPin) -> str | None:
    got = {
        "dims": (report.dims["t0"], report.dims["t"], report.dims["t_tilde"]),
        "t_tilde blocks": tuple(tuple(int(x) for x in row) for row in report.blocks["t_tilde"]),
        "aut order": report.aut_order,
        "verdict": report.verdicts["triply_transitive"],
        "flags": tuple(report.flags),
    }
    want = {
        "dims": pin.dims,
        "t_tilde blocks": pin.t_tilde_blocks,
        "aut order": pin.aut_order,
        "verdict": pin.triply_transitive,
        "flags": pin.flags,
    }
    bad = [f"{key} {got[key]} != {want[key]}" for key in got if got[key] != want[key]]
    if "aut_lower_bound_only" in report.flags:
        bad.insert(0, "automorphism search timed out")
    return "; ".join(bad) or None


def _adjacency(srgta, pin: pins.GraphPin) -> np.ndarray:
    kind, *args = pin.source
    if kind == "family":
        tag, params = args
        return srgta.construct(srgta.FamilySpec(tag, params)).adjacency_dense()
    order, square_seed = args
    square = latin.jacobson_matthews(order, square_seed)
    if not latin.is_latin(square):
        raise RuntimeError(f"{pin.id}: generated square is not Latin")
    return latin.latin_square_adjacency(square)


class VerdictWorkload:
    """triple_transitivity_verdict on a fixed panel of relabelled graphs."""

    def __init__(self, srgta, panel, seed: int, rational: bool = False):
        self.srgta = srgta
        self.rational = rational
        self.graphs = []
        for pin in panel:
            a = latin.relabel_fixing_zero(_adjacency(srgta, pin), f"{seed}:{pin.id}")
            if latin.srg_parameters(a) != pin.srg:
                raise RuntimeError(f"{pin.id}: relabelled graph is not srg{pin.srg}")
            self.graphs.append((pin, srgta.Graph.from_dense(a)))

    def run_pass(self, tracer=None) -> list[Outcome]:
        out = []
        for pin, g in self.graphs:
            span = tracer.span("bench.graph", pin.id) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    report = self.srgta.triple_transitivity_verdict(g, rational=self.rational)
                error = _report_mismatch(report, pin)
            except Exception as exc:  # a failed operation, counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            out.append(Outcome(pin.id, time.perf_counter() - start, error))
        return out


_TALLY = re.compile(r"^(\d+) pass, (\d+) fail, (\d+) skip$")


class ReproduceWorkload:
    """`srgta reproduce --jobs 1` in-process; each battery row is one outcome.

    Row times come from a wrapper around srgta.cli._run_row, the function
    the battery calls once per row.
    """

    def __init__(self, srgta):
        import srgta.cli

        self.cli = srgta.cli
        if not callable(getattr(self.cli, "_run_row", None)):
            raise RuntimeError("srgta.cli._run_row not found: battery rows cannot be timed")

    def run_pass(self, tracer=None) -> list[Outcome]:
        original = self.cli._run_row
        rows: list[Outcome] = []

        def timed_row(name, kind, payload, ctx):
            span = tracer.span(f"cli.row.{kind}", name) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                result = original(name, kind, payload, ctx)
            status, detail = result[1], result[2]
            want = "SKIP" if name in pins.REPRODUCE_SKIPPED else "PASS"
            error = None if status == want else f"{status} (want {want}) {detail}".strip()
            rows.append(Outcome(name, time.perf_counter() - start, error))
            return result

        self.cli._run_row = timed_row
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                code = self.cli.main(["reproduce", "--jobs", "1"])
        except Exception as exc:  # escaped the CLI: the whole battery failed
            return rows + [Outcome("reproduce", time.perf_counter() - start,
                                   f"{type(exc).__name__}: {exc}")]
        finally:
            self.cli._run_row = original
        lines = printed.getvalue().strip().splitlines()
        match = _TALLY.match(lines[-1]) if lines else None
        tally = dict(zip(("PASS", "FAIL", "SKIP"), map(int, match.groups()))) if match else None
        if code != 0 or tally != pins.REPRODUCE_TALLY:
            rows.append(Outcome("reproduce", 0.0, f"exit {code}, tally {tally} "
                                f"!= {pins.REPRODUCE_TALLY}"))
        return rows


WORKLOADS = ("reproduce", "closure", "small-group", "rational")


def build(name: str, srgta, seed: int):
    if name == "reproduce":
        return ReproduceWorkload(srgta)
    panel, rational = {
        "closure": (pins.CLOSURE, False),
        "small-group": (pins.SMALL_GROUP, False),
        "rational": (pins.RATIONAL, True),
    }[name]
    return VerdictWorkload(srgta, panel, seed, rational)
