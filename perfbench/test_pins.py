"""Checks on the benchmark's inputs, pins and failure accounting.

    python3 -m pytest -q perfbench/test_pins.py

The oracle tests recompute the small-group and rational pins with the
independent code in scripts/dimension_survey.py (its own graph builders,
modular closure, brute-force automorphism search and union-find orbitals),
on graphs relabelled the way the benchmark relabels them.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import latin  # noqa: E402
import pins  # noqa: E402
import srgta  # noqa: E402
import workloads  # noqa: E402
from srgta.linalg import ClosureBudgetExceeded  # noqa: E402


def _oracle():
    spec = importlib.util.spec_from_file_location(
        "dimension_survey", ROOT / "scripts" / "dimension_survey.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = _oracle()
LOCAL_BUILDERS = {"paley": ORACLE.paley_local, "johnson": ORACLE.johnson_local,
                  "grid": ORACLE.grid_local}


def _oracle_adjacency(pin: pins.GraphPin) -> np.ndarray:
    kind, *args = pin.source
    if kind == "family":
        tag, params = args
        a = LOCAL_BUILDERS[tag](*params)
    else:
        a = latin.latin_square_adjacency(latin.jacobson_matthews(*args))
    return latin.relabel_fixing_zero(a, f"1:{pin.id}").astype(np.int64)


@pytest.mark.parametrize("pin", pins.SMALL_GROUP + pins.RATIONAL, ids=lambda p: p.id)
def test_pin_matches_oracle(pin):
    a = _oracle_adjacency(pin)
    assert ORACLE.srg_params(a) == pin.srg
    order, stab = ORACLE.aut_order_and_stab(a)
    blocks = ORACLE.orbital_blocks(stab, a)
    dims = (ORACLE.t0_support(a), ORACLE.closure_dim(ORACLE.t_generators(a)),
            sum(map(sum, blocks)))
    assert dims == pin.dims
    assert tuple(map(tuple, blocks)) == pin.t_tilde_blocks
    assert order == pin.aut_order


@pytest.mark.parametrize("order", [5, 7, 8])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_jacobson_matthews_gives_latin_square_graphs(order, seed):
    square = latin.jacobson_matthews(order, seed)
    assert latin.is_latin(square)
    assert np.array_equal(square, latin.jacobson_matthews(order, seed))
    a = latin.latin_square_adjacency(square)
    assert latin.srg_parameters(a) == (order**2, 3 * (order - 1), order, 6)


def test_relabel_is_a_seeded_permutation_fixing_zero():
    a = np.arange(100).reshape(10, 10)
    b = latin.relabel_fixing_zero(a, "7:g")
    assert b[0, 0] == 0 and sorted(b[0]) == sorted(a[0])
    assert sorted(b.reshape(-1)) == sorted(a.reshape(-1))
    assert np.array_equal(b, latin.relabel_fixing_zero(a, "7:g"))
    assert not np.array_equal(b, latin.relabel_fixing_zero(a, "8:g"))


def test_srg_parameters_rejects_non_srg():
    path = np.zeros((4, 4), dtype=np.int8)
    for i in range(3):
        path[i, i + 1] = path[i + 1, i] = 1
    assert latin.srg_parameters(path) is None


GRID4 = pins.RATIONAL[3]


def test_pin_mismatch_is_a_failed_operation():
    wrong = pins.GraphPin(GRID4.id, GRID4.source, GRID4.srg, (15, 15, 16),
                          GRID4.t_tilde_blocks, 1152, True)
    bench = workloads.VerdictWorkload(srgta, (GRID4, wrong), seed=3)
    first, second = bench.run_pass()
    assert first.error is None
    assert "dims (15, 15, 15) != (15, 15, 16)" in second.error


class _Raising:
    """srgta with a verdict function that fails the way the library can."""

    def __init__(self, exc):
        self.exc = exc

    def __getattr__(self, name):
        return getattr(srgta, name)

    def triple_transitivity_verdict(self, g, rational=False):
        raise self.exc


@pytest.mark.parametrize("exc", [
    ClosureBudgetExceeded("closure dimension exceeded 64"),
    srgta.Timeout("automorphism search exceeded 1s"),
])
def test_library_exception_is_a_failed_operation(exc):
    bench = workloads.VerdictWorkload(_Raising(exc), (GRID4,), seed=3)
    (outcome,) = bench.run_pass()
    assert outcome.error.startswith(type(exc).__name__)


def test_failed_battery_rows_are_failed_operations(monkeypatch):
    import srgta.cli

    monkeypatch.setattr(srgta.cli, "_ROWS", (
        ("krein_zero_5_2_0_1", "krein_zero", ((5, 2, 0, 1), "q11")),
        ("exclusion_wrong", "exclusion", ((35, 16, 6, 8), "NoConclusion")),
        ("import_m22", "import", ("m22", (14, 15, 16), None)),
    ))
    errors = {o.id: o.error for o in workloads.ReproduceWorkload(srgta).run_pass()}
    assert errors["krein_zero_5_2_0_1"] is None
    assert errors["import_m22"] is None
    assert errors["exclusion_wrong"].startswith("FAIL (want PASS)")
    assert "tally {'PASS': 1, 'FAIL': 1, 'SKIP': 1}" in errors["reproduce"]


def test_exception_escaping_the_cli_is_a_failed_operation(monkeypatch):
    import srgta.cli
    from srgta.linalg import PrimeDisagreement

    def crashing(argv):
        raise PrimeDisagreement("T dimension differs across primes")

    monkeypatch.setattr(srgta.cli, "main", crashing)
    (outcome,) = workloads.ReproduceWorkload(srgta).run_pass()
    assert outcome.error.startswith("PrimeDisagreement")
