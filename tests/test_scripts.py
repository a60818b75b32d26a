"""The scripts: the independent oracle, run as its own process, and the
bench recorder's parsing."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import srgta

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    # run, not imported: the oracle must share no state with the library
    src = str(Path(srgta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )


def test_dimension_survey_selftest_rederives_frozen_values():
    proc = _run_script("dimension_survey", "--selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all frozen values re-derived" in proc.stdout


def test_paley_peisert_growth_tabulates_the_paley_line():
    proc = _run_script("paley_peisert_growth", "--max-q", "17")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = dict(re.findall(r"^paley +q= *(\d+) .*\((.*)\)$", proc.stdout, re.M))
    assert rows["5"] == "3+2q=13"
    assert rows["13"] == "3+2q=29"
    assert rows["17"] == "3+2q=37"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_parses_a_run_summary():
    parse = _load_script("bench_record").parse_run_output
    stdout = "\n".join([
        "workload closure, seed 1, trace 0",
        'env {"commit": "abc", "seed": 1}',
        "pass_s 0.5 s",
        json.dumps({"correct": True, "attempted": 8, "failed": 0, "metrics": {
            "pass_s": {"value": 0.5, "unit": "s"},
            "ok_ratio": {"value": 1.0, "unit": "ratio"}}}),
        "",
    ])
    assert parse(stdout) == {
        "env": {"commit": "abc", "seed": 1},
        "correct": True,
        "attempted": 8,
        "failed": 0,
        "metrics": {"pass_s": {"value": 0.5, "unit": "s"},
                    "ok_ratio": {"value": 1.0, "unit": "ratio"}},
    }
    with pytest.raises(ValueError):
        parse(stdout.replace('"metrics"', '"other"'))
    with pytest.raises(ValueError):
        parse("pass_s 0.5 s")
