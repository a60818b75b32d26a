"""The package's public surface and its declared dependency bounds."""

import re
from pathlib import Path

import srgta

ROOT = Path(__file__).resolve().parents[1]

#: numpy functions added in 2.0 or 2.1 (array-API names and renames), which
#: a `numpy>=1.24` install may lack
NEWER_THAN_FLOOR = re.compile(
    r"np\.(unique_(inverse|counts|values|all)|astype|concat\b|permute_dims|bitwise_count"
    r"|vecdot|matrix_transpose|isdtype|pow\b|cumulative_sum|trapezoid)"
)


def test_every_exported_name_resolves():
    assert len(set(srgta.__all__)) == len(srgta.__all__)
    missing = [name for name in srgta.__all__ if not hasattr(srgta, name)]
    assert missing == []


def test_no_numpy_call_newer_than_the_declared_floor():
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(srgta.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if NEWER_THAN_FLOOR.search(line)
    ]
    assert hits == []
