"""The package's public surface."""

import srgta


def test_every_exported_name_resolves():
    assert len(set(srgta.__all__)) == len(srgta.__all__)
    missing = [name for name in srgta.__all__ if not hasattr(srgta, name)]
    assert missing == []
