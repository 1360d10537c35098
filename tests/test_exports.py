"""The package's public names."""

import rimkit


def test_every_exported_name_exists():
    missing = [name for name in rimkit.__all__ if not hasattr(rimkit, name)]
    assert missing == []
    assert len(set(rimkit.__all__)) == len(rimkit.__all__)
