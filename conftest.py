"""Set-up for every test in the repository, perfbench's included."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _empty_load_cache(tmp_path_factory, monkeypatch):
    """Point ``XDG_CACHE_HOME`` at an empty directory of this test's own.

    ``load_dataset`` keeps the partitions it decodes there, so no test reads
    another's entries or the user's, and a tree a test hashes never holds
    one: the directory is outside ``tmp_path``. Child processes inherit it.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
