"""Tests of the package's public surface."""

from __future__ import annotations

import bellcast


def test_every_exported_name_resolves():
    missing = [name for name in bellcast.__all__ if not hasattr(bellcast, name)]
    assert missing == []
