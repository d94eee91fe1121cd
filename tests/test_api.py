"""The public names of the package: every export in `d2k.__all__` exists,
none is listed twice, and a star import succeeds, so a name left behind by
a deletion fails here rather than in a user's import."""
from __future__ import annotations

import d2k


def test_every_exported_name_resolves():
    missing = [name for name in d2k.__all__ if not hasattr(d2k, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(d2k.__all__)) == len(d2k.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from d2k import *", namespace)
    assert set(d2k.__all__) <= set(namespace)
