"""The package namespace: what ``from qseal import *`` exports."""

from __future__ import annotations

import qseal


def test_all_is_sorted_without_duplicates():
    assert qseal.__all__ == sorted(set(qseal.__all__))


def test_every_export_resolves():
    missing = [name for name in qseal.__all__ if not hasattr(qseal, name)]
    assert missing == []

