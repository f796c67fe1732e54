"""The package namespace: what ``from qseal import *`` exports and loads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import qseal

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_is_sorted_without_duplicates():
    assert qseal.__all__ == sorted(set(qseal.__all__))


def test_every_export_resolves():
    missing = [name for name in qseal.__all__ if not hasattr(qseal, name)]
    assert missing == []


def test_cli_import_loads_no_thread_pool_or_logging():
    # A fresh interpreter, so that this session's imports do not hide any;
    # the diff leaves out what site loaded before the import.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qseal.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(result.stdout.split())
    assert "qseal.cli" in added
    forbidden = {
        "concurrent.futures", "logging", "queue", "traceback", "dataclasses", "inspect"
    }
    assert added & forbidden == set()


def test_one_tcf_instance_class_is_exported():
    # TcfKeyPair and sample_claw stay in qseal.tcf only for the benchmark,
    # which patches them by name.
    assert "TcfOracle" in qseal.__all__ and "TcfKeyPair" not in qseal.__all__
    assert callable(qseal.tcf.TcfKeyPair.eval)
    assert callable(qseal.tcf.sample_claw)
    assert not hasattr(qseal.tcf, "Claw")
