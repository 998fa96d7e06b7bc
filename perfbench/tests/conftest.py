"""Put the benchmark modules and the program source on the import path."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]


@pytest.fixture(autouse=True)
def _no_ledger_writes(monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", "0")
    yield
