"""Shared obs fixtures: every test starts and ends with obs disabled."""

import pytest

from repro.obs import log, trace


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    monkeypatch.delenv("REPRO_OBS_MEM", raising=False)
    trace.reset()
    log.reset_level()
    log.reset_suppressed()
    yield
    trace.reset()
    log.reset_level()
    log.reset_suppressed()
