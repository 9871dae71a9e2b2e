"""Fixtures shared by the test modules."""

import pytest

from harddisks import coupling


@pytest.fixture()
def positive_gap(monkeypatch):
    """Make every batch of coupled trials report delta_exact - delta_bound = 0.25."""
    batch_trials = coupling._batch_trials

    def with_gap(*args):
        batch_trials(*args)
        tally = args[-1]
        tally.max_gap = max(tally.max_gap, 0.25)

    monkeypatch.setattr(coupling, "_batch_trials", with_gap)
