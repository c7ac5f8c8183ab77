"""Fixtures shared by the unit and acceptance suites."""

import pytest

from cocktail import frontend
from cocktail.localizer import new_localizer


@pytest.fixture
def zero_model():
    """A localizer with all-zero weights: both heads emit exactly uniform
    distributions."""
    model = new_localizer()
    for _, arr in model.parameters():
        arr[:] = 0.0
    return model


@pytest.fixture
def frontend_threads(monkeypatch):
    """``frontend_threads(k)`` runs the frontend's per-band work on ``k``
    threads from then on, whatever the machine's CPUs."""

    def use(k):
        monkeypatch.setattr(frontend, "_thread_count", lambda: k)

    return use
