"""Fixtures shared by the unit and acceptance suites."""

import pytest

from cocktail.localizer import new_localizer


@pytest.fixture
def zero_model():
    """A localizer with all-zero weights: both heads emit exactly uniform
    distributions."""
    model = new_localizer()
    for _, arr in model.parameters():
        arr[:] = 0.0
    return model
