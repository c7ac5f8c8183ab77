"""Tests for the fuzzy location coder."""

import numpy as np
import pytest

from cocktail import fuzzy
from cocktail.errors import DomainError


def brute_force_classify(a):
    """Independent argmax with the documented tie-break, for oracle checks."""
    mu = fuzzy.memberships(a)
    best, best_key = None, None
    for i, term in enumerate(fuzzy.TERMS):
        key = (-mu[i], abs(fuzzy.TERM_CENTERS[i]), i)
        if best_key is None or key < best_key:
            best, best_key = term, key
    return best


def test_center_apex():
    mu = fuzzy.memberships(0.0)
    np.testing.assert_allclose(mu, [0, 0, 1, 0, 0])


def test_far_left_shoulder_saturates():
    mu = fuzzy.memberships(-75.0)
    assert mu[0] == 1.0 and mu[1] == 0.0


def test_midpoint_crossover_at_minus_45():
    mu = fuzzy.memberships(-45.0)
    np.testing.assert_allclose(mu, [0.5, 0.5, 0, 0, 0])


def test_memberships_continuous_and_covering():
    grid = np.linspace(-90, 90, 721)
    prev = None
    for a in grid:
        mu = fuzzy.memberships(a)
        assert mu.min() >= 0.0 and mu.max() <= 1.0
        assert mu.max() >= 0.5  # some term always at least half-active
        if prev is not None:
            assert np.max(np.abs(mu - prev)) < 0.02  # continuity on a 0.25 deg grid
        prev = mu


def test_memberships_reject_out_of_range():
    with pytest.raises(DomainError):
        fuzzy.memberships(90.5)


def test_classify_examples():
    assert fuzzy.classify(0.0) == "center"
    assert fuzzy.classify(-45.0) == "left"  # tie far_left/left -> center-proximal
    assert fuzzy.classify(90.0) == "far_right"


def test_classify_equals_bruteforce_all_integer_azimuths():
    for a in range(-90, 91):
        assert fuzzy.classify(float(a)) == brute_force_classify(float(a))


def test_classify_scale_invariance():
    """Scaling all memberships by a positive constant cannot change the argmax;
    verified via an independently scaled brute-force argmax."""
    for scale in (0.3, 2.0, 17.5):
        for a in range(-90, 91, 3):
            mu = fuzzy.memberships(float(a)) * scale
            peak = mu.max()
            cands = [i for i in range(5) if mu[i] == peak]
            best = min(cands, key=lambda i: (abs(fuzzy.TERM_CENTERS[i]), i))
            assert fuzzy.TERMS[best] == fuzzy.classify(float(a))


def test_exactly_four_decision_boundaries_at_crossovers():
    labels = [fuzzy.classify(float(a)) for a in range(-90, 91)]
    changes = [a for a, prev, cur in zip(range(-89, 91), labels, labels[1:]) if prev != cur]
    assert len(changes) == 4
    # Decisions change as the azimuth crosses the membership crossover points
    # -45, -15, +15, +45 (ties at the crossover go to the center-proximal term).
    assert changes == [-45, -15, 16, 46]
    for crossover in (-45.0, -15.0, 15.0, 45.0):
        mu = fuzzy.memberships(crossover)
        top_two = np.sort(mu)[-2:]
        assert abs(top_two[0] - top_two[1]) < 1e-12  # genuine two-way tie


def test_segment_labels():
    assert all(fuzzy.classify(float(a)) == "far_left" for a in range(-90, -45))
    assert all(fuzzy.classify(float(a)) == "left" for a in range(-45, -15))
    assert all(fuzzy.classify(float(a)) == "center" for a in range(-15, 16))
    assert all(fuzzy.classify(float(a)) == "right" for a in range(16, 46))
    assert all(fuzzy.classify(float(a)) == "far_right" for a in range(46, 91))

