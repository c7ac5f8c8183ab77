"""Fuzzy coding of azimuth estimates into five linguistic location terms.

The azimuth range is covered by five overlapping membership functions —
``far_left``, ``left``, ``center``, ``right``, ``far_right`` — triangles of
half-width 30 degrees centered at -60, -30, 0, +30 and +60, with the two
outer terms saturating to 1 beyond +/-60 (shoulders). The crisp location is
the maximum-membership term; the head controller encodes it by its index in
``TERMS`` (:func:`term_index`).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

TERMS = ("far_left", "left", "center", "right", "far_right")
TERM_CENTERS = (-60.0, -30.0, 0.0, 30.0, 60.0)
HALF_WIDTH = 30.0


def memberships(azimuth):
    """Membership degree of each term at ``azimuth`` (degrees in [-90, 90]).

    Returns the five values in ``TERMS`` order. Adjacent terms cross at 0.5,
    so at least one membership is always >= 0.5.
    """

    if not -90.0 <= azimuth <= 90.0:
        raise DomainError(f"azimuth {azimuth} outside [-90, 90]")
    values = np.zeros(len(TERMS))
    for i, center in enumerate(TERM_CENTERS):
        tri = max(0.0, 1.0 - abs(azimuth - center) / HALF_WIDTH)
        if i == 0 and azimuth <= center:
            tri = 1.0  # far_left shoulder
        if i == len(TERMS) - 1 and azimuth >= center:
            tri = 1.0  # far_right shoulder
        values[i] = tri
    return values


def classify(azimuth):
    """Crisp linguistic location: the term with maximal membership.

    Ties break toward the term whose center has the smallest absolute angle,
    then toward the earlier term in ``TERMS`` order.
    """

    mu = memberships(azimuth)
    peak = mu.max()
    candidates = [i for i in range(len(TERMS)) if mu[i] == peak]
    best = min(candidates, key=lambda i: (abs(TERM_CENTERS[i]), i))
    return TERMS[best]


def term_index(term):
    """Index of a term in the fixed ``TERMS`` order."""
    if term not in TERMS:
        raise DomainError(f"unknown linguistic term {term!r}")
    return TERMS.index(term)
