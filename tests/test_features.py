"""Tests for GCC/ILD feature extraction."""

import numpy as np
import pytest

from cocktail import scene as sc
from cocktail.errors import DomainError
from cocktail.features import (
    FEATURE_DIM,
    MAX_LAG_SAMPLES,
    NUM_GCC_LAGS,
    extract_features,
    gcc_features,
    ild_features,
)


def naive_gcc(left, right, max_lag):
    """Direct-sum reference implementation of the normalized correlation."""
    l = np.asarray(left, dtype=np.float64)
    r = np.asarray(right, dtype=np.float64)
    n = l.size
    energy = np.sqrt(np.dot(l, l) * np.dot(r, r))
    out = np.zeros(2 * max_lag + 1)
    for i, k in enumerate(range(-max_lag, max_lag + 1)):
        acc = 0.0
        for m in range(n):
            if 0 <= m + k < n:
                acc += l[m + k] * r[m]
        out[i] = acc / energy
    return out


def rendered_pair(az, el=0.0, duration=0.5, speech_seed=7):
    speaker = sc.SpeakerSpec(
        id=1, azimuth_world=az, elevation_world=el,
        speech=sc.SpeechSource(seed=speech_seed),
    )
    scene = sc.Scene(
        speakers=(speaker,),
        schedule=sc.TurnSchedule(((0.0, duration, 1),)),
        noise_level=0.0,
    )
    clip = sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, duration, seed=3)
    return clip.left, clip.right


# ---------------------------------------------------------------------------
# gcc_features


def test_gcc_matches_naive_reference():
    rng = np.random.default_rng(61)
    for n in (49, 64, 200, 333):
        l = rng.standard_normal(n)
        r = rng.standard_normal(n)
        fast = gcc_features(l, r)
        slow = naive_gcc(l, r, MAX_LAG_SAMPLES)
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_gcc_identical_channels_peak_at_zero_lag():
    rng = np.random.default_rng(67)
    x = rng.standard_normal(4800)
    c = gcc_features(x, x)
    assert np.argmax(c) == MAX_LAG_SAMPLES
    assert c[MAX_LAG_SAMPLES] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(c - c[::-1])) < 1e-12


def test_gcc_known_integer_delay():
    rng = np.random.default_rng(71)
    base = rng.standard_normal(5000)
    delay = 13
    left = np.concatenate([np.zeros(delay), base[:-delay]])
    c = gcc_features(left, base)
    assert np.argmax(c) - MAX_LAG_SAMPLES == delay


def test_gcc_rendered_extremes_peak_near_physical_itd():
    # round(itd(90 deg) * fs) = 31 samples; the fractional part may push the
    # discrete peak to the neighbouring lag.
    left, right = rendered_pair(90.0)
    peak = np.argmax(gcc_features(left, right)) - MAX_LAG_SAMPLES
    assert peak in (31, 32)
    left, right = rendered_pair(-90.0)
    peak = np.argmax(gcc_features(left, right)) - MAX_LAG_SAMPLES
    assert peak in (-32, -31)


def test_gcc_swap_reverses():
    left, right = rendered_pair(40.0)
    fwd = gcc_features(left, right)
    rev = gcc_features(right, left)
    assert np.max(np.abs(fwd - rev[::-1])) < 1e-12


def test_gcc_silent_is_zero():
    z = np.zeros(1000)
    assert np.array_equal(gcc_features(z, z), np.zeros(NUM_GCC_LAGS))
    rng = np.random.default_rng(73)
    assert np.array_equal(
        gcc_features(z, rng.standard_normal(1000)), np.zeros(NUM_GCC_LAGS)
    )


def test_gcc_bounded_by_one():
    rng = np.random.default_rng(79)
    c = gcc_features(rng.standard_normal(2000), rng.standard_normal(2000))
    assert np.all(np.abs(c) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# ild_features


def test_ild_identical_channels_exactly_zero():
    rng = np.random.default_rng(83)
    x = rng.standard_normal(4800)
    assert np.array_equal(ild_features(x, x), np.zeros(32))


def test_ild_swap_negates_exactly():
    left, right = rendered_pair(50.0)
    assert np.array_equal(ild_features(left, right), -ild_features(right, left))


def test_ild_sign_tracks_source_side():
    # Positive azimuth boosts the right ear, so left-minus-right is negative.
    left, right = rendered_pair(60.0)
    assert float(np.mean(ild_features(left, right))) < -0.5
    left, right = rendered_pair(-60.0)
    assert float(np.mean(ild_features(left, right))) > 0.5


def test_ild_pure_gain_difference():
    rng = np.random.default_rng(89)
    x = rng.standard_normal(4800)
    ild = ild_features(2.0 * x, x)
    # 20*log10(2) ~ 6.02 dB in every band.
    assert np.allclose(ild, 20.0 * np.log10(2.0), atol=1e-6)


def test_ild_silent_is_zero():
    z = np.zeros(1000)
    assert np.array_equal(ild_features(z, z), np.zeros(32))


# ---------------------------------------------------------------------------
# extract_features


def test_feature_vector_layout():
    left, right = rendered_pair(20.0)
    feats = extract_features(left, right)
    assert feats.shape == (FEATURE_DIM,)
    assert FEATURE_DIM == 129
    assert np.all(np.isfinite(feats))
    assert np.array_equal(feats[:NUM_GCC_LAGS], gcc_features(left, right))
    assert np.array_equal(feats[NUM_GCC_LAGS:], ild_features(left, right))


def test_features_gain_invariant():
    left, right = rendered_pair(35.0)
    a = extract_features(left, right)
    b = extract_features(3.7 * left, 3.7 * right)
    assert np.max(np.abs(a - b)) < 1e-9


def test_features_sense_elevation():
    # The elevation notch moves with the source, reshaping the spectrum and
    # hence the correlation structure.
    lo_l, lo_r = rendered_pair(0.0, el=-30.0)
    hi_l, hi_r = rendered_pair(0.0, el=30.0)
    diff = np.max(np.abs(extract_features(lo_l, lo_r) - extract_features(hi_l, hi_r)))
    assert diff > 1e-3


def test_features_mirror_antisymmetry():
    left, right = rendered_pair(25.0)
    fwd = extract_features(left, right)
    swp = extract_features(right, left)
    assert np.max(np.abs(fwd[:NUM_GCC_LAGS] - swp[:NUM_GCC_LAGS][::-1])) < 1e-12
    assert np.array_equal(fwd[NUM_GCC_LAGS:], -swp[NUM_GCC_LAGS:])


def test_validation_errors():
    with pytest.raises(DomainError):
        gcc_features(np.zeros(10), np.zeros(11))
    with pytest.raises(DomainError):
        gcc_features(np.zeros((2, 5)), np.zeros((2, 5)))
    with pytest.raises(DomainError):
        gcc_features(np.zeros(48), np.zeros(48))  # too short for MAX_LAG_SAMPLES
    with pytest.raises(DomainError):
        ild_features(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
