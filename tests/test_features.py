"""Tests for GCC/ILD feature extraction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cocktail
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


def naive_gcc(audio, max_lag):
    """Direct-sum reference implementation of the normalized correlation."""
    l, r = np.asarray(audio, dtype=np.float64)
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


def rendered(az, el=0.0, duration=0.5, speech_seed=7):
    speaker = sc.SpeakerSpec(
        id=1, azimuth_world=az, elevation_world=el,
        speech=sc.SpeechSource(seed=speech_seed),
    )
    scene = sc.Scene(
        speakers=(speaker,),
        schedule=sc.TurnSchedule(((0.0, duration, 1),)),
        noise_level=0.0,
    )
    return sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, duration, seed=3).audio


# ---------------------------------------------------------------------------
# gcc_features


def test_gcc_matches_naive_reference():
    rng = np.random.default_rng(61)
    for n in (49, 64, 200, 333):
        audio = rng.standard_normal((2, n))
        fast = gcc_features(audio)
        slow = naive_gcc(audio, MAX_LAG_SAMPLES)
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_gcc_identical_channels_peak_at_zero_lag():
    rng = np.random.default_rng(67)
    x = rng.standard_normal(4800)
    c = gcc_features(np.stack([x, x]))
    assert np.argmax(c) == MAX_LAG_SAMPLES
    assert c[MAX_LAG_SAMPLES] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(c - c[::-1])) < 1e-12


def test_gcc_known_integer_delay():
    rng = np.random.default_rng(71)
    base = rng.standard_normal(5000)
    delay = 13
    left = np.concatenate([np.zeros(delay), base[:-delay]])
    c = gcc_features(np.stack([left, base]))
    assert np.argmax(c) - MAX_LAG_SAMPLES == delay


def test_gcc_rendered_extremes_peak_near_physical_itd():
    # round(itd(90 deg) * fs) = 31 samples; the fractional part may push the
    # discrete peak to the neighbouring lag.
    peak = np.argmax(gcc_features(rendered(90.0))) - MAX_LAG_SAMPLES
    assert peak in (31, 32)
    peak = np.argmax(gcc_features(rendered(-90.0))) - MAX_LAG_SAMPLES
    assert peak in (-32, -31)


def test_gcc_swap_reverses():
    audio = rendered(40.0)
    fwd = gcc_features(audio)
    rev = gcc_features(audio[::-1])
    assert np.max(np.abs(fwd - rev[::-1])) < 1e-12


def test_gcc_silent_is_zero():
    z = np.zeros(1000)
    assert np.array_equal(gcc_features(np.zeros((2, 1000))), np.zeros(NUM_GCC_LAGS))
    rng = np.random.default_rng(73)
    assert np.array_equal(
        gcc_features(np.stack([z, rng.standard_normal(1000)])), np.zeros(NUM_GCC_LAGS)
    )


def test_gcc_bounded_by_one():
    rng = np.random.default_rng(79)
    c = gcc_features(rng.standard_normal((2, 2000)))
    assert np.all(np.abs(c) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# ild_features


def test_ild_identical_channels_exactly_zero():
    rng = np.random.default_rng(83)
    x = rng.standard_normal(4800)
    assert np.array_equal(ild_features(np.stack([x, x])), np.zeros(32))


def test_ild_swap_negates_exactly():
    audio = rendered(50.0)
    assert np.array_equal(ild_features(audio), -ild_features(audio[::-1]))


def test_ild_sign_tracks_source_side():
    # Positive azimuth boosts the right ear, so left-minus-right is negative.
    assert float(np.mean(ild_features(rendered(60.0)))) < -0.5
    assert float(np.mean(ild_features(rendered(-60.0)))) > 0.5


def test_ild_pure_gain_difference():
    rng = np.random.default_rng(89)
    x = rng.standard_normal(4800)
    ild = ild_features(np.stack([2.0 * x, x]))
    # 20*log10(2) ~ 6.02 dB in every band.
    assert np.allclose(ild, 20.0 * np.log10(2.0), atol=1e-6)


def test_ild_silent_is_zero():
    assert np.array_equal(ild_features(np.zeros((2, 1000))), np.zeros(32))


# ---------------------------------------------------------------------------
# extract_features


def test_feature_vector_layout():
    audio = rendered(20.0)
    feats = extract_features(audio)
    assert feats.shape == (FEATURE_DIM,)
    assert FEATURE_DIM == 129
    assert np.all(np.isfinite(feats))
    assert np.array_equal(feats[:NUM_GCC_LAGS], gcc_features(audio))
    assert np.array_equal(feats[NUM_GCC_LAGS:], ild_features(audio))


def test_features_gain_invariant():
    audio = rendered(35.0)
    a = extract_features(audio)
    b = extract_features(3.7 * audio)
    assert np.max(np.abs(a - b)) < 1e-9


def test_features_sense_elevation():
    # The elevation notch moves with the source, reshaping the spectrum and
    # hence the correlation structure.
    lo = extract_features(rendered(0.0, el=-30.0))
    hi = extract_features(rendered(0.0, el=30.0))
    diff = np.max(np.abs(lo - hi))
    assert diff > 1e-3


def test_features_mirror_antisymmetry():
    audio = rendered(25.0)
    fwd = extract_features(audio)
    swp = extract_features(audio[::-1])
    assert np.max(np.abs(fwd[:NUM_GCC_LAGS] - swp[:NUM_GCC_LAGS][::-1])) < 1e-12
    assert np.array_equal(fwd[NUM_GCC_LAGS:], -swp[NUM_GCC_LAGS:])


def test_validation_errors():
    for shape in ((100,), (1, 100), (3, 100), (2, 2, 100), (100, 2)):
        for features in (gcc_features, ild_features, extract_features):
            with pytest.raises(DomainError):
                features(np.zeros(shape))
    with pytest.raises(DomainError):
        gcc_features(np.zeros((2, 48)))  # too short for MAX_LAG_SAMPLES
    with pytest.raises(DomainError):
        ild_features(np.zeros((2, 1)))
    with pytest.raises(DomainError):
        ild_features(np.array([[1.0, np.nan], [1.0, 2.0]]))


#: Hashes ``extract_features`` of 20 seeded ``(2, 24000)`` noise snippets.
FEATURE_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from cocktail.features import extract_features
rng = np.random.default_rng(0)
h = hashlib.sha256()
for _ in range(20):
    h.update(extract_features(rng.standard_normal((2, 24000))).tobytes())
print(h.hexdigest())
"""


def test_features_do_not_depend_on_the_blas_thread_count():
    """The same snippets give the same feature bytes with one BLAS thread
    and with two, so a dataset does not depend on the machine's cores."""
    src = str(Path(cocktail.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-c", FEATURE_DIGEST_SCRIPT], env=env,
                               capture_output=True, text=True, check=True, timeout=120)
        digests.append(child.stdout)
    assert digests[0] == digests[1]
