"""Tests for the auditory frontend: gammatone bank, beamformers, posterior."""

import numpy as np
import pytest

from cocktail import frontend as fe
from cocktail import scene as sc
from cocktail.errors import DomainError


def speaker_scene(az, el=0.0, noise=0.0, speech_seed=3):
    return sc.Scene(
        speakers=(
            sc.SpeakerSpec(
                id=1, azimuth_world=az, elevation_world=el,
                speech=sc.SpeechSource(seed=speech_seed),
            ),
        ),
        schedule=sc.TurnSchedule(((0.0, 10.0, 1),)),
        noise_level=noise,
    )


def analyzed_clip(az, duration=0.3, noise=0.05, num_bands=6, seed=7):
    clip = sc.render_binaural(speaker_scene(az, noise=noise), sc.HeadPose(0, 0), 0.0, duration, seed=seed)
    bank = fe.make_gammatone_bank(num_bands=num_bands)
    return fe.gammatone_analyze(clip.left, bank), fe.gammatone_analyze(clip.right, bank)


# ---------------------------------------------------------------------------
# Gammatone bank
# ---------------------------------------------------------------------------


def test_erb_space_endpoints_and_ordering():
    cf = fe.erb_space(100.0, 8000.0, 32)
    assert len(cf) == 32
    assert abs(cf[0] - 100.0) < 1e-6
    assert cf[-1] < 8000.0
    assert np.all(np.diff(cf) > 0)
    assert np.all(cf < sc.SAMPLE_RATE / 2)


def test_default_bank_has_32_bands():
    bank = fe.make_gammatone_bank()
    assert bank.num_bands == 32
    assert bank.sos.shape == (32, 4, 6)


def test_gammatone_zero_input_zero_output():
    bands = fe.gammatone_analyze(np.zeros(1000))
    assert bands.shape == (32, 1000)
    assert not bands.any()


def test_gammatone_rejects_empty_input():
    with pytest.raises(DomainError):
        fe.gammatone_analyze(np.array([]))


def test_gammatone_linearity():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 4000)
    bank = fe.make_gammatone_bank(num_bands=8)
    a = fe.gammatone_analyze(3.7 * x, bank)
    b = 3.7 * fe.gammatone_analyze(x, bank)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_gammatone_energy_concentration_every_band():
    """A tone at band k's center frequency maximizes band k's energy."""
    bank = fe.make_gammatone_bank()
    t = np.arange(int(0.25 * sc.SAMPLE_RATE)) / sc.SAMPLE_RATE
    for k, cf in enumerate(bank.center_freqs):
        tone = np.sin(2 * np.pi * cf * t)
        bands = fe.gammatone_analyze(tone, bank)
        energies = np.sum(bands[:, 2000:] ** 2, axis=1)  # skip onset transient
        assert int(np.argmax(energies)) == k


def test_gammatone_unit_gain_at_center_frequency():
    bank = fe.make_gammatone_bank()
    t = np.arange(int(0.5 * sc.SAMPLE_RATE)) / sc.SAMPLE_RATE
    for k in (0, 15, 31):
        tone = np.sin(2 * np.pi * bank.center_freqs[k] * t)
        out = fe.gammatone_analyze(tone, bank)[k]
        gain = np.sqrt(np.mean(out[8000:] ** 2) / np.mean(tone[8000:] ** 2))
        assert abs(gain - 1.0) < 0.01


# ---------------------------------------------------------------------------
# Beamformer bank and salience
# ---------------------------------------------------------------------------


def test_beamformer_bank_structure():
    bank = fe.make_beamformer_bank()
    assert len(bank.bin_centers) == 37
    assert bank.bin_centers[0] == -90 and bank.bin_centers[-1] == 90
    assert np.all(np.diff(bank.bin_centers) == 5)
    assert np.all(np.diff(bank.itds) > 0)


def test_beamform_matches_bruteforce_oracle():
    """Fast algebraic route equals naive shift-and-sum delay-and-sum."""
    left, right = analyzed_clip(30.0)
    fast = fe.beamform_salience(left, right)

    bank = fe.make_beamformer_bank()
    frame, hop, pad = 9600, 4800, 64
    starts = np.arange(0, left.shape[1] - frame + 1, hop)
    naive = np.zeros((len(starts), 37))
    for fi, s0 in enumerate(starts):
        totals = np.zeros(37)
        for b in range(left.shape[0]):
            lf = np.pad(left[b, s0 : s0 + frame], (pad, pad))
            rf = np.pad(right[b, s0 : s0 + frame], (pad, pad))
            grid = np.arange(len(lf) - 2, dtype=float)

            def sample(x, d):
                pos = grid + d
                i = np.clip(np.floor(pos).astype(int), 0, len(x) - 2)
                w = pos - np.floor(pos)
                return (1 - w) * x[i] + w * x[i + 1]

            for bi, lag in enumerate(bank.lags):
                aligned = sample(lf, lag / 2.0) + sample(rf, -lag / 2.0)
                totals[bi] += np.sum(aligned**2)
        naive[fi] = totals / totals.max()
    np.testing.assert_allclose(fast, naive, atol=1e-10)


def test_beamform_identical_channels_symmetric_peak_at_zero():
    left, _ = analyzed_clip(0.0)
    sal = fe.beamform_salience(left, left)
    for row in sal:
        np.testing.assert_allclose(row, row[::-1], atol=1e-9)
        assert int(np.argmax(row)) == 18  # the 0 degree bin
        assert row[18] == 1.0


def test_beamform_swap_mirrors_salience():
    left, right = analyzed_clip(45.0)
    sal = fe.beamform_salience(left, right)
    swapped = fe.beamform_salience(right, left)
    np.testing.assert_allclose(swapped, sal[:, ::-1], atol=1e-6)


def test_beamform_argmax_tracks_source():
    left, right = analyzed_clip(30.0, duration=0.4, noise=0.03)
    sal = fe.beamform_salience(left, right)
    centers = np.array(fe.AZIMUTH_BINS)
    for row in sal:
        assert abs(centers[int(np.argmax(row))] - 30.0) <= 5.0


def test_beamform_silent_input_all_zero():
    silent = np.zeros((4, 20000))
    sal = fe.beamform_salience(silent, silent)
    assert sal.shape[0] >= 1
    assert not sal.any()


def test_beamform_rejects_frame_longer_than_signal():
    with pytest.raises(DomainError):
        fe.beamform_salience(np.ones((2, 100)), np.ones((2, 100)))


# ---------------------------------------------------------------------------
# Posterior updates
# ---------------------------------------------------------------------------


def test_uniform_prior_zero_salience_stays_uniform():
    post = fe.update_posterior(fe.uniform_posterior(), np.zeros(37))
    np.testing.assert_allclose(post.probs, 1.0 / 37, atol=1e-12)


def test_zero_decay_returns_pure_softmax():
    rng = np.random.default_rng(1)
    prior = rng.dirichlet(np.ones(37))
    salience = rng.uniform(0, 1, 37)
    post = fe.update_posterior(
        fe.AzimuthPosterior(prior, np.array(fe.AZIMUTH_BINS, float)), salience, decay=0.0
    )
    logits = (salience - salience.max()) / fe.TEMPERATURE_TAU
    expect = np.exp(logits) / np.exp(logits).sum()
    np.testing.assert_allclose(post.probs, expect, atol=1e-12)


def test_posterior_always_normalized():
    rng = np.random.default_rng(2)
    post = fe.uniform_posterior()
    for _ in range(50):
        post = fe.update_posterior(post, rng.uniform(0, 1, 37))
        assert abs(post.probs.sum() - 1.0) < 1e-9
        assert np.all(post.probs >= 0)


def test_repeated_peaked_salience_decreases_entropy():
    salience = np.zeros(37)
    salience[25] = 1.0
    post = fe.uniform_posterior()
    entropies = [post.entropy]
    for _ in range(30):
        post = fe.update_posterior(post, salience)
        entropies.append(post.entropy)
    diffs = np.diff(entropies)
    # Strictly decreasing until numerical convergence.
    converged = np.abs(diffs) < 1e-12
    assert np.all((diffs < 0) | converged)
    assert entropies[-1] < entropies[0] - 1.0


def test_estimate_uniform_tie_breaks_to_zero():
    assert fe.estimate_location(fe.uniform_posterior()) == 0.0


def test_estimate_peak_bin():
    probs = np.full(37, 0.01)
    probs[24] += 1.0 - probs.sum()  # bin center +30
    post = fe.AzimuthPosterior(probs, np.array(fe.AZIMUTH_BINS, float))
    assert fe.estimate_location(post) == 30.0


def test_estimate_two_equal_peaks_prefers_center_proximal():
    probs = np.full(37, (1.0 - 0.4) / 35)
    probs[12] = 0.2  # -30
    probs[30] = 0.2  # +60
    post = fe.AzimuthPosterior(probs, np.array(fe.AZIMUTH_BINS, float))
    assert fe.estimate_location(post) == -30.0


def test_localization_soundness_two_quick_cases():
    """Sequential updates localize a 1 s source to the correct bin (full sweep
    over five azimuths runs in the acceptance suite)."""
    for az in (-30.0, 60.0):
        scene = speaker_scene(az, noise=0.08)
        clip = sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 1.0, seed=int(200 + az))
        left = fe.gammatone_analyze(clip.left)
        right = fe.gammatone_analyze(clip.right)
        post = fe.uniform_posterior()
        for row in fe.beamform_salience(left, right):
            post = fe.update_posterior(post, row)
        assert abs(fe.estimate_location(post) - az) <= 5.0


def test_gammatone_stream_matches_one_shot():
    rng = np.random.default_rng(97)
    x = rng.standard_normal(20_000)
    bank = fe.make_gammatone_bank(num_bands=8)
    whole = fe.gammatone_analyze(x, bank)
    stream = fe.GammatoneStream(bank)
    chunks = [stream.process(c) for c in (x[:3000], x[3000:3001], x[3001:12_000], x[12_000:])]
    assert np.max(np.abs(np.concatenate(chunks, axis=1) - whole)) < 1e-12


def test_gammatone_stream_rejects_empty_chunk():
    stream = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=8))
    with pytest.raises(DomainError):
        stream.process(np.array([]))


# ---------------------------------------------------------------------------
# Streaming tracker


def frame_loop_posteriors(stereo, cuts, num_bands, frame_s, hop_s):
    """Reference: the per-frame loop the tracker replaces, one beamform call
    per frame on a band buffer grown by concatenation.  Returns the posterior
    after each chunk ``stereo[:, cuts[i]:cuts[i + 1]]``."""
    stream = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=num_bands), channels=2)
    frame_n = int(round(frame_s * sc.SAMPLE_RATE))
    hop_n = int(round(hop_s * sc.SAMPLE_RATE))
    band_l = np.zeros((num_bands, 0))
    band_r = np.zeros((num_bands, 0))
    posterior = fe.uniform_posterior()
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        bands = stream.process(stereo[:, a:b])
        band_l = np.concatenate([band_l, bands[:, 0, :]], axis=1)
        band_r = np.concatenate([band_r, bands[:, 1, :]], axis=1)
        while band_l.shape[1] >= frame_n:
            salience = fe.beamform_salience(
                band_l[:, :frame_n], band_r[:, :frame_n], frame_s=frame_s, hop_s=frame_s
            )
            posterior = fe.update_posterior(posterior, salience[0])
            band_l = band_l[:, hop_n:]
            band_r = band_r[:, hop_n:]
        out.append(posterior.probs)
    return out


@pytest.mark.parametrize("num_bands, frame_s, hop_s", [(8, 0.1, 0.1), (32, 0.2, 0.1)])
@pytest.mark.parametrize("chunk_s", [0.07, 0.1, 0.33, 0.5, None])
def test_tracker_matches_frame_loop_bit_for_bit(num_bands, frame_s, hop_s, chunk_s):
    """Chunks shorter than a frame, chunks off the hop grid, and one
    whole-signal feed (``None``) all give the reference posteriors exactly."""
    clip = sc.render_binaural(speaker_scene(-25.0, noise=0.02), sc.HeadPose(0, 0), 0.0, 1.2, seed=4)
    stereo = np.stack([clip.left, clip.right])
    n = stereo.shape[1]
    step = n if chunk_s is None else int(round(chunk_s * sc.SAMPLE_RATE))
    cuts = list(range(0, n, step)) + [n]
    expect = frame_loop_posteriors(stereo, cuts, num_bands, frame_s, hop_s)
    tracker = fe.AzimuthTracker(num_bands, frame_s, hop_s)
    for (a, b), ref in zip(zip(cuts[:-1], cuts[1:]), expect):
        assert np.array_equal(tracker.feed(stereo[:, a:b]).probs, ref)
    assert fe.estimate_location(tracker.posterior) == -25.0


def test_tracker_rejects_hop_longer_than_frame():
    with pytest.raises(DomainError):
        fe.AzimuthTracker(8, frame_s=0.1, hop_s=0.2)
