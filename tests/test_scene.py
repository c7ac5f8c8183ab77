"""Tests for the scene simulator: acoustics, vision, kinematics, validation, and I/O."""

import math

import numpy as np
import pytest

from cocktail import cli
from cocktail import scene as sc
from cocktail.errors import DomainError, InputError

# Frozen oracle: (0.0875 / 343) * (1 + pi/2) evaluated independently.
ORACLE_ITD_90_S = 6.558154e-4


def single_speaker_scene(az, el=0.0, duration=10.0, noise=0.0, speech_seed=7, **spk):
    speaker = sc.SpeakerSpec(
        id=1, azimuth_world=az, elevation_world=el,
        speech=sc.SpeechSource(seed=speech_seed), **spk,
    )
    return sc.Scene(
        speakers=(speaker,),
        schedule=sc.TurnSchedule(((0.0, duration, 1),)),
        noise_level=noise,
    )


# ---------------------------------------------------------------------------
# itd_for_azimuth
# ---------------------------------------------------------------------------


def test_itd_zero_at_center():
    assert sc.itd_for_azimuth(0.0) == 0.0


def test_itd_90_matches_frozen_oracle():
    assert abs(sc.itd_for_azimuth(90.0) - ORACLE_ITD_90_S) < 1e-8
    assert round(sc.itd_for_azimuth(90.0) * sc.SAMPLE_RATE) == 31


def test_itd_odd_symmetry():
    for az in np.linspace(0.0, 90.0, 19):
        assert sc.itd_for_azimuth(-az) == -sc.itd_for_azimuth(az)


def test_itd_monotone_in_azimuth():
    vals = [sc.itd_for_azimuth(a) for a in range(-90, 91, 5)]
    assert np.all(np.diff(vals) > 0)


def test_itd_rejects_out_of_range():
    with pytest.raises(DomainError):
        sc.itd_for_azimuth(91.0)
    with pytest.raises(DomainError):
        sc.itd_for_azimuth(-90.5)


def test_fold_azimuth_mirrors_rear_sources():
    assert sc.fold_azimuth(120.0) == 60.0
    assert sc.fold_azimuth(-120.0) == -60.0
    assert sc.fold_azimuth(45.0) == 45.0


# ---------------------------------------------------------------------------
# render_binaural
# ---------------------------------------------------------------------------


def test_render_center_source_identical_channels():
    scene = single_speaker_scene(0.0)
    clip = sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 0.5, seed=3)
    assert np.array_equal(clip.left, clip.right)
    assert np.max(np.abs(clip.left)) > 0


def test_render_90deg_crosscorrelation_peak_at_31_samples():
    scene = single_speaker_scene(90.0)
    clip = sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 0.5, seed=3)
    # Brute-force cross-correlation over all integer lags.
    lags = np.arange(-40, 41)
    cc = [np.dot(clip.left[40 + k : 20000 + k], clip.right[40:20000]) for k in lags]
    assert lags[int(np.argmax(cc))] == 31


def test_render_empty_schedule_silence():
    scene = sc.Scene(
        speakers=(), schedule=sc.TurnSchedule(((0.0, 5.0, None),)), noise_level=0.0
    )
    clip = sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 0.5, seed=1)
    assert clip.audio.shape == (2, 24_000)
    assert np.all(clip.audio == 0)


def test_render_deterministic():
    scene = single_speaker_scene(30.0, el=10.0, noise=0.05)
    a = sc.render_binaural(scene, sc.HeadPose(5, -5), 0.3, 0.4, seed=11)
    b = sc.render_binaural(scene, sc.HeadPose(5, -5), 0.3, 0.4, seed=11)
    assert np.array_equal(a.audio, b.audio)


def test_render_streaming_consistency():
    """Chunked rendering reproduces one long render of the same interval."""
    scene = single_speaker_scene(40.0, el=-10.0, noise=0.02)
    pose = sc.HeadPose(10, 5)
    whole = sc.render_binaural(scene, pose, 0.0, 0.4, seed=5)
    chunks = [sc.render_binaural(scene, pose, 0.1 * i, 0.1, seed=5) for i in range(4)]
    audio = np.concatenate([c.audio for c in chunks], axis=1)
    np.testing.assert_allclose(audio, whole.audio, atol=1e-10)


def test_render_from_zero_is_a_prefix_and_a_later_start_agrees_to_rounding():
    """A render from time zero is a bit-exact prefix of any longer render
    from zero.  A render from a later time on the 0.1 s grid matches the
    same span of the longer render to within four units in the last place
    of its peak.  Only the notch filter differs, restarted from zero state
    ``_FILTER_MARGIN`` samples early.  That warm-up decays below rounding
    wherever no speaker sits more than 15 degrees below the head's tilt
    (every pose a sampled episode starts from), and the notch's recursion
    (an l1 gain of at most 6.4 there) then adds up at most a few roundings;
    1 500 sampled scenes differed by at most two units.  Scenes mix one or
    two speakers, a turn change on the grid, and spans across the
    power-of-two sample indices where a position measured from before time
    zero would round differently."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(
        speakers=st.lists(
            st.tuples(st.floats(-90, 90), st.floats(0, 1), st.integers(0, 2**31 - 1)),
            min_size=1, max_size=2,
        ),
        pan=st.floats(-80, 80),
        tilt=st.floats(-30, 30),
        noise=st.sampled_from([0.0, 0.01]),
        seed=st.integers(0, 2**31 - 1),
        turn10=st.integers(1, 40),
        length10=st.integers(2, 40),
        split=st.floats(0, 1, exclude_max=True),
    )
    def check(speakers, pan, tilt, noise, seed, turn10, length10, split):
        # Elevations from 15 degrees below the tilt up to the limit.
        lo = max(-30.0, tilt - 15.0)
        specs = tuple(
            sc.SpeakerSpec(id=i, azimuth_world=az, elevation_world=lo + u * (30.0 - lo),
                           speech=sc.SpeechSource(seed=s))
            for i, (az, u, s) in enumerate(speakers)
        )
        turn = turn10 / 10
        scene = sc.Scene(
            speakers=specs,
            schedule=sc.TurnSchedule(((0.0, turn, 0), (turn, 10.0, len(specs) - 1))),
            noise_level=noise,
        )
        pose = sc.HeadPose(pan, tilt)
        k10 = 1 + int(split * (length10 - 1))
        whole = sc.render_binaural(scene, pose, 0.0, length10 / 10, seed=seed).audio
        head = sc.render_binaural(scene, pose, 0.0, k10 / 10, seed=seed).audio
        tail = sc.render_binaural(scene, pose, k10 / 10, (length10 - k10) / 10, seed=seed).audio
        n = head.shape[1]
        assert np.array_equal(head, whole[:, :n])
        ref = whole[:, n:]
        assert np.max(np.abs(tail - ref)) <= 4 * np.spacing(np.max(np.abs(ref)))

    check()


def test_render_mirror_symmetry():
    """Swapping channels of a +theta render equals the -theta render exactly."""
    for az, el in [(30.0, 10.0), (75.0, -20.0)]:
        plus = sc.render_binaural(single_speaker_scene(az, el=el), sc.HeadPose(0, 0), 0.0, 0.3, seed=9)
        minus = sc.render_binaural(single_speaker_scene(-az, el=el), sc.HeadPose(0, 0), 0.0, 0.3, seed=9)
        assert np.array_equal(plus.audio, minus.audio[::-1])


def test_render_ild_louder_on_source_side():
    scene = single_speaker_scene(60.0)
    clip = sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 0.5, seed=3)
    assert np.sum(clip.right**2) > np.sum(clip.left**2)


def test_render_elevation_notch_moves_with_elevation():
    """The rendered spectrum dips at 7.5 kHz + 50 Hz/deg of relative elevation."""
    for el in (-20.0, 0.0, 20.0):
        scene = single_speaker_scene(0.0, el=el)
        clip = sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 1.0, seed=4)
        spec = np.abs(np.fft.rfft(clip.left)) ** 2
        freqs = np.fft.rfftfreq(len(clip.left), 1.0 / sc.SAMPLE_RATE)
        band = (freqs > 6000) & (freqs < 9000)
        dip = freqs[band][np.argmin(spec[band])]
        assert abs(dip - (7500.0 + 50.0 * el)) < 150.0


def test_render_rear_source_folds_to_frontal_mirror():
    # Source at world azimuth 80 with pan -40 sits at relative 120 -> renders as 60.
    scene = single_speaker_scene(80.0)
    rear = sc.render_binaural(scene, sc.HeadPose(-40, 0), 0.0, 0.3, seed=6)
    lags = np.arange(-40, 41)
    cc = [np.dot(rear.left[40 + k : 12000 + k], rear.right[40:12000]) for k in lags]
    expect = round(sc.itd_for_azimuth(60.0) * sc.SAMPLE_RATE)
    assert abs(lags[int(np.argmax(cc))] - expect) <= 1


def test_render_rejects_bad_duration():
    scene = single_speaker_scene(0.0)
    with pytest.raises(DomainError):
        sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 0.0, seed=1)


@pytest.mark.parametrize("t0", [-4.95, -0.05])
def test_render_and_mouth_reject_a_start_before_zero(t0):
    scene = single_speaker_scene(0.0)
    with pytest.raises(DomainError, match="t0"):
        sc.render_binaural(scene, sc.HeadPose(0, 0), t0, 0.1, seed=1)
    with pytest.raises(DomainError, match="t0"):
        sc.mouth_area_signal(scene.speakers[0], scene.schedule, t0, 0.1, seed=1)


@pytest.mark.parametrize("t0", [0.0, 0.1, 0.123])
def test_windows_shorter_than_one_sample_are_empty(t0):
    scene = single_speaker_scene(0.0, noise=0.01)
    assert sc.render_binaural(scene, sc.HeadPose(0, 0), t0, 1e-6, seed=1).audio.shape == (2, 0)
    times, areas = sc.mouth_area_signal(scene.speakers[0], scene.schedule, t0, 0.04, seed=1)
    assert times.shape == areas.shape == (0,)


def clear_block_caches():
    sc._seeded_block.cache_clear()
    sc._ridge_block.cache_clear()


def test_renders_through_a_stream_equal_fresh_renders_bit_for_bit():
    """An episode's sequence of renders and mouth samples, through the
    memoized seeded and ridge blocks, equals the same calls each made after
    the caches are cleared, bit for bit: the pre-roll's last 0.5 s, then
    forward steps of 0.1 s or 0.5 s at changing poses, with the pre-roll's
    head ``[0, 1.5 s)`` and its mouth samples taken out of order after any
    step, a turn change inside a step, and noise on or off."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(
        step_s=st.sampled_from([0.1, 0.5]),
        poses=st.lists(st.tuples(st.integers(-6, 6), st.integers(-2, 2)), min_size=1, max_size=8),
        azimuths=st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
        turn=st.tuples(st.integers(0, 7), st.floats(0.05, 0.95)),
        head_after=st.integers(0, 8),
        noise=st.sampled_from([0.0, 0.01]),
        seed=st.integers(0, 2**31 - 1),
    )
    def check(step_s, poses, azimuths, turn, head_after, noise, seed):
        turn_s = 2.0 + step_s * (turn[0] + turn[1])
        scene = sc.Scene(
            speakers=tuple(sc.SpeakerSpec(id=i, azimuth_world=5.0 * az, elevation_world=0.0,
                                          speech=sc.SpeechSource(seed=seed + i))
                           for i, az in enumerate(azimuths)),
            schedule=sc.TurnSchedule(((0.0, turn_s, 0), (turn_s, 40.0, 1))),
            noise_level=noise,
        )
        pose = sc.HeadPose(5.0 * poses[0][0], 5.0 * poses[0][1])
        calls = [(1.5, 0.5, pose)]
        for k, (pan, tilt) in enumerate(poses):
            if k == head_after:
                calls.append((0.0, 1.5, pose))
            pose = sc.HeadPose(5.0 * pan, 5.0 * tilt)
            calls.append((2.0 + k * step_s, step_s, pose))

        def outputs(t0, duration, pose):
            return [sc.render_binaural(scene, pose, t0, duration, seed).audio] + [
                sc.mouth_area_signal(spk, scene.schedule, t0, duration, seed)[1]
                for spk in scene.speakers]

        fresh = []
        for call in calls:
            clear_block_caches()
            fresh.append(outputs(*call))
        clear_block_caches()
        for call, want in zip(calls, fresh):
            got = outputs(*call)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    check()


def test_a_forward_step_draws_one_new_carrier_and_one_new_ridge_block():
    """A 0.1 s render after the one before it reuses the two carrier and
    ridge blocks their margins share and draws one new block of each, and
    the mouth samples reuse their jitter block until it runs out.  Noise
    blocks, which no later render reads, stay out of the cache.  A cached
    block cannot be written to."""
    scene = single_speaker_scene(30.0, noise=0.01)
    speaker = scene.speakers[0]
    clear_block_caches()
    for k in range(20, 45):
        seeded = sc._seeded_block.cache_info().misses
        ridge = sc._ridge_block.cache_info().misses
        sc.render_binaural(scene, sc.HeadPose(5.0 * (k % 3), 0.0), k / 10, 0.1, seed=7)
        sc.mouth_area_signal(speaker, scene.schedule, k / 10, 0.1, seed=7)
        if k > 20:
            # A carrier block, and every tenth step a jitter block.
            assert sc._seeded_block.cache_info().misses - seeded == 1 + (k % 10 == 0)
            assert sc._ridge_block.cache_info().misses - ridge == 1
    for block in (sc._seeded_block((7, sc._STREAM_CARRIER, speaker.id), 44),
                  sc._ridge_block(speaker.speech, 44)):
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 0.0


def test_render_rejects_noise_that_overflows():
    scene = single_speaker_scene(0.0, noise=1e308)
    with pytest.raises(DomainError, match="non-finite"):
        sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 0.1, seed=1)


# ---------------------------------------------------------------------------
# BinauralClip
# ---------------------------------------------------------------------------


def test_clip_ears_are_views_of_its_audio():
    audio = np.arange(8.0).reshape(2, 4)
    clip = sc.BinauralClip(audio)
    assert clip.audio is audio
    assert np.shares_memory(clip.left, audio) and np.shares_memory(clip.right, audio)
    assert np.array_equal(clip.left, audio[0]) and np.array_equal(clip.right, audio[1])


@pytest.mark.parametrize("shape", [(8,), (1, 8), (3, 8), (8, 2), (2, 2, 8)])
def test_clip_rejects_shapes_other_than_two_rows(shape):
    with pytest.raises(DomainError, match="shape"):
        sc.BinauralClip(np.zeros(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_clip_rejects_non_finite_samples(value):
    audio = np.zeros((2, 8))
    audio[1, 5] = value
    with pytest.raises(DomainError, match="non-finite"):
        sc.BinauralClip(audio)


# ---------------------------------------------------------------------------
# observe_visual
# ---------------------------------------------------------------------------


def test_observe_center_face_at_grid_16_12():
    scene = single_speaker_scene(0.0)
    assert sc.observe_visual(scene, sc.HeadPose(0, 0)) == ((1, 16, 12),)


def test_observe_45deg_outside_fov():
    scene = single_speaker_scene(45.0)
    assert sc.observe_visual(scene, sc.HeadPose(0, 0)) == ()


def test_observe_15deg_maps_to_gx_23():
    # round((15 + 30) / 60 * 31) = 23
    scene = single_speaker_scene(15.0)
    assert sc.observe_visual(scene, sc.HeadPose(0, 0))[0][1] == 23


def test_observe_fov_exclusion_all_poses():
    scene = single_speaker_scene(20.0, el=5.0)
    for pan in range(-80, 81, 10):
        for tilt in range(-30, 31, 10):
            faces = sc.observe_visual(scene, sc.HeadPose(pan, tilt))
            outside = abs(20.0 - pan) > 30 or abs(5.0 - tilt) > 20
            assert (len(faces) == 0) == outside


def test_observe_cells_in_unit_range():
    scene = single_speaker_scene(-12.0, el=14.0)
    ((_, gx, gy),) = sc.observe_visual(scene, sc.HeadPose(0, 0))
    assert 0 <= gx < sc.GRID_W and 0 <= gy < sc.GRID_H


# ---------------------------------------------------------------------------
# mouth_area_signal
# ---------------------------------------------------------------------------


def mouth_jitter(spk, seed, k0, n):
    """The mouth jitter of samples ``k0 .. k0 + n - 1`` in units of the gain:
    sample ``k`` comes from block ``k // 10``, seeded by (seed, 3, speaker id,
    block)."""
    blocks = [
        np.random.default_rng(np.random.SeedSequence((seed, 3, spk.id, b))).normal(0.0, 1.0, 10)
        for b in range(k0 // 10, (k0 + n + 9) // 10)
    ]
    return 0.05 * spk.mouth_gain * np.concatenate(blocks)[k0 % 10 : k0 % 10 + n]


def test_mouth_silent_speaker_constant_baseline():
    spk = sc.SpeakerSpec(id=2, azimuth_world=0, elevation_world=0, mouth_baseline=0.4)
    schedule = sc.TurnSchedule(((0.0, 10.0, None),))
    _, areas = sc.mouth_area_signal(spk, schedule, 0.0, 10.0, seed=6)
    assert np.array_equal(areas, 0.4 + mouth_jitter(spk, 6, 0, 100))


def test_mouth_active_speaker_tracks_modulator_exactly():
    scene = single_speaker_scene(0.0)
    spk = scene.speakers[0]
    times, areas = sc.mouth_area_signal(spk, scene.schedule, 0.0, 10.0, seed=6)
    env = sc.source_envelope(spk.speech, times)
    expect = spk.mouth_baseline + spk.mouth_gain * env + mouth_jitter(spk, 6, 0, 100)
    assert np.array_equal(areas, expect)


def test_mouth_10s_at_10hz_gives_100_samples():
    scene = single_speaker_scene(0.0)
    times, areas = sc.mouth_area_signal(scene.speakers[0], scene.schedule, 0.0, 10.0)
    assert len(times) == 100 and len(areas) == 100


def test_mouth_jitter_scale_and_determinism():
    scene = single_speaker_scene(0.0, duration=1000.0, mouth_gain=2.0)
    spk = scene.speakers[0]
    times, a1 = sc.mouth_area_signal(spk, scene.schedule, 0.0, 1000.0, seed=5)
    _, a2 = sc.mouth_area_signal(spk, scene.schedule, 0.0, 1000.0, seed=5)
    assert np.array_equal(a1, a2)
    resid = a1 - (spk.mouth_baseline + spk.mouth_gain * sc.source_envelope(spk.speech, times))
    assert abs(np.std(resid) - 0.05 * spk.mouth_gain) < 0.01


def test_mouth_streaming_consistency():
    scene = single_speaker_scene(0.0)
    spk = scene.speakers[0]
    _, whole = sc.mouth_area_signal(spk, scene.schedule, 0.0, 2.0, seed=3)
    parts = [sc.mouth_area_signal(spk, scene.schedule, 0.5 * i, 0.5, seed=3)[1] for i in range(4)]
    assert np.array_equal(np.concatenate(parts), whole)


def test_mouth_jitter_is_seeded_per_ten_sample_block():
    """Jitter sample ``k`` comes from block ``k // 10`` wherever the
    requested window starts and ends."""
    scene = single_speaker_scene(0.0, duration=30.0, mouth_gain=2.0)
    spk = scene.speakers[0]
    rng = np.random.default_rng(8)
    for _ in range(20):
        k0, n = int(rng.integers(0, 200)), int(rng.integers(1, 60))
        times, noisy = sc.mouth_area_signal(spk, scene.schedule, k0 / 10, n / 10, seed=9)
        clean = spk.mouth_baseline + spk.mouth_gain * sc.source_envelope(spk.speech, times)
        assert np.array_equal(noisy, clean + mouth_jitter(spk, 9, k0, n))


def test_phasor_modulator_matches_source_envelope():
    """The render's block-phasor modulator is :func:`sc.source_envelope` at
    sample times ``n / 48000``: spans before time zero, across block edges,
    longer than 20 blocks, and near the longest scene a WAV file holds.

    ``source_envelope`` rounds its phase ``2 pi f t + phi`` to a float, so
    far from zero the reference itself is off by a few units in the last
    place of that phase (about 1e-11 near the end of the longest scene, as a
    40-digit evaluation shows for either form); the bound is 1e-12 plus two
    such units."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    block = 4800
    last = int(cli.MAX_SCENE_S * sc.SAMPLE_RATE)

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(
        seed=st.integers(0, 2**31 - 1),
        band=st.tuples(st.floats(0.5, 15.0), st.floats(0.01, 1.0)),
        start=st.one_of(
            st.integers(-3 * block, 30 * block),
            st.integers(last - 30 * block, last),
            st.integers(-3, 3).map(lambda k: k * block),
        ),
        length=st.one_of(st.integers(1, 2 * block), st.integers(20 * block, 23 * block)),
    )
    def check(seed, band, start, length):
        lo = band[0]
        hi = lo + band[1] * (16.0 - lo)
        source = sc.SpeechSource(seed=seed, modulation_band=(lo, hi))
        got = sc._modulator(source, start, start + length)
        times = np.arange(start, start + length) / sc.SAMPLE_RATE
        phase = 2.0 * np.pi * (hi * np.max(np.abs(times)) + 1.0)
        tol = 1e-12 + 2.0 * np.spacing(phase)
        assert np.max(np.abs(got - sc.source_envelope(source, times))) <= tol

    check()


def test_envelope_in_band():
    src = sc.SpeechSource(seed=11)
    t = np.linspace(0, 100, 10000)
    env = sc.source_envelope(src, t)
    assert env.min() >= 0.05 - 1e-12 and env.max() <= 0.95 + 1e-12


# ---------------------------------------------------------------------------
# step_head
# ---------------------------------------------------------------------------


def test_step_head_left_from_origin():
    assert sc.step_head(sc.HeadPose(0, 0), "left") == sc.HeadPose(-5, 0)


def test_step_head_clamps_at_pan_limit():
    assert sc.step_head(sc.HeadPose(80, 0), "right") == sc.HeadPose(80, 0)


def test_step_head_none_is_identity():
    for pose in [sc.HeadPose(0, 0), sc.HeadPose(-80, 30), sc.HeadPose(35, -15)]:
        assert sc.step_head(pose, "none") == pose


def test_step_head_random_walk_stays_clamped():
    rng = np.random.default_rng(0)
    pose = sc.HeadPose(0, 0)
    for _ in range(500):
        pose = sc.step_head(pose, sc.ACTIONS[rng.integers(5)])
        assert -80 <= pose.pan <= 80 and -30 <= pose.tilt <= 30


def test_step_head_rejects_unknown_action():
    with pytest.raises(DomainError):
        sc.step_head(sc.HeadPose(0, 0), "backflip")


# ---------------------------------------------------------------------------
# Validation and I/O
# ---------------------------------------------------------------------------


def test_speaker_validation():
    with pytest.raises(DomainError):
        sc.SpeakerSpec(id=1, azimuth_world=100, elevation_world=0)
    with pytest.raises(DomainError):
        sc.SpeakerSpec(id=1, azimuth_world=0, elevation_world=40)
    with pytest.raises(DomainError):
        sc.SpeakerSpec(id=1, azimuth_world=0, elevation_world=0, mouth_gain=0)


def test_schedule_validation():
    with pytest.raises(DomainError):
        sc.TurnSchedule(((0.0, 1.0, 1), (2.0, 3.0, 1)))  # gap
    with pytest.raises(DomainError):
        sc.TurnSchedule(((1.0, 1.0, 1),))  # empty segment


def test_speech_source_validation():
    with pytest.raises(DomainError):
        sc.SpeechSource(modulation_band=(0.1, 8.0))


def test_schedule_active_at():
    schedule = sc.TurnSchedule(((0, 10, 1), (10, 20, 2), (20, 21, None)))
    assert schedule.active_at(0.0) == 1
    assert schedule.active_at(10.0) == 2
    assert schedule.active_at(15.0) == 2
    assert schedule.active_at(20.5) is None
    assert schedule.active_at(21.0) is None


# ---------------------------------------------------------------------------
# Scene output through the file formats (cli.write_wav / cli.write_mouth_csv)
# ---------------------------------------------------------------------------


def test_wav_round_trip(tmp_path):
    scene = single_speaker_scene(20.0)
    raw = sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 0.25, seed=2)
    audio = 0.5 * raw.audio  # keep within full scale
    path = tmp_path / "clip.wav"
    cli.write_wav(path, audio)
    back, rate = cli.read_wav(path)
    assert rate == sc.SAMPLE_RATE
    assert back.shape == audio.shape
    np.testing.assert_allclose(back, audio, atol=1.0 / 32767)


def test_mouth_csv_round_trip(tmp_path):
    scene = single_speaker_scene(0.0)
    times, areas = sc.mouth_area_signal(scene.speakers[0], scene.schedule, 0.0, 3.0, seed=1)
    path = tmp_path / "mouth.csv"
    cli.write_mouth_csv(path, times, areas)
    assert np.array_equal(cli.read_mouth_csv(path), areas)


def test_read_wav_missing_file(tmp_path):
    with pytest.raises(InputError):
        cli.read_wav(tmp_path / "absent.wav")
