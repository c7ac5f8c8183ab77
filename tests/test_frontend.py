"""Tests for the auditory frontend: gammatone bank, beamformers, posterior."""

import tracemalloc

import numpy as np
import pytest
from scipy.signal import sosfilt

from cocktail import frontend as fe
from cocktail import scene as sc
from cocktail.errors import DomainError


def gammatone_analyze(x, bank):
    """Oracle for :class:`fe.GammatoneStream`: one whole-signal ``sosfilt``
    call per band on a 1-D channel, shape ``(num_bands, len(x))``."""
    return np.stack([sosfilt(bank.sos[b], x) for b in range(bank.num_bands)])


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
    """Stereo band signals of a rendered clip, shape ``(num_bands, 2, n)``."""
    clip = sc.render_binaural(speaker_scene(az, noise=noise), sc.HeadPose(0, 0), 0.0, duration, seed=seed)
    stream = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=num_bands))
    return stream.process(clip.audio)


# ---------------------------------------------------------------------------
# Gammatone bank
# ---------------------------------------------------------------------------


def test_erb_space_endpoints_and_ordering():
    cf = fe.erb_space(32)
    assert len(cf) == 32
    assert abs(cf[0] - fe.FREQ_LO_HZ) < 1e-6
    assert cf[-1] < fe.FREQ_HI_HZ
    assert np.all(np.diff(cf) > 0)
    assert np.all(cf < sc.SAMPLE_RATE / 2)


def test_default_bank_has_32_bands():
    bank = fe.make_gammatone_bank()
    assert bank.num_bands == 32
    assert bank.sos.shape == (32, 4, 6)


def test_gammatone_zero_input_zero_output():
    bands = fe.GammatoneStream(fe.make_gammatone_bank()).process(np.zeros((2, 1000)))
    assert bands.shape == (32, 2, 1000)
    assert not bands.any()


def test_gammatone_linearity():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 4000)
    bank = fe.make_gammatone_bank(num_bands=8)
    a = gammatone_analyze(3.7 * x, bank)
    b = 3.7 * gammatone_analyze(x, bank)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_gammatone_energy_concentration_every_band():
    """A tone at band k's center frequency maximizes band k's energy."""
    bank = fe.make_gammatone_bank()
    t = np.arange(int(0.25 * sc.SAMPLE_RATE)) / sc.SAMPLE_RATE
    for k, cf in enumerate(bank.center_freqs):
        tone = np.sin(2 * np.pi * cf * t)
        bands = gammatone_analyze(tone, bank)
        energies = np.sum(bands[:, 2000:] ** 2, axis=1)  # skip onset transient
        assert int(np.argmax(energies)) == k


def test_gammatone_unit_gain_at_center_frequency():
    bank = fe.make_gammatone_bank()
    t = np.arange(int(0.5 * sc.SAMPLE_RATE)) / sc.SAMPLE_RATE
    for k in (0, 15, 31):
        tone = np.sin(2 * np.pi * bank.center_freqs[k] * t)
        out = gammatone_analyze(tone, bank)[k]
        gain = np.sqrt(np.mean(out[8000:] ** 2) / np.mean(tone[8000:] ** 2))
        assert abs(gain - 1.0) < 0.01


# ---------------------------------------------------------------------------
# Beamformer bank and salience
# ---------------------------------------------------------------------------


def test_beamformer_bank_structure():
    bank = fe.make_beamformer_bank()
    assert fe.AZIMUTH_BINS.shape == bank.lags.shape == (37,)
    assert fe.AZIMUTH_BINS[0] == -90 and fe.AZIMUTH_BINS[-1] == 90
    assert np.all(np.diff(fe.AZIMUTH_BINS) == 5)
    assert np.all(np.diff(bank.lags) > 0)


FRAME = int(round(fe.FRAME_S * sc.SAMPLE_RATE))


def bruteforce_salience(bands):
    """Oracle for :func:`fe.beamform_salience`: shift each zero-padded
    ``FRAME_S`` frame of both channels by half the bin's lag (linear
    interpolation), sum, and square, one band and one bin at a time."""
    lags = fe.make_beamformer_bank().lags
    pad = 64
    starts = np.arange(0, bands.shape[2] - FRAME + 1, FRAME)
    naive = np.zeros((len(starts), 37))
    for fi, s0 in enumerate(starts):
        totals = np.zeros(37)
        for b in range(bands.shape[0]):
            lf = np.pad(bands[b, 0, s0 : s0 + FRAME], (pad, pad))
            rf = np.pad(bands[b, 1, s0 : s0 + FRAME], (pad, pad))
            grid = np.arange(len(lf) - 2, dtype=float)

            def sample(x, d):
                pos = grid + d
                i = np.clip(np.floor(pos).astype(int), 0, len(x) - 2)
                w = pos - np.floor(pos)
                return (1 - w) * x[i] + w * x[i + 1]

            for bi, lag in enumerate(lags):
                aligned = sample(lf, lag / 2.0) + sample(rf, -lag / 2.0)
                totals[bi] += np.sum(aligned**2)
        if totals.max() > 0:
            naive[fi] = totals / totals.max()
    return naive


def test_beamform_matches_bruteforce_oracle():
    """Fast algebraic route equals naive shift-and-sum delay-and-sum."""
    bands = analyzed_clip(30.0)
    fast = fe.beamform_salience(bands)
    np.testing.assert_allclose(fast, bruteforce_salience(bands), atol=1e-10)


def test_beamform_matches_bruteforce_on_generated_signals():
    """Band counts 1-4, one to three frames plus a partial frame, random
    band signals over twelve decades of gain, and silent channels or bands."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=25, deadline=None, database=None)
    @hyp.given(
        num_bands=st.integers(1, 4),
        frames=st.integers(1, 3),
        tail=st.integers(0, 4799),
        seed=st.integers(0, 2**32 - 1),
        log_gain=st.floats(-6.0, 6.0),
        silent=st.sampled_from(["none", "left", "right", "band", "all"]),
    )
    def check(num_bands, frames, tail, seed, log_gain, silent):
        n = frames * FRAME + tail
        bands = 10.0**log_gain * np.random.default_rng(seed).standard_normal((num_bands, 2, n))
        if silent == "left":
            bands[:, 0] = 0.0
        elif silent == "right":
            bands[:, 1] = 0.0
        elif silent == "band":
            bands[0] = 0.0
        elif silent == "all":
            bands[:] = 0.0
        fast = fe.beamform_salience(bands)
        assert fast.shape == (frames, 37)
        np.testing.assert_allclose(fast, bruteforce_salience(bands), rtol=0, atol=1e-10)

    check()


def test_beamform_row_depends_on_its_frame_only():
    """Beamforming a buffer of 1-6 frames in one call gives, bit for bit,
    the rows of beamforming each frame's own samples (copied out, so laid
    out differently in memory).  The streaming tracker relies on it: how
    its feeds split the signal must not change the posterior."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=25, deadline=None, database=None)
    @hyp.given(
        num_bands=st.integers(1, 32),
        frames=st.integers(1, 6),
        tail=st.integers(0, 4799),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(num_bands, frames, tail, seed):
        n = frames * FRAME + tail
        bands = np.random.default_rng(seed).standard_normal((num_bands, 2, n))
        whole = fe.beamform_salience(bands)
        assert whole.shape == (frames, 37)
        for f, row in enumerate(whole):
            own = bands[:, :, f * FRAME : (f + 1) * FRAME].copy()
            assert np.array_equal(fe.beamform_salience(own), row[None])

    check()


@pytest.mark.parametrize("num_bands", [8, 32])
@pytest.mark.parametrize("tail", [0, 1234])
def test_beamform_rows_do_not_depend_on_call_order(num_bands, tail):
    """Calls with the same band count share one zero-padded transform
    buffer.  Two inputs give the same rows bit for bit in either order as
    with a fresh buffer each, so no call leaves samples in the padding."""
    rng = np.random.default_rng(num_bands + tail)
    inputs = (1e3 * rng.standard_normal((num_bands, 2, 3 * FRAME + tail)),
              rng.standard_normal((num_bands, 2, 2 * FRAME + tail)))
    fresh = []
    for bands in inputs:
        fe._transform_buffer.cache_clear()
        fresh.append(fe.beamform_salience(bands))
    for order in ((0, 1, 0), (1, 0, 1)):
        for i in order:
            assert np.array_equal(fe.beamform_salience(inputs[i]), fresh[i])


def test_beamform_identical_channels_symmetric_peak_at_zero():
    sal = fe.beamform_salience(analyzed_clip(0.0)[:, [0, 0]])
    for row in sal:
        np.testing.assert_allclose(row, row[::-1], atol=1e-9)
        assert int(np.argmax(row)) == 18  # the 0 degree bin
        assert row[18] == 1.0


def test_beamform_swap_mirrors_salience():
    bands = analyzed_clip(45.0)
    sal = fe.beamform_salience(bands)
    swapped = fe.beamform_salience(bands[:, ::-1])
    np.testing.assert_allclose(swapped, sal[:, ::-1], atol=1e-6)


def test_beamform_argmax_tracks_source():
    bands = analyzed_clip(30.0, duration=0.4, noise=0.03)
    for row in fe.beamform_salience(bands):
        assert abs(fe.AZIMUTH_BINS[int(np.argmax(row))] - 30.0) <= 5.0


def test_beamform_silent_input_all_zero():
    sal = fe.beamform_salience(np.zeros((4, 2, 20000)))
    assert sal.shape[0] >= 1
    assert not sal.any()


def test_beamform_rejects_frame_longer_than_signal():
    with pytest.raises(DomainError):
        fe.beamform_salience(np.ones((2, 2, 100)))


def test_beamform_takes_stereo_bands_only():
    for shape in [(9600,), (2, 9600), (2, 1, 9600), (2, 3, 9600)]:
        with pytest.raises(DomainError):
            fe.beamform_salience(np.ones(shape))


# ---------------------------------------------------------------------------
# Posterior updates
# ---------------------------------------------------------------------------


def test_uniform_prior_zero_salience_stays_uniform():
    post = fe.update_posterior(fe.uniform_posterior(), np.zeros(37))
    np.testing.assert_allclose(post.probs, 1.0 / 37, atol=1e-12)


def test_zero_decay_returns_pure_softmax(monkeypatch):
    monkeypatch.setattr(fe, "DECAY_LAMBDA", 0.0)
    rng = np.random.default_rng(1)
    prior = rng.dirichlet(np.ones(37))
    salience = rng.uniform(0, 1, 37)
    post = fe.update_posterior(fe.AzimuthPosterior(prior), salience)
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


def peak_next_to_nan():
    salience = np.zeros(37)
    salience[3], salience[4] = 0.5, np.nan
    return salience


@pytest.mark.parametrize("salience", [np.full(37, np.nan), peak_next_to_nan()],
                         ids=["all-nan", "peak-next-to-nan"])
def test_update_posterior_rejects_nan_salience(salience):
    """A NaN makes ``salience.max() > 0`` false, which would pass the step
    off as silence and apply a uniform likelihood."""
    with pytest.raises(DomainError, match="finite"):
        fe.update_posterior(fe.uniform_posterior(), salience)


def test_posterior_rejects_nan_entries():
    one_nan = np.full(37, 1.0 / 36)
    one_nan[10] = np.nan
    for probs in (np.full(37, np.nan), one_nan):
        with pytest.raises(DomainError, match="finite"):
            fe.AzimuthPosterior(probs)


def entropy(posterior):
    p = posterior.probs[posterior.probs > 0]
    return float(-np.sum(p * np.log(p)))


def test_repeated_peaked_salience_decreases_entropy():
    salience = np.zeros(37)
    salience[25] = 1.0
    post = fe.uniform_posterior()
    entropies = [entropy(post)]
    for _ in range(30):
        post = fe.update_posterior(post, salience)
        entropies.append(entropy(post))
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
    assert fe.estimate_location(fe.AzimuthPosterior(probs)) == 30.0


def test_estimate_two_equal_peaks_prefers_center_proximal():
    probs = np.full(37, (1.0 - 0.4) / 35)
    probs[12] = 0.2  # -30
    probs[30] = 0.2  # +60
    assert fe.estimate_location(fe.AzimuthPosterior(probs)) == -30.0


def test_localization_soundness_two_quick_cases():
    """Sequential updates localize a 1 s source to the correct bin (full sweep
    over five azimuths runs in the acceptance suite)."""
    for az in (-30.0, 60.0):
        scene = speaker_scene(az, noise=0.08)
        clip = sc.render_binaural(scene, sc.HeadPose(0, 0), 0.0, 1.0, seed=int(200 + az))
        bands = fe.GammatoneStream(fe.make_gammatone_bank()).process(clip.audio)
        post = fe.uniform_posterior()
        for row in fe.beamform_salience(bands):
            post = fe.update_posterior(post, row)
        assert abs(fe.estimate_location(post) - az) <= 5.0


def stream_bands(x, chunk_lengths, num_bands=8):
    """Filter a ``(2, n)`` signal chunk by chunk with a fresh stream."""
    stream = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=num_bands))
    edges = np.cumsum([0] + list(chunk_lengths))
    return np.concatenate(
        [stream.process(x[:, a:b]) for a, b in zip(edges[:-1], edges[1:])], axis=-1
    )


def oracle_bands(x, num_bands=8):
    """Both channels of ``x`` through :func:`gammatone_analyze`, stacked as
    the stream lays them out, ``(num_bands, 2, n)``."""
    bank = fe.make_gammatone_bank(num_bands=num_bands)
    return np.stack([gammatone_analyze(x[0], bank), gammatone_analyze(x[1], bank)], axis=1)


def test_gammatone_stream_matches_one_shot():
    x = np.random.default_rng(97).standard_normal((2, 20_000))
    chunks = stream_bands(x, [3000, 1, 8999, 8000])
    assert np.max(np.abs(chunks - oracle_bands(x))) < 1e-12


@pytest.mark.parametrize("shape", [(2, 9600)], ids=["stereo"])
@pytest.mark.parametrize(
    "chunk_lengths", [[9600], [1, 4799, 4800], [333] * 28 + [276]], ids=["whole", "uneven", "small"]
)
def test_stream_fallback_filter_matches_kernel(monkeypatch, shape, chunk_lengths):
    """Without SciPy's private kernel the stream runs the public ``sosfilt``
    with transposed state, and gets the same bits."""
    assert fe._sosfilt_kernel is not None
    x = np.random.default_rng(5).standard_normal(shape)
    kernel = stream_bands(x, chunk_lengths)
    monkeypatch.setattr(fe, "_sosfilt_kernel", None)
    fallback = stream_bands(x, chunk_lengths)
    assert fallback.shape == kernel.shape == (8,) + shape
    assert np.array_equal(fallback, kernel)


def test_gammatone_stream_matches_oracle_at_any_chunking():
    """Random chunk boundaries, band counts and signals give the oracle's
    bands bit for bit."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(
        num_bands=st.sampled_from([1, 8, 32]),
        n=st.integers(1, 6000),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(num_bands, n, fractions, seed):
        x = np.random.default_rng(seed).standard_normal((2, n))
        edges = sorted({0, n, *(int(f * n) for f in fractions)})
        got = stream_bands(x, np.diff(edges), num_bands=num_bands)
        assert np.array_equal(got, oracle_bands(x, num_bands=num_bands))

    check()


def test_gammatone_stream_filters_into_a_buffer_view_bit_for_bit():
    """``process(x, out=view)`` fills a slice of a larger band buffer with
    what ``process(x)`` returns, chunk after chunk, and writes nothing else."""
    x = np.random.default_rng(12).standard_normal((2, 9600))
    fresh = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=8))
    inplace = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=8))
    for a, b, at in [(0, 4800, 0), (4800, 4801, 3), (4801, 9600, 17)]:
        buffer = np.full((8, 2, 5000), np.nan)
        view = buffer[:, :, at : at + b - a]
        got = inplace.process(x[:, a:b], out=view)
        assert got is view
        assert np.array_equal(got, fresh.process(x[:, a:b]))
        buffer[:, :, at : at + b - a] = np.nan
        assert np.all(np.isnan(buffer))


def test_gammatone_stream_rejects_an_out_array_it_cannot_fill():
    stream = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=8))
    x = np.zeros((2, 100))
    for out in [np.empty((8, 2, 99)), np.empty((7, 2, 100)),
                np.empty((8, 2, 100), dtype=np.float32), np.empty((8, 2, 200))[:, :, ::2]]:
        with pytest.raises(DomainError):
            stream.process(x, out=out)


def test_gammatone_stream_rejects_empty_chunk():
    stream = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=8))
    with pytest.raises(DomainError):
        stream.process(np.zeros((2, 0)))


def test_gammatone_stream_takes_stereo_chunks_only():
    stream = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=8))
    for shape in [(100,), (1, 100), (3, 100), (2, 2, 100)]:
        with pytest.raises(DomainError):
            stream.process(np.zeros(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_chunk_is_rejected_and_leaves_the_tracker_fresh(value):
    """A non-finite sample is rejected before it reaches the filter state,
    which it would otherwise poison: every later posterior would stay
    uniform and a 40 degree source would read 0 degrees."""
    clip = sc.render_binaural(speaker_scene(40.0, noise=0.01), sc.HeadPose(0, 0),
                              0.0, 0.5, seed=7).audio
    bad = clip[:, :4800].copy()
    bad[1, 100] = value
    stream = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=8))
    with pytest.raises(DomainError, match="non-finite"):
        stream.process(bad)
    assert not stream._zi.any()
    tracker, fresh = fe.AzimuthTracker(8), fe.AzimuthTracker(8)
    with pytest.raises(DomainError, match="non-finite"):
        tracker.feed(bad)
    for s0 in range(0, clip.shape[1], 4800):
        posterior = tracker.feed(clip[:, s0 : s0 + 4800])
        assert np.array_equal(posterior.probs, fresh.feed(clip[:, s0 : s0 + 4800]).probs)
    assert fe.estimate_location(posterior) == pytest.approx(40.0, abs=10.0)


# ---------------------------------------------------------------------------
# Streaming tracker


def frame_loop_posteriors(stereo, cuts, num_bands):
    """Reference: the per-frame loop the tracker replaces, one beamform call
    per frame on a band buffer grown by concatenation.  Returns the posterior
    after each chunk ``stereo[:, cuts[i]:cuts[i + 1]]``."""
    stream = fe.GammatoneStream(fe.make_gammatone_bank(num_bands=num_bands))
    bands = np.zeros((num_bands, 2, 0))
    posterior = fe.uniform_posterior()
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        bands = np.concatenate([bands, stream.process(stereo[:, a:b])], axis=2)
        while bands.shape[2] >= FRAME:
            salience = fe.beamform_salience(bands[:, :, :FRAME])
            posterior = fe.update_posterior(posterior, salience[0])
            bands = bands[:, :, FRAME:]
        out.append(posterior.probs)
    return out


@pytest.mark.parametrize("num_bands", [8, 32])
@pytest.mark.parametrize("chunk_s", [0.07, 0.1, 0.33, 0.5, None])
def test_tracker_matches_frame_loop_bit_for_bit(num_bands, chunk_s):
    """Chunks shorter than a frame, chunks off the frame grid, and one
    whole-signal feed (``None``) all give the reference posteriors exactly."""
    stereo = sc.render_binaural(speaker_scene(-25.0, noise=0.02), sc.HeadPose(0, 0), 0.0, 1.2, seed=4).audio
    n = stereo.shape[1]
    step = n if chunk_s is None else int(round(chunk_s * sc.SAMPLE_RATE))
    cuts = list(range(0, n, step)) + [n]
    expect = frame_loop_posteriors(stereo, cuts, num_bands)
    tracker = fe.AzimuthTracker(num_bands)
    for (a, b), ref in zip(zip(cuts[:-1], cuts[1:]), expect):
        assert np.array_equal(tracker.feed(stereo[:, a:b]).probs, ref)
    assert fe.estimate_location(tracker.posterior) == -25.0


def test_tracker_reuses_one_band_buffer(monkeypatch):
    """The tracker beamforms one frame per call, always from its one
    ``(num_bands, 2, FRAME)`` band buffer: a 0.5 s feed makes five calls and
    keeps nothing; a 0.05 s feed stays in the buffer until the next 0.05 s
    completes the frame."""
    beamformed = []
    beamform = fe.beamform_salience

    def counted(bands):
        beamformed.append(bands)
        return beamform(bands)

    monkeypatch.setattr(fe, "beamform_salience", counted)
    tracker = fe.AzimuthTracker(32)
    buffer = tracker._bands
    assert buffer.shape == (32, 2, FRAME)
    rng = np.random.default_rng(3)
    tracker.feed(rng.standard_normal((2, 24_000)))
    assert len(beamformed) == 5 and tracker._kept == 0
    tracker.feed(rng.standard_normal((2, 2_400)))
    assert len(beamformed) == 5 and tracker._kept == 2_400
    tracker.feed(rng.standard_normal((2, 2_400)))
    assert len(beamformed) == 6 and tracker._kept == 0
    assert tracker._bands is buffer
    assert all(bands is buffer for bands in beamformed)


def test_tracker_posterior_does_not_depend_on_the_chunking():
    """Random chunkings (pieces shorter than a frame, whole frames, pieces
    off the frame grid) give the posterior of one feed of the whole signal
    bit for bit, and every feed works in the same one-frame band buffer."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    piece = st.one_of(st.integers(1, FRAME - 1), st.integers(1, 3).map(lambda k: k * FRAME),
                      st.integers(1, 3 * FRAME))

    @hyp.settings(max_examples=20, deadline=None, database=None)
    @hyp.given(
        num_bands=st.sampled_from([8, 32]),
        pieces=st.lists(piece, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(num_bands, pieces, seed):
        cuts = np.cumsum([0] + pieces)
        x = np.random.default_rng(seed).standard_normal((2, cuts[-1]))
        tracker = fe.AzimuthTracker(num_bands)
        buffer = tracker._bands
        assert buffer.shape == (num_bands, 2, FRAME)
        for a, b in zip(cuts[:-1], cuts[1:]):
            tracker.feed(x[:, a:b])
            assert tracker._bands is buffer
        assert tracker._kept == cuts[-1] % FRAME
        whole = fe.AzimuthTracker(num_bands).feed(x)
        assert np.array_equal(tracker.posterior.probs, whole.probs)

    check()


def test_tracker_memory_does_not_grow_with_the_chunk():
    """Feeding a fresh 32-band tracker one 2 s chunk peaks within 1 MB of
    feeding it 0.1 s: the band memory is one frame, not the chunk."""
    rng = np.random.default_rng(5)
    fe.AzimuthTracker(32).feed(rng.standard_normal((2, FRAME)))  # fill the caches
    peaks = []
    for n in (FRAME, 20 * FRAME):
        chunk = rng.standard_normal((2, n))
        tracker = fe.AzimuthTracker(32)
        tracemalloc.start()
        try:
            tracker.feed(chunk)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


def test_tracker_rejects_an_empty_chunk():
    tracker = fe.AzimuthTracker(8)
    with pytest.raises(DomainError, match="at least one sample"):
        tracker.feed(np.zeros((2, 0)))
    assert tracker._kept == 0
    assert np.array_equal(tracker.posterior.probs, fe.uniform_posterior().probs)
