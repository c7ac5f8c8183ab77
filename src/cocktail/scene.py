"""Deterministic acoustic and visual world simulation for a desk-scale binaural head.

The simulator renders what a two-microphone head would record from a set of
seated speakers (interaural time difference via a Woodworth spherical head,
a frequency-independent interaural level difference, and an elevation-dependent
spectral notch), together with the visual side of the scene: face positions
on a coarse camera grid and a slow "mouth area" series per speaker.

All randomness is derived from explicit seeds through per-block seed sequences
keyed on absolute sample indices, so rendering is bit-reproducible and
streaming-consistent: rendering ``[0, 2 s)`` in twenty 0.1 s chunks produces
the same source waveforms as one 2 s call.  A render from time zero is a
bit-exact prefix of any longer render from zero; a render that starts later
agrees with the same span of a longer one to rounding (see
:func:`render_binaural`), because only the notch filter restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.signal import iirnotch, lfilter

from .errors import DomainError

SAMPLE_RATE = 48000
HEAD_RADIUS_M = 0.0875
SPEED_OF_SOUND_M_S = 343.0

PAN_LIMIT_DEG = 80.0
TILT_LIMIT_DEG = 30.0
STEP_DEG = 5.0

FOV_AZIMUTH_DEG = 30.0
FOV_ELEVATION_DEG = 20.0
GRID_W = 32
GRID_H = 24

MOUTH_RATE_HZ = 10

ILD_HALF_DB = 1.5  # per-ear gain; the full left/right difference is twice this
NOTCH_CENTER_HZ = 7500.0  # notch frequency at zero relative elevation
NOTCH_HZ_PER_DEG = 50.0  # 6 kHz at -30 deg ... 9 kHz at +30 deg
NOTCH_Q = 3.0

ACTIONS = ("none", "left", "up", "down", "right")

_BLOCK = 4800  # seeding granularity for random streams (0.1 s at 48 kHz)
_JITTER_BLOCK = 10  # seeding granularity of the mouth jitter (1 s at 10 Hz)
_DELAY_MARGIN = 64  # samples of context kept around a render window for delays
_FILTER_MARGIN = 256  # warm-up samples discarded ahead of the notch filter
_STREAM_CARRIER = 1
_STREAM_NOISE = 2
_STREAM_JITTER = 3
#: Block length and one block's draw for each seeded stream kind.
_STREAM_KINDS = {
    _STREAM_CARRIER: (_BLOCK, lambda rng: rng.uniform(-1.0, 1.0, _BLOCK)),
    _STREAM_NOISE: (_BLOCK, lambda rng: rng.normal(0.0, 1.0, (2, _BLOCK))),
    _STREAM_JITTER: (_JITTER_BLOCK, lambda rng: rng.normal(0.0, 1.0, _JITTER_BLOCK)),
}


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeechSource:
    """Seeded generative process for one speaker's speech waveform.

    The waveform is white noise multiplied by a positive band-limited
    modulator (a seeded sum of cosines in ``modulation_band``); the modulator
    doubles as the ground-truth speech envelope.
    """

    seed: int = 0
    modulation_band: tuple[float, float] = (0.5, 8.0)

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"speech seed must be nonnegative, got {self.seed}")
        lo, hi = self.modulation_band
        if not (0.5 <= lo < hi <= 16.0):
            raise DomainError(
                f"modulation band {self.modulation_band} outside the (0.5, 16) Hz syllabic range"
            )


@dataclass(frozen=True)
class SpeakerSpec:
    """A seated speaker: world direction, speech process, and mouth geometry."""

    id: int
    azimuth_world: float
    elevation_world: float
    speech: SpeechSource = field(default_factory=SpeechSource)
    mouth_gain: float = 1.0
    mouth_baseline: float = 0.5

    def __post_init__(self):
        if self.id < 0:
            raise DomainError(f"speaker id must be nonnegative, got {self.id}")
        if not -90.0 <= self.azimuth_world <= 90.0:
            raise DomainError(f"azimuth_world {self.azimuth_world} outside [-90, 90]")
        if not -30.0 <= self.elevation_world <= 30.0:
            raise DomainError(f"elevation_world {self.elevation_world} outside [-30, 30]")
        if self.mouth_gain <= 0:
            raise DomainError("mouth_gain must be > 0")
        if self.mouth_baseline < 0:
            raise DomainError("mouth_baseline must be >= 0")


@dataclass(frozen=True)
class TurnSchedule:
    """Who speaks when: sorted, non-overlapping ``(start_s, end_s, speaker_id)``.

    ``speaker_id`` of ``None`` marks silence. Segments must tile the schedule
    span contiguously.
    """

    segments: tuple[tuple[float, float, int | None], ...]

    def __post_init__(self):
        segs = tuple((float(s), float(e), i) for s, e, i in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise DomainError("schedule needs at least one segment")
        prev_end = None
        for start, end, _ in segs:
            if end <= start:
                raise DomainError(f"empty or inverted segment ({start}, {end})")
            if prev_end is not None and abs(start - prev_end) > 1e-9:
                raise DomainError("schedule segments must be contiguous and sorted")
            prev_end = end

    def active_at(self, t):
        """Speaker id active at time ``t``, or ``None`` during silence."""
        for start, end, sid in self.segments:
            if start <= t < end:
                return sid
        return None


@dataclass(frozen=True)
class Scene:
    """Complete scene description: speakers, turn-taking, and noise floor."""

    speakers: tuple[SpeakerSpec, ...]
    schedule: TurnSchedule
    noise_level: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "speakers", tuple(self.speakers))
        if self.noise_level < 0:
            raise DomainError("noise_level must be >= 0")
        ids = [s.id for s in self.speakers]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate speaker ids")
        known = set(ids)
        for _, _, sid in self.schedule.segments:
            if sid is not None and sid not in known:
                raise DomainError(f"schedule references unknown speaker id {sid}")

    def speaker(self, sid):
        for s in self.speakers:
            if s.id == sid:
                return s
        raise DomainError(f"no speaker with id {sid}")


@dataclass(frozen=True)
class HeadPose:
    """Head pan/tilt in degrees, clamped to the motor limits on construction."""

    pan: float
    tilt: float

    def __post_init__(self):
        object.__setattr__(self, "pan", float(np.clip(self.pan, -PAN_LIMIT_DEG, PAN_LIMIT_DEG)))
        object.__setattr__(self, "tilt", float(np.clip(self.tilt, -TILT_LIMIT_DEG, TILT_LIMIT_DEG)))


def as_stereo(audio) -> np.ndarray:
    """``audio`` as a finite float64 ``(2, n)`` array, left ear first, or DomainError."""
    x = np.asarray(audio, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != 2:
        raise DomainError(f"stereo audio must have shape (2, n), got {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError("stereo audio contains non-finite samples")
    return x


@dataclass(frozen=True)
class BinauralClip:
    """Two-channel sample buffer at 48 kHz: ``audio`` is ``(2, n)``, left ear first."""

    audio: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "audio", as_stereo(self.audio))

    @property
    def left(self) -> np.ndarray:
        """The left-ear row of :attr:`audio`, a view."""
        return self.audio[0]

    @property
    def right(self) -> np.ndarray:
        """The right-ear row of :attr:`audio`, a view."""
        return self.audio[1]


# ---------------------------------------------------------------------------
# Seeded random streams (block-partitioned for streaming consistency)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _seeded_block(key, b):
    """Block ``b`` of the random stream ``key``, read-only.

    The block is drawn from ``SeedSequence(key + (b,))`` alone, so any
    window of the stream can be reproduced without generating its prefix,
    and its length and distribution come from the stream kind ``key[1]``,
    an entry of ``_STREAM_KINDS``.  The cache holds what one 0.1 s step
    reads, three carrier blocks and a jitter block, so a render reuses the
    two carrier blocks under the margin it shares with the one before it.
    """
    draw = _STREAM_KINDS[key[1]][1]
    block = draw(np.random.default_rng(np.random.SeedSequence(key + (b,))))
    block.flags.writeable = False
    return block


def _stream(key, n0, n1):
    """Samples ``[n0, n1)`` of an absolute-indexed random stream, ``n1 >= 0``,
    cut from its :func:`_seeded_block` blocks.

    Negative indices (before the start of time) yield zeros.  An empty
    window still draws the block it starts in, which gives the result its
    shape.  Noise blocks bypass the cache: no two renders of an episode
    share one, so caching them would only evict the blocks that are shared.
    """

    block = _STREAM_KINDS[key[1]][0]
    block_at = _seeded_block.__wrapped__ if key[1] == _STREAM_NOISE else _seeded_block
    pad0 = max(0, -n0)
    n0 += pad0
    b0 = n0 // block
    b1 = max(-(-n1 // block), b0 + 1)
    parts = [block_at(key, b) for b in range(b0, b1)]
    chunk = np.concatenate(parts, axis=-1)[..., n0 - b0 * block : n1 - b0 * block]
    if pad0:
        chunk = np.concatenate([np.zeros(chunk.shape[:-1] + (pad0,)), chunk], axis=-1)
    return chunk


@lru_cache(maxsize=256)
def _modulator_params(source):
    """Frequencies, amplitudes, and phases of the cosine-sum modulator."""
    rng = np.random.default_rng(np.random.SeedSequence([int(source.seed), 0xA11]))
    k = 8
    lo, hi = source.modulation_band
    freqs = rng.uniform(lo, hi, k)
    amps = rng.uniform(0.5, 1.0, k)
    phases = rng.uniform(0.0, 2.0 * np.pi, k)
    return freqs, amps, phases


def source_envelope(source, times):
    """Ground-truth speech envelope of a source at the given times (seconds).

    This is the positive modulator itself, a value in ``[0.05, 0.95]``.
    """

    times = np.asarray(times, dtype=np.float64)
    freqs, amps, phases = _modulator_params(source)
    ridge = np.sum(
        amps[:, None] * np.cos(2.0 * np.pi * freqs[:, None] * times[None, :] + phases[:, None]),
        axis=0,
    )
    return 0.05 + 0.9 * (1.0 + ridge / np.sum(amps)) / 2.0


@lru_cache(maxsize=4)
def _modulator_table(source):
    """``[cos(w_k r); sin(w_k r)]`` for each modulator component ``k`` and
    offset ``r`` in one block, ``w_k = 2 pi f_k / fs``: a ``(16, _BLOCK)``
    array, 0.6 MB, so the cache holds only a few sources."""
    freqs, _, _ = _modulator_params(source)
    w = 2.0 * np.pi * freqs[:, None] * np.arange(_BLOCK) / SAMPLE_RATE
    return np.concatenate([np.cos(w), np.sin(w)])


@lru_cache(maxsize=4)
def _ridge_block(source, b):
    """The modulator's cosine sum over block ``b``, read-only.

    Each component is ``a_k cos(theta_k + w_k r)`` at offset ``r`` into a
    block whose start phase is ``theta_k``, so the block is the dot product
    of one coefficient per component, ``(a_k cos theta_k, -a_k sin
    theta_k)``, with the cached :func:`_modulator_table`.  Like
    :func:`_seeded_block`, the cache holds the blocks one 0.1 s step reads.
    """
    freqs, amps, phases = _modulator_params(source)
    theta = 2.0 * np.pi * freqs * (b * _BLOCK / SAMPLE_RATE) + phases
    block = np.dot(np.concatenate([amps * np.cos(theta), -amps * np.sin(theta)]),
                   _modulator_table(source))
    block.flags.writeable = False
    return block


def _modulator(source, n0, n1):
    """:func:`source_envelope` at samples ``[n0, n1)`` (times ``n / fs``),
    evaluated block by block from :func:`_ridge_block`.  Every block is
    computed alone, so any window of the modulator reproduces the same
    samples bit for bit.
    """
    amps = _modulator_params(source)[1]
    b0, b1 = n0 // _BLOCK, -(-n1 // _BLOCK)
    parts = [_ridge_block(source, b) for b in range(b0, b1)]
    ridge = np.concatenate(parts)[n0 - b0 * _BLOCK : n1 - b0 * _BLOCK]
    return 0.05 + 0.9 * (1.0 + ridge / np.sum(amps)) / 2.0


def _source_samples(source, render_seed, speaker_id, n0, n1):
    """Raw speech waveform samples ``[n0, n1)`` for one speaker."""
    carrier = _stream((int(render_seed), _STREAM_CARRIER, int(speaker_id)), n0, n1)
    return _modulator(source, n0, n1) * carrier


# ---------------------------------------------------------------------------
# Acoustics
# ---------------------------------------------------------------------------


def itd_for_azimuth(azimuth_rel):
    """Interaural time difference (seconds) for a relative azimuth in degrees.

    Uses the Woodworth spherical-head model ``(a/c) * (sin(theta) + theta)``
    with head radius 0.0875 m and c = 343 m/s. Positive azimuth (source to the
    right) delays the left channel, giving a positive ITD.
    """

    if not -90.0 <= azimuth_rel <= 90.0:
        raise DomainError(f"azimuth {azimuth_rel} outside [-90, 90]")
    theta = math.radians(azimuth_rel)
    return (HEAD_RADIUS_M / SPEED_OF_SOUND_M_S) * (math.sin(theta) + theta)


def fold_azimuth(azimuth_rel):
    """Mirror a head-relative azimuth into the frontal [-90, 90] range.

    A two-microphone head cannot distinguish front from back, so sources that
    drift behind the interaural axis are rendered at their frontal mirror
    image (e.g. 120 deg renders as 60 deg).
    """

    if azimuth_rel > 90.0:
        return 180.0 - azimuth_rel
    if azimuth_rel < -90.0:
        return -180.0 - azimuth_rel
    return azimuth_rel


def _fractional_delay_gather(extended, ext_start, out_start, out_len, delay):
    """``y[n] = x[n - delay]`` for ``n`` in ``[out_start, out_start + out_len)``.

    ``extended`` holds samples ``[ext_start, ...)`` of the source, with enough
    margin on both sides for the delay; linear interpolation between adjacent
    samples realizes fractional delays.  Positions are taken on the absolute
    sample index, so every window of the output interpolates its samples
    with the same weights, wherever ``extended`` starts.
    """

    if delay == 0:
        # Interpolating at weight 0 gives ``1 * x[n] + 0 * x[n + 1]``, the
        # same samples bit for bit.
        return extended[out_start - ext_start : out_start - ext_start + out_len]
    frac = np.arange(out_start, out_start + out_len) - delay
    base = np.floor(frac)
    frac -= base
    base = base.astype(np.intp)
    base -= ext_start
    return (1.0 - frac) * extended[base] + frac * extended[base + 1]


@lru_cache(maxsize=512)
def _notch_coeffs(freq_hz):
    """Design (and cache) the elevation notch; poses repeat on a 5 deg lattice."""
    return iirnotch(freq_hz, NOTCH_Q, fs=SAMPLE_RATE)


def render_binaural(scene, pose, t0, duration, seed):
    """Render what the two microphones record over ``[t0, t0 + duration)``.

    Each active speaker's waveform is delayed per :func:`itd_for_azimuth` of
    its pose-relative azimuth, split across ears by a +/-1.5 dB x sin(azimuth)
    level difference, notch-filtered at an elevation-dependent frequency, and
    summed; seeded white noise at ``noise_level`` RMS is added to both
    channels. Returns a :class:`BinauralClip`; deterministic for fixed
    arguments.

    Every sample depends only on the source and noise streams at absolute
    sample indices and on the notch filter's past input, so a render from
    ``t0 = 0`` is a bit-exact prefix of any longer render from zero.  A
    render from ``t0 > 0`` starts the filter from zero state
    ``_FILTER_MARGIN`` samples early, so it matches the same span of a
    render begun earlier only to rounding: within a few units in the last
    place of the clip's peak while no speaker sits more than 15 degrees
    below the head's tilt.  Lower speakers move the notch down and narrow
    it, so its warm-up leaves a few parts in 1e12 of the peak at -60
    degrees.

    Carrier and modulator blocks are memoized by their stream and index,
    so a render reuses the blocks the previous render shares with it; the
    clip is the same bit for bit.
    """

    if duration <= 0:
        raise DomainError("duration must be > 0")
    if t0 < 0:
        raise DomainError("t0 must be >= 0")
    n0 = int(round(t0 * SAMPLE_RATE))
    n = int(round(duration * SAMPLE_RATE))
    out = np.zeros((2, n))

    for start, end, sid in scene.schedule.segments:
        if sid is None:
            continue
        seg0 = int(round(start * SAMPLE_RATE))
        seg1 = int(round(end * SAMPLE_RATE))
        i0, i1 = max(n0, seg0), min(n0 + n, seg1)
        if i1 <= i0:
            continue
        speaker = scene.speaker(sid)
        rel_az = fold_azimuth(speaker.azimuth_world - pose.pan)
        rel_el = speaker.elevation_world - pose.tilt

        delay = itd_for_azimuth(rel_az) * SAMPLE_RATE
        ext0 = i0 - _FILTER_MARGIN - _DELAY_MARGIN
        ext1 = i1 + _DELAY_MARGIN
        sig = _source_samples(speaker.speech, seed, sid, ext0, ext1)
        # The speaker only sounds during its turn.
        sig[: max(seg0 - ext0, 0)] = 0.0
        sig[seg1 - ext0 :] = 0.0

        y0 = i0 - _FILTER_MARGIN
        left = _fractional_delay_gather(sig, ext0, y0, i1 - y0, max(delay, 0.0))
        right = _fractional_delay_gather(sig, ext0, y0, i1 - y0, max(-delay, 0.0))

        half_db = ILD_HALF_DB * math.sin(math.radians(rel_az))
        ears = np.stack([left * 10.0 ** (-half_db / 20.0), right * 10.0 ** (half_db / 20.0)])

        b, a = _notch_coeffs(NOTCH_CENTER_HZ + NOTCH_HZ_PER_DEG * rel_el)
        ears = lfilter(b, a, ears, axis=-1)

        out[:, i0 - n0 : i1 - n0] += ears[:, _FILTER_MARGIN:]

    if scene.noise_level > 0:
        noise = _stream((int(seed), _STREAM_NOISE), n0, n0 + n)
        # A level near the float limit overflows to inf here; the clip's
        # finiteness check turns that into a DomainError.
        with np.errstate(over="ignore"):
            out += scene.noise_level * noise
    return BinauralClip(out)


# ---------------------------------------------------------------------------
# Vision and kinematics
# ---------------------------------------------------------------------------


def _grid_position(rel_az, rel_el):
    gx = round((rel_az + FOV_AZIMUTH_DEG) / (2 * FOV_AZIMUTH_DEG) * (GRID_W - 1))
    gy = round((rel_el + FOV_ELEVATION_DEG) / (2 * FOV_ELEVATION_DEG) * (GRID_H - 1))
    return int(gx), int(gy)


def observe_visual(scene, pose):
    """Project the scene's faces into the head's field of view.

    A speaker is visible iff its pose-relative azimuth is within +/-30 deg and
    its relative elevation within +/-20 deg.  Returns one ``(speaker_id, gx,
    gy)`` tuple per visible face, where ``(gx, gy)`` is the linear mapping of
    its relative angles onto the 32x24 camera grid.
    """

    visible = []
    for speaker in scene.speakers:
        rel_az = speaker.azimuth_world - pose.pan
        rel_el = speaker.elevation_world - pose.tilt
        if abs(rel_az) > FOV_AZIMUTH_DEG or abs(rel_el) > FOV_ELEVATION_DEG:
            continue
        visible.append((speaker.id, *_grid_position(rel_az, rel_el)))
    return tuple(visible)


def mouth_area_signal(speaker, schedule, t0, duration, seed=0):
    """Sampled mouth-area measurement for one speaker at 10 Hz.

    While the speaker is active the area follows
    ``baseline + gain * envelope(t)``; while silent it sits at the baseline.
    Seeded zero-mean jitter with standard deviation ``0.05 * gain`` models
    measurement noise. Samples are taken at block centers
    ``t0 + (k + 0.5) / 10`` so they align with block-mean resampled audio
    envelopes.  Jitter blocks are memoized like render blocks, so a call
    reuses the block the previous call drew.
    """

    if duration <= 0:
        raise DomainError("duration must be > 0")
    if t0 < 0:
        raise DomainError("t0 must be >= 0")
    n = int(round(duration * MOUTH_RATE_HZ))
    times = t0 + (np.arange(n) + 0.5) / MOUTH_RATE_HZ
    env = source_envelope(speaker.speech, times)
    active = np.zeros(n, dtype=bool)
    for start, end, sid in schedule.segments:
        if sid == speaker.id:
            active |= (times >= start) & (times < end)
    areas = speaker.mouth_baseline + speaker.mouth_gain * env * active
    # Jitter uses its own 10-sample blocks at the mouth rate so that per-step
    # calls reproduce the same stream as one long call.
    k0 = int(round(t0 * MOUTH_RATE_HZ))
    noise = _stream((int(seed), _STREAM_JITTER, int(speaker.id)), k0, k0 + n)
    return times, areas + 0.05 * speaker.mouth_gain * noise


def step_head(pose, action):
    """Apply one head action (5 degree step) and clamp to the motor limits."""
    if action not in ACTIONS:
        raise DomainError(f"unknown action {action!r}")
    pan, tilt = pose.pan, pose.tilt
    if action == "left":
        pan -= STEP_DEG
    elif action == "right":
        pan += STEP_DEG
    elif action == "up":
        tilt += STEP_DEG
    elif action == "down":
        tilt -= STEP_DEG
    return HeadPose(pan, tilt)
