"""Early auditory localization: gammatone analysis, beamforming, azimuth posterior.

The frontend mimics the first stages of biological hearing: each channel is
decomposed by a bank of fourth-order gammatone filters on the ERB scale
(Slaney's all-pole digital approximation), a bank of delay-and-sum
beamformers scans candidate azimuths via the interaural time difference of
each bin, and per-frame beamformer energies are folded into a sequential
Bayesian posterior over a 37-bin azimuth map.

``beamform_salience`` takes one ``FRAME_S`` frame of band signals.  It
steers each beam by splitting the bin's ITD across the two channels (left
advanced by half the lag, right retarded by half) and sums the zero-padded
frame over its full overlap::

    E(d) = sum_n (L[n + d/2] + R[n - d/2])^2

Rather than materializing 37 delayed copies of every band, the energy is
expanded algebraically: the squared terms reduce to two frame sums (signal
energy and one-sample autocovariance, combined by the interpolation
weights), and the cross term is gathered from the frame's band-summed
cross-correlation at a few dozen lags, computed by one batched FFT of frame
length.  The tracker's frames step by one frame and do not overlap, so each
sample is analyzed once.  The result matches brute-force delay-and-sum to
rounding error, and channel swap maps exactly onto lag negation.

The per-band work runs on ``min(2, usable CPUs)`` threads: the caller and
one helper thread filter the bands (:func:`_on_two_threads`), and the
forward FFT splits its rows over as many of scipy's FFT worker threads.
Each band, channel and FFT row is computed alone and everything summed
over bands stays on the caller, so no output depends on the thread count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as sfft
from scipy.signal import sosfilt, sosfreqz

try:
    # Low-level second-order-section filter kernel: the same C routine the
    # public sosfilt wraps, minus its per-call argument shuffling.  The
    # streaming path calls it thousands of times on short chunks, where that
    # overhead dominates; results are bit-identical either way (the public
    # route below remains as a fallback and correctness reference).
    from scipy.signal._sosfilt import _sosfilt as _sosfilt_kernel
except ImportError:
    _sosfilt_kernel = None

from .errors import DomainError
from .scene import SAMPLE_RATE, as_stereo, itd_for_azimuth

NUM_BANDS = 32
FREQ_LO_HZ = 100.0
FREQ_HI_HZ = 8000.0

#: The one azimuth grid: 37 bin centers (degrees) at 5 degree pitch, read by
#: the beamformers, the posterior and the location estimate.
AZIMUTH_BINS = np.arange(-90.0, 91.0, 5.0)
AZIMUTH_BINS.flags.writeable = False
#: Length of one analysis frame; frames step by one frame and do not overlap.
FRAME_S = 0.1
_FRAME = int(round(FRAME_S * SAMPLE_RATE))
DECAY_LAMBDA = 0.9
TEMPERATURE_TAU = 0.2

_EAR_Q = 9.26449
_MIN_BW = 24.7


# ---------------------------------------------------------------------------
# Two threads
# ---------------------------------------------------------------------------


def _thread_count():
    """Threads the per-band work runs on: ``min(2, usable CPUs)``, where the
    usable CPUs are those the process may run on."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return min(2, usable)


_helper = None
_helper_lock = threading.Lock()


def _drop_helper():
    """In a forked child the helper thread is gone, yet its executor would
    still count it and queue work for it forever; the child starts afresh."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, hence no hook, on Windows
    os.register_at_fork(after_in_child=_drop_helper)


def _on_two_threads(work, n):
    """Run ``work(lo, hi)`` over the index range ``0 .. n``.

    With two usable CPUs one persistent helper thread, made on first use,
    runs ``work(n // 2, n)`` while the caller runs ``work(0, n // 2)``; the
    caller returns once both are done and re-raises the helper's exception.
    With one CPU the caller runs ``work(0, n)`` alone.  ``work`` must touch
    disjoint data in the two halves; each half then computes what a serial
    run would, so no result depends on the thread count.
    """
    global _helper
    if _thread_count() < 2:
        work(0, n)
        return
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cocktail-frontend")
        future = _helper.submit(work, n // 2, n)
    try:
        work(0, n // 2)
    finally:
        future.result()


def erb_space(n):
    """``n`` center frequencies equally spaced on the ERB scale, ascending.

    Uses the Glasberg-Moore ERB parameters (EarQ 9.26449, minBW 24.7). The
    lowest frequency equals ``FREQ_LO_HZ``; the highest stays below
    ``FREQ_HI_HZ``.
    """

    qb = _EAR_Q * _MIN_BW
    cf = -qb + np.exp(
        np.arange(1, n + 1) * (-np.log(FREQ_HI_HZ + qb) + np.log(FREQ_LO_HZ + qb)) / n
    ) * (FREQ_HI_HZ + qb)
    return cf[::-1].copy()


def _slaney_sos(cf):
    """Second-order sections for Slaney's all-pole gammatone, one filter per cf.

    Each filter is four cascaded two-pole sections sharing the same poles but
    with different real zeros; the overall gain is folded into the first
    section. Returns an ``(n_bands, 4, 6)`` array in scipy's sos layout.
    """

    cf = np.asarray(cf, dtype=np.float64)
    T = 1.0 / SAMPLE_RATE
    erb = cf / _EAR_Q + _MIN_BW
    B = 1.019 * 2.0 * np.pi * erb

    cos_t = np.cos(2.0 * cf * np.pi * T)
    sin_t = np.sin(2.0 * cf * np.pi * T)
    exp_bt = np.exp(B * T)
    b1 = -2.0 * cos_t / exp_bt
    b2 = np.exp(-2.0 * B * T)

    r_plus = np.sqrt(3.0 + 2.0**1.5)
    r_minus = np.sqrt(3.0 - 2.0**1.5)
    a1 = [
        -(2.0 * T * cos_t / exp_bt + 2.0 * r * T * sin_t / exp_bt) / 2.0
        for r in (r_plus, -r_plus, r_minus, -r_minus)
    ]

    z = np.exp(4.0j * cf * np.pi * T)
    w = np.exp(-(B * T) + 2.0j * cf * np.pi * T)
    gain = np.abs(
        (-2.0 * z * T + 2.0 * w * T * (cos_t - r_minus * sin_t))
        * (-2.0 * z * T + 2.0 * w * T * (cos_t + r_minus * sin_t))
        * (-2.0 * z * T + 2.0 * w * T * (cos_t - r_plus * sin_t))
        * (-2.0 * z * T + 2.0 * w * T * (cos_t + r_plus * sin_t))
        / (-2.0 / np.exp(2.0 * B * T) - 2.0 * z + 2.0 * (1.0 + z) / exp_bt) ** 4
    )

    sos = np.zeros((len(cf), 4, 6))
    for k in range(4):
        sos[:, k, 0] = T
        sos[:, k, 1] = a1[k]
        sos[:, k, 3] = 1.0
        sos[:, k, 4] = b1
        sos[:, k, 5] = b2
    sos[:, 0, :3] /= gain[:, None]
    return sos


@dataclass(frozen=True)
class GammatoneBank:
    """An ERB-spaced bank of fourth-order gammatone filters at 48 kHz."""

    center_freqs: np.ndarray
    sos: np.ndarray

    @property
    def num_bands(self):
        return len(self.center_freqs)


@lru_cache(maxsize=8)
def make_gammatone_bank(num_bands=NUM_BANDS):
    """Design (and cache) a gammatone bank over 100 Hz .. 8 kHz."""
    cf = erb_space(num_bands)
    return GammatoneBank(center_freqs=cf, sos=_slaney_sos(cf))


class GammatoneStream:
    """Chunk-wise stereo gammatone analysis that carries filter state between
    calls.

    Feeding a ``(2, n)`` signal through :meth:`process` in pieces produces
    exactly the band signals of filtering each whole channel at once, which
    lets the agent analyze audio step by step without re-filtering history.
    """

    def __init__(self, bank):
        self.bank = bank
        # State layout (bands, channels, sections, 2) matches the low-level
        # filter kernel; the public-API fallback transposes as needed.
        self._zi = np.zeros((bank.num_bands, 2, bank.sos.shape[1], 2))

    def process(self, x, out=None):
        """Filter one ``(2, n)`` chunk; returns ``(num_bands, 2, n)`` band signals.

        With ``out``, a ``(num_bands, 2, n)`` float64 array whose last axis is
        contiguous (such as a span of :class:`AzimuthTracker`'s one-frame
        band buffer), the bands are filtered in place there and ``out`` is
        returned; the result is the same bit for bit.  The filter kernel runs
        on each band's one-channel ``(1, n)`` rows, which are C-contiguous in
        any such array.

        When two CPUs are usable a helper thread filters bands ``nb // 2 ..``
        while the caller filters the rest (:func:`_on_two_threads`).  Each
        band and channel keeps its own filter state and SciPy's filter
        releases the interpreter lock, so the bits are those of one thread.
        """
        x = as_stereo(x)
        if x.shape[1] == 0:
            raise DomainError("chunk must hold at least one sample")
        shape = (self.bank.num_bands,) + x.shape
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64 or out.strides[-1] != 8:
            raise DomainError(f"out must be a float64 {shape} array, contiguous along time")
        sos, zi = self.bank.sos, self._zi

        def filter_bands(lo, hi):
            for b in range(lo, hi):
                if _sosfilt_kernel is not None:
                    for c in range(2):
                        row = out[b, c : c + 1]
                        row[...] = x[c : c + 1]
                        _sosfilt_kernel(sos[b], row, zi[b, c : c + 1])
                else:
                    y, zf = sosfilt(sos[b], x, axis=-1, zi=np.moveaxis(zi[b], 0, 1))
                    out[b] = y
                    zi[b] = np.moveaxis(zf, 1, 0)

        _on_two_threads(filter_bands, self.bank.num_bands)
        return out


@lru_cache(maxsize=32)
def band_weights(n_rfft):
    """``|H_b(f)|^2`` of each 32-band gammatone filter on an ``n_rfft``-point
    rfft grid.

    Used to evaluate band energies spectrally (Parseval) without running the
    filters, e.g. for interaural level difference features.
    """

    bank = make_gammatone_bank()
    freqs = np.linspace(0.0, SAMPLE_RATE / 2.0, n_rfft)
    weights = np.empty((bank.num_bands, n_rfft))
    for b in range(bank.num_bands):
        _, h = sosfreqz(bank.sos[b], worN=freqs, fs=SAMPLE_RATE)
        weights[b] = np.abs(h) ** 2
    return weights


# ---------------------------------------------------------------------------
# Beamformer bank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamformerBank:
    """Delay-and-sum beamformers, one per :data:`AZIMUTH_BINS` bin.

    ``lags`` holds each bin's ITD in (fractional) samples; ``max_lag`` bounds
    the integer padding needed for the cross-correlation.  A beam samples the
    left channel at ``n + lag/2`` and the right at ``n - lag/2`` by linear
    interpolation, so its energy over a frame is a weighted sum of the
    frame's sums: ``self_weights[c]`` weigh channel ``c``'s energy and
    one-sample autocovariance, and ``cross_weights`` the cross-correlation
    at lags ``shift``, ``shift - 1``, ``shift + 1`` and ``shift``, where
    ``shift`` is the integer part of the lag between the two sample points.
    """

    lags: np.ndarray
    max_lag: int
    shift: np.ndarray
    self_weights: np.ndarray
    cross_weights: np.ndarray


@lru_cache(maxsize=1)
def make_beamformer_bank():
    lags = np.array([itd_for_azimuth(a) for a in AZIMUTH_BINS]) * SAMPLE_RATE
    dl, dr = lags / 2.0, -lags / 2.0
    il, ir = np.floor(dl).astype(int), np.floor(dr).astype(int)
    wl, wr = dl - il, dr - ir
    return BeamformerBank(
        lags=lags,
        max_lag=int(np.ceil(np.max(np.abs(lags)))) + 2,
        shift=il - ir,
        self_weights=np.array([[(1 - wl) ** 2 + wl**2, 2 * wl * (1 - wl)],
                               [(1 - wr) ** 2 + wr**2, 2 * wr * (1 - wr)]]),
        cross_weights=np.array([(1 - wl) * (1 - wr), (1 - wl) * wr, wl * (1 - wr), wl * wr]),
    )


#: FFT length of :func:`beamform_salience`'s cross-correlation, which is read
#: at lag indices ``0 .. 2 max_lag + 3`` only: ``FRAME + 2 max_lag + 4`` or
#: more keeps every read clear of the circularly wrapped tail.
_NFFT = sfft.next_fast_len(_FRAME + 2 * (make_beamformer_bank().max_lag + 2), real=True)


@lru_cache(maxsize=4)
def _transform_buffer(nb):
    """The ``(2 nb, _NFFT)`` FFT input of :func:`beamform_salience`, shared
    by every call with ``nb`` bands: rows ``0 .. nb - 1`` hold L shifted
    right by ``k0``, rows ``nb ..`` hold R.  Each frame overwrites only those
    spans, so the zero padding around them is laid down once per process.
    Sharing it is safe because the program calls :func:`beamform_salience`
    from one thread.  That thread fills the buffer; the forward transform
    splits the rows over ``_thread_count()`` pocketfft threads, which only
    read it and are done before the call returns."""
    return np.zeros((2 * nb, _NFFT))


def beamform_salience(frame):
    """Azimuth salience of one ``FRAME_S`` frame of stereo band signals.

    ``frame`` has shape ``(num_bands, 2, FRAME)``, as :class:`AzimuthTracker`
    fills its band buffer; any other shape raises :class:`DomainError`.  For
    every azimuth bin the left bands are delayed by the bin's ITD (linear
    interpolation for fractional lags) and summed with the right bands; the
    energy summed over bands, clamped at zero against rounding and
    normalized to the frame maximum, is the salience (all zero for a silent
    frame).  Returns shape ``(1, 37)``, one row for the frame.
    """

    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 3 or frame.shape[1:] != (2, _FRAME):
        raise DomainError(f"frame must have shape (num_bands, 2, {_FRAME}), got {frame.shape}")
    nb = frame.shape[0]
    lf, rf = frame[:, 0], frame[:, 1]

    # The energy summed over bands is linear in each band's sums, so every
    # term is summed over bands first.  Full-overlap sums of the
    # interpolated shifted squares are independent of the integer part of
    # the shift: they need only the energy and the one-sample autocovariance.
    sa_l, sb_l = np.einsum("bn,bn->", lf, lf), np.einsum("bn,bn->", lf[:, :-1], lf[:, 1:])
    sa_r, sb_r = np.einsum("bn,bn->", rf, rf), np.einsum("bn,bn->", rf[:, :-1], rf[:, 1:])

    # cc[k0 + q] = sum_b sum_n L_b[n + q] R_b[n], read at lags q in [-k0, k0 + 1].
    bank = make_beamformer_bank()
    k0 = bank.max_lag + 1
    stacked = _transform_buffer(nb)
    stacked[:nb, k0 : k0 + _FRAME] = lf
    stacked[nb:, :_FRAME] = rf
    # pocketfft transforms each row alone, so splitting the rows between
    # threads leaves every bit in place.  The band sum and everything after
    # it stay on the caller, in one order, to keep the rounding fixed.
    spec = sfft.rfft(stacked, axis=1, workers=_thread_count())
    cc = sfft.irfft((spec[:nb] * np.conj(spec[nb:])).sum(axis=0), _NFFT)

    (a_l, b_l), (a_r, b_r) = bank.self_weights
    c0, cm, cp, c1 = bank.cross_weights
    at = k0 + bank.shift
    mid = cc[at]
    s_ll = a_l * sa_l + b_l * sb_l
    s_rr = a_r * sa_r + b_r * sb_r
    s_lr = c0 * mid + cm * cc[at - 1] + cp * cc[at + 1] + c1 * mid

    total = np.maximum(s_ll + 2.0 * s_lr + s_rr, 0.0)[None]
    peak = total.max()
    return total / peak if peak > 0 else np.zeros_like(total)


# ---------------------------------------------------------------------------
# Bayesian azimuth posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AzimuthPosterior:
    """Normalized probability vector over the 37 :data:`AZIMUTH_BINS`."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.shape != AZIMUTH_BINS.shape:
            raise DomainError(f"posterior needs {len(AZIMUTH_BINS)} bins, got shape {probs.shape}")
        # Written so that a NaN entry fails the test rather than passing it.
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
            raise DomainError("posterior must be a finite, normalized probability vector")


def uniform_posterior():
    return AzimuthPosterior(np.full(len(AZIMUTH_BINS), 1.0 / len(AZIMUTH_BINS)))


def update_posterior(prior, salience):
    """One sequential Bayes step: ``posterior ~ prior^DECAY_LAMBDA *
    softmax(s / TEMPERATURE_TAU)``.

    The decay exponent forgets stale evidence so the map can track a moving
    or switching source; all-zero salience (silence) contributes a uniform
    likelihood, i.e. no evidence toward any bin.
    """

    salience = np.asarray(salience, dtype=np.float64)
    if salience.shape != prior.probs.shape:
        raise DomainError("salience length must match the posterior bins")
    if not np.all((salience >= 0) & (salience <= 1)):  # NaN fails both
        raise DomainError("salience entries must be finite and lie in [0, 1]")
    if salience.max() > 0:
        logits = (salience - salience.max()) / TEMPERATURE_TAU
        likelihood = np.exp(logits)
        likelihood /= likelihood.sum()
    else:
        likelihood = np.full_like(salience, 1.0 / len(salience))
    post = prior.probs**DECAY_LAMBDA * likelihood
    post /= post.sum()
    return AzimuthPosterior(post)


def estimate_location(posterior):
    """Azimuth (degrees) of the maximum-probability bin.

    Ties break toward the bin center with smallest absolute angle, then
    toward the leftmost bin.
    """

    probs = posterior.probs
    peak = probs.max()
    candidates = np.flatnonzero(probs == peak)
    best = min(candidates, key=lambda i: (abs(AZIMUTH_BINS[i]), i))
    return float(AZIMUTH_BINS[best])


# ---------------------------------------------------------------------------
# Streaming azimuth tracker
# ---------------------------------------------------------------------------


class AzimuthTracker:
    """Listen to a stereo stream and keep the azimuth posterior up to date.

    The tracker holds one ``(num_bands, 2, _FRAME)`` band buffer for its
    whole life, so a feed of any length needs one frame of band memory.
    Each :meth:`feed` walks the chunk a ``FRAME_S`` frame at a time: it
    filters the piece that completes the current frame with a
    :class:`GammatoneStream` into the buffer, beamforms the full frame with
    :func:`beamform_salience` and folds the row into the posterior.  A
    partial frame waits in the buffer for the next feed, so no sample is
    filtered or beamformed twice, and feeding a signal in any chunking gives
    the same posterior as one feed of the whole signal.  The filter and the
    beamform's forward FFT each split a frame's bands over two threads when
    two CPUs are usable; the posterior is the same bit for bit on one.
    """

    def __init__(self, num_bands=NUM_BANDS):
        self.stream = GammatoneStream(make_gammatone_bank(num_bands=num_bands))
        self._bands = np.empty((num_bands, 2, _FRAME))
        self._kept = 0
        self.posterior = uniform_posterior()

    def feed(self, stereo):
        """Analyze a ``(2, n)`` chunk; returns the updated posterior."""
        stereo = as_stereo(stereo)  # before any piece reaches the filter state
        n = stereo.shape[1]
        if n == 0:
            raise DomainError("chunk must hold at least one sample")
        s0 = 0
        while s0 < n:
            take = min(_FRAME - self._kept, n - s0)
            self.stream.process(stereo[:, s0 : s0 + take],
                                out=self._bands[:, :, self._kept : self._kept + take])
            s0 += take
            self._kept += take
            if self._kept == _FRAME:
                (row,) = beamform_salience(self._bands)
                self.posterior = update_posterior(self.posterior, row)
                self._kept = 0
        return self.posterior
