"""Early auditory localization: gammatone analysis, beamforming, azimuth posterior.

The frontend mimics the first stages of biological hearing: each channel is
decomposed by a bank of fourth-order gammatone filters on the ERB scale
(Slaney's all-pole digital approximation), a bank of delay-and-sum
beamformers scans candidate azimuths via the interaural time difference of
each bin, and per-frame beamformer energies are folded into a sequential
Bayesian posterior over a 37-bin azimuth map.

``beamform_salience`` steers each beam by splitting the bin's ITD across the
two channels (left advanced by half the lag, right retarded by half) and
summing the zero-padded frame segments over their full overlap::

    E(d) = sum_n (L[n + d/2] + R[n - d/2])^2

Rather than materializing 37 delayed copies of every band, the energy is
expanded algebraically: the squared terms reduce to two frame sums per band
(signal energy and one-sample autocovariance, combined by the interpolation
weights), and the cross term is gathered from one batched FFT
cross-correlation per frame. The result matches brute-force delay-and-sum to
rounding error, and channel swap maps exactly onto lag negation.
"""

from __future__ import annotations

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
except ImportError:  # pragma: no cover - exercised only on older SciPy
    _sosfilt_kernel = None

from .errors import DomainError
from .scene import SAMPLE_RATE, itd_for_azimuth

NUM_BANDS = 32
FREQ_LO_HZ = 100.0
FREQ_HI_HZ = 8000.0

AZIMUTH_BINS = tuple(range(-90, 91, 5))  # 37 bins at 5 degree pitch
FRAME_S = 0.2
HOP_S = 0.1
DECAY_LAMBDA = 0.9
TEMPERATURE_TAU = 0.2

_EAR_Q = 9.26449
_MIN_BW = 24.7


def erb_space(low, high, n):
    """``n`` center frequencies equally spaced on the ERB scale, ascending.

    Uses the Glasberg-Moore ERB parameters (EarQ 9.26449, minBW 24.7). The
    lowest frequency equals ``low``; the highest stays below ``high``.
    """

    qb = _EAR_Q * _MIN_BW
    cf = -qb + np.exp(
        np.arange(1, n + 1) * (-np.log(high + qb) + np.log(low + qb)) / n
    ) * (high + qb)
    return cf[::-1].copy()


def _slaney_sos(fs, cf):
    """Second-order sections for Slaney's all-pole gammatone, one filter per cf.

    Each filter is four cascaded two-pole sections sharing the same poles but
    with different real zeros; the overall gain is folded into the first
    section. Returns an ``(n_bands, 4, 6)`` array in scipy's sos layout.
    """

    cf = np.asarray(cf, dtype=np.float64)
    T = 1.0 / fs
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
    """An ERB-spaced bank of fourth-order gammatone filters."""

    fs: int
    center_freqs: np.ndarray
    sos: np.ndarray

    @property
    def num_bands(self):
        return len(self.center_freqs)


@lru_cache(maxsize=8)
def make_gammatone_bank(fs=SAMPLE_RATE, num_bands=NUM_BANDS, f_lo=FREQ_LO_HZ, f_hi=FREQ_HI_HZ):
    """Design (and cache) a gammatone bank over ``[f_lo, f_hi]``."""
    if f_hi >= fs / 2:
        raise DomainError("upper band edge must stay below Nyquist")
    cf = erb_space(f_lo, f_hi, num_bands)
    return GammatoneBank(fs=fs, center_freqs=cf, sos=_slaney_sos(fs, cf))


def gammatone_analyze(x, bank=None):
    """Decompose a channel into per-band signals, shape ``(num_bands, len(x))``.

    Filtering is causal and deterministic; linearity and band-energy
    concentration at each center frequency are covered by the test suite.
    """

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise DomainError("gammatone_analyze needs a nonempty 1-D signal")
    if bank is None:
        bank = make_gammatone_bank()
    return np.stack([sosfilt(bank.sos[b], x) for b in range(bank.num_bands)])


class GammatoneStream:
    """Chunk-wise gammatone analysis that carries filter state between calls.

    Feeding a signal through :meth:`process` in pieces produces exactly the
    same band signals as one :func:`gammatone_analyze` call on the
    concatenation, which lets the agent analyze audio step by step without
    re-filtering history.  With ``channels > 1`` the stream filters that
    many parallel signals per call (e.g. a stereo pair) in one batched pass
    per band.
    """

    def __init__(self, bank=None, channels=1):
        if channels < 1:
            raise DomainError(f"channels must be >= 1, got {channels}")
        self.bank = bank if bank is not None else make_gammatone_bank()
        self.channels = channels
        # State layout (bands, channels, sections, 2) matches the low-level
        # filter kernel; the public-API fallback transposes as needed.
        self._zi = np.zeros(
            (self.bank.num_bands, channels, self.bank.sos.shape[1], 2)
        )

    def process(self, x):
        """Filter one chunk; returns ``(num_bands, n)`` for a 1-D mono chunk
        or ``(num_bands, channels, n)`` for a ``(channels, n)`` chunk."""
        x = np.asarray(x, dtype=np.float64)
        mono = x.ndim == 1
        if mono:
            if self.channels != 1:
                raise DomainError(
                    f"stream expects {self.channels}-channel chunks, got 1-D"
                )
            x = x[None, :]
        if x.ndim != 2 or x.shape[0] != self.channels or x.shape[1] == 0:
            raise DomainError(
                f"chunk must have shape ({self.channels}, n>0), got {x.shape}"
            )
        out = np.empty((self.bank.num_bands,) + x.shape)
        if _sosfilt_kernel is not None:
            for b in range(self.bank.num_bands):
                out[b] = x
                _sosfilt_kernel(self.bank.sos[b], out[b], self._zi[b])
        else:
            for b in range(self.bank.num_bands):
                y, zf = sosfilt(
                    self.bank.sos[b], x, axis=-1,
                    zi=np.moveaxis(self._zi[b], 0, 1),
                )
                out[b] = y
                self._zi[b] = np.moveaxis(zf, 1, 0)
        return out[:, 0, :] if mono else out


@lru_cache(maxsize=32)
def band_weights(n_rfft, fs=SAMPLE_RATE, num_bands=NUM_BANDS):
    """``|H_b(f)|^2`` of each gammatone filter on an ``n_rfft``-point rfft grid.

    Used to evaluate band energies spectrally (Parseval) without running the
    filters, e.g. for interaural level difference features.
    """

    bank = make_gammatone_bank(fs=fs, num_bands=num_bands)
    freqs = np.linspace(0.0, fs / 2.0, n_rfft)
    weights = np.empty((bank.num_bands, n_rfft))
    for b in range(bank.num_bands):
        _, h = sosfreqz(bank.sos[b], worN=freqs, fs=fs)
        weights[b] = np.abs(h) ** 2
    return weights


# ---------------------------------------------------------------------------
# Beamformer bank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamformerBank:
    """Delay-and-sum beamformers, one per azimuth bin.

    ``lags`` holds each bin's ITD in (fractional) samples; ``max_lag`` bounds
    the integer padding needed for the cross-correlation.
    """

    bin_centers: np.ndarray
    itds: np.ndarray
    lags: np.ndarray
    max_lag: int


@lru_cache(maxsize=4)
def make_beamformer_bank(fs=SAMPLE_RATE):
    centers = np.array(AZIMUTH_BINS, dtype=np.float64)
    itds = np.array([itd_for_azimuth(a) for a in centers])
    lags = itds * fs
    return BeamformerBank(
        bin_centers=centers,
        itds=itds,
        lags=lags,
        max_lag=int(np.ceil(np.max(np.abs(lags)))) + 2,
    )


def beamform_salience(left_bands, right_bands, fs=SAMPLE_RATE, frame_s=FRAME_S, hop_s=HOP_S):
    """Per-frame azimuth salience from delay-and-sum beamformer energies.

    For every frame and azimuth bin, the left bands are delayed by the bin's
    ITD (linear interpolation for fractional lags) and summed with the right
    bands; the total energy across bands, normalized to the frame maximum,
    is the salience. Silent frames yield all-zero rows. Returns an array of
    shape ``(n_frames, 37)``.
    """

    left_bands = np.atleast_2d(np.asarray(left_bands, dtype=np.float64))
    right_bands = np.atleast_2d(np.asarray(right_bands, dtype=np.float64))
    if left_bands.shape != right_bands.shape:
        raise DomainError("left/right band sets must have equal shapes")
    nb, n = left_bands.shape
    frame = int(round(frame_s * fs))
    hop = int(round(hop_s * fs))
    if frame > n:
        raise DomainError("frame longer than signal")

    bank = make_beamformer_bank(fs)
    k = bank.max_lag
    # Steering: left sampled at n + lag/2, right at n - lag/2.
    dl, dr = bank.lags / 2.0, -bank.lags / 2.0
    il, ir = np.floor(dl).astype(int), np.floor(dr).astype(int)
    wl, wr = dl - il, dr - ir

    starts = np.arange(0, n - frame + 1, hop)
    # The FFT correlation is only read at lag indices 0 .. 2k + 3; an FFT
    # length of frame + 2k + 4 keeps every read free of circular aliasing
    # (the wrapped tail of the correlation stays beyond the read range).
    m = sfft.next_fast_len(frame + 2 * k + 4, real=True)
    # Both channels share one transform buffer: rows 0..nb-1 hold L shifted
    # right by k0, rows nb.. hold R.  Each frame overwrites only those
    # spans, so the zero padding around them is laid down once per call.
    k0 = k + 1
    stacked = np.zeros((2 * nb, m))
    salience = np.zeros((len(starts), len(bank.bin_centers)))
    for fi, s0 in enumerate(starts):
        lf = left_bands[:, s0 : s0 + frame]
        rf = right_bands[:, s0 : s0 + frame]

        # Full-overlap sums of the interpolated shifted squares: independent of
        # the integer part of the shift, they need only the frame energy and
        # the one-sample autocovariance of each segment.
        sa_l, sb_l = np.einsum("bn,bn->b", lf, lf), np.einsum(
            "bn,bn->b", lf[:, :-1], lf[:, 1:]
        )
        sa_r, sb_r = np.einsum("bn,bn->b", rf, rf), np.einsum(
            "bn,bn->b", rf[:, :-1], rf[:, 1:]
        )
        s_ll = (((1 - wl) ** 2 + wl**2)[None, :] * sa_l[:, None]
                + (2 * wl * (1 - wl))[None, :] * sb_l[:, None])
        s_rr = (((1 - wr) ** 2 + wr**2)[None, :] * sa_r[:, None]
                + (2 * wr * (1 - wr))[None, :] * sb_r[:, None])

        # Cross term via one batched FFT linear cross-correlation:
        # cc[k0 + q] = sum_n L[n + q] R[n] for q in [-k0, k0 + 1].
        stacked[:nb, k0 : k0 + frame] = lf
        stacked[nb:, :frame] = rf
        spec = sfft.rfft(stacked, axis=1)
        cross = spec[:nb] * np.conj(spec[nb:])
        # Free each spectrum as soon as it is used, so a many-frame call
        # needs one frame's scratch memory rather than two.
        del spec
        cc = sfft.irfft(cross, m, axis=1)[:, : 2 * k0 + 2]
        del cross
        q = il - ir  # integer part of the total lag between the two shifts
        s_lr = ((1 - wl) * (1 - wr) * cc[:, k0 + q]
                + (1 - wl) * wr * cc[:, k0 + q - 1]
                + wl * (1 - wr) * cc[:, k0 + q + 1]
                + wl * wr * cc[:, k0 + q])

        energy = s_ll + 2.0 * s_lr + s_rr
        total = np.maximum(energy, 0.0).sum(axis=0)
        peak = total.max()
        if peak > 0:
            salience[fi] = total / peak
    return salience


# ---------------------------------------------------------------------------
# Bayesian azimuth posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AzimuthPosterior:
    """Normalized probability vector over the 37 azimuth bins."""

    probs: np.ndarray
    bin_centers: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "bin_centers", np.asarray(self.bin_centers, dtype=np.float64))
        if probs.shape != self.bin_centers.shape:
            raise DomainError("probs and bin_centers must align")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise DomainError("posterior must be a normalized probability vector")

    @property
    def entropy(self):
        p = self.probs[self.probs > 0]
        return float(-np.sum(p * np.log(p)))


def uniform_posterior():
    centers = np.array(AZIMUTH_BINS, dtype=np.float64)
    return AzimuthPosterior(np.full(len(centers), 1.0 / len(centers)), centers)


def update_posterior(prior, salience, decay=DECAY_LAMBDA, temperature=TEMPERATURE_TAU):
    """One sequential Bayes step: ``posterior ~ prior^decay * softmax(s/tau)``.

    The decay exponent forgets stale evidence so the map can track a moving
    or switching source; all-zero salience (silence) contributes a uniform
    likelihood, i.e. no evidence toward any bin.
    """

    salience = np.asarray(salience, dtype=np.float64)
    if salience.shape != prior.probs.shape:
        raise DomainError("salience length must match the posterior bins")
    if np.any(salience < 0) or np.any(salience > 1):
        raise DomainError("salience entries must lie in [0, 1]")
    if salience.max() > 0:
        logits = (salience - salience.max()) / temperature
        likelihood = np.exp(logits)
        likelihood /= likelihood.sum()
    else:
        likelihood = np.full_like(salience, 1.0 / len(salience))
    post = prior.probs**decay * likelihood
    post /= post.sum()
    return AzimuthPosterior(post, prior.bin_centers)


def estimate_location(posterior):
    """Azimuth (degrees) of the maximum-probability bin.

    Ties break toward the bin center with smallest absolute angle, then
    toward the leftmost bin.
    """

    probs = posterior.probs
    peak = probs.max()
    candidates = np.flatnonzero(probs == peak)
    best = min(candidates, key=lambda i: (abs(posterior.bin_centers[i]), i))
    return float(posterior.bin_centers[best])


# ---------------------------------------------------------------------------
# Streaming azimuth tracker
# ---------------------------------------------------------------------------


class AzimuthTracker:
    """Listen to a stereo stream and keep the azimuth posterior up to date.

    Each :meth:`feed` runs the chunk through a stereo :class:`GammatoneStream`,
    beamforms every ``frame_s`` frame (at ``hop_s`` spacing) that the band
    buffers now hold in one batched :func:`beamform_salience` call, and folds
    the rows into the posterior in order.  Only the band samples the next
    frame still needs are kept, so the buffers stay shorter than one frame.
    Feeding a signal in any chunking gives the same posterior as one feed of
    the whole signal.
    """

    def __init__(self, num_bands=NUM_BANDS, frame_s=FRAME_S, hop_s=HOP_S):
        if not 0 < hop_s <= frame_s:
            raise DomainError(f"need 0 < hop_s <= frame_s, got {hop_s}, {frame_s}")
        self.stream = GammatoneStream(make_gammatone_bank(num_bands=num_bands), channels=2)
        self.frame_s = frame_s
        self.hop_s = hop_s
        self._frame = int(round(frame_s * SAMPLE_RATE))
        self._hop = int(round(hop_s * SAMPLE_RATE))
        self._left = np.zeros((num_bands, 0))
        self._right = np.zeros((num_bands, 0))
        self.posterior = uniform_posterior()

    def feed(self, stereo):
        """Analyze a ``(2, n)`` chunk; returns the updated posterior."""
        bands = self.stream.process(stereo)
        left = np.concatenate([self._left, bands[:, 0]], axis=1)
        right = np.concatenate([self._right, bands[:, 1]], axis=1)
        # Release the filter output before beamforming.  At full-fidelity
        # sizes (32 bands, 0.5 s chunks) keeping it alive lifts each call's
        # peak scratch memory enough that the allocator hands the heap back
        # to the system, and every call then faults in fresh pages.
        del bands
        if left.shape[1] >= self._frame:
            salience = beamform_salience(left, right, frame_s=self.frame_s, hop_s=self.hop_s)
            for row in salience:
                self.posterior = update_posterior(self.posterior, row)
            left = left[:, len(salience) * self._hop :]
            right = right[:, len(salience) * self._hop :]
        self._left, self._right = left, right
        return self.posterior
